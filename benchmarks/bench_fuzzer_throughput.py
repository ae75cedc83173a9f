"""Fuzzer throughput: steps/sec of the μCFuzz hot path, two ways.

Not a paper table — this bench tracks the reproduction's own perf
trajectory.  It runs the same μCFuzz.s campaign through the object-IR
reference pipeline, which compiles every program from scratch, and through
the default fuzzer (the flat-native pipeline behind the shared front-end
cache, the dirty-region front end and the compile session) — identical RNG
seed, hence an identical step sequence — and records steps/sec, the
speedup, cache/session hit-rates, and the per-stage timing breakdown (one
uniform zero-filled stage-key set per arm) to ``BENCH_throughput.json``.

Run standalone for the full acceptance measurement::

    PYTHONPATH=src python benchmarks/bench_fuzzer_throughput.py --steps 600

or with a tiny budget via the ``bench-smoke`` script (tier-2 CI).
"""

import os

from repro.fuzzing.throughput import (
    ARMS,
    STAGE_KEYS,
    measure_throughput,
    write_report,
)

#: Pytest-collected runs use a reduced budget; the CLI defaults to 600.
STEPS = int(os.environ.get("BENCH_THROUGHPUT_STEPS", "150"))


def test_fuzzer_throughput(benchmark):
    report = measure_throughput(steps=STEPS)
    # Time one representative default step for the pytest-benchmark table.
    from repro.fuzzing.seedgen import generate_seeds
    from repro.fuzzing.throughput import _build_fuzzer

    fuzzer = _build_fuzzer("uCFuzz.s", generate_seeds(40), 2024)
    benchmark(fuzzer.step)

    write_report(report)
    print(
        f"\nThroughput ({STEPS} steps): "
        f"{report['reference']['steps_per_sec']} steps/sec reference, "
        f"{report['default']['steps_per_sec']} steps/sec default "
        f"({report['speedup']}x, "
        f"cache hit-rate {report['cache_hit_rate']:.2%}, "
        f"session hit-rate {report['session_hit_rate']:.2%})"
    )

    # The caches must engage on the hot path and must not change behaviour
    # (coverage/pool equality across both arms is asserted inside
    # measure_throughput).
    stats = report["default"]["stats"]
    assert report["cache_hit_rate"] > 0
    assert stats["cache_incremental_hits"] > 0
    assert stats["middle_session_hits"] > 0
    assert stats["middle_incremental_hits"] > 0
    assert report["speedup"] > 1.0
    # Uniform per-arm schema: every arm reports the same stage-key set.
    for arm, _ in ARMS:
        assert set(STAGE_KEYS) <= set(report[arm]["profile"]["stage_timings"])


if __name__ == "__main__":
    from repro.fuzzing.throughput import main

    raise SystemExit(main())
