"""Fuzzer throughput: steps/sec of the μCFuzz hot path, four ways.

Not a paper table — this bench tracks the reproduction's own perf
trajectory.  It runs the same μCFuzz.s campaign through the object-IR
reference pipeline with no caches, then on the default flat-native pipeline
uncached (the plain middle end), with the shared front-end cache (which
puts every compile on the compiler's content-keyed compile session), and
incremental (the default configuration: the dirty-region front end on top)
— identical RNG seed, hence an identical step sequence — and records
steps/sec, the speedups, cache/session hit-rates, and the per-stage timing
breakdown (one uniform zero-filled stage-key set per arm) to
``BENCH_throughput.json``.

Run standalone for the full acceptance measurement::

    PYTHONPATH=src python benchmarks/bench_fuzzer_throughput.py --steps 600

or with a tiny budget via the ``bench-smoke`` script (tier-2 CI).
"""

import os

from repro.fuzzing.throughput import STAGE_KEYS, measure_throughput, write_report

#: Pytest-collected runs use a reduced budget; the CLI defaults to 600.
STEPS = int(os.environ.get("BENCH_THROUGHPUT_STEPS", "150"))


def test_fuzzer_throughput(benchmark):
    report = measure_throughput(steps=STEPS)
    # Time one representative default (incremental) step for the
    # pytest-benchmark table.
    from repro.fuzzing.seedgen import generate_seeds
    from repro.fuzzing.throughput import _build_fuzzer

    fuzzer = _build_fuzzer(
        "uCFuzz.s", generate_seeds(40), 2024, True, incremental=True,
    )
    benchmark(fuzzer.step)

    write_report(report)
    print(
        f"\nThroughput ({STEPS} steps): "
        f"{report['uncached']['steps_per_sec']} steps/sec uncached, "
        f"{report['cached']['steps_per_sec']} steps/sec cached, "
        f"{report['incremental']['steps_per_sec']} steps/sec incremental "
        f"({report['speedup_incremental']}x, "
        f"cache hit-rate {report['cache_hit_rate']:.2%}, "
        f"session hit-rate {report['session_hit_rate']:.2%})"
    )

    # The caches must engage on the hot path and must not change behaviour
    # (coverage/pool equality across all four arms is asserted inside
    # measure_throughput).
    inc_stats = report["incremental"]["stats"]
    assert report["cache_hit_rate"] > 0
    assert inc_stats["cache_incremental_hits"] > 0
    assert inc_stats["middle_session_hits"] > 0
    assert inc_stats["middle_incremental_hits"] > 0
    assert report["speedup"] > 1.0
    assert report["speedup_incremental"] > report["speedup"]
    # Uniform per-arm schema: every arm reports the same stage-key set.
    for arm in ("reference", "uncached", "cached", "incremental"):
        assert set(STAGE_KEYS) <= set(report[arm]["profile"]["stage_timings"])


if __name__ == "__main__":
    from repro.fuzzing.throughput import main

    raise SystemExit(main())
