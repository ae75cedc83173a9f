"""Fuzzer throughput: steps/sec of the μCFuzz hot path, five ways.

Not a paper table — this bench tracks the reproduction's own perf
trajectory.  It runs the same μCFuzz.s campaign through the object-IR
reference pipeline with no caches, then on the default flat-native pipeline
uncached, with the shared front-end cache, fully incremental (dirty-region
front end plus function-granular middle-end replay), and through the
cross-step compile session (content-keyed middle-end memoization + batched
per-step compilation) — identical RNG seed, hence an identical step
sequence — and records steps/sec, the speedups, cache/session hit-rates,
and the per-stage timing breakdown (one uniform zero-filled stage-key set
per arm) to ``BENCH_throughput.json``.

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
    # Time one representative session step for the pytest-benchmark table.
    from repro.fuzzing.seedgen import generate_seeds
    from repro.fuzzing.throughput import _build_fuzzer

    fuzzer = _build_fuzzer(
        "uCFuzz.s", generate_seeds(40), 2024, True, incremental=True,
        session=True, batch_compile=True,
    )
    benchmark(fuzzer.step)

    write_report(report)
    print(
        f"\nThroughput ({STEPS} steps): "
        f"{report['uncached']['steps_per_sec']} steps/sec uncached, "
        f"{report['cached']['steps_per_sec']} steps/sec cached, "
        f"{report['incremental']['steps_per_sec']} steps/sec incremental, "
        f"{report['session']['steps_per_sec']} steps/sec session "
        f"({report['speedup_session']}x, "
        f"cache hit-rate {report['cache_hit_rate']:.2%}, "
        f"session hit-rate {report['session_hit_rate']:.2%})"
    )

    # The caches must engage on the hot path and must not change behaviour
    # (coverage/pool equality across all five arms is asserted inside
    # measure_throughput).
    assert report["cache_hit_rate"] > 0
    assert report["incremental"]["stats"]["cache_incremental_hits"] > 0
    assert report["incremental"]["stats"]["middle_incremental_hits"] > 0
    assert report["session"]["stats"]["middle_session_hits"] > 0
    assert report["session"]["stats"]["flat_decodes"] == 0
    assert report["speedup"] > 1.0
    assert report["speedup_incremental"] > report["speedup"]
    # Cross-arm session ordering is budget-dependent (keying overhead
    # amortizes over steps); the hard floor is beating the uncached arm.
    assert report["speedup_session"] > 1.0
    # Uniform per-arm schema: every arm reports the same stage-key set.
    for arm in ("reference", "uncached", "cached", "incremental", "session"):
        assert set(STAGE_KEYS) <= set(report[arm]["profile"]["stage_timings"])


if __name__ == "__main__":
    from repro.fuzzing.throughput import main

    raise SystemExit(main())
