"""Fuzzing-throughput measurement: reference vs. uncached vs. cached vs. incremental.

The perf contract of the compile pipeline is measured here: the same μCFuzz
run (same compiler, seeds, RNG seed — hence an identical step sequence) is
executed four ways in one process.  The ``reference`` arm compiles through
the object-IR reference pipeline (``Compiler(reference=True)``) with no
caches; every other arm runs the default flat-native middle end
(buffer-direct irgen, the flat passes and backend): ``uncached`` runs the
plain pipeline with no cache; ``cached`` shares the front end through a
cache, which also puts every compile on the compiler's
:class:`~repro.compiler.session.CompileSession` (content-keyed
per-function middle-end reuse); ``incremental``, the default fuzzer
configuration, adds the dirty-region front end for mutants.  The steps/sec
ratios, cache and session hit-rates, and per-stage timing breakdown are
written to ``BENCH_throughput.json`` so successive changes accumulate a
perf trajectory.  All runs must land on identical final coverage and pool
sizes: the speedup changes no observable result.

Entry points:

* ``python benchmarks/bench_fuzzer_throughput.py`` — the full 600-step run;
* ``bench-smoke`` (``pyproject.toml`` script) / :func:`smoke_main` — a tiny
  step budget that asserts the caches are actually hitting and no
  non-reference arm crosses the IR bridge (tier-2 CI);
* ``paranoid-smoke`` / :func:`paranoid_main` — a paranoid-mode run where
  every cached compile is differentially checked against a from-scratch
  reference-pipeline compile; any divergence raises.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import time
from pathlib import Path

#: Default step budget: the acceptance run of the ISSUE (600-step μCFuzz.s).
DEFAULT_STEPS = 600
DEFAULT_SEEDS = 40
DEFAULT_REPORT = "BENCH_throughput.json"

#: Every compile-pipeline stage any arm can hit.  Each arm's reported
#: ``stage_timings`` is zero-filled over this set so the per-arm schema is
#: uniform — an arm that never enters a stage reports 0.0 for it instead of
#: omitting the key (the historical asymmetry made cross-arm diffs fiddly).
STAGE_KEYS = (
    "lex",
    "parse",
    "sema",
    "frontend_incremental",
    "irgen",
    "opt",
    "backend",
    "session",
)


def _build_fuzzer(
    fuzzer_name: str,
    seeds: list[str],
    seed: int,
    use_cache: bool,
    incremental: bool = False,
    paranoid: bool = False,
    cache_maxsize: int | None = None,
    reference: bool = False,
):
    import repro.mutators  # noqa: F401  (populate the registry)
    from repro.compiler.driver import Compiler, GCC_SIM
    from repro.fuzzing.mucfuzz import MuCFuzz
    from repro.muast.registry import global_registry

    compiler = Compiler(*GCC_SIM, reference=reference)
    mutators = (
        global_registry.unsupervised()
        if fuzzer_name == "uCFuzz.u"
        else global_registry.supervised()
    )
    return MuCFuzz(
        compiler,
        random.Random(seed),
        seeds,
        mutators,
        name=fuzzer_name,
        use_cache=use_cache,
        cache_maxsize=cache_maxsize,
        incremental=incremental,
        paranoid=paranoid,
    )


def _time_run(fuzzer, steps: int) -> dict:
    # GC pauses scale with total retained heap, which grows over the
    # process's lifetime — they would bill the later run for the earlier
    # run's garbage.  Collect up front, then keep GC out of the timed loop.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(steps):
            fuzzer.step()
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    stats = fuzzer.stats_snapshot()
    profile = fuzzer.profile_snapshot()
    # Uniform per-arm schema: zero-fill the full stage-key set (an arm that
    # never entered a stage reports 0.0, not a missing key).
    observed = profile["stage_timings"]
    profile["stage_timings"] = dict(
        sorted({**{stage: 0.0 for stage in STAGE_KEYS}, **observed}.items())
    )
    return {
        "steps": steps,
        "seconds": round(elapsed, 4),
        # None (not a fake 0.0) when the clock resolution swallowed the
        # run — ratio code skips it instead of dividing by a lie.
        "steps_per_sec": round(steps / elapsed, 2) if elapsed > 0 else None,
        "final_coverage": len(fuzzer.coverage),
        "pool_size": len(fuzzer.pool),
        "stats": stats,
        "profile": profile,
    }


#: The measured arms in gate order: (label, reference, use_cache,
#: incremental).  ``incremental`` is the default μCFuzz configuration.
ARMS = (
    ("reference", True, False, False),
    ("uncached", False, False, False),
    ("cached", False, True, False),
    ("incremental", False, True, True),
)


def measure_throughput(
    steps: int = DEFAULT_STEPS,
    fuzzer_name: str = "uCFuzz.s",
    n_seeds: int = DEFAULT_SEEDS,
    seed: int = 2024,
) -> dict:
    """Run the four arms, reference through incremental.

    All runs use the same RNG seed; neither the pipeline, caching,
    incremental compilation, nor the compile session consumes fuzzer
    randomness, so they execute the identical step sequence and the
    comparison is apples-to-apples (also sanity-checked via final coverage
    and pool size, which must match exactly across all arms).
    """
    from repro.fuzzing.seedgen import generate_seeds

    seeds = generate_seeds(n_seeds)
    report: dict = {"fuzzer": fuzzer_name, "seed": seed, "n_seeds": n_seeds}
    for label, reference, use_cache, incremental in ARMS:
        fuzzer = _build_fuzzer(
            fuzzer_name, seeds, seed, use_cache, incremental=incremental,
            reference=reference,
        )
        report[label] = _time_run(fuzzer, steps)
    for label, *_ in ARMS[1:]:
        assert (
            report[label]["final_coverage"]
            == report["reference"]["final_coverage"]
        ), f"{label} run changed fuzzing coverage"
        assert (
            report[label]["pool_size"] == report["reference"]["pool_size"]
        ), f"{label} run changed the mutant pool"

    def _ratio(a: "float | None", b: "float | None") -> "float | None":
        # None propagates: a timing too small to measure produces no ratio.
        if a is None or not b:
            return None
        return round(a / b, 3)

    def _sps(label: str) -> "float | None":
        return report[label]["steps_per_sec"]

    report["speedup_uncached_vs_reference"] = _ratio(
        _sps("uncached"), _sps("reference")
    )
    report["speedup"] = _ratio(_sps("cached"), _sps("uncached"))
    report["speedup_incremental"] = _ratio(
        _sps("incremental"), _sps("uncached")
    )
    report["speedup_incremental_vs_cached"] = _ratio(
        _sps("incremental"), _sps("cached")
    )
    report["cache_hit_rate"] = report["cached"]["stats"].get("cache_hit_rate", 0.0)
    inc_stats = report["incremental"]["stats"]
    report["incremental_hit_rate"] = _ratio(
        inc_stats.get("cache_incremental_hits", 0),
        inc_stats.get("cache_incremental_hits", 0)
        + inc_stats.get("cache_incremental_fallbacks", 0),
    )
    report["session_hit_rate"] = inc_stats.get("middle_session_hit_rate", 0.0)
    report["stage_timings"] = report["incremental"]["profile"]["stage_timings"]
    return report


def write_report(report: dict, path: str | Path = DEFAULT_REPORT) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def run(steps: int, output: str | Path, fuzzer_name: str = "uCFuzz.s") -> dict:
    report = measure_throughput(steps=steps, fuzzer_name=fuzzer_name)
    path = write_report(report, output)
    inc_stats = report["incremental"]["stats"]
    arms = " -> ".join(
        f"{report[label]['steps_per_sec']} ({label})" for label, *_ in ARMS
    )
    print(
        f"{report['fuzzer']}: {arms} steps/sec "
        f"(uncached {report['speedup_uncached_vs_reference']}x over "
        f"reference, incremental {report['speedup_incremental']}x over "
        f"uncached, incremental flat decodes "
        f"{inc_stats.get('flat_decodes', 0)}, "
        f"cache hit-rate {report['cache_hit_rate']:.2%}, "
        f"session hit-rate {report['session_hit_rate']:.2%}) -> {path}"
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument("--fuzzer", default="uCFuzz.s", choices=["uCFuzz.s", "uCFuzz.u"])
    parser.add_argument("--output", default=DEFAULT_REPORT)
    args = parser.parse_args(argv)
    run(args.steps, args.output, args.fuzzer)
    return 0


def smoke_main(argv: list[str] | None = None) -> int:
    """Tiny-budget CI smoke: the caches must be hitting on the hot path."""
    parser = argparse.ArgumentParser(description="bench-smoke")
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--output", default=DEFAULT_REPORT)
    args = parser.parse_args(argv)
    report = run(args.steps, args.output)
    if report["cache_hit_rate"] <= 0:
        raise SystemExit("bench-smoke: cache hit-rate is 0 on the hot path")
    inc_stats = report["incremental"]["stats"]
    if inc_stats.get("cache_incremental_hits", 0) <= 0:
        raise SystemExit("bench-smoke: incremental front end never hit")
    if inc_stats.get("middle_session_hits", 0) <= 0:
        raise SystemExit("bench-smoke: the compile session never hit")
    # The bridge-elimination contract: no arm on the default pipeline ever
    # decodes a buffer back to object IR (encodes would mean irgen fell
    # back to object emission somewhere).
    for label, reference, *_ in ARMS:
        stats = report[label]["stats"]
        if not reference and (
            stats.get("flat_decodes", 0) or stats.get("flat_encodes", 0)
        ):
            raise SystemExit(
                f"bench-smoke: the {label} arm crossed the IR bridge "
                f"({stats.get('flat_encodes')} encodes, "
                f"{stats.get('flat_decodes')} decodes)"
            )
    # Arm ordering: each optimization layer must not make the pipeline
    # slower.  A tiny step budget is noisy, so the gate is a generous slack
    # factor, not strict monotonicity — it catches a de-optimized layer
    # (2x regressions), not jitter — and only applies once the budget is
    # large enough to amortize session/cache warmup (below ~40 steps the
    # memoizing arms legitimately trail while their stores are cold).
    slack = 0.7
    order = [label for label, *_ in ARMS]
    rates = [report[label]["steps_per_sec"] for label in order]
    if args.steps >= 40 and all(rate is not None for rate in rates):
        for i in range(1, len(order)):
            if rates[i] < rates[i - 1] * slack:
                raise SystemExit(
                    f"bench-smoke: {order[i]} arm ({rates[i]}/s) fell below "
                    f"{slack}x of the {order[i - 1]} arm ({rates[i - 1]}/s)"
                )
    return 0


def paranoid_main(argv: list[str] | None = None) -> int:
    """Differential smoke: every cached compile is cross-checked.

    Runs μCFuzz in its default configuration with ``paranoid=True`` — each
    compile (dirty-region front end, session-served middle end) is
    recompiled from scratch through the object-IR reference pipeline and
    compared field-for-field, so every check is also a
    flat-native-vs-reference differential; any divergence raises
    :class:`~repro.cast.incremental.IncrementalDivergence` and fails the
    run.  Gating is on zero divergences and on both reuse paths having
    fired, not on throughput.  ``--macro`` runs the macro fuzzer instead
    (:func:`_paranoid_macro`).
    """
    parser = argparse.ArgumentParser(description="paranoid-smoke")
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--macro", action="store_true",
        help="run the macro fuzzer instead, alternating gcc-sim and "
        "clang-sim steps: Havoc rounds, sampled -O levels and flags",
    )
    args = parser.parse_args(argv)
    from repro.fuzzing.seedgen import generate_seeds

    if args.macro:
        return _paranoid_macro(
            generate_seeds(DEFAULT_SEEDS), args.steps, args.seed
        )

    seeds = generate_seeds(DEFAULT_SEEDS)
    fuzzer = _build_fuzzer(
        "uCFuzz.s", seeds, args.seed, True, incremental=True, paranoid=True,
    )
    for _ in range(args.steps):
        fuzzer.step()  # IncrementalDivergence propagates and fails the job
    stats = fuzzer.stats_snapshot()
    inc_hits = stats.get("cache_incremental_hits", 0)
    session_hits = stats.get("middle_session_hits", 0)
    print(
        f"paranoid-smoke: {args.steps} steps, 0 divergences, "
        f"{stats.get('middle_session_paranoid_checks', 0)} compile checks, "
        f"{stats.get('cache_paranoid_checks', 0)} front-end checks, "
        f"{inc_hits} incremental front ends, "
        f"{session_hits} session replays "
        f"({stats.get('middle_incremental_hits', 0)} compiles served, "
        f"{stats.get('middle_incremental_fallbacks', 0)} aborts), "
        f"{stats['flat_encodes']} encodes / {stats['flat_decodes']} decodes"
    )
    if inc_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: the incremental front end was never exercised"
        )
    if session_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: the compile session was never exercised"
        )
    return 0


def _paranoid_macro(seeds: list[str], steps: int, seed: int) -> int:
    """``paranoid_main --macro``: Havoc rounds' front ends checked too.

    Every dirty-region front end (Havoc rounds after the first and the
    final compile) is cross-checked against a full front end, and every
    compile against a from-scratch reference-pipeline compile.
    """
    import repro.mutators  # noqa: F401  (populate the registry)
    from repro.compiler.driver import CLANG_SIM, GCC_SIM, Compiler
    from repro.fuzzing.macro import MacroFuzzer
    from repro.muast.registry import global_registry

    fuzzers = [
        MacroFuzzer(
            Compiler(*personality), random.Random(seed), seeds,
            list(global_registry), paranoid=True,
        )
        for personality in (GCC_SIM, CLANG_SIM)
    ]
    for i in range(steps):
        fuzzers[i % 2].step()  # IncrementalDivergence fails the job
    checks = sum(f.cache.paranoid_checks for f in fuzzers)
    havoc_hits = sum(f.stats.get("havoc_incremental_hits", 0) for f in fuzzers)
    print(
        f"paranoid-smoke[macro]: {steps} steps, 0 divergences, "
        f"{checks} front-end checks, "
        f"{havoc_hits} Havoc-round incremental front ends"
    )
    if havoc_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: no Havoc round took the incremental front end"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the bench script
    raise SystemExit(main())
