"""Fuzzing-throughput measurement: the reference pipeline vs. the default.

The perf contract of the compile pipeline is measured here: the same μCFuzz
run (same compiler personality, seeds, RNG seed — hence an identical step
sequence) is executed two ways in one process.  The ``reference`` arm
compiles through the object-IR reference pipeline
(``Compiler(reference=True)``), which builds every program from scratch;
the ``default`` arm is the fuzzer as campaigns run it: the flat-native
middle end (buffer-direct irgen, the flat passes and backend) behind the
shared front-end cache, the dirty-region front end for mutants and the
compiler's :class:`~repro.compiler.session.CompileSession` (content-keyed
per-function middle-end reuse).  The steps/sec ratio, cache and session
hit-rates, and per-stage timing breakdown are written to
``BENCH_throughput.json`` so successive changes accumulate a perf
trajectory.  Both runs must land on identical final coverage and pool
sizes: the speedup changes no observable result.

Entry points:

* ``python benchmarks/bench_fuzzer_throughput.py`` — the full 600-step run;
* ``bench-smoke`` (``pyproject.toml`` script) / :func:`smoke_main` — a tiny
  step budget that asserts the caches are actually hitting and the default
  arm is not slower than the reference (tier-2 CI); it writes a report only
  when given ``--output``;
* ``paranoid-smoke`` / :func:`paranoid_main` — a paranoid-mode run of
  μCFuzz (or, with ``--macro`` / ``--grayc``, of the macro fuzzer or
  GrayC) where every dirty-region front end is checked against a full one
  and every default-pipeline compile against a from-scratch
  reference-pipeline compile; any divergence raises, and so do a front-end
  cache that holds a text outside the pool after a step and a run that
  made no compile or no front-end check.
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
    paranoid: bool = False,
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


#: The measured arms in gate order: (label, reference).  ``default`` is
#: the fuzzer as campaigns construct it.
ARMS = (
    ("reference", True),
    ("default", False),
)


def measure_throughput(
    steps: int = DEFAULT_STEPS,
    fuzzer_name: str = "uCFuzz.s",
    n_seeds: int = DEFAULT_SEEDS,
    seed: int = 2024,
) -> dict:
    """Run both arms, the reference first.

    Both runs use the same RNG seed; neither the pipeline nor any cache
    consumes fuzzer randomness, so they execute the identical step sequence
    and the comparison is apples-to-apples (also sanity-checked via final
    coverage and pool size, which must match exactly).
    """
    from repro.fuzzing.seedgen import generate_seeds

    seeds = generate_seeds(n_seeds)
    report: dict = {"fuzzer": fuzzer_name, "seed": seed, "n_seeds": n_seeds}
    for label, reference in ARMS:
        fuzzer = _build_fuzzer(fuzzer_name, seeds, seed, reference=reference)
        report[label] = _time_run(fuzzer, steps)
    ref, default = report["reference"], report["default"]
    assert (
        default["final_coverage"] == ref["final_coverage"]
    ), "the default run changed fuzzing coverage"
    assert (
        default["pool_size"] == ref["pool_size"]
    ), "the default run changed the mutant pool"

    def _ratio(a: "float | None", b: "float | None") -> "float | None":
        # None propagates: a timing too small to measure produces no ratio.
        if a is None or not b:
            return None
        return round(a / b, 3)

    report["speedup"] = _ratio(
        default["steps_per_sec"], ref["steps_per_sec"]
    )
    stats = default["stats"]
    report["cache_hit_rate"] = stats.get("cache_hit_rate", 0.0)
    report["incremental_hit_rate"] = _ratio(
        stats.get("cache_incremental_hits", 0),
        stats.get("cache_incremental_hits", 0)
        + stats.get("cache_incremental_fallbacks", 0),
    )
    report["session_hit_rate"] = stats.get("middle_session_hit_rate", 0.0)
    report["stage_timings"] = default["profile"]["stage_timings"]
    return report


def write_report(report: dict, path: str | Path = DEFAULT_REPORT) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def run(
    steps: int, output: str | Path | None, fuzzer_name: str = "uCFuzz.s"
) -> dict:
    """Measure, print one summary line and write the report to ``output``.

    No file is written when ``output`` is None.
    """
    report = measure_throughput(steps=steps, fuzzer_name=fuzzer_name)
    written = f" -> {write_report(report, output)}" if output else ""
    arms = " -> ".join(
        f"{report[label]['steps_per_sec']} ({label})" for label, _ in ARMS
    )
    print(
        f"{report['fuzzer']}: {arms} steps/sec "
        f"(default {report['speedup']}x over reference, "
        f"cache hit-rate {report['cache_hit_rate']:.2%}, "
        f"session hit-rate {report['session_hit_rate']:.2%}){written}"
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
    """Tiny-budget CI smoke: the caches must be hitting on the hot path.

    Writes a report only to an explicit ``--output``: the committed
    ``BENCH_throughput.json`` is the full 600-step run's.
    """
    parser = argparse.ArgumentParser(description="bench-smoke")
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    report = run(args.steps, args.output)
    if report["cache_hit_rate"] <= 0:
        raise SystemExit("bench-smoke: cache hit-rate is 0 on the hot path")
    stats = report["default"]["stats"]
    if stats.get("cache_incremental_hits", 0) <= 0:
        raise SystemExit("bench-smoke: incremental front end never hit")
    if stats.get("middle_session_hits", 0) <= 0:
        raise SystemExit("bench-smoke: the compile session never hit")
    # The default pipeline must not be slower than the reference.  A tiny
    # step budget is noisy, so the gate is a generous slack factor, not a
    # strict order — it catches a de-optimized pipeline (2x regressions),
    # not jitter — and only applies once the budget is large enough to
    # amortize cache/session warmup (below ~40 steps the memoizing arm
    # legitimately trails while its stores are cold).
    slack = 0.7
    ref, default = (report[label]["steps_per_sec"] for label, _ in ARMS)
    if args.steps >= 40 and ref is not None and default is not None:
        if default < ref * slack:
            raise SystemExit(
                f"bench-smoke: default arm ({default}/s) fell below "
                f"{slack}x of the reference arm ({ref}/s)"
            )
    return 0


def _step_keeping_to_pool(fuzzer, step: int) -> None:
    """One step; fails unless the cache then holds pool members only."""
    fuzzer.step()  # IncrementalDivergence propagates and fails the job
    unpooled = sum(text not in fuzzer.pool for text in fuzzer.cache.texts())
    if unpooled:
        raise SystemExit(
            f"paranoid-smoke: after step {step} the front-end cache holds "
            f"{unpooled} texts outside the pool"
        )


def _retained(fuzzers) -> str:
    """What the fuzzers keep alive: cache entries, session records, heap.

    The heap figure counts the collector's tracked objects after a full
    collection, so garbage awaiting the next collection is not counted.
    """
    gc.collect()
    return (
        f"retained: {sum(len(f.cache) for f in fuzzers)} cache entries, "
        f"{sum(len(f.compiler.compile_session) for f in fuzzers)} session "
        f"records, {len(gc.get_objects())} tracked objects"
    )


def _cross_checks(fuzzers) -> tuple[int, int]:
    """Compile and front-end paranoid checks, summed over ``fuzzers``.

    What ``middle_session_paranoid_checks`` and ``cache_paranoid_checks``
    report.  A smoke that ran no check of one kind verified nothing of that
    kind, so :func:`paranoid_main` fails it.
    """
    return (
        sum(f.compiler.compile_session.paranoid_checks for f in fuzzers),
        sum(f.cache.paranoid_checks for f in fuzzers),
    )


def _require_cross_checks(compile_checks: int, front_end_checks: int) -> None:
    if compile_checks <= 0:
        raise SystemExit("paranoid-smoke: no compile was cross-checked")
    if front_end_checks <= 0:
        raise SystemExit("paranoid-smoke: no front end was cross-checked")


def paranoid_main(argv: list[str] | None = None) -> int:
    """Differential smoke: every cached compile is cross-checked.

    Runs μCFuzz in its default configuration with ``paranoid=True`` — each
    compile (dirty-region front end, session-served middle end) is
    recompiled from scratch through the object-IR reference pipeline and
    compared field-for-field, so every check is also a
    flat-native-vs-reference differential; any divergence raises
    :class:`~repro.cast.incremental.IncrementalDivergence` and fails the
    run.  After every step the front-end cache must hold pool members only
    (the fuzzer releases the rest).  Gating is on zero divergences, on that
    invariant, on both reuse paths having fired and on both kinds of
    cross-check having run (:func:`_cross_checks`), not on throughput.
    ``--macro`` runs the macro fuzzer instead (:func:`_paranoid_macro`),
    ``--grayc`` GrayC (:func:`_paranoid_grayc`).
    """
    parser = argparse.ArgumentParser(description="paranoid-smoke")
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    fuzzer_choice = parser.add_mutually_exclusive_group()
    fuzzer_choice.add_argument(
        "--macro", action="store_true",
        help="run the macro fuzzer instead, alternating gcc-sim and "
        "clang-sim steps: Havoc rounds, sampled -O levels and flags",
    )
    fuzzer_choice.add_argument(
        "--grayc", action="store_true",
        help="run GrayC instead: its validated mutants' dirty-region front "
        "ends and its session-served compiles",
    )
    args = parser.parse_args(argv)
    from repro.fuzzing.seedgen import generate_seeds

    seeds = generate_seeds(DEFAULT_SEEDS)
    if args.macro:
        return _paranoid_macro(seeds, args.steps, args.seed)
    if args.grayc:
        return _paranoid_grayc(seeds, args.steps, args.seed)
    fuzzer = _build_fuzzer("uCFuzz.s", seeds, args.seed, paranoid=True)
    for i in range(args.steps):
        _step_keeping_to_pool(fuzzer, i)
    stats = fuzzer.stats_snapshot()
    inc_hits = stats.get("cache_incremental_hits", 0)
    session_hits = stats.get("middle_session_hits", 0)
    compile_checks, front_end_checks = _cross_checks([fuzzer])
    print(
        f"paranoid-smoke: {args.steps} steps, 0 divergences, "
        f"{compile_checks} compile checks, "
        f"{front_end_checks} front-end checks, "
        f"{inc_hits} incremental front ends, "
        f"{session_hits} session replays "
        f"({stats.get('middle_incremental_hits', 0)} compiles served, "
        f"{stats.get('middle_incremental_fallbacks', 0)} aborts); "
        f"{_retained([fuzzer])}"
    )
    if inc_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: the incremental front end was never exercised"
        )
    if session_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: the compile session was never exercised"
        )
    _require_cross_checks(compile_checks, front_end_checks)
    return 0


def _paranoid_macro(seeds: list[str], steps: int, seed: int) -> int:
    """``paranoid_main --macro``: Havoc rounds' front ends checked too.

    Every dirty-region front end (Havoc rounds after the first and the
    final compile) is cross-checked against a full front end, and every
    compile against a from-scratch reference-pipeline compile.  After every
    step the fuzzer's cache must hold pool members only, and both kinds of
    cross-check must have run.
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
        _step_keeping_to_pool(fuzzers[i % 2], i)
    compile_checks, front_end_checks = _cross_checks(fuzzers)
    havoc_hits = sum(f.stats.get("havoc_incremental_hits", 0) for f in fuzzers)
    print(
        f"paranoid-smoke[macro]: {steps} steps, 0 divergences, "
        f"{compile_checks} compile checks, "
        f"{front_end_checks} front-end checks, "
        f"{havoc_hits} Havoc-round incremental front ends; "
        f"{_retained(fuzzers)}"
    )
    if havoc_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: no Havoc round took the incremental front end"
        )
    _require_cross_checks(compile_checks, front_end_checks)
    return 0


def _paranoid_grayc(seeds: list[str], steps: int, seed: int) -> int:
    """``paranoid_main --grayc``: GrayC's two reuses checked.

    Each validated mutant's dirty-region front end is cross-checked against
    a full front end, and every compile against a from-scratch
    reference-pipeline compile.  After every step the fuzzer's cache must
    hold pool members only, and both kinds of cross-check must have run.
    """
    from repro.compiler.driver import GCC_SIM, Compiler
    from repro.fuzzing.baselines import GrayCSim

    fuzzer = GrayCSim(
        Compiler(*GCC_SIM), random.Random(seed), seeds, paranoid=True
    )
    for i in range(steps):
        _step_keeping_to_pool(fuzzer, i)
    compile_checks, front_end_checks = _cross_checks([fuzzer])
    print(
        f"paranoid-smoke[grayc]: {steps} steps, 0 divergences, "
        f"{compile_checks} compile checks, "
        f"{front_end_checks} front-end checks, "
        f"{fuzzer.cache.incremental_hits} incremental front ends, "
        f"{fuzzer.compiler.compile_session.hits} session replays; "
        f"{_retained([fuzzer])}"
    )
    _require_cross_checks(compile_checks, front_end_checks)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the bench script
    raise SystemExit(main())
