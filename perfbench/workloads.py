"""The benchmark's four campaign workloads.

Each workload is a closed loop: the next fuzzing step starts only when the
previous one has returned.  A *round* is one fresh interpreter that imports
the library, builds the workload from a sub-seed, runs a fixed number of
steps from cold caches with the garbage collector on, and hashes the
outcome.  Workloads reach the library only through the public, default
constructed entry points campaigns use (``make_fuzzer``, ``MacroFuzzer``,
``Campaign.run``), so a change to the default pipeline or the cell runner is
measured without editing this file.

Nothing here imports :mod:`repro` at module level: a round times its own
imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

#: Every run covers the same input set, sub-seeds ``0 .. INPUTS-1``, each
#: with a recorded outcome digest; ``--seed`` sets the order of the rounds.
#: Fuzzing trajectories diverge: at 120 steps one uCFuzz.s trajectory costs
#: 3.8-7.8 s depending on its RNG seed alone, so runs that drew their
#: inputs from the seed would differ by more than any useful bound.
INPUTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: Steps per round (the "length" digests are recorded for).
    ops: int
    #: Short length used by the benchmark's own tests.
    smoke_ops: int
    #: Rough wall seconds of one round, set-up included; sets how many
    #: passes over the input set a run of ``--seconds`` makes.
    nominal_round_s: float
    #: Whether the steps run in the round's own process (False: in
    #: campaign worker processes).
    in_process: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ucfuzz", ops=120, smoke_ops=6, nominal_round_s=5.5),
        Workload("macro", ops=100, smoke_ops=6, nominal_round_s=5.0),
        Workload("generators", ops=100, smoke_ops=4, nominal_round_s=5.0),
        # 12 cells x 16 steps; steps here count over all cells.
        Workload("grid", ops=192, smoke_ops=24, nominal_round_s=5.0,
                 in_process=False),
    )
}

#: Cells of the grid workload: every RQ1 fuzzer on both personalities.
GRID_CELLS = 12
GRID_WORKERS = 2


def input_order(seed: int) -> list[int]:
    """The order in which a run with ``--seed seed`` covers the inputs."""
    return random.Random(seed).sample(range(INPUTS), INPUTS)


def import_library() -> None:
    """Everything a round imports before it builds (timed as set-up)."""
    import repro.mutators  # noqa: F401  (registers the 118 mutators)
    import repro.fuzzing.campaign  # noqa: F401
    import repro.fuzzing.macro  # noqa: F401


def make_seeds(workload: Workload) -> list[str]:
    from repro.fuzzing.seedgen import generate_seeds

    if workload.name == "ucfuzz":
        return generate_seeds(40)
    if workload.name == "macro":
        # The RQ2 hunt's corpus (``benchmarks/conftest.py``: the first 120
        # of the 300 generated seeds, which equal ``generate_seeds(120)``).
        return generate_seeds(120)
    if workload.name == "grid":
        return generate_seeds(300)
    return []  # the generators take no seeds


def build(workload: Workload, sub_seed: int, seeds: list[str], tmpdir: str):
    """The fuzzers (in-process workloads) or the Campaign (grid)."""
    from repro.compiler.driver import CLANG_SIM, GCC_SIM, Compiler
    from repro.fuzzing.campaign import Campaign, make_fuzzer
    from repro.fuzzing.macro import MacroFuzzer
    from repro.muast.registry import global_registry

    if workload.name == "ucfuzz":
        # Sub-seed 0 is the repo's golden configuration (RNG seed 2024).
        return [
            make_fuzzer(
                "uCFuzz.s", Compiler(*GCC_SIM), seeds, global_registry,
                random.Random(2024 + sub_seed),
            )
        ]
    if workload.name == "macro":
        return [
            MacroFuzzer(
                Compiler(*personality), random.Random(20240427 + sub_seed),
                seeds, list(global_registry),
            )
            for personality in (GCC_SIM, CLANG_SIM)
        ]
    if workload.name == "generators":
        return [
            make_fuzzer(
                name, Compiler(*personality), seeds, global_registry,
                random.Random(f"generators/{sub_seed}/{name}/{personality[0]}"),
            )
            for name in ("Csmith", "YARPGen")
            for personality in (GCC_SIM, CLANG_SIM)
        ]
    return Campaign(
        [Compiler(*GCC_SIM), Compiler(*CLANG_SIM)], seeds, global_registry,
        steps=workload.ops // GRID_CELLS, base_seed=2024 + sub_seed,
        telemetry_dir=tmpdir,
    )


class Outcome:
    """The deterministic outcome of an in-process round, per fuzzer."""

    def __init__(self, fuzzers) -> None:
        self.fuzzers = fuzzers
        self.compiled = [0] * len(fuzzers)
        self.total = [0] * len(fuzzers)
        self.bugs: list[set] = [set() for _ in fuzzers]

    def record(self, index: int, step) -> None:
        """Campaign bookkeeping for one step (as ``run_campaign`` counts)."""
        result = step.result
        self.total[index] += 1
        if result.ok or (result.crashed and not result.diagnostics):
            self.compiled[index] += 1
        for failure in (result.crash, result.hang):
            if failure is not None:
                self.bugs[index].add(failure.bug_id)

    def summary(self) -> list[dict]:
        return [
            {
                "edges": len(fuzzer.coverage),
                "pool": len(getattr(fuzzer, "pool", ())),
                "bugs": len(self.bugs[i]),
                "compiled": self.compiled[i],
                "total": self.total[i],
            }
            for i, fuzzer in enumerate(self.fuzzers)
        ]

    def digest(self) -> str:
        return _digest(
            [
                {
                    "edges": sorted(repr(edge) for edge in fuzzer.coverage.edges),
                    "pool": [e.text for e in fuzzer.pool.entries]
                    if hasattr(fuzzer, "pool") else [],
                    "bugs": sorted(self.bugs[i]),
                    "compiled": self.compiled[i],
                    "total": self.total[i],
                }
                for i, fuzzer in enumerate(self.fuzzers)
            ]
        )


def grid_digest(results) -> str:
    """Per-cell coverage trend, crash bug ids and compiled/total counts."""
    return _digest(
        [
            {
                "cell": [r.fuzzer, r.compiler],
                "trend": [[hour, edges] for hour, edges in r.coverage_trend],
                "bugs": sorted(rec.bug_id for rec in r.crashes.records.values()),
                "compiled": r.compiled,
                "total": r.total,
            }
            for r in results
        ]
    )


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
