"""Campaign cells: the picklable unit of the RQ1 grid and its serial loop.

The paper's headline experiment runs 60 parallel fuzzer instances per
fuzzer/compiler pair; the reproduction's RQ1 grid is an embarrassingly
parallel set of *cells* (one fuzzer on one compiler).

Determinism contract: a cell is fully described by a picklable
:class:`CellSpec` — fuzzer name, compiler personality/version/bug seed,
seed programs, step budget, and a stable per-cell RNG seed.  A worker
reconstructs the compiler and fuzzer from the spec, so the result depends
only on the spec, never on which process (or how many) executed it, nor on
how many times it was attempted (the attempt number is :func:`run_cell`'s
argument, and only an injected fault reads it).

:func:`run_cells` is the in-process loop, the reference every parallel
run is compared against.  The one multi-process runner is the fabric
(:func:`repro.fabric.run_cells_fabric`): a supervised worker fleet with
leases, heartbeats, retry, poison quarantine and checkpoint resume, which
``Campaign.run(parallelism > 1)`` and ``Campaign.run_fabric`` drain their
specs through.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.resilience.faultinject import CellFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.fuzzing.campaign import CampaignResult
    from repro.muast.registry import MutatorRegistry


def stable_cell_seed(fuzzer_name: str, compiler_name: str, base_seed: int) -> int:
    """A per-cell RNG seed that is stable across processes and runs.

    ``hash()`` on strings is randomized per interpreter (PYTHONHASHSEED), so
    it would differ between worker processes and the parent; CRC32 is not.
    """
    digest = zlib.crc32(f"{fuzzer_name}\x00{compiler_name}".encode("utf-8"))
    return (digest ^ base_seed) & 0xFFFFFFFF


@dataclass(frozen=True)
class CellSpec:
    """One fuzzer × compiler campaign cell, picklable for fabric workers.

    Which attempt a run is is not part of the spec: it is
    :func:`run_cell`'s ``attempt`` argument.
    """

    fuzzer_name: str
    personality: str
    version: str
    bug_seed: int
    seeds: tuple[str, ...]
    steps: int
    cell_seed: int
    virtual_hours: float = 24.0
    sample_points: int = 24
    #: None means "the process-global registry" (every worker imports
    #: :mod:`repro.mutators`, so the global registry is identical everywhere).
    registry: "MutatorRegistry | None" = None
    #: Consecutive crash/hang threshold for the per-mutator circuit
    #: breaker; None leaves quarantine off (the historical behaviour).
    quarantine_threshold: int | None = None
    #: The paranoid switch for the cell fuzzer's front-end cache (CI/tests).
    paranoid: bool = False
    #: Compile through the object-IR reference pipeline
    #: (``Compiler(reference=True)``) instead of the default flat-native one.
    reference: bool = False
    #: Evolutionary mutator scheduling: the worker builds a
    #: :class:`~repro.fuzzing.schedule.MutatorScheduler` seeded from
    #: ``cell_seed``, so every execution of the spec — serial, parallel,
    #: or fabric — schedules identically.
    schedule: bool = False
    #: Track per-mutator yield counters without the scheduler (uniform
    #: ablation arm); ``None`` follows ``schedule``.
    mutator_stats: bool | None = None
    #: Stream this cell's telemetry events to a JSONL file in this
    #: directory (``<fuzzer>-<personality>-<version>.jsonl``).  Execution
    #: circumstance, not identity: excluded from :func:`cell_key` and from
    #: the determinism contract (events never alter results).
    telemetry_dir: str | None = None
    #: Test/CI-only injected fault (fired by :func:`run_cell`).
    fault: CellFault | None = None


def cell_key(spec: CellSpec) -> str:
    """A stable checkpoint key over the cell's *identity* fields.

    Excludes ``fault`` (an execution circumstance, not identity) and
    ``registry`` (checkpointing assumes the process-global registry, which
    is identical in every worker).
    """
    return cell_keys([spec])[0]


def cell_keys(specs: Sequence[CellSpec]) -> list[str]:
    """:func:`cell_key` of every spec, rendering each seed corpus once.

    The digest is the SHA-1 of ``repr`` of the identity tuple.  The seed
    corpus dominates that text (hundreds of programs) and every cell of a
    grid shares it, so it is rendered once per distinct corpus and hashed
    between the other fields; the bytes hashed, and so the keys of
    existing checkpoint dirs and fabric journals, do not change.  The slots
    of retired fields hash as the defaults they had, so a spec keeps the
    key it had before they went.
    """
    rendered: dict[tuple[str, ...], bytes] = {}
    keys = []
    for spec in specs:
        seeds = rendered.get(spec.seeds)
        if seeds is None:
            seeds = rendered[spec.seeds] = repr(spec.seeds).encode("utf-8")
        head = (
            spec.fuzzer_name, spec.personality, spec.version, spec.bug_seed
        )
        tail = (
            spec.steps,
            spec.cell_seed,
            spec.virtual_hours,
            spec.sample_points,
            spec.quarantine_threshold,
            None,  # front-end cache capacity (retired)
            True,  # dirty-region front end switch (retired)
            spec.paranoid,
            False,  # compile-session switch (retired)
            spec.reference,
            False,  # batched step switch (retired)
            spec.schedule,
            spec.mutator_stats,
        )
        digest = hashlib.sha1(
            f"({', '.join(map(repr, head))}, ".encode("utf-8")
        )
        digest.update(seeds)
        digest.update(f", {', '.join(map(repr, tail))})".encode("utf-8"))
        keys.append(
            f"{spec.fuzzer_name}-{spec.personality}-{digest.hexdigest()[:16]}"
        )
    return keys


@dataclass
class CellOutcome:
    """What happened to one cell: a result, or a recorded failure."""

    spec: CellSpec
    ok: bool
    result: "CampaignResult | None" = None
    error: str = ""
    #: The cell's exception class name, or a fabric verdict: ``"poison"``
    #: (the cell killed ``poison_threshold`` distinct workers; a crashing
    #: or hung cell lands here) or ``"no-workers"``.
    error_type: str = ""
    attempts: int = 1
    from_checkpoint: bool = False

    @property
    def failed(self) -> bool:
        return not self.ok

    def to_json(self) -> dict:
        payload = {
            "ok": self.ok,
            "fuzzer": self.spec.fuzzer_name,
            "compiler": f"{self.spec.personality}-{self.spec.version}",
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
        }
        if self.result is not None:
            payload["result"] = self.result.to_json()
        return payload


def cell_telemetry_session(spec: CellSpec):
    """The cell's JSONL-sinked telemetry session, or None when disabled."""
    if spec.telemetry_dir is None:
        return None
    from pathlib import Path

    from repro.resilience.checkpoint import sanitize_key
    from repro.telemetry import TelemetrySession

    stem = sanitize_key(f"{spec.fuzzer_name}-{spec.personality}-{spec.version}")
    return TelemetrySession.to_jsonl(Path(spec.telemetry_dir) / f"{stem}.jsonl")


def run_cell(spec: CellSpec, attempt: int = 0) -> "CampaignResult":
    """Run one campaign cell from scratch; what every runner executes.

    ``attempt`` is the 0-based execution attempt (the fabric passes the
    lease's dispatch count); only the spec's injected fault reads it.
    """
    import random

    import repro.mutators  # noqa: F401  (populate the worker's registry)
    from repro.compiler.driver import Compiler
    from repro.fuzzing.campaign import make_fuzzer, run_campaign
    from repro.muast.registry import global_registry

    if spec.fault is not None:
        spec.fault.fire(attempt)
    registry = spec.registry if spec.registry is not None else global_registry
    compiler = Compiler(
        spec.personality,
        spec.version,
        bug_seed=spec.bug_seed,
        reference=spec.reference,
    )
    session = cell_telemetry_session(spec)
    scheduler = None
    if spec.schedule:
        from repro.fuzzing.schedule import MutatorScheduler

        # Derived from the cell seed, never from the fuzzer's RNG stream:
        # a retried/re-dispatched spec rebuilds the identical scheduler.
        scheduler = MutatorScheduler.from_cell_seed(spec.cell_seed)
    fuzzer = make_fuzzer(
        spec.fuzzer_name,
        compiler,
        list(spec.seeds),
        registry,
        random.Random(spec.cell_seed),
        quarantine_threshold=spec.quarantine_threshold,
        paranoid=spec.paranoid,
        scheduler=scheduler,
        mutator_stats=spec.mutator_stats,
        telemetry=session,
    )
    try:
        return run_campaign(
            fuzzer, spec.steps, spec.virtual_hours, spec.sample_points
        )
    finally:
        if session is not None:
            session.close()


def run_cells(specs: Sequence[CellSpec]) -> "list[CampaignResult]":
    """Run every cell in this process, in order; a cell's error propagates."""
    return [run_cell(spec) for spec in specs]
