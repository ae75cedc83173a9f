"""Process-parallel campaign execution with per-cell fault isolation.

The paper's headline experiment runs 60 parallel fuzzer instances per
fuzzer/compiler pair; the reproduction's RQ1 grid is an embarrassingly
parallel set of *cells* (one fuzzer on one compiler).  This module fans
cells out over worker processes.

Determinism contract: a cell is fully described by a picklable
:class:`CellSpec` — fuzzer name, compiler personality/version/bug seed,
seed programs, step budget, and a stable per-cell RNG seed.  A worker
reconstructs the compiler and fuzzer from the spec, so the result depends
only on the spec, never on which process (or how many) executed it, nor on
how many times it was attempted; ``parallelism=N`` is result-for-result
identical to the serial run, and a cell retried after a worker crash
reruns from the identical spec.  Results are returned in submission order.

Two entry points:

* :func:`run_cells` — the historical strict API: returns bare
  ``CampaignResult``s and lets a cell's exception propagate (it no longer
  silently reruns the whole grid serially; the serial fallback is reserved
  for pool-startup/pickling failures, where it is behaviour-preserving).
* :func:`run_cells_resilient` — the fault-isolated API: each cell runs in
  its own process with a wall-clock timeout and a bounded retry budget,
  one crashed/hung cell yields a recorded :class:`CellOutcome` failure
  instead of aborting the grid, and finished cells are checkpointed to
  JSON so a killed campaign resumes where it stopped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faultinject import CellFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.fuzzing.campaign import CampaignResult
    from repro.muast.registry import MutatorRegistry

#: Scheduler poll interval (real seconds) for isolated cell processes.
_POLL_SECONDS = 0.01

#: Grace period (real seconds) given to SIGTERM before escalating.
_TERM_GRACE = 5.0


def ensure_dead(proc, grace: float = _TERM_GRACE) -> None:
    """Terminate ``proc``, escalating to SIGKILL if SIGTERM is ignored.

    A worker stuck in a non-cooperative state (e.g. a hang inside a C
    extension, or an injected ``CellFault(kind="hang")`` that shadows the
    default SIGTERM handling) would survive ``terminate()`` forever;
    without the ``kill()`` escalation it leaks a live process past the
    grid.  Used by both the resilient runner and the fabric supervisor.
    """
    if not proc.is_alive():
        proc.join(0)
        return
    proc.terminate()
    proc.join(grace)
    if proc.is_alive():
        proc.kill()
        proc.join(grace)


def stable_cell_seed(fuzzer_name: str, compiler_name: str, base_seed: int) -> int:
    """A per-cell RNG seed that is stable across processes and runs.

    ``hash()`` on strings is randomized per interpreter (PYTHONHASHSEED), so
    it would differ between pool workers and the parent; CRC32 is not.
    """
    digest = zlib.crc32(f"{fuzzer_name}\x00{compiler_name}".encode("utf-8"))
    return (digest ^ base_seed) & 0xFFFFFFFF


@dataclass(frozen=True)
class CellSpec:
    """One fuzzer × compiler campaign cell, picklable for pool workers."""

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
    #: Front-end cache capacity for the cell's fuzzer (None = default).
    cache_maxsize: int | None = None
    #: Feed mutant edit scripts to the compiler for incremental reuse.
    incremental: bool = True
    #: Cross-check every incremental compile against a full one (CI/tests).
    paranoid: bool = False
    #: Give the cell's fuzzer a private CompileSession (cross-step
    #: middle-end memoization).  Sessions are per-cell by construction —
    #: a worker builds its own — so serial==parallel holds.
    session: bool = False
    #: Compile through the object-IR reference pipeline
    #: (``Compiler(reference=True)``) instead of the default flat-native one.
    reference: bool = False
    #: Compile each μCFuzz step's attempt set as one session batch.
    batch_compile: bool = False
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
    #: Which execution attempt this is (set by the resilient runner on
    #: retries; does not affect the cell's RNG or results).
    attempt: int = 0


def cell_key(spec: CellSpec) -> str:
    """A stable checkpoint key over the cell's *identity* fields.

    Excludes ``fault`` and ``attempt`` (execution circumstances, not
    identity) and ``registry`` (checkpointing assumes the process-global
    registry, which is identical in every worker).
    """
    ident = (
        spec.fuzzer_name,
        spec.personality,
        spec.version,
        spec.bug_seed,
        spec.seeds,
        spec.steps,
        spec.cell_seed,
        spec.virtual_hours,
        spec.sample_points,
        spec.quarantine_threshold,
        spec.cache_maxsize,
        spec.incremental,
        spec.paranoid,
        spec.session,
        spec.reference,
        spec.batch_compile,
        spec.schedule,
        spec.mutator_stats,
    )
    digest = hashlib.sha1(repr(ident).encode("utf-8")).hexdigest()
    return f"{spec.fuzzer_name}-{spec.personality}-{digest[:16]}"


@dataclass
class CellOutcome:
    """What happened to one cell: a result, or a recorded failure."""

    spec: CellSpec
    ok: bool
    result: "CampaignResult | None" = None
    error: str = ""
    error_type: str = ""  # exception class | "timeout" | "worker-crash"
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


def _outcome_from_checkpoint(spec: CellSpec, payload: dict) -> CellOutcome:
    from repro.fuzzing.campaign import CampaignResult

    return CellOutcome(
        spec=spec,
        ok=True,
        result=CampaignResult.from_json(payload["result"]),
        attempts=int(payload.get("attempts", 1)),
        from_checkpoint=True,
    )


def cell_telemetry_session(spec: CellSpec):
    """The cell's JSONL-sinked telemetry session, or None when disabled."""
    if spec.telemetry_dir is None:
        return None
    from pathlib import Path

    from repro.resilience.checkpoint import sanitize_key
    from repro.telemetry import TelemetrySession

    stem = sanitize_key(f"{spec.fuzzer_name}-{spec.personality}-{spec.version}")
    return TelemetrySession.to_jsonl(Path(spec.telemetry_dir) / f"{stem}.jsonl")


def run_cell(spec: CellSpec) -> "CampaignResult":
    """Run one campaign cell from scratch; the pool worker entry point."""
    import random

    import repro.mutators  # noqa: F401  (populate the worker's registry)
    from repro.compiler.driver import Compiler
    from repro.fuzzing.campaign import make_fuzzer, run_campaign
    from repro.muast.registry import global_registry

    if spec.fault is not None:
        spec.fault.fire(spec.attempt)
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
        cache_maxsize=spec.cache_maxsize,
        incremental=spec.incremental,
        paranoid=spec.paranoid,
        session=spec.session,
        batch_compile=spec.batch_compile,
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


# ---------------------------------------------------------------------------
# Strict API (historical behaviour, minus the silent serial rerun)


def run_cells(
    specs: Sequence[CellSpec], parallelism: int = 1
) -> "list[CampaignResult]":
    """Run all cells, fanning out over processes when ``parallelism > 1``.

    Falls back to the serial loop only when the pool itself cannot be used
    (single cell, no multiprocessing support in the environment, or
    unpicklable specs — e.g. a registry holding locally-defined mutator
    classes); because cells are deterministic, that fallback is
    behaviour-preserving.  A *cell* error, by contrast, propagates to the
    caller — use :func:`run_cells_resilient` to record failures instead.
    """
    if parallelism <= 1 or len(specs) <= 1:
        return [run_cell(spec) for spec in specs]
    try:
        pickle.dumps(tuple(specs))
    except (pickle.PicklingError, AttributeError, TypeError):
        return [run_cell(spec) for spec in specs]
    try:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(parallelism, len(specs), os.cpu_count() or 1)
        pool = ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError, PermissionError):
        return [run_cell(spec) for spec in specs]
    with pool:
        futures = [pool.submit(run_cell, spec) for spec in specs]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Resilient API: per-cell isolation, timeout, retry, checkpoint/resume


def _cell_worker(conn, spec: CellSpec) -> None:  # pragma: no cover - subprocess
    try:
        result = run_cell(spec)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - report, don't crash silently
        try:
            conn.send(("error", str(exc), type(exc).__name__))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _RunningCell:
    index: int
    spec: CellSpec
    attempt: int
    proc: object
    conn: object
    deadline: float | None
    timeout: float | None


def _start_cell(
    index: int, spec: CellSpec, attempt: int, timeout: float | None
) -> _RunningCell:
    import multiprocessing as mp

    ctx = mp.get_context()
    effective = dataclasses.replace(spec, attempt=attempt) if attempt else spec
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_cell_worker, args=(child_conn, effective), daemon=True
    )
    proc.start()
    child_conn.close()
    deadline = None if timeout is None else time.monotonic() + timeout
    return _RunningCell(index, spec, attempt, proc, parent_conn, deadline, timeout)


def _drain(conn) -> tuple | None:
    if conn.poll(0):
        try:
            payload = conn.recv()
        except EOFError:
            return None
        if isinstance(payload, tuple):
            return payload
    return None


def _poll_cell(cell: _RunningCell) -> tuple | None:
    """A status tuple once the cell finished/died/timed out, else None."""
    payload = _drain(cell.conn)
    if payload is not None:
        return payload
    if cell.deadline is not None and time.monotonic() > cell.deadline:
        ensure_dead(cell.proc)
        return (
            "timeout",
            f"cell exceeded its {cell.timeout}s wall-clock budget",
            "timeout",
        )
    if not cell.proc.is_alive():
        # The worker died; one last drain catches a message sent just
        # before exit, otherwise it is a hard crash (no exception reached
        # the worker's reporting path).
        payload = _drain(cell.conn)
        if payload is not None:
            return payload
        return (
            "worker-crash",
            f"worker process died with exit code {cell.proc.exitcode}",
            "worker-crash",
        )
    return None


def _reap(cell: _RunningCell) -> None:
    cell.proc.join(5)
    if cell.proc.is_alive():  # refused to exit after reporting: escalate
        ensure_dead(cell.proc)
    cell.conn.close()


def _run_cell_inprocess(spec: CellSpec, cell_retries: int) -> CellOutcome:
    """Serial fallback: no process isolation, but the same retry contract."""
    attempt = 0
    while True:
        effective = (
            dataclasses.replace(spec, attempt=attempt) if attempt else spec
        )
        try:
            result = run_cell(effective)
        except Exception as exc:  # a cell bug or an injected "raise" fault
            if attempt < cell_retries:
                attempt += 1
                continue
            return CellOutcome(
                spec=spec,
                ok=False,
                error=str(exc),
                error_type=type(exc).__name__,
                attempts=attempt + 1,
            )
        return CellOutcome(spec=spec, ok=True, result=result, attempts=attempt + 1)


def _run_cells_isolated(
    todo: list[tuple[int, CellSpec]],
    parallelism: int,
    cell_timeout: float | None,
    cell_retries: int,
    on_done,
) -> dict[int, CellOutcome]:
    """Schedule each cell in its own process; retry crashes/timeouts."""
    from collections import deque

    pending = deque((index, spec, 0) for index, spec in todo)
    running: dict[int, _RunningCell] = {}
    outcomes: dict[int, CellOutcome] = {}
    slots = max(1, parallelism)
    try:
        while pending or running:
            while pending and len(running) < slots:
                index, spec, attempt = pending.popleft()
                try:
                    running[index] = _start_cell(index, spec, attempt, cell_timeout)
                except (
                    pickle.PicklingError,
                    AttributeError,
                    TypeError,
                    ImportError,
                    OSError,
                ):
                    # Unpicklable spec or no process support: run this cell
                    # without isolation (deterministic either way).
                    outcomes[index] = _run_cell_inprocess(spec, cell_retries)
                    on_done(outcomes[index])
            finished = []
            for index, cell in list(running.items()):
                status = _poll_cell(cell)
                if status is not None:
                    finished.append((index, status))
            if not finished:
                if running:
                    time.sleep(_POLL_SECONDS)
                continue
            for index, status in finished:
                cell = running.pop(index)
                _reap(cell)
                if status[0] == "ok":
                    outcomes[index] = CellOutcome(
                        spec=cell.spec,
                        ok=True,
                        result=status[1],
                        attempts=cell.attempt + 1,
                    )
                    on_done(outcomes[index])
                elif cell.attempt < cell_retries:
                    # Retry from the *identical* spec: determinism holds.
                    pending.append((index, cell.spec, cell.attempt + 1))
                else:
                    outcomes[index] = CellOutcome(
                        spec=cell.spec,
                        ok=False,
                        error=status[1],
                        error_type=status[2],
                        attempts=cell.attempt + 1,
                    )
                    on_done(outcomes[index])
    finally:
        for cell in running.values():  # interrupted: don't leak workers
            ensure_dead(cell.proc)
    return outcomes


def run_cells_resilient(
    specs: Sequence[CellSpec],
    parallelism: int = 1,
    *,
    cell_timeout: float | None = None,
    cell_retries: int = 1,
    checkpoint_dir: str | os.PathLike | None = None,
    telemetry_dir: str | os.PathLike | None = None,
) -> list[CellOutcome]:
    """Run all cells with per-cell fault isolation; never abort the grid.

    Each cell runs in its own worker process (when ``parallelism > 1`` or a
    ``cell_timeout`` is set), is retried up to ``cell_retries`` times on a
    crash/timeout from the identical :class:`CellSpec`, and lands in the
    returned list as a :class:`CellOutcome` — a result on success, a
    recorded failure otherwise.  With ``checkpoint_dir``, finished cells are
    persisted as they complete and a rerun skips the cells whose successful
    checkpoints already exist, reproducing the interrupted campaign's
    remaining cells with identical results.  With ``telemetry_dir``, cell
    lifecycle events (checkpoint skips, completions, recorded failures)
    stream to ``<telemetry_dir>/grid.jsonl``; the event order reflects
    completion order under parallel scheduling, which is why grid telemetry
    is an annotation stream, never compared state.
    """
    store = (
        CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    )
    gridlog = None
    if telemetry_dir is not None:
        from pathlib import Path

        from repro.telemetry import TelemetrySession

        gridlog = TelemetrySession.to_jsonl(Path(telemetry_dir) / "grid.jsonl")

    def emit_cell(spec: CellSpec, status: str, **fields) -> None:
        if gridlog is not None:
            gridlog.emit(
                "cell", cell_key(spec), status=status,
                fuzzer=spec.fuzzer_name,
                compiler=f"{spec.personality}-{spec.version}", **fields,
            )

    outcomes: dict[int, CellOutcome] = {}
    todo: list[tuple[int, CellSpec]] = []
    try:
        for index, spec in enumerate(specs):
            if store is not None:
                payload = store.load(cell_key(spec))
                if payload is not None and payload.get("ok") and "result" in payload:
                    outcomes[index] = _outcome_from_checkpoint(spec, payload)
                    emit_cell(spec, "checkpoint-skip")
                    continue
            todo.append((index, spec))

        def on_done(outcome: CellOutcome) -> None:
            if store is not None:
                store.save(cell_key(outcome.spec), outcome.to_json())
            emit_cell(
                outcome.spec,
                "ok" if outcome.ok else "failed",
                attempts=outcome.attempts,
                error_type=outcome.error_type,
            )

        if todo:
            isolate = parallelism > 1 or cell_timeout is not None
            if isolate:
                outcomes.update(
                    _run_cells_isolated(
                        todo, parallelism, cell_timeout, cell_retries, on_done
                    )
                )
            else:
                for index, spec in todo:
                    outcomes[index] = _run_cell_inprocess(spec, cell_retries)
                    on_done(outcomes[index])
    finally:
        if gridlog is not None:
            gridlog.close()
    return [outcomes[index] for index in range(len(specs))]
