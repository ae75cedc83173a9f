"""The fabric supervisor: leases cells to a worker fleet and survives it.

The supervisor is the one multi-process cell runner: ``Campaign.run``
(``parallelism > 1``) and ``Campaign.run_fabric`` both drain their specs
through it.  It runs a *fleet* of long-lived workers against a lease-based
:class:`~repro.fabric.lease.WorkQueue`:

* a worker that stops heartbeating (process death, SIGSTOP, a wedged
  interpreter) is detected within ``heartbeat_timeout`` seconds, killed if
  still present, and its lease is reclaimed and re-dispatched to a
  surviving worker — work-stealing, so a shrinking fleet still drains the
  grid;
* a cell that *kills* ``poison_threshold`` distinct workers is quarantined
  as poison — a recorded :class:`CellOutcome` failure — instead of eating
  the fleet forever (the mutator circuit breaker's idea, applied to
  cells);
* every kill is recorded in the :class:`~repro.fabric.journal.FabricJournal`,
  the one owner of kill attribution, which persists through the
  :class:`~repro.resilience.checkpoint.CheckpointStore` beside the finished
  cells, so a supervisor killed mid-grid restarts with both intact and
  derives its poison verdicts from the kills again;
* a cell that cannot reach a worker (its spec does not pickle, or no
  worker can be spawned) takes a lease and runs in the supervisor's own
  process under the same retry contract, reported through the queue as a
  worker would report it;
* every other transition streams as a schema-v1 ``fabric`` telemetry
  event next to the ``cell`` lifecycle events in ``grid.jsonl``.

Between passes the supervisor blocks in
:func:`multiprocessing.connection.wait` on its workers' pipes and process
sentinels, so a message or a death wakes it at once; the
``heartbeat_interval`` timeout wakes it to check lease deadlines and cell
budgets, and it stops waiting as soon as the queue has drained.

Determinism: a cell's result is a pure function of its
:class:`~repro.fuzzing.parallel.CellSpec` (the CRC32 per-cell seed
scheme), so *which* worker runs it, how many workers died first, and how
often it was re-dispatched are all invisible in the results — the fabric
under chaos is bit-identical to a serial :func:`run_cells` of the same
specs.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from multiprocessing.connection import wait

from repro.fabric.journal import FabricJournal
from repro.fabric.lease import Lease, WorkQueue
from repro.fabric.worker import worker_main
from repro.fuzzing.parallel import CellOutcome, cell_keys, run_cell
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faultinject import ChaosPlan

#: Grace period (real seconds) given to SIGTERM before escalating.
_TERM_GRACE = 5.0

#: The ``worker`` of the events of a lease run in the supervisor's process.
_IN_PROCESS = "in-process"


def ensure_dead(proc, grace: float = _TERM_GRACE) -> None:
    """Terminate ``proc``, escalating to SIGKILL if SIGTERM is ignored.

    A worker stuck in a non-cooperative state (e.g. a hang inside a C
    extension, or an injected ``CellFault(kind="hang")`` that shadows the
    default SIGTERM handling) would survive ``terminate()`` forever;
    without the ``kill()`` escalation it leaks a live process past the
    grid.
    """
    if not proc.is_alive():
        proc.join(0)
        return
    proc.terminate()
    proc.join(grace)
    if proc.is_alive():
        proc.kill()
        proc.join(grace)


@dataclass
class _Worker:
    worker_id: int
    proc: object
    conn: object
    idle: bool = False  # becomes True on the worker's "ready"


class Supervisor:
    """Owns the queue, the fleet, the journal, and the grid telemetry."""

    def __init__(
        self,
        specs,
        fleet_size: int = 4,
        *,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        cell_timeout: float | None = None,
        cell_retries: int = 1,
        poison_threshold: int = 3,
        checkpoint_dir=None,
        telemetry_dir=None,
        chaos: ChaosPlan | None = None,
    ) -> None:
        self.specs = list(specs)
        #: Each cell's checkpoint/journal/telemetry key, computed once.
        self.keys = cell_keys(self.specs)
        self.fleet_size = max(1, fleet_size)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.cell_timeout = cell_timeout
        self.poison_threshold = poison_threshold
        self.chaos = chaos
        self.store = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.journal = FabricJournal(self.store)
        self.queue = WorkQueue(
            heartbeat_timeout=heartbeat_timeout, cell_retries=cell_retries
        )
        self.telemetry_dir = telemetry_dir
        self.gridlog = None
        self.workers: dict[int, _Worker] = {}
        self.outcomes: dict[int, CellOutcome] = {}
        self._next_worker_id = 0
        self._spawn_failed = False

    # -- telemetry ---------------------------------------------------------

    def _emit(self, name: str, **fields) -> None:
        if self.gridlog is not None:
            self.gridlog.emit("fabric", name, **fields)

    def _emit_cell(self, index: int, status: str, **fields) -> None:
        if self.gridlog is not None:
            spec = self.specs[index]
            self.gridlog.emit(
                "cell", self.keys[index], status=status,
                fuzzer=spec.fuzzer_name,
                compiler=f"{spec.personality}-{spec.version}", **fields,
            )

    def _emit_grant(self, lease: Lease, worker: str) -> None:
        self._emit("lease", status="grant", cell=self.keys[lease.index],
                   worker=worker, dispatch=lease.dispatch)

    # -- outcome plumbing --------------------------------------------------

    def _finish(self, outcome: CellOutcome, index: int) -> None:
        self.outcomes[index] = outcome
        if self.store is not None:
            self.store.save(self.keys[index], outcome.to_json())
        self._emit_cell(
            index,
            "ok" if outcome.ok else "failed",
            attempts=outcome.attempts,
            error_type=outcome.error_type,
        )

    def _poison_outcome(
        self, index: int, attempts: int, from_checkpoint: bool = False
    ) -> CellOutcome:
        killers = sorted(self.journal.kills_for(self.keys[index]))
        return CellOutcome(
            spec=self.specs[index],
            ok=False,
            error=(
                f"poison: cell killed {len(killers)} distinct workers "
                f"({', '.join(killers)}); quarantined"
            ),
            error_type="poison",
            attempts=attempts,
            from_checkpoint=from_checkpoint,
        )

    def _worker_killed_holding(self, lease: Lease, token: str, how: str) -> None:
        """A dead/stalled worker held this lease: attribute, then requeue
        or quarantine."""
        key = self.keys[lease.index]
        killers = self.journal.record_kill(key, token)
        self._emit("lease", status="reclaim", cell=key, worker=token,
                   reason=how, dispatch=lease.dispatch, kills=len(killers))
        if self.journal.is_poison(key, self.poison_threshold):
            self._emit("poison", cell=key, kills=len(killers),
                       workers=sorted(killers))
            self._finish(
                self._poison_outcome(lease.index, lease.dispatch + 1),
                lease.index,
            )
        else:
            self.queue.requeue(lease)

    def _cell_done(self, lease_id: int, result) -> None:
        lease = self.queue.complete(lease_id)
        if lease is not None:  # else: a reclaimed lease's late result
            self._finish(
                CellOutcome(
                    spec=lease.spec, ok=True, result=result,
                    attempts=lease.dispatch + 1,
                ),
                lease.index,
            )

    def _cell_failed(
        self, lease_id: int, error: str, error_type: str, worker: str
    ) -> None:
        """The cell raised: retry it, or record the failure once the
        queue's ``cell_retries`` budget is spent."""
        lease, retried = self.queue.fail(lease_id)
        if lease is None:
            return
        self._emit("lease", status="fail", cell=self.keys[lease.index],
                   worker=worker, error_type=error_type, retried=retried)
        if not retried:
            self._finish(
                CellOutcome(
                    spec=lease.spec, ok=False, error=error,
                    error_type=error_type, attempts=lease.dispatch + 1,
                ),
                lease.index,
            )

    def _run_in_process(self, lease: Lease) -> None:
        """Run a leased cell here, reporting it as a worker would."""
        self._emit_grant(lease, _IN_PROCESS)
        fault = lease.spec.fault
        if fault is not None and fault.kind in ("exit", "hang"):
            # Firing these in-process would take the supervisor down —
            # the very thing the fabric exists to survive.
            self.queue.complete(lease.lease_id)
            self._finish(
                CellOutcome(
                    spec=lease.spec, ok=False,
                    error="no worker can run the cell and it is unsafe to "
                          "run in-process",
                    error_type="no-workers",
                    attempts=lease.dispatch + 1,
                ),
                lease.index,
            )
            return
        try:
            result = run_cell(lease.spec, lease.dispatch)
        except Exception as exc:  # a cell bug or an injected "raise" fault
            self._cell_failed(
                lease.lease_id, str(exc), type(exc).__name__, _IN_PROCESS
            )
        else:
            self._cell_done(lease.lease_id, result)

    # -- fleet management --------------------------------------------------

    def _spawn_worker(self) -> bool:
        try:
            import multiprocessing as mp

            ctx = mp.get_context()
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            worker_id = self._next_worker_id
            proc = ctx.Process(
                target=worker_main,
                args=(child_conn, worker_id, self.heartbeat_interval, self.chaos),
                daemon=True,
            )
            proc.start()
            child_conn.close()
        except (ImportError, NotImplementedError, OSError, PermissionError,
                pickle.PicklingError, AttributeError, TypeError):
            self._spawn_failed = True
            return False
        self._next_worker_id += 1
        self.workers[worker_id] = _Worker(worker_id, proc, parent_conn)
        self._emit("worker", status="spawn",
                   worker=self.journal.worker_token(worker_id))
        return True

    def _remove_worker(self, worker: _Worker, status: str) -> None:
        ensure_dead(worker.proc)
        try:
            worker.conn.close()
        except OSError:
            pass
        self.workers.pop(worker.worker_id, None)
        self._emit("worker", status=status,
                   worker=self.journal.worker_token(worker.worker_id))

    def _maybe_respawn(self) -> None:
        # Never keep more workers than there is work left to steal.
        target = min(
            self.fleet_size, self.queue.pending_count + self.queue.lease_count
        )
        while len(self.workers) < target and not self._spawn_failed:
            if not self._spawn_worker():
                return

    # -- message handling --------------------------------------------------

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "ready":
            worker.idle = True
        elif kind == "heartbeat":
            # No event: one per heartbeat would make renewals most of the
            # grid's event stream.
            self.queue.renew(message[2], time.monotonic())
        elif kind == "done":
            self._cell_done(message[2], message[3])
        elif kind == "cell-error":
            self._cell_failed(
                message[2], message[3], message[4],
                self.journal.worker_token(worker.worker_id),
            )

    def _drain_messages(self) -> None:
        for worker in list(self.workers.values()):
            while True:
                try:
                    if not worker.conn.poll(0):
                        break
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    break  # liveness check below turns this into a death
                if isinstance(message, tuple) and message:
                    self._handle_message(worker, message)

    # -- failure detection -------------------------------------------------

    def _reap_dead_and_stalled(self) -> None:
        now = time.monotonic()
        # 1. Hard deaths: the process itself is gone.
        for worker in list(self.workers.values()):
            if not worker.proc.is_alive():
                token = self.journal.worker_token(worker.worker_id)
                for lease in self.queue.reclaim_worker(worker.worker_id):
                    self._worker_killed_holding(lease, token, "worker-death")
                self._remove_worker(worker, "death")
        # 2. Missed heartbeats: the lease expired while its worker still
        #    looks alive (stalled heartbeat thread, frozen process).
        for lease in self.queue.reclaim_expired(now):
            self._kill_stalled(lease, "heartbeat-missed")
        # 3. Hung cells: heartbeats keep arriving but the cell has been
        #    running past its wall-clock budget.
        if self.cell_timeout is not None:
            for lease in self.queue.reclaim_overrunning(now, self.cell_timeout):
                self._kill_stalled(lease, "cell-timeout")

    def _kill_stalled(self, lease: Lease, how: str) -> None:
        worker = self.workers.get(lease.worker_id)
        token = self.journal.worker_token(lease.worker_id)
        if worker is not None:
            self._remove_worker(worker, "reaped")
        self._worker_killed_holding(lease, token, how)

    # -- dispatch ----------------------------------------------------------

    def _assign_work(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if not worker.idle or self.queue.pending_count == 0:
                continue
            lease = self.queue.acquire(worker.worker_id, now)
            if lease is None:
                break
            try:
                worker.conn.send(
                    ("lease", lease.lease_id, lease.spec, lease.dispatch)
                )
            except (pickle.PicklingError, AttributeError, TypeError):
                # Unpicklable spec (e.g. a registry of locally-defined
                # mutators): this cell can never cross a process boundary —
                # run it in-process, deterministically identical.
                self._run_in_process(lease)
                continue
            except OSError:
                # The pipe died under us; the liveness pass will reap the
                # worker.  The cell never started, so its dispatch count
                # (and fault keying) must not advance.
                self.queue.complete(lease.lease_id)
                self.queue.add(lease.index, lease.spec, lease.dispatch)
                continue
            worker.idle = False
            self._emit_grant(lease, self.journal.worker_token(worker.worker_id))

    def _drain_inprocess(self) -> None:
        """Last resort when no worker can exist: never lose a cell."""
        while (lease := self.queue.acquire(None, time.monotonic())) is not None:
            self._run_in_process(lease)

    # -- the run loop ------------------------------------------------------

    def run(self) -> list[CellOutcome]:
        if self.telemetry_dir is not None:
            from pathlib import Path

            from repro.telemetry import TelemetrySession

            self.gridlog = TelemetrySession.to_jsonl(
                Path(self.telemetry_dir) / "grid.jsonl"
            )
        try:
            self._emit("grid", status="start", cells=len(self.specs),
                       fleet=self.fleet_size, run=self.journal.runs)
            self._intake()
            if not self.queue.drained:
                for _ in range(min(self.fleet_size, self.queue.pending_count)):
                    self._spawn_worker()
                while not self.queue.drained:
                    self._drain_messages()
                    self._reap_dead_and_stalled()
                    self._maybe_respawn()
                    if not self.workers:
                        self._drain_inprocess()
                        continue
                    self._assign_work()
                    if not self.queue.drained:
                        self._wait()
            self._emit("grid", status="end",
                       completed=sum(o.ok for o in self.outcomes.values()),
                       failed=sum(not o.ok for o in self.outcomes.values()))
            return [self.outcomes[index] for index in range(len(self.specs))]
        finally:
            self._shutdown()

    def _wait(self) -> None:
        """Block until a worker speaks or dies, or one heartbeat interval
        passes (lease deadlines and cell budgets need the clock)."""
        workers = self.workers.values()
        wait(
            [w.conn for w in workers] + [w.proc.sentinel for w in workers],
            timeout=self.heartbeat_interval,
        )

    def _intake(self) -> None:
        """Load checkpoints and kills; queue only the genuinely unfinished."""
        from repro.fuzzing.campaign import CampaignResult

        for index, (spec, key) in enumerate(zip(self.specs, self.keys)):
            payload = self.store.load(key) if self.store is not None else None
            if payload is not None and payload.get("ok") and "result" in payload:
                self.outcomes[index] = CellOutcome(
                    spec=spec,
                    ok=True,
                    result=CampaignResult.from_json(payload["result"]),
                    attempts=int(payload.get("attempts", 1)),
                    from_checkpoint=True,
                )
                self._emit_cell(index, "checkpoint-skip")
                continue
            if self.journal.is_poison(key, self.poison_threshold):
                # Kills survive restarts, and so does the verdict derived
                # from them: never re-dispatch a poison cell.
                attempts = (payload or {}).get(
                    "attempts", len(self.journal.kills_for(key))
                )
                self.outcomes[index] = self._poison_outcome(
                    index, int(attempts), from_checkpoint=True
                )
                self._emit_cell(index, "poison-skip")
                continue
            self.queue.add(index, spec)

    def _shutdown(self) -> None:
        for worker in list(self.workers.values()):
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in list(self.workers.values()):
            worker.proc.join(1)
            ensure_dead(worker.proc)
            try:
                worker.conn.close()
            except OSError:
                pass
        self.workers.clear()
        if self.gridlog is not None:
            self.gridlog.close()
            self.gridlog = None


def run_cells_fabric(
    specs,
    fleet_size: int = 4,
    *,
    heartbeat_interval: float = 0.25,
    heartbeat_timeout: float = 2.0,
    cell_timeout: float | None = None,
    cell_retries: int = 1,
    poison_threshold: int = 3,
    checkpoint_dir=None,
    telemetry_dir=None,
    chaos: ChaosPlan | None = None,
) -> list[CellOutcome]:
    """Drain ``specs`` through a supervised worker fleet; one outcome per
    cell, in spec order, no matter what happens to the fleet.

    See :class:`Supervisor` for the protocol.  ``heartbeat_timeout`` is how
    long a silent worker keeps its lease; ``cell_timeout`` (optional) is
    the wall-clock hang budget per cell; ``poison_threshold`` distinct
    worker deaths quarantine a cell.  The fleet is repaired without limit;
    termination still holds, because every chaos/poison death either
    progresses a cell toward quarantine or fires at most once per worker.
    """
    return Supervisor(
        specs,
        fleet_size,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        cell_timeout=cell_timeout,
        cell_retries=cell_retries,
        poison_threshold=poison_threshold,
        checkpoint_dir=checkpoint_dir,
        telemetry_dir=telemetry_dir,
        chaos=chaos,
    ).run()
