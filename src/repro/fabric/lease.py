"""The lease-based work queue at the heart of the campaign fabric.

A :class:`WorkQueue` hands out *leases* over campaign cells: a lease names
one cell, the worker holding it, and a deadline that the worker must keep
pushing forward by heartbeating.  The queue remembers how many times each
cell has been dispatched and how often it raised, and nothing else: which
workers a cell killed, and so whether it is poison, is the
:class:`~repro.fabric.journal.FabricJournal`'s to know.  The queue is
deliberately passive: every method takes an explicit ``now`` and the
queue never reads the wall clock, spawns a process, or sleeps.  That keeps
the whole lease lifecycle unit-testable with a fake clock and leaves
scheduling policy to the supervisor.

Lease lifecycle (one cell may cycle through it many times)::

    pending ──acquire──▶ leased ──complete──▶ done (CellOutcome ok)
       ▲                   │
       │                   ├─fail (cell raised, retries left)──▶ pending
       │                   ├─fail (retries exhausted)──▶ done (failed)
       │                   └─reclaim (worker died / heartbeat missed /
       │                         │     cell over budget)
       └──────requeue────────────┘ (unless the journal now calls the
                                    cell poison: done, quarantined)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.fuzzing.parallel import CellSpec


@dataclass
class Lease:
    """One worker's claim on one cell, valid until ``deadline``."""

    lease_id: int
    index: int
    spec: CellSpec
    #: None when the supervisor runs the cell in its own process.
    worker_id: int | None
    granted_at: float
    deadline: float
    #: How many times this cell has been dispatched before this lease
    #: (0-based; the attempt number ``run_cell`` is given, which keys
    #: injected faults).
    dispatch: int = 0


@dataclass
class _PendingCell:
    index: int
    spec: CellSpec
    dispatch: int = 0


@dataclass
class WorkQueue:
    """Leases cells to workers and bounds the retries of cells that raise.

    ``heartbeat_timeout`` is the lease TTL: a renewal (heartbeat) pushes
    the deadline to ``now + heartbeat_timeout``, and a lease whose
    deadline passes is considered held by a dead or stalled worker.
    ``cell_retries`` bounds retries of cells that raise (the worker
    survives those, so they are counted apart from worker deaths).
    """

    heartbeat_timeout: float = 2.0
    cell_retries: int = 1

    _pending: deque = field(default_factory=deque, repr=False)
    _leases: dict = field(default_factory=dict, repr=False)
    _next_lease_id: int = 0
    #: cell index → count of exceptions the cell raised (worker survived).
    _errors: dict = field(default_factory=dict, repr=False)

    # -- intake ------------------------------------------------------------

    def add(self, index: int, spec: CellSpec, dispatch: int = 0) -> None:
        self._pending.append(_PendingCell(index, spec, dispatch))

    # -- the lease state machine ------------------------------------------

    def acquire(self, worker_id: int | None, now: float) -> Lease | None:
        """Grant the next pending cell to ``worker_id``, or None if empty."""
        if not self._pending:
            return None
        cell = self._pending.popleft()
        lease = Lease(
            lease_id=self._next_lease_id,
            index=cell.index,
            spec=cell.spec,
            worker_id=worker_id,
            granted_at=now,
            deadline=now + self.heartbeat_timeout,
            dispatch=cell.dispatch,
        )
        self._next_lease_id += 1
        self._leases[lease.lease_id] = lease
        return lease

    def renew(self, lease_id: int, now: float) -> bool:
        """Heartbeat: push the lease deadline forward.  False if unknown
        (already reclaimed — the worker is beating on a lost lease)."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = now + self.heartbeat_timeout
        return True

    def complete(self, lease_id: int) -> Lease | None:
        """The cell finished; retire the lease (None if already reclaimed)."""
        return self._leases.pop(lease_id, None)

    def fail(self, lease_id: int) -> tuple[Lease | None, bool]:
        """The cell raised (inside a surviving worker, or in-process).

        Returns ``(lease, retried)``: when the cell's error budget is not
        exhausted it is requeued (``retried=True``); otherwise the caller
        records a failure outcome.
        """
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return None, False
        errors = self._errors.get(lease.index, 0) + 1
        self._errors[lease.index] = errors
        if errors <= self.cell_retries:
            self.add(lease.index, lease.spec, lease.dispatch + 1)
            return lease, True
        return lease, False

    def reclaim_worker(self, worker_id: int) -> list[Lease]:
        """Strip every lease held by a (dead) worker; does not requeue."""
        claimed = [l for l in self._leases.values() if l.worker_id == worker_id]
        for lease in claimed:
            del self._leases[lease.lease_id]
        return claimed

    def reclaim_expired(self, now: float) -> list[Lease]:
        """Strip every lease whose deadline passed (missed heartbeats)."""
        expired = [l for l in self._leases.values() if now > l.deadline]
        for lease in expired:
            del self._leases[lease.lease_id]
        return expired

    def reclaim_overrunning(self, now: float, cell_budget: float) -> list[Lease]:
        """Strip leases whose cell has run longer than ``cell_budget``.

        Heartbeats prove the *process* is alive, not that the cell makes
        progress — a hung cell beats forever.  The wall-clock budget since
        grant is the hang detector.
        """
        over = [
            l for l in self._leases.values()
            if now - l.granted_at > cell_budget
        ]
        for lease in over:
            del self._leases[lease.lease_id]
        return over

    # -- requeue / introspection ------------------------------------------

    def requeue(self, lease: Lease) -> None:
        """Put a reclaimed lease's cell back up for grabs (work-stealing)."""
        self.add(lease.index, lease.spec, lease.dispatch + 1)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def lease_count(self) -> int:
        return len(self._leases)

    @property
    def drained(self) -> bool:
        return not self._pending and not self._leases
