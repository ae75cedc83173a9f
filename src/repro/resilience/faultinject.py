"""Picklable fault plans for exercising the resilience layer.

A :class:`CellFault` rides along on a campaign ``CellSpec`` and fires
inside the worker that executes the cell, simulating the three ways a real
fuzzing worker dies: an unhandled exception, a hard process death (as if
the kernel OOM-killed it), and a hang.  Faults are keyed on the *attempt*
number, so a test can make the first attempt fail and the retry succeed —
which is exactly the scenario the per-cell retry exists for.

``kind="exit"`` and ``kind="hang"`` must only be used with the fabric's
worker processes (``Campaign.run_fabric``): fired in-process they would
take the caller down, which is the behaviour they simulate.  The fabric
counts each such death against the cell and quarantines it as poison after
``poison_threshold`` distinct workers; a hang is a death once it overruns
``cell_timeout``.

:class:`WorkerFault` and :class:`ChaosPlan` extend the same idea from
cells to *workers* for the fabric layer (:mod:`repro.fabric`): a plan
deterministically decides, per (worker, lease), whether that worker dies
mid-cell, stalls its heartbeat, or slows down.  Decisions are pure
functions of ``(seed, worker_id, lease_seq)`` — no shared RNG state, so
the same plan replays identically regardless of scheduling.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass


class InjectedCellFault(RuntimeError):
    """The exception a ``kind="raise"`` fault throws inside the worker."""


@dataclass(frozen=True)
class CellFault:
    """A deterministic fault fired by ``run_cell`` before the cell runs.

    ``attempts`` lists the 0-based attempt numbers on which the fault
    fires; ``None`` means every attempt (a permanently broken cell).
    """

    kind: str  # "raise" | "exit" | "hang"
    attempts: tuple[int, ...] | None = (0,)
    hang_seconds: float = 3600.0
    exit_code: int = 23

    def fire(self, attempt: int) -> None:
        if self.attempts is not None and attempt not in self.attempts:
            return
        if self.kind == "raise":
            raise InjectedCellFault(
                f"injected cell fault (attempt {attempt})"
            )
        if self.kind == "exit":
            # A hard worker death: no exception, no cleanup, no message.
            os._exit(self.exit_code)
        if self.kind == "hang":
            time.sleep(self.hang_seconds)
            return
        raise ValueError(f"unknown fault kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Worker-level chaos (fabric layer)

#: The worker fault kinds a :class:`ChaosPlan` can inject.
WORKER_FAULT_KINDS = ("die", "stall", "slow")


@dataclass(frozen=True)
class WorkerFault:
    """One worker-level fault, applied while the worker holds a lease.

    ``die``
        The worker hard-exits (``os._exit``) ``after_seconds`` into the
        leased cell — a mid-cell death with no cleanup and no message,
        exactly what an OOM kill or a machine loss looks like.
    ``stall``
        The worker wedges for ``after_seconds`` while holding the lease —
        no heartbeats, no progress (a long GC pause, an NFS hang, a
        SIGSTOP); the supervisor must detect the missed heartbeats and
        reap the worker.
    ``slow``
        The worker sleeps ``after_seconds`` before starting the cell —
        a degraded-but-healthy worker that must keep its lease via
        heartbeat renewal rather than be reaped.
    """

    kind: str  # one of WORKER_FAULT_KINDS
    after_seconds: float = 0.05
    exit_code: int = 41

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(f"unknown worker fault kind {self.kind!r}")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, picklable schedule of worker faults for the fabric.

    The plan is consulted by each worker when it accepts a lease:
    :meth:`decide` maps ``(worker_id, lease_seq)`` — the worker's id and
    how many leases it has accepted so far — to an optional
    :class:`WorkerFault`.  The mapping hashes the plan seed with the
    worker id, so it is identical in every process and across reruns
    without any shared state.

    ``kill_fraction`` of workers die mid-way through their *first* leased
    cell (each worker dies at most once; respawned workers get fresh ids
    and roll again, so a fleet under sustained chaos keeps churning).
    ``stall_workers``/``slow_workers`` name worker ids explicitly, firing
    on their first lease — precise single-fault scenarios for tests.
    """

    seed: int = 0
    kill_fraction: float = 0.0
    stall_workers: tuple[int, ...] = ()
    slow_workers: tuple[int, ...] = ()
    die_after: float = 0.05
    slow_for: float = 0.2
    stall_for: float = 3600.0

    def decide(self, worker_id: int, lease_seq: int) -> WorkerFault | None:
        """The fault (if any) this worker suffers on its ``lease_seq``-th lease."""
        if lease_seq != 0:
            return None  # every fault fires on a worker's first lease
        if worker_id in self.stall_workers:
            return WorkerFault("stall", after_seconds=self.stall_for)
        if worker_id in self.slow_workers:
            return WorkerFault("slow", after_seconds=self.slow_for)
        if self.kill_fraction > 0.0:
            # sha1, not crc32: crc is linear, so a seed change would only
            # perturb the draw instead of reshuffling it.
            digest = hashlib.sha1(
                f"chaos\x00{self.seed}\x00{worker_id}".encode()
            ).digest()
            draw = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
            if draw < self.kill_fraction:
                return WorkerFault("die", after_seconds=self.die_after)
        return None

    def doomed_workers(self, worker_ids) -> list[int]:
        """Which of ``worker_ids`` the plan will kill (for assertions)."""
        return [
            wid for wid in worker_ids
            if (fault := self.decide(wid, 0)) is not None and fault.kind == "die"
        ]
