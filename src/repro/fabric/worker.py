"""The fabric worker: a long-lived process that executes leased cells.

A worker is the unit the supervisor supervises.  It connects back over a
duplex pipe, announces itself ready, and then loops: accept a lease, run
the cell via the same :func:`repro.fuzzing.parallel.run_cell` the serial
loop uses (so results depend only on the :class:`CellSpec`, never on
which worker executed it), with the lease's dispatch count as the attempt
number, report the result, announce ready again.

While a cell runs, a daemon *heartbeat thread* renews the lease every
``heartbeat_interval`` seconds.  Heartbeats prove the process is alive and
scheduling; they intentionally do **not** prove the cell is progressing —
hang detection is the supervisor's wall-clock cell budget.

A :class:`~repro.resilience.faultinject.ChaosPlan` riding along on the
spawn arguments lets CI kill this worker mid-cell (``die``), freeze its
heartbeats (``stall``), or slow it down (``slow``) — deterministically,
keyed on the worker id.

Wire protocol (worker → supervisor), all picklable tuples::

    ("ready",      worker_id)
    ("heartbeat",  worker_id, lease_id)
    ("done",       worker_id, lease_id, CampaignResult)
    ("cell-error", worker_id, lease_id, message, exc_type)

Supervisor → worker::

    ("lease", lease_id, CellSpec, dispatch)
    ("stop",)
"""

from __future__ import annotations

import os
import threading
import time

from repro.resilience.faultinject import ChaosPlan, WorkerFault


class _Heartbeat:
    """Renews the current lease on a timer until stopped (or stalled)."""

    def __init__(self, send, worker_id: int, lease_id: int, interval: float,
                 stalled: bool = False) -> None:
        self._send = send
        self._worker_id = worker_id
        self._lease_id = lease_id
        self._interval = interval
        self._stalled = stalled
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self._stalled:
                return  # the chaos fault: silently stop beating
            try:
                self._send(("heartbeat", self._worker_id, self._lease_id))
            except (OSError, ValueError, BrokenPipeError):
                return  # supervisor went away; the worker will notice too

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _arm_chaos_death(fault: WorkerFault) -> None:
    """Schedule this process's hard death mid-cell (no cleanup, no word)."""

    def _die() -> None:
        time.sleep(fault.after_seconds)
        os._exit(fault.exit_code)

    threading.Thread(target=_die, daemon=True).start()


def worker_main(conn, worker_id: int, heartbeat_interval: float,
                chaos: ChaosPlan | None) -> None:  # pragma: no cover - subprocess
    """The worker process entry point (runs until told to stop)."""
    import repro.mutators  # noqa: F401  (populate the worker's registry)
    from repro.fuzzing.parallel import run_cell

    send_lock = threading.Lock()

    def send(payload: tuple) -> None:
        with send_lock:
            conn.send(payload)

    lease_seq = 0
    try:
        send(("ready", worker_id))
        while True:
            message = conn.recv()
            if not isinstance(message, tuple) or message[0] == "stop":
                return
            _, lease_id, spec, dispatch = message
            fault = chaos.decide(worker_id, lease_seq) if chaos else None
            lease_seq += 1
            if fault is not None and fault.kind == "die":
                _arm_chaos_death(fault)
            beat = _Heartbeat(
                send, worker_id, lease_id, heartbeat_interval,
                stalled=fault is not None and fault.kind == "stall",
            )
            beat.start()
            if fault is not None and fault.kind == "slow":
                # Degraded, not dead: keep beating through the slowdown so
                # the lease is renewed rather than reclaimed.
                time.sleep(fault.after_seconds)
            if fault is not None and fault.kind == "stall":
                # A wedged process (GC pause, NFS hang, SIGSTOP): nothing
                # progresses and nothing beats.  The supervisor must notice
                # the missed heartbeats and reap us.
                time.sleep(fault.after_seconds)
            try:
                result = run_cell(spec, dispatch)
            except BaseException as exc:  # noqa: BLE001 - report, stay alive
                beat.stop()
                send(("cell-error", worker_id, lease_id, str(exc),
                      type(exc).__name__))
            else:
                beat.stop()
                send(("done", worker_id, lease_id, result))
            send(("ready", worker_id))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # supervisor died or tore the pipe down: just exit
    finally:
        try:
            conn.close()
        except OSError:
            pass
