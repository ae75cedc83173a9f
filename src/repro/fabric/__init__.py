"""The fault-tolerant campaign fabric: leases, supervision, chaos.

Long-running LLM-mutator campaigns (Mut4All- and FunFuzz-scale fleets,
hours to days) make worker loss, hangs, and poison inputs the steady
state, not the exception.  The fabric is the repository's one
multi-process cell runner: ``Campaign.run(parallelism > 1)`` and
``Campaign.run_fabric`` both drain their cells through it.  The package:

* :mod:`repro.fabric.lease` — the lease-based :class:`WorkQueue` (grant /
  renew / reclaim / retry state machine, fake-clock testable);
* :mod:`repro.fabric.journal` — each cell's distinct killers, the one
  record poison verdicts derive from, kept through
  :class:`~repro.resilience.checkpoint.CheckpointStore` so a supervisor
  restart resumes mid-grid;
* :mod:`repro.fabric.worker` — the long-lived worker process with its
  heartbeat thread and chaos hooks;
* :mod:`repro.fabric.supervisor` — dead/stalled-worker detection, lease
  reclamation and work-stealing re-dispatch, poison-cell quarantine, the
  in-process fallback under the same lease and retry contract, schema-v1
  ``fabric`` telemetry, and :func:`run_cells_fabric`;
* :mod:`repro.fabric.smoke` — the chaos harness CI runs: under seeded
  worker deaths and a heartbeat stall, every cell must land, poison must
  quarantine exactly the injected killer cell, completed results must be
  bit-identical to the serial run, and a resumed grid must be served from
  the journal and checkpoints.

Worker-level fault *plans* (:class:`~repro.resilience.faultinject.ChaosPlan`)
live in :mod:`repro.resilience.faultinject` beside the cell-level faults
they extend.
"""

from repro.fabric.journal import JOURNAL_KEY, FabricJournal
from repro.fabric.lease import Lease, WorkQueue
from repro.fabric.supervisor import Supervisor, run_cells_fabric

__all__ = [
    "FabricJournal",
    "JOURNAL_KEY",
    "Lease",
    "Supervisor",
    "WorkQueue",
    "run_cells_fabric",
]
