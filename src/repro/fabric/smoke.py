"""Fabric CI chaos smoke: kill workers mid-cell, prove nothing is lost.

Runs a six-cell campaign grid through the fabric supervisor under a
seeded :class:`~repro.resilience.faultinject.ChaosPlan` that kills ~30% of
the worker fleet mid-cell and wedges one worker's heartbeat, plus one
*poison* cell (an injected hard-exit that kills every worker that leases
it).  Asserts the invariants the fabric exists for:

1. **zero lost cells** — every cell lands as a :class:`CellOutcome`, the
   grid never aborts;
2. **poison quarantine** — the permanently-crashing cell is quarantined
   after killing ``poison_threshold`` distinct workers, exactly once,
   instead of retrying forever;
3. **serial == fabric** — every completed cell's result is bit-identical
   to a serial :func:`run_cells` of the same spec (the CRC32 per-cell
   seed scheme makes results worker-independent);
4. the grid telemetry (``cell`` lifecycle + ``fabric`` lease/reclaim/
   poison events) validates against schema v1, and a resumed supervisor
   serves everything — including the poison verdict — from the journal;
5. a transient worker crash (a cell whose first attempt hard-exits) is
   absorbed by re-dispatch, and the re-run equals the serial run.

Entry point: ``python -m repro.fabric.smoke``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path


def _grid_events(telemetry_dir: Path) -> list[dict]:
    path = telemetry_dir / "grid.jsonl"
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def main() -> int:
    import repro.mutators  # noqa: F401  (populate the registry)
    from repro.compiler.driver import GCC_SIM, Compiler
    from repro.fuzzing.campaign import FUZZER_NAMES, Campaign
    from repro.fuzzing.parallel import run_cells
    from repro.fuzzing.seedgen import generate_seeds
    from repro.muast.registry import global_registry
    from repro.resilience.faultinject import CellFault, ChaosPlan
    from repro.telemetry import validate_jsonl

    chaos = ChaosPlan(
        seed=5,          # dooms workers 1, 2, 4 of the first ten;
        kill_fraction=0.34,  # worker 1 stalls instead (stall wins)
        stall_workers=(1,),
        die_after=0.05,
    )
    doomed = chaos.doomed_workers(range(4))
    assert doomed, "the chosen seed must kill at least one initial worker"

    with tempfile.TemporaryDirectory() as tmp:
        telemetry_dir = Path(tmp) / "telemetry"
        checkpoint_dir = Path(tmp) / "checkpoints"
        campaign = Campaign(
            compilers=[Compiler(*GCC_SIM)],
            seeds=generate_seeds(8),
            registry=global_registry,
            steps=12,
            telemetry_dir=str(telemetry_dir),
        )

        # The ground truth: the same six specs, serially, no faults.
        plain = Campaign(
            compilers=[Compiler(*GCC_SIM)],
            seeds=generate_seeds(8),
            registry=global_registry,
            steps=12,
        )
        serial = run_cells(plain.cell_specs(FUZZER_NAMES))

        outcomes = campaign.run_fabric(
            FUZZER_NAMES,
            fleet_size=4,
            heartbeat_interval=0.05,
            heartbeat_timeout=1.0,
            poison_threshold=3,
            checkpoint_dir=str(checkpoint_dir),
            faults={"GrayC": CellFault(kind="exit", attempts=None)},
            chaos=chaos,
        )

        # 1. Zero lost cells: one outcome per spec, in spec order.
        assert len(outcomes) == len(FUZZER_NAMES), outcomes
        names = [o.spec.fuzzer_name for o in outcomes]
        assert names == list(FUZZER_NAMES), names

        # 2. Poison quarantine: the killer cell is a recorded failure...
        poison = [o for o in outcomes if o.error_type == "poison"]
        assert len(poison) == 1 and poison[0].spec.fuzzer_name == "GrayC", (
            outcomes
        )
        assert poison[0].failed and poison[0].result is None
        # ...and everything else completed despite the fleet churn.
        ok = [o for o in outcomes if o.ok]
        assert len(ok) == len(FUZZER_NAMES) - 1, outcomes

        # 3. Bit-identical to the serial run, whatever workers died.
        for expect, got in zip(serial, outcomes):
            if got.ok:
                assert got.result is not None
                assert got.result.to_json() == expect.to_json(), (
                    f"fabric result diverged for {got.spec.fuzzer_name}"
                )
        print(
            f"chaos: {len(ok)} cells bit-identical to serial, "
            f"poison quarantined after "
            f"{poison[0].attempts} worker kills"
        )

        # 4. Telemetry: schema-valid, poison fired exactly once, and both
        #    failure detectors actually triggered under this plan.
        assert validate_jsonl(telemetry_dir / "grid.jsonl") > 0
        events = _grid_events(telemetry_dir)
        poison_events = [e for e in events if e["kind"] == "fabric"
                         and e["name"] == "poison"]
        assert len(poison_events) == 1, poison_events
        reasons = {
            e["fields"].get("reason")
            for e in events
            if e["kind"] == "fabric" and e["name"] == "lease"
            and e["fields"].get("status") == "reclaim"
        }
        assert "worker-death" in reasons, reasons
        assert "heartbeat-missed" in reasons, reasons
        cell_statuses = [
            e["fields"]["status"] for e in events if e["kind"] == "cell"
        ]
        assert cell_statuses.count("ok") == len(ok)
        assert cell_statuses.count("failed") == 1
        print(f"telemetry: {len(events)} schema-valid grid events, "
              f"reclaim reasons {sorted(reasons)}")

        # 5. Resume: a restarted supervisor replays everything from the
        #    journal + checkpoints — including the poison verdict — and
        #    never spawns a worker.
        resumed = campaign.run_fabric(
            FUZZER_NAMES,
            fleet_size=4,
            heartbeat_interval=0.05,
            heartbeat_timeout=1.0,
            poison_threshold=3,
            checkpoint_dir=str(checkpoint_dir),
            faults={"GrayC": CellFault(kind="exit", attempts=None)},
            chaos=chaos,
        )
        assert all(o.from_checkpoint for o in resumed), resumed
        assert resumed[names.index("GrayC")].error_type == "poison"
        events = _grid_events(telemetry_dir)
        assert not any(
            e["kind"] == "fabric" and e["name"] == "lease"
            and e["fields"].get("status") == "grant"
            for e in events
        ), "a resumed grid must not re-dispatch anything"
        print("resume: full grid served from journal + checkpoints")

    # 6. Retry: the first attempt of one cell kills its worker; the lease
    #    is reclaimed and the re-dispatched cell equals the serial run.
    retried = plain.run_fabric(
        ("uCFuzz.s", "Csmith"),
        fleet_size=2,
        heartbeat_interval=0.05,
        heartbeat_timeout=1.0,
        faults={"uCFuzz.s": CellFault(kind="exit", attempts=(0,))},
    )
    assert [(o.ok, o.attempts) for o in retried] == [(True, 2), (True, 1)], (
        retried
    )
    expected = dict(zip(FUZZER_NAMES, serial))
    for got in retried:
        assert got.result.to_json() == (
            expected[got.spec.fuzzer_name].to_json()
        ), f"re-dispatched result diverged for {got.spec.fuzzer_name}"
    print("retry: a crashed first attempt re-ran identical to serial")

    print("fabric chaos smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
