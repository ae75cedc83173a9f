"""The campaign fabric: lease queue, journal, supervisor, chaos plans."""

from __future__ import annotations

import json

import pytest

from repro.fabric import (
    JOURNAL_KEY,
    FabricJournal,
    Supervisor,
    WorkQueue,
    run_cells_fabric,
)
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.parallel import CellSpec, cell_key, run_cells
from repro.resilience import CellFault, ChaosPlan, CheckpointStore, WorkerFault
from repro.telemetry import validate_jsonl


def _spec(name: str = "uCFuzz.s", steps: int = 5) -> CellSpec:
    return CellSpec(
        fuzzer_name=name,
        personality="gcc",
        version="13.2",
        bug_seed=99,
        seeds=("int main() { return 0; }",),
        steps=steps,
        cell_seed=1234,
    )


# ---------------------------------------------------------------------------
# The lease state machine (fake clock, no processes)


class TestWorkQueue:
    def test_grant_renew_complete(self):
        q = WorkQueue(heartbeat_timeout=10.0)
        q.add(0, _spec())
        lease = q.acquire(worker_id=7, now=100.0)
        assert lease is not None
        assert (lease.index, lease.worker_id, lease.dispatch) == (0, 7, 0)
        assert lease.deadline == 110.0
        assert q.acquire(worker_id=8, now=100.0) is None  # queue empty
        assert q.renew(lease.lease_id, now=105.0)
        assert lease.deadline == 115.0
        done = q.complete(lease.lease_id)
        assert done is lease
        assert q.drained

    def test_expiry_reclaims_only_silent_leases(self):
        q = WorkQueue(heartbeat_timeout=10.0)
        q.add(0, _spec("uCFuzz.s"))
        q.add(1, _spec("Csmith"))
        stale = q.acquire(1, now=0.0)
        fresh = q.acquire(2, now=0.0)
        q.renew(fresh.lease_id, now=9.0)
        expired = q.reclaim_expired(now=11.0)
        assert [l.lease_id for l in expired] == [stale.lease_id]
        assert q.lease_count == 1
        # A heartbeat on a reclaimed lease is refused (lost-lease fencing).
        assert not q.renew(stale.lease_id, now=11.0)
        # Requeue bumps the dispatch count (the cell's next attempt).
        q.requeue(stale)
        again = q.acquire(3, now=12.0)
        assert again.index == stale.index and again.dispatch == 1

    def test_worker_death_reclaim(self):
        q = WorkQueue(heartbeat_timeout=10.0)
        q.add(0, _spec())
        lease = q.acquire(4, now=0.0)
        assert q.reclaim_worker(9) == []
        assert [l.lease_id for l in q.reclaim_worker(4)] == [lease.lease_id]
        assert q.lease_count == 0

    def test_overrun_detection_is_grant_anchored(self):
        q = WorkQueue(heartbeat_timeout=5.0)
        q.add(0, _spec())
        lease = q.acquire(1, now=0.0)
        q.renew(lease.lease_id, now=19.0)  # heartbeats keep arriving...
        over = q.reclaim_overrunning(now=20.0, cell_budget=15.0)
        assert over == [lease]  # ...but the cell itself has hung

    def test_fail_respects_cell_retry_budget(self):
        q = WorkQueue(cell_retries=1)
        q.add(0, _spec())
        lease = q.acquire(1, now=0.0)
        _, retried = q.fail(lease.lease_id)
        assert retried and q.pending_count == 1
        lease = q.acquire(1, now=1.0)
        assert lease.dispatch == 1
        _, retried = q.fail(lease.lease_id)
        assert not retried
        assert q.drained


# ---------------------------------------------------------------------------
# The journal: kill attribution, poison derived from it, restart-safe
# worker identity


class TestJournal:
    def test_unjournalled_without_store(self):
        journal = FabricJournal(None)
        journal.record_kill("cell-a", journal.worker_token(0))
        assert journal.kills_for("cell-a") == ["run1:w0"]
        assert journal.to_json() == {"runs": 1, "kills": {"cell-a": ["run1:w0"]}}

    def test_state_survives_restart(self, tmp_path):
        store = CheckpointStore(tmp_path)
        first = FabricJournal(store)
        assert first.runs == 1
        first.record_kill("cell-a", first.worker_token(2))
        second = FabricJournal(store)
        assert second.runs == 2
        assert second.kills_for("cell-a") == ["run1:w2"]
        # Same worker id, different run: a *distinct* killer.
        second.record_kill("cell-a", second.worker_token(2))
        assert second.kills_for("cell-a") == ["run1:w2", "run2:w2"]
        assert set(store.load(JOURNAL_KEY)) == {"runs", "kills"}

    def test_poison_after_distinct_workers(self):
        journal = FabricJournal(None)
        assert journal.record_kill("cell-a", "run1:w1") == ["run1:w1"]
        # The same worker again is no new killer.
        assert journal.record_kill("cell-a", "run1:w1") == ["run1:w1"]
        assert not journal.is_poison("cell-a", 2)
        journal.record_kill("cell-a", "run1:w2")
        assert journal.is_poison("cell-a", 2)
        assert not journal.is_poison("cell-a", 3)
        assert not journal.is_poison("cell-b", 1)

    def test_writes_once_per_run_and_per_new_killer(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        writes = []
        save = store.save

        def counting_save(key, payload):
            writes.append(key)
            return save(key, payload)

        monkeypatch.setattr(store, "save", counting_save)
        journal = FabricJournal(store)
        journal.record_kill("cell-a", "run1:w0")
        journal.record_kill("cell-a", "run1:w0")  # a known killer: no write
        journal.record_kill("cell-a", "run1:w1")
        assert writes == [JOURNAL_KEY] * 3


# ---------------------------------------------------------------------------
# Chaos plans: seeded, picklable, per-worker deterministic


class TestChaosPlan:
    def test_decisions_are_deterministic_and_seeded(self):
        plan = ChaosPlan(seed=5, kill_fraction=0.34)
        assert plan.decide(2, 0) == plan.decide(2, 0)
        assert [w for w in range(10) if plan.decide(w, 0)] == [1, 2, 4]
        other = ChaosPlan(seed=2, kill_fraction=0.34)
        assert [w for w in range(10) if other.decide(w, 0)] != [1, 2, 4]

    def test_faults_fire_only_on_first_lease(self):
        plan = ChaosPlan(seed=5, kill_fraction=1.0, stall_workers=(3,))
        assert plan.decide(0, 0).kind == "die"
        assert plan.decide(0, 1) is None
        assert plan.decide(3, 0).kind == "stall"

    def test_explicit_workers_beat_the_kill_draw(self):
        plan = ChaosPlan(seed=5, kill_fraction=1.0, stall_workers=(1,),
                         slow_workers=(2,))
        assert plan.decide(1, 0).kind == "stall"
        assert plan.decide(2, 0).kind == "slow"

    def test_worker_fault_kind_checked(self):
        with pytest.raises(ValueError):
            WorkerFault("vanish")


# ---------------------------------------------------------------------------
# End-to-end: the supervised fleet (kept small; the CI smoke goes further)

_FAST = dict(heartbeat_interval=0.05, heartbeat_timeout=1.5)
_EXIT_ALWAYS = {"uCFuzz.s": CellFault(kind="exit", attempts=None)}


def _grid_events(telemetry_dir) -> list[dict]:
    return [
        json.loads(line)
        for line in (telemetry_dir / "grid.jsonl").read_text().splitlines()
    ]


def _grants(events) -> list[dict]:
    return [
        e for e in events
        if e["kind"] == "fabric" and e["name"] == "lease"
        and e["fields"]["status"] == "grant"
    ]


def _campaign(gcc, small_seeds, registry, steps=8, **kwargs) -> Campaign:
    return Campaign(
        compilers=[gcc], seeds=small_seeds[:6], registry=registry,
        steps=steps, **kwargs,
    )


def _same_result(a, b) -> bool:
    return a.to_json() == b.to_json()


class TestFabricEndToEnd:
    NAMES = ("uCFuzz.s", "Csmith", "YARPGen")

    def test_clean_grid_matches_serial(self, gcc, small_seeds, registry):
        campaign = _campaign(gcc, small_seeds, registry)
        serial = campaign.run(self.NAMES, parallelism=1)
        outcomes = campaign.run_fabric(self.NAMES, fleet_size=2, **_FAST)
        assert [o.ok for o in outcomes] == [True] * 3
        assert all(o.attempts == 1 for o in outcomes)
        for expect, got in zip(serial, outcomes):
            assert _same_result(expect, got.result)

    def test_worker_death_redistributes_work(self, gcc, small_seeds, registry):
        campaign = _campaign(gcc, small_seeds, registry)
        serial = campaign.run(self.NAMES, parallelism=1)
        # Seed 4 dooms exactly worker 1 of the first ten: it dies mid-cell,
        # the lease is reclaimed and the cell re-dispatched to a survivor,
        # with results identical to serial.
        outcomes = campaign.run_fabric(
            self.NAMES, fleet_size=2,
            chaos=ChaosPlan(seed=4, kill_fraction=0.34, die_after=0.02),
            **_FAST,
        )
        assert all(o.ok for o in outcomes), outcomes
        assert any(o.attempts > 1 for o in outcomes)  # something was stolen
        for expect, got in zip(serial, outcomes):
            assert _same_result(expect, got.result)

    def test_poison_cell_quarantined(self, gcc, small_seeds, registry):
        campaign = _campaign(gcc, small_seeds, registry, steps=5)
        outcomes = campaign.run_fabric(
            ("uCFuzz.s", "Csmith"), fleet_size=2, poison_threshold=2,
            faults={"uCFuzz.s": CellFault(kind="exit", attempts=None)},
            **_FAST,
        )
        poison, ok = outcomes
        assert poison.failed and poison.error_type == "poison"
        assert poison.attempts == 2  # two distinct workers died for it
        assert "distinct workers" in poison.error
        assert ok.ok

    def test_cell_error_uses_retry_budget_not_poison(
        self, gcc, small_seeds, registry
    ):
        campaign = _campaign(gcc, small_seeds, registry, steps=5)
        outcomes = campaign.run_fabric(
            ("uCFuzz.s", "Csmith"), fleet_size=2, cell_retries=1,
            faults={"uCFuzz.s": CellFault(kind="raise", attempts=None)},
            **_FAST,
        )
        failed, ok = outcomes
        assert failed.error_type == "InjectedCellFault"
        assert failed.attempts == 2  # initial + one retry, both raised
        assert ok.ok

    def test_transient_raise_absorbed_by_retry(self, gcc, small_seeds, registry):
        campaign = _campaign(gcc, small_seeds, registry, steps=5)
        serial = campaign.run(("uCFuzz.s",), parallelism=1)
        outcomes = campaign.run_fabric(
            ("uCFuzz.s",), fleet_size=1, cell_retries=1,
            faults={"uCFuzz.s": CellFault(kind="raise", attempts=(0,))},
            **_FAST,
        )
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert _same_result(serial[0], outcomes[0].result)

    def test_hung_cell_reaped_by_wall_clock_budget(
        self, gcc, small_seeds, registry
    ):
        campaign = _campaign(gcc, small_seeds, registry, steps=5)
        outcomes = campaign.run_fabric(
            ("uCFuzz.s", "Csmith"), fleet_size=2,
            cell_timeout=1.0, poison_threshold=2,
            faults={"uCFuzz.s": CellFault(kind="hang", attempts=None)},
            **_FAST,
        )
        hung, ok = outcomes
        # The hang burns workers (heartbeats keep arriving; only the cell
        # budget catches it) until the poison breaker quarantines the cell.
        assert hung.failed and hung.error_type == "poison"
        assert ok.ok

    def test_resume_serves_poison_verdict_from_journal(
        self, gcc, small_seeds, registry, tmp_path
    ):
        campaign = _campaign(gcc, small_seeds, registry, steps=5)
        kwargs = dict(
            fleet_size=2, poison_threshold=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            faults={"uCFuzz.s": CellFault(kind="exit", attempts=None)},
            **_FAST,
        )
        first = campaign.run_fabric(("uCFuzz.s", "Csmith"), **kwargs)
        assert first[0].error_type == "poison" and first[1].ok
        resumed = campaign.run_fabric(("uCFuzz.s", "Csmith"), **kwargs)
        assert all(o.from_checkpoint for o in resumed)
        assert resumed[0].error_type == "poison"
        assert _same_result(first[1].result, resumed[1].result)
        # The journal's kills are what the verdict is derived from.
        journal = FabricJournal(CheckpointStore(tmp_path / "ckpt"))
        key = cell_key(campaign.cell_specs(("uCFuzz.s",))[0])
        assert len(journal.kills_for(key)) == 2
        assert journal.is_poison(key, 2)

    def test_journalled_kill_counts_toward_poison(
        self, gcc, small_seeds, registry, tmp_path
    ):
        # A kill a previous run journalled counts toward this run's
        # threshold: one new death quarantines the cell.
        campaign = _campaign(
            gcc, small_seeds, registry, steps=5,
            telemetry_dir=str(tmp_path / "ev"),
        )
        key = cell_key(campaign.cell_specs(("uCFuzz.s",))[0])
        store = CheckpointStore(tmp_path / "ckpt")
        store.save(JOURNAL_KEY, {"runs": 1, "kills": {key: ["run1:w3"]}})
        outcomes = campaign.run_fabric(
            ("uCFuzz.s",), fleet_size=1, poison_threshold=2,
            checkpoint_dir=str(tmp_path / "ckpt"), faults=_EXIT_ALWAYS,
            **_FAST,
        )
        assert outcomes[0].error_type == "poison"
        assert not outcomes[0].from_checkpoint
        assert len(_grants(_grid_events(tmp_path / "ev"))) == 1
        assert FabricJournal(store).kills_for(key) == ["run1:w3", "run2:w0"]

    def test_resume_derives_poison_from_journalled_kills(
        self, gcc, small_seeds, registry, tmp_path
    ):
        # A supervisor killed after journalling the threshold-reaching
        # kill, before it checkpointed the poison outcome, leaves kills and
        # no checkpoint: the next run poison-skips the cell, granting it to
        # no worker.
        campaign = _campaign(
            gcc, small_seeds, registry, steps=5,
            telemetry_dir=str(tmp_path / "ev"),
        )
        key = cell_key(campaign.cell_specs(("uCFuzz.s",))[0])
        CheckpointStore(tmp_path / "ckpt").save(
            JOURNAL_KEY, {"runs": 1, "kills": {key: ["run1:w0", "run1:w1"]}}
        )
        outcomes = campaign.run_fabric(
            ("uCFuzz.s",), fleet_size=1, poison_threshold=2,
            checkpoint_dir=str(tmp_path / "ckpt"), faults=_EXIT_ALWAYS,
            **_FAST,
        )
        assert outcomes[0].error_type == "poison"
        assert outcomes[0].from_checkpoint
        events = _grid_events(tmp_path / "ev")
        assert _grants(events) == []
        assert [e["fields"]["status"] for e in events if e["kind"] == "cell"] == [
            "poison-skip"
        ]

    def test_no_worker_drain_keeps_the_retry_contract(
        self, gcc, small_seeds, registry, monkeypatch
    ):
        # No worker can be spawned: every cell takes a lease in the
        # supervisor's process and reports through the queue.
        monkeypatch.setattr(Supervisor, "_spawn_worker", lambda self: False)
        campaign = _campaign(gcc, small_seeds, registry, steps=5)
        serial = run_cells(campaign.cell_specs(self.NAMES))
        outcomes = campaign.run_fabric(
            self.NAMES, fleet_size=2, cell_retries=1,
            faults={
                "uCFuzz.s": CellFault(kind="raise", attempts=(0,)),
                "Csmith": CellFault(kind="exit", attempts=None),
            },
            **_FAST,
        )
        retried, unsafe, clean = outcomes
        assert retried.ok and retried.attempts == 2
        # Firing the exit in-process would end this process: refused.
        assert unsafe.error_type == "no-workers" and unsafe.result is None
        assert clean.ok and clean.attempts == 1
        assert _same_result(serial[0], retried.result)
        assert _same_result(serial[2], clean.result)

    def test_unpicklable_registry_falls_back_in_process(
        self, gcc, small_seeds
    ):
        from repro.muast.mutator import Mutator
        from repro.muast.registry import MutatorRegistry, register_mutator

        local_registry = MutatorRegistry()

        @register_mutator(
            "LocalNoop",
            "This mutator does nothing.",
            category="Statement",
            origin="supervised",
            registry=local_registry,
        )
        class LocalNoop(Mutator):
            def mutate(self) -> bool:
                return False

        campaign = Campaign(
            compilers=[gcc], seeds=small_seeds[:4],
            registry=local_registry, steps=4,
        )
        outcomes = campaign.run_fabric(
            ("uCFuzz.s", "Csmith"), fleet_size=2, **_FAST
        )
        assert all(o.ok for o in outcomes)

    def test_fabric_telemetry_validates_and_narrates(
        self, gcc, small_seeds, registry, tmp_path
    ):
        campaign = _campaign(
            gcc, small_seeds, registry, steps=5,
            telemetry_dir=str(tmp_path / "ev"),
        )
        outcomes = campaign.run_fabric(
            ("uCFuzz.s", "Csmith"), fleet_size=2, poison_threshold=2,
            faults={"uCFuzz.s": CellFault(kind="exit", attempts=None)},
            **_FAST,
        )
        assert [o.ok for o in outcomes] == [False, True]
        assert validate_jsonl(tmp_path / "ev" / "grid.jsonl") > 0
        events = _grid_events(tmp_path / "ev")
        fabric = [e for e in events if e["kind"] == "fabric"]
        statuses = {
            e["fields"].get("status") for e in fabric if e["name"] == "lease"
        }
        assert {"grant", "reclaim"} <= statuses, statuses
        # Heartbeat renewals are not streamed.
        assert "renew" not in statuses
        assert sum(1 for e in fabric if e["name"] == "poison") == 1
        cell_rows = [e for e in events if e["kind"] == "cell"]
        assert {r["fields"]["status"] for r in cell_rows} == {"ok", "failed"}


# ---------------------------------------------------------------------------
# run_cells_fabric accepts raw specs (no Campaign required)


def test_run_cells_fabric_direct(gcc, small_seeds, registry):
    campaign = _campaign(gcc, small_seeds, registry, steps=4)
    specs = campaign.cell_specs(("Csmith",))
    outcomes = run_cells_fabric(specs, fleet_size=1, **_FAST)
    assert outcomes[0].ok and outcomes[0].spec is specs[0]
