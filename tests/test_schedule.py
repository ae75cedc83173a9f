"""Evolutionary mutator scheduling: the bandit, retirement, RNG-neutrality,
and the scheduler-off byte-identity contract."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.fuzzing.campaign import Campaign
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.schedule import (
    MUTATOR_STAT_KEYS,
    MutatorScheduler,
    zero_mutator_stats,
)
from repro.muast.mutator import Mutator, MutatorCrash
from repro.muast.registry import MutatorInfo
from repro.resilience import MutatorQuarantine
from repro.telemetry import merge_stats

# ---------------------------------------------------------------------------
# Scheduler-off byte-identity: the pre-scheduler seed state, pinned.
#
# Captured on the commit before the scheduler landed (uCFuzz.s × GCC sim,
# 40 generated seeds, 200 steps, default Campaign knobs).  The scheduler
# PR must leave this cell untouched: same coverage, same crashes, same
# stats — byte-for-byte on the canonical JSON form.  Re-pinned once when
# the flat-native pipeline became the default: the canonical JSON changed
# only in pipeline-diagnostic stats keys (the fused-round counter dropped,
# the bridge counters ``flat_encodes: 0`` and ``flat_decodes: 0`` added).
# Re-pinned once more when the compile session became the middle end's only
# reuse path: the canonical JSON (``indent=1``) changed only in middle-end
# stats keys, coverage 1266 and crashes 3 unchanged:
#
#     +  "decl_digest_memo_hits": 390,
#     -  "middle_incremental_fallbacks": 18,
#     -  "middle_incremental_hits": 248,
#     +  "middle_incremental_fallbacks": 6,
#     +  "middle_incremental_hits": 322,
#     +  "middle_session_aborts": 6,
#     +  "middle_session_evictions": 0,
#     +  "middle_session_hit_rate": 0.608659793814433,
#     +  "middle_session_hits": 1476,
#     +  "middle_session_materializations": 0,
#     +  "middle_session_misses": 949,
#     +  "middle_session_paranoid_checks": 0,
#     +  "middle_session_result_hits": 5,
#     +  "middle_session_size": 897,
#     +  "middle_session_summary_hits": 401,
#
# Re-pinned when the object<->buffer bridge and its counters were deleted
# (each pipeline keeps one IR): the canonical JSON changed only by the two
# removed counter lines, coverage 1266 and crashes 3 unchanged:
#
#     -  "flat_decodes": 0,
#     -  "flat_encodes": 0,
#
# Re-pinned when the fuzzers began releasing unkept mutants from the
# front-end cache and the compile session at the end of each step, and the
# session's whole-result memo was deleted: the canonical JSON changed only
# in cache and session counters and the removed memo counter, coverage 1266
# and crashes 3 unchanged:
#
#     -  "cache_hit_rate": 0.5931495405179615,
#     -  "cache_hits": 710,
#     -  "cache_incremental_fallbacks": 37,
#     -  "cache_incremental_hits": 416,
#     +  "cache_hit_rate": 0.5906432748538012,
#     +  "cache_hits": 707,
#     +  "cache_incremental_fallbacks": 38,
#     +  "cache_incremental_hits": 418,
#     -  "cache_misses": 487,
#     +  "cache_misses": 490,
#     -  "cache_size": 487,
#     +  "cache_size": 145,
#     -  "middle_incremental_hits": 322,
#     +  "middle_incremental_hits": 319,
#     -  "middle_session_hit_rate": 0.608659793814433,
#     -  "middle_session_hits": 1476,
#     +  "middle_session_hit_rate": 0.6037735849056604,
#     +  "middle_session_hits": 1472,
#     -  "middle_session_misses": 949,
#     +  "middle_session_misses": 966,
#     -  "middle_session_result_hits": 5,
#     -  "middle_session_size": 897,
#     -  "middle_session_summary_hits": 401,
#     +  "middle_session_size": 437,
#     +  "middle_session_summary_hits": 407,
#
# Re-pinned when each declaration node began carrying its own digests and
# coverage/feature summary, and the session's summary intern and the
# parent grafts were deleted: the canonical JSON lost exactly the two
# counter lines below, every other value (all ``cache_*`` and
# ``middle_session_*`` included) unchanged, coverage 1266 and crashes 3:
#
#     -  "decl_digest_memo_hits": 390,
#     -  "middle_session_summary_hits": 407,

_GOLDEN_SHA1 = "e1ea76bd3f625d7c7c79878248fbf2f2a9bd5339"
_GOLDEN_COVERAGE = 1266
_GOLDEN_CRASHES = 3


def _campaign(gcc, small_seeds, registry, **kwargs) -> Campaign:
    return Campaign(
        compilers=[gcc], seeds=small_seeds, registry=registry, **kwargs
    )


def test_scheduler_off_is_byte_identical_to_seed_state(
    gcc, small_seeds, registry
):
    campaign = _campaign(gcc, small_seeds, registry, steps=200)
    result = campaign.run(("uCFuzz.s",))[0]
    blob = json.dumps(result.to_json(), sort_keys=True)
    assert result.final_coverage == _GOLDEN_COVERAGE
    assert len(result.crashes) == _GOLDEN_CRASHES
    assert hashlib.sha1(blob.encode()).hexdigest() == _GOLDEN_SHA1
    # No scheduler, no quarantine: none of the new keys leak into stats.
    assert "mutator_stats" not in result.stats
    assert "retired_mutators" not in result.stats


def test_tracking_stats_never_changes_fuzzing_results(gcc, small_seeds, registry):
    """mutator_stats=True records yields but draws no RNG and keeps results."""

    def run(**kwargs):
        fuzzer = MuCFuzz(
            gcc,
            random.Random(77),
            small_seeds,
            registry.supervised(),
            name="uCFuzz.s",
            **kwargs,
        )
        for _ in range(25):
            fuzzer.step()
        return fuzzer

    plain = run()
    tracked = run(mutator_stats=True)
    assert len(plain.coverage) == len(tracked.coverage)
    assert [e.text for e in plain.pool.entries] == [
        e.text for e in tracked.pool.entries
    ]
    assert "mutator_stats" not in plain.stats
    table = tracked.stats["mutator_stats"]
    assert sum(rec["attempts"] for rec in table.values()) == tracked.stats[
        "attempts"
    ]


# ---------------------------------------------------------------------------
# The bandit itself


def _info(name: str) -> MutatorInfo:
    return MutatorInfo(
        name=name,
        description=f"{name} test arm",
        cls=Mutator,
        category="Statement",
        origin="unsupervised",
    )


def test_same_seed_schedules_identically():
    names = [f"m{i}" for i in range(12)]
    stats = zero_mutator_stats(names)
    stats["m3"].update(attempts=10, changed=9, compiled=8, coverage_gain=30)
    stats["m7"].update(attempts=10, changed=1)
    a = MutatorScheduler(42)
    b = MutatorScheduler(42)
    a.attach(stats, None)
    b.attach(stats, None)
    for _ in range(5):
        assert a.order(list(names)) == b.order(list(names))
    c = MutatorScheduler(43)
    d = MutatorScheduler(42)
    c.attach(stats, None)
    d.attach(stats, None)
    assert any(d.order(list(names)) != c.order(list(names)) for _ in range(5))


def test_fitness_proportional_ordering_prefers_high_yield_arms():
    names = [f"m{i}" for i in range(8)]
    stats = zero_mutator_stats(names)
    for name in names:
        stats[name].update(attempts=50, changed=25)
    stats["m2"].update(coverage_gain=400, compiled=50)  # the star arm
    scheduler = MutatorScheduler(7)
    scheduler.attach(stats, None)
    front = sum(
        scheduler.order(list(names)).index("m2") for _ in range(200)
    ) / 200
    # Uniform ordering would average position ~3.5; the star sits well ahead.
    assert front < 2.0


def test_untried_arms_keep_exploration_weight():
    scheduler = MutatorScheduler(3)
    assert scheduler.fitness(None) is None
    assert scheduler.weight(None) == scheduler.prior
    rec = dict.fromkeys(MUTATOR_STAT_KEYS, 0)
    rec["attempts"] = 100
    assert scheduler.weight(rec) >= scheduler.floor


def test_scheduler_seed_derivation_is_salted():
    # The scheduler's stream must be disjoint from random.Random(cell_seed).
    cell_seed = 2024
    scheduler = MutatorScheduler.from_cell_seed(cell_seed)
    assert scheduler.seed != cell_seed
    assert (
        MutatorScheduler.from_cell_seed(cell_seed).seed == scheduler.seed
    )


# ---------------------------------------------------------------------------
# RNG-neutrality: excluded arms draw no entropy


def test_retired_arms_draw_no_scheduler_entropy():
    names = ["a", "dead", "b", "c", "d"]
    live = [n for n in names if n != "dead"]
    stats = zero_mutator_stats(names)
    with_retired = MutatorScheduler(99, retire_after=None)
    with_retired.attach(stats, None)
    assert with_retired.retire("dead")
    live_only = MutatorScheduler(99, retire_after=None)
    live_only.attach(stats, None)
    for _ in range(10):
        assert with_retired.order(list(names)) == live_only.order(list(live))


def test_quarantined_arms_draw_no_scheduler_entropy():
    names = ["a", "q", "b", "c"]
    stats = zero_mutator_stats(names)
    quarantine = MutatorQuarantine(threshold=1)
    quarantine.record_failure("q", "MutatorCrash")
    assert not quarantine.allows("q")
    gated = MutatorScheduler(5)
    gated.attach(stats, quarantine)
    plain = MutatorScheduler(5)
    plain.attach(stats, None)
    for _ in range(10):
        assert gated.order(list(names)) == plain.order(["a", "b", "c"])


# ---------------------------------------------------------------------------
# Population management: retirement


def test_chronic_loser_is_retired():
    names = ["winner", "loser"]
    stats = zero_mutator_stats(names)
    stats["winner"].update(attempts=20, changed=18, compiled=15, coverage_gain=40)
    stats["loser"].update(attempts=20)  # never changed anything
    quarantine = MutatorQuarantine(threshold=3)
    scheduler = MutatorScheduler(11, retire_after=10)
    scheduler.attach(stats, quarantine)
    infos = {name: _info(name) for name in names}
    order = scheduler.order([infos["winner"], infos["loser"]])
    assert [i.name for i in order] == ["winner"]
    assert scheduler.retired == {"loser": "low-fitness"}
    assert not scheduler.retire("loser")  # idempotent
    # Retirement is the scheduler's verdict; the crash breaker keeps none.
    assert quarantine.allows("loser")
    assert not quarantine.events
    assert scheduler.stats() == {
        "retirements": 1,
        "retired_mutators": ["loser"],
    }
    assert "retirements" not in quarantine.stats()


def test_healthy_arms_are_never_retired():
    names = ["a", "b"]
    stats = zero_mutator_stats(names)
    stats["a"].update(attempts=500, changed=400, compiled=350, coverage_gain=100)
    stats["b"].update(attempts=3)  # not yet fully sampled
    scheduler = MutatorScheduler(1, retire_after=10)
    scheduler.attach(stats, None)
    for _ in range(20):
        scheduler.order(list(names))
    assert scheduler.retired == {}
    assert scheduler.stats() == {"retirements": 0, "retired_mutators": []}


def test_scheduler_requires_mutator_stats(gcc, small_seeds, registry):
    with pytest.raises(ValueError):
        MuCFuzz(
            gcc,
            random.Random(1),
            small_seeds,
            registry.supervised(),
            scheduler=MutatorScheduler(1),
            mutator_stats=False,
        )


# ---------------------------------------------------------------------------
# End-to-end: scheduled cells are deterministic and parity holds


def test_scheduled_runs_are_deterministic(gcc, small_seeds, registry):
    def run():
        fuzzer = MuCFuzz(
            gcc,
            random.Random(7),
            small_seeds,
            registry.supervised(),
            name="uCFuzz.s",
            scheduler=MutatorScheduler.from_cell_seed(7),
        )
        for _ in range(30):
            fuzzer.step()
        return fuzzer

    a, b = run(), run()
    assert len(a.coverage) == len(b.coverage)
    assert a.stats_snapshot() == b.stats_snapshot()
    assert [e.text for e in a.pool.entries] == [e.text for e in b.pool.entries]


def test_scheduled_serial_parallel_parity(gcc, small_seeds, registry):
    campaign = _campaign(
        gcc, small_seeds, registry, steps=10, schedule=True
    )
    serial = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=1)
    fanned = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in fanned]
    for result in serial:
        table = result.stats["mutator_stats"]
        assert all(set(rec) == set(MUTATOR_STAT_KEYS) for rec in table.values())


def test_scheduled_fabric_parity(gcc, small_seeds, registry):
    campaign = _campaign(
        gcc, small_seeds, registry, steps=8, schedule=True
    )
    serial = campaign.run(("uCFuzz.s",), parallelism=1)
    outcomes = campaign.run_fabric(
        ("uCFuzz.s",),
        fleet_size=2,
        heartbeat_interval=0.05,
        heartbeat_timeout=1.5,
    )
    assert [o.ok for o in outcomes] == [True]
    assert serial[0].to_json() == outcomes[0].result.to_json()


def test_cell_key_distinguishes_scheduled_cells(gcc, small_seeds, registry):
    from repro.fuzzing.parallel import cell_key

    uniform = _campaign(gcc, small_seeds, registry, steps=5)
    scheduled = _campaign(gcc, small_seeds, registry, steps=5, schedule=True)
    tracked = _campaign(
        gcc, small_seeds, registry, steps=5, mutator_stats=True
    )
    keys = {
        cell_key(campaign.cell_specs(("uCFuzz.s",))[0])
        for campaign in (uniform, scheduled, tracked)
    }
    assert len(keys) == 3  # checkpoints of different modes never collide


def test_scheduled_campaign_stats_have_uniform_mutator_schema(
    gcc, clang, small_seeds, registry
):
    campaign = Campaign(
        compilers=[gcc, clang],
        seeds=small_seeds,
        registry=registry,
        steps=6,
        schedule=True,
    )
    results = campaign.run(("uCFuzz.s",))
    expected = {m.name for m in registry.supervised()}
    snapshots = []
    for result in results:
        table = result.stats["mutator_stats"]
        assert set(table) == expected
        assert all(set(rec) == set(MUTATOR_STAT_KEYS) for rec in table.values())
        snapshots.append(result.stats)
    merged = merge_stats(snapshots)
    table = merged["mutator_stats"]
    assert set(table) == expected
    # Per-arm counters sum across cells; no derived-rate key leaks into
    # the nested records even though they carry an "attempts" key.
    for rec in table.values():
        assert set(rec) == set(MUTATOR_STAT_KEYS)
    assert sum(r["attempts"] for r in table.values()) == sum(
        sum(r["attempts"] for r in s["mutator_stats"].values())
        for s in snapshots
    )


# ---------------------------------------------------------------------------
# Satellite: quarantine_skips is zero-filled up front


def test_quarantine_skips_zero_filled(gcc, small_seeds, registry):
    fuzzer = MuCFuzz(
        gcc,
        random.Random(5),
        small_seeds,
        registry.supervised(),
        quarantine=MutatorQuarantine(threshold=3),
    )
    assert fuzzer.stats["quarantine_skips"] == 0  # before any step
    fuzzer.step()
    assert "quarantine_skips" in fuzzer.stats_snapshot()


# ---------------------------------------------------------------------------
# Satellite: no-op applications must not reset the breaker streak


class _CrashThenNoop(Mutator):
    """Alternates crash / clean-but-no-op across applications."""

    calls = 0

    def mutate(self) -> bool:
        cls = type(self)
        cls.calls += 1
        if cls.calls % 2 == 1:
            raise MutatorCrash("synthetic crash")
        return False  # applied cleanly, changed nothing


def test_noop_application_does_not_reset_quarantine_streak(gcc, small_seeds):
    _CrashThenNoop.calls = 0
    info = MutatorInfo(
        name="CrashThenNoop",
        description="Crashes on odd draws, no-ops on even draws.",
        cls=_CrashThenNoop,
        category="Statement",
        origin="unsupervised",
    )
    quarantine = MutatorQuarantine(threshold=2)
    fuzzer = MuCFuzz(
        gcc,
        random.Random(11),
        small_seeds,
        [info],
        name="uCFuzz.q",
        quarantine=quarantine,
    )
    # Pre-fix, the no-op application between two crashes reset the
    # consecutive-failure count and the breaker could never trip.
    for _ in range(6):
        fuzzer.step()
        if not quarantine.allows("CrashThenNoop"):
            break
    assert not quarantine.allows("CrashThenNoop")
    assert quarantine.stats()["quarantined_mutators"] == ["CrashThenNoop"]
