"""The resilience layer: deterministic retry/backoff, per-cell fault
isolation, checkpoint/resume, and mutator quarantine."""

from __future__ import annotations

import json
import random

import pytest

from repro.fuzzing.campaign import Campaign, CampaignResult
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fabric import JOURNAL_KEY
from repro.fuzzing.parallel import (
    CellOutcome,
    CellSpec,
    cell_key,
    run_cell,
    run_cells,
)
from repro.llm.client import APIError, LLMClient
from repro.llm.faults import Fault, FaultKind
from repro.llm.model import Implementation, Invention, SimulatedLLM
from repro.metamut.pipeline import MetaMut
from repro.metamut.validation import validate_implementation
from repro.muast.mutator import Mutator, MutatorCrash
from repro.muast.registry import MutatorInfo, MutatorRegistry, register_mutator
from repro.resilience import (
    CellFault,
    CheckpointStore,
    InjectedCellFault,
    MutatorQuarantine,
    RetryPolicy,
    run_with_retry,
)

# ---------------------------------------------------------------------------
# Retry policy determinism


def test_backoff_schedule_deterministic():
    policy = RetryPolicy(budget=4)
    a = policy.schedule(random.Random(7))
    b = policy.schedule(random.Random(7))
    assert a == b
    assert a != policy.schedule(random.Random(8))


def test_backoff_schedule_shape():
    policy = RetryPolicy(
        budget=6, base_backoff=2.0, multiplier=2.0, max_backoff=10.0, jitter=0.25
    )
    schedule = policy.schedule(random.Random(0))
    assert len(schedule) == 6
    for i, pause in enumerate(schedule):
        nominal = min(2.0 * 2.0**i, 10.0)
        assert nominal * 0.75 <= pause <= nominal * 1.25
    # Without jitter the schedule is the pure exponential, capped.
    flat = RetryPolicy(budget=4, max_backoff=10.0, jitter=0.0)
    assert flat.schedule(random.Random(0)) == [2.0, 4.0, 8.0, 10.0]


def test_run_with_retry_no_policy_is_single_shot():
    rng = random.Random(1)
    before = rng.getstate()
    with pytest.raises(ValueError):
        run_with_retry(None, rng, lambda: (_ for _ in ()).throw(ValueError()))
    # policy=None consumes no RNG: historical random streams stay intact.
    assert rng.getstate() == before
    value, retries, backoff = run_with_retry(None, rng, lambda: 42)
    assert (value, retries, backoff) == (42, 0, 0.0)


def test_run_with_retry_recovers_and_exhausts():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise APIError("throttled")
        return "ok"

    value, retries, backoff = run_with_retry(
        RetryPolicy(budget=3), random.Random(5), flaky, retryable=(APIError,)
    )
    assert value == "ok" and retries == 2 and backoff > 0
    # Budget exhausted: the last error propagates after budget retries.
    calls["n"] = -100
    with pytest.raises(APIError):
        run_with_retry(
            RetryPolicy(budget=2),
            random.Random(5),
            lambda: (_ for _ in ()).throw(APIError("always")),
            retryable=(APIError,),
        )


def test_llm_client_retry_deterministic():
    def transcript(seed: int) -> list:
        client = LLMClient(failure_rate=0.3, retry_policy=RetryPolicy(budget=3))
        rng = random.Random(seed)
        out = []
        for _ in range(20):
            try:
                usage = client._request(rng, 100)
                out.append(
                    (usage.tokens, usage.wait_seconds, usage.retries, usage.backoff_seconds)
                )
            except APIError:
                out.append("error")
        out.append((client.requests, client.retries, client.backoff_seconds))
        return out

    a, b = transcript(99), transcript(99)
    assert a == b
    assert any(isinstance(u, tuple) and u[2] > 0 for u in a[:-1])
    assert a != transcript(100)


def test_chat_usage_total_seconds_includes_backoff():
    client = LLMClient(failure_rate=1.0, retry_policy=RetryPolicy(budget=5))
    # Every attempt fails: the budget is spent, then APIError escapes.
    with pytest.raises(APIError):
        client._request(random.Random(0), 10)
    assert client.retries == 5
    assert client.backoff_seconds > 0


# ---------------------------------------------------------------------------
# Pipeline-level retry: Tables 2-3 stay honest, completion rate recovers


def test_pipeline_completion_rate_with_retry_budget():
    metamut = MetaMut(
        client=LLMClient(
            SimulatedLLM(),
            failure_rate=0.20,
            retry_policy=RetryPolicy(budget=3),
        )
    )
    campaign = metamut.run_unsupervised(100)
    # At a 20% per-request throttle rate an unprotected invocation (~6
    # requests) dies ~74% of the time; budget-3 retries push per-request
    # failure to 0.2^4 = 0.16%, so ≥95 of 100 invocations must complete.
    assert campaign.completion_rate >= 0.95
    assert campaign.total_retries > 0
    assert campaign.total_backoff_seconds > 0
    stats = campaign.ledger.retry_stats()
    assert stats["retries"] > 0
    assert stats["backoff_seconds"] > 0
    assert stats["retried_mutators"] > 0
    # Backoff is kept out of the Table 3 wait distribution (purity) but the
    # per-mutator backoff ledger carries it.
    retried = [r for r in campaign.valid if r.cost.retries]
    assert retried, "expected at least one valid mutator with retries"
    assert all(r.cost.total_backoff_seconds > 0 for r in retried)


def test_pipeline_default_stream_unchanged():
    # No retry policy: the historical RNG stream and ~24% invocation failure
    # rate are untouched (the seed suite asserts the 10-40 band; here we pin
    # that retries are exactly zero).
    campaign = MetaMut().run_unsupervised(40)
    assert campaign.total_retries == 0
    assert campaign.total_backoff_seconds == 0.0


# ---------------------------------------------------------------------------
# Validation fault census (satellite: exception type recorded)


def _implementation_with(kind: FaultKind) -> Implementation:
    from repro.muast.registry import global_registry

    invention = Invention("TestMutator", "desc", "Swap", "Stmt")
    return Implementation(invention, global_registry.supervised()[0], [Fault(kind)])


def test_validation_records_fault_type():
    program = "int main() { int a = 1; return a; }"
    crash = validate_implementation(
        _implementation_with(FaultKind.CRASH), [program], random.Random(3)
    )
    assert crash.goal == 3
    assert crash.fault_type == "MutatorCrash"
    hang = validate_implementation(
        _implementation_with(FaultKind.HANG), [program], random.Random(3)
    )
    assert hang.goal == 2
    assert hang.fault_type == "MutatorHang"


# ---------------------------------------------------------------------------
# Mutator quarantine (circuit breaker)


class _AlwaysCrash(Mutator):
    def mutate(self) -> bool:
        raise MutatorCrash("synthetic crash")


_CRASH_INFO = MutatorInfo(
    name="AlwaysCrash",
    description="This mutator always crashes.",
    cls=_AlwaysCrash,
    category="Statement",
    origin="unsupervised",
)


def test_quarantine_trips_after_consecutive_failures():
    quarantine = MutatorQuarantine(threshold=3)
    assert not quarantine.record_failure("m", "MutatorCrash")
    quarantine.record_success("m")  # resets the consecutive count
    assert not quarantine.record_failure("m", "MutatorCrash")
    assert not quarantine.record_failure("m", "MutatorCrash")
    assert quarantine.record_failure("m", "MutatorCrash")  # tripped
    assert not quarantine.allows("m")
    assert quarantine.allows("other")
    assert not quarantine.record_failure("m")  # already quarantined
    stats = quarantine.stats()
    assert stats["quarantined_mutators"] == ["m"]
    assert stats["quarantine_events"] == 1


def test_fuzzer_quarantines_crashing_mutator(gcc, small_seeds):
    quarantine = MutatorQuarantine(threshold=2)
    fuzzer = MuCFuzz(
        gcc,
        random.Random(11),
        small_seeds,
        [_CRASH_INFO],
        name="uCFuzz.q",
        quarantine=quarantine,
    )
    tripped_step = None
    for i in range(4):
        step = fuzzer.step()
        if step.stats.get("quarantined"):
            tripped_step = i
    assert tripped_step is not None
    assert not quarantine.allows("AlwaysCrash")
    snap = fuzzer.stats_snapshot()
    assert snap["quarantined_mutators"] == ["AlwaysCrash"]
    assert snap["mutator_failures"] == 2  # no failures after the trip
    assert snap["quarantine_skips"] >= 1


def test_quarantine_off_by_default(gcc, small_seeds, registry):
    fuzzer = MuCFuzz(gcc, random.Random(11), small_seeds, registry.supervised())
    snap = fuzzer.stats_snapshot()
    assert "quarantined_mutators" not in snap
    step = fuzzer.step()
    assert "quarantined" not in (step.stats or {})


# ---------------------------------------------------------------------------
# Per-cell fault isolation, retry, and checkpoint/resume


def _campaign(gcc, small_seeds, registry, steps=30) -> Campaign:
    return Campaign(
        compilers=[gcc], seeds=small_seeds[:8], registry=registry, steps=steps
    )


def _same_result(a: CampaignResult, b: CampaignResult) -> bool:
    return (
        a.fuzzer == b.fuzzer
        and a.coverage_trend == b.coverage_trend
        and a.crashes.signatures() == b.crashes.signatures()
        and a.compiled == b.compiled
        and a.total == b.total
    )


_FAST = dict(heartbeat_interval=0.05, heartbeat_timeout=1.5)


def test_injected_crash_recovered_by_retry_matches_serial(
    gcc, small_seeds, registry
):
    campaign = _campaign(gcc, small_seeds, registry)
    names = ("uCFuzz.s", "Csmith", "YARPGen")
    clean = campaign.run(names, parallelism=1)
    outcomes = campaign.run_fabric(
        names,
        fleet_size=2,
        cell_retries=1,
        faults={"uCFuzz.s": CellFault(kind="exit", attempts=(0,))},
        **_FAST,
    )
    assert all(o.ok for o in outcomes)
    by_name = {o.spec.fuzzer_name: o for o in outcomes}
    assert by_name["uCFuzz.s"].attempts == 2  # its worker died, re-dispatched
    assert by_name["Csmith"].attempts == 1
    for expect, got in zip(clean, outcomes):
        assert got.result is not None
        assert _same_result(expect, got.result)


def test_checkpoint_resume_reruns_only_unfinished(
    gcc, small_seeds, registry, tmp_path
):
    campaign = _campaign(gcc, small_seeds, registry, steps=15)
    names = ("uCFuzz.s", "uCFuzz.u", "AFL++", "Csmith")
    clean = campaign.run(names, parallelism=1)
    ckpt = tmp_path / "checkpoints"
    # First run: one cell permanently broken — as if the campaign was killed
    # while that cell kept failing.
    first = campaign.run_fabric(
        names,
        fleet_size=2,
        cell_retries=0,
        checkpoint_dir=ckpt,
        faults={"AFL++": CellFault(kind="raise", attempts=None)},
        **_FAST,
    )
    assert sum(o.ok for o in first) == 3
    store = CheckpointStore(ckpt)
    # The failure is persisted too (ok: false), next to the fabric journal.
    assert sorted(store.keys()) == sorted(
        [JOURNAL_KEY] + [cell_key(o.spec) for o in first]
    )
    # Resume without the fault: only the failed cell reruns.
    resumed = campaign.run_fabric(
        names, fleet_size=2, checkpoint_dir=ckpt, **_FAST
    )
    assert all(o.ok for o in resumed)
    by_name = {o.spec.fuzzer_name: o for o in resumed}
    assert not by_name["AFL++"].from_checkpoint
    for name in ("uCFuzz.s", "uCFuzz.u", "Csmith"):
        assert by_name[name].from_checkpoint
    # The resumed campaign's final results equal the clean serial run.
    for expect, got in zip(clean, resumed):
        assert got.result is not None
        assert _same_result(expect, got.result)


def test_parallel_run_names_every_failed_cell(gcc, small_seeds, registry):
    campaign = _campaign(gcc, small_seeds, registry, steps=3)
    with pytest.raises(RuntimeError) as excinfo:
        campaign.run(("Csmith", "NoSuchFuzzer"), parallelism=2)
    message = str(excinfo.value)
    assert "1 of 2 campaign cells failed" in message
    assert "NoSuchFuzzer on gcc" in message
    assert "unknown fuzzer" in message
    assert "Csmith" not in message


def test_checkpoint_store_roundtrip_and_corruption(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("a/b c", {"ok": True, "n": 1})
    assert store.load("a/b c") == {"ok": True, "n": 1}
    assert "a/b c" in store
    # A truncated/corrupt file is treated as absent, not an error.
    store.path_for("bad").write_text('{"ok": tru')
    assert store.load("bad") is None
    assert store.load("missing") is None


def test_checkpoint_store_sanitization_collision_reads_absent(tmp_path):
    # "a/b" and "a_b" sanitize to the same stem; the second save wins the
    # file, but the first key must read as *absent*, never as the other
    # key's payload.
    store = CheckpointStore(tmp_path)
    store.save("a/b", {"who": "slash"})
    store.save("a_b", {"who": "underscore"})
    assert store.path_for("a/b") == store.path_for("a_b")
    assert store.load("a_b") == {"who": "underscore"}
    assert store.load("a/b") is None  # not {"who": "underscore"}!
    # Saving again flips the file back; now the other key reads absent.
    store.save("a/b", {"who": "slash"})
    assert store.load("a/b") == {"who": "slash"}
    assert store.load("a_b") is None


def test_checkpoint_store_accepts_legacy_payload_without_key(tmp_path):
    store = CheckpointStore(tmp_path)
    # A pre-collision-guard checkpoint has no embedded key: still served.
    store.path_for("old").write_text('{"ok": true}\n')
    assert store.load("old") == {"ok": True}


def test_checkpoint_store_sweeps_orphaned_tmp_files(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("kept", {"ok": True})
    # A kill between write_text and os.replace leaves a .json.tmp orphan.
    orphan = tmp_path / "dead.json.tmp"
    orphan.write_text('{"ok": tru')
    reopened = CheckpointStore(tmp_path)
    assert not orphan.exists()
    assert reopened.load("kept") == {"ok": True}


def test_checkpoint_save_does_not_mutate_caller_payload(tmp_path):
    store = CheckpointStore(tmp_path)
    payload = {"ok": True}
    store.save("k", payload)
    assert payload == {"ok": True}  # no reserved-field leakage


def test_cell_key_ignores_fault_and_attempt(gcc, small_seeds, registry):
    campaign = _campaign(gcc, small_seeds, registry)
    spec = campaign.cell_specs(("uCFuzz.s",))[0]
    import dataclasses

    faulted = dataclasses.replace(
        spec, fault=CellFault(kind="raise"), attempt=2
    )
    assert cell_key(spec) == cell_key(faulted)
    other = campaign.cell_specs(("Csmith",))[0]
    assert cell_key(spec) != cell_key(other)


def test_cell_key_is_pinned():
    # Checkpoint dirs and fabric journals written by earlier versions must
    # still resume: the key of a fixed spec never moves.  The seeds
    # exercise repr's quoting and escaping.
    import dataclasses

    spec = CellSpec(
        fuzzer_name="uCFuzz.s",
        personality="gcc",
        version="13.2",
        bug_seed=99,
        seeds=(
            "int main() { return 0; }",
            'char *s = "a\\n\'b";',
            "/* μ */ int x;",
        ),
        steps=5,
        cell_seed=1234,
    )
    assert cell_key(spec) == "uCFuzz.s-gcc-c1f1ae8750b1d751"
    every_field = dataclasses.replace(
        spec, fuzzer_name="Csmith", virtual_hours=1.5, sample_points=6,
        quarantine_threshold=3, cache_maxsize=64, incremental=False,
        paranoid=True, reference=True, batch_compile=True,
        schedule=True, mutator_stats=False,
    )
    # Every field that can be set: the key the spec had before the
    # compile-session switch was retired (its slot hashes as False).
    assert cell_key(every_field) == "Csmith-gcc-f1da24ab41709737"


# ---------------------------------------------------------------------------
# Hung-worker reaping: SIGTERM deserters must not leak past the grid


def _ignore_sigterm_and_sleep():  # pragma: no cover - subprocess body
    import signal
    import time

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(3600)


def test_ensure_dead_escalates_to_sigkill():
    import multiprocessing as mp

    from repro.fabric.supervisor import ensure_dead

    proc = mp.get_context().Process(
        target=_ignore_sigterm_and_sleep, daemon=True
    )
    proc.start()
    try:
        # Give the child a moment to install its SIG_IGN handler.
        import time

        time.sleep(0.3)
        ensure_dead(proc, grace=0.5)
        assert not proc.is_alive()  # terminate() alone would leak it
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join(5)


def test_ensure_dead_on_finished_process_is_noop():
    import multiprocessing as mp

    from repro.fabric.supervisor import ensure_dead

    proc = mp.get_context().Process(target=int, daemon=True)
    proc.start()
    proc.join(10)
    ensure_dead(proc)
    assert not proc.is_alive()


# ---------------------------------------------------------------------------
# The serial loop: cell errors propagate; unpicklable specs stay in-process


def test_run_cells_propagates_cell_errors(gcc, small_seeds, registry):
    campaign = _campaign(gcc, small_seeds, registry, steps=5)
    specs = campaign.cell_specs(
        ("uCFuzz.s",), faults={"uCFuzz.s": CellFault(kind="raise")}
    )
    with pytest.raises(InjectedCellFault):
        run_cells(specs)


def test_run_cells_serial_fallback_on_unpicklable_registry(gcc, small_seeds):
    # A registry holding a locally-defined mutator class cannot cross a
    # process boundary; the fabric must run such cells in-process (the
    # identical result) instead of crashing — and still actually run them.
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
        compilers=[gcc],
        seeds=small_seeds[:4],
        registry=local_registry,
        steps=5,
    )
    results = campaign.run(("uCFuzz.s", "Csmith"), parallelism=2)
    assert len(results) == 2
    assert all(isinstance(r, CampaignResult) for r in results)


# ---------------------------------------------------------------------------
# Checkpoint serialization fidelity


def test_campaign_result_json_roundtrip(gcc, small_seeds, registry):
    campaign = _campaign(gcc, small_seeds, registry, steps=40)
    [result] = campaign.run(("uCFuzz.u",), parallelism=1)
    payload = json.loads(json.dumps(result.to_json()))  # must be pure JSON
    restored = CampaignResult.from_json(payload)
    assert _same_result(result, restored)
    assert restored.stats == result.stats
    assert restored.throughput_total == result.throughput_total
    assert restored.crashes.timeline() == result.crashes.timeline()


def test_cell_outcome_json_shape(gcc, small_seeds, registry):
    campaign = _campaign(gcc, small_seeds, registry, steps=5)
    spec = campaign.cell_specs(("Csmith",))[0]
    outcome = CellOutcome(spec=spec, ok=True, result=run_cell(spec))
    payload = json.loads(json.dumps(outcome.to_json()))
    assert payload["ok"] is True
    assert payload["fuzzer"] == "Csmith"
    assert "result" in payload
