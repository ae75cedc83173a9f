"""The telemetry layer: counters, spans, sinks, events, reports, and the
determinism contract (telemetry on == telemetry off, serial == parallel),
plus the crash-bookkeeping and throughput-reporting fixes that rode along.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.compiler.crash import CompilerCrash, CompilerHang, StackFrame
from repro.compiler.driver import CompileResult, Compiler, GCC_SIM, default_compilers
from repro.fuzzing.campaign import Campaign, make_fuzzer, run_campaign
from repro.fuzzing.crash import CANONICAL_MODULES, CrashLog
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.parallel import cell_key
from repro.fuzzing.throughput import _time_run
from repro.llm.client import APIError, LLMClient
from repro.telemetry import (
    JSONLSink,
    StepClock,
    TelemetrySession,
    Tracer,
    merge_stats,
    span,
    validate_event,
    validate_jsonl,
)
from repro.telemetry.events import EventSchemaError
from repro.telemetry.report import load_results, main as report_main, render_report


# ---------------------------------------------------------------------------
# Session counters and the stats merge


def _fuzzer(registry, small_seeds, seed=7) -> MuCFuzz:
    return MuCFuzz(
        Compiler(*GCC_SIM), random.Random(seed), small_seeds[:6],
        registry.supervised(), name="uCFuzz.s",
    )


class TestMetrics:
    def test_counters_are_a_plain_dict_view(self, registry, small_seeds):
        fuzzer = _fuzzer(registry, small_seeds)
        assert fuzzer.stats is fuzzer.telemetry.counters
        fuzzer.step()
        session = TelemetrySession()
        fuzzer.adopt_telemetry(session)
        # Adopting a session carries the counters over and keeps the view.
        assert fuzzer.stats is session.counters
        assert session.counters["steps"] == 1
        fuzzer.step()
        assert session.counters["steps"] == 2

    def test_wall_never_in_snapshot(self, registry, small_seeds):
        fuzzer = _fuzzer(registry, small_seeds)
        with fuzzer.telemetry.span("probe"):
            pass
        assert set(fuzzer.telemetry.wall) == {"probe"}
        assert "probe" not in fuzzer.stats_snapshot()
        assert set(fuzzer.profile_snapshot()["spans"]) == {"probe"}

    def test_merge_stats_recomputes_derived_rates(self):
        cells = [
            {"cache_hits": 8, "cache_misses": 2, "cache_hit_rate": 0.8,
             "attempts": 30, "steps": 10, "attempts_per_step": 3.0},
            {"cache_hits": 0, "cache_misses": 10, "cache_hit_rate": 0.0,
             "attempts": 10, "steps": 10, "attempts_per_step": 1.0},
        ]
        merged = merge_stats(cells)
        assert merged["cache_hits"] == 8
        assert merged["cache_misses"] == 12
        # 8/(8+12), not 0.8 + 0.0.
        assert merged["cache_hit_rate"] == pytest.approx(0.4)
        assert merged["attempts_per_step"] == pytest.approx(2.0)
        assert merge_stats(cells) == merge_stats(reversed(cells))

    def test_merge_stats_counts_list_events(self):
        # Event lists fold into value -> count dicts: the same mutator
        # quarantined in two cells counts twice instead of collapsing
        # into a set, and fold order still cannot change the result.
        cells = [
            {"quarantined_mutators": ["b", "a"]},
            {"quarantined_mutators": ["a", "c"]},
        ]
        merged = merge_stats(cells)
        assert merged["quarantined_mutators"] == {"a": 2, "b": 1, "c": 1}
        assert merge_stats(cells) == merge_stats(reversed(cells))

    def test_merge_stats_remerges_merged_summaries(self):
        # A summary of summaries sums the counter dicts rather than
        # re-counting them as opaque values.
        first = merge_stats([{"quarantined_mutators": ["m"]}])
        second = merge_stats([{"quarantined_mutators": ["m", "n"]}])
        total = merge_stats([first, second])
        assert total["quarantined_mutators"] == {"m": 2, "n": 1}


# ---------------------------------------------------------------------------
# Spans and the step clock


class TestSpans:
    def test_none_tracer_is_a_noop(self):
        with span(None, "lex") as s:
            pass
        assert s.tracer is None

    def test_span_accumulates_wall(self):
        timings: dict = {}
        tracer = Tracer(timings=timings)
        with tracer.span("parse"):
            pass
        with tracer.span("parse"):
            pass
        assert set(timings) == {"parse"}
        assert timings["parse"] >= 0

    def test_span_emits_event_with_step_clock(self, tmp_path):
        sink = JSONLSink(tmp_path / "t.jsonl")
        tracer = Tracer(timings={}, sink=sink, clock=StepClock())
        with tracer.span("irgen", module="m"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("opt"):
                raise ValueError("boom")
        sink.close()
        rows = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert [r["seq"] for r in rows] == [1, 2]
        assert rows[0]["kind"] == "span" and rows[0]["name"] == "irgen"
        assert rows[0]["fields"] == {"module": "m"}
        assert rows[1]["fields"]["error"] == "ValueError"
        assert all("wall" in r for r in rows)

    def test_compiler_stage_spans_land_in_stage_timings(self, small_seeds):
        compiler = Compiler(*GCC_SIM)
        compiler.compile(small_seeds[0])
        assert set(compiler.stage_timings) >= {"lex", "parse", "sema"}

    def test_fuzzer_stats_snapshot_has_no_wall_keys(self, registry, small_seeds):
        compiler = Compiler(*GCC_SIM)
        fuzzer = MuCFuzz(
            compiler, random.Random(7), small_seeds[:6],
            registry.supervised(), name="uCFuzz.s",
        )
        for _ in range(3):
            fuzzer.step()
        # Steps may be served entirely by the incremental front end (which
        # skips lex/parse/sema by design); force one full front-end run so
        # the stage profile is populated deterministically.
        compiler.compile("int main(void) { return 42; }")
        snap = fuzzer.stats_snapshot()
        assert "stage_timings" not in snap
        assert not any(isinstance(v, dict) for v in snap.values())
        profile = fuzzer.profile_snapshot()
        assert profile["stage_timings"]
        assert set(profile["stage_timings"]) >= {"lex", "parse", "sema"}


# ---------------------------------------------------------------------------
# Sink, rotation, schema


class TestSinkAndSchema:
    def test_validate_event_rejects_garbage(self):
        validate_event({"v": 1, "seq": 0, "kind": "step", "name": "kept"})
        for bad in (
            {"v": 2, "seq": 0, "kind": "step", "name": "kept"},
            {"v": 1, "seq": -1, "kind": "step", "name": "kept"},
            {"v": 1, "seq": 0, "kind": "nope", "name": "kept"},
            {"v": 1, "seq": 0, "kind": "step", "name": ""},
            {"v": 1, "seq": 0, "kind": "step", "name": "kept", "extra": 1},
            {"v": 1, "seq": 0, "kind": "step", "name": "k", "wall": -1.0},
            {"v": 1, "seq": 0, "kind": "step", "name": "k",
             "fields": {"x": object()}},
        ):
            with pytest.raises(EventSchemaError):
                validate_event(bad)

    def test_rotation_keeps_live_stream_at_path(self, tmp_path):
        sink = JSONLSink(tmp_path / "e.jsonl", max_bytes=200, max_files=2)
        session = TelemetrySession(sink=sink)
        for i in range(50):
            session.emit("step", "kept", index=i)
        session.close()
        assert sink.rotations > 0
        files = sink.files()
        assert files[-1] == tmp_path / "e.jsonl"
        assert len(files) <= 3  # live + max_files rotated
        total = sum(validate_jsonl(p) for p in files)
        assert 0 < total <= 50  # oldest generations may have been dropped
        assert sink.events_written == 50

    def test_validate_jsonl_catches_seq_regression(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = [
            {"v": 1, "seq": 5, "kind": "step", "name": "kept"},
            {"v": 1, "seq": 4, "kind": "step", "name": "kept"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(EventSchemaError):
            validate_jsonl(path)

    def test_emit_noop_without_sink(self):
        session = TelemetrySession()
        session.emit("step", "kept", index=1)  # must not raise
        assert not session.enabled
        assert session.clock.peek() == 0  # no sink, no clock ticks


# ---------------------------------------------------------------------------
# The determinism contract: telemetry on == off, serial == parallel


def _campaign(compilers, seeds, registry, telemetry_dir=None, steps=15):
    return Campaign(
        compilers=compilers,
        seeds=seeds,
        registry=registry,
        steps=steps,
        telemetry_dir=telemetry_dir,
    )


#: A small, quick fleet for the fabric-backed grid tests.
_FABRIC = dict(fleet_size=2, heartbeat_interval=0.05, heartbeat_timeout=1.5)


def _cell_rows(grid) -> list[dict]:
    """The ``cell`` lifecycle rows of a grid log (fabric rows skipped)."""
    rows = [json.loads(line) for line in grid.read_text().splitlines()]
    return [r for r in rows if r["kind"] == "cell"]


class TestTelemetryParity:
    NAMES = ("uCFuzz.s", "AFL++")

    def test_sink_on_equals_sink_off(self, registry, small_seeds, tmp_path):
        seeds = small_seeds[:10]
        compilers = default_compilers()
        off = _campaign(compilers, seeds, registry).run(self.NAMES)
        on = _campaign(
            compilers, seeds, registry, telemetry_dir=str(tmp_path / "ev")
        ).run(self.NAMES)
        assert [r.to_json() for r in on] == [r.to_json() for r in off]
        files = sorted((tmp_path / "ev").glob("*.jsonl"))
        assert len(files) == len(off)
        assert all(validate_jsonl(p) > 0 for p in files)

    def test_parallel_with_telemetry_equals_serial_without(
        self, registry, small_seeds, tmp_path
    ):
        seeds = small_seeds[:10]
        compilers = default_compilers()
        off = _campaign(compilers, seeds, registry).run(self.NAMES)
        on = _campaign(
            compilers, seeds, registry, telemetry_dir=str(tmp_path / "ev")
        ).run(self.NAMES, parallelism=2)
        assert [r.to_json() for r in on] == [r.to_json() for r in off]
        # The fabric the parallel run drains through writes the grid log.
        grid = tmp_path / "ev" / "grid.jsonl"
        assert validate_jsonl(grid) > 0
        cells = _cell_rows(grid)
        assert [r["fields"]["status"] for r in cells] == ["ok"] * len(off)

    def test_run_campaign_with_explicit_session(self, registry, small_seeds, tmp_path):
        def result_for(session):
            compiler = Compiler(*GCC_SIM)
            fuzzer = make_fuzzer(
                "uCFuzz.s", compiler, small_seeds[:8], registry,
                random.Random(99), telemetry=session,
            )
            return run_campaign(fuzzer, steps=12)

        plain = result_for(None)
        sinked_session = TelemetrySession.to_jsonl(tmp_path / "run.jsonl")
        sinked = result_for(sinked_session)
        sinked_session.close()
        assert sinked.to_json() == plain.to_json()
        assert validate_jsonl(tmp_path / "run.jsonl") > 0

    def test_grid_jsonl_records_cell_lifecycle(self, registry, small_seeds, tmp_path):
        campaign = _campaign(
            default_compilers(), small_seeds[:8], registry,
            telemetry_dir=str(tmp_path / "ev"), steps=10,
        )
        ckpt = tmp_path / "ckpt"
        grid = tmp_path / "ev" / "grid.jsonl"
        first = campaign.run_fabric(
            self.NAMES, checkpoint_dir=str(ckpt), **_FABRIC
        )
        assert all(o.ok for o in first)
        rows = _cell_rows(grid)
        assert len(rows) == len(first)
        assert {r["fields"]["status"] for r in rows} == {"ok"}
        # Resume: every cell is served from its checkpoint and says so.
        second = campaign.run_fabric(
            self.NAMES, checkpoint_dir=str(ckpt), **_FABRIC
        )
        assert all(o.from_checkpoint for o in second)
        rows = _cell_rows(grid)
        assert len(rows) == len(second)
        assert {r["fields"]["status"] for r in rows} == {"checkpoint-skip"}

    def test_grid_jsonl_lifecycle_across_interrupt_and_resume(
        self, registry, small_seeds, tmp_path
    ):
        from repro.resilience import CellFault

        campaign = _campaign(
            default_compilers(), small_seeds[:8], registry,
            telemetry_dir=str(tmp_path / "ev"), steps=10,
        )
        ckpt = tmp_path / "ckpt"

        def grid_rows():
            path = tmp_path / "ev" / "grid.jsonl"
            assert validate_jsonl(path) > 0
            return {r["name"]: r["fields"]["status"] for r in _cell_rows(path)}

        # "Interrupted" run: one cell keeps failing, as if the campaign
        # was killed while it was retrying.
        first = campaign.run_fabric(
            self.NAMES, checkpoint_dir=str(ckpt), cell_retries=0,
            faults={"AFL++": CellFault(kind="raise", attempts=None)},
            **_FABRIC,
        )
        by_key = grid_rows()
        failed = [o for o in first if o.failed]
        assert failed  # the injected fault must have bitten
        for outcome in first:
            key = cell_key(outcome.spec)
            assert by_key[key] == ("ok" if outcome.ok else "failed")
        # Resume without the fault: finished cells announce the skip, the
        # previously-failed cells rerun and land as "ok".
        second = campaign.run_fabric(
            self.NAMES, checkpoint_dir=str(ckpt), **_FABRIC
        )
        by_key = grid_rows()
        for outcome in second:
            key = cell_key(outcome.spec)
            expected = "checkpoint-skip" if outcome.from_checkpoint else "ok"
            assert by_key[key] == expected
        assert sum(s == "ok" for s in by_key.values()) == len(failed)
        assert sum(s == "checkpoint-skip" for s in by_key.values()) == len(
            first
        ) - len(failed)
        assert all(o.ok for o in second)

    def test_fabric_grid_events_validate_against_schema_v1(
        self, registry, small_seeds, tmp_path
    ):
        from repro.resilience import CellFault

        campaign = _campaign(
            [Compiler(*GCC_SIM)], small_seeds[:6], registry,
            telemetry_dir=str(tmp_path / "ev"), steps=5,
        )
        outcomes = campaign.run_fabric(
            ("uCFuzz.s", "Csmith"), fleet_size=2,
            heartbeat_interval=0.05, heartbeat_timeout=1.5,
            poison_threshold=2,
            faults={"uCFuzz.s": CellFault(kind="exit", attempts=None)},
        )
        assert [o.ok for o in outcomes] == [False, True]
        grid = tmp_path / "ev" / "grid.jsonl"
        assert validate_jsonl(grid) > 0  # every fabric event is schema-v1
        rows = [json.loads(l) for l in grid.read_text().splitlines()]
        fabric_names = {r["name"] for r in rows if r["kind"] == "fabric"}
        assert {"grid", "worker", "lease", "poison"} <= fabric_names
        lease_statuses = {
            r["fields"]["status"]
            for r in rows
            if r["kind"] == "fabric" and r["name"] == "lease"
        }
        assert {"grant", "reclaim"} <= lease_statuses
        # Heartbeat renewals are counted in the journal, not streamed.
        assert "renew" not in lease_statuses


# ---------------------------------------------------------------------------
# The triage report


class TestTriageReport:
    @pytest.fixture()
    def checkpoint_dir(self, registry, small_seeds, tmp_path):
        campaign = _campaign(
            default_compilers(), small_seeds[:10], registry, steps=40
        )
        ckpt = tmp_path / "ckpt"
        outcomes = campaign.run_fabric(
            ("uCFuzz.s",), checkpoint_dir=str(ckpt), **_FABRIC
        )
        assert all(o.ok for o in outcomes)
        return ckpt

    def test_render_from_checkpointed_campaign(self, checkpoint_dir):
        results = load_results(checkpoint_dir)
        assert results
        text = render_report(results)
        assert "unique crashes by module" in text
        for module in CANONICAL_MODULES:
            assert module in text

    def test_cli_text_and_json(self, checkpoint_dir, tmp_path, capsys):
        assert report_main(["--checkpoint-dir", str(checkpoint_dir)]) == 0
        capsys.readouterr()  # drop the text rendering
        trig = tmp_path / "trig"
        assert report_main(
            ["--checkpoint-dir", str(checkpoint_dir), "--json",
             "--triggers-dir", str(trig)]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(CANONICAL_MODULES) <= set(data["census"])
        assert data["cells"]
        assert data["stats"]["steps"] == sum(c["steps"] for c in data["cells"])
        if data["crashes"]:
            assert trig.exists() and list(trig.iterdir())

    def test_cli_empty_checkpoint_dir_fails_cleanly(self, tmp_path):
        assert report_main(["--checkpoint-dir", str(tmp_path / "empty")]) == 1


# ---------------------------------------------------------------------------
# CrashLog bookkeeping fixes (the satellites)


def _crash_result(module: str, bug_id: str, func: str) -> CompileResult:
    result = CompileResult(False, "gcc-sim-14")
    result.crash = CompilerCrash(
        bug_id=bug_id, module=module, kind="assert", message="boom",
        frames=(StackFrame(func, 1), StackFrame("caller", 2),
                StackFrame("main", 3)),
    )
    return result


def _hang_result(bug_id: str) -> CompileResult:
    result = CompileResult(False, "gcc-sim-14")
    result.hang = CompilerHang(bug_id=bug_id, module="optimization",
                               message="no progress")
    return result


class TestCrashLogFixes:
    def test_by_module_accepts_non_canonical_modules(self):
        log = CrashLog()
        log.add(_crash_result("driver", "g-1", "f1"), 1.0)
        log.add(_crash_result("ir-gen", "g-2", "f2"), 2.0)
        census = log.by_module()  # must not raise KeyError
        assert census["driver"] == 1
        assert census["ir-gen"] == 1
        for module in CANONICAL_MODULES:
            assert module in census
        assert census["front-end"] == 0

    def test_json_roundtrip_with_hangs_and_odd_modules(self):
        log = CrashLog()
        log.add(_crash_result("plugin", "g-1", "f1"), 1.5, program="int x;")
        log.add(_hang_result("g-hang"), 2.5, program="while(1);")
        restored = CrashLog.from_json(
            json.loads(json.dumps(log.to_json()))
        )
        assert restored.signatures() == log.signatures()
        assert restored.first_seen == log.first_seen
        assert restored.triggers == log.triggers
        assert restored.by_module() == log.by_module()
        kinds = {rec.kind for rec in restored.records.values()}
        assert kinds == {"assert", "hang"}

    def test_timeline_collapses_ties(self):
        log = CrashLog()
        log.add(_crash_result("ir-gen", "g-1", "f1"), 3.0)
        log.add(_crash_result("ir-gen", "g-2", "f2"), 3.0)
        log.add(_crash_result("ir-gen", "g-3", "f3"), 7.0)
        assert log.timeline() == [(3.0, 2), (7.0, 3)]
        times = [t for t, _ in log.timeline()]
        assert len(times) == len(set(times))


# ---------------------------------------------------------------------------
# Throughput reporting fixes


class _InstantFuzzer:
    """Steps take no measurable time: elapsed can be exactly zero."""

    coverage = ()
    pool = ()

    def step(self):
        pass

    def stats_snapshot(self):
        return {"steps": 0}

    def profile_snapshot(self):
        return {"stage_timings": {}}


class TestThroughputFixes:
    def test_time_run_zero_elapsed_reports_none(self, monkeypatch):
        import repro.fuzzing.throughput as tp

        monkeypatch.setattr(tp.time, "perf_counter", lambda: 1.0)
        report = _time_run(_InstantFuzzer(), steps=3)
        assert report["seconds"] == 0.0
        assert report["steps_per_sec"] is None

    def test_time_run_reports_profile(self, registry, small_seeds):
        compiler = Compiler(*GCC_SIM)
        fuzzer = MuCFuzz(
            compiler, random.Random(3), small_seeds[:6],
            registry.supervised(), name="uCFuzz.s",
        )
        report = _time_run(fuzzer, steps=2)
        assert "stage_timings" in report["profile"]
        assert "stage_timings" not in report["stats"]


# ---------------------------------------------------------------------------
# LLM transport telemetry


class TestLLMTelemetry:
    def test_counters_and_histogram(self, tmp_path):
        # The client counts its own requests; the per-request token counts
        # a histogram would bucket are in the event stream.
        session = TelemetrySession.to_jsonl(tmp_path / "llm.jsonl")
        client = LLMClient(failure_rate=0.5, telemetry=session)
        rng = random.Random(0)
        tokens = []
        failures = 0
        for _ in range(40):
            try:
                _, usage = client.invent(rng, set(), "unsupervised")
                tokens.append(usage.tokens)
            except APIError:
                failures += 1
        session.close()
        events = [
            json.loads(line)
            for line in (tmp_path / "llm.jsonl").read_text().splitlines()
        ]
        llm = [e for e in events if e["kind"] == "llm"]
        assert client.requests == len(llm) == len(tokens) + failures
        assert client.failures == failures > 0
        assert [e["fields"]["tokens"] for e in llm if e["name"] == "ok"] == tokens

    def test_telemetry_does_not_perturb_request_stream(self, tmp_path):
        def usage_trace(telemetry):
            client = LLMClient(failure_rate=0.3, telemetry=telemetry)
            rng = random.Random(42)
            trace = []
            for _ in range(25):
                try:
                    _, usage = client.invent(rng, set(), "unsupervised")
                    trace.append((usage.tokens, round(usage.wait_seconds, 6)))
                except APIError:
                    trace.append("throttled")
            return trace

        session = TelemetrySession.to_jsonl(tmp_path / "llm.jsonl")
        with_sink = usage_trace(session)
        session.close()
        assert usage_trace(None) == with_sink
        assert validate_jsonl(tmp_path / "llm.jsonl") > 0
