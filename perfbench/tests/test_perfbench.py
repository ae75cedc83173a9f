"""The benchmark's own checks.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import round as bench_round  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    END, NAME, OP, PARENT, START, Recorder, nesting_errors, self_times,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Ceiling on the op root's self time (``fuzzing.self``) as a share of op
#: wall.  The root's self time is whatever no wrapper claims, so the layer
#: self times add up to op wall by construction; a layer whose calls escape
#: the wrappers moves its time here instead.  Measured at 40 steps: 0.8% on
#: ucfuzz, 0.6% on macro, 2.2-2.5% on generators; with ``apply_mutator``
#: unwrapped, 5.6-6.4% on ucfuzz and 4.1-4.4% on macro.
FUZZING_SELF_CEILING = {"ucfuzz": 0.03, "macro": 0.02, "generators": 0.04}
#: Layers each in-process workload must reach within a few steps.
EXPECTED_SPANS = {
    "ucfuzz": {"op", "muast", "cast.front_end", "cast.incremental",
               "compiler.compile", "compiler.middle"},
    "macro": {"op", "muast", "cast.front_end", "compiler.compile",
              "compiler.middle"},
    "generators": {"op", "cast.analyze", "compiler.compile",
                   "compiler.middle"},
}


def smoke_args(name: str, trace: int) -> list[str]:
    return ["--workload", name, "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
            "--ops", str(workloads.WORKLOADS[name].smoke_ops)]


def run_bench(name: str, trace: int) -> tuple[dict, dict]:
    """The result object and the host facts of a short run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *smoke_args(name, trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    *_, host, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(host)["host"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_reports_every_metric_and_passes_outcome_check(name):
    result, host = run_bench(name, 0)
    # Every round is normalised by samples taken beside its work: after
    # each step, or in the grid's worker processes.
    expected = "steps" if workloads.WORKLOADS[name].in_process else "workers"
    assert {r["reference"] for r in host["rounds"]} == {expected}
    assert all(r["host_factor"] > 0 for r in host["rounds"])
    assert len(host["setup_only_norm_s"]) == (
        bench_run.SETUPS_PER_ROUND * len(host["rounds"])
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


def test_traced_runs_report_every_layer_metric_somewhere():
    seen = {}
    for name in sorted(workloads.WORKLOADS):
        result, _ = run_bench(name, 1)
        assert result["correct"] is True, name
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            seen[metric["name"]] = seen.get(metric["name"], 0) or reported["value"]
    # Every layer metric is live on some workload, except that smoke-length
    # rounds end before any full collection.
    dead = {n for n, v in seen.items() if not v}
    assert dead <= {"gc.full_collections"}


def test_tampered_digest_fails_every_op(tmp_path, monkeypatch, capsys):
    name = "generators"
    length = str(workloads.WORKLOADS[name].smoke_ops)
    table = json.loads(bench_run.DIGESTS.read_text())
    for sub_seed in table[name][length]:
        table[name][length][sub_seed] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(table))
    monkeypatch.setattr(bench_run, "DIGESTS", tampered)
    assert bench_run.main(smoke_args(name, 0)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def _traced_round(name: str, ops: int) -> Recorder:
    workload = replace(workloads.WORKLOADS[name], ops=ops)
    with tempfile.TemporaryDirectory() as tmpdir:
        fuzzers = workloads.build(
            workload, 0, workloads.make_seeds(workload), tmpdir
        )
    recorder = Recorder()
    result = bench_round.run_in_process(workload, fuzzers, recorder)
    assert result["failed"] == 0
    return recorder


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_traced_spans_nest_within_their_op(name):
    import repro.fuzzing.mucfuzz as mucfuzz
    from repro.muast.mutator import apply_mutator

    ops = 40
    recorder = _traced_round(name, ops)
    spans = recorder.spans
    assert nesting_errors(spans) == []
    assert EXPECTED_SPANS[name] <= {s[NAME] for s in spans}
    roots = [s for s in spans if s[NAME] == "op"]
    assert [s[OP] for s in roots] == list(range(ops))
    for record in spans:
        if record[NAME] != "gc":
            # Only collections may land between ops.
            assert record[OP] is not None
        if record[NAME] == "op":
            assert record[PARENT] == -1
    root_self = sum(
        own for record, own in zip(spans, self_times(spans))
        if record[NAME] == "op"
    )
    op_wall = sum(record[END] - record[START] for record in roots)
    assert root_self / op_wall < FUZZING_SELF_CEILING[name]
    # The wrappers are gone once the round ends.
    assert mucfuzz.apply_mutator is apply_mutator


def test_nesting_check_catches_broken_spans():
    # name, start, end, parent, op, tag
    good = [["op", 0.0, 10.0, -1, 0, None], ["muast", 1.0, 4.0, 0, 0, None]]
    assert nesting_errors(good) == []
    outside = [good[0], ["muast", 9.0, 11.0, 0, 0, None]]
    other_op = [good[0], ["muast", 1.0, 4.0, 0, 1, None]]
    overfull = good + [["cast.front_end", 1.0, 3.5, 1, 0, None],
                       ["gc", 2.0, 3.9, 1, 0, 0]]
    assert any("leaves parent" in e for e in nesting_errors(outside))
    assert any("another op id" in e for e in nesting_errors(other_op))
    assert any("self time" in e for e in nesting_errors(overfull))


def test_step_factors_come_from_the_samples_around_each_step():
    n = hostspeed.NOMINAL_S
    # samples[i] follows step i; step i's factor is NOMINAL_S over the mean
    # of the three samples before it and the three after it.
    assert hostspeed.WINDOW == 3
    samples = [n] * 4 + [3 * n] * 4
    expected = [1, 1, 5 / 7, 6 / 10, 6 / 12, 6 / 14, 5 / 13, 3 / 9]
    assert hostspeed.step_factors(samples) == pytest.approx(expected)
    assert hostspeed.factor(samples) == pytest.approx(1 / 2)


def test_end_to_end_metrics_come_from_normalised_times():
    measured = {"wall_s": 99.0, "cpu_s": 99.0, "setup_s": 99.0}
    rounds = [dict(measured, ops=10, norm_s=2.0, norm_cpu_s=1.0,
                   norm_setup_s=0.5, peak_rss_mb=7.0,
                   op_ms=[float(ms) for ms in range(1, 201)])]
    metrics = bench_run.e2e_metrics(rounds, setups=[0.3, 0.4])
    assert metrics["ops_per_s"] == 5.0
    assert metrics["cpu_ms_per_op"] == 100.0
    # The median over the rounds' and the set-up-only rounds' set-ups.
    assert metrics["setup_s"] == 0.4
    assert metrics["op_ms.p50"] == 100.5
    # The mean of p94 (188.06), p95 (190.05) and p96 (192.04).
    assert metrics["op_ms.p95"] == pytest.approx(190.05)


def test_reference_sample_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert hostspeed.sample() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_ucfuzz_reproduces_the_repo_golden():
    """Sub-seed 0 is the sched-smoke configuration: 1322 edges, 186 pool."""
    workload = replace(workloads.WORKLOADS["ucfuzz"], ops=300)
    (fuzzer,) = workloads.build(workload, 0, workloads.make_seeds(workload), "")
    for _ in range(300):
        fuzzer.step()
    assert (len(fuzzer.coverage), len(fuzzer.pool)) == (1322, 186)
