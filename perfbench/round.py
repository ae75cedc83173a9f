"""One benchmark round in a fresh interpreter; prints one JSON line.

Usage (``run.py`` spawns it; the library must be importable)::

    python3 perfbench/round.py WORKLOAD SUB_SEED OPS SPAWN_TIME TRACE OUTDIR

``SPAWN_TIME`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this process, so set-up time covers interpreter start, imports,
seed generation and construction.  ``OPS`` 0 sets up and stops.  ``TRACE``
is 0 or 1; a traced round installs :mod:`tracing`'s wrappers for its timed
phase and writes its spans to ``OUTDIR``.

Every time comes twice: as measured, and normalised by the host factor of
:mod:`hostspeed` (the ``norm_`` fields and ``op_ms``).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import hostspeed
import workloads

#: ``Compiler.stage_timings`` keys reported per op in traced rounds.
STAGES = {
    "lex": "cast.lex_ms_per_op",
    "parse": "cast.parse_ms_per_op",
    "sema": "cast.sema_ms_per_op",
    "irgen": "compiler.irgen_ms_per_op",
    "opt": "compiler.opt_ms_per_op",
    "backend": "compiler.backend_ms_per_op",
}


#: Reference samples a set-up-only round (``OPS`` 0) takes.
SETUP_SAMPLES = 50


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def run_in_process(workload, fuzzers, recorder) -> dict:
    """The closed loop over ``workload.ops`` steps, fuzzers round-robin.

    A reference sample (:mod:`hostspeed`) follows every step, outside the
    step's timing and span.
    """
    from tracing import traced

    outcome = workloads.Outcome(fuzzers)
    compilers = [f.compiler for f in fuzzers]
    stages_before = _stage_totals(compilers)
    walls: list[float] = []
    cpus: list[float] = []
    references: list[float] = []
    failed = 0
    with traced(recorder) if recorder is not None else nullcontext():
        for i in range(workload.ops):
            fuzzer_index = i % len(fuzzers)
            if recorder is not None:
                recorder.op = i
                root = recorder.open("op")
            start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                step = fuzzers[fuzzer_index].step()
            except Exception as exc:  # a raising step is a failed op
                print(f"op {i} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                step = None
                failed += 1
            finally:
                cpus.append(time.process_time() - cpu_start)
                walls.append(time.perf_counter() - start)
                if recorder is not None:
                    recorder.close(root)
                    recorder.op = None
            if step is not None:
                outcome.record(fuzzer_index, step)
            references.append(hostspeed.sample())
    factors = hostspeed.step_factors(references)
    result = {
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "host_factor": hostspeed.factor(references),
        "reference": "steps",
        "norm_s": sum(w * f for w, f in zip(walls, factors)),
        "norm_cpu_s": sum(c * f for c, f in zip(cpus, factors)),
        "op_ms": [w * f * 1e3 for w, f in zip(walls, factors)],
        "failed": failed,
        "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        "digest": outcome.digest(),
        "outcome": outcome.summary(),
    }
    if recorder is not None:
        from tracing import layer_metrics

        layers = layer_metrics(recorder, workload.ops, sum(walls))
        stages_after = _stage_totals(compilers)
        for stage, metric in STAGES.items():
            delta = stages_after.get(stage, 0.0) - stages_before.get(stage, 0.0)
            layers[metric] = delta * 1e3 / workload.ops
        layers.update(_cache_shares(fuzzers))
        result["layers"] = layers
    return result


def _stage_totals(compilers) -> dict:
    totals: dict = {}
    for compiler in compilers:
        for stage, seconds in compiler.stage_timings.items():
            totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


def _cache_shares(fuzzers) -> dict:
    hits = misses = inc_hits = inc_fallbacks = 0
    replays = replay_fallbacks = 0
    for fuzzer in fuzzers:
        cache = getattr(fuzzer, "cache", None)
        if cache is not None:
            hits += cache.hits
            misses += cache.misses
            inc_hits += cache.incremental_hits
            inc_fallbacks += cache.incremental_fallbacks
        replays += fuzzer.compiler.middle_incremental_hits
        replay_fallbacks += fuzzer.compiler.middle_incremental_fallbacks
    return {
        "cast.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cast.incremental_share": (
            inc_hits / (inc_hits + inc_fallbacks)
            if inc_hits + inc_fallbacks else 0.0
        ),
        "compiler.middle_reuse_share": (
            replays / (replays + replay_fallbacks)
            if replays + replay_fallbacks else 0.0
        ),
    }


def run_grid(workload, campaign, tmpdir: str) -> dict:
    """``Campaign.run`` over every RQ1 fuzzer with two worker processes."""
    from repro.fuzzing.campaign import FUZZER_NAMES

    # The pool forks its workers; each takes reference samples from a
    # thread, so the samples see the host as the workers do.
    hostspeed.sample_forked_children(tmpdir)
    cpu0 = _cpu(resource.RUSAGE_SELF)
    wall0 = time.perf_counter()
    results = campaign.run(FUZZER_NAMES, parallelism=workloads.GRID_WORKERS)
    wall = time.perf_counter() - wall0
    parent_cpu = _cpu(resource.RUSAGE_SELF) - cpu0
    references = hostspeed.forked_samples(tmpdir)
    # Workers are joined when the pool shuts down, so their usage is in;
    # the sampling threads' is not the grid's.
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - sum(references)
    reference = "workers"
    if not references:
        # A cell runner that does not fork leaves no samples: the host as
        # this process sees it just after the grid is the next best thing.
        reference = "parent"
        references = [hostspeed.sample() for _ in range(100)]
    ops = sum(r.total for r in results)
    layers = _grid_layers(Path(tmpdir), ops, wall, children_cpu)
    layers["parallel.parent_cpu_ms_per_cell"] = parent_cpu * 1e3 / len(results)
    host_factor = hostspeed.factor(references)
    return {
        "wall_s": wall,
        "cpu_s": parent_cpu + children_cpu,
        "host_factor": host_factor,
        "reference": reference,
        "norm_s": wall * host_factor,
        "norm_cpu_s": (parent_cpu + children_cpu) * host_factor,
        "workers": workloads.GRID_WORKERS,
        "failed": workload.ops - ops,
        "peak_rss_mb": max(_maxrss_mb(resource.RUSAGE_SELF),
                           _maxrss_mb(resource.RUSAGE_CHILDREN)),
        "digest": workloads.grid_digest(results),
        "outcome": [
            {"cell": f"{r.fuzzer}/{r.compiler}", "edges": r.final_coverage,
             "bugs": len(r.crashes), "compiled": r.compiled, "total": r.total}
            for r in results
        ],
        "layers": layers,
    }


def _grid_layers(tmpdir: Path, ops: int, wall: float, children_cpu: float) -> dict:
    """Layer numbers the parent can see: CPU accounting and the cells' JSONL."""
    events = size = 0
    stage_s: dict = {}
    cell_span_s = []
    for path in sorted(tmpdir.glob("*.jsonl*")):
        size += path.stat().st_size
        spans = 0.0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                events += 1
                event = json.loads(line)
                if event["kind"] == "span":
                    stage_s[event["name"]] = (
                        stage_s.get(event["name"], 0.0) + event["wall"]
                    )
                    spans += event["wall"]
        cell_span_s.append(spans)
    workers = workloads.GRID_WORKERS
    layers = {
        "parallel.busy_share": children_cpu / (wall * workers),
        # The slowest cell sets the tail of the grid: its traced work over
        # the mean cell's.
        "parallel.imbalance": (
            max(cell_span_s) / (sum(cell_span_s) / len(cell_span_s))
            if cell_span_s and sum(cell_span_s) else 0.0
        ),
        "telemetry.events_per_op": events / ops,
        "telemetry.bytes_per_op": size / ops,
        # Share of worker CPU the cells' own stage spans explain.
        "trace.attributed_share": (
            sum(cell_span_s) / children_cpu if children_cpu else 0.0
        ),
    }
    for stage, metric in STAGES.items():
        layers[metric] = stage_s.get(stage, 0.0) * 1e3 / ops
    return layers


def main(argv: list[str]) -> int:
    name, sub_seed, ops, spawned, trace, outdir = argv
    spawned = float(spawned)
    workload = replace(workloads.WORKLOADS[name], ops=int(ops))
    workloads.import_library()
    imported = _clock()
    seeds = workloads.make_seeds(workload)
    seeded = _clock()
    tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=outdir)
    built_obj = workloads.build(workload, int(sub_seed), seeds, tmpdir)
    built = _clock()
    recorder = None
    if trace == "1" and workload.in_process:
        from tracing import Recorder

        recorder = Recorder()
    if workload.ops == 0:
        # Set-up only.  Its host factor comes from samples taken once the
        # set-up clock has stopped.
        result = {"host_factor": hostspeed.factor(
            [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
        )}
    elif workload.in_process:
        result = run_in_process(workload, built_obj, recorder)
    else:
        result = run_grid(workload, built_obj, tmpdir)
    shutil.rmtree(tmpdir)
    if recorder is not None:
        recorder.write(Path(outdir) / f"trace-{name}.jsonl")
    result.update(
        {
            "setup_s": built - spawned,
            "norm_setup_s": (built - spawned) * result["host_factor"],
            "setup": {
                "import_s": imported - spawned,
                "seeds_s": seeded - imported,
                "build_s": built - seeded,
            },
            "ops": workload.ops,
            "gc_threshold": list(gc.get_threshold()),
            "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
