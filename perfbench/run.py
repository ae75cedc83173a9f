"""Campaign benchmark: closed-loop fuzzing workloads with the GC on.

Run from the repository root::

    python3 perfbench/run.py --workload ucfuzz --seed 1 --seconds 20 --trace 0

A run makes several *rounds*, each a fresh interpreter (``round.py``) that
sets up, runs a fixed number of steps from cold caches and hashes its
outcome.  Every run covers the workload's fixed input set
(``workloads.INPUTS`` recorded sub-seeds); ``--seed`` sets the order of the
rounds and which of them are traced.  Every round's outcome digest must
match ``digests.json`` for its workload, length and sub-seed; a mismatch
fails all of the round's ops.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the run's rounds, set-up also over one
set-up-only round before each round); with ``--trace 1``, rounds of the
in-process workloads alternate untraced and traced on the same sub-seed, and
the object carries the per-layer metrics instead (grid's come from its
untraced rounds).  Every reported time is normalised for the host's speed
beside the work (:mod:`hostspeed`).  The line before it records the host
facts that tell drift from a regression, and the measured seconds.

``--record`` runs one round per sub-seed and writes the digests instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Metric names and units come from the benchmark's definition.
SPEC = ROOT / "BENCHMARK.json"
#: Set-up-only rounds an untraced run adds per round, for a steadier
#: set-up median.
SETUPS_PER_ROUND = 1


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, sub_seed: int, ops: int, trace: int, env) -> dict:
    """One fresh-interpreter round; its parsed JSON result."""
    # A fixed hash seed per input: string hashing decides set and dict
    # layouts, hence allocation counts and where collections land.
    env = dict(env, PYTHONHASHSEED=str(1 + sub_seed))
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py"), workload, str(sub_seed),
         str(ops), repr(spawned), str(trace), str(OUT)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=170,
    )
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(
            f"{workload} round (sub-seed {sub_seed}) exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def e2e_metrics(rounds: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics: medians over the run's rounds, times normalised.

    Set-up time is the median over the rounds and ``setups``, the run's
    set-up-only rounds.
    """
    samples: list[float] = []
    for r in rounds:
        if "op_ms" in r:
            samples.extend(r["op_ms"])
        else:
            # Grid steps run inside the workers, out of the benchmark's
            # reach: its op latency is a worker's wall time per step.
            samples.append(r["norm_s"] * r["workers"] * 1e3 / r["ops"])
    return {
        "setup_s": statistics.median(
            [r["norm_setup_s"] for r in rounds] + setups
        ),
        "ops_per_s": statistics.median(r["ops"] / r["norm_s"] for r in rounds),
        "cpu_ms_per_op": statistics.median(
            r["norm_cpu_s"] * 1e3 / r["ops"] for r in rounds
        ),
        "op_ms.p50": statistics.median(samples),
        # The mean of the 94th, 95th and 96th percentiles: the tail is a
        # few slow steps (full collections) per input, and a single order
        # statistic jumps between them from run to run.  quantiles() needs
        # two samples; a run with one round left (the others failed) still
        # reports.
        "op_ms.p95": (
            statistics.fmean(
                statistics.quantiles(samples, n=100, method="inclusive")[93:96]
            )
            if len(samples) > 1 else samples[0]
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def layer_metrics(pairs: list[tuple[dict | None, dict]], units: dict) -> dict:
    """Per-layer metrics: medians over the run's rounds that carry layers.

    Each pair is (untraced twin, traced round) on the same input.  Grid
    rounds are never traced (their layers come from CPU accounting and the
    cells' JSONL in every round), so they come with no twin and no overhead.
    Times (units ``s`` and ``ms``) and rates (``.../s``) are normalised by
    the traced round's host factor.
    """
    values: dict[str, list[float]] = {name: [] for name in units}
    for untraced, t in pairs:
        layers = dict(t.get("layers", {}))
        for part in ("import_s", "seeds_s", "build_s"):
            layers[f"setup.{part}"] = t["setup"][part]
        if untraced is not None:
            layers["trace.overhead"] = untraced["norm_s"] / t["norm_s"]
        for name, unit in units.items():
            # A layer the workload bypasses (or that its parent process
            # cannot see) reads 0.
            value = layers.get(name, 0.0)
            if unit in ("s", "ms"):
                value *= t["host_factor"]
            elif unit.endswith("/s"):
                value /= t["host_factor"]
            values[name].append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="steps per round (default: the workload's)")
    parser.add_argument("--record", action="store_true",
                        help="record every sub-seed's digest at this length")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = args.ops or workload.ops
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(OUT / "tmp"))
    # Byte-compile and page in the library once, untimed: no campaign pays
    # for that again after its first start.
    subprocess.run(
        [sys.executable, "-c", "import workloads; workloads.import_library()"],
        env=dict(env, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}"),
        cwd=ROOT, check=True, timeout=170,
    )
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if args.record:
        return record(workload.name, ops, table, env)
    expected = table.get(workload.name, {}).get(str(ops), {})
    start = host_facts()
    order = workloads.input_order(args.seed)
    paired = args.trace and workload.in_process
    if paired:
        count = max(1, round(args.seconds / (2 * workload.nominal_round_s)))
        plan = [order[k % len(order)] for k in range(count)]
    else:
        # Whole passes over the input set, so every run does the same work.
        passes = args.seconds / (len(order) * workload.nominal_round_s)
        plan = order * max(1, round(passes))
    attempted = failed = 0
    rounds: list[dict] = []
    setups: list[float] = []
    pairs: list[tuple[dict | None, dict]] = []
    log: list[dict] = []
    for k, sub_seed in enumerate(plan):
        for _ in range(0 if args.trace else SETUPS_PER_ROUND):
            try:
                setups.append(run_round(workload.name, sub_seed, 0, 0, env)
                              ["norm_setup_s"])
            except (RoundFailed, subprocess.TimeoutExpired, ValueError) as exc:
                print(f"error: set-up only: {exc}", file=sys.stderr)
        # Traced runs pair each traced round with an untraced one on the
        # same inputs, alternating which goes first.
        modes = ((0, 1) if k % 2 == 0 else (1, 0)) if paired else (0,)
        done = {}
        for mode in modes:
            attempted += ops
            try:
                r = run_round(workload.name, sub_seed, ops, mode, env)
            except (RoundFailed, subprocess.TimeoutExpired, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                failed += ops
                continue
            ok = r["digest"] == expected.get(str(sub_seed))
            failed += r["failed"] if ok else ops
            if not ok:
                print(f"error: {workload.name} sub-seed {sub_seed} at {ops} "
                      f"ops: digest {r['digest'][:16]} does not match the "
                      "recorded one", file=sys.stderr)
            done[mode] = r
            log.append({
                "sub_seed": sub_seed, "trace": mode,
                # Measured seconds, before normalisation.
                "setup_s": r["setup_s"], "wall_s": r["wall_s"],
                "cpu_s": r["cpu_s"], "host_factor": r["host_factor"],
                "reference": r["reference"],
                # Time spent descheduled (for grid, per worker).
                "gap_s": r["wall_s"] - r["cpu_s"] / r.get("workers", 1),
                "hashseed": r["hashseed"], "digest_ok": ok,
                "outcome": r["outcome"],
            })
        if 0 in done:
            rounds.append(done[0])
        if paired and len(done) == 2:
            pairs.append((done[0], done[1]))
    if args.trace and not paired:
        pairs = [(None, r) for r in rounds]
    if not (rounds and (pairs or not args.trace)):
        print("error: no round completed", file=sys.stderr)
        return 1
    facts = {
        "workload": workload.name, "seed": args.seed, "ops_per_round": ops,
        "python": start["python"], "nproc": start["nproc"],
        "loadavg_start": start["loadavg"], "loadavg_end": host_facts()["loadavg"],
        "gc_threshold": rounds[0]["gc_threshold"],
        "rounds": log,
        "setup_only_norm_s": setups,
    }
    print(json.dumps({"host": facts}))
    spec = json.loads(SPEC.read_text())
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    metrics = (
        layer_metrics(pairs, units) if args.trace else e2e_metrics(rounds, setups)
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


def record(name: str, ops: int, table: dict, env) -> int:
    """Run one round per sub-seed and store its digest for this length."""
    digests = table.setdefault(name, {}).setdefault(str(ops), {})
    for sub_seed in range(workloads.INPUTS):
        r = run_round(name, sub_seed, ops, 0, env)
        if r["failed"]:
            print(f"error: {r['failed']} ops failed on sub-seed {sub_seed}",
                  file=sys.stderr)
            return 1
        digests[str(sub_seed)] = r["digest"]
        print(json.dumps({"sub_seed": sub_seed, "digest": r["digest"],
                          "outcome": r["outcome"]}))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
