"""Crash-triage reports: Table 5/6-style summaries from campaign results.

Renders, from one ``CampaignResult`` or a checkpointed grid of them:

* the per-cell throughput/coverage/crash table (Table 5's shape),
* the per-module unique-crash census (Table 6's shape, canonical four
  modules always present),
* the crash-discovery timeline over virtual hours, and
* per-bug trigger pointers — optionally materialized as one minimized
  source file per unique crash (``--triggers-dir``).

Everything here is a pure function of already-recorded campaign state; the
report generator never reruns a fuzzer and never mutates a checkpoint.

Usage::

    python -m repro.telemetry.report --checkpoint-dir runs/ckpt
    python -m repro.telemetry.report --result result.json --json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.fuzzing.campaign import CampaignResult
from repro.fuzzing.crash import CANONICAL_MODULES, CrashLog
from repro.resilience.checkpoint import CheckpointStore, sanitize_key
from repro.telemetry.metrics import merge_stats


def load_results(checkpoint_dir: str | Path) -> list[tuple[str, CampaignResult]]:
    """(cell key, result) for every successful checkpointed cell, key-sorted.

    Failed cells and the fabric's journal (no ``result``) are skipped.
    """
    store = CheckpointStore(checkpoint_dir)
    results = []
    for key in store.keys():
        payload = store.load(key)
        if payload and payload.get("ok") and "result" in payload:
            results.append((key, CampaignResult.from_json(payload["result"])))
    return results


def merge_crashes(results: "list[CampaignResult]") -> CrashLog:
    """One grid-wide log: per signature, the earliest discovery wins."""
    merged = CrashLog()
    for result in results:
        log = result.crashes
        for sig, rec in log.records.items():
            if sig in merged.records and merged.first_seen[sig] <= log.first_seen[sig]:
                continue
            merged.records[sig] = rec
            merged.first_seen[sig] = log.first_seen[sig]
            merged.triggers[sig] = log.triggers.get(sig, "")
    return merged


# -- structured (JSON) form -------------------------------------------------


def triage_data(results: "list[tuple[str, CampaignResult]]") -> dict:
    """The report as plain data (the ``--json`` output)."""
    crashes = merge_crashes([r for _, r in results])
    return {
        "cells": [
            {
                "key": key,
                "fuzzer": r.fuzzer,
                "compiler": r.compiler,
                "steps": r.steps,
                "compiled": r.compiled,
                "total": r.total,
                "compilable_ratio": round(r.compilable_ratio, 4),
                "throughput_total": r.throughput_total,
                "final_coverage": r.final_coverage,
                "unique_crashes": len(r.crashes),
            }
            for key, r in results
        ],
        "census": crashes.by_module(),
        "timeline": [[t, n] for t, n in crashes.timeline()],
        "crashes": [
            {
                "bug_id": rec.bug_id,
                "module": rec.module,
                "kind": rec.kind,
                "message": rec.message,
                "first_seen": crashes.first_seen[sig],
                "trigger_bytes": len(crashes.triggers.get(sig, "")),
            }
            for sig, rec in sorted(
                crashes.records.items(),
                key=lambda item: (crashes.first_seen[item[0]], item[1].bug_id),
            )
        ],
        "stats": merge_stats([r.stats for _, r in results]),
    }


def write_triggers(crashes: CrashLog, directory: str | Path) -> dict[str, str]:
    """One minimized-source file per unique crash; bug id -> path."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    pointers: dict[str, str] = {}
    for i, (sig, rec) in enumerate(
        sorted(
            crashes.records.items(),
            key=lambda item: (crashes.first_seen[item[0]], item[1].bug_id),
        )
    ):
        path = out / f"{i:03d}-{sanitize_key(rec.bug_id)}.c"
        path.write_text(crashes.triggers.get(sig, "") or "/* no trigger recorded */\n")
        pointers[rec.bug_id] = str(path)
    return pointers


# -- text rendering ---------------------------------------------------------


def _rule(width: int = 66) -> str:
    return "-" * width


def render_cells(results: "list[tuple[str, CampaignResult]]") -> str:
    lines = [
        f"{'fuzzer':<10} {'compiler':<14} {'steps':>6} {'compil.':>8} "
        f"{'24h-total':>10} {'coverage':>9} {'crashes':>8}",
        _rule(),
    ]
    for _, r in results:
        lines.append(
            f"{r.fuzzer:<10} {r.compiler:<14} {r.steps:>6} "
            f"{r.compilable_ratio:>7.1%} {r.throughput_total:>10,} "
            f"{r.final_coverage:>9,} {len(r.crashes):>8}"
        )
    return "\n".join(lines)


def render_census(crashes: CrashLog) -> str:
    census = crashes.by_module()
    # Canonical four first (Table 6 order), any extra modules after.
    modules = list(CANONICAL_MODULES) + sorted(
        m for m in census if m not in CANONICAL_MODULES
    )
    lines = [f"{'module':<16} {'unique crashes':>14}", _rule(32)]
    for module in modules:
        lines.append(f"{module:<16} {census[module]:>14}")
    lines.append(_rule(32))
    lines.append(f"{'total':<16} {sum(census.values()):>14}")
    return "\n".join(lines)


def render_timeline(crashes: CrashLog, width: int = 50) -> str:
    curve = crashes.timeline()
    if not curve:
        return "(no crashes discovered)"
    peak = curve[-1][1]
    lines = []
    for t, n in curve:
        bar = "#" * max(1, round(n / peak * width))
        lines.append(f"{t:>7.2f}h {bar} {n}")
    return "\n".join(lines)


def render_triggers(
    crashes: CrashLog, pointers: "dict[str, str] | None" = None
) -> str:
    lines = []
    for sig, rec in sorted(
        crashes.records.items(),
        key=lambda item: (crashes.first_seen[item[0]], item[1].bug_id),
    ):
        trigger = crashes.triggers.get(sig, "")
        if pointers is not None:
            where = pointers.get(rec.bug_id, "(not written)")
        else:
            where = f"{len(trigger)} bytes recorded" if trigger else "(none)"
        lines.append(
            f"{rec.bug_id:<26} {rec.module:<12} {rec.kind:<8} "
            f"@{crashes.first_seen[sig]:.2f}h  {where}"
        )
    return "\n".join(lines) if lines else "(no crashes discovered)"


#: Compile-pipeline counters surfaced in the text report (when present in
#: the merged stats): the middle end's session reuse.
PIPELINE_COUNTERS = (
    "middle_incremental_hits",
    "middle_session_hits",
)


def render_pipeline(stats: dict) -> str:
    lines = [f"{'counter':<26} {'value':>12}", _rule(40)]
    shown = False
    for key in PIPELINE_COUNTERS:
        value = stats.get(key)
        if value is None:
            continue
        shown = True
        lines.append(f"{key:<26} {value:>12,}")
    return "\n".join(lines) if shown else "(no pipeline counters recorded)"


def render_report(
    results: "list[tuple[str, CampaignResult]]",
    triggers_dir: "str | Path | None" = None,
) -> str:
    crashes = merge_crashes([r for _, r in results])
    pointers = (
        write_triggers(crashes, triggers_dir) if triggers_dir is not None else None
    )
    sections = [
        f"crash-triage report: {len(results)} cell(s), "
        f"{len(crashes)} unique crash(es)",
        "",
        "== per-cell results (Table 5 shape) ==",
        render_cells(results),
        "",
        "== compile pipeline (middle-end reuse) ==",
        render_pipeline(merge_stats([r.stats for _, r in results])),
        "",
        "== unique crashes by module (Table 6 shape) ==",
        render_census(crashes),
        "",
        "== discovery timeline (virtual hours) ==",
        render_timeline(crashes),
        "",
        "== triggers ==",
        render_triggers(crashes, pointers),
    ]
    return "\n".join(sections)


# -- CLI --------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Render a crash-triage report from campaign results.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--checkpoint-dir",
        help="a run_fabric checkpoint directory (one JSON per cell)",
    )
    source.add_argument(
        "--result", help="a single CampaignResult JSON file (to_json output)"
    )
    parser.add_argument(
        "--triggers-dir",
        help="write each unique crash's minimized trigger source here",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit structured JSON instead of text"
    )
    args = parser.parse_args(argv)

    if args.checkpoint_dir is not None:
        results = load_results(args.checkpoint_dir)
        if not results:
            print(
                f"no successful cell checkpoints under {args.checkpoint_dir}",
                file=sys.stderr,
            )
            return 1
    else:
        payload = json.loads(Path(args.result).read_text())
        result = CampaignResult.from_json(payload)
        results = [(f"{result.fuzzer}-{result.compiler}", result)]

    if args.json:
        data = triage_data(results)
        if args.triggers_dir:
            data["triggers"] = write_triggers(
                merge_crashes([r for _, r in results]), args.triggers_dir
            )
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(render_report(results, triggers_dir=args.triggers_dir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
