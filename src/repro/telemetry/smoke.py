"""Telemetry CI smoke: schema-valid events, result parity with sink off.

Runs one short campaign grid four ways — telemetry off, telemetry on
(serial), telemetry on (parallel, through the fabric), and the fabric with
checkpoints — then asserts the telemetry layer's two contracts:

1. every JSONL event file written (the cells' and the fabric's
   ``grid.jsonl``) is schema-valid and non-empty, and
2. the fuzzing results are bit-identical (``CampaignResult.to_json``)
   whether the sink is attached or not, serial or parallel.

Finishes by rendering the crash-triage report from the checkpointed grid
(the acceptance path of ``python -m repro.telemetry.report``), whose
directory also holds the fabric's journal.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro.telemetry import validate_jsonl
from repro.telemetry.report import main as report_main

GRID_FUZZERS = ("uCFuzz.s", "AFL++")


def _jsonl_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.jsonl*"))


def _results_json(results) -> list[dict]:
    return [r.to_json() for r in results]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="telemetry-smoke")
    parser.add_argument("--steps", type=int, default=30)
    args = parser.parse_args(argv)

    from repro.compiler.driver import default_compilers
    from repro.fuzzing.campaign import Campaign
    from repro.fuzzing.seedgen import generate_seeds
    from repro.muast.registry import global_registry

    def make_campaign(telemetry_dir: "str | None") -> Campaign:
        return Campaign(
            compilers=default_compilers(),
            seeds=generate_seeds(10),
            registry=global_registry,
            steps=args.steps,
            telemetry_dir=telemetry_dir,
        )

    with tempfile.TemporaryDirectory(prefix="telemetry-smoke-") as tmp:
        root = Path(tmp)
        baseline = _results_json(make_campaign(None).run(GRID_FUZZERS))

        serial_dir = root / "events-serial"
        serial = _results_json(
            make_campaign(str(serial_dir)).run(GRID_FUZZERS)
        )
        if serial != baseline:
            raise SystemExit(
                "telemetry-smoke: serial campaign results changed with the "
                "JSONL sink enabled"
            )

        parallel_dir = root / "events-parallel"
        parallel = _results_json(
            make_campaign(str(parallel_dir)).run(GRID_FUZZERS, parallelism=2)
        )
        if parallel != baseline:
            raise SystemExit(
                "telemetry-smoke: parallel campaign results diverged from "
                "the sink-off baseline"
            )

        events = 0
        files = _jsonl_files(serial_dir) + _jsonl_files(parallel_dir)
        if not files:
            raise SystemExit("telemetry-smoke: no event files were written")
        for path in files:
            events += validate_jsonl(path)
        if events <= 0:
            raise SystemExit("telemetry-smoke: event files are all empty")

        # Fabric grid with checkpoints + grid telemetry, then the triage
        # report over the checkpoint directory (the acceptance path).
        ckpt = root / "ckpt"
        grid_dir = root / "events-grid"
        campaign = make_campaign(str(grid_dir))
        outcomes = campaign.run_fabric(
            GRID_FUZZERS, fleet_size=2, checkpoint_dir=str(ckpt)
        )
        if not all(o.ok for o in outcomes):
            raise SystemExit("telemetry-smoke: a fabric cell failed")
        if _results_json([o.result for o in outcomes]) != baseline:
            raise SystemExit(
                "telemetry-smoke: fabric results diverged from baseline"
            )
        grid_path = grid_dir / "grid.jsonl"
        grid_events = validate_jsonl(grid_path)
        cell_rows = [
            row for row in map(json.loads, grid_path.read_text().splitlines())
            if row["kind"] == "cell"
        ]
        if len(cell_rows) != len(outcomes):
            raise SystemExit(
                "telemetry-smoke: grid.jsonl is missing cell lifecycle events"
            )
        triggers = root / "triggers"
        if report_main(
            ["--checkpoint-dir", str(ckpt), "--triggers-dir", str(triggers)]
        ) != 0:
            raise SystemExit("telemetry-smoke: triage report rendering failed")
        report_json = report_main(["--checkpoint-dir", str(ckpt), "--json"])
        if report_json != 0:
            raise SystemExit("telemetry-smoke: triage JSON rendering failed")

    print(
        json.dumps(
            {
                "cells": len(baseline),
                "steps": args.steps,
                "events_validated": events,
                "grid_events": grid_events,
                "parity": "ok",
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
