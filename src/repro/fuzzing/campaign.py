"""Campaign runner: drives fuzzers over a virtual clock and records trends.

The paper's headline experiment runs 60 parallel instances for 24 hours per
fuzzer/compiler pair.  The reproduction runs a fixed number of steps and maps
them onto the virtual 24-hour axis, recording the coverage and unique-crash
trends that Figures 7 and 9 plot.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

from repro.compiler.driver import Compiler
from repro.muast.registry import MutatorRegistry, global_registry
from repro.resilience.circuit import MutatorQuarantine
from repro.resilience.faultinject import CellFault
from repro.fuzzing.schedule import MutatorScheduler
from repro.telemetry import TelemetrySession

# Importing the library populates the global registry with all 118 mutators.
import repro.mutators  # noqa: F401  (registration side effect)
from repro.fuzzing.base import Fuzzer
from repro.fuzzing.baselines import AFLPlusPlus, CsmithSim, GrayCSim, YarpGenSim
from repro.fuzzing.crash import CrashLog
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.parallel import (
    CellOutcome,
    CellSpec,
    run_cells,
    stable_cell_seed,
)

FUZZER_NAMES = ("uCFuzz.s", "uCFuzz.u", "AFL++", "GrayC", "Csmith", "YARPGen")


@dataclass
class CampaignResult:
    fuzzer: str
    compiler: str
    steps: int
    virtual_hours: float
    #: (virtual hour, covered branch-edge count) samples.
    coverage_trend: list[tuple[float, int]] = field(default_factory=list)
    crashes: CrashLog = field(default_factory=CrashLog)
    compiled: int = 0
    total: int = 0
    #: Modeled 24-hour program total (Table 5 extrapolation).
    throughput_total: int = 0
    #: Fuzzer execution stats (attempts, cache hits/misses, hit rate).
    stats: dict = field(default_factory=dict)

    @property
    def compilable_ratio(self) -> float:
        return self.compiled / self.total if self.total else 0.0

    @property
    def final_coverage(self) -> int:
        return self.coverage_trend[-1][1] if self.coverage_trend else 0

    # -- checkpoint serialization (campaign resume) -----------------------

    def to_json(self) -> dict:
        return {
            "fuzzer": self.fuzzer,
            "compiler": self.compiler,
            "steps": self.steps,
            "virtual_hours": self.virtual_hours,
            "coverage_trend": [[hour, edges] for hour, edges in self.coverage_trend],
            "crashes": self.crashes.to_json(),
            "compiled": self.compiled,
            "total": self.total,
            "throughput_total": self.throughput_total,
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignResult":
        return cls(
            fuzzer=payload["fuzzer"],
            compiler=payload["compiler"],
            steps=payload["steps"],
            virtual_hours=payload["virtual_hours"],
            coverage_trend=[
                (hour, edges) for hour, edges in payload["coverage_trend"]
            ],
            crashes=CrashLog.from_json(payload["crashes"]),
            compiled=payload["compiled"],
            total=payload["total"],
            throughput_total=payload["throughput_total"],
            stats=payload["stats"],
        )


def make_fuzzer(
    name: str,
    compiler: Compiler,
    seeds: list[str],
    registry: MutatorRegistry,
    rng: random.Random,
    quarantine_threshold: int | None = None,
    paranoid: bool = False,
    scheduler: "MutatorScheduler | None" = None,
    mutator_stats: bool | None = None,
    telemetry: TelemetrySession | None = None,
) -> Fuzzer:
    """Instantiate one of the six evaluated fuzzers by its paper name."""
    quarantine = (
        MutatorQuarantine(quarantine_threshold)
        if quarantine_threshold is not None
        else None
    )
    # Paranoid mode reaches every fuzzer that owns a front-end cache
    # (μCFuzz, GrayC); the quarantine and the evolutionary scheduler are
    # μCFuzz's alone, and the generators and AFL++ take none of the three.
    if name == "uCFuzz.s":
        fuzzer: Fuzzer = MuCFuzz(
            compiler, rng, seeds, registry.supervised(), name=name,
            quarantine=quarantine, paranoid=paranoid,
            scheduler=scheduler, mutator_stats=mutator_stats,
        )
    elif name == "uCFuzz.u":
        fuzzer = MuCFuzz(
            compiler, rng, seeds, registry.unsupervised(), name=name,
            quarantine=quarantine, paranoid=paranoid,
            scheduler=scheduler, mutator_stats=mutator_stats,
        )
    elif name == "AFL++":
        fuzzer = AFLPlusPlus(compiler, rng, seeds)
    elif name == "GrayC":
        fuzzer = GrayCSim(compiler, rng, seeds, paranoid=paranoid)
    elif name == "Csmith":
        fuzzer = CsmithSim(compiler, rng)
    elif name == "YARPGen":
        fuzzer = YarpGenSim(compiler, rng)
    else:
        raise ValueError(f"unknown fuzzer {name!r}")
    if telemetry is not None:
        fuzzer.adopt_telemetry(telemetry)
    return fuzzer


def run_campaign(
    fuzzer: Fuzzer,
    steps: int,
    virtual_hours: float = 24.0,
    sample_points: int = 24,
) -> CampaignResult:
    """Run ``steps`` fuzzing iterations mapped onto a virtual time span.

    The fuzzer's telemetry session (adopted through ``make_fuzzer``'s
    ``telemetry=``) receives campaign lifecycle, crash-discovery,
    coverage-sample, and kept-step events.  Event emission consumes no
    randomness and never touches compared state, so a telemetry-enabled
    run produces a bit-identical :class:`CampaignResult`.
    """
    telem = fuzzer.telemetry
    result = CampaignResult(
        fuzzer=getattr(fuzzer, "name", type(fuzzer).__name__),
        compiler=fuzzer.compiler.name,
        steps=steps,
        virtual_hours=virtual_hours,
    )
    telem.emit(
        "campaign", "start",
        fuzzer=result.fuzzer, compiler=result.compiler, steps=steps,
        virtual_hours=virtual_hours,
    )
    sample_every = max(steps // max(sample_points, 1), 1)
    for i in range(steps):
        vhour = (i + 1) / steps * virtual_hours
        step = fuzzer.step()
        result.total += 1
        if step.result.ok or (step.result.crashed and not step.result.diagnostics):
            result.compiled += 1
        if step.result.crashed:
            rec = result.crashes.add(step.result, vhour, step.program)
            if rec is not None:
                telem.emit(
                    "crash", rec.bug_id,
                    module=rec.module, kind=rec.kind,
                    vhour=round(vhour, 4), step=i + 1,
                    mutator=step.mutator,
                    frames=[[f.function, f.pc] for f in rec.signature.frames],
                )
        if step.kept:
            telem.emit(
                "step", "kept", step=i + 1, mutator=step.mutator,
                pool_size=len(getattr(fuzzer, "pool", ())),
            )
        if (i + 1) % sample_every == 0 or i + 1 == steps:
            result.coverage_trend.append((vhour, len(fuzzer.coverage)))
            telem.emit(
                "coverage", "sample",
                vhour=round(vhour, 4), edges=len(fuzzer.coverage),
            )
    result.throughput_total = int(virtual_hours * 3600 / fuzzer.step_cost)
    # Deterministic by construction: stats_snapshot() excludes the
    # wall-clock profile (profile_snapshot() carries it), so no caller has
    # to strip timing keys to keep serial==parallel comparisons honest.
    result.stats = fuzzer.stats_snapshot()
    telem.emit(
        "campaign", "end",
        compiled=result.compiled, total=result.total,
        crashes=len(result.crashes), final_coverage=result.final_coverage,
    )
    telem.flush()
    return result


@dataclass
class Campaign:
    """The full RQ1 comparison: all six fuzzers over the given compilers."""

    #: Each compiler's personality, version, bug seed and ``reference``
    #: switch (object-IR reference pipeline) carry into its cells.
    compilers: list[Compiler]
    seeds: list[str]
    registry: MutatorRegistry
    steps: int = 600
    base_seed: int = 2024
    quarantine_threshold: int | None = None
    #: Give each cell's front-end cache the paranoid switch: every fuzzer
    #: that owns one (μCFuzz, GrayC) has its dirty-region front ends and
    #: its compiles checked against from-scratch work (slow; CI/tests only).
    paranoid: bool = False
    #: Evolutionary mutator scheduling: give each μCFuzz cell a
    #: fitness-proportional :class:`MutatorScheduler` seeded from the cell
    #: seed (scheduled cells stay serial == parallel == fabric identical).
    schedule: bool = False
    #: Track per-mutator yield counters even without the scheduler (the
    #: uniform arm of the scheduling ablation); ``None`` follows
    #: ``schedule``.
    mutator_stats: bool | None = None
    #: Stream per-cell telemetry (JSONL events) into this directory; a run
    #: through the fabric (``run(parallelism > 1)``, ``run_fabric``)
    #: additionally writes a ``grid.jsonl`` of cell lifecycle and fabric
    #: events.  None (the default) disables the sinks.  Telemetry never
    #: changes campaign results.
    telemetry_dir: str | None = None

    def cell_specs(
        self,
        fuzzer_names: tuple[str, ...] = FUZZER_NAMES,
        faults: "dict | None" = None,
    ) -> list[CellSpec]:
        """The grid's cell specs, in stable (compiler-major) order.

        ``faults`` (test/CI-only) maps a fuzzer name, or a
        ``(fuzzer_name, personality)`` pair, to the :class:`CellFault` to
        inject into that cell.
        """
        registry = self.registry if self.registry is not global_registry else None
        specs = [
            CellSpec(
                fuzzer_name=name,
                personality=compiler.personality,
                version=compiler.version,
                bug_seed=compiler.bug_seed,
                seeds=tuple(self.seeds),
                steps=self.steps,
                cell_seed=stable_cell_seed(name, compiler.name, self.base_seed),
                registry=registry,
                quarantine_threshold=self.quarantine_threshold,
                paranoid=self.paranoid,
                reference=compiler.reference,
                schedule=self.schedule,
                mutator_stats=self.mutator_stats,
                telemetry_dir=self.telemetry_dir,
            )
            for compiler in self.compilers
            for name in fuzzer_names
        ]
        if faults:
            specs = [
                replace(
                    spec,
                    fault=(
                        faults.get((spec.fuzzer_name, spec.personality))
                        or faults.get(spec.fuzzer_name)
                    ),
                )
                for spec in specs
            ]
        return specs

    def run(
        self,
        fuzzer_names: tuple[str, ...] = FUZZER_NAMES,
        parallelism: int = 1,
    ) -> list[CampaignResult]:
        """Run every fuzzer × compiler cell; fan out over processes if asked.

        ``parallelism <= 1`` runs the cells in this process, in order.
        Otherwise the cells drain through the fabric supervisor on
        ``min(parallelism, os.cpu_count())`` workers.  Each cell's RNG is
        seeded from a stable digest of the (fuzzer, compiler) pair and
        every cell is executed from an identical :class:`CellSpec`, so
        ``parallelism=N`` returns the same results as ``parallelism=1``, in
        the same stable order.  A cell that still fails after the fabric's
        retry raises a :class:`RuntimeError` naming every failed cell.
        """
        specs = self.cell_specs(fuzzer_names)
        if parallelism <= 1:
            return run_cells(specs)
        from repro.fabric import run_cells_fabric

        outcomes = run_cells_fabric(
            specs,
            min(parallelism, os.cpu_count() or 1),
            telemetry_dir=self.telemetry_dir,
        )
        failed = [o for o in outcomes if o.failed]
        if failed:
            raise RuntimeError(
                f"{len(failed)} of {len(outcomes)} campaign cells failed: "
                + "; ".join(
                    f"{o.spec.fuzzer_name} on {o.spec.personality}-"
                    f"{o.spec.version} ({o.error_type}: {o.error})"
                    for o in failed
                )
            )
        return [o.result for o in outcomes]

    def run_fabric(
        self,
        fuzzer_names: tuple[str, ...] = FUZZER_NAMES,
        fleet_size: int = 4,
        *,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        cell_timeout: float | None = None,
        cell_retries: int = 1,
        poison_threshold: int = 3,
        checkpoint_dir: str | None = None,
        faults: "dict[str | tuple[str, str], CellFault] | None" = None,
        chaos=None,
    ) -> list[CellOutcome]:
        """The fault-tolerant grid: one :class:`CellOutcome` per cell.

        ``fleet_size`` long-lived workers heartbeat their leases: a dead or
        stalled worker is detected within ``heartbeat_timeout`` seconds and
        its cell is re-dispatched to a survivor, a cell that raises is
        retried up to ``cell_retries`` times and otherwise recorded as a
        failure, a cell that kills ``poison_threshold`` distinct workers
        (a crash, or a hang past ``cell_timeout``) is quarantined as a
        recorded poison failure, and finished cells and worker kills are
        kept under ``checkpoint_dir`` so a rerun resumes mid-grid, serving
        finished cells from their checkpoints and poison cells from the
        kills the journal kept.
        Completed cells are bit-identical to the serial run regardless of
        fleet churn (``chaos``, a
        :class:`~repro.resilience.faultinject.ChaosPlan`, injects that
        churn deterministically in tests/CI).
        """
        from repro.fabric import run_cells_fabric

        return run_cells_fabric(
            self.cell_specs(fuzzer_names, faults),
            fleet_size,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            cell_timeout=cell_timeout,
            cell_retries=cell_retries,
            poison_threshold=poison_threshold,
            checkpoint_dir=checkpoint_dir,
            telemetry_dir=self.telemetry_dir,
            chaos=chaos,
        )
