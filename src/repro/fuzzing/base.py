"""The common fuzzing loop contract.

A fuzzer produces one test program per ``step``; the campaign runner compiles
it, advances the virtual clock, feeds coverage back, and records crashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.compiler.driver import Compiler, CompileResult
from repro.compiler.coverage import CoverageMap
from repro.fuzzing.corpus import Corpus, ProgramEntry
from repro.fuzzing.schedule import MUTATOR_STAT_KEYS
from repro.telemetry import TelemetrySession


@dataclass
class StepResult:
    program: str
    result: CompileResult
    #: Whether the program was added back to the pool (coverage-guided only).
    kept: bool = False
    mutator: str | None = None


class Fuzzer:
    """Base class: one compile per step, optional coverage feedback."""

    name = "fuzzer"
    #: Modeled per-program generation cost in seconds, used to extrapolate
    #: 24-hour throughput (Table 5 "Total").  Calibrated to the paper's
    #: reported totals: AFL++ ≈ 2.15M programs/24 h, μCFuzz/GrayC ≈ 1M,
    #: YARPGen ≈ 76 k, Csmith ≈ 31 k.
    step_cost: float = 0.086

    def __init__(self, compiler: Compiler, rng: random.Random) -> None:
        self.compiler = compiler
        self.rng = rng
        self.coverage = CoverageMap()
        #: The run's telemetry (sink-less by default: deterministic
        #: counters and the wall profile only).  ``self.stats`` *is* the
        #: session's ``counters`` dict; subclasses add their own keys.
        self.telemetry = TelemetrySession()
        self.stats: dict = self.telemetry.counters
        #: Optional per-mutator circuit breaker
        #: (:class:`repro.resilience.circuit.MutatorQuarantine`); fuzzers
        #: that apply mutators consult and feed it.
        self.quarantine = None
        #: Optional evolutionary scheduler
        #: (:class:`repro.fuzzing.schedule.MutatorScheduler`); mutation
        #: fuzzers that track per-mutator yield stats feed it.
        self.scheduler = None

    def step(self) -> StepResult:
        raise NotImplementedError

    def record_mutator_yield(
        self,
        name: str,
        *,
        changed: bool = False,
        compiled: bool = False,
        crashed: bool = False,
        coverage_gain: int = 0,
    ) -> None:
        """Fold one mutation attempt into the per-mutator yield counters.

        A strict no-op unless the fuzzer zero-filled ``mutator_stats``
        (scheduler on, or ``mutator_stats=True``): recording consumes no
        randomness and never touches control flow, so tracked and
        untracked runs produce identical fuzzing results.
        """
        table = self.stats.get("mutator_stats")
        if table is None:
            return
        rec = table.get(name)
        if rec is None:  # a mutator outside the zero-filled set
            rec = table[name] = dict.fromkeys(MUTATOR_STAT_KEYS, 0)
        rec["attempts"] += 1
        if changed:
            rec["changed"] += 1
        if compiled:
            rec["compiled"] += 1
        if crashed:
            rec["crashes"] += 1
        if coverage_gain:
            rec["coverage_gain"] += coverage_gain

    def adopt_telemetry(self, session: TelemetrySession) -> None:
        """Re-home this fuzzer's counters onto an external (sinked) session.

        Counters and wall totals recorded so far carry over, the compiler's
        stage spans are routed into the session's sink/clock, and
        ``self.stats`` becomes the session's ``counters``.  Adopting a
        session changes only where telemetry lands, never the fuzzing
        results.
        """
        session.counters.update(self.stats)
        session.wall.update(self.telemetry.wall)
        self.telemetry = session
        self.stats = session.counters
        session.attach_compiler(self.compiler)

    def stats_snapshot(self) -> dict:
        """The cumulative *deterministic* stats, for campaign reporting.

        Wall-clock profile data (stage timings, span durations) is excluded
        here by construction — see :meth:`profile_snapshot` — so campaign
        results can be compared across serial/parallel/incremental runs
        without any caller stripping timing keys.
        """
        snap = dict(self.stats)
        if self.quarantine is not None:
            snap.update(self.quarantine.stats())
        return snap

    def profile_snapshot(self) -> dict:
        """The wall-clock profile: real, machine-dependent, never compared."""
        profile: dict = {
            "stage_timings": {
                stage: round(seconds, 4)
                for stage, seconds in sorted(self.compiler.stage_timings.items())
            }
        }
        if self.telemetry.wall:
            profile["spans"] = {
                name: round(seconds, 4)
                for name, seconds in sorted(self.telemetry.wall.items())
            }
        return profile


class CoverageGuidedFuzzer(Fuzzer):
    """Shared Algorithm-1 style pool handling."""

    def __init__(
        self, compiler: Compiler, rng: random.Random, seeds: list[str]
    ) -> None:
        super().__init__(compiler, rng)
        self.pool = Corpus.from_texts(seeds)
        self._generation = 0

    def keep_if_new_coverage(
        self, text: str, result: CompileResult, parent: ProgramEntry, mutator: str
    ) -> bool:
        """P' joins the pool iff it covers a branch nothing in P covers."""
        if self.coverage.covers(result.coverage):
            return False
        self._generation += 1
        self.pool.add(
            ProgramEntry(
                text,
                seed_id=parent.seed_id,
                generation=parent.generation + 1,
                parent=parent.seed_id,
                mutator=mutator,
            )
        )
        return True

    def release_unpooled(self, texts) -> None:
        """Forget what this step built for ``texts`` outside the pool.

        Called at the end of a step with every text the step front-ended or
        compiled.  Each one that is not a pool member loses its entry in
        the fuzzer's front-end cache (``self.cache``) and the
        compile-session records its compiles made for the declarations its
        mutation changed.  Both stores are pure caches, so no outcome
        changes; what stays is what the pool reuses.
        """
        session = self.compiler.compile_session
        for text in texts:
            if text in self.pool:
                continue
            entry = self.cache.release(text)
            if entry is not None:
                session.release(entry)
