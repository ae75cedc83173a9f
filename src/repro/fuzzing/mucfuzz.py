"""μCFuzz: the paper's micro coverage-guided fuzzer (Algorithm 1).

Each iteration picks a random pool program, applies mutators in a random
order, and keeps the first mutant that covers a new branch.  No Havoc, no
mopt, no fork server, no pool culling — deliberately simple (§3.4).

Performance: all mutation attempts of one iteration target the same parent
program, so the front end (lex/parse/sema) of the parent is computed once
and shared through the fuzzer's :class:`~repro.cast.cache.FrontendCache`.
The same cache backs ``Compiler.compile``'s front-end stage: a mutant takes
the dirty-region front end from its parent's entry and edit script, and a
no-op round's recompile is a cache hit.  Every compile then replays each
function the compiler's :class:`~repro.compiler.session.CompileSession` has
already compiled (a mutant's unchanged siblings).  The object-IR reference
compiler (``Compiler(reference=True)``) ignores the cache and compiles every
program from scratch; only the mutators' front end still shares it.  At the
end of each step the mutants that did not enter the pool are released from
the cache and the session, so both hold what the pool reuses.
"""

from __future__ import annotations

import random

from repro.cast.cache import FrontendCache
from repro.compiler.driver import Compiler
from repro.muast.mutator import MutatorCrash, MutatorHang, apply_mutator
from repro.muast.registry import MutatorInfo
from repro.resilience.circuit import MutatorQuarantine
from repro.fuzzing.base import CoverageGuidedFuzzer, StepResult
from repro.fuzzing.schedule import MutatorScheduler, zero_mutator_stats

#: How many mutators of the shuffled list one iteration may try before
#: giving up (a timeslice; Algorithm 1's inner loop is unbounded).
MAX_TRIES_PER_ITERATION = 6


class MuCFuzz(CoverageGuidedFuzzer):
    """μCFuzz.s / μCFuzz.u, depending on the mutator set it is given."""

    step_cost = 0.086  # ≈1M mutants / 24 h, matching GrayC-class throughput

    def __init__(
        self,
        compiler: Compiler,
        rng: random.Random,
        seeds: list[str],
        mutators: list[MutatorInfo],
        name: str = "uCFuzz",
        *,
        paranoid: bool = False,
        quarantine: MutatorQuarantine | None = None,
        scheduler: MutatorScheduler | None = None,
        mutator_stats: bool | None = None,
    ) -> None:
        super().__init__(compiler, rng, seeds)
        self.mutators = list(mutators)
        self.name = name
        #: ``paranoid=True`` cross-checks every dirty-region front end and
        #: every compile through the cache against from-scratch work.
        self.cache = FrontendCache(paranoid=paranoid)
        #: Evolutionary outer loop: a seeded fitness-proportional bandit
        #: that reorders each step's mutator try-list from the per-mutator
        #: yield stats.  ``None`` (the default) keeps the paper's uniform
        #: Algorithm 1 ordering byte-for-byte.
        self.scheduler = scheduler
        if mutator_stats is None:
            mutator_stats = scheduler is not None
        elif not mutator_stats and scheduler is not None:
            raise ValueError("a MutatorScheduler requires mutator_stats")
        self.quarantine = quarantine
        self.stats.update(
            {
                "steps": 0,
                "attempts": 0,
                "mutator_failures": 0,
                "unchanged": 0,
            }
        )
        if quarantine is not None:
            # Zero-filled up front: a cell that never skips still carries
            # the key, so grid merge_stats summaries are schema-uniform.
            self.stats.setdefault("quarantine_skips", 0)
        if mutator_stats:
            self.stats["mutator_stats"] = zero_mutator_stats(
                info.name for info in self.mutators
            )
        if scheduler is not None:
            scheduler.attach(self.stats["mutator_stats"], quarantine)

    def stats_snapshot(self) -> dict:
        # The reference pipeline never runs the compile session, so its
        # counters would only read as a session that never hit.
        has_session = not self.compiler.reference
        snap = super().stats_snapshot()
        snap.update(self.cache.stats())
        if self.scheduler is not None:
            snap.update(self.scheduler.stats())
        if has_session:
            snap.update(self.compiler.compile_session.stats())
            snap["middle_incremental_hits"] = (
                self.compiler.middle_incremental_hits
            )
            snap["middle_incremental_fallbacks"] = (
                self.compiler.middle_incremental_fallbacks
            )
        steps = snap.get("steps", 0)
        snap["attempts_per_step"] = snap["attempts"] / steps if steps else 0.0
        return snap

    def step(self) -> StepResult:
        self.stats["steps"] += 1
        parent = self.pool.random_choice(self.rng)
        order = list(self.mutators)
        # The uniform shuffle always runs (same fuzzer-RNG draws with the
        # scheduler on or off); the scheduler then reorders the shuffled
        # list using only its own seeded RNG — RNG-neutral by construction.
        self.rng.shuffle(order)
        if self.scheduler is not None:
            retired = len(self.scheduler.retired)
            order = self.scheduler.order(order)
            for name in list(self.scheduler.retired)[retired:]:
                self.telemetry.emit(
                    "quarantine", name, reason="retired",
                    step=self.stats["steps"],
                )
        step: StepResult | None = None
        mutants: list[str] = []
        for info in order[:MAX_TRIES_PER_ITERATION]:
            if self.quarantine is not None and not self.quarantine.allows(
                info.name
            ):
                self.stats["quarantine_skips"] += 1
                continue
            self.stats["attempts"] += 1
            mutated = self._mutate(parent.text, info)
            if mutated is None or mutated[0] == parent.text:
                self.stats["unchanged"] += 1
                self.record_mutator_yield(info.name)
                continue
            mutant, edits = mutated
            mutants.append(mutant)
            result = self.compiler.compile(
                mutant, cache=self.cache, edits_from=(parent.text, edits)
            )
            kept = self.keep_if_new_coverage(mutant, result, parent, info.name)
            covered_before = len(self.coverage)
            self.coverage.merge(result.coverage)
            self.record_mutator_yield(
                info.name,
                changed=True,
                compiled=result.ok,
                crashed=result.crashed,
                coverage_gain=len(self.coverage) - covered_before,
            )
            step = StepResult(mutant, result, kept=kept, mutator=info.name)
            if kept or result.crashed:
                break
        if step is None:
            # Nothing mutated this round; recompile the parent (a no-op round).
            result = self.compiler.compile(parent.text, cache=self.cache)
            self.coverage.merge(result.coverage)
            step = StepResult(parent.text, result, kept=False, mutator=None)
        self.release_unpooled(mutants)
        return step

    def _mutate(self, text: str, info: MutatorInfo) -> tuple[str, tuple] | None:
        """The mutated text plus its edit script, or None on failure/no-op."""
        mutator = info.create(random.Random(self.rng.randrange(1 << 62)))
        try:
            with self.telemetry.span("mutate", mutator=info.name):
                outcome = apply_mutator(mutator, text, cache=self.cache)
        except (MutatorCrash, MutatorHang, RecursionError) as exc:
            self.stats["mutator_failures"] += 1
            if self.quarantine is not None and self.quarantine.record_failure(
                info.name, type(exc).__name__
            ):
                self.telemetry.emit(
                    "quarantine", info.name, reason=type(exc).__name__,
                    step=self.stats["steps"],
                )
            return None
        if not outcome.changed:
            # A no-op application is not a success: it must not reset the
            # breaker's consecutive-failure streak, or a mutator that
            # crashes intermittently but otherwise only no-ops would dodge
            # quarantine forever.
            return None
        if self.quarantine is not None:
            self.quarantine.record_success(info.name)
        return outcome.mutant_text, outcome.edits
