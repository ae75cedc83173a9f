"""The macro fuzzer: μCFuzz plus the long-campaign engineering of §3.4.

Enhancements over Algorithm 1:

1. random sampling of compiler command-line arguments (-O level and the
   ``SAMPLABLE_FLAGS``), which is what reaches flag-gated bugs like
   GCC #111820 (-O3 -fno-tree-vrp);
2. Havoc: several rounds of mutation per mutant for more diverse outputs;
3. a shared coverage map across parallel instances;
4. resource limits on mutant size (the paper limits memory/time so compiler
   bugs cannot take the host down).
"""

from __future__ import annotations

import random

from repro.cast.cache import FrontendCache
from repro.compiler.coverage import CoverageMap
from repro.compiler.driver import Compiler, SAMPLABLE_FLAGS
from repro.muast.mutator import MutatorCrash, MutatorHang, apply_mutator
from repro.muast.registry import MutatorInfo
from repro.resilience.circuit import MutatorQuarantine
from repro.fuzzing.base import CoverageGuidedFuzzer, StepResult

MAX_MUTANT_BYTES = 64 * 1024  # resource limit (enhancement 4)
MAX_HAVOC_ROUNDS = 5


class MacroFuzzer(CoverageGuidedFuzzer):
    """The bug-hunting fuzzer used for the eight-month field experiment."""

    name = "macro"
    step_cost = 0.086

    def __init__(
        self,
        compiler: Compiler,
        rng: random.Random,
        seeds: list[str],
        mutators: list[MutatorInfo],
        shared_coverage: CoverageMap | None = None,
        *,
        cache: FrontendCache | None = None,
        use_cache: bool = True,
        cache_maxsize: int | None = None,
        incremental: bool = True,
        paranoid: bool = False,
        quarantine: MutatorQuarantine | None = None,
    ) -> None:
        super().__init__(compiler, rng, seeds)
        self.mutators = list(mutators)
        if shared_coverage is not None:
            self.coverage = shared_coverage  # enhancement 3
        # Havoc front-ends the intermediate mutant of every round; with the
        # cache, a round after the first takes the dirty-region front end
        # from the previous round's text and edit script.
        if cache is not None:
            self.cache = cache
        elif use_cache:
            self.cache = (
                FrontendCache(maxsize=cache_maxsize)
                if cache_maxsize is not None
                else FrontendCache()
            )
        else:
            self.cache = None
        self.incremental = incremental and self.cache is not None
        self.paranoid = paranoid
        self.quarantine = quarantine

    def sample_options(self) -> tuple[int, tuple[str, ...]]:
        """Enhancement 1: random -O level plus a random flag subset."""
        opt_level = self.rng.choice([0, 1, 2, 2, 2, 3, 3])
        n_flags = self.rng.choice([0, 0, 1, 1, 2])
        flags = tuple(self.rng.sample(SAMPLABLE_FLAGS, n_flags))
        return opt_level, flags

    def step(self) -> StepResult:
        parent = self.pool.random_choice(self.rng)
        mutant = parent.text
        applied: list[str] = []
        rounds = self.rng.randint(1, MAX_HAVOC_ROUNDS)  # enhancement 2
        events_before = (
            len(self.quarantine.events) if self.quarantine is not None else 0
        )
        # Havoc chains mutations: the incremental parent of each round after
        # the first, and of the final compile, is the *last* intermediate
        # text (already front-ended into the cache), not the pool parent.
        edits_from: tuple[str, tuple] | None = None
        hits_before = (
            self.cache.incremental_hits if self.cache is not None else 0
        )
        for _ in range(rounds):
            info = self.mutators[self.rng.randrange(len(self.mutators))]
            if self.quarantine is not None and not self.quarantine.allows(
                info.name
            ):
                continue
            mutated = self._mutate(mutant, info, edits_from)
            if mutated is not None and len(mutated[0]) <= MAX_MUTANT_BYTES:
                if self.incremental:
                    edits_from = (mutant, mutated[1])
                mutant = mutated[0]
                applied.append(info.name)
        if self.cache is not None:
            # Dirty-region front ends of Havoc rounds (the final compile's
            # is not among them); the paranoid macro smoke gates on it.
            self.stats["havoc_incremental_hits"] = (
                self.stats.get("havoc_incremental_hits", 0)
                + self.cache.incremental_hits
                - hits_before
            )
        opt_level, flags = self.sample_options()
        result = self.compiler.compile(
            mutant,
            opt_level=opt_level,
            flags=flags,
            cache=self.cache,
            edits_from=edits_from,
            paranoid=self.paranoid,
        )
        kept = False
        if applied:
            kept = self.keep_if_new_coverage(
                mutant, result, parent, "+".join(applied)
            )
        self.coverage.merge(result.coverage)
        step = StepResult(
            mutant, result, kept=kept, mutator="+".join(applied) or None
        )
        if self.quarantine is not None:
            step.stats = {
                "quarantined": [
                    event.mutator
                    for event in self.quarantine.events[events_before:]
                ]
            }
        return step

    def _mutate(
        self,
        text: str,
        info: MutatorInfo,
        edits_from: tuple[str, tuple] | None = None,
    ) -> tuple[str, tuple] | None:
        """The mutated text plus its edit script, or None on failure/no-op."""
        mutator = info.create(random.Random(self.rng.randrange(1 << 62)))
        try:
            with self.telemetry.span("mutate", mutator=info.name):
                outcome = apply_mutator(
                    mutator, text, cache=self.cache, edits_from=edits_from,
                    paranoid=self.paranoid,
                )
        except (MutatorCrash, MutatorHang, RecursionError) as exc:
            if self.quarantine is not None and self.quarantine.record_failure(
                info.name, type(exc).__name__
            ):
                self.telemetry.emit(
                    "quarantine", info.name, reason=type(exc).__name__
                )
            return None
        if not outcome.changed:
            # No-op applications are not successes: they must not reset the
            # breaker's consecutive-failure streak (see MuCFuzz._mutate).
            return None
        if self.quarantine is not None:
            self.quarantine.record_success(info.name)
        return outcome.mutant_text, outcome.edits
