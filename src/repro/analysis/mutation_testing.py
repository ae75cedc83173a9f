"""Mutation testing with MetaMut mutators (the paper's §6 outlook).

The paper notes that "MetaMut may also be potentially useful in mutation
testing by generating mutators that explore boundary program behaviors."
This module implements that extension: perturb a program under test with the
generated mutators and measure how many mutants a test oracle *kills*
(detects), using the IR interpreter as the execution engine.

Semantic-aware compiler-fuzzing mutators behave differently from classic
mutation-testing operators, exactly as §6 predicts: identity-style mutators
produce equivalent mutants (never killable), while semantics-changing ones
are killed even by weak suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cast.cache import analyze_front_end
from repro.compiler.coverage import CoverageMap
from repro.compiler.irgen import IRGen, LoweringError
from repro.compiler.interp import execute
from repro.muast.mutator import MutatorCrash, MutatorHang, apply_mutator
from repro.muast.registry import MutatorInfo, MutatorRegistry, global_registry


@dataclass
class MutantResult:
    mutator: str
    status: str  # "killed" | "survived" | "equivalent" | "invalid"


@dataclass
class MutationScore:
    """Outcome of a mutation-testing run."""

    results: list[MutantResult] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def killed(self) -> int:
        return self._count("killed")

    @property
    def survived(self) -> int:
        return self._count("survived")

    @property
    def equivalent(self) -> int:
        return self._count("equivalent")

    @property
    def invalid(self) -> int:
        return self._count("invalid")

    @property
    def score(self) -> float:
        """Killed / killable (the standard mutation-score definition)."""
        killable = self.killed + self.survived
        return self.killed / killable if killable else 0.0


def _behaviour(text: str, entry: str, fuel: int):
    front_end = analyze_front_end(text)
    if not front_end.compilable:
        return None
    try:
        module = IRGen(front_end.sema, CoverageMap()).lower(front_end.unit)
    except (LoweringError, RecursionError):
        return None
    return execute(module, entry=entry, fuel=fuel).observable


def mutation_score(
    program: str,
    *,
    mutants_per_mutator: int = 1,
    registry: MutatorRegistry | None = None,
    mutators: list[MutatorInfo] | None = None,
    rng: random.Random | None = None,
    entry: str = "main",
    fuel: int = 250_000,
) -> MutationScore:
    """Run a mutation-testing campaign over ``program``.

    The oracle is the program's own observable behaviour (exit code +
    output): a mutant is *killed* when its behaviour differs, *survived*
    when it behaves identically but the text changed, *equivalent* when the
    mutation was a semantic no-op is indistinguishable — here folded into
    "survived" unless the mutant text equals the original — and *invalid*
    when the mutant does not compile (compile-error mutants are discarded,
    as in classic mutation testing).
    """
    registry = registry or global_registry
    rng = rng or random.Random(0)
    pool = mutators if mutators is not None else list(registry)
    baseline = _behaviour(program, entry, fuel)
    if baseline is None:
        raise ValueError("the program under test must compile and run")
    score = MutationScore()
    for info in pool:
        for trial in range(mutants_per_mutator):
            mutator = info.create(random.Random(rng.randrange(1 << 62)))
            try:
                outcome = apply_mutator(mutator, program)
            except (MutatorCrash, MutatorHang, RecursionError):
                continue
            if not outcome.changed or outcome.mutant_text == program:
                continue
            mutated = _behaviour(outcome.mutant_text, entry, fuel)
            if mutated is None:
                score.results.append(MutantResult(info.name, "invalid"))
            elif mutated != baseline:
                score.results.append(MutantResult(info.name, "killed"))
            else:
                score.results.append(MutantResult(info.name, "survived"))
    return score
