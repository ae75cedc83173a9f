"""Validation of synthesized mutators: goals #1-#6 of §3.3.

Given a tentative implementation and the LLM-generated test programs P, the
validator checks, from the simplest goal to the most complex:

  #1 the mutator compiles;          #4 it outputs something;
  #2 it terminates (no hang);       #5 it actually rewrites;
  #3 it returns (no crash);         #6 its mutants P' compile.

The first unmet goal becomes the feedback sent back to the LLM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cast.cache import analyze_front_end
from repro.llm.model import Implementation
from repro.muast.mutator import MutatorHang, apply_mutator

#: RNG retries per test program — mutators select instances randomly, so one
#: unlucky draw must not count as "outputs nothing".
ATTEMPTS_PER_TEST = 4


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    goal: int | None  # None = all goals met
    case: int = 0
    detail: str = ""
    #: For goals #2/#3: the exception type the mutator raised, feeding the
    #: refinement loop's fault-category census.
    fault_type: str = ""

    @property
    def passed(self) -> bool:
        return self.goal is None


def _mutant_compiles(text: str) -> str | None:
    """None if the mutant compiles, else the first diagnostic."""
    entry = analyze_front_end(text)
    if entry.unit is None:
        return f"error: {entry.parse_error}"
    errors = entry.error_diagnostics
    return errors[0].message if errors else None


def validate_implementation(
    impl: Implementation,
    tests: list[str],
    rng: random.Random,
) -> ValidationReport:
    """Run the goal ladder; return the first violation (or success)."""
    # Goal #1: the implementation itself must compile.
    if impl.has_compile_fault():
        return ValidationReport(1, 0, "syntax error in the mutator source")

    produced_any = False
    rewrote_any = False
    identical_case: int | None = None
    for case, program in enumerate(tests):
        for _attempt in range(ATTEMPTS_PER_TEST):
            mutator = impl.instantiate(
                random.Random(rng.randrange(1 << 62))
            )
            try:
                outcome = apply_mutator(mutator, program)
            except MutatorHang as exc:  # goal #2
                return ValidationReport(
                    2, case, str(exc), fault_type=type(exc).__name__
                )
            except Exception as exc:  # goal #3: any unhandled exception,
                # MutatorCrash or otherwise, is observed as a crash
                return ValidationReport(
                    3,
                    case,
                    f"{type(exc).__name__}: {exc}",
                    fault_type=type(exc).__name__,
                )
            if not outcome.changed:
                continue
            produced_any = True
            assert outcome.mutant_text is not None
            if outcome.mutant_text == program:
                # Claimed a change but produced identical output.  Only a
                # mutator that *never* rewrites violates goal #5 — a random
                # draw that happens to be a no-op (0 → 0) is not a bug.
                identical_case = case
                continue
            rewrote_any = True
            diagnostic = _mutant_compiles(outcome.mutant_text)
            if diagnostic is not None:  # goal #6
                return ValidationReport(6, case, diagnostic)
    if not produced_any:  # goal #4
        return ValidationReport(4, 0, "no mutant produced on any test case")
    if not rewrote_any:  # goal #5
        return ValidationReport(
            5, identical_case or 0, "output identical to input"
        )
    return ValidationReport(None)
