"""GrayC-style greybox fuzzing with five hand-written semantic mutators.

GrayC ships exactly five carefully designed semantic-aware mutators (§5.2
footnote: ``./grayc --list-mutations``) and validates mutants before emitting
them, which is why ~99% of its outputs compile.  The five below follow the
GrayC paper's categories: constant replacement, statement deletion,
statement duplication, function-call argument mutation, and control-flow
injection.
"""

from __future__ import annotations

import random

from repro.cast import ast_nodes as ast
from repro.cast.cache import FrontendCache
from repro.cast.rewriter import Rewriter
from repro.compiler.driver import Compiler
from repro.fuzzing.base import CoverageGuidedFuzzer, StepResult

GRAYC_MUTATORS = (
    "ConstantReplacement",
    "DeleteStatement",
    "DuplicateStatement",
    "FunctionCallMutation",
    "InjectControlFlow",
)


class GrayCSim(CoverageGuidedFuzzer):
    name = "GrayC"
    step_cost = 0.088  # ≈983k programs / 24 h (Table 5)

    def __init__(
        self,
        compiler: Compiler,
        rng: random.Random,
        seeds: list[str],
        *,
        paranoid: bool = False,
    ) -> None:
        super().__init__(compiler, rng, seeds)
        #: Each text is front-ended once: the parent through the cache, the
        #: mutant by the dirty-region front end from the parent's entry
        #: (its validation), and the compile is then a cache hit.  The
        #: step releases the validated mutant unless the pool kept it.
        #: ``paranoid=True`` cross-checks both reuses against from-scratch
        #: work.
        self.cache = FrontendCache(paranoid=paranoid)

    def step(self) -> StepResult:
        parent = self.pool.random_choice(self.rng)
        mutator = self.rng.choice(GRAYC_MUTATORS)
        validated = self._apply(parent.text, mutator)
        mutant = parent.text
        if validated is not None and validated[1]:
            mutant = validated[0]
        result = self.compiler.compile(mutant, cache=self.cache)
        kept = self.keep_if_new_coverage(mutant, result, parent, mutator)
        self.coverage.merge(result.coverage)
        if validated is not None:
            self.release_unpooled((validated[0],))
        return StepResult(mutant, result, kept=kept, mutator=mutator)

    # ------------------------------------------------------------------

    def _apply(self, text: str, mutator: str) -> tuple[str, bool] | None:
        """The rewritten text and whether it compiles, or None (no rewrite)."""
        entry = self.cache.front_end(text)
        if entry.unit is None:
            return None
        source = entry.source
        rewriter = Rewriter(source)
        handler = getattr(self, f"_mut_{mutator}")
        if not handler(entry.unit, source, rewriter):
            return None
        mutant = rewriter.rewritten_text()
        # GrayC validates before emitting; the step falls back to the parent
        # when the mutant is broken (this is what keeps its compilable ratio
        # ~99%).
        checked = self.cache.front_end_from(
            mutant, (text, rewriter.edit_script())
        )
        return mutant, checked.compilable

    def _mut_ConstantReplacement(self, unit, source, rewriter) -> bool:
        literals = [n for n in unit.walk() if isinstance(n, ast.IntegerLiteral)]
        if not literals:
            return False
        lit = literals[self.rng.randrange(len(literals))]
        value = self.rng.choice([0, 1, 2, 255, 4096, 0x7FFFFFFF, 64])
        return rewriter.replace_text(lit.range, str(value))

    def _removable(self, unit) -> list[ast.Stmt]:
        out = []
        for node in unit.walk():
            if not isinstance(node, ast.CompoundStmt):
                continue
            for stmt in node.stmts:
                if isinstance(stmt, (ast.ExprStmt, ast.ReturnStmt, ast.NullStmt)):
                    out.append(stmt)
        return out

    def _mut_DeleteStatement(self, unit, source, rewriter) -> bool:
        stmts = [
            s for s in self._removable(unit) if not isinstance(s, ast.ReturnStmt)
        ]
        if not stmts:
            return False
        stmt = stmts[self.rng.randrange(len(stmts))]
        return rewriter.remove_text(stmt.range)

    def _mut_DuplicateStatement(self, unit, source, rewriter) -> bool:
        stmts = self._removable(unit)
        if not stmts:
            return False
        stmt = stmts[self.rng.randrange(len(stmts))]
        text = source.slice(stmt.range)
        return rewriter.insert_text_after(stmt.range.end, "\n" + text)

    def _mut_FunctionCallMutation(self, unit, source, rewriter) -> bool:
        calls = [
            n
            for n in unit.walk()
            if isinstance(n, ast.CallExpr)
            and n.args
            and n.args[0].type is not None
            and n.args[0].type.is_integer()
        ]
        if not calls:
            return False
        call = calls[self.rng.randrange(len(calls))]
        arg = call.args[self.rng.randrange(len(call.args))]
        if arg.type is None or not arg.type.is_integer():
            return False
        return rewriter.replace_text(arg.range, str(self.rng.randint(-8, 1024)))

    def _mut_InjectControlFlow(self, unit, source, rewriter) -> bool:
        stmts = self._removable(unit)
        if not stmts:
            return False
        stmt = stmts[self.rng.randrange(len(stmts))]
        text = source.slice(stmt.range)
        snippet = self.rng.choice(
            [
                f"if (0) {{ {text} }}",
                "do { ; } while (0);",
                f"while (0) {{ {text} }}",
            ]
        )
        return rewriter.insert_text_after(stmt.range.end, "\n" + snippet)
