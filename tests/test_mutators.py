"""The mutator library: per-mutator compilability plus flagship behaviours."""

import gc
import operator
import random

import pytest

import repro.mutators  # noqa: F401
from repro.cast.cache import analyze_front_end
from repro.cast.parser import ParseError, parse
from repro.cast.sema import Sema
from repro.fuzzing.seedgen import generate_seeds
from repro.metamut.testgen import tests_for as programs_for
from repro.muast import apply_mutator
from repro.muast.mutator import context_for_entry
from repro.muast.registry import global_registry
from repro.mutators.catalog import catalog_summary, verify_catalog
from repro.mutators.expression import CopyExprPairs

ALL_NAMES = global_registry.names()

#: Mutators documented to sometimes produce non-compiling mutants (the paper
#: kept StructToInt in M_u precisely because its invalid mutants crash
#: compiler front ends, e.g. Clang #69213).
MAY_BREAK_COMPILATION = {"StructToInt"}


def _compiles(text):
    try:
        unit = parse(text)
    except (ParseError, RecursionError):
        return False
    return not [d for d in Sema().analyze(unit) if d.severity == "error"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_mutator_applies_and_preserves_compilability(name):
    """Every library mutator applies to its tests and emits compilable
    mutants (the paper's validity definition)."""
    info = global_registry.get(name)
    tests = programs_for(info.structure, info.description)
    applied = 0
    for program in tests:
        for trial in range(4):
            mutator = info.create(random.Random(trial * 97 + 5))
            outcome = apply_mutator(mutator, program)
            if not outcome.changed or outcome.mutant_text == program:
                continue
            applied += 1
            if name not in MAY_BREAK_COMPILATION:
                assert _compiles(outcome.mutant_text), (
                    f"{name} produced a non-compiling mutant:\n"
                    f"{outcome.mutant_text}"
                )
    assert applied > 0, f"{name} never applied to its own test programs"


class TestCatalogShape:
    def test_census_matches_section_4_1(self):
        verify_catalog()

    def test_category_split(self):
        s = catalog_summary()
        assert s.by_category == {
            "Variable": 16, "Expression": 50, "Statement": 27,
            "Function": 19, "Type": 6,
        }

    def test_creative_count(self):
        assert catalog_summary().creative == 33

    def test_overlap_pairs(self):
        pairs = catalog_summary().overlap_pairs
        assert len(pairs) == 6
        assert ("ModifyIntegerLiteral", "ReplaceLiteralWithRandomValue") in pairs

    def test_every_mutator_has_description(self):
        for info in global_registry:
            assert len(info.description) > 20
            assert info.action and info.structure


class TestFlagshipBehaviours:
    """Spot-check the mutators behind the paper's case studies."""

    def _apply(self, name, program, seed=3, tries=30):
        info = global_registry.get(name)
        for trial in range(tries):
            outcome = apply_mutator(
                info.create(random.Random(seed + trial)), program
            )
            if outcome.changed and outcome.mutant_text != program:
                return outcome.mutant_text
        return None

    def test_ret2v_removes_returns_and_calls(self):
        program = (
            "unsigned foo(void) { if (foo()) return 2u; return 7u; }\n"
            "int main(void) { return 0; }\n"
        )
        mutant = self._apply("ModifyFunctionReturnTypeToVoid", program)
        assert mutant is not None
        assert "void foo" in mutant
        assert "return 2u" not in mutant and "return 7u" not in mutant
        assert _compiles(mutant)

    def test_duplicate_branch_copies_one_side(self):
        program = (
            "int f(int x) { if (x) { x = 1; } else { x = 2; } return x; }"
        )
        mutant = self._apply("DuplicateBranch", program)
        assert mutant is not None
        assert mutant.count("x = 1") == 2 or mutant.count("x = 2") == 2

    def test_switch_init_expr_swaps(self):
        program = (
            "int g = 9;\n"
            "int main(void) { int a = 3; int b = g; return a + b; }\n"
        )
        mutant = self._apply("SwitchInitExpr", program)
        assert mutant is not None
        assert "int a = g" in mutant and "int b = 3" in mutant

    def test_inverse_unary_operator_doubles(self):
        program = "int f(int a) { return -a; }"
        mutant = self._apply("InverseUnaryOperator", program)
        assert mutant is not None and "-(-a)" in mutant

    def test_transform_switch_to_if_else(self):
        program = (
            "int f(int x) {\n"
            "  switch (x) { case 1: x = 10; break; case 2: x = 20; break;\n"
            "    default: x = 30; }\n"
            "  return x;\n"
            "}"
        )
        mutant = self._apply("TransformSwitchToIfElse", program)
        assert mutant is not None
        assert "switch" not in mutant
        assert "else" in mutant
        assert _compiles(mutant)

    def test_reduce_array_dimension(self):
        program = (
            "int r[6];\n"
            "void f(void) { r[0] += r[5]; r[1] += r[0]; }\n"
            "int main(void) { f(); return 0; }\n"
        )
        mutant = self._apply("ReduceArrayDimension", program)
        assert mutant is not None
        assert "int r;" in mutant or "int r ;" in mutant
        assert "r[0]" not in mutant
        assert _compiles(mutant)

    def test_change_param_scope(self):
        program = (
            "int r;\n"
            "void f(int n) { while (n > 0) { r += n; n--; } }\n"
            "int main(void) { f(5); return r; }\n"
        )
        mutant = self._apply("ChangeParamScope", program)
        assert mutant is not None
        assert "f(5)" not in mutant  # the argument was removed
        assert "n = 0" in mutant  # ...and n became a zero-initialized local
        assert _compiles(mutant)

    def test_combine_variable_rewrites_refs(self):
        program = (
            "_Complex double x;\n"
            "int *bar(void) { return (int *)&__imag x; }\n"
            "int main(void) { return 0; }\n"
        )
        mutant = self._apply("CombineVariable", program)
        assert mutant is not None
        assert "combinedVar" in mutant
        assert "(char *)" in mutant
        assert _compiles(mutant)

    def test_simple_uninliner_extracts_block(self):
        program = (
            "int g1; int g2;\n"
            "int main(void) { { g1 += 2; g2 ^= g1; } return g1; }\n"
        )
        mutant = self._apply("SimpleUninliner", program)
        assert mutant is not None
        assert "uninlined" in mutant
        assert _compiles(mutant)

    def test_change_qualifier_can_make_const_volatile(self):
        program = (
            "static char buffer[32];\n"
            "int test4(void) { return sprintf(buffer, \"%s\", \"bar\"); }\n"
            "int main(void) { return test4(); }\n"
        )
        info = global_registry.get("ChangeVarDeclQualifier")
        saw_const_volatile = False
        for trial in range(40):
            outcome = apply_mutator(info.create(random.Random(trial)), program)
            if outcome.changed and "const volatile" in (outcome.mutant_text or ""):
                saw_const_volatile = True
                assert _compiles(outcome.mutant_text)
                break
        assert saw_const_volatile

    def test_copy_expr_type_compatibility(self):
        program = (
            "static char buffer[32];\n"
            "int main(void) { int n = sprintf(buffer, \"%s\", \"bar\"); "
            "printf(\"%d\", n); return 0; }\n"
        )
        info = global_registry.get("CopyExpr")
        for trial in range(60):
            outcome = apply_mutator(info.create(random.Random(trial)), program)
            if outcome.changed and outcome.mutant_text != program:
                assert _compiles(outcome.mutant_text)

    def test_mutators_are_deterministic_given_rng(self):
        program = "int f(int a) { return a + 1 * 2; }"
        info = global_registry.get("ModifyIntegerLiteral")
        first = apply_mutator(info.create(random.Random(9)), program)
        second = apply_mutator(info.create(random.Random(9)), program)
        assert first.mutant_text == second.mutant_text


class TestCopyExprPairs:
    """The indexed pair view == the eager pair list it replaced."""

    @staticmethod
    def _bound_copy_expr(text):
        entry = analyze_front_end(text)
        if not entry.compilable:
            return None
        mutator = global_registry.get("CopyExpr").create(random.Random(0))
        mutator.bind(context_for_entry(entry))
        return mutator

    @staticmethod
    def _eager_pairs(rows):
        """The historical construction: every candidate but equal spans."""
        pairs = []
        for tgt, candidates, _ in rows:
            tgt_span = (tgt.range.begin.offset, tgt.range.end.offset)
            for span, src in candidates:
                if span != tgt_span:
                    pairs.append((tgt, src))
        return pairs

    def test_view_matches_eager_pairs_elementwise(self):
        # Every index of every tenth generated seed program: 2.6M pairs.
        # (All 300 programs hold 35.9M pairs, too many for tier-1.)
        checked = 0
        for text in generate_seeds(300)[::10]:
            mutator = self._bound_copy_expr(text)
            if mutator is None:
                continue
            rows = mutator._candidate_rows()
            view = CopyExprPairs(rows)
            # Millions of short-lived tuples: keep the collector out of it.
            gc.disable()
            try:
                eager = self._eager_pairs(rows)
                assert len(view) == len(eager)
                got = list(map(view.__getitem__, range(len(view))))
                assert all(map(operator.is_, (a for a, _ in got), (a for a, _ in eager)))
                assert all(map(operator.is_, (b for _, b in got), (b for _, b in eager)))
            finally:
                gc.enable()
            checked += len(eager)
        assert checked > 2_000_000

    def test_view_indexing_edges(self, small_seeds):
        mutator = self._bound_copy_expr(small_seeds[0])
        rows = mutator._candidate_rows()
        assert any(skips for _, _, skips in rows)  # equal-span skips occur
        view = CopyExprPairs(rows)
        eager = self._eager_pairs(rows)
        assert view[-1] == eager[-1] and view[-len(view)] == eager[0]
        with pytest.raises(IndexError):
            view[len(view)]
        assert not CopyExprPairs([])
        # The memo holds the view, so rand_element draws from it.
        mutator.mutate()
        memo = mutator.get_ast_context().memo["CopyExpr.instances"]
        assert type(memo) is CopyExprPairs and len(memo) == len(eager)
