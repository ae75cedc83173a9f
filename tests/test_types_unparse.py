"""Type-system rules and the unparser's fixpoint property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cast import types as ct
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.cast.unparse import declare, unparse
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
import random


class TestTypePredicates:
    def test_int_is_arithmetic_scalar(self):
        assert ct.INT.is_integer() and ct.INT.is_arithmetic() and ct.INT.is_scalar()

    def test_pointer_is_scalar_not_arithmetic(self):
        assert ct.INT_PTR.is_scalar() and not ct.INT_PTR.is_arithmetic()

    def test_array_decay(self):
        arr = ct.array_of(ct.CHAR, 8)
        assert arr.decayed().is_pointer()
        assert arr.decayed().pointee() == ct.CHAR

    def test_complex_is_arithmetic_scalar(self):
        # _Complex double is an arithmetic (hence scalar) type in C.
        assert ct.COMPLEX_DOUBLE.is_arithmetic()
        assert ct.COMPLEX_DOUBLE.is_complex()
        assert not ct.COMPLEX_DOUBLE.is_integer()

    def test_qualifier_stripping(self):
        qt = ct.QualType(ct.BuiltinType(ct.BuiltinKind.INT), const=True)
        assert qt.const and not qt.unqualified().const
        assert qt.unqualified() is ct.INT
        assert ct.INT.with_const() is ct.builtin(ct.BuiltinKind.INT, const=True)
        assert ct.INT.with_const().unqualified() is ct.INT

    def test_front_end_shares_builtin_types(self):
        unit = parse(
            "const volatile unsigned long g; unsigned char c = 1;\n"
            "float f(float x, short s) { return x * 2 + s + c; }"
        )
        Sema().analyze(unit)
        found = set()
        for node in unit.walk():
            for qt in (getattr(node, "type", None),
                       getattr(node, "return_type", None)):
                if qt is not None and type(qt.type) is ct.BuiltinType:
                    assert qt is ct.builtin(qt.type.kind, qt.const, qt.volatile)
                    found.add((qt.type.kind, qt.const, qt.volatile))
        assert {
            (ct.BuiltinKind.ULONG, True, True), (ct.BuiltinKind.UCHAR, False, False),
            (ct.BuiltinKind.FLOAT, False, False), (ct.BuiltinKind.SHORT, False, False),
        } <= found


class TestConversions:
    def test_integer_promotion_of_char(self):
        assert ct.integer_promote(ct.CHAR) == ct.INT

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (ct.INT, ct.INT, ct.INT),
            (ct.INT, ct.UINT, ct.UINT),
            (ct.INT, ct.LONG, ct.LONG),
            (ct.INT, ct.DOUBLE, ct.DOUBLE),
            (ct.FLOAT, ct.INT, ct.FLOAT),
            (ct.CHAR, ct.CHAR, ct.INT),
            (ct.COMPLEX_DOUBLE, ct.DOUBLE, ct.COMPLEX_DOUBLE),
        ],
    )
    def test_usual_arithmetic_conversions(self, a, b, expected):
        assert ct.usual_arithmetic_conversions(a, b) == expected

    def test_no_conversion_for_pointers(self):
        assert ct.usual_arithmetic_conversions(ct.INT_PTR, ct.INT) is None


class TestAssignability:
    @pytest.mark.parametrize(
        "lhs,rhs,ok",
        [
            (ct.INT, ct.DOUBLE, True),
            (ct.DOUBLE, ct.INT, True),
            (ct.INT_PTR, ct.INT_PTR, True),
            (ct.VOID_PTR, ct.INT_PTR, True),
            (ct.INT_PTR, ct.VOID_PTR, True),
            (ct.INT_PTR, ct.CHAR_PTR, False),
            (ct.INT_PTR, ct.INT, True),  # int->ptr: warning-level in C
            (ct.INT, ct.array_of(ct.INT, 4), False),
        ],
    )
    def test_assignable(self, lhs, rhs, ok):
        assert ct.assignable(lhs, rhs) is ok

    def test_const_pointee_ignored_like_warning(self):
        src = ct.pointer_to(ct.CHAR.with_const())
        assert ct.assignable(ct.CHAR_PTR, src)


class TestDeclare:
    @pytest.mark.parametrize(
        "qt,name,expected",
        [
            (ct.INT, "x", "int x"),
            (ct.pointer_to(ct.CHAR), "s", "char *s"),
            (ct.array_of(ct.INT, 8), "a", "int a[8]"),
            (ct.array_of(ct.pointer_to(ct.INT), 4), "p", "int *p[4]"),
            (ct.QualType(ct.BuiltinType(ct.BuiltinKind.INT), const=True), "c", "const int c"),
        ],
    )
    def test_declaration_spelling(self, qt, name, expected):
        assert declare(qt, name) == expected

    def test_declared_text_reparses_to_same_type(self):
        for qt in (ct.INT, ct.pointer_to(ct.DOUBLE), ct.array_of(ct.LONG, 3)):
            text = declare(qt, "v") + ";"
            decl = parse(text).decls[0]
            assert decl.type == qt


def _compiles(text):
    return not [d for d in Sema().analyze(parse(text)) if d.severity == "error"]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_unparse_fixpoint_on_generated_programs(seed):
    """unparse ∘ parse stabilizes after one normalization round, and the
    normalized program still compiles."""
    gen = ProgramGenerator(random.Random(seed), GenPolicy(max_stmts=6))
    program = gen.generate()
    once = unparse(parse(program))
    twice = unparse(parse(once))
    assert unparse(parse(twice)) == twice
    assert _compiles(twice)


def test_unparse_fixpoint_on_testgen_snippets():
    from repro.metamut.testgen import all_snippets

    for snippet in all_snippets():
        once = unparse(parse(snippet))
        twice = unparse(parse(once))
        assert unparse(parse(twice)) == twice
        assert _compiles(twice)
