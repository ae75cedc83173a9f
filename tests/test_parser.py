"""Parser unit tests: grammar coverage and source-range fidelity."""

import pytest

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.cast.cache import FrontendCache
from repro.cast.parser import MAX_NESTING, ParseError, parse
from repro.compiler import GCC_SIM, Compiler


def first_fn(text) -> ast.FunctionDecl:
    unit = parse(text)
    fns = [d for d in unit.decls if isinstance(d, ast.FunctionDecl)]
    assert fns
    return fns[0]


def only_expr(text) -> ast.Expr:
    fn = first_fn(f"void f(void) {{ {text}; }}")
    assert fn.body is not None
    stmt = fn.body.stmts[0]
    assert isinstance(stmt, ast.ExprStmt)
    return stmt.expr


class TestDeclarations:
    def test_global_int(self):
        unit = parse("int x;")
        decl = unit.decls[0]
        assert isinstance(decl, ast.VarDecl)
        assert decl.type == ct.INT

    def test_initializer(self):
        unit = parse("int x = 5;")
        decl = unit.decls[0]
        assert isinstance(decl.init, ast.IntegerLiteral)
        assert decl.init.value == 5

    def test_multi_declarator(self):
        unit = parse("int a = 1, b, *c;")
        names = [d.name for d in unit.decls]
        assert names == ["a", "b", "c"]
        assert unit.decls[2].type.is_pointer()

    def test_storage_classes(self):
        unit = parse("static int a; extern long b;")
        assert unit.decls[0].storage == "static"
        assert unit.decls[1].storage == "extern"

    def test_qualifiers(self):
        decl = parse("const volatile int x;").decls[0]
        assert decl.type.const and decl.type.volatile

    def test_array_dimensions(self):
        decl = parse("int grid[4][8];").decls[0]
        outer = decl.type.type
        assert isinstance(outer, ct.ArrayType) and outer.size == 4
        inner = outer.element.type
        assert isinstance(inner, ct.ArrayType) and inner.size == 8

    def test_constant_folded_array_size(self):
        decl = parse("int buf[4 * 8];").decls[0]
        assert decl.type.type.size == 32

    def test_struct_definition(self):
        unit = parse("struct s { int a; char b[4]; };")
        rec = unit.decls[0]
        assert isinstance(rec, ast.RecordDecl)
        assert [f.name for f in rec.fields] == ["a", "b"]

    def test_union(self):
        rec = parse("union u { int i; double d; };").decls[0]
        assert rec.tag_kind == "union"

    def test_enum(self):
        unit = parse("enum e { A, B = 5, C };")
        enum = unit.decls[0]
        assert isinstance(enum, ast.EnumDecl)
        assert [c.name for c in enum.constants] == ["A", "B", "C"]

    def test_typedef_usable_as_type(self):
        unit = parse("typedef unsigned long size_type; size_type n;")
        assert unit.decls[1].type == ct.ULONG

    def test_function_prototype(self):
        fn = parse("int add(int a, int b);").decls[0]
        assert isinstance(fn, ast.FunctionDecl)
        assert fn.body is None and len(fn.params) == 2

    def test_variadic_prototype(self):
        fn = parse("int printf(char *fmt, ...);").decls[0]
        assert fn.variadic

    def test_void_parameter_list(self):
        fn = first_fn("int f(void) { return 0; }")
        assert fn.params == []

    def test_array_parameter_decays(self):
        fn = first_fn("void f(int a[64]) { }")
        assert fn.params[0].type.is_pointer()

    def test_attribute_skipped(self):
        fn = first_fn("__attribute__((noinline)) void f(void) { }")
        assert fn.attributes and "noinline" in fn.attributes[0]

    def test_complex_double(self):
        decl = parse("_Complex double z;").decls[0]
        assert decl.type.is_complex()


class TestStatements:
    def test_if_else(self):
        fn = first_fn("void f(int x) { if (x) x = 1; else x = 2; }")
        stmt = fn.body.stmts[0]
        assert isinstance(stmt, ast.IfStmt) and stmt.else_branch is not None

    def test_dangling_else_binds_inner(self):
        fn = first_fn("void f(int x) { if (x) if (x > 1) x = 1; else x = 2; }")
        outer = fn.body.stmts[0]
        assert isinstance(outer, ast.IfStmt)
        assert outer.else_branch is None
        assert isinstance(outer.then_branch, ast.IfStmt)
        assert outer.then_branch.else_branch is not None

    def test_loops(self):
        fn = first_fn(
            "void f(void) { int i; for (i = 0; i < 4; i++) ; "
            "while (i) i--; do i++; while (i < 3); }"
        )
        kinds = [s.kind for s in fn.body.stmts]
        assert kinds == ["DeclStmt", "ForStmt", "WhileStmt", "DoStmt"]

    def test_for_with_declaration(self):
        fn = first_fn("void f(void) { for (int i = 0; i < 3; i++) ; }")
        loop = fn.body.stmts[0]
        assert isinstance(loop.init, ast.DeclStmt)

    def test_switch_cases(self):
        fn = first_fn(
            "void f(int x) { switch (x) { case 1: x = 2; break; default: ; } }"
        )
        sw = fn.body.stmts[0]
        assert isinstance(sw, ast.SwitchStmt)
        assert len(sw.cases()) == 2

    def test_chained_case_labels(self):
        # `case 1: case 2:` parses as a label-only CaseStmt (stmt=None,
        # fall-through) followed by the labelled statement.
        fn = first_fn("void f(int x) { switch (x) { case 1: case 2: x = 3; } }")
        sw = fn.body.stmts[0]
        first, second = sw.body.stmts[0], sw.body.stmts[1]
        assert isinstance(first, ast.CaseStmt) and first.stmt is None
        assert isinstance(second, ast.CaseStmt) and second.stmt is not None

    def test_goto_and_label(self):
        fn = first_fn("void f(void) { goto end; end: ; }")
        assert isinstance(fn.body.stmts[0], ast.GotoStmt)
        assert isinstance(fn.body.stmts[1], ast.LabelStmt)

    def test_return_forms(self):
        fn = first_fn("int f(int x) { if (x) return x; return 0; }")
        rets = [n for n in fn.walk() if isinstance(n, ast.ReturnStmt)]
        assert len(rets) == 2


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = only_expr("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOperator) and expr.op == "+"
        assert isinstance(expr.rhs, ast.BinaryOperator) and expr.rhs.op == "*"

    def test_left_associativity(self):
        expr = only_expr("1 - 2 - 3")
        assert expr.op == "-"
        assert isinstance(expr.lhs, ast.BinaryOperator)

    def test_assignment_right_associative(self):
        fn = first_fn("void f(void) { int a; int b; a = b = 1; }")
        stmt = fn.body.stmts[2]
        expr = stmt.expr
        assert expr.op == "=" and isinstance(expr.rhs, ast.BinaryOperator)

    def test_ternary(self):
        expr = only_expr("1 ? 2 : 3")
        assert isinstance(expr, ast.ConditionalOperator)

    def test_comma_operator(self):
        expr = only_expr("1, 2")
        assert isinstance(expr, ast.BinaryOperator) and expr.op == ","

    def test_cast_vs_paren(self):
        cast = only_expr("(int)1.5")
        assert isinstance(cast, ast.CastExpr)
        paren = only_expr("(1) + 2")
        assert isinstance(paren, ast.BinaryOperator)

    def test_sizeof_type_and_expr(self):
        ty = only_expr("sizeof(int)")
        assert isinstance(ty, ast.SizeofExpr) and ty.type_operand is not None
        ex = only_expr("sizeof 1")
        assert isinstance(ex, ast.SizeofExpr) and ex.operand is not None

    def test_compound_literal(self):
        fn = first_fn(
            "struct p { int x; int y; };"
            "void f(void) { struct p v; v = (struct p){ 1, 2 }; }"
        )
        lits = [n for n in fn.walk() if isinstance(n, ast.CompoundLiteralExpr)]
        assert len(lits) == 1

    def test_call_with_args(self):
        expr = only_expr("foo(1, 2, 3)")
        assert isinstance(expr, ast.CallExpr) and len(expr.args) == 3

    def test_member_chain(self):
        expr = only_expr("a.b.c")
        assert isinstance(expr, ast.MemberExpr)
        assert isinstance(expr.base, ast.MemberExpr)

    def test_arrow(self):
        expr = only_expr("p->x")
        assert isinstance(expr, ast.MemberExpr) and expr.is_arrow

    def test_postfix_and_prefix_incdec(self):
        post = only_expr("x++")
        assert isinstance(post, ast.UnaryOperator) and not post.prefix
        pre = only_expr("++x")
        assert pre.prefix

    def test_imag_real_operators(self):
        expr = only_expr("__imag z")
        assert isinstance(expr, ast.UnaryOperator) and expr.op == "__imag"

    def test_string_concatenation(self):
        expr = only_expr('"ab" "cd"')
        assert isinstance(expr, ast.StringLiteral) and expr.value == "abcd"

    def test_char_escape_values(self):
        assert only_expr(r"'\n'").value == 10
        assert only_expr(r"'\0'").value == 0
        assert only_expr(r"'\x41'").value == 0x41


class TestSourceRanges:
    def test_node_text_matches_range(self):
        text = "int f(int a) { return a + 41; }"
        unit = parse(text)
        ret = [n for n in unit.walk() if isinstance(n, ast.ReturnStmt)][0]
        assert text[ret.range.begin.offset : ret.range.end.offset] == "return a + 41;"

    def test_binop_op_range(self):
        text = "int x = 1 + 2;"
        unit = parse(text)
        binop = [n for n in unit.walk() if isinstance(n, ast.BinaryOperator)][0]
        assert text[binop.op_range.begin.offset : binop.op_range.end.offset] == "+"

    def test_function_return_type_range(self):
        text = "static unsigned long f(void) { return 0; }"
        fn = parse(text).decls[0]
        spelled = text[
            fn.return_type_range.begin.offset : fn.return_type_range.end.offset
        ]
        assert spelled == "static unsigned long"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "int f( {",
            "int x = ;",
            "void f(void) { if }",
            "struct { int; };",
            "int 5x;",
            "void f(void) { case 1: ; }",  # parses? no: case needs switch context — parser allows; sema rejects
        ],
    )
    def test_broken_inputs(self, text):
        try:
            parse(text)
        except ParseError:
            return  # expected for most inputs
        # Inputs that parse must at least produce a translation unit.

    def test_error_has_location(self):
        with pytest.raises(ParseError) as info:
            parse("int x = ;")
        assert info.value.loc is not None


#: One program per construct, nested ``n`` levels deep.
_NESTED = {
    "parens": lambda n: (
        "int main(void) { return " + "(" * n + "1" + ")" * n + "; }"
    ),
    "unary": lambda n: "int main(void) { return " + "~" * n + "1; }",
    "block": lambda n: (
        "int main(void) { " + "{" * n + "}" * n + " return 0; }"
    ),
    "init-list": lambda n: (
        "int a[1] = " + "{" * n + "1" + "}" * n + ";\n"
        "int main(void) { return a[0]; }"
    ),
}


def _deeper(frames, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` called ``frames`` Python frames deeper."""
    if frames == 0:
        return fn(*args, **kwargs)
    return _deeper(frames - 1, fn, *args, **kwargs)


def _outcome(result) -> tuple:
    return (
        result.ok,
        tuple(result.diagnostics),
        frozenset(result.coverage.edges),
        result.asm,
        None if result.crash is None else result.crash.bug_id,
    )


class TestNestingBound:
    """Whether a program compiles depends on the program, not on how deep
    the caller's stack is: the parser's nesting bound fails a too-deep
    program the same way at any depth, and keeps every accepted tree
    shallow enough for the later recursive passes."""

    @pytest.mark.parametrize("construct", sorted(_NESTED))
    def test_outcome_independent_of_stack_depth(self, construct):
        make = _NESTED[construct]
        compiler = Compiler(*GCC_SIM)
        for n in range(1, 2 * MAX_NESTING + 20):
            text = make(n)
            direct = compiler.compile(text)
            # Deeper, and through the cached front end with every compile
            # checked against a from-scratch reference compile.
            deep = _deeper(
                200, compiler.compile, text,
                cache=FrontendCache(paranoid=True),
            )
            assert _outcome(direct) == _outcome(deep), n

    @pytest.mark.parametrize("construct", sorted(_NESTED))
    def test_past_the_bound_is_a_depth_overflow(self, construct):
        make = _NESTED[construct]
        compiler = Compiler(*GCC_SIM)
        inside = compiler.compile(make(MAX_NESTING - 1))
        assert "parse_failed" not in inside.features
        with pytest.raises(RecursionError):
            parse(make(MAX_NESTING + 1))
        past = compiler.compile(make(MAX_NESTING + 1))
        assert past.features["parse_depth_overflow"] == 1
        assert not past.ok
