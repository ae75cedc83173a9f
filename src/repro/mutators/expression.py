"""Expression mutators (50) — the largest category of §4.1.

Descriptions are written in the style the paper's invention stage produces
("This mutator ... [Action] on [Program Structure]").
"""

from __future__ import annotations

from bisect import bisect_right

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.muast import ASTVisitor, Mutator, register_mutator
from repro.mutators.common import (
    BOUNDARY_INTS,
    arith_typed,
    condition_exprs,
    int_typed,
    is_plain_binop,
    parent_map,
    replaceable_rvalue_exprs,
    statement_level_incdec,
)


def _plain_binops(m: Mutator) -> list[ast.BinaryOperator]:
    return [
        b
        for b in m.collect(ast.BinaryOperator)
        if isinstance(b, ast.BinaryOperator) and is_plain_binop(b)
    ]


@register_mutator(
    "SwapBinaryOperands",
    "This mutator selects a BinaryOperator and swaps its left and right "
    "operands, preserving type validity.",
    category="Expression", origin="supervised",
    action="Swap", structure="BinaryOperator",
)
class SwapBinaryOperands(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            b for b in _plain_binops(self) if self.check_binop(b.op, b.rhs, b.lhs)
        ]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        lhs, rhs = self.get_source_text(b.lhs), self.get_source_text(b.rhs)
        return self.replace_text(b.lhs.range, rhs) and self.replace_text(
            b.rhs.range, lhs
        )


_OP_FAMILIES = (
    ("+", "-", "*", "/", "%"),
    ("<", ">", "<=", ">=", "==", "!="),
    ("&", "|", "^"),
    ("<<", ">>"),
    ("&&", "||"),
)


def _family_of(op: str) -> tuple[str, ...] | None:
    for family in _OP_FAMILIES:
        if op in family:
            return family
    return None


@register_mutator(
    "ChangeBinaryOperator",
    "This mutator replaces a BinaryOperator with a different operator from "
    "the same family, checking operand-type validity with checkBinop.",
    category="Expression", origin="supervised",
    action="Modify", structure="BinaryOperator",
)
class ChangeBinaryOperator(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances: list[tuple[ast.BinaryOperator, str]] = []
        for b in _plain_binops(self):
            family = _family_of(b.op)
            if family is None:
                continue
            for op in family:
                if op != b.op and self.check_binop(op, b.lhs, b.rhs):
                    instances.append((b, op))
        if not instances:
            return False
        b, op = self.rand_element(instances)
        assert b.op_range is not None
        return self.replace_text(b.op_range, op)


@register_mutator(
    "NegateCondition",
    "This mutator selects the condition of an IfStmt or loop and negates it "
    "by wrapping it with the logical-not operator.",
    category="Expression", origin="supervised",
    action="Inverse", structure="LogicalExpr",
)
class NegateCondition(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        conds = condition_exprs(self)
        if not conds:
            return False
        cond = self.rand_element(conds)
        return self.replace_text(cond.range, f"!({self.get_source_text(cond)})")


@register_mutator(
    "InverseUnaryOperator",
    "This mutator selects a unary operation (like unary minus or logical "
    "not) and inverses it. For instance, -a would become -(-a) and !a would "
    "become !!a.",
    category="Expression", origin="supervised",
    action="Inverse", structure="UnaryOperator",
)
class InverseUnaryOperator(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            u
            for u in self.collect(ast.UnaryOperator)
            if isinstance(u, ast.UnaryOperator) and u.prefix and u.op in ("-", "!", "~")
        ]
        if not candidates:
            return False
        u = self.rand_element(candidates)
        return self.replace_text(
            u.range, f"{u.op}({self.get_source_text(u)})"
        )


@register_mutator(
    "CopyExpr",
    "This mutator copies an expression from one location of the program to "
    "replace another type-compatible expression elsewhere.",
    category="Expression", origin="supervised", creative=True,
    action="Copy", structure="Expr",
)
class CopyExpr(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = self._instances()
        if not instances:
            return False
        tgt, src = self.rand_element(instances)
        return self.replace_text(tgt.range, self.get_source_text(src))

    def _instances(self) -> "CopyExprPairs":
        """All (target, source) pairs, memoized on the shared context."""
        ctx = self.get_ast_context()
        cached = ctx.memo.get("CopyExpr.instances")
        if cached is None:
            cached = CopyExprPairs(self._candidate_rows())
            ctx.memo["CopyExpr.instances"] = cached
        return cached

    def _candidate_rows(self) -> list[tuple[ast.Expr, list, tuple]]:
        """Per target, in order: ``(target, candidates, skipped positions)``.

        ``candidates`` is the target type's shared list of compatible
        ``(span, source)`` entries; the skipped positions are the entries
        whose span equals the target's.  The pair set is a pure function of
        the unit; type-compatibility verdicts are memoized per distinct
        ``(target type, source type)`` pair, which collapses the
        O(targets × sources) ``assignable`` cost to one check per type pair.
        """
        ctx = self.get_ast_context()
        targets = [e for e in replaceable_rvalue_exprs(self) if e.type is not None]
        sources = [
            (e, e.type.decayed())
            for e in ctx.nodes_of_class(ast.Expr)
            if e.type is not None and self._source_is_portable(e)
        ]
        index_ids = {
            id(n.index) for n in ctx.nodes_of_class(ast.ArraySubscriptExpr)
        }
        # Initializers of array-typed variables must stay string literals /
        # braces — a copied pointer expression would not compile there.
        array_init_ids = {
            id(n.init)
            for n in ctx.nodes_of_class(ast.VarDecl)
            if n.init is not None and n.type.is_array()
        }
        # Canonicalize decayed types structurally (they are frozen, hashable
        # dataclasses): distinct node objects with equal types share one
        # compat verdict, instead of one per object-identity pair.
        canon: dict = {}
        reps: list = []

        def _canon(qt) -> int:
            i = canon.get(qt)
            if i is None:
                i = len(canon)
                canon[qt] = i
                reps.append(qt)
            return i

        sources = [
            (
                e,
                (e.range.begin.offset, e.range.end.offset),
                dec.is_integer(),
                _canon(dec),
            )
            for e, dec in sources
        ]

        def _with_spans(entries: list) -> tuple[list, dict]:
            positions: dict = {}
            for pos, (span, _) in enumerate(entries):
                positions.setdefault(span, []).append(pos)
            return entries, positions

        # Per distinct target type: the compatible sources, in source order
        # (and the integer-valued subset, for array-subscript targets), each
        # with its span -> positions index.  Compare decayed types: copying
        # an array-typed global over a string-literal argument is the
        # paper's sprintf/strlen case.
        ok_cache: dict[int, tuple] = {}

        def _ok_sources(tgt_key: int, tgt_decayed) -> tuple:
            pair = ok_cache.get(tgt_key)
            if pair is None:
                verdicts = [ct.assignable(tgt_decayed, rep) for rep in reps]
                all_ok = [
                    (span, src)
                    for src, span, _, src_key in sources
                    if verdicts[src_key]
                ]
                int_ok = [
                    (span, src)
                    for src, span, src_integer, src_key in sources
                    if verdicts[src_key] and src_integer
                ]
                pair = (_with_spans(all_ok), _with_spans(int_ok))
                ok_cache[tgt_key] = pair
            return pair

        rows = []
        for tgt in targets:
            if id(tgt) in array_init_ids:
                continue
            tgt_decayed = tgt.type.decayed()
            all_ok, int_ok = _ok_sources(_canon(tgt_decayed), tgt_decayed)
            # Array subscripts must stay integers.
            candidates, positions = int_ok if id(tgt) in index_ids else all_ok
            tgt_span = (tgt.range.begin.offset, tgt.range.end.offset)
            rows.append((tgt, candidates, tuple(positions.get(tgt_span, ()))))
        return rows

    def _source_is_portable(self, expr: ast.Expr) -> bool:
        """A source expression that stays valid at any program point."""
        if isinstance(expr, ast.InitListExpr):
            return False
        for n in expr.walk():
            if isinstance(n, ast.DeclRefExpr):
                decl = n.decl
                if not (isinstance(decl, ast.VarDecl) and decl.is_global):
                    return False
        return True


class CopyExprPairs:
    """CopyExpr's (target, source) pairs as an indexed view.

    A pair is every candidate of a target except the positions skipped
    because the source spans exactly the target.  Materializing the pairs
    costs O(targets × sources) tuples — about 120k per generated seed — and
    the front-end cache keeps each parent's memo alive, so the view stores
    per target only its shared candidate list and skipped positions, and
    finds pair ``i`` by bisecting the per-target prefix offsets.  It has the
    eager list's ``len()`` and yields the identical pair at every index, so
    ``rand_element`` draws exactly as it would from the list.
    """

    __slots__ = ("_rows", "_offsets", "_len")

    def __init__(self, rows) -> None:
        self._rows: list = []
        self._offsets: list[int] = []
        total = 0
        for tgt, candidates, skips in rows:
            n = len(candidates) - len(skips)
            if n > 0:
                self._rows.append((tgt, candidates, skips))
                self._offsets.append(total)
                total += n
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> tuple[ast.Expr, ast.Expr]:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(index)
        row = bisect_right(self._offsets, index) - 1
        tgt, candidates, skips = self._rows[row]
        pos = index - self._offsets[row]
        for skipped in skips:  # ascending: each one at or before pos shifts it
            if skipped > pos:
                break
            pos += 1
        return tgt, candidates[pos][1]


@register_mutator(
    "ExpandCompoundAssign",
    "This mutator rewrites a compound assignment like a += b into the "
    "equivalent expanded form a = a + (b).",
    category="Expression", origin="supervised", creative=True,
    action="Destruct", structure="CompoundAssignOperator",
)
class ExpandCompoundAssign(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            b
            for b in self.collect(ast.BinaryOperator)
            if isinstance(b, ast.BinaryOperator)
            and b.op in ast.ASSIGN_OPS
            and b.op != "="
        ]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        lhs = self.get_source_text(b.lhs)
        rhs = self.get_source_text(b.rhs)
        return self.replace_text(b.range, f"{lhs} = {lhs} {b.op[:-1]} ({rhs})")


@register_mutator(
    "AddIdentityOperation",
    "This mutator adds an arithmetic identity operation (+ 0 or * 1) around "
    "an arithmetic expression, preserving its value.",
    category="Expression", origin="supervised",
    action="Add", structure="ArithmeticExpr",
)
class AddIdentityOperation(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [e for e in replaceable_rvalue_exprs(self) if arith_typed(e)]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        text = self.get_source_text(e)
        assert e.type is not None
        if e.type.is_integer():
            suffix = self.rand_element([" + 0", " * 1", " - 0"])
        else:
            suffix = self.rand_element([" + 0.0", " * 1.0"])
        return self.replace_text(e.range, f"(({text}){suffix})")


@register_mutator(
    "InsertLogicalNotNot",
    "This mutator applies a double logical negation !! to a branch "
    "condition, normalizing it to 0 or 1 without changing control flow.",
    category="Expression", origin="supervised",
    action="Add", structure="LogicalExpr",
)
class InsertLogicalNotNot(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        conds = condition_exprs(self)
        if not conds:
            return False
        cond = self.rand_element(conds)
        return self.replace_text(cond.range, f"!!({self.get_source_text(cond)})")


@register_mutator(
    "ReplaceExprWithDefaultValue",
    "This mutator replaces a scalar expression with the default value of its "
    "type (0 for integers and pointers, 0.0 for floating types).",
    category="Expression", origin="supervised",
    action="Modify", structure="Expr",
)
class ReplaceExprWithDefaultValue(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [
            e
            for e in replaceable_rvalue_exprs(self)
            if e.type is not None and e.type.decayed().is_scalar()
        ]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        assert e.type is not None
        return self.replace_text(e.range, self.default_value_for(e.type))


@register_mutator(
    "ReplaceConditionWithConstant",
    "This mutator replaces a branch or loop condition with the constant 1 or "
    "0, forcing one side of the control flow.",
    category="Expression", origin="supervised",
    action="Modify", structure="IfStmt",
)
class ReplaceConditionWithConstant(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        # Loop conditions forced to 1 would hang the mutant at runtime, so
        # only if-conditions may receive a 1.
        instances: list[tuple[ast.Expr, str]] = []
        for node in self.get_ast_context().unit.walk():
            if isinstance(node, ast.IfStmt):
                instances.append((node.cond, self.rand_element(["0", "1"])))
            elif isinstance(node, (ast.WhileStmt, ast.DoStmt)):
                instances.append((node.cond, "0"))
            elif isinstance(node, ast.ForStmt) and node.cond is not None:
                instances.append((node.cond, "0"))
        if not instances:
            return False
        cond, value = self.rand_element(instances)
        return self.replace_text(cond.range, value)


@register_mutator(
    "RotateBinaryExpr",
    "This mutator re-associates a chain of the same associative binary "
    "operator, turning (a op b) op c into a op (b op c).",
    category="Expression", origin="supervised",
    action="Group", structure="BinaryOperator",
)
class RotateBinaryExpr(Mutator, ASTVisitor):
    _ASSOC = ("+", "*", "&", "|", "^", "&&", "||")

    def mutate(self) -> bool:
        instances = []
        for b in _plain_binops(self):
            if b.op not in self._ASSOC:
                continue
            lhs = b.lhs
            while isinstance(lhs, ast.ParenExpr):
                lhs = lhs.inner
            if isinstance(lhs, ast.BinaryOperator) and lhs.op == b.op:
                instances.append((b, lhs))
        if not instances:
            return False
        b, lhs = self.rand_element(instances)
        a_txt = self.get_source_text(lhs.lhs)
        b_txt = self.get_source_text(lhs.rhs)
        c_txt = self.get_source_text(b.rhs)
        return self.replace_text(
            b.range, f"{a_txt} {b.op} ({b_txt} {b.op} {c_txt})"
        )


@register_mutator(
    "FactorCommonTerm",
    "This mutator finds a sum of two products sharing a common factor and "
    "factors it out, turning a*b + a*c into a*(b + c).",
    category="Expression", origin="supervised", creative=True,
    action="Combine", structure="BinaryOperator",
)
class FactorCommonTerm(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for b in _plain_binops(self):
            if b.op != "+":
                continue
            lhs, rhs = b.lhs, b.rhs
            if (
                isinstance(lhs, ast.BinaryOperator)
                and isinstance(rhs, ast.BinaryOperator)
                and lhs.op == "*"
                and rhs.op == "*"
                and self.get_source_text(lhs.lhs) == self.get_source_text(rhs.lhs)
            ):
                instances.append((b, lhs, rhs))
        if not instances:
            return False
        b, lhs, rhs = self.rand_element(instances)
        a_txt = self.get_source_text(lhs.lhs)
        b_txt = self.get_source_text(lhs.rhs)
        c_txt = self.get_source_text(rhs.rhs)
        return self.replace_text(b.range, f"{a_txt} * (({b_txt}) + ({c_txt}))")


@register_mutator(
    "SwapTernaryBranches",
    "This mutator swaps the true and false branches of a conditional "
    "operator when their types are compatible.",
    category="Expression", origin="supervised",
    action="Swap", structure="ConditionalOperator",
)
class SwapTernaryBranches(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            c
            for c in self.collect(ast.ConditionalOperator)
            if isinstance(c, ast.ConditionalOperator)
            and c.true_expr.type is not None
            and c.false_expr.type is not None
            and self.types_compatible(c.true_expr.type, c.false_expr.type)
        ]
        if not candidates:
            return False
        c = self.rand_element(candidates)
        t = self.get_source_text(c.true_expr)
        f = self.get_source_text(c.false_expr)
        return self.replace_text(c.true_expr.range, f) and self.replace_text(
            c.false_expr.range, t
        )


@register_mutator(
    "AddCastToSameType",
    "This mutator wraps an arithmetic expression in an explicit cast to its "
    "own type, which is a no-op at runtime but exercises cast folding.",
    category="Expression", origin="supervised",
    action="Add", structure="CastExpr",
)
class AddCastToSameType(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [
            e
            for e in replaceable_rvalue_exprs(self)
            if arith_typed(e) and not e.type.is_complex()  # type: ignore[union-attr]
        ]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        assert e.type is not None
        spelling = e.type.unqualified().spelling()
        return self.replace_text(
            e.range, f"(({spelling})({self.get_source_text(e)}))"
        )


@register_mutator(
    "RemoveCast",
    "This mutator removes an explicit cast between arithmetic types, letting "
    "the implicit conversions take over.",
    category="Expression", origin="supervised",
    action="Destruct", structure="CastExpr",
)
class RemoveCast(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            c
            for c in self.collect(ast.CastExpr)
            if isinstance(c, ast.CastExpr)
            and c.target_type.is_arithmetic()
            and c.operand.type is not None
            and c.operand.type.decayed().is_arithmetic()
        ]
        if not candidates:
            return False
        c = self.rand_element(candidates)
        return self.replace_text(c.range, f"({self.get_source_text(c.operand)})")


@register_mutator(
    "ArraySubscriptToPointer",
    "This mutator rewrites an array subscript a[i] into the equivalent "
    "pointer form *(a + (i)).",
    category="Expression", origin="supervised", creative=True,
    action="Modify", structure="ArraySubscriptExpr",
)
class ArraySubscriptToPointer(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            s
            for s in self.collect(ast.ArraySubscriptExpr)
            if isinstance(s, ast.ArraySubscriptExpr)
            and s.base.type is not None
            and s.base.type.decayed().is_pointer()
        ]
        if not candidates:
            return False
        s = self.rand_element(candidates)
        base = self.get_source_text(s.base)
        index = self.get_source_text(s.index)
        return self.replace_text(s.range, f"(*({base} + ({index})))")


@register_mutator(
    "IncrementToAddAssign",
    "This mutator rewrites a statement-level increment or decrement like i++ "
    "into the compound assignment i += 1.",
    category="Expression", origin="supervised", creative=True,
    action="Modify", structure="UnaryOperator",
)
class IncrementToAddAssign(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = statement_level_incdec(self)
        if not candidates:
            return False
        u = self.rand_element(candidates)
        op = "+=" if u.op == "++" else "-="
        operand = self.get_source_text(u.operand)
        return self.replace_text(u.range, f"{operand} {op} 1")


@register_mutator(
    "SwapFunctionArgs",
    "This mutator selects a CallExpr with two type-identical arguments and "
    "swaps them.",
    category="Expression", origin="supervised",
    action="Swap", structure="CallExpr",
)
class SwapFunctionArgs(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for call in self.collect(ast.CallExpr):
            assert isinstance(call, ast.CallExpr)
            for i in range(len(call.args)):
                for j in range(i + 1, len(call.args)):
                    a, b = call.args[i], call.args[j]
                    if (
                        a.type is not None
                        and b.type is not None
                        and a.type.decayed() == b.type.decayed()
                    ):
                        instances.append((call, i, j))
        if not instances:
            return False
        call, i, j = self.rand_element(instances)
        a_txt = self.get_source_text(call.args[i])
        b_txt = self.get_source_text(call.args[j])
        return self.replace_text(call.args[i].range, b_txt) and self.replace_text(
            call.args[j].range, a_txt
        )


@register_mutator(
    "ReplaceCallWithConstant",
    "This mutator replaces a function call expression with a default "
    "constant of the call's result type.",
    category="Expression", origin="supervised",
    action="Modify", structure="CallExpr",
)
class ReplaceCallWithConstant(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        replaceable = {id(e) for e in replaceable_rvalue_exprs(self)}
        candidates = [
            c
            for c in self.collect(ast.CallExpr)
            if isinstance(c, ast.CallExpr) and c.type is not None and id(c) in replaceable
        ]
        if not candidates:
            return False
        c = self.rand_element(candidates)
        assert c.type is not None
        if c.type.is_void():
            return self.replace_text(c.range, "(void)0")
        return self.replace_text(c.range, self.default_value_for(c.type))


@register_mutator(
    "ReplaceSizeofWithConstant",
    "This mutator replaces a sizeof expression with an integer constant, "
    "decoupling the program from type sizes.",
    category="Expression", origin="supervised",
    action="Modify", structure="SizeofExpr",
)
class ReplaceSizeofWithConstant(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = self.collect(ast.SizeofExpr)
        if not candidates:
            return False
        e = self.rand_element(candidates)
        value = self.rand_element([1, 2, 4, 8, 16])
        return self.replace_text(e.range, str(value))


@register_mutator(
    "ChangeCharLiteral",
    "This mutator modifies a CharLiteral to a different character value.",
    category="Expression", origin="supervised",
    action="Modify", structure="CharLiteral",
)
class ChangeCharLiteral(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = self.collect(ast.CharacterLiteral)
        if not candidates:
            return False
        e = self.rand_element(candidates)
        ch = self.rand_element(list("AZaz09 !@\\n\\0"))
        if len(ch) == 1 and ch != "\\":
            return self.replace_text(e.range, f"'{ch}'")
        return self.replace_text(e.range, "'\\0'")


@register_mutator(
    "ConditionAlwaysTrue",
    "This mutator weakens a branch condition by OR-ing it with 1 or "
    "AND-ing it with 1, biasing or preserving the control flow.",
    category="Expression", origin="supervised",
    action="Combine", structure="LogicalExpr",
)
class ConditionAlwaysTrue(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        # Only if-conditions: OR-ing a loop condition with 1 would hang.
        conds = [
            n.cond
            for n in self.get_ast_context().unit.walk()
            if isinstance(n, ast.IfStmt)
        ]
        if not conds:
            return False
        cond = self.rand_element(conds)
        text = self.get_source_text(cond)
        suffix = self.rand_element([" || 1", " && 1"])
        return self.replace_text(cond.range, f"(({text}){suffix})")


@register_mutator(
    "ModifyIntegerLiteral",
    "This mutator modifies an IntegerLiteral by a small delta or replaces it "
    "with a nearby interesting value.",
    category="Expression", origin="supervised",
    action="Modify", structure="IntegerLiteral",
)
class ModifyIntegerLiteral(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = self.collect(ast.IntegerLiteral)
        if not candidates:
            return False
        e = self.rand_element(candidates)
        assert isinstance(e, ast.IntegerLiteral)
        delta = self.rand_element([-2, -1, 1, 2, 7, 16])
        value = e.value + delta
        text = str(value) if value >= 0 else f"(-{-value})"
        return self.replace_text(e.range, text)


@register_mutator(
    "LiteralToBoundaryValue",
    "This mutator replaces an IntegerLiteral with a type-boundary value such "
    "as INT_MAX, exposing overflow-sensitive optimizer paths.",
    category="Expression", origin="supervised",
    action="Switch", structure="IntegerLiteral",
)
class LiteralToBoundaryValue(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = self.collect(ast.IntegerLiteral)
        if not candidates:
            return False
        e = self.rand_element(candidates)
        value = self.rand_element(list(BOUNDARY_INTS))
        text = str(value) if value >= 0 else f"(-{-value})"
        if value > 0x7FFFFFFF:
            text += "LL" if value <= 0x7FFFFFFFFFFFFFFF else "ULL"
        return self.replace_text(e.range, text)


@register_mutator(
    "ReplaceArgWithOtherArg",
    "This mutator replaces one argument of a CallExpr with a copy of "
    "another type-compatible argument of the same call.",
    category="Expression", origin="supervised",
    action="Copy", structure="CallExpr",
)
class ReplaceArgWithOtherArg(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for call in self.collect(ast.CallExpr):
            assert isinstance(call, ast.CallExpr)
            for i, dst in enumerate(call.args):
                for j, src in enumerate(call.args):
                    if i == j:
                        continue
                    if (
                        dst.type is not None
                        and src.type is not None
                        and dst.type.decayed() == src.type.decayed()
                    ):
                        instances.append((call, i, j))
        if not instances:
            return False
        call, i, j = self.rand_element(instances)
        return self.replace_text(
            call.args[i].range, self.get_source_text(call.args[j])
        )


@register_mutator(
    "ComparisonToDifference",
    "This mutator rewrites an integer comparison a < b into the equivalent "
    "difference form (a) - (b) < 0.",
    category="Expression", origin="supervised", creative=True,
    action="Destruct", structure="ComparisonExpr",
)
class ComparisonToDifference(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            b
            for b in _plain_binops(self)
            if b.is_comparison and int_typed(b.lhs) and int_typed(b.rhs)
        ]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        lhs = self.get_source_text(b.lhs)
        rhs = self.get_source_text(b.rhs)
        return self.replace_text(b.range, f"(({lhs}) - ({rhs}) {b.op} 0)")


@register_mutator(
    "StrengthReduceMultiply",
    "This mutator replaces a multiplication by a power-of-two constant with "
    "the equivalent left-shift.",
    category="Expression", origin="supervised", creative=True,
    action="Modify", structure="BinaryOperator",
)
class StrengthReduceMultiply(Mutator, ASTVisitor):
    _POWERS = {2: 1, 4: 2, 8: 3, 16: 4, 32: 5, 64: 6}

    def mutate(self) -> bool:
        instances = []
        for b in _plain_binops(self):
            if b.op != "*" or not int_typed(b.lhs):
                continue
            rhs = b.rhs
            if isinstance(rhs, ast.IntegerLiteral) and rhs.value in self._POWERS:
                instances.append((b, self._POWERS[rhs.value]))
        if not instances:
            return False
        b, shift = self.rand_element(instances)
        lhs = self.get_source_text(b.lhs)
        return self.replace_text(b.range, f"(({lhs}) << {shift})")


@register_mutator(
    "WrapAssignmentRhsInComma",
    "This mutator wraps the right-hand side of an assignment in a comma "
    "expression whose first operand is a no-op.",
    category="Expression", origin="supervised",
    action="Add", structure="BinaryOperator",
)
class WrapAssignmentRhsInComma(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        protected = {id(e) for e in replaceable_rvalue_exprs(self)}
        candidates = [
            b
            for b in self.collect(ast.BinaryOperator)
            if isinstance(b, ast.BinaryOperator)
            and b.op == "="
            and id(b.rhs) in protected
        ]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        rhs = self.get_source_text(b.rhs)
        return self.replace_text(b.rhs.range, f"(0, {rhs})")


# ---------------------------------------------------------------------------
# Unsupervised (M_u) expression mutators
# ---------------------------------------------------------------------------


@register_mutator(
    "ReplaceLiteralWithRandomValue",
    "This mutator randomly selects an IntegerLiteral or FloatLiteral and "
    "replaces it with a random value of the same kind.",
    category="Expression", origin="unsupervised",
    action="Modify", structure="IntegerLiteral",
)
class ReplaceLiteralWithRandomValue(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        ints = self.collect(ast.IntegerLiteral)
        floats = self.collect(ast.FloatingLiteral)
        if not ints and not floats:
            return False
        if ints and (not floats or self.rand_bool()):
            e = self.rand_element(ints)
            value = self.rng.randrange(0, 1 << 16)
            return self.replace_text(e.range, str(value))
        e = self.rand_element(floats)
        return self.replace_text(e.range, f"{self.rng.random() * 100:.6f}")


@register_mutator(
    "NegateIntegerLiteral",
    "This mutator negates the value of an IntegerLiteral.",
    category="Expression", origin="unsupervised",
    action="Inverse", structure="IntegerLiteral",
)
class NegateIntegerLiteral(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = self.collect(ast.IntegerLiteral)
        if not candidates:
            return False
        e = self.rand_element(candidates)
        return self.replace_text(e.range, f"(-{self.get_source_text(e)})")


@register_mutator(
    "ModifyFloatLiteral",
    "This mutator perturbs a FloatLiteral by scaling it or adding a small "
    "epsilon.",
    category="Expression", origin="unsupervised",
    action="Modify", structure="FloatLiteral",
)
class ModifyFloatLiteral(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = self.collect(ast.FloatingLiteral)
        if not candidates:
            return False
        e = self.rand_element(candidates)
        assert isinstance(e, ast.FloatingLiteral)
        factor = self.rand_element([0.5, 2.0, -1.0, 1e-6, 1e6])
        return self.replace_text(e.range, f"{e.value * factor!r}")


@register_mutator(
    "ChangeComparisonOperator",
    "This mutator replaces a comparison operator with a different one, e.g. "
    "turning < into <= or ==.",
    category="Expression", origin="unsupervised",
    action="Modify", structure="ComparisonExpr",
)
class ChangeComparisonOperator(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [b for b in _plain_binops(self) if b.is_comparison]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        new_op = self.rand_element([o for o in ast.COMPARISON_OPS if o != b.op])
        assert b.op_range is not None
        return self.replace_text(b.op_range, new_op)


@register_mutator(
    "ChangeLogicalOperator",
    "This mutator swaps a logical AND with a logical OR and vice versa.",
    category="Expression", origin="unsupervised",
    action="Switch", structure="LogicalExpr",
)
class ChangeLogicalOperator(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [b for b in _plain_binops(self) if b.is_logical]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        assert b.op_range is not None
        return self.replace_text(b.op_range, "||" if b.op == "&&" else "&&")


@register_mutator(
    "ChangeBitwiseOperator",
    "This mutator replaces a bitwise operator (&, |, ^) with another one.",
    category="Expression", origin="unsupervised",
    action="Modify", structure="BitwiseExpr",
)
class ChangeBitwiseOperator(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [b for b in _plain_binops(self) if b.op in ("&", "|", "^")]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        new_op = self.rand_element([o for o in ("&", "|", "^") if o != b.op])
        assert b.op_range is not None
        return self.replace_text(b.op_range, new_op)


@register_mutator(
    "ChangeShiftOperator",
    "This mutator switches a left shift to a right shift and vice versa.",
    category="Expression", origin="unsupervised",
    action="Switch", structure="ShiftExpr",
)
class ChangeShiftOperator(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [b for b in _plain_binops(self) if b.op in ("<<", ">>")]
        if not candidates:
            return False
        b = self.rand_element(candidates)
        assert b.op_range is not None
        return self.replace_text(b.op_range, ">>" if b.op == "<<" else "<<")


@register_mutator(
    "WrapWithParens",
    "This mutator wraps an arbitrary expression in redundant parentheses.",
    category="Expression", origin="unsupervised",
    action="Add", structure="ParenExpr",
)
class WrapWithParens(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            e
            for e in self.get_ast_context().unit.walk()
            if isinstance(e, ast.Expr)
            and not isinstance(e, (ast.InitListExpr, ast.StringLiteral))
            and e.type is not None
        ]
        if not candidates:
            return False
        e = self.rand_element(candidates)
        return self.replace_text(e.range, f"({self.get_source_text(e)})")


@register_mutator(
    "DuplicateExprAsComma",
    "This mutator duplicates an expression into a comma expression that "
    "evaluates it twice: e becomes ((e), (e)).",
    category="Expression", origin="unsupervised",
    action="Group", structure="CommaExpr",
)
class DuplicateExprAsComma(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [
            e
            for e in replaceable_rvalue_exprs(self)
            if e.type is not None and e.type.decayed().is_scalar()
        ]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        text = self.get_source_text(e)
        return self.replace_text(e.range, f"(({text}), ({text}))")


@register_mutator(
    "ContractToCompoundAssign",
    "This mutator rewrites an expanded assignment a = a + b into its "
    "compound form a += b.",
    category="Expression", origin="unsupervised", creative=True,
    action="Combine", structure="AssignmentExpr",
)
class ContractToCompoundAssign(Mutator, ASTVisitor):
    _OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")

    def mutate(self) -> bool:
        instances = []
        for b in self.collect(ast.BinaryOperator):
            assert isinstance(b, ast.BinaryOperator)
            if b.op != "=":
                continue
            rhs = b.rhs
            while isinstance(rhs, ast.ParenExpr):
                rhs = rhs.inner
            if (
                isinstance(rhs, ast.BinaryOperator)
                and rhs.op in self._OPS
                and self.get_source_text(rhs.lhs) == self.get_source_text(b.lhs)
            ):
                instances.append((b, rhs))
        if not instances:
            return False
        b, rhs = self.rand_element(instances)
        lhs_txt = self.get_source_text(b.lhs)
        rhs_txt = self.get_source_text(rhs.rhs)
        return self.replace_text(b.range, f"{lhs_txt} {rhs.op}= ({rhs_txt})")


@register_mutator(
    "MultiplyByMinusOne",
    "This mutator multiplies an arithmetic expression by -1 twice removed: "
    "e becomes (-(-(e))).",
    category="Expression", origin="unsupervised",
    action="Inverse", structure="ArithmeticExpr",
)
class MultiplyByMinusOne(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [
            e
            for e in replaceable_rvalue_exprs(self)
            if arith_typed(e) and not e.type.is_complex()  # type: ignore[union-attr]
        ]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        return self.replace_text(e.range, f"(-(-({self.get_source_text(e)})))")


@register_mutator(
    "InsertBitwiseNotNot",
    "This mutator applies a double bitwise complement ~~ to an integer "
    "expression, an identity that stresses the instruction combiner.",
    category="Expression", origin="unsupervised",
    action="Add", structure="BitwiseExpr",
)
class InsertBitwiseNotNot(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [e for e in replaceable_rvalue_exprs(self) if int_typed(e)]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        return self.replace_text(e.range, f"(~~({self.get_source_text(e)}))")


@register_mutator(
    "SimplifyExprToOperand",
    "This mutator simplifies a binary expression to one of its operands, "
    "dropping the other.",
    category="Expression", origin="unsupervised",
    action="Destruct", structure="BinaryOperator",
)
class SimplifyExprToOperand(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        replaceable = {id(e) for e in replaceable_rvalue_exprs(self)}
        instances = []
        for b in _plain_binops(self):
            if id(b) not in replaceable or b.type is None:
                continue
            for side in (b.lhs, b.rhs):
                if side.type is not None and self.types_compatible(
                    side.type.decayed(), b.type
                ):
                    instances.append((b, side))
        if not instances:
            return False
        b, side = self.rand_element(instances)
        return self.replace_text(b.range, f"({self.get_source_text(side)})")


@register_mutator(
    "DistributeMultiplication",
    "This mutator distributes a multiplication over an addition, turning "
    "a * (b + c) into a*b + a*c.",
    category="Expression", origin="unsupervised", creative=True,
    action="Destruct", structure="BinaryOperator",
)
class DistributeMultiplication(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for b in _plain_binops(self):
            if b.op != "*":
                continue
            rhs = b.rhs
            while isinstance(rhs, ast.ParenExpr):
                rhs = rhs.inner
            if isinstance(rhs, ast.BinaryOperator) and rhs.op in ("+", "-"):
                if int_typed(b.lhs) and int_typed(rhs.lhs) and int_typed(rhs.rhs):
                    instances.append((b, rhs))
        if not instances:
            return False
        b, rhs = self.rand_element(instances)
        a = self.get_source_text(b.lhs)
        x = self.get_source_text(rhs.lhs)
        y = self.get_source_text(rhs.rhs)
        return self.replace_text(
            b.range, f"(({a}) * ({x}) {rhs.op} ({a}) * ({y}))"
        )


@register_mutator(
    "InsertRedundantCast",
    "This mutator inserts a cast of an expression to its own type, leaving "
    "the value unchanged.",
    category="Expression", origin="unsupervised",
    action="Add", structure="CastExpr",
)
class InsertRedundantCast(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [
            e
            for e in replaceable_rvalue_exprs(self)
            if int_typed(e)
        ]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        assert e.type is not None
        spelling = e.type.unqualified().spelling()
        return self.replace_text(
            e.range, f"(({spelling})({self.get_source_text(e)}))"
        )


@register_mutator(
    "PointerDerefToSubscript",
    "This mutator rewrites a pointer dereference *p into the subscript form "
    "p[0].",
    category="Expression", origin="unsupervised", creative=True,
    action="Modify", structure="PointerExpr",
)
class PointerDerefToSubscript(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            u
            for u in self.collect(ast.UnaryOperator)
            if isinstance(u, ast.UnaryOperator)
            and u.op == "*"
            and u.prefix
            and u.operand.type is not None
            and u.operand.type.decayed().is_pointer()
        ]
        if not candidates:
            return False
        u = self.rand_element(candidates)
        return self.replace_text(
            u.range, f"({self.get_source_text(u.operand)})[0]"
        )


@register_mutator(
    "SwapSubscriptOperands",
    "This mutator exploits the commutativity of C array subscripts, turning "
    "a[i] into i[a].",
    category="Expression", origin="unsupervised", creative=True,
    action="Swap", structure="ArraySubscriptExpr",
)
class SwapSubscriptOperands(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            s
            for s in self.collect(ast.ArraySubscriptExpr)
            if isinstance(s, ast.ArraySubscriptExpr)
            and s.base.type is not None
            and s.base.type.decayed().is_pointer()
            and s.index.type is not None
            and s.index.type.is_integer()
        ]
        if not candidates:
            return False
        s = self.rand_element(candidates)
        base = self.get_source_text(s.base)
        index = self.get_source_text(s.index)
        return self.replace_text(s.range, f"({index})[{base}]")


@register_mutator(
    "AddAssignToIncrement",
    "This mutator rewrites a compound assignment by one, x += 1, into the "
    "increment x++.",
    category="Expression", origin="unsupervised", creative=True,
    action="Modify", structure="CompoundAssignOperator",
)
class AddAssignToIncrement(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for b in self.collect(ast.BinaryOperator):
            assert isinstance(b, ast.BinaryOperator)
            if b.op not in ("+=", "-="):
                continue
            rhs = b.rhs
            while isinstance(rhs, ast.ParenExpr):
                rhs = rhs.inner
            if isinstance(rhs, ast.IntegerLiteral) and rhs.value == 1:
                instances.append(b)
        if not instances:
            return False
        b = self.rand_element(instances)
        op = "++" if b.op == "+=" else "--"
        return self.replace_text(b.range, f"{self.get_source_text(b.lhs)}{op}")


@register_mutator(
    "PrefixToPostfix",
    "This mutator converts a statement-level prefix increment/decrement to "
    "its postfix form.",
    category="Expression", origin="unsupervised",
    action="Switch", structure="UnaryOperator",
)
class PrefixToPostfix(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [u for u in statement_level_incdec(self) if u.prefix]
        if not candidates:
            return False
        u = self.rand_element(candidates)
        return self.replace_text(
            u.range, f"{self.get_source_text(u.operand)}{u.op}"
        )


@register_mutator(
    "ReplaceArgWithDefault",
    "This mutator replaces a scalar argument of a CallExpr with the default "
    "value of its type.",
    category="Expression", origin="unsupervised",
    action="Modify", structure="CallArgument",
)
class ReplaceArgWithDefault(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for call in self.collect(ast.CallExpr):
            assert isinstance(call, ast.CallExpr)
            for arg in call.args:
                if arg.type is not None and arg.type.decayed().is_scalar():
                    instances.append(arg)
        if not instances:
            return False
        arg = self.rand_element(instances)
        assert arg.type is not None
        return self.replace_text(arg.range, self.default_value_for(arg.type.decayed()))


@register_mutator(
    "ShrinkStringLiteral",
    "This mutator shortens a StringLiteral to its first half.",
    category="Expression", origin="unsupervised",
    action="Destruct", structure="StringLiteral",
)
class ShrinkStringLiteral(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            s
            for s in self.collect(ast.StringLiteral)
            if isinstance(s, ast.StringLiteral) and len(s.value) > 1 and "\\" not in s.text
        ]
        if not candidates:
            return False
        s = self.rand_element(candidates)
        assert isinstance(s, ast.StringLiteral)
        half = s.value[: max(1, len(s.value) // 2)]
        return self.replace_text(s.range, f'"{half}"')


@register_mutator(
    "XorWithZero",
    "This mutator XORs an integer expression with zero, an identity that "
    "exercises bitwise simplification passes.",
    category="Expression", origin="unsupervised",
    action="Add", structure="BitwiseExpr",
)
class XorWithZero(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        exprs = [e for e in replaceable_rvalue_exprs(self) if int_typed(e)]
        if not exprs:
            return False
        e = self.rand_element(exprs)
        return self.replace_text(e.range, f"(({self.get_source_text(e)}) ^ 0)")
