"""AST node classes, mirroring the Clang node taxonomy.

Every node records the exact source range it was parsed from so that
mutators can rewrite the original text.  ``Expr`` nodes additionally carry
the ``QualType`` computed by semantic analysis.

As in Clang, a position is a plain offset, not an object: a node holds its
positions as ints in declared slots (``begin_offset``/``end_offset`` for
its range; each class lists all of its own in :attr:`Node.position_slots`),
and ``range``, ``name_range``, ``op_range``, ``lparen_loc`` and the other
position attributes are read-only properties that build a
:class:`~repro.cast.source.SourceRange` or
:class:`~repro.cast.source.SourceLocation` on access.  Every node class is
a slotted dataclass, so a parsed tree holds no position objects and no
per-node ``__dict__``; the attributes other layers set on nodes are
declared slots too (Sema's ``_sema_ftype``, the per-declaration memos
``_digest_memo`` and ``_summary_memo``, the unit's incremental marks).

The class names intentionally match Clang's (``IfStmt``, ``BinaryOperator``,
``DeclRefExpr``, ...) because the paper's [Program Structure] list — and hence
the invented mutator descriptions — are phrased in terms of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Iterator, Optional

from repro.cast.source import SourceLocation, SourceRange
from repro.cast.types import QualType


def _loc(offset: int | None) -> SourceLocation | None:
    return None if offset is None else SourceLocation(offset)


class Node:
    """Base class of every AST node."""

    __slots__ = ()

    begin_offset: int
    end_offset: int

    #: The slots that hold source offsets: the dirty-region front end's
    #: suffix clone shifts exactly these (an optional one may be ``None``).
    position_slots: tuple[str, ...] = ("begin_offset", "end_offset")

    @property
    def range(self) -> SourceRange:
        return SourceRange.of(self.begin_offset, self.end_offset)

    @property
    def kind(self) -> str:
        """The Clang-style node-kind name (the class name)."""
        return type(self).__name__

    def children(self) -> Iterator["Node"]:
        """Iterate over direct child nodes."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            children = list(node.children())
            children.reverse()
            stack.extend(children)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} {self.range!r}>"


def _iter(*items: Optional[Node]) -> Iterator[Node]:
    for item in items:
        if item is not None:
            yield item


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(slots=True, repr=False)
class Decl(Node):
    """Base class for declarations.

    A top-level declaration memoizes what derives from its text alone: its
    ``(full, header)`` digest pair (:func:`repro.cast.cache.decl_digests`)
    and its coverage/feature summary
    (:func:`repro.compiler.driver._decl_summaries`).
    """

    _digest_memo: Any = dc_field(default=None, init=False, compare=False)
    _summary_memo: Any = dc_field(default=None, init=False, compare=False)


@dataclass(slots=True, repr=False)
class TranslationUnit(Node):
    decls: list[Decl]
    begin_offset: int
    end_offset: int
    #: The parser's per-group marks and definition journal, which the
    #: dirty-region front end resumes from (see :mod:`repro.cast.incremental`).
    _inc_groups: tuple | None = dc_field(default=None, init=False, compare=False)
    _inc_journal: tuple | None = dc_field(default=None, init=False, compare=False)

    def children(self) -> Iterator[Node]:
        return iter(self.decls)

    def functions(self) -> list["FunctionDecl"]:
        return [d for d in self.decls if isinstance(d, FunctionDecl)]


@dataclass(slots=True, repr=False)
class VarDecl(Decl):
    name: str
    type: QualType
    init: Optional["Expr"]
    begin_offset: int
    end_offset: int
    name_begin: int
    name_end: int
    #: Range of the declaration-specifier tokens (e.g. ``static const int``).
    specifier_begin: int
    specifier_end: int
    storage: str | None = None  # "static", "extern", "typedef", ...
    #: Offset of the '=' introducing the initializer, if any.
    init_eq_offset: int | None = None
    is_global: bool = False

    position_slots = (
        "begin_offset", "end_offset", "name_begin", "name_end",
        "specifier_begin", "specifier_end", "init_eq_offset",
    )

    def children(self) -> Iterator[Node]:
        return _iter(self.init)

    @property
    def name_range(self) -> SourceRange:
        return SourceRange.of(self.name_begin, self.name_end)

    @property
    def specifier_range(self) -> SourceRange:
        return SourceRange.of(self.specifier_begin, self.specifier_end)

    @property
    def init_eq_loc(self) -> SourceLocation | None:
        return _loc(self.init_eq_offset)


@dataclass(slots=True, repr=False)
class ParmVarDecl(Decl):
    name: str
    type: QualType
    begin_offset: int
    end_offset: int
    name_begin: int
    name_end: int

    position_slots = ("begin_offset", "end_offset", "name_begin", "name_end")

    def children(self) -> Iterator[Node]:
        return iter(())

    @property
    def name_range(self) -> SourceRange:
        return SourceRange.of(self.name_begin, self.name_end)


@dataclass(slots=True, repr=False)
class FieldDecl(Decl):
    name: str
    type: QualType
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return iter(())


@dataclass(slots=True, repr=False)
class RecordDecl(Decl):
    tag_kind: str  # "struct" | "union"
    name: str
    fields: list[FieldDecl]
    begin_offset: int
    end_offset: int
    is_definition: bool = True

    def children(self) -> Iterator[Node]:
        return iter(self.fields)


@dataclass(slots=True, repr=False)
class EnumConstantDecl(Decl):
    name: str
    value: Optional["Expr"]
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.value)


@dataclass(slots=True, repr=False)
class EnumDecl(Decl):
    name: str
    constants: list[EnumConstantDecl]
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return iter(self.constants)


@dataclass(slots=True, repr=False)
class TypedefDecl(Decl):
    name: str
    underlying: QualType
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return iter(())


@dataclass(slots=True, repr=False)
class FunctionDecl(Decl):
    name: str
    return_type: QualType
    params: list[ParmVarDecl]
    body: Optional["CompoundStmt"]
    begin_offset: int
    end_offset: int
    name_begin: int
    name_end: int
    #: Source range of the return-type tokens (μAST getReturnTypeSourceRange).
    return_type_begin: int
    return_type_end: int
    #: Offsets of the parameter-list parentheses.
    lparen_offset: int | None = None
    rparen_offset: int | None = None
    storage: str | None = None
    variadic: bool = False
    #: True for K&R-style declarations ``int f();`` (no parameter info).
    no_prototype: bool = False
    attributes: list[str] = dc_field(default_factory=list)
    #: The function's symbol type as Sema first computed it, set when Sema
    #: analyzes the declaration (the dirty-region front end replays it).
    _sema_ftype: QualType | None = dc_field(
        default=None, init=False, compare=False
    )

    position_slots = (
        "begin_offset", "end_offset", "name_begin", "name_end",
        "return_type_begin", "return_type_end", "lparen_offset",
        "rparen_offset",
    )

    def children(self) -> Iterator[Node]:
        yield from self.params
        if self.body is not None:
            yield self.body

    @property
    def is_definition(self) -> bool:
        return self.body is not None

    @property
    def name_range(self) -> SourceRange:
        return SourceRange.of(self.name_begin, self.name_end)

    @property
    def return_type_range(self) -> SourceRange:
        return SourceRange.of(self.return_type_begin, self.return_type_end)

    @property
    def lparen_loc(self) -> SourceLocation | None:
        return _loc(self.lparen_offset)

    @property
    def rparen_loc(self) -> SourceLocation | None:
        return _loc(self.rparen_offset)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""

    __slots__ = ()


@dataclass(slots=True, repr=False)
class CompoundStmt(Stmt):
    stmts: list[Stmt]
    begin_offset: int
    end_offset: int
    lbrace_offset: int | None = None
    rbrace_offset: int | None = None

    position_slots = (
        "begin_offset", "end_offset", "lbrace_offset", "rbrace_offset",
    )

    def children(self) -> Iterator[Node]:
        return iter(self.stmts)

    @property
    def lbrace_loc(self) -> SourceLocation | None:
        return _loc(self.lbrace_offset)

    @property
    def rbrace_loc(self) -> SourceLocation | None:
        return _loc(self.rbrace_offset)


@dataclass(slots=True, repr=False)
class DeclStmt(Stmt):
    decls: list[Decl]
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return iter(self.decls)


@dataclass(slots=True, repr=False)
class ExprStmt(Stmt):
    expr: "Expr"
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.expr)


@dataclass(slots=True, repr=False)
class NullStmt(Stmt):
    begin_offset: int
    end_offset: int


@dataclass(slots=True, repr=False)
class IfStmt(Stmt):
    cond: "Expr"
    then_branch: Stmt
    else_branch: Optional[Stmt]
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.cond, self.then_branch, self.else_branch)


@dataclass(slots=True, repr=False)
class WhileStmt(Stmt):
    cond: "Expr"
    body: Stmt
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.cond, self.body)


@dataclass(slots=True, repr=False)
class DoStmt(Stmt):
    body: Stmt
    cond: "Expr"
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.body, self.cond)


@dataclass(slots=True, repr=False)
class ForStmt(Stmt):
    init: Optional[Node]  # DeclStmt, ExprStmt, or None
    cond: Optional["Expr"]
    inc: Optional["Expr"]
    body: Stmt
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.init, self.cond, self.inc, self.body)


@dataclass(slots=True, repr=False)
class SwitchStmt(Stmt):
    cond: "Expr"
    body: Stmt
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.cond, self.body)

    def cases(self) -> list["CaseStmt | DefaultStmt"]:
        return [n for n in self.body.walk() if isinstance(n, (CaseStmt, DefaultStmt))]


@dataclass(slots=True, repr=False)
class CaseStmt(Stmt):
    expr: "Expr"
    stmt: Optional[Stmt]
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.expr, self.stmt)


@dataclass(slots=True, repr=False)
class DefaultStmt(Stmt):
    stmt: Optional[Stmt]
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.stmt)


@dataclass(slots=True, repr=False)
class BreakStmt(Stmt):
    begin_offset: int
    end_offset: int


@dataclass(slots=True, repr=False)
class ContinueStmt(Stmt):
    begin_offset: int
    end_offset: int


@dataclass(slots=True, repr=False)
class ReturnStmt(Stmt):
    expr: Optional["Expr"]
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.expr)


@dataclass(slots=True, repr=False)
class GotoStmt(Stmt):
    label: str
    begin_offset: int
    end_offset: int


@dataclass(slots=True, repr=False)
class LabelStmt(Stmt):
    name: str
    stmt: Stmt
    begin_offset: int
    end_offset: int

    def children(self) -> Iterator[Node]:
        return _iter(self.stmt)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions; ``type`` is filled in by sema."""

    __slots__ = ()

    type: QualType | None = None


@dataclass(slots=True, repr=False)
class IntegerLiteral(Expr):
    value: int
    text: str
    begin_offset: int
    end_offset: int
    type: QualType | None = None


@dataclass(slots=True, repr=False)
class FloatingLiteral(Expr):
    value: float
    text: str
    begin_offset: int
    end_offset: int
    type: QualType | None = None


@dataclass(slots=True, repr=False)
class CharacterLiteral(Expr):
    value: int
    text: str
    begin_offset: int
    end_offset: int
    type: QualType | None = None


@dataclass(slots=True, repr=False)
class StringLiteral(Expr):
    value: str
    text: str
    begin_offset: int
    end_offset: int
    type: QualType | None = None


@dataclass(slots=True, repr=False)
class DeclRefExpr(Expr):
    name: str
    begin_offset: int
    end_offset: int
    decl: Decl | None = None  # resolved by sema
    type: QualType | None = None


@dataclass(slots=True, repr=False)
class ParenExpr(Expr):
    inner: Expr
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.inner)


#: Unary operator spellings; ``__imag``/``__real`` are GNU extensions used by
#: the paper's GCC #111819 case.
UNARY_OPS = ("+", "-", "!", "~", "*", "&", "++", "--", "__imag", "__real")


@dataclass(slots=True, repr=False)
class UnaryOperator(Expr):
    op: str
    operand: Expr
    prefix: bool
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.operand)


BINARY_OPS = (
    "*", "/", "%", "+", "-", "<<", ">>", "<", ">", "<=", ">=",
    "==", "!=", "&", "^", "|", "&&", "||", ",",
)
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=", "|=")
COMPARISON_OPS = ("<", ">", "<=", ">=", "==", "!=")
LOGICAL_OPS = ("&&", "||")
ARITHMETIC_OPS = ("*", "/", "%", "+", "-")
BITWISE_OPS = ("&", "^", "|", "<<", ">>")


@dataclass(slots=True, repr=False)
class BinaryOperator(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    begin_offset: int
    end_offset: int
    op_begin: int | None = None
    op_end: int | None = None
    type: QualType | None = None

    position_slots = ("begin_offset", "end_offset", "op_begin", "op_end")

    def children(self) -> Iterator[Node]:
        return _iter(self.lhs, self.rhs)

    @property
    def op_range(self) -> SourceRange | None:
        if self.op_begin is None:
            return None
        return SourceRange.of(self.op_begin, self.op_end)

    @property
    def is_assignment(self) -> bool:
        return self.op in ASSIGN_OPS

    @property
    def is_comparison(self) -> bool:
        return self.op in COMPARISON_OPS

    @property
    def is_logical(self) -> bool:
        return self.op in LOGICAL_OPS


@dataclass(slots=True, repr=False)
class ConditionalOperator(Expr):
    cond: Expr
    true_expr: Expr
    false_expr: Expr
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.cond, self.true_expr, self.false_expr)


@dataclass(slots=True, repr=False)
class CallExpr(Expr):
    callee: Expr
    args: list[Expr]
    begin_offset: int
    end_offset: int
    lparen_offset: int | None = None
    rparen_offset: int | None = None
    type: QualType | None = None

    position_slots = (
        "begin_offset", "end_offset", "lparen_offset", "rparen_offset",
    )

    def children(self) -> Iterator[Node]:
        yield self.callee
        yield from self.args

    @property
    def lparen_loc(self) -> SourceLocation | None:
        return _loc(self.lparen_offset)

    @property
    def rparen_loc(self) -> SourceLocation | None:
        return _loc(self.rparen_offset)

    def callee_name(self) -> str | None:
        node = self.callee
        while isinstance(node, ParenExpr):
            node = node.inner
        if isinstance(node, DeclRefExpr):
            return node.name
        return None


@dataclass(slots=True, repr=False)
class ArraySubscriptExpr(Expr):
    base: Expr
    index: Expr
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.base, self.index)


@dataclass(slots=True, repr=False)
class MemberExpr(Expr):
    base: Expr
    member: str
    is_arrow: bool
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.base)


@dataclass(slots=True, repr=False)
class CastExpr(Expr):
    target_type: QualType
    #: The spelled type text inside the parens, preserved for rewriting.
    type_text: str
    operand: Expr
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.operand)


@dataclass(slots=True, repr=False)
class SizeofExpr(Expr):
    #: Either an expression operand or a type operand (exactly one is set).
    operand: Expr | None
    type_operand: QualType | None
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.operand)


@dataclass(slots=True, repr=False)
class InitListExpr(Expr):
    inits: list[Expr]
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return iter(self.inits)


@dataclass(slots=True, repr=False)
class CompoundLiteralExpr(Expr):
    target_type: QualType
    type_text: str
    init: InitListExpr
    begin_offset: int
    end_offset: int
    type: QualType | None = None

    def children(self) -> Iterator[Node]:
        return _iter(self.init)


#: All statement node kinds, handy for mutators that target "any statement".
STMT_KINDS = (
    "CompoundStmt", "DeclStmt", "ExprStmt", "NullStmt", "IfStmt", "WhileStmt",
    "DoStmt", "ForStmt", "SwitchStmt", "CaseStmt", "DefaultStmt", "BreakStmt",
    "ContinueStmt", "ReturnStmt", "GotoStmt", "LabelStmt",
)

#: All expression node kinds.
EXPR_KINDS = (
    "IntegerLiteral", "FloatingLiteral", "CharacterLiteral", "StringLiteral",
    "DeclRefExpr", "ParenExpr", "UnaryOperator", "BinaryOperator",
    "ConditionalOperator", "CallExpr", "ArraySubscriptExpr", "MemberExpr",
    "CastExpr", "SizeofExpr", "InitListExpr", "CompoundLiteralExpr",
)
