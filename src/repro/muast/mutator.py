"""The ``Mutator`` base class: μAST query/rewriting/check/helper APIs.

Mirrors Figure 6 of the paper.  A mutator is instantiated fresh for each
mutation attempt, bound to an :class:`ASTContext`, and asked to ``mutate()``;
if it returns ``True`` the rewriter's output is the mutant.

Runtime misbehaviour is modelled the way the paper's validation loop sees it:

* an unhandled exception inside ``mutate()`` is a *mutator crash* (goal #3);
* exceeding the traversal fuel is a *mutator hang* (goal #2);
* returning ``True`` without edits means the mutator *does not rewrite*
  (goal #5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TypeVar

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.cast.cache import FrontendCache, FrontendEntry
from repro.cast.parser import ParseError, parse
from repro.cast.rewriter import Rewriter
from repro.cast.sema import Sema
from repro.cast.source import SourceFile, SourceLocation, SourceRange
from repro.cast.unparse import declare, expr_text
from repro.muast.visitor import ASTVisitor

T = TypeVar("T")

#: Default traversal fuel; generous for real mutators, small enough that a
#: buggy quadratic/unbounded loop trips the hang detector quickly.
DEFAULT_FUEL = 2_000_000


class MutatorCrash(Exception):
    """The mutator implementation raised during ``mutate()``."""


class MutatorHang(Exception):
    """The mutator exceeded its execution fuel (simulated hang)."""


@dataclass
class ASTContext:
    """Everything a mutator may query about the program under mutation.

    Query results are memoized: mutators never modify the AST (all rewriting
    is textual, via the :class:`~repro.cast.rewriter.Rewriter`), so the node
    list of a translation unit is immutable for the context's lifetime and a
    context shared across mutation attempts answers repeat queries without
    re-walking the tree.
    """

    unit: ast.TranslationUnit
    source: SourceFile
    sema: Sema

    _all_nodes: list[ast.Node] | None = field(default=None, init=False, repr=False)
    _by_class: dict[tuple, list[ast.Node]] = field(
        default_factory=dict, init=False, repr=False
    )
    _functions: list[ast.FunctionDecl] | None = field(
        default=None, init=False, repr=False
    )
    #: Free-form memo space for derived, immutable query results (parent
    #: maps, candidate lists).  Values must be pure functions of the unit —
    #: the context may be shared across mutation attempts and fuzzing steps.
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def all_nodes(self) -> list[ast.Node]:
        """The unit's nodes in pre-order (walked once, then memoized)."""
        if self._all_nodes is None:
            self._all_nodes = list(self.unit.walk())
        return self._all_nodes

    def node_count(self) -> int:
        return len(self.all_nodes())

    #: All functions with bodies, in declaration order.
    def function_definitions(self) -> list[ast.FunctionDecl]:
        if self._functions is None:
            self._functions = [f for f in self.unit.functions() if f.body is not None]
        return list(self._functions)

    def nodes_of_class(self, *classes: type) -> list[ast.Node]:
        got = self._by_class.get(classes)
        if got is None:
            got = [n for n in self.all_nodes() if isinstance(n, classes)]
            self._by_class[classes] = got
        # Callers may reorder/consume the result; hand out a copy.
        return list(got)


class Mutator:
    """Parent class of every generated mutator (the μAST facade)."""

    #: Subclasses (or the registry) set these.
    name: str = ""
    description: str = ""

    def __init__(self, rng: random.Random | None = None) -> None:
        self.rng = rng or random.Random(0)
        self._ctx: ASTContext | None = None
        self._rewriter: Rewriter | None = None
        self._fuel = DEFAULT_FUEL
        self._unique_counter = 0

    # -- binding ------------------------------------------------------------

    def bind(self, ctx: ASTContext) -> None:
        self._ctx = ctx
        self._rewriter = Rewriter(ctx.source)
        self._fuel = DEFAULT_FUEL
        self._unique_counter = 0

    def get_ast_context(self) -> ASTContext:
        assert self._ctx is not None, "mutator not bound to a program"
        return self._ctx

    def get_rewriter(self) -> Rewriter:
        assert self._rewriter is not None, "mutator not bound to a program"
        return self._rewriter

    # -- the mutation entry point -----------------------------------------------

    def mutate(self) -> bool:
        """Perform one mutation; return True iff the program changed."""
        raise NotImplementedError

    # -- traversal ---------------------------------------------------------------

    def traverse_ast(self, ctx: ASTContext | None = None) -> None:
        """Traverse the whole translation unit, firing visit_* callbacks."""
        ctx = ctx or self.get_ast_context()
        if isinstance(self, ASTVisitor):
            self._fuel_tick(ctx.node_count())
            ASTVisitor.traverse(self, ctx.unit)
        else:  # pragma: no cover - all mutators mix in ASTVisitor
            raise TypeError("mutator does not mix in ASTVisitor")

    def _fuel_tick(self, cost: int = 1) -> None:
        self._fuel -= cost
        if self._fuel <= 0:
            raise MutatorHang(f"{self.name or type(self).__name__} ran out of fuel")

    # -- query APIs (Figure 6) ------------------------------------------------------

    def get_source_text(self, node: ast.Node) -> str:
        """Extract the source code of a tree node."""
        return self.get_ast_context().source.slice(node.range)

    def find_str_loc_from(self, loc: SourceLocation, target: str) -> SourceLocation | None:
        """Locate ``target`` starting from ``loc``; None if absent."""
        idx = self.get_ast_context().source.text.find(target, loc.offset)
        return SourceLocation(idx) if idx >= 0 else None

    def find_braces_range(self, from_loc: SourceLocation) -> SourceRange | None:
        """Range of the first balanced ``{...}`` at or after ``from_loc``."""
        text = self.get_ast_context().source.text
        open_idx = text.find("{", from_loc.offset)
        if open_idx < 0:
            return None
        depth = 0
        for i in range(open_idx, len(text)):
            self._fuel_tick()
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    return SourceRange.of(open_idx, i + 1)
        return None

    def rand_element(self, elements: Sequence[T]) -> T:
        """Choose a random element (μAST randElement)."""
        self._fuel_tick()
        if not elements:
            raise MutatorCrash("randElement called on an empty collection")
        return elements[self.rng.randrange(len(elements))]

    def rand_bool(self) -> bool:
        return self.rng.random() < 0.5

    def rand_int(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def collect(self, *classes: type) -> list[ast.Node]:
        """All nodes of the given AST classes, in source order."""
        return self.get_ast_context().nodes_of_class(*classes)

    def enclosing_function(self, node: ast.Node) -> ast.FunctionDecl | None:
        """The function definition whose range contains ``node``."""
        for fn in self.get_ast_context().function_definitions():
            if fn.range.contains(node.range):
                return fn
        return None

    def nodes_within(self, root: ast.Node, *classes: type) -> list[ast.Node]:
        return [n for n in root.walk() if isinstance(n, classes)]

    # -- rewriting APIs -----------------------------------------------------------

    def replace_text(self, rng: SourceRange, text: str) -> bool:
        return self.get_rewriter().replace_text(rng, text)

    def remove_text(self, rng: SourceRange) -> bool:
        return self.get_rewriter().remove_text(rng)

    def insert_text_before(self, loc: SourceLocation, text: str) -> bool:
        return self.get_rewriter().insert_text_before(loc, text)

    def insert_text_after(self, loc: SourceLocation, text: str) -> bool:
        return self.get_rewriter().insert_text_after(loc, text)

    def insert_before_stmt(self, stmt: ast.Stmt, text: str) -> bool:
        return self.insert_text_before(stmt.range.begin, text + "\n")

    def insert_after_stmt(self, stmt: ast.Stmt, text: str) -> bool:
        return self.insert_text_after(stmt.range.end, "\n" + text)

    def remove_parm_from_func_decl(self, fn: ast.FunctionDecl, parm: ast.ParmVarDecl) -> bool:
        """Remove a parameter from a function declaration, with its comma."""
        try:
            idx = fn.params.index(parm)
        except ValueError:
            return False
        return self._remove_list_item(
            [p.range for p in fn.params], idx, fn.lparen_loc, fn.rparen_loc
        )

    def remove_arg_from_expr(self, call: ast.CallExpr, index: int) -> bool:
        """Remove one argument from a call expression, with its comma."""
        if not 0 <= index < len(call.args):
            return False
        return self._remove_list_item(
            [a.range for a in call.args], index, call.lparen_loc, call.rparen_loc
        )

    def _remove_list_item(
        self,
        ranges: list[SourceRange],
        idx: int,
        lparen: SourceLocation | None,
        rparen: SourceLocation | None,
    ) -> bool:
        item = ranges[idx]
        if len(ranges) == 1:
            return self.remove_text(item)
        if idx + 1 < len(ranges):
            # Remove through the start of the next item (eats the comma).
            return self.remove_text(SourceRange(item.begin, ranges[idx + 1].begin))
        # Last item: remove from the end of the previous one.
        return self.remove_text(SourceRange(ranges[idx - 1].end, item.end))

    # -- semantic checking APIs -------------------------------------------------------

    def check_binop(self, op: str, lhs: ast.Expr, rhs: ast.Expr) -> bool:
        """Whether ``lhs op rhs`` would type-check."""
        if lhs.type is None or rhs.type is None:
            return False
        probe = Sema()
        return probe.binop_result(op, lhs.type, rhs.type) is not None

    def check_assignment(self, lhs_ty: ct.QualType, rhs_ty: ct.QualType) -> bool:
        """Whether an expression of ``rhs_ty`` may replace one of ``lhs_ty``."""
        return ct.assignable(lhs_ty, rhs_ty)

    def types_compatible(self, a: ct.QualType, b: ct.QualType) -> bool:
        return ct.compatible_for_swap(a, b)

    def is_modifiable_lvalue(self, expr: ast.Expr) -> bool:
        if expr.type is None or expr.type.const or expr.type.is_array():
            return False
        probe = Sema()
        return probe._is_lvalue(expr)

    # -- helpers ------------------------------------------------------------------------

    def generate_unique_name(self, base_name: str) -> str:
        """A fresh identifier not occurring anywhere in the source."""
        text = self.get_ast_context().source.text
        while True:
            self._unique_counter += 1
            candidate = f"{base_name}_{self._unique_counter}"
            if candidate not in text:
                return candidate

    def format_as_decl(self, ty: ct.QualType, placeholder: str) -> str:
        """Format a type + identifier as a declaration (μAST formatAsDecl)."""
        return declare(ty, placeholder)

    def default_value_for(self, ty: ct.QualType) -> str:
        """A constant expression usable where a value of ``ty`` is expected."""
        if ty.is_floating() or ty.is_complex():
            return "0.0"
        if ty.is_pointer():
            return "0"
        if ty.is_record():
            return f"(({ty.unqualified().spelling()}){{0}})"
        return "0"

    def expr_to_text(self, expr: ast.Expr) -> str:
        return expr_text(expr)


@dataclass
class MutationOutcome:
    """What happened when a mutator was applied to a program."""

    changed: bool
    mutant_text: str | None
    error: str | None = None
    #: The rewriter's edit script (``(begin, end, replacement)`` spans in
    #: parent coordinates) when the mutant was produced by textual rewriting;
    #: lets ``Compiler.compile`` take the incremental front-end path.
    edits: tuple = ()


def context_for_entry(entry: FrontendEntry) -> ASTContext:
    """The shared :class:`ASTContext` for a cached front-end result.

    Memoized on the entry so every mutation attempt against the same parent
    program shares one context (and hence one set of ``nodes_of_class``
    memos).  Requires ``entry.compilable``.
    """
    ctx = entry.memo.get("muast_ctx")
    if ctx is None:
        assert entry.unit is not None and entry.sema is not None
        ctx = ASTContext(entry.unit, entry.source, entry.sema)
        entry.memo["muast_ctx"] = ctx
    return ctx


def apply_mutator(
    mutator: Mutator,
    program_text: str,
    *,
    require_parse: bool = True,
    ctx: ASTContext | None = None,
    cache: FrontendCache | None = None,
    edits_from: tuple[str, tuple] | None = None,
    paranoid: bool = False,
) -> MutationOutcome:
    """Bind ``mutator`` to ``program_text``, run it, and collect the mutant.

    Parse or semantic failures in the *input* program yield an unchanged
    outcome (mutators only run on compilable inputs, as in the paper).
    Exceptions raised by the mutator propagate: the validation loop and the
    fuzzers interpret :class:`MutatorHang`/other exceptions as goal #2/#3
    violations.

    With ``cache``, the front end of ``program_text`` is looked up in (or
    inserted into) the shared :class:`FrontendCache` and all attempts on the
    same text share one parsed unit.  ``edits_from`` and ``paranoid`` mean
    what they mean for ``Compiler.compile``: ``(parent_text, edit_script)``
    lets a cache miss take the dirty-region front end from the cached
    parent, and ``paranoid=True`` cross-checks that against a full front
    end.  With ``ctx``, the caller supplies a ready-made context and the
    front end is skipped entirely; the caller vouches that
    ``ctx.source.text == program_text`` and that it compiles.
    """
    if ctx is None and cache is not None:
        entry, _ = cache.front_end_from(
            program_text, edits_from, paranoid=paranoid
        )
        if entry.unit is None:
            if require_parse:
                return MutationOutcome(False, None, error="input does not parse")
            if entry.parse_recursion:
                raise RecursionError(entry.parse_error)
            raise ParseError(entry.parse_error or "input does not parse")
        if entry.error_diagnostics:
            return MutationOutcome(False, None, error="input does not compile")
        ctx = context_for_entry(entry)
    if ctx is None:
        source = SourceFile(program_text)
        try:
            unit = parse(program_text)
        except (ParseError, RecursionError):
            if require_parse:
                return MutationOutcome(False, None, error="input does not parse")
            raise
        sema = Sema()
        diags = sema.analyze(unit)
        if any(d.severity == "error" for d in diags):
            return MutationOutcome(False, None, error="input does not compile")
        ctx = ASTContext(unit, source, sema)
    mutator.bind(ctx)
    changed = mutator.mutate()
    if not changed:
        return MutationOutcome(False, None)
    rewriter = mutator.get_rewriter()
    if not rewriter.has_edits:
        # Claimed a change but made no edits: surfaced as "does not rewrite".
        return MutationOutcome(True, program_text)
    return MutationOutcome(
        True, rewriter.rewritten_text(), edits=rewriter.edit_script()
    )
