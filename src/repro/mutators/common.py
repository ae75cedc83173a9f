"""Helpers shared by the mutator library."""

from __future__ import annotations

from repro.cast import ast_nodes as ast
from repro.muast.mutator import Mutator

#: Integer literals that exercise boundary behaviour in optimizers.
BOUNDARY_INTS = (
    0, 1, -1, 2, 127, 128, 255, 256, 32767, 32768, 65535, 65536,
    0x7FFFFFFF, -0x80000000, 0xFFFFFFFF, 0x7FFFFFFFFFFFFFFF,
)


def paren(text: str) -> str:
    return f"({text})"


def is_plain_binop(b: ast.BinaryOperator) -> bool:
    """A non-assignment, non-comma binary operator."""
    return b.op not in ast.ASSIGN_OPS and b.op != ","


def int_typed(expr: ast.Expr) -> bool:
    return expr.type is not None and expr.type.is_integer()


def arith_typed(expr: ast.Expr) -> bool:
    return expr.type is not None and expr.type.is_arithmetic()


def condition_exprs(m: Mutator) -> list[ast.Expr]:
    """Conditions of if/while/do/for statements (never case labels)."""
    ctx = m.get_ast_context()
    conds: list[ast.Expr] | None = ctx.memo.get("condition_exprs")
    if conds is None:
        conds = []
        for node in ctx.all_nodes():
            if isinstance(node, (ast.IfStmt, ast.WhileStmt, ast.DoStmt)):
                conds.append(node.cond)
            elif isinstance(node, ast.ForStmt) and node.cond is not None:
                conds.append(node.cond)
        ctx.memo["condition_exprs"] = conds
    return list(conds)


def is_removable_stmt(stmt: ast.Stmt) -> bool:
    """Statements that can be deleted without dangling references/labels."""
    if isinstance(stmt, (ast.DeclStmt, ast.CaseStmt, ast.DefaultStmt)):
        return False
    for n in stmt.walk():
        if isinstance(n, (ast.DeclStmt, ast.LabelStmt, ast.CaseStmt, ast.DefaultStmt)):
            return False
    return True


def references_only_globals(m: Mutator, node: ast.Node) -> bool:
    """Whether every DeclRef under ``node`` resolves to file scope.

    Global variables, functions (including implicitly-declared library
    functions, whose ``decl`` is None but whose type is a function type), and
    enum constants qualify; parameters and locals do not.
    """
    for ref in node.walk():
        if not isinstance(ref, ast.DeclRefExpr):
            continue
        decl = ref.decl
        if isinstance(decl, (ast.FunctionDecl, ast.EnumConstantDecl)):
            continue
        if isinstance(decl, ast.VarDecl) and decl.is_global:
            continue
        if decl is None and ref.type is not None and ref.type.is_function():
            continue
        return False
    return True


def parent_map(unit: ast.TranslationUnit) -> dict[int, ast.Node]:
    """Map ``id(node)`` → parent node for the whole unit."""
    parents: dict[int, ast.Node] = {}
    stack: list[ast.Node] = [unit]
    while stack:
        node = stack.pop()
        for child in node.children():
            parents[id(child)] = node
            stack.append(child)
    return parents


def shared_parent_map(m: Mutator) -> dict[int, ast.Node]:
    """The unit's parent map, memoized on the shared AST context.

    Consumers only look nodes up; the cached dict is handed out directly so
    repeat calls within (and across) mutation attempts cost nothing.
    """
    ctx = m.get_ast_context()
    parents: dict[int, ast.Node] | None = ctx.memo.get("parent_map")
    if parents is None:
        parents = parent_map(ctx.unit)
        ctx.memo["parent_map"] = parents
    return parents


def _constant_context_roots(unit: ast.TranslationUnit) -> list[ast.Node]:
    """Expressions that must remain integer constant expressions."""
    roots: list[ast.Node] = []
    for node in unit.walk():
        if isinstance(node, ast.CaseStmt):
            roots.append(node.expr)
        elif isinstance(node, ast.EnumConstantDecl) and node.value is not None:
            roots.append(node.value)
        elif isinstance(node, ast.VarDecl) and node.is_global and node.init is not None:
            # File-scope initializers must stay constant expressions.
            roots.append(node.init)
    return roots


def replaceable_rvalue_exprs(m: Mutator) -> list[ast.Expr]:
    """Expressions whose text may be replaced by an arbitrary rvalue.

    Excludes lvalue positions (assignment targets, ``&``/``++``/``--``
    operands, member/subscript/call bases) and integer-constant contexts
    (case labels, enumerator values), where substituting a general expression
    would not compile.
    """
    ctx = m.get_ast_context()
    cached: list[ast.Expr] | None = ctx.memo.get("replaceable_rvalue_exprs")
    if cached is not None:
        return list(cached)
    unit = ctx.unit
    parents = shared_parent_map(m)
    protected: set[int] = set()
    for root in _constant_context_roots(unit):
        for n in root.walk():
            protected.add(id(n))
    for node in ctx.all_nodes():
        if isinstance(node, ast.BinaryOperator) and node.is_assignment:
            protected.add(id(node.lhs))
        elif isinstance(node, ast.UnaryOperator) and node.op in ("&", "++", "--"):
            protected.add(id(node.operand))
        elif isinstance(node, ast.CallExpr):
            protected.add(id(node.callee))
        elif isinstance(node, ast.MemberExpr):
            protected.add(id(node.base))
        elif isinstance(node, ast.ArraySubscriptExpr):
            protected.add(id(node.base))
        elif isinstance(node, ast.InitListExpr):
            # Positional aggregate initializers are type-directed; keep them.
            for child in node.inits:
                protected.add(id(child))
    # Protection is transitive through ParenExpr (``(&(x))``-style operands).
    out: list[ast.Expr] = []
    for node in ctx.all_nodes():
        if not isinstance(node, ast.Expr) or node.type is None:
            continue
        if isinstance(node, (ast.InitListExpr, ast.StringLiteral)):
            continue
        blocked = False
        probe: ast.Node | None = node
        while probe is not None:
            if id(probe) in protected:
                blocked = True
                break
            parent = parents.get(id(probe))
            if not isinstance(parent, ast.ParenExpr):
                break
            probe = parent
        if not blocked:
            out.append(node)
    ctx.memo["replaceable_rvalue_exprs"] = out
    return list(out)


def statement_level_incdec(m: Mutator) -> list[ast.UnaryOperator]:
    """``++``/``--`` expressions whose value is discarded (stmt or for-inc)."""
    unit = m.get_ast_context().unit
    out: list[ast.UnaryOperator] = []
    for node in unit.walk():
        expr: ast.Expr | None = None
        if isinstance(node, ast.ExprStmt):
            expr = node.expr
        elif isinstance(node, ast.ForStmt):
            expr = node.inc
        if isinstance(expr, ast.UnaryOperator) and expr.op in ("++", "--"):
            out.append(expr)
    return out


def loose_breaks(root: ast.Node, *, continues: bool = True) -> list[ast.Stmt]:
    """Break/continue statements under ``root`` that bind *outside* it.

    A ``break`` bound to a loop or switch nested inside ``root`` is fine to
    move/copy along with ``root``; one that binds to an enclosing construct is
    not.  ``continues=False`` restricts the search to ``break``.
    """
    out: list[ast.Stmt] = []

    def walk(node: ast.Node, loop_depth: int, breakable_depth: int) -> None:
        if isinstance(node, (ast.WhileStmt, ast.DoStmt, ast.ForStmt)):
            for child in node.children():
                walk(child, loop_depth + 1, breakable_depth + 1)
            return
        if isinstance(node, ast.SwitchStmt):
            walk(node.cond, loop_depth, breakable_depth)
            walk(node.body, loop_depth, breakable_depth + 1)
            return
        if isinstance(node, ast.BreakStmt) and breakable_depth == 0:
            out.append(node)
        elif isinstance(node, ast.ContinueStmt) and continues and loop_depth == 0:
            out.append(node)
        for child in node.children():
            walk(child, loop_depth, breakable_depth)

    walk(root, 0, 0)
    return out


def contains_label_or_case(root: ast.Node) -> bool:
    """Whether ``root`` contains label/case/default statements (unsafe to copy)."""
    return any(
        isinstance(n, (ast.LabelStmt, ast.CaseStmt, ast.DefaultStmt))
        for n in root.walk()
    )


def safe_to_copy(root: ast.Stmt) -> bool:
    """Whether duplicating this statement's text elsewhere stays compilable.

    Copied label/case/default statements collide with their originals;
    declarations are fine because every copy target introduces a new scope.
    """
    return not contains_label_or_case(root)


def call_sites_of(m: Mutator, fn_name: str) -> list[ast.CallExpr]:
    return [
        c
        for c in m.collect(ast.CallExpr)
        if isinstance(c, ast.CallExpr) and c.callee_name() == fn_name
    ]


def address_taken(m: Mutator, fn_name: str) -> bool:
    """Whether the function name is referenced outside a call position."""
    calls = set()
    for c in call_sites_of(m, fn_name):
        node = c.callee
        while isinstance(node, ast.ParenExpr):
            node = node.inner
        calls.add(id(node))
    for ref in m.collect(ast.DeclRefExpr):
        if isinstance(ref, ast.DeclRefExpr) and ref.name == fn_name:
            if id(ref) not in calls and isinstance(ref.decl, ast.FunctionDecl):
                return True
    return False
