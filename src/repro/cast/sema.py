"""Semantic analysis: name resolution and type checking.

``Sema`` defines what "compilable" means throughout the reproduction: a
program compiles iff it lexes, parses, and passes this analysis.  The checks
are modelled on the constraint violations GCC/Clang reject — exactly the
errors that invalid mutants exhibit in the paper's validation loop (goal #6).

After a successful run, every ``Expr`` node carries its ``QualType`` and every
``DeclRefExpr`` points at its declaration, which the μAST semantic-check APIs
(``checkBinop``, ``checkAssignment``) and the IR generator rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.cast.source import SourceLocation
from repro.cast.symbols import Scope, Symbol


class SemaError(Exception):
    """A semantic (type/name) error, i.e. the program does not compile."""

    def __init__(self, message: str, loc: SourceLocation | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.loc = loc


@dataclass
class Diagnostic:
    message: str
    loc: SourceLocation | None
    severity: str = "error"


#: Library functions known to the front end (as if declared by headers).
#: result type, parameter types, variadic.
_BUILTIN_FUNCTIONS: dict[str, tuple[ct.QualType, tuple[ct.QualType, ...], bool]] = {
    "printf": (ct.INT, (ct.CHAR_PTR,), True),
    "sprintf": (ct.INT, (ct.CHAR_PTR, ct.CHAR_PTR), True),
    "snprintf": (ct.INT, (ct.CHAR_PTR, ct.ULONG, ct.CHAR_PTR), True),
    "scanf": (ct.INT, (ct.CHAR_PTR,), True),
    "puts": (ct.INT, (ct.CHAR_PTR,), False),
    "putchar": (ct.INT, (ct.INT,), False),
    "abort": (ct.VOID, (), False),
    "exit": (ct.VOID, (ct.INT,), False),
    "malloc": (ct.VOID_PTR, (ct.ULONG,), False),
    "calloc": (ct.VOID_PTR, (ct.ULONG, ct.ULONG), False),
    "free": (ct.VOID, (ct.VOID_PTR,), False),
    "memset": (ct.VOID_PTR, (ct.VOID_PTR, ct.INT, ct.ULONG), False),
    "memcpy": (ct.VOID_PTR, (ct.VOID_PTR, ct.VOID_PTR, ct.ULONG), False),
    "strlen": (ct.ULONG, (ct.CHAR_PTR,), False),
    "strcpy": (ct.CHAR_PTR, (ct.CHAR_PTR, ct.CHAR_PTR), False),
    "strcmp": (ct.INT, (ct.CHAR_PTR, ct.CHAR_PTR), False),
    "abs": (ct.INT, (ct.INT,), False),
    "labs": (ct.LONG, (ct.LONG,), False),
    "rand": (ct.INT, (), False),
    "srand": (ct.VOID, (ct.UINT,), False),
    "assert": (ct.VOID, (ct.INT,), False),
}


class Sema:
    """Performs semantic analysis over a translation unit."""

    def __init__(self, strict_prototypes: bool = True) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.strict_prototypes = strict_prototypes
        self._file_scope = Scope(kind="file")
        self._scope = self._file_scope
        self._current_function: ast.FunctionDecl | None = None
        self._labels: set[str] = set()
        self._gotos: list[ast.GotoStmt] = []
        self._records: dict[str, ct.RecordType] = {}
        self._enum_consts: dict[str, int] = {}
        self._typedefs: dict[str, ct.QualType] = {}
        #: Ordered log of writes to the cross-declaration dicts above
        #: (``("record", name, rec)`` / ``("enum_const", name, value)`` /
        #: ``("typedef", name, qt)``).  An incremental re-analysis replays a
        #: clean declaration's slice of this log as pure dict writes instead
        #: of re-walking its body (see :mod:`repro.cast.incremental`).
        self._effect_log: list[tuple] = []
        #: Per top-level decl (aligned with ``unit.decls`` after
        #: :meth:`analyze`): (diagnostic count, effect-log length) once the
        #: decl was fully analyzed.
        self._decl_marks: list[tuple[int, int]] = []

    # -- public API ---------------------------------------------------------

    def analyze(self, unit: ast.TranslationUnit) -> list[Diagnostic]:
        """Analyze a unit; returns diagnostics (empty = compilable)."""
        for decl in unit.decls:
            self._visit_top_level(decl)
            self._decl_marks.append(
                (len(self.diagnostics), len(self._effect_log))
            )
        return self.diagnostics

    def check(self, unit: ast.TranslationUnit) -> None:
        """Analyze and raise :class:`SemaError` on the first error."""
        diags = self.analyze(unit)
        errors = [d for d in diags if d.severity == "error"]
        if errors:
            raise SemaError(errors[0].message, errors[0].loc)

    # -- helpers -------------------------------------------------------------

    def _error(self, message: str, node: ast.Node | None = None) -> None:
        loc = SourceLocation(node.begin_offset) if node is not None else None
        self.diagnostics.append(Diagnostic(message, loc, "error"))

    def _warn(self, message: str, node: ast.Node | None = None) -> None:
        loc = SourceLocation(node.begin_offset) if node is not None else None
        self.diagnostics.append(Diagnostic(message, loc, "warning"))

    def _push(self, kind: str = "block") -> None:
        self._scope = Scope(parent=self._scope, kind=kind)

    def _pop(self) -> None:
        assert self._scope.parent is not None
        self._scope = self._scope.parent

    def _resolve(self, qt: ct.QualType) -> ct.QualType:
        """Resolve record types to their completed definitions."""
        if isinstance(qt.type, ct.RecordType) and qt.type.fields is None:
            completed = self._records.get(qt.type.name)
            if completed is not None:
                return ct.QualType(completed, qt.const, qt.volatile)
        return qt

    # -- declarations ----------------------------------------------------------

    def _visit_top_level(self, decl: ast.Decl) -> None:
        if isinstance(decl, ast.FunctionDecl):
            self._visit_function(decl)
        elif isinstance(decl, ast.VarDecl):
            decl.is_global = True
            self._declare_var(decl)
        elif isinstance(decl, ast.RecordDecl):
            self._declare_record(decl)
        elif isinstance(decl, ast.EnumDecl):
            self._declare_enum(decl)
        elif isinstance(decl, ast.TypedefDecl):
            self._typedefs[decl.name] = decl.underlying
            self._effect_log.append(("typedef", decl.name, decl.underlying))
            self._scope.define(Symbol(decl.name, decl.underlying, decl, "typedef"))
        else:  # pragma: no cover - parser produces no other top-level kinds
            self._error(f"unsupported top-level declaration {decl.kind}", decl)

    def _declare_record(self, decl: ast.RecordDecl) -> None:
        rec = ct.RecordType(
            decl.tag_kind,
            decl.name,
            tuple((f.name, self._resolve(f.type)) for f in decl.fields),
        )
        self._records[decl.name] = rec
        self._effect_log.append(("record", decl.name, rec))
        seen: set[str] = set()
        for f in decl.fields:
            if f.name in seen:
                self._error(f"duplicate member {f.name!r}", f)
            seen.add(f.name)
            if f.type.is_void():
                self._error(f"member {f.name!r} has incomplete type void", f)

    def _declare_enum(self, decl: ast.EnumDecl) -> None:
        next_value = 0
        for const in decl.constants:
            if const.value is not None:
                self._visit_expr(const.value)
                folded = fold_int(const.value)
                next_value = folded if folded is not None else next_value
            self._enum_consts[const.name] = next_value
            self._effect_log.append(("enum_const", const.name, next_value))
            if not self._scope.define(Symbol(const.name, ct.INT, const, "enum_const")):
                self._error(f"redefinition of enumerator {const.name!r}", const)
            next_value += 1

    def _declare_var(self, decl: ast.VarDecl) -> None:
        decl.type = self._resolve(decl.type)
        if decl.type.is_void():
            self._error(f"variable {decl.name!r} has incomplete type void", decl)
        if (
            isinstance(decl.type.type, ct.RecordType)
            and decl.type.type.fields is None
        ):
            self._error(
                f"variable {decl.name!r} has incomplete type {decl.type.spelling()}",
                decl,
            )
        if isinstance(decl.type.type, ct.ArrayType):
            size = decl.type.type.size
            if size is not None and size < 0:
                self._error(f"array {decl.name!r} has negative size", decl)
            if size is None and decl.init is None and not decl.is_global:
                self._error(f"array {decl.name!r} has unknown size", decl)
        # A declaration is in scope from its own initializer (int a = a;).
        if not self._scope.define(Symbol(decl.name, decl.type, decl, "var")):
            self._error(f"redefinition of {decl.name!r}", decl)
        if decl.init is not None:
            self._check_initializer(decl, decl.type, decl.init)
            if (decl.is_global or decl.storage == "static") and decl.init is not None:
                if not self._is_constant_init(decl.init):
                    self._error(
                        f"initializer of {decl.name!r} is not a constant "
                        f"expression",
                        decl.init,
                    )

    def _check_initializer(
        self, decl: ast.VarDecl, ty: ct.QualType, init: ast.Expr
    ) -> None:
        if isinstance(init, ast.InitListExpr):
            self._check_init_list(ty, init)
            return
        self._visit_expr(init)
        if init.type is None:
            return
        if ty.is_array():
            # Only char arrays may take a string-literal initializer.
            if isinstance(init, ast.StringLiteral):
                elem = ty.element()
                if elem is not None and not (
                    isinstance(elem.type, ct.BuiltinType)
                    and elem.type.kind
                    in (ct.BuiltinKind.CHAR, ct.BuiltinKind.SCHAR, ct.BuiltinKind.UCHAR)
                ):
                    self._error("string literal initializing non-char array", init)
                return
            self._error(f"invalid initializer for array {decl.name!r}", init)
            return
        if not ct.assignable(ty, init.type):
            self._error(
                f"initializing {ty.spelling()!r} with incompatible type "
                f"{init.type.spelling()!r}",
                init,
            )

    def _check_init_list(self, ty: ct.QualType, init: ast.InitListExpr) -> None:
        init.type = ty
        if ty.is_array():
            elem = ty.element()
            assert elem is not None
            size = ty.type.size  # type: ignore[union-attr]
            if size is not None and len(init.inits) > max(size, 1):
                self._error("excess elements in array initializer", init)
            for item in init.inits:
                if isinstance(item, ast.InitListExpr):
                    self._check_init_list(elem, item)
                else:
                    self._visit_expr(item)
                    if item.type is not None and not self._init_item_ok(elem, item):
                        self._error("incompatible array element initializer", item)
            return
        if ty.is_record():
            rec = ty.type
            assert isinstance(rec, ct.RecordType)
            fields = rec.fields or ()
            if len(init.inits) > len(fields) and fields:
                self._error("excess elements in struct initializer", init)
            for item, (fname, ftype) in zip(init.inits, fields):
                if isinstance(item, ast.InitListExpr):
                    self._check_init_list(self._resolve(ftype), item)
                else:
                    self._visit_expr(item)
                    if item.type is not None and not self._init_item_ok(
                        self._resolve(ftype), item
                    ):
                        self._error(
                            f"incompatible initializer for member {fname!r}", item
                        )
            return
        if ty.is_complex() or ty.is_scalar():
            if len(init.inits) != 1:
                self._error("scalar initializer requires exactly one element", init)
            for item in init.inits:
                if isinstance(item, ast.InitListExpr):
                    self._error("braces around scalar initializer", item)
                else:
                    self._visit_expr(item)
                    if item.type is not None and not ct.assignable(ty, item.type):
                        self._error("incompatible scalar initializer", item)
            return
        self._error(f"cannot initialize type {ty.spelling()!r} with a list", init)

    def _is_constant_init(self, init: ast.Expr) -> bool:
        """Whether ``init`` is acceptable as a static-storage initializer."""
        if isinstance(init, ast.InitListExpr):
            return all(self._is_constant_init(i) for i in init.inits)
        if isinstance(init, (ast.StringLiteral, ast.FloatingLiteral)):
            return True
        if isinstance(init, ast.UnaryOperator) and init.op == "&":
            return True  # address constants
        if isinstance(init, ast.UnaryOperator) and init.op in ("-", "+") and isinstance(
            init.operand, ast.FloatingLiteral
        ):
            return True
        if isinstance(init, ast.CastExpr):
            return self._is_constant_init(init.operand)
        return fold_int(init) is not None

    def _init_item_ok(self, target: ct.QualType, item: ast.Expr) -> bool:
        """Whether a non-list initializer item is valid for ``target``."""
        assert item.type is not None
        if target.is_array():
            if isinstance(item, ast.StringLiteral):
                elem = target.element()
                return elem is not None and isinstance(
                    elem.type, ct.BuiltinType
                ) and elem.type.kind in (
                    ct.BuiltinKind.CHAR, ct.BuiltinKind.SCHAR, ct.BuiltinKind.UCHAR
                )
            return False
        if target.is_complex():
            return item.type.is_arithmetic()
        return ct.assignable(target, item.type)

    def _visit_function(self, decl: ast.FunctionDecl) -> None:
        decl.return_type = self._resolve(decl.return_type)
        ftype = ct.QualType(
            ct.FunctionType(
                decl.return_type,
                tuple(self._resolve(p.type) for p in decl.params),
                variadic=decl.variadic,
                no_prototype=decl.no_prototype,
            )
        )
        # Stash the symbol type *before* the in-place parameter decay below:
        # re-running this method on an already-analyzed decl would build a
        # different (decayed) ftype, so incremental replay uses the stash.
        decl._sema_ftype = ftype
        existing = self._file_scope.lookup_local(decl.name)
        if existing is not None and existing.kind == "func":
            old = existing.type.type
            new = ftype.type
            assert isinstance(old, ct.FunctionType) and isinstance(new, ct.FunctionType)
            if old.result != new.result and not (old.no_prototype or new.no_prototype):
                self._error(f"conflicting types for {decl.name!r}", decl)
        if not self._file_scope.define(Symbol(decl.name, ftype, decl, "func")):
            self._error(f"redefinition of {decl.name!r}", decl)
        if decl.body is None:
            return
        self._current_function = decl
        self._labels = {
            n.name for n in decl.body.walk() if isinstance(n, ast.LabelStmt)
        }
        self._gotos = []
        self._push("function")
        seen_params: set[str] = set()
        for p in decl.params:
            p.type = self._resolve(p.type).decayed()
            if p.name:
                if p.name in seen_params:
                    self._error(f"redefinition of parameter {p.name!r}", p)
                seen_params.add(p.name)
                self._scope.define(Symbol(p.name, p.type, p, "param"))
            elif decl.body is not None:
                self._error("parameter name omitted in function definition", p)
        self._visit_stmt(decl.body)
        self._pop()
        for g in self._gotos:
            if g.label not in self._labels:
                self._error(f"use of undeclared label {g.label!r}", g)
        self._current_function = None

    # -- statements ---------------------------------------------------------------

    def _visit_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, f"_stmt_{stmt.kind}", None)
        if method is None:  # pragma: no cover - exhaustive dispatch
            self._error(f"unsupported statement {stmt.kind}", stmt)
            return
        method(stmt)

    def _stmt_CompoundStmt(self, stmt: ast.CompoundStmt) -> None:
        self._push("block")
        for s in stmt.stmts:
            self._visit_stmt(s)
        self._pop()

    def _stmt_DeclStmt(self, stmt: ast.DeclStmt) -> None:
        for decl in stmt.decls:
            if isinstance(decl, ast.VarDecl):
                self._declare_var(decl)
            elif isinstance(decl, ast.RecordDecl):
                self._declare_record(decl)
            elif isinstance(decl, ast.EnumDecl):
                self._declare_enum(decl)
            elif isinstance(decl, ast.TypedefDecl):
                self._typedefs[decl.name] = decl.underlying
                self._effect_log.append(("typedef", decl.name, decl.underlying))
                self._scope.define(
                    Symbol(decl.name, decl.underlying, decl, "typedef")
                )
            elif isinstance(decl, ast.FunctionDecl):
                pass  # local prototypes are accepted
            else:  # pragma: no cover
                self._error(f"unsupported local declaration {decl.kind}", decl)

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self._visit_expr(stmt.expr)

    def _stmt_NullStmt(self, stmt: ast.NullStmt) -> None:
        pass

    def _stmt_IfStmt(self, stmt: ast.IfStmt) -> None:
        self._check_condition(stmt.cond)
        self._visit_stmt(stmt.then_branch)
        if stmt.else_branch is not None:
            self._visit_stmt(stmt.else_branch)

    def _stmt_WhileStmt(self, stmt: ast.WhileStmt) -> None:
        self._check_condition(stmt.cond)
        self._push("loop")
        self._visit_stmt(stmt.body)
        self._pop()

    def _stmt_DoStmt(self, stmt: ast.DoStmt) -> None:
        self._push("loop")
        self._visit_stmt(stmt.body)
        self._pop()
        self._check_condition(stmt.cond)

    def _stmt_ForStmt(self, stmt: ast.ForStmt) -> None:
        self._push("loop")
        if isinstance(stmt.init, ast.DeclStmt):
            self._stmt_DeclStmt(stmt.init)
        elif isinstance(stmt.init, ast.ExprStmt):
            self._visit_expr(stmt.init.expr)
        if stmt.cond is not None:
            self._check_condition(stmt.cond)
        if stmt.inc is not None:
            self._visit_expr(stmt.inc)
        self._visit_stmt(stmt.body)
        self._pop()

    def _stmt_SwitchStmt(self, stmt: ast.SwitchStmt) -> None:
        self._visit_expr(stmt.cond)
        if stmt.cond.type is not None and not stmt.cond.type.is_integer():
            self._error("switch condition is not an integer", stmt.cond)
        self._push("switch")
        self._visit_stmt(stmt.body)
        self._pop()

    def _stmt_CaseStmt(self, stmt: ast.CaseStmt) -> None:
        if not self._scope.in_switch():
            self._error("'case' statement not in switch statement", stmt)
        self._visit_expr(stmt.expr)
        if fold_int(stmt.expr) is None:
            self._error("case label is not an integer constant expression", stmt.expr)
        if stmt.stmt is not None:
            self._visit_stmt(stmt.stmt)

    def _stmt_DefaultStmt(self, stmt: ast.DefaultStmt) -> None:
        if not self._scope.in_switch():
            self._error("'default' statement not in switch statement", stmt)
        if stmt.stmt is not None:
            self._visit_stmt(stmt.stmt)

    def _stmt_BreakStmt(self, stmt: ast.BreakStmt) -> None:
        if not self._scope.in_loop_or_switch():
            self._error("'break' statement not in loop or switch statement", stmt)

    def _stmt_ContinueStmt(self, stmt: ast.ContinueStmt) -> None:
        if not self._scope.in_loop():
            self._error("'continue' statement not in loop statement", stmt)

    def _stmt_ReturnStmt(self, stmt: ast.ReturnStmt) -> None:
        fn = self._current_function
        assert fn is not None
        if stmt.expr is not None:
            self._visit_expr(stmt.expr)
            if fn.return_type.is_void():
                self._error(
                    f"void function {fn.name!r} should not return a value", stmt
                )
            elif stmt.expr.type is not None and not ct.assignable(
                fn.return_type, stmt.expr.type
            ):
                self._error(
                    f"returning {stmt.expr.type.spelling()!r} from a function "
                    f"with result type {fn.return_type.spelling()!r}",
                    stmt,
                )
        elif not fn.return_type.is_void():
            self._error(
                f"non-void function {fn.name!r} should return a value", stmt
            )

    def _stmt_GotoStmt(self, stmt: ast.GotoStmt) -> None:
        self._gotos.append(stmt)

    def _stmt_LabelStmt(self, stmt: ast.LabelStmt) -> None:
        self._visit_stmt(stmt.stmt)

    def _check_condition(self, cond: ast.Expr) -> None:
        self._visit_expr(cond)
        if cond.type is not None and not cond.type.decayed().is_scalar():
            self._error(
                f"condition has non-scalar type {cond.type.spelling()!r}", cond
            )

    # -- expressions -----------------------------------------------------------

    def _visit_expr(self, expr: ast.Expr) -> ct.QualType | None:
        method = getattr(self, f"_expr_{expr.kind}", None)
        if method is None:  # pragma: no cover - exhaustive dispatch
            self._error(f"unsupported expression {expr.kind}", expr)
            return None
        expr.type = method(expr)
        return expr.type

    def _expr_IntegerLiteral(self, e: ast.IntegerLiteral) -> ct.QualType:
        suffix = "".join(c for c in e.text if c in "uUlL").lower()
        if "u" in suffix and suffix.count("l") >= 2:
            return ct.ULONGLONG
        if suffix.count("l") >= 2:
            return ct.LONGLONG
        if "u" in suffix and "l" in suffix:
            return ct.ULONG
        if "l" in suffix:
            return ct.LONG
        if "u" in suffix:
            return ct.UINT
        return ct.INT if e.value <= 0x7FFFFFFF else ct.LONG

    def _expr_FloatingLiteral(self, e: ast.FloatingLiteral) -> ct.QualType:
        return ct.FLOAT if e.text[-1:] in "fF" else ct.DOUBLE

    def _expr_CharacterLiteral(self, e: ast.CharacterLiteral) -> ct.QualType:
        return ct.INT

    def _expr_StringLiteral(self, e: ast.StringLiteral) -> ct.QualType:
        return ct.array_of(ct.CHAR, len(e.value) + 1)

    def _expr_DeclRefExpr(self, e: ast.DeclRefExpr) -> ct.QualType | None:
        sym = self._scope.lookup(e.name)
        if sym is None:
            if e.name in _BUILTIN_FUNCTIONS:
                result, params, variadic = _BUILTIN_FUNCTIONS[e.name]
                return ct.QualType(ct.FunctionType(result, params, variadic))
            self._error(f"use of undeclared identifier {e.name!r}", e)
            return None
        e.decl = sym.decl
        return sym.type

    def _expr_ParenExpr(self, e: ast.ParenExpr) -> ct.QualType | None:
        return self._visit_expr(e.inner)

    def _expr_UnaryOperator(self, e: ast.UnaryOperator) -> ct.QualType | None:
        ty = self._visit_expr(e.operand)
        if ty is None:
            return None
        op = e.op
        if op in ("++", "--"):
            if not self._is_lvalue(e.operand):
                self._error(f"operand of {op} is not an lvalue", e)
                return None
            if ty.const:
                self._error(f"cannot modify const operand with {op}", e)
            if not ty.decayed().is_scalar():
                self._error(f"invalid operand type {ty.spelling()!r} for {op}", e)
                return None
            return ty.unqualified()
        if op in ("+", "-"):
            if not ty.decayed().is_arithmetic():
                self._error(f"invalid operand type {ty.spelling()!r} to unary {op}", e)
                return None
            return ct.integer_promote(ty) if ty.is_integer() else ty.unqualified()
        if op == "~":
            if not ty.is_integer():
                self._error(f"invalid operand type {ty.spelling()!r} to unary ~", e)
                return None
            return ct.integer_promote(ty)
        if op == "!":
            if not ty.decayed().is_scalar():
                self._error("invalid operand to logical not", e)
                return None
            return ct.INT
        if op == "*":
            dec = ty.decayed()
            pointee = dec.pointee()
            if pointee is None:
                self._error(
                    f"indirection requires pointer operand ({ty.spelling()!r} given)",
                    e,
                )
                return None
            if isinstance(pointee.type, ct.FunctionType):
                return pointee
            return self._resolve(pointee)
        if op == "&":
            if not self._is_lvalue(e.operand) and not (
                isinstance(e.operand, ast.UnaryOperator)
                and e.operand.op in ("__imag", "__real")
            ):
                self._error("cannot take the address of an rvalue", e)
                return None
            return ct.pointer_to(ty)
        if op in ("__imag", "__real"):
            if not ty.is_complex() and not ty.is_arithmetic():
                self._error(f"invalid operand type to {op}", e)
                return None
            return ct.DOUBLE
        self._error(f"unknown unary operator {op!r}", e)  # pragma: no cover
        return None

    def _expr_BinaryOperator(self, e: ast.BinaryOperator) -> ct.QualType | None:
        if e.op in ast.ASSIGN_OPS:
            return self._check_assignment_op(e)
        lty = self._visit_expr(e.lhs)
        rty = self._visit_expr(e.rhs)
        if lty is None or rty is None:
            return None
        if e.op == ",":
            return rty
        return self.binop_result(e.op, lty, rty, e)

    def binop_result(
        self,
        op: str,
        lty: ct.QualType,
        rty: ct.QualType,
        node: ast.Node | None = None,
    ) -> ct.QualType | None:
        """Type of ``lhs op rhs``; reports an error and returns None if invalid."""
        lhs, rhs = lty.decayed(), rty.decayed()
        if op in ("&&", "||"):
            if lhs.is_scalar() and rhs.is_scalar():
                return ct.INT
            self._error(f"invalid operands to binary {op}", node)
            return None
        if op in ast.COMPARISON_OPS:
            if lhs.is_arithmetic() and rhs.is_arithmetic():
                return ct.INT
            if lhs.is_pointer() and rhs.is_pointer():
                return ct.INT
            if (lhs.is_pointer() and rhs.is_integer()) or (
                rhs.is_pointer() and lhs.is_integer()
            ):
                return ct.INT  # accepted with a warning by real compilers
            self._error(
                f"invalid operands to binary {op} "
                f"({lty.spelling()!r} and {rty.spelling()!r})",
                node,
            )
            return None
        if op in ("%", "&", "|", "^", "<<", ">>"):
            if lhs.is_integer() and rhs.is_integer():
                return ct.usual_arithmetic_conversions(lhs, rhs)
            self._error(
                f"invalid operands to binary {op} "
                f"({lty.spelling()!r} and {rty.spelling()!r})",
                node,
            )
            return None
        if op == "+":
            if lhs.is_pointer() and rhs.is_integer():
                return lhs
            if lhs.is_integer() and rhs.is_pointer():
                return rhs
        if op == "-":
            if lhs.is_pointer() and rhs.is_integer():
                return lhs
            if lhs.is_pointer() and rhs.is_pointer():
                return ct.LONG  # ptrdiff_t
        if op in ("+", "-", "*", "/"):
            common = ct.usual_arithmetic_conversions(lhs, rhs)
            if common is not None:
                return common
            self._error(
                f"invalid operands to binary {op} "
                f"({lty.spelling()!r} and {rty.spelling()!r})",
                node,
            )
            return None
        self._error(f"unknown binary operator {op!r}", node)  # pragma: no cover
        return None

    def _check_assignment_op(self, e: ast.BinaryOperator) -> ct.QualType | None:
        lty = self._visit_expr(e.lhs)
        rty = self._visit_expr(e.rhs)
        if lty is None or rty is None:
            return None
        if not self._is_lvalue(e.lhs):
            self._error("expression is not assignable", e.lhs)
            return None
        if lty.const:
            self._error(
                f"cannot assign to variable with const-qualified type "
                f"{lty.spelling()!r}",
                e.lhs,
            )
            return None
        if lty.is_array():
            self._error("array type is not assignable", e.lhs)
            return None
        if e.op == "=":
            if not ct.assignable(lty, rty):
                self._error(
                    f"assigning to {lty.spelling()!r} from incompatible type "
                    f"{rty.spelling()!r}",
                    e,
                )
                return None
            return lty.unqualified()
        base_op = e.op[:-1]  # "+=" -> "+"
        result = self.binop_result(base_op, lty, rty, e)
        if result is None:
            return None
        if not ct.assignable(lty, result):
            self._error(f"invalid compound assignment {e.op}", e)
            return None
        return lty.unqualified()

    def _expr_ConditionalOperator(self, e: ast.ConditionalOperator) -> ct.QualType | None:
        cty = self._visit_expr(e.cond)
        if cty is not None and not cty.decayed().is_scalar():
            self._error("condition of ?: is not scalar", e.cond)
        tty = self._visit_expr(e.true_expr)
        fty = self._visit_expr(e.false_expr)
        if tty is None or fty is None:
            return None
        t, f = tty.decayed(), fty.decayed()
        common = ct.usual_arithmetic_conversions(t, f)
        if common is not None:
            return common
        if t.is_pointer() and f.is_pointer():
            return t
        if t.is_pointer() and f.is_integer():
            return t
        if f.is_pointer() and t.is_integer():
            return f
        if t.is_void() and f.is_void():
            return ct.VOID
        if t.is_record() and t.type == f.type:
            return t.unqualified()
        self._error(
            f"incompatible operand types in ?: "
            f"({tty.spelling()!r} and {fty.spelling()!r})",
            e,
        )
        return None

    def _expr_CallExpr(self, e: ast.CallExpr) -> ct.QualType | None:
        # Implicit declarations (C89 style) are accepted with a warning.
        callee_name = e.callee_name()
        callee_ty: ct.QualType | None
        if callee_name is not None and self._scope.lookup(callee_name) is None:
            if callee_name in _BUILTIN_FUNCTIONS:
                result, params, variadic = _BUILTIN_FUNCTIONS[callee_name]
                callee_ty = ct.QualType(ct.FunctionType(result, params, variadic))
                e.callee.type = callee_ty
            else:
                self._warn(
                    f"implicit declaration of function {callee_name!r}", e
                )
                callee_ty = ct.QualType(
                    ct.FunctionType(ct.INT, (), no_prototype=True)
                )
                e.callee.type = callee_ty
        else:
            callee_ty = self._visit_expr(e.callee)
        for arg in e.args:
            self._visit_expr(arg)
        if callee_ty is None:
            return None
        fn_ty = callee_ty.type
        if isinstance(fn_ty, ct.PointerType) and isinstance(
            fn_ty.pointee.type, ct.FunctionType
        ):
            fn_ty = fn_ty.pointee.type
        if not isinstance(fn_ty, ct.FunctionType):
            self._error(
                f"called object type {callee_ty.spelling()!r} is not a function",
                e,
            )
            return None
        if not fn_ty.no_prototype and self.strict_prototypes:
            if len(e.args) < len(fn_ty.params) or (
                len(e.args) > len(fn_ty.params) and not fn_ty.variadic
            ):
                self._error(
                    f"call to {callee_name or 'function'!r} expects "
                    f"{len(fn_ty.params)} argument(s), got {len(e.args)}",
                    e,
                )
                return fn_ty.result
            for arg, pty in zip(e.args, fn_ty.params):
                if arg.type is not None and not ct.assignable(
                    self._resolve(pty), arg.type
                ):
                    self._error(
                        f"passing {arg.type.spelling()!r} to parameter of "
                        f"incompatible type {pty.spelling()!r}",
                        arg,
                    )
        return self._resolve(fn_ty.result)

    def _expr_ArraySubscriptExpr(self, e: ast.ArraySubscriptExpr) -> ct.QualType | None:
        bty = self._visit_expr(e.base)
        ity = self._visit_expr(e.index)
        if bty is None or ity is None:
            return None
        base, index = bty.decayed(), ity.decayed()
        if base.is_integer() and index.is_pointer():
            base, index = index, base  # the quirky i[arr] form
        pointee = base.pointee()
        if pointee is None:
            self._error(
                f"subscripted value is not an array or pointer "
                f"({bty.spelling()!r})",
                e,
            )
            return None
        if not index.is_integer():
            self._error("array subscript is not an integer", e.index)
        return self._resolve(pointee)

    def _expr_MemberExpr(self, e: ast.MemberExpr) -> ct.QualType | None:
        bty = self._visit_expr(e.base)
        if bty is None:
            return None
        if e.is_arrow:
            pointee = bty.decayed().pointee()
            if pointee is None:
                self._error(
                    f"member reference type {bty.spelling()!r} is not a pointer", e
                )
                return None
            bty = pointee
        bty = self._resolve(bty)
        rec = bty.type
        if not isinstance(rec, ct.RecordType):
            self._error(
                f"member reference base type {bty.spelling()!r} is not a structure "
                f"or union",
                e,
            )
            return None
        if rec.fields is None:
            self._error(f"incomplete type {rec.spelling()!r} in member access", e)
            return None
        fty = rec.field_type(e.member)
        if fty is None:
            self._error(
                f"no member named {e.member!r} in {rec.spelling()!r}", e
            )
            return None
        return self._resolve(fty)

    def _expr_CastExpr(self, e: ast.CastExpr) -> ct.QualType | None:
        oty = self._visit_expr(e.operand)
        target = self._resolve(e.target_type)
        if oty is None:
            return target
        src = oty.decayed()
        if target.is_void():
            return target
        if target.is_record() or src.is_record():
            if target.type != src.type:
                self._error(
                    f"cannot cast {oty.spelling()!r} to {target.spelling()!r}", e
                )
                return None
            return target
        if target.is_array():
            self._error("cast to array type is not allowed", e)
            return None
        if not (target.is_scalar() or target.is_complex()):
            self._error(f"invalid cast target {target.spelling()!r}", e)
            return None
        if not (src.is_scalar() or src.is_complex()):
            self._error(f"cannot cast operand of type {oty.spelling()!r}", e)
            return None
        if target.is_pointer() and src.is_floating():
            self._error("cannot cast floating value to pointer", e)
            return None
        if target.is_floating() and src.is_pointer():
            self._error("cannot cast pointer to floating type", e)
            return None
        return target

    def _expr_SizeofExpr(self, e: ast.SizeofExpr) -> ct.QualType:
        if e.operand is not None:
            self._visit_expr(e.operand)
        return ct.ULONG

    def _expr_InitListExpr(self, e: ast.InitListExpr) -> ct.QualType | None:
        # Reached only when an init list appears outside a declaration
        # (compound literals handle their own lists).
        self._error("initializer list in unexpected context", e)
        return None

    def _expr_CompoundLiteralExpr(self, e: ast.CompoundLiteralExpr) -> ct.QualType | None:
        target = self._resolve(e.target_type)
        self._check_init_list(target, e.init)
        return target

    # -- lvalue-ness -----------------------------------------------------------

    def _is_lvalue(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.ParenExpr):
            return self._is_lvalue(expr.inner)
        if isinstance(expr, ast.DeclRefExpr):
            return not (
                expr.decl is not None and isinstance(expr.decl, ast.EnumConstantDecl)
            ) and not (expr.type is not None and expr.type.is_function())
        if isinstance(expr, (ast.ArraySubscriptExpr, ast.MemberExpr)):
            return True
        if isinstance(expr, ast.UnaryOperator) and expr.op == "*":
            return True
        if isinstance(expr, ast.UnaryOperator) and expr.op in ("__imag", "__real"):
            # GNU extension: __imag/__real of an lvalue is itself an lvalue.
            return self._is_lvalue(expr.operand)
        if isinstance(expr, ast.StringLiteral):
            return True
        if isinstance(expr, ast.CompoundLiteralExpr):
            return True
        return False


def fold_int(expr: ast.Expr) -> int | None:
    """Fold an integer constant expression, or return None."""
    if isinstance(expr, ast.IntegerLiteral):
        return expr.value
    if isinstance(expr, ast.CharacterLiteral):
        return expr.value
    if isinstance(expr, ast.ParenExpr):
        return fold_int(expr.inner)
    if isinstance(expr, ast.DeclRefExpr) and isinstance(
        expr.decl, ast.EnumConstantDecl
    ):
        return 0  # value resolved elsewhere; constant-ness is what matters here
    if isinstance(expr, ast.UnaryOperator) and expr.op in ("-", "+", "~", "!"):
        v = fold_int(expr.operand)
        if v is None:
            return None
        return {"-": -v, "+": v, "~": ~v, "!": int(not v)}[expr.op]
    if isinstance(expr, ast.BinaryOperator):
        lhs, rhs = fold_int(expr.lhs), fold_int(expr.rhs)
        if lhs is None or rhs is None:
            return None
        try:
            return {
                "+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                "/": lhs // rhs if rhs else None,
                "%": lhs % rhs if rhs else None,
                "<<": lhs << (rhs & 63), ">>": lhs >> (rhs & 63),
                "&": lhs & rhs, "|": lhs | rhs, "^": lhs ^ rhs,
                "==": int(lhs == rhs), "!=": int(lhs != rhs),
                "<": int(lhs < rhs), ">": int(lhs > rhs),
                "<=": int(lhs <= rhs), ">=": int(lhs >= rhs),
                "&&": int(bool(lhs and rhs)), "||": int(bool(lhs or rhs)),
            }.get(expr.op)
        except (ValueError, OverflowError):
            return None
    return None


def check(unit: ast.TranslationUnit) -> list[Diagnostic]:
    """Run semantic analysis; returns all diagnostics."""
    return Sema().analyze(unit)
