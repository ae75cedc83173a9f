"""AST → IR lowering ("IR generation", the paper's second compiler module).

Lowers the typed AST into :mod:`repro.compiler.ir`.  Every lowering decision
reports a coverage edge, and structural statistics are accumulated for the
seeded-bug trigger predicates (:mod:`repro.compiler.bugs`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.cast.sema import Sema
from repro.compiler import flatir as F
from repro.compiler import layout
from repro.compiler.coverage import CoverageMap
from repro.compiler.ir import (
    BinOp, Block, Br, Call, Cast, Gep, GlobalAddr, GlobalVar, ImmFloat,
    ImmInt, Instr, IRFunction, IRModule, IRType, Jmp, Load, LocalAddr,
    Memcpy, Operand, Ret, Store, Temp, UnOp,
)


class LoweringError(Exception):
    """A construct the simulated middle end rejects ("sorry, unimplemented").

    Treated as an ordinary front-end diagnostic, not a compiler bug.
    """


@dataclass
class IRGenStats:
    """Structural features used by bug-trigger predicates."""

    counters: Counter = field(default_factory=Counter)

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)


class _FunctionCtx:
    def __init__(self, fn, entry: Block) -> None:
        self.fn = fn
        self.entry = entry
        self.current = entry
        self.temp_counter = 0
        self.block_counter = 0
        self.break_stack: list[str] = []
        self.continue_stack: list[str] = []
        self.locals: dict[int, tuple[str, ct.QualType]] = {}  # id(decl) -> slot
        self.label_blocks: dict[str, str] = {}


def lower_decl(index: int, decl, kind: str, lower) -> None:
    """IR generation's own per-declaration step: lower ``decl`` live."""
    lower(decl)


class IRGen:
    """Lowers one translation unit to an IR module."""

    def __init__(self, sema: Sema, cov: CoverageMap | None = None) -> None:
        self.sema = sema
        self.cov = cov or CoverageMap()
        self.module = IRModule()
        self.stats = IRGenStats()
        self._ctx: _FunctionCtx | None = None
        self._string_counter = 0
        self._enum_values: dict[str, int] = {}
        self._static_counter = 0

    # ------------------------------------------------------------------ API

    def lower(
        self, unit: ast.TranslationUnit, decl_step=lower_decl
    ) -> IRModule:
        """Lower ``unit``'s declarations, in order, into :attr:`module`.

        This loop decides which declarations reach the middle end: a
        ``VarDecl`` becomes a global (kind ``"var"``) and a ``FunctionDecl``
        with a body a function (``"fn"``).  Enums, records, typedefs and
        prototypes only inform Sema and the enum table, collected first.
        ``decl_step(index, decl, kind, lower)`` handles one declaration;
        ``lower`` is this generator's lowerer for its kind.  The default
        step calls it; the compile session's replays the declarations it
        already holds instead.
        """
        self._collect_enums(unit)
        for index, decl in enumerate(unit.decls):
            if isinstance(decl, ast.VarDecl):
                decl_step(index, decl, "var", self._lower_global)
            elif isinstance(decl, ast.FunctionDecl) and decl.body is not None:
                decl_step(index, decl, "fn", self._lower_function)
        return self.module

    # ------------------------------------------------------------- helpers

    @property
    def ctx(self) -> _FunctionCtx:
        assert self._ctx is not None
        return self._ctx

    def _temp(self) -> Temp:
        self.ctx.temp_counter += 1
        return Temp(self.ctx.temp_counter)

    def _new_block(self, hint: str) -> Block:
        self.ctx.block_counter += 1
        block = Block(f"{hint}.{self.ctx.block_counter}")
        self.ctx.fn.blocks.append(block)
        return block

    def _emit(self, instr: Instr) -> None:
        # Dead code after a terminator is silently dropped (like real
        # compilers building straight into the CFG).
        if self.ctx.current.terminator is None:
            self.ctx.current.instrs.append(instr)

    def _set_current(self, block: Block) -> None:
        self.ctx.current = block

    def _seal_with_jmp(self, target: Block) -> None:
        if self._unterminated():
            self._emit(Jmp(target.label))

    # Function-carrier hooks.  ``FlatIRGen`` overrides these (plus
    # ``_new_block``/``_emit``/``_set_current``) to grow an ``IRBuffer``
    # instead of an ``IRFunction``; every lowering decision above this seam
    # is shared, so temp numbering, block labels, coverage edges, and stats
    # are identical by construction.

    def _begin_function(self, decl: ast.FunctionDecl, ret_ty: IRType) -> None:
        fn = IRFunction(
            decl.name,
            [],
            ret_ty,
            blocks=[Block("entry")],
            attributes=list(decl.attributes),
        )
        self.module.functions[decl.name] = fn
        self._ctx = _FunctionCtx(fn, fn.blocks[0])

    def _end_function(self) -> None:
        self._ctx = None

    def _add_param(self, name: str, pty: IRType) -> None:
        self.ctx.fn.params.append((name, pty))

    def _unterminated(self) -> bool:
        return self.ctx.current.terminator is None

    def _block_by_label(self, label: str) -> Block:
        return self.ctx.fn.block(label)

    def _empty_user_labels(self) -> int:
        return sum(
            1
            for b in self.ctx.fn.blocks
            if b.label.startswith("ul_")
            and all(isinstance(i, (Jmp, Ret)) for i in b.instrs)
        )

    def _collect_enums(self, unit: ast.TranslationUnit) -> None:
        for node in unit.walk():
            if isinstance(node, ast.EnumDecl):
                value = 0
                for const in node.constants:
                    if const.value is not None:
                        folded = self._fold_const_int(const.value)
                        value = folded if folded is not None else value
                    self._enum_values[const.name] = value
                    value += 1

    def _fold_const_int(self, expr: ast.Expr) -> int | None:
        """Constant folding that also resolves enum constants."""
        if isinstance(expr, ast.DeclRefExpr) and expr.name in self._enum_values:
            return self._enum_values[expr.name]
        if isinstance(expr, (ast.IntegerLiteral, ast.CharacterLiteral)):
            return expr.value
        if isinstance(expr, ast.ParenExpr):
            return self._fold_const_int(expr.inner)
        if isinstance(expr, ast.SizeofExpr):
            try:
                if expr.type_operand is not None:
                    return layout.size_of(expr.type_operand)
                assert expr.operand is not None and expr.operand.type is not None
                return layout.size_of(expr.operand.type)
            except layout.LayoutError:
                return None
        if isinstance(expr, ast.CastExpr) and expr.target_type.is_integer():
            inner = self._fold_const_int(expr.operand)
            if inner is None:
                return None
            return _truncate(inner, layout.ir_type_of(expr.target_type), True)
        if isinstance(expr, ast.UnaryOperator) and expr.op in ("-", "+", "~", "!"):
            v = self._fold_const_int(expr.operand)
            if v is None:
                return None
            return {"-": -v, "+": v, "~": ~v, "!": int(not v)}[expr.op]
        if isinstance(expr, ast.BinaryOperator):
            lhs = self._fold_const_int(expr.lhs)
            rhs = self._fold_const_int(expr.rhs)
            if lhs is None or rhs is None:
                return None
            try:
                return {
                    "+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                    "/": int(lhs / rhs) if rhs else None,
                    "%": lhs - int(lhs / rhs) * rhs if rhs else None,
                    "<<": lhs << (rhs & 63), ">>": lhs >> (rhs & 63),
                    "&": lhs & rhs, "|": lhs | rhs, "^": lhs ^ rhs,
                    "==": int(lhs == rhs), "!=": int(lhs != rhs),
                    "<": int(lhs < rhs), ">": int(lhs > rhs),
                    "<=": int(lhs <= rhs), ">=": int(lhs >= rhs),
                    "&&": int(bool(lhs and rhs)), "||": int(bool(lhs or rhs)),
                    ",": rhs,
                }.get(expr.op)
            except (ValueError, OverflowError, ZeroDivisionError):
                return None
        return None

    # ------------------------------------------------------------- globals

    def _lower_global(self, decl: ast.VarDecl) -> None:
        try:
            size = max(layout.size_of(decl.type), 1)
        except layout.LayoutError as exc:
            raise LoweringError(str(exc)) from exc
        # Qualifiers of an array object live on its element type.
        core = decl.type
        while core.is_array():
            elem = core.element()
            assert elem is not None
            core = elem
        g = GlobalVar(
            decl.name,
            size,
            const=decl.type.const or core.const,
            volatile=decl.type.volatile or core.volatile,
        )
        self.cov.hit("irgen:global", (decl.type.unqualified().spelling(), size > 8))
        self.stats.bump("globals")
        if decl.type.is_array():
            self.stats.bump("global_arrays")
        if decl.init is not None:
            self._lower_global_init(g, decl.type, decl.init, 0)
        self.module.globals[decl.name] = g

    def _lower_global_init(
        self, g: GlobalVar, qt: ct.QualType, init: ast.Expr, offset: int
    ) -> None:
        if isinstance(init, ast.InitListExpr):
            if qt.is_array():
                elem = qt.element()
                assert elem is not None
                esize = layout.size_of(elem)
                for i, item in enumerate(init.inits):
                    self._lower_global_init(g, elem, item, offset + i * esize)
            elif qt.is_record():
                rec = qt.type
                assert isinstance(rec, ct.RecordType)
                offsets, _sz = layout.record_layout(rec)
                for item, (fname, fqt) in zip(init.inits, rec.fields or ()):
                    self._lower_global_init(g, fqt, item, offset + offsets[fname])
            elif init.inits:
                self._lower_global_init(g, qt, init.inits[0], offset)
            return
        if isinstance(init, ast.StringLiteral):
            data = init.value.encode("latin-1", "replace") + b"\x00"
            for i, byte in enumerate(data[: g.size - offset]):
                g.init.append((offset + i, IRType.I8, byte))
            return
        if isinstance(init, ast.UnaryOperator) and init.op == "&":
            target = init.operand
            while isinstance(target, ast.ParenExpr):
                target = target.inner
            if isinstance(target, ast.DeclRefExpr):
                g.init.append((offset, IRType.PTR, ("addr", target.name, 0)))
                return
            raise LoweringError("unsupported address-constant initializer")
        if qt.is_complex():
            folded = self._fold_const_int(init)
            if folded is not None:
                g.init.append((offset, IRType.F64, float(folded)))
                return
            if isinstance(init, ast.FloatingLiteral):
                g.init.append((offset, IRType.F64, init.value))
                return
            raise LoweringError("unsupported complex initializer")
        try:
            scalar_ty = layout.ir_type_of(qt) if qt.is_scalar() else IRType.I64
        except layout.LayoutError as exc:
            raise LoweringError(str(exc)) from exc
        folded = self._fold_const_int(init)
        if folded is not None:
            if scalar_ty.is_float:
                g.init.append((offset, scalar_ty, float(folded)))
            else:
                g.init.append((offset, scalar_ty, _truncate(folded, scalar_ty, True)))
            return
        if isinstance(init, ast.FloatingLiteral):
            g.init.append((offset, scalar_ty, init.value))
            return
        if (
            isinstance(init, ast.UnaryOperator)
            and init.op in ("-", "+")
            and isinstance(init.operand, ast.FloatingLiteral)
        ):
            v = init.operand.value if init.op == "+" else -init.operand.value
            g.init.append((offset, scalar_ty, v))
            return
        if isinstance(init, ast.CastExpr):
            self._lower_global_init(g, qt, init.operand, offset)
            return
        raise LoweringError("unsupported constant initializer")

    # ----------------------------------------------------------- functions

    def _lower_function(self, decl: ast.FunctionDecl) -> None:
        try:
            ret_ty = (
                IRType.VOID
                if decl.return_type.is_void()
                else layout.ir_type_of(decl.return_type)
                if decl.return_type.is_scalar()
                else IRType.PTR
                if decl.return_type.is_complex() or decl.return_type.is_record()
                else IRType.VOID
            )
        except layout.LayoutError as exc:
            raise LoweringError(str(exc)) from exc
        if decl.return_type.is_record() or decl.return_type.is_complex():
            raise LoweringError(
                f"returning aggregates from {decl.name!r} is unsupported"
            )
        self._begin_function(decl, ret_ty)
        self.cov.hit("irgen:function", (len(decl.params), ret_ty))
        self.stats.bump("functions")
        if decl.return_type.is_void():
            self.stats.bump("void_functions")
        for attr in decl.attributes:
            self.cov.hit("irgen:attr", attr[:40])
            self.stats.bump("attributes")

        # Pre-create user label blocks so forward gotos resolve.
        assert decl.body is not None
        for node in decl.body.walk():
            if isinstance(node, ast.LabelStmt):
                block = self._new_block(f"ul_{node.name}")
                self.ctx.label_blocks[node.name] = block.label
                self.stats.bump("labels")

        params: list[tuple[str, IRType]] = []
        for p in decl.params:
            if not p.type.is_scalar():
                raise LoweringError(
                    f"aggregate parameter {p.name!r} is unsupported"
                )
            pty = layout.ir_type_of(p.type)
            self._add_param(p.name, pty)
            params.append((p.name, pty))
            slot = self._alloc_slot(p.name, p.type)
            self.ctx.locals[id(p)] = (slot, p.type)

        # Spill incoming parameter values into their slots.
        self._set_current(self.ctx.entry)
        for i, p in enumerate(decl.params):
            addr = self._temp()
            self._emit(LocalAddr(addr, params[i][0] + ".slot"))
            self._emit(Store(addr, Temp(-(i + 1)), params[i][1]))

        self._lower_stmt(decl.body)
        # Implicit return at the end of the function.
        if self._unterminated():
            if ret_ty is IRType.VOID:
                self._emit(Ret(None, IRType.VOID))
            else:
                zero = ImmFloat(0.0) if ret_ty.is_float else ImmInt(0)
                self._emit(Ret(zero, ret_ty))
        # The Ret2V shape (Clang #63762): a void function whose user-label
        # blocks carry no computation — the returns that used to live there
        # were removed.  Recorded pre-optimization, where the label structure
        # is still visible.
        if ret_ty is IRType.VOID and self._empty_user_labels() >= 2:
            self.stats.bump("ret2v_shape")
        self._end_function()

    def _alloc_slot(self, hint: str, qt: ct.QualType) -> str:
        base = f"{hint}.slot"
        name = base
        n = 0
        while name in self.ctx.fn.slots:
            n += 1
            name = f"{base}.{n}"
        try:
            self.ctx.fn.slots[name] = max(layout.size_of(qt), 1)
        except layout.LayoutError as exc:
            raise LoweringError(str(exc)) from exc
        return name

    # ----------------------------------------------------------- statements

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        self.cov.hit("irgen:stmt", stmt.kind)
        method = getattr(self, f"_stmt_{stmt.kind}", None)
        if method is None:
            raise LoweringError(f"cannot lower statement {stmt.kind}")
        method(stmt)

    def _stmt_CompoundStmt(self, stmt: ast.CompoundStmt) -> None:
        for s in stmt.stmts:
            self._lower_stmt(s)

    def _stmt_NullStmt(self, stmt: ast.NullStmt) -> None:
        pass

    def _stmt_DeclStmt(self, stmt: ast.DeclStmt) -> None:
        for decl in stmt.decls:
            if isinstance(decl, ast.VarDecl):
                self._lower_local_var(decl)
            # Local records/enums/typedefs need no code.

    def _lower_local_var(self, decl: ast.VarDecl) -> None:
        if decl.storage == "static":
            self._static_counter += 1
            gname = f"{decl.name}.static.{self._static_counter}"
            g = GlobalVar(gname, max(layout.size_of(decl.type), 1))
            if decl.init is not None:
                self._lower_global_init(g, decl.type, decl.init, 0)
            self.module.globals[gname] = g
            self.ctx.locals[id(decl)] = (f"@{gname}", decl.type)
            self.stats.bump("local_statics")
            return
        slot = self._alloc_slot(decl.name, decl.type)
        self.ctx.locals[id(decl)] = (slot, decl.type)
        self.stats.bump("locals")
        if decl.init is None:
            return
        addr = self._temp()
        self._emit(LocalAddr(addr, slot))
        self._lower_init_into(addr, decl.type, decl.init)

    def _lower_init_into(
        self, addr: Operand, qt: ct.QualType, init: ast.Expr
    ) -> None:
        if isinstance(init, ast.InitListExpr):
            self._lower_init_list(addr, qt, init)
            return
        if qt.is_array() and isinstance(init, ast.StringLiteral):
            src = self._intern_string(init.value)
            tmp = self._temp()
            self._emit(GlobalAddr(tmp, src))
            n = min(layout.size_of(qt), len(init.value) + 1)
            self._emit(Memcpy(addr, tmp, n))
            return
        if qt.is_record():
            src_addr = self._lower_lvalue(init)
            self._emit(Memcpy(addr, src_addr, layout.size_of(qt)))
            return
        if qt.is_complex():
            value = self._lower_rvalue(init)
            value = self._coerce(value, self._expr_ty(init), IRType.F64, init)
            self._emit(Store(addr, value, IRType.F64))
            imag = self._temp()
            self._emit(Gep(imag, addr, ImmInt(0), 1, offset=8))
            self._emit(Store(imag, ImmFloat(0.0), IRType.F64))
            return
        value = self._lower_rvalue(init)
        ty = layout.ir_type_of(qt)
        value = self._coerce(value, self._expr_ty(init), ty, init)
        self._emit(Store(addr, value, ty, volatile=qt.volatile))

    def _lower_init_list(
        self, addr: Operand, qt: ct.QualType, init: ast.InitListExpr
    ) -> None:
        if qt.is_array():
            elem = qt.element()
            assert elem is not None
            esize = layout.size_of(elem)
            for i, item in enumerate(init.inits):
                ptr = self._temp()
                self._emit(Gep(ptr, addr, ImmInt(i), esize))
                self._lower_init_into(ptr, elem, item)
            return
        if qt.is_record():
            rec = qt.type
            assert isinstance(rec, ct.RecordType)
            offsets, _sz = layout.record_layout(rec)
            for item, (fname, fqt) in zip(init.inits, rec.fields or ()):
                ptr = self._temp()
                self._emit(Gep(ptr, addr, ImmInt(0), 1, offset=offsets[fname]))
                self._lower_init_into(ptr, fqt, item)
            return
        if init.inits:
            self._lower_init_into(addr, qt, init.inits[0])

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self._lower_expr_for_effect(stmt.expr)

    def _stmt_IfStmt(self, stmt: ast.IfStmt) -> None:
        self.stats.bump("ifs")
        cond = self._lower_condition(stmt.cond)
        then_b = self._new_block("if.then")
        else_b = self._new_block("if.else") if stmt.else_branch else None
        end_b = self._new_block("if.end")
        self._emit(Br(cond, then_b.label, (else_b or end_b).label))
        self._set_current(then_b)
        self._lower_stmt(stmt.then_branch)
        self._seal_with_jmp(end_b)
        if else_b is not None:
            self._set_current(else_b)
            assert stmt.else_branch is not None
            self._lower_stmt(stmt.else_branch)
            self._seal_with_jmp(end_b)
        self._set_current(end_b)

    def _stmt_WhileStmt(self, stmt: ast.WhileStmt) -> None:
        self.stats.bump("loops")
        head = self._new_block("while.head")
        body = self._new_block("while.body")
        end = self._new_block("while.end")
        self._seal_with_jmp(head)
        self._set_current(head)
        cond = self._lower_condition(stmt.cond)
        self._emit(Br(cond, body.label, end.label))
        self._set_current(body)
        self.ctx.break_stack.append(end.label)
        self.ctx.continue_stack.append(head.label)
        self._lower_stmt(stmt.body)
        self.ctx.break_stack.pop()
        self.ctx.continue_stack.pop()
        self._seal_with_jmp(head)
        self._set_current(end)

    def _stmt_DoStmt(self, stmt: ast.DoStmt) -> None:
        self.stats.bump("loops")
        body = self._new_block("do.body")
        head = self._new_block("do.cond")
        end = self._new_block("do.end")
        self._seal_with_jmp(body)
        self._set_current(body)
        self.ctx.break_stack.append(end.label)
        self.ctx.continue_stack.append(head.label)
        self._lower_stmt(stmt.body)
        self.ctx.break_stack.pop()
        self.ctx.continue_stack.pop()
        self._seal_with_jmp(head)
        self._set_current(head)
        cond = self._lower_condition(stmt.cond)
        self._emit(Br(cond, body.label, end.label))
        self._set_current(end)

    def _stmt_ForStmt(self, stmt: ast.ForStmt) -> None:
        self.stats.bump("loops")
        if isinstance(stmt.init, ast.DeclStmt):
            self._stmt_DeclStmt(stmt.init)
        elif isinstance(stmt.init, ast.ExprStmt):
            self._lower_expr_for_effect(stmt.init.expr)
        head = self._new_block("for.head")
        body = self._new_block("for.body")
        step = self._new_block("for.step")
        end = self._new_block("for.end")
        self._seal_with_jmp(head)
        self._set_current(head)
        if stmt.cond is not None:
            cond = self._lower_condition(stmt.cond)
            self._emit(Br(cond, body.label, end.label))
        else:
            self._emit(Jmp(body.label))
        self._set_current(body)
        self.ctx.break_stack.append(end.label)
        self.ctx.continue_stack.append(step.label)
        self._lower_stmt(stmt.body)
        self.ctx.break_stack.pop()
        self.ctx.continue_stack.pop()
        self._seal_with_jmp(step)
        self._set_current(step)
        if stmt.inc is not None:
            self._lower_expr_for_effect(stmt.inc)
        self._seal_with_jmp(head)
        self._set_current(end)

    def _stmt_SwitchStmt(self, stmt: ast.SwitchStmt) -> None:
        self.stats.bump("switches")
        value = self._lower_rvalue(stmt.cond)
        vty = self._expr_ty(stmt.cond)
        end = self._new_block("switch.end")
        if not isinstance(stmt.body, ast.CompoundStmt):
            raise LoweringError("switch body must be a compound statement")
        # Split the body into segments at top-level case labels.
        cases: list[tuple[list[int] | None, Block]] = []
        dispatch_anchor = self.ctx.current
        segments: list[tuple[Block, list[ast.Stmt]]] = []
        current_block: Block | None = None
        for s in stmt.body.stmts:
            inner: ast.Stmt | None = s
            labels: list[int] = []
            has_default = False
            while isinstance(inner, (ast.CaseStmt, ast.DefaultStmt)):
                if isinstance(inner, ast.CaseStmt):
                    folded = self._fold_const_int(inner.expr)
                    if folded is None:
                        raise LoweringError("non-constant case label")
                    labels.append(folded)
                else:
                    has_default = True
                inner = inner.stmt
            if labels or has_default:
                block = self._new_block("case")
                if labels:
                    cases.append((labels, block))
                if has_default:
                    cases.append((None, block))
                segments.append((block, [inner] if inner is not None else []))
                current_block = block
                self.cov.hit("irgen:switch_case", (len(labels), has_default))
            elif current_block is None:
                if isinstance(s, (ast.DeclStmt, ast.NullStmt)):
                    continue  # skipped declarations before the first label
                raise LoweringError("statement before first case label")
            else:
                if any(
                    isinstance(n, (ast.CaseStmt, ast.DefaultStmt))
                    for n in s.walk()
                ):
                    raise LoweringError("nested case labels are unsupported")
                segments[-1][1].append(s)
        # Emit the dispatch chain.
        self._set_current(dispatch_anchor)
        default_target = end.label
        for labels, block in cases:
            if labels is None:
                default_target = block.label
                continue
            for lab in labels:
                nxt = self._new_block("switch.test")
                cmp = self._temp()
                self._emit(BinOp(cmp, "eq", value, ImmInt(lab), vty))
                self._emit(Br(cmp, block.label, nxt.label))
                self._set_current(nxt)
        self._emit(Jmp(default_target))
        # Emit the segment bodies with fall-through.
        self.ctx.break_stack.append(end.label)
        for i, (block, stmts) in enumerate(segments):
            self._set_current(block)
            for s in stmts:
                self._lower_stmt(s)
            fallthrough = (
                segments[i + 1][0] if i + 1 < len(segments) else end
            )
            self._seal_with_jmp(fallthrough)
        self.ctx.break_stack.pop()
        self._set_current(end)

    def _stmt_CaseStmt(self, stmt: ast.CaseStmt) -> None:
        raise LoweringError("case label outside switch lowering")

    def _stmt_DefaultStmt(self, stmt: ast.DefaultStmt) -> None:
        raise LoweringError("default label outside switch lowering")

    def _stmt_BreakStmt(self, stmt: ast.BreakStmt) -> None:
        if not self.ctx.break_stack:
            raise LoweringError("break outside loop or switch")
        self._emit(Jmp(self.ctx.break_stack[-1]))
        self._set_current(self._new_block("after.break"))

    def _stmt_ContinueStmt(self, stmt: ast.ContinueStmt) -> None:
        if not self.ctx.continue_stack:
            raise LoweringError("continue outside loop")
        self._emit(Jmp(self.ctx.continue_stack[-1]))
        self._set_current(self._new_block("after.continue"))

    def _stmt_ReturnStmt(self, stmt: ast.ReturnStmt) -> None:
        self.stats.bump("returns")
        if stmt.expr is None:
            self._emit(Ret(None, IRType.VOID))
        else:
            value = self._lower_rvalue(stmt.expr)
            ret_ty = self.ctx.fn.ret_ty
            value = self._coerce(value, self._expr_ty(stmt.expr), ret_ty, stmt.expr)
            self._emit(Ret(value, ret_ty))
        self._set_current(self._new_block("after.ret"))

    def _stmt_GotoStmt(self, stmt: ast.GotoStmt) -> None:
        self.stats.bump("gotos")
        target = self.ctx.label_blocks.get(stmt.label)
        if target is None:
            raise LoweringError(f"goto to unknown label {stmt.label!r}")
        self._emit(Jmp(target))
        self._set_current(self._new_block("after.goto"))

    def _stmt_LabelStmt(self, stmt: ast.LabelStmt) -> None:
        target = self._block_by_label(self.ctx.label_blocks[stmt.name])
        self._seal_with_jmp(target)
        self._set_current(target)
        self._lower_stmt(stmt.stmt)

    # --------------------------------------------------------- expressions

    def _expr_ty(self, expr: ast.Expr) -> IRType:
        if expr.type is None:
            raise LoweringError(f"untyped expression {expr.kind}")
        qt = expr.type.decayed()
        if qt.is_complex():
            return IRType.F64  # complex values are handled via memory
        if qt.is_void():
            return IRType.VOID
        try:
            return layout.ir_type_of(qt)
        except layout.LayoutError as exc:
            raise LoweringError(str(exc)) from exc

    def _coerce(
        self, value: Operand, from_ty: IRType, to_ty: IRType, node: ast.Expr
    ) -> Operand:
        if from_ty == to_ty or to_ty is IRType.VOID or from_ty is IRType.VOID:
            return value
        if isinstance(value, ImmInt) and to_ty.is_int:
            return ImmInt(_truncate(value.value, to_ty, True))
        if isinstance(value, ImmInt) and to_ty.is_float:
            return ImmFloat(float(value.value))
        if isinstance(value, ImmFloat) and to_ty.is_int:
            return ImmInt(_truncate(int(value.value), to_ty, True))
        if isinstance(value, ImmInt) and to_ty is IRType.PTR:
            return value
        dst = self._temp()
        signed = node.type is None or not node.type.is_integer() or node.type.is_signed()
        self._emit(Cast(dst, value, from_ty, to_ty, signed=signed))
        self.cov.hit("irgen:cast", (from_ty, to_ty))
        return dst

    def _lower_condition(self, expr: ast.Expr) -> Operand:
        value = self._lower_rvalue(expr)
        ty = self._expr_ty(expr)
        if ty.is_float:
            dst = self._temp()
            self._emit(BinOp(dst, "ne", value, ImmFloat(0.0), ty))
            return dst
        return value

    def _lower_expr_for_effect(self, expr: ast.Expr) -> None:
        self._lower_rvalue(expr, for_effect=True)

    # -- lvalues ----------------------------------------------------------

    def _lower_lvalue(self, expr: ast.Expr) -> Operand:
        """Lower to an address operand."""
        self.cov.hit("irgen:lvalue", expr.kind)
        if isinstance(expr, ast.ParenExpr):
            return self._lower_lvalue(expr.inner)
        if isinstance(expr, ast.DeclRefExpr):
            return self._decl_addr(expr)
        if isinstance(expr, ast.UnaryOperator) and expr.op == "*":
            return self._lower_rvalue(expr.operand)
        if isinstance(expr, ast.UnaryOperator) and expr.op in ("__real", "__imag"):
            base = self._lower_lvalue(expr.operand)
            if expr.op == "__real":
                return base
            dst = self._temp()
            self._emit(Gep(dst, base, ImmInt(0), 1, offset=8))
            return dst
        if isinstance(expr, ast.ArraySubscriptExpr):
            return self._subscript_addr(expr)
        if isinstance(expr, ast.MemberExpr):
            return self._member_addr(expr)
        if isinstance(expr, ast.StringLiteral):
            name = self._intern_string(expr.value)
            dst = self._temp()
            self._emit(GlobalAddr(dst, name))
            return dst
        if isinstance(expr, ast.CompoundLiteralExpr):
            slot = self._alloc_slot("compound", expr.target_type)
            addr = self._temp()
            self._emit(LocalAddr(addr, slot))
            self._lower_init_list(addr, expr.target_type, expr.init)
            return addr
        if isinstance(expr, ast.CastExpr):
            # GNU lvalue-preserving no-op casts (same canonical type).
            return self._lower_lvalue(expr.operand)
        raise LoweringError(f"expression {expr.kind} is not an lvalue")

    def _decl_addr(self, expr: ast.DeclRefExpr) -> Operand:
        decl = expr.decl
        entry = self.ctx.locals.get(id(decl)) if decl is not None else None
        if entry is not None:
            slot, _qt = entry
            dst = self._temp()
            if slot.startswith("@"):
                self._emit(GlobalAddr(dst, slot[1:]))
            else:
                self._emit(LocalAddr(dst, slot))
            return dst
        if isinstance(decl, ast.VarDecl) and decl.is_global:
            dst = self._temp()
            self._emit(GlobalAddr(dst, decl.name))
            return dst
        if isinstance(decl, ast.FunctionDecl) or (
            expr.type is not None and expr.type.is_function()
        ):
            dst = self._temp()
            self._emit(GlobalAddr(dst, expr.name))
            return dst
        raise LoweringError(f"cannot take the address of {expr.name!r}")

    def _subscript_addr(self, expr: ast.ArraySubscriptExpr) -> Operand:
        base, index = expr.base, expr.index
        bty = base.type.decayed() if base.type else None
        if bty is not None and bty.is_integer():
            base, index = index, base  # the i[arr] form
        base_ptr = self._lower_pointer_value(base)
        idx = self._lower_rvalue(index)
        assert expr.type is not None
        try:
            scale = max(layout.size_of(expr.type), 1)
        except layout.LayoutError as exc:
            raise LoweringError(str(exc)) from exc
        dst = self._temp()
        self._emit(Gep(dst, base_ptr, idx, scale))
        self.stats.bump("subscripts")
        return dst

    def _member_addr(self, expr: ast.MemberExpr) -> Operand:
        if expr.is_arrow:
            base = self._lower_rvalue(expr.base)
            bqt = expr.base.type.decayed().pointee() if expr.base.type else None
        else:
            base = self._lower_lvalue(expr.base)
            bqt = expr.base.type
        if bqt is None or not isinstance(bqt.type, ct.RecordType):
            raise LoweringError("member access on non-record")
        rec = bqt.type
        if rec.fields is None:
            resolved = self.sema._records.get(rec.name)
            if resolved is None:
                raise LoweringError(f"incomplete record {rec.name!r}")
            rec = resolved
        offsets, _sz = layout.record_layout(rec)
        if expr.member not in offsets:
            raise LoweringError(f"no member {expr.member!r}")
        dst = self._temp()
        self._emit(Gep(dst, base, ImmInt(0), 1, offset=offsets[expr.member]))
        self.stats.bump("member_accesses")
        return dst

    def _lower_pointer_value(self, expr: ast.Expr) -> Operand:
        """Pointer value of an expression (decaying arrays to addresses)."""
        qt = expr.type
        if qt is not None and (qt.is_array() or qt.is_function()):
            return self._lower_lvalue(expr)
        return self._lower_rvalue(expr)

    # -- rvalues ----------------------------------------------------------

    def _lower_rvalue(self, expr: ast.Expr, for_effect: bool = False) -> Operand:
        self.cov.hit("irgen:expr", expr.kind)
        method = getattr(self, f"_expr_{expr.kind}", None)
        if method is None:
            raise LoweringError(f"cannot lower expression {expr.kind}")
        return method(expr, for_effect)

    def _expr_IntegerLiteral(self, e: ast.IntegerLiteral, fe: bool) -> Operand:
        return ImmInt(_truncate(e.value, self._expr_ty(e), True))

    def _expr_FloatingLiteral(self, e: ast.FloatingLiteral, fe: bool) -> Operand:
        return ImmFloat(e.value)

    def _expr_CharacterLiteral(self, e: ast.CharacterLiteral, fe: bool) -> Operand:
        return ImmInt(e.value)

    def _expr_StringLiteral(self, e: ast.StringLiteral, fe: bool) -> Operand:
        return self._lower_lvalue(e)

    def _expr_DeclRefExpr(self, e: ast.DeclRefExpr, fe: bool) -> Operand:
        if e.name in self._enum_values and isinstance(
            e.decl, ast.EnumConstantDecl
        ):
            return ImmInt(self._enum_values[e.name])
        qt = e.type
        if qt is not None and (qt.is_array() or qt.is_function()):
            return self._lower_lvalue(e)
        addr = self._decl_addr(e)
        dst = self._temp()
        volatile = qt is not None and qt.volatile
        self._emit(Load(dst, addr, self._expr_ty(e), volatile=volatile))
        return dst

    def _expr_ParenExpr(self, e: ast.ParenExpr, fe: bool) -> Operand:
        return self._lower_rvalue(e.inner, fe)

    def _expr_UnaryOperator(self, e: ast.UnaryOperator, fe: bool) -> Operand:
        op = e.op
        self.cov.hit("irgen:unop", op)
        if op in ("++", "--"):
            return self._lower_incdec(e)
        if op == "&":
            return self._lower_lvalue(e.operand)
        if op == "*":
            addr = self._lower_pointer_value(e.operand)
            if e.type is not None and (e.type.is_array() or e.type.is_record()):
                return addr
            dst = self._temp()
            self._emit(Load(dst, addr, self._expr_ty(e)))
            return dst
        if op in ("__real", "__imag"):
            addr = self._lower_lvalue(e)
            dst = self._temp()
            self._emit(Load(dst, addr, IRType.F64))
            return dst
        value = self._lower_rvalue(e.operand)
        ty = self._expr_ty(e.operand)
        if op == "+":
            return self._coerce(value, ty, self._expr_ty(e), e)
        dst = self._temp()
        if op == "-":
            value = self._coerce(value, ty, self._expr_ty(e), e)
            self._emit(UnOp(dst, "neg", value, self._expr_ty(e)))
        elif op == "~":
            value = self._coerce(value, ty, self._expr_ty(e), e)
            self._emit(UnOp(dst, "bnot", value, self._expr_ty(e)))
            self.stats.bump("bitwise_nots")
        elif op == "!":
            self._emit(UnOp(dst, "lnot", value, ty))
        else:
            raise LoweringError(f"unknown unary operator {op!r}")
        return dst

    def _lower_incdec(self, e: ast.UnaryOperator) -> Operand:
        addr = self._lower_lvalue(e.operand)
        qt = e.operand.type
        assert qt is not None
        ty = self._expr_ty(e.operand)
        volatile = qt.volatile
        old = self._temp()
        self._emit(Load(old, addr, ty, volatile=volatile))
        new = self._temp()
        if qt.is_pointer():
            pointee = qt.pointee()
            step = max(layout.size_of(pointee), 1) if pointee else 1
            self._emit(
                Gep(new, old, ImmInt(1 if e.op == "++" else -1), step)
            )
        else:
            delta = ImmFloat(1.0) if ty.is_float else ImmInt(1)
            self._emit(BinOp(new, "+" if e.op == "++" else "-", old, delta, ty))
        self._emit(Store(addr, new, ty, volatile=volatile))
        return new if e.prefix else old

    def _expr_BinaryOperator(self, e: ast.BinaryOperator, fe: bool) -> Operand:
        op = e.op
        self.cov.hit("irgen:binop", op)
        if op in ast.ASSIGN_OPS:
            return self._lower_assignment(e)
        if op == ",":
            self._lower_expr_for_effect(e.lhs)
            return self._lower_rvalue(e.rhs, fe)
        if op in ("&&", "||"):
            return self._lower_short_circuit(e)
        lqt = e.lhs.type.decayed() if e.lhs.type else None
        rqt = e.rhs.type.decayed() if e.rhs.type else None
        # Pointer arithmetic.
        if lqt is not None and rqt is not None:
            if op in ("+", "-") and lqt.is_pointer() and rqt.is_integer():
                base = self._lower_pointer_value(e.lhs)
                idx = self._lower_rvalue(e.rhs)
                if op == "-":
                    neg = self._temp()
                    self._emit(UnOp(neg, "neg", idx, IRType.I64))
                    idx = neg
                pointee = lqt.pointee()
                scale = max(layout.size_of(pointee), 1) if pointee else 1
                dst = self._temp()
                self._emit(Gep(dst, base, idx, scale))
                self.stats.bump("pointer_arith")
                return dst
            if op == "+" and lqt.is_integer() and rqt.is_pointer():
                return self._expr_BinaryOperator(
                    ast.BinaryOperator(
                        op, e.rhs, e.lhs, e.begin_offset, e.end_offset,
                        type=e.type,
                    ),
                    fe,
                )
            if op == "-" and lqt.is_pointer() and rqt.is_pointer():
                a = self._lower_pointer_value(e.lhs)
                b = self._lower_pointer_value(e.rhs)
                diff = self._temp()
                self._emit(BinOp(diff, "-", a, b, IRType.I64))
                pointee = lqt.pointee()
                scale = max(layout.size_of(pointee), 1) if pointee else 1
                if scale == 1:
                    return diff
                dst = self._temp()
                self._emit(BinOp(dst, "/", diff, ImmInt(scale), IRType.I64))
                return dst
        return self._lower_arith_or_cmp(e)

    _CMP = {"<": "lt", ">": "gt", "<=": "le", ">=": "ge", "==": "eq", "!=": "ne"}

    def _lower_arith_or_cmp(self, e: ast.BinaryOperator) -> Operand:
        lhs = self._lower_rvalue(e.lhs)
        rhs = self._lower_rvalue(e.rhs)
        lty, rty = self._expr_ty(e.lhs), self._expr_ty(e.rhs)
        if e.op in self._CMP:
            lqt = e.lhs.type.decayed() if e.lhs.type else None
            rqt = e.rhs.type.decayed() if e.rhs.type else None
            if lqt is not None and rqt is not None and (
                lqt.is_pointer() or rqt.is_pointer()
            ):
                common = IRType.PTR
            else:
                common = _common_ty(lty, rty)
            lhs = self._coerce(lhs, lty, common, e.lhs)
            rhs = self._coerce(rhs, rty, common, e.rhs)
            dst = self._temp()
            unsigned = self._is_unsigned_cmp(e)
            opname = self._CMP[e.op] + ("u" if unsigned else "")
            self._emit(BinOp(dst, opname, lhs, rhs, common))
            self.stats.bump("comparisons")
            return dst
        result_ty = self._expr_ty(e)
        self.cov.hit("irgen:binop_shape", (e.op, e.lhs.kind, e.rhs.kind, result_ty))
        lhs = self._coerce(lhs, lty, result_ty, e.lhs)
        rhs = self._coerce(rhs, rty, result_ty, e.rhs)
        dst = self._temp()
        op = e.op
        if op in ("/", "%", ">>") and e.type is not None and e.type.is_integer():
            if not e.type.is_signed():
                op += "u"
        self._emit(BinOp(dst, op, lhs, rhs, result_ty))
        self.stats.bump("arith_ops")
        if op in ("<<", ">>", ">>u"):
            self.stats.bump("shifts")
        if op in ("&", "|", "^"):
            self.stats.bump("bit_ops")
        return dst

    def _is_unsigned_cmp(self, e: ast.BinaryOperator) -> bool:
        for side in (e.lhs, e.rhs):
            if side.type is not None and side.type.is_integer() and not (
                side.type.is_signed()
            ):
                return True
        return False

    def _lower_short_circuit(self, e: ast.BinaryOperator) -> Operand:
        self.stats.bump("short_circuits")
        slot = self._alloc_slot("sc", ct.INT)
        addr = self._temp()
        self._emit(LocalAddr(addr, slot))
        rhs_b = self._new_block("sc.rhs")
        done_b = self._new_block("sc.done")
        lhs = self._lower_condition(e.lhs)
        lhs_bool = self._temp()
        self._emit(BinOp(lhs_bool, "ne", lhs, ImmInt(0), self._expr_ty(e.lhs)))
        self._emit(Store(addr, lhs_bool, IRType.I32))
        if e.op == "&&":
            self._emit(Br(lhs_bool, rhs_b.label, done_b.label))
        else:
            self._emit(Br(lhs_bool, done_b.label, rhs_b.label))
        self._set_current(rhs_b)
        rhs = self._lower_condition(e.rhs)
        rhs_bool = self._temp()
        self._emit(BinOp(rhs_bool, "ne", rhs, ImmInt(0), self._expr_ty(e.rhs)))
        self._emit(Store(addr, rhs_bool, IRType.I32))
        self._seal_with_jmp(done_b)
        self._set_current(done_b)
        dst = self._temp()
        self._emit(Load(dst, addr, IRType.I32))
        return dst

    def _lower_assignment(self, e: ast.BinaryOperator) -> Operand:
        lqt = e.lhs.type
        assert lqt is not None
        if e.op == "=" and lqt.is_record():
            dst_addr = self._lower_lvalue(e.lhs)
            src_addr = self._lower_lvalue(e.rhs)
            self._emit(Memcpy(dst_addr, src_addr, layout.size_of(lqt)))
            return dst_addr
        if e.op == "=" and lqt.is_complex():
            dst_addr = self._lower_lvalue(e.lhs)
            if e.rhs.type is not None and e.rhs.type.is_complex():
                src_addr = self._lower_lvalue(e.rhs)
                self._emit(Memcpy(dst_addr, src_addr, 16))
            else:
                value = self._lower_rvalue(e.rhs)
                value = self._coerce(value, self._expr_ty(e.rhs), IRType.F64, e.rhs)
                self._emit(Store(dst_addr, value, IRType.F64))
                imag = self._temp()
                self._emit(Gep(imag, dst_addr, ImmInt(0), 1, offset=8))
                self._emit(Store(imag, ImmFloat(0.0), IRType.F64))
            return dst_addr
        addr = self._lower_lvalue(e.lhs)
        ty = self._expr_ty(e.lhs)
        volatile = lqt.volatile
        self.stats.bump("assignments")
        if e.op == "=":
            value = self._lower_rvalue(e.rhs)
            value = self._coerce(value, self._expr_ty(e.rhs), ty, e.rhs)
            self._emit(Store(addr, value, ty, volatile=volatile))
            return value
        # Compound assignment: load, op, store.
        base_op = e.op[:-1]
        old = self._temp()
        self._emit(Load(old, addr, ty, volatile=volatile))
        rhs = self._lower_rvalue(e.rhs)
        rty = self._expr_ty(e.rhs)
        if lqt.decayed().is_pointer() and base_op in ("+", "-"):
            if base_op == "-":
                neg = self._temp()
                self._emit(UnOp(neg, "neg", rhs, IRType.I64))
                rhs = neg
            pointee = lqt.decayed().pointee()
            scale = max(layout.size_of(pointee), 1) if pointee else 1
            new = self._temp()
            self._emit(Gep(new, old, rhs, scale))
        else:
            rhs = self._coerce(rhs, rty, ty, e.rhs)
            op = base_op
            if op in ("/", "%", ">>") and lqt.is_integer() and not lqt.is_signed():
                op += "u"
            new = self._temp()
            self._emit(BinOp(new, op, old, rhs, ty))
        self._emit(Store(addr, new, ty, volatile=volatile))
        return new

    def _expr_ConditionalOperator(self, e: ast.ConditionalOperator, fe: bool) -> Operand:
        self.stats.bump("ternaries")
        is_void = e.type is not None and e.type.is_void()
        result_ty = IRType.I64 if is_void else self._expr_ty(e)
        slot = self._alloc_slot("cond", ct.LONG)
        addr = self._temp()
        self._emit(LocalAddr(addr, slot))
        then_b = self._new_block("cond.true")
        else_b = self._new_block("cond.false")
        done_b = self._new_block("cond.done")
        cond = self._lower_condition(e.cond)
        self._emit(Br(cond, then_b.label, else_b.label))
        self._set_current(then_b)
        tv = self._lower_rvalue(e.true_expr)
        if not is_void:
            tv = self._coerce(tv, self._expr_ty(e.true_expr), result_ty, e.true_expr)
            self._emit(Store(addr, tv, result_ty))
        self._seal_with_jmp(done_b)
        self._set_current(else_b)
        fv = self._lower_rvalue(e.false_expr)
        if not is_void:
            fv = self._coerce(fv, self._expr_ty(e.false_expr), result_ty, e.false_expr)
            self._emit(Store(addr, fv, result_ty))
        self._seal_with_jmp(done_b)
        self._set_current(done_b)
        if is_void:
            return ImmInt(0)
        dst = self._temp()
        self._emit(Load(dst, addr, result_ty))
        return dst

    def _expr_CallExpr(self, e: ast.CallExpr, fe: bool) -> Operand:
        name = e.callee_name()
        if name is None:
            raise LoweringError("indirect calls are unsupported")
        args: list[Operand] = []
        arg_tys: list[IRType] = []
        for arg in e.args:
            qt = arg.type
            if qt is not None and (qt.is_record() or qt.is_complex()):
                raise LoweringError("aggregate call arguments are unsupported")
            value = self._lower_pointer_value(arg)
            args.append(value)
            arg_tys.append(self._expr_ty(arg))
        ret_qt = e.type
        is_void = ret_qt is None or ret_qt.is_void()
        ret_ty = IRType.VOID if is_void else self._expr_ty(e)
        dst = None if is_void else self._temp()
        self._emit(Call(dst, name, args, arg_tys, ret_ty))
        self.cov.hit("irgen:call", (name if name in _KNOWN_LIB else "_user", len(args)))
        self.cov.hit(
            "irgen:call_shape",
            (name if name in _KNOWN_LIB else "_user",
             tuple(a.kind for a in e.args[:4])),
        )
        self.stats.bump("calls")
        return dst if dst is not None else ImmInt(0)

    def _expr_ArraySubscriptExpr(self, e: ast.ArraySubscriptExpr, fe: bool) -> Operand:
        addr = self._subscript_addr(e)
        if e.type is not None and (e.type.is_array() or e.type.is_record()):
            return addr
        dst = self._temp()
        volatile = e.type is not None and e.type.volatile
        self._emit(Load(dst, addr, self._expr_ty(e), volatile=volatile))
        return dst

    def _expr_MemberExpr(self, e: ast.MemberExpr, fe: bool) -> Operand:
        addr = self._member_addr(e)
        if e.type is not None and (e.type.is_array() or e.type.is_record()):
            return addr
        dst = self._temp()
        self._emit(Load(dst, addr, self._expr_ty(e)))
        return dst

    def _expr_CastExpr(self, e: ast.CastExpr, fe: bool) -> Operand:
        target = e.target_type
        if target.is_void():
            self._lower_expr_for_effect(e.operand)
            return ImmInt(0)
        if target.is_record() or target.is_complex():
            return self._lower_lvalue(e.operand)
        value = self._lower_pointer_value(e.operand)
        src_ty = (
            IRType.PTR
            if e.operand.type is not None
            and (e.operand.type.decayed().is_pointer())
            else self._expr_ty(e.operand)
        )
        dst_ty = layout.ir_type_of(target)
        self.stats.bump("casts")
        if e.operand.type is not None and e.operand.type.is_complex():
            # Casting a complex value reads its real part.
            addr = self._lower_lvalue(e.operand)
            real = self._temp()
            self._emit(Load(real, addr, IRType.F64))
            return self._coerce(real, IRType.F64, dst_ty, e)
        return self._coerce(value, src_ty, dst_ty, e)

    def _expr_SizeofExpr(self, e: ast.SizeofExpr, fe: bool) -> Operand:
        folded = self._fold_const_int(e)
        return ImmInt(folded if folded is not None else 8)

    def _expr_CompoundLiteralExpr(self, e: ast.CompoundLiteralExpr, fe: bool) -> Operand:
        addr = self._lower_lvalue(e)
        if e.type is not None and (e.type.is_record() or e.type.is_array()):
            return addr
        dst = self._temp()
        self._emit(Load(dst, addr, self._expr_ty(e)))
        return dst

    def _expr_InitListExpr(self, e: ast.InitListExpr, fe: bool) -> Operand:
        raise LoweringError("initializer list outside declaration")

    # ------------------------------------------------------------- strings

    def _intern_string(self, value: str) -> str:
        data = value.encode("latin-1", "replace") + b"\x00"
        for name, g in self.module.globals.items():
            if g.bytes_init == data:
                return name
        self._string_counter += 1
        name = f".str.{self._string_counter}"
        g = GlobalVar(name, len(data), const=True)
        g.bytes_init = data
        for i, byte in enumerate(data):
            g.init.append((i, IRType.I8, byte))
        self.module.globals[name] = g
        return name


_KNOWN_LIB = frozenset(
    {
        "printf", "sprintf", "snprintf", "puts", "putchar", "abort", "exit",
        "malloc", "calloc", "free", "memset", "memcpy", "strlen", "strcpy",
        "strcmp", "abs", "labs", "rand", "srand", "assert", "scanf",
    }
)


def _truncate(value: int, ty: IRType, signed: bool) -> int:
    if not ty.is_int:
        return value
    bits = ty.bits
    value &= (1 << bits) - 1
    if signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _common_ty(a: IRType, b: IRType) -> IRType:
    if IRType.F64 in (a, b):
        return IRType.F64
    if IRType.F32 in (a, b):
        return IRType.F64
    if IRType.PTR in (a, b):
        return IRType.PTR
    order = [IRType.I8, IRType.I16, IRType.I32, IRType.I64]
    return order[max(order.index(a), order.index(b))]


class FlatIRGen(IRGen):
    """Buffer-direct lowering: rows go straight into an :class:`IRBuffer`.

    Every lowering decision — expression shapes, temp numbering, block
    labels, coverage edges, stats — runs through the shared ``IRGen``
    lowerers; only the function carrier and the emission seam differ.
    Blocks exist as lightweight label handles (plain ``Block`` objects with
    empty instruction lists) so the shared lowerers can keep passing
    ``block.label`` to branches, while the authoritative block structure
    lives in ``IRBuffer.blocks``.  The per-instruction ``Instr`` object the
    lowerers build is encoded into a row and discarded; no object-form
    function is ever registered in the module.
    """

    def __init__(self, sema: Sema, cov: CoverageMap | None = None) -> None:
        super().__init__(sema, cov)
        self._buf = None
        self._rows: dict[str, list] = {}
        self._handles: dict[str, Block] = {}
        self._cur_row: list | None = None

    def _begin_function(self, decl: ast.FunctionDecl, ret_ty: IRType) -> None:
        buf = F.IRBuffer(decl.name, (), F.TYPE_TAG[ret_ty])
        buf.attributes = list(decl.attributes)
        self.module.functions[decl.name] = F.FlatFunction(buf)
        entry = Block("entry")
        row = [buf.name_id("entry"), []]
        buf.blocks.append(row)
        self._buf = buf
        self._rows = {"entry": row}
        self._handles = {"entry": entry}
        self._cur_row = row
        self._ctx = _FunctionCtx(self.module.functions[decl.name], entry)

    def _end_function(self) -> None:
        self._ctx = None
        self._buf = None
        self._rows = {}
        self._handles = {}
        self._cur_row = None

    def _add_param(self, name: str, pty: IRType) -> None:
        self._buf.params.append((name, F.TYPE_TAG[pty]))

    def _new_block(self, hint: str) -> Block:
        self.ctx.block_counter += 1
        label = f"{hint}.{self.ctx.block_counter}"
        block = Block(label)
        row = [self._buf.name_id(label), []]
        self._buf.blocks.append(row)
        self._rows[label] = row
        self._handles[label] = block
        return block

    def _emit(self, instr: Instr) -> None:
        idxs = self._cur_row[1]
        if idxs and self._buf.opc[idxs[-1]] in F.TERMINATOR_OPS:
            return  # dead code after a terminator, as in the object path
        idxs.append(F.encode_instr(self._buf, instr))

    def _set_current(self, block: Block) -> None:
        self.ctx.current = block
        self._cur_row = self._rows[block.label]

    def _unterminated(self) -> bool:
        idxs = self._cur_row[1]
        return not idxs or self._buf.opc[idxs[-1]] not in F.TERMINATOR_OPS

    def _block_by_label(self, label: str) -> Block:
        return self._handles[label]

    def _empty_user_labels(self) -> int:
        buf = self._buf
        names = buf.names
        opc = buf.opc
        return sum(
            1
            for label_id, idxs in buf.blocks
            if names[label_id].startswith("ul_")
            and all(opc[i] in (F.OP_JMP, F.OP_RET) for i in idxs)
        )
