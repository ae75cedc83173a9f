"""Constant folding and branch folding.

Temps are single-assignment by construction (the IR generator never reuses a
temp), so folding is a simple forward propagation over the whole function.
"""

from __future__ import annotations

from repro.compiler.ir import (
    BinOp, Br, Cast, ImmFloat, ImmInt, IRFunction, IRType, Jmp, Temp, UnOp,
)
from repro.compiler.passes.common import OptContext, replace_uses


def _wrap(value: int, ty: IRType) -> int:
    if not ty.is_int:
        return value
    bits = ty.bits
    value &= (1 << bits) - 1
    if value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _fold_binop(instr: BinOp) -> int | float | None:
    if not isinstance(instr.lhs, (ImmInt, ImmFloat)):
        return None
    if not isinstance(instr.rhs, (ImmInt, ImmFloat)):
        return None
    return fold_binop_values(instr.op, instr.ty, instr.lhs.value, instr.rhs.value)


def fold_binop_values(
    op: str, ty: IRType, a: int | float, b: int | float
) -> int | float | None:
    """Value-level constant folding, shared by the object and flat passes."""
    try:
        if op.rstrip("u") in ("lt", "le", "gt", "ge", "eq", "ne"):
            base = op.rstrip("u")
            if op.endswith("u") and ty.is_int:
                a, b = int(a) & ((1 << ty.bits) - 1), int(b) & ((1 << ty.bits) - 1)
            return int(
                {
                    "lt": a < b, "le": a <= b, "gt": a > b,
                    "ge": a >= b, "eq": a == b, "ne": a != b,
                }[base]
            )
        if ty.is_float:
            return {
                "+": a + b, "-": a - b, "*": a * b,
                "/": a / b if b else None,
            }.get(op)
        a_i, b_i = int(a), int(b)
        if op in ("/", "%") and b_i == 0:
            return None  # division by zero: leave for runtime
        if op.endswith("u"):
            a_i &= (1 << ty.bits) - 1
            b_i &= (1 << ty.bits) - 1
            op = op[:-1]
        result = {
            "+": a_i + b_i, "-": a_i - b_i, "*": a_i * b_i,
            "/": int(a_i / b_i) if b_i else None,
            "%": a_i - int(a_i / b_i) * b_i if b_i else None,
            "<<": a_i << (b_i & (ty.bits - 1)),
            ">>": a_i >> (b_i & (ty.bits - 1)),
            "&": a_i & b_i, "|": a_i | b_i, "^": a_i ^ b_i,
        }.get(op)
        if result is None:
            return None
        return _wrap(result, ty)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None


def _identity_simplify(instr: BinOp):
    """x+0, x*1, x^0, x&x... → operand (algebraic simplification)."""
    lhs, rhs = instr.lhs, instr.rhs
    if isinstance(rhs, ImmInt):
        if instr.op in ("+", "-", "|", "^", "<<", ">>", ">>u") and rhs.value == 0:
            return lhs
        if instr.op == "*" and rhs.value == 1:
            return lhs
        if instr.op == "*" and rhs.value == 0:
            return ImmInt(0)
        if instr.op == "&" and rhs.value == 0:
            return ImmInt(0)
    if isinstance(lhs, ImmInt):
        if instr.op in ("+", "|", "^") and lhs.value == 0:
            return rhs
        if instr.op == "*" and lhs.value == 1:
            return rhs
        if instr.op == "*" and lhs.value == 0:
            return ImmInt(0)
    return None


def const_fold(fn: IRFunction, ctx: OptContext) -> bool:
    """Fold constant instructions, then rewrite their uses."""
    changed = False
    mapping: dict = {}
    for block in fn.blocks:
        kept = []
        for instr in block.instrs:
            instr.replace_operands(mapping)
            if isinstance(instr, BinOp):
                folded = _fold_binop(instr)
                if folded is not None:
                    imm = (
                        ImmFloat(float(folded))
                        if instr.ty.is_float
                        else ImmInt(int(folded))
                    )
                    mapping[instr.dst] = imm
                    ctx.cov.hit("opt:constfold", instr.op)
                    bucket = min(int(abs(folded)).bit_length(), 64)
                    ctx.cov.hit("opt:constfold_val", (instr.op, bucket, folded < 0))
                    ctx.stats.bump("folded")
                    changed = True
                    continue
                simplified = _identity_simplify(instr)
                if simplified is not None:
                    mapping[instr.dst] = simplified
                    ctx.cov.hit("opt:identity", instr.op)
                    ctx.stats.bump("identities")
                    changed = True
                    continue
            elif isinstance(instr, UnOp) and isinstance(
                instr.src, (ImmInt, ImmFloat)
            ):
                v = instr.src.value
                if instr.op == "neg":
                    out = -v
                elif instr.op == "lnot":
                    out = int(not v)
                else:
                    out = ~int(v)
                imm = (
                    ImmFloat(float(out)) if instr.ty.is_float else ImmInt(_wrap(int(out), instr.ty))
                )
                mapping[instr.dst] = imm
                ctx.stats.bump("folded")
                changed = True
                continue
            elif isinstance(instr, Cast) and isinstance(
                instr.src, (ImmInt, ImmFloat)
            ):
                v = instr.src.value
                if instr.to_ty.is_float:
                    imm = ImmFloat(float(v))
                elif instr.to_ty.is_int:
                    # Mirror the interpreter: unsigned casts zero-extend (the
                    # value stays the non-negative representation).
                    iv = _wrap(int(v), instr.to_ty)
                    if not instr.signed:
                        iv &= (1 << instr.to_ty.bits) - 1
                    imm = ImmInt(iv)
                else:
                    imm = ImmInt(int(v))
                mapping[instr.dst] = imm
                ctx.stats.bump("folded")
                changed = True
                continue
            elif isinstance(instr, Br) and isinstance(instr.cond, (ImmInt, ImmFloat)):
                target = instr.if_true if instr.cond.value else instr.if_false
                kept.append(Jmp(target))
                ctx.cov.hit("opt:brfold", bool(instr.cond.value))
                ctx.stats.bump("branches_folded")
                changed = True
                continue
            kept.append(instr)
        block.instrs = kept
    replace_uses(fn, mapping)
    return changed
