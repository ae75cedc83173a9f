"""A small function inliner.

Inlines calls to leaf functions whose body is a single block with no stack
slots (typical accessors after earlier optimization).  Temps of the callee
are renumbered into the caller's space.
"""

from __future__ import annotations

import copy

from repro.compiler.ir import (
    Call, Cast, ImmInt, IRFunction, IRModule, IRType, Ret, Temp,
)
from repro.compiler.passes.common import OptContext

#: Upper bound on the callee size we are willing to inline.
MAX_INLINE_INSTRS = 12


def _inlinable(fn: IRFunction) -> bool:
    if len(fn.blocks) != 1 or fn.slots:
        return False
    if "noinline" in " ".join(fn.attributes):
        return False
    block = fn.blocks[0]
    if len(block.instrs) > MAX_INLINE_INSTRS:
        return False
    if not isinstance(block.terminator, Ret):
        return False
    return all(not isinstance(i, Call) for i in block.instrs)


def _max_temp(fn: IRFunction) -> int:
    best = 0
    for instr in fn.instructions():
        dst = instr.dest()
        if dst is not None:
            best = max(best, dst.index)
        for op in instr.operands():
            if isinstance(op, Temp):
                best = max(best, op.index)
    return best


def inline_candidates(module: IRModule) -> dict[str, IRFunction]:
    """The module's inlinable callees, keyed by name (computed up front)."""
    return {name: fn for name, fn in module.functions.items() if _inlinable(fn)}


def inline_into_caller(
    caller: IRFunction, candidates: dict[str, IRFunction], ctx: OptContext
) -> bool:
    """Inline candidate callees into one caller (the per-caller loop body)."""
    changed = False
    next_temp = _max_temp(caller) + 1
    for block in caller.blocks:
        new_instrs = []
        for instr in block.instrs:
            if not (
                isinstance(instr, Call)
                and instr.callee in candidates
                and instr.callee != caller.name
            ):
                new_instrs.append(instr)
                continue
            callee = candidates[instr.callee]
            remap: dict[int, Temp] = {}

            def temp_for(index: int) -> Temp:
                nonlocal next_temp
                if index not in remap:
                    remap[index] = Temp(next_temp)
                    next_temp += 1
                return remap[index]

            # Parameter sentinels map to the call's argument operands.
            arg_map = {
                -(i + 1): arg for i, arg in enumerate(instr.args)
            }
            ret_value = None
            for callee_instr in callee.blocks[0].instrs:
                cloned = copy.deepcopy(callee_instr)
                mapping = {}
                for op in cloned.operands():
                    if isinstance(op, Temp):
                        if op.index in arg_map:
                            mapping[op] = arg_map[op.index]
                        else:
                            mapping[op] = temp_for(op.index)
                cloned.replace_operands(mapping)
                if isinstance(cloned, Ret):
                    ret_value = cloned.value
                    break
                dst = cloned.dest()
                if dst is not None:
                    new_dst = temp_for(dst.index)
                    _set_dest(cloned, new_dst)
                new_instrs.append(cloned)
            if instr.dst is not None:
                src = ret_value if ret_value is not None else ImmInt(0)
                ty = instr.ret_ty if instr.ret_ty is not IRType.VOID else IRType.I64
                new_instrs.append(Cast(instr.dst, src, ty, ty))
            ctx.cov.hit("opt:inline", instr.callee == "main")
            ctx.stats.bump("inlined")
            changed = True
        block.instrs = new_instrs
    return changed


def _set_dest(instr, new_dst: Temp) -> None:
    for attr in ("dst",):
        if hasattr(instr, attr):
            setattr(instr, attr, new_dst)
            return
