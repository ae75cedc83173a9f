"""Flat port of :mod:`.loop_vectorize` (the analysis-only vectorizer).

Pure analysis over the buffer: natural-loop discovery, induction-variable
identification, and trip-count features, reporting the same coverage edges,
stats, and ``trip_count`` checkpoint (the seeded GCC #111820 hang) as the
object pass.  Never mutates the buffer and always returns ``False``.
"""

from __future__ import annotations

from repro.compiler.flatir import (
    IRBuffer, NONE, TAG_IMM, TAG_TEMP,
    OP_BINOP, OP_BR, OP_GEP, OP_GLOBALADDR, OP_LOAD, OP_LOCALADDR, OP_STORE,
)
from repro.compiler.ir import ImmInt
from repro.compiler.passes.flat import _predecessors, _successors
from repro.compiler.passes.loop_vectorize import LoopInfo


def _find_loops(buf: IRBuffer) -> list[LoopInfo]:
    names = buf.names
    order = {blk[0]: i for i, blk in enumerate(buf.blocks)}
    preds = _predecessors(buf)
    loops = []
    for head in buf.blocks:
        latches = [
            p
            for p in preds.get(head[0], [])
            if order.get(p, -1) >= order[head[0]]
        ]
        if not latches:
            continue
        last = max(order[p] for p in latches)
        body = [
            names[blk[0]] for blk in buf.blocks[order[head[0]] : last + 1]
        ]
        loops.append(LoopInfo(names[head[0]], body))
    return loops


def _analyze_induction(buf: IRBuffer, loop: LoopInfo) -> None:
    names = buf.names
    imms = buf.imms
    opcl, dstl, al, bl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.aux
    slot_of: dict[int, str] = {}
    for _label, idxs in buf.blocks:
        for i in idxs:
            if opcl[i] == OP_LOCALADDR:
                slot_of[dstl[i]] = names[auxl[i]]

    body = set(loop.body)
    body_blocks = [blk for blk in buf.blocks if names[blk[0]] in body]
    loaded: dict[int, str] = {}
    updated: dict[int, tuple[str, int]] = {}  # new temp -> (slot, step)
    for blk in body_blocks:
        for i in blk[1]:
            op = opcl[i]
            if op == OP_LOAD and al[i] & 3 == TAG_TEMP and al[i] != NONE:
                slot = slot_of.get(al[i] >> 2)
                if slot is not None:
                    loaded[dstl[i]] = slot
            elif op == OP_BINOP and names[auxl[i]] in ("+", "-"):
                lhs, rhs = al[i], bl[i]
                if (
                    lhs != NONE
                    and lhs & 3 == TAG_TEMP
                    and lhs >> 2 in loaded
                    and rhs & 3 == TAG_IMM
                    and type(imms[rhs >> 2]) is ImmInt
                ):
                    v = imms[rhs >> 2].value
                    step = v if names[auxl[i]] == "+" else -v
                    updated[dstl[i]] = (loaded[lhs >> 2], step)
            elif op == OP_STORE and al[i] != NONE and al[i] & 3 == TAG_TEMP:
                slot = slot_of.get(al[i] >> 2)
                value = bl[i]
                if (
                    slot is not None
                    and value != NONE
                    and value & 3 == TAG_TEMP
                    and value >> 2 in updated
                    and updated[value >> 2][0] == slot
                ):
                    loop.induction_slot = slot
                    loop.step = updated[value >> 2][1]
            if op == OP_STORE:
                # Count stores whose address chain roots at a global.
                root = al[i]
                if root != NONE and root & 3 == TAG_TEMP:
                    loop.global_stores += _roots_at_global(buf, root >> 2)

    # The exit condition: the head's Br on the updated value means an
    # implicit `!= 0` test (while (--n) lowering); an explicit compare is
    # recorded by its opcode.
    head_blk = None
    for blk in buf.blocks:
        if names[blk[0]] == loop.head:
            head_blk = blk
            break
    if head_blk is not None and head_blk[1] and opcl[head_blk[1][-1]] == OP_BR:
        cond = al[head_blk[1][-1]]
        if cond != NONE and cond & 3 == TAG_TEMP and cond >> 2 in updated:
            loop.exit_compare = "ne0"
        elif cond != NONE and cond & 3 == TAG_TEMP:
            for i in head_blk[1]:
                if opcl[i] == OP_BINOP and dstl[i] == cond >> 2:
                    loop.exit_compare = names[auxl[i]]
                    break

    # Initial value: a constant store to the induction slot before the loop.
    if loop.induction_slot is not None:
        for blk in buf.blocks:
            if names[blk[0]] in body:
                break
            for i in blk[1]:
                if (
                    opcl[i] == OP_STORE
                    and al[i] != NONE
                    and al[i] & 3 == TAG_TEMP
                    and slot_of.get(al[i] >> 2) == loop.induction_slot
                    and bl[i] & 3 == TAG_IMM
                    and type(imms[bl[i] >> 2]) is ImmInt
                ):
                    loop.init = imms[bl[i] >> 2].value


def _roots_at_global(buf: IRBuffer, temp: int) -> int:
    """1 if the pointer temp is (transitively) a GlobalAddr, else 0."""
    opcl, dstl, al = buf.opc, buf.dst, buf.a
    defs: dict[int, int] = {}
    for _label, idxs in buf.blocks:
        for i in idxs:
            d = dstl[i]
            if d is not None:
                defs[d] = i
    seen: set[int] = set()
    current = temp
    while current not in seen:
        seen.add(current)
        d = defs.get(current)
        if d is None:
            return 0
        if opcl[d] == OP_GLOBALADDR:
            return 1
        if opcl[d] != OP_GEP:  # only Gep carries a `base` operand chain
            return 0
        base = al[d]
        if base == NONE or base & 3 != TAG_TEMP:
            return 0
        current = base >> 2
    return 0


def flat_loop_vectorize(fn, ctx) -> bool:
    buf = fn.buf
    loops = _find_loops(buf)
    for loop in loops:
        _analyze_induction(buf, loop)
        ctx.cov.hit("opt:vect:loop", (loop.step, loop.exit_compare))
        ctx.stats.bump("loops_analyzed")
        if loop.induction_slot is None:
            ctx.cov.hit("opt:vect:no_induction", len(loop.body) > 3)
            continue
        downward_from_zero = (
            loop.step is not None
            and loop.step < 0
            and loop.init == 0
            and loop.exit_compare == "ne0"
        )
        features = {
            "vect_loops": 1,
            "vect_downward_zero_trip": int(downward_from_zero),
            "vect_global_store_chain": int(loop.global_stores >= 4),
            "vect_step": loop.step or 0,
        }
        ctx.stats.bump("vectorizable", int(loop.global_stores >= 4))
        ctx.check("opt:loop_vectorize:trip_count", features)
        ctx.cov.hit("opt:vect:induction", (loop.step, loop.global_stores >= 4))
    return False
