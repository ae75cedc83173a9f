"""Table-driven buffer splicing: the flat port of :mod:`.inline`.

Inlines a candidate callee by copying its single block's rows into the
caller's buffer — translating imm-pool indices, interned name ids, and xdata
entries into the caller's tables, renumbering callee temps into the caller's
temp space, and substituting parameter sentinels with the call's argument
encodings.  The algorithm replicates :func:`.inline.inline_into_caller`
decision for decision (same temp-assignment encounter order, same trailing
``Cast``, same coverage edges and stats), so flat-native inlining is
bit-identical to the object inliner under ``to_nodes``.

Callee bodies come in as :class:`~repro.compiler.flatir.IRBuffer` objects
(the compile session's records keep a post-local-opt clone of each
candidate's); splicing only *reads* the callee arrays, so candidates can be
shared across callers and steps without copies.
"""

from __future__ import annotations

from repro.compiler.flatir import (
    IRBuffer, NONE, TAG_TEMP, TYPE_TAG,
    OP_BINOP, OP_BR, OP_CALL, OP_CAST, OP_GEP, OP_GLOBALADDR, OP_JMP,
    OP_LOAD, OP_LOCALADDR, OP_MEMCPY, OP_RET, OP_STORE, OP_UNOP,
)
from repro.compiler.ir import IRType
from repro.compiler.passes.inline import MAX_INLINE_INSTRS

_VOID_TAG = TYPE_TAG[IRType.VOID]
_I64_TAG = TYPE_TAG[IRType.I64]


def flat_inlinable(buf: IRBuffer) -> bool:
    """The buffer-side mirror of :func:`.inline._inlinable`."""
    if len(buf.blocks) != 1 or buf.slots:
        return False
    if "noinline" in " ".join(buf.attributes):
        return False
    idxs = buf.blocks[0][1]
    # The object check counts ``block.instrs`` (terminator excluded); the
    # buffer's index list includes the Ret row, hence the +1.
    if len(idxs) > MAX_INLINE_INSTRS + 1:
        return False
    if not idxs or buf.opc[idxs[-1]] != OP_RET:
        return False
    return all(buf.opc[i] != OP_CALL for i in idxs)


def _max_temp(buf: IRBuffer) -> int:
    """Highest temp index used by *live* rows (mirrors object ``_max_temp``).

    Walks block index lists, not the raw arrays: dead rows left behind by
    flat DCE must not influence the renumbering base or flat and object
    inlining would diverge.
    """
    best = 0
    opcl, dstl, al, bl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.aux
    xdata = buf.xdata
    for _label, idxs in buf.blocks:
        for i in idxs:
            d = dstl[i]
            if d is not None and d > best:
                best = d
            op = opcl[i]
            if op == OP_CALL:
                encs = xdata[auxl[i]][1]
            elif op in (OP_BINOP, OP_STORE, OP_GEP, OP_MEMCPY):
                encs = (al[i], bl[i])
            elif op in (OP_UNOP, OP_CAST, OP_LOAD, OP_BR, OP_RET):
                encs = (al[i],)
            else:
                continue
            for enc in encs:
                if enc != NONE and enc & 3 == TAG_TEMP and enc >> 2 > best:
                    best = enc >> 2
    return best


def flat_inline_into_caller(fn, candidates: dict[str, IRBuffer], ctx) -> bool:
    """Inline candidate callees into one buffer-backed caller."""
    buf = fn.buf
    changed = False
    next_temp = _max_temp(buf) + 1
    caller_name = buf.name
    opcl, dstl, al, bl, tyl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.ty, buf.aux
    push = buf.push
    nid = buf.name_id
    imm_enc = buf.imm_enc
    for blk in buf.blocks:
        new_idxs: list[int] = []
        for i in blk[1]:
            if opcl[i] != OP_CALL:
                new_idxs.append(i)
                continue
            call_xd = buf.xdata[auxl[i]]
            callee_name = buf.names[call_xd[0]]
            callee = candidates.get(callee_name)
            if callee is None or callee_name == caller_name:
                new_idxs.append(i)
                continue

            remap: dict[int, int] = {}

            def temp_for(index: int) -> int:
                nonlocal next_temp
                nt = remap.get(index)
                if nt is None:
                    nt = next_temp
                    next_temp += 1
                    remap[index] = nt
                return nt

            # Parameter sentinels map to the call's argument encodings
            # (already in caller space).
            args = call_xd[1]
            n_args = len(args)

            def trans(enc: int) -> int:
                if enc == NONE:
                    return NONE
                tag = enc & 3
                if tag == TAG_TEMP:
                    t = enc >> 2
                    if t < 0 and -t <= n_args:
                        return args[-t - 1]
                    return (temp_for(t) << 2) | TAG_TEMP
                return imm_enc(callee.imms[enc >> 2])

            copcl, cdstl, cal, cbl, ctyl, cauxl = (
                callee.opc, callee.dst, callee.a, callee.b,
                callee.ty, callee.aux,
            )
            cnames = callee.names
            ret_enc = None
            for ci in callee.blocks[0][1]:
                cop = copcl[ci]
                if cop == OP_RET:
                    v = cal[ci]
                    ret_enc = trans(v) if v != NONE else None
                    break
                # Source operands are translated *before* the destination:
                # temp-assignment order must match the object inliner, which
                # maps operands first and the dest after.
                if cop in (OP_BINOP, OP_GEP):
                    a2 = trans(cal[ci])
                    b2 = trans(cbl[ci])
                    d2 = temp_for(cdstl[ci])
                    if cop == OP_GEP:
                        buf.xdata.append(callee.xdata[cauxl[ci]])
                        aux2 = len(buf.xdata) - 1
                    else:
                        aux2 = nid(cnames[cauxl[ci]])
                    new_idxs.append(push(cop, d2, a2, b2, ctyl[ci], aux2))
                elif cop in (OP_UNOP, OP_CAST, OP_LOAD):
                    a2 = trans(cal[ci])
                    d2 = temp_for(cdstl[ci])
                    aux2 = (
                        nid(cnames[cauxl[ci]]) if cop == OP_UNOP
                        else cauxl[ci]
                    )
                    new_idxs.append(push(cop, d2, a2, NONE, ctyl[ci], aux2))
                elif cop in (OP_STORE, OP_MEMCPY):
                    a2 = trans(cal[ci])
                    b2 = trans(cbl[ci])
                    new_idxs.append(
                        push(cop, None, a2, b2, ctyl[ci], cauxl[ci])
                    )
                elif cop in (OP_LOCALADDR, OP_GLOBALADDR):
                    d2 = temp_for(cdstl[ci])
                    new_idxs.append(
                        push(cop, d2, NONE, NONE, ctyl[ci],
                             nid(cnames[cauxl[ci]]))
                    )
                elif cop == OP_JMP:
                    new_idxs.append(
                        push(OP_JMP, None, NONE, NONE, 0,
                             nid(cnames[cauxl[ci]]))
                    )
                elif cop == OP_BR:
                    a2 = trans(cal[ci])
                    new_idxs.append(
                        push(OP_BR, None, a2, nid(cnames[cbl[ci]]), 0,
                             nid(cnames[cauxl[ci]]))
                    )
                # OP_CALL is impossible: flat_inlinable rejects callees
                # containing calls.
            if dstl[i] is not None:
                src = ret_enc if ret_enc is not None else buf.imm_int_enc(0)
                ty_tag = tyl[i] if tyl[i] != _VOID_TAG else _I64_TAG
                # Cast(dst, src, ty, ty) with the default signed=True.
                new_idxs.append(
                    push(OP_CAST, dstl[i], src, NONE, ty_tag,
                         (ty_tag << 1) | 1)
                )
            ctx.cov.hit("opt:inline", callee_name == "main")
            ctx.stats.bump("inlined")
            changed = True
        blk[1] = new_idxs
    return changed
