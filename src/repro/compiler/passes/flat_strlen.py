"""Flat port of :mod:`.strlen_opt` (sprintf → strlen strength reduction).

Mirrors :func:`.strlen_opt.strlen_opt_fn` decision for decision over the
buffer: same global-address tracking, same format-string match, same
coverage edge, stats bump, and ``verify_range`` checkpoint features — so the
seeded GCC §5.2 crash fires identically in flat-native mode.  The rewrite
reuses the sprintf call's xdata entry in place (dst dropped, return type
voided) and inserts a fresh strlen call row after it.
"""

from __future__ import annotations

from repro.compiler.flatir import (
    IRBuffer, NONE, TAG_TEMP, TYPE_TAG,
    OP_CALL, OP_GLOBALADDR,
)
from repro.compiler.ir import IRType

_VOID_TAG = TYPE_TAG[IRType.VOID]
_I64_TAG = TYPE_TAG[IRType.I64]
_PTR_TAG = TYPE_TAG[IRType.PTR]


def flat_strlen_opt_fn(fn, module, ctx) -> bool:
    """The per-function strlen pass over a buffer-backed function."""
    buf: IRBuffer = fn.buf
    changed = False
    names = buf.names
    opcl, dstl, tyl, auxl = buf.opc, buf.dst, buf.ty, buf.aux
    xdata = buf.xdata
    # Track which temps hold which global addresses (post-constfold IR
    # is simple enough for this to be block-local-accurate).
    global_of: dict[int, str] = {}
    for _label, idxs in buf.blocks:
        for i in idxs:
            if opcl[i] == OP_GLOBALADDR:
                global_of[dstl[i]] = names[auxl[i]]

    def addr_name(enc: int) -> str | None:
        if enc != NONE and enc & 3 == TAG_TEMP:
            return global_of.get(enc >> 2)
        return None

    for blk in buf.blocks:
        idxs = blk[1]
        for pos, i in enumerate(idxs):
            if opcl[i] != OP_CALL:
                continue
            xd = xdata[auxl[i]]
            if names[xd[0]] != "sprintf":
                continue
            args = xd[1]
            if len(args) < 3 or dstl[i] is None:
                continue
            fmt_name = addr_name(args[1])
            fmt_global = module.globals.get(fmt_name or "")
            if fmt_global is None or fmt_global.bytes_init != b"%s\x00":
                continue
            dst_name = addr_name(args[0])
            src_name = addr_name(args[2])
            ctx.cov.hit("opt:strlen", (dst_name == src_name))
            ctx.stats.bump("strlen_opts")
            src_global = module.globals.get(src_name or "")
            features = {
                "strlen_same_object": int(
                    dst_name is not None and dst_name == src_name
                ),
                "strlen_src_qualified": int(
                    src_global is not None
                    and (src_global.const or src_global.volatile)
                ),
            }
            ctx.check("opt:strlen_opt:verify_range", features)
            # Rewrite: the sprintf result becomes strlen(src); keep the
            # sprintf for its side effect, add the strlen for the value.
            call_dst = dstl[i]
            dstl[i] = None
            tyl[i] = _VOID_TAG
            xdata.append((buf.name_id("strlen"), [args[2]], (_PTR_TAG,)))
            strlen_row = buf.push(
                OP_CALL, call_dst, NONE, NONE, _I64_TAG, len(xdata) - 1
            )
            idxs.insert(pos + 1, strlen_row)
            changed = True
            break
    return changed
