"""The local optimization rounds executed over the flat IR buffer.

:func:`flat_local_opt` and :func:`flat_cleanup_opt` are drop-in replacements
for :func:`repro.compiler.passes.local_opt` / ``cleanup_opt``: every
fixpoint round runs as int-dispatch loops over the parallel arrays of an
:class:`~repro.compiler.flatir.IRBuffer`, and no instruction or operand
objects are allocated while optimizing.  A buffer-native
:class:`~repro.compiler.flatir.FlatFunction` is rewritten in place; a plain
object function is encoded once and decoded once (a counted bridge
crossing), which is how the differential tests drive these rounds.

The -O1 round is *fused*: the sequential reference runs const_fold,
simplify_cfg, forward_store, cse and dce as five traversals, four of which
end in a whole-function use-rewrite; the flat round keeps their decision
sequence — every coverage hit and stats bump fires for the same
instruction — in three walks (fold, forward+cse combined, dce) and one
use-rewrite.  Why this is exact:

* Temps are single-assignment and defs precede uses in block order, so a
  mapping entry created at walk position *p* can only affect operands whose
  defining instruction lies at or after *p*; resolving operands per
  instruction during the walk lands on what fold ∘ forward ∘ cse produces.
* The passes' mappings compose by chaining (const_fold maps ``t3 → 7``, cse
  later maps ``t9 → t3``); :func:`_chain_get` chases chains transitively,
  so one sweep does what separate per-pass sweeps did.
* ``simplify_cfg`` reads only labels and terminator targets, never value
  operands, so deferring const_fold's use-rewrite past it changes nothing.
* Forwarding reads slot state and CSE reads the pure-instruction key, and
  both see identically resolved operands, so interleaving them in one walk
  keeps both decision streams.

The remaining parity-critical details:

* Immediate-pool deduplication makes enc equality coincide with operand
  object equality for ints.  Floats pool by bit pattern (so ``-0.0``
  decodes losslessly), so CSE keys use the pooled *objects* for immediates
  — giving exactly the object pass's ``==``/sort-by-``repr`` semantics,
  including the ``-0.0 == 0.0`` corner.
* Coverage hits decode type tags and op-name ids back to the real
  ``IRType``/string values before firing, so edges are bit-identical.
* ``flat_cleanup_opt`` keeps the standalone ``const_fold`` semantics (plain
  single-level mapping + one finalizing sweep), while ``flat_local_opt``
  uses the chain-resolving mapping.

``tests/test_session.py`` and ``tests/test_flatir.py`` diff IR, coverage and
stats against the sequential object round over seeds, mutants and random
programs; paranoid mode cross-checks every campaign compile against the
object pipeline.
"""

from __future__ import annotations

from repro.compiler.flatir import (
    F32_TAG, NONE, OP_BINOP, OP_BR, OP_CALL, OP_CAST, OP_GEP, OP_GLOBALADDR,
    OP_JMP, OP_LOAD, OP_LOCALADDR, OP_MEMCPY, OP_RET, OP_STORE, OP_UNOP,
    TAG_IMM, TAG_TEMP, TERMINATOR_OPS, TYPES, from_nodes, to_nodes,
)
from repro.compiler.ir import ImmInt
from repro.compiler.passes.const_fold import _wrap, fold_binop_values
from repro.compiler.passes.cse import COMMUTATIVE

#: Opcodes whose a *and* b fields are value operands / only a is.
_AB_OPS = frozenset((OP_BINOP, OP_STORE, OP_GEP, OP_MEMCPY))
_A_OPS = frozenset((OP_UNOP, OP_CAST, OP_LOAD, OP_BR, OP_RET))
_SIDE_EFFECT_OPS = frozenset((OP_STORE, OP_CALL, OP_MEMCPY))

#: Identity-simplifiable ops against a zero right-hand side.
_RHS_ZERO_OPS = ("+", "-", "|", "^", "<<", ">>", ">>u")
_LHS_ZERO_OPS = ("+", "|", "^")


def _chain_get(mapping: dict, enc: int) -> int:
    """Transitive mapping lookup: ``a → b, b → c`` resolves ``a`` to ``c``.

    Chains are finite because every key is the (single-assignment) dest of
    a removed instruction; the cycle guard is purely defensive.
    """
    nxt = mapping.get(enc)
    if nxt is None:
        return enc
    seen = None
    while True:
        following = mapping.get(nxt)
        if following is None:
            return nxt
        if seen is None:
            seen = {enc}
        if nxt in seen:  # pragma: no cover - defensive
            return nxt
        seen.add(nxt)
        nxt = following


def _flat_get(mapping: dict, enc: int) -> int:
    """Single-level lookup, mirroring a plain ``dict`` operand mapping."""
    return mapping.get(enc, enc)


def _resolve_instr(buf, i: int, mapping: dict, resolve) -> None:
    """The flat form of ``instr.replace_operands(mapping)``."""
    op = buf.opc[i]
    if op in _AB_OPS:
        buf.a[i] = resolve(mapping, buf.a[i])
        buf.b[i] = resolve(mapping, buf.b[i])
    elif op in _A_OPS:
        buf.a[i] = resolve(mapping, buf.a[i])
    elif op == OP_CALL:
        args = buf.xdata[buf.aux[i]][1]
        for k in range(len(args)):
            args[k] = resolve(mapping, args[k])


def _identity_enc(buf, opn: str, ae: int, be: int) -> int | None:
    """x+0, x*1, x&0... -> operand enc; mirrors ``_identity_simplify``."""
    imms = buf.imms
    if be & 3 == TAG_IMM:
        rhs = imms[be >> 2]
        if type(rhs) is ImmInt:
            v = rhs.value
            if v == 0 and opn in _RHS_ZERO_OPS:
                return ae
            if opn == "*" and v == 1:
                return ae
            if opn == "*" and v == 0:
                return buf.imm_int_enc(0)
            if opn == "&" and v == 0:
                return buf.imm_int_enc(0)
    if ae & 3 == TAG_IMM:
        lhs = imms[ae >> 2]
        if type(lhs) is ImmInt:
            v = lhs.value
            if v == 0 and opn in _LHS_ZERO_OPS:
                return be
            if opn == "*" and v == 1:
                return be
            if opn == "*" and v == 0:
                return buf.imm_int_enc(0)
    return None


def _const_fold(buf, ctx, mapping: dict, resolve) -> bool:
    changed = False
    cov = ctx.cov
    stats = ctx.stats
    opcl, dstl, al, bl, tyl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.ty, buf.aux
    imms = buf.imms
    names = buf.names
    for blk in buf.blocks:
        kept = []
        append = kept.append
        for i in blk[1]:
            if mapping:
                _resolve_instr(buf, i, mapping, resolve)
            op = opcl[i]
            if op == OP_BINOP:
                ae, be = al[i], bl[i]
                opn = names[auxl[i]]
                if ae & 3 == TAG_IMM and be & 3 == TAG_IMM:
                    ty = TYPES[tyl[i]]
                    folded = fold_binop_values(
                        opn, ty, imms[ae >> 2].value, imms[be >> 2].value
                    )
                    if folded is not None:
                        if ty.is_float:
                            enc = buf.imm_float_enc(float(folded))
                        else:
                            enc = buf.imm_int_enc(int(folded))
                        mapping[(dstl[i] << 2) | TAG_TEMP] = enc
                        cov.hit("opt:constfold", opn)
                        bucket = min(int(abs(folded)).bit_length(), 64)
                        cov.hit("opt:constfold_val", (opn, bucket, folded < 0))
                        stats.bump("folded")
                        changed = True
                        continue
                simplified = _identity_enc(buf, opn, ae, be)
                if simplified is not None:
                    mapping[(dstl[i] << 2) | TAG_TEMP] = simplified
                    cov.hit("opt:identity", opn)
                    stats.bump("identities")
                    changed = True
                    continue
            elif op == OP_UNOP:
                ae = al[i]
                if ae & 3 == TAG_IMM:
                    v = imms[ae >> 2].value
                    opn = names[auxl[i]]
                    if opn == "neg":
                        out = -v
                    elif opn == "lnot":
                        out = int(not v)
                    else:
                        out = ~int(v)
                    ty = TYPES[tyl[i]]
                    if ty.is_float:
                        enc = buf.imm_float_enc(float(out))
                    else:
                        enc = buf.imm_int_enc(_wrap(int(out), ty))
                    mapping[(dstl[i] << 2) | TAG_TEMP] = enc
                    stats.bump("folded")
                    changed = True
                    continue
            elif op == OP_CAST:
                ae = al[i]
                if ae & 3 == TAG_IMM:
                    v = imms[ae >> 2].value
                    to_ty = TYPES[tyl[i]]
                    if to_ty.is_float:
                        enc = buf.imm_float_enc(float(v))
                    elif to_ty.is_int:
                        # Mirror the interpreter: unsigned casts zero-extend.
                        iv = _wrap(int(v), to_ty)
                        if not (auxl[i] & 1):
                            iv &= (1 << to_ty.bits) - 1
                        enc = buf.imm_int_enc(iv)
                    else:
                        enc = buf.imm_int_enc(int(v))
                    mapping[(dstl[i] << 2) | TAG_TEMP] = enc
                    stats.bump("folded")
                    changed = True
                    continue
            elif op == OP_BR:
                ae = al[i]
                if ae & 3 == TAG_IMM:
                    v = imms[ae >> 2].value
                    target = bl[i] if v else auxl[i]
                    opcl[i] = OP_JMP
                    auxl[i] = target
                    al[i] = NONE
                    bl[i] = NONE
                    append(i)
                    cov.hit("opt:brfold", bool(v))
                    stats.bump("branches_folded")
                    changed = True
                    continue
            append(i)
        blk[1] = kept
    return changed


def _successors(buf, idxs) -> tuple:
    if not idxs:
        return ()
    i = idxs[-1]
    op = buf.opc[i]
    if op == OP_JMP:
        return (buf.aux[i],)
    if op == OP_BR:
        return (buf.b[i], buf.aux[i])
    return ()


def _predecessors(buf) -> dict:
    preds: dict = {blk[0]: [] for blk in buf.blocks}
    for blk in buf.blocks:
        for s in _successors(buf, blk[1]):
            preds.setdefault(s, []).append(blk[0])
    return preds


def _simplify_cfg(buf, ctx) -> bool:
    if not buf.blocks:
        return False
    changed = False
    opcl, auxl, bl = buf.opc, buf.aux, buf.b

    # 1. Drop unreachable blocks.
    blocks = buf.blocks
    block_by_label = {blk[0]: blk for blk in blocks}
    seen = {blocks[0][0]}
    work = [blocks[0]]
    while work:
        blk = work.pop()
        for s in _successors(buf, blk[1]):
            if s not in seen and s in block_by_label:
                seen.add(s)
                work.append(block_by_label[s])
    before = len(blocks)
    if len(seen) != before:
        buf.blocks = blocks = [blk for blk in blocks if blk[0] in seen]
        removed = before - len(blocks)
        ctx.cov.hit("opt:unreachable", removed > 2)
        ctx.stats.bump("unreachable_removed", removed)
        changed = True

    # 2. Thread jumps through empty forwarding blocks.
    forward: dict[int, int] = {}
    for blk in blocks:
        idxs = blk[1]
        if len(idxs) == 1 and opcl[idxs[0]] == OP_JMP:
            forward[blk[0]] = auxl[idxs[0]]
    if forward:
        def resolve(label: int) -> int:
            seen = set()
            while label in forward and label not in seen:
                seen.add(label)
                label = forward[label]
            return label

        for blk in blocks:
            idxs = blk[1]
            if not idxs:
                continue
            t = idxs[-1]
            op = opcl[t]
            if op == OP_JMP:
                r = resolve(auxl[t])
                if r != auxl[t]:
                    auxl[t] = r
                    changed = True
                    ctx.stats.bump("jumps_threaded")
            elif op == OP_BR:
                rt, rf = resolve(bl[t]), resolve(auxl[t])
                if (rt, rf) != (bl[t], auxl[t]):
                    bl[t], auxl[t] = rt, rf
                    changed = True
                    ctx.stats.bump("jumps_threaded")

    # 3. Merge a block into its unique predecessor.
    preds = _predecessors(buf)
    merged = True
    while merged:
        merged = False
        block_by_label = {blk[0]: blk for blk in buf.blocks}
        for blk in buf.blocks:
            idxs = blk[1]
            if not idxs or opcl[idxs[-1]] != OP_JMP:
                continue
            succ = block_by_label.get(auxl[idxs[-1]])
            if succ is None or succ is blk or succ is buf.blocks[0]:
                continue
            if len(preds.get(succ[0], ())) != 1:
                continue
            blk[1] = idxs[:-1] + succ[1]
            buf.blocks.remove(succ)
            ctx.cov.hit("opt:merge", len(succ[1]) > 4)
            ctx.stats.bump("blocks_merged")
            changed = True
            merged = True
            preds = _predecessors(buf)
            break

    # 4. Collapse br with identical targets.
    for blk in buf.blocks:
        idxs = blk[1]
        if idxs:
            t = idxs[-1]
            if opcl[t] == OP_BR and bl[t] == auxl[t]:
                opcl[t] = OP_JMP
                buf.a[t] = NONE
                bl[t] = NONE
                ctx.stats.bump("br_collapsed")
                changed = True
    return changed


def _kop(buf, enc: int):
    """A CSE key element: temp encs stay ints, immediates use the pooled
    object so key equality matches the object pass (``-0.0 == 0.0`` etc.)."""
    return buf.imms[enc >> 2] if enc & 3 == TAG_IMM else enc


def _krepr(buf, enc: int, reprs: dict) -> str:
    r = reprs.get(enc)
    if r is None:
        if enc & 3 == TAG_TEMP:
            r = f"%t{enc >> 2}"
        else:
            r = repr(buf.imms[enc >> 2])
        reprs[enc] = r
    return r


def _cse_key(buf, i: int, reprs: dict):
    op = buf.opc[i]
    if op == OP_BINOP:
        opn = buf.names[buf.aux[i]]
        ae, be = buf.a[i], buf.b[i]
        k1, k2 = _kop(buf, ae), _kop(buf, be)
        if opn in COMMUTATIVE and _krepr(buf, be, reprs) < _krepr(buf, ae, reprs):
            k1, k2 = k2, k1
        return ("bin", opn, buf.ty[i], (k1, k2))
    if op == OP_UNOP:
        return ("un", buf.names[buf.aux[i]], buf.ty[i], _kop(buf, buf.a[i]))
    if op == OP_CAST:
        aux = buf.aux[i]
        return ("cast", aux >> 1, buf.ty[i], aux & 1, _kop(buf, buf.a[i]))
    if op == OP_GEP:
        scale, offset = buf.xdata[buf.aux[i]]
        return ("gep", _kop(buf, buf.a[i]), _kop(buf, buf.b[i]), scale, offset)
    if op == OP_LOCALADDR:
        return ("local", buf.aux[i])
    if op == OP_GLOBALADDR:
        return ("global", buf.aux[i])
    return None


def _forward_cse(buf, ctx, mapping: dict, resolve) -> bool:
    """forward_store and cse in one flat traversal.

    Decision-for-decision identical to running ``forward_store`` then
    ``cse``: the slot bookkeeping mirrors the former, the available-
    expression table the latter.
    """
    changed = False
    cov = ctx.cov
    stats = ctx.stats
    opcl, dstl, al, bl, tyl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.ty, buf.aux
    imms = buf.imms
    reprs: dict = {}
    for blk in buf.blocks:
        known: dict = {}
        slot_of_temp: dict = {}
        available: dict = {}
        kept = []
        append = kept.append
        for i in blk[1]:
            if mapping:
                _resolve_instr(buf, i, mapping, resolve)
            op = opcl[i]
            if op == OP_LOCALADDR:
                slot_of_temp[dstl[i]] = auxl[i]
                # LocalAddr is also a CSE key: fall through.
            elif op == OP_STORE:
                pe = al[i]
                slot = slot_of_temp.get(pe >> 2) if pe & 3 == TAG_TEMP else None
                if slot is None or auxl[i]:
                    known.clear()  # store through an unknown pointer
                else:
                    known[slot] = (bl[i], tyl[i])
                append(i)
                continue
            elif op == OP_LOAD:
                forwarded = False
                if not auxl[i]:
                    pe = al[i]
                    slot = (
                        slot_of_temp.get(pe >> 2)
                        if pe & 3 == TAG_TEMP
                        else None
                    )
                    if slot is not None and slot in known:
                        venc, vtag = known[slot]
                        if vtag == tyl[i] and vtag != F32_TAG:
                            ty = TYPES[vtag]
                            vimm = imms[venc >> 2] if venc & 3 == TAG_IMM else None
                            if ty.is_int and type(vimm) is ImmInt:
                                mapping[(dstl[i] << 2) | TAG_TEMP] = (
                                    buf.imm_int_enc(_wrap(vimm.value, ty))
                                )
                            elif ty.is_int:
                                # The narrowing round trip survives as a
                                # same-type signed cast; CSE it below.
                                opcl[i] = OP_CAST
                                al[i] = venc
                                tyl[i] = vtag
                                auxl[i] = (vtag << 1) | 1
                            else:  # ptr / f64 round-trip unchanged
                                mapping[(dstl[i] << 2) | TAG_TEMP] = venc
                            cov.hit("opt:fwdstore", ty)
                            stats.bump("stores_forwarded")
                            changed = True
                            forwarded = opcl[i] == OP_LOAD
                if opcl[i] == OP_LOAD:
                    if not forwarded:
                        append(i)
                    continue
                # else: the forward became a Cast; CSE it like any pure op.
            elif op == OP_CALL or op == OP_MEMCPY:
                known.clear()
                append(i)
                continue
            key = _cse_key(buf, i, reprs)
            if key is None:
                append(i)
                continue
            existing = available.get(key)
            if existing is not None:
                mapping[(dstl[i] << 2) | TAG_TEMP] = existing
                cov.hit("opt:cse", key[0])
                stats.bump("cse_removed")
                changed = True
                continue
            d = dstl[i]
            if d is not None:
                available[key] = (d << 2) | TAG_TEMP
            append(i)
        blk[1] = kept
    return changed


def _replace_all(buf, mapping: dict, resolve) -> None:
    if not mapping:
        return
    for blk in buf.blocks:
        for i in blk[1]:
            _resolve_instr(buf, i, mapping, resolve)


def _dce(buf, ctx) -> bool:
    changed = False
    opcl, dstl, al, bl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.aux
    xdata = buf.xdata
    while True:
        uses: dict = {}
        for blk in buf.blocks:
            for i in blk[1]:
                op = opcl[i]
                if op in _AB_OPS:
                    e = al[i]
                    if e & 3 == TAG_TEMP:
                        t = e >> 2
                        uses[t] = uses.get(t, 0) + 1
                    e = bl[i]
                    if e & 3 == TAG_TEMP:
                        t = e >> 2
                        uses[t] = uses.get(t, 0) + 1
                elif op in _A_OPS:
                    e = al[i]
                    if e & 3 == TAG_TEMP:
                        t = e >> 2
                        uses[t] = uses.get(t, 0) + 1
                elif op == OP_CALL:
                    for e in xdata[auxl[i]][1]:
                        if e & 3 == TAG_TEMP:
                            t = e >> 2
                            uses[t] = uses.get(t, 0) + 1
        removed = 0
        for blk in buf.blocks:
            kept = []
            for i in blk[1]:
                d = dstl[i]
                op = opcl[i]
                if (
                    d is not None
                    and op not in _SIDE_EFFECT_OPS
                    and not (op == OP_LOAD and auxl[i])
                    and op not in TERMINATOR_OPS
                    and uses.get(d, 0) == 0
                ):
                    removed += 1
                    continue
                kept.append(i)
            blk[1] = kept
        if removed == 0:
            return changed
        ctx.cov.hit("opt:dce", removed > 8)
        ctx.stats.bump("dce_removed", removed)
        changed = True


def _enter_buffer(fn, ctx):
    """The working buffer for ``fn`` plus whether to write object IR back.

    A buffer-backed :class:`~repro.compiler.flatir.FlatFunction` is mutated
    in place with no bridge crossing; a plain ``IRFunction`` pays the
    encode/decode bridge, charged to ``ctx.bridge``.
    """
    buffer = getattr(fn, "buffer", None)
    if buffer is not None:
        return buffer(), False
    return from_nodes(fn, ctx.bridge), True


def flat_local_opt(fn, ctx) -> None:
    """The per-function -O1 fixpoint round over the flat buffer (fused)."""
    buf, writeback = _enter_buffer(fn, ctx)
    changed = True
    rounds = 0
    while changed and rounds < 4:
        rounds += 1
        changed = False
        mapping: dict = {}
        changed |= _const_fold(buf, ctx, mapping, _chain_get)
        changed |= _simplify_cfg(buf, ctx)
        changed |= _forward_cse(buf, ctx, mapping, _chain_get)
        # One combined sweep catches the (rare) use-before-def stragglers
        # the per-instruction rewrites could not see yet.
        _replace_all(buf, mapping, _chain_get)
        changed |= _dce(buf, ctx)
    ctx.stats.bump("opt_rounds", rounds)
    if writeback:
        fn.blocks = to_nodes(buf, ctx.bridge).blocks


def flat_cleanup_opt(fn, ctx) -> None:
    """The post-inline cleanup round (const_fold + simplify_cfg + dce)."""
    buf, writeback = _enter_buffer(fn, ctx)
    mapping: dict = {}
    _const_fold(buf, ctx, mapping, _flat_get)
    _replace_all(buf, mapping, _flat_get)
    _simplify_cfg(buf, ctx)
    _dce(buf, ctx)
    if writeback:
        fn.blocks = to_nodes(buf, ctx.bridge).blocks
