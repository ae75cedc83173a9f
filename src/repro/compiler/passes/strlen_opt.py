"""GCC's sprintf → strlen strength reduction (the §5.2 crash-case pass).

``sprintf(dst, "%s", src)`` returns ``strlen(src)``; GCC's strlen pass
rewrites the call's result accordingly after verifying the ranges of the
involved objects.  The paper's exclusive μCFuzz.s crash comes from a mutant
where ``src`` *is* ``dst`` and the buffer is const/volatile-qualified and not
NUL-terminated — ``verify_range`` fails an assertion.  The seeded-bug
registry hooks the checkpoint this pass reports.
"""

from __future__ import annotations

from repro.compiler.ir import Call, GlobalAddr, IRModule, IRType, Temp
from repro.compiler.passes.common import OptContext


def strlen_opt_fn(fn, module: IRModule, ctx: OptContext) -> bool:
    """Rewrite ``fn``'s ``sprintf(dst, "%s", src)`` calls (one per block).

    ``module`` supplies the globals the format and buffer operands name.
    """
    changed = False
    # Track which temps hold which global addresses (post-constfold IR
    # is simple enough for this to be block-local-accurate).
    global_of: dict[int, str] = {}
    for instr in fn.instructions():
        if isinstance(instr, GlobalAddr):
            global_of[instr.dst.index] = instr.name
    for block in fn.blocks:
        for i, instr in enumerate(block.instrs):
            if not (isinstance(instr, Call) and instr.callee == "sprintf"):
                continue
            if len(instr.args) < 3 or instr.dst is None:
                continue
            fmt = instr.args[1]
            fmt_name = (
                global_of.get(fmt.index) if isinstance(fmt, Temp) else None
            )
            fmt_global = module.globals.get(fmt_name or "")
            if fmt_global is None or fmt_global.bytes_init != b"%s\x00":
                continue
            dst_name = (
                global_of.get(instr.args[0].index)
                if isinstance(instr.args[0], Temp)
                else None
            )
            src_name = (
                global_of.get(instr.args[2].index)
                if isinstance(instr.args[2], Temp)
                else None
            )
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
            strlen_call = Call(
                instr.dst,
                "strlen",
                [instr.args[2]],
                [IRType.PTR],
                IRType.I64,
            )
            side_effect = Call(
                None, "sprintf", instr.args, instr.arg_tys, IRType.VOID
            )
            block.instrs[i] = side_effect
            block.instrs.insert(i + 1, strlen_call)
            changed = True
            break
    return changed
