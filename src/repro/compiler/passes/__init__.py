"""The optimizer: a pipeline of semantic IR passes.

The pass set mirrors the compiler components the paper's mutants exercised —
constant folding, CFG simplification, DCE, local CSE, store-to-load
forwarding, a small inliner, GCC's sprintf→strlen strength reduction, and a
loop vectorizer.  Passes record coverage edges and accumulate statistics used
by the seeded-bug triggers.
"""

from repro.compiler.passes.common import OptContext, OptStats
from repro.compiler.passes.const_fold import const_fold
from repro.compiler.passes.simplify_cfg import simplify_cfg
from repro.compiler.passes.dce import dce
from repro.compiler.passes.cse import cse
from repro.compiler.passes.forward_store import forward_store
from repro.compiler.passes.inline import (
    _inlinable,
    inline_candidates,
    inline_into_caller,
)
from repro.compiler.passes.strlen_opt import strlen_opt_fn
from repro.compiler.passes.loop_vectorize import loop_vectorize
from repro.compiler.passes.flat import flat_cleanup_opt, flat_local_opt
from repro.compiler.passes.flat_inline import (
    flat_inlinable,
    flat_inline_into_caller,
)
from repro.compiler.passes.flat_strlen import flat_strlen_opt_fn
from repro.compiler.passes.flat_vectorize import flat_loop_vectorize

__all__ = [
    "OptContext",
    "OptStats",
    "const_fold",
    "simplify_cfg",
    "dce",
    "cse",
    "forward_store",
    "inline_candidates",
    "inline_into_caller",
    "strlen_opt_fn",
    "loop_vectorize",
    "flat_local_opt",
    "flat_cleanup_opt",
    "flat_inlinable",
    "flat_inline_into_caller",
    "flat_strlen_opt_fn",
    "flat_loop_vectorize",
    "local_opt",
    "cleanup_opt",
    "is_inlinable",
    "candidate_map",
    "run_phase",
    "run_pipeline",
]


def local_opt(fn, ctx: OptContext) -> None:
    """The per-function -O1 fixpoint round (first pipeline stage).

    The reference round runs const_fold, simplify_cfg, forward_store, cse
    and dce as five sequential passes.  With ``ctx.flat`` set, the round
    runs over the :class:`~repro.compiler.flatir.IRBuffer` as the fused
    three-walk algorithm of :mod:`repro.compiler.passes.flat`, bit-identical
    in resulting IR, coverage hits and stats bumps.
    """
    if ctx.flat:
        flat_local_opt(fn, ctx)
        return
    changed = True
    rounds = 0
    while changed and rounds < 4:
        rounds += 1
        changed = False
        changed |= const_fold(fn, ctx)
        changed |= simplify_cfg(fn, ctx)
        changed |= forward_store(fn, ctx)
        changed |= cse(fn, ctx)
        changed |= dce(fn, ctx)
    ctx.stats.bump("opt_rounds", rounds)


def cleanup_opt(fn, ctx: OptContext) -> None:
    """The per-function post-inline cleanup round (-O2 stage tail)."""
    if ctx.flat:
        flat_cleanup_opt(fn, ctx)
        return
    const_fold(fn, ctx)
    simplify_cfg(fn, ctx)
    dce(fn, ctx)


def is_inlinable(fn, ctx: OptContext) -> bool:
    """Inline candidacy of one (post-local-opt) function."""
    return flat_inlinable(fn.buf) if ctx.flat else _inlinable(fn)


def candidate_map(module, ctx: OptContext) -> dict:
    """The module's inline candidates: name -> body in ``ctx``'s IR form."""
    if ctx.flat:
        return {
            name: fn.buf
            for name, fn in module.functions.items()
            if flat_inlinable(fn.buf)
        }
    return inline_candidates(module)


def run_phase(phase: str, fn, pass_, *args) -> None:
    """The optimizer's own per-function phase step: ``pass_(fn, *args)``."""
    pass_(fn, *args)


def run_pipeline(
    module, ctx: OptContext, phase_step=run_phase, candidates=candidate_map
) -> None:
    """Run the optimization pipeline at the context's -O level.

    This loop is the pass order, with its -O and flag gates, for every
    compile.  Each phase runs function by function through
    ``phase_step(phase, fn, pass_, *args)``, which must have the effect of
    ``pass_(fn, *args)``; every pass takes the :class:`OptContext` last.
    ``candidates(module, ctx)`` gives the inline candidates once the local
    round has run.  The defaults run every pass and take every inlinable
    function.  The compile session (:mod:`repro.compiler.session`) passes
    a step that replays the phases of the functions it already holds, and
    its candidate map, checked against the records it replays.
    """
    if ctx.opt_level <= 0:
        return
    # Flat runs splice and scan the buffers directly; the object entry
    # points are the reference pipeline's.
    if ctx.flat:
        inline_fn, strlen_fn = flat_inline_into_caller, flat_strlen_opt_fn
        vectorize_fn = flat_loop_vectorize
    else:
        inline_fn, strlen_fn = inline_into_caller, strlen_opt_fn
        vectorize_fn = loop_vectorize
    for fn in list(module.functions.values()):
        phase_step("local", fn, local_opt, ctx)
    if ctx.opt_level >= 2:
        callees = candidates(module, ctx)
        if callees:
            for caller in module.functions.values():
                phase_step("inline", caller, inline_fn, callees, ctx)
        for fn in module.functions.values():
            phase_step("strlen", fn, strlen_fn, module, ctx)
        for fn in list(module.functions.values()):
            phase_step("cleanup", fn, cleanup_opt, ctx)
    if ctx.opt_level >= 3 or ctx.flag("-ftree-vectorize"):
        for fn in list(module.functions.values()):
            phase_step("vectorize", fn, vectorize_fn, ctx)
