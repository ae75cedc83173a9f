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
    inline_small_functions,
)
from repro.compiler.passes.strlen_opt import strlen_opt, strlen_opt_fn
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
    "inline_small_functions",
    "strlen_opt",
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
    "stage_passes",
    "is_inlinable",
    "candidate_map",
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


def stage_passes(ctx: OptContext):
    """The per-function (inline, strlen, vectorize) entry points for ``ctx``.

    Flat runs splice and scan the buffers directly; the object entry points
    are the reference pipeline's.
    """
    if ctx.flat:
        return flat_inline_into_caller, flat_strlen_opt_fn, flat_loop_vectorize
    return inline_into_caller, strlen_opt_fn, loop_vectorize


def is_inlinable(fn, ctx: OptContext) -> bool:
    """Inline candidacy of one (post-local-opt) function."""
    return flat_inlinable(fn.buffer()) if ctx.flat else _inlinable(fn)


def candidate_map(module, ctx: OptContext) -> dict:
    """The module's inline candidates: name -> body in ``ctx``'s IR form."""
    if ctx.flat:
        return {
            name: fn.buffer()
            for name, fn in module.functions.items()
            if flat_inlinable(fn.buffer())
        }
    return inline_candidates(module)


def run_pipeline(module, ctx: OptContext) -> None:
    """Run the optimization pipeline at the context's -O level.

    The plain middle end (every compile without a front-end cache) runs
    this loop as is.  It is built from per-function stage entry points
    (:func:`local_opt`, :func:`stage_passes`, :func:`cleanup_opt`) so that
    the compile session (:mod:`repro.compiler.session`), which walks the
    same order function by function, can replay the functions it already
    holds and run only the others, with the exact per-function event order
    of this loop.
    """
    if ctx.opt_level <= 0:
        return
    inline_fn, strlen_fn, vectorize_fn = stage_passes(ctx)
    for fn in list(module.functions.values()):
        local_opt(fn, ctx)
    if ctx.opt_level >= 2:
        candidates = candidate_map(module, ctx)
        if candidates:
            for caller in module.functions.values():
                inline_fn(caller, candidates, ctx)
        for fn in module.functions.values():
            strlen_fn(fn, module, ctx)
        for fn in list(module.functions.values()):
            cleanup_opt(fn, ctx)
    if ctx.opt_level >= 3 or ctx.flag("-ftree-vectorize"):
        for fn in list(module.functions.values()):
            vectorize_fn(fn, ctx)
