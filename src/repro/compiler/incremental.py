"""Function-granular middle-end capture and replay.

The fuzzing hot path compiles mutants that differ from an already-compiled
parent in one or two top-level declarations.  The middle end (IR generation
and the optimizer) is per-declaration work stitched together by a small
amount of module-global state, so when the front end hands us an
:class:`~repro.cast.incremental.IncrementalPlan` we re-lower and re-optimize
only the dirty functions and *replay* everything else from the parent's
recorded run.

Replay is exact, not approximate.  During every cached middle-end run a
single ordered **journal** records each observable event — coverage hits
(``("cov", site, outcome)``), optimizer statistics (``("stat", key, n)``)
and bug-checkpoint firings (``("check", point, extra)``) — interleaved in
pipeline order.  The journal is sliced per declaration (IR generation) and
per (pass-phase, function) (optimization), and those slices are stored in
``FrontendEntry.memo`` together with the lowered function objects, emitted
globals, statistics deltas and name-counter schedules.  Replaying a clean
function applies its slices through the same hooks a real run uses, so the
replayed compile journals itself and produces a memo for *its* children.

Anything that could make a clean function's recorded run stale aborts the
incremental attempt (:class:`_MiddleAbort`) and falls back to a full middle
end: changed enum tables, changed string/static name-counter schedules,
dirty functions that are (or were) inline candidates, non-function dirty
decls.  Abort is safe mid-run because every event applied up to that point
is an exact prefix of what the full run produces (coverage hits are
idempotent set-inserts and the feature dict has not been merged yet).

``paranoid=True`` on :meth:`Compiler.compile` additionally re-runs the full
pipeline with no cache and asserts the entire :class:`CompileResult` —
diagnostics, crash identity, asm, coverage edges, features, cost — is
bit-identical (:func:`assert_results_equal`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cast import ast_nodes as ast
from repro.cast.incremental import IncrementalDivergence
from repro.compiler.backend import BackendResult, _lower_function, lower_to_asm
from repro.compiler.flatir import FunctionSnapshot
from repro.compiler.ir import IRFunction, IRModule
from repro.compiler.irgen import FlatIRGen, IRGen, LoweringError
from repro.compiler.passes import (
    OptContext,
    candidate_map,
    cleanup_opt,
    is_inlinable,
    local_opt,
    stage_passes,
)
from repro.telemetry.spans import span


class _MiddleAbort(Exception):
    """Internal: the incremental middle end hit an ineligible state."""


def middle_memo_key(compiler, opt_level: int, flags: tuple) -> str:
    """Memo key for one (personality, bug seed, options) middle-end run.

    The key also names the pipeline: flat-native runs store
    :class:`~repro.compiler.flatir.FlatFunction` records in the memo, so
    they must never share a memo slot with reference (object-IR) runs even
    if a cache were handed between differently-configured compilers.
    """
    suffix = "" if compiler.reference else ":flat-native"
    return (
        f"middle:{compiler.name}:{compiler.bug_seed}:{opt_level}:"
        f"{','.join(flags)}{suffix}"
    )


def new_irgen(compiler, entry, cov):
    """IR generation for ``compiler``'s pipeline.

    The default is buffer-direct: functions are emitted straight into
    :class:`~repro.compiler.flatir.IRBuffer` rows, and replayed records
    re-inject their :class:`~repro.compiler.flatir.FlatFunction` carriers
    verbatim (zero bridge crossings).  The reference builds object IR.
    """
    if compiler.reference:
        return IRGen(entry.sema, cov)
    return FlatIRGen(entry.sema, cov, counters=compiler.bridge)


def new_opt_context(compiler, cov, opt_level: int, flags: tuple, checkpoint):
    """The optimizer/backend context of one middle-end run."""
    return OptContext(
        cov=cov,
        opt_level=opt_level,
        flags=compiler._personality_flags(flags),
        checkpoint=checkpoint,
        flat=not compiler.reference,
        bridge=compiler.bridge,
    )


@dataclass(frozen=True)
class DeclRecord:
    """Everything IR generation did for one top-level declaration."""

    kind: str  # "fn" | "var" | "other"
    name: str | None
    events: tuple
    stats_delta: tuple  # ((key, n), ...) applied to IRGenStats
    globals_added: tuple  # ((name, GlobalVar), ...) in emission order
    fn: IRFunction | None  # live post-pipeline object (mutated in place)
    str_start: int
    static_start: int
    str_delta: int
    static_delta: int


@dataclass(frozen=True)
class ResultMemo:
    """The complete observable outcome of one non-crashing compile."""

    ok: bool
    diagnostics: tuple
    asm: str
    module: IRModule | None
    features: dict
    events: tuple
    stages: tuple


@dataclass
class MiddleMemo:
    """Per-(compiler, options) middle-end record attached to a cache entry."""

    decl_records: tuple = ()
    enum_values: dict = field(default_factory=dict)
    fn_names: tuple = ()
    candidate_names: frozenset = frozenset()
    candidate_snapshots: dict = field(default_factory=dict)
    phase_events: dict = field(default_factory=dict)  # (phase, fn) -> events
    #: fn name -> (events, stats, asm): one function's back-end output.
    backend_records: dict = field(default_factory=dict)
    #: True once the records describe a full, successful pipeline run and can
    #: seed children's incremental compiles.
    complete: bool = False
    #: Whole-result replay for exact re-compiles of the same text.
    result: ResultMemo | None = None


def _apply_events(events, cov, checkpoint, stats) -> None:
    """Replay a journal slice through the live hooks (which re-journal it)."""
    for ev in events:
        tag = ev[0]
        if tag == "cov":
            cov.hit(ev[1], ev[2])
        elif tag == "stat":
            stats.bump(ev[1], ev[2])
        else:
            checkpoint(ev[1], dict(ev[2]))


def _stats_delta(before: Counter, after: Counter) -> tuple:
    return tuple(
        (k, after[k] - before.get(k, 0))
        for k in after
        if after[k] != before.get(k, 0)
    )


def _decl_kind(decl) -> tuple[str, str | None]:
    if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
        return "fn", decl.name
    if isinstance(decl, ast.VarDecl):
        return "var", decl.name
    return "other", getattr(decl, "name", None)


def _incremental_pairing(plan, parent_unit, unit):
    """Dirty (parent_decl, new_decl) pairs, or abort if not function-shaped.

    The middle end only replays around dirty regions where every changed
    decl is a function definition whose name is stable: edits to globals,
    typedefs, records, or decl insertions/deletions change cross-function
    state (layouts, initializers, inline candidacy sets) in ways the
    per-function records cannot express.
    """
    mapped = {m for m in plan.decl_map if m is not None}
    parent_dirty = [i for i in range(len(parent_unit.decls)) if i not in mapped]
    new_dirty = list(plan.dirty_indices)
    if len(parent_dirty) != len(new_dirty):
        raise _MiddleAbort("dirty decl count changed")
    pairs = []
    for pi, ni in zip(parent_dirty, new_dirty):
        pd, nd = parent_unit.decls[pi], unit.decls[ni]
        pk, pname = _decl_kind(pd)
        nk, nname = _decl_kind(nd)
        if pk != "fn" or nk != "fn" or pname != nname:
            raise _MiddleAbort("dirty decl is not a stable function definition")
        pairs.append((pi, ni))
    return parent_dirty, new_dirty


class _MiddleRun:
    """One instrumented middle-end run (full or incremental).

    Drives IR generation per declaration and the optimizer per (phase,
    function), recording journal slices as it goes; in incremental mode the
    clean units are replayed from ``reuse``/``phase_reuse`` instead of
    executed.
    """

    def __init__(
        self,
        compiler,
        entry,
        opt_level: int,
        flags: tuple,
        cov,
        features: dict,
        journal: list | None,
    ) -> None:
        self.compiler = compiler
        self.entry = entry
        self.unit = entry.unit
        self.opt_level = opt_level
        self.flags = flags
        self.cov = cov
        self.features = features
        #: Whether this run is being recorded for memoization (a cache is in
        #: play).  Uncached runs skip all slicing/snapshotting overhead.
        self.capture = journal is not None
        self.journal = journal if journal is not None else []
        # new decl index -> DeclRecord to replay; absent entries run real.
        self.reuse: dict[int, DeclRecord] = {}
        # new dirty decl index -> parent dirty decl index (from the pairing).
        self.dirty_parent: dict[int, int] = {}
        self.parent_memo: MiddleMemo | None = None
        self.memo = MiddleMemo()

        def checkpoint(point: str, extra: dict) -> None:
            if self.capture:
                self.journal.append(("check", point, dict(extra)))
            merged = dict(self.features)
            merged.update(extra)
            self.compiler.bugs.check(point, merged)

        self.checkpoint = checkpoint

    # ---------------------------------------------------------------- irgen

    def lower(self) -> IRModule:
        irgen = new_irgen(self.compiler, self.entry, self.cov)
        irgen._collect_enums(self.unit)
        if self.capture:
            self.memo.enum_values = dict(irgen._enum_values)
        if self.parent_memo is not None and (
            dict(irgen._enum_values) != self.parent_memo.enum_values
        ):
            raise _MiddleAbort("enum table changed")
        records = []
        for i, decl in enumerate(self.unit.decls):
            kind, name = _decl_kind(decl)
            rec = self.reuse.get(i)
            start = len(self.journal)
            stats0 = Counter(irgen.stats.counters) if self.capture else None
            g0 = len(irgen.module.globals)
            str0, static0 = irgen._string_counter, irgen._static_counter
            if rec is not None:
                if (str0, static0) != (rec.str_start, rec.static_start):
                    raise _MiddleAbort("name counter schedule drifted")
                _apply_events(rec.events, self.cov, self.checkpoint, _NO_STATS)
                irgen.stats.counters.update(dict(rec.stats_delta))
                for gname, gvar in rec.globals_added:
                    irgen.module.globals[gname] = gvar
                if rec.fn is not None:
                    irgen.module.functions[rec.name] = rec.fn
                irgen._string_counter += rec.str_delta
                irgen._static_counter += rec.static_delta
            else:
                if kind == "var":
                    irgen._lower_global(decl)
                elif kind == "fn":
                    irgen._lower_function(decl)
                if self.parent_memo is not None:
                    # A dirty decl must keep its parent's name-counter
                    # schedule, or every later decl's interned-string /
                    # local-static names (already memoized) would be wrong.
                    prec = self.parent_memo.decl_records[self.dirty_parent[i]]
                    if (str0, static0) != (prec.str_start, prec.static_start) or (
                        irgen._string_counter - str0,
                        irgen._static_counter - static0,
                    ) != (prec.str_delta, prec.static_delta):
                        raise _MiddleAbort("name counter schedule drifted")
            if self.capture:
                records.append(
                    DeclRecord(
                        kind=kind,
                        name=name,
                        events=tuple(self.journal[start:]),
                        stats_delta=_stats_delta(stats0, irgen.stats.counters),
                        globals_added=tuple(
                            list(irgen.module.globals.items())[g0:]
                        ),
                        fn=irgen.module.functions.get(name)
                        if kind == "fn"
                        else None,
                        str_start=str0,
                        static_start=static0,
                        str_delta=irgen._string_counter - str0,
                        static_delta=irgen._static_counter - static0,
                    )
                )
        self.memo.decl_records = tuple(records)
        self.irgen = irgen
        module = irgen.module
        self.memo.fn_names = tuple(module.functions)
        if self.parent_memo is not None and (
            self.memo.fn_names != self.parent_memo.fn_names
        ):
            raise _MiddleAbort("function name sequence changed")
        return module

    # ------------------------------------------------------------ optimizer

    def optimize(self, module: IRModule, ctx: OptContext) -> None:
        if ctx.opt_level <= 0:
            return
        dirty = self._dirty_fn_names()

        def drive(phase: str, fn, runner) -> None:
            start = len(self.journal)
            key = (phase, fn.name)
            if fn.name in dirty or self.parent_memo is None:
                runner()
            else:
                events = self.parent_memo.phase_events.get(key)
                if events is None:
                    raise _MiddleAbort(f"missing parent phase record {key}")
                _apply_events(events, self.cov, self.checkpoint, ctx.stats)
            if self.capture:
                self.memo.phase_events[key] = tuple(self.journal[start:])

        inline_fn, strlen_fn, vectorize_fn = stage_passes(ctx)
        for fn in list(module.functions.values()):
            drive("local", fn, lambda f=fn: local_opt(f, ctx))
        if ctx.opt_level >= 2:
            candidates = self._candidates(module, dirty, ctx)
            if candidates:
                for caller in module.functions.values():
                    drive(
                        "inline",
                        caller,
                        lambda c=caller: inline_fn(c, candidates, ctx),
                    )
            for fn in module.functions.values():
                drive("strlen", fn, lambda f=fn: strlen_fn(f, module, ctx))
            for fn in list(module.functions.values()):
                drive("cleanup", fn, lambda f=fn: cleanup_opt(f, ctx))
        if ctx.opt_level >= 3 or ctx.flag("-ftree-vectorize"):
            for fn in list(module.functions.values()):
                drive("vectorize", fn, lambda f=fn: vectorize_fn(f, ctx))

    # -------------------------------------------------------------- backend

    def backend(self, module: IRModule, ctx: OptContext) -> BackendResult:
        """Run the back end, replaying unchanged functions' records.

        Per-function lowering is pure over the function's (final, post-
        optimizer) IR, so a clean function replays its recorded coverage
        events and reuses its asm/stats verbatim; the cumulative module
        statistics and the ``backend:function``/``backend:module``
        checkpoints always run live inside :func:`lower_to_asm` because they
        fold in the preceding (possibly dirty) functions' totals.
        """
        dirty = self._dirty_fn_names()

        def lower_fn(fn, fn_ctx) -> BackendResult:
            start = len(self.journal)
            if fn.name not in dirty and self.parent_memo is not None:
                rec = self.parent_memo.backend_records.get(fn.name)
                if rec is None:
                    raise _MiddleAbort(f"missing backend record {fn.name}")
                events, stats, asm = rec
                _apply_events(events, self.cov, self.checkpoint, _NO_STATS)
                res = BackendResult(asm, dict(stats))
            else:
                res = _lower_function(fn, fn_ctx)
            if self.capture:
                self.memo.backend_records[fn.name] = (
                    tuple(self.journal[start:]), dict(res.stats), res.asm
                )
            return res

        return lower_to_asm(module, ctx, fn_lowerer=lower_fn)

    def _dirty_fn_names(self) -> set:
        if self.parent_memo is None:
            return set()
        return {
            _decl_kind(self.unit.decls[i])[1]
            for i in range(len(self.unit.decls))
            if i not in self.reuse
        }

    def _candidates(self, module: IRModule, dirty: set, ctx) -> dict:
        if self.parent_memo is None:
            candidates = candidate_map(module, ctx)
            if self.capture:
                # Candidate bodies get inlined into callers by value;
                # snapshot them at this (post-local-opt) point so children
                # can reuse them after later phases mutate the live objects.
                self.memo.candidate_names = frozenset(candidates)
                self.memo.candidate_snapshots = {
                    name: FunctionSnapshot.of(module.functions[name])
                    for name in candidates
                }
            return candidates
        for name in dirty:
            fn = module.functions[name]
            if name in self.parent_memo.candidate_names or is_inlinable(
                fn, ctx
            ):
                # A dirty function that is (or was) an inline candidate can
                # change the bodies inlined into *clean* callers.
                raise _MiddleAbort("dirty function affects inline candidacy")
        self.memo.candidate_names = self.parent_memo.candidate_names
        self.memo.candidate_snapshots = self.parent_memo.candidate_snapshots
        if ctx.flat:
            # Serve the snapshot buffers directly to the flat inliner:
            # cache-served callee bodies never cross the IR bridge.
            return {
                name: snap.buf
                for name, snap in self.parent_memo.candidate_snapshots.items()
            }
        return {
            name: snap.materialize()
            for name, snap in self.parent_memo.candidate_snapshots.items()
        }


class _NoStats:
    def bump(self, key: str, n: int = 1) -> None:  # pragma: no cover - guard
        raise _MiddleAbort("IR generation never records optimizer stats")


_NO_STATS = _NoStats()


def lower_and_optimize(
    compiler,
    entry,
    opt_level: int,
    flags: tuple,
    cov,
    features: dict,
    result,
    *,
    journal: list | None = None,
    plan=None,
    stages: list | None = None,
) -> None:
    """The middle end + back end of ``Compiler.compile``.

    Runs IR generation, the optimizer, and the back end, mutating
    ``cov``/``features``/``result`` exactly like the monolithic pipeline
    did.  When ``journal`` is provided (a cache is in play) the run is
    instrumented and memoized on ``entry.memo``; when ``plan`` points at a
    completed parent run, clean declarations are replayed instead of
    recompiled.  ``stages`` collects which pipeline stages logically ran
    (for the stage-scaled cost model).
    """
    key = middle_memo_key(compiler, opt_level, tuple(flags))
    memoized = entry.memo.get(key) if journal is not None else None
    if memoized is not None and memoized.result is not None:
        _replay_result(memoized.result, cov, features, result, stages)
        return
    parent_memo = None
    if plan is not None and journal is not None:
        parent_memo = plan.parent.memo.get(key)
        if parent_memo is not None and not parent_memo.complete:
            parent_memo = None
    if parent_memo is not None:
        try:
            _run_middle(
                compiler, entry, opt_level, flags, cov, features, result,
                journal, plan, parent_memo, stages, key,
            )
            compiler.middle_incremental_hits += 1
            return
        except _MiddleAbort:
            compiler.middle_incremental_fallbacks += 1
            # Every event applied so far is a prefix of the full run's
            # stream: wipe the journal and recompute from scratch.  The
            # polluted coverage edges are a subset of what the full run
            # re-adds, and the feature dict has not been merged yet.
            journal.clear()
    _run_middle(
        compiler, entry, opt_level, flags, cov, features, result,
        journal, None, None, stages, key,
    )


def _run_middle(
    compiler,
    entry,
    opt_level,
    flags,
    cov,
    features,
    result,
    journal,
    plan,
    parent_memo,
    stages,
    key,
) -> None:
    run = _MiddleRun(
        compiler, entry, opt_level, flags, cov, features, journal,
    )
    if parent_memo is not None:
        parent_dirty, new_dirty = _incremental_pairing(
            plan, plan.parent.unit, entry.unit
        )
        run.parent_memo = parent_memo
        run.dirty_parent = dict(zip(new_dirty, parent_dirty))
        for ni, pi in enumerate(plan.decl_map):
            if pi is not None:
                run.reuse[ni] = parent_memo.decl_records[pi]
    try:
        with span(compiler.tracer, "irgen"):
            module = run.lower()
    except (LoweringError, RecursionError) as exc:
        result.diagnostics.append(f"sorry, unimplemented: {exc}")
        features["lowering_failed"] = 1
        compiler.bugs.check("ir-gen", features)
        if journal is not None:
            run.memo.result = ResultMemo(
                ok=False,
                diagnostics=tuple(result.diagnostics),
                asm="",
                module=None,
                features=dict(features),
                events=tuple(journal),
                stages=tuple(stages) if stages is not None else (),
            )
            entry.memo[key] = run.memo
        return
    features.update(run.irgen.stats.counters)
    compiler.bugs.check("ir-gen", features)

    with span(compiler.tracer, "opt"):
        ctx = new_opt_context(
            compiler, cov, opt_level, flags, run.checkpoint
        )
        if journal is not None:
            ctx.stats.journal = run.journal
        run.optimize(module, ctx)
    features.update(ctx.stats.counters)
    compiler.bugs.check("optimization", features)

    with span(compiler.tracer, "backend"):
        be = run.backend(module, ctx)
    if stages is not None:
        stages.append("backend")
    features.update(be.stats)
    compiler.bugs.check("back-end", features)

    result.ok = True
    result.asm = be.asm
    result.module = module
    if journal is not None:
        run.memo.complete = True
        run.memo.result = ResultMemo(
            ok=True,
            diagnostics=(),
            asm=be.asm,
            module=module,
            features=dict(features),
            events=tuple(journal),
            stages=tuple(stages) if stages is not None else (),
        )
        entry.memo[key] = run.memo


def _replay_result(memo: ResultMemo, cov, features, result, stages) -> None:
    """Re-apply a memoized compile outcome (same text, same options)."""
    for ev in memo.events:
        if ev[0] == "cov":
            cov.hit(ev[1], ev[2])
    result.diagnostics.extend(memo.diagnostics)
    features.update(memo.features)
    result.ok = memo.ok
    result.asm = memo.asm
    result.module = memo.module
    if stages is not None:
        for stage in memo.stages:
            if stage not in stages:
                stages.append(stage)


# ---------------------------------------------------------------------------
# paranoid differential comparison


def assert_results_equal(inc, full) -> None:
    """Raise :class:`IncrementalDivergence` unless two CompileResults match.

    ``inc`` is the result produced with caching/incremental replay, ``full``
    a from-scratch compile of the same text and options.  Every observable
    field must agree; modules are compared by dump.
    """

    def _fail(aspect: str, a, b):
        raise IncrementalDivergence(
            f"paranoid middle-end check failed on {aspect}: {a!r} != {b!r}"
        )

    if inc.ok != full.ok:
        _fail("ok", inc.ok, full.ok)
    if list(inc.diagnostics) != list(full.diagnostics):
        _fail("diagnostics", inc.diagnostics, full.diagnostics)
    inc_crash = inc.crash.bug_id if inc.crash else None
    full_crash = full.crash.bug_id if full.crash else None
    if inc_crash != full_crash:
        _fail("crash", inc_crash, full_crash)
    inc_hang = inc.hang.bug_id if inc.hang else None
    full_hang = full.hang.bug_id if full.hang else None
    if inc_hang != full_hang:
        _fail("hang", inc_hang, full_hang)
    if inc.asm != full.asm:
        _fail("asm", len(inc.asm), len(full.asm))
    if inc.coverage.edges != full.coverage.edges:
        only_inc = list(inc.coverage.edges - full.coverage.edges)[:4]
        only_full = list(full.coverage.edges - inc.coverage.edges)[:4]
        _fail("coverage edges", only_inc, only_full)
    if dict(inc.features) != dict(full.features):
        diff = {
            k: (inc.features.get(k), full.features.get(k))
            for k in set(inc.features) | set(full.features)
            if inc.features.get(k) != full.features.get(k)
        }
        _fail("features", diff, "")
    if inc.cost != full.cost:
        _fail("cost", inc.cost, full.cost)
    inc_dump = inc.module.dump() if inc.module is not None else None
    full_dump = full.module.dump() if full.module is not None else None
    if inc_dump != full_dump:
        _fail("module", len(inc_dump or ""), len(full_dump or ""))
