"""The middle end: the plain pipeline and the compile session.

A compile without a :class:`~repro.cast.cache.FrontendCache` (the program
generators, AFL++) and every compile of the object-IR reference pipeline
(``Compiler(reference=True)``, which ignores a cache, so paranoid mode's
reference is built from scratch) runs the plain pipeline,
:func:`lower_and_optimize`: whole-module IR generation,
:func:`repro.compiler.passes.run_pipeline` and
:func:`repro.compiler.backend.lower_to_asm`.  It records nothing.

A default-pipeline compile that carries a cache runs
:func:`lower_and_optimize_session` against its compiler's own
:class:`CompileSession`, the middle end's one reuse mechanism, which
therefore holds buffer-native artifacts only.  The session interns
per-function middle-end artifacts (IR generation replay segments, per-phase
optimizer segments, the final post-pipeline function, backend asm/stats)
under a **content key** that captures everything the function's middle-end
run can observe.  Any compile whose function hashes to a known key skips
irgen, the optimizer, and the backend for that function entirely, whichever
program the record was made in: a mutant's unchanged siblings, a pool
member's functions on the next step, a mutant of a mutant.  A second compile
of the same text and options is served the same way, declaration by
declaration.

The session keeps what the fuzzer's pool can reuse.  A compile notes on its
front-end entry (``memo["session_keys"]``) the records it created for the
declarations its mutation changed; when the fuzzer drops a mutant that did
not enter its pool, :meth:`CompileSession.release` drops those records with
it.  Records of declarations the mutant shares with its parent stay: they
are the parent's functions, which the pool's next mutants replay.

The key must cover all cross-declaration state the middle end reads:

* the options tuple (personality, bug seed, -O level, flags);
* the enum-constant table (``_collect_enums`` walks the whole unit);
* the *environment digest* — per-decl header text for function definitions
  (signature only; bodies are invisible to other decls) and full text for
  everything else, in declaration order (sema-visible state: typedefs,
  records, globals, prototypes);
* the running **globals-state digest** — name and content of every global
  emitted by earlier decls (``_intern_string`` dedups string literals by
  content against *all* module globals, so a clean function's interned-name
  references depend on what preceded it);
* the string/static name counters at the decl's start (interned names embed
  them);
* the declaration's full source text.

Inlining is the one pass that makes one function's events depend on another
function's *body*.  Records therefore carry the recording module's inline
candidate name-set and a digest over the candidates' (name, content key)
pairs.  Reuse aborts (:class:`_MiddleAbort`) whenever the current module's
candidate situation differs: a dirty function is or was a candidate,
candidate sets disagree across records, or a candidate's body key changed.
An abort falls back to a fully live, self-recording run.  It is safe mid-run
because everything applied up to that point is a prefix of what the live run
produces: coverage hits are idempotent set-inserts and the feature dict has
not been merged yet.

Replay is segment-compiled: each recorded journal slice (the ``("cov", ...)``,
``("stat", ...)`` and ``("check", ...)`` events a live run appends to its
compile's journal) is split at bug-checkpoint events into ``(coverage edge
set, stats deltas, checkpoint)`` segments.  Coverage applies as one bulk
set-union and stats as direct counter adds — O(unique sites), not O(events) —
while checkpoints run live through the bug registry with the evolving
feature dict, preserving crash identity and the exact abort point of a
seeded crash.

``paranoid=True`` on :meth:`Compiler.compile` cross-checks every cached
compile against a from-scratch plain compile through the object-IR reference
pipeline via :func:`assert_results_equal`.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter

from repro.cast import ast_nodes as ast
from repro.cast.cache import decl_digests, source_digest
from repro.cast.incremental import IncrementalDivergence
from repro.compiler.backend import BackendResult, _lower_function, lower_to_asm
from repro.compiler.flatir import FlatFunction, IRBuffer
from repro.compiler.ir import IRModule
from repro.compiler.irgen import FlatIRGen, IRGen, LoweringError
from repro.compiler.passes import (
    OptContext,
    candidate_map,
    cleanup_opt,
    is_inlinable,
    local_opt,
    run_pipeline,
    stage_passes,
)
from repro.telemetry.spans import span

#: Default bound on interned per-function records.  A campaign cell's live
#: working set is about (pool size × functions per program), since the
#: fuzzers release their unkept mutants' records at the end of each step;
#: the bound only caps a caller that never releases.
DEFAULT_SESSION_SIZE = 4096

_EVENT_TAG = itemgetter(0)
_EVENT_EDGE = itemgetter(1, 2)


class _MiddleAbort(Exception):
    """Internal: session reuse hit an inconsistent state."""


def middle_memo_key(compiler, opt_level: int, flags: tuple) -> str:
    """The options part of every session key."""
    return (
        f"middle:{compiler.name}:{compiler.bug_seed}:{opt_level}:"
        f"{','.join(flags)}"
    )


def new_irgen(compiler, entry, cov):
    """IR generation for ``compiler``'s pipeline.

    The default is buffer-direct: functions are emitted straight into
    :class:`~repro.compiler.flatir.IRBuffer` rows, and replayed records
    re-inject their :class:`~repro.compiler.flatir.FlatFunction` objects
    verbatim.  The reference builds object IR.
    """
    if compiler.reference:
        return IRGen(entry.sema, cov)
    return FlatIRGen(entry.sema, cov)


def new_opt_context(compiler, cov, opt_level: int, flags: tuple, checkpoint):
    """The optimizer/backend context of one middle-end run."""
    return OptContext(
        cov=cov,
        opt_level=opt_level,
        flags=compiler._personality_flags(flags),
        checkpoint=checkpoint,
        flat=not compiler.reference,
    )


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


def _digest(*parts) -> str:
    """A stable digest over repr-serializable parts."""
    return source_digest("\x1f".join(repr(p) for p in parts))


def _global_sig(name: str, g) -> str:
    """Serialized identity of one emitted global (name + full content)."""
    return repr(
        (
            name,
            g.size,
            g.const,
            g.volatile,
            g.bytes_init,
            tuple((off, ty.value, val) for off, ty, val in g.init),
        )
    )


def _segments(events: tuple) -> tuple:
    """Compile a journal slice into bulk-applicable replay segments.

    Each segment is ``(edges, stats, check)``: the coverage edges and stats
    deltas preceding the next checkpoint (order-free — coverage is a set,
    stats are sums), then the checkpoint itself, which must run live and in
    order because it can raise a seeded crash.  A crash truncates the event
    stream exactly where the original run stopped.

    Every live declaration is compiled at commit, replayed or not, so the
    common slice — coverage only, as IR generation's always is — takes a
    loop-free path.
    """
    if set(map(_EVENT_TAG, events)) <= {"cov"}:
        return ((frozenset(map(_EVENT_EDGE, events)), (), None),)
    segs: list = []
    edges: list = []
    stats: list = []
    for ev in events:
        tag = ev[0]
        if tag == "cov":
            edges.append((ev[1], ev[2]))
        elif tag == "stat":
            stats.append((ev[1], ev[2]))
        else:
            segs.append(
                (frozenset(edges), tuple(stats), (ev[1], tuple(ev[2].items())))
            )
            edges, stats = [], []
    if edges or stats or not segs:
        segs.append((frozenset(edges), tuple(stats), None))
    return tuple(segs)


@dataclass(frozen=True)
class SessionFnRecord:
    """Everything the middle end did for one declaration, replayable."""

    kind: str  # "fn" | "var"
    name: str | None
    irgen_segments: tuple
    irgen_stats: tuple  # ((key, n), ...) applied to IRGenStats
    globals_added: tuple  # ((name, GlobalVar), ...) in emission order
    fn: FlatFunction | None  # final post-pipeline function (never mutated again)
    str_delta: int
    static_delta: int
    phase_segments: dict = field(default_factory=dict)  # phase -> segments
    backend_segments: tuple = ()
    backend_stats: tuple = ()
    asm: str = ""
    candidate_names: frozenset = frozenset()
    candidates_digest: str = ""
    #: Post-local-opt buffer clone when this function was an inline
    #: candidate in its recording run (the body callers inline by value).
    snapshot: IRBuffer | None = None


class CompileSession:
    """A persistent cross-step store of interned middle-end artifacts.

    Every :class:`~repro.compiler.driver.Compiler` owns one
    (``compile_session``); only compiles that carry a front-end cache read
    or write it, so a compiler that never gets a cache keeps it empty.
    """

    def __init__(self, maxsize: int = DEFAULT_SESSION_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("session maxsize must be >= 1")
        self.maxsize = maxsize
        self._records: OrderedDict[str, SessionFnRecord] = OrderedDict()
        #: Per-declaration replays served / live lowers recorded.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Reuse attempts that fell back to a fully live run.
        self.aborts = 0
        #: Parent compiles issued by :meth:`Compiler.compile_batch` to warm
        #: the step's shared clean functions.
        self.materializations = 0
        self.paranoid_checks = 0

    # -- record store ------------------------------------------------------

    def get(self, key: str) -> SessionFnRecord | None:
        rec = self._records.get(key)
        if rec is not None:
            self._records.move_to_end(key)
        return rec

    def put(self, key: str, rec: SessionFnRecord) -> None:
        self._records[key] = rec
        self._records.move_to_end(key)
        while len(self._records) > self.maxsize:
            self._records.popitem(last=False)
            self.evictions += 1

    def release(self, entry) -> None:
        """Drop the records compiles of ``entry`` created for changed decls.

        ``entry`` is the :class:`~repro.cast.cache.FrontendEntry` of a text
        the caller no longer needs.  Records its compiles made for
        declarations shared with the parent are kept.
        """
        for key in entry.memo.pop("session_keys", ()):
            self._records.pop(key, None)

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "middle_session_hits": self.hits,
            "middle_session_misses": self.misses,
            "middle_session_evictions": self.evictions,
            "middle_session_aborts": self.aborts,
            "middle_session_hit_rate": self.hit_rate,
            "middle_session_size": len(self._records),
            "middle_session_materializations": self.materializations,
            "middle_session_paranoid_checks": self.paranoid_checks,
        }

    def __len__(self) -> int:
        return len(self._records)


class _Pending:
    """Mutable capture state for one live-lowered declaration."""

    __slots__ = (
        "key", "kind", "name", "changed", "irgen_events", "irgen_stats",
        "globals_added", "str_delta", "static_delta", "phase_events",
        "backend_events", "backend_stats", "asm", "snapshot",
    )

    def __init__(
        self, key: str, kind: str, name: str | None, changed: bool
    ) -> None:
        self.key = key
        self.kind = kind
        self.name = name
        #: The mutation changed this declaration (see :meth:`commit`).
        self.changed = changed
        self.irgen_events: tuple = ()
        self.irgen_stats: tuple = ()
        self.globals_added: tuple = ()
        self.str_delta = 0
        self.static_delta = 0
        self.phase_events: dict = {}
        self.backend_events: tuple = ()
        self.backend_stats: tuple = ()
        self.asm = ""
        self.snapshot: IRBuffer | None = None


class _SessionRun:
    """One session-backed middle-end run (interning and/or replaying)."""

    def __init__(
        self,
        compiler,
        session: CompileSession,
        entry,
        opt_level: int,
        flags: tuple,
        cov,
        features: dict,
        journal: list,
        reuse: bool,
    ) -> None:
        self.compiler = compiler
        self.session = session
        self.entry = entry
        self.unit = entry.unit
        self.opt_level = opt_level
        self.flags = flags
        self.cov = cov
        self.features = features
        self.journal = journal
        self.reuse = reuse
        #: decl index -> reused record; fn name -> record for fn records.
        self.reused: dict[int, SessionFnRecord] = {}
        self.clean_fns: dict[str, SessionFnRecord] = {}
        self.pending: list[_Pending] = []
        self.pending_fn: dict[str, _Pending] = {}
        #: fn name -> content key, for candidate digests (both paths).
        self.fn_keys: dict[str, str] = {}
        self.candidate_names: frozenset = frozenset()
        self.candidates_digest = ""

    def checkpoint(self, point: str, extra: dict) -> None:
        self.journal.append(("check", point, dict(extra)))
        merged = dict(self.features)
        merged.update(extra)
        self.compiler.bugs.check(point, merged)

    # -- replay ------------------------------------------------------------

    def _apply_segments(self, segments: tuple, counters: Counter | None) -> None:
        """Bulk-apply compiled segments; checkpoints run live, unjournaled.

        Replayed events must not re-enter the journal: live declarations'
        capture slices are delimited by journal length, and a replay landing
        inside one would corrupt it.  Coverage goes straight into the edge
        set (bypassing ``cov.hit``'s journal append) for the same reason.
        """
        for edges, stats, check in segments:
            if edges:
                self.cov.edges.update(edges)
            if stats:
                if counters is None:
                    raise _MiddleAbort("unexpected stats outside the optimizer")
                for key, n in stats:
                    counters[key] += n
            if check is not None:
                merged = dict(self.features)
                merged.update(dict(check[1]))
                self.compiler.bugs.check(check[0], merged)

    # -- irgen -------------------------------------------------------------

    def lower(self) -> IRModule:
        irgen = new_irgen(self.compiler, self.entry, self.cov)
        irgen._collect_enums(self.unit)
        enum_digest = _digest(tuple(irgen._enum_values.items()))
        full_digests, header_digests = decl_digests(self.entry)
        options = middle_memo_key(
            self.compiler, self.opt_level, tuple(self.flags)
        )
        env_digest = _digest(header_digests)
        # Which decls the dirty-region front end re-parsed; an entry the
        # full front end built has no map, and all of its decls count.
        decl_map = self.entry.memo.get("decl_map")
        globals_state = ""
        for i, decl in enumerate(self.unit.decls):
            kind, name = _decl_kind(decl)
            if kind == "other":
                continue  # no middle-end footprint; covered by env_digest
            key = _digest(
                options, env_digest, enum_digest, globals_state,
                irgen._string_counter, irgen._static_counter,
                kind, full_digests[i],
            )
            if kind == "fn":
                self.fn_keys[name] = key
            rec = self.session.get(key) if self.reuse else None
            if rec is not None:
                self._apply_segments(rec.irgen_segments, None)
                for k, n in rec.irgen_stats:
                    irgen.stats.counters[k] += n
                for gname, gvar in rec.globals_added:
                    irgen.module.globals[gname] = gvar
                if rec.fn is not None:
                    irgen.module.functions[rec.name] = rec.fn
                irgen._string_counter += rec.str_delta
                irgen._static_counter += rec.static_delta
                self.reused[i] = rec
                if kind == "fn":
                    self.clean_fns[name] = rec
                self.session.hits += 1
                added = rec.globals_added
            else:
                start = len(self.journal)
                stats0 = Counter(irgen.stats.counters)
                g0 = len(irgen.module.globals)
                str0, static0 = irgen._string_counter, irgen._static_counter
                if kind == "var":
                    irgen._lower_global(decl)
                else:
                    irgen._lower_function(decl)
                added = tuple(list(irgen.module.globals.items())[g0:])
                pend = _Pending(
                    key, kind, name, decl_map is None or decl_map[i] is None
                )
                pend.irgen_events = tuple(self.journal[start:])
                pend.irgen_stats = _stats_delta(stats0, irgen.stats.counters)
                pend.globals_added = added
                pend.str_delta = irgen._string_counter - str0
                pend.static_delta = irgen._static_counter - static0
                self.pending.append(pend)
                if kind == "fn":
                    self.pending_fn[name] = pend
                self.session.misses += 1
            for gname, gvar in added:
                globals_state = _digest(globals_state, _global_sig(gname, gvar))
        self.irgen = irgen
        return irgen.module

    # -- optimizer ---------------------------------------------------------

    def optimize(self, module: IRModule, ctx: OptContext) -> None:
        if ctx.opt_level <= 0:
            return

        def drive(phase: str, fn, runner) -> None:
            rec = self.clean_fns.get(fn.name)
            if rec is not None:
                segments = rec.phase_segments.get(phase)
                if segments is None:  # pragma: no cover - defensive
                    raise _MiddleAbort(f"missing session phase {phase}")
                self._apply_segments(segments, ctx.stats.counters)
                return
            start = len(self.journal)
            runner()
            pend = self.pending_fn.get(fn.name)
            if pend is not None:
                pend.phase_events[phase] = tuple(self.journal[start:])

        inline_fn, strlen_fn, vectorize_fn = stage_passes(ctx)
        for fn in list(module.functions.values()):
            drive("local", fn, lambda f=fn: local_opt(f, ctx))
        if ctx.opt_level >= 2:
            candidates = self._candidates(module, ctx)
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

    def _cand_digest(self, names: frozenset) -> str:
        return _digest(tuple(sorted((n, self.fn_keys[n]) for n in names)))

    def _candidates(self, module: IRModule, ctx: OptContext) -> dict:
        """The inline candidate map, consistency-checked against records.

        Inlined bodies cross function boundaries, so every reused record must
        have been made against the *same* candidates — same name set, same
        per-candidate content keys (the post-local-opt snapshot is a pure
        function of the candidate's irgen key).  Any disagreement aborts to
        a fully live run, which re-records everything coherently.
        """
        if not self.clean_fns:
            candidates = candidate_map(module, ctx)
            self.candidate_names = frozenset(candidates)
            self.candidates_digest = self._cand_digest(self.candidate_names)
            for name in candidates:
                pend = self.pending_fn.get(name)
                if pend is not None:
                    # Callers inline the body by value: clone it at this
                    # (post-local-opt) point, before later phases mutate it.
                    pend.snapshot = candidates[name].clone()
            return candidates
        names = None
        for rec in self.clean_fns.values():
            if names is None:
                names = rec.candidate_names
            elif rec.candidate_names != names:
                raise _MiddleAbort("session candidate sets disagree")
        dirty = [n for n in module.functions if n not in self.clean_fns]
        for name in dirty:
            if name in names or is_inlinable(module.functions[name], ctx):
                raise _MiddleAbort("dirty function affects inline candidacy")
        for name in names:
            rec = self.clean_fns.get(name)
            if rec is None or rec.snapshot is None:
                raise _MiddleAbort("candidate not served from the session")
        digest = self._cand_digest(names)
        for rec in self.clean_fns.values():
            if rec.candidates_digest != digest:
                raise _MiddleAbort("candidate bodies changed")
        self.candidate_names = names
        self.candidates_digest = digest
        return {name: self.clean_fns[name].snapshot for name in names}

    # -- backend -----------------------------------------------------------

    def backend(self, module: IRModule, ctx: OptContext) -> BackendResult:
        def lower_fn(fn, fn_ctx) -> BackendResult:
            rec = self.clean_fns.get(fn.name)
            if rec is not None:
                self._apply_segments(rec.backend_segments, None)
                return BackendResult(rec.asm, dict(rec.backend_stats))
            start = len(self.journal)
            res = _lower_function(fn, fn_ctx)
            pend = self.pending_fn.get(fn.name)
            if pend is not None:
                pend.backend_events = tuple(self.journal[start:])
                pend.backend_stats = tuple(res.stats.items())
                pend.asm = res.asm
            return res

        return lower_to_asm(module, ctx, fn_lowerer=lower_fn)

    # -- interning ---------------------------------------------------------

    def commit(self, module: IRModule) -> None:
        """Intern records for every live-lowered declaration.

        Only called after a complete, successful pipeline run: partial
        records (crash, lowering failure, abort) must never seed replays.
        The keys of records created for changed declarations are noted on
        the entry, for :meth:`CompileSession.release`; they live and die
        with the entry, so nothing accumulates when no one releases.
        """
        records = self.session._records
        created = [
            pend.key
            for pend in self.pending
            if pend.changed and pend.key not in records
        ]
        if created:
            self.entry.memo.setdefault("session_keys", []).extend(created)
        for pend in self.pending:
            self.session.put(
                pend.key,
                SessionFnRecord(
                    kind=pend.kind,
                    name=pend.name,
                    irgen_segments=_segments(pend.irgen_events),
                    irgen_stats=pend.irgen_stats,
                    globals_added=pend.globals_added,
                    fn=(
                        module.functions.get(pend.name)
                        if pend.kind == "fn"
                        else None
                    ),
                    str_delta=pend.str_delta,
                    static_delta=pend.static_delta,
                    phase_segments={
                        phase: _segments(events)
                        for phase, events in pend.phase_events.items()
                    },
                    backend_segments=_segments(pend.backend_events),
                    backend_stats=pend.backend_stats,
                    asm=pend.asm,
                    candidate_names=self.candidate_names,
                    candidates_digest=self.candidates_digest,
                    snapshot=pend.snapshot,
                ),
            )


class _PlainRun:
    """One plain middle-end run: the whole-module entry points, no records."""

    journal = None

    def __init__(
        self, compiler, entry, opt_level: int, flags: tuple, cov,
        features: dict,
    ) -> None:
        self.compiler = compiler
        self.unit = entry.unit
        self.opt_level = opt_level
        self.flags = flags
        self.cov = cov
        self.features = features
        self.irgen = new_irgen(compiler, entry, cov)

    def checkpoint(self, point: str, extra: dict) -> None:
        merged = dict(self.features)
        merged.update(extra)
        self.compiler.bugs.check(point, merged)

    def lower(self) -> IRModule:
        return self.irgen.lower(self.unit)

    def optimize(self, module: IRModule, ctx: OptContext) -> None:
        run_pipeline(module, ctx)

    def backend(self, module: IRModule, ctx: OptContext) -> BackendResult:
        return lower_to_asm(module, ctx)


def _run_stages(run, result, stages: list) -> bool:
    """IR generation, the optimizer and the back end through ``run``.

    ``run`` (a :class:`_PlainRun` or a :class:`_SessionRun`) supplies the
    three stages; the spans, the feature merges and the ``ir-gen`` /
    ``optimization`` / ``back-end`` bug checks between them are shared.
    Returns False when lowering failed (a diagnostic, not a crash).
    """
    compiler, features = run.compiler, run.features
    try:
        with span(compiler.tracer, "irgen"):
            module = run.lower()
    except (LoweringError, RecursionError) as exc:
        result.diagnostics.append(f"sorry, unimplemented: {exc}")
        features["lowering_failed"] = 1
        compiler.bugs.check("ir-gen", features)
        return False
    features.update(run.irgen.stats.counters)
    compiler.bugs.check("ir-gen", features)

    with span(compiler.tracer, "opt"):
        ctx = new_opt_context(
            compiler, run.cov, run.opt_level, run.flags, run.checkpoint
        )
        ctx.stats.journal = run.journal
        run.optimize(module, ctx)
    features.update(ctx.stats.counters)
    compiler.bugs.check("optimization", features)

    with span(compiler.tracer, "backend"):
        be = run.backend(module, ctx)
    stages.append("backend")
    features.update(be.stats)
    compiler.bugs.check("back-end", features)

    result.ok = True
    result.asm = be.asm
    result.module = module
    return True


def lower_and_optimize(
    compiler, entry, opt_level: int, flags: tuple, cov, features: dict,
    result, *, stages: list,
) -> None:
    """The middle end + back end of a compile without a cache."""
    _run_stages(
        _PlainRun(compiler, entry, opt_level, flags, cov, features),
        result, stages,
    )


def lower_and_optimize_session(
    compiler, entry, opt_level: int, flags: tuple, cov, features: dict,
    result, *, stages: list,
) -> None:
    """The middle end + back end of a cached compile, through the session.

    Runs against ``compiler.compile_session``.  A reuse inconsistency aborts
    to a fully live run that re-records every declaration.  The compiler
    counts each compile with at least one declaration served from the
    session that ran to the end (``middle_incremental_hits``), and each
    abort (``middle_incremental_fallbacks``).
    """
    session = compiler.compile_session
    # Live declarations capture their events from this journal.
    journal = cov.journal = []
    try:
        run = _SessionRun(
            compiler, session, entry, opt_level, flags, cov, features,
            journal, reuse=True,
        )
        try:
            _run_session(run, result, stages)
        except _MiddleAbort:
            compiler.middle_incremental_fallbacks += 1
            session.aborts += 1
            # Stale replayed function objects in the half-built module are
            # discarded with the run; the live run re-records everything.
            journal.clear()
            run = _SessionRun(
                compiler, session, entry, opt_level, flags, cov, features,
                journal, reuse=False,
            )
            _run_session(run, result, stages)
        else:
            if run.reused:
                compiler.middle_incremental_hits += 1
    finally:
        cov.journal = None


def _run_session(run, result, stages: list) -> None:
    if _run_stages(run, result, stages):
        with span(run.compiler.tracer, "session"):
            run.commit(result.module)


def assert_results_equal(inc, full) -> None:
    """Raise :class:`IncrementalDivergence` unless two CompileResults match.

    ``inc`` is the result produced with the cache and the session, ``full``
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
