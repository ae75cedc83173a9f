"""The middle end: one stage driver, the plain pipeline and the session.

Every compile that reaches the middle end runs the same three stage loops
through :func:`_run_stages`: :meth:`IRGen.lower
<repro.compiler.irgen.IRGen.lower>` decides which declarations reach the
middle end and in what order, :func:`repro.compiler.passes.run_pipeline`
holds the pass order with its -O and flag gates, and
:func:`repro.compiler.backend.lower_to_asm` emits function by function.
Each loop takes per-step hooks, and a run supplies them.

A compile without a :class:`~repro.cast.cache.FrontendCache` (the program
generators, AFL++) and every compile of the object-IR reference pipeline
(``Compiler(reference=True)``, which ignores a cache, so paranoid mode's
reference is built from scratch) runs the plain pipeline,
:func:`lower_and_optimize`, whose run supplies each stage's own step.  It
records nothing.

A default-pipeline compile that carries a cache runs
:func:`lower_and_optimize_session` against its compiler's own
:class:`CompileSession`, the middle end's one reuse mechanism, which
therefore holds buffer-native artifacts only.  Every record is keyed by
the compile's options, so the session serves a compile only when its
options key is the one the session's previous compile had (or it is the
first): a compile whose options just changed, as the macro fuzzer's
sampled -O level and flags often do, runs the plain pipeline and records
nothing, and the session takes its key.  The session's run supplies
replay-or-record steps: one per declaration for IR generation, one per
function and phase for the optimizer, one per function for the backend,
and its consistency-checked inline-candidate map.  The session interns one
:class:`SessionFnRecord` per declaration (IR generation replay segments,
per-phase optimizer segments, the final post-pipeline function, backend
asm/stats) under a **content key** that captures everything the
declaration's middle-end run can observe.  Any compile whose function
hashes to a known key skips irgen, the optimizer, and the backend for that
function entirely, whichever program the record was made in: a mutant's
unchanged siblings, a pool member's functions on the next step, a mutant of
a mutant.  A second compile of the same text and options is served the same
way, declaration by declaration.

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
  earlier decls wrote, a re-emitted one included (``_intern_string`` dedups
  string literals by content against *all* module globals, so a clean
  function's interned-name references depend on what preceded it);
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

Replay is segment-compiled: each journal slice (the ``("cov", ...)``,
``("stat", ...)`` and ``("check", ...)`` events a live step appends to its
compile's journal) is split, as it is captured, at bug-checkpoint events
into ``(coverage edge set, stats deltas, checkpoint)`` segments.  Coverage
applies as one bulk set-union and stats as direct counter adds — O(unique
sites), not O(events) — while checkpoints run live through the bug registry
with the evolving feature dict, preserving crash identity and the exact
abort point of a seeded crash.

A paranoid cache (``FrontendCache(paranoid=True)``) has
:meth:`Compiler.compile` cross-check every compile through it against a
from-scratch plain compile through the object-IR reference pipeline via
:func:`assert_results_equal`.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter

from repro.cast.cache import decl_digests, source_digest
from repro.cast.incremental import IncrementalDivergence
from repro.compiler.backend import BackendResult, _lower_function, lower_to_asm
from repro.compiler.flatir import FlatFunction, IRBuffer
from repro.compiler.ir import IRModule
from repro.compiler.irgen import FlatIRGen, IRGen, LoweringError, lower_decl
from repro.compiler.passes import (
    OptContext,
    candidate_map,
    is_inlinable,
    run_phase,
    run_pipeline,
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


def _segments(events) -> tuple:
    """Compile a journal slice into bulk-applicable replay segments.

    Each segment is ``(edges, stats, check)``: the coverage edges and stats
    deltas preceding the next checkpoint (order-free — coverage is a set,
    stats are sums), then the checkpoint itself, which must run live and in
    order because it can raise a seeded crash.  A crash truncates the event
    stream exactly where the original run stopped.

    Every slice a live step captures is compiled, whether or not it is ever
    replayed, so the common slice — coverage only, as IR generation's
    always is — takes a loop-free path.
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


@dataclass(slots=True)
class SessionFnRecord:
    """Everything the middle end did for one declaration, replayable.

    A live run fills a record in as its declaration passes each stage (IR
    generation, each optimizer phase, the backend), compiling each journal
    slice into segments as it is captured; the session interns it only at
    commit, after the whole pipeline ran.
    """

    irgen_segments: tuple
    irgen_stats: tuple  # ((key, n), ...) applied to IRGenStats
    #: ((name, GlobalVar), ...) the declaration wrote, in module order: the
    #: globals it appended and any earlier one it re-emitted (``int x;``
    #: after ``int x = 2;`` replaces ``x``).
    globals_written: tuple
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
        #: The options key (:func:`middle_memo_key`) of the last compile
        #: offered to the session, None before the first.
        self.options_key: str | None = None

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


class _SessionRun:
    """One session-backed middle-end run: each stage's replay-or-record step.

    A declaration whose key the session holds replays its record at every
    stage; any other runs live and fills in a new record, which
    :meth:`commit` interns once the whole pipeline has run.
    """

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
        self.irgen = new_irgen(compiler, entry, cov)
        #: Options, environment and enum digests (set by the first step).
        self.key_base: tuple | None = None
        self.full_digests: tuple = ()
        self.globals_state = ""
        #: fn name -> replayed record / record being filled in.
        self.served: dict[str, SessionFnRecord] = {}
        self.live_fns: dict[str, SessionFnRecord] = {}
        #: (key, changed, record) per live-lowered declaration, in order.
        self.live: list = []
        #: fn name -> content key, for candidate digests (both paths).
        self.fn_keys: dict[str, str] = {}
        self.candidate_names: frozenset = frozenset()
        self.candidates_digest = ""

    def checkpoint(self, point: str, extra: dict) -> None:
        self.journal.append(("check", point, dict(extra)))
        merged = dict(self.features)
        merged.update(extra)
        self.compiler.bugs.check(point, merged)

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

    # -- the stage steps ---------------------------------------------------

    def decl_step(self, index: int, decl, kind: str, lower) -> None:
        """IR generation's step: replay ``decl``'s record, or lower it live.

        ``IRGen.lower`` calls it for globals and function definitions only.
        The declarations it skips (enums, records, typedefs, prototypes)
        need no record: their text reaches every key through the
        environment digest.
        """
        irgen = self.irgen
        if self.key_base is None:
            # IRGen.lower collected the unit's enum table before this step.
            self.full_digests, header_digests = decl_digests(self.entry)
            self.key_base = (
                # This compile's: lower_and_optimize_session set it.
                self.session.options_key,
                _digest(header_digests),
                _digest(tuple(irgen._enum_values.items())),
            )
        key = _digest(
            *self.key_base, self.globals_state,
            irgen._string_counter, irgen._static_counter,
            kind, self.full_digests[index],
        )
        if kind == "fn":
            self.fn_keys[decl.name] = key
        rec = self.session.get(key) if self.reuse else None
        if rec is not None:
            self._apply_segments(rec.irgen_segments, None)
            for k, n in rec.irgen_stats:
                irgen.stats.counters[k] += n
            for gname, gvar in rec.globals_written:
                irgen.module.globals[gname] = gvar
            if kind == "fn":
                irgen.module.functions[decl.name] = rec.fn
                self.served[decl.name] = rec
            irgen._string_counter += rec.str_delta
            irgen._static_counter += rec.static_delta
            self.session.hits += 1
        else:
            start = len(self.journal)
            stats0 = Counter(irgen.stats.counters)
            globals0 = dict(irgen.module.globals)
            str0, static0 = irgen._string_counter, irgen._static_counter
            lower(decl)
            rec = SessionFnRecord(
                irgen_segments=_segments(self.journal[start:]),
                irgen_stats=_stats_delta(stats0, irgen.stats.counters),
                globals_written=tuple(
                    (gname, gvar)
                    for gname, gvar in irgen.module.globals.items()
                    if globals0.get(gname) is not gvar
                ),
                fn=irgen.module.functions[decl.name] if kind == "fn" else None,
                str_delta=irgen._string_counter - str0,
                static_delta=irgen._static_counter - static0,
            )
            # Which decls the dirty-region front end re-parsed; an entry
            # the full front end built has no map, and all of its decls
            # count.
            decl_map = self.entry.memo.get("decl_map")
            changed = decl_map is None or decl_map[index] is None
            self.live.append((key, changed, rec))
            if kind == "fn":
                self.live_fns[decl.name] = rec
            self.session.misses += 1
        for gname, gvar in rec.globals_written:
            self.globals_state = _digest(
                self.globals_state, _global_sig(gname, gvar)
            )

    def phase_step(self, phase: str, fn, pass_, *args) -> None:
        """The optimizer's step: replay a served function's phase, or run it."""
        name = fn.name
        rec = self.served.get(name)
        if rec is not None:
            segments = rec.phase_segments.get(phase)
            if segments is None:
                # A record made for a definition that a later one of the
                # same name replaced ran no phase.
                raise _MiddleAbort(f"no {phase} segments for {name}")
            # Every pass takes the OptContext last.
            self._apply_segments(segments, args[-1].stats.counters)
            return
        start = len(self.journal)
        pass_(fn, *args)
        self.live_fns[name].phase_segments[phase] = _segments(
            self.journal[start:]
        )

    def fn_lowerer(self, fn, ctx: OptContext) -> BackendResult:
        """The back end's step: replay a served function's asm, or lower it."""
        rec = self.served.get(fn.name)
        if rec is not None:
            self._apply_segments(rec.backend_segments, None)
            return BackendResult(rec.asm, dict(rec.backend_stats))
        start = len(self.journal)
        res = _lower_function(fn, ctx)
        rec = self.live_fns[fn.name]
        rec.backend_segments = _segments(self.journal[start:])
        rec.backend_stats = tuple(res.stats.items())
        rec.asm = res.asm
        return res

    def _cand_digest(self, names: frozenset) -> str:
        return _digest(tuple(sorted((n, self.fn_keys[n]) for n in names)))

    def candidates(self, module: IRModule, ctx: OptContext) -> dict:
        """The inline candidate map, consistency-checked against records.

        Inlined bodies cross function boundaries, so every reused record must
        have been made against the *same* candidates — same name set, same
        per-candidate content keys (the post-local-opt snapshot is a pure
        function of the candidate's irgen key).  Any disagreement aborts to
        a fully live run, which re-records everything coherently.
        """
        if not self.served:
            candidates = candidate_map(module, ctx)
            self.candidate_names = frozenset(candidates)
            self.candidates_digest = self._cand_digest(self.candidate_names)
            for name in candidates:
                rec = self.live_fns.get(name)
                if rec is not None:
                    # Callers inline the body by value: clone it at this
                    # (post-local-opt) point, before later phases mutate it.
                    rec.snapshot = candidates[name].clone()
            return candidates
        names = None
        for rec in self.served.values():
            if names is None:
                names = rec.candidate_names
            elif rec.candidate_names != names:
                raise _MiddleAbort("session candidate sets disagree")
        dirty = [n for n in module.functions if n not in self.served]
        for name in dirty:
            if name in names or is_inlinable(module.functions[name], ctx):
                raise _MiddleAbort("dirty function affects inline candidacy")
        for name in names:
            rec = self.served.get(name)
            if rec is None or rec.snapshot is None:
                raise _MiddleAbort("candidate not served from the session")
        digest = self._cand_digest(names)
        for rec in self.served.values():
            if rec.candidates_digest != digest:
                raise _MiddleAbort("candidate bodies changed")
        self.candidate_names = names
        self.candidates_digest = digest
        return {name: self.served[name].snapshot for name in names}

    # -- interning ---------------------------------------------------------

    def commit(self) -> None:
        """Intern the records of every live-lowered declaration.

        Only called after a complete, successful pipeline run: partial
        records (crash, lowering failure, abort) must never seed replays.
        The keys of records created for changed declarations are noted on
        the entry, for :meth:`CompileSession.release`; they live and die
        with the entry, so nothing accumulates when no one releases.
        """
        records = self.session._records
        created = [
            key for key, changed, _ in self.live
            if changed and key not in records
        ]
        if created:
            self.entry.memo.setdefault("session_keys", []).extend(created)
        for key, _, rec in self.live:
            rec.candidate_names = self.candidate_names
            rec.candidates_digest = self.candidates_digest
            self.session.put(key, rec)


class _PlainRun:
    """One plain middle-end run: each stage's own steps, nothing recorded."""

    journal = None
    decl_step = staticmethod(lower_decl)
    phase_step = staticmethod(run_phase)
    candidates = staticmethod(candidate_map)
    fn_lowerer = staticmethod(_lower_function)

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


def _run_stages(run, result, stages: list) -> bool:
    """IR generation, the optimizer and the back end, with ``run``'s steps.

    The stage loops (``IRGen.lower``, ``run_pipeline``, ``lower_to_asm``)
    take ``run``'s per-step hooks: a :class:`_PlainRun` supplies each
    stage's own, a :class:`_SessionRun` its replay-or-record steps.  The
    spans, the feature merges and the ``ir-gen`` / ``optimization`` /
    ``back-end`` bug checks between the stages are shared.  Returns False
    when lowering failed (a diagnostic, not a crash).
    """
    compiler, features, irgen = run.compiler, run.features, run.irgen
    try:
        with span(compiler.tracer, "irgen"):
            module = irgen.lower(run.unit, run.decl_step)
    except (LoweringError, RecursionError) as exc:
        result.diagnostics.append(f"sorry, unimplemented: {exc}")
        features["lowering_failed"] = 1
        compiler.bugs.check("ir-gen", features)
        return False
    features.update(irgen.stats.counters)
    compiler.bugs.check("ir-gen", features)

    with span(compiler.tracer, "opt"):
        ctx = new_opt_context(
            compiler, run.cov, run.opt_level, run.flags, run.checkpoint
        )
        ctx.stats.journal = run.journal
        run_pipeline(module, ctx, run.phase_step, run.candidates)
    features.update(ctx.stats.counters)
    compiler.bugs.check("optimization", features)

    with span(compiler.tracer, "backend"):
        be = lower_to_asm(module, ctx, run.fn_lowerer)
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

    Runs against ``compiler.compile_session`` when the compile's options
    key is the one the session's previous compile had (or it is the
    session's first): every record is keyed by its options, so only a
    caller that keeps its options can replay what it records.  A compile
    whose options just changed runs the plain pipeline and records nothing;
    the session takes its key, so the next compile with the same options
    records again.  μCFuzz and GrayC compile everything with one set of
    options; the macro fuzzer samples them per step.

    A reuse inconsistency aborts to a fully live run that re-records every
    declaration.  The compiler counts each compile with at least one
    declaration served from the session that ran to the end
    (``middle_incremental_hits``), and each abort
    (``middle_incremental_fallbacks``).
    """
    session = compiler.compile_session
    options_key = middle_memo_key(compiler, opt_level, tuple(flags))
    same_options = session.options_key in (None, options_key)
    session.options_key = options_key
    if not same_options:
        lower_and_optimize(
            compiler, entry, opt_level, flags, cov, features, result,
            stages=stages,
        )
        return
    hits = session.hits
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
            if session.hits > hits:
                compiler.middle_incremental_hits += 1
    finally:
        cov.journal = None


def _run_session(run, result, stages: list) -> None:
    if _run_stages(run, result, stages):
        with span(run.compiler.tracer, "session"):
            run.commit()


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
