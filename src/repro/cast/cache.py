"""Content-addressed front-end result cache.

The fuzzing hot path front-ends the *same* program text over and over: every
mutation attempt in a μCFuzz step re-lexes, re-parses, and re-runs Sema on
the parent program, and ``Compiler.compile`` repeats the same work for any
text it has already seen (the parent on no-op rounds, repeated mutants, pool
members).  :class:`FrontendCache` keys the complete front-end result — token
stream, :class:`~repro.cast.ast_nodes.TranslationUnit`, and analyzed
:class:`~repro.cast.sema.Sema` — on a content hash of the source text, so
each distinct text pays for lex/parse/sema exactly once.

An entry keeps what later compiles and mutants read back, in the form the
collector walks least: the token stream as
:class:`~repro.cast.lexer.TokenColumns` (the :class:`~repro.cast.lexer.Token`
objects the parser read die with the parse), and a unit of slotted nodes
that hold their positions as int offsets and share the module's builtin
types (see :mod:`repro.cast.ast_nodes` and :mod:`repro.cast.types`), so no
position object and no per-node ``__dict__`` outlives the front end.

Safety contract: cached units are *never mutated in place*.  Mutators rewrite
via the :class:`~repro.cast.rewriter.Rewriter` on source text, and the
compiler only reads the AST.  As a guard, every cache hit re-hashes the
stored source and raises :class:`CacheInvariantError` if it no longer
matches the key it was stored under.

An entry's ``FrontendEntry.memo`` holds what higher layers attach to one
text without this module importing them, and dies with the entry: the μAST
mutation context every attempt on a parent shares (``muast_ctx``), the
dirty-region front end's ``decl_map`` (which declarations a mutation
re-parsed) and the compile session's ``session_keys`` (the records to drop
with the text).  What a compile derives from the front end is not kept
here: the part that comes from one declaration's text lives on its node
(its digest pair and its coverage/feature summary; see
:data:`repro.cast.incremental._MEMO_ATTRS`), which the dirty-region front
end shares or clones into every mutant that left the declaration alone,
and each compile recomputes the text-level rest.  Middle-end records are
keyed by content in the compiler's
:class:`~repro.compiler.session.CompileSession`.

``FrontendCache(paranoid=True)`` cross-checks the cache's reuse against
from-scratch work: every dirty-region front end against a full one here,
and every compile through the cache against a from-scratch reference
compile (:meth:`repro.compiler.driver.Compiler.compile` reads the switch).

The cache holds what its fuzzer can reuse, not every text it has seen: at
the end of each step the coverage-guided fuzzers :meth:`~FrontendCache.release`
every mutant that did not enter their pool (see
:meth:`repro.fuzzing.base.CoverageGuidedFuzzer.release_unpooled`), so in a
campaign the cache stays about the size of the pool.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.spans import Tracer, span

from repro.cast import ast_nodes as ast
from repro.cast.incremental import assert_entries_equal, incremental_front_end
from repro.cast.lexer import Lexer, LexError, TokenColumns
from repro.cast.parser import ParseError, Parser
from repro.cast.sema import Diagnostic, Sema
from repro.cast.source import SourceFile

#: Default bound on cached translation units.  The fuzzers release each
#: mutant that does not enter their pool at the end of its step, so what
#: stays cached is the pool (246 programs after the 600-step benchmark run);
#: the bound only caps a caller that never releases.
DEFAULT_CACHE_SIZE = 2048


class CacheInvariantError(AssertionError):
    """A cached translation unit's source no longer matches its hash key."""


def source_digest(text: str) -> str:
    """The content hash used as the cache key."""
    return hashlib.sha1(text.encode("utf-8", "replace")).hexdigest()


@dataclass
class FrontendEntry:
    """Everything the front end computed for one source text."""

    source_hash: str
    source: SourceFile
    #: Tokens up to the first lex error (the whole stream when none), as
    #: columns: the compile reads kinds and texts, the dirty-region front
    #: end offsets too, and no :class:`~repro.cast.lexer.Token` is kept.
    token_prefix: TokenColumns
    lex_error: LexError | None
    unit: ast.TranslationUnit | None
    parse_error: str | None
    parse_recursion: bool
    sema: Sema | None
    sema_diags: list[Diagnostic]
    #: Per-text artifacts owned by higher layers (the μAST context, the
    #: dirty-region ``decl_map``, the compile session's ``session_keys``).
    memo: dict[str, Any] = field(default_factory=dict)

    @property
    def error_diagnostics(self) -> list[Diagnostic]:
        return [d for d in self.sema_diags if d.severity == "error"]

    @property
    def compilable(self) -> bool:
        """Parses and passes semantic analysis without errors."""
        return self.unit is not None and not self.error_diagnostics


def analyze_front_end(
    text: str,
    source_hash: str | None = None,
    tracer: "Tracer | None" = None,
) -> FrontendEntry:
    """Run the full front end (lex, parse, sema) on ``text``.

    Mirrors the uncached pipeline exactly: best-effort lexing keeps the token
    prefix for coverage attribution, a lex failure makes the parser re-lex so
    its diagnostic matches the from-scratch path, and semantic analysis runs
    only on parsed units.  ``tracer`` (usually the compiler's) records one
    span per stage — ``lex``/``parse``/``sema`` — accumulating wall-clock
    seconds into its timings mapping; ``tracer=None`` skips even the clock
    reads.
    """
    with span(tracer, "lex"):
        source = SourceFile(text)
        prefix, lex_error = Lexer(source).tokens_best_effort()
        columns = TokenColumns.of(prefix)
    tokens = None if lex_error is not None else prefix
    unit: ast.TranslationUnit | None = None
    parse_error: str | None = None
    parse_recursion = False
    with span(tracer, "parse"):
        try:
            unit = Parser(source, tokens=tokens).parse()
        except (ParseError, RecursionError) as exc:
            parse_error = str(exc)
            parse_recursion = isinstance(exc, RecursionError)
    sema: Sema | None = None
    sema_diags: list[Diagnostic] = []
    if unit is not None:
        with span(tracer, "sema"):
            sema = Sema()
            sema_diags = sema.analyze(unit)
    return FrontendEntry(
        source_hash=source_hash if source_hash is not None else source_digest(text),
        source=source,
        token_prefix=columns,
        lex_error=lex_error,
        unit=unit,
        parse_error=parse_error,
        parse_recursion=parse_recursion,
        sema=sema,
        sema_diags=sema_diags,
    )


def decl_digests(entry: FrontendEntry) -> tuple:
    """Per-declaration content digests for the compile session's keys.

    Returns ``(full_digests, header_digests)``, one entry per top-level decl:
    ``full_digests[i]`` hashes the decl's complete source text;
    ``header_digests[i]`` hashes only the text *before* the body for function
    definitions (the part other decls can observe — signature, name, types)
    and the full text otherwise.  Each decl node keeps its pair as
    ``_digest_memo``: a node the dirty-region front end shares with or
    clones into a mutant has the same text up to an offset shift, so it
    keeps its pair too.
    """
    text = entry.source.text
    full: list[str] = []
    header: list[str] = []
    for decl in entry.unit.decls:
        pair = decl._digest_memo
        if pair is None:
            lo, hi = decl.begin_offset, decl.end_offset
            digest = head = source_digest(text[lo:hi])
            if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
                head = source_digest(text[lo : decl.body.begin_offset])
            pair = decl._digest_memo = (digest, head)
        full.append(pair[0])
        header.append(pair[1])
    return tuple(full), tuple(header)


class FrontendCache:
    """A bounded, content-hash-keyed LRU over :class:`FrontendEntry`."""

    def __init__(
        self, maxsize: int = DEFAULT_CACHE_SIZE, paranoid: bool = False
    ) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        #: Cross-check every dirty-region front end against a full one, and
        #: every compile through this cache against a from-scratch reference
        #: compile (slow; CI and tests).
        self.paranoid = paranoid
        self._entries: OrderedDict[str, FrontendEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Misses served by the dirty-region incremental front end rather
        #: than a full re-front-ending, and misses where the incremental
        #: path declared itself ineligible (fell back to the full path).
        self.incremental_hits = 0
        self.incremental_fallbacks = 0
        #: Paranoid incremental-vs-full comparisons performed (all of which
        #: matched; a mismatch raises :class:`IncrementalDivergence`).
        self.paranoid_checks = 0

    def _lookup(self, key: str) -> FrontendEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if source_digest(entry.source.text) != entry.source_hash:
            raise CacheInvariantError(
                f"cached unit for {entry.source_hash[:12]} was mutated in place"
            )
        self._entries.move_to_end(key)
        return entry

    def _store(self, key: str, entry: FrontendEntry) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def front_end(
        self, text: str, tracer: "Tracer | None" = None
    ) -> FrontendEntry:
        """The cached front-end result for ``text``, computing on miss."""
        key = source_digest(text)
        entry = self._lookup(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        entry = analyze_front_end(text, source_hash=key, tracer=tracer)
        self._store(key, entry)
        return entry

    def peek(self, text: str) -> FrontendEntry | None:
        """The cached entry for ``text`` without hit/miss accounting."""
        return self._entries.get(source_digest(text))

    def release(self, text: str) -> FrontendEntry | None:
        """Drop ``text``'s entry if it is cached; returns the dropped entry.

        The caller no longer needs the text (a mutant that did not enter its
        fuzzer's pool); a later request front-ends it again.
        """
        return self._entries.pop(source_digest(text), None)

    def texts(self) -> list[str]:
        """The cached source texts, least recently used first."""
        return [entry.source.text for entry in self._entries.values()]

    def front_end_from(
        self,
        text: str,
        edits_from: "tuple[str, tuple] | None" = None,
        *,
        tracer: "Tracer | None" = None,
    ) -> FrontendEntry:
        """Front-end ``text``, incrementally when its parent is cached.

        ``edits_from=(parent_text, edit_script)`` names the program ``text``
        was rewritten from.  When that parent is still cached this is
        :meth:`front_end_incremental` from the parent's entry, otherwise
        :meth:`front_end`.  Every caller that holds an edit script goes
        through here, so the choice is made in one place.
        """
        if edits_from is not None:
            parent_text, edits = edits_from
            parent = self.peek(parent_text) if edits else None
            if parent is not None:
                return self.front_end_incremental(
                    text, parent, edits, tracer=tracer
                )
        return self.front_end(text, tracer=tracer)

    def front_end_incremental(
        self,
        text: str,
        parent: FrontendEntry | None,
        edits,
        *,
        tracer: "Tracer | None" = None,
    ) -> FrontendEntry:
        """Front-end a mutant, reusing ``parent``'s entry where possible.

        ``edits`` is the mutant's :meth:`Rewriter.edit_script` in parent
        coordinates.  An entry the dirty-region front end built keeps its
        ``decl_map`` (see :func:`~repro.cast.incremental.incremental_front_end`)
        on its memo: a later compile of the text may be a plain cache hit,
        and the compile session still needs to know which declarations the
        mutation changed.  A paranoid cache cross-checks every incremental
        result against a full re-front-ending and raises
        :class:`IncrementalDivergence` on any mismatch.
        """
        key = source_digest(text)
        entry = self._lookup(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        built = None
        if parent is not None and edits:
            with span(tracer, "frontend_incremental"):
                try:
                    built = incremental_front_end(text, parent, edits)
                except RecursionError:
                    built = None
        if built is None:
            self.incremental_fallbacks += 1
            entry = analyze_front_end(text, source_hash=key, tracer=tracer)
            self._store(key, entry)
            return entry
        fields, decl_map = built
        entry = FrontendEntry(source_hash=key, **fields)
        if decl_map is not None:
            entry.memo["decl_map"] = decl_map
        self.incremental_hits += 1
        if self.paranoid:
            self.paranoid_checks += 1
            assert_entries_equal(entry, analyze_front_end(text, source_hash=key))
        self._store(key, entry)
        return entry

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_hit_rate": self.hit_rate,
            "cache_eviction_rate": (
                self.evictions / self.misses if self.misses else 0.0
            ),
            "cache_size": len(self._entries),
            "cache_maxsize": self.maxsize,
            "cache_incremental_hits": self.incremental_hits,
            "cache_incremental_fallbacks": self.incremental_fallbacks,
            "cache_paranoid_checks": self.paranoid_checks,
        }

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, text: str) -> bool:
        return source_digest(text) in self._entries
