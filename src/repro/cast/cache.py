"""Content-addressed front-end result cache.

The fuzzing hot path front-ends the *same* program text over and over: every
mutation attempt in a μCFuzz step re-lexes, re-parses, and re-runs Sema on
the parent program, and ``Compiler.compile`` repeats the same work for any
text it has already seen (the parent on no-op rounds, repeated mutants, pool
members).  :class:`FrontendCache` keys the complete front-end result — token
stream, :class:`~repro.cast.ast_nodes.TranslationUnit`, and analyzed
:class:`~repro.cast.sema.Sema` — on a content hash of the source text, so
each distinct text pays for lex/parse/sema exactly once.

Safety contract: cached units are *never mutated in place*.  Mutators rewrite
via the :class:`~repro.cast.rewriter.Rewriter` on source text, and the
compiler only reads the AST.  As a guard, every cache hit re-hashes the
stored source and raises :class:`CacheInvariantError` if it no longer
matches the key it was stored under.

Consumers attach derived, per-text front-end artifacts (the driver's
coverage/feature summary and per-decl summaries, declaration digests, μAST
mutation contexts) to ``FrontendEntry.memo`` so higher layers can cache
without this module importing them.  Middle-end records do not live here:
they are keyed by content in the compiler's
:class:`~repro.compiler.session.CompileSession`, and an entry's memo dies
with the entry.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.spans import Tracer, span

from repro.cast import ast_nodes as ast
from repro.cast.incremental import (
    IncrementalPlan,
    assert_entries_equal,
    incremental_front_end,
)
from repro.cast.lexer import Lexer, LexError, Token
from repro.cast.parser import ParseError, Parser
from repro.cast.sema import Diagnostic, Sema
from repro.cast.source import SourceFile

#: Default bound on cached translation units.  The μCFuzz pool stays small
#: (tens of programs) while mutants churn; 256 evicted heavily (1749
#: evictions over a 600-step benchmark run), so the default keeps the whole
#: mutant working set of a campaign cell warm.  Tunable per fuzzer/Campaign
#: via the ``cache_maxsize`` knob.
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
    #: Tokens up to the first lex error (the whole stream when none).
    token_prefix: list[Token]
    lex_error: LexError | None
    unit: ast.TranslationUnit | None
    parse_error: str | None
    parse_recursion: bool
    sema: Sema | None
    sema_diags: list[Diagnostic]
    #: Scratch space for derived per-text front-end artifacts owned by
    #: higher layers (driver coverage/feature summaries, decl digests, μAST
    #: contexts).
    memo: dict[str, Any] = field(default_factory=dict)

    @property
    def tokens(self) -> list[Token] | None:
        """The full token stream, or None when lexing failed."""
        return None if self.lex_error is not None else self.token_prefix

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
        token_prefix=prefix,
        lex_error=lex_error,
        unit=unit,
        parse_error=parse_error,
        parse_recursion=parse_recursion,
        sema=sema,
        sema_diags=sema_diags,
    )


def decl_digests(
    entry: FrontendEntry,
    plan: "IncrementalPlan | None" = None,
    memo_stats: dict | None = None,
) -> tuple:
    """Per-declaration content digests for cross-compile artifact interning.

    Returns ``(full_digests, header_digests)``, one entry per top-level decl:
    ``full_digests[i]`` hashes the decl's complete source text;
    ``header_digests[i]`` hashes only the text *before* the body for function
    definitions (the part other decls can observe — signature, name, types)
    and the full text otherwise.  The compile session keys middle-end records
    on these.  Memoized on ``entry.memo``; with an incremental ``plan``,
    unchanged decls copy their parent's digests instead of re-hashing
    (decl text is offset-shift invariant under the dirty-region front end).

    Each decl node additionally carries its digest pair as ``_digest_memo``:
    a node grafted into a child entry keeps the attribute even when the
    parent's entry-level memo is gone (evicted, or the parent was never
    digested), so re-hashing is content-keyed at node granularity too.  The
    attribute is sound because grafting only reuses a node when its source
    text is unchanged up to an offset shift.  ``memo_stats``, when given,
    has its ``"decl_digest_memo_hits"`` entry bumped per node-memo hit.
    """
    cached = entry.memo.get("decl_digests")
    if cached is not None:
        return cached
    parent = (
        plan.parent.memo.get("decl_digests") if plan is not None else None
    )
    text = entry.source.text
    full: list[str] = []
    header: list[str] = []
    for i, decl in enumerate(entry.unit.decls):
        parent_index = plan.decl_map[i] if parent is not None else None
        if parent_index is not None:
            full.append(parent[0][parent_index])
            header.append(parent[1][parent_index])
            decl._digest_memo = (full[-1], header[-1])
            continue
        memo = decl.__dict__.get("_digest_memo")
        if memo is not None:
            if memo_stats is not None:
                memo_stats["decl_digest_memo_hits"] = (
                    memo_stats.get("decl_digest_memo_hits", 0) + 1
                )
            full.append(memo[0])
            header.append(memo[1])
            continue
        lo, hi = decl.range.begin.offset, decl.range.end.offset
        digest = source_digest(text[lo:hi])
        if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
            header.append(source_digest(text[lo : decl.body.range.begin.offset]))
        else:
            header.append(digest)
        full.append(digest)
        decl._digest_memo = (digest, header[-1])
    cached = (tuple(full), tuple(header))
    entry.memo["decl_digests"] = cached
    return cached


class FrontendCache:
    """A bounded, content-hash-keyed LRU over :class:`FrontendEntry`."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE, verify_on_hit: bool = True) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.verify_on_hit = verify_on_hit
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
        if self.verify_on_hit and source_digest(entry.source.text) != entry.source_hash:
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

    def front_end_from(
        self,
        text: str,
        edits_from: "tuple[str, tuple] | None" = None,
        *,
        paranoid: bool = False,
        tracer: "Tracer | None" = None,
    ) -> "tuple[FrontendEntry, IncrementalPlan | None]":
        """Front-end ``text``, incrementally when its parent is cached.

        ``edits_from=(parent_text, edit_script)`` names the program ``text``
        was rewritten from.  When that parent is still cached this is
        :meth:`front_end_incremental` from the parent's entry, otherwise
        :meth:`front_end`; the plan is ``None`` on the latter path.  Every
        caller that holds an edit script goes through here, so the choice
        is made in one place.
        """
        if edits_from is not None:
            parent_text, edits = edits_from
            parent = self.peek(parent_text) if edits else None
            if parent is not None:
                return self.front_end_incremental(
                    text, parent, edits, paranoid=paranoid, tracer=tracer
                )
        return self.front_end(text, tracer=tracer), None

    def front_end_incremental(
        self,
        text: str,
        parent: FrontendEntry | None,
        edits,
        *,
        paranoid: bool = False,
        tracer: "Tracer | None" = None,
    ) -> "tuple[FrontendEntry, IncrementalPlan | None]":
        """Front-end a mutant, reusing ``parent``'s entry where possible.

        ``edits`` is the mutant's :meth:`Rewriter.edit_script` in parent
        coordinates.  Returns the entry plus the :class:`IncrementalPlan`
        describing which decls were reused (``None`` on a plain cache hit or
        when the full front end ran).  With ``paranoid=True`` every
        incremental result is cross-checked against a full re-front-ending
        and :class:`IncrementalDivergence` raised on any mismatch.
        """
        key = source_digest(text)
        entry = self._lookup(key)
        if entry is not None:
            self.hits += 1
            return entry, None
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
            return entry, None
        fields, plan = built
        entry = FrontendEntry(source_hash=key, **fields)
        self.incremental_hits += 1
        if paranoid:
            self.paranoid_checks += 1
            assert_entries_equal(entry, analyze_front_end(text, source_hash=key))
        self._store(key, entry)
        return entry, plan

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
