"""Dirty-region incremental re-front-ending for mutants.

A mutant produced through the :class:`~repro.cast.rewriter.Rewriter` differs
from its (already front-ended) parent only inside known byte spans.  This
module rebuilds the mutant's :class:`~repro.cast.cache.FrontendEntry` from the
parent's instead of re-running the full front end:

1. **Dirty-group detection** — the parser records per external-declaration
   *group* marks (``unit._inc_groups``); the edit script is mapped onto group
   token spans (inclusive overlap; edits in inter-group trivia attach to the
   following group) and widened to one contiguous ``[lo, hi]`` group range.
2. **Token stitching** — only the window between the last clean prefix token
   and the first clean suffix token is re-lexed.  Lexing is position-pure
   (``_at_line_start`` inspects absolute text, not lexer state), so the
   parent's prefix token columns are reused as-is and its suffix columns are
   reused with offsets shifted by the edit delta, provided the *sync token*
   at the window's end matches the parent's in kind/text/position.
3. **Region re-parse** — a fresh :class:`~repro.cast.parser.Parser` over the
   stitched stream starts at the first dirty token with its cross-declaration
   state (typedefs, record definitions, anonymous-tag counter) seeded by
   replaying the parent's recorded definition journal prefix.  It reads the
   window's freshly lexed tokens, and a :class:`~repro.cast.lexer.Token`
   made from the columns for any other position it reaches.
4. **AST grafting** — prefix decls are *shared* with the parent unit (their
   re-analysis is idempotent); suffix decls are cloned with every position
   slot shifted by the delta (each node class lists its own in
   ``position_slots``; no other int moves), and ``DeclRefExpr.decl``
   pointers into the dirty region are remapped onto the freshly parsed
   decls.  Either way a reused decl keeps the per-node memos
   (:data:`_MEMO_ATTRS`) its text derived: what derives from one
   declaration's text lives on its node, so only the re-parsed decls
   compute theirs again.
5. **Scoped Sema** — dirty decls run real semantic analysis; clean
   ``FunctionDecl`` bodies are skipped by replaying the parent's recorded
   per-decl diagnostics and cross-declaration effect log
   (``Sema._effect_log``).  Replaying the suffix is only legal when the
   dirty region left the semantic environment unchanged (function types,
   variable types, and the effect slice are compared value-for-value);
   otherwise the caller falls back to the full front end.

Every ineligible situation returns ``None`` (fall back to
:func:`~repro.cast.cache.analyze_front_end`); the result is bit-identical to
the full front end by construction, and ``paranoid`` mode
(:func:`assert_entries_equal`) enforces that mechanically.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from typing import Any

from repro.cast import ast_nodes as ast
from repro.cast.lexer import (
    TOKEN_KINDS,
    Lexer,
    LexError,
    Token,
    TokenColumns,
    TokenKind,
)
from repro.cast.parser import ParseError, Parser
from repro.cast.sema import Diagnostic, Sema
from repro.cast.source import SourceFile
from repro.cast.symbols import Symbol

#: An edit script: ``(begin, end, replacement)`` spans in parent coordinates,
#: non-overlapping, sorted (see :meth:`Rewriter.edit_script`).
EditScript = tuple[tuple[int, int, str], ...]


class IncrementalDivergence(AssertionError):
    """Paranoid mode: an incremental result differs from the full pipeline."""


# ---------------------------------------------------------------------------
# clone-with-shift


@cache
def _slots(cls: type) -> tuple[str, ...]:
    """Every slot of node class ``cls``, in field order."""
    return tuple(f.name for f in fields(cls))


def _clone_shifted(node: ast.Node, delta: int, remap: dict[int, ast.Node]) -> ast.Node:
    """Deep-clone ``node`` with every position slot shifted by ``delta``.

    A slot the node's class lists in ``position_slots`` is shifted (unless
    ``None``); a child node, or a list of them, is cloned; any other value
    (names, literal values, types, memos) is shared.
    ``DeclRefExpr.decl`` is a cross-reference, not a child: it is copied
    verbatim and fixed up by the caller via ``remap`` once all clones exist.
    Registers every original→clone pair in ``remap``.
    """
    cls = type(node)
    new = object.__new__(cls)
    remap[id(node)] = new
    positions = cls.position_slots
    is_ref = cls is ast.DeclRefExpr
    node_cls = ast.Node
    for name in _slots(cls):
        v = getattr(node, name)
        if name in positions:
            if v is not None:
                v += delta
        elif isinstance(v, node_cls):
            if not (is_ref and name == "decl"):
                v = _clone_shifted(v, delta, remap)
        elif type(v) is list:
            v = [
                _clone_shifted(x, delta, remap) if isinstance(x, node_cls) else x
                for x in v
            ]
        setattr(new, name, v)
    return new


# ---------------------------------------------------------------------------
# dirty-group detection


def _group_for_edit(spans: list[tuple[int, int]], eb: int, ee: int) -> int:
    for i, (b, e) in enumerate(spans):
        if eb <= e and b <= ee:  # inclusive overlap (insertions included)
            return i
        if b > ee:  # edit lies in the trivia gap before group i
            return i
    return len(spans) - 1  # trailing trivia: attach to the last group


class _RegionTokens:
    """The mutant's token stream as the region parser reads it.

    The re-lexed window's tokens are the lexer's own; a position outside it
    that the parser reaches (the sync token, a lookahead, an overshoot into
    the suffix) gets a :class:`Token` made from the columns on first read.
    """

    __slots__ = ("columns", "made")

    def __init__(
        self, columns: TokenColumns, start: int, window: list[Token]
    ) -> None:
        self.columns = columns
        self.made: list[Token | None] = [None] * len(columns)
        self.made[start : start + len(window)] = window

    def __len__(self) -> int:
        return len(self.made)

    def __getitem__(self, i: int) -> Token:
        tok = self.made[i]
        if tok is None:
            tok = self.made[i] = self.columns.token(i)
        return tok


# ---------------------------------------------------------------------------
# the incremental front end


def incremental_front_end(
    text: str, parent: Any, edits: EditScript
) -> "tuple[dict, tuple[int | None, ...] | None] | None":
    """Front-end ``text`` (the mutant) by reusing ``parent``'s entry.

    Returns ``(fields, decl_map)`` where ``fields`` holds the
    ``FrontendEntry`` constructor arguments (minus ``source_hash``), or
    ``None`` when ineligible — the caller then runs the full front end.
    ``decl_map[i]`` is the index of the parent decl the mutant's
    ``unit.decls[i]`` was shared or cloned from, or ``None`` for a decl
    re-parsed in the dirty region; ``decl_map`` is ``None`` when the mutant
    failed to parse.
    """
    if parent is None or not edits:
        return None
    if parent.lex_error is not None or parent.unit is None or not parent.compilable:
        return None
    groups = parent.unit._inc_groups
    journal = parent.unit._inc_journal
    psema = parent.sema
    if not groups or journal is None or psema is None:
        return None
    if len(psema._decl_marks) != len(parent.unit.decls):
        return None
    pcols = parent.token_prefix
    pbegins, pends = pcols.begins, pcols.ends
    ptext = parent.source.text

    delta = sum(len(t) - (e - b) for b, e, t in edits)
    if len(text) != len(ptext) + delta:
        return None

    # 1. Map edits onto external-declaration groups; widen to [lo, hi].
    spans: list[tuple[int, int]] = []
    start_pos = 0
    for _n, end_pos, _jm, _am in groups:
        spans.append((pbegins[start_pos], pends[end_pos - 1]))
        start_pos = end_pos
    lo = hi = None
    for eb, ee, _t in edits:
        g = _group_for_edit(spans, eb, ee)
        lo = g if lo is None else min(lo, g)
        hi = g if hi is None else max(hi, g)
    assert lo is not None and hi is not None

    # Token window boundaries (parent coordinates).
    P = 0 if lo == 0 else groups[lo - 1][1]
    S_tok = groups[hi][1]
    W0 = pends[P - 1] if P > 0 else 0
    w1 = pbegins[S_tok]
    if any(eb <= W0 or ee >= w1 for eb, ee, _t in edits):
        return None  # defensive: edits must fall strictly inside the window
    # Bytes outside the window must be untouched for token reuse to be sound.
    if text[:W0] != ptext[:W0] or text[w1 + delta :] != ptext[w1:]:
        return None

    # 2. Re-lex only the window; verify the sync token.
    msource = SourceFile(text)
    lexer = Lexer(msource)
    lexer.pos = W0
    sync_target = w1 + delta
    window: list[Token] = []
    try:
        while True:
            tok = lexer._next_token()
            if tok.begin_offset >= sync_target or tok.kind is TokenKind.EOF:
                break
            window.append(tok)
    except LexError:
        return None
    if (
        tok.begin_offset != sync_target
        or tok.kind is not TOKEN_KINDS[pcols.kinds[S_tok]]
        or tok.text != pcols.texts[S_tok]
    ):
        return None
    columns = pcols.spliced(P, S_tok, window, delta)

    # 3. Re-parse the dirty region with journal-seeded parser state.
    jm_prefix = 0 if lo == 0 else groups[lo - 1][2]
    am_prefix = 0 if lo == 0 else groups[lo - 1][3]
    jm_hi = groups[hi][2]
    am_hi = groups[hi][3]
    has_suffix = hi < len(groups) - 1

    parser = Parser(msource, tokens=_RegionTokens(columns, P, window))
    parser.pos = P
    for kind, name, val in journal[:jm_prefix]:
        if kind == "record":
            parser.record_names[name] = val
        else:
            parser.typedef_names.add(name)
            parser.typedefs[name] = val
    parser._anon_counter = am_prefix

    S_new = P + len(window)
    region_decls: list[ast.Decl] = []
    region_groups: list[tuple[int, int, int, int]] = []
    try:
        while parser.pos < S_new and parser.tok.kind is not TokenKind.EOF:
            before = parser.pos
            group = parser.parse_external_declaration()
            if parser.pos == before:  # pragma: no cover - defensive
                return None
            region_decls.extend(group)
            region_groups.append(
                (len(group), parser.pos, len(parser._journal), parser._anon_counter)
            )
    except ParseError as exc:
        # A fresh full parse reaches the region with identical parser state
        # (journal replay) and fails identically; short-circuit to the same
        # failed entry the full front end would produce.
        return (
            dict(
                source=msource,
                token_prefix=columns,
                lex_error=None,
                unit=None,
                parse_error=str(exc),
                parse_recursion=False,
                sema=None,
                sema_diags=[],
            ),
            None,
        )
    except RecursionError:
        return None
    if parser.pos != S_new:
        return None  # region under/overshot the window (e.g. a deleted ';')
    if has_suffix and parser._anon_counter != am_hi:
        return None  # anonymous-tag numbering would drift into the suffix

    # 4/5. Assemble the unit and run scoped Sema.
    pdecls = parent.unit.decls
    n_prefix_decls = sum(g[0] for g in groups[:lo])
    n_dirty_decls = sum(g[0] for g in groups[lo : hi + 1])
    prefix_decls = pdecls[:n_prefix_decls]
    parent_dirty = pdecls[n_prefix_decls : n_prefix_decls + n_dirty_decls]
    parent_suffix = pdecls[n_prefix_decls + n_dirty_decls :]

    remap: dict[int, ast.Node] = {}
    if has_suffix:
        # Pair dirty decls positionally; suffix references into the dirty
        # region are remapped along these pairs.
        if len(parent_dirty) != len(region_decls):
            return None
        for a, b in zip(parent_dirty, region_decls):
            if type(a) is not type(b):
                return None
            if getattr(a, "name", None) != getattr(b, "name", None):
                return None
            remap[id(a)] = b
            if isinstance(a, ast.EnumDecl):
                if len(a.constants) != len(b.constants):
                    return None
                for ca, cb in zip(a.constants, b.constants):
                    remap[id(ca)] = cb

    sema = Sema()
    new_decls: list[ast.Decl] = []
    decl_map: list[int | None] = []

    def run_real(decl: ast.Decl) -> None:
        sema._visit_top_level(decl)
        sema._decl_marks.append((len(sema.diagnostics), len(sema._effect_log)))

    def run_replay(decl: ast.FunctionDecl, idx: int, shift: int) -> None:
        ftype = decl._sema_ftype
        sema._file_scope.define(Symbol(decl.name, ftype, decl, "func"))
        dm0, em0 = psema._decl_marks[idx - 1] if idx > 0 else (0, 0)
        dm1, em1 = psema._decl_marks[idx]
        for eff in psema._effect_log[em0:em1]:
            kind, name, val = eff
            if kind == "record":
                sema._records[name] = val
            elif kind == "enum_const":
                sema._enum_consts[name] = val
            else:
                sema._typedefs[name] = val
            sema._effect_log.append(eff)
        for d in psema.diagnostics[dm0:dm1]:
            loc = d.loc
            if loc is not None and shift:
                loc = loc.advanced(shift)
            sema.diagnostics.append(Diagnostic(d.message, loc, d.severity))
        sema._decl_marks.append((len(sema.diagnostics), len(sema._effect_log)))

    # Stage 1: shared prefix (replay function bodies, re-run the cheap rest —
    # idempotent on shared nodes) and the freshly parsed dirty region.
    for i, decl in enumerate(prefix_decls):
        new_decls.append(decl)
        decl_map.append(i)
        if isinstance(decl, ast.FunctionDecl) and decl._sema_ftype is not None:
            run_replay(decl, i, 0)
        else:
            run_real(decl)
    effects_before_region = len(sema._effect_log)
    for decl in region_decls:
        new_decls.append(decl)
        decl_map.append(None)
        run_real(decl)

    if has_suffix:
        # Suffix reuse is only sound when the dirty region left the semantic
        # environment unchanged: compare symbol types and the effect slice.
        em0 = psema._decl_marks[n_prefix_decls - 1][1] if n_prefix_decls else 0
        last_dirty = n_prefix_decls + n_dirty_decls - 1
        em1 = psema._decl_marks[last_dirty][1] if n_dirty_decls else em0
        if sema._effect_log[effects_before_region:] != list(
            psema._effect_log[em0:em1]
        ):
            return None
        for a, b in zip(parent_dirty, region_decls):
            if isinstance(a, ast.FunctionDecl):
                fa = a._sema_ftype
                fb = b._sema_ftype
                if fa is None or fb is None or fa != fb:
                    return None
                if (a.body is None) != (b.body is None):
                    return None
            elif isinstance(a, ast.VarDecl):
                if a.type != b.type:
                    return None

    # Stage 2: clone the suffix with shifted positions and replay its analysis.
    first_suffix = len(new_decls)
    for j, pdecl in enumerate(parent_suffix):
        clone = _clone_shifted(pdecl, delta, remap)
        new_decls.append(clone)
        pidx = n_prefix_decls + n_dirty_decls + j
        decl_map.append(pidx)
        if isinstance(clone, ast.FunctionDecl) and clone._sema_ftype is not None:
            run_replay(clone, pidx, delta)
        else:
            run_real(clone)
    # Remap cross-references of replayed clones onto the region's new decls.
    # (Real-analyzed clones were re-bound by Sema; the map is a no-op there.)
    for decl in new_decls[first_suffix:]:
        for node in decl.walk():
            if isinstance(node, ast.DeclRefExpr) and node.decl is not None:
                node.decl = remap.get(id(node.decl), node.decl)

    unit = ast.TranslationUnit(new_decls, 0, columns.ends[-1])
    pos_shift = S_new - S_tok
    j_shift = (jm_prefix + len(parser._journal)) - jm_hi
    a_shift = parser._anon_counter - am_hi  # 0 whenever has_suffix
    unit._inc_groups = (
        tuple(groups[:lo])
        + tuple(
            (n, pos, jm_prefix + jlen, am)
            for n, pos, jlen, am in region_groups
        )
        + tuple(
            (n, pos + pos_shift, jm + j_shift, am + a_shift)
            for n, pos, jm, am in groups[hi + 1 :]
        )
    )
    unit._inc_journal = (
        tuple(journal[:jm_prefix]) + tuple(parser._journal) + tuple(journal[jm_hi:])
    )

    return (
        dict(
            source=msource,
            token_prefix=columns,
            lex_error=None,
            unit=unit,
            parse_error=None,
            parse_recursion=False,
            sema=sema,
            sema_diags=sema.diagnostics,
        ),
        tuple(decl_map),
    )


# ---------------------------------------------------------------------------
# paranoid comparison


def _diag_key(diags: list[Diagnostic]) -> list[tuple]:
    return [
        (d.message, d.loc.offset if d.loc is not None else None, d.severity)
        for d in diags
    ]


#: Node slots that cache what derives from one declaration's text (its
#: digest pair, :func:`repro.cast.cache.decl_digests`; its coverage/feature
#: summary, :func:`repro.compiler.driver._decl_summaries`) rather than
#: structure: a node that carries one is still structurally equal to a node
#: that doesn't.
_MEMO_ATTRS = frozenset({"_digest_memo", "_summary_memo"})


def ast_equal(a: ast.Node, b: ast.Node) -> bool:
    """Structural AST equality: positions, types, and reference *shape*.

    ``DeclRefExpr.decl`` pointers are compared by positional correspondence
    (pre-order registration), so a grafted unit sharing subtrees with its
    parent compares equal to an independently parsed one.  Memo attributes
    (:data:`_MEMO_ATTRS`) are ignored: per-node caching must not make a
    grafted unit compare unequal to a fresh parse.
    """
    pairs: dict[int, ast.Node] = {}

    def eq(x: Any, y: Any) -> bool:
        if isinstance(x, ast.Node) or isinstance(y, ast.Node):
            if type(x) is not type(y):
                return False
            pairs[id(x)] = y
            for k in _slots(type(x)):
                if k in _MEMO_ATTRS:
                    continue
                va, vb = getattr(x, k), getattr(y, k)
                if k == "decl" and isinstance(va, ast.Node):
                    mapped = pairs.get(id(va))
                    if mapped is None:
                        if va is not vb:
                            return False
                    elif mapped is not vb:
                        return False
                    continue
                if not eq(va, vb):
                    return False
            return True
        if isinstance(x, (list, tuple)):
            return (
                type(x) is type(y)
                and len(x) == len(y)
                and all(eq(p, q) for p, q in zip(x, y))
            )
        return type(x) is type(y) and x == y

    return eq(a, b)


def assert_entries_equal(inc: Any, full: Any) -> None:
    """Raise :class:`IncrementalDivergence` unless the entries are identical."""

    def diverge(what: str) -> None:
        raise IncrementalDivergence(
            f"incremental front end diverged from full pipeline: {what}"
        )

    if inc.token_prefix != full.token_prefix:
        diverge("token stream")
    if (inc.lex_error is None) != (full.lex_error is None):
        diverge("lex error")
    if inc.parse_error != full.parse_error:
        diverge(f"parse error ({inc.parse_error!r} vs {full.parse_error!r})")
    if _diag_key(inc.sema_diags) != _diag_key(full.sema_diags):
        diverge("diagnostics")
    if (inc.unit is None) != (full.unit is None):
        diverge("unit presence")
    if inc.unit is not None:
        if not ast_equal(inc.unit, full.unit):
            diverge("AST structure")
    if inc.sema is not None and full.sema is not None:
        if inc.sema._records != full.sema._records:
            diverge("record table")
        if inc.sema._enum_consts != full.sema._enum_consts:
            diverge("enum constants")
        if inc.sema._typedefs != full.sema._typedefs:
            diverge("typedef table")
        if inc.sema._decl_marks != full.sema._decl_marks:
            diverge("sema decl marks")
        if list(inc.sema._effect_log) != list(full.sema._effect_log):
            diverge("sema effect log")
