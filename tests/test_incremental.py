"""Incremental pipeline correctness: grafted front ends and replayed IR.

The incremental machinery (dirty-region re-front-ending, per-declaration
artifacts carried on the declaration nodes, function-granular middle-end
replay) is pure performance — every test here pins down the invariant it
rests on, an incremental compile is observably identical to a from-scratch
one, or the reuse it exists for.
"""

import dataclasses
import gc
import random
from array import array

import pytest

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.cast.cache import FrontendCache, analyze_front_end
from repro.cast.incremental import IncrementalDivergence, assert_entries_equal
from repro.cast.lexer import Token, TokenColumns
from repro.cast.rewriter import Rewriter
from repro.cast.source import SourceFile, SourceLocation, SourceRange
from repro.compiler import CLANG_SIM, GCC_SIM, Compiler
from repro.compiler import driver, features
from repro.compiler.coverage import CoverageMap
from repro.fuzzing.baselines import AFLPlusPlus
from repro.fuzzing.campaign import run_campaign
from repro.fuzzing.macro import MacroFuzzer
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.muast.mutator import MutatorCrash, MutatorHang, apply_mutator
from repro.fuzzing.seedgen import generate_seeds
from tests.helpers import full_front_end


def _span(begin: int, end: int) -> SourceRange:
    return SourceRange(SourceLocation(begin), SourceLocation(end))


def _apply_script(text: str, edits) -> str:
    """Apply an edit script left to right — the contract edit_script makes."""
    parts, pos = [], 0
    for begin, end, replacement in edits:
        parts.append(text[pos:begin])
        parts.append(replacement)
        pos = end
    parts.append(text[pos:])
    return "".join(parts)


class TestRewriterEditScript:
    """edit_script() is what the incremental front end consumes; its spans
    must reproduce rewritten_text() exactly, including at decl boundaries."""

    TEXT = "int a = 1;\nint f(void) { return a; }\nint b = 2;\n"

    def test_script_reproduces_rewritten_text(self):
        rw = Rewriter(SourceFile(self.TEXT))
        assert rw.replace_text(_span(8, 9), "42")
        assert rw.remove_text(_span(37, 48))  # delete "int b = 2;\n"
        got = _apply_script(self.TEXT, rw.edit_script())
        assert got == rw.rewritten_text()

    def test_insertion_at_decl_boundary(self):
        """An edit exactly at a declaration's first byte must land before it."""
        rw = Rewriter(SourceFile(self.TEXT))
        loc = SourceLocation(11)  # start of int f
        assert rw.insert_text_before(loc, "static ")
        script = rw.edit_script()
        assert script == ((11, 11, "static "),)
        assert _apply_script(self.TEXT, script) == rw.rewritten_text()

    def test_deletion_spanning_to_end(self):
        rw = Rewriter(SourceFile(self.TEXT))
        assert rw.remove_text(_span(37, len(self.TEXT)))
        assert _apply_script(self.TEXT, rw.edit_script()) == self.TEXT[:37]

    def test_multi_span_edits_sorted_and_disjoint(self):
        rw = Rewriter(SourceFile(self.TEXT))
        # Register out of order; the script must come back position-sorted.
        assert rw.replace_text(_span(45, 46), "3")  # the literal in "int b"
        assert rw.replace_text(_span(8, 9), "7")
        assert rw.insert_text_before(
            SourceLocation(11), "/*x*/"
        )
        script = rw.edit_script()
        assert [s[:2] for s in script] == sorted(s[:2] for s in script)
        for (_, e0, _), (b1, _, _) in zip(script, script[1:]):
            assert e0 <= b1
        assert _apply_script(self.TEXT, script) == rw.rewritten_text()

    def test_overlapping_edits_rejected(self):
        rw = Rewriter(SourceFile(self.TEXT))
        assert rw.replace_text(_span(4, 9), "x = 1")
        assert not rw.replace_text(_span(8, 10), "y")
        # The rejected edit leaves no trace in the script.
        assert rw.edit_script() == ((4, 9, "x = 1"),)

    def test_same_point_insertions_keep_sequence_order(self):
        rw = Rewriter(SourceFile(self.TEXT))
        loc = SourceLocation(0)
        assert rw.insert_text_before(loc, "A")
        assert rw.insert_text_before(loc, "B")
        assert rw.rewritten_text().startswith("AB")
        assert _apply_script(self.TEXT, rw.edit_script()) == rw.rewritten_text()


class TestGraftInvariant:
    """Property over the mutator corpus: every mutant front-ended through
    the dirty-region path equals a full re-front-ending (token stream, AST,
    sema tables — the assert_entries_equal relation the paranoid mode uses).
    """

    def test_mutants_graft_equal_full(self, registry, small_seeds):
        cache = FrontendCache()
        rng = random.Random(99)
        mutators = registry.supervised()
        checked = 0
        for seed in small_seeds[:12]:
            parent = cache.front_end(seed)
            if parent.unit is None or parent.error_diagnostics:
                continue
            for _ in range(6):
                info = rng.choice(mutators)
                try:
                    outcome = apply_mutator(
                        info.create(rng), seed, cache=cache
                    )
                except Exception:
                    continue
                if not outcome.changed or not outcome.edits:
                    continue
                hits = cache.incremental_hits
                entry = cache.front_end_incremental(
                    outcome.mutant_text, parent, outcome.edits
                )
                if cache.incremental_hits == hits:
                    continue  # cache hit or ineligible edit → full path ran
                assert_entries_equal(
                    entry, analyze_front_end(outcome.mutant_text)
                )
                checked += 1
        assert checked >= 10, "corpus produced too few incremental fronts"

    def test_edit_script_matches_mutant_text(self, registry, small_seeds):
        """The edits a mutator reports really do produce its mutant text."""
        rng = random.Random(5)
        cache = FrontendCache()
        seen = 0
        for seed in small_seeds[:10]:
            for info in registry.supervised()[:20]:
                try:
                    outcome = apply_mutator(info.create(rng), seed, cache=cache)
                except Exception:
                    continue
                if outcome.changed and outcome.edits:
                    assert _apply_script(seed, outcome.edits) == outcome.mutant_text
                    seen += 1
        assert seen >= 10


class TestIncrementalCompileParity:
    """Compiler.compile(edits_from=...) is observably identical to a full
    compile, and paranoid mode enforces that on every step."""

    def test_middle_end_replay_matches_full(self, registry, small_seeds):
        gcc = Compiler(*GCC_SIM)
        cache = FrontendCache()
        rng = random.Random(31)
        replayed = 0
        for seed in small_seeds[:10]:
            base = gcc.compile(seed, cache=cache)
            if not base.ok:
                continue
            for _ in range(4):
                info = rng.choice(registry.supervised())
                try:
                    outcome = apply_mutator(info.create(rng), seed, cache=cache)
                except Exception:
                    continue
                if not outcome.changed or not outcome.edits:
                    continue
                inc = gcc.compile(
                    outcome.mutant_text, cache=cache,
                    edits_from=(seed, outcome.edits),
                )
                full = gcc.compile(outcome.mutant_text)
                assert inc.ok == full.ok
                assert inc.diagnostics == full.diagnostics
                assert inc.coverage.edges == full.coverage.edges
                assert inc.asm == full.asm
                assert inc.features == full.features
                assert (inc.crash is None) == (full.crash is None)
                replayed += 1
        assert replayed >= 8
        assert gcc.middle_incremental_hits > 0

    def test_paranoid_fuzzing_steps(self, gcc, registry, small_seeds):
        fuzzer = MuCFuzz(
            gcc, random.Random(2024), small_seeds[:8],
            registry.supervised(), paranoid=True,
        )
        for _ in range(25):
            fuzzer.step()  # IncrementalDivergence would propagate
        stats = fuzzer.stats_snapshot()
        assert stats["cache_paranoid_checks"] > 0

    def test_incremental_equals_plain_cached_run(self, registry, small_seeds):
        """Step-for-step identity: the speedup changes no observable result."""
        inc, plain = (
            MuCFuzz(
                Compiler(*GCC_SIM), random.Random(7), small_seeds[:8],
                registry.supervised(),
            )
            for _ in range(2)
        )
        full_front_end(plain)
        for _ in range(40):
            a, b = inc.step(), plain.step()
            assert a.program == b.program
            assert a.mutator == b.mutator
            assert a.kept == b.kept
            assert a.result.coverage.edges == b.result.coverage.edges
            assert a.result.diagnostics == b.result.diagnostics
            assert a.result.asm == b.result.asm
        assert inc.coverage.edges == plain.coverage.edges
        assert inc.stats_snapshot()["cache_incremental_hits"] > 0
        assert plain.cache.incremental_hits == 0

    @pytest.mark.parametrize(
        "personality", [GCC_SIM, CLANG_SIM], ids=["gcc-sim", "clang-sim"]
    )
    def test_macro_havoc_reuse_changes_no_outcome(
        self, personality, registry, small_seeds
    ):
        """Havoc rounds and the final compile front-ended incrementally or
        from scratch: the same program, coverage and keep decision."""
        inc, plain = (
            MacroFuzzer(
                Compiler(*personality), random.Random(20240427), small_seeds,
                list(registry),
            )
            for _ in range(2)
        )
        full_front_end(plain)
        for _ in range(40):
            a, b = inc.step(), plain.step()
            assert a.program == b.program
            assert a.result.coverage.edges == b.result.coverage.edges
            assert a.kept == b.kept
        assert plain.cache.incremental_hits == 0
        # More dirty-region front ends than final compiles: Havoc rounds
        # after the first took the incremental path too.
        assert inc.cache.incremental_hits > 40

    def test_campaign_invariant_under_incremental(self, registry, small_seeds):
        def result_of(incremental):
            fuzzer = MuCFuzz(
                Compiler(*GCC_SIM), random.Random(11), small_seeds[:8],
                registry.supervised(),
            )
            if not incremental:
                full_front_end(fuzzer)
            r = run_campaign(fuzzer, steps=30)
            return (
                r.coverage_trend, r.compiled, r.total,
                [c.signature for c in r.crashes.entries]
                if hasattr(r.crashes, "entries") else r.crashes.timeline(),
            )

        assert result_of(True) == result_of(False)


def _one_span_script(parent: str, child: str) -> tuple:
    """The edit script replacing what lies between the two texts' common
    prefix and common suffix."""
    limit = min(len(parent), len(child))
    prefix = 0
    while prefix < limit and parent[prefix] == child[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and parent[len(parent) - 1 - suffix] == child[len(child) - 1 - suffix]
    ):
        suffix += 1
    return ((prefix, len(parent) - suffix, child[prefix : len(child) - suffix]),)


def _havoc_variants(seed: str, havoc, n: int = 4):
    """``n`` AFL++ byte-havoc variants of ``seed``, each with the one-span
    edit script that rewrites ``seed`` into it."""
    for _ in range(n):
        data = bytearray(seed.encode("latin-1", "replace"))
        for _ in range(1 << havoc.rng.randint(0, 4)):
            havoc._havoc_once(data)
        variant = bytes(data).decode("latin-1")
        script = _one_span_script(seed, variant)
        assert _apply_script(seed, script) == variant
        yield variant, script


class TestAdversarialBytes:
    """The facade's never-raise contract on the cached, incremental path:
    AFL++ byte-havoc variants of cached seeds, front-ended from their
    parent's entry and checked against the reference pipeline."""

    @pytest.mark.parametrize(
        "personality", [GCC_SIM, CLANG_SIM], ids=["gcc-sim", "clang-sim"]
    )
    def test_havoc_variants_compile_incrementally(self, personality):
        compiler = Compiler(*personality)
        cache = FrontendCache(paranoid=True)
        havoc = AFLPlusPlus(compiler, random.Random(7), ["int x;"])
        options = ((2, ()), (3, ("-fno-inline",)), (0, ()))
        for seed in generate_seeds(60):
            compiler.compile(seed, cache=cache)
            for variant, script in _havoc_variants(seed, havoc):
                for opt_level, flags in options:
                    # Any exception, IncrementalDivergence included, fails.
                    compiler.compile(
                        variant, opt_level, flags, cache=cache,
                        edits_from=(seed, script),
                    )
        assert cache.incremental_hits > 0

    def test_a_variant_is_lexed_once(self, monkeypatch):
        """A compile hands the lexical features its front end's lex outcome,
        a lex error included, instead of lexing the text again."""
        havoc = AFLPlusPlus(Compiler(*GCC_SIM), random.Random(7), ["int x;"])
        variants = [
            (variant, features.lexical_features(variant))
            for seed in generate_seeds(30)
            for variant, _ in _havoc_variants(seed, havoc)
        ]

        def no_lexing(*args, **kwargs):
            raise AssertionError("lexical_features lexed the text again")

        monkeypatch.setattr(features, "Lexer", no_lexing)
        lex_errors = 0
        for variant, expected in variants:
            entry = analyze_front_end(variant)
            lex_errors += entry.lex_error is not None
            got: dict = {}
            driver._summarize_front_end(entry, CoverageMap(), got, [])
            assert {key: got[key] for key in expected} == expected
        assert lex_errors > 0

    def test_havoc_variants_through_the_mutators_front_end(self, registry):
        """The same variants handed to ``apply_mutator`` with the seed as
        their parent: it raises nothing the fuzzers would not catch
        (``IncrementalDivergence`` included), and an input that does not
        parse or compile comes back unchanged with its error set."""
        cache = FrontendCache(paranoid=True)
        havoc = AFLPlusPlus(Compiler(*GCC_SIM), random.Random(7), ["int x;"])
        rng = random.Random(11)
        mutators = list(registry)
        rejected = {"input does not parse": 0, "input does not compile": 0}
        for seed in generate_seeds(60):
            cache.front_end(seed)
            for variant, script in _havoc_variants(seed, havoc):
                mutator = mutators[rng.randrange(len(mutators))].create(
                    random.Random(rng.randrange(1 << 62))
                )
                try:
                    outcome = apply_mutator(
                        mutator, variant, cache=cache,
                        edits_from=(seed, script),
                    )
                except (MutatorCrash, MutatorHang, RecursionError):
                    continue  # what the fuzzers catch
                full = analyze_front_end(variant)
                if full.compilable:
                    assert outcome.error is None
                    continue
                error = (
                    "input does not parse" if full.unit is None
                    else "input does not compile"
                )
                assert (outcome.changed, outcome.mutant_text) == (False, None)
                assert outcome.error == error
                rejected[error] += 1
        assert all(rejected.values())
        assert cache.incremental_hits > 0


_FOUR_FUNCTIONS = """
int a(int x) { return x + 1; }
int b(int x) { return x * 2; }
int c(int x) { return x - 3; }
int d(int x) { return a(x) + b(x) + c(x); }
"""


def _edit(text: str, old: str, new: str) -> tuple[str, tuple]:
    """``text`` with its one ``old`` replaced by ``new``, plus the script."""
    begin = text.index(old)
    return (
        text[:begin] + new + text[begin + len(old):],
        ((begin, begin + len(old), new),),
    )


@pytest.fixture
def walked(monkeypatch):
    """The declaration nodes the driver walks for their summaries."""
    nodes = []
    walk = driver._decl_summary

    def recording(decl, source_text):
        nodes.append(decl)
        return walk(decl, source_text)

    monkeypatch.setattr(driver, "_decl_summary", recording)
    return nodes


class TestPerDeclarationReuse:
    """Each declaration node carries its digests and its coverage/feature
    summary: a declaration the dirty-region front end shares or clones is
    not walked again, however many uncompiled mutants lie in between."""

    def test_mutant_walks_exactly_its_reparsed_declarations(
        self, walked, registry, small_seeds
    ):
        gcc = Compiler(*GCC_SIM)
        cache = FrontendCache()
        rng = random.Random(31)
        cloned = 0
        for seed in small_seeds[:12]:
            if not gcc.compile(seed, cache=cache).ok:
                continue
            for _ in range(4):
                info = rng.choice(registry.supervised())
                try:
                    outcome = apply_mutator(info.create(rng), seed, cache=cache)
                except Exception:
                    continue
                if not outcome.changed or not outcome.edits:
                    continue
                if outcome.mutant_text in cache:
                    continue  # compiled before: nothing left to walk
                walked.clear()
                gcc.compile(
                    outcome.mutant_text, cache=cache,
                    edits_from=(seed, outcome.edits),
                )
                entry = cache.peek(outcome.mutant_text)
                decl_map = entry.memo.get("decl_map")
                if decl_map is None:
                    continue  # the full front end ran
                reparsed = [
                    decl for decl, parent_index
                    in zip(entry.unit.decls, decl_map) if parent_index is None
                ]
                assert list(map(id, walked)) == list(map(id, reparsed))
                cloned += decl_map[-1] is not None
        assert cloned >= 5, "too few mutants with a cloned suffix"

    def test_uncompiled_havoc_intermediate_passes_its_memos_on(self, walked):
        gcc = Compiler(*GCC_SIM)
        cache = FrontendCache()
        gcc.compile(_FOUR_FUNCTIONS, cache=cache)
        # Two Havoc rounds: b changes in the intermediate, which is only
        # front-ended, then c changes in the final mutant, which compiles.
        middle, first = _edit(_FOUR_FUNCTIONS, "x * 2", "x * 4")
        final, second = _edit(middle, "x - 3", "x - 5")
        cache.front_end_from(middle, (_FOUR_FUNCTIONS, first))
        walked.clear()
        gcc.compile(final, cache=cache, edits_from=(middle, second))
        entry = cache.peek(final)
        assert cache.incremental_hits == 2
        assert entry.memo["decl_map"] == (0, 1, None, 3)
        # b was re-parsed in the intermediate, c in the final mutant; a and
        # d carry the pairs the compile of the parent walked.
        assert [decl.name for decl in walked] == ["b", "c"]
        assert walked == entry.unit.decls[1:3]

    def test_inherited_summaries_equal_a_full_front_end(self, walked):
        gcc = Compiler(*GCC_SIM)
        cache = FrontendCache()
        gcc.compile(_FOUR_FUNCTIONS, cache=cache)
        text = _FOUR_FUNCTIONS
        for old, new in (("x * 2", "x * 4"), ("x + 1", "x + 7"), ("x - 3", "3")):
            mutant, edits = _edit(text, old, new)
            cache.front_end_from(mutant, (text, edits))
            text = mutant
        entry = cache.peek(text)
        assert cache.incremental_hits == 3
        walked.clear()
        inherited = driver._decl_summaries(entry)
        assert len(walked) == 3  # a, b and c changed along the chain
        assert inherited == driver._decl_summaries(analyze_front_end(text))


_SHIFTING = """
typedef int T;
int g = 1;
int f(T x) { return x + g; }
int h(int y) { return f(y) * 2; }
int main(void) { return h(3); }
"""


def _dirty_region_entry() -> tuple:
    """A dirty-region entry whose suffix shifted, and a full front end of
    the same text."""
    cache = FrontendCache()
    cache.front_end(_SHIFTING)
    mutant, edits = _edit(_SHIFTING, "x + g", "x + g + 40")
    entry = cache.front_end_from(mutant, (_SHIFTING, edits))
    assert cache.incremental_hits == 1 and entry.memo["decl_map"][-1] == 4
    return entry, analyze_front_end(mutant)


def _reached_from(root) -> list:
    """Every object ``gc.get_referents`` reaches from ``root``, types and
    what only they reach left out."""
    seen: set = set()
    found = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


#: Every position property a node class may have.
_POSITION_PROPERTIES = (
    "range", "name_range", "specifier_range", "return_type_range",
    "op_range", "init_eq_loc", "lparen_loc", "rparen_loc", "lbrace_loc",
    "rbrace_loc",
)


class TestEntryStorage:
    """A cached entry keeps its tokens as columns and its unit's positions
    as ints in node slots: the collector has no token, no position object,
    no node dict and one object per builtin type to walk."""

    def test_no_entry_keeps_token_objects(self):
        inc, full = _dirty_region_entry()
        for entry in (inc, full):
            assert type(entry.token_prefix) is TokenColumns
            reached = _reached_from(entry.token_prefix)
            assert not [obj for obj in reached if isinstance(obj, Token)]
            # What the collector tracks does not grow with the stream: the
            # columns object, its two offset arrays, and the texts tuple
            # until a collection finds it holds only strings.
            assert len(entry.token_prefix) > 40
            assert len([obj for obj in reached if gc.is_tracked(obj)]) <= 4

    def test_units_hold_offsets_and_shared_builtin_types(self):
        inc, full = _dirty_region_entry()
        for entry in (inc, full):
            reached = _reached_from(entry.unit)
            assert len([o for o in reached if isinstance(o, ast.Node)]) > 20
            assert not [
                o for o in reached
                if isinstance(o, (SourceRange, SourceLocation, dict))
            ]
            builtins = [
                o for o in reached
                if type(o) is ct.QualType and type(o.type) is ct.BuiltinType
            ]
            assert builtins  # every ``int`` of the program is one object
            for qt in builtins:
                assert qt is ct.builtin(qt.type.kind, qt.const, qt.volatile)
        inc_nodes, full_nodes = list(inc.unit.walk()), list(full.unit.walk())
        assert len(inc_nodes) == len(full_nodes)
        for a, b in zip(inc_nodes, full_nodes):
            assert type(a) is type(b)
            for name in _POSITION_PROPERTIES:
                assert getattr(a, name, None) == getattr(b, name, None), name
        assert isinstance(inc.unit.decls[-1], ast.FunctionDecl)


#: A program whose declarations after ``f`` hold every kind of position
#: slot: a declaration-specifier range, an ``=``, parameter names,
#: parentheses, braces and operators.
_SUFFIX_POSITIONS = """
int g = 1;
int f(int x) { return x + g; }
static const int k = 7;
int h(int y, int z) { int w = y * 2; return f(w) + z; }
int v(void) { return @; }
"""


def _suffix_mutant() -> tuple[str, str, tuple, int]:
    """The parent (``v`` returns its own literal's offset), its mutant (an
    edit in ``f`` shifts every later declaration by 5), the edit script,
    and the literal's value."""
    value = _SUFFIX_POSITIONS.index("@")
    parent = _SUFFIX_POSITIONS.replace("@", str(value))
    mutant, edits = _edit(parent, "x + g", "x + g + 40")
    return parent, mutant, edits, value


def _suffix_entry(parent: str, mutant: str, edits: tuple):
    cache = FrontendCache()
    cache.front_end(parent)
    entry = cache.front_end_from(mutant, (parent, edits))
    assert entry.memo["decl_map"] == (0, None, 2, 3, 4)  # k, h, v cloned
    return entry


class TestSuffixCloneShift:
    """The suffix clone shifts exactly each class's ``position_slots``: no
    other int moves, and no position slot stays behind."""

    def test_a_literal_equal_to_its_offset_keeps_its_value(self):
        parent, mutant, edits, value = _suffix_mutant()
        entry = _suffix_entry(parent, mutant, edits)
        literal = entry.unit.decls[-1].body.stmts[0].expr
        assert isinstance(literal, ast.IntegerLiteral)
        assert literal.value == value
        assert literal.begin_offset == value + 5
        assert_entries_equal(entry, analyze_front_end(mutant))

    def test_every_position_slot_left_unshifted_diverges(self, monkeypatch):
        parent, mutant, edits, _ = _suffix_mutant()
        entry = _suffix_entry(parent, mutant, edits)
        full = analyze_front_end(mutant)
        assert_entries_equal(entry, full)
        held = {
            (type(node), slot)
            for decl in entry.unit.decls[2:]
            for node in decl.walk()
            for slot in node.position_slots
            if getattr(node, slot) is not None
        }
        # Every slot of each class with more than a range is held.
        for cls in (
            ast.VarDecl, ast.ParmVarDecl, ast.FunctionDecl, ast.CompoundStmt,
            ast.BinaryOperator, ast.CallExpr,
        ):
            assert {(cls, slot) for slot in cls.position_slots} <= held
        for cls, slot in sorted(held, key=lambda p: (p[0].__name__, p[1])):
            with monkeypatch.context() as patch:
                patch.setattr(
                    cls, "position_slots",
                    tuple(s for s in cls.position_slots if s != slot),
                )
                broken = _suffix_entry(parent, mutant, edits)
                with pytest.raises(IncrementalDivergence, match="AST"):
                    assert_entries_equal(broken, full)


class TestParanoidSeesEveryColumn:
    """``assert_entries_equal`` compares every token column: corrupting one
    kind, text, begin or end offset of a dirty-region entry diverges."""

    def _corrupt(self, columns: TokenColumns, column: str) -> TokenColumns:
        kinds, texts = columns.kinds, columns.texts
        begins, ends = array("l", columns.begins), array("l", columns.ends)
        i = len(columns) // 2
        if column == "kinds":
            kinds = kinds[:i] + bytes([(kinds[i] + 1) % 8]) + kinds[i + 1 :]
        elif column == "texts":
            texts = texts[:i] + (texts[i] + "x",) + texts[i + 1 :]
        elif column == "begins":
            begins[i] += 1
        else:
            ends[i] += 1
        return TokenColumns(kinds, texts, begins, ends)

    @pytest.mark.parametrize("column", ["kinds", "texts", "begins", "ends"])
    def test_a_corrupted_column_diverges(self, column):
        inc, full = _dirty_region_entry()
        assert_entries_equal(inc, full)
        bad = dataclasses.replace(
            inc, token_prefix=self._corrupt(inc.token_prefix, column)
        )
        with pytest.raises(IncrementalDivergence, match="token stream"):
            assert_entries_equal(bad, full)
