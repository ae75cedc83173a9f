"""Incremental pipeline correctness: grafted front ends and replayed IR.

The incremental machinery (dirty-region re-front-ending, per-decl summary
grafting, function-granular middle-end replay) is pure performance — every
test here pins down the invariant it rests on: an incremental compile is
observably identical to a from-scratch one.
"""

import random

import pytest

from repro.cast.cache import FrontendCache, analyze_front_end
from repro.cast.incremental import assert_entries_equal
from repro.cast.rewriter import Rewriter
from repro.cast.source import SourceFile, SourceLocation, SourceRange
from repro.compiler import CLANG_SIM, GCC_SIM, Compiler
from repro.fuzzing.campaign import run_campaign
from repro.fuzzing.macro import MacroFuzzer
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.muast.mutator import apply_mutator


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
                entry, plan = cache.front_end_incremental(
                    outcome.mutant_text, parent, outcome.edits
                )
                if plan is None:
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

    def test_incremental_equals_plain_cached_run(self, gcc, registry, small_seeds):
        """Step-for-step identity: the speedup changes no observable result."""
        inc = MuCFuzz(
            gcc, random.Random(7), small_seeds[:8], registry.supervised(),
            incremental=True,
        )
        plain = MuCFuzz(
            gcc, random.Random(7), small_seeds[:8], registry.supervised(),
            incremental=False,
        )
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
                list(registry), incremental=incremental,
            )
            for incremental in (True, False)
        )
        for _ in range(40):
            a, b = inc.step(), plain.step()
            assert a.program == b.program
            assert a.result.coverage.edges == b.result.coverage.edges
            assert a.kept == b.kept
        assert plain.cache.incremental_hits == 0
        # More dirty-region front ends than final compiles: Havoc rounds
        # after the first took the incremental path too.
        assert inc.cache.incremental_hits > 40

    def test_campaign_invariant_under_incremental(self, gcc, registry, small_seeds):
        def result_of(incremental):
            fuzzer = MuCFuzz(
                gcc, random.Random(11), small_seeds[:8],
                registry.supervised(), incremental=incremental,
            )
            r = run_campaign(fuzzer, steps=30)
            return (
                r.coverage_trend, r.compiled, r.total,
                [c.signature for c in r.crashes.entries]
                if hasattr(r.crashes, "entries") else r.crashes.timeline(),
            )

        assert result_of(True) == result_of(False)
