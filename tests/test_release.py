"""Releasing unkept mutants: the fuzzers keep only what their pool reuses.

At the end of every step μCFuzz, the macro fuzzer and GrayC release each
text they front-ended or compiled that did not enter the pool: its
front-end cache entry goes, and so do the compile-session records its
compiles made for the declarations its mutation changed.  Both stores are
pure caches, so releasing must change no outcome; these tests check that,
and that after every step the cache holds pool members only.
"""

import random

import pytest

from repro.cast.cache import FrontendCache
from repro.compiler import CLANG_SIM, GCC_SIM, Compiler
from repro.fuzzing.baselines.grayc import GrayCSim
from repro.fuzzing.macro import MacroFuzzer
from repro.fuzzing.mucfuzz import MuCFuzz
from tests.helpers import keep_everything

_PROGRAM = """
int g;
int helper(int a) { return a * 2 + g; }
int tiny(int x) { return x + 1; }
int main(void) { return helper(3) + tiny(4); }
"""


def _mutate_tiny(text):
    """``text`` with ``tiny``'s body edited, plus the edit script."""
    begin = text.index("x + 1")
    return (
        text[:begin] + "x + 2" + text[begin + 5:],
        ((begin, begin + 5, "x + 2"),),
    )


class TestFrontendCacheRelease:
    def test_release_drops_the_entry(self):
        cache = FrontendCache()
        entry = cache.front_end("int a;")
        cache.front_end("int b;")
        keys = set(cache.stats())
        assert cache.release("int a;") is entry
        assert "int a;" not in cache and "int b;" in cache
        assert cache.release("int a;") is None  # absent: nothing to drop
        assert cache.texts() == ["int b;"]
        assert set(cache.stats()) == keys
        assert cache.front_end("int a;") is not entry  # front-ended again

    def test_dirty_region_entry_keeps_its_decl_map(self):
        cache = FrontendCache()
        cache.front_end(_PROGRAM)
        mutant, edits = _mutate_tiny(_PROGRAM)
        entry = cache.front_end_from(mutant, (_PROGRAM, edits))
        assert cache.incremental_hits == 1
        # g, helper and main map to their parent decls; tiny changed.
        assert entry.memo["decl_map"] == (0, 1, None, 3)


class TestCompileSessionRelease:
    def test_release_drops_only_the_changed_declarations_records(self):
        compiler = Compiler(*GCC_SIM)
        session = compiler.compile_session
        cache = FrontendCache()
        compiler.compile(_PROGRAM, cache=cache)
        parent_records = dict(session._records)
        # The full front end built the parent: all four declarations count
        # as changed, and its entry notes every record it created.
        parent = cache.peek(_PROGRAM)
        assert sorted(parent.memo["session_keys"]) == sorted(parent_records)

        mutant, edits = _mutate_tiny(_PROGRAM)
        compiler.compile(mutant, cache=cache, edits_from=(_PROGRAM, edits))
        entry = cache.peek(mutant)
        created = entry.memo["session_keys"]
        assert len(created) == 1  # tiny; the rest replayed from the parent
        assert created[0] in session._records

        session.release(cache.release(mutant))
        assert session._records == parent_records
        assert "session_keys" not in entry.memo

    def test_recompile_of_a_cache_hit_uses_the_stored_decl_map(self):
        """GrayC's compile of its validated mutant is a cache hit without an
        edit script: the records it creates are still only the changed
        decl's."""
        compiler = Compiler(*GCC_SIM)
        cache = FrontendCache()
        compiler.compile(_PROGRAM, cache=cache)
        mutant, edits = _mutate_tiny(_PROGRAM)
        cache.front_end_from(mutant, (_PROGRAM, edits))  # the validation
        misses = compiler.compile_session.misses
        compiler.compile(mutant, cache=cache)
        assert compiler.compile_session.misses == misses + 1
        assert len(cache.peek(mutant).memo["session_keys"]) == 1


def _outcome(step) -> tuple:
    crash = step.result.crash or step.result.hang
    return (
        step.program,
        frozenset(step.result.coverage.edges),
        step.kept,
        crash.bug_id if crash is not None else None,
    )


def _ucfuzz(registry, seeds, seed=7):
    return MuCFuzz(
        Compiler(*GCC_SIM), random.Random(seed), seeds,
        registry.supervised(), name="uCFuzz.s",
    )


def _macro(registry, seeds, personality=GCC_SIM, seed=20240427):
    return MacroFuzzer(
        Compiler(*personality), random.Random(seed), seeds, list(registry)
    )


def _grayc(registry, seeds, seed=5):
    return GrayCSim(Compiler(*GCC_SIM), random.Random(seed), seeds)


def _one_option_set(fuzzer):
    """Pin the macro ``fuzzer``'s sampled -O level and flags; returns it.

    The compile session records a compile only when its options are those
    of the compile before it, and the macro fuzzer samples them per step, so
    it records little for a release to drop.  With one option set it
    records every compile, as μCFuzz does, and the session's release is
    checked as well as the cache's.
    """
    fuzzer.sample_options = lambda: (2, ())
    return fuzzer


class TestReleaseParity:
    """Step for step, releasing changes no program, coverage, keep decision
    or crash."""

    def _check(self, make, steps, session=True):
        released, kept = make(), keep_everything(make())
        for i in range(steps):
            assert _outcome(released.step()) == _outcome(kept.step()), i
        assert released.coverage.edges == kept.coverage.edges
        # The release ran: the default arm holds less.
        assert len(released.cache) < len(kept.cache)
        if session:
            assert len(released.compiler.compile_session) < len(
                kept.compiler.compile_session
            )

    def test_ucfuzz(self, registry, small_seeds):
        self._check(lambda: _ucfuzz(registry, small_seeds), 60)

    @pytest.mark.parametrize(
        "personality", [GCC_SIM, CLANG_SIM], ids=["gcc-sim", "clang-sim"]
    )
    def test_macro(self, personality, registry, small_seeds):
        # Sampled options: the session records too little to compare.
        self._check(
            lambda: _macro(registry, small_seeds, personality), 40,
            session=False,
        )
        self._check(
            lambda: _one_option_set(_macro(registry, small_seeds, personality)),
            40,
        )


def _watch(fuzzer) -> dict:
    """Record each step's parent and, per compile, the text and the record
    keys its entry then listed as made for changed declarations."""
    seen: dict = {"parent": None, "compiled": []}
    choose = fuzzer.pool.random_choice
    compile_ = fuzzer.compiler.compile

    def random_choice(rng):
        seen["parent"] = choose(rng)
        return seen["parent"]

    def compile(text, *args, **kwargs):
        result = compile_(text, *args, **kwargs)
        entry = fuzzer.cache.peek(text)
        keys = entry.memo.get("session_keys", ()) if entry is not None else ()
        seen["compiled"].append((text, tuple(keys)))
        return result

    fuzzer.pool.random_choice = random_choice
    fuzzer.compiler.compile = compile
    return seen


_FUZZERS = {
    "uCFuzz.s": _ucfuzz,
    "macro-gcc-sim": lambda registry, seeds: _macro(registry, seeds, GCC_SIM),
    "macro-clang-sim": lambda registry, seeds: _macro(
        registry, seeds, CLANG_SIM
    ),
    "GrayC": _grayc,
}


def _steps_keep_to_the_pool(fuzzer, steps=40) -> tuple[int, int]:
    """Step ``fuzzer``, checking after each step that its cache and session
    hold only what the pool reuses; returns how many mutants were kept and
    how many session records released mutants had made."""
    seen = _watch(fuzzer)
    records = fuzzer.compiler.compile_session._records
    released_keys = kept = 0
    for i in range(steps):
        step = fuzzer.step()
        assert all(text in fuzzer.pool for text in fuzzer.cache.texts()), i
        assert seen["parent"].text in fuzzer.cache, i
        if step.kept:
            kept += 1
            assert step.program in fuzzer.cache, i
        for text, keys in seen["compiled"]:
            if text not in fuzzer.pool:
                assert not [key for key in keys if key in records], i
                released_keys += len(keys)
        seen["compiled"].clear()
    return kept, released_keys


class TestCacheKeepsToThePool:
    @pytest.mark.parametrize("name", sorted(_FUZZERS))
    def test_invariant_after_every_step(self, name, registry, small_seeds):
        fuzzer = _FUZZERS[name](registry, small_seeds)
        if name.startswith("macro"):
            # The cache checks on sampled options, then everything on one
            # option set, under which the session records.
            kept, _ = _steps_keep_to_the_pool(fuzzer)
            assert kept > 0
            fuzzer = _one_option_set(_FUZZERS[name](registry, small_seeds))
        kept, released_keys = _steps_keep_to_the_pool(fuzzer)
        # Not vacuous: some mutants were kept, and some released mutants'
        # compiles had made records that the release then dropped.
        assert kept > 0 and released_keys > 0
