"""Compile session: fused-pass equivalence + cross-step middle-end memoization.

Two contracts are under test here:

* the fused three-walk -O1 round (run over the flat buffer by
  :func:`repro.compiler.passes.flat.flat_local_opt`) is bit-identical — IR
  dump, coverage edges, and stats counters — to the sequential five-pass
  reference round, over seed programs, mutator-produced mutants, and
  randomly generated programs;
* a compiler's :class:`repro.compiler.session.CompileSession`, which every
  cached compile runs against, replays interned per-function middle-end
  artifacts without changing any observable of ``Compiler.compile``
  (checked against from-scratch reference-pipeline compiles), a campaign
  routed twice through one warm session is bit-identical, and compiles
  without a cache leave the session empty.
"""

import copy
import random

import pytest

import repro.mutators  # noqa: F401 - populate the registry
from repro.cast.cache import FrontendCache
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler import GCC_SIM, Compiler
from repro.compiler.coverage import CoverageMap
from repro.compiler.flatir import BridgeCounters
from repro.compiler.irgen import IRGen, LoweringError
from repro.compiler.passes import OptContext, local_opt
from repro.compiler.session import CompileSession, assert_results_equal
from repro.fuzzing.baselines.csmith import CsmithSim
from repro.fuzzing.baselines.grayc import GrayCSim
from repro.fuzzing.campaign import run_campaign
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
from repro.muast.mutator import apply_mutator
from repro.muast.registry import global_registry


def _lower(text):
    unit = parse(text)
    sema = Sema()
    if [d for d in sema.analyze(unit) if d.severity == "error"]:
        return None
    try:
        return IRGen(sema, CoverageMap()).lower(unit)
    except (LoweringError, RecursionError):
        return None


def _mutant_corpus(seeds, n=24):
    """Mutator-produced texts (the fuzzing hot path's actual inputs)."""
    rng = random.Random(99)
    muts = global_registry.supervised()
    texts = []
    for i in range(n):
        info = muts[rng.randrange(len(muts))]
        out = apply_mutator(
            info.create(random.Random(rng.randrange(1 << 30))),
            seeds[i % len(seeds)],
        )
        if out.changed and out.mutant_text:
            texts.append(out.mutant_text)
    return texts


def _opt_observables(fn, opt_level=2):
    """(dump, edges, stats) after local optimization of a copy of ``fn``."""
    ctx = OptContext(cov=CoverageMap(), opt_level=opt_level)
    local_opt(fn, ctx)
    return fn.dump(), frozenset(ctx.cov.edges), dict(ctx.stats.counters), ctx


class TestFusedEquivalence:
    """The fused flat round == the sequential const_fold/.../dce fixpoint."""

    def _check_program(self, text):
        module = _lower(text)
        if module is None:
            return 0
        checked = 0
        for name in module.functions:
            seq_fn = copy.deepcopy(module.functions[name])
            fus_fn = copy.deepcopy(module.functions[name])
            seq_dump, seq_edges, seq_stats, _ = _opt_observables(seq_fn)
            fus_ctx = OptContext(cov=CoverageMap(), opt_level=2, flat=True)
            local_opt(fus_fn, fus_ctx)
            assert fus_fn.dump() == seq_dump, f"IR diverged for {name} in:\n{text}"
            assert frozenset(fus_ctx.cov.edges) == seq_edges
            assert dict(fus_ctx.stats.counters) == seq_stats
            checked += 1
        return checked

    def test_seed_corpus(self, small_seeds):
        assert sum(self._check_program(t) for t in small_seeds[:30]) > 30

    def test_mutant_corpus(self, small_seeds):
        mutants = _mutant_corpus(small_seeds[:12])
        assert mutants
        sum(self._check_program(t) for t in mutants)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs(self, seed):
        text = ProgramGenerator(
            random.Random(seed), GenPolicy(max_stmts=8)
        ).generate()
        self._check_program(text)

    def test_bridge_counts_outside_compared_stats(self):
        # Running the flat round over an object function crosses the bridge
        # once each way; the crossings land on the context's counters, never
        # in the stats counters the paranoid feature comparison sees.
        module = _lower("int main(void) { return 2 + 3; }")
        bridge = BridgeCounters()
        ctx = OptContext(cov=CoverageMap(), opt_level=2, flat=True, bridge=bridge)
        local_opt(module.functions["main"], ctx)
        assert (bridge.encodes, bridge.decodes) == (1, 1)
        assert not {"encodes", "decodes"} & set(ctx.stats.counters)


def _mutate_body(text):
    """A textual single-function mutation (dirty fn, clean siblings)."""
    return text.replace("return", "if (1) return", 1)


class TestCompileSession:
    def test_session_compile_matches_cold(self, small_seeds):
        warm = Compiler(*GCC_SIM)
        cache = FrontendCache()
        cold = Compiler(*GCC_SIM, reference=True)
        for text in small_seeds[:10]:
            assert_results_equal(
                warm.compile(text, cache=cache), cold.compile(text)
            )
        assert warm.compile_session.misses > 0

    def test_session_result_memo_on_recompile(self, small_seeds):
        warm = Compiler(*GCC_SIM)
        session = warm.compile_session
        cache = FrontendCache()
        cold = Compiler(*GCC_SIM, reference=True)
        text = small_seeds[0]
        first = warm.compile(text, cache=cache)
        before = session.result_hits, warm.middle_incremental_hits
        second = warm.compile(text, cache=cache)
        assert (session.result_hits, warm.middle_incremental_hits) == (
            before[0] + 1, before[1] + 1
        )
        for result in (first, second):
            assert_results_equal(result, cold.compile(text))

    def test_session_hits_on_shared_clean_functions(self, small_seeds):
        warm = Compiler(*GCC_SIM)
        session = warm.compile_session
        cache = FrontendCache()
        cold = Compiler(*GCC_SIM, reference=True)
        text = small_seeds[1]
        warm.compile(text, cache=cache)
        mutant = _mutate_body(text)
        assert mutant != text
        before = session.hits
        served = warm.middle_incremental_hits
        assert_results_equal(
            warm.compile(mutant, cache=cache), cold.compile(mutant)
        )
        # The mutant's unchanged sibling functions replayed from the
        # session, and the compile counts as served from it.
        assert session.hits > before
        assert warm.middle_incremental_hits == served + 1

    def test_paranoid_session_compile(self, small_seeds):
        warm = Compiler(*GCC_SIM)
        session = warm.compile_session
        cache = FrontendCache()
        text = small_seeds[2]
        warm.compile(text, cache=cache)
        before = session.paranoid_checks
        warm.compile(_mutate_body(text), cache=cache, paranoid=True)
        assert session.paranoid_checks == before + 1

    def test_uncached_compile_records_nothing(self, small_seeds):
        compiler = Compiler(*GCC_SIM)
        for text in small_seeds[:3]:
            assert compiler.compile(text).ok
        session = compiler.compile_session
        assert (session.hits, session.misses, len(session)) == (0, 0, 0)
        assert session.result_hits == 0 and not session.summary_intern
        assert compiler.middle_incremental_hits == 0

    def test_stats_keys(self):
        stats = CompileSession().stats()
        for key in (
            "middle_session_hits",
            "middle_session_misses",
            "middle_session_evictions",
            "middle_session_hit_rate",
        ):
            assert key in stats

    def test_record_eviction(self, small_seeds):
        warm = Compiler(*GCC_SIM)
        session = warm.compile_session = CompileSession(maxsize=2)
        cache = FrontendCache()
        for text in small_seeds[:4]:
            warm.compile(text, cache=cache)
        assert session.evictions > 0
        assert len(session) <= 2


class TestCompileBatch:
    def test_batch_matches_sequential_compiles(self, small_seeds):
        parent = small_seeds[4]
        mutants = [_mutate_body(parent), parent.replace("int", "long", 1)]
        requests = [(m, (parent, ((0, 0, ""),))) for m in mutants]
        batched = Compiler(*GCC_SIM).compile_batch(
            requests, cache=FrontendCache()
        )
        cold = Compiler(*GCC_SIM, reference=True)
        assert len(batched) == len(mutants)
        for result, mutant in zip(batched, mutants):
            assert_results_equal(result, cold.compile(mutant))

    def test_batch_materializes_parent_once(self, small_seeds):
        parent = small_seeds[5]
        requests = [
            (_mutate_body(parent), (parent, ((0, 0, ""),))),
            (parent.replace("int", "long", 1), (parent, ((0, 0, ""),))),
        ]
        compiler = Compiler(*GCC_SIM)
        compiler.compile_batch(requests, cache=FrontendCache())
        assert compiler.compile_session.materializations == 1

    def test_batch_until_early_exit_is_lazy(self, small_seeds):
        parent = small_seeds[6]
        consumed = []

        def requests():
            for i, text in enumerate(
                (_mutate_body(parent), parent.replace("int", "long", 1))
            ):
                consumed.append(i)
                yield text, (parent, ((0, 0, ""),))

        results = Compiler(*GCC_SIM).compile_batch(
            requests(), cache=FrontendCache(), until=lambda result: True
        )
        assert len(results) == 1
        assert consumed == [0]  # the second request was never generated


class TestSessionFuzzing:
    def _fuzzer(self, compiler, seeds, registry, seed=7, **kwargs):
        return MuCFuzz(
            compiler,
            random.Random(seed),
            seeds,
            registry.supervised(),
            batch_compile=True,
            **kwargs,
        )

    @staticmethod
    def _comparable(result):
        payload = result.to_json()
        # Pipeline-plumbing counters legitimately differ between arms and
        # between warm/cold session runs (batching materializes parents →
        # different cache-hit counts; an uncached run has no session; the
        # counters accumulate across runs sharing one compiler).
        # Everything *behavioral* — coverage trend, crashes, pool, attempts,
        # RNG-driven counters — must be bit-identical.
        payload["stats"] = {
            k: v
            for k, v in payload["stats"].items()
            if not k.startswith(("middle_session_", "middle_incremental_", "cache_"))
            and k != "decl_digest_memo_hits"
        }
        return payload

    def test_session_campaign_matches_sessionless(self, registry, small_seeds):
        seeds = small_seeds[:8]
        with_session = run_campaign(
            self._fuzzer(Compiler(*GCC_SIM), seeds, registry), steps=25
        )
        # No cache: every compile runs the plain pipeline.
        without = run_campaign(
            MuCFuzz(
                Compiler(*GCC_SIM), random.Random(7), seeds,
                registry.supervised(), use_cache=False,
            ),
            steps=25,
        )
        assert self._comparable(with_session) == self._comparable(without)
        assert with_session.stats["middle_session_hits"] > 0
        assert "middle_session_hits" not in without.stats

    def test_same_campaign_twice_through_one_session(self, registry, small_seeds):
        seeds = small_seeds[:8]
        compiler = Compiler(*GCC_SIM)
        first = run_campaign(self._fuzzer(compiler, seeds, registry), steps=25)
        second = run_campaign(self._fuzzer(compiler, seeds, registry), steps=25)
        assert self._comparable(first) == self._comparable(second)
        # The warm rerun replayed entire results from the session memo.
        assert second.stats["middle_session_result_hits"] > 0

    def test_paranoid_session_fuzzing(self, registry, small_seeds):
        fuzzer = self._fuzzer(
            Compiler(*GCC_SIM), small_seeds[:8], registry, seed=11,
            paranoid=True,
        )
        for _ in range(15):
            fuzzer.step()  # any divergence raises IncrementalDivergence
        assert fuzzer.compiler.compile_session.paranoid_checks > 0

    def test_generator_session_stays_empty(self):
        # Csmith compiles every program uncached: its compiler's session
        # must hold nothing, or a generator campaign's memory grows with
        # the records nobody will replay.
        fuzzer = CsmithSim(Compiler(*GCC_SIM), random.Random(3))
        for _ in range(20):
            fuzzer.step()
        session = fuzzer.compiler.compile_session
        assert len(session) == 0 and not session._results
        assert session.misses == 0 and not session.summary_intern

    def test_grayc_compiles_hit_the_session(self, small_seeds):
        # GrayC keeps a front-end cache, so its compiles run against the
        # session and replay the functions its mutants left unchanged.
        fuzzer = GrayCSim(
            Compiler(*GCC_SIM), random.Random(5), small_seeds[:8]
        )
        for _ in range(40):
            fuzzer.step()
        session = fuzzer.compiler.compile_session
        assert session.hits > 0
        assert fuzzer.compiler.middle_incremental_hits > 0

    def test_session_serial_equals_parallel(self, registry, small_seeds):
        from repro.fuzzing.campaign import Campaign

        campaign = Campaign(
            compilers=[Compiler(*GCC_SIM)],
            seeds=small_seeds[:6],
            registry=None or global_registry,
            steps=12,
            batch_compile=True,
        )
        specs = campaign.cell_specs(("uCFuzz.s", "uCFuzz.u"))
        assert all(s.batch_compile and not s.reference for s in specs)
        serial = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=1)
        parallel = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
