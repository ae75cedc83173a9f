"""Compile session: fused-pass equivalence + cross-step middle-end memoization.

Two contracts are under test here:

* the fused three-walk -O1 round (run over the flat buffer by
  :func:`repro.compiler.passes.flat.flat_local_opt`) is bit-identical — IR
  dump, coverage edges, and stats counters — to the sequential five-pass
  reference round, over seed programs, mutator-produced mutants, and
  randomly generated programs;
* a :class:`repro.compiler.session.CompileSession` replays interned
  per-function middle-end artifacts without changing any observable of
  ``Compiler.compile`` (checked against from-scratch reference-pipeline
  compiles), and a campaign routed twice through one warm session is
  bit-identical.
"""

import copy
import random

import pytest

import repro.mutators  # noqa: F401 - populate the registry
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler import GCC_SIM, Compiler
from repro.compiler.coverage import CoverageMap
from repro.compiler.flatir import BridgeCounters
from repro.compiler.incremental import assert_results_equal
from repro.compiler.irgen import IRGen, LoweringError
from repro.compiler.passes import OptContext, local_opt
from repro.compiler.session import CompileSession
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
        session = CompileSession()
        warm = Compiler(*GCC_SIM, session=session)
        cold = Compiler(*GCC_SIM, reference=True)
        for text in small_seeds[:10]:
            assert_results_equal(warm.compile(text), cold.compile(text))
        assert session.misses > 0

    def test_session_result_memo_on_recompile(self, small_seeds):
        session = CompileSession()
        warm = Compiler(*GCC_SIM, session=session)
        cold = Compiler(*GCC_SIM, reference=True)
        text = small_seeds[0]
        first = warm.compile(text)
        before = session.result_hits
        second = warm.compile(text)
        assert session.result_hits == before + 1
        for result in (first, second):
            assert_results_equal(result, cold.compile(text))

    def test_session_hits_on_shared_clean_functions(self, small_seeds):
        session = CompileSession()
        warm = Compiler(*GCC_SIM, session=session)
        cold = Compiler(*GCC_SIM, reference=True)
        text = small_seeds[1]
        warm.compile(text)
        mutant = _mutate_body(text)
        assert mutant != text
        before = session.hits
        assert_results_equal(warm.compile(mutant), cold.compile(mutant))
        # The mutant's unchanged sibling functions replayed from the session.
        assert session.hits > before

    def test_paranoid_session_compile(self, small_seeds):
        session = CompileSession()
        warm = Compiler(*GCC_SIM, session=session)
        text = small_seeds[2]
        warm.compile(text)
        before = session.paranoid_checks
        warm.compile(_mutate_body(text), paranoid=True)
        assert session.paranoid_checks == before + 1

    def test_explicit_session_none_disables(self, small_seeds):
        session = CompileSession()
        warm = Compiler(*GCC_SIM, session=session)
        warm.compile(small_seeds[3], session=None)
        assert session.hits == 0 and session.misses == 0

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
        session = CompileSession(maxsize=2)
        warm = Compiler(*GCC_SIM, session=session)
        for text in small_seeds[:4]:
            warm.compile(text)
        assert session.evictions > 0
        assert len(session) <= 2


class TestCompileBatch:
    def test_batch_matches_sequential_compiles(self, small_seeds):
        parent = small_seeds[4]
        mutants = [_mutate_body(parent), parent.replace("int", "long", 1)]
        requests = [(m, (parent, ((0, 0, ""),))) for m in mutants]
        session = CompileSession()
        batched = Compiler(*GCC_SIM, session=session).compile_batch(requests)
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
        session = CompileSession()
        Compiler(*GCC_SIM, session=session).compile_batch(requests)
        assert session.materializations == 1

    def test_batch_until_early_exit_is_lazy(self, small_seeds):
        parent = small_seeds[6]
        consumed = []

        def requests():
            for i, text in enumerate(
                (_mutate_body(parent), parent.replace("int", "long", 1))
            ):
                consumed.append(i)
                yield text, (parent, ((0, 0, ""),))

        session = CompileSession()
        results = Compiler(*GCC_SIM, session=session).compile_batch(
            requests(), until=lambda result: True
        )
        assert len(results) == 1
        assert consumed == [0]  # the second request was never generated


class TestSessionFuzzing:
    def _fuzzer(self, session, seeds, registry, seed=7):
        return MuCFuzz(
            Compiler(*GCC_SIM),
            random.Random(seed),
            seeds,
            registry.supervised(),
            session=session,
            batch_compile=True,
        )

    @staticmethod
    def _comparable(result):
        payload = result.to_json()
        # Pipeline-plumbing counters legitimately differ between arms and
        # between warm/cold session runs (batching materializes parents →
        # different cache-hit counts; the session supersedes the journal
        # middle end → zero middle_incremental hits; session counters
        # accumulate across runs sharing one session).  Everything
        # *behavioral* — coverage trend, crashes, pool, attempts, RNG-driven
        # counters — must be bit-identical.
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
            self._fuzzer(CompileSession(), seeds, registry), steps=25
        )
        without = run_campaign(
            MuCFuzz(
                Compiler(*GCC_SIM), random.Random(7), seeds,
                registry.supervised(),
            ),
            steps=25,
        )
        assert self._comparable(with_session) == self._comparable(without)
        assert with_session.stats["middle_session_hits"] > 0

    def test_same_campaign_twice_through_one_session(self, registry, small_seeds):
        seeds = small_seeds[:8]
        session = CompileSession()
        first = run_campaign(self._fuzzer(session, seeds, registry), steps=25)
        second = run_campaign(self._fuzzer(session, seeds, registry), steps=25)
        assert self._comparable(first) == self._comparable(second)
        # The warm rerun replayed entire results from the session memo.
        assert second.stats["middle_session_result_hits"] > 0

    def test_paranoid_session_fuzzing(self, registry, small_seeds):
        fuzzer = MuCFuzz(
            Compiler(*GCC_SIM),
            random.Random(11),
            small_seeds[:8],
            registry.supervised(),
            session=True,
            batch_compile=True,
            paranoid=True,
        )
        for _ in range(15):
            fuzzer.step()  # any divergence raises IncrementalDivergence
        assert fuzzer.session.paranoid_checks > 0

    def test_campaign_cell_specs_carry_session_knobs(self, registry, small_seeds):
        from repro.fuzzing.campaign import Campaign

        campaign = Campaign(
            compilers=[Compiler(*GCC_SIM)],
            seeds=small_seeds[:6],
            registry=registry,
            steps=10,
            session=True,
            batch_compile=True,
        )
        spec = campaign.cell_specs(("uCFuzz.s",))[0]
        assert spec.session and spec.batch_compile and not spec.reference

    def test_session_serial_equals_parallel(self, registry, small_seeds):
        from repro.fuzzing.campaign import Campaign

        campaign = Campaign(
            compilers=[Compiler(*GCC_SIM)],
            seeds=small_seeds[:6],
            registry=None or global_registry,
            steps=12,
            session=True,
            batch_compile=True,
        )
        serial = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=1)
        parallel = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
