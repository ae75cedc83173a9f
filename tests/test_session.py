"""Compile session: fused-pass equivalence + cross-step middle-end memoization.

Three contracts are under test here:

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
  without a cache leave the session empty;
* the session's steps inside the stage loops (``IRGen.lower``,
  ``run_pipeline``, ``lower_to_asm``) run nothing live for a declaration
  they replay, record exactly the phases the pipeline drove, and intern
  nothing for a compile that did not finish.
"""

import copy
import random
from collections import Counter

import pytest

import repro.mutators  # noqa: F401 - populate the registry
from repro.cast.cache import FrontendCache
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler import CLANG_SIM, GCC_SIM, Compiler
from repro.compiler import backend, passes
from repro.compiler.coverage import CoverageMap
from repro.compiler.crash import CompilerCrash
from repro.compiler.interp import execute
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
from tests.helpers import flat_copy


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
            fus_fn = flat_copy(module.functions[name])
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

    def test_recompile_replays_every_declaration(self, small_seeds):
        warm = Compiler(*GCC_SIM)
        session = warm.compile_session
        cache = FrontendCache()
        cold = Compiler(*GCC_SIM, reference=True)
        text = small_seeds[0]
        first = warm.compile(text, cache=cache)
        lowered = session.misses
        assert lowered > 0
        before = session.hits, warm.middle_incremental_hits
        second = warm.compile(text, cache=cache)
        # Every declaration the first compile lowered replays from its
        # record, and none is lowered again.
        assert (session.hits, session.misses) == (before[0] + lowered, lowered)
        assert warm.middle_incremental_hits == before[1] + 1
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

    def test_session_follows_the_options(self, small_seeds):
        """A compile whose options differ from the previous compile's runs
        the plain pipeline and records nothing; the next compile with the
        same options records under them."""
        warm = Compiler(*GCC_SIM)
        session = warm.compile_session
        cache = FrontendCache()
        cold = Compiler(*GCC_SIM, reference=True)

        def compile(text, opt_level, flags=()):
            assert_results_equal(
                warm.compile(text, opt_level, flags, cache=cache),
                cold.compile(text, opt_level, flags),
            )
            return len(session), session.hits, session.misses

        text = small_seeds[1]
        mutant = _mutate_body(text)
        _, hits, _ = compile(text, 2)
        after_mutant = compile(mutant, 2)
        assert after_mutant[1] > hits  # the clean siblings replayed
        assert compile(mutant, 3, ("-fno-inline",)) == after_mutant
        size, hits, misses = compile(mutant, 3, ("-fno-inline",))
        assert size > after_mutant[0] and misses > after_mutant[2]
        assert hits == after_mutant[1]

    def test_paranoid_session_compile(self, small_seeds):
        warm = Compiler(*GCC_SIM)
        session = warm.compile_session
        cache = FrontendCache(paranoid=True)
        text = small_seeds[2]
        warm.compile(text, cache=cache)
        before = session.paranoid_checks
        warm.compile(_mutate_body(text), cache=cache)
        assert session.paranoid_checks == before + 1

    def test_redefined_function_falls_back_live(self):
        # The first ``f`` is replaced before the optimizer runs, so its
        # record holds no phase; a mutant that replays it while the second
        # ``f`` is live must abort to a live run, not fail.
        compiler = Compiler(*GCC_SIM)
        cache = FrontendCache()
        text = (
            "int f(void) { return 1; }\n"
            "int f(void) { return 2; }\n"
            "int main(void) { return f(); }\n"
        )
        compiler.compile(text, cache=cache)
        mutant = text.replace("return 2", "return 3")
        result = compiler.compile(mutant, cache=cache)
        assert compiler.compile_session.aborts == 1
        assert_results_equal(
            result, Compiler(*GCC_SIM, reference=True).compile(mutant)
        )

    def test_redeclared_global_replays_its_rewrite(self):
        # ``int x;`` re-emits ``x`` under its existing key: its record must
        # carry that write, or a replay runs the earlier ``x = 2``.
        text = "int x = 2;\nint x;\nint main(void) { return x; }\n"
        compiler = Compiler(*GCC_SIM)
        cache = FrontendCache()
        live = compiler.compile(text, cache=cache)
        hits = compiler.compile_session.hits
        replayed = compiler.compile(text, cache=cache)
        assert compiler.compile_session.hits == hits + 3  # every decl
        reference = Compiler(*GCC_SIM, reference=True).compile(text)
        assert_results_equal(replayed, reference)
        assert (
            execute(live.module).observable
            == execute(replayed.module).observable
            == execute(reference.module).observable
        )

    def test_module_dump_compares_global_contents(self):
        # Paranoid mode compares modules by dump, so the dump must show
        # what a global holds, not only its name and size.
        def dump(text):
            return Compiler(*GCC_SIM).compile(text).module.dump()

        main = "int main(void) { return x; }\n"
        assert dump("int x = 2;\n" + main) != dump("int x = 3;\n" + main)
        assert dump("int x;\n" + main) != dump("const int x;\n" + main)

    def test_failed_compile_interns_nothing(self, small_seeds, monkeypatch):
        # Lowering fails on the last declaration, after ``f`` was lowered
        # live: its half-filled record must not reach the store.
        compiler = Compiler(*GCC_SIM)
        session = compiler.compile_session
        result = compiler.compile(
            "int f(void) { return 1; }\n"
            "struct S { int a; };\n"
            "int g(struct S s) { return s.a; }\n",
            cache=FrontendCache(),
        )
        assert result.diagnostics and session.misses == 1
        assert len(session) == 0
        # A crash at the back end's last checkpoint, after every stage ran.
        check = compiler.bugs.check

        def crash_at_module_end(point, features):
            if point == "backend:module":
                raise CompilerCrash("test", "back-end", "injected", [])
            check(point, features)

        monkeypatch.setattr(compiler.bugs, "check", crash_at_module_end)
        result = compiler.compile(small_seeds[0], cache=FrontendCache())
        assert result.crash is not None and session.misses > 1
        assert len(session) == 0

    def test_uncached_compile_records_nothing(self, small_seeds):
        compiler = Compiler(*GCC_SIM)
        for text in small_seeds[:3]:
            assert compiler.compile(text).ok
        session = compiler.compile_session
        assert (session.hits, session.misses, len(session)) == (0, 0, 0)
        assert not any(session.stats().values())
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


#: A global, a string buffer, an inline candidate (``three``), a loop and a
#: ``sprintf(dst, "%s", src)`` for the strlen pass.
_STAGED = (
    "int g = 3;\n"
    "static char buf[16];\n"
    "int three(void) { return 3; }\n"
    "int sum(int v) { int i, s = 0; for (i = 0; i < 4; i++) s += v; "
    "return s; }\n"
    "int main(void) { sprintf(buf, \"%s\", \"abcd\"); "
    "return three() + sum(g); }\n"
)
#: The same shape with no inline candidate: every function calls, loops or
#: is ``noinline``.
_NO_CANDIDATES = (
    "int g = 3;\n"
    "__attribute__((noinline)) int three(void) { return 3; }\n"
    "int sum(int v) { int i, s = 0; for (i = 0; i < 4; i++) s += v; "
    "return s; }\n"
    "int main(void) { return three() + sum(g); }\n"
)
_LEVELS = [(0, ()), (1, ()), (2, ()), (3, ()), (2, ("-ftree-vectorize",))]
_LEVEL_IDS = ["O0", "O1", "O2", "O3", "O2-vectorize"]
_PERSONALITIES = pytest.mark.parametrize(
    "personality", [GCC_SIM, CLANG_SIM], ids=["gcc-sim", "clang-sim"]
)


class TestStageSteps:
    """The session's steps inside the stage loops do no live work on replay
    and record exactly the phases the loops drove."""

    @pytest.fixture
    def live_calls(self, monkeypatch):
        """Live calls per stage, counted at each stage's entry points."""
        calls = Counter()

        def count(owner, name, stage):
            real = getattr(owner, name)

            def counted(*args):
                calls[stage] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        count(IRGen, "_lower_global", "irgen")
        count(IRGen, "_lower_function", "irgen")
        for name in (
            "local_opt", "flat_inline_into_caller", "flat_strlen_opt_fn",
            "cleanup_opt", "flat_loop_vectorize",
        ):
            count(passes, name, "opt")
        count(backend, "_lower_function_flat", "backend")
        return calls

    @_PERSONALITIES
    @pytest.mark.parametrize("opt_level,flags", _LEVELS, ids=_LEVEL_IDS)
    def test_recompile_runs_no_live_step(
        self, personality, opt_level, flags, live_calls
    ):
        compiler = Compiler(*personality)
        session = compiler.compile_session
        cache = FrontendCache()
        first = compiler.compile(_STAGED, opt_level, flags, cache=cache)
        assert first.ok
        # The counters see the live compile's work at every stage it runs.
        assert live_calls["irgen"] == 5 and live_calls["backend"] == 3
        assert bool(live_calls["opt"]) == (opt_level > 0)
        live_calls.clear()
        hits = session.hits
        second = compiler.compile(_STAGED, opt_level, flags, cache=cache)
        assert not live_calls
        assert session.hits == hits + 5
        reference = Compiler(*personality, reference=True)
        for result in (first, second):
            assert_results_equal(
                result, reference.compile(_STAGED, opt_level, flags)
            )

    @_PERSONALITIES
    @pytest.mark.parametrize("opt_level,flags", _LEVELS, ids=_LEVEL_IDS)
    @pytest.mark.parametrize(
        "text,inlines", [(_STAGED, True), (_NO_CANDIDATES, False)],
        ids=["candidates", "no-candidates"],
    )
    def test_record_holds_the_phases_the_pipeline_drove(
        self, personality, opt_level, flags, text, inlines
    ):
        compiler = Compiler(*personality)
        assert compiler.compile(text, opt_level, flags, cache=FrontendCache()).ok
        # clang-sim always adds -ftree-vectorize.
        vectorize = (
            opt_level >= 3
            or "-ftree-vectorize" in flags
            or personality == CLANG_SIM
        )
        expected = set()
        if opt_level >= 1:
            expected.add("local")
            if vectorize:
                expected.add("vectorize")
        if opt_level >= 2:
            expected |= {"strlen", "cleanup"}
            if inlines:
                expected.add("inline")
        records = [
            rec for rec in compiler.compile_session._records.values()
            if rec.fn is not None
        ]
        assert len(records) == 3
        for rec in records:
            assert set(rec.phase_segments) == expected
            assert bool(rec.candidate_names) == (inlines and opt_level >= 2)


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
        session = compiler.compile_session
        cache = FrontendCache()
        compiler.compile_batch(requests, cache=cache)
        assert session.materializations == 1
        # Once per batch: a second batch compiles the parent again, and
        # that compile replays every declaration from the session.
        misses = session.misses
        compiler.compile_batch(requests, cache=cache)
        assert session.materializations == 2
        assert session.misses == misses

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
            **kwargs,
        )

    @staticmethod
    def _comparable(result):
        payload = result.to_json()
        # Pipeline-plumbing counters legitimately differ between arms and
        # between warm/cold session runs (the reference pipeline has no
        # session; the counters accumulate across runs sharing one
        # compiler).
        # Everything *behavioral* — coverage trend, crashes, pool, attempts,
        # RNG-driven counters — must be bit-identical.
        payload["stats"] = {
            k: v
            for k, v in payload["stats"].items()
            if not k.startswith(("middle_session_", "middle_incremental_", "cache_"))
        }
        return payload

    def test_session_campaign_matches_sessionless(self, registry, small_seeds):
        seeds = small_seeds[:8]
        with_session = run_campaign(
            self._fuzzer(Compiler(*GCC_SIM), seeds, registry), steps=25
        )
        # The reference pipeline builds every compile from scratch.
        without = run_campaign(
            self._fuzzer(Compiler(*GCC_SIM, reference=True), seeds, registry),
            steps=25,
        )
        assert self._comparable(with_session) == self._comparable(without)
        assert with_session.stats["middle_session_hits"] > 0
        # No session ran, so none of its counters is reported.
        assert not {
            key
            for key in without.stats
            if key.startswith(("middle_session_", "middle_incremental_"))
        }
        assert without.stats["cache_hits"] > 0

    def test_same_campaign_twice_through_one_session(self, registry, small_seeds):
        seeds = small_seeds[:8]
        compiler = Compiler(*GCC_SIM)
        first = run_campaign(self._fuzzer(compiler, seeds, registry), steps=25)
        second = run_campaign(self._fuzzer(compiler, seeds, registry), steps=25)
        assert self._comparable(first) == self._comparable(second)
        # The warm rerun replayed the functions the first run's pool kept
        # from the session: it lowered fewer declarations live.
        first_misses = first.stats["middle_session_misses"]
        rerun_misses = second.stats["middle_session_misses"] - first_misses
        assert rerun_misses < first_misses

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
        assert len(session) == 0
        assert not any(session.stats().values())

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
        )
        specs = campaign.cell_specs(("uCFuzz.s", "uCFuzz.u"))
        assert not any(s.reference for s in specs)
        serial = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=1)
        parallel = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
