"""Flat slotted IR: round-trips, flat==object differentials, snapshots.

The flat IR (:mod:`repro.compiler.flatir` + :mod:`repro.compiler.passes.flat`)
is a pure representation change: every test here is an equivalence property
against the object-IR pipeline — same IR dumps, same coverage edges, same
stats, same asm, same interpreter observables — over the seed corpus, the
mutator corpus (the fuzzing hot path's actual inputs), and random programs.
"""

import copy
import random
import time

import pytest

from repro.cast.cache import FrontendCache, analyze_front_end, decl_digests
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler.coverage import CoverageMap
from repro.compiler.driver import Compiler, GCC_SIM
from repro.compiler.flatir import FunctionSnapshot, IRBuffer, from_nodes, to_nodes
from repro.compiler.interp import execute
from repro.compiler.irgen import IRGen
from repro.compiler.passes import OptContext, local_opt, cleanup_opt
from repro.compiler.session import assert_results_equal
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
from repro.muast.registry import global_registry
from repro.muast.mutator import apply_mutator
from repro.telemetry.spans import Span, Tracer, _NOOP, span


def _lower(text):
    try:
        unit = parse(text)
    except Exception:
        return None
    sema = Sema()
    if [d for d in sema.analyze(unit) if d.severity == "error"]:
        return None
    try:
        return IRGen(sema, CoverageMap()).lower(unit)
    except Exception:
        return None


def _mutant_corpus(seeds, n=24):
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


def _random_texts(n=12, max_stmts=8):
    return [
        ProgramGenerator(random.Random(seed), GenPolicy(max_stmts=max_stmts)).generate()
        for seed in range(n)
    ]


class TestRoundTrip:
    """from_nodes/to_nodes is lossless, in both directions."""

    def _check_program(self, text):
        module = _lower(text)
        if module is None:
            return 0
        checked = 0
        for fn in module.functions.values():
            before = fn.dump()
            buf = from_nodes(fn)
            back = to_nodes(buf)
            assert back.dump() == before
            assert back.name == fn.name
            assert back.params == fn.params
            assert back.slots == fn.slots
            assert back.attributes == fn.attributes
            # Buffer-level round trip: re-encoding the decoded function
            # reproduces the buffer bit-for-bit (pools, blocks, and all).
            assert from_nodes(back) == buf
            checked += 1
        return checked

    def test_seed_corpus(self, small_seeds):
        assert sum(self._check_program(t) for t in small_seeds[:30]) > 30

    def test_mutant_corpus(self, small_seeds):
        mutants = _mutant_corpus(small_seeds[:12])
        assert mutants
        sum(self._check_program(t) for t in mutants)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs(self, seed):
        text = ProgramGenerator(
            random.Random(seed), GenPolicy(max_stmts=8)
        ).generate()
        self._check_program(text)

    def test_original_function_is_untouched(self):
        module = _lower("int main(void) { int x = 3; return x + 4; }")
        fn = module.functions["main"]
        before = fn.dump()
        from_nodes(fn)
        assert fn.dump() == before


class TestFlatOptEquivalence:
    """flat_local_opt == the object-IR round, observables and all."""

    def _check_program(self, text, opt_level=2):
        module = _lower(text)
        if module is None:
            return 0
        checked = 0
        for name in module.functions:
            obj_fn = copy.deepcopy(module.functions[name])
            flat_fn = copy.deepcopy(module.functions[name])
            obj_ctx = OptContext(cov=CoverageMap(), opt_level=opt_level)
            local_opt(obj_fn, obj_ctx)
            flat_ctx = OptContext(cov=CoverageMap(), opt_level=opt_level, flat=True)
            local_opt(flat_fn, flat_ctx)
            assert flat_fn.dump() == obj_fn.dump(), f"IR diverged for {name} in:\n{text}"
            assert frozenset(flat_ctx.cov.edges) == frozenset(obj_ctx.cov.edges)
            assert dict(flat_ctx.stats.counters) == dict(obj_ctx.stats.counters)
            checked += 1
        return checked

    def test_seed_corpus(self, small_seeds):
        assert sum(self._check_program(t) for t in small_seeds[:30]) > 30

    def test_mutant_corpus(self, small_seeds):
        mutants = _mutant_corpus(small_seeds[:12])
        assert mutants
        sum(self._check_program(t) for t in mutants)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs(self, seed):
        text = ProgramGenerator(
            random.Random(seed), GenPolicy(max_stmts=8)
        ).generate()
        self._check_program(text)

    def test_cleanup_opt_matches(self, small_seeds):
        for text in small_seeds[:10]:
            module = _lower(text)
            if module is None:
                continue
            for name in module.functions:
                obj_fn = copy.deepcopy(module.functions[name])
                flat_fn = copy.deepcopy(module.functions[name])
                obj_ctx = OptContext(cov=CoverageMap(), opt_level=2)
                flat_ctx = OptContext(cov=CoverageMap(), opt_level=2, flat=True)
                cleanup_opt(obj_fn, obj_ctx)
                cleanup_opt(flat_fn, flat_ctx)
                assert flat_fn.dump() == obj_fn.dump()
                assert frozenset(flat_ctx.cov.edges) == frozenset(obj_ctx.cov.edges)
                assert dict(flat_ctx.stats.counters) == dict(obj_ctx.stats.counters)


class TestFlatCompileEquivalence:
    """Whole default compiles == whole object-IR compiles, field for field."""

    def _compilers(self):
        """A cached default compile (the session path) and the reference."""
        cache = FrontendCache()
        flat = Compiler(*GCC_SIM)

        def cached(text, **kwargs):
            return flat.compile(text, cache=cache, paranoid=True, **kwargs)

        return cached, Compiler(*GCC_SIM, reference=True)

    def test_seed_corpus(self, small_seeds):
        flat, plain = self._compilers()
        for text in small_seeds[:20]:
            for opt in (0, 2):
                a = flat(text, opt_level=opt)
                b = plain.compile(text, opt_level=opt)
                assert a.crashed == b.crashed
                if not a.crashed:
                    assert_results_equal(a, b)

    def test_mutant_corpus(self, small_seeds):
        flat, plain = self._compilers()
        for text in _mutant_corpus(small_seeds[:12]):
            a = flat(text, opt_level=2)
            b = plain.compile(text, opt_level=2)
            assert a.crashed == b.crashed
            if not a.crashed:
                assert_results_equal(a, b)

    def test_random_programs(self):
        flat, plain = self._compilers()
        for text in _random_texts(10):
            a = flat(text, opt_level=2)
            b = plain.compile(text, opt_level=2)
            assert a.crashed == b.crashed
            if not a.crashed:
                assert_results_equal(a, b)


class TestFlatInterpreter:
    """The table-driven flat dispatch loop == the object-IR interpreter."""

    def _check(self, text, opt_level):
        module = _lower(text)
        if module is None:
            return 0
        if opt_level:
            from repro.compiler.passes import run_pipeline

            run_pipeline(module, OptContext(cov=CoverageMap(), opt_level=opt_level))
        obj = execute(module, fuel=100_000)
        flat = execute(module, fuel=100_000, flat=True)
        assert flat.observable == obj.observable, text
        assert flat.reason == obj.reason, text
        assert flat.status == obj.status, text
        return 1

    def test_seed_corpus(self, small_seeds):
        assert sum(self._check(t, 0) + self._check(t, 2) for t in small_seeds[:20]) > 20

    def test_random_programs(self):
        for text in _random_texts(10, max_stmts=10):
            self._check(text, 0)
            self._check(text, 2)


class TestFunctionSnapshot:
    def test_materialize_equals_deepcopy(self, small_seeds):
        for text in small_seeds[:10]:
            module = _lower(text)
            if module is None:
                continue
            for fn in module.functions.values():
                snap = FunctionSnapshot.of(fn)
                assert snap.materialize().dump() == copy.deepcopy(fn).dump()

    def test_materialize_is_memoized(self):
        module = _lower("int main(void) { return 7; }")
        snap = FunctionSnapshot.of(module.functions["main"])
        assert snap.materialize() is snap.materialize()

    def test_snapshot_is_isolated_from_source_mutation(self):
        module = _lower("int main(void) { int x = 1; return x + 2; }")
        fn = module.functions["main"]
        before = fn.dump()
        snap = FunctionSnapshot.of(fn)
        local_opt(fn, OptContext(cov=CoverageMap(), opt_level=2))
        assert fn.dump() != before  # the local round actually changed it
        assert snap.materialize().dump() == before


class TestDeclDigestMemo:
    def test_node_memo_serves_rehash(self):
        text = "int f(int a) { return a + 1; }\nint main(void) { return f(41); }"
        entry = analyze_front_end(text)
        first = decl_digests(entry)
        # Drop the entry-level memo: the per-node attribute must now serve
        # every decl without re-hashing, and must count its hits.
        entry.memo.pop("decl_digests")
        stats = {"decl_digest_memo_hits": 0}
        second = decl_digests(entry, memo_stats=stats)
        assert second == first
        assert stats["decl_digest_memo_hits"] == len(entry.unit.decls)

    def test_session_surfaces_counter(self):
        comp = Compiler(*GCC_SIM)
        session = comp.compile_session
        assert session.stats()["decl_digest_memo_hits"] == 0
        comp.compile("int main(void) { return 3; }", cache=FrontendCache())
        assert "decl_digest_memo_hits" in session.stats()


class TestSpanBinding:
    def test_tracerless_span_is_shared_noop(self):
        assert span(None, "lex") is _NOOP
        assert span(None, "opt") is _NOOP

    def test_fieldless_spans_are_prebound(self):
        tracer = Tracer(timings={})
        assert tracer.span("opt") is tracer.span("opt")
        assert span(tracer, "opt") is tracer.span("opt")
        # Spans with fields stay per-call (fields differ per use).
        assert tracer.span("mutate", mutator="m") is not tracer.span(
            "mutate", mutator="m"
        )

    def test_prebound_span_survives_reentry(self):
        tracer = Tracer(timings={})
        with tracer.span("opt"):
            with tracer.span("opt"):
                pass
        assert tracer.timings["opt"] >= 0.0
        assert not tracer.span("opt")._starts

    def test_span_overhead_micro_bench(self):
        # Telemetry-on per-stage cost must stay in perf_counter territory:
        # no allocation per span.  The bound is deliberately loose (CI
        # machines jitter); it catches an accidental return to per-call
        # object construction (~an order of magnitude more work), not noise.
        tracer = Tracer(timings={})
        n = 20_000
        bound = tracer.span("opt")
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("opt"):
                pass
        elapsed = time.perf_counter() - t0
        assert tracer.span("opt") is bound
        assert elapsed / n < 50e-6, f"span overhead {elapsed / n:.2e}s/span"


class TestFlatKnobPlumbing:
    def test_flat_campaign_matches_object_campaign(self, registry, small_seeds):
        from repro.fuzzing.campaign import run_campaign

        def run(reference):
            comp = Compiler(*GCC_SIM, reference=reference)
            fuzzer = MuCFuzz(
                comp, random.Random(5), list(small_seeds[:6]),
                registry.supervised(), batch_compile=True,
            )
            return run_campaign(fuzzer, steps=12)

        a, b = run(False), run(True)
        assert a.coverage_trend == b.coverage_trend
        assert a.crashes.to_json() == b.crashes.to_json()
        assert a.compiled == b.compiled
        assert a.total == b.total
