"""Flat slotted IR: round-trips and flat==object differentials.

The flat IR (:mod:`repro.compiler.flatir` + :mod:`repro.compiler.passes.flat`)
is a pure representation change: every test here is an equivalence property
against the object-IR pipeline — same IR dumps, same coverage edges, same
stats, same asm — over the seed corpus, the mutator corpus (the fuzzing hot
path's actual inputs), and random programs.
"""

import copy
import random
import time

import pytest

import repro.cast.cache as cache_mod
from repro.cast.cache import (
    FrontendCache,
    analyze_front_end,
    decl_digests,
    source_digest,
)
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler.coverage import CoverageMap
from repro.compiler.driver import Compiler, GCC_SIM
from repro.compiler.flatir import from_nodes, to_nodes
from repro.compiler.irgen import IRGen
from repro.compiler.passes import OptContext, local_opt, cleanup_opt
from repro.compiler.session import assert_results_equal
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
from repro.muast.registry import global_registry
from repro.muast.mutator import apply_mutator
from repro.telemetry.spans import Span, Tracer, _NOOP, span
from tests.helpers import flat_copy


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
            flat_fn = flat_copy(module.functions[name])
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
                flat_fn = flat_copy(module.functions[name])
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
        cache = FrontendCache(paranoid=True)
        flat = Compiler(*GCC_SIM)

        def cached(text, **kwargs):
            return flat.compile(text, cache=cache, **kwargs)

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


def _no_hashing(text):
    raise AssertionError("a memoized declaration was hashed again")


class TestDeclDigestMemo:
    def test_node_memo_serves_rehash(self, monkeypatch):
        text = "int f(int a) { return a + 1; }\nint main(void) { return f(41); }"
        entry = analyze_front_end(text)
        first = decl_digests(entry)
        # The entry keeps no digest memo: the per-node attribute must serve
        # every decl without hashing.
        assert not entry.memo
        monkeypatch.setattr(cache_mod, "source_digest", _no_hashing)
        assert decl_digests(entry) == first

    def test_dirty_region_decls_carry_their_memo(self, monkeypatch):
        parent_text = (
            "int f(int a) { return a + 1; }\n"
            "int h(int b) { return b * 2; }\n"
            "int main(void) { return f(41) + h(1); }\n"
        )
        cache = FrontendCache()
        parent_digests = decl_digests(cache.front_end(parent_text))
        begin = parent_text.index("b * 2")
        mutant = parent_text[:begin] + "b * 3" + parent_text[begin + 5:]
        entry = cache.front_end_from(
            mutant, (parent_text, ((begin, begin + 5, "b * 3"),))
        )
        # f is shared with the parent, main cloned from it, h re-parsed.
        assert entry.memo["decl_map"] == (0, None, 2)
        hashed = []

        def counting(text):
            hashed.append(text)
            return source_digest(text)

        monkeypatch.setattr(cache_mod, "source_digest", counting)
        full, header = decl_digests(entry)
        monkeypatch.undo()
        assert len(hashed) == 2  # h's full text and its header, nothing else
        assert (full, header) == decl_digests(analyze_front_end(mutant))
        assert full[0] == parent_digests[0][0] and full[2] == parent_digests[0][2]
        assert full[1] != parent_digests[0][1]


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
                registry.supervised(),
            )
            return run_campaign(fuzzer, steps=12)

        a, b = run(False), run(True)
        assert a.coverage_trend == b.coverage_trend
        assert a.crashes.to_json() == b.crashes.to_json()
        assert a.compiled == b.compiled
        assert a.total == b.total
