"""The flat-native middle end: buffer-direct irgen, flat inlining, session.

Covers one IR per pipeline (every default-pipeline function is a
``FlatFunction`` with no object-IR surface, running a module leaves the
session's records alone, and the reference pipeline never touches a cache),
bit-pattern float immediate pooling, IRBuffer edge cases (empty blocks,
max-arity xdata, name-table interning across inline splices), full-pipeline
equivalence (flat-native compiles and campaigns are bit-identical to the
``Compiler(reference=True)`` object-IR pipeline), and that every campaign
entry point runs flat-native by default.
"""

import math
import random
import struct

import pytest

from repro.cast.cache import FrontendCache
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler.coverage import CoverageMap
import repro.compiler.driver as driver
from repro.compiler.driver import CLANG_SIM, Compiler, GCC_SIM
from repro.compiler.flatir import FlatFunction, IRBuffer, from_nodes, to_nodes
from repro.compiler.interp import execute
from repro.compiler.ir import ImmFloat
from repro.compiler.irgen import FlatIRGen, IRGen
from repro.compiler.session import assert_results_equal
from repro.compiler.passes import (
    OptContext,
    flat_inlinable,
    flat_inline_into_caller,
    inline_candidates,
    inline_into_caller,
    local_opt,
)
from repro.fuzzing.campaign import Campaign, make_fuzzer
from repro.fuzzing.macro import MacroFuzzer
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.parallel import CellSpec, cell_key
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
from repro.muast.registry import global_registry


def _front_end(text):
    try:
        unit = parse(text)
    except Exception:
        return None, None
    sema = Sema()
    if [d for d in sema.analyze(unit) if d.severity == "error"]:
        return None, None
    return unit, sema


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_buffer_only(functions) -> int:
    """Every function is a ``FlatFunction`` with no object-IR surface."""
    count = 0
    for fn in functions:
        assert type(fn) is FlatFunction
        assert not hasattr(fn, "blocks")
        count += 1
    return count


# ---------------------------------------------------------------------------
# Satellite: bit-pattern float immediate pooling.


class TestFloatPoolBitPatterns:
    def test_signed_zeros_get_distinct_pool_slots(self):
        buf = IRBuffer("f")
        pos = buf.imm_float_enc(0.0)
        neg = buf.imm_float_enc(-0.0)
        assert pos != neg
        assert _bits(buf.imms[pos >> 2].value) == _bits(0.0)
        assert _bits(buf.imms[neg >> 2].value) == _bits(-0.0)

    def test_nan_payloads_get_distinct_pool_slots(self):
        quiet = struct.unpack("<d", bytes.fromhex("000000000000f87f"))[0]
        payload = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
        assert math.isnan(quiet) and math.isnan(payload)
        assert repr(quiet) == repr(payload)  # repr would have collided
        buf = IRBuffer("f")
        a = buf.imm_float_enc(quiet)
        b = buf.imm_float_enc(payload)
        assert a != b
        assert _bits(buf.imms[a >> 2].value) == _bits(quiet)
        assert _bits(buf.imms[b >> 2].value) == _bits(payload)

    def test_imm_enc_existing_operands_use_bit_pattern_keys(self):
        buf = IRBuffer("f")
        a = buf.imm_enc(ImmFloat(0.0))
        b = buf.imm_enc(ImmFloat(-0.0))
        assert a != b
        # Dedup still fires for the genuinely identical value.
        assert buf.imm_enc(ImmFloat(-0.0)) == b

    def test_pool_round_trip_preserves_bit_patterns(self):
        # Const-folding `x * -0.0 + 0.0` leaves both signed zeros as
        # immediates; a repr-keyed pool would collapse them into one slot.
        source = "double f(double x) { return x * -0.0 + 0.0; }"
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["f"]
        local_opt(fn, OptContext(cov=CoverageMap(), opt_level=2))
        buf = from_nodes(fn)
        before = sorted(
            _bits(i.value) for i in buf.imms if type(i) is ImmFloat
        )
        assert _bits(-0.0) in before and _bits(0.0) in before
        back = to_nodes(buf)
        assert back.dump() == fn.dump()
        rebuf = from_nodes(back)
        assert rebuf == buf
        after = sorted(
            _bits(i.value) for i in rebuf.imms if type(i) is ImmFloat
        )
        assert after == before


# ---------------------------------------------------------------------------
# Buffer-direct IR generation.


class TestFlatIRGenParity:
    def _check_program(self, text):
        unit, sema = _front_end(text)
        if unit is None:
            return 0
        obj_cov, flat_cov = CoverageMap(), CoverageMap()
        try:
            obj_module = IRGen(sema, obj_cov).lower(unit)
        except Exception:
            return 0
        flat_module = FlatIRGen(sema, flat_cov).lower(unit)
        assert flat_module.dump() == obj_module.dump(), text
        assert frozenset(flat_cov.edges) == frozenset(obj_cov.edges)
        # Buffer-direct emission: irgen builds no object function at all
        # (dump() above decodes fresh copies and leaves the buffers alone).
        return _assert_buffer_only(flat_module.functions.values())

    def test_seed_corpus(self, small_seeds):
        assert sum(self._check_program(t) for t in small_seeds[:30]) > 30

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs(self, seed):
        text = ProgramGenerator(
            random.Random(seed), GenPolicy(max_stmts=8)
        ).generate()
        self._check_program(text)

    def test_stats_match_object_irgen(self, small_seeds):
        for text in small_seeds[:10]:
            unit, sema = _front_end(text)
            if unit is None:
                continue
            obj = IRGen(sema, CoverageMap())
            obj.lower(unit)
            flat = FlatIRGen(sema, CoverageMap())
            flat.lower(unit)
            assert dict(flat.stats.counters) == dict(obj.stats.counters)


# ---------------------------------------------------------------------------
# Satellite: IRBuffer edge cases.


class TestBufferEdgeCases:
    def test_empty_blocks_after_flat_simplify_cfg(self):
        # The dead branch collapses under the flat pass set; dead rows stay
        # in the arrays but their blocks vanish from the block table, and
        # decode must not resurrect them.
        source = """
        int main(void) {
          int x = 1;
          if (0) { x = 2; x = 3; x = 4; }
          while (0) { x = 5; }
          return x;
        }
        """
        unit, sema = _front_end(source)
        obj_fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        flat_fn = FlatIRGen(sema, CoverageMap()).lower(unit).functions["main"]
        obj_ctx = OptContext(cov=CoverageMap(), opt_level=2)
        local_opt(obj_fn, obj_ctx)
        flat_ctx = OptContext(cov=CoverageMap(), opt_level=2, flat=True)
        local_opt(flat_fn, flat_ctx)
        buf = flat_fn.buf
        live = sum(len(idxs) for _, idxs in buf.blocks)
        assert live < len(buf.opc)  # dead rows really were left behind
        assert flat_fn.dump() == obj_fn.dump()
        assert frozenset(flat_ctx.cov.edges) == frozenset(obj_ctx.cov.edges)
        assert dict(flat_ctx.stats.counters) == dict(obj_ctx.stats.counters)

    def test_call_xdata_max_arity_round_trip(self):
        args = ", ".join(f"int a{i}" for i in range(8))
        vals = ", ".join(f"x + {i}" for i in range(8))
        source = f"""
        int wide({args}) {{ return a0 + a7; }}
        int main(void) {{ int x = 1; return wide({vals}); }}
        """
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        buf = from_nodes(fn)
        assert to_nodes(buf).dump() == fn.dump()
        assert from_nodes(to_nodes(buf)) == buf

    def test_gep_xdata_round_trip(self):
        source = """
        int grid[4][8];
        int main(void) {
          int i = 2;
          grid[i][i + 1] = 7;
          return grid[1][3];
        }
        """
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        buf = from_nodes(fn)
        assert to_nodes(buf).dump() == fn.dump()
        assert from_nodes(to_nodes(buf)) == buf

    def test_clone_isolates_call_arg_lists(self):
        source = """
        int f(int a, int b) { return a + b; }
        int main(void) { int x = 1; return f(x, x + 1); }
        """
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        buf = from_nodes(fn)
        dup = buf.clone()
        before = to_nodes(buf).dump()
        mutated = 0
        for x in dup.xdata:
            if len(x) == 3:  # a Call's (callee, args, arg_tys) entry
                x[1][:] = [0 for _ in x[1]]
                mutated += 1
        assert mutated  # the program really has a call to corrupt
        assert to_nodes(buf).dump() == before

    def test_inline_candidacy_agrees_at_size_boundary(self):
        # Exactly MAX_INLINE_INSTRS body instructions plus the Ret: the
        # object check counts ``block.instrs`` (terminator excluded) while
        # the buffer's index list includes the Ret row — the flat check
        # must not reject the boundary callee the object check accepts.
        decls = "\n".join(f"int base{i};" for i in range(3))
        expr = " + ".join(f"base{i} * {i + 3}" for i in range(3))
        source = (
            f"{decls}\n"
            f"static int wide(void) {{ return {expr}; }}\n"
            "int main(void) { return wide(); }\n"
        )
        unit, sema = _front_end(source)
        obj_module = IRGen(sema, CoverageMap()).lower(unit)
        flat_module = FlatIRGen(sema, CoverageMap()).lower(unit)
        obj_ctx = OptContext(cov=CoverageMap(), opt_level=2)
        flat_ctx = OptContext(cov=CoverageMap(), opt_level=2, flat=True)
        for fn in obj_module.functions.values():
            local_opt(fn, obj_ctx)
        for fn in flat_module.functions.values():
            local_opt(fn, flat_ctx)
        wide = obj_module.functions["wide"]
        assert len(wide.blocks[0].instrs) == 12  # at the bound, not below
        assert set(inline_candidates(obj_module)) == {"wide"}
        assert flat_inlinable(flat_module.functions["wide"].buf)

    def test_name_interning_across_inline_splices(self):
        # The callee must survive local_opt slot-free (params spill to
        # slots, which blocks candidacy), so it reads a global instead.
        source = """
        int base;
        static int bump(void) { return base * 3 + 7; }
        int main(void) {
          int total = 0;
          for (int i = 0; i < 4; i = i + 1) { total = total + bump(); }
          return total;
        }
        """
        unit, sema = _front_end(source)
        obj_module = IRGen(sema, CoverageMap()).lower(unit)
        flat_module = FlatIRGen(sema, CoverageMap()).lower(unit)
        obj_ctx = OptContext(cov=CoverageMap(), opt_level=2)
        flat_ctx = OptContext(cov=CoverageMap(), opt_level=2, flat=True)
        for fn in obj_module.functions.values():
            local_opt(fn, obj_ctx)
        for fn in flat_module.functions.values():
            local_opt(fn, flat_ctx)
        obj_cands = inline_candidates(obj_module)
        flat_cands = {
            name: fn.buf
            for name, fn in flat_module.functions.items()
            if flat_inlinable(fn.buf)
        }
        assert set(obj_cands) == set(flat_cands) == {"bump"}
        inline_into_caller(obj_module.functions["main"], obj_cands, obj_ctx)
        flat_inline_into_caller(
            flat_module.functions["main"], flat_cands, flat_ctx
        )
        caller = flat_module.functions["main"]
        assert caller.dump() == obj_module.functions["main"].dump()
        buf = caller.buf
        # Splicing re-interns callee names: the table stays duplicate-free.
        assert len(buf.names) == len(set(buf.names))
        assert frozenset(flat_ctx.cov.edges) == frozenset(obj_ctx.cov.edges)
        assert dict(flat_ctx.stats.counters) == dict(obj_ctx.stats.counters)


# ---------------------------------------------------------------------------
# Full-pipeline equivalence.


_PROGRAM = """
int g[8];
float fz = -0.0f;
static int helper(int a, int b) { return a * b + 3; }
int tiny(int x) { return x + 1; }
int main(void) {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { g[i] = helper(i, i + 2); }
  int n = 8;
  while (n) { s = s + g[n - 1] + tiny(n); n = n - 1; }
  if (s > 100) goto done;
  s = s + tiny(41);
done:
  return s;
}
"""


class TestFlatNativeCompile:
    def test_default_pipeline_is_buffer_native(self):
        default = Compiler(*GCC_SIM).compile(_PROGRAM, 2, ())
        reference = Compiler(*GCC_SIM, reference=True).compile(_PROGRAM, 2, ())
        assert default.ok and reference.ok
        assert {type(fn) for fn in default.module.functions.values()} == {
            FlatFunction
        }
        assert FlatFunction not in {
            type(fn) for fn in reference.module.functions.values()
        }

    @pytest.mark.parametrize("arm", ["plain", "cache"])
    def test_matches_object_compile(self, arm):
        ref = Compiler(*GCC_SIM, reference=True).compile(_PROGRAM, 2, ())
        cache = FrontendCache() if arm == "cache" else None
        compiler = Compiler(*GCC_SIM)
        for _ in range(2):  # a cached second compile replays the session
            result = compiler.compile(_PROGRAM, 2, (), cache=cache)
            assert result.ok and result.asm == ref.asm
            assert result.features == ref.features

    def test_paranoid_differential(self):
        compiler = Compiler(*GCC_SIM)
        cache = FrontendCache(paranoid=True)
        result = compiler.compile(_PROGRAM, 2, (), cache=cache)
        assert result.ok
        # The paranoid reference ran the object pipeline and restored the
        # compiler's own switch afterwards.
        assert compiler.reference is False
        # ... and it ran from scratch: only the checked compile touched the
        # cache (one miss), so the reference took no entry from it.
        assert (cache.hits, cache.misses) == (0, 1)
        assert compiler.compile_session.paranoid_checks == 1

    def test_corpus_matches_object_compile(self, small_seeds):
        flat = Compiler(*GCC_SIM)
        cache = FrontendCache()
        ref = Compiler(*GCC_SIM, reference=True)
        for text in small_seeds[:15]:
            a = flat.compile(text, 2, (), cache=cache)
            b = ref.compile(text, 2, ())
            assert a.ok == b.ok
            assert a.asm == b.asm
            assert a.features == b.features


def _mutate_tiny(text):
    """``text`` with ``tiny``'s body edited, plus the edit script."""
    begin = text.index("x + 1")
    return (
        text[:begin] + "x + 2" + text[begin + 5:],
        ((begin, begin + 5, "x + 2"),),
    )


class TestOneIRPerPipeline:
    """Each pipeline has one IR, and nothing converts between the two."""

    @pytest.mark.parametrize(
        "arm", ["plain", "cached", "session-replayed", "recompiled"]
    )
    def test_default_compiles_are_buffer_only(self, arm):
        compiler = Compiler(*GCC_SIM)
        session = compiler.compile_session
        cache = None if arm == "plain" else FrontendCache()
        text = _PROGRAM
        if arm == "session-replayed":
            compiler.compile(_PROGRAM, cache=cache)
            text, _ = _mutate_tiny(_PROGRAM)
        elif arm == "recompiled":
            compiler.compile(_PROGRAM, cache=cache)
        hits, misses = session.hits, session.misses
        served = compiler.middle_incremental_hits
        result = compiler.compile(text, cache=cache)
        assert result.ok
        assert _assert_buffer_only(result.module.functions.values()) == 3
        if arm == "session-replayed":
            # helper and main replayed from their records, tiny ran live.
            assert session.hits > hits
            assert session.misses == misses + 1
            assert compiler.middle_incremental_hits == served + 1
        elif arm == "recompiled":
            # The same text again: both globals and all three functions
            # replay from their records, and nothing is lowered live.
            assert (session.hits, session.misses) == (hits + 5, misses)
            assert compiler.middle_incremental_hits == served + 1

    def test_running_a_cached_module_leaves_session_records_alone(self):
        compiler = Compiler(*GCC_SIM)
        result = compiler.compile(_PROGRAM, cache=FrontendCache())
        records = [
            rec for rec in compiler.compile_session._records.values()
            if rec.fn is not None
        ]
        assert len(records) == 3
        before = [(rec.fn.buf, rec.fn.buf.clone()) for rec in records]
        reference = Compiler(*GCC_SIM, reference=True).compile(_PROGRAM)
        ran = execute(result.module)
        assert ran.observable == execute(reference.module).observable
        assert ran.status == "ok"
        for rec, (buf, saved) in zip(records, before):
            assert rec.fn.buf is buf
            assert buf == saved

    def test_reference_compile_takes_no_cache(self):
        cache = FrontendCache()
        Compiler(*GCC_SIM).compile(_PROGRAM, cache=cache)  # parent cached
        mutant, script = _mutate_tiny(_PROGRAM)
        reference = Compiler(*GCC_SIM, reference=True)
        session = reference.compile_session

        def state():
            return (
                cache.hits, cache.misses,
                len(session), session.hits, session.misses,
            )

        before = state()
        result = reference.compile(
            mutant, cache=cache, edits_from=(_PROGRAM, script)
        )
        assert state() == before
        assert result.ok
        assert_results_equal(result, reference.compile(mutant))
        assert FlatFunction not in {
            type(fn) for fn in result.module.functions.values()
        }


class TestFlatNativeCampaign:
    def _run(self, reference, steps=25):
        compiler = Compiler(*GCC_SIM, reference=reference)
        fuzzer = MuCFuzz(
            compiler,
            random.Random(11),
            ["int main(void) { return 0; }"],
            global_registry.supervised(),
        )
        for _ in range(steps):
            fuzzer.step()
        return fuzzer

    def test_campaign_parity_and_zero_decodes(self):
        obj = self._run(True)
        flat = self._run(False)
        assert frozenset(flat.coverage.edges) == frozenset(obj.coverage.edges)
        assert [p.text for p in flat.pool.entries] == [
            p.text for p in obj.pool.entries
        ]
        # Zero decodes by construction: the default run's session holds
        # buffers only, and the reference compiled every step from scratch
        # although its fuzzer keeps a cache.
        records = flat.compiler.compile_session._records.values()
        assert _assert_buffer_only(r.fn for r in records if r.fn is not None)
        ref_session = obj.compiler.compile_session
        assert (len(ref_session), ref_session.hits, ref_session.misses) == (
            0, 0, 0
        )

    def test_cell_key_distinguishes_reference(self):
        base = dict(
            fuzzer_name="uCFuzz.s",
            personality="gcc-sim",
            version="14",
            bug_seed=1,
            seeds=("int main(void) { return 0; }",),
            steps=5,
            cell_seed=3,
        )
        plain = CellSpec(**base)
        reference = CellSpec(**base, reference=True)
        assert cell_key(plain) != cell_key(reference)


# ---------------------------------------------------------------------------
# The default pipeline, as campaigns construct it.


def _record_compiles(monkeypatch) -> list:
    """Every ``(compiler, result)`` compiled while the patch is active."""
    seen = []
    compile_ = Compiler.compile

    def compile(self, *args, **kwargs):
        result = compile_(self, *args, **kwargs)
        seen.append((self, result))
        return result

    monkeypatch.setattr(Compiler, "compile", compile)
    return seen


#: Default-constructed campaign entry points, each a fuzzer over ``seeds``.
_ENTRY_POINTS = {
    "make_fuzzer": lambda seeds: make_fuzzer(
        "uCFuzz.s", Compiler(*GCC_SIM), seeds, global_registry,
        random.Random(3),
    ),
    "MacroFuzzer": lambda seeds: MacroFuzzer(
        Compiler(*CLANG_SIM), random.Random(3), seeds, list(global_registry),
    ),
    "Csmith": lambda seeds: make_fuzzer(
        "Csmith", Compiler(*GCC_SIM), seeds, global_registry, random.Random(3),
    ),
}


class TestDefaultPipeline:
    @pytest.mark.parametrize("entry", [*_ENTRY_POINTS, "Campaign.run"])
    def test_campaign_entry_points_compile_buffer_native(
        self, entry, monkeypatch, small_seeds
    ):
        seen = _record_compiles(monkeypatch)
        seeds = small_seeds[:8]
        if entry == "Campaign.run":
            campaign = Campaign(
                [Compiler(*GCC_SIM)], seeds, global_registry, steps=10
            )
            campaign.run(("uCFuzz.s",))
        else:
            fuzzer = _ENTRY_POINTS[entry](seeds)
            for _ in range(10):
                fuzzer.step()
        functions = [
            fn
            for _, result in seen
            if result.module is not None
            for fn in result.module.functions.values()
        ]
        assert functions, "no compile reached the middle end"
        _assert_buffer_only(functions)
        for compiler in {id(c): c for c, _ in seen}.values():
            assert compiler.reference is False
            records = compiler.compile_session._records.values()
            _assert_buffer_only(r.fn for r in records if r.fn is not None)


class TestMacroDifferential:
    @pytest.mark.parametrize(
        "personality", [GCC_SIM, CLANG_SIM], ids=["gcc-sim", "clang-sim"]
    )
    def test_paranoid_macro_fuzzing(self, personality, monkeypatch, small_seeds):
        """Sampled -O levels and flag sets: flat-native == reference."""
        checked = []
        assert_equal = driver.assert_results_equal

        def counting(result, reference):
            checked.append((result.features["opt_level"], result.features["flags"]))
            assert_equal(result, reference)

        monkeypatch.setattr(driver, "assert_results_equal", counting)
        fuzzer = MacroFuzzer(
            Compiler(*personality), random.Random(20240427), small_seeds,
            list(global_registry), paranoid=True,
        )
        for _ in range(30):
            fuzzer.step()  # an IncrementalDivergence would propagate
        assert len(checked) == 30
        # Havoc intermediates were front-end cross-checked as well: more
        # paranoid front-end checks than the 30 final compiles.
        assert fuzzer.cache.stats()["cache_paranoid_checks"] > 30
        assert len({opt for opt, _ in checked}) >= 3
        assert any(flags for _, flags in checked)
