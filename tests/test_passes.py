"""Optimizer passes: unit behaviour + semantics preservation (differential)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler.coverage import CoverageMap
from repro.compiler.interp import execute
from repro.compiler.irgen import FlatIRGen, IRGen
from repro.compiler.ir import BinOp, Call, ImmInt, Jmp, Load, Store
from repro.compiler.passes import (
    OptContext, const_fold, cse, dce, forward_store,
    inline_small_functions, run_pipeline, simplify_cfg, strlen_opt,
)
from repro.fuzzing.progen import GenPolicy, ProgramGenerator


def lower(text, flat=False):
    unit = parse(text)
    sema = Sema()
    assert not [d for d in sema.analyze(unit) if d.severity == "error"]
    irgen = FlatIRGen if flat else IRGen
    return irgen(sema, CoverageMap()).lower(unit)


def ctx(opt=2):
    return OptContext(cov=CoverageMap(), opt_level=opt)


class TestConstFold:
    def test_folds_arithmetic(self):
        module = lower("int main(void) { return 2 + 3 * 4; }")
        fn = module.functions["main"]
        const_fold(fn, ctx())
        binops = [i for i in fn.instructions() if isinstance(i, BinOp)]
        assert not binops  # everything folded

    def test_folds_branches_on_constants(self):
        module = lower("int main(void) { if (0) return 1; return 2; }")
        fn = module.functions["main"]
        context = ctx()
        const_fold(fn, context)
        assert context.stats.get("branches_folded") >= 1

    def test_identity_simplification(self):
        module = lower("int main(void) { int x = 5; return x + 0; }")
        fn = module.functions["main"]
        context = ctx()
        const_fold(fn, context)
        assert context.stats.get("identities") >= 1

    def test_division_by_zero_left_alone(self):
        module = lower("int main(void) { int z = 0; return 1 / z; }")
        fn = module.functions["main"]
        run_pipeline(module, ctx())
        assert execute(module).status == "trap"


class TestSimplifyCfg:
    def test_unreachable_blocks_removed(self):
        module = lower(
            "int main(void) { if (1) return 1; return 2; }"
        )
        fn = module.functions["main"]
        context = ctx()
        const_fold(fn, context)
        before = len(fn.blocks)
        simplify_cfg(fn, context)
        assert len(fn.blocks) < before

    def test_straightline_blocks_merged(self):
        module = lower("int main(void) { int x = 1; { x++; } return x; }")
        fn = module.functions["main"]
        simplify_cfg(fn, ctx())
        assert execute(module).return_code == 2


class TestDce:
    def test_dead_arithmetic_removed(self):
        # A pure computation whose result is never used (constructed
        # directly: stores pin values, so source-level junk stays live).
        from repro.compiler.ir import IRType, Ret, Temp, UnOp

        module = lower("int main(void) { return 1; }")
        fn = module.functions["main"]
        fn.blocks[0].instrs.insert(
            0, UnOp(Temp(900), "neg", ImmInt(5), IRType.I32)
        )
        context = ctx()
        dce(fn, context)
        assert context.stats.get("dce_removed", 0) >= 1
        assert execute(module).return_code == 1

    def test_calls_never_removed(self):
        module = lower("int main(void) { printf(\"x\"); return 0; }")
        fn = module.functions["main"]
        dce(fn, ctx())
        calls = [i for i in fn.instructions() if isinstance(i, Call)]
        assert calls


class TestCse:
    def test_duplicate_computation_shared(self):
        module = lower(
            "int main(void) { int a = 6; int b = a * 7; int c = a * 7; "
            "return b + c; }"
        )
        fn = module.functions["main"]
        context = ctx()
        forward_store(fn, context)
        cse(fn, context)
        assert context.stats.get("cse_removed", 0) >= 1
        assert execute(module).return_code == 84


class TestForwardStore:
    def test_load_after_store_forwarded(self):
        module = lower("int main(void) { int x = 9; return x; }")
        fn = module.functions["main"]
        context = ctx()
        forward_store(fn, context)
        assert context.stats.get("stores_forwarded", 0) >= 1

    def test_volatile_never_forwarded(self):
        module = lower(
            "int main(void) { volatile int v = 1; return v; }"
        )
        fn = module.functions["main"]
        context = ctx()
        forward_store(fn, context)
        loads = [
            i for i in fn.instructions() if isinstance(i, Load) and i.volatile
        ]
        assert loads  # the volatile load survives

    def test_call_invalidates_known_slots(self):
        module = lower(
            "int g; void touch(void) { g = 1; }\n"
            "int main(void) { int x = 2; touch(); return x; }"
        )
        fn = module.functions["main"]
        forward_store(fn, ctx())
        assert execute(module).return_code == 2


class TestInline:
    def test_small_leaf_inlined(self):
        module = lower(
            "int three(void) { return 3; }\n"
            "int main(void) { return three() + three(); }"
        )
        context = ctx()
        run_pipeline(module, context)
        assert context.stats.get("inlined", 0) >= 1
        assert execute(module).return_code == 6

    def test_noinline_attribute_respected(self):
        module = lower(
            "__attribute__((noinline)) int three(void) { return 3; }\n"
            "int main(void) { return three(); }"
        )
        context = ctx()
        inline_small_functions(module, context)
        assert context.stats.get("inlined", 0) == 0


class TestStrlenOpt:
    def test_sprintf_percent_s_rewritten(self):
        module = lower(
            "static char buf[16];\n"
            "int main(void) { return sprintf(buf, \"%s\", \"abcd\"); }"
        )
        context = ctx()
        changed = strlen_opt(module, context)
        assert changed and context.stats.get("strlen_opts") == 1
        assert execute(module).return_code == 4

    def test_other_formats_untouched(self):
        module = lower(
            "static char buf[16];\n"
            "int main(void) { return sprintf(buf, \"%d\", 12); }"
        )
        assert not strlen_opt(module, ctx())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([1, 2, 3]))
def test_optimizer_preserves_semantics(seed, opt_level):
    """Differential testing: -O0 and -On behave identically on UB-free
    generated programs (the guarantee real compiler fuzzers check).

    Every drawn program runs through both pipelines: the object-IR
    reference, and the default flat-native one, whose buffer-native module
    executes in the interpreter's flat mode.
    """
    program = ProgramGenerator(
        random.Random(seed), GenPolicy(max_stmts=6)
    ).generate()
    r0 = execute(lower(program), fuel=300_000)
    for flat in (False, True):
        optimized = lower(program, flat=flat)
        run_pipeline(
            optimized,
            OptContext(cov=CoverageMap(), opt_level=opt_level, flat=flat),
        )
        r1 = execute(optimized, fuel=300_000, flat=flat)
        assert r0.observable == r1.observable, ("flat" if flat else "reference")


def test_pipeline_is_idempotent_on_semantics():
    program = (
        "int g = 7;\n"
        "int twice(int v) { return v * 2; }\n"
        "int main(void) { int i, s = 0; for (i = 0; i < 9; i++) "
        "s += twice(i) + g; printf(\"%d\\n\", s); return s & 127; }"
    )
    module = lower(program)
    expected = execute(lower(program)).observable
    run_pipeline(module, ctx(3))
    run_pipeline(module, ctx(3))
    assert execute(module).observable == expected
