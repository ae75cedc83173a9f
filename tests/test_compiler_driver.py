"""Compiler driver, coverage, backend, and the seeded-bug case studies."""

import pytest

from repro.compiler import CLANG_SIM, GCC_SIM, Compiler, CoverageMap
from repro.compiler.bugs import BugRegistry
from repro.compiler.crash import CrashSignature, HELPER_FRAMES, StackFrame


GOOD = """
int g = 2;
int helper(int v) { return v * g; }
int main(void) { printf("%d\\n", helper(4)); return 0; }
"""


class TestDriver:
    def test_good_program_compiles(self, gcc):
        result = gcc.compile(GOOD)
        assert result.ok and not result.crashed
        assert result.asm and ".text main:" in result.asm

    def test_parse_error_is_diagnostic(self, gcc):
        result = gcc.compile("int x = ;")
        assert not result.ok and result.diagnostics
        assert result.features.get("parse_failed") == 1

    def test_sema_error_is_diagnostic(self, gcc):
        result = gcc.compile("int main(void) { return missing; }")
        assert not result.ok
        assert any("undeclared" in d for d in result.diagnostics)

    def test_lex_garbage_is_diagnostic_not_crash_by_default(self, gcc):
        result = gcc.compile("int $$$;")
        assert not result.ok
        assert result.crash is None or result.crash.module == "front-end"

    def test_coverage_nonempty_even_for_garbage(self, gcc):
        result = gcc.compile("int x = = = ;")
        assert len(result.coverage) > 0

    def test_optimization_level_changes_coverage(self, gcc):
        r0 = gcc.compile(GOOD, opt_level=0)
        r2 = gcc.compile(GOOD, opt_level=2)
        assert r2.coverage.edges != r0.coverage.edges

    def test_deterministic(self, gcc):
        a = gcc.compile(GOOD)
        b = gcc.compile(GOOD)
        assert a.coverage.edges == b.coverage.edges
        assert a.asm == b.asm

    def test_module_carried_on_success(self, gcc):
        result = gcc.compile(GOOD)
        from repro.compiler.interp import execute

        assert execute(result.module).output == "8\n"


class TestCoverageMap:
    def test_merge_counts_new(self):
        a = CoverageMap({("s", 1), ("s", 2)})
        b = CoverageMap({("s", 2), ("s", 3)})
        assert a.merge(b) == 1
        assert len(a) == 3

    def test_covers(self):
        a = CoverageMap({("s", 1), ("s", 2)})
        assert a.covers(CoverageMap({("s", 1)}))
        assert not CoverageMap({("s", 1)}).covers(a)


class TestCrashSignatures:
    def test_helper_frames_excluded(self):
        from repro.compiler.crash import CompilerCrash

        crash = CompilerCrash(
            "b1", "optimization", "boom",
            [StackFrame("internal_error", 0), StackFrame("f", 1), StackFrame("g", 2)],
        )
        sig = crash.signature()
        assert all(f.function not in HELPER_FRAMES for f in sig.frames)
        assert sig.frames == (StackFrame("f", 1), StackFrame("g", 2))

    def test_signature_equality(self):
        a = CrashSignature((StackFrame("f", 1),))
        b = CrashSignature((StackFrame("f", 1),))
        assert a == b and hash(a) == hash(b)


class TestBugRegistry:
    def test_population_sizes(self):
        gcc_bugs = BugRegistry.for_compiler("gcc-sim")
        clang_bugs = BugRegistry.for_compiler("clang-sim")
        assert len(gcc_bugs.bugs) > 40
        assert len(clang_bugs.bugs) > 60
        # Table 6's module profile: clang back-end rich, gcc back-end thin.
        assert clang_bugs.by_module()["back-end"] > gcc_bugs.by_module()["back-end"]

    def test_consequence_mix(self):
        bugs = (
            BugRegistry.for_compiler("gcc-sim").bugs
            + BugRegistry.for_compiler("clang-sim").bugs
        )
        asserts = sum(1 for b in bugs if b.kind == "assert")
        assert asserts / len(bugs) > 0.7  # Table 6: 85% assertion failures

    def test_seeds_never_trigger(self, compilers, small_seeds):
        for seed in small_seeds[:12]:
            for compiler in compilers:
                for opt in (0, 2, 3):
                    result = compiler.compile(seed, opt_level=opt)
                    assert result.ok, (result.diagnostics, result.crash)


class TestCaseStudyBugs:
    """The five §2/§5 case studies, reproduced via crafted mutants."""

    def test_clang_63762_ret2v_label_mutant(self, clang, gcc):
        # Figure 5: Ret2V applied to GCC test #20001226-1.
        mutant = """
void foo(int x[64], int y[64]) {
  int i;
  for (i = 0; i < 64; i++) { x[i] += y[i] & 3; }
  if (x[0] > y[1]) goto gt;
  if (x[1] < y[0]) goto lt;
  ;
gt:
  ;
lt:
  ;
}
int arrs[64];
int main(void) { foo(arrs, arrs); return 0; }
"""
        result = clang.compile(mutant)
        assert result.crash is not None
        assert result.crash.bug_id == "clang-63762"
        assert result.crash.module == "back-end"
        # GCC's back end does not share the bug.
        assert gcc.compile(mutant).crash is None

    def test_gcc_strlen_verify_range(self, gcc, clang):
        # §5.2: ChangeVarDeclQualifier + CopyExpr on the sprintf test.
        mutant = """
const volatile static char buffer[32];
int test4(void) { return sprintf(buffer, "%s", buffer); }
void main_test(void) {
  memset(buffer, 'A', 32);
  if (test4() != 3) abort();
}
int main(void) { main_test(); return 0; }
"""
        result = gcc.compile(mutant, opt_level=2)
        assert result.crash is not None
        assert result.crash.bug_id == "gcc-strlen-verify-range"
        assert result.crash.module == "optimization"
        # Not at -O0, and not in clang-sim.
        assert gcc.compile(mutant, opt_level=0).crash is None
        assert clang.compile(mutant).crash is None

    def test_gcc_111820_vectorizer_hang(self, gcc):
        # The §5.3 mutant: ChangeParamScope + AggregateMemberToScalar +
        # ReduceArrayDimension; hangs only at -O3 -fno-tree-vrp.
        mutant = """
int r;
int r_0;
void f(void) {
  int n = 0;
  while (--n) {
    r_0 += r;
    r += r; r += r; r += r; r += r; r += r;
  }
}
int main(void) { f(); return 0; }
"""
        hang = gcc.compile(mutant, opt_level=3, flags=("-fno-tree-vrp",))
        assert hang.hang is not None and hang.hang.bug_id == "gcc-111820"
        assert gcc.compile(mutant, opt_level=3).hang is None
        assert gcc.compile(mutant, opt_level=2, flags=("-fno-tree-vrp",)).hang is None

    def test_gcc_111819_imag_fold(self, gcc):
        mutant = """
long long combinedVar_1[4];
int *bar(void) {
  return (int *)&__imag (*(_Complex double *)((char *)combinedVar_1 + 16));
}
int main(void) { return 0; }
"""
        result = gcc.compile(mutant, opt_level=0)
        assert result.crash is not None
        assert result.crash.bug_id == "gcc-111819"
        assert result.crash.module == "ir-gen"

    def test_clang_69213_struct_to_int(self, clang):
        # StructToInt mutant: the program is *invalid*, but the front end
        # crashes before diagnosing it.
        mutant = """
struct s2 { int a; int b; };
void foo(int *ptr) {
  *ptr = (int) { {}, 0 };
}
int main(void) { return 0; }
"""
        result = clang.compile(mutant)
        assert result.crash is not None
        assert result.crash.bug_id == "clang-69213"
        assert result.crash.module == "front-end"
        assert result.crash.kind == "segfault"
