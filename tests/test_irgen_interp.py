"""IR generation + interpreter: programs must compute correct results."""

import pytest

from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler.coverage import CoverageMap
from repro.compiler.irgen import IRGen
from repro.compiler.interp import MAX_CALL_DEPTH, Interpreter, execute


def run(text, fuel=400_000):
    unit = parse(text)
    sema = Sema()
    diags = sema.analyze(unit)
    assert not [d for d in diags if d.severity == "error"], diags
    module = IRGen(sema, CoverageMap()).lower(unit)
    return execute(module, fuel=fuel)


CASES = [
    ("int main(void) { return 7; }", 7, ""),
    ("int main(void) { int a = 3; int b = 4; return a * b; }", 12, ""),
    ("int main(void) { int x = 10; if (x > 5) return 1; return 2; }", 1, ""),
    ("int main(void) { int i, s = 0; for (i = 0; i < 5; i++) s += i; return s; }", 10, ""),
    ("int main(void) { int n = 3, s = 0; while (n) { s += n; n--; } return s; }", 6, ""),
    ("int main(void) { int n = 0, c = 0; do { c++; n++; } while (n < 4); return c; }", 4, ""),
    ("int f(int a, int b) { return a - b; } int main(void) { return f(9, 4); }", 5, ""),
    ("int main(void) { int a[4] = {1, 2, 3, 4}; return a[0] + a[3]; }", 5, ""),
    ("int g = 40; int main(void) { g += 2; return g; }", 42, ""),
    ("int main(void) { printf(\"hi %d\\n\", 5); return 0; }", 0, "hi 5\n"),
    ("int main(void) { int x = 6; switch (x & 3) { case 2: return 20; default: return 9; } }", 20, ""),
    ("int main(void) { int x = 1; switch (x) { case 1: x = 5; case 2: x += 2; break; default: x = 0; } return x; }", 7, ""),
    ("int main(void) { int i = 0; goto skip; i = 99; skip: return i; }", 0, ""),
    ("int main(void) { return 1 ? 11 : 22; }", 11, ""),
    ("int main(void) { int a = 0; int b = (a = 3, a + 1); return b; }", 4, ""),
    ("int main(void) { int x = 5; int *p = &x; *p = 9; return x; }", 9, ""),
    ("struct s { int a; int b; }; int main(void) { struct s v = {3, 4}; return v.a + v.b; }", 7, ""),
    ("struct s { int a; }; int main(void) { struct s v; struct s *p = &v; p->a = 8; return v.a; }", 8, ""),
    ("int main(void) { char c = 'A'; return c + 1; }", 66, ""),
    ("int main(void) { double d = 2.5; return (int)(d * 4.0); }", 10, ""),
    ("int main(void) { unsigned u = 3; return (int)(u << 2); }", 12, ""),
    ("int main(void) { int a = -7; return a % 3 == -1; }", 1, ""),  # C truncation
    ("int main(void) { return (int)sizeof(long) + (int)sizeof(char); }", 9, ""),
    ("int main(void) { int x = 0; x = 5 && 0; int y = 5 || 0; return x + y; }", 1, ""),
    ("int main(void) { enum e { A = 4, B }; return B; }", 5, ""),
    ("static char b[8]; int main(void) { int n = sprintf(b, \"%s\", \"abc\"); return n; }", 3, ""),
    ("int main(void) { char s[6] = \"hello\"; return (int)strlen(s); }", 5, ""),
    ("int main(void) { int a[3] = {1, 2, 3}; int i = 1; return i[a]; }", 2, ""),
    ("_Complex double z; int main(void) { __real z = 2.0; __imag z = 3.0; return (int)(__real z + __imag z); }", 5, ""),
    ("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void) { return fib(10); }", 55, ""),
    ("int main(void) { int x = 100; { int x = 5; x++; } return x; }", 100, ""),
    ("void bump(int *p) { *p += 4; } int main(void) { int v = 1; bump(&v); return v; }", 5, ""),
    ("int main(void) { long big = 1; int i; for (i = 0; i < 40; i++) big *= 2; return big > 0; }", 1, ""),
    ("int main(void) { int v = 0x7FFFFFFF; v = v + 1; return v < 0; }", 1, ""),  # wraparound
]


@pytest.mark.parametrize("text,code,out", CASES)
def test_program_semantics(text, code, out):
    result = run(text)
    assert result.status == "ok", result
    assert result.return_code == code & 0xFF
    assert result.output == out


class TestRuntimeBehaviour:
    def test_abort_is_reported(self):
        result = run("int main(void) { abort(); return 0; }")
        assert result.status == "abort"

    def test_exit_sets_code(self):
        result = run("int main(void) { exit(3); return 9; }")
        assert result.status == "ok" and result.return_code == 3

    def test_division_by_zero_traps(self):
        result = run("int main(void) { int z = 0; return 4 / z; }")
        assert result.status == "trap"

    def test_out_of_bounds_traps(self):
        result = run("int main(void) { int a[2]; return a[7]; }")
        assert result.status == "trap"

    def test_infinite_loop_times_out(self):
        result = run("int main(void) { while (1) { } return 0; }", fuel=5_000)
        assert result.status == "timeout"

    def test_malloc_and_free(self):
        result = run(
            "int main(void) { int *p = malloc(8); *p = 6; int v = *p; "
            "free(p); return v; }"
        )
        assert result.return_code == 6

    def test_memset_and_memcpy(self):
        result = run(
            "char a[4]; char b[4];\n"
            "int main(void) { memset(a, 65, 3); memcpy(b, a, 4); "
            "printf(\"%s\", b); return 0; }"
        )
        assert result.output == "AAA"

    def test_wild_pointer_traps(self):
        result = run("int main(void) { int *p = 0; return *p; }")
        assert result.status == "trap"


def _deeper(frames, fn, *args):
    """``fn(*args)`` called ``frames`` Python frames deeper."""
    if frames == 0:
        return fn(*args)
    return _deeper(frames - 1, fn, *args)


class TestCallDepthBound:
    """Whether a program overflows its stack depends on the program, not on
    how deep the interpreter's caller already is."""

    _COUNT_DOWN = (
        "int f(int n) { if (n == 0) return 0; return 1 + f(n - 1); }\n"
        "int main(void) { return f(3); }\n"
    )

    def _module(self):
        unit = parse(self._COUNT_DOWN)
        sema = Sema()
        sema.analyze(unit)
        return IRGen(sema, CoverageMap()).lower(unit)

    def test_outcome_independent_of_stack_depth(self):
        module = self._module()

        def count_down(n):
            return Interpreter(module, fuel=10_000_000).run("f", [n]).observable

        for n in range(1, 2 * MAX_CALL_DEPTH + 1):
            assert count_down(n) == _deeper(300, count_down, n), n

    def test_past_the_bound_is_a_stack_overflow(self):
        module = self._module()
        # f(n) makes n nested calls below itself.
        inside = Interpreter(module).run("f", [MAX_CALL_DEPTH])
        assert inside.observable == ("ok", MAX_CALL_DEPTH & 0xFF, "")
        past = Interpreter(module).run("f", [MAX_CALL_DEPTH + 1])
        assert past.observable == ("trap", 139, "")
        assert past.reason == "stack overflow"
