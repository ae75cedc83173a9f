"""System-wide property-based tests (hypothesis)."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.mutators  # noqa: F401
from repro.cast.parser import ParseError, parse
from repro.cast.sema import Sema
from repro.compiler import Compiler, GCC_SIM
from repro.compiler.coverage import CoverageMap
from repro.compiler.interp import execute
from repro.compiler.irgen import IRGen
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
from repro.muast import apply_mutator
from repro.muast.mutator import MutatorCrash, MutatorHang
from repro.muast.registry import global_registry

_GCC = Compiler(*GCC_SIM)
_NAMES = global_registry.names()


def _gen(seed, **kw):
    return ProgramGenerator(random.Random(seed), GenPolicy(**kw)).generate()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1 << 30), st.integers(0, 117))
def test_mutators_raise_only_mutator_errors(seed, index):
    """On compilable input, a library mutator either mutates, declines, or
    raises a documented mutator error — never an arbitrary exception."""
    program = _gen(seed, max_stmts=5)
    info = global_registry.get(_NAMES[index])
    try:
        outcome = apply_mutator(info.create(random.Random(seed)), program)
    except (MutatorCrash, MutatorHang):
        return
    if outcome.changed:
        assert outcome.mutant_text is not None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1 << 30))
def test_compile_is_deterministic(seed):
    program = _gen(seed, max_stmts=5)
    a = _GCC.compile(program)
    b = _GCC.compile(program)
    assert a.ok == b.ok
    assert a.coverage.edges == b.coverage.edges
    assert a.asm == b.asm


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1 << 30))
def test_coverage_merge_is_monotone(seed):
    cov = CoverageMap()
    sizes = []
    for i in range(3):
        result = _GCC.compile(_gen(seed + i, max_stmts=4))
        cov.merge(result.coverage)
        sizes.append(len(cov))
    assert sizes == sorted(sizes)


#: Interpreter fuel per run of the -O3 property below.
_FUEL = 250_000


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1 << 30))
@example(15393)  # the unoptimized lowering needs more than _FUEL steps
def test_optimized_execution_matches_interpreted_source(seed):
    """The whole truth: generated program → -O3 compile → interp equals
    the unoptimized lowering's behaviour.

    The unoptimized lowering can need more steps than the -O3 module, so
    when either run times out both run again at ten times the fuel and
    those two are compared; a run that still times out fails as before.
    """
    program = _gen(seed, max_stmts=5)
    unit = parse(program)
    sema = Sema()
    assert not [d for d in sema.analyze(unit) if d.severity == "error"]
    baseline_module = IRGen(sema, CoverageMap()).lower(unit)
    optimized = _GCC.compile(program, opt_level=3)
    assert optimized.ok
    runs = [execute(m, fuel=_FUEL) for m in (baseline_module, optimized.module)]
    if any(run.status == "timeout" for run in runs):
        runs = [
            execute(m, fuel=10 * _FUEL)
            for m in (baseline_module, optimized.module)
        ]
    baseline, optimized_run = runs
    assert optimized_run.observable == baseline.observable


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 1 << 30), st.integers(0, 117))
def test_mutant_of_mutant_remains_analyzable(seed, index):
    """Second-order mutants still go through the front end without
    non-diagnostic failures (parse errors are fine; crashes are not)."""
    rng = random.Random(seed)
    text = _gen(seed, max_stmts=4)
    for step in range(2):
        info = global_registry.get(_NAMES[(index + step * 31) % 118])
        try:
            outcome = apply_mutator(info.create(rng), text)
        except (MutatorCrash, MutatorHang):
            continue
        if outcome.changed and outcome.mutant_text:
            text = outcome.mutant_text
    result = _GCC.compile(text)
    assert result.ok or result.diagnostics or result.crashed


@settings(max_examples=25, deadline=None)
@given(
    st.text(
        alphabet=st.sampled_from(list("intvoidmare(){};=+-*/<>!&|^%#\"'0123456789 \n")),
        max_size=200,
    )
)
def test_compiler_never_raises_on_garbage(text):
    """The driver's contract: any input yields ok/diagnostics/crash —
    Python-level exceptions never escape."""
    result = _GCC.compile(text)
    # The real assertion is that .compile() returned at all; sanity-check
    # the result invariants (an empty translation unit compiles to empty asm):
    if result.ok:
        assert result.module is not None
    if result.crash is not None:
        assert result.crash.module in (
            "front-end", "ir-gen", "optimization", "back-end"
        )
