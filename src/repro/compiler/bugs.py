"""The seeded-bug registry for the simulated compilers.

Each :class:`BugSpec` is a latent defect: a module, a consequence (assertion
failure / segfault / hang — Table 6's 85%/7%/8% mix), a pair of synthetic
stack frames (the dedup key of §5.1), and a trigger predicate over the
feature vector of :mod:`repro.compiler.features` plus the per-stage pipeline
statistics.

Five bugs are modelled directly on the paper's case studies; the remainder is
a synthetic population generated deterministically so that the campaign
reproduces the module/tooling distribution of Tables 4 and 6:

* *malformed-input* front-end bugs fire on lexically broken inputs — the
  surface a byte-level fuzzer like AFL++ reaches;
* *valid-edge* front-end bugs fire on odd-but-valid constructs that GrayC's
  five mutators can also produce;
* middle/back-end bugs require conjunctions of mutation fingerprints that
  effectively only stacked semantic-aware mutations produce.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.compiler.crash import CompilerCrash, CompilerHang, StackFrame

MODULES = ("front-end", "ir-gen", "optimization", "back-end")

Predicate = Callable[[dict], bool]


@dataclass(frozen=True)
class BugSpec:
    bug_id: str
    compiler: str  # "gcc-sim" | "clang-sim"
    module: str
    kind: str  # "assert" | "segfault" | "hang"
    description: str
    predicate: Predicate
    frames: tuple[str, str]
    #: Checkpoint at which the predicate is evaluated ("" = end of module).
    point: str = ""
    min_opt: int = 0
    require_flags: tuple[str, ...] = ()

    def fire(self, features: dict) -> None:
        """Raise the crash/hang if the trigger condition holds."""
        if features.get("opt_level", 0) < self.min_opt:
            return
        flags = features.get("flags", ())
        if any(fl not in flags for fl in self.require_flags):
            return
        if not self.predicate(features):
            return
        if self.kind == "hang":
            raise CompilerHang(self.bug_id, self.module, self.description)
        # CRC32, not hash(): synthetic PCs must be identical across
        # processes (fabric workers) and runs, or crash signatures would not
        # deduplicate consistently.
        frames = [
            StackFrame(self.frames[0], 0x10 * (zlib.crc32(self.bug_id.encode()) % 4096)),
            StackFrame(self.frames[1], 0x8 * (zlib.crc32(self.bug_id[::-1].encode()) % 4096)),
            StackFrame(
                "internal_error" if self.compiler == "gcc-sim" else "llvm::report_error",
                0,
            ),
        ]
        raise CompilerCrash(
            self.bug_id,
            self.module,
            self.description,
            frames,
            kind="segfault" if self.kind == "segfault" else "assert",
        )


def _ge(key: str, threshold: int) -> Predicate:
    return lambda f: f.get(key, 0) >= threshold


def _all(*preds: Predicate) -> Predicate:
    return lambda f: all(p(f) for p in preds)


# ---------------------------------------------------------------------------
# Case-study bugs (§2, §5.2, §5.3)
# ---------------------------------------------------------------------------

CASE_STUDY_BUGS = [
    BugSpec(
        "clang-63762",
        "clang-sim",
        "back-end",
        "assert",
        "Ret2V mutant: a void function whose label blocks became empty when "
        "its returns were removed trips branch-through-cleanup emission "
        "(Clang #63762).",
        _ge("ret2v_shape", 1),
        ("clang::CodeGen::EmitBranchThroughCleanup", "llvm::BasicBlock::eraseFromParent"),
    ),
    BugSpec(
        "gcc-111820",
        "gcc-sim",
        "optimization",
        "hang",
        "Loop vectorizer freezes computing the iteration count of a loop "
        "counting down from zero (GCC #111820; -O3 -fno-tree-vrp).",
        _all(
            _ge("vect_downward_zero_trip", 1),
            _ge("vect_global_store_chain", 1),
        ),
        ("vect_analyze_loop", "number_of_iterations_exit"),
        point="opt:loop_vectorize:trip_count",
        min_opt=3,
        require_flags=("-fno-tree-vrp",),
    ),
    BugSpec(
        "gcc-111819",
        "gcc-sim",
        "ir-gen",
        "assert",
        "__imag/& applied through a casted pointer-arithmetic expression is "
        "mishandled by fold_offsetof (GCC #111819).",
        _all(_ge("addr_of_imag", 1), _ge("char_ptr_cast", 1), _ge("deref_of_cast", 1)),
        ("fold_offsetof", "gimplify_expr"),
    ),
    BugSpec(
        "clang-69213",
        "clang-sim",
        "front-end",
        "segfault",
        "StructToInt mutant: a scalar compound literal with a nested brace "
        "initializer reaches a non-existent AST node (Clang #69213).",
        _ge("scalar_compound_literal_nested", 1),
        ("clang::Sema::BuildCompoundLiteralExpr", "clang::InitListChecker::CheckScalar"),
    ),
    BugSpec(
        "gcc-strlen-verify-range",
        "gcc-sim",
        "optimization",
        "assert",
        "sprintf(buf, \"%s\", buf) on a const/volatile global builds an "
        "invalid memory range in the strlen pass (verify_range ICE, §5.2).",
        _all(_ge("strlen_same_object", 1), _ge("strlen_src_qualified", 1)),
        ("verify_range", "strlen_pass::handle_builtin_sprintf"),
        point="opt:strlen_opt:verify_range",
        min_opt=2,
    ),
]

#: Two loop-misoptimization bugs reachable by deeply nested counting loops —
#: the territory YARPGen's loop-focused generation policies explore (§5.2
#: attributes YARPGen's two unique crashes to exactly this design focus).
LOOP_OPT_BUGS = [
    BugSpec(
        "gcc-loopopt-nest",
        "gcc-sim",
        "optimization",
        "assert",
        "Deeply nested counting loops over global arrays break the loop "
        "interchange profitability model.",
        _all(_ge("loop_nest_depth", 4), _ge("global_arrays", 2)),
        ("tree_loop_interchange", "loop_cand::analyze_iloop_reduction_var"),
        min_opt=2,
    ),
    BugSpec(
        "clang-loopopt-nest",
        "clang-sim",
        "optimization",
        "assert",
        "Loop distribution on a 4-deep loop nest with many subscripted "
        "accesses asserts in the dependence analysis.",
        _all(_ge("loop_nest_depth", 4), _ge("subscripts", 10)),
        ("llvm::LoopDistributePass::processLoop", "llvm::DependenceInfo::depends"),
        min_opt=2,
    ),
]


# ---------------------------------------------------------------------------
# Synthetic population
# ---------------------------------------------------------------------------

#: (feature, low, high) pools per module; a synthetic bug draws a conjunction
#: of 1-3 of these with thresholds inside the given ranges.  Malformed-input
#: bugs additionally require a front-end diagnostic.
_MALFORMED_POOL = [
    ("max_paren_depth", 7, 13),
    ("max_brace_depth", 9, 15),
    ("max_ident_len", 40, 100),
    ("token_count", 1500, 6000),
    ("max_number_len", 24, 48),
    ("unterminated_literal", 1, 1),
    ("stray_char", 1, 1),
    ("unbalanced_parens", 1, 1),
    ("unbalanced_braces", 1, 1),
    ("hash_tokens", 3, 8),
    ("max_string_len", 120, 400),
]

_FE_VALID_POOL = [
    ("label_noop", 2, 4),
    ("gotos", 3, 6),
    ("const_volatile", 1, 2),
    ("cast_chain", 2, 4),
    ("attr_count", 2, 4),
    ("expr_depth", 16, 26),
    ("stmt_depth", 10, 16),
    ("literal_comparison", 2, 5),
    ("empty_else", 2, 4),
    ("adjacent_twins", 3, 6),
    ("kind_ConditionalOperator", 4, 8),
    ("switch_max_cases", 6, 10),
    ("wide_shift", 1, 2),
    ("max_params", 6, 9),
    ("self_assign", 1, 2),
    ("static_fns", 3, 5),
]

_IRGEN_POOL = [
    ("pointer_arith", 5, 10),
    ("casts", 5, 10),
    ("member_accesses", 5, 9),
    ("short_circuits", 5, 9),
    ("ternaries", 3, 6),
    ("local_statics", 2, 3),
    ("labels", 3, 5),
    ("swapped_subscript", 1, 2),
    ("deref_of_cast", 2, 4),
    ("comma_zero", 2, 4),
    ("imag_real", 2, 3),
    ("complex_vars", 1, 2),
    ("bitwise_nots", 3, 6),
    ("subscripts", 8, 14),
    ("switches", 2, 4),
    ("double_neg", 2, 4),
    ("not_not", 2, 4),
]

_OPT_POOL = [
    ("folded", 18, 40),
    ("identities", 5, 12),
    ("dce_removed", 25, 60),
    ("cse_removed", 8, 18),
    ("stores_forwarded", 8, 18),
    ("inlined", 2, 4),
    ("branches_folded", 4, 8),
    ("unreachable_removed", 6, 14),
    ("blocks_merged", 10, 20),
    ("if_zero", 2, 4),
    ("while_zero", 1, 2),
    ("xor_zero", 2, 4),
    ("add_zero", 3, 6),
    ("mul_one", 2, 4),
    ("strlen_opts", 1, 1),
    ("loops_analyzed", 3, 5),
    ("jumps_threaded", 6, 12),
]

_BACKEND_POOL = [
    ("be_spills", 3, 8),
    ("be_pressure", 8, 9),
    ("be_blocks", 22, 40),
    ("be_label_blocks", 3, 5),
    ("be_instrs", 350, 700),
    ("be_calls", 8, 14),
    ("be_empty_label_after_call", 1, 3),
]

#: Mutation fingerprints: constructs that natural seed programs essentially
#: never contain, but semantic-aware mutators routinely introduce.  Every
#: valid-input synthetic bug requires at least one of these, which is what
#: makes the deep bug population reachable by μCFuzz but not by generators
#: that only emit natural code (Csmith's saturation, §5.2).
_FINGERPRINT_POOL = [
    ("double_neg", 1, 3),
    ("not_not", 1, 3),
    ("bnot_bnot", 1, 2),
    ("xor_zero", 1, 3),
    ("comma_zero", 1, 2),
    ("if_zero", 1, 3),
    ("if_const_true", 1, 3),
    ("while_zero", 1, 1),
    ("do_while_zero", 1, 2),
    ("label_noop", 3, 5),
    ("swapped_subscript", 1, 2),
    ("deref_of_cast", 1, 2),
    ("cast_chain", 1, 2),
    ("const_volatile", 1, 1),
    ("self_assign", 1, 2),
    ("empty_else", 1, 2),
    ("adjacent_twins", 2, 4),
    ("wide_shift", 1, 2),
    ("add_zero", 2, 4),
    ("mul_one", 1, 3),
    ("literal_comparison", 1, 3),
    ("char_ptr_cast", 1, 2),
]

_FRAME_NAMES = {
    ("gcc-sim", "front-end"): ["c_parser_expression", "c_parser_statement",
                               "lookahead_token", "c_lex_with_flags",
                               "pp_token", "declspecs_add_type"],
    ("gcc-sim", "ir-gen"): ["gimplify_expr", "gimplify_modify_expr",
                            "fold_binary_loc", "build2_loc", "fold_convert_loc",
                            "create_tmp_var"],
    ("gcc-sim", "optimization"): ["tree_ssa_dominator_optimize", "vn_reference_lookup",
                                  "propagate_value", "simplify_rhs_and_lookup_avail_expr",
                                  "vect_analyze_loop", "ipa_inline"],
    ("gcc-sim", "back-end"): ["expand_expr_real_1", "emit_move_insn",
                              "lra_assign", "final_scan_insn"],
    ("clang-sim", "front-end"): ["clang::Parser::ParseStatement",
                                 "clang::Sema::ActOnBinOp",
                                 "clang::Lexer::LexTokenInternal",
                                 "clang::Parser::ParseCastExpression",
                                 "clang::Sema::CheckAssignmentConstraints",
                                 "clang::Parser::ParseDeclGroup"],
    ("clang-sim", "ir-gen"): ["clang::CodeGen::CodeGenFunction::EmitScalarExpr",
                              "clang::CodeGen::CodeGenFunction::EmitLValue",
                              "clang::CodeGen::CGExprAgg::VisitInitListExpr",
                              "clang::CodeGen::EmitCompoundStmt",
                              "llvm::IRBuilder::CreateGEP"],
    ("clang-sim", "optimization"): ["llvm::InstCombiner::visitICmpInst",
                                    "llvm::SimplifyCFGOpt::run",
                                    "llvm::GVNPass::processInstruction",
                                    "llvm::LoopVectorizationPlanner::plan"],
    ("clang-sim", "back-end"): ["llvm::SelectionDAGISel::SelectCodeCommon",
                                "llvm::RegAllocFast::allocateInstruction",
                                "llvm::AsmPrinter::emitFunctionBody",
                                "clang::CodeGen::EmitBranchThroughCleanup"],
}

#: How many synthetic bugs to seed per compiler/module/trigger-surface.
_SYNTH_PLAN = {
    # compiler: (fe_malformed, fe_valid, irgen, opt, backend)
    "clang-sim": (12, 18, 26, 10, 13),
    "gcc-sim": (10, 8, 18, 13, 3),
}


def _synth_bugs(seed: int = 20240427) -> list[BugSpec]:
    rng = random.Random(seed)
    bugs: list[BugSpec] = []
    for compiler, (n_mal, n_valid, n_ir, n_opt, n_be) in sorted(
        _SYNTH_PLAN.items()
    ):
        plans = [
            ("front-end", _MALFORMED_POOL, n_mal, True),
            ("front-end", _FE_VALID_POOL, n_valid, False),
            ("ir-gen", _IRGEN_POOL, n_ir, False),
            ("optimization", _OPT_POOL, n_opt, False),
            ("back-end", _BACKEND_POOL, n_be, False),
        ]
        for module, pool, count, needs_diag in plans:
            for i in range(count):
                conds = []
                names = []
                if needs_diag:
                    picks = rng.sample(pool, rng.choice([1, 2, 2, 3]))
                    conds.append(_ge("parse_failed", 1))
                    surface = "malformed"
                else:
                    # One mutation fingerprint + 0-2 structural conditions.
                    fp_count = rng.choice([1, 1, 1, 2])
                    picks = rng.sample(_FINGERPRINT_POOL, fp_count)
                    picks += rng.sample(pool, rng.choice([0, 1, 1, 2]))
                    conds.append(lambda f: not f.get("parse_failed", 0))
                    surface = "valid"
                for key, lo, hi in picks:
                    threshold = rng.randint(lo, hi)
                    conds.append(_ge(key, threshold))
                    names.append(f"{key}>={threshold}")
                kind = rng.choices(
                    ["assert", "segfault", "hang"], weights=[85, 7, 8]
                )[0]
                frames = rng.sample(_FRAME_NAMES[(compiler, module)], 2)
                min_opt = 0
                if module == "optimization":
                    min_opt = rng.choice([1, 1, 2, 2, 3])
                bug_id = f"{compiler.split('-')[0]}-{module[:2]}-{surface[:3]}-{i:03d}"
                bugs.append(
                    BugSpec(
                        bug_id,
                        compiler,
                        module,
                        kind,
                        f"synthetic {surface} {module} bug: "
                        + " && ".join(names),
                        _all(*conds),
                        (frames[0], frames[1]),
                        min_opt=min_opt,
                    )
                )
    return bugs


@dataclass
class BugRegistry:
    """All seeded bugs of one compiler personality."""

    compiler: str
    bugs: list[BugSpec] = field(default_factory=list)

    @classmethod
    def for_compiler(cls, compiler: str, seed: int = 20240427) -> "BugRegistry":
        bugs = [b for b in CASE_STUDY_BUGS if b.compiler == compiler]
        bugs += [b for b in LOOP_OPT_BUGS if b.compiler == compiler]
        bugs += [b for b in _synth_bugs(seed) if b.compiler == compiler]
        return cls(compiler, bugs)

    def by_module(self) -> dict[str, int]:
        out = {m: 0 for m in MODULES}
        for b in self.bugs:
            out[b.module] += 1
        return out

    def check(self, point: str, features: dict) -> None:
        """Fire any bug bound to this checkpoint whose trigger holds."""
        for bug in self.bugs:
            if bug.point == point or (not bug.point and point.startswith(bug.module)):
                bug.fire(features)
