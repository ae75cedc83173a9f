"""Structural feature extraction for seeded-bug triggers.

Bug triggers are conjunctions over a feature vector describing the program
being compiled.  The vector combines lexical statistics (available even for
malformed inputs — the AFL++-reachable surface), AST "mutation fingerprints"
(patterns that natural seed programs essentially never contain but
semantic-aware mutators routinely produce), and the per-module statistics the
pipeline stages accumulate.
"""

from __future__ import annotations

from collections import Counter

from repro.cast import ast_nodes as ast
from repro.cast.lexer import TOKEN_KINDS, Lexer, LexError, TokenColumns, TokenKind
from repro.cast.sema import fold_int
from repro.cast.source import SourceFile


def lexical_features(
    text: str, lexed: "TokenColumns | LexError | None" = None
) -> dict[str, int]:
    """Features computable from raw text/tokens (even for garbage input).

    ``lexed`` is what lexing ``text`` gave, when the caller already has it:
    the token columns, or the :class:`LexError` lexing stopped at.  With
    None, ``text`` is lexed here.
    """
    f: Counter = Counter()
    f["text_len"] = len(text)
    depth = brace = max_depth = max_brace = 0
    if lexed is None:
        try:
            lexed = TokenColumns.of(Lexer(SourceFile(text)).tokens())
        except LexError as exc:
            lexed = exc
    if isinstance(lexed, LexError):
        f["lex_error"] = 1
        if "unterminated" in lexed.message:
            f["unterminated_literal"] = 1
        if "stray" in lexed.message:
            f["stray_char"] = 1
        # Fall back to character statistics.
        f["max_paren_depth"] = _char_depth(text, "(", ")")
        f["max_brace_depth"] = _char_depth(text, "{", "}")
        f["token_count"] = len(text.split())
        return dict(f)
    f["token_count"] = len(lexed)
    for index, tok_text in zip(lexed.kinds, lexed.texts):
        kind = TOKEN_KINDS[index]
        if kind is TokenKind.IDENT:
            f["max_ident_len"] = max(f["max_ident_len"], len(tok_text))
        elif kind is TokenKind.INT_LITERAL:
            f["max_number_len"] = max(f["max_number_len"], len(tok_text))
        elif kind is TokenKind.STRING_LITERAL:
            f["string_count"] += 1
            f["max_string_len"] = max(f["max_string_len"], len(tok_text))
        elif kind is TokenKind.PUNCT:
            if tok_text == "(":
                depth += 1
                max_depth = max(max_depth, depth)
            elif tok_text == ")":
                depth -= 1
            elif tok_text == "{":
                brace += 1
                max_brace = max(max_brace, brace)
            elif tok_text == "}":
                brace -= 1
            elif tok_text == "#":
                f["hash_tokens"] += 1
            elif tok_text == ";":
                f["semicolons"] += 1
    f["max_paren_depth"] = max_depth
    f["max_brace_depth"] = max_brace
    f["unbalanced_parens"] = int(depth != 0)
    f["unbalanced_braces"] = int(brace != 0)
    return dict(f)


def _char_depth(text: str, open_ch: str, close_ch: str) -> int:
    depth = best = 0
    for ch in text:
        if ch == open_ch:
            depth += 1
            best = max(best, depth)
        elif ch == close_ch:
            depth = max(depth - 1, 0)
    return best


def _unparen(expr: ast.Expr) -> ast.Expr:
    while isinstance(expr, ast.ParenExpr):
        expr = expr.inner
    return expr


#: Feature keys combined by ``max()`` when merging per-declaration vectors;
#: every other key is additive.  Keeping this in sync with
#: :func:`decl_ast_features` is what makes the per-decl decomposition exact.
AST_MAX_FEATURES = frozenset(
    {"switch_max_cases", "max_params", "expr_depth", "stmt_depth",
     "loop_nest_depth"}
)

#: Depth keys are reported even for empty units (the monolithic walk always
#: set them).
_DEPTH_FEATURES = ("expr_depth", "stmt_depth", "loop_nest_depth")


def ast_features(
    unit: ast.TranslationUnit, source_text: str | None = None
) -> dict[str, int]:
    """Mutation-fingerprint features over a successfully parsed unit.

    Computed per top-level declaration and merged, so the incremental front
    end can reuse the unchanged declarations' vectors verbatim.
    """
    return merge_ast_features(
        decl_ast_features(decl, source_text) for decl in unit.decls
    )


def merge_ast_features(per_decl) -> dict[str, int]:
    """Combine per-declaration vectors into the whole-unit vector."""
    f: dict[str, int] = {"kind_TranslationUnit": 1}
    for d in per_decl:
        for k, v in d.items():
            if k in AST_MAX_FEATURES:
                f[k] = max(f.get(k, 0), v)
            else:
                f[k] = f.get(k, 0) + v
    for k in _DEPTH_FEATURES:
        f.setdefault(k, 0)
    return f


def decl_ast_features(
    decl: ast.Node, source_text: str | None = None, nodes=None
) -> dict[str, int]:
    """One top-level declaration's contribution to :func:`ast_features`.

    Pure over the decl subtree (node kinds, operators, range *lengths* and
    intra-decl text slices), so it is invariant under the uniform offset
    shift the incremental front end applies to grafted declarations.
    ``nodes`` optionally supplies the decl's pre-order walk, letting the
    caller share one traversal across passes.
    """
    f: Counter = Counter()
    compounds: list[ast.CompoundStmt] = []
    for node in nodes if nodes is not None else decl.walk():
        f[f"kind_{node.kind}"] += 1
        if isinstance(node, ast.CompoundStmt):
            compounds.append(node)
        if isinstance(node, ast.UnaryOperator):
            inner = _unparen(node.operand)
            if node.op == "-" and isinstance(inner, ast.UnaryOperator) and inner.op == "-":
                f["double_neg"] += 1
            if node.op == "!" and isinstance(inner, ast.UnaryOperator) and inner.op == "!":
                f["not_not"] += 1
            if node.op == "~" and isinstance(inner, ast.UnaryOperator) and inner.op == "~":
                f["bnot_bnot"] += 1
            if node.op in ("__imag", "__real"):
                f["imag_real"] += 1
                if isinstance(inner, (ast.UnaryOperator, ast.CastExpr)):
                    f["imag_of_indirect"] += 1
            if node.op == "&" and isinstance(inner, ast.UnaryOperator) and (
                inner.op in ("__imag", "__real")
            ):
                f["addr_of_imag"] += 1
            if node.op == "*" and isinstance(inner, ast.CastExpr):
                f["deref_of_cast"] += 1
        elif isinstance(node, ast.BinaryOperator):
            lhs, rhs = _unparen(node.lhs), _unparen(node.rhs)
            if node.op == "^" and _is_zero(rhs):
                f["xor_zero"] += 1
            if node.op in ("+", "-") and _is_zero(rhs):
                f["add_zero"] += 1
            if node.op == "*" and _is_literal(rhs, 1):
                f["mul_one"] += 1
            if node.op == "," and _is_zero(lhs):
                f["comma_zero"] += 1
            if node.op in ast.COMPARISON_OPS and (
                isinstance(lhs, ast.IntegerLiteral)
                and isinstance(rhs, ast.IntegerLiteral)
            ):
                f["literal_comparison"] += 1
            if node.op == "=" and _same_ref(lhs, rhs):
                f["self_assign"] += 1
            if node.op in ("<<", ">>") and isinstance(rhs, ast.IntegerLiteral) and (
                rhs.value >= 32
            ):
                f["wide_shift"] += 1
            if node.op in ("/", "%") and _is_zero(rhs):
                f["div_by_zero_literal"] += 1
        elif isinstance(node, ast.IfStmt):
            folded = fold_int(node.cond)
            if folded == 0:
                f["if_zero"] += 1
            elif folded is not None:
                f["if_const_true"] += 1
            if isinstance(node.else_branch, ast.NullStmt) or (
                isinstance(node.else_branch, ast.CompoundStmt)
                and all(
                    isinstance(s, ast.NullStmt) for s in node.else_branch.stmts
                )
            ):
                f["empty_else"] += 1
        elif isinstance(node, ast.WhileStmt):
            if fold_int(node.cond) == 0:
                f["while_zero"] += 1
        elif isinstance(node, ast.DoStmt):
            if fold_int(node.cond) == 0:
                f["do_while_zero"] += 1
        elif isinstance(node, ast.LabelStmt):
            f["labels"] += 1
            if isinstance(node.stmt, ast.NullStmt):
                f["label_noop"] += 1
        elif isinstance(node, ast.GotoStmt):
            f["gotos"] += 1
        elif isinstance(node, ast.CastExpr):
            inner = _unparen(node.operand)
            if isinstance(inner, ast.CastExpr):
                f["cast_chain"] += 1
            if node.type_text.replace(" ", "") == "char*":
                f["char_ptr_cast"] += 1
            if node.target_type.is_pointer():
                f["ptr_casts"] += 1
        elif isinstance(node, ast.CompoundLiteralExpr):
            if node.target_type.is_scalar() and any(
                isinstance(i, ast.InitListExpr) for i in node.init.inits
            ):
                f["scalar_compound_literal_nested"] += 1
        elif isinstance(node, ast.ArraySubscriptExpr):
            base = _unparen(node.base)
            if base.type is not None and base.type.is_integer():
                f["swapped_subscript"] += 1
        elif isinstance(node, ast.VarDecl):
            if node.type.const and node.type.volatile:
                f["const_volatile"] += 1
            if node.type.is_complex():
                f["complex_vars"] += 1
        elif isinstance(node, ast.SwitchStmt):
            f["switch_max_cases"] = max(f["switch_max_cases"], len(node.cases()))
        elif isinstance(node, ast.FunctionDecl):
            f["max_params"] = max(f["max_params"], len(node.params))
            f["attr_count"] += len(node.attributes)
            if node.storage == "static":
                f["static_fns"] += 1
        elif isinstance(node, ast.CallExpr):
            names = []
            for arg in node.args:
                a = _unparen(arg)
                if isinstance(a, ast.DeclRefExpr):
                    names.append(a.name)
            if len(names) != len(set(names)):
                f["dup_call_args"] += 1
    f["expr_depth"], f["stmt_depth"], f["loop_nest_depth"] = _max_depths(decl)
    # Adjacent duplicate statements (DuplicateStatement fingerprints): the
    # statements must be *textually identical*, not merely similar.
    for node in compounds:
        for a, b in zip(node.stmts, node.stmts[1:]):
            if isinstance(a, ast.NullStmt) or a.kind != b.kind:
                continue
            if a.end_offset - a.begin_offset != b.end_offset - b.begin_offset:
                continue
            if source_text is not None:
                a_txt = source_text[a.begin_offset : a.end_offset]
                b_txt = source_text[b.begin_offset : b.end_offset]
                if a_txt != b_txt:
                    continue
            f["adjacent_twins"] += 1
    return dict(f)


def _is_zero(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.IntegerLiteral) and expr.value == 0


def _is_literal(expr: ast.Expr, value: int) -> bool:
    return isinstance(expr, ast.IntegerLiteral) and expr.value == value


def _same_ref(a: ast.Expr, b: ast.Expr) -> bool:
    return (
        isinstance(a, ast.DeclRefExpr)
        and isinstance(b, ast.DeclRefExpr)
        and a.name == b.name
    )


def _max_depth(root: ast.Node, cls) -> int:
    best = 0

    def walk(node: ast.Node, depth: int) -> None:
        nonlocal best
        d = depth + 1 if isinstance(node, cls) else depth
        best = max(best, d)
        for child in node.children():
            walk(child, d)

    walk(root, 0)
    return best


_LOOP_STMTS = (ast.ForStmt, ast.WhileStmt, ast.DoStmt)


def _max_depths(root: ast.Node) -> tuple[int, int, int]:
    """(expr, stmt, loop-nest) nesting depths, in one traversal.

    Equivalent to three ``_max_depth`` calls over ``Expr``, ``Stmt``, and
    the loop statements, fused for the feature-extraction hot path.
    """
    best_e = best_s = best_l = 0
    stack: list[tuple[ast.Node, int, int, int]] = [(root, 0, 0, 0)]
    while stack:
        node, de, ds, dl = stack.pop()
        if isinstance(node, ast.Expr):
            de += 1
            if de > best_e:
                best_e = de
        if isinstance(node, ast.Stmt):
            ds += 1
            if ds > best_s:
                best_s = ds
        if isinstance(node, _LOOP_STMTS):
            dl += 1
            if dl > best_l:
                best_l = dl
        for child in node.children():
            stack.append((child, de, ds, dl))
    return best_e, best_s, best_l
