"""Function mutators (19).

Includes the paper's walkthrough mutator ``ModifyFunctionReturnTypeToVoid``
(Ret2V, Figures 3-5 and the Clang #63762 bug) and the "creative" examples
``SimpleUninliner`` and ``InlineSimpleFunction``.
"""

from __future__ import annotations

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.cast.source import SourceRange
from repro.muast import ASTVisitor, Mutator, register_mutator
from repro.mutators.common import (
    address_taken,
    call_sites_of,
    contains_label_or_case,
    loose_breaks,
    shared_parent_map,
    references_only_globals,
)


def _definitions(m: Mutator) -> list[ast.FunctionDecl]:
    return m.get_ast_context().function_definitions()


def _decls_named(m: Mutator, name: str) -> list[ast.FunctionDecl]:
    return [
        d
        for d in m.get_ast_context().unit.decls
        if isinstance(d, ast.FunctionDecl) and d.name == name
    ]


def _has_separate_prototype(m: Mutator, fn: ast.FunctionDecl) -> bool:
    return len(_decls_named(m, fn.name)) > 1


def _rewritable_function(m: Mutator, fn: ast.FunctionDecl) -> bool:
    """A definition whose signature we may change without desync."""
    if fn.name == "main" or fn.body is None:
        return False
    if _has_separate_prototype(m, fn) or address_taken(m, fn.name):
        return False
    return all(
        len(c.args) == len(fn.params) for c in call_sites_of(m, fn.name)
    )


def _storage_prefix(fn: ast.FunctionDecl) -> str:
    return f"{fn.storage} " if fn.storage else ""


@register_mutator(
    "ModifyFunctionReturnTypeToVoid",
    "Change a function's return type to void, remove all return statements, "
    "and replace all uses of the function's result with a default value.",
    category="Function", origin="supervised", creative=True,
    action="Modify", structure="FunctionReturnType",
)
class ModifyFunctionReturnTypeToVoid(Mutator, ASTVisitor):
    """The paper's Ret2V mutator (Figure 4's fixed version)."""

    def __init__(self, rng=None) -> None:
        super().__init__(rng)
        self.func_returns: dict[int, list[ast.ReturnStmt]] = {}
        self.func_calls: dict[str, list[ast.CallExpr]] = {}
        self.the_functions: list[ast.FunctionDecl] = []

    def mutate(self) -> bool:
        ctx = self.get_ast_context()
        for fn in _definitions(self):
            if fn.return_type.is_void() or fn.name == "main":
                continue
            if not fn.return_type.is_scalar():
                continue
            if address_taken(self, fn.name) or _has_separate_prototype(self, fn):
                continue
            self.the_functions.append(fn)
            assert fn.body is not None
            self.func_returns[id(fn)] = [
                n for n in fn.body.walk() if isinstance(n, ast.ReturnStmt)
            ]
            self.func_calls[fn.name] = call_sites_of(self, fn.name)
        if not self.the_functions:
            return False
        func = self.rand_element(self.the_functions)

        # Change the return type to void.
        void_decl = f"{_storage_prefix(func)}void"
        self.replace_text(func.return_type_range, void_decl)

        # Remove all return statements (of this function only — the bug GPT-4
        # fixed in the paper's refinement round).
        for ret in self.func_returns[id(func)]:
            self.replace_text(ret.range, ";")

        # Replace all calls with a default value of the old result type.
        replace_text = self.default_value_for(func.return_type)
        for call in self.func_calls[func.name]:
            self.replace_text(call.range, replace_text)
        return True


@register_mutator(
    "SimpleUninliner",
    "Turn a block of code into a function call.",
    category="Function", origin="supervised", creative=True,
    action="Lift", structure="CompoundStmt",
)
class SimpleUninliner(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        parents = shared_parent_map(self)
        candidates = []
        for block in self.collect(ast.CompoundStmt):
            assert isinstance(block, ast.CompoundStmt)
            if isinstance(parents.get(id(block)), ast.FunctionDecl):
                continue
            if not block.stmts or contains_label_or_case(block):
                continue
            if loose_breaks(block):
                continue
            if any(isinstance(n, ast.ReturnStmt) for n in block.walk()):
                continue
            if not references_only_globals(self, block):
                continue
            fn = self.enclosing_function(block)
            if fn is None:
                continue
            candidates.append((block, fn))
        if not candidates:
            return False
        block, fn = self.rand_element(candidates)
        name = self.generate_unique_name("uninlined")
        body = self.get_source_text(block)
        ok = self.insert_text_before(
            fn.range.begin, f"static void {name}(void) {body}\n"
        )
        return self.replace_text(block.range, f"{{ {name}(); }}") and ok


@register_mutator(
    "InlineSimpleFunction",
    "This mutator inlines a call to a zero-argument function whose body is "
    "a single return of a global-only expression.",
    category="Function", origin="supervised", creative=True,
    action="Inline", structure="CallExpr",
)
class InlineSimpleFunction(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for fn in _definitions(self):
            assert fn.body is not None
            if fn.params or fn.return_type.is_void():
                continue
            if len(fn.body.stmts) != 1:
                continue
            only = fn.body.stmts[0]
            if not isinstance(only, ast.ReturnStmt) or only.expr is None:
                continue
            if not references_only_globals(self, only.expr):
                continue
            for call in call_sites_of(self, fn.name):
                if not call.args:
                    instances.append((call, only.expr))
        if not instances:
            return False
        call, expr = self.rand_element(instances)
        return self.replace_text(call.range, f"({self.get_source_text(expr)})")


@register_mutator(
    "AddUnusedParameter",
    "This mutator adds an unused parameter to a function and passes a "
    "default argument at every call site.",
    category="Function", origin="supervised",
    action="Add", structure="ParmVarDecl",
)
class AddUnusedParameter(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [f for f in _definitions(self) if _rewritable_function(self, f)]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        assert fn.lparen_loc is not None and fn.rparen_loc is not None
        fresh = self.generate_unique_name("extra")
        if fn.params:
            ok = self.insert_text_before(fn.rparen_loc, f", int {fresh}")
        else:
            inner = SourceRange(fn.lparen_loc.advanced(1), fn.rparen_loc)
            ok = self.replace_text(inner, f"int {fresh}")
        for call in call_sites_of(self, fn.name):
            assert call.rparen_loc is not None
            arg = ", 0" if call.args else "0"
            ok = self.insert_text_before(call.rparen_loc, arg) and ok
        return ok


@register_mutator(
    "RemoveUnusedParameter",
    "This mutator removes a parameter that the function body never uses, "
    "dropping the matching argument at every call site.",
    category="Function", origin="supervised",
    action="Destruct", structure="ParmVarDecl",
)
class RemoveUnusedParameter(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for fn in _definitions(self):
            if not _rewritable_function(self, fn):
                continue
            assert fn.body is not None
            used = {
                id(r.decl)
                for r in fn.body.walk()
                if isinstance(r, ast.DeclRefExpr)
            }
            for i, p in enumerate(fn.params):
                if id(p) not in used and p.name:
                    instances.append((fn, i))
        if not instances:
            return False
        fn, index = self.rand_element(instances)
        ok = self.remove_parm_from_func_decl(fn, fn.params[index])
        for call in call_sites_of(self, fn.name):
            ok = self.remove_arg_from_expr(call, index) and ok
        return ok


@register_mutator(
    "ReorderFunctionParams",
    "This mutator swaps two type-identical parameters of a function and "
    "swaps the matching arguments at every call site.",
    category="Function", origin="supervised",
    action="Swap", structure="ParmVarDecl",
)
class ReorderFunctionParams(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for fn in _definitions(self):
            if not _rewritable_function(self, fn):
                continue
            for i in range(len(fn.params)):
                for j in range(i + 1, len(fn.params)):
                    if fn.params[i].type == fn.params[j].type:
                        instances.append((fn, i, j))
        if not instances:
            return False
        fn, i, j = self.rand_element(instances)
        pi, pj = fn.params[i], fn.params[j]
        pi_txt, pj_txt = self.get_source_text(pi), self.get_source_text(pj)
        ok = self.replace_text(pi.range, pj_txt)
        ok = self.replace_text(pj.range, pi_txt) and ok
        for call in call_sites_of(self, fn.name):
            ai, aj = call.args[i], call.args[j]
            ai_txt, aj_txt = self.get_source_text(ai), self.get_source_text(aj)
            ok = self.replace_text(ai.range, aj_txt) and ok
            ok = self.replace_text(aj.range, ai_txt) and ok
        return ok


@register_mutator(
    "MakeFunctionStatic",
    "This mutator gives internal linkage to a function by adding the static "
    "storage class.",
    category="Function", origin="supervised",
    action="Add", structure="FunctionDecl",
)
class MakeFunctionStatic(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            f
            for f in _definitions(self)
            if f.storage is None and f.name != "main"
            and not _has_separate_prototype(self, f)
        ]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        return self.insert_text_before(fn.return_type_range.begin, "static ")


@register_mutator(
    "ExtractReturnValueVariable",
    "This mutator extracts a return expression into a fresh local variable "
    "that is returned instead.",
    category="Function", origin="supervised", creative=True,
    action="Lift", structure="ReturnStmt",
)
class ExtractReturnValueVariable(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for fn in _definitions(self):
            if fn.return_type.is_void() or not (
                fn.return_type.is_scalar() or fn.return_type.is_record()
            ):
                continue
            assert fn.body is not None
            for node in fn.body.walk():
                if isinstance(node, ast.ReturnStmt) and node.expr is not None:
                    instances.append((fn, node))
        if not instances:
            return False
        fn, ret = self.rand_element(instances)
        assert ret.expr is not None
        fresh = self.generate_unique_name("retval")
        decl = self.format_as_decl(fn.return_type.unqualified(), fresh)
        expr = self.get_source_text(ret.expr)
        return self.replace_text(
            ret.range, f"{{ {decl} = ({expr}); return {fresh}; }}"
        )


@register_mutator(
    "ReturnEarly",
    "This mutator inserts an early return with a default value after a "
    "statement in the function body.",
    category="Function", origin="supervised",
    action="Add", structure="ReturnStmt",
)
class ReturnEarly(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for fn in _definitions(self):
            if not (fn.return_type.is_void() or fn.return_type.is_scalar()):
                continue
            assert fn.body is not None
            for stmt in fn.body.stmts:
                instances.append((fn, stmt))
        if not instances:
            return False
        fn, stmt = self.rand_element(instances)
        if fn.return_type.is_void():
            text = "return;"
        else:
            text = f"return {self.default_value_for(fn.return_type)};"
        return self.insert_after_stmt(stmt, text)


@register_mutator(
    "WrapFunctionBodyInDoWhile",
    "This mutator wraps the entire body of a function in a do-while(0) "
    "loop, changing the meaning of any top-level break.",
    category="Function", origin="supervised", creative=True,
    action="Add", structure="FunctionDecl",
)
class WrapFunctionBodyInDoWhile(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            f
            for f in _definitions(self)
            if f.body is not None and f.body.stmts
            and not any(
                isinstance(s, (ast.CaseStmt, ast.DefaultStmt))
                for s in f.body.stmts
            )
        ]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        body = fn.body
        assert body is not None
        assert body.lbrace_loc is not None and body.rbrace_loc is not None
        ok = self.insert_text_after(body.lbrace_loc.advanced(1), " do { ")
        return self.insert_text_before(body.rbrace_loc, " } while (0); ") and ok


@register_mutator(
    "AddFunctionPrototype",
    "This mutator inserts a matching prototype for a function definition at "
    "the top of the file.",
    category="Function", origin="supervised",
    action="Add", structure="FunctionDecl",
)
class AddFunctionPrototype(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = []
        for fn in _definitions(self):
            if _has_separate_prototype(self, fn) or fn.variadic:
                continue
            builtin_only = all(
                isinstance(p.type.decayed().type, (ct.BuiltinType, ct.PointerType))
                for p in fn.params
            ) and isinstance(fn.return_type.type, (ct.BuiltinType, ct.PointerType))
            if builtin_only:
                candidates.append(fn)
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        params = ", ".join(
            self.format_as_decl(p.type, p.name or "") for p in fn.params
        ) or "void"
        proto = (
            f"{_storage_prefix(fn)}"
            f"{self.format_as_decl(fn.return_type, fn.name)}({params});\n"
        )
        unit = self.get_ast_context().unit
        first = unit.decls[0] if unit.decls else fn
        return self.insert_text_before(first.range.begin, proto)


# ---------------------------------------------------------------------------
# Unsupervised (M_u) function mutators
# ---------------------------------------------------------------------------


@register_mutator(
    "DuplicateFunction",
    "This mutator duplicates an entire function definition under a fresh "
    "name.",
    category="Function", origin="unsupervised",
    action="Copy", structure="FunctionDecl",
)
class DuplicateFunction(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [f for f in _definitions(self) if f.name != "main"]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        fresh = self.generate_unique_name(fn.name)
        text = self.get_source_text(fn)
        name_off = fn.name_range.begin.offset - fn.begin_offset
        copied = text[:name_off] + fresh + text[name_off + len(fn.name):]
        prefix = "" if fn.storage == "static" else "static "
        return self.insert_text_before(fn.range.begin, f"{prefix}{copied}\n")


@register_mutator(
    "RenameFunction",
    "This mutator renames a function and every reference to it with a fresh "
    "unique identifier.",
    category="Function", origin="unsupervised",
    action="Modify", structure="FunctionName",
)
class RenameFunction(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        shadowed = {
            d.name
            for d in self.get_ast_context().unit.walk()
            if isinstance(d, (ast.VarDecl, ast.ParmVarDecl))
        }
        candidates = [
            f
            for f in _definitions(self)
            if f.name != "main" and f.name not in shadowed
        ]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        fresh = self.generate_unique_name(fn.name)
        ok = True
        for decl in _decls_named(self, fn.name):
            ok = self.replace_text(decl.name_range, fresh) and ok
        for ref in self.collect(ast.DeclRefExpr):
            assert isinstance(ref, ast.DeclRefExpr)
            if ref.name == fn.name:
                ok = self.replace_text(ref.range, fresh) and ok
        return ok


@register_mutator(
    "WidenFunctionReturnType",
    "This mutator widens an int-returning function to return long long.",
    category="Function", origin="unsupervised",
    action="Modify", structure="ReturnTypeWidth",
)
class WidenFunctionReturnType(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            f
            for f in _definitions(self)
            if f.name != "main"
            and f.return_type.unqualified() == ct.INT
            and not _has_separate_prototype(self, f)
            and not address_taken(self, f.name)
        ]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        return self.replace_text(
            fn.return_type_range, f"{_storage_prefix(fn)}long long"
        )


@register_mutator(
    "AddInlineSpecifier",
    "This mutator marks a function definition as static inline.",
    category="Function", origin="unsupervised",
    action="Add", structure="InlineSpecifier",
)
class AddInlineSpecifier(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            f
            for f in _definitions(self)
            if f.name != "main" and f.storage is None
            and not _has_separate_prototype(self, f)
        ]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        return self.insert_text_before(
            fn.return_type_range.begin, "static inline "
        )


@register_mutator(
    "CallFunctionTwice",
    "This mutator duplicates a call statement so the callee runs twice.",
    category="Function", origin="unsupervised",
    action="Copy", structure="CallStmt",
)
class CallFunctionTwice(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            s
            for s in self.collect(ast.ExprStmt)
            if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.CallExpr)
        ]
        if not candidates:
            return False
        stmt = self.rand_element(candidates)
        return self.insert_after_stmt(stmt, self.get_source_text(stmt))


@register_mutator(
    "AddFunctionAttribute",
    "This mutator attaches a GNU attribute such as noinline to a function "
    "definition.",
    category="Function", origin="unsupervised",
    action="Add", structure="Attribute",
)
class AddFunctionAttribute(Mutator, ASTVisitor):
    _ATTRS = ("noinline", "noclone", "cold", "hot", "unused")

    def mutate(self) -> bool:
        candidates = _definitions(self)
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        attr = self.rand_element(list(self._ATTRS))
        return self.insert_text_before(
            fn.return_type_range.begin, f"__attribute__(({attr})) "
        )


@register_mutator(
    "GhostFunction",
    "This mutator adds a new unused static helper function to the file.",
    category="Function", origin="unsupervised",
    action="Create", structure="FunctionDecl",
)
class GhostFunction(Mutator, ASTVisitor):
    _BODIES = (
        "return x + 1;",
        "return x * x;",
        "return x ? x - 1 : 0;",
        "int y = x << 1; return y ^ x;",
    )

    def mutate(self) -> bool:
        unit = self.get_ast_context().unit
        if not unit.decls:
            return False
        fresh = self.generate_unique_name("ghost")
        body = self.rand_element(list(self._BODIES))
        text = f"static int {fresh}(int x) {{ {body} }}\n"
        return self.insert_text_before(unit.decls[0].range.begin, text)


@register_mutator(
    "VoidToIntFunction",
    "This mutator changes a void function to return int, rewriting bare "
    "returns to return 0.",
    category="Function", origin="unsupervised", creative=True,
    action="Modify", structure="ReturnType",
)
class VoidToIntFunction(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            f
            for f in _definitions(self)
            if f.return_type.is_void()
            and f.name != "main"
            and not _has_separate_prototype(self, f)
            and not address_taken(self, f.name)
        ]
        if not candidates:
            return False
        fn = self.rand_element(candidates)
        ok = self.replace_text(
            fn.return_type_range, f"{_storage_prefix(fn)}int"
        )
        assert fn.body is not None
        for node in fn.body.walk():
            if isinstance(node, ast.ReturnStmt) and node.expr is None:
                ok = self.replace_text(node.range, "return 0;") and ok
        return ok
