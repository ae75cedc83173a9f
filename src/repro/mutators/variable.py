"""Variable mutators (16).

Includes the paper's flagship bug-finders ``CombineVariable`` (GCC #111819),
``AggregateMemberToScalarVariable`` (GCC #111820), and
``ChangeVarDeclQualifier`` (the strlen-opt case of §5.2).
"""

from __future__ import annotations

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.cast.sema import fold_int
from repro.cast.source import SourceRange
from repro.muast import ASTVisitor, Mutator, register_mutator
from repro.mutators.common import replaceable_rvalue_exprs, shared_parent_map


def _refs_to(m: Mutator, decl: ast.Decl) -> list[ast.DeclRefExpr]:
    return [
        r
        for r in m.collect(ast.DeclRefExpr)
        if isinstance(r, ast.DeclRefExpr) and r.decl is decl
    ]


def _local_var_decls(m: Mutator) -> list[ast.VarDecl]:
    return [
        d
        for d in m.collect(ast.VarDecl)
        if isinstance(d, ast.VarDecl) and not d.is_global
    ]


def _global_var_decls(m: Mutator) -> list[ast.VarDecl]:
    return [d for d in m.get_ast_context().unit.decls if isinstance(d, ast.VarDecl)]


def _single_decl_stmts(m: Mutator) -> list[tuple[ast.DeclStmt, ast.VarDecl]]:
    """DeclStmts holding exactly one VarDecl, directly inside a block."""
    parents = shared_parent_map(m)
    out = []
    for stmt in m.collect(ast.DeclStmt):
        assert isinstance(stmt, ast.DeclStmt)
        if not isinstance(parents.get(id(stmt)), ast.CompoundStmt):
            continue
        vars_ = [d for d in stmt.decls if isinstance(d, ast.VarDecl)]
        if len(vars_) == 1 and len(stmt.decls) == 1:
            out.append((stmt, vars_[0]))
    return out


def _is_address_taken(m: Mutator, decl: ast.VarDecl) -> bool:
    for u in m.collect(ast.UnaryOperator):
        assert isinstance(u, ast.UnaryOperator)
        if u.op != "&":
            continue
        operand = u.operand
        while isinstance(operand, ast.ParenExpr):
            operand = operand.inner
        if isinstance(operand, ast.DeclRefExpr) and operand.decl is decl:
            return True
    return False


def _is_assigned(m: Mutator, decl: ast.VarDecl) -> bool:
    """Whether the variable (or one of its elements/members) is modified."""
    targets = set()
    for node in m.get_ast_context().unit.walk():
        if isinstance(node, ast.BinaryOperator) and node.is_assignment:
            t = node.lhs
        elif isinstance(node, ast.UnaryOperator) and node.op in ("++", "--", "&"):
            t = node.operand
        else:
            continue
        # Unwrap to the underlying declaration reference: (*p), a[i], s.x ...
        while True:
            if isinstance(t, ast.ParenExpr):
                t = t.inner
            elif isinstance(t, ast.ArraySubscriptExpr):
                t = t.base
            elif isinstance(t, ast.MemberExpr):
                t = t.base
            elif isinstance(t, ast.UnaryOperator) and t.op == "*":
                t = t.operand
            else:
                break
        if isinstance(t, ast.DeclRefExpr):
            targets.add(id(t.decl))
    return id(decl) in targets


@register_mutator(
    "RenameVariable",
    "This mutator renames a local variable and every reference to it with a "
    "fresh unique identifier.",
    category="Variable", origin="supervised",
    action="Modify", structure="VarDecl",
)
class RenameVariable(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = _local_var_decls(self)
        if not candidates:
            return False
        decl = self.rand_element(candidates)
        fresh = self.generate_unique_name(decl.name)
        ok = self.replace_text(decl.name_range, fresh)
        for ref in _refs_to(self, decl):
            ok = self.replace_text(ref.range, fresh) and ok
        return ok


@register_mutator(
    "SwitchInitExpr",
    "This mutator randomly selects a VarDecl and swaps its init expression "
    "with the init expression of another randomly selected VarDecl in the "
    "same scope, while ensuring the types of the variables are compatible.",
    category="Variable", origin="supervised",
    action="Swap", structure="VarDecl",
)
class SwitchInitExpr(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        decls = [
            d
            for d in _local_var_decls(self)
            if d.init is not None
            and not isinstance(d.init, ast.InitListExpr)
            and self._init_is_portable(d.init)
        ]
        instances = []
        for i, a in enumerate(decls):
            for b in decls[i + 1 :]:
                if (
                    a.init is not None
                    and b.init is not None
                    and a.init.type is not None
                    and b.init.type is not None
                    and ct.assignable(a.type, b.init.type)
                    and ct.assignable(b.type, a.init.type)
                ):
                    instances.append((a, b))
        if not instances:
            return False
        a, b = self.rand_element(instances)
        assert a.init is not None and b.init is not None
        a_txt = self.get_source_text(a.init)
        b_txt = self.get_source_text(b.init)
        return self.replace_text(a.init.range, b_txt) and self.replace_text(
            b.init.range, a_txt
        )

    def _init_is_portable(self, init: ast.Expr) -> bool:
        for n in init.walk():
            if isinstance(n, ast.DeclRefExpr) and not (
                isinstance(n.decl, ast.VarDecl) and n.decl.is_global
            ):
                return False
        return True


@register_mutator(
    "RemoveVarInitializer",
    "This mutator removes the initializer from a variable declaration, "
    "leaving the variable uninitialized.",
    category="Variable", origin="supervised",
    action="Destruct", structure="VarDecl",
)
class RemoveVarInitializer(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            d
            for d in self.collect(ast.VarDecl)
            if isinstance(d, ast.VarDecl)
            and d.init is not None
            and d.init_eq_loc is not None
            and not d.type.is_array()  # unsized arrays need their initializer
        ]
        if not candidates:
            return False
        d = self.rand_element(candidates)
        assert d.init is not None and d.init_eq_loc is not None
        return self.remove_text(SourceRange(d.init_eq_loc, d.init.range.end))


@register_mutator(
    "AddVarInitializer",
    "This mutator adds a default initializer to an uninitialized scalar "
    "variable declaration.",
    category="Variable", origin="supervised",
    action="Add", structure="VarDecl",
)
class AddVarInitializer(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = [
            d
            for d in self.collect(ast.VarDecl)
            if isinstance(d, ast.VarDecl)
            and d.init is None
            and d.type.is_scalar()
            and not d.type.const
        ]
        if not candidates:
            return False
        d = self.rand_element(candidates)
        value = "0.0" if d.type.is_floating() else "0"
        return self.insert_text_after(d.name_range.end, f" = {value}")


@register_mutator(
    "ChangeVarDeclQualifier",
    "This mutator changes the qualifiers of a VarDecl, for example marking "
    "a plain variable const volatile.",
    category="Variable", origin="supervised",
    action="Modify", structure="Attribute",
)
class ChangeVarDeclQualifier(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances: list[tuple[ast.VarDecl, str]] = []
        for d in self.collect(ast.VarDecl):
            assert isinstance(d, ast.VarDecl)
            if not d.type.volatile:
                instances.append((d, "volatile "))
            if not d.type.const and not _is_assigned(self, d):
                instances.append((d, "const "))
                instances.append((d, "const volatile "))
        if not instances:
            return False
        d, quals = self.rand_element(instances)
        return self.insert_text_before(d.specifier_range.begin, quals)


@register_mutator(
    "PromoteLocalToGlobal",
    "This mutator moves a local variable declaration to file scope, turning "
    "it into a global variable.",
    category="Variable", origin="supervised", creative=True,
    action="Lift", structure="VarDecl",
)
class PromoteLocalToGlobal(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for stmt, var in _single_decl_stmts(self):
            if var.storage is not None:
                continue
            if var.init is not None and fold_int(var.init) is None:
                continue
            if self._name_count(var.name) > 1:
                continue
            fn = self.enclosing_function(stmt)
            if fn is None:
                continue
            instances.append((stmt, var, fn))
        if not instances:
            return False
        stmt, var, fn = self.rand_element(instances)
        decl_text = self.get_source_text(stmt)
        return self.remove_text(stmt.range) and self.insert_text_before(
            fn.range.begin, decl_text + "\n"
        )

    def _name_count(self, name: str) -> int:
        return sum(
            1
            for d in self.get_ast_context().unit.walk()
            if isinstance(d, (ast.VarDecl, ast.ParmVarDecl, ast.FunctionDecl))
            and d.name == name
        )


@register_mutator(
    "ChangeVarType",
    "This mutator widens the type of an integer variable declaration, for "
    "example from int to long long.",
    category="Variable", origin="supervised",
    action="Modify", structure="TypeSpecifier",
)
class ChangeVarType(Mutator, ASTVisitor):
    _WIDEN = {
        "char": "int",
        "short": "int",
        "int": "long long",
        "unsigned int": "unsigned long long",
        "long": "long long",
        "float": "double",
    }

    def mutate(self) -> bool:
        instances = []
        for stmt, var in _single_decl_stmts(self):
            spelling = var.type.unqualified().spelling()
            if spelling not in self._WIDEN:
                continue
            if _is_address_taken(self, var):
                continue
            if var.storage is not None or var.type.const or var.type.volatile:
                continue
            instances.append((var, self._WIDEN[spelling]))
        if not instances:
            return False
        var, new_spelling = self.rand_element(instances)
        return self.replace_text(var.specifier_range, new_spelling)


@register_mutator(
    "CombineVariable",
    "This mutator combines a global variable into an opaque long long "
    "backing store and rewrites every reference as pointer arithmetic over "
    "that store.",
    category="Variable", origin="supervised", creative=True,
    action="Combine", structure="VarDecl",
)
class CombineVariable(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        source = self.get_ast_context().source
        instances = []
        for d in _global_var_decls(self):
            if d.init is not None or d.type.const:
                continue
            if not (d.type.is_arithmetic() or d.type.is_complex()):
                continue
            if d.range.begin != d.specifier_range.begin:
                continue  # shares its specifier with a previous declarator
            after = source.text[d.end_offset : d.end_offset + 1]
            if after != ";":
                continue
            instances.append(d)
        if not instances:
            return False
        d = self.rand_element(instances)
        store = self.generate_unique_name("combinedVar")
        spelling = d.type.unqualified().spelling()
        offset = self.rand_element([0, 8, 16])
        if not self.replace_text(d.range, f"long long {store}[4]"):
            return False
        ok = True
        for ref in _refs_to(self, d):
            ok = (
                self.replace_text(
                    ref.range,
                    f"(*({spelling} *)((char *){store} + {offset}))",
                )
                and ok
            )
        return ok


@register_mutator(
    "AggregateMemberToScalarVariable",
    "This mutator transforms a constant-index array subscript like r[0] "
    "into a dedicated scalar variable r_0, adding a declaration for it.",
    category="Variable", origin="supervised", creative=True,
    action="Destruct", structure="ArrayDimension",
)
class AggregateMemberToScalarVariable(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances: dict[tuple[int, int], list[ast.ArraySubscriptExpr]] = {}
        decls: dict[int, ast.VarDecl] = {}
        for sub in self.collect(ast.ArraySubscriptExpr):
            assert isinstance(sub, ast.ArraySubscriptExpr)
            base = sub.base
            while isinstance(base, ast.ParenExpr):
                base = base.inner
            if not isinstance(base, ast.DeclRefExpr):
                continue
            decl = base.decl
            if not (isinstance(decl, ast.VarDecl) and decl.is_global):
                continue
            if not decl.type.is_array() or decl.init is not None:
                continue
            elem = decl.type.element()
            if elem is None or not elem.is_arithmetic():
                continue
            index = fold_int(sub.index)
            if index is None:
                continue
            key = (id(decl), index)
            instances.setdefault(key, []).append(sub)
            decls[id(decl)] = decl
        if not instances:
            return False
        key = self.rand_element(sorted(instances, key=lambda k: (k[1], len(instances[k]))))
        decl_id, index = key
        decl = decls[decl_id]
        elem = decl.type.element()
        assert elem is not None
        scalar = f"{decl.name}_{index}"
        if scalar in self.get_ast_context().source.text:
            scalar = self.generate_unique_name(scalar)
        ok = self.insert_text_before(
            decl.specifier_range.begin,
            self.format_as_decl(elem.unqualified(), scalar) + ";\n",
        )
        for sub in instances[key]:
            ok = self.replace_text(sub.range, scalar) and ok
        return ok


@register_mutator(
    "ChangeParamScope",
    "This mutator moves a function parameter into the function's local "
    "scope, initializing it with a default value and removing the argument "
    "from every call site.",
    category="Variable", origin="supervised", creative=True,
    action="Lift", structure="ParmVarDecl",
)
class ChangeParamScope(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        from repro.mutators.common import address_taken, call_sites_of

        instances = []
        for fn in self.get_ast_context().function_definitions():
            if fn.name == "main" or address_taken(self, fn.name):
                continue
            prototypes = [
                d
                for d in self.get_ast_context().unit.decls
                if isinstance(d, ast.FunctionDecl) and d.name == fn.name and d is not fn
            ]
            if prototypes:
                continue  # would desynchronize the prototype
            calls = call_sites_of(self, fn.name)
            if any(len(c.args) != len(fn.params) for c in calls):
                continue
            for i, p in enumerate(fn.params):
                if p.name and p.type.is_scalar() and not p.type.is_pointer():
                    instances.append((fn, i, calls))
        if not instances:
            return False
        fn, index, calls = self.rand_element(instances)
        p = fn.params[index]
        ok = self.remove_parm_from_func_decl(fn, p)
        assert fn.body is not None and fn.body.lbrace_loc is not None
        decl_text = self.format_as_decl(p.type.unqualified(), p.name)
        value = "0.0" if p.type.is_floating() else "0"
        ok = (
            self.insert_text_after(
                fn.body.lbrace_loc.advanced(1), f"\n{decl_text} = {value};"
            )
            and ok
        )
        for call in calls:
            ok = self.remove_arg_from_expr(call, index) and ok
        return ok


# ---------------------------------------------------------------------------
# Unsupervised (M_u) variable mutators
# ---------------------------------------------------------------------------


@register_mutator(
    "DuplicateVarDecl",
    "This mutator duplicates a variable declaration under a fresh name, "
    "initializing the copy from the original variable.",
    category="Variable", origin="unsupervised",
    action="Copy", structure="VarDecl",
)
class DuplicateVarDecl(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = [
            (stmt, var)
            for stmt, var in _single_decl_stmts(self)
            if var.type.is_scalar() and var.storage is None
        ]
        if not instances:
            return False
        stmt, var = self.rand_element(instances)
        fresh = self.generate_unique_name(var.name)
        decl_text = self.format_as_decl(var.type.unqualified(), fresh)
        return self.insert_after_stmt(stmt, f"{decl_text} = {var.name};")


@register_mutator(
    "SplitVarDeclInit",
    "This mutator splits a declaration with an initializer into a plain "
    "declaration followed by an assignment.",
    category="Variable", origin="unsupervised",
    action="Destruct", structure="InitExpr",
)
class SplitVarDeclInit(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = [
            (stmt, var)
            for stmt, var in _single_decl_stmts(self)
            if var.init is not None
            and var.init_eq_loc is not None
            and var.type.is_scalar()
            and not var.type.const
            and var.storage is None
            and not isinstance(var.init, ast.InitListExpr)
        ]
        if not instances:
            return False
        stmt, var = self.rand_element(instances)
        assert var.init is not None and var.init_eq_loc is not None
        init_text = self.get_source_text(var.init)
        ok = self.remove_text(SourceRange(var.init_eq_loc, var.init.range.end))
        return self.insert_after_stmt(stmt, f"{var.name} = {init_text};") and ok


@register_mutator(
    "MakeLocalStatic",
    "This mutator adds static storage duration to a local variable whose "
    "initializer is a constant expression.",
    category="Variable", origin="unsupervised",
    action="Add", structure="StorageClass",
)
class MakeLocalStatic(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = [
            var
            for _stmt, var in _single_decl_stmts(self)
            if var.storage is None
            and (var.init is None or fold_int(var.init) is not None)
        ]
        if not instances:
            return False
        var = self.rand_element(instances)
        return self.insert_text_before(var.specifier_range.begin, "static ")


@register_mutator(
    "ReplaceVarWithInitValue",
    "This mutator replaces a use of a variable with the literal value of "
    "its initializer.",
    category="Variable", origin="unsupervised", creative=True,
    action="Modify", structure="DeclRefExpr",
)
class ReplaceVarWithInitValue(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        replaceable = {id(e) for e in replaceable_rvalue_exprs(self)}
        instances = []
        for d in _local_var_decls(self):
            if not isinstance(d.init, (ast.IntegerLiteral, ast.FloatingLiteral)):
                continue
            for ref in _refs_to(self, d):
                if id(ref) in replaceable:
                    instances.append((ref, d.init.text))
        if not instances:
            return False
        ref, text = self.rand_element(instances)
        return self.replace_text(ref.range, f"({text})")


@register_mutator(
    "RenameGlobalVariable",
    "This mutator renames a global variable and all of its references with "
    "a fresh unique identifier.",
    category="Variable", origin="unsupervised",
    action="Modify", structure="VarDecl",
)
class RenameGlobalVariable(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        candidates = _global_var_decls(self)
        if not candidates:
            return False
        decl = self.rand_element(candidates)
        fresh = self.generate_unique_name(decl.name)
        ok = self.replace_text(decl.name_range, fresh)
        for ref in _refs_to(self, decl):
            ok = self.replace_text(ref.range, fresh) and ok
        return ok


@register_mutator(
    "RemoveQualifier",
    "This mutator removes a const or volatile qualifier from a variable "
    "declaration.",
    category="Variable", origin="unsupervised",
    action="Destruct", structure="Attribute",
)
class RemoveQualifier(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        source = self.get_ast_context().source
        instances = []
        for d in self.collect(ast.VarDecl):
            assert isinstance(d, ast.VarDecl)
            spec_text = source.slice(d.specifier_range)
            for word in ("const", "volatile"):
                idx = spec_text.find(word)
                if idx < 0:
                    continue
                begin = d.specifier_range.begin.advanced(idx)
                length = len(word)
                if spec_text[idx + length : idx + length + 1] == " ":
                    length += 1
                instances.append(SourceRange(begin, begin.advanced(length)))
        if not instances:
            return False
        rng = self.rand_element(instances)
        return self.remove_text(rng)
