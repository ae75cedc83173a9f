"""Type mutators (6) — the smallest category of §4.1 (5%).

Includes the paper's ``ReduceArrayDimension`` and ``DecaySmallStruct``
(both part of the GCC #111820 / #111819 case studies) and ``StructToInt``
(Clang #69213).
"""

from __future__ import annotations

from repro.cast import ast_nodes as ast
from repro.cast import types as ct
from repro.muast import ASTVisitor, Mutator, register_mutator
from repro.mutators.common import shared_parent_map
from repro.mutators.variable import (
    _global_var_decls,
    _is_address_taken,
    _refs_to,
    _single_decl_stmts,
)


@register_mutator(
    "ChangeIntSignedness",
    "This mutator flips the signedness of an integer variable declaration, "
    "turning int into unsigned and vice versa.",
    category="Type", origin="supervised",
    action="Switch", structure="BuiltinType",
)
class ChangeIntSignedness(Mutator, ASTVisitor):
    _FLIP = {
        "int": "unsigned int",
        "unsigned int": "int",
        "long": "unsigned long",
        "unsigned long": "long",
        "char": "unsigned char",
    }

    def mutate(self) -> bool:
        instances = []
        for _stmt, var in _single_decl_stmts(self):
            spelling = var.type.unqualified().spelling()
            if spelling in self._FLIP and not _is_address_taken(self, var):
                if var.storage is None and not var.type.const:
                    instances.append((var, self._FLIP[spelling]))
        if not instances:
            return False
        var, new_spelling = self.rand_element(instances)
        return self.replace_text(var.specifier_range, new_spelling)


@register_mutator(
    "ReduceArrayDimension",
    "This mutator simplifies an array variable into a zero-dimension scalar "
    "and updates all of its references.",
    category="Type", origin="supervised", creative=True,
    action="Destruct", structure="ArrayDimension",
)
class ReduceArrayDimension(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        source = self.get_ast_context().source
        parents = shared_parent_map(self)
        instances = []
        for d in _global_var_decls(self):
            if not d.type.is_array() or d.init is not None or d.type.const:
                continue
            elem = d.type.element()
            if elem is None or not elem.is_arithmetic():
                continue
            if d.range.begin != d.specifier_range.begin:
                continue
            if source.text[d.end_offset : d.end_offset + 1] != ";":
                continue
            refs = _refs_to(self, d)
            subs = []
            usable = bool(refs)
            for ref in refs:
                parent = parents.get(id(ref))
                if isinstance(parent, ast.ArraySubscriptExpr) and parent.base is ref:
                    subs.append(parent)
                else:
                    usable = False
                    break
            if usable:
                instances.append((d, elem, subs))
        if not instances:
            return False
        d, elem, subs = self.rand_element(instances)
        storage = f"{d.storage} " if d.storage else ""
        ok = self.replace_text(
            d.range, storage + self.format_as_decl(elem.unqualified(), d.name)
        )
        for sub in subs:
            ok = self.replace_text(sub.range, d.name) and ok
        return ok


@register_mutator(
    "DecaySmallStruct",
    "This mutator casts a small aggregate into a long long backing store "
    "and changes all references into pointer arithmetic between the long "
    "long variable and some offsets.",
    category="Type", origin="supervised", creative=True,
    action="Destruct", structure="RecordType",
)
class DecaySmallStruct(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        source = self.get_ast_context().source
        instances = []
        for d in _global_var_decls(self):
            ty = d.type
            if d.init is not None or ty.const:
                continue
            if not (ty.is_record() or ty.is_complex()):
                continue
            if d.range.begin != d.specifier_range.begin:
                continue
            if source.text[d.end_offset : d.end_offset + 1] != ";":
                continue
            instances.append(d)
        if not instances:
            return False
        d = self.rand_element(instances)
        store = self.generate_unique_name("combinedVar")
        spelling = d.type.unqualified().spelling()
        offset = self.rand_element([0, 8, 16])
        ok = self.replace_text(d.range, f"long long {store}[4]")
        for ref in _refs_to(self, d):
            ok = (
                self.replace_text(
                    ref.range,
                    f"(*({spelling} *)((char *){store} + {offset}))",
                )
                and ok
            )
        return ok


# ---------------------------------------------------------------------------
# Unsupervised (M_u) type mutators
# ---------------------------------------------------------------------------


@register_mutator(
    "StructToInt",
    "This mutator changes a struct type in a declaration to int, collapsing "
    "the aggregate into a scalar.",
    category="Type", origin="unsupervised", creative=True,
    action="Modify", structure="RecordType",
)
class StructToInt(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        source = self.get_ast_context().source
        instances = []
        decls = [
            d
            for d in self.get_ast_context().unit.walk()
            if isinstance(d, (ast.VarDecl, ast.ParmVarDecl))
        ]
        for d in decls:
            core = d.type
            while core.is_pointer():
                pointee = core.pointee()
                assert pointee is not None
                core = pointee
            if not core.is_record():
                continue
            spec_rng = getattr(d, "specifier_range", d.range)
            spec_text = source.slice(spec_rng)
            tag = core.type.spelling()  # e.g. "struct s2"
            idx = spec_text.find(tag)
            if idx < 0:
                continue
            begin = spec_rng.begin.advanced(idx)
            instances.append((begin, len(tag)))
        if not instances:
            return False
        begin, length = self.rand_element(instances)
        from repro.cast.source import SourceRange

        return self.replace_text(SourceRange(begin, begin.advanced(length)), "int")


@register_mutator(
    "NarrowIntegerType",
    "This mutator narrows an integer variable declaration, for example from "
    "long long to int or from int to short.",
    category="Type", origin="unsupervised",
    action="Modify", structure="BuiltinType",
)
class NarrowIntegerType(Mutator, ASTVisitor):
    _NARROW = {
        "long long": "int",
        "long": "int",
        "int": "short",
        "short": "char",
        "double": "float",
    }

    def mutate(self) -> bool:
        instances = []
        for _stmt, var in _single_decl_stmts(self):
            spelling = var.type.unqualified().spelling()
            if spelling not in self._NARROW:
                continue
            if _is_address_taken(self, var):
                continue
            if var.storage is not None or var.type.const or var.type.volatile:
                continue
            instances.append((var, self._NARROW[spelling]))
        if not instances:
            return False
        var, new_spelling = self.rand_element(instances)
        return self.replace_text(var.specifier_range, new_spelling)


@register_mutator(
    "IntroduceTypedef",
    "This mutator introduces a typedef for a builtin type and rewrites one "
    "declaration to use it.",
    category="Type", origin="unsupervised",
    action="Add", structure="TypedefDecl",
)
class IntroduceTypedef(Mutator, ASTVisitor):
    def mutate(self) -> bool:
        instances = []
        for _stmt, var in _single_decl_stmts(self):
            spelling = var.type.unqualified().spelling()
            if spelling in ("int", "unsigned int", "long", "char", "double"):
                if var.storage is None and not var.type.const and not var.type.volatile:
                    instances.append((var, spelling))
        if not instances:
            return False
        var, spelling = self.rand_element(instances)
        alias = self.generate_unique_name("td")
        unit = self.get_ast_context().unit
        if not unit.decls:
            return False
        ok = self.insert_text_before(
            unit.decls[0].range.begin, f"typedef {spelling} {alias};\n"
        )
        return self.replace_text(var.specifier_range, alias) and ok
