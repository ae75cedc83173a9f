"""A recursive-descent parser for the C subset.

The grammar covers what the seed corpus, the generated mutants, and the
paper's bug cases need: full expression syntax with C precedence, all
statement forms (including ``goto``/labels and ``switch``), declarations with
storage classes and qualifiers, pointers, arrays, structs/unions/enums,
typedefs, casts, compound literals, ``sizeof``, variadic prototypes, and the
GNU ``__imag``/``__real``/``__attribute__``/``_Complex`` extensions used by
the paper's GCC #111819 case.

Every node carries its exact source range so the rewriter can splice text:
the parser hands each node constructor token offsets as ints, and builds no
range or location object per node.

Nesting is bounded: statements, declarators, initializer lists, record
definitions, type names and every nested sub-expression each open one
level, and a program nested deeper than :data:`MAX_NESTING` levels fails to
parse with :class:`RecursionError` (the front end records it as
``parse_recursion``).  The bound keeps every later recursive walk of the
tree well inside Python's recursion limit, so whether a program compiles
never depends on how deep the caller's stack already is.
"""

from __future__ import annotations

from typing import Sequence

from repro.cast import ast_nodes as ast
from repro.cast.lexer import Lexer, LexError, Token, TokenKind
from repro.cast.source import SourceFile, SourceLocation
from repro.cast import types as ct


#: The deepest nesting the parser accepts, in levels (see the module
#: docstring).  The seed corpus, the generators and the fuzzers' mutants
#: nest far less; one level costs at most about ten Python frames here.
MAX_NESTING = 64


class ParseError(Exception):
    """Raised when the input is not a valid program in our C subset."""

    def __init__(self, message: str, loc: SourceLocation | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.loc = loc


#: Tokens that may begin a declaration specifier.
_SPECIFIER_KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double", "signed",
        "unsigned", "_Bool", "_Complex", "struct", "union", "enum", "const",
        "volatile", "restrict", "__restrict", "static", "extern", "typedef",
        "register", "auto", "inline", "__inline", "__attribute__",
    }
)

_STORAGE_KEYWORDS = frozenset({"static", "extern", "typedef", "register", "auto"})

#: Binary operator precedence (higher binds tighter).  Assignment and the
#: conditional operator are handled separately (right-associative).
_BINOP_PRECEDENCE = {
    "*": 10, "/": 10, "%": 10,
    "+": 9, "-": 9,
    "<<": 8, ">>": 8,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "==": 6, "!=": 6,
    "&": 5, "^": 4, "|": 3,
    "&&": 2, "||": 1,
}


#: The builtin kind each sorted type-specifier combination spells.
_BUILTIN_SPECIFIERS = {
    "void": ct.BuiltinKind.VOID,
    "_Bool": ct.BuiltinKind.BOOL,
    "char": ct.BuiltinKind.CHAR,
    "char signed": ct.BuiltinKind.SCHAR,
    "char unsigned": ct.BuiltinKind.UCHAR,
    "short": ct.BuiltinKind.SHORT,
    "int short": ct.BuiltinKind.SHORT,
    "short signed": ct.BuiltinKind.SHORT,
    "int short signed": ct.BuiltinKind.SHORT,
    "short unsigned": ct.BuiltinKind.USHORT,
    "int short unsigned": ct.BuiltinKind.USHORT,
    "int": ct.BuiltinKind.INT,
    "signed": ct.BuiltinKind.INT,
    "int signed": ct.BuiltinKind.INT,
    "unsigned": ct.BuiltinKind.UINT,
    "int unsigned": ct.BuiltinKind.UINT,
    "long": ct.BuiltinKind.LONG,
    "int long": ct.BuiltinKind.LONG,
    "long signed": ct.BuiltinKind.LONG,
    "int long signed": ct.BuiltinKind.LONG,
    "long unsigned": ct.BuiltinKind.ULONG,
    "int long unsigned": ct.BuiltinKind.ULONG,
    "long long": ct.BuiltinKind.LONGLONG,
    "int long long": ct.BuiltinKind.LONGLONG,
    "long long signed": ct.BuiltinKind.LONGLONG,
    "int long long signed": ct.BuiltinKind.LONGLONG,
    "long long unsigned": ct.BuiltinKind.ULONGLONG,
    "int long long unsigned": ct.BuiltinKind.ULONGLONG,
    "float": ct.BuiltinKind.FLOAT,
    "double": ct.BuiltinKind.DOUBLE,
    "double long": ct.BuiltinKind.LONGDOUBLE,
    "_Complex double": ct.BuiltinKind.COMPLEX_DOUBLE,
    "_Complex float": ct.BuiltinKind.COMPLEX_FLOAT,
    "_Complex": ct.BuiltinKind.COMPLEX_DOUBLE,
}


class Parser:
    """Parses a :class:`SourceFile` into a :class:`TranslationUnit`."""

    def __init__(
        self, source: SourceFile, tokens: Sequence[Token] | None = None
    ) -> None:
        self.source = source
        if tokens is not None:
            self.tokens = tokens
        else:
            try:
                self.tokens = Lexer(source).tokens()
            except LexError as exc:
                raise ParseError(exc.message, SourceLocation(exc.offset)) from exc
        self.pos = 0
        self.typedef_names: set[str] = set()
        self.record_names: dict[str, ct.RecordType] = {}
        self.typedefs: dict[str, ct.QualType] = {}
        self._anon_counter = 0
        #: Current nesting level (see :meth:`_enter`).
        self.depth = 0
        #: Ordered log of cross-declaration parser-state *definitions*
        #: (record definitions and typedefs).  Replaying a prefix of this
        #: journal reconstructs the parser state an incremental re-parse
        #: needs to resume mid-file (see :mod:`repro.cast.incremental`).
        #: Reference-created incomplete record entries are deliberately not
        #: journaled: re-creating them yields value-equal types.
        self._journal: list[tuple] = []

    # -- token primitives ------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, n: int = 1) -> Token:
        i = min(self.pos + n, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        if self.tok.text == text and self.tok.kind in (
            TokenKind.PUNCT,
            TokenKind.KEYWORD,
        ):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            raise ParseError(
                f"expected {text!r} but found {self.tok.text!r}",
                SourceLocation(self.tok.begin_offset),
            )
        return tok

    def _error(self, message: str) -> ParseError:
        return ParseError(message, SourceLocation(self.tok.begin_offset))

    def _enter(self) -> None:
        """Open one nesting level; past :data:`MAX_NESTING` the parse fails.

        The message starts like Python's own recursion error, so the
        diagnostic coverage the front end derives from it is the same
        whichever of the two stopped the parse.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise RecursionError(
                "maximum recursion depth exceeded: more than "
                f"{MAX_NESTING} nesting levels"
            )

    def _nested(self, parse):
        """``parse()`` one nesting level deeper.

        A failed parse is abandoned whole, so an exception needs no unwind
        of the level.  (A plain call: CPython runs it in the same
        interpreter loop, where ``parse(*args)`` would recurse in C.)
        """
        self._enter()
        node = parse()
        self.depth -= 1
        return node

    # -- entry point -------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        decls: list[ast.Decl] = []
        #: Per external-declaration *group* marks: (number of decls the
        #: group produced, token position just past the group, journal
        #: length, anonymous-tag counter).  A group is one iteration of the
        #: top-level loop — possibly zero decls (a stray ``;``) or several
        #: (``int a, b;``) — and is the granularity at which the incremental
        #: front end decides what is dirty.
        groups: list[tuple[int, int, int, int]] = []
        while self.tok.kind is not TokenKind.EOF:
            group = self.parse_external_declaration()
            decls.extend(group)
            groups.append(
                (len(group), self.pos, len(self._journal), self._anon_counter)
            )
        unit = ast.TranslationUnit(decls, 0, self.tokens[-1].end_offset)
        unit._inc_groups = tuple(groups)
        unit._inc_journal = tuple(self._journal)
        return unit

    # -- declarations -------------------------------------------------------

    def parse_external_declaration(self) -> list[ast.Decl]:
        if self.accept(";"):
            return []
        start = self.tok.begin_offset
        spec = self._parse_declaration_specifiers()
        # Tag-only declaration: ``struct S { ... };`` or ``enum E {...};``
        if self.accept(";"):
            return [d for d in spec.tag_decls]
        decls: list[ast.Decl] = list(spec.tag_decls)
        first = True
        while True:
            declarator = self._parse_declarator(spec.base_type)
            if first and isinstance(declarator.type.type, ct.FunctionType):
                if self.tok.is_punct("{"):
                    decls.append(self._parse_function_definition(spec, declarator, start))
                    return decls
            first = False
            decls.append(self._finish_declaration(spec, declarator, start))
            if self.accept(","):
                continue
            self.expect(";")
            return decls

    class _Spec:
        """Parsed declaration specifiers."""

        def __init__(self) -> None:
            self.base_type: ct.QualType = ct.INT
            self.storage: str | None = None
            self.is_inline = False
            self.tag_decls: list[ast.Decl] = []
            #: Offsets of the specifier tokens (set once parsed).
            self.begin = self.end = 0
            self.attributes: list[str] = []

    def _starts_type(self, tok: Token | None = None) -> bool:
        tok = tok or self.tok
        if tok.kind is TokenKind.KEYWORD and tok.text in _SPECIFIER_KEYWORDS:
            return True
        return tok.kind is TokenKind.IDENT and tok.text in self.typedef_names

    def _parse_declaration_specifiers(self) -> "Parser._Spec":
        spec = Parser._Spec()
        spec.begin = self.tok.begin_offset
        parts: list[str] = []
        const = volatile = False
        seen_type = False
        while True:
            tok = self.tok
            text = tok.text
            if tok.kind is TokenKind.KEYWORD and text in _STORAGE_KEYWORDS:
                spec.storage = text
                self.advance()
            elif tok.is_keyword("inline") or tok.is_keyword("__inline"):
                spec.is_inline = True
                self.advance()
            elif tok.is_keyword("const"):
                const = True
                self.advance()
            elif tok.is_keyword("volatile"):
                volatile = True
                self.advance()
            elif tok.is_keyword("restrict") or tok.is_keyword("__restrict"):
                self.advance()
            elif tok.is_keyword("__attribute__"):
                spec.attributes.append(self._parse_attribute())
            elif tok.is_keyword("struct") or tok.is_keyword("union"):
                seen_type = True
                base = self._parse_record_specifier(spec)
                parts = ["<record>"]
                spec.base_type = base
            elif tok.is_keyword("enum"):
                seen_type = True
                base = self._parse_enum_specifier(spec)
                parts = ["<enum>"]
                spec.base_type = base
            elif tok.kind is TokenKind.KEYWORD and text in {
                "void", "char", "short", "int", "long", "float", "double",
                "signed", "unsigned", "_Bool", "_Complex",
            }:
                seen_type = True
                parts.append(text)
                self.advance()
            elif (
                tok.kind is TokenKind.IDENT
                and text in self.typedef_names
                and not seen_type
            ):
                seen_type = True
                parts = ["<typedef>"]
                spec.base_type = self.typedefs[text]
                self.advance()
            else:
                break
        if parts and parts[0] not in ("<record>", "<enum>", "<typedef>"):
            spec.base_type = self._builtin_from_parts(parts)
        if const or volatile:
            spec.base_type = ct.qualified(
                spec.base_type.type,
                const=const or spec.base_type.const,
                volatile=volatile or spec.base_type.volatile,
            )
        spec.end = self.tokens[self.pos - 1].end_offset
        return spec

    def _builtin_from_parts(self, parts: list[str]) -> ct.QualType:
        key = " ".join(sorted(parts))
        kind = _BUILTIN_SPECIFIERS.get(key)
        if kind is None:
            raise self._error(f"unsupported type specifier combination {key!r}")
        return ct.builtin(kind)

    def _parse_attribute(self) -> str:
        start = self.tok.begin_offset
        self.expect("__attribute__")
        self.expect("(")
        self.expect("(")
        depth = 2
        while depth > 0:
            tok = self.advance()
            if tok.kind is TokenKind.EOF:
                raise self._error("unterminated __attribute__")
            if tok.is_punct("("):
                depth += 1
            elif tok.is_punct(")"):
                depth -= 1
        return self.source.text[start : self.tokens[self.pos - 1].end_offset]

    def _parse_record_specifier(self, spec: "Parser._Spec") -> ct.QualType:
        start = self.tok.begin_offset
        tag_kind = self.advance().text  # struct | union
        name = None
        if self.tok.kind is TokenKind.IDENT:
            name = self.advance().text
        if name is None and not self.tok.is_punct("{"):
            raise self._error("anonymous record requires a definition")
        if name is None:
            self._anon_counter += 1
            name = f"__anon{self._anon_counter}"
        if not self.tok.is_punct("{"):
            rec = self.record_names.get(name) or ct.RecordType(tag_kind, name)
            self.record_names.setdefault(name, rec)
            return ct.QualType(rec)
        self.expect("{")
        self._enter()
        fields: list[ast.FieldDecl] = []
        while not self.tok.is_punct("}"):
            fspec = self._parse_declaration_specifiers()
            while True:
                fstart = self.tok.begin_offset
                declarator = self._parse_declarator(fspec.base_type)
                if declarator.name is None:
                    raise self._error("unnamed struct field")
                fields.append(
                    ast.FieldDecl(
                        declarator.name,
                        declarator.type,
                        fstart,
                        self.tokens[self.pos - 1].end_offset,
                    )
                )
                if not self.accept(","):
                    break
            self.expect(";")
        rbrace = self.expect("}")
        self.depth -= 1
        rec = ct.RecordType(
            tag_kind, name, tuple((f.name, f.type) for f in fields)
        )
        self.record_names[name] = rec
        self._journal.append(("record", name, rec))
        spec.tag_decls.append(
            ast.RecordDecl(tag_kind, name, fields, start, rbrace.end_offset)
        )
        return ct.QualType(rec)

    def _parse_enum_specifier(self, spec: "Parser._Spec") -> ct.QualType:
        start = self.tok.begin_offset
        self.expect("enum")
        name = None
        if self.tok.kind is TokenKind.IDENT:
            name = self.advance().text
        if name is None:
            self._anon_counter += 1
            name = f"__anon{self._anon_counter}"
        if not self.tok.is_punct("{"):
            return ct.QualType(ct.EnumType(name))
        self.expect("{")
        constants: list[ast.EnumConstantDecl] = []
        while not self.tok.is_punct("}"):
            cstart = self.tok.begin_offset
            if self.tok.kind is not TokenKind.IDENT:
                raise self._error("expected enumerator name")
            cname = self.advance().text
            value = None
            if self.accept("="):
                value = self.parse_assignment_expr()
            constants.append(
                ast.EnumConstantDecl(
                    cname, value, cstart, self.tokens[self.pos - 1].end_offset
                )
            )
            if not self.accept(","):
                break
        rbrace = self.expect("}")
        spec.tag_decls.append(
            ast.EnumDecl(name, constants, start, rbrace.end_offset)
        )
        return ct.QualType(ct.EnumType(name))

    class _Declarator:
        def __init__(self) -> None:
            self.name: str | None = None
            #: Offsets of the name token (``None`` when unnamed).
            self.name_begin: int | None = None
            self.name_end: int | None = None
            self.type: ct.QualType = ct.INT
            self.params: list[ast.ParmVarDecl] = []
            self.variadic = False
            self.is_function = False
            self.prototyped = False
            self.lparen_offset: int | None = None
            self.rparen_offset: int | None = None

    def _parse_declarator(self, base: ct.QualType) -> "Parser._Declarator":
        self._enter()
        d = Parser._Declarator()
        ty = base
        while self.accept("*"):
            const = volatile = False
            while True:
                if self.accept("const"):
                    const = True
                elif self.accept("volatile"):
                    volatile = True
                elif self.accept("restrict") or self.accept("__restrict"):
                    pass
                else:
                    break
            ty = ct.QualType(ct.PointerType(ty), const=const, volatile=volatile)
        if self.tok.kind is TokenKind.IDENT:
            tok = self.advance()
            d.name = tok.text
            d.name_begin = tok.begin_offset
            d.name_end = tok.end_offset
        # Suffixes: array dimensions then possibly a parameter list, or a
        # parameter list directly (functions returning arrays are invalid C).
        if self.tok.is_punct("("):
            d.lparen_offset = self.tok.begin_offset
            self.advance()
            d.is_function = True
            self._parse_parameter_list(d)
            d.rparen_offset = self.tokens[self.pos - 1].begin_offset
            ty = ct.QualType(
                ct.FunctionType(
                    ty,
                    tuple(p.type for p in d.params),
                    variadic=d.variadic,
                    no_prototype=not d.prototyped,
                )
            )
        else:
            dims: list[int | None] = []
            while self.accept("["):
                if self.tok.is_punct("]"):
                    dims.append(None)
                else:
                    size_expr = self.parse_conditional_expr()
                    dims.append(self._const_int(size_expr))
                self.expect("]")
            for size in reversed(dims):
                ty = ct.array_of(ty, size)
        while self.tok.is_keyword("__attribute__"):
            self._parse_attribute()
        d.type = ty
        self.depth -= 1
        return d

    def _const_int(self, expr: ast.Expr) -> int | None:
        """Best-effort constant folding for array sizes."""
        if isinstance(expr, ast.IntegerLiteral):
            return expr.value
        if isinstance(expr, ast.ParenExpr):
            return self._const_int(expr.inner)
        if isinstance(expr, ast.BinaryOperator):
            lhs = self._const_int(expr.lhs)
            rhs = self._const_int(expr.rhs)
            if lhs is None or rhs is None:
                return None
            try:
                return {
                    "+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                    "/": lhs // rhs if rhs else None,
                    "%": lhs % rhs if rhs else None,
                    "<<": lhs << (rhs & 63), ">>": lhs >> (rhs & 63),
                }.get(expr.op)
            except (ValueError, OverflowError):
                return None
        return None

    def _parse_parameter_list(self, d: "Parser._Declarator") -> None:
        if self.accept(")"):
            return  # K&R-style: no prototype information
        d.prototyped = True
        if self.tok.is_keyword("void") and self.peek().is_punct(")"):
            self.advance()
            self.expect(")")
            return
        while True:
            if self.accept("..."):
                d.variadic = True
                self.expect(")")
                return
            pstart = self.tok.begin_offset
            spec = self._parse_declaration_specifiers()
            decl = self._parse_declarator(spec.base_type)
            ptype = decl.type.decayed()
            unnamed = decl.name_begin is None
            d.params.append(
                ast.ParmVarDecl(
                    decl.name or "",
                    ptype,
                    pstart,
                    self.tokens[self.pos - 1].end_offset,
                    pstart if unnamed else decl.name_begin,
                    pstart if unnamed else decl.name_end,
                )
            )
            if self.accept(","):
                continue
            self.expect(")")
            return

    def _finish_declaration(
        self,
        spec: "Parser._Spec",
        declarator: "Parser._Declarator",
        start: int,
    ) -> ast.Decl:
        if declarator.name is None:
            raise self._error("declaration without a name")
        if spec.storage == "typedef":
            self.typedef_names.add(declarator.name)
            self.typedefs[declarator.name] = declarator.type
            self._journal.append(("typedef", declarator.name, declarator.type))
            return ast.TypedefDecl(
                declarator.name,
                declarator.type,
                start,
                self.tokens[self.pos - 1].end_offset,
            )
        if declarator.is_function:
            # A function prototype declaration.
            ftype = declarator.type.type
            assert isinstance(ftype, ct.FunctionType)
            return ast.FunctionDecl(
                declarator.name,
                ftype.result,
                declarator.params,
                None,
                start,
                self.tokens[self.pos - 1].end_offset,
                declarator.name_begin,
                declarator.name_end,
                spec.begin,
                spec.end,
                lparen_offset=declarator.lparen_offset,
                rparen_offset=declarator.rparen_offset,
                storage=spec.storage,
                variadic=ftype.variadic,
                no_prototype=ftype.no_prototype,
                attributes=list(spec.attributes),
            )
        init = None
        eq_offset = None
        if self.tok.is_punct("="):
            eq_offset = self.tok.begin_offset
            self.advance()
            init = self.parse_initializer()
        return ast.VarDecl(
            declarator.name,
            declarator.type,
            init,
            start,
            self.tokens[self.pos - 1].end_offset,
            declarator.name_begin,
            declarator.name_end,
            spec.begin,
            spec.end,
            storage=spec.storage,
            init_eq_offset=eq_offset,
        )

    def _parse_function_definition(
        self,
        spec: "Parser._Spec",
        declarator: "Parser._Declarator",
        start: int,
    ) -> ast.FunctionDecl:
        ftype = declarator.type.type
        assert isinstance(ftype, ct.FunctionType)
        body = self.parse_compound_stmt()
        unnamed = declarator.name_begin is None
        return ast.FunctionDecl(
            declarator.name or "",
            ftype.result,
            declarator.params,
            body,
            start,
            body.end_offset,
            start if unnamed else declarator.name_begin,
            start if unnamed else declarator.name_end,
            spec.begin,
            spec.end,
            lparen_offset=declarator.lparen_offset,
            rparen_offset=declarator.rparen_offset,
            storage=spec.storage,
            variadic=ftype.variadic,
            no_prototype=ftype.no_prototype,
            attributes=list(spec.attributes),
        )

    # -- statements ----------------------------------------------------------

    def parse_compound_stmt(self) -> ast.CompoundStmt:
        lbrace = self.expect("{")
        stmts: list[ast.Stmt] = []
        while not self.tok.is_punct("}"):
            if self.tok.kind is TokenKind.EOF:
                raise self._error("unterminated compound statement")
            stmts.append(self.parse_stmt())
        rbrace = self.expect("}")
        return ast.CompoundStmt(
            stmts,
            lbrace.begin_offset,
            rbrace.end_offset,
            lbrace_offset=lbrace.begin_offset,
            rbrace_offset=rbrace.begin_offset,
        )

    def parse_stmt(self) -> ast.Stmt:
        return self._nested(self._parse_stmt)

    def _parse_stmt(self) -> ast.Stmt:
        tok = self.tok
        start = tok.begin_offset
        if tok.is_punct("{"):
            return self.parse_compound_stmt()
        if tok.is_punct(";"):
            self.advance()
            return ast.NullStmt(start, self.tokens[self.pos - 1].end_offset)
        if tok.is_keyword("if"):
            return self._parse_if(start)
        if tok.is_keyword("while"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_stmt()
            return ast.WhileStmt(cond, body, start, body.end_offset)
        if tok.is_keyword("do"):
            self.advance()
            body = self.parse_stmt()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            semi = self.expect(";")
            return ast.DoStmt(body, cond, start, semi.end_offset)
        if tok.is_keyword("for"):
            return self._parse_for(start)
        if tok.is_keyword("switch"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_stmt()
            return ast.SwitchStmt(cond, body, start, body.end_offset)
        if tok.is_keyword("case"):
            self.advance()
            expr = self.parse_conditional_expr()
            self.expect(":")
            stmt = None if self._case_boundary() else self.parse_stmt()
            end = stmt.end_offset if stmt else self.tokens[self.pos - 1].end_offset
            return ast.CaseStmt(expr, stmt, start, end)
        if tok.is_keyword("default"):
            self.advance()
            self.expect(":")
            stmt = None if self._case_boundary() else self.parse_stmt()
            end = stmt.end_offset if stmt else self.tokens[self.pos - 1].end_offset
            return ast.DefaultStmt(stmt, start, end)
        if tok.is_keyword("break"):
            self.advance()
            semi = self.expect(";")
            return ast.BreakStmt(start, semi.end_offset)
        if tok.is_keyword("continue"):
            self.advance()
            semi = self.expect(";")
            return ast.ContinueStmt(start, semi.end_offset)
        if tok.is_keyword("return"):
            self.advance()
            expr = None
            if not self.tok.is_punct(";"):
                expr = self.parse_expr()
            semi = self.expect(";")
            return ast.ReturnStmt(expr, start, semi.end_offset)
        if tok.is_keyword("goto"):
            self.advance()
            if self.tok.kind is not TokenKind.IDENT:
                raise self._error("expected label after goto")
            label = self.advance().text
            semi = self.expect(";")
            return ast.GotoStmt(label, start, semi.end_offset)
        if tok.kind is TokenKind.IDENT and self.peek().is_punct(":"):
            name = self.advance().text
            self.expect(":")
            stmt = self.parse_stmt()
            return ast.LabelStmt(name, stmt, start, stmt.end_offset)
        if self._starts_type():
            decls = self._parse_local_declaration()
            return ast.DeclStmt(decls, start, self.tokens[self.pos - 1].end_offset)
        expr = self.parse_expr()
        semi = self.expect(";")
        return ast.ExprStmt(expr, start, semi.end_offset)

    def _case_boundary(self) -> bool:
        return (
            self.tok.is_punct("}")
            or self.tok.is_keyword("case")
            or self.tok.is_keyword("default")
        )

    def _parse_if(self, start: int) -> ast.IfStmt:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_branch = self.parse_stmt()
        else_branch = None
        if self.accept("else"):
            else_branch = self.parse_stmt()
        end = (else_branch or then_branch).end_offset
        return ast.IfStmt(cond, then_branch, else_branch, start, end)

    def _parse_for(self, start: int) -> ast.ForStmt:
        self.expect("for")
        self.expect("(")
        init: ast.Node | None = None
        if not self.tok.is_punct(";"):
            istart = self.tok.begin_offset
            if self._starts_type():
                decls = self._parse_local_declaration()
                init = ast.DeclStmt(
                    decls, istart, self.tokens[self.pos - 1].end_offset
                )
            else:
                expr = self.parse_expr()
                semi = self.expect(";")
                init = ast.ExprStmt(expr, istart, semi.end_offset)
        else:
            self.expect(";")
        cond = None
        if not self.tok.is_punct(";"):
            cond = self.parse_expr()
        self.expect(";")
        inc = None
        if not self.tok.is_punct(")"):
            inc = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return ast.ForStmt(init, cond, inc, body, start, body.end_offset)

    def _parse_local_declaration(self) -> list[ast.Decl]:
        start = self.tok.begin_offset
        spec = self._parse_declaration_specifiers()
        if self.accept(";"):
            return list(spec.tag_decls)
        decls: list[ast.Decl] = list(spec.tag_decls)
        while True:
            dstart = start if not decls or not spec.tag_decls else self.tok.begin_offset
            declarator = self._parse_declarator(spec.base_type)
            decls.append(self._finish_declaration(spec, declarator, dstart))
            if self.accept(","):
                start = self.tok.begin_offset  # later declarators start later
                continue
            self.expect(";")
            return decls

    # -- initializers ----------------------------------------------------------

    def parse_initializer(self) -> ast.Expr:
        if self.tok.is_punct("{"):
            return self._parse_init_list()
        return self.parse_assignment_expr()

    def _parse_init_list(self) -> ast.InitListExpr:
        self._enter()
        lbrace = self.expect("{")
        inits: list[ast.Expr] = []
        while not self.tok.is_punct("}"):
            inits.append(self.parse_initializer())
            if not self.accept(","):
                break
        rbrace = self.expect("}")
        self.depth -= 1
        return ast.InitListExpr(inits, lbrace.begin_offset, rbrace.end_offset)

    # -- expressions ------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """Parse a full expression including the comma operator."""
        expr = self.parse_assignment_expr()
        while self.tok.is_punct(","):
            op_tok = self.advance()
            rhs = self.parse_assignment_expr()
            expr = ast.BinaryOperator(
                ",", expr, rhs, expr.begin_offset, rhs.end_offset,
                op_tok.begin_offset, op_tok.end_offset,
            )
        return expr

    def parse_assignment_expr(self) -> ast.Expr:
        lhs = self.parse_conditional_expr()
        if self.tok.kind is TokenKind.PUNCT and self.tok.text in ast.ASSIGN_OPS:
            op_tok = self.advance()
            rhs = self._nested(self.parse_assignment_expr)
            return ast.BinaryOperator(
                op_tok.text, lhs, rhs, lhs.begin_offset, rhs.end_offset,
                op_tok.begin_offset, op_tok.end_offset,
            )
        return lhs

    def parse_conditional_expr(self) -> ast.Expr:
        cond = self._parse_binop_rhs(self.parse_cast_expr(), 0)
        if self.accept("?"):
            true_expr = self._nested(self.parse_expr)
            self.expect(":")
            false_expr = self._nested(self.parse_conditional_expr)
            return ast.ConditionalOperator(
                cond, true_expr, false_expr,
                cond.begin_offset, false_expr.end_offset,
            )
        return cond

    def _parse_binop_rhs(self, lhs: ast.Expr, min_prec: int) -> ast.Expr:
        while True:
            tok = self.tok
            prec = (
                _BINOP_PRECEDENCE.get(tok.text, -1)
                if tok.kind is TokenKind.PUNCT
                else -1
            )
            if prec < min_prec or prec < 0:
                return lhs
            op_tok = self.advance()
            rhs = self.parse_cast_expr()
            while True:
                next_prec = (
                    _BINOP_PRECEDENCE.get(self.tok.text, -1)
                    if self.tok.kind is TokenKind.PUNCT
                    else -1
                )
                if next_prec <= prec:
                    break
                self._enter()
                rhs = self._parse_binop_rhs(rhs, prec + 1)
                self.depth -= 1
            lhs = ast.BinaryOperator(
                op_tok.text, lhs, rhs, lhs.begin_offset, rhs.end_offset,
                op_tok.begin_offset, op_tok.end_offset,
            )

    def parse_cast_expr(self) -> ast.Expr:
        if self.tok.is_punct("(") and self._starts_type(self.peek()):
            start = self.tok.begin_offset
            self.advance()
            tstart = self.tok.begin_offset
            qtype = self._parse_type_name()
            type_text = self.source.text[
                tstart : self.tokens[self.pos - 1].end_offset
            ]
            self.expect(")")
            if self.tok.is_punct("{"):
                init = self._parse_init_list()
                return ast.CompoundLiteralExpr(
                    qtype, type_text, init, start, init.end_offset
                )
            operand = self._nested(self.parse_cast_expr)
            return ast.CastExpr(
                qtype, type_text, operand, start, operand.end_offset
            )
        return self.parse_unary_expr()

    def _parse_type_name(self) -> ct.QualType:
        self._enter()
        spec = self._parse_declaration_specifiers()
        ty = spec.base_type
        while self.accept("*"):
            while self.accept("const") or self.accept("volatile"):
                pass
            ty = ct.pointer_to(ty)
        dims: list[int | None] = []
        while self.accept("["):
            if self.tok.is_punct("]"):
                dims.append(None)
            else:
                dims.append(self._const_int(self.parse_conditional_expr()))
            self.expect("]")
        for size in reversed(dims):
            ty = ct.array_of(ty, size)
        self.depth -= 1
        return ty

    def parse_unary_expr(self) -> ast.Expr:
        tok = self.tok
        start = tok.begin_offset
        if tok.kind is TokenKind.PUNCT and tok.text in (
            "+", "-", "!", "~", "*", "&", "++", "--",
        ):
            self.advance()
            operand = self._nested(self.parse_cast_expr)
            return ast.UnaryOperator(
                tok.text, operand, True, start, operand.end_offset
            )
        if tok.is_keyword("__imag") or tok.is_keyword("__real"):
            self.advance()
            operand = self._nested(self.parse_cast_expr)
            return ast.UnaryOperator(
                tok.text, operand, True, start, operand.end_offset
            )
        if tok.is_keyword("sizeof"):
            self.advance()
            if self.tok.is_punct("(") and self._starts_type(self.peek()):
                self.advance()
                qtype = self._parse_type_name()
                rparen = self.expect(")")
                return ast.SizeofExpr(None, qtype, start, rparen.end_offset)
            operand = self._nested(self.parse_unary_expr)
            return ast.SizeofExpr(operand, None, start, operand.end_offset)
        return self.parse_postfix_expr()

    def parse_postfix_expr(self) -> ast.Expr:
        expr = self.parse_primary_expr()
        while True:
            tok = self.tok
            if tok.is_punct("("):
                lparen = self.advance()
                args: list[ast.Expr] = []
                if not self.tok.is_punct(")"):
                    args.append(self._nested(self.parse_assignment_expr))
                    while self.accept(","):
                        args.append(self._nested(self.parse_assignment_expr))
                rparen = self.expect(")")
                expr = ast.CallExpr(
                    expr, args, expr.begin_offset, rparen.end_offset,
                    lparen_offset=lparen.begin_offset,
                    rparen_offset=rparen.begin_offset,
                )
            elif tok.is_punct("["):
                self.advance()
                index = self._nested(self.parse_expr)
                rbracket = self.expect("]")
                expr = ast.ArraySubscriptExpr(
                    expr, index, expr.begin_offset, rbracket.end_offset
                )
            elif tok.is_punct(".") or tok.is_punct("->"):
                is_arrow = tok.text == "->"
                self.advance()
                if self.tok.kind is not TokenKind.IDENT:
                    raise self._error("expected member name")
                member = self.advance()
                expr = ast.MemberExpr(
                    expr, member.text, is_arrow,
                    expr.begin_offset, member.end_offset,
                )
            elif tok.is_punct("++") or tok.is_punct("--"):
                self.advance()
                expr = ast.UnaryOperator(
                    tok.text, expr, False, expr.begin_offset, tok.end_offset
                )
            else:
                return expr

    def parse_primary_expr(self) -> ast.Expr:
        tok = self.tok
        if tok.kind is TokenKind.INT_LITERAL:
            self.advance()
            return ast.IntegerLiteral(
                self._int_value(tok.text), tok.text,
                tok.begin_offset, tok.end_offset,
            )
        if tok.kind is TokenKind.FLOAT_LITERAL:
            self.advance()
            return ast.FloatingLiteral(
                self._float_value(tok.text), tok.text,
                tok.begin_offset, tok.end_offset,
            )
        if tok.kind is TokenKind.CHAR_LITERAL:
            self.advance()
            return ast.CharacterLiteral(
                self._char_value(tok.text), tok.text,
                tok.begin_offset, tok.end_offset,
            )
        if tok.kind is TokenKind.STRING_LITERAL:
            self.advance()
            parts = [tok]
            while self.tok.kind is TokenKind.STRING_LITERAL:
                parts.append(self.advance())
            text = "".join(p.text for p in parts)
            value = "".join(self._string_value(p.text) for p in parts)
            return ast.StringLiteral(
                value, text, tok.begin_offset, parts[-1].end_offset
            )
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return ast.DeclRefExpr(tok.text, tok.begin_offset, tok.end_offset)
        if tok.is_punct("("):
            lparen = self.advance()
            inner = self._nested(self.parse_expr)
            rparen = self.expect(")")
            return ast.ParenExpr(inner, lparen.begin_offset, rparen.end_offset)
        raise self._error(f"unexpected token {tok.text!r} in expression")

    # -- literal decoding ----------------------------------------------------

    @staticmethod
    def _int_value(text: str) -> int:
        body = text.rstrip("uUlL")
        try:
            return int(body, 0) if body else 0
        except ValueError:
            return 0

    @staticmethod
    def _float_value(text: str) -> float:
        body = text.rstrip("fFlL")
        try:
            return float(body)
        except ValueError:
            return 0.0

    _ESCAPES = {
        "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
        "a": 7, "b": 8, "f": 12, "v": 11,
    }

    @classmethod
    def _char_value(cls, text: str) -> int:
        body = text[1:-1]
        if body.startswith("\\") and len(body) >= 2:
            if body[1] == "x":
                try:
                    return int(body[2:], 16) & 0xFF
                except ValueError:
                    return 0
            if body[1].isdigit():
                try:
                    return int(body[1:], 8) & 0xFF
                except ValueError:
                    return 0
            return cls._ESCAPES.get(body[1], ord(body[1]))
        return ord(body[0]) if body else 0

    @classmethod
    def _string_value(cls, text: str) -> str:
        body = text[1:-1]
        out: list[str] = []
        i = 0
        while i < len(body):
            ch = body[i]
            if ch == "\\" and i + 1 < len(body):
                nxt = body[i + 1]
                out.append(chr(cls._ESCAPES.get(nxt, ord(nxt))))
                i += 2
            else:
                out.append(ch)
                i += 1
        return "".join(out)


def parse(text: str, name: str = "<input>") -> ast.TranslationUnit:
    """Parse C source text into a translation unit."""
    return Parser(SourceFile(text, name)).parse()
