"""A C lexer producing tokens with exact source ranges.

The lexer covers the full C operator set, all literal forms used by the seed
corpus (decimal/octal/hex integers with suffixes, floats, chars, strings), and
treats comments and preprocessor lines as skipped trivia. It never raises on
merely *unusual* input; :class:`LexError` is reserved for input that cannot be
tokenized at all (unterminated literals, stray bytes), which the simulated
compiler front-end reports as an ordinary diagnostic.

The common tokens (ASCII identifiers and keywords, decimal integers, most
punctuators, after plain whitespace) come from one compiled regex; every
other input goes through the per-character routines, so both paths produce
the same tokens, errors and preprocessor lines.

A :class:`Token` lives as long as the parse that reads it.  What outlives a
front end (a cached entry's token stream) is a :class:`TokenColumns`: kinds,
texts and offsets in four flat columns, so the collector walks no object per
token.
"""

from __future__ import annotations

import enum
import re
from array import array

from repro.cast.source import SourceFile, SourceLocation, SourceRange


class LexError(Exception):
    """Raised when the input cannot be tokenized."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(message)
        self.message = message
        self.offset = offset


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_LITERAL = "integer literal"
    FLOAT_LITERAL = "float literal"
    CHAR_LITERAL = "char literal"
    STRING_LITERAL = "string literal"
    PUNCT = "punctuation"
    EOF = "end of file"


#: Every kind, in declaration order: a kind's index here is its byte in
#: :attr:`TokenColumns.kinds`.
TOKEN_KINDS = tuple(TokenKind)
#: Kind index by ``id(kind)``: an enum member hashes in Python, its id in C.
_KIND_INDEX = {id(kind): i for i, kind in enumerate(TOKEN_KINDS)}


#: All keywords recognized by the front end.  This includes the C11 keywords
#: we support plus the GNU/complex extensions the paper's bug cases rely on
#: (``_Complex``, ``__imag``, ``__real``, ``__attribute__``).
KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
        "_Bool", "_Complex", "__imag", "__real", "__attribute__",
        "__restrict", "__inline",
    }
)

#: Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = sorted(
    [
        "<<=", ">>=", "...",
        "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
        "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
        "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#",
    ],
    key=len,
    reverse=True,
)

#: Punctuators grouped by first character (maximal munch within each group).
_PUNCT_BY_CHAR: dict[str, list[str]] = {}
for _p in _PUNCTUATORS:
    _PUNCT_BY_CHAR.setdefault(_p[0], []).append(_p)


#: The lexer's fast path: plain whitespace, then an ASCII identifier or
#: keyword, a decimal integer, or a punctuator that starts with neither ``/``
#: (maybe a comment), ``.`` (maybe a float) nor ``#`` (maybe a preprocessor
#: line).  The lookaheads reject a token the per-character routines would
#: extend (a non-ASCII identifier character, an integer suffix, exponent,
#: fraction or hex prefix); a failed match falls back to those routines.
_FAST_TOKEN = re.compile(
    r"[ \t\r\n\f\v]*(?:"
    r"([A-Za-z_][A-Za-z0-9_]*)(?![A-Za-z0-9_]|[^\x00-\x7f])"
    r"|([0-9]+)(?![A-Za-z0-9_.]|[^\x00-\x7f])"
    r"|("
    + "|".join(re.escape(p) for p in _PUNCTUATORS if p[0] not in "/.#")
    + r"))"
)


class Token:
    """One token: its kind, its exact text and its source offsets."""

    __slots__ = ("kind", "text", "begin_offset", "end_offset")

    def __init__(
        self, kind: TokenKind, text: str, begin_offset: int, end_offset: int
    ) -> None:
        self.kind = kind
        self.text = text
        self.begin_offset = begin_offset
        self.end_offset = end_offset

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.text, self.begin_offset, self.end_offset) == (
            other.kind, other.text, other.begin_offset, other.end_offset,
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.begin_offset, self.end_offset))

    @property
    def begin(self) -> SourceLocation:
        return SourceLocation(self.begin_offset)

    @property
    def end(self) -> SourceLocation:
        return SourceLocation(self.end_offset)

    @property
    def range(self) -> SourceRange:
        return SourceRange.of(self.begin_offset, self.end_offset)

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r})"


class TokenColumns:
    """A token stream as four columns, one entry per token.

    ``kinds`` holds each token's index in :data:`TOKEN_KINDS` as one byte,
    ``texts`` its text, ``begins`` and ``ends`` its offsets.  Columns are
    value-equal when all four are.
    """

    __slots__ = ("kinds", "texts", "begins", "ends")

    def __init__(
        self, kinds: bytes, texts: tuple[str, ...], begins: array, ends: array
    ) -> None:
        self.kinds = kinds
        self.texts = texts
        self.begins = begins
        self.ends = ends

    @classmethod
    def of(cls, tokens: list[Token]) -> "TokenColumns":
        index = _KIND_INDEX
        return cls(
            bytes([index[id(t.kind)] for t in tokens]),
            tuple([t.text for t in tokens]),
            array("l", [t.begin_offset for t in tokens]),
            array("l", [t.end_offset for t in tokens]),
        )

    def token(self, i: int) -> Token:
        """Token ``i``, made from the columns."""
        return Token(
            TOKEN_KINDS[self.kinds[i]], self.texts[i], self.begins[i], self.ends[i]
        )

    def spliced(
        self, start: int, stop: int, tokens: list[Token], delta: int
    ) -> "TokenColumns":
        """These columns with ``[start, stop)`` replaced by ``tokens``, and
        the offsets of every token after them shifted by ``delta``."""
        middle = TokenColumns.of(tokens)
        begins, ends = self.begins[stop:], self.ends[stop:]
        if delta:
            begins = array("l", [b + delta for b in begins])
            ends = array("l", [e + delta for e in ends])
        return TokenColumns(
            self.kinds[:start] + middle.kinds + self.kinds[stop:],
            self.texts[:start] + middle.texts + self.texts[stop:],
            self.begins[:start] + middle.begins + begins,
            self.ends[:start] + middle.ends + ends,
        )

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TokenColumns:
            return NotImplemented
        return (
            self.kinds == other.kinds
            and self.texts == other.texts
            and self.begins == other.begins
            and self.ends == other.ends
        )


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class Lexer:
    """Tokenizes C source text."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.text = source.text
        self.pos = 0
        self.preprocessor_lines: list[SourceRange] = []

    def tokens(self) -> list[Token]:
        """Tokenize the whole file, appending a final EOF token."""
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    def tokens_best_effort(self) -> tuple[list[Token], LexError | None]:
        """Tokenize as far as possible; on error return the prefix.

        Used by the compiler driver to attribute coverage/features to
        malformed inputs (a fuzzer's byte-mutants still exercise the lexer up
        to the first broken token).
        """
        out: list[Token] = []
        while True:
            try:
                tok = self._next_token()
            except LexError as exc:
                return out, exc
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out, None

    # ------------------------------------------------------------------

    def _next_token(self) -> Token:
        match = _FAST_TOKEN.match(self.text, self.pos)
        if match is not None:
            group = match.lastindex
            text = match[group]
            self.pos = end = match.end()
            if group == 1:
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            else:
                kind = TokenKind.INT_LITERAL if group == 2 else TokenKind.PUNCT
            return Token(kind, text, end - len(text), end)
        self._skip_trivia()
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", self.pos, self.pos)

        start = self.pos
        ch = self.text[start]

        if _is_ident_start(ch):
            return self._lex_ident(start)
        if ch.isdigit() or (ch == "." and self._peek_is_digit(start + 1)):
            return self._lex_number(start)
        if ch == "'":
            return self._lex_char(start)
        if ch == '"':
            return self._lex_string(start)
        if ch == "L" and self._peek(start + 1) in ("'", '"'):  # pragma: no cover
            return self._lex_ident(start)
        return self._lex_punct(start)

    def _peek(self, i: int) -> str:
        return self.text[i] if i < len(self.text) else ""

    def _peek_is_digit(self, i: int) -> bool:
        return i < len(self.text) and self.text[i].isdigit()

    def _skip_trivia(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n\f\v":
                self.pos += 1
            elif ch == "/" and self._peek(self.pos + 1) == "/":
                while self.pos < n and text[self.pos] != "\n":
                    self.pos += 1
            elif ch == "/" and self._peek(self.pos + 1) == "*":
                end = text.find("*/", self.pos + 2)
                if end < 0:
                    raise LexError("unterminated block comment", self.pos)
                self.pos = end + 2
            elif ch == "#" and self._at_line_start():
                start = self.pos
                # A preprocessor line, possibly with backslash continuations.
                while self.pos < n:
                    if text[self.pos] == "\n":
                        if text[self.pos - 1] == "\\":
                            self.pos += 1
                            continue
                        break
                    self.pos += 1
                self.preprocessor_lines.append(SourceRange.of(start, self.pos))
            else:
                return

    def _at_line_start(self) -> bool:
        i = self.pos - 1
        while i >= 0 and self.text[i] in " \t":
            i -= 1
        return i < 0 or self.text[i] == "\n"

    def _lex_ident(self, start: int) -> Token:
        i = start
        while i < len(self.text) and _is_ident_char(self.text[i]):
            i += 1
        self.pos = i
        text = self.text[start:i]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, start, i)

    def _lex_number(self, start: int) -> Token:
        text = self.text
        i = start
        is_float = False
        # Tuple membership throughout: past the end ``_peek`` returns "",
        # which ``in "xX"`` would accept.
        if text[i] == "0" and self._peek(i + 1) in ("x", "X"):
            i += 2
            while i < len(text) and (text[i] in "0123456789abcdefABCDEF"):
                i += 1
            # Hex floats are not supported; hex ints may carry suffixes.
        else:
            while i < len(text) and text[i].isdigit():
                i += 1
            if self._peek(i) == "." and not self._peek(i + 1) == ".":
                is_float = True
                i += 1
                while i < len(text) and text[i].isdigit():
                    i += 1
            if self._peek(i) in ("e", "E") and (
                self._peek(i + 1).isdigit()
                or (
                    self._peek(i + 1) in ("+", "-")
                    and self._peek(i + 2).isdigit()
                )
            ):
                is_float = True
                i += 1
                if text[i] in "+-":
                    i += 1
                while i < len(text) and text[i].isdigit():
                    i += 1
        # Suffixes: integer (u/U/l/L combos) or float (f/F/l/L).
        while i < len(text) and text[i] in "uUlLfF":
            if text[i] in "fF":
                is_float = True
            i += 1
        self.pos = i
        kind = TokenKind.FLOAT_LITERAL if is_float else TokenKind.INT_LITERAL
        return Token(kind, text[start:i], start, i)

    def _lex_char(self, start: int) -> Token:
        i = start + 1
        text = self.text
        while i < len(text):
            if text[i] == "\\":
                i += 2
                continue
            if text[i] == "'":
                self.pos = i + 1
                return Token(
                    TokenKind.CHAR_LITERAL, text[start : i + 1], start, i + 1
                )
            if text[i] == "\n":
                break
            i += 1
        raise LexError("unterminated character literal", start)

    def _lex_string(self, start: int) -> Token:
        i = start + 1
        text = self.text
        while i < len(text):
            if text[i] == "\\":
                i += 2
                continue
            if text[i] == '"':
                self.pos = i + 1
                return Token(
                    TokenKind.STRING_LITERAL, text[start : i + 1], start, i + 1
                )
            if text[i] == "\n":
                break
            i += 1
        raise LexError("unterminated string literal", start)

    def _lex_punct(self, start: int) -> Token:
        for p in _PUNCT_BY_CHAR.get(self.text[start], ()):
            if len(p) == 1 or self.text.startswith(p, start):
                self.pos = start + len(p)
                return Token(TokenKind.PUNCT, p, start, self.pos)
        raise LexError(f"stray character {self.text[start]!r}", start)


def tokenize(text: str, name: str = "<input>") -> list[Token]:
    """Tokenize ``text`` and return the token list (including EOF)."""
    return Lexer(SourceFile(text, name)).tokens()
