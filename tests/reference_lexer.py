"""A frozen copy of the per-character C lexer, the differential reference.

This is :class:`repro.cast.lexer.Lexer` as it was before its regex fast path
(with the end-of-text fix for a trailing ``0``), kept verbatim so the fast
path can be checked against it: every token, ``LexError`` and preprocessor
line must come out the same.  It builds the library's ``Token`` and raises
its ``LexError`` so results compare directly.  Do not edit it to follow the
lexer; a change in what the lexer accepts should fail the differential test.
"""

from __future__ import annotations

from repro.cast.lexer import LexError, Token, TokenKind
from repro.cast.source import SourceFile, SourceLocation, SourceRange

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

_PUNCT_BY_CHAR: dict[str, list[str]] = {}
for _p in _PUNCTUATORS:
    _PUNCT_BY_CHAR.setdefault(_p[0], []).append(_p)


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class ReferenceLexer:
    """Tokenizes C source text one character at a time."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.text = source.text
        self.pos = 0
        self.preprocessor_lines: list[SourceRange] = []

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    def tokens_best_effort(self) -> tuple[list[Token], LexError | None]:
        out: list[Token] = []
        while True:
            try:
                tok = self._next_token()
            except LexError as exc:
                return out, exc
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out, None

    def _next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.text):
            loc = SourceLocation(self.pos)
            return Token(TokenKind.EOF, "", SourceRange(loc, loc))

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
        return Token(kind, text, SourceRange.of(start, i))

    def _lex_number(self, start: int) -> Token:
        text = self.text
        i = start
        is_float = False
        if text[i] == "0" and self._peek(i + 1) in ("x", "X"):
            i += 2
            while i < len(text) and (text[i] in "0123456789abcdefABCDEF"):
                i += 1
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
        while i < len(text) and text[i] in "uUlLfF":
            if text[i] in "fF":
                is_float = True
            i += 1
        self.pos = i
        kind = TokenKind.FLOAT_LITERAL if is_float else TokenKind.INT_LITERAL
        return Token(kind, text[start:i], SourceRange.of(start, i))

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
                    TokenKind.CHAR_LITERAL,
                    text[start : i + 1],
                    SourceRange.of(start, i + 1),
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
                    TokenKind.STRING_LITERAL,
                    text[start : i + 1],
                    SourceRange.of(start, i + 1),
                )
            if text[i] == "\n":
                break
            i += 1
        raise LexError("unterminated string literal", start)

    def _lex_punct(self, start: int) -> Token:
        for p in _PUNCT_BY_CHAR.get(self.text[start], ()):
            if len(p) == 1 or self.text.startswith(p, start):
                self.pos = start + len(p)
                return Token(TokenKind.PUNCT, p, SourceRange.of(start, self.pos))
        raise LexError(f"stray character {self.text[start]!r}", start)
