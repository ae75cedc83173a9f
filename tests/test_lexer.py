"""Lexer unit and property tests."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.cast.cache import analyze_front_end
from repro.cast.lexer import (
    KEYWORDS,
    Lexer,
    LexError,
    Token,
    TokenColumns,
    TokenKind,
    tokenize,
)
from repro.cast.source import SourceFile, SourceLocation, SourceRange


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("foo _bar x9") == [TokenKind.IDENT] * 3

    def test_keywords_are_tagged(self):
        assert kinds("int return while") == [TokenKind.KEYWORD] * 3

    def test_all_keywords_lex_as_keywords(self):
        for kw in sorted(KEYWORDS):
            toks = tokenize(kw)
            assert toks[0].kind is TokenKind.KEYWORD, kw

    def test_decimal_integer(self):
        assert kinds("42") == [TokenKind.INT_LITERAL]

    def test_hex_integer(self):
        assert texts("0x1F 0XAB") == ["0x1F", "0XAB"]

    def test_integer_suffixes(self):
        assert texts("1u 2UL 3ll 4ULL") == ["1u", "2UL", "3ll", "4ULL"]

    def test_float_forms(self):
        toks = tokenize("1.5 .5 2e10 3.0f 1E-3")
        assert all(t.kind is TokenKind.FLOAT_LITERAL for t in toks[:-1])

    def test_float_vs_member_access(self):
        # `a.b` must not lex the dot into a float.
        assert texts("a.b") == ["a", ".", "b"]

    def test_char_literal(self):
        assert texts(r"'a' '\n' '\0' '\x41'") == ["'a'", r"'\n'", r"'\0'", r"'\x41'"]

    def test_string_literal(self):
        assert kinds('"hello world"') == [TokenKind.STRING_LITERAL]

    def test_string_with_escapes(self):
        assert texts(r'"a\"b"') == [r'"a\"b"']

    def test_maximal_munch_operators(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]
        assert texts("a>>b") == ["a", ">>", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a+++b") == ["a", "++", "+", "b"]

    def test_ellipsis(self):
        assert texts("(...)") == ["(", "...", ")"]


class TestRoundTrips:
    """Positions, tokens and token columns are values: pickling or deep
    copying one gives back an equal one."""

    TEXT = 'int f(int x) { return x + 0x1fu; } char *s = "a\\n";'

    @pytest.mark.parametrize(
        "clone",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_values_come_back_equal(self, clone):
        columns = analyze_front_end(self.TEXT).token_prefix
        values = [
            SourceLocation.at(3),
            SourceRange.of(3, 8),
            *tokenize(self.TEXT),
            columns,
        ]
        for value in values:
            back = clone(value)
            assert type(back) is type(value)
            assert back == value
        assert clone(columns).texts == columns.texts
        assert clone(SourceRange.of(3, 8)).length == 5

    def test_columns_hold_the_token_stream(self):
        tokens = tokenize(self.TEXT)
        columns = TokenColumns.of(tokens)
        assert len(columns) == len(tokens)
        assert [columns.token(i) for i in range(len(tokens))] == tokens
        assert analyze_front_end(self.TEXT).token_prefix == columns
        with pytest.raises(TypeError):
            hash(columns)

    def test_spliced_columns_equal_a_fresh_lex(self):
        text = "int a; int b; int c;"
        mutant = "int a; long bb; int c;"
        parent = TokenColumns.of(tokenize(text))
        window = tokenize(mutant)[3:6]  # long bb ;
        assert parent.spliced(3, 6, window, 2) == TokenColumns.of(
            tokenize(mutant)
        )

    def test_token_equality_reads_kind_text_and_offsets(self):
        tok = Token(TokenKind.IDENT, "x", 4, 5)
        assert tok == Token(TokenKind.IDENT, "x", 4, 5)
        assert hash(tok) == hash(Token(TokenKind.IDENT, "x", 4, 5))
        for other in (
            Token(TokenKind.KEYWORD, "x", 4, 5),
            Token(TokenKind.IDENT, "y", 4, 5),
            Token(TokenKind.IDENT, "x", 3, 5),
            Token(TokenKind.IDENT, "x", 4, 6),
        ):
            assert tok != other


class TestTrivia:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_preprocessor_line_skipped(self):
        assert texts("#include <stdio.h>\nint x;") == ["int", "x", ";"]

    def test_preprocessor_continuation(self):
        assert texts("#define A \\\n 1\nint x;") == ["int", "x", ";"]

    def test_hash_mid_line_is_a_token(self):
        # A '#' that is not at line start is an ordinary punct token.
        assert texts("a # b") == ["a", "#", "b"]


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_stray_character(self):
        with pytest.raises(LexError):
            tokenize("int $x;")

    def test_best_effort_returns_prefix(self):
        lexer = Lexer(SourceFile('int x; "broken'))
        toks, err = lexer.tokens_best_effort()
        assert err is not None
        assert [t.text for t in toks] == ["int", "x", ";"]

    def test_best_effort_success_has_no_error(self):
        lexer = Lexer(SourceFile("int x;"))
        toks, err = lexer.tokens_best_effort()
        assert err is None
        assert toks[-1].kind is TokenKind.EOF


def assert_within_text(toks, text):
    """Every token ends inside the text and EOF sits at its end."""
    assert all(tok.end.offset <= len(text) for tok in toks)
    assert toks[-1].kind is TokenKind.EOF
    assert toks[-1].begin.offset == toks[-1].end.offset == len(text)


class TestRanges:
    def test_token_ranges_cover_text(self):
        text = "int foo = 42;"
        for tok in tokenize(text)[:-1]:
            assert text[tok.begin.offset : tok.end.offset] == tok.text

    @pytest.mark.parametrize("text", ["x=0", "0", "1e", "1e+", "12e-"])
    def test_number_at_end_of_text_stays_inside_it(self, text):
        toks = tokenize(text)
        assert_within_text(toks, text)
        for tok in toks[:-1]:
            assert text[tok.begin.offset : tok.end.offset] == tok.text


@given(
    st.lists(
        st.sampled_from(
            ["int", "x", "42", "0", "0x1F", "1.5", "+", "-", "*", "(", ")",
             "{", "}", ";", "==", "<<=", '"s"', "'c'", "while", "->"]
        ),
        min_size=0,
        max_size=40,
    )
)
def test_roundtrip_token_texts(parts):
    """Lexing space-joined tokens yields exactly those tokens back."""
    text = " ".join(parts)
    toks = tokenize(text)
    assert [t.text for t in toks[:-1]] == parts
    assert_within_text(toks, text)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=120))
def test_lexer_never_crashes_on_printable_garbage(text):
    """Garbage either tokenizes or raises LexError — nothing else."""
    try:
        toks = tokenize(text)
    except LexError:
        return
    assert toks[-1].kind is TokenKind.EOF
