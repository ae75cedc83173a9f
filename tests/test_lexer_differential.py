"""The lexer's regex fast path against the frozen per-character reference.

Both lexers must agree on every token (kind, text, offsets), on the
``LexError`` message and offset, and on the preprocessor lines they skip,
for whole files and for ``_next_token`` started at arbitrary offsets (the
incremental front end's entry point).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cast.lexer import Lexer, LexError
from repro.cast.source import SourceFile
from repro.compiler import GCC_SIM, Compiler
from repro.fuzzing.baselines import AFLPlusPlus
from repro.fuzzing.seedgen import generate_seeds
from tests.reference_lexer import ReferenceLexer


def _ranges(ranges) -> list[tuple[int, int]]:
    return [(r.begin.offset, r.end.offset) for r in ranges]


def _tokens(tokens) -> list[tuple]:
    return [(t.kind, t.text, t.begin.offset, t.end.offset) for t in tokens]


def file_outcome(lexer_cls, text: str) -> tuple:
    lexer = lexer_cls(SourceFile(text))
    tokens, error = lexer.tokens_best_effort()
    return (
        _tokens(tokens),
        None if error is None else (error.message, error.offset),
        _ranges(lexer.preprocessor_lines),
    )


def next_token_outcome(lexer_cls, text: str, offset: int) -> tuple:
    lexer = lexer_cls(SourceFile(text))
    lexer.pos = offset
    try:
        got = _tokens([lexer._next_token()])
    except LexError as exc:
        got = (exc.message, exc.offset)
    return got, lexer.pos, _ranges(lexer.preprocessor_lines)


def assert_same_lexing(text: str, offsets) -> None:
    assert file_outcome(Lexer, text) == file_outcome(ReferenceLexer, text)
    for offset in offsets:
        assert next_token_outcome(Lexer, text, offset) == next_token_outcome(
            ReferenceLexer, text, offset
        ), offset


@pytest.fixture(scope="module")
def corpus() -> list[str]:
    return generate_seeds(300)


def test_seed_corpus(corpus):
    rng = random.Random(0)
    for text in corpus:
        assert_same_lexing(text, rng.sample(range(len(text) + 1), 40))


def test_byte_havoc_variants(corpus):
    """AFL++-style stacked byte havoc, decoded as latin-1 like that fuzzer."""
    havoc = AFLPlusPlus(Compiler(*GCC_SIM), random.Random(7), corpus)
    rng = random.Random(1)
    for text in corpus:
        for _ in range(2):
            data = bytearray(text.encode("latin-1", "replace"))
            for _ in range(1 << rng.randint(0, 4)):
                havoc._havoc_once(data)
            variant = bytes(data).decode("latin-1")
            assert_same_lexing(
                variant, rng.sample(range(len(variant) + 1), 8)
            )


#: Fragments covering every token form and every path out of the fast path:
#: non-ASCII identifier and digit characters, a non-breaking space,
#: comments, ``#`` lines with continuations, every literal form with and
#: without a terminator, and punctuators of every first character.
_FRAGMENTS = [
    "int", "x", "_y9", "L", "é", "²", "¼", "٣", "\xa0", "$", "@", "`",
    " ", "\t", "\n", "\r", "\f", "\v", "\\", "\\\n",
    "//c\n", "// tail", "/*c*/", "/*", "*/", "#", "#define A 1\n",
    "# if 0 \\\n x\n",
    "0", "00", "07", "42", "0x1F", "0X", "0xg", "1u", "2UL", "3ll", "4f",
    "1.5", ".5", "1.", "1..", "1e10", "1E-3", "1e", "1e+", "2e+x", "3.0f",
    "'a'", "'\\n'", "'\\''", "'", '"s"', '"\\""', '"', "L'a'", 'L"s"',
    "...", ".", "->", "++", "+=", "+", "--", "-=", "-", "<<=", "<<", "<=",
    "<", ">>=", ">>", ">=", ">", "==", "=", "!=", "!", "&&", "&=", "&",
    "||", "|=", "|", "^=", "^", "*=", "*", "/=", "/", "%=", "%", "~", "?",
    ":", ";", ",", "(", ")", "{", "}", "[", "]",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
def test_fragment_strings(text):
    assert_same_lexing(text, range(len(text) + 1))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=sorted(set("".join(_FRAGMENTS))), max_size=60))
def test_character_strings(text):
    assert_same_lexing(text, range(len(text) + 1))
