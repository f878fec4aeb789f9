"""Lexer unit tests."""

import pytest

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import (
    KIND_CHAR,
    KIND_EOF,
    KIND_FLOAT,
    KIND_IDENT,
    KIND_INT,
    KIND_KEYWORD,
    KIND_PUNCT,
    KIND_STRING,
)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


def test_empty_source_yields_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == KIND_EOF


def test_identifiers_and_keywords():
    toks = tokenize("int foo _bar baz42")
    assert toks[0].kind == KIND_KEYWORD
    assert [t.kind for t in toks[1:4]] == [KIND_IDENT] * 3
    assert [t.value for t in toks[1:4]] == ["foo", "_bar", "baz42"]


def test_decimal_integer():
    assert values("42 0 123456789") == [42, 0, 123456789]


def test_hex_integer():
    assert values("0x10 0xff 0XDEAD") == [16, 255, 0xDEAD]


def test_octal_integer():
    # A leading 0 makes a C integer constant octal (C99 6.4.4.1).
    assert values("0777 0 00 010 0x1F") == [511, 0, 0, 8, 31]


def test_leading_zero_float_stays_decimal():
    assert values("09.5 01e1") == [9.5, 10.0]


def test_largest_integer_constant():
    # 2**64 - 1 in each base, and leading zeros do not count as digits.
    assert values("18446744073709551615 0xffffffffffffffff "
                  "01777777777777777777777 " + "0" * 40 + "7") == [
        2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1, 7]


@pytest.mark.parametrize("literal, message", [
    ("09", "invalid digit '9' in octal constant"),
    ("0778", "invalid digit '8' in octal constant"),
    ("0x", "hexadecimal constant has no digits"),
    ("0xg", "hexadecimal constant has no digits"),
    ("99999999999999999999999", "too large"),
    ("18446744073709551616", "too large"),
    ("0x10000000000000000", "too large"),
    ("02000000000000000000000", "too large"),
    # Past Python's 4,300-digit limit for int() of a string.
    ("1" * 5001, "too large"),
])
def test_bad_integer_literal_is_a_lex_error(literal, message):
    with pytest.raises(LexError) as caught:
        tokenize(f"int x =\n   {literal};")
    assert (caught.value.line, caught.value.col) == (2, 4)
    assert message in caught.value.message


def test_integer_suffixes_ignored():
    assert values("10u 10L 10UL") == [10, 10, 10]


def test_float_constants():
    toks = tokenize("3.14 1e3 2.5e-2")
    assert all(t.kind == KIND_FLOAT for t in toks[:-1])
    assert toks[0].value == pytest.approx(3.14)
    assert toks[1].value == pytest.approx(1000.0)
    assert toks[2].value == pytest.approx(0.025)


def test_char_constants():
    assert values("'a' '\\n' '\\0' '\\x41'") == [97, 10, 0, 65]


def test_string_literal_with_escapes():
    toks = tokenize(r'"hi\n"')
    assert toks[0].kind == KIND_STRING
    assert toks[0].value == b"hi\n"


def test_multi_char_punctuators_greedy():
    assert values("a <<= b >>= c -> d ++ -- ...") == [
        "a", "<<=", "b", ">>=", "c", "->", "d", "++", "--", "...",
    ]


def test_line_comment_skipped():
    assert values("a // comment\n b") == ["a", "b"]


def test_block_comment_skipped():
    assert values("a /* x\ny */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_preprocessor_lines_skipped():
    assert values("#include <stdio.h>\nint x;") == ["int", "x", ";"]


def test_line_and_column_tracking():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_unknown_character_raises():
    with pytest.raises(LexError):
        tokenize("int @ x;")


def test_adjacent_operators_not_merged():
    assert values("a+++b") == ["a", "++", "+", "b"]


def test_null_keyword():
    toks = tokenize("NULL")
    assert toks[0].kind == KIND_KEYWORD
