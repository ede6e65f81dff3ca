"""Unit tests for the CEPR-QL lexer."""

import pytest

from repro.language.errors import CEPRSyntaxError
from repro.language.lexer import tokenize
from repro.language.tokens import TokenType


def types_of(text):
    return [t.type for t in tokenize(text)]


def values_of(text):
    return [t.value for t in tokenize(text)[:-1]]  # drop EOF


class TestBasics:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].type == TokenType.EOF

    def test_whitespace_only(self):
        assert types_of("  \n\t ") == [TokenType.EOF]

    def test_identifiers(self):
        tokens = tokenize("foo _bar baz2")
        assert [t.value for t in tokens[:-1]] == ["foo", "_bar", "baz2"]
        assert all(t.type == TokenType.IDENT for t in tokens[:-1])

    def test_keywords_case_insensitive(self):
        for text in ("PATTERN", "pattern", "Pattern"):
            token = tokenize(text)[0]
            assert token.type == TokenType.KEYWORD and token.value == "PATTERN"

    def test_is_keyword_helper(self):
        token = tokenize("where")[0]
        assert token.is_keyword("WHERE") and token.is_keyword("where")
        assert not token.is_keyword("LIMIT")


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type == TokenType.NUMBER and token.value == 42
        assert isinstance(token.value, int)

    def test_float(self):
        token = tokenize("3.25")[0]
        assert token.value == 3.25 and isinstance(token.value, float)

    def test_leading_dot_float(self):
        assert tokenize(".5")[0].value == 0.5

    def test_scientific_notation(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e2")[0].value == 250.0

    def test_signed_exponent(self):
        """``repr`` writes 1e308 as 1e+308, and the printer uses ``repr``."""
        assert tokenize("1e+308")[0].value == 1e308
        assert tokenize("2.5E-3")[0].value == 0.0025
        assert [t.value for t in tokenize("1e-x")[:3]] == [1, "e", "-"]

    def test_number_followed_by_dot_attr_is_not_float(self):
        # "b.price" after a number: "1.price" lexes as 1 . price
        tokens = tokenize("1.price")
        assert tokens[0].value == 1
        assert tokens[1].type == TokenType.DOT
        assert tokens[2].value == "price"


class TestStrings:
    def test_single_quoted(self):
        assert tokenize("'hello'")[0].value == "hello"

    def test_double_quoted(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(CEPRSyntaxError, match="unterminated string"):
            tokenize("'oops")

    def test_newline_in_string(self):
        with pytest.raises(CEPRSyntaxError, match="newline in string"):
            tokenize("'oops\n'")


class TestOperators:
    @pytest.mark.parametrize(
        "text,token_type",
        [
            ("==", TokenType.EQ),
            ("=", TokenType.EQ),
            ("!=", TokenType.NEQ),
            ("<>", TokenType.NEQ),
            ("<", TokenType.LT),
            ("<=", TokenType.LTE),
            (">", TokenType.GT),
            (">=", TokenType.GTE),
            ("+", TokenType.PLUS),
            ("-", TokenType.MINUS),
            ("*", TokenType.STAR),
            ("/", TokenType.SLASH),
            ("%", TokenType.PERCENT),
            ("(", TokenType.LPAREN),
            (")", TokenType.RPAREN),
            (",", TokenType.COMMA),
            (".", TokenType.DOT),
        ],
    )
    def test_single_operator(self, text, token_type):
        assert tokenize(text)[0].type == token_type

    def test_adjacent_operators(self):
        assert types_of("a<=b")[:3] == [TokenType.IDENT, TokenType.LTE, TokenType.IDENT]

    def test_unexpected_character(self):
        with pytest.raises(CEPRSyntaxError, match="unexpected character"):
            tokenize("a @ b")


class TestCommentsAndPositions:
    def test_line_comment_skipped(self):
        assert values_of("a -- comment here\n b") == ["a", "b"]

    def test_comment_at_end_of_input(self):
        assert values_of("a -- trailing") == ["a"]

    def test_positions_are_one_based(self):
        token = tokenize("  foo")[0]
        assert token.line == 1 and token.column == 3

    def test_line_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_error_carries_position(self):
        try:
            tokenize("ok\n   @")
        except CEPRSyntaxError as exc:
            assert exc.line == 2 and exc.column == 4
        else:
            pytest.fail("expected CEPRSyntaxError")
