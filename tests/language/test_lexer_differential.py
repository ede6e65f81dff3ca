"""Differential tests: the regex lexer against the hand-written one it replaced.

The oracle below is the character-at-a-time lexer CEPR-QL shipped
before the regex scanner, kept verbatim (only its module docstring and
imports are left out).  On any text both must yield the same tokens —
type, value (and the value's Python type), line, column and raw
spelling — or raise the same :class:`CEPRSyntaxError`, message and
position included.  Hypothesis draws texts over the grammar's alphabet;
named corner cases pin the number rules and the three lexical errors;
and every query text in ``tests/``, ``examples/`` and ``benchmarks/``
must lex alike and parse to an equal AST through either lexer.

CI runs this module with a raised example count
(``--hypothesis-profile=ci-thorough``, registered in ``tests/conftest.py``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.language.errors import CEPRSyntaxError
from repro.language.lexer import tokenize
from repro.language.parser import Parser, parse_query
from repro.language.tokens import KEYWORDS, Token, TokenType

# -- the oracle: the hand-written lexer, verbatim ------------------------------

# frozenset: membership of "" (end-of-input peek) must be False.
_ASCII_DIGITS = frozenset("0123456789")

_SINGLE_CHAR: dict[str, TokenType] = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "+": TokenType.PLUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
}


class Lexer:
    """Tokenises a CEPR-QL query string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> list[Token]:
        """Return all tokens, terminated by a single EOF token."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.type == TokenType.EOF:
                return tokens

    # -- internals ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in " \t\r\n":
                self._advance()
            elif char == "-" and self._peek(1) == "-":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            else:
                return

    def _error(self, message: str) -> CEPRSyntaxError:
        return CEPRSyntaxError(message, self.line, self.column)

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        line, column = self.line, self.column
        if self.pos >= len(self.text):
            return Token(TokenType.EOF, None, line, column)

        char = self.text[self.pos]

        if char in _ASCII_DIGITS or (char == "." and self._peek(1) in _ASCII_DIGITS):
            return self._lex_number(line, column)
        if char.isascii() and (char.isalpha() or char == "_"):
            return self._lex_word(line, column)
        if char in ("'", '"'):
            return self._lex_string(line, column, quote=char)

        # two-character operators first
        two = self.text[self.pos : self.pos + 2]
        if two == "==":
            self._advance(2)
            return Token(TokenType.EQ, "==", line, column)
        if two in ("!=", "<>"):
            self._advance(2)
            return Token(TokenType.NEQ, "!=", line, column)
        if two == "<=":
            self._advance(2)
            return Token(TokenType.LTE, "<=", line, column)
        if two == ">=":
            self._advance(2)
            return Token(TokenType.GTE, ">=", line, column)

        if char == "=":
            self._advance()
            return Token(TokenType.EQ, "=", line, column)
        if char == "<":
            self._advance()
            return Token(TokenType.LT, "<", line, column)
        if char == ">":
            self._advance()
            return Token(TokenType.GT, ">", line, column)
        if char == "-":
            self._advance()
            return Token(TokenType.MINUS, "-", line, column)
        if char in _SINGLE_CHAR:
            self._advance()
            return Token(_SINGLE_CHAR[char], char, line, column)

        raise self._error(f"unexpected character {char!r}")

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        seen_dot = False
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in _ASCII_DIGITS:
                self._advance()
            elif char == "." and not seen_dot and self._peek(1) in _ASCII_DIGITS:
                seen_dot = True
                self._advance()
            elif char in "eE" and (
                self._peek(1) in _ASCII_DIGITS
                or self._peek(1) in ("+", "-") and self._peek(2) in _ASCII_DIGITS
            ):
                # an exponent implies a float; ``repr`` writes 1e308 as 1e+308
                seen_dot = True
                self._advance(3 if self._peek(1) in ("+", "-") else 2)
                while self.pos < len(self.text) and self.text[self.pos] in _ASCII_DIGITS:
                    self._advance()
                break
            else:
                break
        text = self.text[start : self.pos]
        value: int | float = float(text) if seen_dot else int(text)
        return Token(TokenType.NUMBER, value, line, column)

    def _lex_word(self, line: int, column: int) -> Token:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isascii()
            and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")
        ):
            self._advance()
        word = self.text[start : self.pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, line, column, raw=word)
        return Token(TokenType.IDENT, word, line, column)

    def _lex_string(self, line: int, column: int, quote: str) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise CEPRSyntaxError("unterminated string literal", line, column)
            char = self.text[self.pos]
            if char == quote:
                if self._peek(1) == quote:  # doubled quote escapes itself
                    chars.append(quote)
                    self._advance(2)
                    continue
                self._advance()
                return Token(TokenType.STRING, "".join(chars), line, column)
            if char == "\n":
                raise CEPRSyntaxError("newline in string literal", line, column)
            chars.append(char)
            self._advance()



def oracle_tokenize(text: str) -> list[Token]:
    return Lexer(text).tokenize()


# -- comparison ----------------------------------------------------------------


def outcome(lex, text):
    """Every token as ``(type, value, value's type, line, column, raw)``,
    or the raised error as ``(message, bare message, line, column)``."""
    try:
        tokens = lex(text)
    except CEPRSyntaxError as error:
        return ("error", str(error), error.bare_message, error.line, error.column)
    return [
        (t.type, t.value, type(t.value), t.line, t.column, t.raw) for t in tokens
    ]


def assert_same(text):
    assert outcome(tokenize, text) == outcome(oracle_tokenize, text), repr(text)


# Pieces of the grammar's alphabet: digits and everything a number may
# hold, both quotes (alone and doubled), comment starts, whitespace
# including CR (and the form feed and vertical tab it must reject), every
# operator character, ASCII words and keywords, and non-ASCII letters and
# digits the lexer must reject.
PIECES = [
    *"0123456789", ".", "e", "E", "+", "-", "'", '"', "''", '""', "--",
    " ", "\t", "\r", "\n", "\r\n", "\f", "\v",
    *"=!<>()*/%,", "==", "!=", "<>", "<=", ">=",
    "a", "x_1", "_", "Buy", "b.price", "price", "PATTERN", "seq", "And", "not",
    "1e5", "1.5", ".5", "1e+", "2E-3",
    "é", "ß", "Ω", "٣", "²", "@", "\x00", "\u00a0",
]

texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.text(alphabet=st.sampled_from([p for p in PIECES if len(p) == 1]), max_size=60),
    st.text(max_size=40),
)


class TestAgainstTheHandWrittenLexer:
    @given(texts)
    @example("")
    @example("'it''s' \"say \"\"hi\"\"\"")
    @example("a -- c\r\nb")
    def test_same_tokens_or_same_error(self, text):
        assert_same(text)

    @given(
        st.lists(
            st.sampled_from(["1", "12", ".", "e", "E", "+", "-", "5", "x", " "]),
            max_size=12,
        ).map("".join)
    )
    def test_number_soup(self, text):
        assert_same(text)

    @given(
        st.lists(
            st.sampled_from(["'", '"', "a", "''", "\n", "\r", " ", "é", "--"]),
            max_size=12,
        ).map("".join)
    )
    def test_string_soup(self, text):
        assert_same(text)


class TestCornerCases:
    @pytest.mark.parametrize(
        "text,values",
        [
            ("1.", [1, "."]),
            (".5", [0.5]),
            ("1e5", [100000.0]),
            ("1e", [1, "e"]),
            ("1.2.3", [1.2, 0.3]),
            ("1.e5", [1, ".", "e5"]),
            ("1e+", [1, "e", "+"]),
            ("1e+5", [1e5]),
            ("007", [7]),
            ("1.5e-2x", [0.015, "x"]),
        ],
    )
    def test_number_rules(self, text, values):
        tokens = tokenize(text)[:-1]
        assert [t.value for t in tokens] == values
        assert [type(t.value) for t in tokens] == [type(v) for v in values]
        assert_same(text)

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("a @ b", "unexpected character '@'", 1, 3),
            ("ok\n   é", "unexpected character 'é'", 2, 4),
            ("x !y", "unexpected character '!'", 1, 3),
            ("a\n 'oops", "unterminated string literal", 2, 2),
            ("a 'it''", "unterminated string literal", 1, 3),
            ("\"ab\ncd\"", "newline in string literal", 1, 1),
            ("b\r\n  'x\r\n'", "newline in string literal", 2, 3),
        ],
    )
    def test_errors_and_their_positions(self, text, message, line, column):
        with pytest.raises(CEPRSyntaxError) as raised:
            tokenize(text)
        error = raised.value
        assert (error.bare_message, error.line, error.column) == (message, line, column)
        assert_same(text)

    def test_eof_sits_after_trailing_whitespace_and_comments(self):
        eof = tokenize("a\n  -- done\n  ")[-1]
        assert (eof.type, eof.line, eof.column) == (TokenType.EOF, 3, 3)

    def test_every_keyword_keeps_its_spelling(self):
        for word in KEYWORDS:
            spelled = word.capitalize()
            token = tokenize(spelled)[0]
            assert (token.type, token.value, token.raw) == (
                TokenType.KEYWORD, word, spelled
            )


# -- every query text the repository ships -------------------------------------

ROOT = Path(__file__).resolve().parents[2]


def shipped_query_texts() -> list[str]:
    """String constants that mention ``PATTERN`` in the Python sources of
    ``tests/``, ``examples/`` and ``benchmarks/`` (adjacent literals are
    joined by the compiler; templates with ``{...}`` holes lex to an
    error, which must be the same error)."""
    found: set[str] = set()
    for folder in ("tests", "examples", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and "PATTERN" in node.value.upper()
                ):
                    found.add(node.value)
    return sorted(found)


def parse_with(lex, text):
    parser = Parser.__new__(Parser)
    parser.tokens = lex(text)
    parser.pos = 0
    return parser.parse()


def parsed(parse, text):
    try:
        return parse(text)
    except CEPRSyntaxError as error:
        return ("error", str(error))
    except Exception as error:  # a semantic-free parse raises nothing else
        return ("raised", type(error).__name__, str(error))


def test_every_shipped_query_lexes_and_parses_alike():
    texts = shipped_query_texts()
    parses = 0
    for text in texts:
        assert_same(text)
        new = parsed(parse_query, text)
        assert new == parsed(lambda t: parse_with(oracle_tokenize, t), text), text
        parses += not isinstance(new, tuple)
    # The corpus is what makes this test mean something.
    assert len(texts) > 300 and parses > 250, (len(texts), parses)
