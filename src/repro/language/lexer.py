"""Hand-written lexer for CEPR-QL.

Produces a list of :class:`~repro.language.tokens.Token`.  Identifiers
matching a reserved word (case-insensitively) are promoted to ``KEYWORD``
tokens carrying the upper-cased word.  ``--`` starts a comment running to
end of line, SQL style.
"""

from __future__ import annotations

from repro.language.errors import CEPRSyntaxError
from repro.language.tokens import KEYWORDS, Token, TokenType

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


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text``; convenience wrapper over :class:`Lexer`."""
    return Lexer(text).tokenize()
