"""Token definitions for the CEPR-QL lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import Any, NamedTuple


class TokenType(Enum):
    """Lexical categories of CEPR-QL."""

    # literals / identifiers
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    # punctuation
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    DOT = auto()
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    # comparison
    EQ = auto()  # = or ==
    NEQ = auto()  # != or <>
    LT = auto()
    LTE = auto()
    GT = auto()
    GTE = auto()
    # keywords (subset of IDENT, promoted by the lexer)
    KEYWORD = auto()
    # end of input
    EOF = auto()


#: Reserved words, upper-cased.  ``AND``/``OR``/``NOT``/``TRUE``/``FALSE``
#: participate in expressions; the rest head clauses.
KEYWORDS: frozenset[str] = frozenset(
    {
        "PATTERN",
        "SEQ",
        "WHERE",
        "WITHIN",
        "EVENTS",
        "USING",
        "PARTITION",
        "BY",
        "RANK",
        "LIMIT",
        "EMIT",
        "ON",
        "WINDOW",
        "CLOSE",
        "EVERY",
        "EAGER",
        "ASC",
        "DESC",
        "AND",
        "OR",
        "NOT",
        "TRUE",
        "FALSE",
        "NAME",
        "YIELD",
    }
)


class Token(NamedTuple):
    """One lexical token with its source position (1-based line/column).

    For ``KEYWORD`` tokens ``value`` is the upper-cased reserved word and
    ``raw`` preserves the original spelling, so contexts where a keyword is
    really an identifier (attribute names after ``.``) can recover it.
    """

    type: TokenType
    value: Any
    line: int
    column: int
    raw: str | None = None

    def is_keyword(self, word: str) -> bool:
        """Whether this token is the keyword ``word`` (case-insensitive)."""
        return self.type is TokenType.KEYWORD and self.value == word.upper()

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"
