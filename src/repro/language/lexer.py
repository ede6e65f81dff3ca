"""Regex-driven lexer for CEPR-QL.

Produces a list of :class:`~repro.language.tokens.Token`.  Identifiers
matching a reserved word (case-insensitively) are promoted to ``KEYWORD``
tokens carrying the upper-cased word.  ``--`` starts a comment running to
end of line, SQL style.

One compiled pattern scans the whole text: each match is the
whitespace and comments before one token, then the token — or the end
of the text, or one character no token starts with (the error case).
Lines and columns are computed from match offsets: only the skipped
part of a match can span a newline.
"""

from __future__ import annotations

import re

from repro.language.errors import CEPRSyntaxError
from repro.language.tokens import KEYWORDS, Token, TokenType

# Alternatives are tried in order: a comment before ``-``, a number
# before ``.``.  Digits and letters are ASCII only.  A number's ``.``
# needs a digit after it (``1.`` is ``1`` then ``.``) and so does its
# exponent (``1e`` is ``1`` then ``e``).  A closing quote is one not
# followed by another: a doubled quote escapes itself.
_SCANNER = re.compile(
    r"""
    (?:[ \t\r\n]+|--[^\n]*)*
    (?:(?P<number>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
      |(?P<word>[A-Za-z_][A-Za-z0-9_]*)
      |(?P<string>'(?:[^'\n]|'')*'(?!')|"(?:[^"\n]|"")*"(?!"))
      |(?P<op>==|!=|<>|<=|>=|[=<>\-(),.+*/%])
      |(?P<end>\Z)
      |(?P<bad>[\s\S]))
    """,
    re.VERBOSE,
)

_OPERATORS: dict[str, tuple[TokenType, str]] = {
    "==": (TokenType.EQ, "=="),
    "=": (TokenType.EQ, "="),
    "!=": (TokenType.NEQ, "!="),
    "<>": (TokenType.NEQ, "!="),
    "<=": (TokenType.LTE, "<="),
    ">=": (TokenType.GTE, ">="),
    "<": (TokenType.LT, "<"),
    ">": (TokenType.GT, ">"),
    "-": (TokenType.MINUS, "-"),
    "(": (TokenType.LPAREN, "("),
    ")": (TokenType.RPAREN, ")"),
    ",": (TokenType.COMMA, ","),
    ".": (TokenType.DOT, "."),
    "+": (TokenType.PLUS, "+"),
    "*": (TokenType.STAR, "*"),
    "/": (TokenType.SLASH, "/"),
    "%": (TokenType.PERCENT, "%"),
}

_NUMBER = TokenType.NUMBER
_IDENT = TokenType.IDENT
_KEYWORD = TokenType.KEYWORD
_STRING = TokenType.STRING
# Tokens are built as plain tuples of the NamedTuple's type: no
# Python-level constructor runs per token.
_new = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text``: all tokens, terminated by a single EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        start = match.start(kind)
        skipped = match.start()
        if start != skipped:
            newlines = text.count("\n", skipped, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", skipped, start) + 1
        column = start - line_start + 1
        if kind == "word":
            word = match.group(kind)
            upper = word.upper()
            if upper in KEYWORDS:
                append(_new(Token, (_KEYWORD, upper, line, column, word)))
            else:
                append(_new(Token, (_IDENT, word, line, column, None)))
        elif kind == "op":
            token_type, value = _OPERATORS[match.group(kind)]
            append(_new(Token, (token_type, value, line, column, None)))
        elif kind == "number":
            literal = match.group(kind)
            # a fraction or an exponent makes a float; ``repr`` writes
            # 1e308 as 1e+308
            number = int(literal) if literal.isdigit() else float(literal)
            append(_new(Token, (_NUMBER, number, line, column, None)))
        elif kind == "string":
            literal = match.group(kind)
            quote = literal[0]
            content = literal[1:-1].replace(quote + quote, quote)
            append(_new(Token, (_STRING, content, line, column, None)))
        elif kind == "end":
            append(_new(Token, (TokenType.EOF, None, line, column, None)))
            break
        else:
            char = match.group(kind)
            if char in ("'", '"'):
                # No closing quote before the end of the line: the literal
                # runs into a newline, or off the end of the text.
                message = (
                    "newline in string literal"
                    if text.find("\n", start) >= 0
                    else "unterminated string literal"
                )
                raise CEPRSyntaxError(message, line, column)
            raise CEPRSyntaxError(f"unexpected character {char!r}", line, column)
    return tokens

