"""Recursive-descent parser for CEPR-QL.

Grammar (clauses may appear in any order after ``PATTERN``, each at most
once)::

    query       := [NAME ident] PATTERN SEQ '(' element (',' element)* ')'
                   clause*
    clause      := WHERE expr
                 | WITHIN number (EVENTS | unit)
                 | USING strategy
                 | PARTITION BY ident (',' ident)*
                 | RANK BY rank_key (',' rank_key)*
                 | LIMIT int
                 | EMIT (ON WINDOW CLOSE | EVERY number (EVENTS|unit) | EAGER)
    element     := [NOT] TypeName varName ['+']
    rank_key    := expr [ASC | DESC]

    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := unary_bool (AND unary_bool)*
    unary_bool  := NOT unary_bool | comparison
    comparison  := additive [(= | == | != | <> | < | <= | > | >=) additive]
    additive    := multiplicative ((+|-) multiplicative)*
    multiplicative := unary ((*|/|%) unary)*
    unary       := - unary | primary
    primary     := NUMBER | STRING | TRUE | FALSE | '(' expr ')'
                 | ident '(' args ')' | ident '.' ident | ident

Function-call forms are post-processed into the dedicated AST nodes:
``avg(v.x)`` → :class:`~repro.language.ast_nodes.Aggregate`,
``prev(v.x)`` → :class:`~repro.language.ast_nodes.PrevRef`, other names →
:class:`~repro.language.ast_nodes.FuncCall`.
"""

from __future__ import annotations

from repro.events.time import parse_duration
from repro.language.ast_nodes import (
    AGGREGATE_FUNCS,
    AttrRef,
    Binary,
    BinaryOp,
    Direction,
    EmitKind,
    EmitSpec,
    Expr,
    FuncCall,
    Literal,
    PatternElement,
    PrevRef,
    Query,
    RankKey,
    STRATEGY_ALIASES,
    Unary,
    UnaryOp,
    VarRef,
    WindowKind,
    WindowSpec,
    Aggregate,
    YieldSpec,
)
from repro.language.errors import CEPRSyntaxError
from repro.language.lexer import tokenize
from repro.language.tokens import Token, TokenType

#: Scalar built-in functions, with their arity (None = variadic >= 1).
BUILTIN_FUNCS: dict[str, int | None] = {
    "abs": 1,
    "duration": 0,
    "timestamp": 1,
    "ts": 1,
    "round": 1,
    "floor": 1,
    "ceil": 1,
    "sqrt": 1,
    "log": 1,
    "exp": 1,
    "sign": 1,
    "min2": 2,
    "max2": 2,
}

_COMPARISON_OPS: dict[TokenType, BinaryOp] = {
    TokenType.EQ: BinaryOp.EQ,
    TokenType.NEQ: BinaryOp.NEQ,
    TokenType.LT: BinaryOp.LT,
    TokenType.LTE: BinaryOp.LTE,
    TokenType.GT: BinaryOp.GT,
    TokenType.GTE: BinaryOp.GTE,
}

_MULTIPLICATIVE_OPS: dict[TokenType, BinaryOp] = {
    TokenType.STAR: BinaryOp.MUL,
    TokenType.SLASH: BinaryOp.DIV,
    TokenType.PERCENT: BinaryOp.MOD,
}

_KEYWORD = TokenType.KEYWORD
_PLUS = TokenType.PLUS
_MINUS = TokenType.MINUS

_TIME_UNITS = frozenset(
    {
        "MILLISECOND", "MILLISECONDS", "MS",
        "SECOND", "SECONDS", "S",
        "MINUTE", "MINUTES", "MIN",
        "HOUR", "HOURS", "H",
        "DAY", "DAYS",
    }
)


class Parser:
    """Parses one CEPR-QL query string into a :class:`Query` AST."""

    def __init__(self, text: str) -> None:
        #: ends in EOF, which :meth:`_advance` never moves past: the
        #: current token is always ``tokens[pos]``.
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers -------------------------------------------------------
    # The expression descent below reads ``tokens[pos]`` and steps ``pos``
    # past a token it has just matched (never EOF) itself: it runs once per
    # token of every predicate.

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> CEPRSyntaxError:
        token = token or self._peek()
        return CEPRSyntaxError(message, token.line, token.column)

    def _expect(self, token_type: TokenType, what: str) -> Token:
        token = self._peek()
        if token.type != token_type:
            raise self._error(f"expected {what}, found {token.value!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise self._error(f"expected {word!r}, found {token.value!r}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_ident(self, what: str) -> str:
        token = self._peek()
        # Allow event-type / variable names that collide with soft keywords
        # used only at clause heads (e.g. a variable named "close") — but the
        # grammar keeps things simple: identifiers must not be reserved.
        if token.type != TokenType.IDENT:
            raise self._error(f"expected {what}, found {token.value!r}")
        return self._advance().value

    def _expect_attr_name(self) -> str:
        """Attribute names (after ``.``) may collide with reserved words."""
        token = self._peek()
        if token.type == TokenType.IDENT:
            return self._advance().value
        if token.type == TokenType.KEYWORD and token.raw is not None:
            return self._advance().raw
        raise self._error(f"expected attribute name, found {token.value!r}")

    # -- entry point ---------------------------------------------------------

    def parse(self) -> Query:
        name = None
        if self._accept_keyword("NAME"):
            name = self._expect_ident("query name")
        self._expect_keyword("PATTERN")
        pattern = self._parse_pattern()

        where: Expr | None = None
        window: WindowSpec | None = None
        strategy = None
        partition_by: tuple[str, ...] = ()
        rank_by: tuple[RankKey, ...] = ()
        limit: int | None = None
        emit: EmitSpec | None = None
        yield_spec: YieldSpec | None = None
        seen: set[str] = set()

        while self._peek().type != TokenType.EOF:
            token = self._peek()
            if token.type != TokenType.KEYWORD:
                raise self._error(f"expected a clause keyword, found {token.value!r}")
            clause = token.value
            if clause in seen:
                raise self._error(f"duplicate {clause} clause")
            if clause == "WHERE":
                self._advance()
                where = self._parse_expr()
            elif clause == "WITHIN":
                self._advance()
                window = self._parse_window()
            elif clause == "USING":
                self._advance()
                strategy = self._parse_strategy()
            elif clause == "PARTITION":
                self._advance()
                self._expect_keyword("BY")
                partition_by = self._parse_ident_list("partition attribute")
            elif clause == "RANK":
                self._advance()
                self._expect_keyword("BY")
                rank_by = self._parse_rank_keys()
            elif clause == "LIMIT":
                self._advance()
                limit = self._parse_limit()
            elif clause == "EMIT":
                self._advance()
                emit = self._parse_emit()
            elif clause == "YIELD":
                self._advance()
                yield_spec = self._parse_yield()
            else:
                raise self._error(f"unexpected keyword {clause!r}")
            seen.add(clause)

        return Query(
            pattern=pattern,
            where=where,
            window=window,
            strategy=strategy,
            partition_by=partition_by,
            rank_by=rank_by,
            limit=limit,
            emit=emit,
            name=name,
            yield_spec=yield_spec,
        )

    # -- clauses -------------------------------------------------------------

    def _parse_pattern(self) -> tuple[PatternElement, ...]:
        self._expect_keyword("SEQ")
        self._expect(TokenType.LPAREN, "'('")
        elements = [self._parse_element()]
        while self._peek().type == TokenType.COMMA:
            self._advance()
            elements.append(self._parse_element())
        self._expect(TokenType.RPAREN, "')'")
        return tuple(elements)

    def _parse_element(self) -> PatternElement:
        negated = self._accept_keyword("NOT")
        event_type = self._expect_ident("event type")
        variable = self._expect_ident("pattern variable")
        kleene = False
        if self._peek().type == TokenType.PLUS:
            self._advance()
            kleene = True
        if negated and kleene:
            raise self._error("a negated pattern element cannot be Kleene (+)")
        return PatternElement(event_type, variable, kleene=kleene, negated=negated)

    def _parse_window(self) -> WindowSpec:
        number = self._expect(TokenType.NUMBER, "window size").value
        token = self._peek()
        if token.is_keyword("EVENTS"):
            self._advance()
            if number != int(number):
                raise self._error("count window size must be an integer", token)
            return WindowSpec(WindowKind.COUNT, float(int(number)))
        if token.type == TokenType.IDENT and token.value.upper() in _TIME_UNITS:
            self._advance()
            return WindowSpec(WindowKind.TIME, parse_duration(number, token.value))
        raise self._error(
            f"expected EVENTS or a time unit after window size, found {token.value!r}"
        )

    def _parse_strategy(self):
        token = self._peek()
        if token.type != TokenType.IDENT and token.type != TokenType.KEYWORD:
            raise self._error(f"expected a selection strategy, found {token.value!r}")
        name = str(token.value).upper()
        strategy = STRATEGY_ALIASES.get(name)
        if strategy is None:
            raise self._error(
                f"unknown selection strategy {token.value!r}; expected one of "
                f"{sorted(set(STRATEGY_ALIASES))}"
            )
        self._advance()
        return strategy

    def _parse_ident_list(self, what: str) -> tuple[str, ...]:
        names = [self._expect_ident(what)]
        while self._peek().type == TokenType.COMMA:
            self._advance()
            names.append(self._expect_ident(what))
        return tuple(names)

    def _parse_rank_keys(self) -> tuple[RankKey, ...]:
        keys = [self._parse_rank_key()]
        while self._peek().type == TokenType.COMMA:
            self._advance()
            keys.append(self._parse_rank_key())
        return tuple(keys)

    def _parse_rank_key(self) -> RankKey:
        expr = self._parse_expr()
        direction = Direction.ASC
        if self._accept_keyword("ASC"):
            direction = Direction.ASC
        elif self._accept_keyword("DESC"):
            direction = Direction.DESC
        return RankKey(expr, direction)

    def _parse_limit(self) -> int:
        # LIMIT 0 parses (so the static analyzer can report it as CEPR303
        # with a span and fix hint); semantic analysis rejects it before
        # anything reaches the runtime.
        token = self._expect(TokenType.NUMBER, "limit")
        value = token.value
        if value != int(value) or value < 0:
            raise self._error("LIMIT must be a non-negative integer", token)
        return int(value)

    def _parse_emit(self) -> EmitSpec:
        if self._accept_keyword("ON"):
            self._expect_keyword("WINDOW")
            self._expect_keyword("CLOSE")
            return EmitSpec(EmitKind.ON_WINDOW_CLOSE)
        if self._accept_keyword("EAGER"):
            return EmitSpec(EmitKind.EAGER)
        if self._accept_keyword("EVERY"):
            number = self._expect(TokenType.NUMBER, "emission period").value
            token = self._peek()
            if token.is_keyword("EVENTS"):
                self._advance()
                if number != int(number):
                    raise self._error("event period must be an integer", token)
                return EmitSpec(EmitKind.EVERY, float(int(number)), WindowKind.COUNT)
            if token.type == TokenType.IDENT and token.value.upper() in _TIME_UNITS:
                self._advance()
                return EmitSpec(
                    EmitKind.EVERY, parse_duration(number, token.value), WindowKind.TIME
                )
            raise self._error(
                f"expected EVENTS or a time unit after EMIT EVERY, found {token.value!r}"
            )
        raise self._error(
            f"expected ON WINDOW CLOSE, EVERY, or EAGER, found {self._peek().value!r}"
        )

    def _parse_yield(self) -> YieldSpec:
        event_type = self._expect_ident("derived event type")
        self._expect(TokenType.LPAREN, "'('")
        assignments: list[tuple[str, Expr]] = []
        seen_attrs: set[str] = set()
        while True:
            attr = self._expect_attr_name()
            if attr in seen_attrs:
                raise self._error(f"duplicate YIELD attribute {attr!r}")
            seen_attrs.add(attr)
            self._expect(TokenType.EQ, "'='")
            assignments.append((attr, self._parse_expr()))
            if self._peek().type == TokenType.COMMA:
                self._advance()
                continue
            break
        self._expect(TokenType.RPAREN, "')'")
        return YieldSpec(event_type, tuple(assignments))

    # -- expressions ----------------------------------------------------------

    def _parse_expr(self) -> Expr:
        """``or_expr``."""
        tokens = self.tokens
        left = self._parse_and()
        while (token := tokens[self.pos]).type is _KEYWORD and token.value == "OR":
            self.pos += 1
            left = Binary(BinaryOp.OR, left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        tokens = self.tokens
        left = self._parse_not()
        while (token := tokens[self.pos]).type is _KEYWORD and token.value == "AND":
            self.pos += 1
            left = Binary(BinaryOp.AND, left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        token = self.tokens[self.pos]
        if token.type is _KEYWORD and token.value == "NOT":
            self.pos += 1
            return Unary(UnaryOp.NOT, self._parse_not())
        left = self._parse_additive()
        op = _COMPARISON_OPS.get(self.tokens[self.pos].type)
        if op is None:
            return left
        self.pos += 1
        return Binary(op, left, self._parse_additive())

    def _parse_additive(self) -> Expr:
        tokens = self.tokens
        left = self._parse_multiplicative()
        while (token_type := tokens[self.pos].type) is _PLUS or token_type is _MINUS:
            self.pos += 1
            op = BinaryOp.ADD if token_type is _PLUS else BinaryOp.SUB
            left = Binary(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        tokens = self.tokens
        left = self._parse_unary()
        while (op := _MULTIPLICATIVE_OPS.get(tokens[self.pos].type)) is not None:
            self.pos += 1
            left = Binary(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        token = self.tokens[self.pos]
        if token.type is _MINUS:
            self.pos += 1
            return Unary(UnaryOp.NEG, self._parse_unary())
        token_type = token.type
        if token_type is TokenType.IDENT:
            return self._parse_name_or_call(token)
        if token_type is TokenType.NUMBER or token_type is TokenType.STRING:
            self.pos += 1
            return Literal(token.value)
        if token_type is _KEYWORD and (token.value == "TRUE" or token.value == "FALSE"):
            self.pos += 1
            return Literal(token.value == "TRUE")
        if token_type is TokenType.LPAREN:
            self.pos += 1
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN, "')'")
            return expr
        raise self._error(f"expected an expression, found {token.value!r}")

    def _parse_name_or_call(self, name_token: Token) -> Expr:
        """``ident '(' args ')' | ident '.' ident | ident``; ``name_token``
        is the current token."""
        self.pos += 1
        name = name_token.value
        token_type = self.tokens[self.pos].type
        if token_type is TokenType.LPAREN:
            return self._parse_call(name, name_token)
        if token_type is TokenType.DOT:
            self.pos += 1
            return AttrRef(name, self._expect_attr_name())
        return VarRef(name)

    def _parse_call(self, name: str, name_token: Token) -> Expr:
        self._expect(TokenType.LPAREN, "'('")
        args: list[Expr] = []
        if self._peek().type != TokenType.RPAREN:
            args.append(self._parse_expr())
            while self._peek().type == TokenType.COMMA:
                self._advance()
                args.append(self._parse_expr())
        self._expect(TokenType.RPAREN, "')'")
        lowered = name.lower()

        if lowered == "prev":
            if len(args) != 1 or not isinstance(args[0], AttrRef):
                raise self._error("prev() takes exactly one v.attr argument", name_token)
            ref = args[0]
            return PrevRef(ref.var, ref.attr)

        if lowered in AGGREGATE_FUNCS:
            if len(args) != 1:
                raise self._error(f"{lowered}() takes exactly one argument", name_token)
            arg = args[0]
            if isinstance(arg, AttrRef):
                return Aggregate(lowered, arg.var, arg.attr)
            if isinstance(arg, VarRef) and lowered in ("count", "len"):
                return Aggregate(lowered, arg.var, None)
            raise self._error(
                f"{lowered}() expects v.attr"
                + (" or a bare variable" if lowered in ("count", "len") else ""),
                name_token,
            )

        if lowered in BUILTIN_FUNCS:
            arity = BUILTIN_FUNCS[lowered]
            if arity is not None and len(args) != arity:
                raise self._error(
                    f"{lowered}() takes {arity} argument(s), got {len(args)}", name_token
                )
            return FuncCall(lowered, tuple(args))

        raise self._error(f"unknown function {name!r}", name_token)


def parse_query(text: str) -> Query:
    """Parse a CEPR-QL query string into its AST."""
    return Parser(text).parse()
