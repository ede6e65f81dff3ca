"""Property-based tests for the language front end."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.language.ast_nodes import (
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
    Query,
    RankKey,
    SelectionStrategy,
    Unary,
    UnaryOp,
    WindowKind,
    WindowSpec,
    YieldSpec,
)
from repro.language.errors import CEPRError
from repro.language.lexer import tokenize
from repro.language.parser import parse_query
from repro.language.printer import format_expr, format_query

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s.upper()
    not in {
        "PATTERN", "SEQ", "WHERE", "WITHIN", "EVENTS", "USING", "PARTITION",
        "BY", "RANK", "LIMIT", "EMIT", "ON", "WINDOW", "CLOSE", "EVERY",
        "EAGER", "ASC", "DESC", "AND", "OR", "NOT", "TRUE", "FALSE", "NAME",
        "S", "MS", "MIN", "H", "MINUTE", "MINUTES", "SECOND", "SECONDS",
        "HOUR", "HOURS", "DAY", "DAYS", "MILLISECOND", "MILLISECONDS",
        "ABS", "DURATION", "TIMESTAMP", "TS", "ROUND", "FLOOR", "CEIL",
        "SQRT", "LOG", "EXP", "SIGN", "MIN2", "MAX2", "PREV",
        "COUNT", "LEN", "SUM", "AVG", "MAX", "FIRST", "LAST",
    }
)

_RESERVED_UPPER = frozenset(
    {
        "PATTERN", "SEQ", "WHERE", "WITHIN", "EVENTS", "USING", "PARTITION",
        "BY", "RANK", "LIMIT", "EMIT", "ON", "WINDOW", "CLOSE", "EVERY",
        "EAGER", "ASC", "DESC", "AND", "OR", "NOT", "TRUE", "FALSE", "NAME",
        "S", "MS", "MIN", "H", "MINUTE", "MINUTES", "SECOND", "SECONDS",
        "HOUR", "HOURS", "DAY", "DAYS", "MILLISECOND", "MILLISECONDS",
    }
)

type_names = st.from_regex(r"[A-Z][a-z0-9]{0,6}", fullmatch=True).filter(
    lambda s: s.upper() not in _RESERVED_UPPER
)

numbers = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(
        min_value=0.001, max_value=10**6, allow_nan=False, allow_infinity=False
    ).map(lambda f: round(f, 4)),
)

string_literals = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
    max_size=8,
)


def expressions(max_depth=3) -> st.SearchStrategy[Expr]:
    leaves = st.one_of(
        numbers.map(Literal),
        string_literals.map(Literal),
        st.booleans().map(Literal),
        st.tuples(identifiers, identifiers).map(lambda t: AttrRef(*t)),
    )

    def extend(children):
        arith = st.sampled_from(
            [BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.DIV, BinaryOp.MOD]
        )
        compare = st.sampled_from(
            [BinaryOp.EQ, BinaryOp.NEQ, BinaryOp.LT, BinaryOp.LTE, BinaryOp.GT, BinaryOp.GTE]
        )
        boolean = st.sampled_from([BinaryOp.AND, BinaryOp.OR])
        return st.one_of(
            st.tuples(arith, children, children).map(lambda t: Binary(*t)),
            st.tuples(compare, children, children).map(lambda t: Binary(*t)),
            st.tuples(boolean, children, children).map(lambda t: Binary(*t)),
            children.map(lambda c: Unary(UnaryOp.NEG, c)),
            children.map(lambda c: Unary(UnaryOp.NOT, c)),
            children.map(lambda c: FuncCall("abs", (c,))),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def queries() -> st.SearchStrategy[Query]:
    elements = st.lists(
        st.tuples(type_names, identifiers, st.booleans()),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[1],
    ).map(
        lambda items: tuple(
            PatternElement(event_type, var, kleene=kleene)
            for event_type, var, kleene in items
        )
    )
    # Time spans print with every digit: a rounded one would parse back
    # to a window the printed query never had.
    seconds = st.one_of(
        st.integers(min_value=1, max_value=86400).map(float),
        st.floats(min_value=0.001, max_value=1e9, allow_nan=False),
    )
    windows = st.one_of(
        st.none(),
        st.integers(min_value=1, max_value=1000).map(
            lambda n: WindowSpec(WindowKind.COUNT, float(n))
        ),
        seconds.map(lambda span: WindowSpec(WindowKind.TIME, span)),
    )
    emits = st.one_of(
        st.none(),
        st.sampled_from([EmitSpec(EmitKind.ON_WINDOW_CLOSE), EmitSpec(EmitKind.EAGER)]),
        st.integers(min_value=1, max_value=1000).map(
            lambda n: EmitSpec(EmitKind.EVERY, float(n), WindowKind.COUNT)
        ),
        seconds.map(lambda span: EmitSpec(EmitKind.EVERY, span, WindowKind.TIME)),
    )
    rank_keys = st.lists(
        st.tuples(expressions(), st.sampled_from(list(Direction))).map(
            lambda t: RankKey(*t)
        ),
        max_size=3,
    ).map(tuple)

    yield_specs = st.one_of(
        st.none(),
        st.tuples(
            type_names,
            st.lists(
                st.tuples(identifiers, expressions()),
                min_size=1,
                max_size=3,
                unique_by=lambda t: t[0],
            ),
        ).map(lambda t: YieldSpec(t[0], tuple(t[1]))),
    )

    return st.builds(
        Query,
        pattern=elements,
        where=st.one_of(st.none(), expressions()),
        window=windows,
        strategy=st.one_of(st.none(), st.sampled_from(list(SelectionStrategy))),
        partition_by=st.lists(identifiers, max_size=2, unique=True).map(tuple),
        rank_by=rank_keys,
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
        emit=emits,
        name=st.one_of(st.none(), identifiers),
        yield_spec=yield_specs,
    )


class TestPrinterRoundTrip:
    @given(queries())
    @settings(max_examples=200, deadline=None)
    def test_format_then_parse_is_identity(self, query):
        assert parse_query(format_query(query)) == query

    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_expression_round_trip(self, expr):
        text = format_expr(expr)
        reparsed = parse_query(f"PATTERN SEQ(A a) WHERE {text}")
        assert reparsed.where == expr


class TestLexerRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_lexer_never_crashes_unexpectedly(self, text):
        try:
            tokens = tokenize(text)
        except CEPRError:
            return
        assert tokens[-1].type.name == "EOF"

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, text):
        try:
            parse_query(text)
        except CEPRError:
            pass
