"""Unit tests for the pretty-printer and its parse round-trip."""

import pytest

from repro.language.parser import parse_query
from repro.language.printer import format_expr, format_query

ROUND_TRIP_QUERIES = [
    "PATTERN SEQ(A a)",
    "PATTERN SEQ(Buy b, Sell s)",
    "PATTERN SEQ(A a, B bs+, C c)",
    "PATTERN SEQ(A a, NOT C c, B b)",
    "NAME my_query PATTERN SEQ(A a)",
    "PATTERN SEQ(A a) WHERE a.x > 1",
    "PATTERN SEQ(A a, B b) WHERE a.x + b.y * 2 >= 10 AND a.z == 'hi'",
    "PATTERN SEQ(A a) WHERE NOT (a.x > 1 OR a.y < 2)",
    "PATTERN SEQ(A as+) WHERE as.x > prev(as.x)",
    "PATTERN SEQ(A as+, B b) WHERE avg(as.x) < b.x AND count(as) >= 3",
    "PATTERN SEQ(A a) WITHIN 50 EVENTS",
    "PATTERN SEQ(A a) WITHIN 10 SECONDS",
    "PATTERN SEQ(A a) USING STRICT",
    "PATTERN SEQ(A a) USING SKIP_TILL_ANY",
    "PATTERN SEQ(A a) PARTITION BY symbol, region",
    "PATTERN SEQ(A a, B b) WITHIN 9 EVENTS RANK BY b.x - a.x DESC, a.x ASC",
    "PATTERN SEQ(A a) WITHIN 5 EVENTS LIMIT 3",
    "PATTERN SEQ(A a) WITHIN 5 EVENTS EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(A a) EMIT EVERY 10 EVENTS",
    "PATTERN SEQ(A a) EMIT EVERY 5 SECONDS",
    "PATTERN SEQ(A a) EMIT EAGER",
    "PATTERN SEQ(A a) WITHIN 2.1234567 SECONDS",
    "PATTERN SEQ(A a) WITHIN 123456789.5 SECONDS",
    "PATTERN SEQ(A a) EMIT EVERY 2.1234567 SECONDS",
    "PATTERN SEQ(A a) WHERE abs(a.x - 1) > 0.5",
    "PATTERN SEQ(A a) WHERE duration() < 5 AND timestamp(a) > 0",
    "PATTERN SEQ(A a) WHERE -a.x < 0",
    "PATTERN SEQ(A a) WHERE a.x % 2 == 0",
    "PATTERN SEQ(A a) WHERE a.x - 1 - 2 == 0",
    "PATTERN SEQ(A a) WHERE a.x - (1 - 2) == 0",
    "PATTERN SEQ(A a) YIELD D(x = a.v)",
    "PATTERN SEQ(Buy b, Sell s) YIELD Trade(symbol = b.symbol, profit = s.price - b.price, held = duration())",
    "PATTERN SEQ(A as+) WITHIN 5 EVENTS RANK BY avg(as.x) DESC YIELD Peak(top = max(as.x))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_QUERIES)
    def test_parse_format_parse_is_identity(self, text):
        ast = parse_query(text)
        formatted = format_query(ast)
        assert parse_query(formatted) == ast

    def test_format_is_stable(self):
        ast = parse_query(ROUND_TRIP_QUERIES[5])
        once = format_query(ast)
        assert format_query(parse_query(once)) == once


class TestFormatting:
    def test_minimal_parentheses(self):
        ast = parse_query("PATTERN SEQ(A a) WHERE a.x + a.y * 2 > 0")
        assert format_expr(ast.where) == "a.x + a.y * 2 > 0"

    def test_necessary_parentheses_kept(self):
        ast = parse_query("PATTERN SEQ(A a) WHERE (a.x + a.y) * 2 > 0")
        assert "(a.x + a.y) * 2" in format_expr(ast.where)

    def test_string_escaping(self):
        ast = parse_query("PATTERN SEQ(A a) WHERE a.s == 'it''s'")
        formatted = format_expr(ast.where)
        assert "'it''s'" in formatted
        assert parse_query(f"PATTERN SEQ(A a) WHERE {formatted}") == ast

    def test_float_literals_stay_floats(self):
        ast = parse_query("PATTERN SEQ(A a) WHERE a.x > 2.0")
        reparsed = parse_query(format_query(ast))
        assert reparsed == ast

    def test_booleans(self):
        ast = parse_query("PATTERN SEQ(A a) WHERE a.flag == TRUE")
        assert "TRUE" in format_expr(ast.where)

    def test_query_layout_one_clause_per_line(self):
        ast = parse_query(
            "PATTERN SEQ(A a) WHERE a.x > 0 WITHIN 5 EVENTS "
            "RANK BY a.x DESC LIMIT 2 EMIT ON WINDOW CLOSE"
        )
        lines = format_query(ast).splitlines()
        assert lines[0].startswith("PATTERN")
        assert any(line.startswith("RANK BY") for line in lines)
        assert lines[-1] == "EMIT ON WINDOW CLOSE"

    def test_kleene_and_negation_rendering(self):
        ast = parse_query("PATTERN SEQ(A a, B bs+, NOT C c)")
        text = format_query(ast)
        assert "B bs+" in text and "NOT C c" in text
