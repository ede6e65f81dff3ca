"""E11 — Derived-stream (YIELD) composition cost.

Hierarchical CEP buys modularity: level 2 queries match over level 1's
derived events instead of raw streams.  This measures what the indirection
costs against a single flat query expressing the same end-to-end pattern
directly over raw events.

Flat:      SEQ(Buy b1, Sell s1, Buy b2, Sell s2)  with profit predicates
Hierarchy: SEQ(Buy b, Sell s) YIELD Trade(...)  +  SEQ(Trade t1, Trade t2)
"""

import time

import pytest

from common import fresh_events
from repro import CEPREngine

FLAT = """
    NAME flat
    PATTERN SEQ(Buy b1, Sell s1, Buy b2, Sell s2)
    WHERE b1.symbol == s1.symbol AND s1.price > b1.price
          AND b2.symbol == b1.symbol AND s2.symbol == b2.symbol
          AND s2.price > b2.price
          AND s2.price - b2.price > s1.price - b1.price
    WITHIN 100 EVENTS
    PARTITION BY symbol
"""

LEVEL_1 = """
    NAME level1
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 100 EVENTS
    PARTITION BY symbol
    YIELD Trade(symbol = b.symbol, profit = s.price - b.price)
"""

LEVEL_2 = """
    NAME level2
    PATTERN SEQ(Trade t1, Trade t2)
    WHERE t1.symbol == t2.symbol AND t2.profit > t1.profit
    WITHIN 600 SECONDS
    PARTITION BY symbol
"""


def run_flat(events, registry):
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(FLAT, collect_results=False)
    started = time.perf_counter()
    engine.run(fresh_events(events))
    return time.perf_counter() - started, handle.pipeline.metrics.matches


def run_hierarchy(events, registry):
    engine = CEPREngine(registry=registry)
    engine.register_query(LEVEL_1, collect_results=False)
    level2 = engine.register_query(LEVEL_2, collect_results=False)
    started = time.perf_counter()
    engine.run(fresh_events(events))
    return time.perf_counter() - started, level2.pipeline.metrics.matches


def test_e11_flat(benchmark, stock_10k):
    events, registry = stock_10k
    elapsed, matches = benchmark.pedantic(
        lambda: run_flat(events, registry), rounds=3, iterations=1
    )
    assert matches >= 0


def test_e11_hierarchy(benchmark, stock_10k):
    events, registry = stock_10k
    elapsed, matches = benchmark.pedantic(
        lambda: run_hierarchy(events, registry), rounds=3, iterations=1
    )
    assert matches > 0
