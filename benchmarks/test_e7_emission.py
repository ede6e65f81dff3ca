"""E7 — Emission-policy cost: window-close vs. periodic vs. eager.

All three rank the same matches; they differ in when snapshots are cut.
Expected shape: ON WINDOW CLOSE is cheapest (one ordered emission per
epoch, zero revisions); EVERY pays per period; EAGER pays a snapshot per
top-k change and emits the most revisions but has the lowest
time-to-first-answer (the harness reports those series).
"""

import pytest

from common import fresh_events, run_cepr
from repro import CEPREngine

#: Peak ``ranker_held_matches`` of the EAGER query on ``stock_10k``: the
#: k-skyband peaks at 55 matches there (mean 26), where the window's live
#: set, which the scope held whole before it became a skyband, peaks at 353.
EAGER_HELD_BOUND = 80

POLICIES = {
    "window_close": "EMIT ON WINDOW CLOSE",
    "periodic": "EMIT EVERY 100 EVENTS",
    "eager": "EMIT EAGER",
}


def query_for(policy: str) -> str:
    return f"""
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND s.price > b.price
        WITHIN 100 EVENTS
        USING SKIP_TILL_ANY
        PARTITION BY symbol
        RANK BY s.price - b.price DESC
        LIMIT 5
        {POLICIES[policy]}
    """


@pytest.mark.parametrize("policy", list(POLICIES))
def test_e7_emission_policy(benchmark, stock_10k, policy):
    events, registry = stock_10k
    query = query_for(policy)
    result = benchmark.pedantic(
        lambda: run_cepr(query, events, registry), rounds=3, iterations=1
    )
    assert result.emissions > 0


def test_e7_eager_band_stays_small(stock_10k):
    """Structural, no timing: the sliding scope holds the k-skyband, not
    every live match.  Sampled after every event through the method the
    ``ranker_held_matches`` gauge reads."""
    events, registry = stock_10k
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(query_for("eager"), name="eager")
    peak = 0
    for event in fresh_events(events):
        engine.push(event)
        peak = max(peak, handle.ranker.held_matches())
    gauge = engine.metrics_registry().get("ranker_held_matches", query="eager")
    assert gauge.value == handle.ranker.held_matches()
    assert 5 < peak <= EAGER_HELD_BOUND
