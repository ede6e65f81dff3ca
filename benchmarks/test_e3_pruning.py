"""E3 — Score-bound pruning effectiveness vs. k.

Tight schema domains (the generic workload declares exactly its value
range) let the pruner bound partial-run scores.  Expected shape: smaller k
prunes more runs; k=∞ (no LIMIT) disables pruning entirely; results are
identical either way (exactness is covered by the test suite).

The stock query shows the epoch's k-th score at its second point, the
completing edge: its loose price domain never lets the pruner fire, but
the cut skips most completions that could not enter the top k, so the
engine builds far fewer matches for the same emissions.
"""

import pytest

from common import (
    fresh_events,
    generic_rank_query,
    run_cepr,
    stock_rank_query,
)

from repro import CEPREngine
from repro.runtime.serialize import emission_to_line

KS = [1, 10, 50]


@pytest.mark.parametrize("k", KS)
def test_e3_pruning_on(benchmark, generic_10k, k):
    events, registry = generic_10k
    query = generic_rank_query(window=50, k=k)
    result = benchmark.pedantic(
        lambda: run_cepr(query, events, registry, enable_pruning=True),
        rounds=3,
        iterations=1,
    )
    assert result.runs_pruned > 0


@pytest.mark.parametrize("k", [1])
def test_e3_pruning_off(benchmark, generic_10k, k):
    events, registry = generic_10k
    query = generic_rank_query(window=50, k=k)
    result = benchmark.pedantic(
        lambda: run_cepr(query, events, registry, enable_pruning=False),
        rounds=3,
        iterations=1,
    )
    assert result.runs_pruned == 0


def stock_lines(events, registry, enable_pruning):
    engine = CEPREngine(registry=registry, enable_pruning=enable_pruning)
    handle = engine.register_query(stock_rank_query(window=100, k=5))
    engine.run(fresh_events(events))
    return [emission_to_line(e) for e in handle.results()], handle.matcher.stats


def test_e3_stock_completing_edge_cut(stock_10k):
    """Same emissions with pruning on and off; fewer matches built with it on."""
    events, registry = stock_10k
    cut, cut_stats = stock_lines(events, registry, enable_pruning=True)
    plain, plain_stats = stock_lines(events, registry, enable_pruning=False)
    assert cut == plain
    assert cut_stats.completions_skipped > 0
    assert cut_stats.matches_completed < plain_stats.matches_completed
