"""E6 — Kleene closure with aggregate scoring (health workload).

The escalation query binds arbitrarily long heart-rate runs and ranks by
``max``/``count`` aggregates.  Measures the cost of incremental aggregate
maintenance plus per-prefix emission, against the same pattern without
ranking; and, structurally, that run dominance keeps each patient's
trailing-Kleene runs to a k-skyband without changing an emission.
"""

from common import (
    fresh_events,
    kleene_rank_query,
    kleene_skyband_query,
    run_cepr,
    run_unranked,
)

from repro import CEPREngine
from repro.runtime.serialize import emission_to_line

UNRANKED_KLEENE = """
    PATTERN SEQ(HeartRate onset, HeartRate spikes+)
    WHERE onset.value > 100 AND spikes.value > 100
          AND spikes.value >= prev(spikes.value)
    WITHIN 50 EVENTS
    PARTITION BY patient
"""

#: peak live runs of ``kleene_skyband_query`` on this stream: 28 measured
#: with run dominance, 75 without it.
DOMINATED_PEAK_BOUND = 40


def test_e6_kleene_ranked(benchmark, vitals_10k):
    events, registry = vitals_10k
    query = kleene_rank_query(window=50, k=5)
    result = benchmark.pedantic(
        lambda: run_cepr(query, events, registry), rounds=3, iterations=1
    )
    assert result.events == 10_000


def test_e6_kleene_unranked(benchmark, vitals_10k):
    events, registry = vitals_10k
    result = benchmark.pedantic(
        lambda: run_unranked(UNRANKED_KLEENE, events, registry),
        rounds=3,
        iterations=1,
    )
    assert result.events == 10_000


def dominated_lines(events, registry, enable_pruning):
    engine = CEPREngine(registry=registry, enable_pruning=enable_pruning)
    handle = engine.register_query(kleene_skyband_query())
    engine.run(fresh_events(events))
    return [emission_to_line(e) for e in handle.results()], handle.matcher.stats


def test_e6_run_dominance_keeps_a_skyband(vitals_10k):
    """Structural, no timing: same emissions with pruning on and off, and
    the live runs stay a small skyband with it on."""
    events, registry = vitals_10k
    pruned, stats = dominated_lines(events, registry, enable_pruning=True)
    plain, plain_stats = dominated_lines(events, registry, enable_pruning=False)
    assert pruned == plain
    assert stats.runs_dominated > 0
    assert stats.matches_completed < plain_stats.matches_completed
    assert stats.peak_live_runs <= DOMINATED_PEAK_BOUND < plain_stats.peak_live_runs
