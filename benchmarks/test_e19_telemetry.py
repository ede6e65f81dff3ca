"""E19 — Telemetry cost: the PR-8 observability layer on the hot path.

The second-generation telemetry layer makes three claims about cost:

* **Cost accounting is free until read.** :class:`CostAccount` records
  are views over counters the engine already maintains — building them
  (the ``cepr top`` sampling path) touches no hot-path state.
* **A disarmed flight recorder is one ``None`` check.** Engines capture
  :func:`~repro.observability.flightrec.current` at construction; with
  no recorder installed the per-push tap is a single identity test.
* **An armed flight recorder is cheap enough to leave on.** One compact
  ``json.dumps`` per emission plus a periodic engine snapshot.

Two gates, both against the same bare pipeline (recorder unarmed, nothing
polled), measured with an interleaved min-of-N retry scheme:

* **disabled** — telemetry *surfaced but disarmed*: cost accounts and a
  pressure sample polled every 1000 events, recorder not installed.
  Budget: 2%.
* **enabled** — the full layer armed: flight recorder installed, polled
  cost accounts and pressure, per-emission ring records.  Budget: 5%.
"""

import time

import pytest
from common import fresh_events, stock_rank_query

from repro import CEPREngine
from repro.observability.cost import rank_accounts
from repro.observability.flightrec import (
    install_flight_recorder,
    uninstall_flight_recorder,
)
from repro.observability.pressure import PressureAssessor, PressureSample

QUERY = stock_rank_query(window=100, k=5)

#: multiplicative budgets over the bare pipeline.
DISABLED_OVERHEAD_BUDGET = 1.02
ENABLED_OVERHEAD_BUDGET = 1.05

#: how often the polling configurations sample accounts and pressure
#: (the cadence a `cepr top --watch` against a live engine implies).
POLL_EVERY = 1000


@pytest.fixture(autouse=True)
def _disarm_recorder():
    uninstall_flight_recorder()
    yield
    uninstall_flight_recorder()


def run_bare(events, registry):
    """The baseline: no recorder, nothing polled."""
    stream = fresh_events(events)
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(QUERY, collect_results=False)
    started = time.perf_counter()
    engine.run(stream)
    elapsed = time.perf_counter() - started
    assert handle.emissions > 0
    return elapsed


def run_polled(events, registry, armed=False, byte_budget=256 * 1024):
    """Telemetry surfaced: accounts + pressure polled; ring optionally armed."""
    stream = fresh_events(events)
    if armed:
        install_flight_recorder(byte_budget=byte_budget)
    try:
        engine = CEPREngine(registry=registry)
        handle = engine.register_query(QUERY, collect_results=False)
        assessor = PressureAssessor()
        started = time.perf_counter()
        for index, event in enumerate(stream):
            engine.push(event)
            if index % POLL_EVERY == 0:
                rank_accounts(engine.cost_accounts().values())
                assessor.observe(PressureSample())
        engine.flush()
        elapsed = time.perf_counter() - started
    finally:
        if armed:
            uninstall_flight_recorder()
    assert handle.emissions > 0
    return elapsed


def test_e19_bare_baseline(benchmark, stock_10k):
    events, registry = stock_10k
    benchmark.pedantic(
        lambda: run_bare(events, registry), rounds=3, iterations=1
    )


def test_e19_telemetry_disabled(benchmark, stock_10k):
    events, registry = stock_10k
    benchmark.pedantic(
        lambda: run_polled(events, registry), rounds=3, iterations=1
    )


def test_e19_telemetry_enabled(benchmark, stock_10k):
    events, registry = stock_10k
    benchmark.pedantic(
        lambda: run_polled(events, registry, armed=True),
        rounds=3,
        iterations=1,
    )


def _gate(events, registry, budget, **config):
    """Interleaved min-of-N with retries.

    Wall-clock noise on shared CI runners dwarfs a few-percent signal for
    any single pair of runs, so each attempt takes the *minimum* of three
    interleaved runs per configuration (the least-disturbed execution)
    and the gate passes on the best attempt.
    """
    best_ratio = float("inf")
    for _attempt in range(4):
        bare_runs, telemetry_runs = [], []
        for _round in range(3):
            bare_runs.append(run_bare(events, registry))
            telemetry_runs.append(run_polled(events, registry, **config))
        best_ratio = min(best_ratio, min(telemetry_runs) / min(bare_runs))
        if best_ratio <= budget:
            break
    return best_ratio


def test_e19_disabled_overhead_within_budget(stock_10k):
    """Polled-but-disarmed telemetry stays within 2% of the bare pipeline."""
    events, registry = stock_10k
    ratio = _gate(events, registry, DISABLED_OVERHEAD_BUDGET)
    assert ratio <= DISABLED_OVERHEAD_BUDGET, (
        f"disarmed telemetry costs {(ratio - 1) * 100:.1f}% over the bare "
        f"pipeline (budget {(DISABLED_OVERHEAD_BUDGET - 1) * 100:.0f}%)"
    )


def test_e19_enabled_overhead_within_budget(stock_10k):
    """The armed flight recorder plus polling stays within 5%."""
    events, registry = stock_10k
    ratio = _gate(events, registry, ENABLED_OVERHEAD_BUDGET, armed=True)
    assert ratio <= ENABLED_OVERHEAD_BUDGET, (
        f"armed telemetry costs {(ratio - 1) * 100:.1f}% over the bare "
        f"pipeline (budget {(ENABLED_OVERHEAD_BUDGET - 1) * 100:.0f}%)"
    )
