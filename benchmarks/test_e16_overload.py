"""E16 — Overload behavior: rank-aware load shedding at 10-100x capacity.

The overload model is a burst: the producer submits the whole stream as
fast as it can against a bounded ingest queue whose capacity is a small
fraction of the stream (``factor`` = events / queue capacity, swept at
10x and 100x).  The producer outruns the consumer by construction —
this *is* overload, with no wall-clock pacing to make CI flaky — so the
queue saturates, the pressure assessor trips ``overloaded``, and the
controller engages on real signals, not a forced flag.

Two configurations over the same stream:

* **off** — the baseline: every event takes the full match path; the
  bounded queue pushes the overload back onto the producer.
* **adaptive** — rank-weighted sampling ahead of the engine; the gate is
  *graceful degradation*: the engine does materially less work, some
  ranked output still flows, and the controller reports a recall
  estimate for what the approximation may have cost.
"""

import time

import pytest
from common import fresh_events, generic_stream

from repro import CEPREngine
from repro.runtime.concurrent import ThreadedEngineRunner
from repro.runtime.shedding import ShedController

QUERY = """
NAME spread
PATTERN SEQ(A a, B b)
WITHIN 25 EVENTS
USING SKIP_TILL_ANY
RANK BY b.value - a.value DESC
LIMIT 1
EMIT ON WINDOW CLOSE
"""

#: burst depth relative to the ingest queue: 10x and 100x "capacity".
OVERLOAD_FACTORS = (10, 100)

#: at 10x overload the adaptive policy must elide at least this fraction
#: of the stream from the match path once engaged.
MIN_WORK_REDUCTION = 0.10


def run_with_policy(events, registry, policy, factor=10):
    """Drive one burst through a runner configured with ``policy``."""
    stream = fresh_events(events)
    queue_capacity = max(64, len(stream) // factor)
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(QUERY, collect_results=False)
    controller = None
    if policy != "off":
        controller = ShedController(policy=policy, latency_target=0.05)
    runner = ThreadedEngineRunner(
        engine,
        max_queue=queue_capacity,
        shed_controller=controller,
    )
    runner.start()
    started = time.perf_counter()
    try:
        for event in stream:
            runner.submit(event)
    finally:
        runner.stop()
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "events": len(stream),
        "events_per_second": len(stream) / elapsed if elapsed > 0 else 0.0,
        "routed": handle.pipeline.metrics.events_routed,
        "emissions": handle.emissions,
        "p99_us": handle.pipeline.metrics.latency.percentile(99) * 1e6,
        "controller": controller,
    }


@pytest.fixture(scope="module")
def overload_stream():
    return generic_stream(20_000, alphabet=2, seed=5)


def test_e16_baseline_survives_burst(benchmark, overload_stream):
    events, registry = overload_stream
    result = benchmark.pedantic(
        lambda: run_with_policy(events, registry, "off"),
        rounds=3,
        iterations=1,
    )
    assert result["routed"] == len(events)
    assert result["emissions"] > 0


def test_e16_adaptive_overload(benchmark, overload_stream):
    events, registry = overload_stream
    result = benchmark.pedantic(
        lambda: run_with_policy(events, registry, "adaptive", factor=100),
        rounds=3,
        iterations=1,
    )
    assert result["emissions"] > 0


@pytest.mark.parametrize("factor", OVERLOAD_FACTORS)
def test_e16_adaptive_engages_and_degrades_gracefully(
    overload_stream, factor
):
    """At >= 10x capacity the controller engages on real pressure and
    sheds enough to matter, while ranked output keeps flowing."""
    events, registry = overload_stream
    result = run_with_policy(events, registry, "adaptive", factor=factor)
    controller = result["controller"]
    stats = controller.stats
    assert stats.engagements >= 1, "overload never engaged the controller"
    assert stats.shed_events_total > 0
    # the engine saw materially fewer events than were submitted...
    assert result["routed"] == len(events) - stats.shed_events_total
    assert stats.shed_events_total >= MIN_WORK_REDUCTION * len(events)
    # ...yet ranked output still flowed, with an honest recall estimate
    assert result["emissions"] > 0
    assert 0.0 <= controller.recall_estimate <= 1.0
