"""The instrument table: one description of what an engine counts.

* every series the parent commit (0c137b9) exported is still exported,
  under the same name, kind and labels, on all four backends (golden list
  captured from that commit by running :func:`exported_series` there);
* the metric catalogue in ``docs/OBSERVABILITY.md`` is the table's own
  rendering, so the doc cannot drift;
* counters that had several definitions have one: ``revisions`` is the
  ranker's counter, a fleet's ``throughput_eps`` is the fleet's rate;
* every engine-scope sanitizer check the source can trip is in the table.
"""

import json
import re
import time
from pathlib import Path

import pytest

from repro import CEPREngine, Event
from repro.observability import instruments
from repro.runtime import RunnerConfig, create_runner
from repro.workloads.stock import StockWorkload

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((Path(__file__).parent / "golden_series_0c137b9.json").read_text())

TUMBLING = """
    NAME best_trades
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 120 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
"""
EAGER = """
    NAME ticker
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 50 EVENTS
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT EAGER
"""
SCENARIOS = {
    "embedded": dict(backend="embedded", max_lateness=0.0, sanitize=True, tracing=True),
    "threaded": dict(backend="threaded", shed_policy="adaptive"),
    "sharded": dict(backend="sharded", shards=2, shed_policy="adaptive", sanitize=True),
    "process": dict(backend="process", shards=2),
}


def exported_series(scenario):
    """``[name, kind, sorted label items]`` of everything a runner exports."""
    workload = StockWorkload(seed=2016)
    runner = create_runner(
        {"best_trades": TUMBLING, "ticker": EAGER},
        RunnerConfig(registry=workload.registry(), **SCENARIOS[scenario]),
    )
    runner.subscribe("best_trades", lambda emission: None)
    with runner:
        runner.submit_all(workload.events(400))
        runner.sync()
        rows = sorted(
            [s.name, s.kind, sorted(map(list, s.labels.items()))]
            for s in runner.metrics_registry().collect()
        )
        runner.flush()
    return rows


class TestExportedSurface:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_parent_series_is_still_exported(self, scenario):
        now = exported_series(scenario)
        missing = [row for row in GOLDEN[scenario] if row not in now]
        assert not missing

    def test_the_table_adds_exactly_the_listed_series(self):
        """Names the parent never exported, in any scenario (CHANGES.md)."""
        parent = {row[0] for rows in GOLDEN.values() for row in rows}
        assert set(instruments.HELP) - parent == {
            "query_revisions_total",
            "ingest_span_seconds",
            "runs_killed_total",
            "pending_matches",
            "stage_events_total",
            "stage_max_seconds",
            "sanitizer_check_trips_total",
            "query_shards",
            "query_solo_fallback",
            "completions_skipped_total",
            "ranker_held_matches",
            "runs_dominated_total",
        }

    def test_catalogue_in_the_docs_is_the_table(self):
        doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        assert instruments.catalogue_markdown() in doc

    def test_series_names_are_unique_and_described(self):
        names = [spec.name for _, specs in instruments.CATALOGUE for spec in specs]
        assert len(names) == len(set(names))
        assert all(instruments.HELP[name] for name in names)

    def test_every_engine_sanitizer_check_has_a_series(self):
        """A check the table does not list would be counted in
        ``sanitizer_trips_total`` but invisible to ``sanitizer_trips()``."""
        tripped = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            tripped |= set(
                re.findall(r'\.trip\(\s*"([a-z-]+)"', path.read_text())
            )
        # the lock-order and event-loop checks report to their own
        # (process-wide / serving-layer) sanitizers, not an engine's
        tripped -= {"lock-order-cycle", "event-loop-blocked"}
        assert tripped == set(instruments.SANITIZER_CHECKS)


class TestOneDefinitionPerCounter:
    def test_revisions_is_the_rankers_counter(self):
        engine = CEPREngine()
        handle = engine.register_query(EAGER)
        engine.run(StockWorkload(seed=7).events(500))
        revised = handle.results()[-1].revision
        assert revised > 1
        assert engine.stats_by_query()["ticker"]["revisions"] == revised
        assert engine.metrics_registry().get(
            "query_revisions_total", query="ticker"
        ).value == revised

    def test_restore_accepts_a_parent_commit_snapshot(self):
        """Query snapshots no longer carry ``revisions``; ones that do
        (written at 0c137b9) still load."""
        events = list(StockWorkload(seed=7).events(300))
        engine = CEPREngine()
        engine.register_query(EAGER)
        engine.push_batch(events[:150])
        state = engine.snapshot()
        assert "revisions" not in state["queries"]["ticker"]["metrics"]
        state["queries"]["ticker"]["metrics"]["revisions"] = 0  # as the parent wrote it

        resumed = CEPREngine()
        resumed.register_query(EAGER)
        resumed.restore(state)
        resumed.push_batch(events[150:])
        engine.push_batch(events[150:])
        got, expected = (
            e.stats_by_query()["ticker"] for e in (resumed, engine)
        )
        for key in ("events_routed", "matches", "emissions", "revisions"):
            assert got[key] == expected[key] > 0, key

    def test_fleet_lifetime_throughput_is_the_fleets_rate(self):
        """K=4: the exported ``throughput_eps`` is events pushed over the
        fleet's observed span — the rate the fleet ran at (it used to be
        the fastest single shard's)."""
        workload = StockWorkload(seed=2016)
        events = list(workload.events(6000))
        runner = create_runner(
            TUMBLING, backend="sharded", shards=4, registry=workload.registry()
        )
        runner.start()
        started = time.perf_counter()
        runner.submit_all(events)
        runner.sync()
        rate = len(events) / (time.perf_counter() - started)
        runner.stop()
        exported = runner.metrics_registry().get("throughput_eps").value
        assert exported == pytest.approx(rate, rel=0.2)

    def test_matcher_stats_are_read_through_the_query(self):
        """A restore replaces ``matcher.stats`` wholesale; the registry
        must follow (reads go through the query, not a captured object)."""
        engine = CEPREngine()
        engine.register_query(TUMBLING)
        registry = engine.metrics_registry()
        engine.push(Event("Buy", 1.0, symbol="A", price=1.0))
        state = engine.snapshot()
        engine.restore(state)
        engine.push(Event("Buy", 2.0, symbol="A", price=2.0))
        assert registry.get("runs_created_total", query="best_trades").value == 2
