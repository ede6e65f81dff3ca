"""The instrument table: one description of what an engine counts.

* every series a runner exports (``exported`` in ``golden_series.json``,
  per backend, with its kind and labels) is still exported, and every
  series a running server, a checkpoint store and an event log export is
  exactly the golden's ``served`` rows, help text included;
* every series any golden ever held is still exported, or it is listed as
  removed: ``series_changes.json`` is an append-only table of every
  series added, removed or reworded since the first goldens (0c137b9 for
  runners, 68f6840 for servers), each with its reason, and replaying it
  gives exactly the series the golden holds.  When the exported surface
  changes, regenerate the golden and append the rows that explain it;
* the metric catalogue in ``docs/OBSERVABILITY.md`` is the table's own
  rendering, so the doc cannot drift;
* counters that had several definitions have one: ``revisions`` is the
  ranker's counter, a fleet's ``throughput_eps`` is the fleet's rate;
* every engine-scope sanitizer check the source can trip is in the table;
* every series anything exports — the three backends, a running server,
  a checkpoint store, an event log — is a row of the table.
"""

import ast
import json
import re
import time
from pathlib import Path

import pytest

from repro import CEPREngine, Event
from repro.observability import instruments
from repro.observability.registry import MetricsRegistry
from repro.runtime import RunnerConfig, create_runner
from repro.sanitize.core import disable_sanitizer, enable_sanitizer, sanitizer_mode
from repro.serve.client import CEPRClient
from repro.store.checkpoint import CheckpointStore, Position
from repro.store.log import EventLog
from repro.workloads.stock import StockWorkload

from ..runtime.fleet import local_fleet
from ..serve.test_server import ServerHarness

ROOT = Path(__file__).resolve().parents[2]
#: what runners export and servers serve, as of the newest change to either
GOLDEN = json.loads((Path(__file__).parent / "golden_series.json").read_text())
#: every series added, removed or reworded since the first goldens
CHANGES = json.loads((Path(__file__).parent / "series_changes.json").read_text())
#: series the catalogue has dropped: no source exports them any more
REMOVED = {
    row["series"] for row in CHANGES if row["change"] == "removed" and "source" not in row
}
#: the threaded runner's ingest-queue and pressure series: a fleet has no
#: ingest queue (its backpressure is the blocking pipe write), so the
#: ``process`` scenario and server export none of them; ``threaded``
#: exports them all.
QUEUE_SERIES = {
    row["series"]
    for row in CHANGES
    if row["change"] == "removed" and row.get("source") == "process"
}

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
    "process": dict(backend="process", shards=2, sanitize=True),
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


#: the servers of :func:`served_series`: one engine that also exports the
#: shedding controller, and a fleet that also exports the coordinator lock.
SERVERS = {
    "threaded": RunnerConfig(shed_policy="adaptive", sanitize=True),
    "process": RunnerConfig(backend="process", shards=2, sanitize=True),
}


def _rows(registry):
    return sorted(
        [s.name, s.kind, sorted(map(list, s.labels.items())), s.help]
        for s in registry.collect()
    )


def served_series(root):
    """``[name, kind, sorted label items, help]`` of everything a running
    server, a checkpoint store and an event log export."""
    rows = {}
    events = list(StockWorkload(seed=2016).events(200))
    mode = sanitizer_mode()
    enable_sanitizer()  # process-wide: the fleet's coordinator lock is tracked
    try:
        for name, config in SERVERS.items():
            with ServerHarness(
                queries={"best_trades": TUMBLING, "ticker": EAGER}, runner=config
            ) as harness:
                with CEPRClient(port=harness.port) as client:
                    client.subscribe("ticker")
                    client.push_batch(events)
                    client.sync()
                rows[name] = _rows(harness.server.metrics_registry())
    finally:
        if mode is None:
            disable_sanitizer()
        else:
            enable_sanitizer(mode)
    store = CheckpointStore(root / "checkpoints")
    store.save({"n": 1}, Position(1, 0, 0.0))
    log = EventLog(root / "events.jsonl")
    log.append_all(events[:10])
    for name, component in (("checkpoint", store), ("log", log)):
        registry = MetricsRegistry()
        component.register_metrics(registry)
        rows[name] = _rows(registry)
    return rows


class TestExportedSurface:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_golden_series_is_still_exported(self, scenario):
        now = exported_series(scenario)
        missing = [row for row in GOLDEN["exported"][scenario] if row not in now]
        assert not missing
        assert not {row[0] for row in now} & REMOVED

    def test_only_the_threaded_runner_exports_queue_series(self):
        """A fleet has no ingest queue to report on; the threaded runner
        exports every queue and pressure series."""
        assert QUEUE_SERIES == {
            "runner_backlog",
            "runner_queue_capacity",
            "runner_queue_high_water",
            "runner_ingest_lag_seconds",
            "pressure",
        }
        assert not {row[0] for row in exported_series("process")} & QUEUE_SERIES
        assert QUEUE_SERIES <= {row[0] for row in exported_series("threaded")}

    def test_the_table_adds_exactly_the_listed_series(self):
        """Names no runner exported when the first golden was captured."""
        parent = {
            row["series"]
            for row in CHANGES
            if row["change"] == "added" and row["golden"] == "0c137b9"
        }
        # exported outside any runner's registry, declared inline until
        # the tables took them (the golden's served rows pin them)
        inline = {
            spec.name
            for table in (
                instruments.SERVE,
                instruments.CHECKPOINT,
                instruments.STORE,
                instruments.LOCK,
            )
            for spec in table
        }
        assert set(instruments.HELP) - parent - inline == {
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
            "shared_query_groups",
        }

    def test_every_exported_series_is_in_the_catalogue(self, tmp_path):
        catalogued = {spec.name for _, specs in instruments.CATALOGUE for spec in specs}
        exported = {row[0] for scenario in SCENARIOS for row in exported_series(scenario)}
        served = served_series(tmp_path)
        exported |= {row[0] for rows in served.values() for row in rows}
        assert not exported - catalogued
        assert not catalogued & REMOVED
        assert served == GOLDEN["served"]

    def test_every_series_ever_exported_is_exported_or_removed(self):
        """Replaying the change table (added, then removed) gives exactly
        the series the golden holds, so no series leaves the golden
        without a row saying why."""
        assert all(
            row["change"] in ("added", "removed", "reworded") and row["reason"]
            for row in CHANGES
        )
        live = set()
        for row in CHANGES:
            if row["change"] == "added":
                live.add(row["series"])
            elif row["change"] == "removed" and "source" not in row:
                live.discard(row["series"])
        golden = {
            row[0]
            for section in GOLDEN.values()
            for rows in section.values()
            for row in rows
        }
        assert live == golden
        assert not REMOVED & golden

    def test_each_reworded_series_changed_its_help(self):
        help_now = {row[0]: row[3] for rows in GOLDEN["served"].values() for row in rows}
        reworded = [row for row in CHANGES if row["change"] == "reworded"]
        assert reworded
        for row in reworded:
            assert row["series"] in help_now
            assert row["was"] != help_now[row["series"]], row["series"]

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
        fleet's observed span, the busiest shard's — the rate the fleet
        ran at (it used to be the fastest single shard's).  Exact against
        the same registry; against the wall clock only one-sided, since a
        shard's span lies inside the wall time around the run."""
        workload = StockWorkload(seed=2016)
        events = list(workload.events(6000))
        runner = local_fleet(
            {"best_trades": TUMBLING}, shards=4, registry=workload.registry()
        )
        runner.start()
        started = time.perf_counter()
        runner.submit_all(events)
        runner.sync()
        wall = time.perf_counter() - started
        runner.stop()
        registry = runner.metrics_registry()
        pushed = registry.get("events_pushed_total").value
        span = registry.get("ingest_span_seconds").value
        spans = [
            worker.report.instruments.get("ingest_span_seconds").value
            for worker in runner._workers
        ]
        assert pushed == len(events)
        assert span == max(spans) > 0
        exported = registry.get("throughput_eps").value
        assert exported == pushed / span
        assert exported >= len(events) / wall

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


class TestOneDeclarationPerSeries:
    def test_no_module_outside_observability_declares_a_series(self):
        """Series are declared as catalogue rows only: a registry call
        elsewhere may look up or override a series, never describe one."""
        declared = []
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            if path.parent.name == "observability":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and (len(node.args) > 1 or any(k.arg == "help" for k in node.keywords))
                ):
                    declared.append(f"{path.relative_to(ROOT)}:{node.lineno}")
        assert declared == []
