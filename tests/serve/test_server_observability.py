"""Serve-layer observability: trace propagation, telemetry in stats,
flight-recorder artifacts on drain.

These tests close the loop the CLI (`cepr trace --connect`, `cepr top
--connect`) relies on: a trace context injected at the client must come
back out of the server stitched into the causal chain of the emission it
contributed to, and `stats` must carry ranked cost accounts plus the
pressure assessment alongside the metrics it always had.
"""

import pytest

from repro.events.event import Event
from repro.observability.flightrec import (
    install_flight_recorder,
    list_artifacts,
    load_artifact,
    uninstall_flight_recorder,
)
from repro.runtime.runner import RunnerConfig
from repro.serve.client import CEPRClient, CEPRServeError

from .test_server import PROFIT, ServerHarness

SPREAD = """
    NAME spread
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 10 SECONDS
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""


def _paired_events(count: int = 5) -> list[Event]:
    events = []
    ts = 0.0
    for i in range(count):
        ts += 1.0
        events.append(Event("Buy", ts, symbol="A", price=10.0 + i))
        ts += 1.0
        events.append(Event("Sell", ts, symbol="A", price=20.0 + i))
    return events


class TestTracePropagation:
    def test_hello_context_reaches_emission_trace(self):
        with ServerHarness(
            queries={"spread": SPREAD}, runner=RunnerConfig(tracing=True)
        ) as harness:
            client = CEPRClient(
                port=harness.port,
                trace_context={"client": "pytest", "run": "r1"},
            )
            try:
                client.subscribe("spread")
                client.push_batch(_paired_events())
                client.advance_time(1000.0)
                client.sync()
                doc = client.trace("spread", -1)
            finally:
                client.close()

        assert "text" in doc and doc["text"]
        remote = doc["remote"]
        assert remote, "expected remote contexts stitched into the trace"
        for entry in remote:
            assert entry["context"]["client"] == "pytest"
            assert entry["context"]["run"] == "r1"
            assert entry["variable"] in ("b", "s")
            assert entry["type"] in ("Buy", "Sell")

    def test_per_push_context_overlays_hello(self):
        with ServerHarness(
            queries={"spread": SPREAD}, runner=RunnerConfig(tracing=True)
        ) as harness:
            client = CEPRClient(
                port=harness.port,
                trace_context={"client": "pytest", "stage": "hello"},
            )
            try:
                client.subscribe("spread")
                # one window whose events carry a per-push overlay
                client.push(
                    Event("Buy", 1.0, symbol="A", price=1.0),
                    trace={"stage": "push", "batch": "b7"},
                )
                client.push(
                    Event("Sell", 2.0, symbol="A", price=9.0),
                    trace={"stage": "push", "batch": "b7"},
                )
                client.advance_time(1000.0)
                client.sync()
                doc = client.trace("spread", -1)
            finally:
                client.close()

        contexts = [entry["context"] for entry in doc["remote"]]
        assert contexts
        for context in contexts:
            # per-push keys overlay HELLO keys; untouched keys survive
            assert context["client"] == "pytest"
            assert context["stage"] == "push"
            assert context["batch"] == "b7"

    def test_untraced_connection_still_traces_without_contexts(self):
        with ServerHarness(
            queries={"spread": SPREAD}, runner=RunnerConfig(tracing=True)
        ) as harness:
            client = CEPRClient(port=harness.port)
            try:
                client.push_batch(_paired_events())
                client.advance_time(1000.0)
                client.sync()
                doc = client.trace("spread", -1)
            finally:
                client.close()
        assert doc["remote"] == []

    def test_bad_hello_trace_rejected(self):
        with ServerHarness(queries={"spread": SPREAD}) as harness:
            with pytest.raises(CEPRServeError) as excinfo:
                CEPRClient(port=harness.port, trace_context="not-a-dict")
            assert excinfo.value.code == "CEPR503"


class TestTraceErrors:
    def test_unknown_query(self):
        with ServerHarness(
            queries={"spread": SPREAD}, runner=RunnerConfig(tracing=True)
        ) as harness:
            client = CEPRClient(port=harness.port)
            try:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.trace("nope")
                assert excinfo.value.code == "CEPR504"
            finally:
                client.close()

    def test_bad_emission_index(self):
        with ServerHarness(
            queries={"spread": SPREAD}, runner=RunnerConfig(tracing=True)
        ) as harness:
            client = CEPRClient(port=harness.port)
            try:
                client.push_batch(_paired_events())
                client.advance_time(1000.0)
                client.sync()
                with pytest.raises(CEPRServeError) as excinfo:
                    client.trace("spread", emission=99)
                assert excinfo.value.code == "CEPR507"
            finally:
                client.close()

    def test_unsupported_when_sharded(self):
        with ServerHarness(
            queries={"profits": PROFIT}, runner=RunnerConfig(shards=2)
        ) as harness:
            client = CEPRClient(port=harness.port)
            try:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.trace("profits")
                assert excinfo.value.code == "CEPR509"
            finally:
                client.close()


class TestStatsTelemetry:
    def test_stats_carries_cost_accounts_and_pressure(self):
        with ServerHarness(queries={"spread": SPREAD}) as harness:
            client = CEPRClient(port=harness.port)
            try:
                client.push_batch(_paired_events())
                client.sync()
                stats = client.stats()
            finally:
                client.close()

        accounts = stats["cost_accounts"]
        assert [doc["query"] for doc in accounts] == ["spread"]
        assert accounts[0]["events_routed"] == 10
        assert "cpu_seconds" in accounts[0]
        assert "hit_ratio" in accounts[0]

        pressure = stats["pressure"]
        assert pressure["state"] in ("ok", "overloaded")
        assert "level" in pressure
        sample = pressure["sample"]
        assert sample["queue_capacity"] > 0
        assert 0.0 <= sample["score"] <= 1.0

    def test_stats_shedding_is_null_when_off(self):
        with ServerHarness(queries={"spread": SPREAD}) as harness:
            client = CEPRClient(port=harness.port)
            try:
                stats = client.stats()
            finally:
                client.close()
        assert stats["shedding"] is None

    def test_stats_carries_shedding_snapshot(self):
        with ServerHarness(
            queries={"spread": SPREAD},
            runner=RunnerConfig(shed_policy="adaptive", latency_target=0.5),
        ) as harness:
            client = CEPRClient(port=harness.port)
            try:
                client.push_batch(_paired_events())
                client.sync()
                stats = client.stats()
            finally:
                client.close()

        shedding = stats["shedding"]
        assert shedding["policy"] == "adaptive"
        assert shedding["latency_target"] == 0.5
        assert shedding["engaged"] in (True, False)
        ledger = shedding["stats"]
        assert ledger["shed_events_total"] >= 0
        assert 0.0 <= ledger["recall_estimate"] <= 1.0
        # the registry exports the counters alongside
        prom = stats["prom"]
        assert "shed_events_total" in prom
        assert "shed_recall_estimate" in prom

    def test_invalid_shed_policy_rejected(self):
        with pytest.raises(ValueError, match="shed_policy"):
            from repro.serve.server import CEPRServer

            CEPRServer(runner=RunnerConfig(shed_policy="sometimes"))

    def test_prom_export_has_subscriber_gauges(self):
        with ServerHarness(queries={"spread": SPREAD}) as harness:
            client = CEPRClient(port=harness.port)
            try:
                client.subscribe("spread")
                client.push_batch(_paired_events())
                client.sync()
                prom = client.stats()["prom"]
            finally:
                client.close()

        for needle in (
            "serve_subscriber_queue_depth",
            "serve_subscriber_queue_high_water",
        ):
            assert needle in prom, f"missing {needle} in prom export"


class TestDrainArtifact:
    @pytest.fixture(autouse=True)
    def _disarm(self):
        uninstall_flight_recorder()
        yield
        uninstall_flight_recorder()

    def test_graceful_drain_dumps_when_armed(self, tmp_path):
        install_flight_recorder(byte_budget=64 * 1024, directory=tmp_path)
        with ServerHarness(
            queries={"spread": SPREAD}, checkpoint_dir=tmp_path
        ) as harness:
            client = CEPRClient(port=harness.port)
            try:
                client.push_batch(_paired_events())
                client.sync()
            finally:
                client.close()
            harness.drain()

        artifacts = list_artifacts(tmp_path)
        assert artifacts, "drain with an armed recorder must leave an artifact"
        doc = load_artifact(artifacts[-1])
        assert doc["reason"] == "drain"
        kinds = {entry["kind"] for entry in doc["entries"]}
        assert "register" in kinds

    def test_drain_without_recorder_writes_nothing(self, tmp_path):
        with ServerHarness(
            queries={"spread": SPREAD}, checkpoint_dir=tmp_path
        ) as harness:
            client = CEPRClient(port=harness.port)
            client.close()
            harness.drain()
        assert list_artifacts(tmp_path) == []
