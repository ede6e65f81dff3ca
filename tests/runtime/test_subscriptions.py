"""The first-class subscription API and sink lifecycle semantics."""

import pytest

from repro import CEPREngine, Event
from repro.ranking.emission import EmissionKind
from repro.runtime.concurrent import ThreadedEngineRunner
from repro.runtime.sinks import (
    BaseSink,
    CallbackSink,
    JSONLSink,
    Subscription,
    normalize_kinds,
)
from tests.runtime.fleet import local_fleet

EVERY = """
    PATTERN SEQ(A a)
    WITHIN 10 EVENTS
    RANK BY a.x DESC
    LIMIT 3
    EMIT EAGER
"""

PARTITIONED = """
    NAME per_symbol
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol
    WITHIN 10 SECONDS
    PARTITION BY symbol
    RANK BY s.price DESC
    LIMIT 2
    EMIT ON WINDOW CLOSE
"""


def E(event_type, ts, **attrs):
    return Event(event_type, ts, **attrs)


class RecordingSink(BaseSink):
    """A sink that records deliveries and lifecycle calls."""

    def __init__(self):
        super().__init__()
        self.emissions = []
        self.flushes = 0
        self.closes = 0

    def _deliver(self, emission):
        self.emissions.append(emission)

    def flush(self):
        self.flushes += 1

    def close(self):
        self.closes += 1


class TestSubscribe:
    def test_callback_receives_emissions(self):
        engine = CEPREngine()
        handle = engine.register_query(EVERY, collect_results=False)
        seen = []
        subscription = handle.subscribe(seen.append)
        assert isinstance(subscription, Subscription)
        engine.push(E("A", 1.0, x=1))
        assert len(seen) == 1

    def test_cancel_stops_delivery_and_is_idempotent(self):
        engine = CEPREngine()
        handle = engine.register_query(EVERY, collect_results=False)
        seen = []
        subscription = handle.subscribe(seen.append)
        engine.push(E("A", 1.0, x=1))
        assert subscription.cancel()
        assert not subscription.cancel()  # second cancel is a no-op
        engine.push(E("A", 2.0, x=2))
        assert len(seen) == 1

    def test_kind_filter(self):
        engine = CEPREngine()
        handle = engine.register_query(
            """
            PATTERN SEQ(A a)
            WITHIN 5 EVENTS
            RANK BY a.x DESC
            LIMIT 3
            EMIT EVERY 2 EVENTS
            """,
            collect_results=False,
        )
        periodic, all_kinds = [], []
        handle.subscribe(periodic.append, kinds=EmissionKind.PERIODIC)
        handle.subscribe(all_kinds.append)
        for i in range(11):
            engine.push(E("A", float(i), x=i))
        engine.flush()  # adds a FINAL emission only the unfiltered sub sees
        assert periodic
        assert len(all_kinds) > len(periodic)
        assert all(e.kind is EmissionKind.PERIODIC for e in periodic)

    def test_empty_kinds_rejected(self):
        engine = CEPREngine()
        handle = engine.register_query(EVERY)
        with pytest.raises(ValueError):
            handle.subscribe(lambda e: None, kinds=[])
        with pytest.raises(ValueError):
            normalize_kinds([])

    def test_engine_subscribe_by_name(self):
        engine = CEPREngine()
        engine.register_query(EVERY, name="q", collect_results=False)
        seen = []
        engine.subscribe("q", seen.append)
        engine.push(E("A", 1.0, x=5))
        assert len(seen) == 1

    def test_engine_subscribe_unknown_query_raises(self):
        engine = CEPREngine()
        with pytest.raises(KeyError):
            engine.subscribe("ghost", lambda e: None)


class TestSinkLifecycle:
    def test_flush_and_close_propagate_through_engine(self):
        engine = CEPREngine()
        handle = engine.register_query(EVERY, collect_results=False)
        sink = RecordingSink()
        handle.subscribe(sink)
        engine.push(E("A", 1.0, x=1))
        engine.flush()
        assert sink.flushes == 1
        engine.close()
        assert sink.closes == 1
        # close() is idempotent: a second call must not re-close sinks.
        engine.close()
        assert sink.closes == 1

    def test_remove_sink_detaches(self):
        engine = CEPREngine()
        handle = engine.register_query(EVERY, collect_results=False)
        sink = RecordingSink()
        handle.subscribe(sink)
        assert handle.remove_sink(sink)
        assert not handle.remove_sink(sink)
        engine.push(E("A", 1.0, x=1))
        assert not sink.emissions

    def test_unregister_closes_sinks(self):
        engine = CEPREngine()
        handle = engine.register_query(EVERY, name="q", collect_results=False)
        sink = RecordingSink()
        handle.subscribe(sink)
        engine.unregister_query("q")
        assert sink.flushes == 1 and sink.closes == 1

    def test_jsonl_sink_through_engine_close(self, tmp_path):
        path = tmp_path / "out.jsonl"
        engine = CEPREngine()
        handle = engine.register_query(EVERY, collect_results=False)
        handle.subscribe(JSONLSink(path))
        engine.push(E("A", 1.0, x=1))
        engine.push(E("A", 2.0, x=2))
        engine.close()
        # two eager emissions plus the FINAL snapshot from the flush
        lines = path.read_text().splitlines()
        assert len(lines) == 3

    def test_subscription_counts_deliveries(self):
        engine = CEPREngine()
        handle = engine.register_query(EVERY, collect_results=False)
        sink = CallbackSink(lambda e: None)
        handle.subscribe(sink)
        engine.push(E("A", 1.0, x=1))
        engine.push(E("A", 2.0, x=2))
        assert sink.emissions_accepted == 2


class TestUnregisterPrunesMetrics:
    def test_metrics_disappear_with_the_query(self):
        engine = CEPREngine()
        engine.register_query(EVERY, name="doomed")
        registry = engine.metrics_registry()
        assert any(
            sample.labels.get("query") == "doomed"
            for sample in registry.collect()
        )
        engine.unregister_query("doomed")
        assert not any(
            sample.labels.get("query") == "doomed"
            for sample in registry.collect()
        )

    def test_reregistering_same_name_does_not_collide(self):
        engine = CEPREngine()
        for _ in range(3):
            engine.register_query(EVERY, name="recycled")
            engine.metrics_registry()  # force instrument creation
            engine.unregister_query("recycled")
        engine.register_query(EVERY, name="recycled", collect_results=False)
        engine.push(E("A", 1.0, x=1))
        samples = [
            sample
            for sample in engine.metrics_registry().collect()
            if sample.labels.get("query") == "recycled"
        ]
        series = [
            (sample.name, tuple(sorted(sample.labels.items())))
            for sample in samples
        ]
        assert len(series) == len(set(series)), "duplicate series after churn"
        assert samples, "live query must still be reported"


class TestRunnerSubscriptions:
    def test_threaded_runner_subscribe_while_running(self):
        engine = CEPREngine()
        engine.register_query(EVERY, name="q", collect_results=False)
        seen = []
        with ThreadedEngineRunner(engine) as runner:
            runner.subscribe("q", seen.append)
            runner.submit(E("A", 1.0, x=1))
            runner.sync(timeout=10.0)
            assert len(seen) == 1  # read-your-writes after the barrier
        assert len(seen) == 2  # stop() flushed: one FINAL emission more

    def test_sharded_view_subscribe(self):
        runner = local_fleet(shards=2)
        view = runner.register_query(PARTITIONED)
        seen = []
        view.subscribe(seen.append)
        runner.start()
        try:
            for i, symbol in enumerate(["A", "B", "C", "D"]):
                runner.submit(E("Buy", float(i), symbol=symbol, price=1.0))
                runner.submit(
                    E("Sell", float(i) + 0.5, symbol=symbol, price=2.0)
                )
            runner.flush()
        finally:
            runner.stop()
        assert seen
        assert all(e.ranking for e in seen)

    def test_sharded_runner_subscribe_by_name(self):
        runner = local_fleet(shards=2)
        runner.register_query(PARTITIONED)
        seen = []
        runner.subscribe("per_symbol", seen.append)
        with pytest.raises(KeyError):
            runner.subscribe("ghost", seen.append)
        runner.start()
        try:
            runner.submit(E("Buy", 1.0, symbol="A", price=1.0))
            runner.submit(E("Sell", 1.5, symbol="A", price=3.0))
            runner.flush()
        finally:
            runner.stop()
        assert seen
