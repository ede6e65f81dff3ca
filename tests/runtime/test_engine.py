"""Engine facade: registration, routing, schemas, metrics."""

import pytest

from repro import CEPREngine, Event
from repro.events.schema import EventSchema, SchemaError, SchemaRegistry
from repro.language.errors import CEPRSemanticError, CEPRSyntaxError


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


class TestRegistration:
    def test_auto_names(self, engine):
        q1 = engine.register_query("PATTERN SEQ(A a)")
        q2 = engine.register_query("PATTERN SEQ(B b)")
        assert (q1.name, q2.name) == ("q1", "q2")

    def test_name_clause_wins_over_auto(self, engine):
        handle = engine.register_query("NAME alerts PATTERN SEQ(A a)")
        assert handle.name == "alerts"

    def test_explicit_name_wins_over_clause(self, engine):
        handle = engine.register_query("NAME x PATTERN SEQ(A a)", name="y")
        assert handle.name == "y"

    def test_duplicate_name_rejected(self, engine):
        engine.register_query("PATTERN SEQ(A a)", name="dup")
        with pytest.raises(CEPRSemanticError, match="already registered"):
            engine.register_query("PATTERN SEQ(B b)", name="dup")

    def test_syntax_error_propagates(self, engine):
        with pytest.raises(CEPRSyntaxError):
            engine.register_query("PATTERN SEQ(")

    def test_register_parsed_ast(self, engine):
        from repro.language.parser import parse_query

        handle = engine.register_query(parse_query("PATTERN SEQ(A a)"))
        assert handle.name == "q1"

    def test_lookup_and_listing(self, engine):
        handle = engine.register_query("PATTERN SEQ(A a)", name="x")
        assert engine.query("x") is handle
        assert engine.queries() == [handle]

    def test_unregister(self, engine):
        engine.register_query("PATTERN SEQ(A a)", name="x")
        engine.unregister_query("x")
        assert engine.queries() == []
        emissions = engine.push(E("A", 1))
        assert emissions == []

    def test_unregister_unknown(self, engine):
        with pytest.raises(KeyError):
            engine.unregister_query("zz")


class TestRouting:
    def test_events_routed_only_to_interested_queries(self, engine):
        qa = engine.register_query("PATTERN SEQ(A a)")
        qb = engine.register_query("PATTERN SEQ(B b)")
        engine.push(E("A", 1))
        assert qa.pipeline.metrics.events_routed == 1
        assert qb.pipeline.metrics.events_routed == 0

    def test_negation_types_are_routed(self, engine):
        q = engine.register_query("PATTERN SEQ(A a, NOT C c, B b)")
        engine.push(E("C", 1))
        assert q.pipeline.metrics.events_routed == 1

    def test_shared_types_fan_out(self, engine):
        q1 = engine.register_query("PATTERN SEQ(A a)")
        q2 = engine.register_query("PATTERN SEQ(A a, B b)")
        engine.push(E("A", 1))
        assert q1.pipeline.metrics.events_routed == 1
        assert q2.pipeline.metrics.events_routed == 1

    def test_push_returns_emissions_across_queries(self, engine):
        engine.register_query("PATTERN SEQ(A a)")
        engine.register_query("PATTERN SEQ(A x)")
        emissions = engine.push(E("A", 1))
        assert len(emissions) == 2


class TestSchemas:
    def registry(self):
        return SchemaRegistry([EventSchema.build("A", x="int")])

    def test_validation_rejects_bad_events(self):
        engine = CEPREngine(registry=self.registry())
        engine.register_query("PATTERN SEQ(A a)")
        with pytest.raises(SchemaError):
            engine.push(E("A", 1, x="nope"))

    def test_unknown_type_allowed_by_default(self):
        engine = CEPREngine(registry=self.registry())
        engine.register_query("PATTERN SEQ(A a)")
        engine.push(E("Z", 1))  # no schema, lenient

    def test_strict_schema_rejects_unknown(self):
        engine = CEPREngine(registry=self.registry(), strict_schema=True)
        engine.register_query("PATTERN SEQ(A a)")
        with pytest.raises(SchemaError, match="no schema registered"):
            engine.push(E("Z", 1))

    def test_strict_time(self):
        from repro.events.time import OutOfOrderError

        engine = CEPREngine(strict_time=True)
        engine.register_query("PATTERN SEQ(A a)")
        engine.push(E("A", 5.0))
        with pytest.raises(OutOfOrderError):
            engine.push(E("A", 1.0))


class TestMetrics:
    def test_event_counting(self, engine):
        engine.register_query("PATTERN SEQ(A a)")
        for i in range(5):
            engine.push(E("A", i))
        assert engine.events_pushed == 5
        assert engine.metrics.throughput > 0

    def test_stats_by_query(self, engine):
        engine.register_query("PATTERN SEQ(A a, B b)", name="x")
        engine.push(E("A", 1))
        engine.push(E("B", 2))
        stats = engine.stats_by_query()["x"]
        assert stats["events_routed"] == 2
        assert stats["matches"] == 1
        assert stats["runs_created"] == 1

    def test_partition_skips_exposed_in_stats(self, engine):
        """Regression: events missing a PARTITION BY attribute used to
        vanish without trace.  They are counted and surfaced per query so
        upstream data problems are visible in the monitor."""
        engine.register_query(
            "PATTERN SEQ(A a, B b) PARTITION BY sym", name="pairs"
        )
        engine.push(E("A", 1, sym="X"))
        engine.push(E("A", 2))  # no key: skipped, but not silently
        engine.push(E("B", 3))  # no key: skipped, but not silently
        engine.push(E("B", 4, sym="X"))
        stats = engine.stats_by_query()["pairs"]
        assert stats["partition_skips"] == 2
        assert stats["matches"] == 1
        # Unpartitioned queries never skip.
        engine.register_query("PATTERN SEQ(A a)", name="all_a")
        engine.push(E("A", 5))
        assert engine.stats_by_query()["all_a"]["partition_skips"] == 0

    def test_latency_recorded(self, engine):
        handle = engine.register_query("PATTERN SEQ(A a)")
        engine.push(E("A", 1))
        assert handle.pipeline.metrics.latency.count == 1
        assert handle.pipeline.metrics.latency.mean > 0

    def test_run_convenience(self, engine):
        handle = engine.register_query("PATTERN SEQ(A a)")
        emissions = engine.run([E("A", 1), E("A", 2)])
        assert len(emissions) == 2
        assert handle.pipeline.metrics.matches == 2


class TestResultAccess:
    def test_results_require_collector(self):
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a)", collect_results=False)
        with pytest.raises(RuntimeError, match="collect_results"):
            handle.results()
        with pytest.raises(RuntimeError):
            handle.matches()
        with pytest.raises(RuntimeError):
            handle.final_ranking()

    def test_custom_sink_receives_emissions(self, engine):
        received = []
        handle = engine.register_query("PATTERN SEQ(A a)")
        from repro.runtime.sinks import CallbackSink

        handle.subscribe(CallbackSink(received.append))
        engine.push(E("A", 1))
        assert len(received) == 1
