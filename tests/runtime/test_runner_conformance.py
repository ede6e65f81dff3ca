"""Runner-protocol conformance: one workload, three backends, one answer.

Every backend built by ``create_runner``, and the process fleet's
in-process double (the same merge stage over ``LocalShard`` engines),
must speak the same lifecycle
(``subscribe`` / ``submit_all`` / ``sync`` / ``flush`` / ``snapshot`` /
``restore`` / ``close``) and produce **byte-identical** emissions for
the same program and stream.  The embedded runner is the ground truth;
each concurrent backend is compared against it after compact JSON
re-serialisation — the same discipline the serving and sharded
differential suites use.
"""

import json
import threading
from collections import Counter
from unittest import mock

import pytest

from repro import Event
from repro.events.schema import EventSchema, SchemaError, SchemaRegistry
from repro.events.time import OutOfOrderError
from repro.runtime import RunnerConfig, create_runner, emission_to_json
from repro.runtime.sinks import CollectorSink
from repro.sanitize.invariants import InvariantChecker
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import DOUBLE, create_test_runner

BACKENDS = ["embedded", "threaded", "process", DOUBLE]

TUMBLING = """
    NAME best_trades
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 120 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
"""

PERIODIC = """
    NAME ticker
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 50 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT EVERY 25 EVENTS
"""

#: unranked EMIT EAGER under a per-epoch LIMIT, one query per window kind.
QUOTA = 2
QUOTA_WINDOWS = {"by_count": (8, "EVENTS"), "by_time": (4, "SECONDS")}
QUOTA_QUERIES = {
    name: f"PATTERN SEQ(A a, B b, NOT C c) WITHIN {span} {unit} "
    f"USING SKIP_TILL_ANY LIMIT {QUOTA} EMIT EAGER"
    for name, (span, unit) in QUOTA_WINDOWS.items()
}

SHARDS = 2
EVENTS = 1_200
SEED = 2016


def make_events():
    return list(StockWorkload(seed=SEED).events(EVENTS))


def make_runner(backend, query=TUMBLING):
    return create_test_runner(
        query,
        RunnerConfig(
            backend=backend,
            shards=SHARDS,
            registry=StockWorkload(seed=SEED).registry(),
        ),
    )


def lines(emissions):
    return [json.dumps(emission_to_json(e), sort_keys=True) for e in emissions]


@pytest.fixture(scope="module")
def reference():
    """The embedded ground truth for the TUMBLING workload."""
    runner = make_runner("embedded")
    sink = CollectorSink()
    runner.subscribe("best_trades", sink)
    with runner:
        runner.submit_all(make_events())
        runner.flush()
    assert sink.emissions, "workload must emit for the suite to bite"
    return lines(sink.emissions)


class TestEmissionEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_lifecycle_byte_identical(self, backend, reference):
        runner = make_runner(backend)
        sink = CollectorSink()
        runner.subscribe("best_trades", sink)
        with runner:
            accepted = runner.submit_all(make_events())
            runner.sync()
            runner.flush()
        runner.close()
        assert accepted == EVENTS
        assert lines(sink.emissions) == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_with_block_after_explicit_start(self, backend, reference):
        runner = make_runner(backend)
        sink = CollectorSink()
        runner.subscribe("best_trades", sink)
        runner.start()
        with runner:  # entering a started runner is a no-op, not an error
            runner.submit_all(make_events())
            runner.flush()
        assert lines(sink.emissions) == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_event_submit_byte_identical(self, backend, reference):
        runner = make_runner(backend)
        sink = CollectorSink()
        runner.subscribe("best_trades", sink)
        runner.start()
        try:
            for event in make_events():
                runner.submit(event)
            runner.flush()
        finally:
            runner.stop()
        assert lines(sink.emissions) == reference

    @staticmethod
    def one_sink_on_every_query(backend):
        runner = create_test_runner(
            {"best_trades": TUMBLING, "ticker": PERIODIC},
            RunnerConfig(
                backend=backend,
                shards=SHARDS,
                registry=StockWorkload(seed=SEED).registry(),
            ),
        )
        sink = CollectorSink()
        for name in ("best_trades", "ticker"):
            runner.subscribe(name, sink)
        with runner:
            runner.submit_all(make_events())
            runner.flush()
        return lines(sink.emissions)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_sink_on_every_query_sees_the_same_stream(self, backend):
        """Subscriptions are the only way out, and one sink subscribed to
        every query sees the single engine's cross-query interleaving."""
        received = self.one_sink_on_every_query(backend)
        assert len({json.loads(line)["kind"] for line in received}) >= 2
        assert received == self.one_sink_on_every_query("embedded")


class TestReleaseOrder:
    """At a barrier, output the stream produced comes before what the
    barrier itself produced, even when both share the barrier's seq; the
    fleet once let a barrier emission land between two stream emissions
    of the same seq."""

    PROGRAM = {
        # Trailing negation: runs solo on a fleet, confirms at heartbeats.
        "confirmed": "PATTERN SEQ(A a, B b, NOT C c) WITHIN 5 SECONDS "
        "USING SKIP_TILL_ANY PARTITION BY k EMIT EAGER",
        # Sharded pass-through, emitting at the same seq as `confirmed`.
        "arrivals": "PATTERN SEQ(A a) WITHIN 1 EVENTS PARTITION BY k",
    }

    @staticmethod
    def stream():
        return [
            Event("A", 0.0, k=1),
            Event("B", 1.0, k=1),
            Event("B", 1.2, k=1),
            Event("A", 9.0, k=3),
            Event("B", 9.5, k=3),
            Event("A", 10.0, k=1),
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_release_order_at_a_barrier(self, backend):
        runner = create_test_runner(
            self.PROGRAM, RunnerConfig(backend=backend, shards=SHARDS)
        )
        sink = CollectorSink()
        for name in self.PROGRAM:
            runner.subscribe(name, sink)
        with runner:
            runner.submit_all(self.stream())
            runner.advance_time(30.0)
            runner.flush()
        points = [
            (e.ranking[0].query_name, e.at_seq, e.at_ts, e.ranking[0].last_seq)
            for e in sink.emissions
        ]
        assert points == [
            ("arrivals", 0, 0.0, 0),
            ("arrivals", 3, 9.0, 3),
            ("confirmed", 5, 10.0, 1),
            ("confirmed", 5, 10.0, 2),
            ("arrivals", 5, 10.0, 5),
            ("confirmed", 5, 30.0, 4),
        ]

    #: A heartbeat closes both ranked epochs; ``q1``'s close derives a
    #: ``Big`` event, whose match one engine delivers after every query's
    #: own heartbeat output.
    CASCADE = {
        "q1": "PATTERN SEQ(A a) WHERE a.x > 0 WITHIN 10 SECONDS "
        "RANK BY a.x DESC LIMIT 1 EMIT ON WINDOW CLOSE YIELD Big(x = a.x)",
        "q2": "PATTERN SEQ(Big b) WHERE b.x > 0",
        "q3": "PATTERN SEQ(A a) WHERE a.x > 0 WITHIN 10 SECONDS "
        "RANK BY a.x ASC LIMIT 1 EMIT ON WINDOW CLOSE",
    }

    @pytest.mark.parametrize("backend", ["process", DOUBLE])
    def test_a_heartbeat_cascade_follows_the_heartbeat_output(self, backend):
        """On the process fleet, and on its in-process double."""
        def order(runner):
            sink = CollectorSink()
            for name in self.CASCADE:
                runner.subscribe(name, sink)
            with runner:
                runner.submit_all(Event("A", float(t), x=t + 1) for t in range(5))
                runner.advance_time(25.0)
                runner.flush()
            return [
                (e.ranking[0].query_name, e.at_seq, e.at_ts, e.ranking[0].rank_values)
                for e in sink.emissions
            ]

        expected = order(create_runner(self.CASCADE))
        assert [name for name, *_ in expected] == ["q1", "q3", "q2"]
        fleet = create_test_runner(
            self.CASCADE, RunnerConfig(backend=backend, shards=SHARDS)
        )
        assert order(fleet) == expected


    #: Two identically written solo queries; the heartbeat empties their
    #: sliding window, so each emits an empty ranking.
    TWINS = {
        name: "PATTERN SEQ(A a) WHERE a.x > 0 WITHIN 5 SECONDS "
        "RANK BY a.x DESC LIMIT 2 EMIT EAGER"
        for name in ("qa", "qb")
    }

    @pytest.mark.parametrize("backend", ["process", DOUBLE])
    def test_a_heartbeat_that_empties_twin_windows(self, backend):
        def output(runner):
            sink = CollectorSink()
            for name in self.TWINS:
                runner.subscribe(name, sink)
            with runner:
                runner.submit_all(Event("A", float(t), x=t + 1) for t in range(3))
                runner.advance_time(30.0)
                runner.flush()
            return [emission_to_json(e) for e in sink.emissions]

        expected = output(create_runner(self.TWINS))
        assert [e["ranking"] for e in expected[-2:]] == [[], []]
        fleet = create_test_runner(
            self.TWINS, RunnerConfig(backend=backend, shards=SHARDS)
        )
        assert output(fleet) == expected


class TestSubmitAllCount:
    """``submit_all`` returns how many events it consumed: events a YIELD
    derives or the lateness buffer still holds do not change it."""

    YIELDING = {
        "pairs": "PATTERN SEQ(A a, B b) WITHIN 4 EVENTS USING SKIP_TILL_ANY "
        "YIELD Pair(x=a.x)",
        "pair_runs": "PATTERN SEQ(Pair p, Pair q) WITHIN 6 EVENTS",
    }
    PAIRS = {"pairs": "PATTERN SEQ(A a, B b) WITHIN 4 EVENTS"}

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "program, options",
        [(YIELDING, {}), (PAIRS, {"max_lateness": 5.0})],
        ids=["yield", "max_lateness"],
    )
    def test_count_is_the_callers_events(self, backend, program, options):
        runner = create_test_runner(
            program, RunnerConfig(backend=backend, shards=SHARDS, **options)
        )
        events = [Event("AB"[i % 2], float(i), x=i) for i in range(20)]
        with runner:
            assert runner.submit_all(events) == 20
            runner.flush()

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "embedded"])
    def test_a_waiting_source_holds_no_lock(self, backend):
        """``submit_all`` pulls a batch before it takes the submit lock: a
        paced source that has not yet filled a batch (four events here)
        does not block a ``submit`` from another thread."""
        runner = create_test_runner(
            self.PAIRS, RunnerConfig(backend=backend, shards=SHARDS, batch_size=4)
        )
        events = [Event("AB"[i % 2], float(i), x=i) for i in range(6)]

        def paced():
            yield from events[:2]
            other = threading.Thread(
                target=runner.submit, args=(Event("A", 1.5, x=-1),)
            )
            other.start()
            other.join(timeout=5.0)
            assert not other.is_alive(), "submit blocked behind the source"
            yield from events[2:]

        with runner:
            assert runner.submit_all(paced()) == 6
            runner.flush()
            assert runner.ingress.events_admitted == 7


class TestBarrierReturns:
    """``advance_time`` and ``flush`` return what they released, which is
    exactly what the subscriptions received during the call."""

    QUERY = (
        "PATTERN SEQ(A a, B b) WITHIN 5 SECONDS USING SKIP_TILL_ANY "
        "PARTITION BY k RANK BY b.x - a.x DESC LIMIT 2 EMIT ON WINDOW CLOSE"
    )

    @staticmethod
    def stream(start, count):
        return [
            Event("AB"[i % 2], start + i, k=(i // 2) % 3, x=(7 * i) % 11)
            for i in range(count)
        ]

    def run(self, backend):
        runner = create_test_runner(
            {"best": self.QUERY}, RunnerConfig(backend=backend, shards=SHARDS)
        )
        sink = CollectorSink()
        runner.subscribe("best", sink)
        returned = []
        with runner:
            for start, count, barrier in (
                (0.0, 13, lambda: runner.advance_time(20.0)),
                (21.0, 3, runner.flush),
            ):
                runner.submit_all(self.stream(start, count))
                runner.poll()
                seen = len(sink.emissions)
                released = barrier()
                assert lines(released) == lines(sink.emissions[seen:])
                returned.append(released)
        return returned, lines(sink.emissions)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_heartbeat_and_flush_return_their_emissions(self, backend):
        (heartbeat, final), delivered = self.run(backend)
        assert heartbeat and final
        assert delivered == self.run("embedded")[1]


class TestPassThroughQuota:
    """Unranked ``EMIT EAGER`` with ``LIMIT k`` lets k matches out per
    epoch, whichever step confirms them: the trailing negation parks
    every match until an event, a heartbeat or the flush ends its window."""

    @staticmethod
    def bursts(start, count):
        """``count`` bursts of one A and four Bs, one second per event."""
        return [
            Event(kind, start + 5.0 * burst + offset)
            for burst in range(count)
            for offset, kind in enumerate("ABBBB")
        ]

    def run(self, backend):
        runner = create_test_runner(
            QUOTA_QUERIES, RunnerConfig(backend=backend, shards=SHARDS)
        )
        sinks = {name: CollectorSink() for name in QUOTA_QUERIES}
        for name, sink in sinks.items():
            runner.subscribe(name, sink)
        with runner:
            runner.submit_all(self.bursts(1.0, 3))
            runner.advance_time(40.0)
            runner.submit_all(self.bursts(41.0, 3))
            runner.flush()
        return {name: sink.emissions for name, sink in sinks.items()}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_at_most_k_matches_per_epoch_on_every_entry_point(self, backend):
        emitted = self.run(backend)
        for name, emissions in emitted.items():
            assert emissions and {e.kind.value for e in emissions} == {"match"}
            point = "at_seq" if name == "by_count" else "at_ts"
            per_epoch = Counter(
                getattr(e, point) // QUOTA_WINDOWS[name][0] for e in emissions
            )
            assert max(per_epoch.values()) <= QUOTA, (name, per_epoch)
        if backend != "embedded":
            assert {n: lines(e) for n, e in emitted.items()} == {
                n: lines(e) for n, e in self.run("embedded").items()
            }


class TestSubscribeKinds:
    """The ``kinds`` filter must hold on every backend (satellite #2)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kinds_filter_is_honored(self, backend):
        runner = make_runner(backend, query=PERIODIC)
        filtered, unfiltered = CollectorSink(), CollectorSink()
        runner.subscribe("ticker", filtered, kinds=["periodic"])
        runner.subscribe("ticker", unfiltered)
        with runner:
            runner.submit_all(make_events())
            runner.flush()
        all_kinds = {e.kind.value for e in unfiltered.emissions}
        assert len(all_kinds) >= 2, "need mixed kinds for the test to bite"
        assert {e.kind.value for e in filtered.emissions} == {"periodic"}
        # The filter selects, it never reorders or rewrites.
        assert lines(filtered.emissions) == [
            line
            for line, e in zip(
                lines(unfiltered.emissions), unfiltered.emissions
            )
            if e.kind.value == "periodic"
        ]


class TestStatsShape:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_by_query_matches_embedded(self, backend, reference):
        embedded = make_runner("embedded")
        with embedded:
            embedded.submit_all(make_events())
            embedded.flush()
        expected = embedded.stats_by_query()["best_trades"]

        runner = make_runner(backend)
        with runner:
            runner.submit_all(make_events())
            runner.flush()
        row = runner.stats_by_query()["best_trades"]

        # Same shape (fleet backends may add fleet-only columns) ...
        assert set(expected) <= set(row)
        # ... and identical exact counters: every event routes exactly
        # once, and a revision is a revision on every backend.
        for key in (
            "events_routed",
            "matches",
            "emissions",
            "revisions",
            "runs_created",
            "runs_pruned",
            "partition_skips",
        ):
            assert row[key] == expected[key], key
        assert row["revisions"] == row["emissions"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_registry_has_instruments(self, backend):
        runner = make_runner(backend)
        with runner:
            runner.submit_all(make_events())
            runner.flush()
        names = {sample.name for sample in runner.metrics_registry().collect()}
        assert "events_pushed_total" in names
        assert "latency_seconds" in names

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cost_accounts_cover_the_query(self, backend):
        runner = make_runner(backend)
        with runner:
            runner.submit_all(make_events())
            runner.flush()
        assert "best_trades" in runner.cost_accounts()


class TestFreshnessAfterStop:
    """One rule on every backend: telemetry answers "as of the last
    barrier", and ``stop()``/``close()`` do not take the answer away."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_view_answers_after_stop_and_close(self, backend):
        runner = make_runner(backend)
        runner.start()
        runner.submit_all(make_events())
        runner.flush()
        live = runner.stats_by_query()["best_trades"]
        runner.stop()
        for _ in ("stopped", "closed"):
            registry = runner.metrics_registry()
            assert registry.get("events_pushed_total").value == EVENTS
            row = runner.stats_by_query()["best_trades"]
            for key in ("events_routed", "matches", "emissions", "revisions"):
                assert row[key] == live[key], key
            account = runner.cost_accounts()["best_trades"]
            assert account.events_routed == live["events_routed"]
            assert runner.shared_stats()["events_gated"] >= 0
            assert runner.profiles_by_query()["best_trades"].match.count > 0
            assert runner.sanitizer_trips() in (None, {})
            runner.close()


class TestCheckpointLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_restore_resumes_byte_identical(self, backend, reference):
        events = make_events()
        cut = len(events) // 2

        first = make_runner(backend)
        sink = CollectorSink()
        first.subscribe("best_trades", sink)
        first.start()
        first.submit_all(events[:cut])
        first.sync()
        state = first.snapshot()
        prefix = lines(sink.emissions)
        if hasattr(first, "kill"):
            first.kill()
        else:
            first.stop()

        second = make_runner(backend)
        resumed = CollectorSink()
        second.subscribe("best_trades", resumed)
        second.start()
        try:
            second.restore(state)
            second.submit_all(events[cut:])
            second.flush()
        finally:
            second.stop()
        assert prefix + lines(resumed.emissions) == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_is_json_safe(self, backend):
        runner = make_runner(backend)
        runner.start()
        try:
            runner.submit_all(make_events()[:200])
            runner.sync()
            state = runner.snapshot()
        finally:
            runner.stop()
        json.dumps(state)  # must not raise


class TestIngressConformance:
    """Admission is one stage, run once per backend at ``submit``: every
    backend rejects the same events with the same exception, drops the
    same late events, and emits the same output.  An event the ingress
    rejects raises from ``submit`` and the runner carries on."""

    PROGRAM = {
        "spread": "PATTERN SEQ(A a, B b) WHERE b.v > a.v WITHIN 8 EVENTS "
        "USING SKIP_TILL_ANY PARTITION BY k RANK BY b.v - a.v DESC LIMIT 2 "
        "EMIT ON WINDOW CLOSE",
        "arrivals": "PATTERN SEQ(A a) WITHIN 1 EVENTS PARTITION BY k",
    }
    #: YIELD pins a fleet to its solo engine; ``big`` reads derived events.
    CASCADE = {
        "best": "PATTERN SEQ(A a) WITHIN 10 SECONDS PARTITION BY k "
        "RANK BY a.v DESC LIMIT 1 EMIT ON WINDOW CLOSE YIELD Big(k = a.k, v = a.v)",
        "big": "PATTERN SEQ(Big g)",
    }

    @staticmethod
    def registry():
        return SchemaRegistry(
            [EventSchema.build(kind, k="int", v="float") for kind in ("A", "B")]
        )

    @staticmethod
    def stream(count=40):
        return [
            Event("AB"[i % 2], i / 2, k=i % 3, v=float((7 * i) % 11))
            for i in range(count)
        ]

    @classmethod
    def case(cls, name):
        """``(events, config options)`` of one admission case."""
        events = cls.stream()
        if name in ("strict_out_of_order", "lenient_out_of_order"):
            events.insert(10, Event("A", 3.0, k=1, v=9.0))  # after t=4.5
            return events, {"strict_time": name.startswith("strict")}
        if name == "schema":
            events.insert(10, Event("B", 5.0, k=1, v="bad"))
            return events, {}
        if name == "lateness":
            events.insert(10, Event("A", 4.0, k=2, v=8.0))  # within 1.0
            events.insert(20, Event("B", 2.0, k=2, v=10.0))  # beyond it
            return events, {"max_lateness": 1.0}
        assert name == "duplicates"
        return [
            Event("AB"[i % 2], float(i // 4), k=i % 3, v=float(i % 5))
            for i in range(40)
        ], {"strict_time": True}

    def run(self, backend, program, events, registry=None, **options):
        runner = create_test_runner(
            program,
            RunnerConfig(
                backend=backend,
                shards=SHARDS,
                registry=self.registry() if registry is None else registry,
                **options,
            ),
        )
        sink = CollectorSink()
        for name in program:
            runner.subscribe(name, sink)
        rejected = []
        with runner:
            for event in events:
                try:
                    runner.submit(event)
                except (SchemaError, OutOfOrderError) as exc:
                    rejected.append((type(exc).__name__, str(exc)))
            runner.sync()
            runner.flush()
            late = runner.metrics_registry().get("late_drops_total")
        return lines(sink.emissions), rejected, None if late is None else late.value

    CASES = [
        "strict_out_of_order",
        "lenient_out_of_order",
        "schema",
        "lateness",
        "duplicates",
    ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", CASES)
    def test_every_backend_admits_alike(self, name, backend):
        events, options = self.case(name)
        emitted, rejected, late = self.run(backend, self.PROGRAM, events, **options)
        expected = self.run("embedded", self.PROGRAM, *self.case(name)[:1], **options)
        assert emitted, "the case must emit for the comparison to bite"
        assert (emitted, rejected, late) == expected
        if name == "strict_out_of_order":
            assert rejected == [
                ("OutOfOrderError", "event timestamp 3.0 regresses below 4.5")
            ]
        elif name == "schema":
            assert [kind for kind, _ in rejected] == ["SchemaError"]
        else:
            assert rejected == []
        assert late == (1 if name == "lateness" else None)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["strict_out_of_order", "schema"])
    def test_submit_all_keeps_what_it_admitted_before_a_rejection(self, name, backend):
        """``submit_all`` admits in batches (four events here): a rejected
        event raises with ``admitted``, its index in the call, and the
        events before it stay admitted — the same output and rejections
        as one ``submit`` per event."""
        events, options = self.case(name)
        runner = create_test_runner(
            self.PROGRAM,
            RunnerConfig(
                backend=backend,
                shards=SHARDS,
                registry=self.registry(),
                batch_size=4,
                **options,
            ),
        )
        sink = CollectorSink()
        for query in self.PROGRAM:
            runner.subscribe(query, sink)
        rejected = []
        with runner:
            with pytest.raises((SchemaError, OutOfOrderError)) as excinfo:
                runner.submit_all(events)
            exc = excinfo.value
            rejected.append((type(exc).__name__, str(exc)))
            assert exc.admitted == 10  # the case inserts it there
            assert runner.submit_all(events[11:]) == len(events) - 11
            runner.sync()
            runner.flush()
        expected = self.run("embedded", self.PROGRAM, events, **options)
        assert (lines(sink.emissions), rejected) == expected[:2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_derived_events_skip_the_time_order_check(self, backend):
        """A heartbeat's YIELD derives an event stamped at the heartbeat;
        source events after it are checked against source events only."""
        events = [Event("A", float(t), k=t % 2, v=float(t)) for t in range(5)]
        later = [Event("A", float(t), k=t % 2, v=float(t)) for t in range(6, 9)]

        def output(backend):
            runner = create_test_runner(
                self.CASCADE,
                RunnerConfig(backend=backend, shards=SHARDS, strict_time=True),
            )
            sink = CollectorSink()
            for name in self.CASCADE:
                runner.subscribe(name, sink)
            with runner:
                runner.submit_all(events)
                runner.advance_time(25.0)
                runner.submit_all(later)
                runner.flush()
            return lines(sink.emissions)

        emitted = output(backend)
        assert any('"Big"' in line for line in emitted)
        assert emitted == output("embedded")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_with_held_events_resumes_the_run(self, backend):
        events, options = self.case("lateness")
        cut = 15
        reference, _, late = self.run("embedded", self.PROGRAM, events, **options)
        config = RunnerConfig(
            backend=backend, shards=SHARDS, registry=self.registry(), **options
        )

        first = create_test_runner(self.PROGRAM, config)
        sink = CollectorSink()
        for name in self.PROGRAM:
            first.subscribe(name, sink)
        first.start()
        first.submit_all(events[:cut])
        first.sync()
        state = json.loads(json.dumps(first.snapshot()))
        first.kill()
        assert state["lateness"]["heap"], "the buffer must hold events at the cut"

        second = create_test_runner(self.PROGRAM, config)
        for name in self.PROGRAM:
            second.subscribe(name, sink)
        second.start()
        try:
            second.restore(state)
            second.submit_all(events[cut:])
            second.flush()
            resumed_late = second.metrics_registry().get("late_drops_total").value
        finally:
            second.stop()
        assert lines(sink.emissions) == reference
        assert resumed_late == late == 1

    @pytest.mark.parametrize(
        "first, second", [("threaded", "embedded"), ("embedded", "threaded")]
    )
    def test_single_engine_checkpoints_interchange(self, first, second):
        """A threaded runner's checkpoint has the embedded engine's layout:
        each restores the other's, lateness buffer and all."""
        events, options = self.case("lateness")
        reference, _, _ = self.run("embedded", self.PROGRAM, events, **options)
        config = RunnerConfig(registry=self.registry(), **options)
        sink = CollectorSink()
        runners = []
        for backend in (first, second):
            runner = create_runner(self.PROGRAM, config, backend=backend)
            for name in self.PROGRAM:
                runner.subscribe(name, sink)
            runners.append(runner.start())
        runners[0].submit_all(events[:15])
        runners[0].sync()
        state = runners[0].snapshot()
        runners[0].kill()
        assert state["lateness"]["heap"] and set(state["sequencer"]) == {
            "next_seq",
            "last_timestamp",
            "out_of_order_count",
        }
        runners[1].restore(state)
        runners[1].submit_all(events[15:])
        runners[1].stop()
        assert lines(sink.emissions) == reference

    @pytest.mark.parametrize("backend", ["embedded", "threaded", DOUBLE])
    def test_the_sanitizer_sees_every_numbered_event(self, backend):
        """The seq-monotonicity check wraps the engines' numbering, which
        stayed behind the ingress: it sees every source event the buffer
        releases and every derived one (in this process: not ``process``)."""
        events = [Event("A", t / 2, k=t % 2, v=float(t % 7)) for t in range(12)]
        events.insert(6, Event("A", 1.8, k=0, v=6.0))  # within the bound
        check = InvariantChecker.check_seq
        with mock.patch.object(
            InvariantChecker, "check_seq", autospec=True, side_effect=check
        ) as checked:
            runner = create_test_runner(
                self.CASCADE,
                RunnerConfig(
                    backend=backend, shards=SHARDS, max_lateness=1.0, sanitize=True
                ),
            )
            with runner:
                runner.submit_all(events)
                runner.advance_time(25.0)
                runner.flush()
                registry = runner.metrics_registry()
        assert registry.get("derived_events_total").value > 0
        assert checked.call_count == registry.get("events_pushed_total").value
        assert registry.get("sanitizer_trips_total").value == 0

    def test_the_double_validates_each_source_event_once(self):
        """Work bound: the coordinator's schema check is the only one."""
        registry = self.registry()
        calls = []
        check = registry.validate

        def validate(event, strict=False):
            calls.append(event)
            return check(event, strict=strict)

        registry.validate = validate
        events = self.stream()
        self.run(DOUBLE, self.PROGRAM, events, registry=registry)
        assert len(calls) == len(events)
        assert {id(event) for event in calls} == {id(event) for event in events}
