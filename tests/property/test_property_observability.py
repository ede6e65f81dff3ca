"""Property tests: fleet metric aggregation is split-invariant.

Three layers:

* Pure aggregation — :class:`LatencyRecorder` ``absorb`` (what
  ``MetricsRegistry.absorb`` pools histograms with) over any K-way split
  of the same observations equals the unsplit recorder: counts exactly,
  percentiles within float tolerance while the pooled reservoir is under
  capacity.
* End-to-end — a :class:`ShardedEngineRunner` at K ∈ {1, 2, 4, 8} shards
  reports, through the registry views (``stats_by_query`` /
  ``cost_accounts``), the same per-query counters as a single
  :class:`CEPREngine` fed the identical stream, counter for counter.
* Telemetry primitives — the :class:`FlightRecorder` ring never exceeds
  its byte budget under sustained load while keeping its counters
  consistent.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import CEPREngine, Event
from repro.observability.flightrec import FlightRecorder
from repro.runtime.metrics import LatencyRecorder
from tests.runtime.fleet import local_fleet

SHARD_COUNTS = (1, 2, 4, 8)

# (K, [(latency sample, shard it lands on), ...]) for K ∈ SHARD_COUNTS
samples_and_splits = st.sampled_from(SHARD_COUNTS).flatmap(
    lambda shards: st.lists(
        st.tuples(
            st.floats(
                min_value=1e-7, max_value=1e-2,
                allow_nan=False, allow_infinity=False,
            ),
            st.integers(min_value=0, max_value=shards - 1),
        ),
        min_size=0,
        max_size=200,
    ).map(lambda rows: (shards, rows))
)


class TestPureAggregation:
    @given(samples_and_splits)
    @settings(max_examples=60, deadline=None)
    def test_latency_absorb_is_split_invariant(self, case):
        shards, rows = case
        whole = LatencyRecorder()
        parts = [LatencyRecorder() for _ in range(shards)]
        for value, shard in rows:
            whole.record(value)
            parts[shard].record(value)

        merged = LatencyRecorder()
        for part in parts:
            merged.absorb(part)

        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total, rel=1e-12, abs=0.0)
        assert merged.maximum == whole.maximum
        # under reservoir capacity, pooling keeps every sample: the order
        # statistics agree exactly (sorted sets are identical)
        for q in (0, 50, 90, 99, 100):
            assert merged.percentile(q) == pytest.approx(
                whole.percentile(q), rel=1e-12, abs=0.0
            )


QUERY = """
NAME spread
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 30 EVENTS
PARTITION BY symbol
RANK BY s.price - b.price DESC
LIMIT 3
EMIT ON WINDOW CLOSE
"""

event_specs = st.lists(
    st.tuples(
        st.booleans(),  # Buy / Sell
        st.integers(min_value=0, max_value=5),  # symbol
        st.integers(min_value=1, max_value=100),  # price
    ),
    min_size=0,
    max_size=120,
)


#: Alert templates behind shared, selective stage-0 gates (the shape of the
#: ledger's ``multi_query_64`` row): most queries sleep most of the time.
ALERTS = {
    f"alert{t}_{k}": template.format(k=k)
    for t, template in enumerate(
        (
            "PATTERN SEQ(A a, B b) WHERE a.x > {k} AND a.k == b.k AND b.x > a.x "
            "WITHIN 8 EVENTS PARTITION BY k RANK BY b.x - a.x DESC LIMIT 2 "
            "EMIT ON WINDOW CLOSE",
            "PATTERN SEQ(A a, A c) WHERE a.x > {k} AND c.x > {k} AND a.k == c.k "
            "WITHIN 8 EVENTS PARTITION BY k RANK BY c.x DESC LIMIT 3 "
            "EMIT ON WINDOW CLOSE",
            "PATTERN SEQ(B a, NOT C n, A c) WHERE a.x > {k} AND a.k == c.k "
            "WITHIN 8 EVENTS PARTITION BY k RANK BY a.x DESC LIMIT 1 "
            "EMIT ON WINDOW CLOSE",
        )
    )
    for k in (70, 85, 95)
}

alert_specs = st.lists(
    st.tuples(
        st.sampled_from("AABBC"),  # event type
        st.integers(min_value=0, max_value=5),  # partition
        st.integers(min_value=0, max_value=100),  # x
    ),
    min_size=0,
    max_size=150,
)

#: the largest ``x`` each partition draws: every gate opens in p0 and p1,
#: only the lowest (70) in p2, none in p3.
PARTITION_CEILING = {"p0": 100, "p1": 100, "p2": 80, "p3": 60, None: 100}

scoped_alert_specs = st.lists(
    st.tuples(
        st.sampled_from("AABBC"),  # event type
        st.sampled_from(("p0", "p1", "p2", "p3", "p3", None)),  # None: keyless
        st.integers(min_value=0, max_value=100),  # x, capped per partition
    ),
    min_size=0,
    max_size=150,
)


def build_stream(specs):
    events = []
    ts = 0.0
    for is_buy, symbol, price in specs:
        ts += 0.25
        events.append(
            Event(
                "Buy" if is_buy else "Sell",
                ts,
                symbol=f"S{symbol}",
                price=float(price),
            )
        )
    return events


def run_both(specs, shards):
    """The same stream through one engine and a K-shard fleet."""
    events = build_stream(specs)

    engine = CEPREngine()
    engine.register_query(QUERY)
    for event in events:
        engine.push(event)
    engine.flush()

    runner = local_fleet(shards=shards)
    runner.register_query(QUERY)
    runner.start()
    try:
        for event in build_stream(specs):
            runner.submit(event)
        runner.flush()
    finally:
        runner.stop()
    return engine, runner


#: stats rows that are counts of what happened (not gauges of where a
#: shard is, fleet-only columns, or wall-clock latencies).
EXACT_STATS = (
    "events_routed",
    "matches",
    "emissions",
    "revisions",
    "runs_created",
    "runs_pruned",
    "runs_dominated",
    "partition_skips",
    "live_runs",
)

#: counts that follow θ, the epoch's k-th score.  Each shard prunes against
#: its own θ, never better than one engine's, so a fleet prunes no more runs
#: and builds no fewer matches (DESIGN.md "Sharding"); a run one engine
#: kills, the fleet has not pruned, so it kills it too.
THETA_COUNTS = ("matches", "runs_pruned", "runs_killed", "prune_ratio")


class TestEndToEndShardSplit:
    @given(specs=event_specs, shards=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=25, deadline=None)
    def test_sharded_counters_equal_single_engine(self, specs, shards):
        engine, runner = run_both(specs, shards)
        single = engine.stats_by_query()["spread"]
        fleet = runner.stats_by_query()["spread"]
        for key in EXACT_STATS:
            assert fleet[key] == single[key], key
        # fleet latency pools one sample per routed event across shards
        assert (
            runner.metrics_registry().get("latency_seconds", query="spread").count
            == engine.metrics_registry().get("latency_seconds", query="spread").count
            == single["events_routed"]
        )
        assert fleet["shards"] == shards

    @given(specs=event_specs, shards=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=25, deadline=None)
    def test_cost_accounts_merge_to_single_engine_values(self, specs, shards):
        """The fleet cost account equals the single-engine account exactly.

        Every counter the account carries — routed events, run
        lifecycle, shared-index hit/miss, matches, errors — must sum
        across shards to the value one engine reports for the identical
        stream.  CPU time is measured, not counted, so it is the one
        field excluded from the exact comparison.
        """
        engine, runner = run_both(specs, shards)
        single = engine.cost_accounts()["spread"]
        merged = runner.cost_accounts()["spread"]
        assert merged.parts == shards
        assert merged.query == single.query
        assert merged.events_routed == single.events_routed
        assert merged.runs_created == single.runs_created
        assert merged.runs_extended == single.runs_extended
        assert merged.runs_killed == single.runs_killed
        assert merged.runs_pruned == single.runs_pruned
        assert merged.shared_hits == single.shared_hits
        assert merged.shared_misses == single.shared_misses
        assert merged.matches == single.matches
        assert merged.emissions == single.emissions
        assert merged.evaluation_errors == single.evaluation_errors
        # derived ratios follow from the counters, so they agree too
        assert merged.hit_ratio == pytest.approx(single.hit_ratio)
        assert merged.prune_ratio == pytest.approx(single.prune_ratio)

    @given(specs=alert_specs, shards=st.sampled_from((1, 2, 4)))
    @settings(max_examples=15, deadline=None)
    def test_sleeping_queries_sum_to_single_engine_rows(self, specs, shards):
        """Shard engines sleep and wake on their own; the sums do not move.

        Most of the alert program is dormant most of the time, and which
        queries are awake differs per shard (a ranker holding matches keeps
        a query awake for its shard only), so every lazily settled
        counter — routed events, latency counts, memo hits, errors — is
        settled at different moments on each shard.  The fleet's rows and
        cost accounts must still equal one engine's, query for query,
        except the θ counts, which obey the documented inequality (a fleet
        prunes fewer runs on B@p1 x=72, A@p1, B@p0 x=71 over two shards).
        """
        assert_alert_fleet_sums(
            [
                Event(kind, 0.5 * index, x=x, k=f"p{key}")
                for index, (kind, key, x) in enumerate(specs)
            ],
            shards,
        )

    @given(specs=scoped_alert_specs, shards=st.sampled_from((1, 2, 4)))
    @settings(max_examples=15, deadline=None)
    def test_partition_scoped_queries_sum_to_single_engine_rows(self, specs, shards):
        """The same sums where dormant queries hold runs in some partitions.

        Gates open in p0 and p1 only (and the lowest in p2), so a query
        holding runs there stays dormant for the rest, and keyless events
        are partition skips for every query; a shard sees only its own
        partitions' events and the keyless ones land on shard 0.
        """
        assert_alert_fleet_sums(
            [
                Event(kind, 0.5 * index, x=min(x, PARTITION_CEILING[key]),
                      **({} if key is None else {"k": key}))
                for index, (kind, key, x) in enumerate(specs)
            ],
            shards,
        )


def assert_alert_fleet_sums(events, shards):
    """``ALERTS`` over ``events``: one engine and a ``shards``-way fleet agree."""

    def stream():
        return [Event(e.event_type, e.timestamp, **e.payload) for e in events]

    engine = CEPREngine()
    for name, text in ALERTS.items():
        engine.register_query(text, name=name)
    for event in stream():
        engine.push(event)
    engine.flush()

    runner = local_fleet(shards=shards)
    for name, text in ALERTS.items():
        runner.register_query(text, name=name)
    runner.start()
    try:
        for event in stream():
            runner.submit(event)
        runner.flush()
    finally:
        runner.stop()

    single_rows, fleet_rows = engine.stats_by_query(), runner.stats_by_query()
    single_costs, fleet_costs = engine.cost_accounts(), runner.cost_accounts()
    for name in ALERTS:
        for key in EXACT_STATS:
            if key not in THETA_COUNTS:
                assert fleet_rows[name][key] == single_rows[name][key], (name, key)
        single, merged = single_costs[name].to_dict(), fleet_costs[name].to_dict()
        for key in single:
            if "cpu" not in key and key != "parts" and key not in THETA_COUNTS:
                assert merged[key] == pytest.approx(single[key]), (name, key)
        assert merged["matches"] >= single["matches"], name
        assert merged["runs_pruned"] <= single["runs_pruned"], name
        assert merged["runs_killed"] >= single["runs_killed"], name
        assert (
            runner.metrics_registry().get("latency_seconds", query=name).count
            == single_rows[name]["events_routed"]
        )


class TestFlightRecorderBudgetProperties:
    @given(
        budget=st.integers(min_value=64, max_value=4096),
        payloads=st.lists(
            st.text(
                alphabet=st.characters(
                    min_codepoint=32, max_codepoint=126
                ),
                max_size=48,
            ),
            min_size=0,
            max_size=300,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_ring_never_exceeds_budget_under_sustained_load(
        self, budget, payloads
    ):
        recorder = FlightRecorder(byte_budget=budget)
        oversize = 0
        for i, payload in enumerate(payloads):
            before = recorder.recorded
            recorder.record("load", seq=i, payload=payload)
            if recorder.recorded == before:
                oversize += 1
            # the budget is a hard invariant at every step, not just at rest
            assert recorder.bytes_used <= budget

        entries = recorder.entries()
        # accepted entries either remain in the ring or were evicted
        assert recorder.recorded == len(payloads) - oversize
        assert recorder.dropped == (recorder.recorded - len(entries)) + oversize
        # eviction is strictly oldest-first: retained seqs are the tail
        seqs = [entry["seq"] for entry in entries]
        assert seqs == sorted(seqs)
        if seqs and not oversize:
            assert seqs[-1] == len(payloads) - 1
