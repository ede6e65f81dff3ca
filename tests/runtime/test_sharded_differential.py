"""Differential correctness tests for the sharded runtime.

The exactness contract (see ``repro/runtime/sharded.py``): for every
supported query class, the merged output of :class:`ShardedEngineRunner`
is **identical** to a single :class:`CEPREngine` fed the same stream —
same emissions, in the same order, at the same stream points, with the
same rankings.  These tests drive seeded random workloads through both
and compare fingerprints at 1, 2, and 4 shards.

Fingerprints exclude ``detection_index`` and ``revision``: the merge
stage re-stamps both in the deterministic merge order (documented), so
their *order* is asserted implicitly via emission/ranking order instead
of their raw values.
"""

import pytest

from repro import CEPREngine, Event
from repro.runtime.sharded import stable_shard
from repro.workloads.generic import GenericWorkload
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import local_fleet

SHARD_COUNTS = [1, 2, 4]


def match_fp(match):
    """Identity of a match minus re-stamped bookkeeping."""
    bindings = tuple(
        (
            var,
            (binding.seq,)
            if isinstance(binding, Event)
            else tuple(e.seq for e in binding),
        )
        for var, binding in match.bindings.items()
    )
    return (
        bindings,
        match.first_seq,
        match.last_seq,
        match.partition_key,
        match.score,
        match.rank_values,
    )


def emission_fp(emission):
    return (
        emission.kind.value,
        emission.at_seq,
        round(emission.at_ts, 9),
        emission.epoch,
        tuple(match_fp(m) for m in emission.ranking),
    )


def fingerprint(handle):
    return [emission_fp(e) for e in handle.results()]


def drive(submit, advance, flush, events, heartbeat_every=None, lead=2.5):
    """Feed ``events`` with optional interleaved heartbeats, then flush.

    Heartbeat timestamps advance up to ``lead`` seconds past the current
    event but never past the *next* event's timestamp — a watermark
    overtaking the stream would make later events contradict it (see the
    exactness contract in ``repro/runtime/sharded.py``).
    """
    events = list(events)
    for index, event in enumerate(events):
        submit(event)
        if heartbeat_every and index % heartbeat_every == heartbeat_every - 1:
            watermark = event.timestamp + lead
            if index + 1 < len(events):
                watermark = min(watermark, events[index + 1].timestamp)
            advance(watermark)
    flush()


def run_single(queries, make_events, heartbeat_every=None, **engine_kwargs):
    engine = CEPREngine(**engine_kwargs)
    handles = [engine.register_query(q) for q in queries]
    drive(engine.push, engine.advance_time, engine.flush, make_events(), heartbeat_every)
    return engine, handles


def run_sharded(queries, make_events, shards, heartbeat_every=None, **runner_kwargs):
    runner = local_fleet(shards=shards, **runner_kwargs)
    views = [runner.register_query(q) for q in queries]
    runner.start()
    drive(runner.submit, runner.advance_time, runner.flush, make_events(), heartbeat_every)
    runner.stop()
    return runner, views


def assert_identical(queries, make_events, shards, heartbeat_every=None, **kwargs):
    _, handles = run_single(queries, make_events, heartbeat_every, **kwargs)
    _, views = run_sharded(queries, make_events, shards, heartbeat_every, **kwargs)
    for handle, view in zip(handles, views):
        assert fingerprint(view) == fingerprint(handle), view.name
        assert [match_fp(m) for m in view.final_ranking()] == [
            match_fp(m) for m in handle.final_ranking()
        ], view.name
    return views


COUNT_TUMBLING = """
NAME count_tumbling
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 100 EVENTS
PARTITION BY symbol
RANK BY s.price - b.price DESC
LIMIT 5
EMIT ON WINDOW CLOSE
"""

TIME_TUMBLING = """
NAME time_tumbling
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 5 SECONDS
PARTITION BY symbol
RANK BY s.price - b.price DESC
LIMIT 3
EMIT ON WINDOW CLOSE
"""

PASSTHROUGH = """
NAME passthrough
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price * 1.01
WITHIN 50 EVENTS
PARTITION BY symbol
"""

SOLO_GLOBAL = """
NAME solo_global
PATTERN SEQ(Buy a, Buy b)
WHERE b.price > a.price
WITHIN 20 EVENTS
RANK BY b.price - a.price DESC
LIMIT 4
EMIT ON WINDOW CLOSE
"""

SOLO_SLIDING = """
NAME solo_sliding
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol
WITHIN 30 EVENTS
PARTITION BY symbol
RANK BY s.price DESC
LIMIT 3
EMIT EVERY 25 EVENTS
"""


class TestStockWorkload:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_count_tumbling_identical(self, shards, seed):
        make = lambda: StockWorkload(seed=seed).events(1500)
        views = assert_identical([COUNT_TUMBLING], make, shards)
        if shards > 1:
            assert views[0].mode == "sharded-tumbling"

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [5, 23])
    def test_time_tumbling_with_heartbeats_identical(self, shards, seed):
        make = lambda: StockWorkload(seed=seed, rate=10.0).events(1200)
        assert_identical([TIME_TUMBLING], make, shards, heartbeat_every=150)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sparse_stream_heartbeats_close_epochs(self, shards):
        """Gaps longer than the heartbeat lead: epochs close at ticks."""
        make = lambda: StockWorkload(seed=9, rate=0.5).events(400)
        assert_identical([TIME_TUMBLING], make, shards, heartbeat_every=3)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [2, 29])
    def test_passthrough_identical(self, shards, seed):
        make = lambda: StockWorkload(seed=seed).events(1500)
        views = assert_identical([PASSTHROUGH], make, shards)
        if shards > 1:
            assert views[0].mode == "sharded-passthrough"

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_mixed_deployment_identical(self, shards):
        """Sharded, pass-through, and solo queries coexist in one runner."""
        queries = [COUNT_TUMBLING, TIME_TUMBLING, PASSTHROUGH, SOLO_GLOBAL, SOLO_SLIDING]
        make = lambda: StockWorkload(seed=41, rate=10.0).events(1200)
        views = assert_identical(queries, make, shards, heartbeat_every=200)
        by_name = {v.name: v for v in views}
        assert by_name["solo_global"].mode == "solo"
        assert by_name["solo_sliding"].mode == "solo"

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_with_schema_registry_and_pruning(self, shards):
        registry = StockWorkload(seed=13).registry()
        make = lambda: StockWorkload(seed=13).events(1000)
        assert_identical(
            [COUNT_TUMBLING], make, shards, registry=registry, enable_pruning=True
        )


class TestGenericWorkload:
    QUERY = """
    NAME generic_groups
    PATTERN SEQ(A a, B b, C c)
    WHERE a.group == b.group AND b.group == c.group AND c.value > a.value
    WITHIN 200 EVENTS
    PARTITION BY group
    RANK BY c.value - a.value DESC
    LIMIT 4
    EMIT ON WINDOW CLOSE
    """

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [1, 8, 21])
    def test_many_groups_identical(self, shards, seed):
        make = lambda: GenericWorkload(
            seed=seed, alphabet_size=3, groups=16
        ).events(2000)
        assert_identical([self.QUERY], make, shards)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_kleene_and_skip_strategy_identical(self, shards):
        query = """
        PATTERN SEQ(A a, B bs+, C c)
        WHERE a.group == c.group AND c.value > a.value
        WITHIN 60 EVENTS
        USING SKIP_TILL_ANY
        PARTITION BY group
        RANK BY c.value - a.value DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
        """
        make = lambda: GenericWorkload(seed=6, alphabet_size=3, groups=8).events(900)
        assert_identical([query], make, shards)


class TestPlacement:
    def test_unpartitioned_query_falls_back_to_one_shard(self):
        runner = local_fleet(shards=4)
        view = runner.register_query(SOLO_GLOBAL)
        runner.start()
        assert view.mode == "solo"
        assert view.shards == 1
        assert runner.effective_shards == 1  # no partitioned fleet exists
        runner.stop()

    def test_yield_pins_all_queries_to_solo(self):
        runner = local_fleet(shards=4)
        yielding = runner.register_query(
            "PATTERN SEQ(Buy b, Sell s) WHERE b.symbol == s.symbol "
            "PARTITION BY symbol YIELD Pair(symbol=b.symbol)"
        )
        other = runner.register_query(COUNT_TUMBLING)
        runner.start()
        assert yielding.mode == "solo"
        assert other.mode == "solo"
        runner.stop()

    def test_trailing_negation_pinned_to_solo(self):
        """Trailing-negation pendings confirm at ticks in an order only a
        single engine reproduces, so the query must not be sharded — but
        its solo output still matches the reference engine exactly."""
        query = """
        NAME no_rebound
        PATTERN SEQ(Buy b, Sell s, NOT Buy r)
        WHERE b.symbol == s.symbol AND s.price > b.price
        WITHIN 100 EVENTS
        PARTITION BY symbol
        RANK BY s.price - b.price DESC
        LIMIT 5
        EMIT ON WINDOW CLOSE
        """
        make = lambda: StockWorkload(seed=37).events(800)
        views = assert_identical([query], make, shards=4, heartbeat_every=100)
        assert views[0].mode == "solo"

    def test_internal_negation_still_sharded(self):
        query = """
        PATTERN SEQ(Buy b, NOT Tick t, Sell s)
        WHERE b.symbol == s.symbol
        WITHIN 100 EVENTS
        PARTITION BY symbol
        RANK BY s.price DESC
        LIMIT 5
        EMIT ON WINDOW CLOSE
        """
        make = lambda: StockWorkload(seed=43, tick_fraction=0.2).events(1200)
        views = assert_identical([query], make, shards=4)
        assert views[0].mode == "sharded-tumbling"

    def test_partitioned_tumbling_gets_full_fleet(self):
        runner = local_fleet(shards=4)
        view = runner.register_query(COUNT_TUMBLING)
        runner.start()
        assert view.mode == "sharded-tumbling"
        assert view.shards == 4
        assert runner.effective_shards == 4
        runner.stop()

    def test_stable_shard_is_deterministic_and_in_range(self):
        keys = [("ACME",), ("GLOBO", 7), (3.5,), ((None,),)]
        for key in keys:
            first = stable_shard(key, 4)
            assert 0 <= first < 4
            assert all(stable_shard(key, 4) == first for _ in range(10))


class TestFleetIntrospection:
    def test_stats_and_metrics_aggregate_across_shards(self):
        make = lambda: StockWorkload(seed=19).events(1000)
        engine, handles = run_single([COUNT_TUMBLING], make)
        runner, views = run_sharded([COUNT_TUMBLING], make, shards=4)

        single_row = engine.stats_by_query()["count_tumbling"]
        fleet_row = runner.stats_by_query()["count_tumbling"]
        # Every event routes to exactly one shard, so routed/match/emission
        # counters must agree with the single engine exactly.
        assert fleet_row["events_routed"] == single_row["events_routed"]
        assert fleet_row["matches"] == single_row["matches"]
        assert fleet_row["emissions"] == single_row["emissions"]
        assert fleet_row["runs_created"] == single_row["runs_created"]
        assert fleet_row["partition_skips"] == single_row["partition_skips"]
        assert fleet_row["shards"] == 4
        assert runner.events_pushed == engine.events_pushed

        assert fleet_row["events_routed"] == handles[0].pipeline.metrics.events_routed

    def test_subscriber_sees_merged_stream_in_order(self):
        received = []
        make = lambda: StockWorkload(seed=31).events(800)
        runner = local_fleet(shards=4)
        view = runner.register_query(COUNT_TUMBLING)
        runner.subscribe(view.name, received.append)
        runner.start()
        drive(runner.submit, runner.advance_time, runner.flush, make())
        runner.stop()
        assert [emission_fp(e) for e in received] == fingerprint(view)
        assert [e.at_seq for e in received] == sorted(e.at_seq for e in received)
