"""Differential equivalence tests for shared multi-query execution.

The exactness contract (see ``repro/runtime/router.py`` and
docs/SHARED_EXECUTION.md): an engine with ``shared_execution=True`` (the
default) produces **byte-identical, identically-ordered** per-query
emissions to both

* one engine per query with sharing disabled (N fully independent
  single-query runs), and
* one multi-query engine with ``shared_execution=False``

for the same stream — including detection indices, revision counters,
and emission stream points.  These tests drive seeded stock, vitals, and
clickstream workloads through query-variant families built to exercise
every sharing layer (common pattern heads, alpha-renamed bindings,
permuted conjuncts, flipped comparisons), plus registration churn and
checkpoint/restore mid-stream.

Unlike the sharded differential suite, nothing here re-stamps
bookkeeping, so fingerprints include ``detection_index`` and
``revision`` and the serialized wire lines are compared verbatim.
"""

import pytest

from repro import CEPREngine
from repro.events.event import Event
from repro.runtime.serialize import emission_to_line
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload


def match_fp(match):
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
        match.detection_index,
    )


def emission_fp(emission):
    return (
        emission.kind.value,
        emission.at_seq,
        emission.at_ts,
        emission.epoch,
        emission.revision,
        tuple(match_fp(m) for m in emission.ranking),
    )


def fingerprint(handle):
    return [emission_fp(e) for e in handle.results()]


def wire_lines(handle):
    """The emissions exactly as the serving layer would frame them."""
    return [emission_to_line(e) for e in handle.results()]


def drive(engine, events, heartbeat_every=None, lead=2.5):
    events = list(events)
    for index, event in enumerate(events):
        engine.push(event)
        if heartbeat_every and index % heartbeat_every == heartbeat_every - 1:
            watermark = event.timestamp + lead
            if index + 1 < len(events):
                watermark = min(watermark, events[index + 1].timestamp)
            engine.advance_time(watermark)
    engine.flush()


def run_together(queries, make_events, shared, heartbeat_every=None, **kwargs):
    """All queries in one engine, sharing on or off."""
    engine = CEPREngine(shared_execution=shared, **kwargs)
    handles = [engine.register_query(q) for q in queries]
    drive(engine, make_events(), heartbeat_every)
    return engine, handles


def run_isolated(queries, make_events, heartbeat_every=None, **kwargs):
    """One fully independent engine per query (the strongest baseline)."""
    handles = []
    for query in queries:
        engine = CEPREngine(shared_execution=False, **kwargs)
        handles.append(engine.register_query(query))
        drive(engine, make_events(), heartbeat_every)
    return handles


def assert_equivalent(queries, make_events, heartbeat_every=None, **kwargs):
    engine, shared_handles = run_together(
        queries, make_events, True, heartbeat_every, **kwargs
    )
    _, together_handles = run_together(
        queries, make_events, False, heartbeat_every, **kwargs
    )
    isolated_handles = run_isolated(queries, make_events, heartbeat_every, **kwargs)
    for shared_h, together_h, isolated_h in zip(
        shared_handles, together_handles, isolated_handles
    ):
        name = shared_h.name
        assert fingerprint(shared_h) == fingerprint(together_h), name
        assert fingerprint(shared_h) == fingerprint(isolated_h), name
        assert wire_lines(shared_h) == wire_lines(isolated_h), name
        assert [match_fp(m) for m in shared_h.final_ranking()] == [
            match_fp(m) for m in isolated_h.final_ranking()
        ], name
        # Sharing must not change what each query *saw* either.
        assert (
            shared_h.metrics.events_routed == together_h.metrics.events_routed
        ), name
        assert (
            shared_h.matcher.stats.evaluation_errors
            == together_h.matcher.stats.evaluation_errors
        ), name
    return engine, shared_handles


# Five variants over one pattern head: shared prefix (identical names),
# alpha-renamed bindings, permuted conjuncts, flipped comparisons, and
# every emission policy the ranker supports.
STOCK_VARIANTS = [
    """
    NAME surge_top5
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price AND b.price > 10
    WITHIN 100 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
    """,
    """
    NAME surge_top3
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.price > 10 AND b.symbol == s.symbol AND s.price > b.price
    WITHIN 100 EVENTS
    PARTITION BY symbol
    RANK BY s.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
    """,
    """
    NAME surge_renamed
    PATTERN SEQ(Buy x, Sell y)
    WHERE x.symbol == y.symbol AND y.price > x.price AND 10 < x.price
    WITHIN 100 EVENTS
    PARTITION BY symbol
    RANK BY y.price - x.price DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
    """,
    """
    NAME surge_eager
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price AND b.price > 10
    WITHIN 60 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT EAGER
    """,
    """
    NAME surge_every
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price AND b.price > 10
    WITHIN 60 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT EVERY 40 EVENTS
    """,
]

VITALS_VARIANTS = [
    """
    NAME fever_ramp
    PATTERN SEQ(HeartRate h, Temperature ts+)
    WHERE h.value > 90 AND ts.value > prev(ts.value)
    WITHIN 12 SECONDS
    PARTITION BY patient
    RANK BY max(ts.value) DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
    """,
    """
    NAME fever_ramp_len
    PATTERN SEQ(HeartRate h, Temperature ts+)
    WHERE 90 < h.value AND ts.value > prev(ts.value)
    WITHIN 12 SECONDS
    PARTITION BY patient
    RANK BY count(ts) DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
    """,
    """
    NAME tachycardia
    PATTERN SEQ(HeartRate a, HeartRate b)
    WHERE a.value > 90 AND b.value > a.value
    WITHIN 8 SECONDS
    PARTITION BY patient
    RANK BY b.value DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
    """,
]

CLICKSTREAM_VARIANTS = [
    """
    NAME abandoned_carts
    PATTERN SEQ(AddToCart c, NOT Purchase p)
    WHERE c.value > 100
    WITHIN 4 SECONDS
    PARTITION BY user
    RANK BY c.value DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
    """,
    """
    NAME big_carts
    PATTERN SEQ(AddToCart c, Purchase p)
    WHERE c.value > 100 AND p.value >= c.value
    WITHIN 6 SECONDS
    PARTITION BY user
    RANK BY p.value DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
    """,
    """
    NAME browse_to_buy
    PATTERN SEQ(PageView v, AddToCart c, Purchase p)
    WHERE 100 < c.value
    WITHIN 6 SECONDS
    PARTITION BY user
    RANK BY c.value DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
    """,
]


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 44])
    def test_stock_variant_family(self, seed):
        make = lambda: StockWorkload(seed=seed).events(1500)
        engine, _ = assert_equivalent(STOCK_VARIANTS, make)
        counters = engine.shared_stats()
        # The family was built to share: the flipped/renamed/permuted
        # variants must collapse onto common index entries and actually
        # save evaluations at runtime.
        assert counters["predicate_evals_saved"] > 0
        assert counters["prefix_states_shared"] > 0

    @pytest.mark.parametrize("seed", [5, 23])
    def test_stock_with_heartbeats(self, seed):
        make = lambda: StockWorkload(seed=seed, rate=10.0).events(1000)
        assert_equivalent(STOCK_VARIANTS, make, heartbeat_every=150)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_vitals_kleene_family(self, seed):
        make = lambda: VitalsWorkload(
            seed=seed, patients=6, anomaly_rate=0.05
        ).events(1200)
        assert_equivalent(VITALS_VARIANTS, make)

    @pytest.mark.parametrize("seed", [2, 12])
    def test_clickstream_negation_family(self, seed):
        make = lambda: ClickstreamWorkload(seed=seed, users=12).events(1500)
        assert_equivalent(CLICKSTREAM_VARIANTS, make, heartbeat_every=200)

    def test_lenient_errors_accounting_matches(self):
        """Dirty data: per-query error counters survive memoized outcomes."""

        def make():
            events = list(StockWorkload(seed=7).events(600))
            # Strip `price` from a deterministic subset so the shared
            # predicates raise for some events under the lenient policy.
            for event in events:
                if event.timestamp % 1.0 < 0.08 and "price" in event.payload:
                    del event.payload["price"]
            return events

        assert_equivalent(STOCK_VARIANTS, make, lenient_errors=True)

    def test_keyless_events_count_alike(self):
        """A keyless event is dropped before its gate is consulted, as an
        independent matcher drops it: one partition skip, no evaluation
        error, whether the query is awake, dormant or holding runs."""
        query = (
            "PATTERN SEQ(Buy b, Sell s) WHERE b.volume > 100 AND b.symbol == s.symbol "
            "WITHIN 10 EVENTS PARTITION BY symbol RANK BY s.price DESC LIMIT 2 "
            "EMIT ON WINDOW CLOSE"
        )
        events = [
            ("Buy", {"symbol": "A", "volume": 50}),  # every copy goes dormant
            ("Buy", {"volume": 500}),  # no key
            ("Buy", {"price": 1.0}),  # no key, no volume
            ("Buy", {"symbol": "A"}),  # no volume: a lenient gate error
            ("Buy", {"symbol": "B", "volume": 500}),  # a run in B
            ("Sell", {"price": 2.0}),  # no key
            ("Buy", {}),
            ("Sell", {"symbol": "B", "price": 3.0}),  # completes in B
            ("Buy", {"volume": 1}),
        ]
        views = []
        for shared in (True, False):
            engine = CEPREngine(lenient_errors=True, shared_execution=shared)
            for copy in range(3):
                engine.register_query(query, name=f"q{copy}")
            for index, (kind, payload) in enumerate(events):
                engine.push(Event(kind, float(index), **payload))
                rows = engine.stats_by_query()
                costs = engine.cost_accounts()
                views.append(
                    (
                        shared,
                        {n: row["partition_skips"] for n, row in rows.items()},
                        {n: account.evaluation_errors for n, account in costs.items()},
                    )
                )
        shared_views = [view[1:] for view in views if view[0]]
        independent_views = [view[1:] for view in views if not view[0]]
        assert shared_views == independent_views
        assert shared_views[-1] == ({f"q{c}": 5 for c in range(3)}, {f"q{c}": 1 for c in range(3)})

    def test_schema_registry_and_pruning(self):
        registry = StockWorkload(seed=13).registry()
        make = lambda: StockWorkload(seed=13).events(1000)
        assert_equivalent(
            STOCK_VARIANTS, make, registry=registry, enable_pruning=True
        )


class TestRegistrationChurn:
    """UNREGISTER/REGISTER mid-stream: survivors stay byte-identical."""

    CHURN_POINTS = (400, 800)

    def _drive_with_churn(self, shared):
        engine = CEPREngine(shared_execution=shared)
        handles = {}
        for query in STOCK_VARIANTS:
            handle = engine.register_query(query)
            handles[handle.name] = handle
        events = list(StockWorkload(seed=29).events(1200))
        for index, event in enumerate(events):
            if index == self.CHURN_POINTS[0]:
                engine.unregister_query("surge_top3")
                engine.unregister_query("surge_renamed")
            if index == self.CHURN_POINTS[1]:
                # Fresh registration: same text, clean state, new entries.
                handle = engine.register_query(
                    STOCK_VARIANTS[1], name="surge_top3_v2"
                )
                handles[handle.name] = handle
            engine.push(event)
        engine.flush()
        return engine, handles

    def test_survivors_and_rejoiners_identical(self):
        _, shared_handles = self._drive_with_churn(True)
        _, indep_handles = self._drive_with_churn(False)
        assert shared_handles.keys() == indep_handles.keys()
        for name, shared_h in shared_handles.items():
            assert fingerprint(shared_h) == fingerprint(indep_handles[name]), name
            assert wire_lines(shared_h) == wire_lines(indep_handles[name]), name

    def test_unregister_releases_only_its_entries(self):
        engine, _ = self._drive_with_churn(True)
        shared = engine.shared
        assert shared is not None
        # Four queries still registered; their entries must remain claimed.
        assert shared.distinct_predicates > 0
        for name in ("surge_top3", "surge_renamed"):
            for fp, entry in list(shared._predicates.items()):
                assert name not in entry.owners, (name, fp)
            for key, entry in list(shared._prefixes.items()):
                assert name not in entry.owners, (name, key)


class TestCheckpointRestore:
    """The shared index is derived state: snapshots are interchangeable
    between shared and independent engines, and a restored shared engine
    continues byte-identically."""

    MIDPOINT = 700

    def _make_engine(self, shared):
        engine = CEPREngine(shared_execution=shared)
        handles = [engine.register_query(q) for q in STOCK_VARIANTS]
        return engine, handles

    def test_restore_continues_identically(self):
        events = list(StockWorkload(seed=51).events(1400))
        head, tail = events[: self.MIDPOINT], events[self.MIDPOINT :]

        # Reference: one uninterrupted independent run.
        ref_engine, reference = self._make_engine(False)
        for event in events:
            ref_engine.push(event)
        ref_engine.flush()

        # Shared run to the midpoint, then snapshot.
        source, source_handles = self._make_engine(True)
        for event in head:
            source.push(event)
        state = source.snapshot()
        head_fps = {h.name: fingerprint(h) for h in source_handles}

        # Restore the snapshot into a fresh *shared* and a fresh
        # *independent* engine; both finish the stream.
        finishers = []
        for shared in (True, False):
            engine, handles = self._make_engine(shared)
            engine.restore(state)
            for event in tail:
                engine.push(event)
            engine.flush()
            finishers.append(handles)

        for ref in reference:
            head_fp = head_fps[ref.name]
            assert head_fp == fingerprint(ref)[: len(head_fp)], ref.name
            for handles in finishers:
                resumed = next(h for h in handles if h.name == ref.name)
                assert (
                    head_fp + fingerprint(resumed) == fingerprint(ref)
                ), ref.name


class TestChurnRegression:
    """100 registered-then-unregistered queries leave nothing behind:
    no index entries, no stale per-query metric series."""

    def _variant(self, index):
        return f"""
        NAME churn_{index}
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND b.price > {index % 10}
        WITHIN 50 EVENTS
        PARTITION BY symbol
        RANK BY s.price DESC
        LIMIT 2
        EMIT ON WINDOW CLOSE
        """

    def test_full_churn_leaves_empty_index_and_registry(self):
        engine = CEPREngine()
        names = []
        for index in range(100):
            handle = engine.register_query(self._variant(index))
            names.append(handle.name)
        assert engine.shared is not None
        assert engine.shared.distinct_predicates > 0
        # 100 queries, 10 distinct `b.price > k` predicates: dedupe works.
        assert engine.shared.distinct_predicates <= 10

        # Interleave some traffic so the index is hot, then churn.
        for event in StockWorkload(seed=3).events(200):
            engine.push(event)
        registry = engine.metrics_registry()
        assert any(
            sample.labels.get("query") == "churn_99"
            for sample in registry.collect()
        )

        for name in names:
            engine.unregister_query(name)

        assert engine.shared.is_empty()
        stale = [
            sample
            for sample in engine.metrics_registry().collect()
            if sample.labels.get("query", "").startswith("churn_")
        ]
        assert stale == []

    def test_interleaved_churn_never_leaks(self):
        """Register/unregister interleaved with traffic, repeatedly."""
        engine = CEPREngine()
        events = iter(StockWorkload(seed=8).events(100_000))
        for round_index in range(10):
            handles = [
                engine.register_query(
                    self._variant(round_index * 10 + i),
                )
                for i in range(10)
            ]
            for _ in range(50):
                engine.push(next(events))
            for handle in handles:
                engine.unregister_query(handle.name)
            assert engine.shared is not None and engine.shared.is_empty(), (
                round_index
            )
