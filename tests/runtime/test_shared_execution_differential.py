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

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CEPREngine
from repro.engine.partitioner import Partitioner
from repro.events.event import Event
from repro.events.schema import AttributeSpec, EventSchema, SchemaRegistry
from repro.language.analysis import run_analysis
from repro.language.ast_nodes import (
    AttrRef,
    Binary,
    BinaryOp,
    EmitKind,
    EmitSpec,
    Literal,
    PatternElement,
    Query,
    WindowKind,
    WindowSpec,
)
from repro.language.errors import CEPRSemanticError
from repro.language.parser import parse_query
from repro.language.printer import format_expr, format_query
from repro.language.semantics import analyze
from repro.runtime import engine as engine_module
from repro.runtime import query as query_module
from repro.runtime.serialize import emission_to_line
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload
from tests.property.test_property_language import queries
from tests.runtime.fleet import local_fleet


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
            shared_h.pipeline.metrics.events_routed == together_h.pipeline.metrics.events_routed
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
        # variants must collapse onto common index entries and stage-0
        # gates, and actually save evaluations at runtime.
        assert counters["predicate_evals_saved"] > 0
        # All five pipelines gate on `b.price > 10`, the renamed one too.
        gate_keys = [q.automaton.stages[0].gate_key for q in engine._router.queries()]
        assert len(gate_keys) == 5 and len(set(gate_keys)) == 1

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

    def test_gate_predicates_that_read_more_than_the_event(self):
        """Stage-0 predicates without a fingerprint (``duration()``,
        ``count(a)``) have no event-level check: the shared stage gate
        evaluates them in an empty context, as the matcher does."""
        queries = [
            "NAME d PATTERN SEQ(A a) WHERE duration() < 50 WITHIN 5 EVENTS",
            "NAME dx PATTERN SEQ(A a) WHERE duration() < 50 AND a.x > 3 "
            "WITHIN 5 EVENTS",
            "NAME k PATTERN SEQ(A a+, B b) WHERE count(a) < 3 AND a.x > 2 "
            "WITHIN 6 EVENTS RANK BY b.x DESC LIMIT 2",
        ]

        def make():
            return [
                Event("AB"[i % 3 == 2], float(i), x=i % 7) for i in range(90)
            ]

        engine, handles = assert_equivalent(queries, make)
        assert engine.shared_stats()["events_gated"] > 0
        assert all(h.results() for h in handles)

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
        # Four queries still registered; their gate keys must remain
        # claimed, and the departed ones' released: the refcounts are
        # exactly what the remaining pipelines claim, and every wake list
        # is led by a remaining pipeline.
        assert shared.refcounts()
        remaining = engine._router.queries()
        assert {q.name for q in remaining}.isdisjoint({"surge_top3", "surge_renamed"})
        assert shared.refcounts() == shared.claims(remaining)
        gates = engine._router._gates
        assert gates.keys() == shared.refcounts().keys()
        assert all(gate.leader in remaining for gate in gates.values())


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
        # 100 queries, 10 distinct `b.price > k` gates: dedupe works.
        assert 0 < len(engine.shared.refcounts()) <= 10
        assert engine._router._gates.keys() == engine.shared.refcounts().keys()

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
        assert not engine._router._gates
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


# -- query groups ---------------------------------------------------------------

# The four alert templates of the multi-query benchmark row: a program that
# varies only NAME and LIMIT over them runs as one pipeline per distinct
# (template, threshold) pattern, each member emitting the first k rows of
# its group's top-K.  The wire output must not move.
GROUP_TEMPLATES = (
    "PATTERN SEQ(Buy b, Sell s) "
    "WHERE b.volume > {k} AND b.symbol == s.symbol AND s.price > b.price "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY s.price - b.price DESC {limit} EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(Sell a, Buy c) "
    "WHERE a.volume > {k} AND a.symbol == c.symbol AND c.price < a.price "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY a.price - c.price DESC {limit} EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(Buy b, Buy c) "
    "WHERE b.volume > {k} AND c.volume > {k} AND b.symbol == c.symbol "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY c.price DESC {limit} EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(Sell a, Sell d) "
    "WHERE a.volume > {k} AND d.volume > a.volume AND a.symbol == d.symbol "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY d.volume DESC {limit} EMIT ON WINDOW CLOSE",
)
GROUP_THRESHOLDS = (700, 900)


def group_text(template, threshold, limit):
    clause = "" if limit is None else f"LIMIT {limit}"
    return GROUP_TEMPLATES[template].format(k=GROUP_THRESHOLDS[threshold], limit=clause)


#: (template, threshold, LIMIT) per member; the test adds an exact twin
#: of the first member and a LIMIT-less copy of its pattern.
group_members = st.lists(
    st.tuples(
        st.integers(0, len(GROUP_TEMPLATES) - 1),
        st.integers(0, len(GROUP_THRESHOLDS) - 1),
        st.sampled_from((1, 2, 3, 4)),
    ),
    min_size=3,
    max_size=9,
)


def group_program(members):
    program = {}
    for index, (template, threshold, limit) in enumerate(members):
        program[f"m{index}"] = group_text(template, threshold, limit)
    template, threshold, limit = members[0]
    program["twin"] = group_text(template, threshold, limit)
    program["unlimited"] = group_text(template, threshold, None)
    return program


#: The ledger's ``multi_query_64`` program: the four templates at four
#: volume thresholds, LIMIT 1..3 — 64 queries in 16 groups.
ALERT_THRESHOLDS = (975, 985, 990, 995)


def alert_program():
    program = {}
    for i in range(64):
        template = GROUP_TEMPLATES[i % len(GROUP_TEMPLATES)]
        k = ALERT_THRESHOLDS[(i // len(GROUP_TEMPLATES)) % len(ALERT_THRESHOLDS)]
        program[f"alert{i:02d}"] = template.format(k=k, limit=f"LIMIT {1 + i % 3}")
    return program


def group_events(seed, count=480, volume=max(GROUP_THRESHOLDS) + 50):
    """``count`` stock events, then a burst in which every template
    matches at every threshold below ``volume``: whatever members are
    drawn, the program emits."""
    events = list(StockWorkload(seed=seed, rate=10.0).events(count))
    burst = (  # SEQ(Buy, Buy), SEQ(Buy, Sell), SEQ(Sell, Sell), SEQ(Sell, Buy)
        ("Buy", 10.0, volume),
        ("Buy", 10.0, volume),
        ("Sell", 11.0, volume),
        ("Sell", 12.0, volume + 10),
        ("Buy", 9.0, volume),
    )
    start = events[-1].timestamp if events else 0.0
    for offset, (kind, price, size) in enumerate(burst, 1):
        events.append(
            Event(kind, start + 0.01 * offset, symbol="BURST", price=price, volume=size)
        )
    return events


def copies(events):
    return [Event(e.event_type, e.timestamp, **e.payload) for e in events]


def emission_row(emission):
    return (
        emission.kind.value,
        emission.at_seq,
        emission.at_ts,
        emission.epoch,
        emission.revision,
    )


class GroupRun:
    """One engine over a program, recording what every call returned."""

    def __init__(self, program, shared, **kwargs):
        self.engine = CEPREngine(shared_execution=shared, **kwargs)
        self.program = dict(program)
        self.calls: list[list[tuple[str, str]]] = []
        for name, text in program.items():
            self.engine.register_query(text, name=name)

    def record(self, emissions):
        self.calls.append(
            [(e.ranking[0].query_name, emission_to_line(e)) for e in emissions]
        )

    def push(self, event):
        self.record(self.engine.push(event))

    def advance(self, timestamp):
        self.record(self.engine.advance_time(timestamp))

    def flush(self):
        self.record(self.engine.flush())

    def views(self):
        """Per query: wire lines and bookkeeping rows, in emission order."""
        return {
            handle.name: (
                [emission_to_line(e) for e in handle.results()],
                [emission_row(e) for e in handle.results()],
            )
            for handle in self.engine.queries()
        }


def drive_pair(program, events, heartbeat_every=None, hooks=None, **kwargs):
    """The same calls against a grouped and an independent engine."""
    runs = [GroupRun(program, True, **kwargs), GroupRun(program, False, **kwargs)]
    hooks = hooks or {}
    for index, event in enumerate(events):
        for run in runs:
            if index in hooks:
                hooks[index](run)
            run.push(Event(event.event_type, event.timestamp, **event.payload))
            if heartbeat_every and index % heartbeat_every == heartbeat_every - 1:
                watermark = event.timestamp + 0.05
                if index + 1 < len(events):
                    watermark = min(watermark, events[index + 1].timestamp)
                run.advance(watermark)
    for run in runs:
        run.flush()
    return runs


def assert_same_output(grouped, independent):
    assert grouped.calls == independent.calls
    assert grouped.views() == independent.views()


class TestQueryGroups:
    """Queries equal but for NAME and LIMIT share one pipeline; every
    member's emissions, their bookkeeping and the order ``push()``
    returns them in equal ``shared_execution=False``."""

    @given(
        members=group_members,
        seed=st.integers(0, 50),
        beats=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=12, deadline=None)
    def test_limit_mixes_match_independent(self, members, seed, beats, data):
        """Members also leave mid-stream, in a drawn order at drawn
        offsets: the first member and the widest (the LIMIT-less one)
        always, and any other members but one."""
        program = group_program(members)
        events = group_events(seed)
        others = [name for name in program if name not in ("m0", "unlimited")]
        chosen = data.draw(
            st.lists(st.sampled_from(others), unique=True, max_size=len(others) - 1)
        )
        leaving = data.draw(st.permutations(["m0", "unlimited", *chosen]))
        offsets = sorted(
            data.draw(
                st.lists(
                    st.integers(1, len(events) - 1),
                    min_size=len(leaving),
                    max_size=len(leaving),
                )
            )
        )
        schedule: dict[int, list[str]] = {}
        for offset, name in zip(offsets, leaving):
            schedule.setdefault(offset, []).append(name)

        def leave(names):
            def hook(run):
                for name in names:
                    run.engine.unregister_query(name)

            return hook

        hooks = {offset: leave(names) for offset, names in schedule.items()}
        grouped, independent = drive_pair(
            program, events, 37 if beats else None, hooks=hooks
        )
        assert_same_output(grouped, independent)
        assert any(call for call in independent.calls), "a program that emits"

    @given(
        members=group_members,
        seed=st.integers(0, 50),
        offset=st.integers(1, 470),
        grouped_first=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_checkpoint_restore_both_directions(
        self, members, seed, offset, grouped_first
    ):
        """Snapshot a grouped (independent) engine at a random offset,
        restore into a fresh independent (grouped) one and finish the
        stream: the joined output equals one uninterrupted run."""
        program = group_program(members)
        events = group_events(seed)
        reference = GroupRun(program, False)
        for event in copies(events):
            reference.push(event)
        reference.flush()

        source = GroupRun(program, grouped_first)
        for event in copies(events[:offset]):
            source.push(event)
        state = source.engine.snapshot()
        target = GroupRun(program, not grouped_first)
        target.engine.restore(state)
        target.calls = list(source.calls)
        for event in copies(events[offset:]):
            target.push(event)
        target.flush()
        assert target.calls == reference.calls
        head = source.views()
        joined = {
            name: (head[name][0] + lines, head[name][1] + rows)
            for name, (lines, rows) in target.views().items()
        }
        assert joined == reference.views()

    def test_exact_twins_and_unlimited_member(self):
        members = [(0, 0, 2), (1, 0, 1), (0, 0, 3), (0, 0, 1), (2, 1, 2), (3, 1, 3)]
        grouped, independent = drive_pair(group_program(members), group_events(4))
        assert_same_output(grouped, independent)

    def test_heartbeats(self):
        members = [(0, 0, 1), (0, 0, 3), (3, 0, 2), (3, 0, 1), (1, 1, 2)]
        grouped, independent = drive_pair(
            group_program(members), group_events(11), heartbeat_every=13
        )
        assert_same_output(grouped, independent)

    def test_query_registered_after_the_first_event_stays_private(self):
        members = [(0, 0, 1), (0, 0, 3), (2, 0, 2)]
        program = group_program(members)
        late = group_text(0, 0, 4)

        def register_late(run):
            run.engine.register_query(late, name="late")
            run.program["late"] = late

        grouped, independent = drive_pair(
            program, group_events(21), hooks={60: register_late}
        )
        assert_same_output(grouped, independent)
        engine = grouped.engine
        assert engine.query("late").matcher is not engine.query("m1").matcher

    def test_restore_splits_members_that_saw_different_streams(self):
        """A query registered late runs privately; restored into an engine
        where it registered with the others up front, it leaves their
        group again, or it would inherit runs from before it existed (the
        snapshot falls in the epoch it registered in)."""
        program = group_program([(0, 0, 1), (0, 0, 3), (2, 0, 2)])
        late = group_text(0, 0, 4)
        events = group_events(27)

        def run(shared, snapshot_at=None):
            reference = GroupRun(program, shared)
            for index, event in enumerate(copies(events)):
                if index == 90:
                    reference.engine.register_query(late, name="late")
                if index == snapshot_at:
                    return reference, reference.engine.snapshot()
                reference.push(event)
            reference.flush()
            return reference, None

        reference, _ = run(False)
        source, state = run(True, snapshot_at=95)
        target = GroupRun({**program, "late": late}, True)
        assert target.engine.query("late").matcher is target.engine.query("m0").matcher
        target.engine.restore(state)
        assert target.engine.query("late").matcher is not target.engine.query("m0").matcher
        target.calls = list(source.calls)
        for event in copies(events[95:]):
            target.push(event)
        target.flush()
        assert target.calls == reference.calls
        head = source.views()
        for name, (lines, rows) in target.views().items():
            assert head[name][0] + lines == reference.views()[name][0], name
            assert head[name][1] + rows == reference.views()[name][1], name

    def test_unregistering_the_k_member_mid_stream(self):
        """The group keeps its K after the member that set it leaves."""
        members = [(0, 0, 1), (0, 0, 4), (0, 0, 2), (1, 1, 3), (1, 1, 1)]
        program = group_program(members)
        hooks = {
            150: lambda run: run.engine.unregister_query("m1"),
            300: lambda run: run.engine.unregister_query("m3"),
        }
        grouped, independent = drive_pair(program, group_events(8), hooks=hooks)
        assert_same_output(grouped, independent)
        assert "m1" not in grouped.views()
        # m3 was its group's first: the others carry on, counters included.
        got, want = grouped.engine.stats_by_query(), independent.engine.stats_by_query()
        for name, row in got.items():
            for key in ("events_routed", "partition_skips", "emissions", "revisions"):
                assert row[key] == want[name][key], (name, key)

    def test_a_traced_lead_leaving_keeps_the_pipeline_traced(self):
        engine = CEPREngine(tracing=True)
        for name, limit in (("first", 1), ("second", 3)):
            engine.register_query(group_text(0, 0, limit), name=name)
        engine.unregister_query("first")
        survivor = engine.query("second")
        assert survivor.pipeline.members == [survivor]
        # The matcher names matches after the survivor, so a group of one
        # passes every emission through (no re-stamped copies).
        assert survivor.pipeline.name == "second"
        for event in group_events(3, 120):
            engine.push(event)
        counts = engine.tracer.counts_by_kind("second")
        assert counts["route"] == survivor.pipeline.metrics.events_routed
        assert counts["run_create"] > 0
        assert not engine.tracer.spans(query="first")

    def test_two_shard_fleet(self):
        members = [(0, 0, 1), (0, 0, 3), (1, 0, 2), (1, 0, 1), (3, 1, 2)]
        program = group_program(members)
        events = group_events(17)
        independent = GroupRun(program, False)
        for event in copies(events):
            independent.push(event)
        independent.flush()

        fleet = local_fleet(program, shards=2)
        received: dict[str, list[str]] = {name: [] for name in program}
        for name in program:
            fleet.subscribe(
                name, lambda e, lines=received[name]: lines.append(emission_to_line(e))
            )
        with fleet:
            fleet.submit_all(copies(events))
            fleet.flush()
        expected = {name: lines for name, (lines, _rows) in independent.views().items()}
        assert any(expected.values())
        assert received == expected

    def test_a_members_reused_analysis_equals_a_fresh_one(self):
        """A member takes its lead's analysis with the AST, NAME and LIMIT
        replaced; everything else must be what analysing it afresh gives."""
        registry = SchemaRegistry()
        engine = CEPREngine(registry=registry)
        program = alert_program()
        program["unlimited"] = program["alert00"].replace("LIMIT 1 ", "")
        for name, text in program.items():
            engine.register_query(text, name=name)

        def view(analyzed):
            return {
                "predicates": {
                    var: [format_expr(spec.expr) for spec in specs]
                    for var, specs in analyzed.predicates_at.items()
                },
                "completion": [format_expr(s.expr) for s in analyzed.completion_predicates],
                "rank_keys": [(format_expr(k.expr), k.direction) for k in analyzed.rank_keys],
                "variables": analyzed.variables,
                "negations": analyzed.negations,
                "window": analyzed.window,
                "strategy": analyzed.strategy,
                "partition_by": analyzed.partition_by,
                "emit": analyzed.emit,
                "relevant_types": analyzed.relevant_types,
                "limit": analyzed.limit,
                "name": analyzed.name,
                "ast": analyzed.ast,
            }

        members = 0
        for name, text in program.items():
            handle = engine.query(name)
            reused = handle.analyzed
            if handle.pipeline.members[0] is not handle:
                members += 1
                assert reused.predicates_at is handle.pipeline.analyzed.predicates_at
            assert view(reused) == view(analyze(parse_query(text), registry)), name
        assert members == len(program) - 16

    @pytest.mark.parametrize("earlier", [0, 3], ids=["second-query", "later"])
    def test_a_limit_0_member_raises_what_its_own_analysis_raises(self, earlier):
        """``earlier=0``: the member meets its lead on the path where only
        one group is open and its key was never computed."""
        engine = CEPREngine()
        engine.register_query(group_text(1, 0, 2), name="lead")
        for index in range(earlier):
            engine.register_query(group_text(index % 4, 1, 1), name=f"other{index}")
        text = group_text(1, 0, 0)
        with pytest.raises(CEPRSemanticError) as fresh:
            analyze(parse_query(text))
        with pytest.raises(CEPRSemanticError) as member:
            engine.register_query(text, name="zero")
        assert str(member.value) == str(fresh.value)
        assert "LIMIT 0" in str(member.value)
        assert [h.name for h in engine.query("lead").pipeline.members] == ["lead"]
        joined = engine.register_query(group_text(1, 0, 3), name="three")
        assert joined.pipeline is engine.query("lead").pipeline

    def test_a_member_checks_the_registry_as_it_is_now(self):
        """The registry may learn a schema between the lead and a member:
        the member raises what analysing it then raises."""
        registry = SchemaRegistry()
        engine = CEPREngine(registry=registry)
        engine.register_query(group_text(0, 0, 1), name="lead")
        registry.register(EventSchema("Sell", (AttributeSpec("price", "float"),)))
        text = group_text(0, 0, 2)
        with pytest.raises(CEPRSemanticError) as fresh:
            analyze(parse_query(text), registry)
        with pytest.raises(CEPRSemanticError) as member:
            engine.register_query(text, name="member")
        assert str(member.value) == str(fresh.value)
        assert "PARTITION BY attribute 'symbol'" in str(member.value)

    def test_the_64_alert_program_analyses_and_compiles_once_per_group(self):
        """Registration work is per group key (16), not per query (64): one
        analysis, one automaton, one set of run readers, one matcher and
        one pruner per group —
        a member with a wider LIMIT rebuilds only the ranker — and every
        emission stays byte-identical to independent execution."""
        program = alert_program()
        calls = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return mock.patch.object(module, name, wrapper)

        with (
            counting(engine_module, "analyze"),
            counting(query_module, "compile_automaton"),
            counting(query_module, "run_readers"),
            counting(query_module, "PatternMatcher"),
            counting(query_module, "ScoreBoundPruner"),
            counting(query_module, "Ranker"),
        ):
            grouped = GroupRun(program, True)
        pipelines = grouped.engine.pipelines()
        assert len(pipelines) == 16

        def widenings(members):
            """How often a member's LIMIT raised its group's K."""
            count, widest = 0, members[0].analyzed.limit
            for member in members[1:]:
                if member.analyzed.limit > widest:
                    count, widest = count + 1, member.analyzed.limit
            return count

        assert calls == {
            "analyze": 16,
            "compile_automaton": 16,
            "run_readers": 16,
            "PatternMatcher": 16,
            "ScoreBoundPruner": 16,
            "Ranker": 16 + sum(widenings(p.members) for p in pipelines),
        }
        independent = GroupRun(program, False)
        for event in group_events(5, volume=1050):
            for run in (grouped, independent):
                run.push(Event(event.event_type, event.timestamp, **event.payload))
        for run in (grouped, independent):
            run.flush()
        assert_same_output(grouped, independent)
        assert sum(len(lines) for lines, _rows in grouped.views().values()) > 64

    def test_the_64_alert_program_reads_each_partition_key_once_per_event(self):
        """The router, the residual checks and the matchers share one read
        of each event's key per partitioning (the program has one)."""
        grouped = GroupRun(alert_program(), True)
        events = [
            Event(e.event_type, e.timestamp, **e.payload)
            for e in group_events(5, volume=1050)
        ]
        reads = Counter()
        key_of = Partitioner.key_of

        def counting_key_of(partitioner, event):
            reads[partitioner.attributes, id(event)] += 1
            return key_of(partitioner, event)

        with mock.patch.object(Partitioner, "key_of", counting_key_of):
            for event in events:
                grouped.push(event)
        assert max(reads.values()) == 1
        assert len(reads) == len(events)
        grouped.flush()
        assert any(lines for lines, _rows in grouped.views().values())

    def test_the_64_alert_program_runs_no_static_analysis_at_registration(self):
        """Registration does not pay for the analyzer's findings: a
        handle computes its ``diagnostics`` when they are read, lead or
        member, equal to a fresh analysis of its own query."""
        registry = StockWorkload().registry()
        with mock.patch.object(
            query_module, "run_analysis", wraps=query_module.run_analysis
        ) as analysis:
            grouped = GroupRun(alert_program(), True, registry=registry)
        assert analysis.call_count == 0
        handles = grouped.engine.queries()
        assert any(handle.pipeline.members[0] is not handle for handle in handles)
        for handle in handles:
            assert handle.diagnostics == run_analysis(handle.analyzed, registry)


#: literals that compare equal across types (``1 == 1.0 == True``,
#: ``0.0 == -0.0``) but print differently
TWIN_LITERALS = [1, 1.0, True, 0, 0.0, -0.0, False, "1"]


class TestGroupKey:
    """``group_key`` is read off the AST with no print, and agrees with
    the canonical text it replaced: two queries share a key iff their
    texts without ``NAME``/``LIMIT`` are equal."""

    @staticmethod
    def canonical(query):
        return format_query(replace(query, name=None, limit=None))

    def assert_agrees(self, first, second):
        same_key = query_module.group_key(first) == query_module.group_key(second)
        assert same_key is (self.canonical(first) == self.canonical(second))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_keys_agree_with_canonical_texts(self, data):
        first = parse_query(format_query(data.draw(queries())))
        second = data.draw(
            st.one_of(
                queries(),
                st.builds(
                    lambda name, limit: replace(first, name=name, limit=limit),
                    st.one_of(st.none(), st.just("other")),
                    st.one_of(st.none(), st.integers(1, 9)),
                ),
            )
        )
        self.assert_agrees(first, parse_query(format_query(second)))

    @given(st.sampled_from(TWIN_LITERALS), st.sampled_from(TWIN_LITERALS))
    def test_equal_literals_of_other_types_never_collide(self, left, right):
        def query(value):
            where = Binary(BinaryOp.EQ, AttrRef("b", "price"), Literal(value))
            return Query(
                pattern=(PatternElement("Buy", "b"),),
                where=where,
                window=WindowSpec(WindowKind.COUNT, 10.0),
                emit=EmitSpec(EmitKind.ON_WINDOW_CLOSE),
            )

        self.assert_agrees(query(left), query(right))
        assert (
            query_module.group_key(query(left)) == query_module.group_key(query(right))
        ) is (type(left) is type(right) and repr(left) == repr(right))


class TestGroupTraces:
    """A member's spans are recorded under its own name: ROUTE and EMIT
    spans are its own, run-lifecycle, MATCH and RANK spans its group's —
    those its K member records running alone — so ``engine.trace()`` of a
    member that is not its group's first is as complete as independently."""

    MEMBERS = [(0, 0, 2), (0, 0, 3), (3, 0, 1), (3, 0, 1), (1, 1, 2)]
    OWN = ("route", "emit")

    def test_member_traces_match_independent(self):
        program = group_program(self.MEMBERS)
        # The first member leaves mid-stream: the others keep recording.
        hooks = {120: lambda run: run.engine.unregister_query("m0")}
        grouped, independent = drive_pair(
            program, group_events(11, 240), hooks=hooks, tracing=True
        )
        assert_same_output(grouped, independent)
        engine, reference = grouped.engine, independent.engine
        assert len(engine._router) < len(engine.queries())
        assert engine.tracer.recorded == reference.tracer.recorded
        assert engine.tracer.dropped == 0

        def traces(engine, name):
            return [engine.trace(e).to_dict() for e in engine.query(name).results()]

        followers = competitions = 0
        for handle in engine.queries():
            followers += handle.pipeline.members[0] is not handle
            mine, own = traces(engine, handle.name), traces(reference, handle.name)
            k_runs = traces(reference, handle.pipeline.widest_member().name)
            assert len(mine) == len(own) == len(k_runs)
            if handle.analyzed.limit == handle.pipeline.ranker.limit:
                assert mine == own, handle.name
            for got, want, k_run in zip(mine, own, k_runs):
                assert set(got["span_counts"]) == set(k_run["span_counts"])
                for kind, count in got["span_counts"].items():
                    source = want if kind in self.OWN else k_run
                    assert count == source["span_counts"][kind], (handle.name, kind)
                rows = [m["competition"] for m in got["matches"]]
                assert rows == [
                    m["competition"] for m in k_run["matches"][: len(rows)]
                ], handle.name
                competitions += sum(map(bool, rows))
        assert followers and competitions


class TestGroupCounterContract:
    """Which counters a group member owns (docs/SHARED_EXECUTION.md,
    "Query groups"): routing and delivery counters are the member's own
    and equal ``shared_execution=False``; matcher-side counters are the
    group's, equal to those of its K member run alone."""

    MEMBERS = [(0, 0, 1), (0, 0, 3), (0, 0, 2), (3, 0, 1), (3, 0, 2), (1, 1, 2)]

    ROUTING = ("events_routed", "partition_skips")
    DELIVERY = ("emissions", "revisions")
    MATCHER = (
        "runs_created",
        "runs_pruned",
        "completions_skipped",
        "runs_dominated",
        "matches",
    )

    def _runs(self):
        program = group_program(self.MEMBERS)
        events = group_events(31)
        for event in events[::17]:
            del event.payload["symbol"]  # partition skips
        return drive_pair(program, events, heartbeat_every=50)

    def test_routing_and_delivery_are_the_members_own(self):
        grouped, independent = self._runs()
        got, want = grouped.engine.stats_by_query(), independent.engine.stats_by_query()
        for name, row in got.items():
            for key in self.ROUTING + self.DELIVERY:
                assert row[key] == want[name][key], (name, key)
            handle, twin = grouped.engine.query(name), independent.engine.query(name)
            assert handle.matcher.stats.events_processed == twin.matcher.stats.events_processed
            assert handle.pipeline.metrics.latency.count == row["events_routed"]
            assert [emission_to_line(e) for e in handle.results()] == [
                emission_to_line(e) for e in twin.results()
            ]

    def test_matcher_side_counters_are_the_groups(self):
        grouped, independent = self._runs()
        engine = grouped.engine
        assert len(engine._router) < len(engine.queries())
        got, want = engine.stats_by_query(), independent.engine.stats_by_query()
        for handle in engine.queries():
            k_member = handle.pipeline.widest_member().name
            for key in self.MATCHER:
                assert got[handle.name][key] == want[k_member][key], (handle.name, key)
            assert (
                handle.matcher.stats.matches_completed
                == independent.engine.query(k_member).matcher.stats.matches_completed
            )

    def test_detection_indices(self):
        """Verbatim where a query is not grouped with a larger LIMIT (it is
        its group's K); otherwise the group's indices, in the same order."""
        grouped, independent = self._runs()
        engine = grouped.engine
        for handle in engine.queries():
            twin = independent.engine.query(handle.name)
            got = [m.detection_index for e in handle.results() for m in e.ranking]
            want = [m.detection_index for e in twin.results() for m in e.ranking]
            if handle.analyzed.limit == handle.pipeline.ranker.limit:
                assert fingerprint(handle) == fingerprint(twin), handle.name
            else:
                assert sorted(range(len(got)), key=got.__getitem__) == sorted(
                    range(len(want)), key=want.__getitem__
                ), handle.name
