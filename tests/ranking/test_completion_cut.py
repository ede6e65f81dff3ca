"""The completing-edge cut: where it acts, that it is exact, how it reads.

Once an epoch's top-k buffer is full, a run whose completion by the
current event would score strictly worse than the k-th retained key θ is
skipped — no bind predicate, no ``Match``, no scoring, no ranker insert
(``SKIP_TILL_ANY`` keeps the run either way).  The property suite
(``tests/property/test_property_ranking.py``) sweeps generated queries;
these cases pin the cut firing on every pattern shape it covers, the
conditions it refuses, checkpoints and sharding.
"""

import random

import pytest

from repro import CEPREngine, Event
from repro.baselines.match_then_rank import MatchThenRankQuery
from repro.events.schema import AttributeSpec, Domain, EventSchema, SchemaRegistry
from repro.events.time import SequenceAssigner
from repro.language.parser import parse_query
from repro.language.semantics import Reads, analyze, completion_cut
from repro.runtime.serialize import emission_to_line
from repro.runtime.sinks import CollectorSink
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import local_fleet

REGISTRY = SchemaRegistry(
    [
        EventSchema(
            event_type,
            (
                AttributeSpec("value", "int", Domain(0, 9)),
                AttributeSpec("g", "int"),
            ),
        )
        for event_type in "ABC"
    ]
)


#: ``value`` is a float with no declared domain: NaN is a legal value.
NAN_REGISTRY = SchemaRegistry(
    [EventSchema(t, (AttributeSpec("value", "float"),)) for t in "AB"]
)


def stream(count=600, seed=3):
    rng = random.Random(seed)
    return [
        Event(rng.choice("ABC"), float(i), value=rng.randint(0, 9), g=rng.randint(0, 2))
        for i in range(count)
    ]


def run(query, events, enable_pruning=True, registry=REGISTRY):
    engine = CEPREngine(registry=registry, enable_pruning=enable_pruning)
    handle = engine.register_query(query, name="q")
    engine.run(events)
    return [emission_to_line(e) for e in handle.results()], engine, handle


def match_then_rank(query, events):
    assigner = SequenceAssigner()
    for event in events:
        assigner.assign(event)
    baseline = MatchThenRankQuery(query, REGISTRY, name="q")
    relevant = baseline.analyzed.relevant_types
    baseline.run([e for e in events if e.event_type in relevant])
    return [emission_to_line(e) for e in baseline.emissions]


def query(pattern="SEQ(A a, B b)", window="12 EVENTS"):
    return f"""
        PATTERN {pattern}
        WHERE b.value != a.value
        WITHIN {window}
        USING SKIP_TILL_ANY
        PARTITION BY g
        RANK BY b.value - a.value DESC, a.value DESC
        LIMIT 2
        EMIT ON WINDOW CLOSE
    """


class TestExactWhereItFires:
    @pytest.mark.parametrize(
        "pattern",
        [
            "SEQ(A a, B b)",
            "SEQ(A a, C c, B b)",
            "SEQ(A a, C cs+, B b)",
            "SEQ(A a, C cs+, NOT A x, B b)",
        ],
    )
    @pytest.mark.parametrize("window", ["12 EVENTS", "12 SECONDS"])
    def test_skips_and_emits_the_same_lines(self, pattern, window):
        text = query(pattern, window)
        cut, engine, handle = run(text, stream())
        plain, _, reference = run(text, stream(), enable_pruning=False)
        skipped = handle.matcher.stats.completions_skipped
        assert skipped > 0
        assert engine.stats_by_query()["q"]["completions_skipped"] == skipped
        assert cut == plain == match_then_rank(text, stream())
        completed = handle.matcher.stats.matches_completed
        assert completed < reference.matcher.stats.matches_completed
        assert reference.matcher.stats.completions_skipped == 0

    def test_an_open_kleene_of_the_final_type_is_not_cut(self):
        """``SEQ(A a, B bs+, B b)``: the event that would complete a run by
        proceeding also extends it by a take, so the run is not skippable."""
        text = query("SEQ(A a, B bs+, B b)", "30 EVENTS").replace("LIMIT 2", "LIMIT 1")
        cut, _, handle = run(text, stream())
        plain, _, _ = run(text, stream(), enable_pruning=False)
        assert cut == plain == match_then_rank(text, stream())
        assert handle.pipeline.cut_status == "active"
        assert handle.matcher.stats.completions_skipped == 0

    def test_a_tie_with_a_better_secondary_key_is_kept(self):
        """Strictly worse only: a completion tying θ's primary may still
        win on the secondary key, so it must be built and ranked."""
        steps = [("A", 0, 0), ("B", 5, 0), ("A", 2, 1), ("B", 7, 1)]
        events = [Event(t, float(i), value=v, g=g) for i, (t, v, g) in enumerate(steps)]
        text = query().replace("LIMIT 2", "LIMIT 1").replace("12 EVENTS", "100 EVENTS")
        cut, _, _ = run(text, events)
        plain, _, _ = run(text, [Event(e.event_type, e.timestamp, **e.payload)
                                 for e in events], enable_pruning=False)
        assert cut == plain
        assert '"value": 2' in cut[0]  # (A 2, B 7) ties (A 0, B 5) and wins

    @pytest.mark.parametrize("lenient", [False, True])
    def test_a_nan_key_is_a_scoring_error_and_theta_keeps_cutting(self, lenient):
        """A NaN candidate is never skipped (``NaN > θ`` is false): it is
        completed and the scorer reports it, raised or counted.  It never
        enters the buffer, so θ stays a bound and the cut keeps firing."""
        nan = float("nan")
        values = [("A", 0.0), ("B", 5.0), ("A", nan), ("B", 3.0), ("A", 10.0),
                  ("B", 4.0), ("B", 9.0), ("A", 1.0), ("B", 2.0)]

        def events():
            return [Event(t, float(i), value=v) for i, (t, v) in enumerate(values)]

        text = """
            PATTERN SEQ(A a, B b) WITHIN 100 EVENTS USING SKIP_TILL_ANY
            RANK BY b.value - a.value DESC LIMIT 2 EMIT ON WINDOW CLOSE
        """
        cut = outcome(text, events(), True, lenient, registry=NAN_REGISTRY)
        plain = outcome(text, events(), False, lenient, registry=NAN_REGISTRY)
        assert cut == plain
        if not lenient:
            assert cut[:2] == ("EvaluationError", "RANK BY expressions must not produce NaN")
            return
        assert cut[1] == 4  # (A nan, B) for each of the four later Bs
        engine = CEPREngine(registry=NAN_REGISTRY, lenient_errors=True)
        handle = engine.register_query(text, name="q")
        engine.run(events())
        assert handle.matcher.stats.completions_skipped > 0

    def test_stock_query_builds_fewer_matches(self):
        workload = StockWorkload(seed=7)
        events = list(workload.events(3000))
        text = """
            PATTERN SEQ(Buy b, Sell s)
            WHERE b.symbol == s.symbol AND s.price > b.price
            WITHIN 60 EVENTS
            USING SKIP_TILL_ANY
            PARTITION BY symbol
            RANK BY s.price - b.price DESC
            LIMIT 3
            EMIT ON WINDOW CLOSE
        """
        registry = workload.registry()
        cut, _, handle = run(text, events, registry=registry)
        fresh = [Event(e.event_type, e.timestamp, **e.payload) for e in events]
        plain, _, reference = run(text, fresh, enable_pruning=False, registry=registry)
        assert cut == plain
        stats, plain_stats = handle.matcher.stats, reference.matcher.stats
        assert stats.completions_skipped > 0
        assert stats.matches_completed < plain_stats.matches_completed
        # a skip leaves the run in place: run bookkeeping is unchanged
        assert stats.runs_created == plain_stats.runs_created
        assert stats.peak_live_runs == plain_stats.peak_live_runs


class TestTrailingKleene:
    """The prefix completions of a trailing Kleene stage are cut from the
    run's registers; the extension itself is still built and kept."""

    @pytest.mark.parametrize("pattern", ["SEQ(A a, B bs+)", "SEQ(A a, C c, B bs+)"])
    @pytest.mark.parametrize(
        "keys, pruned",
        [
            ("max(bs.value) DESC", False),
            ("min(bs.value) ASC, first(bs.value) DESC", False),
            ("last(bs.value) - a.value DESC", True),
        ],
    )
    def test_skips_and_emits_the_same_lines(self, pattern, keys, pruned):
        text = kleene_query(keys).replace("SEQ(A a, B bs+)", pattern)
        cut, _, handle = run(text, stream())
        plain, _, reference = run(text, stream(), enable_pruning=False)
        assert cut == plain == match_then_rank(text, stream())
        stats, plain_stats = handle.matcher.stats, reference.matcher.stats
        assert handle.pipeline.cut_status == "active"
        assert handle.pipeline.dominance_status != "active"
        assert stats.completions_skipped > 0
        assert (stats.runs_pruned > 0) is pruned
        if not pruned:  # every run is as without the cut, and each skip is a match
            assert stats.runs_extended == plain_stats.runs_extended
            assert stats.matches_completed + stats.completions_skipped == (
                plain_stats.matches_completed
            )


def outcome(text, events, enable_pruning, lenient, registry=REGISTRY, extra=()):
    """What a run shows: its lines and error counters, or what it raised."""
    engine = CEPREngine(
        registry=registry, enable_pruning=enable_pruning, lenient_errors=lenient
    )
    for index, other in enumerate(extra):
        engine.register_query(other, name=f"level{index}")
    handle = engine.register_query(text, name="q")
    try:
        engine.run(events)
    except Exception as exc:  # noqa: BLE001 - the raise itself is compared
        return type(exc).__name__, str(exc), engine.metrics.events_pushed
    return (
        [emission_to_line(e) for e in handle.results()],
        handle.ranker.scoring_errors,
        [q.matcher.stats.evaluation_errors for q in engine.queries()],
        [q.yield_errors for q in engine.queries()],
    )


class TestNoHiddenErrors:
    """A skip never hides work that could raise or count an error: output,
    error counters and the exception itself match ``enable_pruning=False``."""

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("secondary", ["a.value / b.value ASC", "sqrt(a.value - 5) DESC"])
    def test_a_secondary_key_that_raises_disarms_the_cut(self, secondary, lenient):
        text = query().replace("a.value DESC\n", f"{secondary}\n")
        assert status(text).startswith("secondary key shape:")
        cut = outcome(text, stream(), True, lenient)
        plain = outcome(text, stream(), False, lenient)
        assert cut == plain
        if lenient:
            assert cut[1] > 0  # the key raised on some completion: counted
        else:
            assert cut[0] == "EvaluationError"

    @pytest.mark.parametrize("lenient", [False, True])
    def test_a_secondary_key_that_may_be_nan_disarms_the_cut(self, lenient):
        """A skipped match's secondary key is never evaluated, so one that
        may be NaN — a float without a declared domain — would hide its
        scoring error."""
        values = [("A", 0.0), ("B", 5.0), ("A", 1.0), ("B", 9.0), ("A", float("nan")),
                  ("B", 1.0)]

        def events():
            return [Event(t, float(i), value=v) for i, (t, v) in enumerate(values)]

        text = """
            PATTERN SEQ(A a, B b) WITHIN 100 EVENTS USING SKIP_TILL_ANY
            RANK BY b.value DESC, a.value DESC LIMIT 1 EMIT ON WINDOW CLOSE
        """
        assert status(text, NAN_REGISTRY) == "secondary key shape: a.value may be NaN"
        cut = outcome(text, events(), True, lenient, registry=NAN_REGISTRY)
        assert cut == outcome(text, events(), False, lenient, registry=NAN_REGISTRY)
        if lenient:
            assert cut[1] == 1  # (A nan, B 1) is a scoring error, not a skip
        domained = SchemaRegistry(
            [EventSchema(t, (AttributeSpec("value", "float", Domain(0, 9)),)) for t in "AB"]
        )
        assert status(text, domained) == "active"
        assert status(text.replace("a.value DESC", "a.value + 1 DESC"), domained) == (
            "secondary key shape: a.value + 1 may be NaN"
        )

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize(
        "assignments",
        ["g = c.g", "value = c.value + 0.5, g = c.g", 'value = "x", g = c.g'],
        ids=["missing", "float-for-int", "str-for-int"],
    )
    def test_derived_events_are_held_to_the_registry(self, assignments, lenient):
        """A YIELD into a declared type is validated like ingest, so the
        cut never reads a derived attribute the registry did not check."""
        level1 = f"PATTERN SEQ(C c) YIELD B({assignments})"
        text = query()
        cut = outcome(text, stream(), True, lenient, extra=[level1])
        plain = outcome(text, stream(), False, lenient, extra=[level1])
        assert cut == plain
        if lenient:
            assert cut[3][0] > 0  # every invalid derived event is a YIELD error
        else:
            assert cut[0] == "SchemaError"

    def test_valid_derived_events_still_flow(self):
        level1 = "PATTERN SEQ(C c) YIELD B(value = c.value, g = c.g)"
        cut = outcome(query(), stream(), True, False, extra=[level1])
        plain = outcome(query(), stream(), False, False, extra=[level1])
        assert cut == plain
        assert cut[3] == [0, 0]


def status(text, registry=REGISTRY):
    analyzed = analyze(parse_query(text), registry)
    return completion_cut(analyzed, Reads(analyzed, registry))[1]


def kleene_query(keys):
    """:func:`query` with a trailing Kleene stage ranked by ``keys``."""
    return query("SEQ(A a, B bs+)").replace("WHERE b.value != a.value", "").replace(
        "b.value - a.value DESC, a.value DESC", keys
    )


FLOAT_REGISTRY = SchemaRegistry(
    [
        EventSchema(t, (AttributeSpec("value", "float", Domain(0, 9)), AttributeSpec("g", "int")))
        for t in "ABC"
    ]
)


class TestConditions:
    @pytest.mark.parametrize(
        "old, new, reason",
        [
            ("EMIT ON WINDOW CLOSE", "EMIT EAGER", "scope:"),
            ("LIMIT 2", "", "scope:"),
            ("USING SKIP_TILL_ANY", "USING SKIP_TILL_NEXT", "strategy:"),
            ("USING SKIP_TILL_ANY", "", "strategy:"),
            ("SEQ(A a, B b)", "SEQ(A a, B b, NOT C n)", "final stage:"),
            ("b.value - a.value DESC,", "a.value DESC,", None),
            ("b.value - a.value", "b.value / a.value", "key shape: b.value / a.value"),
            (", a.value DESC", ", a.value / b.value DESC", "secondary key shape: a.value / b.value"),
            (", a.value DESC", ", sqrt(a.value) ASC", "secondary key shape: sqrt(a.value)"),
            (", a.value DESC", ", b.value == a.value DESC", None),
            ("b.value != a.value", "b.value > duration()", "edge predicate shape:"),
            ("b.value != a.value", "b.g % 2 == 0", "edge predicate shape: b.g % 2"),
        ],
    )
    def test_first_failing_condition_is_named(self, old, new, reason):
        text = query().replace(old, new)
        verdict = status(text)
        if reason is None:
            assert verdict == "active"
        else:
            assert verdict.startswith(reason), verdict

    def test_needs_a_stage_before_the_final_one_and_no_trailing_negation(self):
        kleene = kleene_query("count(bs) DESC, a.value DESC")
        assert status(kleene) == "active"
        assert status(kleene.replace("B bs+)", "B bs+, NOT C n)")).startswith(
            "final stage: a trailing negation"
        )
        for pattern, key in (("A a", "a.value"), ("B bs+", "count(bs)")):
            text = (f"PATTERN SEQ({pattern}) WITHIN 5 EVENTS USING SKIP_TILL_ANY "
                    f"RANK BY {key} LIMIT 1")
            assert status(text).startswith("final stage:")

    @pytest.mark.parametrize("func", ["sum", "avg"])
    def test_sum_and_avg_primaries_are_not_compiled(self, func):
        """The registers serve count, max, min, first and last; a float
        running total need not be what ``sum()`` computes."""
        for text in (
            kleene_query(f"{func}(bs.value) DESC"),
            query("SEQ(A a, C cs+, B b)").replace(
                "b.value - a.value DESC", f"b.value - {func}(cs.value) DESC"
            ),
        ):
            verdict = status(text, registry=FLOAT_REGISTRY)
            assert verdict.startswith("key shape:") and f"{func}(" in verdict, verdict

    def test_register_aggregates_are_compiled(self):
        for text in (
            kleene_query("max(bs.value) ASC, count(bs) DESC"),
            kleene_query("min(bs.value) - a.value DESC, last(bs.value) DESC"),
            query("SEQ(A a, C cs+, B b)").replace(
                "b.value - a.value DESC", "b.value - max(cs.value) DESC"
            ),
        ):
            assert status(text) == "active", text
            assert status(text, registry=FLOAT_REGISTRY) == "active", text

    def test_every_read_attribute_must_be_declared(self):
        assert status(query(), registry=None).startswith("undeclared attribute: b.value")
        optional = SchemaRegistry(
            [
                EventSchema(t, (AttributeSpec("value", "int", required=False),
                                AttributeSpec("g", "int")))
                for t in "AB"
            ]
        )
        assert status(query(), registry=optional).startswith("undeclared attribute")

    def test_strings_only_under_equality(self):
        registry = SchemaRegistry(
            [
                EventSchema(t, (AttributeSpec("value", "int"), AttributeSpec("g", "str")))
                for t in "AB"
            ]
        )
        equal = query().replace("b.value != a.value", "b.g == a.g")
        ordered = query().replace("b.value != a.value", "b.g > a.g")
        assert status(equal, registry) == "active"
        assert status(ordered, registry).startswith("edge predicate shape: b.g > a.g")


class TestExplain:
    def explain(self, text, **engine_kwargs):
        engine = CEPREngine(registry=REGISTRY, **engine_kwargs)
        return engine.register_query(text).explain()

    def test_active(self):
        text = self.explain(query())
        assert "completing-edge cut: active" in text
        assert "score-bound pruning: active" in text
        assert "needs schema domains" not in text

    def test_names_the_blocker(self):
        text = self.explain(query().replace("SKIP_TILL_ANY", "SKIP_TILL_NEXT"))
        assert "completing-edge cut: inactive (strategy:" in text

    def test_engine_switch(self):
        text = self.explain(query(), enable_pruning=False)
        assert "completing-edge cut: inactive (disabled by engine configuration)" in text


class TestCheckpoint:
    """θ is derived from the restored ``EpochTopK``: a snapshot taken
    mid-epoch after θ exists resumes with the same skips."""

    text = query("SEQ(A a, B b)", "40 EVENTS")

    def test_restore_mid_epoch_resumes_identically(self):
        expected, _, reference = run(self.text, stream())
        total = reference.matcher.stats.completions_skipped

        engine = CEPREngine(registry=REGISTRY)
        handle = engine.register_query(self.text, name="q")
        events = stream()
        for index, event in enumerate(events):
            engine.push(event)
            epoch = event.seq // 40
            if (
                10 < event.seq % 40 < 30
                and handle.ranker.kth_bound_for_epoch(epoch)
                and handle.matcher.stats.completions_skipped
            ):
                break
        skipped_before = handle.matcher.stats.completions_skipped
        assert 0 < skipped_before < total
        state = engine.snapshot()
        before = [emission_to_line(e) for e in handle.results()]

        for drop_counter in (False, True):
            resumed = CEPREngine(registry=REGISTRY)
            resumed_handle = resumed.register_query(self.text, name="q")
            snapshot = {**state, "queries": {"q": dict(state["queries"]["q"])}}
            matcher_state = dict(snapshot["queries"]["q"]["matcher"])
            if drop_counter:  # as a build without the counter wrote it
                del matcher_state["completions_skipped"]
            snapshot["queries"]["q"]["matcher"] = matcher_state
            resumed.restore(snapshot)
            resumed.run(stream()[index + 1 :])
            after = [emission_to_line(e) for e in resumed_handle.results()]
            assert before + after == expected
            skipped = resumed.stats_by_query()["q"]["completions_skipped"]
            assert skipped == total - (skipped_before if drop_counter else 0)


    def test_theta_after_a_nan_key_resumes_identically(self):
        """The NaN-keyed match never entered its epoch's buffer, so the
        snapshot holds an ordinary one and the restored run cuts exactly as
        the uninterrupted one does."""
        values = [("A", 0.0), ("B", float("nan")), ("B", 5.0),
                  ("B", 1.0), ("A", 2.0), ("B", 3.0), ("B", 0.5)]

        def events():
            return [Event(t, float(i), value=v) for i, (t, v) in enumerate(values)]

        text = """
            PATTERN SEQ(A a, B b) WITHIN 100 EVENTS USING SKIP_TILL_ANY
            RANK BY b.value - a.value DESC LIMIT 1 EMIT ON WINDOW CLOSE
        """

        def counters(engine):
            stats = engine.stats_by_query()["q"]
            errors = engine.query("q").ranker.scoring_errors
            return stats["completions_skipped"], stats["matches"], errors

        def start():
            engine = CEPREngine(registry=NAN_REGISTRY, lenient_errors=True)
            return engine, engine.register_query(text, name="q")

        engine, handle = start()
        engine.run(events())
        expected = [emission_to_line(e) for e in handle.results()]
        assert expected == outcome(text, events(), False, True, registry=NAN_REGISTRY)[0]
        assert counters(engine)[0] > 0 and counters(engine)[2] == 1

        first, handle = start()
        first.run(events()[:3], flush=False)
        state = first.snapshot()
        assert "unordered" not in state["queries"]["q"]["ranker"]["epochs"]["0"]
        resumed, resumed_handle = start()
        resumed.restore(state)
        resumed.run(events()[3:])
        lines = [emission_to_line(e) for e in handle.results() + resumed_handle.results()]
        assert lines == expected
        assert counters(resumed) == counters(engine)


class TestSharding:
    def test_each_shard_cuts_against_its_own_theta(self):
        """A match outside its shard's top k is outside the merged top k,
        so the fleet's lines equal one engine's; a shard's θ is never
        better than the whole stream's, so it builds no fewer matches."""
        text = query("SEQ(A a, B b)", "30 EVENTS")
        expected, engine, _ = run(text, stream())
        runner = local_fleet({"q": text}, shards=3, registry=REGISTRY)
        sink = CollectorSink()
        runner.subscribe("q", sink)
        with runner:
            runner.submit_all(stream())
            runner.flush()
        assert [emission_to_line(e) for e in sink.emissions] == expected
        fleet, single = runner.stats_by_query()["q"], engine.stats_by_query()["q"]
        assert single["completions_skipped"] > 0
        assert fleet["matches"] >= single["matches"]
