"""Run dominance: where it acts, that it is exact, how it reads.

After each event a partition keeps only the k-skyband of its runs parked
on the trailing Kleene stage: a run that k others of its partition beat
under every future is dropped (DESIGN.md, "Where dominance acts").  The
property suite (``tests/property/test_property_ranking.py``) sweeps
generated queries; these cases pin the drop on each shape it covers, the
conditions it refuses, checkpoints and sharding.
"""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro import CEPREngine, Event
from repro.baselines.match_then_rank import MatchThenRankQuery
from repro.engine.matcher import dominated
from repro.events.schema import AttributeSpec, Domain, EventSchema, SchemaRegistry
from repro.events.time import SequenceAssigner
from repro.language.parser import parse_query
from repro.language.semantics import Reads, analyze, run_dominance
from repro.runtime.serialize import emission_to_line
from repro.runtime.sinks import CollectorSink
from tests.runtime.fleet import local_fleet

REGISTRY = SchemaRegistry(
    [
        EventSchema(
            event_type,
            (
                AttributeSpec("value", "int", Domain(0, 9)),
                AttributeSpec("g", "int"),
                AttributeSpec("x", "float"),  # no domain: may be NaN
            ),
        )
        for event_type in "ABC"
    ]
)


def stream(count=600, seed=3):
    rng = random.Random(seed)
    return [
        Event(
            rng.choice("ABBC"),
            float(i),
            value=rng.randint(0, 9),
            g=rng.randint(0, 2),
            x=rng.choice([0.5, 2.5, float("nan")]),
        )
        for i in range(count)
    ]


def query(
    pattern="SEQ(A a, B bs+)",
    keys="max(bs.value) DESC, count(bs) DESC",
    where="",
    window="12 EVENTS",
    limit=2,
):
    return f"""
        PATTERN {pattern}
        {where}
        WITHIN {window}
        USING SKIP_TILL_ANY
        PARTITION BY g
        RANK BY {keys}
        {f"LIMIT {limit}" if limit else ""}
        EMIT ON WINDOW CLOSE
    """


def lines(emissions):
    return [emission_to_line(e) for e in emissions]


def run(text, events, enable_pruning=True, registry=REGISTRY):
    engine = CEPREngine(registry=registry, enable_pruning=enable_pruning)
    handle = engine.register_query(text, name="q")
    engine.run(events)
    return lines(handle.results()), engine, handle


def match_then_rank(text, events):
    assigner = SequenceAssigner()
    for event in events:
        assigner.assign(event)
    baseline = MatchThenRankQuery(text, REGISTRY, name="q")
    relevant = baseline.analyzed.relevant_types
    baseline.run([e for e in events if e.event_type in relevant])
    return lines(baseline.emissions)


def status(text, registry=REGISTRY):
    analyzed = analyze(parse_query(text), registry)
    return run_dominance(analyzed, Reads(analyzed, registry))[1]


class TestExactWhereItActs:
    @pytest.mark.parametrize(
        "pattern, keys",
        [
            ("SEQ(A a, B bs+)", "max(bs.value) DESC, count(bs) DESC"),
            ("SEQ(A a, B bs+)", "count(bs) ASC, min(bs.value) ASC"),
            ("SEQ(A a, B bs+)", "a.value - 2 * a.value DESC, max(bs.value) ASC"),
            ("SEQ(A a, C c, B bs+)", "c.value + a.value DESC, count(bs) DESC"),
            ("SEQ(A as+, B bs+)", "count(bs) DESC, max(bs.value) DESC"),
            ("SEQ(B bs+)", "min(bs.value) DESC, count(bs) DESC"),
        ],
    )
    @pytest.mark.parametrize("window", ["12 EVENTS", "12 SECONDS"])
    def test_drops_runs_and_emits_the_same_lines(self, pattern, keys, window):
        text = query(pattern, keys, window=window)
        assert status(text) == "active"
        pruned, engine, handle = run(text, stream())
        plain, _, reference = run(text, stream(), enable_pruning=False)
        dropped = handle.matcher.stats.runs_dominated
        assert dropped > 0
        assert engine.stats_by_query()["q"]["runs_dominated"] == dropped
        assert pruned == plain == match_then_rank(text, stream())
        stats, plain_stats = handle.matcher.stats, reference.matcher.stats
        assert stats.matches_completed < plain_stats.matches_completed
        assert stats.peak_live_runs <= plain_stats.peak_live_runs
        assert plain_stats.runs_dominated == 0

    @staticmethod
    def drops(steps, window="100 EVENTS", keys="count(bs) DESC"):
        """Runs dominated and runs left live by ``steps``, whose lines
        must equal the run without dominance."""
        def events():
            return [
                Event(t, float(i), value=v, g=0, x=0.5) for i, (t, v) in enumerate(steps)
            ]

        text = query(keys=keys, window=window, limit=1)
        engine = CEPREngine(registry=REGISTRY)
        handle = engine.register_query(text, name="q")
        engine.run(events(), flush=False)
        live = handle.matcher.live_run_count
        engine.flush()
        plain, _, _ = run(text, events(), enable_pruning=False)
        assert lines(handle.results()) == plain
        return handle.matcher.stats.runs_dominated, live

    def test_a_run_awaiting_its_first_element_is_dominated(self):
        """``count(bs)`` of an empty ``bs`` is 0: every open run beats it
        on every future, so it goes as soon as one exists."""
        assert self.drops([("A", 0), ("B", 5)]) == (1, 1)
        assert self.drops([("A", 0), ("B", 5), ("A", 1)]) == (2, 1)

    def test_a_tie_never_dominates(self):
        """Two open runs with equal vectors both stay: either may still win
        the tie-break."""
        assert self.drops([("A", 0), ("A", 1), ("B", 5)]) == (2, 2)

    def test_under_a_time_window_a_dominator_is_born_no_earlier(self):
        """The open run (a=A@0, bs=[B@1]) beats the run awaiting after A@2
        on every key, but it leaves its time window first."""
        steps = [("A", 0), ("B", 5), ("A", 1)]
        assert self.drops(steps, window="100 EVENTS") == (2, 1)
        assert self.drops(steps, window="100 SECONDS") == (1, 2)


#: one NaN object, shared by every vector that holds it: tuple ``==``
#: calls two such vectors equal, and each equal to itself
SHARED_NAN = float("nan")
COMPONENTS = st.sampled_from([0, 1, 1.0, 2, 2.5, 3, -math.inf, math.inf])


def is_nan_free(vector):
    return all(value == value for value in vector)


def brute_force_skyband(vectors, k, strict):
    """The positions of the vectors k others dominate, by definition: no
    worse in every component, another head (so strictly better in a strict
    one); a vector with a NaN component dominates nothing and stays."""
    clean = [vector for vector in vectors if is_nan_free(vector)]

    def dominates(q, p):
        return q[:strict] != p[:strict] and all(a <= b for a, b in zip(q, p))

    return [
        i
        for i, p in enumerate(vectors)
        if is_nan_free(p) and sum(dominates(q, p) for q in clean) >= k
    ]


@st.composite
def skyband_cases(draw):
    """(vectors, k, strict): 1–4 components, small values so that heads
    and second components tie, ±inf identities and NaN, one NaN object
    shared by two vectors among them."""
    width = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[COMPONENTS] * width), max_size=16))
    for _ in range(draw(st.integers(0, 3)) if vectors else 0):
        i = draw(st.integers(0, len(vectors) - 1))
        j = draw(st.integers(0, width - 1))
        nan = draw(st.sampled_from([SHARED_NAN, "fresh"]))
        nan = float("nan") if nan == "fresh" else nan
        vectors[i] = vectors[i][:j] + (nan,) + vectors[i][j + 1 :]
    return vectors, draw(st.integers(1, 6)), draw(st.integers(1, width))


class TestSweep:
    """:func:`dominated` is the k-skyband by definition: one sort, head
    groups, ``bisect_right`` counting and the componentwise count only
    where that count is a bound."""

    @given(skyband_cases())
    @settings(max_examples=1000, deadline=None)
    # tuple ``==`` calls the two NaN vectors equal: (0, 0) would drop both
    @example(([(SHARED_NAN, 3), (SHARED_NAN, 3), (0, 0), (1, 1)], 1, 1))
    # (0, 1) dominates (1, 1): a tie in the bisected component is no worse
    @example(([(1, 1), (0, 1), (1, 1), (2, 0)], 1, 1))
    # (0, 0) leads (0, 1) only where one shared future element can erase it
    @example(([(0, 1), (0, 0), (1, 2)], 1, 1))
    @example(([(0, 1), (0, 0), (1, 2)], 1, 2))
    def test_equals_the_brute_force_skyband(self, case):
        vectors, k, strict = case
        expected = brute_force_skyband(vectors, k, strict)
        assert sorted(dominated(vectors, k, strict, nan_test=True)) == expected
        if all(map(is_nan_free, vectors)):
            assert sorted(dominated(vectors, k, strict, nan_test=False)) == expected


class TestConditions:
    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"limit": None}, "scope:"),
            ({"pattern": "SEQ(A a, B b)", "keys": "b.value DESC"}, "final stage: needs"),
            ({"pattern": "SEQ(A a, B bs+, NOT C n)"}, "final stage: a trailing negation"),
            ({"pattern": "SEQ(A a, NOT C n, B bs+)"}, "final stage: NOT C n"),
            ({"pattern": "SEQ(A a, NOT C n, C c, B bs+)"}, None),
            ({"where": "WHERE count(bs) > 1"}, "completion predicate: count(bs) > 1"),
            ({"where": "WHERE bs.value > a.value"}, "element predicate: bs.value > a.value reads 'a'"),
            ({"where": "WHERE bs.value % 2 == 0"}, "element predicate shape: bs.value % 2"),
            ({"where": "WHERE bs.value > 2 AND a.value < 5"}, None),
            ({"where": "WHERE bs.x > 1.0"}, None),
            ({"keys": "sum(bs.value) DESC, count(bs) DESC"}, "key shape: sum(bs.value)"),
            ({"keys": "count(bs) DESC, a.value / 2 DESC"}, "key shape: a.value / 2"),
            ({"keys": "max(bs.value) DESC"}, "keys: none keeps a strict advantage"),
            ({"keys": "max(bs.value) DESC, min(bs.value) ASC"}, "keys: none"),
            (
                {"keys": "max(bs.x) DESC, count(bs) DESC"},
                "NaN: max(bs.x) reads a float with no declared domain, so a "
                "dropped run could hide a NaN key's scoring error",
            ),
            ({"keys": "a.x DESC, count(bs) DESC"}, None),
            ({"keys": "a.value * 2 - 1 DESC"}, None),
            ({"keys": "count(bs) ASC, min(bs.value) ASC"}, None),
        ],
    )
    def test_first_failing_condition_is_named(self, change, reason):
        verdict = status(query(**change))
        if reason is None:
            assert verdict == "active"
        else:
            assert verdict.startswith(reason), verdict

    @pytest.mark.parametrize(
        "old, new, reason",
        [
            ("EMIT ON WINDOW CLOSE", "EMIT EAGER", "scope:"),
            ("USING SKIP_TILL_ANY", "USING SKIP_TILL_NEXT", "strategy:"),
            ("USING SKIP_TILL_ANY", "USING STRICT", "strategy:"),
        ],
    )
    def test_scope_and_strategy(self, old, new, reason):
        assert status(query().replace(old, new)).startswith(reason)

    def test_every_read_attribute_must_be_declared(self):
        assert status(query(), registry=None).startswith("undeclared attribute: bs.value")
        optional = SchemaRegistry(
            [
                EventSchema(t, (AttributeSpec("value", "int", required=False),
                                AttributeSpec("g", "int")))
                for t in "AB"
            ]
        )
        assert status(query(), registry=optional).startswith("undeclared attribute")



class TestNaNKeys:
    """A singleton key that evaluates to NaN makes every match of its run
    a scoring error: the run stays out of the sweep, is kept and dominates
    nothing, so output, error counters and the raise itself equal the run
    without dominance."""

    @staticmethod
    def outcome(text, events, enable_pruning, lenient, registry=REGISTRY):
        engine = CEPREngine(
            registry=registry, enable_pruning=enable_pruning, lenient_errors=lenient
        )
        handle = engine.register_query(text, name="q")
        try:
            engine.run(events)
        except Exception as exc:  # noqa: BLE001 - the raise itself is compared
            return type(exc).__name__, str(exc)
        return lines(handle.results()), handle.ranker.scoring_errors

    def check(self, text, events, registry=REGISTRY):
        assert status(text, registry) == "active"
        for lenient in (False, True):
            dominated = self.outcome(text, events(), True, lenient, registry)
            assert dominated == self.outcome(text, events(), False, lenient, registry)
            if lenient:
                assert dominated[1] > 0
            else:
                assert dominated == (
                    "EvaluationError", "RANK BY expressions must not produce NaN"
                )
        engine = CEPREngine(registry=registry, lenient_errors=True)
        handle = engine.register_query(text, name="q")
        engine.run(events())
        assert handle.matcher.stats.runs_dominated > 0

    def test_a_nan_attribute(self):
        self.check(query(keys="a.x DESC, count(bs) DESC"), stream)

    def test_a_singleton_key_that_may_overflow(self):
        """inf - inf is NaN: finite domains whose products overflow."""
        huge = SchemaRegistry(
            [
                EventSchema(t, (AttributeSpec("value", "float", Domain(-1e300, 1e300)),
                                AttributeSpec("g", "int")))
                for t in "AB"
            ]
        )

        def events():
            rng = random.Random(5)
            return [
                Event(rng.choice("ABB"), float(i), value=rng.choice([1.0, 2.0, 1e200]),
                      g=rng.randint(0, 2))
                for i in range(400)
            ]

        text = query(keys="a.value * a.value - a.value * a.value DESC, count(bs) DESC")
        self.check(text, events, huge)

    def test_a_finite_key_over_an_overflowing_subexpression(self):
        """The key is bounded by [0, 5], yet evaluates to NaN for a.value > 0:
        inf - inf is NaN, and min2/max2 pass a NaN first argument through."""
        key = "max2(min2(a.value * 1e308 * 10 - a.value * 1e308 * 10, 5), 0)"
        self.check(query(keys=f"{key} DESC, count(bs) DESC"), stream)


class TestExplain:
    def explain(self, text, **engine_kwargs):
        engine = CEPREngine(registry=REGISTRY, **engine_kwargs)
        return engine.register_query(text).explain()

    def test_active(self):
        assert (
            "run dominance: active (k-skyband over the runs of bs+ per partition, k=2; "
            "vector (-count(bs) strict, -max(bs.value)); NaN test off)"
        ) in self.explain(query())

    def test_lists_the_vector_in_order_and_arms_the_nan_test_where_needed(self):
        """Strict components come first, in key order; a time window adds
        the birth time; only a key that may be NaN arms the NaN test."""
        text = self.explain(
            query(keys="min(bs.value) ASC, a.x DESC, count(bs) ASC", window="12 SECONDS")
        )
        assert (
            "vector (-a.x strict, count(bs) strict, min(bs.value), -first_ts); "
            "NaN test armed)"
        ) in text
        text = self.explain(query(keys="a.value - 2 * a.value DESC, count(bs) DESC"))
        assert (
            "vector (-(a.value - 2 * a.value) strict, -count(bs) strict); NaN test off)"
        ) in text

    def test_names_the_blocker(self):
        text = self.explain(query(keys="max(bs.value) DESC"))
        assert "run dominance: inactive (keys: none keeps" in text

    def test_engine_switch(self):
        text = self.explain(query(), enable_pruning=False)
        assert "run dominance: inactive (disabled by engine configuration)" in text

    def test_a_singleton_final_stage(self):
        text = self.explain(query("SEQ(A a, B b)", "b.value - a.value DESC"))
        assert "run dominance: inactive (final stage: needs a trailing Kleene stage)" in text
        assert "completing-edge cut: active" in text


class TestCheckpoint:
    """Dominance reads only the runs a partition holds, so a snapshot taken
    mid-epoch resumes with the same drops — also one written without
    dominance, which still holds the dominated runs."""

    text = query(window="40 EVENTS")

    @staticmethod
    def halfway(enable_pruning, cut):
        engine = CEPREngine(registry=REGISTRY, enable_pruning=enable_pruning)
        handle = engine.register_query(TestCheckpoint.text, name="q")
        engine.run(stream()[:cut], flush=False)
        return engine, handle

    @pytest.mark.parametrize("source", ["dominance", "no dominance"])
    def test_restore_mid_epoch_resumes_identically(self, source):
        expected, engine, _ = run(self.text, stream())
        total = engine.stats_by_query()["q"]["runs_dominated"]
        cut = 250  # seq 249: the middle of the epoch [240, 280)

        first, handle = self.halfway(source == "dominance", cut)
        state = first.snapshot()
        before = lines(handle.results())
        if source == "no dominance":
            # as a build without run dominance wrote it: the counter is
            # missing and the runs dominance would have dropped are held
            assert state["queries"]["q"]["matcher"].pop("runs_dominated") == 0
            _, pruned = self.halfway(True, cut)
            assert handle.matcher.live_run_count > pruned.matcher.live_run_count

        resumed = CEPREngine(registry=REGISTRY)
        resumed_handle = resumed.register_query(self.text, name="q")
        resumed.restore(state)
        resumed.run(stream()[cut:])
        assert before + lines(resumed_handle.results()) == expected
        dropped = resumed.stats_by_query()["q"]["runs_dominated"]
        if source == "dominance":
            assert dropped == total
        else:
            assert dropped > 0


class TestSharding:
    def test_a_two_shard_fleet_emits_the_same_lines(self):
        """Dominance compares runs of one partition, and a partition lives
        on one shard: the fleet drops what one engine drops."""
        text = query(window="30 EVENTS")
        expected, engine, _ = run(text, stream())
        runner = local_fleet({"q": text}, shards=2, registry=REGISTRY)
        sink = CollectorSink()
        runner.subscribe("q", sink)
        with runner:
            runner.submit_all(stream())
            runner.flush()
        assert lines(sink.emissions) == expected
        fleet, single = runner.stats_by_query()["q"], engine.stats_by_query()["q"]
        assert single["runs_dominated"] > 0
        assert fleet["runs_dominated"] == single["runs_dominated"]
