"""Property-based tests of ranking invariants.

The three headline guarantees:

1. **Top-k prefix**: ``LIMIT k`` emits exactly the first k entries of the
   unlimited ranking.
2. **Pruning exactness**: enabling ranking-aware execution — the pruner,
   the completing-edge cut and run dominance — never changes any
   emission, byte for byte, also across a checkpoint.
3. **Baseline equivalence**: the integrated ranker and the
   match-then-rank baseline produce identical ordered answers.

Plus the two facts the exactness of the epoch's k-th score rests on: the
cut's compiled key is bit-equal to the scorer's normalised primary, and
the pruner's compiled bound is never tighter than ``IntervalEvaluator``.
"""

import math
import re
import struct
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import event, given, settings

from repro import CEPREngine
from repro.baselines.match_then_rank import MatchThenRankQuery
from repro.engine.aggregates import tracked_attrs_by_var
from repro.engine.compiler import compile_automaton
from repro.engine.match import Match
from repro.engine.runs import new_run
from repro.events.event import Event
from repro.events.schema import AttributeSpec, Domain, EventSchema, SchemaRegistry
from repro.events.time import SequenceAssigner
from repro.language.ast_nodes import Direction
from repro.language.errors import EvaluationError
from repro.language.intervals import IntervalEvaluator
from repro.language.parser import parse_query
from repro.language.semantics import Reads, analyze, completion_cut
from repro.ranking.keys import normalise_bound
from repro.ranking.pruning import ScoreBoundPruner
from repro.ranking.score import Scorer
from repro.runtime.serialize import emission_to_line

event_specs = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=0,
    max_size=40,
)

REGISTRY = SchemaRegistry(
    [
        EventSchema("A", (AttributeSpec("value", "float", Domain(0, 100)),)),
        EventSchema("B", (AttributeSpec("value", "float", Domain(0, 100)),)),
    ]
)


def build_stream(specs):
    return [
        Event(event_type, float(i + 1), value=float(value))
        for i, (event_type, value) in enumerate(specs)
    ]


def query_text(k=None, window=10):
    limit = f"LIMIT {k}" if k else ""
    return f"""
        PATTERN SEQ(A a, B b)
        WITHIN {window} EVENTS
        USING SKIP_TILL_ANY
        RANK BY b.value - a.value DESC
        {limit}
        EMIT ON WINDOW CLOSE
    """


def emissions_of(text, events, registry=None, enable_pruning=True):
    engine = CEPREngine(registry=registry, enable_pruning=enable_pruning)
    handle = engine.register_query(text)
    engine.run(events)
    return handle.results()


def fingerprint(emissions):
    return [
        (e.epoch, tuple((m.first_seq, m.last_seq, m.rank_values) for m in e.ranking))
        for e in emissions
    ]


class TestTopKPrefixProperty:
    @given(event_specs, st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_limit_k_is_prefix_of_full_ranking(self, specs, k):
        events = build_stream(specs)
        limited = emissions_of(query_text(k=k), events)
        events = build_stream(specs)
        full = emissions_of(query_text(k=None), events)
        assert len(limited) == len(full)
        for lim, all_ in zip(limited, full):
            assert fingerprint([lim])[0][1] == fingerprint([all_])[0][1][:k]

    @given(event_specs)
    @settings(max_examples=100, deadline=None)
    def test_rankings_are_sorted(self, specs):
        events = build_stream(specs)
        for emission in emissions_of(query_text(k=None), events):
            values = [m.rank_values[0] for m in emission.ranking]
            assert values == sorted(values, reverse=True)


class TestPruningExactness:
    @given(event_specs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_pruning_never_changes_emissions(self, specs, k):
        pruned = emissions_of(
            query_text(k=k), build_stream(specs), REGISTRY, enable_pruning=True
        )
        unpruned = emissions_of(
            query_text(k=k), build_stream(specs), REGISTRY, enable_pruning=False
        )
        assert fingerprint(pruned) == fingerprint(unpruned)


class TestBaselineEquivalence:
    @given(event_specs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_match_then_rank_equals_integrated(self, specs, k):
        integrated = emissions_of(query_text(k=k), build_stream(specs), REGISTRY)
        baseline = MatchThenRankQuery(query_text(k=k), REGISTRY)
        baseline.run(build_stream(specs))

        def nonempty(emissions):
            return [e for e in fingerprint(emissions) if e[1]]

        assert nonempty(baseline.emissions) == nonempty(integrated)


class TestEagerConsistency:
    @given(event_specs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=75, deadline=None)
    def test_final_eager_snapshot_equals_batch_ranking(self, specs, k):
        """After the whole stream, EAGER's last snapshot must equal the
        top-k of all live matches computed from scratch."""
        text = f"""
            PATTERN SEQ(A a, B b)
            WITHIN 1000 EVENTS
            USING SKIP_TILL_ANY
            RANK BY b.value - a.value DESC
            LIMIT {k}
            EMIT EAGER
        """
        events = build_stream(specs)
        engine = CEPREngine()
        handle = engine.register_query(text)
        engine.run(events)
        emissions = handle.results()
        if not emissions:
            return
        last = emissions[-1].ranking

        all_matches = sorted(
            {m.detection_index: m for e in emissions for m in e.ranking}.values(),
            key=lambda m: m.sort_key(),
        )
        # every match in the final snapshot must be sorted and size <= k
        values = [m.rank_values[0] for m in last]
        assert values == sorted(values, reverse=True)
        assert len(last) <= k
        del all_matches


# -- the completing-edge cut on generated (query, stream) cases ---------------

CUT_REGISTRY = SchemaRegistry(
    [
        EventSchema(
            event_type,
            (
                AttributeSpec("value", "int", Domain(0, 5)),
                AttributeSpec("g", "int"),
            ),
        )
        for event_type in "ABC"
    ]
)

CUT_PATTERNS = {
    "pair": "SEQ(A a, B b)",
    "singleton-middle": "SEQ(A a, C c, B b)",
    "kleene-middle": "SEQ(A a, C cs+, B b)",
    "guarded-kleene-middle": "SEQ(A a, C cs+, NOT A x, B b)",
    "trailing-negation": "SEQ(A a, B b, NOT C n)",
    # the cut reads a trailing Kleene stage's primary from its registers
    "trailing-kleene": "SEQ(A a, B bs+)",
    "singleton-trailing-kleene": "SEQ(A a, C c, B bs+)",
}
CUT_KEYS = ("a.value - b.value", "2 * b.value - a.value", "b.value")
KLEENE_CUT_KEYS = ("count(bs)", "max(bs.value)", "min(bs.value)")
EDGE_PREDICATES = ("", "WHERE b.value >= a.value - 1", "WHERE b.value != a.value")


@st.composite
def cut_cases(draw):
    pattern = draw(st.sampled_from(sorted(CUT_PATTERNS)))
    kleene = "bs+" in CUT_PATTERNS[pattern]
    window = draw(st.sampled_from(["EVENTS", "SECONDS"]))
    secondary = draw(st.sampled_from(["", ", a.value DESC", ", a.value ASC"]))
    edge = draw(st.sampled_from(EDGE_PREDICATES))
    query = f"""
        PATTERN {CUT_PATTERNS[pattern]}
        {edge.replace("b.value", "bs.value") if kleene else edge}
        WITHIN {draw(st.integers(min_value=4, max_value=16))} {window}
        USING SKIP_TILL_ANY
        {draw(st.sampled_from(["", "PARTITION BY g"]))}
        RANK BY {draw(st.sampled_from(KLEENE_CUT_KEYS if kleene else CUT_KEYS))}
            {draw(st.sampled_from(["ASC", "DESC"]))}{secondary}
        LIMIT {draw(st.sampled_from([1, 1, 2, 3]))}
        EMIT ON WINDOW CLOSE
    """
    alphabet = draw(st.sampled_from(["ABC", "AABBC", "ABCCC"]))
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(alphabet),
                st.integers(min_value=0, max_value=5),  # small: ties are common
                st.integers(min_value=0, max_value=1),  # partition
                st.integers(min_value=0, max_value=2),  # timestamp step
            ),
            min_size=10,
            max_size=120,
        )
    )
    return pattern, query, specs


def cut_stream(specs):
    events, ts = [], 0.0
    for event_type, value, group, step in specs:
        ts += step
        events.append(Event(event_type, ts, value=value, g=group))
    return events


def engine_lines(
    query, specs, enable_pruning, registry=CUT_REGISTRY, build=cut_stream, lenient=False
):
    engine = CEPREngine(
        registry=registry, enable_pruning=enable_pruning, lenient_errors=lenient
    )
    handle = engine.register_query(query, name="cut")
    engine.run(build(specs))
    return [emission_to_line(e) for e in handle.results()], handle.matcher.stats


class LenientMatchThenRank(MatchThenRankQuery):
    """The baseline under the lenient policy: a match whose key fails to
    score (a NaN) is counted and dropped."""

    scoring_errors = 0

    def _buffer(self, matches):
        scored = []
        for match in matches:
            try:
                scored.append(self.scorer.score(match))
            except EvaluationError:
                self.scoring_errors += 1
        super()._buffer(scored)


def match_then_rank_lines(
    query, specs, registry=CUT_REGISTRY, build=cut_stream, baseline_type=MatchThenRankQuery
):
    """The reference, fed the query's own types, globally sequenced."""
    events = build(specs)
    assigner = SequenceAssigner()
    for event in events:
        assigner.assign(event)
    baseline = baseline_type(query, registry, name="cut")
    relevant = baseline.analyzed.relevant_types
    baseline.run([e for e in events if e.event_type in relevant])
    return [emission_to_line(e) for e in baseline.emissions]


class TestCompletionCutExactness:
    @given(cut_cases())
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_unpruned_and_match_then_rank(self, case):
        pattern, query, specs = case
        cut, cut_stats = engine_lines(query, specs, enable_pruning=True)
        plain, plain_stats = engine_lines(query, specs, enable_pruning=False)
        assert cut == plain
        assert cut == match_then_rank_lines(query, specs)
        assert cut_stats.matches_completed <= plain_stats.matches_completed
        assert plain_stats.completions_skipped == 0
        event(f"{pattern}: cut fired {cut_stats.completions_skipped > 0}")


# -- run dominance on generated trailing-Kleene cases -------------------------

DOMINANCE_REGISTRY = SchemaRegistry(
    [
        EventSchema(
            event_type,
            (
                AttributeSpec("value", "int", Domain(0, 5)),
                AttributeSpec("f", "float", Domain(0.0, 2.0)),
                AttributeSpec("x", "float"),  # no domain: NaN is a legal value
                AttributeSpec("g", "int"),
            ),
        )
        for event_type in "ABC"
    ]
)

#: pattern, and the keys over its singletons (none after a Kleene head)
KLEENE_PATTERNS = {
    "pair": ("SEQ(A a, B bs+)", ("a.value", "2 * a.f - a.value")),
    "middle": ("SEQ(A a, C c, B bs+)", ("c.value - a.value",)),
    "guarded-middle": ("SEQ(A a, NOT C n, C c, B bs+)", ("a.value",)),
    "kleene-head": ("SEQ(A as+, B bs+)", ()),
}
#: keys that keep no strict lead; ``max(bs.x)`` may be NaN — a scoring
#: error, counted under the lenient policy — so it keeps dominance off
LOOSE_KEYS = ("max(bs.value)", "min(bs.f)", "max(bs.x)")
ELEMENT_PREDICATES = (
    "", "WHERE bs.value >= 1", "WHERE bs.x > 1.0", "WHERE bs.value != 3 AND bs.f < 1.5"
)


@st.composite
def dominance_cases(draw):
    pattern, singletons = KLEENE_PATTERNS[draw(st.sampled_from(sorted(KLEENE_PATTERNS)))]
    strict = draw(st.sampled_from(("count(bs)",) + singletons))
    loose = draw(st.sampled_from(LOOSE_KEYS))
    keys = draw(st.sampled_from([[strict], [loose], [strict, loose], [loose, strict]]))
    ranked = ", ".join(f"{key} {draw(st.sampled_from(['ASC', 'DESC']))}" for key in keys)
    query = f"""
        PATTERN {pattern}
        {draw(st.sampled_from(ELEMENT_PREDICATES))}
        WITHIN {draw(st.integers(min_value=4, max_value=10))}
            {draw(st.sampled_from(["EVENTS", "SECONDS"]))}
        USING SKIP_TILL_ANY
        {draw(st.sampled_from(["", "PARTITION BY g"]))}
        RANK BY {ranked}
        LIMIT {draw(st.integers(min_value=1, max_value=3))}
        EMIT ON WINDOW CLOSE
    """
    alphabet = draw(st.sampled_from(["ABBC", "AABBBC", "ABBBB"]))
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(alphabet),
                st.integers(min_value=0, max_value=5),  # small: ties are common
                st.sampled_from([0.0, 0.5, 2.0]),
                st.sampled_from([0.5, 2.5, math.nan]),
                st.integers(min_value=0, max_value=1),  # partition
                # at least 1: a time window then holds no more events than
                # a count window of its span, so the unpruned run — one run
                # per subset of an epoch's elements — stays small
                st.integers(min_value=1, max_value=2),  # timestamp step
            ),
            min_size=30,
            max_size=120,
        )
    )
    return pattern, query, specs


def dominance_stream(specs):
    events, ts = [], 0.0
    for event_type, value, f, x, group, step in specs:
        ts += step
        events.append(Event(event_type, ts, value=value, f=f, x=x, g=group))
    return events


def dominance_lines(query, specs, enable_pruning):
    return engine_lines(
        query, specs, enable_pruning, DOMINANCE_REGISTRY, dominance_stream, lenient=True
    )


class TestRunDominanceExactness:
    @given(dominance_cases())
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_unpruned_and_match_then_rank(self, case):
        pattern, query, specs = case
        pruned, stats = dominance_lines(query, specs, enable_pruning=True)
        plain, plain_stats = dominance_lines(query, specs, enable_pruning=False)
        assert pruned == plain
        assert pruned == match_then_rank_lines(
            query, specs, DOMINANCE_REGISTRY, dominance_stream, LenientMatchThenRank
        )
        assert stats.matches_completed <= plain_stats.matches_completed
        assert plain_stats.runs_dominated == 0
        event(f"{pattern}: dominance fired {stats.runs_dominated > 0}")

    @given(dominance_cases(), st.integers(min_value=0, max_value=120), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_restore_anywhere_resumes_identically(self, case, offset, parent_format):
        """Also from a checkpoint written without dominance: it holds the
        runs dominance would have dropped, and lacks the counter."""
        _pattern, query, specs = case
        expected, _ = dominance_lines(query, specs, enable_pruning=True)
        events = dominance_stream(specs)
        cut = min(offset, len(events))
        first = CEPREngine(
            registry=DOMINANCE_REGISTRY, enable_pruning=not parent_format, lenient_errors=True
        )
        handle = first.register_query(query, name="cut")
        first.run(events[:cut], flush=False)
        state = first.snapshot()
        if parent_format:
            del state["queries"]["cut"]["matcher"]["runs_dominated"]
        resumed = CEPREngine(registry=DOMINANCE_REGISTRY, lenient_errors=True)
        resumed_handle = resumed.register_query(query, name="cut")
        resumed.restore(state)
        resumed.run(events[cut:])
        after = resumed_handle.results()
        assert [emission_to_line(e) for e in handle.results() + after] == expected


def group_lines(query, specs, registry, build, shared):
    """The query at LIMIT 1, 2 and 3, registered in that order: with
    sharing on they form one group whose K widens twice before any event."""
    engine = CEPREngine(registry=registry, lenient_errors=True, shared_execution=shared)
    handles = [
        engine.register_query(re.sub(r"LIMIT \d+", f"LIMIT {k}", query), name=f"k{k}")
        for k in (1, 2, 3)
    ]
    engine.run(build(specs))
    return handles, [[emission_to_line(e) for e in h.results()] for h in handles]


class TestWidenedGroups:
    """A group whose K widens keeps its matcher and pruner and re-points
    what reads K — the pruner's θ, the completing-edge cut's θ and run
    dominance's k — at the widest member: every member's lines equal
    independent execution."""

    @given(cut_cases())
    @settings(max_examples=60, deadline=None)
    def test_the_cut_acts_on_the_widest_members_theta(self, case):
        _pattern, query, specs = case
        handles, grouped = group_lines(query, specs, CUT_REGISTRY, cut_stream, True)
        _, independent = group_lines(query, specs, CUT_REGISTRY, cut_stream, False)
        assert grouped == independent
        pipeline = handles[0].pipeline
        assert all(h.pipeline is pipeline for h in handles)
        if pipeline.cut_status == "active":
            assert pipeline.matcher._cut_kth == pipeline.ranker.kth_bound_for_epoch
        event(f"cut {pipeline.cut_status == 'active'}")

    @given(dominance_cases())
    @settings(max_examples=60, deadline=None)
    def test_dominance_acts_on_the_widest_members_k(self, case):
        _pattern, query, specs = case
        build = dominance_stream
        handles, grouped = group_lines(query, specs, DOMINANCE_REGISTRY, build, True)
        _, independent = group_lines(query, specs, DOMINANCE_REGISTRY, build, False)
        assert grouped == independent
        pipeline = handles[0].pipeline
        assert (
            pipeline.pruner is None
            or pipeline.pruner.bound_provider == pipeline.ranker.kth_bound_for_epoch
        )
        dominance = pipeline.matcher.dominance
        if dominance is not None:
            assert dominance.k == 3
        event(f"dominance {dominance is not None}")


def bits(value):
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


KEY_REGISTRY = SchemaRegistry(
    [EventSchema(t, (AttributeSpec("value", "float"),)) for t in "AB"]
)
COMPILED_KEYS = (
    *CUT_KEYS,
    "-(a.value + b.value) * 3",
    "abs(a.value - b.value)",
    "min2(a.value, b.value) + max2(a.value, 1.5)",
    "b.value - -a.value",
)
numbers = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestCompiledCutKey:
    @given(
        st.sampled_from(COMPILED_KEYS), st.sampled_from(["ASC", "DESC"]), numbers, numbers
    )
    @settings(max_examples=300, deadline=None)
    def test_key_is_bit_equal_to_the_scorers_normalised_primary(
        self, key, direction, a_value, b_value
    ):
        text = (
            f"PATTERN SEQ(A a, B b) WITHIN 5 EVENTS USING SKIP_TILL_ANY "
            f"RANK BY {key} {direction} LIMIT 1 EMIT ON WINDOW CLOSE"
        )
        analyzed = analyze(parse_query(text), KEY_REGISTRY)
        cut_key, status = completion_cut(analyzed, Reads(analyzed, KEY_REGISTRY))
        assert status == "active"
        a, b = Event("A", 1.0, value=a_value), Event("B", 2.0, value=b_value)
        run = SimpleNamespace(bindings={"a": a})  # what the cut reads of a run
        match = Match(bindings={"a": a, "b": b}, first_seq=0, last_seq=1,
                      first_ts=1.0, last_ts=2.0)
        try:
            Scorer(analyzed.rank_keys).score(match)
        except EvaluationError:  # a NaN key: the cut never skips it
            value = cut_key(run, b)
            assert value != value
            return
        assert bits(cut_key(run, b)) == bits(match.score[0])


BOUND_REGISTRY = SchemaRegistry(
    [
        EventSchema(t, (AttributeSpec("value", "float", Domain(-50.0, 50.0)),))
        for t in ("A", "K", "B", "D")
    ]
)
BOUND_KEYS = (
    "max(ks.value)",
    "count(ks)",
    "sum(ks.value) - a.value",
    "avg(ks.value) + b.value",
    "min(ks.value) * 2",
    "first(ks.value)",
    "last(ks.value) - d.value",
    "duration()",
    "b.value - a.value",
    "abs(a.value - d.value)",
    "min2(a.value, b.value)",
    "max(b.value) + count(b)",
    "ts(b) - ts(a)",
)
values = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0), st.integers(min_value=-50, max_value=50)
)


class TestCompiledBoundSoundness:
    @given(
        st.sampled_from(BOUND_KEYS),
        st.sampled_from(["ASC", "DESC"]),
        st.sampled_from(["EVENTS", "SECONDS"]),
        values,
        st.lists(values, min_size=1, max_size=6),
        values,
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_bound_is_never_tighter_than_the_reference(
        self, key, direction, unit, a_value, k_values, b_value, step
    ):
        text = (
            f"PATTERN SEQ(A a, K ks+, B b, D d) WITHIN 40 {unit} "
            f"USING SKIP_TILL_ANY RANK BY {key} {direction} LIMIT 1 "
            f"EMIT ON WINDOW CLOSE"
        )
        analyzed = analyze(parse_query(text), BOUND_REGISTRY)
        automaton = compile_automaton(analyzed)
        reads = Reads(analyzed, BOUND_REGISTRY)
        pruner = ScoreBoundPruner(analyzed, automaton, reads, lambda e: None)
        stages = automaton.stages
        clock = iter(range(100))

        def make(event_type, value):
            index = next(clock)
            made = Event(event_type, index * step, value=value)
            made.seq = index
            return made

        tracked = tracked_attrs_by_var(automaton.needed_aggregates)
        run = new_run(automaton, make("A", a_value), (), tracked)
        runs = [run]
        for value in k_values:
            run = run.extend_kleene(stages[1], make("K", value))
            runs.append(run)
        runs.append(run.close_kleene().bind_singleton(stages[2], make("B", b_value)))
        for run in runs:
            latest = run.last_ts + step
            compiled = pruner._optimistic(run, latest)
            interval = IntervalEvaluator(
                run.partial_view(BOUND_REGISTRY.domain_of, latest)
            ).bound(analyzed.rank_keys[0].expr)
            if compiled is None:
                continue
            assert interval is not None, (key, run.stage, run.kleene_open)
            d = analyzed.rank_keys[0].direction
            reference = normalise_bound(
                interval.lo if d is Direction.ASC else interval.hi, d
            )
            assert compiled <= reference or math.isnan(reference), (
                key, run.stage, run.kleene_open, compiled, reference
            )
