"""Property-based fuzzing of cross-query sharing.

Hypothesis generates families of query variants that differ only in ways
canonicalization must erase — renamed bindings, permuted conjuncts,
flipped comparison operands — plus controlled constant tweaks that must
NOT be erased.  Two properties hold for every generated family:

(a) **dedupe**: the shared index holds exactly one stage-0 gate entry
    per semantically distinct gate (one per distinct threshold constant),
    no matter how many spellings register it; and
(b) **equivalence**: the shared engine's per-query emissions are
    identical — same order, same stream points, same rankings — to one
    independent engine per query.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import CEPREngine
from repro.events.event import Event
from repro.language.fingerprint import predicate_fingerprint
from repro.language.parser import parse_query
from repro.language.ast_nodes import split_conjuncts

NAME_POOL = ["a", "b", "x", "y", "first", "second"]
THRESHOLDS = [10, 25, 40]


@st.composite
def variants(draw):
    """One query variant: names, conjunct order, flips, and a threshold."""
    v1 = draw(st.sampled_from(NAME_POOL))
    v2 = draw(st.sampled_from([n for n in NAME_POOL if n != v1]))
    threshold = draw(st.sampled_from(THRESHOLDS))
    flip_eq = draw(st.booleans())
    flip_gt = draw(st.booleans())
    flip_const = draw(st.booleans())
    conjuncts = [
        f"{v1}.g == {v2}.g" if not flip_eq else f"{v2}.g == {v1}.g",
        f"{v2}.v > {v1}.v" if not flip_gt else f"{v1}.v < {v2}.v",
        f"{v1}.v > {threshold}" if not flip_const else f"{threshold} < {v1}.v",
    ]
    order = draw(st.permutations(range(3)))
    where = " AND ".join(conjuncts[i] for i in order)
    query = (
        f"PATTERN SEQ(A {v1}, B {v2}) "
        f"WHERE {where} "
        f"WITHIN 30 EVENTS "
        f"RANK BY {v2}.v - {v1}.v DESC LIMIT 3 "
        f"EMIT ON WINDOW CLOSE"
    )
    return query, threshold


event_streams = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C"]),
        st.integers(min_value=0, max_value=60),  # v
        st.integers(min_value=0, max_value=2),  # g
    ),
    min_size=0,
    max_size=120,
)


def build_events(specs):
    return [
        Event(kind, float(index), v=value, g=group)
        for index, (kind, value, group) in enumerate(specs)
    ]


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


class TestFingerprintDedupe:
    @given(family=st.lists(variants(), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_one_entry_per_distinct_threshold(self, family):
        """(a) the index size tracks semantics, not spelling."""
        engine = CEPREngine()
        for index, (query, _threshold) in enumerate(family):
            engine.register_query(query, name=f"q{index}")
        assert engine.shared is not None
        # The stage-0 gate tests only the threshold comparison; the
        # equality and cross-variable conjuncts join both variables.
        distinct = {threshold for _query, threshold in family}
        assert len(engine.shared.refcounts()) == len(distinct)

    @given(first=variants(), second=variants())
    @settings(max_examples=50, deadline=None)
    def test_fingerprints_blind_to_spelling(self, first, second):
        """Alpha-renaming, flips, and permutations never split an entry;
        distinct constants always do."""

        def threshold_fingerprint(query_text, anchor_hint):
            ast = parse_query(query_text)
            for conjunct in split_conjuncts(ast.where):
                fp = predicate_fingerprint(conjunct, anchor_hint(ast))
                if fp is not None:
                    return fp
            raise AssertionError("no self-contained conjunct found")

        def first_var(ast):
            return ast.pattern[0].variable

        fp1 = threshold_fingerprint(first[0], first_var)
        fp2 = threshold_fingerprint(second[0], first_var)
        assert (fp1 == fp2) == (first[1] == second[1])


class TestEmissionEquivalence:
    @given(
        family=st.lists(variants(), min_size=1, max_size=5),
        specs=event_streams,
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_equals_independent(self, family, specs):
        """(b) byte-identical per-query output under arbitrary variants."""
        shared_engine = CEPREngine(shared_execution=True)
        shared_handles = [
            shared_engine.register_query(query, name=f"q{index}")
            for index, (query, _t) in enumerate(family)
        ]
        for event in build_events(specs):
            shared_engine.push(event)
        shared_engine.flush()

        for index, (query, _t) in enumerate(family):
            solo = CEPREngine(shared_execution=False)
            handle = solo.register_query(query, name=f"q{index}")
            for event in build_events(specs):
                solo.push(event)
            solo.flush()
            assert [emission_fp(e) for e in shared_handles[index].results()] == [
                emission_fp(e) for e in handle.results()
            ], query
