"""Tests for the skyline (Pareto-front) ranking extension."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import CEPREngine, Event
from repro.engine.match import Match
from repro.language.ast_nodes import Direction
from repro.language.errors import EvaluationError
from repro.ranking.skyline import dominates, pareto_front

DD = [Direction.DESC, Direction.DESC]


def make_match(index, *rank_values):
    match = Match(
        bindings={},
        first_seq=index,
        last_seq=index,
        first_ts=float(index),
        last_ts=float(index),
        detection_index=index,
    )
    match.rank_values = tuple(rank_values)
    return match


class TestDominates:
    def test_strict_domination(self):
        assert dominates((2, 2), (1, 1))

    def test_partial_improvement_dominates(self):
        assert dominates((2, 1), (1, 1))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 1), (1, 1))

    def test_tradeoff_is_incomparable(self):
        assert not dominates((2, 0), (0, 2))
        assert not dominates((0, 2), (2, 0))


class TestParetoFront:
    def test_front_of_tradeoffs(self):
        matches = [
            make_match(0, 10.0, 1.0),
            make_match(1, 5.0, 5.0),
            make_match(2, 1.0, 10.0),
            make_match(3, 4.0, 4.0),  # dominated by (5, 5)
        ]
        front = pareto_front(matches, DD)
        assert [m.detection_index for m in front] == [0, 1, 2]

    def test_directions_respected(self):
        # profit DESC, duration ASC: (10, 1) beats (5, 5)
        matches = [make_match(0, 10.0, 1.0), make_match(1, 5.0, 5.0)]
        front = pareto_front(matches, [Direction.DESC, Direction.ASC])
        assert [m.detection_index for m in front] == [0]

    def test_duplicates_all_kept(self):
        matches = [make_match(0, 3.0, 3.0), make_match(1, 3.0, 3.0)]
        assert len(pareto_front(matches, DD)) == 2

    def test_empty_input(self):
        assert pareto_front([], DD) == []

    def test_single_criterion_is_max(self):
        matches = [make_match(i, float(i)) for i in range(5)]
        front = pareto_front(matches, [Direction.DESC])
        assert [m.detection_index for m in front] == [4]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="directions"):
            pareto_front([make_match(0, 1.0)], DD)

    def test_non_numeric_rejected(self):
        bad = make_match(0, "oops", 1.0)
        with pytest.raises(EvaluationError, match="numeric"):
            pareto_front([bad], DD)

    def test_accepts_compiled_rank_keys(self):
        engine = CEPREngine()
        handle = engine.register_query(
            """
            PATTERN SEQ(Buy b, Sell s)
            WHERE b.symbol == s.symbol
            WITHIN 100 EVENTS
            USING SKIP_TILL_ANY
            RANK BY s.price - b.price DESC, duration() ASC
            EMIT ON WINDOW CLOSE
            """
        )
        engine.run(
            [
                Event("Buy", 1.0, symbol="X", price=10.0),
                Event("Sell", 2.0, symbol="X", price=20.0),   # profit 10, dur 1
                Event("Buy", 3.0, symbol="X", price=10.0),
                Event("Sell", 9.0, symbol="X", price=25.0),   # profit 15, dur 6 / 8
            ]
        )
        front = pareto_front(handle.matches(), handle.analyzed.rank_keys)
        profits = sorted(m.rank_values[0] for m in front)
        assert 15.0 in profits       # best profit is always on the front
        assert 10.0 in profits       # best duration trade-off survives too

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_front_invariants(self, vectors):
        matches = [make_match(i, float(a), float(b)) for i, (a, b) in enumerate(vectors)]
        front = pareto_front(matches, DD)
        front_vectors = [(m.rank_values[0], m.rank_values[1]) for m in front]
        # 1. mutually non-dominated
        for i, a in enumerate(front_vectors):
            for j, b in enumerate(front_vectors):
                if i != j:
                    assert not dominates(a, b) or a == b
        # 2. everything off the front is dominated by someone on it (or a duplicate)
        front_ids = {m.detection_index for m in front}
        for match in matches:
            if match.detection_index in front_ids:
                continue
            vector = (match.rank_values[0], match.rank_values[1])
            assert any(
                dominates(fv, vector) or fv == vector for fv in front_vectors
            )

