"""The sliding scope's k-skyband against the list-and-sort scope it replaced.

``ListAndSortRanking`` below is that scope verbatim: every live match in
one list, expired as a prefix of the insertion order, sorted on every
``ranking()``.  It is the oracle for two suites:

* random insert / expire / ``ranking()`` / checkpoint-restore sequences
  driven straight into the scope — completion points out of order (a
  pending match confirmed late), tied scores, NaN values (a scoring
  error: the match never reaches either scope), k in {1, 2, 3, None},
  count and time windows — equal after every step;
* whole queries with a trailing negation (so pendings confirm late) under
  ``EMIT EAGER`` and ``EMIT EVERY``, whose serialized emissions must equal
  a run with the oracle patched in — including a run resumed from a
  checkpoint written in the list-and-sort format.
"""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from repro import CEPREngine, Event
from repro.engine.match import Match
from repro.events.jsonsafe import decode_state, encode_state
from repro.language.ast_nodes import WindowKind, WindowSpec
from repro.language.errors import EvaluationError
from repro.language.parser import parse_query
from repro.language.semantics import analyze
from repro.ranking import ranker as ranker_module
from repro.ranking.ranker import Ranker
from repro.ranking.score import Scorer
from repro.ranking.topk import SlidingRanking
from repro.runtime.serialize import emission_to_line
from repro.workloads.stock import StockWorkload


class ListAndSortRanking:
    """All live matches, with sliding-window expiry and top-k snapshots.

    A match is *live* while the observation point is within the window span
    of its completion: for count windows, ``now_seq - last_seq < span``;
    for time windows, ``now_ts - last_ts <= span``.
    """

    def __init__(self, k: int | None, window: WindowSpec | None) -> None:
        self.k = k
        self.window = window
        self._live: list[Match] = []  # completion order (non-decreasing last_seq)
        self.expired = 0

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self):
        return iter(self._live)

    def insert(self, match: Match) -> None:
        self._live.append(match)

    def expire(self, now_seq: int, now_ts: float) -> int:
        """Drop matches whose completion left the window; returns count."""
        if self.window is None or not self._live:
            return 0
        if self.window.kind is WindowKind.COUNT:
            span = int(self.window.span)
            alive_from = 0
            for alive_from, match in enumerate(self._live):  # noqa: B007
                if now_seq - match.last_seq < span:
                    break
            else:
                alive_from = len(self._live)
        else:
            seconds = self.window.span
            alive_from = 0
            for alive_from, match in enumerate(self._live):  # noqa: B007
                if now_ts - match.last_ts <= seconds:
                    break
            else:
                alive_from = len(self._live)
        dropped = alive_from
        if dropped:
            self._live = self._live[alive_from:]
            self.expired += dropped
        return dropped

    def ranking(self) -> list[Match]:
        """Best-first snapshot of the current top-k among live matches."""
        ordered = sorted(self._live, key=Match.sort_key)
        if self.k is not None:
            return ordered[: self.k]
        return ordered


def list_and_sort_scope_state(self, encode):
    """``_SlidingRanker._scope_state`` as it wrote the list-and-sort scope."""
    return {
        "live": [encode(m) for m in self._sliding],
        "expired": self._sliding.expired,
        "last_snapshot": [encode(m) for m in self._last_snapshot],
        "events_since_emit": self._events_since_emit,
        "last_emit_ts": self._last_emit_ts,
    }


def ids(matches):
    return [match.detection_index for match in matches]


def canonical(state):
    """A state as a checkpoint file holds it (NaN never equals itself)."""
    return encode_state(state)


def through_json(state):
    """What a checkpoint file gives back."""
    return decode_state(canonical(state))


# -- the scope alone ------------------------------------------------------------

NAN = float("nan")


@st.composite
def scope_cases(draw):
    unit = draw(st.sampled_from(["EVENTS", "SECONDS"]))
    span = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.sampled_from([1, 2, 3, None]))
    direction = draw(st.sampled_from(["ASC", "DESC"]))
    values = [0.0, 1.0, 2.0, 3.0]  # few values: ties are common
    if draw(st.booleans()):
        values.append(NAN)
    value = st.sampled_from(values)
    insert = st.tuples(
        st.just("insert"),
        value,
        value,
        st.integers(min_value=0, max_value=4),  # how late, in events
        st.sampled_from([0.0, 0.5, 1.5, 4.0]),  # how late, in seconds
    )
    op = st.one_of(
        insert,
        insert,
        st.tuples(
            st.just("advance"),
            st.integers(min_value=0, max_value=3),
            st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        ),
        st.just(("restore",)),
    )
    ops = draw(st.lists(op, min_size=1, max_size=60))
    inserts = sum(1 for o in ops if o[0] == "insert")
    # Detection order is not insertion order: a pending confirmed late
    # was detected before matches inserted ahead of it.
    detection = draw(st.permutations(range(inserts)))
    limit = "" if k is None else f"LIMIT {k}"
    query = (
        f"PATTERN SEQ(A a) WITHIN {span} {unit} "
        f"RANK BY a.x {direction}, a.y ASC {limit} EMIT EAGER"
    )
    return query, ops, detection


class TestSkybandAgainstListAndSort:
    @given(scope_cases())
    @settings(max_examples=400, deadline=None)
    def test_random_sequences(self, case):
        query, ops, detection = case
        analyzed = analyze(parse_query(query))
        scorer = Scorer(analyzed.rank_keys)
        ranker = Ranker(analyzed, scorer)
        oracle = ListAndSortRanking(analyzed.limit, analyzed.window)
        now_seq, now_ts = 0, 0.0
        inserted = drawn = 0
        for op in ops:
            if op[0] == "insert":
                _, x, y, late_seq, late_ts = op
                a = Event("A", max(0.0, now_ts - late_ts), x=x, y=y)
                a.seq = max(0, now_seq - late_seq)
                match = Match(
                    bindings={"a": a},
                    first_seq=a.seq,
                    last_seq=a.seq,
                    first_ts=a.timestamp,
                    last_ts=a.timestamp,
                    detection_index=detection[drawn],
                    query_name="q",
                )
                drawn += 1
                try:
                    scorer.score(match)
                except EvaluationError:
                    event("NaN key: a scoring error")
                    continue
                ranker._sliding.insert(match)
                oracle.insert(match)
                inserted += 1
                if late_seq or late_ts:
                    event("late insert")
            elif op[0] == "advance":
                now_seq += op[1]
                now_ts += op[2]
                ranker._sliding.expire(now_seq, now_ts)
                oracle.expire(now_seq, now_ts)
            else:
                fresh = Ranker(analyzed, scorer)
                fresh.restore(through_json(ranker.snapshot()))
                assert canonical(fresh.snapshot()) == canonical(ranker.snapshot())
                ranker = fresh
                event("restored")

            scope = ranker._sliding
            held = [match for match, _stamp in scope.held()]
            live = list(oracle)
            assert scope.expired + scope.dominated + len(scope) == inserted
            assert (len(scope) == 0) == (len(live) == 0)
            # The band is the live list minus matches that can no longer place.
            assert ids(held) == [i for i in ids(live) if i in set(ids(held))]
            if scope.dominated:
                event("dominated drops")
            assert ids(scope.ranking()) == ids(oracle.ranking())

    @pytest.mark.parametrize("unit", ["EVENTS", "SECONDS"])
    def test_stamp_is_the_running_maximum(self, unit):
        """A match confirmed late leaves with the match inserted before it."""
        window = WindowSpec(WindowKind.COUNT if unit == "EVENTS" else WindowKind.TIME, 3)
        scope = SlidingRanking(2, window)

        def match(score, index, point):
            return Match({}, point, point, float(point), float(point), (), index, (score,))

        scope.insert(match(2.0, 0, 5))
        scope.insert(match(1.0, 1, 1))  # late, and best
        assert [stamp for _m, stamp in scope.held()] == [5, 5]
        scope.expire(6, 6.0)  # its own point is out of the window, 5 is not
        assert ids(scope.ranking()) == [1, 0]
        scope.expire(8, 8.5)
        assert len(scope) == 0 and scope.expired == 2

    @pytest.mark.parametrize("lenient", [False, True])
    def test_incomparable_keys_are_a_scoring_error(self, lenient):
        """A string key meeting a number key has no order: a typed error,
        raised when strict; counted, and the incoming match dropped, when
        lenient."""
        engine = CEPREngine(lenient_errors=lenient)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x ASC LIMIT 2 EMIT EAGER",
            name="q",
        )
        events = [Event("A", float(i), x=x) for i, x in enumerate([1.0, "b", 0.5])]
        if not lenient:
            with pytest.raises(EvaluationError, match="mixed kinds"):
                engine.run(events)
            return
        engine.run(events)
        assert handle.ranker.scoring_errors == 1
        assert [m.rank_values for m in handle.results()[-1].ranking] == [(0.5,), (1.0,)]


# -- whole queries ------------------------------------------------------------------

NEGATED = """
    PATTERN SEQ(Buy b, Sell s, NOT Buy n)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN {window}
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price {direction}
    {limit}
    EMIT {emit}
"""

QUERIES = {
    "eager": dict(window="60 EVENTS", direction="DESC", limit="LIMIT 5", emit="EAGER"),
    "every": dict(
        window="60 EVENTS", direction="DESC", limit="LIMIT 3", emit="EVERY 7 EVENTS"
    ),
    "eager-time": dict(
        window="0.6 SECONDS", direction="ASC", limit="LIMIT 2", emit="EAGER"
    ),
    "every-time-unlimited": dict(
        window="0.4 SECONDS", direction="DESC", limit="", emit="EVERY 0.25 SECONDS"
    ),
}


def stock(seed, count=1500):
    workload = StockWorkload(seed=seed)
    return list(workload.events(count)), workload.registry()


def start(query, registry, state=None, sanitize=None):
    engine = CEPREngine(registry=registry, sanitize=sanitize)
    handle = engine.register_query(query, name="q")
    if state is not None:
        engine.restore(state)
    return engine, handle


def lines(handle):
    return [emission_to_line(emission) for emission in handle.results()]


def held(engine):
    return [(m.detection_index, s) for m, s in engine.query("q").ranker._sliding.held()]


def list_and_sort():
    """Patch the oracle in as the sliding scope.  The sanitizer's shadow
    reads the skyband's own state, so oracle engines run without it."""
    return mock.patch.object(ranker_module, "SlidingRanking", ListAndSortRanking)


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("seed", [2016, 7])
class TestWholeQueries:
    def test_emissions_equal_the_list_and_sort_run(self, name, seed):
        query = NEGATED.format(**QUERIES[name])
        events, registry = stock(seed)
        engine, handle = start(query, registry)
        engine.run(events)
        with list_and_sort():
            reference, reference_handle = start(query, registry, sanitize=False)
            reference.run(stock(seed)[0])
        assert lines(handle) == lines(reference_handle)
        assert len(lines(handle)) > 5

    def test_a_list_and_sort_checkpoint_resumes_byte_identically(self, name, seed):
        """A checkpoint holding every live match and no stamps restores to
        the band an uninterrupted run holds, and continues identically."""
        query = NEGATED.format(**QUERIES[name])
        events, registry = stock(seed)
        half = len(events) // 2
        engine, handle = start(query, registry)
        engine.run(events[:half], flush=False)
        band = held(engine)
        engine.run(events[half:])

        events = stock(seed)[0]
        with list_and_sort(), mock.patch.object(
            ranker_module._SlidingRanker, "_scope_state", list_and_sort_scope_state
        ):
            before, before_handle = start(query, registry, sanitize=False)
            before.run(events[:half], flush=False)
            state = through_json(before.snapshot())
        assert "stamps" not in state["queries"]["q"]["ranker"]
        after, after_handle = start(query, registry, state=state)
        assert held(after) == band
        after.run(events[half:])
        assert lines(before_handle) + lines(after_handle) == lines(handle)
