"""Detection power: every sanitizer check catches its seeded defect.

Each test injects one representative bug of the class the check guards
against — an unsound interval evaluator, a completing-edge cut that
skips ties (on a singleton or a trailing Kleene final stage), a compiled
score bound one ulp too tight, a fixed-optimum claim on a shape whose
optimum moves, a broken top-k insert,
a sliding k-skyband that drops a match one dominator early or expires it
by its own completion point, run dominance that drops a run one dominator
early or takes a ``max``-only lead for a strict one, a refcount leak, a
restore that does not re-admit a dormant query to its partitions, a
threshold index that reads ``>`` as ``>=`` or outlives an UNREGISTER, a
run reader that swaps the operands of ``>`` or reads a bound variable off
the candidate event, a lock-order inversion, a cross-thread mutation, a lossy restore, a rewound
sequencer, a stale activity cache, a partition kept after its last run
left, a blocked event loop — and asserts the
corresponding trip fires.  Together with the
clean-run zero-trip assertions (and the whole suite running under
``CEPR_SANITIZE=1`` in CI), this is the evidence the sanitizer detects
real defects without false positives.
"""

import asyncio
import dataclasses
import math
import operator
import random
import threading
import time

import pytest

from repro import CEPREngine, Event
from repro.engine import matcher as matcher_module
from repro.engine.matcher import PatternMatcher
from repro.events.schema import AttributeSpec, EventSchema, SchemaRegistry
from repro.language import semantics
from repro.language.intervals import Interval, IntervalEvaluator
from repro.ranking.pruning import ScoreBoundPruner, _Shape
from repro.ranking.topk import EpochTopK, SlidingRanking
from repro.language.ast_nodes import AttrRef, BinaryOp
from repro.runtime import router as router_module
from repro.runtime.router import EventRouter, SharedExecutionIndex
from repro.sanitize import Sanitizer, SanitizerError
from repro.sanitize.aio import LoopStallWatchdog
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload

RANKED = """
    PATTERN SEQ(A a)
    WITHIN 5 EVENTS
    RANK BY a.x DESC
    LIMIT 2
    EMIT ON WINDOW CLOSE
"""

PAIR = """
    PATTERN SEQ(A a, B b)
    WHERE a.x > 0
    WITHIN 10 EVENTS
    RANK BY b.x DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""

KEYED_PAIR = """
    PATTERN SEQ(A a, B b)
    WHERE a.x > 0 AND a.k == b.k
    WITHIN 10 EVENTS
    PARTITION BY k
    RANK BY b.x DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""

PRUNED = """
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 40 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""


SLIDING = """
    PATTERN SEQ(Buy b, Sell s{negation})
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 60 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT {emit}
"""


class TIED:
    """Small integer values: ties on the primary key are common, and the
    secondary key decides between them."""

    query = """
        PATTERN SEQ(A a, B b)
        WITHIN 12 EVENTS
        USING SKIP_TILL_ANY
        RANK BY b.value - a.value DESC, a.value DESC
        LIMIT 2
        EMIT ON WINDOW CLOSE
    """
    kleene = """
        PATTERN SEQ(A a, B bs+)
        WITHIN 12 EVENTS
        USING SKIP_TILL_ANY
        RANK BY max(bs.value) DESC, a.value DESC
        LIMIT 2
        EMIT ON WINDOW CLOSE
    """
    registry = SchemaRegistry(
        [
            EventSchema("A", (AttributeSpec("value", "int"),)),
            EventSchema("B", (AttributeSpec("value", "int"),)),
        ]
    )

    @staticmethod
    def events():
        rng = random.Random(4)
        return [
            Event(rng.choice("AB"), float(i), value=rng.randint(0, 4))
            for i in range(300)
        ]


def fixed_optimum_trips(key):
    """The handle and ``score-bound`` trips of a trailing-Kleene query
    ranked by ``key`` over vitals."""
    workload = VitalsWorkload(seed=11, anomaly_rate=0.2, episode_length=16, patients=4)
    engine = log_engine(registry=workload.registry())
    handle = engine.register_query(
        DOMINANCE.replace("max(spikes.value) DESC, count(spikes) DESC", key)
    )
    engine.run(workload.events(1200))
    return handle, engine.sanitizer.trips["score-bound"]


def log_engine(**kwargs):
    """A sanitized engine whose trips count instead of raising."""
    engine = CEPREngine(sanitize=True, **kwargs)
    engine.sanitizer._mode = "log"
    return engine


def stream(n, start=1):
    return [Event("A", float(ts), x=ts) for ts in range(start, start + n)]


class TestScoreBound:
    def test_unsound_interval_evaluator_trips(self, monkeypatch):
        # Seeded defect: the evaluator claims every numeric expression is
        # exactly 0 — the justification score-bound pruning trusts is now
        # unsound, and emitted scores escape their interval.
        monkeypatch.setattr(
            IntervalEvaluator, "bound", lambda self, expr: Interval(0.0, 0.0)
        )
        workload = StockWorkload(seed=11)
        engine = log_engine(registry=workload.registry())
        engine.register_query(PRUNED)
        engine.run(workload.events(400))
        engine.flush()
        assert engine.sanitizer.trips["score-bound"] > 0

    def test_sound_evaluator_is_quiet(self):
        workload = StockWorkload(seed=11)
        engine = log_engine(registry=workload.registry())
        engine.register_query(PRUNED)
        engine.run(workload.events(400))
        engine.flush()
        assert engine.sanitizer.total_trips == 0

    def test_cut_that_skips_ties_trips(self, monkeypatch):
        # Seeded defect: the completing-edge cut compares with ``>=``.
        # Lowering θ by one ulp makes ``value > θ`` exactly ``value >= θ``,
        # so a completion tying the k-th primary is skipped — and with a
        # better secondary key the epoch's top-k would have kept it.
        cut_theta = PatternMatcher._cut_theta

        def skips_ties(self, epoch):
            theta = cut_theta(self, epoch)
            return None if theta is None else math.nextafter(theta, -math.inf)

        monkeypatch.setattr(PatternMatcher, "_cut_theta", skips_ties)
        engine = log_engine(registry=TIED.registry)
        handle = engine.register_query(TIED.query)
        engine.run(TIED.events())
        assert handle.matcher.stats.completions_skipped > 0
        assert engine.sanitizer.trips["score-bound"] > 0

    def test_strict_cut_is_quiet(self):
        engine = log_engine(registry=TIED.registry)
        handle = engine.register_query(TIED.query)
        engine.run(TIED.events())
        assert handle.matcher.stats.completions_skipped > 0
        assert engine.sanitizer.total_trips == 0

    def test_kleene_cut_that_skips_ties_trips(self, monkeypatch):
        # Seeded defect: the same ``>=`` on a trailing Kleene stage, whose
        # prefix completions are cut from the run's registers: a prefix
        # tying the k-th max is skipped, though a better secondary key
        # would have kept it.
        cut_theta = PatternMatcher._cut_theta

        def skips_ties(self, epoch):
            theta = cut_theta(self, epoch)
            return None if theta is None else math.nextafter(theta, -math.inf)

        monkeypatch.setattr(PatternMatcher, "_cut_theta", skips_ties)
        engine = log_engine(registry=TIED.registry)
        handle = engine.register_query(TIED.kleene)
        engine.run(TIED.events())
        assert handle.matcher.stats.completions_skipped > 0
        assert engine.sanitizer.trips["score-bound"] > 0

    def test_strict_kleene_cut_is_quiet(self):
        engine = log_engine(registry=TIED.registry)
        handle = engine.register_query(TIED.kleene)
        engine.run(TIED.events())
        assert handle.matcher.stats.completions_skipped > 0
        assert engine.sanitizer.total_trips == 0

    def test_fixed_optimum_claim_on_max_asc_trips(self, monkeypatch):
        # Seeded defect: an open max(V.a) counts as fixed at either end.
        # Under ASC its optimistic end is the run's own maximum, so the
        # matcher stops offering runs the pruner would drop.
        fixed = _Shape.fixed
        monkeypatch.setattr(
            _Shape, "fixed", lambda self, expr, hi: fixed(self, expr, hi) or fixed(self, expr, not hi)
        )
        handle, trips = fixed_optimum_trips("max(spikes.value) ASC")
        assert (1, True) in handle.matcher.fixed_shapes
        assert handle.pruner.stats.attempts == 0 and trips > 0

    @pytest.mark.parametrize(
        "key, shapes",
        [("max(spikes.value) DESC", {(1, False), (1, True)}),
         ("min(spikes.value) ASC", {(1, False), (1, True)}),
         ("max(spikes.value) ASC", {(1, False)})],
    )
    def test_fixed_optimum_is_quiet(self, key, shapes):
        handle, trips = fixed_optimum_trips(key)
        assert handle.matcher.fixed_shapes == shapes
        assert trips == 0

    def test_compiled_bound_one_ulp_too_tight_trips(self, monkeypatch):
        # Seeded defect: the compiled shape bound claims an optimistic key
        # one ulp worse than the interval evaluator's — it could prune a
        # run whose completion ties the k-th score.
        optimistic = ScoreBoundPruner._optimistic

        def too_tight(self, run, latest_ts):
            best = optimistic(self, run, latest_ts)
            return None if best is None else math.nextafter(best, math.inf)

        monkeypatch.setattr(ScoreBoundPruner, "_optimistic", too_tight)
        workload = StockWorkload(seed=11)
        engine = log_engine(registry=workload.registry())
        engine.register_query(PRUNED)
        engine.run(workload.events(400))
        assert engine.sanitizer.trips["score-bound"] > 0


class TestRankingOrder:
    def test_broken_topk_insert_trips(self, monkeypatch):
        # Seeded defect: insert appends in arrival order and never evicts,
        # so emitted rankings are unsorted and overflow LIMIT.
        def broken_insert(self, match):
            self._keys.append(match.sort_key())
            self._matches.append(match)
            return True

        monkeypatch.setattr(EpochTopK, "insert", broken_insert)
        engine = log_engine()
        engine.register_query(RANKED)
        engine.run(stream(12))
        engine.flush()
        assert engine.sanitizer.trips["ranking-order"] > 0


def sliding_trips(query):
    """``ranking-order`` trips of one sliding query over a stock stream."""
    workload = StockWorkload(seed=11)
    engine = log_engine(registry=workload.registry())
    engine.register_query(query)
    engine.run(workload.events(1500))
    return engine.sanitizer.trips["ranking-order"]


class TestSlidingSkyband:
    def test_dropping_at_k_minus_one_dominators_trips(self, monkeypatch):
        # Seeded defect: a match leaves the band once k-1 better matches
        # completed after it — one short of what keeps it out of the top k.
        dominate = SlidingRanking._dominate
        monkeypatch.setattr(
            SlidingRanking, "_dominate", lambda self, index, k: dominate(self, index, k - 1)
        )
        assert sliding_trips(SLIDING.format(negation="", emit="EAGER")) > 0

    def test_own_completion_point_as_stamp_trips(self, monkeypatch):
        # Seeded defect: each match expires by its own completion point, not
        # the running maximum.  A pending confirmed late then leaves before
        # matches inserted ahead of it — only a trailing negation shows it.
        monkeypatch.setattr(SlidingRanking, "_stamp", lambda self, point: point)
        assert sliding_trips(SLIDING.format(negation="", emit="EAGER")) == 0
        assert sliding_trips(SLIDING.format(negation=", NOT Buy n", emit="EAGER")) > 0

    @pytest.mark.parametrize("emit", ["EAGER", "EVERY 5 EVENTS"])
    @pytest.mark.parametrize("negation", ["", ", NOT Buy n"])
    def test_skyband_is_quiet(self, negation, emit):
        assert sliding_trips(SLIDING.format(negation=negation, emit=emit)) == 0


DOMINANCE = """
    PATTERN SEQ(HeartRate onset, HeartRate spikes+)
    WHERE onset.value > 90 AND spikes.value > 90
    WITHIN 40 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY patient
    RANK BY max(spikes.value) DESC, count(spikes) DESC
    LIMIT 2
    EMIT ON WINDOW CLOSE
"""


def dominance_trips(monkeypatch=None, defect=None):
    """(runs dropped, ``score-bound`` trips) of run dominance over vitals,
    with ``defect`` rewriting the armed :class:`RunDominance` first."""
    if defect is not None:
        dominate = PatternMatcher._dominate
        monkeypatch.setattr(
            PatternMatcher,
            "_dominate",
            lambda self, runs, event, armed: dominate(self, runs, event, defect(armed)),
        )
    workload = VitalsWorkload(seed=11, anomaly_rate=0.2, episode_length=16, patients=4)
    engine = log_engine(registry=workload.registry())
    handle = engine.register_query(DOMINANCE)
    engine.run(workload.events(1200))
    return handle.matcher.stats.runs_dominated, engine.sanitizer.trips["score-bound"]


class TestRunDominance:
    def test_dropping_at_k_minus_one_dominators_trips(self, monkeypatch):
        # Seeded defect: a run leaves once k-1 others dominate it — one
        # short of what keeps every future of it out of the top k.
        dropped, trips = dominance_trips(
            monkeypatch, lambda armed: dataclasses.replace(armed, k=armed.k - 1)
        )
        assert dropped > 0 and trips > 0

    def test_non_strict_dominance_on_a_max_only_tie_trips(self, monkeypatch):
        # Seeded defect: every component counts as strict, so a run that
        # ties on count(spikes) and leads only on max(spikes.value) — a lead
        # one shared future spike erases — is taken for a dominator.
        dropped, trips = dominance_trips(
            monkeypatch, lambda armed: dataclasses.replace(armed, strict=len(armed.components))
        )
        assert dropped > 0 and trips > 0

    def test_counting_runs_of_the_same_head_trips(self, monkeypatch):
        # Seeded defect: the sweep counts every kept run no worse in every
        # component, its own head group included — so a run that ties on
        # count(spikes) and leads at most on max(spikes.value), or ties
        # outright, is taken for a dominator and too many runs go.
        def counts_same_head(vectors, k, strict, nan_test):
            kept, doomed = [], []
            for index in sorted(range(len(vectors)), key=vectors.__getitem__):
                vector = vectors[index]
                if sum(all(map(operator.le, other, vector)) for other in kept) >= k:
                    doomed.append(index)
                else:
                    kept.append(vector)
            return doomed

        clean_dropped, _ = dominance_trips()
        monkeypatch.setattr(matcher_module, "dominated", counts_same_head)
        dropped, trips = dominance_trips()
        assert dropped > clean_dropped and trips > 0

    def test_skyband_is_quiet(self):
        dropped, trips = dominance_trips()
        assert dropped > 0 and trips == 0


def reader_trips(query=PRUNED):
    """``run-reader`` trips of the stock query over 400 events."""
    workload = StockWorkload(seed=11)
    engine = log_engine(registry=workload.registry())
    engine.register_query(query)
    engine.run(workload.events(400))
    return engine.sanitizer.trips["run-reader"]


class TestRunReader:
    def test_guard_reader_swapping_the_operands_of_gt_trips(self, monkeypatch):
        # Seeded defect: the reader compiler reads ``x > y`` as ``y > x``,
        # so the guard ``s.price > b.price`` binds the sells it should not.
        monkeypatch.setitem(semantics._READ_OPS, BinaryOp.GT, operator.lt)
        assert reader_trips() > 0

    def test_reader_reading_the_candidate_for_a_bound_variable_trips(self, monkeypatch):
        # Seeded defect: a join's right-hand side is read off the candidate
        # event, not the run's binding — ``s.price > b.price`` compares the
        # sell with itself.
        fuse = semantics._fuse_attr

        def reads_the_candidate(op, left, right, current, accepts):
            if left.var == current and isinstance(right, AttrRef):
                attr, other = left.attr, right.attr
                return lambda held, event: op(event.payload[attr], event.payload[other])
            return fuse(op, left, right, current, accepts)

        monkeypatch.setattr(semantics, "_fuse_attr", reads_the_candidate)
        assert reader_trips() > 0

    def test_score_reader_on_an_eager_query_trips(self, monkeypatch):
        # Seeded defect: the scorer's reader adds where the key subtracts.
        monkeypatch.setitem(semantics._READ_OPS, BinaryOp.SUB, operator.add)
        assert reader_trips(PRUNED.replace("ON WINDOW CLOSE", "EAGER")) > 0

    def test_readers_are_quiet(self):
        assert reader_trips() == 0
        assert reader_trips(PRUNED.replace("ON WINDOW CLOSE", "EAGER")) == 0


class TestSharedIndexCoherence:
    def test_refcount_leak_after_unregister_trips(self, monkeypatch):
        # Seeded defect: UNREGISTER forgets to release index entries.
        monkeypatch.setattr(
            SharedExecutionIndex, "remove_query", lambda self, query: None
        )
        engine = log_engine()
        engine.register_query(PAIR, name="q1")
        engine.register_query(PAIR, name="q2")  # joins q1's group
        engine.unregister_query("q1")
        engine.unregister_query("q2")  # the group's pipeline leaves the router
        assert engine.sanitizer.trips["shared-index-coherence"] > 0

    def test_clean_churn_is_quiet(self):
        engine = log_engine()
        for round_ in range(3):
            engine.register_query(PAIR, name=f"q{round_}")
        for round_ in range(3):
            engine.unregister_query(f"q{round_}")
        assert engine.sanitizer.total_trips == 0
        assert engine.shared.is_empty()

    def test_restore_without_readmission_trips(self, monkeypatch):
        # Seeded defect: a restore that forgets to wake the dormant queries
        # hands one runs in partition p without indexing it there — events
        # of p are not offered to it, so the runs would silently never
        # extend.
        monkeypatch.setattr(EventRouter, "wake_all", EventRouter.settle)
        donor = CEPREngine(sanitize=False)
        donor.register_query(KEYED_PAIR, name="q")
        donor.push(Event("A", 1.0, x=5, k="p"))  # opens a run in p
        engine = log_engine()
        dormant = engine.register_query(KEYED_PAIR, name="q")
        engine.push(Event("A", 1.0, x=-1, k="p"))  # gate shut: goes dormant
        assert list(engine._router._dormant) == [dormant.pipeline]
        assert engine.sanitizer.total_trips == 0
        engine.restore(donor.snapshot())
        engine.push(Event("A", 2.0, x=-1, k="q"))
        assert engine.sanitizer.trips["shared-index-coherence"] > 0

    def test_dormant_holders_are_quiet(self):
        # A dormant query holding runs is legal while it is indexed under
        # their partition; a completed match wakes it for every event.
        engine = log_engine()
        handle = engine.register_query(KEYED_PAIR, name="q")
        engine.push(Event("A", 1.0, x=-1, k="p"))  # dormant
        engine.push(Event("A", 2.0, x=5, k="q"))  # a run in q, still dormant
        engine.push(Event("B", 3.0, x=1, k="r"))  # not offered
        assert list(engine._router._dormant) == [handle.pipeline]
        engine.push(Event("B", 4.0, x=1, k="q"))  # completes: the ranker holds it
        assert not engine._router._dormant
        engine.push(Event("A", 5.0, x=-1, k="s"))  # proves itself inert again
        engine.restore(engine.snapshot())
        assert engine.sanitizer.total_trips == 0

    def test_threshold_index_reading_gt_as_gte_trips(self, monkeypatch):
        # Seeded defect: the threshold index cuts ``a.x > 0`` as if it were
        # ``a.x >= 0``, so x == 0 reads as opening the gate.
        cuts = router_module._CUTS
        monkeypatch.setitem(cuts, BinaryOp.GT, cuts[BinaryOp.GTE])
        engine = log_engine()
        engine.register_query(PAIR, name="q")
        engine.push(Event("A", 1.0, x=-1))  # gate shut: goes dormant
        assert engine.sanitizer.total_trips == 0
        engine.push(Event("A", 2.0, x=0))
        assert engine.sanitizer.trips["shared-index-coherence"] > 0

    def test_threshold_index_stale_after_unregister_trips(self, monkeypatch):
        # Seeded defect: UNREGISTER leaves every type bucket's threshold
        # index as it was, still answering for the departed gates.
        remove = EventRouter.remove

        def stale_remove(self, query):
            kept = {name: bucket.thresholds for name, bucket in self._buckets.items()}
            remove(self, query)
            for name, thresholds in kept.items():
                if name in self._buckets:
                    self._buckets[name].thresholds = thresholds

        monkeypatch.setattr(EventRouter, "remove", stale_remove)
        engine = log_engine()
        engine.register_query(PAIR, name="q1")
        engine.register_query(PAIR.replace("a.x > 0", "a.x > 5"), name="q2")
        engine.push(Event("A", 1.0, x=-1))  # both gates shut: both dormant
        assert engine.sanitizer.total_trips == 0
        engine.unregister_query("q1")
        assert engine.sanitizer.trips["shared-index-coherence"] > 0

    def test_threshold_index_at_its_boundaries_is_quiet(self):
        engine = log_engine(lenient_errors=True)
        for name, op in (("gt", ">"), ("ge", ">="), ("lt", "<"), ("le", "<=")):
            engine.register_query(PAIR.replace("a.x > 0", f"a.x {op} 2"), name=name)
        for ts, x in enumerate((9, 2, 2.0, 1.5, 3, -0.0, 2, True, "2", float("nan"))):
            engine.push(Event("A", float(ts), x=x))
        engine.unregister_query("gt")
        engine.push(Event("A", 20.0, x=2))
        assert engine.sanitizer.total_trips == 0

    def test_sleeper_dropped_from_its_wake_list_trips(self):
        engine = log_engine()
        engine.register_query(PAIR, name="sleeper")
        engine.push(Event("A", 1.0, x=-1))
        (gate,) = engine._router._gates.values()
        gate.dormant.clear()  # seeded defect: nothing can wake it now
        engine.push(Event("B", 2.0, x=1))
        assert engine.sanitizer.trips["shared-index-coherence"] > 0


class TestQueryGroupCoherence:
    """A group's members are registered, its K covers their LIMITs, and
    it goes with its last member."""

    GROUPED = "PATTERN SEQ(A a, B b) WHERE a.x > 0 WITHIN 5 EVENTS RANK BY b.x DESC {} EMIT ON WINDOW CLOSE"

    def test_a_group_outliving_its_last_member_trips(self, monkeypatch):
        # Seeded defect: a pipeline stays routed after its last member leaves.
        monkeypatch.setattr(EventRouter, "remove", lambda self, pipeline: None)
        engine = log_engine()
        engine.register_query(self.GROUPED.format("LIMIT 1"), name="first")
        engine.register_query(self.GROUPED.format("LIMIT 2"), name="second")
        engine.unregister_query("first")
        assert engine.sanitizer.total_trips == 0
        engine.unregister_query("second")
        assert engine.sanitizer.trips["shared-index-coherence"] > 0

    def test_k_below_a_members_limit_trips(self, monkeypatch):
        # Seeded defect: a wider joiner does not widen the pipeline.
        from repro.runtime.query import Pipeline

        monkeypatch.setattr(Pipeline, "_widen", lambda self, analyzed: None)
        engine = log_engine()
        engine.register_query(self.GROUPED.format("LIMIT 1"), name="narrow")
        engine.register_query(self.GROUPED.format("LIMIT 3"), name="wide")
        assert engine.sanitizer.trips["shared-index-coherence"] > 0

    def test_groups_under_churn_are_quiet(self):
        engine = log_engine()
        for index, limit in enumerate(("LIMIT 2", "", "LIMIT 1", "LIMIT 3")):
            engine.register_query(self.GROUPED.format(limit), name=f"q{index}")
        assert len(engine._router) == 1
        for index in range(30):
            engine.push(Event("A" if index % 2 else "B", float(index), x=index % 7))
            if index == 10:
                engine.unregister_query("q0")
            if index == 20:
                engine.unregister_query("q1")
        engine.restore(engine.snapshot())
        for name in ("q2", "q3"):
            engine.unregister_query(name)
        assert engine.sanitizer.total_trips == 0
        assert engine.shared.is_empty()


class TestCrossThreadMutation:
    def test_unsynchronized_second_thread_trips(self):
        engine = log_engine()
        engine.push(Event("A", 1.0, x=1))  # main thread claims the engine

        def intrude():
            engine.push(Event("A", 2.0, x=2))

        worker = threading.Thread(target=intrude)
        worker.start()
        worker.join()
        assert engine.sanitizer.trips["cross-thread-mutation"] == 1

    def test_raise_mode_surfaces_in_the_intruding_thread(self):
        engine = CEPREngine(sanitize=True)  # default raise mode
        engine.push(Event("A", 1.0, x=1))
        caught = []

        def intrude():
            try:
                engine.push(Event("A", 2.0, x=2))
            except SanitizerError as exc:
                caught.append(exc)

        worker = threading.Thread(target=intrude)
        worker.start()
        worker.join()
        assert len(caught) == 1
        assert "cross-thread-mutation" in str(caught[0])


class TestSnapshotRoundTrip:
    def test_lossy_restore_trips(self, monkeypatch):
        # Seeded defect: the sequencer codec loses the assignment position.
        from repro.events.time import SequenceAssigner

        def lossy_restore(self, state):
            self._next_seq = 0
            self._last_timestamp = None

        engine = log_engine()
        engine.register_query(RANKED)
        engine.run(stream(4))
        monkeypatch.setattr(SequenceAssigner, "restore", lossy_restore)
        engine.snapshot()
        assert engine.sanitizer.trips["snapshot-roundtrip"] == 1

    def test_faithful_codec_is_quiet(self):
        engine = log_engine()
        engine.register_query(RANKED)
        engine.run(stream(4))
        engine.snapshot()
        assert engine.sanitizer.total_trips == 0


class TestSeqMonotonicity:
    def test_rewound_sequencer_trips(self):
        engine = log_engine()
        for event in stream(3):
            engine.push(event)
        engine._sequencer._next_seq = 0  # seeded defect: position rewinds
        engine.push(Event("A", 4.0, x=4))
        assert engine.sanitizer.trips["seq-monotonicity"] == 1


class TestMatcherActivityCache:
    def test_stale_cache_trips(self, monkeypatch):
        # Seeded defect: the O(1) activity caches are never updated, so
        # live_runs, pending_matches and peak_live_runs read stale counts.
        monkeypatch.setattr(
            PatternMatcher, "_note_activity", lambda self, *before: None
        )
        engine = log_engine()
        engine.register_query(PAIR)
        engine.push(Event("A", 1.0, x=1))  # starts a live run; cache says 0
        assert engine.sanitizer.trips["matcher-activity-cache"] > 0

    def test_drifted_cache_never_heals(self):
        # The caches move by per-partition deltas, so a wrong value stays
        # wrong: the recount is the only thing that can tell.
        engine = log_engine()
        handle = engine.register_query(PAIR)
        engine.push(Event("A", 1.0, x=1))
        assert engine.sanitizer.trips["matcher-activity-cache"] == 0
        handle.matcher._live_runs_cached += 1  # seeded drift
        engine.push(Event("A", 2.0, x=2))
        assert engine.sanitizer.trips["matcher-activity-cache"] > 0

    def test_partition_kept_empty_trips(self, monkeypatch):
        # Seeded defect: a partition its last run left is never dropped, so
        # a high-cardinality key grows memory and checkpoints forever.
        monkeypatch.setattr(PatternMatcher, "_drop_empty", lambda self: None)
        engine = log_engine()
        engine.register_query(PAIR.replace("WITHIN 10 EVENTS", "WITHIN 1 SECONDS"))
        engine.push(Event("A", 1.0, x=1))  # a run...
        engine.advance_time(5.0)  # ...that the heartbeat expires
        engine.push(Event("B", 6.0, x=1))
        assert engine.sanitizer.trips["matcher-activity-cache"] > 0


class TestRunInvariants:
    def test_dangling_binding_trips(self):
        engine = log_engine()
        handle = engine.register_query(PAIR)
        engine.push(Event("A", 1.0, x=1))
        run = next(iter(handle.matcher.iter_runs()))
        run.bindings["zz_unknown"] = run.bindings["a"]  # seeded corruption
        engine.push(Event("A", 2.0, x=2))
        assert engine.sanitizer.trips["dangling-binding"] > 0

    def test_inverted_run_span_trips(self):
        engine = log_engine()
        handle = engine.register_query(PAIR)
        engine.push(Event("A", 1.0, x=1))
        # Runs are immutable records: seed the corrupt copy back into
        # the partition's run list in place of the original.
        runs = next(iter(handle.matcher._partitions.values())).runs
        run = runs[0]
        runs[0] = run._replace(first_seq=run.last_seq + 5)
        engine.push(Event("A", 2.0, x=2))
        assert engine.sanitizer.trips["run-monotonicity"] > 0


class TestEventLoopBlocked:
    def test_blocking_call_on_the_loop_trips(self):
        san = Sanitizer(scope="serve-test", mode="log")

        async def scenario():
            watchdog = LoopStallWatchdog(san, threshold=0.15, tick=0.02).start()
            try:
                await asyncio.sleep(0.05)
                time.sleep(0.5)  # the defect: blocks the loop thread
                await asyncio.sleep(0.1)
            finally:
                watchdog.stop()
            return watchdog

        watchdog = asyncio.run(scenario())
        assert san.trips["event-loop-blocked"] >= 1
        assert watchdog.stalls >= 1
        assert watchdog.worst_gap > 0.15

    def test_healthy_loop_is_quiet(self):
        san = Sanitizer(scope="serve-test", mode="log")

        async def scenario():
            watchdog = LoopStallWatchdog(san, threshold=0.25, tick=0.02).start()
            try:
                for _ in range(10):
                    await asyncio.sleep(0.02)
            finally:
                watchdog.stop()

        asyncio.run(scenario())
        assert san.total_trips == 0
