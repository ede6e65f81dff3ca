"""One rank state per run: the scorer, the cut and the bound read a
trailing-Kleene run's aggregate registers, not its binding list.

Pinned on the ledger's dense Kleene query (``kleene_dense``: every spike
of a patient extends every open run under ``SKIP_TILL_ANY``) over the
same 4,800-event vitals pool.
"""

import dataclasses
import random

import pytest

from repro import CEPREngine, Event
from repro.events.schema import AttributeSpec, EventSchema, SchemaRegistry
from repro.language.expressions import EvalContext
from repro.language.parser import parse_query
from repro.language.semantics import Reads, analyze, run_readers
from repro.ranking.score import Scorer
from repro.runtime.serialize import emission_to_line
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload

KLEENE_QUERY = """
    PATTERN SEQ(HeartRate onset, HeartRate spikes+)
    WHERE onset.value > 90 AND spikes.value > 90
    WITHIN 80 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY patient
    RANK BY max(spikes.value) DESC, count(spikes) DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
"""

STOCK_QUERY = """
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 100 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
"""


def vitals(count=4_800):
    workload = VitalsWorkload(seed=2016, anomaly_rate=0.2, episode_length=16, patients=4)
    return list(workload.events(count)), workload.registry()


def shuffled_windows(events, seed, window=80):
    """``events`` with their whole ``window``-event epochs in the order
    ``seed`` chooses, the timestamps left where they were — the ledger's
    ``--seed``: the inputs differ, the work is the same."""
    epochs = [events[i : i + window] for i in range(0, len(events), window)]
    random.Random(seed).shuffle(epochs)
    shuffled = (event for epoch in epochs for event in epoch)
    return [
        Event(event.event_type, stamp.timestamp, **event.payload)
        for stamp, event in zip(events, shuffled)
    ]


def lines(handle):
    return [emission_to_line(e) for e in handle.results()]


def unpruned_lines(events):
    engine = CEPREngine(registry=vitals(0)[1], enable_pruning=False)
    handle = engine.register_query(KLEENE_QUERY, name="spikes")
    engine.run(events)
    return lines(handle)


class TestKleeneDense:
    def test_one_pass_reads_registers_and_never_asks_the_hook(self, monkeypatch, auditing):
        events, registry = vitals()
        engine = CEPREngine(registry=registry)
        handle = engine.register_query(KLEENE_QUERY, name="spikes")
        assert handle.pipeline.cut_status == "active"
        assert handle.matcher.fixed_shapes == {(1, False), (1, True)}

        reads = []
        events_of = EvalContext.events_of

        def counted_events_of(ctx, var):
            if not auditing:
                reads.append(var)
            return events_of(ctx, var)

        monkeypatch.setattr(EvalContext, "events_of", counted_events_of)
        score = handle.pipeline.scorer.score
        per_match = []

        def counted(match):
            if match.agg_states is None:  # the sanitizer's reference rescoring
                return score(match)
            before = len(reads)
            scored = score(match)
            per_match.append(len(reads) - before)
            return scored

        handle.pipeline.scorer.score = counted
        hook = handle.matcher.prune_hook
        offered = []
        handle.matcher.prune_hook = lambda *args: offered.append(args) or hook(*args)
        engine.run(events)

        stats = handle.matcher.stats
        assert len(per_match) == stats.matches_completed > 0
        assert sum(per_match) == 0  # no Kleene binding list was read
        assert offered == [] and handle.pruner.stats.attempts == 0
        assert stats.matches_completed <= 3_000
        assert stats.completions_skipped > 0
        assert lines(handle) == unpruned_lines(vitals()[0])

    def test_the_pruner_compiles_no_bound_the_matcher_never_asks_for(self):
        """Both shapes a run is kept at are fixed-optimum, and no run is
        kept awaiting stage 0: a pass compiles no shape bound at all."""
        events, registry = vitals()
        engine = CEPREngine(registry=registry, sanitize=False)
        handle = engine.register_query(KLEENE_QUERY, name="spikes")
        engine.run(events)
        assert handle.pruner.stats.attempts == 0
        assert handle.pruner._bounds == {}

    @pytest.mark.parametrize("seed", [2016, 7])
    def test_work_counts_per_pass_are_pinned(self, seed):
        """What one pass drops and builds.  CEPRSan proves each drop and
        skip sound, so a dominance sweep that drops too few runs (or a cut
        that skips too few completions) passes every other check; it moves
        these counts."""
        events, registry = vitals()
        engine = CEPREngine(registry=registry)
        handle = engine.register_query(KLEENE_QUERY, name="spikes")
        engine.run(shuffled_windows(events, seed))
        stats = handle.matcher.stats
        assert (stats.runs_dominated, stats.matches_completed) == (3_924, 2_077)

    def test_one_registration_reads_the_registry_through_one_reads(self, monkeypatch):
        """The scorer's registers, the cut, dominance and every pruner
        shape share the declarations one :class:`Reads` looks up."""
        built = []
        init = Reads.__init__
        monkeypatch.setattr(
            Reads, "__init__", lambda self, *args: built.append(self) or init(self, *args)
        )
        engine = CEPREngine(registry=vitals(0)[1])
        handle = engine.register_query(KLEENE_QUERY, name="spikes")
        assert handle.pipeline.cut_status == handle.pipeline.dominance_status == "active"
        assert handle.pruner is not None and handle.pipeline.scorer._reads is not None
        assert len(built) == 1

    def test_restore_mid_epoch_rescores_held_matches_from_bindings(self):
        """Registers are never checkpointed: the held matches a restore
        brings back are scored from their bindings, and the resumed run
        ends byte-identical to the uninterrupted one."""
        events, registry = vitals(1_200)
        expected = unpruned_lines(vitals(1_200)[0])
        cut = 80 * 7 + 40  # mid-epoch, after θ exists and the cut has fired

        first = CEPREngine(registry=registry)
        handle = first.register_query(KLEENE_QUERY, name="spikes")
        first.run(events[:cut], flush=False)
        assert handle.matcher.stats.completions_skipped > 0
        state = first.snapshot()

        resumed = CEPREngine(registry=registry)
        resumed_handle = resumed.register_query(KLEENE_QUERY, name="spikes")
        resumed.restore(state)
        held = [
            match
            for buffer in resumed_handle.ranker._epoch_buffers.values()
            for match in buffer._matches
        ]
        assert held and all(match.agg_states is None for match in held)
        resumed.run(vitals(1_200)[0][cut:])
        assert lines(handle) + lines(resumed_handle) == expected


def registers_of(keys, dtype="int"):
    schemas = [
        EventSchema(t, (AttributeSpec("v", dtype), AttributeSpec("n", "float", required=False)))
        for t in "AB"
    ]
    registry = SchemaRegistry(schemas)
    text = (f"PATTERN SEQ(A a, B bs+) WITHIN 9 EVENTS USING SKIP_TILL_ANY "
            f"RANK BY {keys} LIMIT 1 EMIT ON WINDOW CLOSE")
    analyzed = analyze(parse_query(text), registry)
    readers = run_readers(analyzed, Reads(analyzed, registry))
    return tuple(readers[id(key.expr)][0] for key in analyzed.rank_keys)


class TestRankRegisters:
    """Which keys the registers serve: exactly where the register equals
    the reference evaluator over the bindings."""

    def test_served_keys(self):
        keys = "count(bs), len(bs), max(bs.v), min(bs.v), first(bs.v), last(bs.v)"
        assert all(read is not None for read in registers_of(keys))
        assert all(read is not None for read in registers_of(keys, "float"))

    def test_keys_left_to_the_bindings(self):
        keys = "sum(bs.v), avg(bs.v), max(bs.n), count(a), max(bs.n) + 1"
        assert registers_of(keys) == (None,) * 5
        # a total key reads the run directly, an aggregate through its
        # register, an attribute not declared required unless it is absent
        assert None not in registers_of("a.v, max(bs.v) + 1, a.n")
        # a bool element is not a number to the registers
        assert registers_of("max(bs.v)", "bool") == (None,)

    def test_reads_are_the_reference_values(self):
        events = [Event("B", float(i), v=v) for i, v in enumerate([3, 7, 7.0, -1, 2])]
        engine = CEPREngine(
            registry=SchemaRegistry(
                [EventSchema(t, (AttributeSpec("v", "float"),)) for t in "AB"]
            )
        )
        handle = engine.register_query(
            "PATTERN SEQ(A a, B bs+) WITHIN 9 EVENTS USING SKIP_TILL_ANY "
            "RANK BY max(bs.v) DESC, min(bs.v), first(bs.v), last(bs.v), count(bs) "
            "LIMIT 40 EMIT ON WINDOW CLOSE",
            name="q",
        )
        read = []
        score = handle.pipeline.scorer.score
        handle.pipeline.scorer.score = lambda match: read.append(match.agg_states) or score(match)
        engine.run([Event("A", -1.0, v=0)] + events)
        ranking = handle.results()[0].ranking
        assert len(read) == 2**5 - 1  # SKIP_TILL_ANY: every subset of the five
        assert all(registers is not None for registers in read)
        # read once, then dropped: a held match pins no register
        assert ranking and all(match.agg_states is None for match in ranking)
        reference = Scorer(handle.analyzed.rank_keys)
        for match in ranking:
            rescored = reference.score(dataclasses.replace(match))
            assert [(type(v), v) for v in rescored.rank_values] == [
                (type(v), v) for v in match.rank_values
            ]


def test_a_query_without_register_keys_reads_its_bindings_directly():
    """No key of the stock query reads a Kleene aggregate, but its one key
    is total: the scorer reads the bindings without a context."""
    engine = CEPREngine(registry=StockWorkload(seed=1).registry())
    handle = engine.register_query(STOCK_QUERY)
    assert handle.pipeline.scorer._reads is not None
    assert handle.matcher.fixed_shapes == frozenset()
