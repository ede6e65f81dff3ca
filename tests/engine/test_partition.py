"""PARTITION BY semantics."""

import pytest

from repro.events.event import Event
from repro.events.time import SequenceAssigner
from repro.language.errors import EvaluationError

from tests.engine.helpers import feed, make_matcher, pair_set, run_pattern


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


class TestPartitioning:
    def test_events_only_join_within_partition(self):
        matches = run_pattern(
            "PATTERN SEQ(Buy b, Sell s) PARTITION BY sym",
            [
                E("Buy", 1, sym="A", p=1),
                E("Buy", 2, sym="B", p=2),
                E("Sell", 3, sym="A", p=3),
                E("Sell", 4, sym="B", p=4),
            ],
        )
        assert pair_set(matches, [("b", "p"), ("s", "p")]) == {(1, 3), (2, 4)}

    def test_multi_attribute_partition(self):
        matches = run_pattern(
            "PATTERN SEQ(A a, B b) PARTITION BY sym, region",
            [
                E("A", 1, sym="X", region="eu", p=1),
                E("B", 2, sym="X", region="us", p=2),
                E("B", 3, sym="X", region="eu", p=3),
            ],
        )
        assert pair_set(matches, [("b", "p")]) == {(3,)}

    def test_missing_partition_attribute_skips_event(self):
        matcher = make_matcher("PATTERN SEQ(A a, B b) PARTITION BY sym")
        matches = feed(matcher, [E("A", 1, sym="X"), E("B", 2)])
        assert matches == []
        assert matcher.stats.events_skipped_no_key == 1

    def test_strict_contiguity_is_per_partition(self):
        matches = run_pattern(
            "PATTERN SEQ(A a, B b) PARTITION BY sym USING STRICT",
            [
                E("A", 1, sym="X", p=1),
                E("A", 2, sym="Y", p=2),  # different partition: no break
                E("B", 3, sym="X", p=3),
            ],
        )
        assert pair_set(matches, [("a", "p"), ("b", "p")]) == {(1, 3)}

    def test_partition_key_recorded_on_match(self):
        matches = run_pattern(
            "PATTERN SEQ(A a, B b) PARTITION BY sym",
            [E("A", 1, sym="X"), E("B", 2, sym="X")],
        )
        assert matches[0].partition_key == ("X",)

    def test_unpartitioned_uses_global_key(self):
        matches = run_pattern(
            "PATTERN SEQ(A a, B b)", [E("A", 1), E("B", 2)]
        )
        assert matches[0].partition_key == ()

    def test_negation_scoped_to_partition(self):
        matches = run_pattern(
            "PATTERN SEQ(A a, NOT C c, B b) PARTITION BY sym",
            [
                E("A", 1, sym="X"),
                E("C", 2, sym="Y"),  # other partition: harmless
                E("B", 3, sym="X"),
            ],
        )
        assert len(matches) == 1


class TestPartitionLifetime:
    """A partition exists exactly while it holds runs or pendings."""

    QUERY = "PATTERN SEQ(A a, B b) WHERE a.x > 0 WITHIN 3 EVENTS PARTITION BY sym"

    def test_keys_without_state_leave_nothing_behind(self):
        matcher = make_matcher(self.QUERY)
        # High-cardinality keys: every event in a partition of its own.
        feed(matcher, [E("A" if i % 2 else "B", i, sym=f"k{i}", x=0) for i in range(200)],
             flush=False)
        assert matcher._partitions == {}
        assert matcher.snapshot()["partitions"] == []

    def test_partition_is_dropped_when_its_last_run_leaves(self):
        matcher = make_matcher(self.QUERY)
        assigner = SequenceAssigner()
        held = []
        for event in [
            E("A", 1, sym="X", x=1),
            E("A", 2, sym="Y", x=1),
            E("B", 3, sym="X"),  # completes X's run, which is consumed
            E("B", 4, sym="Z"),  # no run to join: Z never appears
            E("B", 5, sym="Y"),  # Y's run is three events old: expired
        ]:
            assigner.assign(event)
            matcher.process(event)
            held.append(set(matcher._partitions))
        assert held == [{("X",)}, {("X",), ("Y",)}, {("Y",)}, {("Y",)}, set()]

    def test_a_strict_gate_error_leaves_no_empty_partition(self):
        matcher = make_matcher(self.QUERY)
        with pytest.raises(EvaluationError):
            feed(matcher, [E("A", 1, sym="X", x="one")], flush=False)
        assert matcher._partitions == {}
        assert matcher.live_run_count == 0

    def test_heartbeat_expiry_drops_partitions(self):
        matcher = make_matcher(
            "PATTERN SEQ(A a, B b) WHERE a.x > 0 WITHIN 2 SECONDS PARTITION BY sym"
        )
        feed(matcher, [E("A", 1, sym="X", x=1), E("A", 5, sym="Y", x=1)], flush=False)
        matcher.advance_time(4.0, seq=1)
        assert set(matcher._partitions) == {("Y",)}

    def test_older_snapshots_with_empty_partitions_restore(self):
        source = make_matcher(self.QUERY)
        feed(source, [E("A", 1, sym="X", x=1)], flush=False)
        state = source.snapshot()
        older = {**state, "partitions": [
            {"key": ["gone"], "runs": [], "pendings": []}, *state["partitions"]
        ]}
        target = make_matcher(self.QUERY)
        target.restore(older)
        assert set(target._partitions) == {("X",)}
        assert target.snapshot() == state
