"""Fault-injection differential tests for checkpoint/restore recovery.

The durability contract (docs/RECOVERY.md): killing an engine at any
event boundary, restoring its latest checkpoint into a fresh process,
and replaying the remaining events produces an emission stream
*identical* to an uninterrupted run — same emissions, same order, same
rankings.  These tests prove it for the single engine and the sharded
runner (K ∈ {1, 2, 4}) over three workloads, with every checkpoint
taking the full disk round trip through :class:`CheckpointStore`.

Fingerprint machinery is shared with the shard-differential suite so
"identical" means the same thing in both.
"""

import functools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import CEPREngine, Event
from repro.runtime import RunnerConfig
from repro.runtime.serialize import emission_to_line
from repro.store.checkpoint import CheckpointStore, Position
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import DOUBLE, create_test_runner, local_fleet
from tests.runtime.test_sharded_differential import (
    COUNT_TUMBLING,
    PASSTHROUGH,
    SOLO_SLIDING,
    emission_fp,
    fingerprint,
)

SHARD_COUNTS = [1, 2, 4]
EVENT_COUNT = 600

FEVER = """
NAME fever
PATTERN SEQ(HeartRate h, Temperature t)
WHERE h.patient == t.patient AND h.value > 95 AND t.value > 37.4
WITHIN 8 SECONDS
PARTITION BY patient
RANK BY t.value DESC
LIMIT 5
EMIT ON WINDOW CLOSE
"""

BIG_CARTS = """
NAME big_carts
PATTERN SEQ(PageView p, AddToCart a)
WHERE p.user == a.user AND a.value > 100
WITHIN 200 EVENTS
PARTITION BY user
RANK BY a.value DESC
LIMIT 5
EMIT ON WINDOW CLOSE
"""

WORKLOADS = {
    "stock": (StockWorkload, [COUNT_TUMBLING, PASSTHROUGH, SOLO_SLIDING]),
    "vitals": (VitalsWorkload, [FEVER]),
    "clickstream": (ClickstreamWorkload, [BIG_CARTS]),
}


@functools.lru_cache(maxsize=None)
def make_events(workload_name, seed=11):
    factory, _ = WORKLOADS[workload_name]
    return tuple(factory(seed=seed).events(EVENT_COUNT))


@functools.lru_cache(maxsize=None)
def baseline(workload_name, seed=11):
    """Uninterrupted single-engine fingerprints, per query name."""
    _, queries = WORKLOADS[workload_name]
    engine = CEPREngine()
    handles = [engine.register_query(q) for q in queries]
    for event in make_events(workload_name, seed):
        engine.push(event)
    engine.flush()
    return {h.name: fingerprint(h) for h in handles}


def checkpoint_round_trip(tmp_path, state, cut, last_ts):
    """Persist + reload through the real store: every test crosses disk."""
    store = CheckpointStore(tmp_path / "ckpt")
    store.save(state, Position(events_consumed=cut, last_seq=cut, last_ts=last_ts))
    checkpoint = store.latest()
    assert checkpoint is not None
    assert checkpoint.position.events_consumed == cut
    return checkpoint


def crash_resume_single(workload_name, cut, tmp_path, seed=11):
    _, queries = WORKLOADS[workload_name]
    events = make_events(workload_name, seed)

    engine = CEPREngine()
    handles = [engine.register_query(q) for q in queries]
    for event in events[:cut]:
        engine.push(event)
    last_ts = events[cut - 1].timestamp if cut else 0.0
    checkpoint = checkpoint_round_trip(tmp_path, engine.snapshot(), cut, last_ts)
    prefix = {h.name: fingerprint(h) for h in handles}
    del engine  # the process is gone

    revived = CEPREngine()
    handles = [revived.register_query(q) for q in queries]
    revived.restore(checkpoint.state)
    for event in events[checkpoint.position.events_consumed :]:
        revived.push(event)
    revived.flush()
    return {h.name: prefix[h.name] + fingerprint(h) for h in handles}


def crash_resume_sharded(workload_name, shards, cut, tmp_path, seed=11):
    _, queries = WORKLOADS[workload_name]
    events = make_events(workload_name, seed)

    runner = local_fleet(shards=shards)
    views = [runner.register_query(q) for q in queries]
    runner.start()
    for event in events[:cut]:
        runner.submit(event)
    last_ts = events[cut - 1].timestamp if cut else 0.0
    checkpoint = checkpoint_round_trip(tmp_path, runner.snapshot(), cut, last_ts)
    prefix = {v.name: [emission_fp(e) for e in v.results()] for v in views}
    runner.kill()

    revived = local_fleet(shards=shards)
    views = [revived.register_query(q) for q in queries]
    revived.start()
    revived.restore(checkpoint.state)
    for event in events[checkpoint.position.events_consumed :]:
        revived.submit(event)
    revived.flush()
    revived.stop()
    return {v.name: prefix[v.name] + fingerprint(v) for v in views}


CUTS = [1, EVENT_COUNT // 2, EVENT_COUNT - 1]


class TestSingleEngine:
    @pytest.mark.parametrize("cut", [0] + CUTS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_kill_restore_identical(self, workload, cut, tmp_path):
        assert crash_resume_single(workload, cut, tmp_path) == baseline(workload)


class TestShardedRunner:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_kill_restore_identical(self, workload, shards, tmp_path):
        cut = EVENT_COUNT // 2
        got = crash_resume_sharded(workload, shards, cut, tmp_path)
        assert got == baseline(workload)

    @pytest.mark.parametrize("cut", CUTS)
    def test_cut_positions_identical(self, cut, tmp_path):
        got = crash_resume_sharded("stock", 4, cut, tmp_path)
        assert got == baseline("stock")

    def test_restore_rejects_mismatched_fleet(self, tmp_path):
        from repro.engine.snapshot import SnapshotFormatError

        runner = local_fleet(shards=2)
        runner.register_query(COUNT_TUMBLING)
        runner.start()
        state = runner.snapshot()
        runner.kill()

        other = local_fleet(shards=4)
        other.register_query(COUNT_TUMBLING)
        other.start()
        try:
            with pytest.raises(SnapshotFormatError, match="shard count"):
                other.restore(state)
        finally:
            other.stop()


class TestRandomBoundary:
    """Property: the boundary and shard count never matter."""

    @given(
        cut=st.integers(min_value=0, max_value=EVENT_COUNT - 1),
        shards=st.sampled_from(SHARD_COUNTS),
    )
    @settings(max_examples=8, deadline=None)
    def test_sharded_kill_restore_identical(self, cut, shards, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("recovery")
        got = crash_resume_sharded("stock", shards, cut, tmp_path)
        assert got == baseline("stock")

    @given(cut=st.integers(min_value=0, max_value=EVENT_COUNT))
    @settings(max_examples=12, deadline=None)
    def test_single_engine_kill_restore_identical(self, cut, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("recovery")
        got = crash_resume_single("vitals", cut, tmp_path)
        assert got == baseline("vitals")


#: Payload keys deliberately out of sorted order, so a sorted round trip
#: would show in the printed bindings.
UNSORTED = [
    Event("A", 1.0, z=0, k=1, x=1),
    Event("B", 2.0, zz=0, x=2, k=1),
    Event("A", 3.0, z=1, k=2, x=3),
    Event("B", 4.0, zz=1, x=5, k=2),
    Event("A", 5.0, z=2, k=1, x=0),
    Event("B", 6.0, zz=2, x=7, k=1),
]
ORDER_QUERY = (
    "PATTERN SEQ(A a, B b) WHERE a.k == b.k PARTITION BY k "
    "WITHIN 10 EVENTS RANK BY b.x DESC LIMIT 2 EMIT {}"
)


class TestPayloadAttributeOrder:
    """A checkpoint that crossed :class:`CheckpointStore` restores event
    payloads in their arrival key order: bindings print as in an
    uninterrupted run."""

    @staticmethod
    def run(backend, emit, cut=None, tmp_path=None):
        def runner():
            built = create_test_runner(
                {"q": ORDER_QUERY.format(emit)},
                RunnerConfig(backend=backend, shards=2),
            )
            built.subscribe("q", lambda e: lines.append(emission_to_line(e)))
            return built.start()

        lines = []
        events = [Event(e.event_type, e.timestamp, **e.payload) for e in UNSORTED]
        first = runner()
        if cut is not None:
            first.submit_all(events[:cut])
            first.sync()
            state = checkpoint_round_trip(
                tmp_path, first.snapshot(), cut, events[cut - 1].timestamp
            ).state
            first.kill()
            first, events = runner(), events[cut:]
            first.restore(state)
        first.submit_all(events)
        first.close()
        return lines

    # cut 3: the k=2 run is held in the matcher and the k=1 match in its
    # epoch (or the eager ranking); cut 5: a run held behind two matches.
    @pytest.mark.parametrize("cut", [3, 5])
    @pytest.mark.parametrize("emit", ["ON WINDOW CLOSE", "EAGER"])
    @pytest.mark.parametrize("backend", ["embedded", "threaded", "process", DOUBLE])
    def test_bindings_print_in_arrival_key_order(self, backend, emit, cut, tmp_path):
        resumed = self.run(backend, emit, cut, tmp_path)
        assert resumed == self.run("embedded", emit)
        assert resumed and all('"z": ' in line or '"zz": ' in line for line in resumed)
