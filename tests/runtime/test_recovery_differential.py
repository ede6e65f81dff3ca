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

from repro import CEPREngine
from repro.store.checkpoint import CheckpointStore, Position
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import local_fleet
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
