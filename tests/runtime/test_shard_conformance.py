"""Shard conformance: one interface, two implementations, one behaviour.

:class:`~repro.runtime.shard.LocalShard` (engine in this process) and
:class:`~repro.runtime.process.PipeShard` (engine in a worker process)
implement the same :class:`~repro.runtime.shard.Shard` interface; the
coordinator cannot tell them apart except by ``pid``.  Every test here
runs against both.
"""

import os
import threading
import time

import pytest

from repro import Event
from repro.events.time import SequenceAssigner
from repro.ranking.emission import Emission, EmissionKind
from repro.runtime.process import PipeShard
from repro.runtime.report import ShardReport, encode_report
from repro.runtime.shard import LocalShard
from repro.runtime.runner import RunnerConfig, resolve
from repro.runtime.sharded import ShardedEngineRunner
from repro.workloads.stock import StockWorkload

SHARD_TYPES = [LocalShard, PipeShard]

#: a fleet's recipe, as its coordinator hands it to every shard.
CONFIG = resolve(RunnerConfig(backend="process"))

QUERIES = {
    "best": """
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND s.price > b.price
        WITHIN 100 EVENTS
        PARTITION BY symbol
        RANK BY s.price - b.price DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
    """,
    "every": """
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND s.price > b.price * 1.02
        WITHIN 5 SECONDS
        PARTITION BY symbol
    """,
}


def stream(count=600):
    """A fresh, globally sequenced stream (the coordinator's job)."""
    sequencer = SequenceAssigner()
    events = list(StockWorkload(seed=2016).events(count))
    for event in events:
        sequencer.assign(event)
    return events


def build(shard_type, queries=QUERIES):
    return shard_type(CONFIG, queries, preassigned=True)


#: series that measure wall-clock time, not what happened.
CLOCKED = {
    "throughput_eps",
    "ingest_span_seconds",
    "recent_throughput_eps",
    "query_cpu_seconds_total",
    "stage_seconds_total",
    "stage_max_seconds",
}


def comparable(report: ShardReport) -> dict:
    """A report minus what legitimately differs between two runs: the
    pid, and wall-clock measurements (latency values, stage seconds)."""
    doc = encode_report(report)
    del doc["pid"]
    doc["instruments"] = {
        (name, *sorted(labels.items())): value[0] if kind == "h" else value
        for kind, name, labels, value in doc["instruments"]
        if name not in CLOCKED
    }
    return doc


def pushed(doc: dict) -> int:
    return doc["instruments"][("events_pushed_total",)]


def drive(shard):
    """One script of batches and barriers; returns every report taken."""
    events = stream()
    reports = []
    try:
        reports.append(comparable(shard.report()))  # before anything
        shard.push_batch(events[:250])
        reports.append(comparable(shard.report()))
        reports.append(comparable(shard.report()))  # deltas were consumed
        shard.push_batch(events[250:251])
        shard.push_batch(events[251:])
        shard.advance_time(events[-1].timestamp + 60.0)
        reports.append(comparable(shard.report()))
        shard.flush()
        reports.append(comparable(shard.report()))
    finally:
        shard.close()
    return reports


class TestReports:
    def test_identical_input_gives_equal_reports(self):
        local, pipe = (drive(build(shard_type)) for shard_type in SHARD_TYPES)
        assert local == pipe
        first, after_batch, again, after_advance, final = local
        assert pushed(first) == 0
        assert pushed(after_batch) == 250
        assert sum(
            len(q["emissions"]) for q in after_batch["queries"].values()
        ), "the script must emit for the comparison to bite"
        assert all(not q["emissions"] for q in again["queries"].values())
        assert again["queries"]["best"]["open_epochs"]
        assert final["queries"]["best"]["open_epochs"] == []
        assert pushed(final) == 600
        assert final["instruments"][("latency_seconds", ("query", "best"))] == 600

    @pytest.mark.parametrize("shard_type", SHARD_TYPES)
    def test_report_names_the_hosting_process(self, shard_type):
        shard = build(shard_type)
        try:
            report = shard.report()
            assert report.pid == shard.pid
            assert (report.pid == os.getpid()) == (shard_type is LocalShard)
        finally:
            shard.close()

    def test_barrier_order_gives_a_shared_emission_to_each_query_once(
        self, monkeypatch
    ):
        """Group members may be handed one emission object; the barrier
        order still names every query it reached, in delivery order."""
        shard = build(LocalShard)
        shared = Emission(
            kind=EmissionKind.WINDOW_CLOSE, ranking=[], at_seq=0, at_ts=0.0
        )

        def advance_time(timestamp):
            for handle in shard.engine.queries():
                handle.deliver(shared)
            return [shared, shared]

        monkeypatch.setattr(shard.engine, "advance_time", advance_time)
        shard.advance_time(1.0)
        report = shard.report()
        assert report.barrier_order == ["best", "every"]
        assert shard.report().barrier_order == []

    @pytest.mark.parametrize("shard_type", SHARD_TYPES)
    def test_introspection(self, shard_type):
        shard = build(shard_type)
        try:
            shard.push_batch(stream(50))
            instruments = shard.report().instruments
            assert instruments.get("events_pushed_total").value == 50
            assert instruments.get("events_pushed_total").help  # from the catalogue
            assert "Buy" in shard.explain("best")
        finally:
            shard.close()


class TestCheckpointing:
    @pytest.mark.parametrize("shard_type", SHARD_TYPES)
    def test_snapshot_restore_resumes_and_drops_unreported(self, shard_type):
        events = stream()
        whole = build(shard_type)
        resumed = build(shard_type)
        try:
            whole.push_batch(events[:300])
            whole.report()
            state = whole.snapshot()
            whole.push_batch(events[300:])
            whole.flush()
            expected = comparable(whole.report())

            resumed.push_batch(events[:40])  # garbage the restore must erase
            resumed.restore(state)
            resumed.push_batch(events[300:])
            resumed.flush()
            got = comparable(resumed.report())
        finally:
            whole.close()
            resumed.close()
        for name in QUERIES:
            assert got["queries"][name]["emissions"] == (
                expected["queries"][name]["emissions"]
            )
        # What a snapshot carries (matcher stats, query counters, the
        # ranker's revision) resumes; stage timers and sink tallies restart.
        for series in (
            "query_events_routed_total",
            "query_matches_total",
            "query_emissions_total",
            "query_revisions_total",
            "runs_created_total",
            "runs_extended_total",
            "runs_killed_total",
            "runs_pruned_total",
            "shared_hits_total",
            "peak_live_runs",
        ):
            for name in QUERIES:
                key = (series, ("query", name))
                assert got["instruments"][key] == expected["instruments"][key], key


class TestLifecycle:
    @pytest.mark.parametrize("shard_type", SHARD_TYPES)
    def test_close_force_and_respawn(self, shard_type):
        shard = build(shard_type)
        first_pid = shard.pid
        shard.push_batch(stream(100))
        assert shard.alive()
        shard.close(force=True)
        assert not shard.alive()
        if shard_type is PipeShard:
            with pytest.raises(ProcessLookupError):
                # ESRCH may lag the wait() by a scheduler tick.
                for _ in range(50):
                    os.kill(first_pid, 0)
                    time.sleep(0.02)
        shard.respawn()
        try:
            assert shard.alive()
            report = shard.report()
            assert (
                report.instruments.get("events_pushed_total").value == 0
            ), "respawn starts empty"
            assert set(report.queries) == set(QUERIES), "...with the same queries"
            assert (shard.pid == first_pid) == (shard_type is LocalShard)
        finally:
            shard.close()
        shard.close()  # idempotent


POISON = "PATTERN SEQ(A a) WHERE a.x > 1 PARTITION BY k"


class TestFailureSurface:
    @pytest.mark.parametrize("shard_type", SHARD_TYPES)
    def test_push_failure_latches_and_surfaces_at_the_next_barrier(self, shard_type):
        """Either shard fails the same way: the event path never raises
        into ``submit``'s caller mid-chunk, the next barrier does, and
        ``restore`` revives the fleet."""
        runner = ShardedEngineRunner(RunnerConfig(shards=2), shard_type)
        view = runner.register_query(POISON)
        runner.start()
        try:
            runner.submit(Event("A", 1.0, x=5, k="a"))
            runner.sync()
            state = runner.snapshot()
            runner.submit(Event("A", 2.0, k="a"))  # missing x: strict mode raises
            with pytest.raises(RuntimeError, match="shard failed"):
                runner.sync()
            with pytest.raises(RuntimeError, match="shard failed"):
                runner.submit(Event("A", 3.0, x=5, k="a"))
            runner.restore(state)
            runner.submit(Event("A", 3.0, x=7, k="a"))
            runner.flush()
        finally:
            runner.stop()
        assert [m.bindings["a"]["x"] for m in view.matches()] == [5, 7]


class TestThreadFreeCoordinator:
    @pytest.mark.parametrize("shard_type", SHARD_TYPES)
    def test_the_fleet_starts_no_thread(self, shard_type):
        """The coordinator calls its shards on the caller's thread: no
        thread appears at ``start()``, at a barrier or at ``stop()``."""
        runner = ShardedEngineRunner(RunnerConfig(shards=2), shard_type)
        runner.register_query(QUERIES["best"], name="best")
        before = set(threading.enumerate())
        runner.start()
        try:
            assert not set(threading.enumerate()) - before
            runner.submit_all(StockWorkload(seed=3).events(1_000))
            runner.advance_time(1e9)
            runner.sync()
            assert not set(threading.enumerate()) - before
        finally:
            runner.stop()
        assert not set(threading.enumerate()) - before
        assert runner.query("best").results()
