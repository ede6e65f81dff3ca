"""Process-fleet differential and fault-injection tests.

:class:`~repro.runtime.process.PipeShard` runs each shard of the fleet
in a worker process fed over pipe frames, behind the same dispatch/merge
layer as the in-process double.  The contract is the house exactness
bar: merged output byte-identical to a single embedded engine —
including after a worker process is SIGKILLed mid-stream and the fleet
is restored from a checkpoint.
"""

import json
import math
import os
import random
import signal
import time

import pytest

from repro.events.event import Event
from repro.events.schema import AttributeSpec, EventSchema, SchemaRegistry
from repro.runtime import RunnerConfig, create_runner, emission_to_json
from repro.runtime.serialize import emission_to_line
from repro.runtime.sinks import CollectorSink
from repro.workloads.stock import StockWorkload

TUMBLING = """
    NAME best_trades
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 100 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
"""

PASSTHROUGH = """
    NAME passthrough
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price * 1.01
    WITHIN 50 EVENTS
    PARTITION BY symbol
"""

SOLO = """
    NAME solo_global
    PATTERN SEQ(Buy a, Buy b)
    WHERE b.price > a.price
    WITHIN 20 EVENTS
    RANK BY b.price - a.price DESC
    LIMIT 4
    EMIT ON WINDOW CLOSE
"""


def make_events(count=1_000, seed=2016):
    return list(StockWorkload(seed=seed).events(count))


def lines(emissions):
    return [json.dumps(emission_to_json(e), sort_keys=True) for e in emissions]


def run_backend(backend, query, events, shards=2):
    runner = create_runner(query, RunnerConfig(backend=backend, shards=shards))
    sink = CollectorSink()
    runner.subscribe(runner.queries()[0].name, sink)
    with runner:
        runner.submit_all(events)
        runner.flush()
    runner.close()
    return lines(sink.emissions)


class TestProcessDifferential:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_tumbling_byte_identical(self, shards):
        events = make_events()
        assert run_backend("process", TUMBLING, events, shards) == run_backend(
            "embedded", TUMBLING, events
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_passthrough_byte_identical(self, shards):
        events = make_events()
        expected = run_backend("embedded", PASSTHROUGH, events)
        assert expected, "workload must emit for the test to bite"
        assert run_backend("process", PASSTHROUGH, events, shards) == expected

    def test_heartbeats_byte_identical(self):
        query = TUMBLING.replace("WITHIN 100 EVENTS", "WITHIN 5 SECONDS")
        events = make_events(800, seed=7)

        def drive(runner, sink_name):
            sink = CollectorSink()
            runner.subscribe(sink_name, sink)
            with runner:
                for index, event in enumerate(events):
                    runner.submit(event)
                    if index % 150 == 149 and index + 1 < len(events):
                        watermark = min(
                            event.timestamp + 2.5,
                            events[index + 1].timestamp,
                        )
                        runner.advance_time(watermark)
                runner.flush()
            return lines(sink.emissions)

        embedded = drive(create_runner(query), "best_trades")
        fleet = drive(
            create_runner(query, backend="process", shards=2), "best_trades"
        )
        assert fleet == embedded


NONFINITE = """
    NAME extremes
    PATTERN SEQ(A a, B bs+)
    WHERE bs.v > -10
    WITHIN 12 EVENTS
    USING SKIP_TILL_NEXT
    PARTITION BY g
    RANK BY max(bs.v) DESC, count(bs) DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""
NONFINITE_REGISTRY = SchemaRegistry(
    [
        EventSchema(t, (AttributeSpec("v", "float"), AttributeSpec("g", "int")))
        for t in "AB"
    ]
)


def nonfinite_events(count=240, seed=5):
    """NaN and ±inf payloads: ``a.v`` binds all of them, and ``max(bs.v)``
    (which a NaN or ``-inf`` element does not extend) holds ``inf``."""
    rng = random.Random(seed)
    values = [1.0, 2.5, -4.0, math.inf, -math.inf, math.nan]
    return [
        Event(rng.choice("AB"), float(i), v=rng.choice(values), g=rng.randint(0, 2))
        for i in range(count)
    ]


class TestNonFiniteStateOverThePipe:
    """Pipe frames carry non-finite payloads, registers and snapshots in
    both directions: a fleet emits the embedded engine's lines, also after
    a snapshot taken through the pipe is restored into a fresh fleet."""

    @staticmethod
    def drive(backend, events, cut=None):
        config = RunnerConfig(backend=backend, shards=2, registry=NONFINITE_REGISTRY)
        runner = create_runner(NONFINITE, config)
        sink = CollectorSink()
        runner.subscribe("extremes", sink)
        runner.start()
        runner.submit_all(events[:cut])
        runner.sync()
        state = runner.snapshot()
        if cut is None:
            runner.stop()
        else:
            runner.kill()  # a crash: no flush
        return [emission_to_line(e) for e in sink.emissions], state

    def test_process_emits_the_embedded_lines(self):
        events = nonfinite_events()
        embedded, _ = self.drive("embedded", events)
        assert any("~nf" in line for line in embedded), "no non-finite rank value"
        assert self.drive("process", events)[0] == embedded

    def test_a_snapshot_with_inf_registers_restores_through_the_pipe(self):
        events = nonfinite_events()
        reference, _ = self.drive("embedded", events)
        cut = len(events) // 2
        prefix, state = self.drive("process", events, cut)
        assert "inf" in repr(state)
        second = create_runner(
            NONFINITE,
            RunnerConfig(backend="process", shards=2, registry=NONFINITE_REGISTRY),
        )
        sink = CollectorSink()
        second.subscribe("extremes", sink)
        with second:
            second.restore(state)
            second.submit_all(events[cut:])
            second.flush()
        assert prefix + [emission_to_line(e) for e in sink.emissions] == reference


class TestPlacement:
    def test_unpartitioned_query_runs_solo_in_one_process(self):
        runner = create_runner(SOLO, backend="process", shards=4)
        view = runner.queries()[0]
        runner.start()
        try:
            assert view.mode == "solo"
            assert runner.effective_shards == 1
            assert len([p for p in runner.worker_pids() if p]) == 1
        finally:
            runner.stop()

    def test_partitioned_query_gets_one_process_per_shard(self):
        runner = create_runner(TUMBLING, backend="process", shards=3)
        runner.start()
        try:
            pids = runner.worker_pids()
            assert len(pids) == 3
            assert len(set(pids)) == 3, "each shard owns its own process"
            assert os.getpid() not in pids
            for pid in pids:
                os.kill(pid, 0)  # raises if the process is gone
        finally:
            runner.stop()

    def test_stop_reaps_every_worker_process(self):
        runner = create_runner(TUMBLING, backend="process", shards=2)
        runner.start()
        pids = runner.worker_pids()
        runner.submit_all(make_events(200))
        runner.stop()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                # ESRCH may lag the wait() by a scheduler tick.
                for _ in range(50):
                    os.kill(pid, 0)
                    time.sleep(0.02)


class TestCrashRecovery:
    def test_sigkill_restore_resumes_byte_identical(self):
        """Kill a worker mid-stream; restore must resume exactly.

        The flow mirrors operational recovery: checkpoint, crash, a
        latched failure on the next barrier, ``restore`` (which respawns
        the dead worker and discards events queued past the cut), then
        replay from the checkpoint.  The combined output must equal an
        uninterrupted single-engine run, byte for byte.
        """
        events = make_events(1_200)
        cut = 600
        reference = run_backend("embedded", TUMBLING, events)

        runner = create_runner(TUMBLING, backend="process", shards=2)
        sink = CollectorSink()
        runner.subscribe("best_trades", sink)
        runner.start()
        try:
            runner.submit_all(events[:cut])
            runner.sync()
            state = runner.snapshot()
            prefix = lines(sink.emissions)

            victim = runner.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="shard failed"):
                runner.submit_all(events[cut : cut + 200])
                runner.sync()

            runner.restore(state)
            respawned = runner.worker_pids()
            assert victim not in respawned
            assert all(pid for pid in respawned)

            runner.submit_all(events[cut:])
            runner.flush()
        finally:
            runner.stop()
        assert prefix + lines(sink.emissions)[len(prefix) :] == reference

    def test_restore_into_fresh_fleet_after_kill_teardown(self):
        """The checkpoint also recovers across full runner generations."""
        events = make_events(1_000)
        cut = 500
        reference = run_backend("embedded", TUMBLING, events)

        first = create_runner(TUMBLING, backend="process", shards=2)
        sink = CollectorSink()
        first.subscribe("best_trades", sink)
        first.start()
        first.submit_all(events[:cut])
        first.sync()
        state = first.snapshot()
        prefix = lines(sink.emissions)
        first.kill()

        second = create_runner(TUMBLING, backend="process", shards=2)
        resumed = CollectorSink()
        second.subscribe("best_trades", resumed)
        second.start()
        try:
            second.restore(state)
            second.submit_all(events[cut:])
            second.flush()
        finally:
            second.stop()
        assert prefix + lines(resumed.emissions) == reference


class TestBarrierMirrors:
    def test_stats_and_metrics_mirror_the_single_engine(self):
        events = make_events()
        embedded = create_runner(TUMBLING)
        with embedded:
            embedded.submit_all(events)
            embedded.flush()
        single = embedded.stats_by_query()["best_trades"]

        fleet = create_runner(TUMBLING, backend="process", shards=4)
        with fleet:
            fleet.submit_all(events)
            fleet.flush()
            row = fleet.stats_by_query()["best_trades"]
            names = {s.name for s in fleet.metrics_registry().collect()}
        for key in ("events_routed", "matches", "emissions", "runs_created"):
            assert row[key] == single[key], key
        assert row["shards"] == 4
        assert "events_pushed_total" in names
