"""The worker loop, the threaded runner built on it, and the failure
contract the fleet shares with that runner.

:class:`ThreadedEngineRunner` drains its ingest queue with a
:class:`~repro.runtime.concurrent.WorkerLoop`: one bounded queue, one owner
thread, one control operation ("run this callable on the owner thread,
then acknowledge").  The first half of this file tests the loop itself;
the second half tests what the threaded runner and the thread-free
:class:`ShardedEngineRunner` both promise — stop drains producers,
barriers fail fast after a failure, ``pause()`` excludes the consumer.
"""

import queue as queue_module
import sys
import threading
import time

import pytest

from repro import CEPREngine, Event
from repro.runtime import RunnerConfig
from repro.runtime.concurrent import ThreadedEngineRunner, WorkerLoop
from repro.workloads.generic import GenericWorkload
from tests.runtime.fleet import DOUBLE, create_test_runner, local_fleet


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


class Recorder:
    """A consume callback that records batches (and can be told to fail)."""

    def __init__(self, fail_on=None):
        self.batches = []
        self.threads = set()
        self.fail_on = fail_on

    def __call__(self, batch):
        self.threads.add(threading.get_ident())
        if self.fail_on is not None and self.fail_on in batch:
            raise ValueError(f"poisoned by {self.fail_on}")
        self.batches.append(list(batch))

    @property
    def seen(self):
        return [item for batch in self.batches for item in batch]


class TestWorkerLoop:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            WorkerLoop(Recorder(), max_queue=4, batch_size=0)

    def test_backlog_counts_queued_events(self):
        loop = WorkerLoop(Recorder(), max_queue=8, batch_size=4)
        loop.put("a")  # not started: the queue only fills
        loop.put("b")
        assert loop.backlog == 2
        assert loop.queue_high_water == 2

    def test_batches_are_greedy_bounded_and_ordered(self):
        consume = Recorder()
        loop = WorkerLoop(consume, max_queue=64, batch_size=4)
        for item in range(10):
            loop.put(item)
        loop.start()
        loop.call(lambda: None, timeout=5.0)
        assert consume.seen == list(range(10))
        assert [len(batch) for batch in consume.batches] == [4, 4, 2]
        assert loop.events_processed == 10
        loop.stop()
        assert loop.join(5.0)

    def test_call_runs_on_the_owner_thread_behind_queued_events(self):
        consume = Recorder()
        loop = WorkerLoop(consume, max_queue=64, batch_size=4)
        for item in range(6):
            loop.put(item)
        call = loop.begin(lambda: (threading.get_ident(), len(consume.seen)))
        loop.put("after")
        loop.start()
        ident, seen_before = call.wait(5.0)
        assert seen_before == 6, "the call ran behind everything queued before it"
        assert ident != threading.get_ident()
        loop.call(lambda: None, 5.0)
        assert consume.threads == {ident}
        assert consume.seen[-1] == "after"
        loop.stop()
        assert loop.join(5.0)

    def test_call_reraises_without_latching(self):
        loop = WorkerLoop(Recorder(), max_queue=8, batch_size=4)
        loop.start()
        with pytest.raises(KeyError):
            loop.call(lambda: {}["missing"], timeout=5.0)
        assert loop.failure is None
        assert loop.call(lambda: 7, timeout=5.0) == 7
        loop.stop()
        assert loop.join(5.0)

    def test_wait_times_out_when_the_owner_is_busy(self):
        gate = threading.Event()
        loop = WorkerLoop(lambda batch: gate.wait(), max_queue=8, batch_size=1)
        loop.start()
        loop.put("wedge")
        with pytest.raises(TimeoutError):
            loop.call(lambda: None, timeout=0.05)
        gate.set()
        loop.stop()
        assert loop.join(5.0)

    def test_event_failure_latches_and_the_loop_keeps_draining(self):
        consume = Recorder(fail_on="poison")
        loop = WorkerLoop(consume, max_queue=2, batch_size=1)
        loop.start()
        loop.put("ok")
        loop.put("poison")
        # Far more than max_queue: a dead consumer would wedge these puts.
        for item in range(50):
            loop.put(item, timeout=5.0)
        ran = []
        assert loop.call(lambda: ran.append(1), timeout=5.0) is None
        assert not ran, "control callables are skipped after a failure..."
        assert isinstance(loop.failure, ValueError), "...but still acknowledged"
        assert consume.seen == ["ok"]
        assert loop.events_processed == 1
        loop.stop()
        assert loop.join(5.0)

    def test_stop_runs_final_on_the_owner_then_releases_everyone(self):
        gate = threading.Event()
        consume = Recorder()
        final_thread = []

        def slow(batch):
            gate.wait()
            consume(batch)

        loop = WorkerLoop(slow, max_queue=1, batch_size=1)
        loop.start()
        loop.put("first")  # the owner picks this up and blocks on the gate
        wait_until(lambda: loop.backlog == 0)
        loop.stop(final=lambda: final_thread.append(threading.get_ident()))
        # Queued behind the final operation: one more event would block a
        # producer on the full queue, one barrier would wait for an ack.
        blocked = threading.Thread(target=loop.put, args=("late",), daemon=True)
        blocked.start()
        gate.set()
        assert loop.join(5.0)
        blocked.join(5.0)
        assert not blocked.is_alive(), "stop must release producers stuck in put"
        assert consume.seen == ["first"], "events behind the final op are dropped"
        assert final_thread and final_thread[0] in consume.threads
        # The loop is closed: later operations acknowledge at once, unrun.
        assert loop.call(lambda: 1 / 0, timeout=5.0) is None

    def test_final_is_skipped_after_a_failure(self):
        ran = []
        loop = WorkerLoop(Recorder(fail_on="poison"), max_queue=8, batch_size=1)
        loop.start()
        loop.put("poison")
        loop.stop(final=lambda: ran.append(1))
        assert loop.join(5.0)
        assert not ran and isinstance(loop.failure, ValueError)

    def test_final_error_latches_as_the_failure(self):
        loop = WorkerLoop(Recorder(), max_queue=8, batch_size=1)
        loop.start()
        loop.stop(final=lambda: 1 / 0)
        assert loop.join(5.0)
        assert isinstance(loop.failure, ZeroDivisionError)

    def test_producers_and_barriers_racing_lose_nothing(self):
        """More producers than cores, a shortened switch interval: every
        event put is consumed exactly once and every barrier returns."""
        import sys

        consume = Recorder()
        loop = WorkerLoop(consume, max_queue=8, batch_size=3)
        loop.start()
        producers, per_producer = 8, 300

        def produce(worker):
            for index in range(per_producer):
                loop.put((worker, index), timeout=10.0)
                if index % 50 == 49:
                    loop.call(lambda: None, timeout=10.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=produce, args=(n,)) for n in range(producers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            loop.call(lambda: None, timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert loop.events_processed == producers * per_producer
        assert sorted(consume.seen) == [
            (worker, index)
            for worker in range(producers)
            for index in range(per_producer)
        ]
        for worker in range(producers):  # per-producer order survives batching
            mine = [index for w, index in consume.seen if w == worker]
            assert mine == sorted(mine)
        loop.stop()
        assert loop.join(5.0)

    def test_hold_parks_the_owner_until_released(self):
        consume = Recorder()
        resume = threading.Event()
        loop = WorkerLoop(consume, max_queue=8, batch_size=4)
        loop.start()
        loop.put("before")
        loop.begin(lambda: None, hold=resume).wait(5.0)
        loop.put("during")
        time.sleep(0.05)
        assert consume.seen == ["before"], "a held owner consumes nothing"
        resume.set()
        loop.call(lambda: None, 5.0)
        assert consume.seen == ["before", "during"]
        loop.stop()
        assert loop.join(5.0)


class TestLifecycle:
    def test_submit_process_stop(self):
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a, B b)")
        with ThreadedEngineRunner(engine) as runner:
            runner.submit(E("A", 1))
            runner.submit(E("B", 2))
        assert runner.events_processed == 2
        assert len(handle.matches()) == 1

    def test_subscription_fed_on_consumer(self):
        threads = []
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a)", name="q")
        runner = ThreadedEngineRunner(engine)
        runner.subscribe("q", lambda emission: threads.append(threading.get_ident()))
        with runner:
            runner.submit(E("A", 1))
            runner.submit(E("A", 2))
        assert len(threads) == 2
        assert threading.get_ident() not in threads

    def test_flush_emissions_delivered_at_stop(self):
        received = []
        engine = CEPREngine()
        engine.register_query(
            "PATTERN SEQ(A a) WITHIN 100 EVENTS RANK BY a.x DESC "
            "EMIT ON WINDOW CLOSE",
            name="q",
        )
        runner = ThreadedEngineRunner(engine)
        runner.subscribe("q", received.append)
        with runner:
            runner.submit(E("A", 1, x=1))
        assert len(received) == 1  # the epoch closed at flush

    def test_double_start_rejected(self):
        runner = ThreadedEngineRunner(CEPREngine())
        runner.start()
        with pytest.raises(RuntimeError, match="already started"):
            runner.start()
        runner.stop()

    def test_submit_after_stop_rejected(self):
        runner = ThreadedEngineRunner(CEPREngine()).start()
        runner.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            runner.submit(E("A", 1))

    def test_stop_is_idempotent(self):
        runner = ThreadedEngineRunner(CEPREngine()).start()
        runner.stop()
        runner.stop()

    def test_a_stop_that_times_out_leaves_the_runner_failed(self):
        """Regression: a ``stop()`` that timed out used to mark the runner
        stopped while its consumer was still inside the engine, so a
        ``flush()`` from another thread ran the engine there — two threads
        in one engine, delivering the held window off the consumer."""
        gate = threading.Event()
        deliveries = []  # the thread each emission was delivered on
        engine = CEPREngine()
        engine.register_query(
            "PATTERN SEQ(A a) WITHIN 2 EVENTS RANK BY a.x DESC EMIT ON WINDOW CLOSE",
            name="q",
        )

        def wedge(emission):
            deliveries.append(threading.get_ident())
            if len(deliveries) == 1:
                gate.wait(10.0)

        runner = ThreadedEngineRunner(engine)
        runner.subscribe("q", wedge)
        runner.start()
        for i in range(3):  # epoch 0 closes on the third event; epoch 1 is held
            runner.submit(E("A", float(i), x=i))
        wait_until(lambda: deliveries)
        consumer = deliveries[0]
        with pytest.raises(TimeoutError):
            runner.stop(timeout=0.2)

        outcome = []

        def teardown():
            try:
                outcome.append(runner.flush())
            except RuntimeError as exc:
                outcome.append(exc)

        second = threading.Thread(target=teardown)
        second.start()
        second.join(5.0)
        assert deliveries == [consumer], "nothing delivered off the consumer"
        assert isinstance(outcome[0], RuntimeError)
        assert "engine thread failed" in str(outcome[0])
        with pytest.raises(RuntimeError, match="engine thread failed"):
            runner.submit(E("A", 9.0, x=9))
        gate.set()
        with pytest.raises(RuntimeError, match="engine thread failed"):
            runner.stop(timeout=5.0)
        assert runner._loop.join(0), "the consumer thread is joined"
        assert deliveries == [consumer], "the failed runner flushed nothing"


    @staticmethod
    def wedged_with_a_full_queue():
        """A runner whose consumer is stuck in a subscription and whose
        ingest queue (``max_queue=2``) is full behind it."""
        gate = threading.Event()
        delivered = []
        engine = CEPREngine()
        engine.register_query(
            "PATTERN SEQ(A a) WITHIN 2 EVENTS RANK BY a.x DESC EMIT ON WINDOW CLOSE",
            name="q",
        )

        def wedge(emission):
            delivered.append(emission)
            gate.wait(10.0)

        runner = ThreadedEngineRunner(engine, max_queue=2, batch_size=1)
        runner.subscribe("q", wedge)
        runner.start()
        for i in range(3):  # epoch 0 closes on the third event
            runner.submit(E("A", float(i), x=i))
        wait_until(lambda: delivered)
        for i in (3, 4):  # two more fill the queue
            runner.submit(E("A", float(i), x=i))
        assert runner.backlog == 2
        return runner, gate

    def test_kill_obeys_its_timeout_with_a_wedged_consumer_and_a_full_queue(self):
        """Regression: ``kill`` queued its final operation with a blocking
        put, so it returned only once the consumer made room; and once it
        did return in time, it killed the engine from the caller's thread
        while the consumer was still inside it."""
        runner, gate = self.wedged_with_a_full_queue()
        engine, consumer = runner.engine, runner._loop._thread
        kills = []  # (on the consumer's thread, consumer still running)
        engine_kill = engine.kill

        def recording_kill():
            kills.append((threading.current_thread() is consumer, consumer.is_alive()))
            engine_kill()

        engine.kill = recording_kill
        opener = threading.Timer(3.0, gate.set)  # bounds the old hang
        opener.start()
        started = time.monotonic()
        try:
            runner.kill(timeout=0.5)
            elapsed = time.monotonic() - started
            killed_while_wedged = list(kills)
        finally:
            gate.set()
            opener.cancel()
        assert elapsed < 1.0
        assert killed_while_wedged == [], "the engine was touched while the consumer ran"
        assert not engine._flushed and not engine._closed
        assert runner._loop.join(5.0), "the consumer leaves once unwedged"
        runner.kill(timeout=5.0)  # joins the consumer that left, then kills
        assert kills == [(False, False)]
        assert engine._flushed and engine._closed

    def test_a_first_stop_obeys_its_timeout_with_a_full_queue(self):
        runner, gate = self.wedged_with_a_full_queue()
        opener = threading.Timer(3.0, gate.set)
        opener.start()
        started = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                runner.stop(timeout=0.5)
            elapsed = time.monotonic() - started
        finally:
            gate.set()
            opener.cancel()
        assert elapsed < 1.0
        with pytest.raises(RuntimeError, match="engine thread failed"):
            runner.stop(timeout=5.0)
        assert runner._loop.join(0), "the consumer thread is joined"


class TestConcurrency:
    def test_many_producers_one_engine(self):
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a)")
        runner = ThreadedEngineRunner(engine).start()

        def produce(offset):
            for i in range(200):
                runner.submit(E("A", float(offset * 1000 + i)))

        threads = [threading.Thread(target=produce, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        runner.stop()
        assert runner.events_processed == 800
        assert len(handle.matches()) == 800

    def test_results_match_sequential_run(self):
        workload = GenericWorkload(seed=9, alphabet_size=3)
        events = list(workload.events(1000))
        query = (
            "PATTERN SEQ(A a, B b) WITHIN 30 EVENTS USING SKIP_TILL_ANY "
            "RANK BY b.value - a.value DESC LIMIT 3 EMIT ON WINDOW CLOSE"
        )

        threaded_engine = CEPREngine()
        threaded_handle = threaded_engine.register_query(query)
        with ThreadedEngineRunner(threaded_engine) as runner:
            runner.submit_all(
                Event(e.event_type, e.timestamp, **e.payload) for e in events
            )

        sequential_engine = CEPREngine()
        sequential_handle = sequential_engine.register_query(query)
        sequential_engine.run(
            Event(e.event_type, e.timestamp, **e.payload) for e in events
        )

        def fp(handle):
            return [
                (e.epoch, tuple(tuple(m.rank_values) for m in e.ranking))
                for e in handle.results()
            ]

        assert fp(threaded_handle) == fp(sequential_handle)

    def test_engine_failure_surfaces_to_producer(self):
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a) WHERE a.x > 1")
        runner = ThreadedEngineRunner(engine).start()
        runner.submit(E("A", 1))  # missing x: strict mode raises in thread
        with pytest.raises(RuntimeError, match="engine thread failed"):
            runner.stop()
        assert runner.failure is not None

    def test_backlog_visible(self):
        gate = threading.Event()
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a)", name="q")
        engine.subscribe("q", lambda emission: gate.wait())
        runner = ThreadedEngineRunner(engine).start()
        runner.submit(E("A", 1))  # wedges the consumer in the subscription
        wait_until(lambda: runner.backlog == 0)
        runner.submit(E("A", 2))
        assert runner.backlog == 1
        gate.set()
        runner.stop()


class TestStress:
    """Adversarial schedules: races, mid-stream failures, saturation."""

    def test_producers_racing_submit_against_stop(self):
        """Producers hammering submit while the main thread stops the
        runner must never deadlock or corrupt state: each submit either
        lands or raises the runner-stopped error."""
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a)")
        runner = ThreadedEngineRunner(engine, max_queue=64).start()
        start_gate = threading.Event()
        rejected = threading.Event()

        def produce(offset):
            start_gate.wait()
            for i in range(5000):
                try:
                    runner.submit(E("A", float(offset * 10_000 + i)))
                except RuntimeError as exc:
                    assert "stopped" in str(exc)
                    rejected.set()
                    return

        threads = [
            threading.Thread(target=produce, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        start_gate.set()
        runner.stop()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # Everything the consumer processed became a match; submits that
        # arrived behind the stop sentinel were dropped, never processed.
        assert len(handle.matches()) == runner.events_processed
        assert runner.events_processed <= runner.events_submitted

    def test_predicate_error_mid_stream_surfaces_and_joins(self):
        """A predicate raising with lenient_errors=False must kill the
        consumer cleanly: stop() re-raises with the cause attached and the
        thread is joined, not leaked."""
        engine = CEPREngine(lenient_errors=False)
        engine.register_query("PATTERN SEQ(A a, B b) WHERE b.x / a.x > 0")
        runner = ThreadedEngineRunner(engine).start()
        runner.submit(E("A", 1, x=2))
        runner.submit(E("B", 2, x=4))  # fine: 4 / 2
        runner.submit(E("A", 3, x=0))
        runner.submit(E("B", 4, x=1))  # 1 / 0 raises mid-stream
        with pytest.raises(RuntimeError, match="engine thread failed") as info:
            runner.stop()
        assert info.value.__cause__ is runner.failure
        assert runner._loop.join(0), "the consumer thread must be joined"
        # Producers see the failure too, rather than queueing into a void.
        with pytest.raises(RuntimeError):
            runner.submit(E("A", 5, x=1))

    def test_submit_blocks_at_max_queue(self):
        """Backpressure: with the consumer wedged, the bounded queue fills
        and submit(timeout=...) raises queue.Full instead of growing
        memory without bound."""
        gate = threading.Event()
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a)", name="q")
        engine.subscribe("q", lambda emission: gate.wait())
        runner = ThreadedEngineRunner(engine, max_queue=2).start()

        # First event wedges the consumer inside the subscription; the rest
        # can only pile into the queue, which holds exactly max_queue.
        runner.submit(E("A", 1))
        wait_until(lambda: runner.backlog == 0)  # consumer picked #1 up
        runner.submit(E("A", 2))
        runner.submit(E("A", 3))
        with pytest.raises(queue_module.Full):
            runner.submit(E("A", 4), timeout=0.2)
        assert runner.backlog == 2
        gate.set()  # unwedge; everything drains
        runner.stop()
        assert runner.events_processed == 3

    def test_a_submit_that_times_out_admits_nothing(self):
        """A ``submit(timeout)`` that raises ``queue.Full`` leaves the
        ingress as if the event had never come: not held, not counted,
        and the same event submitted later is admitted as usual."""
        gate = threading.Event()
        engine = CEPREngine(max_lateness=0.0)
        engine.register_query("PATTERN SEQ(A a)", name="q")
        engine.subscribe("q", lambda emission: gate.wait())
        runner = ThreadedEngineRunner(engine, max_queue=1).start()
        runner.submit(E("A", 1))  # released at once, wedges the consumer
        wait_until(lambda: runner.backlog == 0)
        runner.submit(E("A", 2))
        before = runner.ingress.snapshot(), runner.events_submitted
        with pytest.raises(queue_module.Full):
            runner.submit(E("A", 3), timeout=0.2)
        assert (runner.ingress.snapshot(), runner.events_submitted) == before
        gate.set()
        runner.submit(E("A", 3))
        runner.stop()
        assert [m.last_ts for m in engine.query("q").matches()] == [1, 2, 3]

    @pytest.mark.parametrize("max_lateness", [None, 0.0])
    def test_racing_producers_share_one_ingress(self, max_lateness):
        """Eight producers race on the runner's ingress with a short
        switch interval: no admission is lost or doubled, with or without
        a lateness buffer."""
        engine = CEPREngine(max_lateness=max_lateness)
        handle = engine.register_query("PATTERN SEQ(A a)")
        runner = ThreadedEngineRunner(engine, max_queue=64).start()
        producers, each = 8, 1000

        def produce(offset):
            for i in range(each):
                runner.submit(E("A", 1.0 if max_lateness is not None else float(i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=produce, args=(n,)) for n in range(producers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        runner.stop()
        assert runner.events_submitted == producers * each
        assert engine.metrics.events_pushed == len(handle.matches()) == producers * each
        if max_lateness is not None:
            assert runner.ingress.lateness.late_drops == 0

    def test_ingest_lag_is_the_skew_between_submit_and_drain(self):
        gate = threading.Event()
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a)", name="q")
        engine.subscribe("q", lambda emission: gate.wait())
        runner = ThreadedEngineRunner(engine).start()
        assert runner.ingest_lag_seconds == 0.0
        runner.submit(E("A", 1))  # the consumer drains it, then wedges
        wait_until(lambda: runner.backlog == 0)
        runner.submit(E("A", 5))
        runner.submit(E("A", 9))
        assert runner.ingest_lag_seconds == 8.0
        gate.set()
        runner.sync()
        assert runner.ingest_lag_seconds == 0.0
        runner.stop()


FAILING = "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.missing DESC LIMIT 1"


def failed_threaded():
    engine = CEPREngine()
    # RANK BY references an attribute the events won't carry, so scoring
    # raises on the consumer thread mid-batch.
    engine.register_query(FAILING, collect_results=False)
    return ThreadedEngineRunner(engine).start(), "engine thread failed"


def failed_sharded():
    runner = local_fleet(shards=2)
    runner.register_query(FAILING + " PARTITION BY k")
    return runner.start(), "shard failed"


class TestSharedLoopContract:
    """What both runners promise about failures and teardown."""

    @pytest.mark.parametrize("build", [failed_threaded, failed_sharded])
    def test_barriers_acknowledge_after_a_consumer_failure(self, build):
        """Regression (PR 1 threaded, PR 5 sharded): nothing may wedge."""
        runner, message = build()
        with pytest.raises(RuntimeError, match=message):
            for i in range(50):
                runner.submit(E("A", float(i), k=i % 4))
            runner.sync()
        # Every later barrier must fail fast instead of blocking forever.
        for barrier in (
            runner.sync,
            runner.poll,
            lambda: runner.advance_time(99.0),
            runner.snapshot,
        ):
            with pytest.raises(RuntimeError, match=message):
                barrier()
        with pytest.raises(RuntimeError, match=message):
            runner.submit(E("A", 100.0, k=0))
        with pytest.raises(RuntimeError, match=message):
            runner.stop()

    @pytest.mark.parametrize("teardown", ["flush", "close"])
    @pytest.mark.parametrize("backend", ["threaded", "process", DOUBLE])
    def test_teardown_after_a_failed_stop_delivers_nothing(self, backend, teardown):
        """After a latched failure and the ``stop()`` that raises it, no
        ``flush()`` or ``close()`` drives the engine: the held window of
        the healthy query stays unreleased on every backend."""
        runner = create_test_runner(
            {
                "good": "PATTERN SEQ(A a, B b) WHERE a.k == b.k PARTITION BY k "
                "WITHIN 10 EVENTS RANK BY b.x DESC LIMIT 2 EMIT ON WINDOW CLOSE",
                "bad": "PATTERN SEQ(C c) WITHIN 5 EVENTS PARTITION BY k "
                "RANK BY c.missing DESC LIMIT 1",
            },
            RunnerConfig(backend=backend, shards=2),
        )
        delivered = []
        runner.subscribe("good", delivered.append)
        runner.start()
        runner.submit(E("A", 1.0, k=1, x=1))
        runner.submit(E("B", 2.0, k=1, x=2))
        runner.sync()
        runner.submit(E("C", 3.0, k=1))
        with pytest.raises(RuntimeError, match="failed"):
            runner.sync()
        with pytest.raises(RuntimeError, match="failed"):
            runner.stop()
        assert not getattr(runner, teardown)()
        runner.close()
        assert delivered == []

    def test_threaded_pause_fails_fast_after_a_consumer_failure(self):
        runner, message = failed_threaded()
        with pytest.raises(RuntimeError, match=message):
            for i in range(50):
                runner.submit(E("A", float(i)))
            runner.sync(timeout=10.0)
        with pytest.raises(RuntimeError, match=message):
            with runner.pause():
                pass
        with pytest.raises(RuntimeError, match=message):
            runner.advance_time(99.0, timeout=10.0)

    def test_pause_excludes_the_consumer(self):
        engine = CEPREngine()
        handle = engine.register_query("PATTERN SEQ(A a)")
        with ThreadedEngineRunner(engine) as runner:
            runner.submit(E("A", 1.0))
            with runner.pause() as paused:
                assert paused is engine
                assert runner.events_processed == 1, "pause queues behind events"
                runner.submit(E("A", 2.0))
                time.sleep(0.05)
                assert runner.events_processed == 1, "the consumer is parked"
                assert len(handle.matches()) == 1
            runner.sync()
            assert runner.events_processed == 2
        assert len(handle.matches()) == 2

    def test_stop_drains_sharded_producers(self):
        """Producers racing submit against stop on a fleet: every submit
        either lands or raises the runner-stopped error; nobody hangs."""
        runner = local_fleet(shards=2, batch_size=16)
        view = runner.register_query("PATTERN SEQ(A a) PARTITION BY k")
        runner.start()
        start_gate = threading.Event()

        def produce(offset):
            start_gate.wait()
            for i in range(2000):
                try:
                    runner.submit(E("A", float(offset * 10_000 + i), k=i % 8))
                except RuntimeError as exc:
                    assert "stopped" in str(exc)
                    return

        threads = [threading.Thread(target=produce, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        start_gate.set()
        runner.stop()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert len(view.matches()) == runner.events_pushed
