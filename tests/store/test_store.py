"""Tests for the event log and back-testing."""

import pytest

from repro import CEPREngine, Event
from repro.runtime.runner import RunnerConfig
from repro.store.backtest import Backtester, RecordingTap
from repro.store.log import EventLog, LogCorruptError
from repro.workloads.stock import StockWorkload


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


@pytest.fixture
def log(tmp_path):
    return EventLog(tmp_path / "events.log", index_stride=4)


class TestAppendAndScan:
    def test_round_trip(self, log):
        events = [E("A", float(i), n=i) for i in range(10)]
        assert log.append_all(events) == 10
        assert list(log.scan()) == events
        assert len(log) == 10
        assert log.time_range == (0.0, 9.0)

    def test_empty_log(self, log):
        assert list(log.scan()) == []
        assert log.time_range is None
        assert len(log) == 0

    def test_regressing_timestamp_rejected(self, log):
        log.append(E("A", 5.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            log.append(E("A", 4.0))

    def test_equal_timestamps_allowed(self, log):
        log.append(E("A", 5.0, n=1))
        log.append(E("A", 5.0, n=2))
        assert [e["n"] for e in log.scan()] == [1, 2]

    def test_time_range_scan_half_open(self, log):
        log.append_all(E("A", float(i)) for i in range(10))
        scanned = [e.timestamp for e in log.scan(start_ts=3.0, end_ts=7.0)]
        assert scanned == [3.0, 4.0, 5.0, 6.0]

    def test_type_filter(self, log):
        log.append_all([E("A", 1.0), E("B", 2.0), E("A", 3.0)])
        assert [e.timestamp for e in log.scan(types=["A"])] == [1.0, 3.0]

    def test_sparse_index_seek_correct(self, tmp_path):
        # stride 4 over 100 events: scan from mid-file must not miss/dup
        log = EventLog(tmp_path / "big.log", index_stride=4)
        log.append_all(E("A", float(i)) for i in range(100))
        scanned = [e.timestamp for e in log.scan(start_ts=53.0)]
        assert scanned == [float(i) for i in range(53, 100)]

    def test_scan_before_first_index_entry(self, log):
        log.append_all(E("A", float(i + 10)) for i in range(10))
        assert len(list(log.scan(start_ts=0.0))) == 10


class TestPersistence:
    def test_reopen_restores_state(self, tmp_path):
        path = tmp_path / "events.log"
        with EventLog(path, index_stride=4) as log:
            log.append_all(E("A", float(i), n=i) for i in range(20))
        reopened = EventLog(path, index_stride=4)
        assert len(reopened) == 20
        assert reopened.time_range == (0.0, 19.0)
        assert [e["n"] for e in reopened.scan(start_ts=15.0)] == [15, 16, 17, 18, 19]

    def test_append_after_reopen(self, tmp_path):
        path = tmp_path / "events.log"
        with EventLog(path) as log:
            log.append(E("A", 1.0))
        with EventLog(path) as log:
            log.append(E("A", 2.0))
            log.flush()
            assert len(list(log.scan())) == 2

    def test_reopen_rejects_earlier_appends(self, tmp_path):
        path = tmp_path / "events.log"
        with EventLog(path) as log:
            log.append(E("A", 9.0))
        reopened = EventLog(path)
        with pytest.raises(ValueError, match="non-decreasing"):
            reopened.append(E("A", 1.0))

    def test_corrupt_interior_line_detected(self, tmp_path):
        # A bad line *before* the end of the file is real corruption, not a
        # torn tail (torn-tail recovery is covered in test_log_recovery.py).
        path = tmp_path / "events.log"
        path.write_text(
            '{"type": "A", "timestamp": 1.0}\n'
            "not json\n"
            '{"type": "A", "timestamp": 2.0}\n'
        )
        with pytest.raises(LogCorruptError, match="bad event record"):
            EventLog(path)

    def test_regressing_file_detected(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text(
            '{"type": "A", "timestamp": 5.0}\n{"type": "A", "timestamp": 1.0}\n'
        )
        with pytest.raises(LogCorruptError, match="regress"):
            EventLog(path)

    def test_sync_size(self, log):
        assert log.sync_size() == 0
        log.append(E("A", 1.0))
        assert log.sync_size() > 0

    def test_invalid_stride(self, tmp_path):
        with pytest.raises(ValueError, match="index_stride"):
            EventLog(tmp_path / "x.log", index_stride=0)


QUERY = """
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 50 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""


class TestRecordingTap:
    def test_tee_records_and_processes(self, tmp_path):
        workload = StockWorkload(seed=5)
        log = EventLog(tmp_path / "stream.log")
        engine = CEPREngine(registry=workload.registry())
        handle = engine.register_query(QUERY)
        tap = RecordingTap(engine, log)
        tap.run(workload.events(500))
        assert len(log) == 500
        assert handle.pipeline.metrics.events_routed == 500


class TestBacktester:
    def record(self, tmp_path, count=2000):
        workload = StockWorkload(seed=5)
        log = EventLog(tmp_path / "stream.log")
        log.append_all(workload.events(count))
        return log, workload.registry()

    def test_backtest_equals_live_run(self, tmp_path):
        log, registry = self.record(tmp_path)
        result = Backtester(log, RunnerConfig(registry=registry)).run(QUERY)

        workload = StockWorkload(seed=5)
        engine = CEPREngine(registry=registry)
        handle = engine.register_query(QUERY)
        engine.run(workload.events(2000))

        def fp(emissions):
            return [
                (e.epoch, tuple(tuple(m.rank_values) for m in e.ranking))
                for e in emissions
            ]

        assert fp(result.emissions) == fp(handle.results())
        assert result.matches == handle.pipeline.metrics.matches

    def test_time_sliced_backtest(self, tmp_path):
        log, registry = self.record(tmp_path)
        lo, hi = log.time_range
        mid = (lo + hi) / 2
        backtester = Backtester(log, RunnerConfig(registry=registry))
        first_half = backtester.run(QUERY, end_ts=mid)
        second_half = backtester.run(QUERY, start_ts=mid)
        assert first_half.events_replayed + second_half.events_replayed == len(log)

    def test_compare_candidates(self, tmp_path):
        log, registry = self.record(tmp_path, count=800)
        results = Backtester(log, RunnerConfig(registry=registry)).compare(
            {
                "loose": QUERY,
                "tight": QUERY.replace("s.price > b.price", "s.price > b.price * 1.01"),
            }
        )
        assert set(results) == {"loose", "tight"}
        assert results["tight"].matches <= results["loose"].matches

    def test_backtest_result_final_ranking(self, tmp_path):
        log, registry = self.record(tmp_path, count=500)
        result = Backtester(log, RunnerConfig(registry=registry)).run(QUERY)
        if result.emissions:
            assert result.final_ranking == result.emissions[-1].ranking
