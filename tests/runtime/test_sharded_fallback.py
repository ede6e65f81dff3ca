"""Solo-fallback observability: warning log + ``solo_fallback`` stat.

When ``--shards N`` was requested but a query's shardability certificate
forces it onto a solo engine, the runner must say so (log line naming the
blocker) and count it (``solo_fallback`` in ``stats_by_query``), instead
of silently ignoring the parallelism the caller asked for.
"""

import logging

import pytest

from tests.runtime.fleet import local_fleet

PARTITIONED_TUMBLING = (
    "NAME fleet PATTERN SEQ(Buy a, Sell b) WHERE a.symbol == b.symbol "
    "WITHIN 50 EVENTS PARTITION BY symbol EMIT ON WINDOW CLOSE"
)
UNPARTITIONED = (
    "NAME solo_q PATTERN SEQ(Buy a, Sell b) WHERE a.symbol == b.symbol "
    "WITHIN 50 EVENTS EMIT ON WINDOW CLOSE"
)


class TestSoloFallback:
    def test_fallback_logs_blocker_and_counts(self, caplog):
        runner = local_fleet(shards=4)
        runner.register_query(UNPARTITIONED)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.sharded"):
            runner.start()
        runner.stop()

        messages = [r.getMessage() for r in caplog.records]
        assert any(
            "solo_q" in m and "--shards 4" in m and "CEPR401" in m
            for m in messages
        ), messages
        assert runner.stats_by_query()["solo_q"]["solo_fallback"] == 1.0

    def test_shardable_query_does_not_warn(self, caplog):
        runner = local_fleet(shards=4)
        runner.register_query(PARTITIONED_TUMBLING)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.sharded"):
            runner.start()
        runner.stop()

        assert caplog.records == []
        assert runner.stats_by_query()["fleet"]["solo_fallback"] == 0.0

    def test_single_shard_is_not_a_fallback(self, caplog):
        # shards=1 means the caller never asked for parallelism; running
        # solo is the plan, not a degradation.
        runner = local_fleet(shards=1)
        runner.register_query(UNPARTITIONED)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.sharded"):
            runner.start()
        runner.stop()

        assert caplog.records == []
        assert runner.stats_by_query()["solo_q"]["solo_fallback"] == 0.0

    def test_yield_deployment_pin_reports_cepr405(self, caplog):
        runner = local_fleet(shards=4)
        runner.register_query(
            "NAME pair PATTERN SEQ(Buy b, Sell s) WHERE b.symbol == s.symbol "
            "PARTITION BY symbol YIELD Pair(symbol = b.symbol)"
        )
        runner.register_query(PARTITIONED_TUMBLING)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.sharded"):
            runner.start()
        runner.stop()

        messages = [r.getMessage() for r in caplog.records]
        # Both queries fall back: the yielding one by its own certificate,
        # the other because the derived stream must stay on one engine.
        assert any("pair" in m and "CEPR405" in m for m in messages), messages
        assert any("fleet" in m and "CEPR405" in m for m in messages), messages
        stats = runner.stats_by_query()
        assert stats["pair"]["solo_fallback"] == 1.0
        assert stats["fleet"]["solo_fallback"] == 1.0

    def test_shardability_report_exposed_on_view(self):
        runner = local_fleet(shards=2)
        view = runner.register_query(UNPARTITIONED)
        assert not view.shardability.shardable
        assert [d.code for d in view.shardability.blockers] == ["CEPR401"]
        runner.start()
        runner.stop()
