"""Per-query cost accounting: the registry view, ratios, ranking.

The accounts are views of the metrics registry
(``repro.observability.instruments.cost_accounts``), so the churn test at
the bottom is the real contract: after registering and unregistering 100
queries, ``cepr top``'s data source must list exactly the survivors — a
ghost query cannot linger because there is no parallel state to retire.
"""

import pytest

from repro.observability.cost import CostAccount, rank_accounts
from repro.observability.instruments import cost_accounts
from repro.runtime.engine import CEPREngine
from repro.events.event import Event

QUERY = """
NAME spread
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 30 EVENTS
PARTITION BY symbol
RANK BY s.price - b.price DESC
LIMIT 3
EMIT ON WINDOW CLOSE
"""


def _stream(pairs: int = 10):
    ts = 0.0
    for i in range(pairs):
        ts += 1.0
        yield Event("Buy", ts, symbol="A", price=10.0)
        ts += 1.0
        yield Event("Sell", ts, symbol="A", price=11.0 + i)


class TestFromRegistry:
    def test_reads_live_counters(self):
        engine = CEPREngine()
        handle = engine.register_query(QUERY)
        for event in _stream():
            engine.push(event)
        engine.flush()

        account = cost_accounts(engine.metrics_registry())["spread"]
        assert account == engine.cost_accounts()["spread"]
        assert account.query == "spread"
        assert account.events_routed == 20
        assert account.runs_created > 0
        assert account.matches == handle.pipeline.metrics.matches
        assert account.emissions == handle.emissions
        assert account.cpu_seconds > 0.0
        assert account.parts == 1

    def test_counts_every_way_a_run_ends_and_every_error(self):
        """``runs_killed`` and ``evaluation_errors`` have one definition,
        the instrument table's (scoring and YIELD errors included)."""
        engine = CEPREngine(lenient_errors=True)
        handle = engine.register_query(QUERY)
        for event in _stream():
            engine.push(event)
        engine.push(Event("Buy", 50.0, symbol="A", price=10.0))
        engine.push(Event("Sell", 51.0, symbol="A"))  # no price: lenient error
        engine.flush()
        stats = handle.matcher.stats
        account = engine.cost_accounts()["spread"]
        assert account.runs_killed == (
            stats.runs_killed_strict
            + stats.runs_killed_negation
            + stats.runs_tripped
            + stats.runs_expired
        )
        assert account.evaluation_errors == stats.evaluation_errors > 0

    def test_account_is_a_view_not_a_snapshot(self):
        engine = CEPREngine()
        engine.register_query(QUERY)
        before = engine.cost_accounts()["spread"]
        assert before.events_routed == 0
        for event in _stream():
            engine.push(event)
        after = engine.cost_accounts()["spread"]
        assert after.events_routed == 20
        # the first account was materialised before the stream: unchanged
        assert before.events_routed == 0

    def test_derived_ratios(self):
        account = CostAccount(
            query="q",
            events_routed=100,
            runs_created=10,
            runs_pruned=4,
            shared_hits=30,
            shared_misses=10,
            cpu_seconds=0.01,
        )
        assert account.predicate_evals == 40
        assert account.hit_ratio == pytest.approx(0.75)
        assert account.prune_ratio == pytest.approx(0.4)
        assert account.cpu_per_event_us == pytest.approx(100.0)

    def test_ratios_guard_zero_denominators(self):
        account = CostAccount(query="q")
        assert account.hit_ratio == 0.0
        assert account.prune_ratio == 0.0
        assert account.cpu_per_event_us == 0.0


class TestRanking:
    def test_orders_by_cpu_then_events_then_name(self):
        accounts = [
            CostAccount(query="cheap", cpu_seconds=0.1, events_routed=5),
            CostAccount(query="hot", cpu_seconds=0.9, events_routed=1),
            CostAccount(query="busy", cpu_seconds=0.1, events_routed=50),
            CostAccount(query="alpha", cpu_seconds=0.1, events_routed=5),
        ]
        ranked = [account.query for account in rank_accounts(accounts)]
        assert ranked == ["hot", "busy", "alpha", "cheap"]

    def test_to_dict_includes_derived_fields(self):
        doc = CostAccount(
            query="q", shared_hits=1, shared_misses=1
        ).to_dict()
        assert doc["predicate_evals"] == 2
        assert doc["hit_ratio"] == 0.5
        assert "cpu_per_event_us" in doc

    def test_describe_is_one_line(self):
        text = CostAccount(query="q", runs_created=3).describe()
        assert "\n" not in text
        assert "runs +3" in text


class TestEngineAccounts:
    def test_cost_accounts_keyed_by_name(self):
        engine = CEPREngine()
        engine.register_query(QUERY, name="first")
        engine.register_query(QUERY, name="second")
        accounts = engine.cost_accounts()
        assert sorted(accounts) == ["first", "second"]
        assert accounts["first"].query == "first"

    def test_hundred_query_churn_leaves_no_ghosts(self):
        """The `cepr top` data source after heavy register/unregister churn."""
        engine = CEPREngine()
        for i in range(100):
            engine.register_query(QUERY, name=f"churn{i}")
            for event in _stream(pairs=2):
                engine.push(event)
            engine.unregister_query(f"churn{i}")
        engine.register_query(QUERY, name="survivor")
        accounts = engine.cost_accounts()
        assert list(accounts) == ["survivor"]
        ranked = rank_accounts(accounts.values())
        assert [account.query for account in ranked] == ["survivor"]

    def test_explain_includes_cost_line(self):
        engine = CEPREngine()
        handle = engine.register_query(QUERY)
        for event in _stream():
            engine.push(event)
        assert "cost:" in handle.explain()
