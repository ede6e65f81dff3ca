"""Score-bound pruning: effectiveness and — critically — exactness."""

from repro import CEPREngine, Event
from repro.workloads.generic import GenericWorkload
from repro.workloads.stock import StockWorkload


def run_with(query_text, events, registry, enable_pruning):
    engine = CEPREngine(registry=registry, enable_pruning=enable_pruning)
    handle = engine.register_query(query_text)
    engine.run(events)
    return engine, handle


def emission_fingerprints(handle):
    return [
        (
            emission.kind,
            emission.epoch,
            tuple((m.first_seq, m.last_seq, m.rank_values) for m in emission.ranking),
        )
        for emission in handle.results()
    ]


STOCK_QUERY = """
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 60 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""


class TestExactness:
    """Pruning must never change emitted rankings — only skip dead work."""

    def test_stock_query_identical_results(self):
        workload = StockWorkload(seed=7)
        registry = workload.registry()
        events = list(workload.events(3000))
        _, pruned = run_with(STOCK_QUERY, events, registry, enable_pruning=True)
        workload.reset()
        events = list(workload.events(3000))
        _, unpruned = run_with(STOCK_QUERY, events, registry, enable_pruning=False)
        assert emission_fingerprints(pruned) == emission_fingerprints(unpruned)

    def test_kleene_aggregate_query_identical_results(self):
        query = """
            PATTERN SEQ(A first, B bs+)
            WITHIN 20 EVENTS
            USING SKIP_TILL_ANY
            RANK BY sum(bs.value) DESC
            LIMIT 2
            EMIT ON WINDOW CLOSE
        """
        workload = GenericWorkload(seed=3, alphabet_size=3)
        registry = workload.registry()
        events = list(workload.events(600))
        _, pruned = run_with(query, events, registry, enable_pruning=True)
        workload.reset()
        events = list(workload.events(600))
        _, unpruned = run_with(query, events, registry, enable_pruning=False)
        assert emission_fingerprints(pruned) == emission_fingerprints(unpruned)


GENERIC_QUERY = """
    PATTERN SEQ(A a, B b)
    WITHIN 25 EVENTS
    USING SKIP_TILL_ANY
    RANK BY b.value - a.value DESC
    LIMIT 1
    EMIT ON WINDOW CLOSE
"""


class TestEffectiveness:
    def test_pruning_discards_runs(self):
        # The declared value domain is exactly the generator's range, so the
        # optimistic bound (domain.hi - a.value) is tight: once the epoch's
        # best profit exceeds it, new runs from high-value A events die.
        workload = GenericWorkload(seed=5, alphabet_size=2)
        events = list(workload.events(2000))
        engine, handle = run_with(
            GENERIC_QUERY, events, workload.registry(), enable_pruning=True
        )
        stats = handle.matcher.stats
        assert stats.runs_pruned > 0
        assert handle.pruner is not None
        assert handle.pruner.stats.pruned == stats.runs_pruned

    def test_pruning_reduces_live_runs(self):
        def peak_runs(enable):
            workload = GenericWorkload(seed=5, alphabet_size=2)
            events = list(workload.events(2000))
            _, handle = run_with(
                GENERIC_QUERY, events, workload.registry(), enable_pruning=enable
            )
            return handle.matcher.stats.peak_live_runs

        assert peak_runs(True) < peak_runs(False)

    def test_no_pruning_without_domains(self):
        # Without a registry the value domain is unknown → bounds unavailable.
        workload = GenericWorkload(seed=5, alphabet_size=2)
        events = list(workload.events(1000))
        engine, handle = run_with(GENERIC_QUERY, events, None, enable_pruning=True)
        assert handle.matcher.stats.runs_pruned == 0
        assert handle.pruner.stats.unbounded_expression > 0

    def test_loose_domains_prune_conservatively(self):
        # A domain much wider than the data keeps bounds optimistic: pruning
        # stays exact but fires rarely (never, for the stock walk's spread).
        workload = StockWorkload(seed=7)
        events = list(workload.events(1000))
        _, handle = run_with(STOCK_QUERY, events, workload.registry(), True)
        assert handle.pruner.stats.attempts > 0

    def test_smaller_k_prunes_more(self):
        def pruned_for(k):
            workload = GenericWorkload(seed=11, alphabet_size=2)
            events = list(workload.events(2000))
            query = GENERIC_QUERY.replace("LIMIT 1", f"LIMIT {k}")
            _, handle = run_with(query, events, workload.registry(), True)
            return handle.matcher.stats.runs_pruned

        assert pruned_for(1) >= pruned_for(10)

    def test_prune_rate_statistic(self):
        workload = GenericWorkload(seed=5, alphabet_size=2)
        events = list(workload.events(1500))
        _, handle = run_with(GENERIC_QUERY, events, workload.registry(), True)
        stats = handle.pruner.stats
        assert 0.0 < stats.prune_rate <= 1.0
        assert stats.attempts >= stats.pruned


class TestAccounting:
    """Every attempt lands in exactly one ``PruningStats`` bucket."""

    @staticmethod
    def buckets(stats):
        return (
            stats.pruned
            + stats.no_bound_available
            + stats.unbounded_expression
            + stats.kept
        )

    def attempts_of(self, query, events, registry):
        _, handle = run_with(query, events, registry, enable_pruning=True)
        stats = handle.pruner.stats
        assert stats.attempts > 0
        assert stats.attempts == self.buckets(stats)
        return stats

    def generic(self):
        workload = GenericWorkload(seed=5, alphabet_size=2)
        return list(workload.events(1500)), workload.registry()

    def test_numeric_key_with_domains(self):
        events, registry = self.generic()
        stats = self.attempts_of(GENERIC_QUERY, events, registry)
        assert stats.pruned > 0 and stats.kept > 0 and stats.no_bound_available > 0

    def test_string_keyed_primary(self):
        query = """
            PATTERN SEQ(A a, B b)
            WITHIN 10 EVENTS
            USING SKIP_TILL_ANY
            RANK BY b.name ASC
            LIMIT 1
            EMIT ON WINDOW CLOSE
        """
        events = [
            Event("AB"[i % 2], float(i), name=f"n{i % 7}") for i in range(200)
        ]
        stats = self.attempts_of(query, events, None)
        assert stats.unbounded_expression > 0
        assert stats.pruned == stats.kept == 0

    def test_no_domain(self):
        events, _ = self.generic()
        stats = self.attempts_of(GENERIC_QUERY, events, None)
        assert stats.unbounded_expression > 0
        assert stats.pruned == stats.kept == 0

    def test_no_bound(self):
        events, registry = self.generic()
        query = GENERIC_QUERY.replace("LIMIT 1", "LIMIT 1000")
        stats = self.attempts_of(query, events, registry)
        assert stats.attempts == stats.no_bound_available


class TestPrunerGating:
    """Pruning only engages where it is sound (see DESIGN.md)."""

    def test_no_pruner_without_rank(self):
        engine = CEPREngine(enable_pruning=True)
        handle = engine.register_query("PATTERN SEQ(A a) WITHIN 5 EVENTS LIMIT 1")
        assert handle.pruner is None

    def test_no_pruner_without_limit(self):
        engine = CEPREngine(enable_pruning=True)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x EMIT ON WINDOW CLOSE"
        )
        assert handle.pruner is None

    def test_no_pruner_for_sliding_emission(self):
        engine = CEPREngine(enable_pruning=True)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x LIMIT 1 EMIT EAGER"
        )
        assert handle.pruner is None

    def test_pruner_disabled_by_engine_flag(self):
        engine = CEPREngine(enable_pruning=False)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x LIMIT 1 "
            "EMIT ON WINDOW CLOSE"
        )
        assert handle.pruner is None

    def test_pruner_present_when_all_conditions_met(self):
        engine = CEPREngine(enable_pruning=True)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 5 EVENTS RANK BY a.x LIMIT 1 "
            "EMIT ON WINDOW CLOSE"
        )
        assert handle.pruner is not None
