"""Guards and live-match scoring read the run directly.

Pinned on the ledger's ``stock_serve`` query (the paper's Buy->Sell
profit query under ``EMIT EAGER``: a sliding scope, so no completing-edge
cut) over the ledger's 5,000-event stock pool: every WHERE conjunct and
the ``RANK BY`` key has a reader, so one pass builds no ``EvalContext``
at all — with the stock registry, and without one, as ``repro serve``
runs it (every attribute is then checked as it is read) — and its
emissions are those of the unpruned engine.
"""

import pytest

from repro import CEPREngine
from repro.language.expressions import EvalContext
from repro.runtime.serialize import emission_to_line
from repro.workloads.stock import StockWorkload

QUERY = """
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 100 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 5
    EMIT EAGER
"""


def pool(count=5_000):
    workload = StockWorkload(seed=2016)
    return list(workload.events(count)), workload.registry()


def run(enable_pruning=True, registered=True):
    events, registry = pool()
    engine = CEPREngine(
        registry=registry if registered else None, enable_pruning=enable_pruning
    )
    handle = engine.register_query(QUERY, name="profit")
    engine.run(events)
    return handle, [emission_to_line(e) for e in handle.results()]


@pytest.fixture
def contexts(monkeypatch, auditing):
    """Every ``EvalContext`` built, but for CEPRSan's reference ones."""
    built: list[EvalContext] = []
    init = EvalContext.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not auditing:
            built.append(self)

    monkeypatch.setattr(EvalContext, "__init__", counted)
    return built


@pytest.mark.parametrize("registered", [True, False], ids=["registry", "no_registry"])
class TestStockServe:
    def test_one_pass_builds_no_context(self, contexts, registered):
        handle, _ = run(registered=registered)
        stats = handle.matcher.stats
        assert (stats.runs_created, stats.matches_completed) == (2_494, 9_559)
        assert contexts == []

    def test_every_conjunct_and_key_reads_the_run(self, registered):
        handle, _ = run(registered=registered)
        assert all(read is not None for read, _how in handle.pipeline.readers.values())
        assert len(handle.pipeline.readers) == 3  # two conjuncts at s, one key
        text = handle.explain()
        assert text.count("[reads the run]") == (3 if registered else 0)
        assert text.count("[reads the run unless ") == (0 if registered else 3)
        assert "context evaluator" not in text

    def test_emissions_equal_the_unpruned_engines(self, registered):
        _, lines = run(registered=registered)
        assert lines and lines == run(enable_pruning=False)[1]
