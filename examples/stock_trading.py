"""Stock-trading scenario: ranked trade opportunities over generated order flow.

This mirrors the ICDE demo's finance scenario: a synthetic order stream
(random-walk prices across six symbols) feeds two concurrent queries —

* ``best_trades`` — Buy→Sell pairs per symbol ranked by profit; once a
  window's top 5 is full, CEPR skips every Sell completion strictly worse
  than its 5th-best profit (the completing-edge cut), and the script
  reports how many completions it skipped and partial runs it pruned.
* ``momentum`` — runs of strictly increasing Sell prices per symbol, ranked
  by total climb, showing Kleene closure + iteration predicates + ranking.

Run with::

    python examples/stock_trading.py [num_events]
"""

import sys

from repro import CEPREngine
from repro.workloads.stock import StockWorkload

BEST_TRADES = """
    NAME best_trades
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 200 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
"""

MOMENTUM = """
    NAME momentum
    PATTERN SEQ(Sell first, Sell rest+)
    WHERE rest.symbol == first.symbol AND rest.price > prev(rest.price)
          AND rest.price > first.price
    WITHIN 200 EVENTS
    PARTITION BY symbol
    RANK BY last(rest.price) - first.price DESC, count(rest) DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""


def main(num_events: int = 20_000) -> None:
    workload = StockWorkload(seed=2016)
    engine = CEPREngine(registry=workload.registry())
    trades = engine.register_query(BEST_TRADES)
    momentum = engine.register_query(MOMENTUM)

    engine.run(workload.events(num_events))

    print(f"=== best trades (last window) over {num_events} events ===")
    for position, match in enumerate(trades.final_ranking(), start=1):
        buy, sell = match["b"], match["s"]
        print(
            f"  #{position} {buy['symbol']:>8}  "
            f"buy {buy['price']:7.2f} → sell {sell['price']:7.2f}  "
            f"profit {match.rank_values[0]:+7.2f}"
        )

    print("\n=== strongest momentum runs (last window) ===")
    for position, match in enumerate(momentum.final_ranking(), start=1):
        climb, length = match.rank_values
        symbol = match["first"]["symbol"]
        print(
            f"  #{position} {symbol:>8}  climbed {climb:+7.2f} "
            f"over {int(length) + 1} sells"
        )

    print("\n=== engine statistics ===")
    for name, stats in engine.stats_by_query().items():
        print(
            f"  {name:>12}: events={stats['events_routed']:.0f} "
            f"matches={stats['matches']:.0f} "
            f"runs={stats['runs_created']:.0f} "
            f"pruned={stats['runs_pruned']:.0f} "
            f"skipped={stats['completions_skipped']:.0f} "
            f"p99={stats['latency_p99_us']:.0f}us"
        )
    print(f"  throughput: {engine.metrics.throughput:,.0f} events/s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000)
