"""Hierarchical CEP with YIELD: queries over the results of queries.

Level 1 detects profitable Buy→Sell round-trips and *derives* a ``Trade``
event per match.  Level 2 never sees raw orders at all — it matches
directly on the derived ``Trade`` stream, finding symbols whose trade
profits escalate, and ranks those streaks.  Composite events composing
into higher-level patterns is what makes CEP scale conceptually: each
layer speaks the vocabulary of the one below.

Run with::

    python examples/hierarchical_cep.py [num_events]
"""

import sys

from repro import CEPREngine
from repro.workloads.stock import StockWorkload

LEVEL_1 = """
    NAME round_trips
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 100 EVENTS
    PARTITION BY symbol
    YIELD Trade(symbol = b.symbol, profit = s.price - b.price, held = duration())
"""

LEVEL_2 = """
    NAME escalating_streaks
    PATTERN SEQ(Trade first, Trade rest+)
    WHERE rest.symbol == first.symbol AND rest.profit > prev(rest.profit)
          AND rest.profit > first.profit
    WITHIN 600 SECONDS
    PARTITION BY symbol
    RANK BY last(rest.profit) DESC, count(rest) DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""


def main(num_events: int = 20_000) -> None:
    workload = StockWorkload(seed=77)
    engine = CEPREngine(registry=workload.registry())
    level1 = engine.register_query(LEVEL_1)
    level2 = engine.register_query(LEVEL_2)

    engine.run(workload.events(num_events))

    print(
        f"level 1: {level1.pipeline.metrics.matches} round-trips detected over "
        f"{num_events} raw events → {engine.derived_events} Trade events derived"
    )

    emissions = [e for e in level2.results() if e.ranking]
    print(f"level 2: escalating-profit streaks (over derived Trades only):")
    for emission in emissions[-2:]:
        print(f"  window epoch {emission.epoch}:")
        for position, match in enumerate(emission.ranking, start=1):
            peak, length = match.rank_values
            symbol = match.partition_key[0]
            print(
                f"    #{position} {symbol:>8}: profits escalated over "
                f"{int(length) + 1} trades, peaking at {peak:+.2f}"
            )

    print("\nlevel-1 plan (note the YIELD line):")
    for line in level1.explain().splitlines():
        if "yield" in line or "stages" in line:
            print(" " + line)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000)
