"""Back-testing: record a stream once, iterate on query formulations.

Records a stock stream into an event log while a live query runs, then
replays slices of the recorded history against *candidate* queries to see
which formulation would have surfaced better answers — the offline half of
a CEP deployment workflow.

Run with::

    python examples/backtesting.py [num_events]
"""

import sys
import tempfile
from pathlib import Path

from repro import CEPREngine
from repro.runtime import RunnerConfig
from repro.store import Backtester, EventLog, RecordingTap
from repro.workloads.stock import StockWorkload

LIVE_QUERY = """
    NAME live
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 150 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""

CANDIDATES = {
    "any_profit": LIVE_QUERY.replace("NAME live", "NAME any_profit"),
    "one_percent": LIVE_QUERY.replace(
        "s.price > b.price", "s.price > b.price * 1.01"
    ).replace("NAME live", "NAME one_percent"),
    "five_percent": LIVE_QUERY.replace(
        "s.price > b.price", "s.price > b.price * 1.05"
    ).replace("NAME live", "NAME five_percent"),
}


def main(num_events: int = 20_000) -> None:
    workload = StockWorkload(seed=1234)
    registry = workload.registry()

    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "stream.log"

        # Phase 1: live processing, recorded as it happens.
        engine = CEPREngine(registry=registry)
        live = engine.register_query(LIVE_QUERY)
        with EventLog(log_path) as log:
            tap = RecordingTap(engine, log)
            tap.run(workload.events(num_events))
        print(
            f"live run: {num_events} events processed and recorded, "
            f"{live.pipeline.metrics.matches} matches"
        )

        # Phase 2: replay history against candidate formulations.
        log = EventLog(log_path)
        lo, hi = log.time_range
        backtester = Backtester(log, RunnerConfig(registry=registry))
        print(f"\nbacktesting {len(CANDIDATES)} candidates over t=[{lo:.0f}, {hi:.0f}]:")
        results = backtester.compare(CANDIDATES)
        for name, result in sorted(
            results.items(), key=lambda kv: -kv[1].matches
        ):
            best = result.final_ranking[0].rank_values[0] if result.final_ranking else 0
            print(
                f"  {name:>12}: {result.matches:6d} matches over "
                f"{result.events_replayed} events; last-window best "
                f"profit {best:+.2f}"
            )

        # Phase 3: a focused slice — just the second half.
        mid = (lo + hi) / 2
        sliced = backtester.run(
            CANDIDATES["one_percent"], start_ts=mid, name="second_half"
        )
        print(
            f"\nsecond half only (t >= {mid:.0f}): "
            f"{sliced.events_replayed} events, {sliced.matches} matches"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000)
