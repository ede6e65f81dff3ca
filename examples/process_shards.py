"""One program, three execution backends, identical ranked output.

The unified Runner API makes backend choice a configuration value: the
same query and stream run on the caller's thread (``embedded``), behind
a bounded queue (``threaded``), or across partition-parallel worker
*processes* fed over pipe frames (``process``) — and the CEPR exactness
contract guarantees the merged emissions are identical, byte for byte,
on every backend.

Run with::

    python examples/process_shards.py [num_events]
"""

import json
import sys
import time

from repro.runtime import RunnerConfig, create_runner, emission_to_json
from repro.runtime.sinks import CollectorSink
from repro.workloads.stock import StockWorkload

QUERY = """
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


def run_backend(backend: str, num_events: int, shards: int) -> tuple[list, float]:
    """Run the query on one backend; return (serialized emissions, seconds)."""
    workload = StockWorkload(seed=2016)
    runner = create_runner(
        QUERY,
        RunnerConfig(
            backend=backend, shards=shards, registry=workload.registry()
        ),
    )
    sink = CollectorSink()
    runner.subscribe("best_trades", sink)
    started = time.perf_counter()
    with runner:
        runner.submit_all(workload.events(num_events))
        runner.flush()
    elapsed = time.perf_counter() - started
    lines = [
        json.dumps(emission_to_json(e), sort_keys=True)
        for e in sink.emissions
    ]
    runner.close()
    return lines, elapsed


def main(num_events: int = 20_000) -> None:
    shards = 2
    reference: list | None = None
    print(f"running {num_events} events on every backend (shards={shards}):")
    for backend in ("embedded", "threaded", "process"):
        lines, elapsed = run_backend(backend, num_events, shards)
        if reference is None:
            reference = lines
            verdict = "reference"
        else:
            verdict = "identical" if lines == reference else "DIVERGED"
        rate = num_events / elapsed if elapsed > 0 else 0.0
        print(
            f"  {backend:>9}: {len(lines)} emissions in {elapsed:6.2f}s "
            f"({rate:>9,.0f} events/s) — {verdict}"
        )
        if verdict == "DIVERGED":
            raise SystemExit(f"{backend} output diverged from embedded")
    print("all backends byte-identical OK")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000)
