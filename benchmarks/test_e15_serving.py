"""E15 — Serving overhead: what the TCP frame protocol costs over E1.

Two paths push the same 10k-event ranked stock workload through the same
engine configuration:

* **embedded** — ``CEPREngine.push_batch`` in-process, batches of 512.
* **remote** — a real ``cepr serve`` stack (asyncio TCP server + threaded
  runner) driven through :class:`~repro.serve.client.CEPRClient` with the
  same batch size, ending with a ``sync`` barrier so every event has been
  processed before the clock stops.

The remote path pays for JSON frame encoding, loopback TCP round trips,
and the ingest-queue handoff, so it is *expected* to be slower; the gate
only bounds the multiple.  The acceptance budget (run in CI's
benchmark-smoke job) is **10x**: a loopback client pushing 512-event
batches must stay within an order of magnitude of the embedded engine.
In practice the measured multiple is far lower; the slack absorbs shared
CI runners, not design regressions.  Like the E13/E14 gates, the check is
interleaved min-of-N with retries so scheduler noise cannot fail a build
spuriously.
"""

import threading
import time

from common import RunResult, fresh_events, stock_rank_query

from repro.runtime.engine import CEPREngine
from repro.serve.client import CEPRClient
from repro.serve.server import CEPRServer

QUERY = stock_rank_query(window=100, k=5)

#: multiplicative budget for the remote path over the embedded path.
SERVING_OVERHEAD_BUDGET = 10.0
BATCH = 512


def run_embedded(query: str, events, registry=None) -> RunResult:
    """Ground truth: the same batched loop, no network in the way."""
    stream = fresh_events(events)
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(query, collect_results=False)
    started = time.perf_counter()
    for i in range(0, len(stream), BATCH):
        engine.push_batch(stream[i : i + BATCH])
    engine.flush()
    elapsed = time.perf_counter() - started
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=handle.pipeline.metrics.matches,
        emissions=handle.emissions,
    )


def run_remote(query: str, events, registry=None) -> RunResult:
    """The same stream through a real TCP server on loopback.

    Server startup/teardown happen outside the timed region; the clock
    covers push_batch frames plus the final ``sync`` barrier, i.e. the
    steady-state serving cost a long-lived deployment actually pays.
    """
    import asyncio

    stream = fresh_events(events)
    server = CEPRServer(queries={"bench": query}, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(
            server.serve(on_ready=lambda _: ready.set())
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10.0), "server did not start"
    try:
        with CEPRClient(port=server.bound_port, timeout=60.0) as client:
            started = time.perf_counter()
            for i in range(0, len(stream), BATCH):
                client.push_batch(stream[i : i + BATCH])
            ingested = client.sync()
            elapsed = time.perf_counter() - started
            stats = client.stats()
    finally:
        server.request_drain_threadsafe()
        thread.join(timeout=15.0)
        assert not thread.is_alive(), "server did not drain in time"
    assert ingested == len(stream)
    metrics = {
        sample["name"]: sample
        for sample in stats["metrics"]["metrics"]
    }
    emissions = int(
        metrics.get("serve_emissions_fanned_out_total", {}).get("value", 0)
    )
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        emissions=emissions,
        extra={"ingested": ingested},
    )


def test_e15_embedded_baseline(benchmark, stock_10k):
    events, registry = stock_10k
    result = benchmark.pedantic(
        lambda: run_embedded(QUERY, events, registry),
        rounds=3,
        iterations=1,
    )
    assert result.matches > 0


def test_e15_remote_roundtrip(benchmark, stock_10k):
    events, registry = stock_10k
    result = benchmark.pedantic(
        lambda: run_remote(QUERY, events, registry),
        rounds=3,
        iterations=1,
    )
    assert result.extra["ingested"] == len(events)


def test_e15_serving_overhead_within_budget(stock_10k):
    """Loopback serving stays within 10x of the embedded engine.

    Interleaved min-of-N with retries, exactly like the E13/E14 gates:
    each attempt takes the minimum of three interleaved runs per path and
    the gate passes on the best attempt.
    """
    events, registry = stock_10k
    best_ratio = float("inf")
    for _attempt in range(4):
        embedded_runs, remote_runs = [], []
        for _round in range(3):
            embedded_runs.append(run_embedded(QUERY, events, registry).seconds)
            remote_runs.append(run_remote(QUERY, events, registry).seconds)
        best_ratio = min(best_ratio, min(remote_runs) / min(embedded_runs))
        if best_ratio <= SERVING_OVERHEAD_BUDGET:
            break
    assert best_ratio <= SERVING_OVERHEAD_BUDGET, (
        f"remote serving costs {best_ratio:.1f}x the embedded engine "
        f"(budget {SERVING_OVERHEAD_BUDGET:.0f}x)"
    )
