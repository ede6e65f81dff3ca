"""E17 — Process-parallel fleets.

The same partitioned stock workload through ``backend="process"`` at
K ∈ {1, 2, 4} worker processes, against the single-engine baseline and
a K=4 *in-process* fleet (the coordinator over the ``LocalShard``
double, whose four engines run one after another on the submitting
thread).  Worker processes own their interpreter (and GIL), so on a
host with ≥ 4 cores the K=4 process fleet must clear **2.5×** the
in-process fleet's throughput.  On smaller hosts the sweep
records the pipe-transport overhead curve instead, while the exactness
assertions (identical matches, emissions, run counts, final ranking at
every K) hold unconditionally.
"""

import os

from common import run_cepr, run_cepr_sharded, stock_rank_query

PROCESS_SWEEP = (1, 2, 4)
QUERY = stock_rank_query(window=100, k=5)

#: Acceptance floor for K=4 processes over K=4 in-process shards,
#: multi-core hosts.
SPEEDUP_FLOOR = 2.5
#: Cores needed before the floor is physically meaningful.
MIN_CORES_FOR_FLOOR = 4


def _assert_identical(result, baseline):
    """A fleet emits what one engine emits and creates the same runs.  It
    builds at least as many matches: each shard cuts completions against
    the k-th key of its own partitions, a weaker bound than the whole
    stream's (DESIGN.md, "Sharding")."""
    assert result.events == baseline.events
    assert result.matches >= baseline.matches
    assert result.emissions == baseline.emissions
    assert result.runs_created == baseline.runs_created


def test_e17_process_sweep(stock_10k):
    """The harness row: throughput at each process count, results pinned."""
    events, registry = stock_10k
    baseline = run_cepr(QUERY, events, registry)
    in_process = run_cepr_sharded(QUERY, events, 4, registry, in_process=True)
    _assert_identical(in_process, baseline)

    rows = {}
    for shards in PROCESS_SWEEP:
        result = run_cepr_sharded(QUERY, events, shards, registry)
        _assert_identical(result, baseline)
        rows[shards] = result
    # Same top-k regardless of substrate or process count.
    final_rankings = {tuple(r.extra["final_ranking"]) for r in rows.values()}
    final_rankings.add(tuple(in_process.extra["final_ranking"]))
    assert len(final_rankings) == 1

    speedup = rows[4].events_per_second / in_process.events_per_second
    print("\nE17 process fleet (stock, 10k events, partitioned top-5):")
    print(f"  single-engine:    {baseline.events_per_second:10.0f} ev/s")
    print(f"  in-process=4:     {in_process.events_per_second:10.0f} ev/s")
    for shards, result in rows.items():
        print(f"  processes={shards}:      {result.events_per_second:10.0f} ev/s")
    print(
        f"  K=4 process/in-process speedup: {speedup:.2f}x "
        f"(host has {os.cpu_count()} cores)"
    )
    if (os.cpu_count() or 1) >= MIN_CORES_FOR_FLOOR:
        # The acceptance gate: real cores -> real parallel speedup.
        assert speedup >= SPEEDUP_FLOOR, (
            f"K=4 process fleet reached only {speedup:.2f}x of the "
            f"in-process fleet (floor {SPEEDUP_FLOOR}x)"
        )
    else:
        # Single/dual-core host: processes time-slice one core and pay
        # pipe serialisation on top; just guard against pathology.
        assert rows[4].events_per_second > baseline.events_per_second / 20


def test_e17_process_byte_identical_under_batching(stock_10k):
    """Frame batching is a transport knob, never a semantics knob."""
    events, registry = stock_10k
    small = run_cepr_sharded(QUERY, events, 2, registry, batch_size=16)
    large = run_cepr_sharded(QUERY, events, 2, registry, batch_size=1024)
    _assert_identical(small, large)
    assert small.matches == large.matches
    assert small.extra["final_ranking"] == large.extra["final_ranking"]


def test_e17_4_processes(benchmark, stock_10k):
    events, registry = stock_10k
    result = benchmark.pedantic(
        lambda: run_cepr_sharded(QUERY, events, 4, registry),
        rounds=3,
        iterations=1,
    )
    assert result.matches > 0

