"""Experiment harness: regenerates every experiment table (E1–E10).

Run all experiments::

    python benchmarks/harness.py

or a subset::

    python benchmarks/harness.py E2 E3

Each experiment prints the rows/series EXPERIMENTS.md records.  Absolute
numbers are Python-on-this-laptop scale; the *shapes* (who wins, how the
gap moves with the swept parameter) are what the reproduction claims.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import (  # noqa: E402
    fresh_events,
    generic_rank_query,
    generic_stream,
    kleene_rank_query,
    kleene_skyband_query,
    run_cepr,
    run_cepr_raw,
    run_match_then_rank,
    run_multi_query,
    run_unranked,
    stock_rank_query,
    stock_stream,
    traffic_stream,
    vitals_stream,
)
from test_e7_emission import query_for as e7_query_for  # noqa: E402
from test_e8_multiquery import (  # noqa: E402
    disjoint_queries,
    overlapping_queries,
    template_queries,
)
from test_e9_domains import TRAFFIC_QUERY  # noqa: E402
from test_e10_compile import CORPUS, compile_pipeline  # noqa: E402

from repro import CEPREngine  # noqa: E402


def header(experiment_id: str, title: str) -> None:
    print(f"\n=== {experiment_id}: {title} " + "=" * max(0, 50 - len(title)))


def row(*cells) -> None:
    print("  " + "  ".join(f"{c:>14}" if not isinstance(c, str) else f"{c:>14}" for c in cells))


def fmt(value: float, digits: int = 1) -> str:
    return f"{value:,.{digits}f}"


def e1() -> None:
    header("E1", "ranking overhead vs. unranked CEP (stock, 10k events)")
    events, registry = stock_stream(10_000)
    unranked_query = """
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND s.price > b.price
        WITHIN 100 EVENTS
        USING SKIP_TILL_ANY
        PARTITION BY symbol
    """
    row("system", "events/s", "matches", "emissions")
    unranked = run_unranked(unranked_query, events, registry)
    row("unranked CEP", fmt(unranked.events_per_second, 0), unranked.matches, "-")
    for k in (1, 5, 25):
        ranked = run_cepr_raw(stock_rank_query(window=100, k=k), events, registry)
        row(
            f"CEPR k={k}",
            fmt(ranked.events_per_second, 0),
            ranked.matches,
            ranked.emissions,
        )
    ranked = run_cepr_raw(stock_rank_query(window=100, k=5), events, registry)
    print(
        f"  overhead at k=5: {unranked.events_per_second / ranked.events_per_second:.2f}x"
        " (expected < 2x)"
    )


def e2() -> None:
    header("E2", "integrated top-k vs. match-then-rank (generic, 10k events)")
    events, registry = generic_stream(10_000)
    row("window", "CEPR ms", "MTR ms", "speedup", "MTR buffered")
    for window in (25, 50, 100, 200, 400):
        query = generic_rank_query(window=window, k=5)
        integrated = run_cepr_raw(query, events, registry)
        baseline = run_match_then_rank(query, events, registry)
        row(
            window,
            fmt(integrated.seconds * 1000),
            fmt(baseline.seconds * 1000),
            f"{baseline.seconds / integrated.seconds:.2f}x",
            baseline.extra["matches_buffered"],
        )


def e3() -> None:
    header("E3", "pruning effectiveness vs. k (generic, 10k events)")
    events, registry = generic_stream(10_000)
    row("k", "time ms", "runs kept", "runs pruned", "peak live")
    for k in (1, 5, 10, 50, None):
        query = generic_rank_query(window=50, k=k)
        result = run_cepr_raw(query, events, registry, enable_pruning=True)
        row(
            k if k is not None else "inf",
            fmt(result.seconds * 1000),
            result.runs_created - result.runs_pruned,
            result.runs_pruned,
            result.peak_live_runs,
        )
    off = run_cepr_raw(
        generic_rank_query(window=50, k=1), events, registry, enable_pruning=False
    )
    row("k=1, no prune", fmt(off.seconds * 1000), off.runs_created, 0, off.peak_live_runs)
    print("  completing-edge cut (stock, 10k events, window 100, k=5):")
    events, registry = stock_stream(10_000)
    row("pruning", "time ms", "matches built", "skipped", "runs pruned")
    for enable in (True, False):
        result = run_cepr_raw(
            stock_rank_query(window=100, k=5), events, registry, enable_pruning=enable
        )
        row(
            "on" if enable else "off",
            fmt(result.seconds * 1000),
            result.matches,
            result.extra["completions_skipped"],
            result.runs_pruned,
        )


def e4() -> None:
    header("E4", "selection-strategy cost (generic SEQ(3), 10k events)")
    events, registry = generic_stream(10_000)
    row("strategy", "time ms", "runs", "matches")
    for strategy in ("STRICT", "SKIP_TILL_NEXT", "SKIP_TILL_ANY"):
        query = generic_rank_query(window=40, k=5, strategy=strategy, length=3)
        result = run_cepr_raw(query, events, registry)
        row(strategy, fmt(result.seconds * 1000), result.runs_created, result.matches)
    print("  selectivity sweep (SKIP_TILL_ANY, SEQ(2), 5k events):")
    row("alphabet", "time ms", "matches")
    for alphabet in (2, 4, 8, 16):
        events_a, registry_a = generic_stream(5_000, alphabet=alphabet)
        query = generic_rank_query(window=40, k=5, strategy="SKIP_TILL_ANY", length=2)
        result = run_cepr_raw(query, events_a, registry_a)
        row(alphabet, fmt(result.seconds * 1000), result.matches)


def e5() -> None:
    header("E5", "pattern-length scaling (generic, 8k events)")
    events, registry = generic_stream(8_000, alphabet=6)
    row("length", "NEXT ms", "ANY ms")
    for length in (2, 3, 4, 5):
        next_result = run_cepr_raw(
            generic_rank_query(window=60, k=5, strategy="SKIP_TILL_NEXT", length=length),
            events,
            registry,
        )
        any_result = run_cepr_raw(
            generic_rank_query(window=60, k=5, strategy="SKIP_TILL_ANY", length=length),
            events,
            registry,
        )
        row(length, fmt(next_result.seconds * 1000), fmt(any_result.seconds * 1000))


def e6() -> None:
    header("E6", "Kleene + aggregate scoring (vitals, 10k events)")
    events, registry = vitals_stream(10_000)
    unranked_query = """
        PATTERN SEQ(HeartRate onset, HeartRate spikes+)
        WHERE onset.value > 100 AND spikes.value > 100
              AND spikes.value >= prev(spikes.value)
        WITHIN 50 EVENTS
        PARTITION BY patient
    """
    row("system", "time ms", "matches")
    unranked = run_unranked(unranked_query, events, registry)
    row("unranked", fmt(unranked.seconds * 1000), unranked.matches)
    for window in (25, 50, 100):
        ranked = run_cepr_raw(kleene_rank_query(window=window, k=5), events, registry)
        row(f"ranked w={window}", fmt(ranked.seconds * 1000), ranked.matches)
    row("SKIP_TILL_ANY w=50", "time ms", "matches", "peak runs", "dominated")
    for pruning in (False, True):
        skyband = run_cepr_raw(kleene_skyband_query(), events, registry, pruning)
        row(
            f"  run dominance {'on' if pruning else 'off'}",
            fmt(skyband.seconds * 1000),
            skyband.matches,
            skyband.peak_live_runs,
            skyband.extra["runs_dominated"],
        )


def e7() -> None:
    header("E7", "emission policies (stock, 10k events)")
    events, registry = stock_stream(10_000)
    row("policy", "time ms", "emissions", "first@seq")
    for policy in ("window_close", "periodic", "eager"):
        stream = fresh_events(events)
        engine = CEPREngine(registry=registry)
        handle = engine.register_query(e7_query_for(policy))
        first_emission_seq = None
        started = time.perf_counter()
        for event in stream:
            if engine.push(event) and first_emission_seq is None:
                first_emission_seq = event.seq
        engine.flush()
        elapsed = time.perf_counter() - started
        row(
            policy,
            fmt(elapsed * 1000),
            handle.emissions,
            first_emission_seq if first_emission_seq is not None else "flush",
        )


def e8() -> None:
    header("E8", "multi-query scale-out (generic 26-type, 10k events)")
    from repro.workloads.generic import GenericWorkload

    workload = GenericWorkload(seed=12, alphabet_size=26)
    events = list(workload.events(10_000))
    registry = workload.registry()
    row("N queries", "routed ev/s", "broadcast ev/s", "overlap ev/s")
    for n in (1, 2, 4, 8, 13):
        routed = run_multi_query(disjoint_queries(n), events, registry)
        broadcast = run_multi_query(
            disjoint_queries(n), events, registry, broadcast=True
        )
        overlapping = run_multi_query(overlapping_queries(n), events, registry)
        row(
            n,
            fmt(routed.events_per_second, 0),
            fmt(broadcast.events_per_second, 0),
            fmt(overlapping.events_per_second, 0),
        )

    print("\n  shared vs independent, 4 stock alert templates (10k events):")
    events, registry = stock_stream(10_000)
    row("N queries", "shared ev/s", "indep. ev/s", "pairs/event")
    for n in (1, 8, 64):
        shared = run_multi_query(template_queries(n), events, registry)
        independent = run_multi_query(template_queries(n), events, registry, shared=False)
        row(
            n,
            fmt(shared.events_per_second, 0),
            fmt(independent.events_per_second, 0),
            fmt(shared.extra["pairs_processed"] / shared.events, 2),
        )


def e9() -> None:
    header("E9", "end-to-end demo domains")
    row("domain", "events", "ev/s", "matches", "emissions")
    events, registry = stock_stream(10_000)
    finance = run_cepr(stock_rank_query(window=100, k=5), events, registry)
    row("finance", finance.events, fmt(finance.events_per_second, 0), finance.matches, finance.emissions)
    events, registry = vitals_stream(10_000)
    health = run_cepr(kleene_rank_query(window=60, k=5), events, registry)
    row("health", health.events, fmt(health.events_per_second, 0), health.matches, health.emissions)
    events, registry = traffic_stream(6_000)
    transport = run_cepr(TRAFFIC_QUERY, events, registry)
    row("transport", transport.events, fmt(transport.events_per_second, 0), transport.matches, transport.emissions)


def e11() -> None:
    header("E11", "YIELD composition vs. flat query (stock, 10k events)")
    from test_e11_hierarchy import run_flat, run_hierarchy

    events, registry = stock_stream(10_000)
    row("formulation", "time ms", "matches")
    flat_time, flat_matches = run_flat(events, registry)
    row("flat SEQ(4)", fmt(flat_time * 1000), flat_matches)
    hier_time, hier_matches = run_hierarchy(events, registry)
    row("hierarchy", fmt(hier_time * 1000), hier_matches)
    print(f"  composition overhead: {hier_time / flat_time:.2f}x")


def e10() -> None:
    header("E10", "query compilation cost")
    row("query", "compiles/s", "us/compile")
    for size, text in CORPUS.items():
        count = 0
        started = time.perf_counter()
        while time.perf_counter() - started < 0.5:
            compile_pipeline(text)
            count += 1
        elapsed = time.perf_counter() - started
        row(size, fmt(count / elapsed, 0), fmt(elapsed / count * 1e6))


def e16() -> None:
    header("E16", "overload: rank-aware load shedding (generic, 20k burst)")
    from test_e16_overload import OVERLOAD_FACTORS, run_with_policy

    events, registry = generic_stream(20_000, alphabet=2, seed=5)
    row("configuration", "events/s", "routed", "sheds", "recall", "emissions")
    base = run_with_policy(events, registry, "off")
    row(
        "off",
        fmt(base["events_per_second"], 0),
        base["routed"],
        0,
        "1.00",
        base["emissions"],
    )
    for factor in OVERLOAD_FACTORS:
        result = run_with_policy(events, registry, "adaptive", factor=factor)
        controller = result["controller"]
        row(
            f"adaptive {factor}x",
            fmt(result["events_per_second"], 0),
            result["routed"],
            controller.stats.shed_events_total,
            f"{controller.recall_estimate:.2f}",
            result["emissions"],
        )
    print("  adaptive recall is the measured lower bound")


def e17() -> None:
    header("E17", "process fleets (stock, 10k events)")
    from test_e17_process import PROCESS_SWEEP, QUERY, _assert_identical

    from common import run_cepr_sharded

    events, registry = stock_stream(10_000)
    baseline = run_cepr(QUERY, events, registry)
    in_process = run_cepr_sharded(QUERY, events, 4, registry, in_process=True)
    row("configuration", "events/s", "matches", "emissions")
    row(
        "single engine",
        fmt(baseline.events_per_second, 0),
        baseline.matches,
        baseline.emissions,
    )
    row(
        "in-process=4",
        fmt(in_process.events_per_second, 0),
        in_process.matches,
        in_process.emissions,
    )
    for shards in PROCESS_SWEEP:
        result = run_cepr_sharded(QUERY, events, shards, registry)
        _assert_identical(result, baseline)  # merge-stage contract
        row(
            f"processes={shards}",
            fmt(result.events_per_second, 0),
            result.matches,
            result.emissions,
        )
    print(
        "  results identical on every substrate; the K=4 process fleet"
        " needs >= 4 cores to clear its 2.5x acceptance floor"
    )


EXPERIMENTS = {
    "E1": e1, "E2": e2, "E3": e3, "E4": e4, "E5": e5,
    "E6": e6, "E7": e7, "E8": e8, "E9": e9, "E10": e10, "E11": e11,
    "E16": e16, "E17": e17,
}


def main(argv: list[str]) -> None:
    wanted = [a.upper() for a in argv] or list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiments {unknown}; choose from {list(EXPERIMENTS)}")
    for experiment_id in wanted:
        EXPERIMENTS[experiment_id]()
    print()


if __name__ == "__main__":
    main(sys.argv[1:])
