#!/usr/bin/env python3
"""The CEPR performance ledger: one command, every metric by name.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    measure one workload in this process and print one JSON object as the
    last line of stdout (``correct``, ``attempted``, ``failed``,
    ``metrics``): the end-to-end metrics with ``--trace 0``, the
    per-layer metrics of a separate traced run with ``--trace 1``.
    This is the form ``BENCHMARK.json`` names.

``run.py [--seed 2016] [--runs N] [--out FILE] [--smoke]``
    the ledger: every workload, untraced and traced, each in its own
    fresh subprocess, printed by name with its unit and written to
    ``FILE`` with the host fingerprint.  ``compare.py A.json B.json``
    applies the bounds.

Any wrong output — a digest that differs from the reference, a refused
event — is a failed operation and a non-zero exit, never a silently
printed number.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload, in this process ---------------------------------------------


def report(detail: dict, metrics: dict, attempted: int, failed: int, problems, path=None) -> int:
    """Print the result line (and the detail file); the exit code."""
    for problem in problems:
        print(f"ledger: {detail['workload']}: {problem}", file=sys.stderr)
    correct = failed == 0 and attempted > 0
    detail.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        failed_ops_share=failed / attempted if attempted else 1.0,
        problems=list(problems),
        metrics=metrics,
    )
    if path:
        Path(path).write_text(json.dumps(detail, indent=1))
    # The one-line form carries numbers only: a layer that could not be
    # traced reads 0 there and null-with-reason in the detail file.
    flat = {
        name: {"value": m["value"] if m["value"] is not None else 0.0, "unit": m["unit"]}
        for name, m in metrics.items()
    }
    line = {"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": flat}
    print(json.dumps(line))
    return 0 if correct else 1


def run_one(args) -> int:
    from workloads import BY_NAME

    workload = BY_NAME[args.workload]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "events": workload.event_count(args.smoke),
        "paced_rate": workload.paced_rate,
        "notes": workload.notes,
    }
    if args.trace:
        from layers import traced_run

        traced = traced_run(workload, args.seed, args.smoke)
        detail["trace_valid"] = traced.valid
        outcome = (traced.metrics, traced.attempted, traced.failed, traced.problems)
    else:
        from measure import end_to_end_metrics, run_workload

        result = run_workload(workload, args.seed, args.seconds, args.smoke)
        detail["digest"] = result.digest
        detail["repetitions"] = [  # raw, as measured
            {"events_per_s": p.offered / p.seconds, "setup_s": p.setup_s,
             "host_slowdown": p.slowdown}
            for p in result.repetitions
        ]
        outcome = (end_to_end_metrics(result), result.attempted, result.failed, result.problems)
    return report(detail, *outcome, path=args.detail)


# -- the ledger: every workload, each in a fresh subprocess ---------------------


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:  # no git on this host
        commit = ""
    return {
        "commit": commit or None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def child(workload: str, seed: int, trace: int, args, scratch: Path) -> dict:
    detail = scratch / f"{workload}-{seed}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail", str(detail),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if not detail.exists():
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode} without a result")
    return json.loads(detail.read_text())


def across_runs(runs: list[dict]) -> dict:
    """Median of each end-to-end metric over ``runs``; with four or more
    runs the spread is the run-to-run one, else the single run's own."""
    from measure import spread

    merged = {}
    for name, first in runs[0]["metrics"].items():
        values = [v for run in runs if (v := run["metrics"][name]["value"]) is not None]
        merged[name] = dict(first, value=statistics.median(values) if values else None)
        if len(runs) >= 4:
            merged[name]["spread"] = spread(values)
    return merged


def run_ledger(args) -> int:
    benchmark = load_benchmark()
    meta = dict(
        fingerprint(), seed=args.seed, seconds=args.seconds, runs=args.runs,
        smoke=args.smoke, sizes={},
    )
    ledger = {"meta": meta, "workloads": {}}
    all_correct = True
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as scratch:
        for name in (w["name"] for w in benchmark["workloads"]):
            runs = [child(name, args.seed + i, 0, args, Path(scratch)) for i in range(args.runs)]
            traced = child(name, args.seed, 1, args, Path(scratch))
            attempted = sum(run["attempted"] for run in (*runs, traced))
            failed = sum(run["failed"] for run in (*runs, traced))
            correct = all(run["correct"] for run in (*runs, traced))
            all_correct &= correct
            meta["sizes"][name] = runs[0]["events"]
            row = ledger["workloads"][name] = {
                "events": runs[0]["events"],
                "paced_rate": runs[0]["paced_rate"],
                "notes": runs[0]["notes"],
                "digest": runs[0]["digest"],
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "failed_ops_share": failed / attempted if attempted else 1.0,
                "end_to_end": across_runs(runs),
                "trace_valid": traced["trace_valid"],
                "per_layer": traced["metrics"],
                "problems": [p for run in (*runs, traced) for p in run["problems"]],
            }
            print_row(name, row)
    text = json.dumps(ledger, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    return 0 if all_correct else 1


def print_row(name: str, row: dict) -> None:
    print(f"== {name}: {row['events']} events, paced at {row['paced_rate']:g}/s, "
          f"{'correct' if row['correct'] else 'INCORRECT'}, "
          f"trace {'valid' if row['trace_valid'] else 'INVALID'}")
    for metric, m in row["end_to_end"].items():
        spread = "-" if m["spread"] is None else f"{m['spread']:.1%}"
        value = f"{m['value']:>14.6g}" if m["value"] is not None else f"{'null':>14}"
        print(f"  {metric:<36} {value} {m['unit']:<9} n={m['samples']} spread={spread}")
    print(f"  {'failed_ops_share':<36} {row['failed_ops_share']:>14.6g} ratio     "
          f"({row['failed']} of {row['attempted']})")
    for metric, m in row["per_layer"].items():
        value = f"{m['value']:>14.6g}" if m["value"] is not None else f"{'null':>14}"
        print(f"  {metric:<36} {value} {m['unit']:<9} {m.get('reason', '')}")


def main(argv=None) -> int:
    try:
        benchmark = load_benchmark()
        import repro  # noqa: F401  (the program under test must be there)
    except (OSError, ImportError) as exc:
        print(f"ledger: cannot run outside a checkout of the program: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; not comparable")
    parser.add_argument("--detail", help="also write the run's full record to this file")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger: untraced runs per workload (run i uses seed+i)")
    parser.add_argument("--out", help="ledger: write the result file here")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
