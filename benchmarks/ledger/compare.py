#!/usr/bin/env python3
"""Compare two ledger result files under the bounds in ``BENCHMARK.json``.

``compare.py A.json B.json`` prints one row per workload x end-to-end
metric, B against A:

* ``better`` / ``worse`` — B's median moved by more than the metric's
  bound *and* by more than either file's own spread;
* ``unresolved`` — no such move, but a spread is wider than the bound, so
  "unchanged" cannot be claimed either;
* ``within bound`` — otherwise.

``failed_ops_share`` has no tolerance: any increase is ``worse``.  Files
made with different seeds, run lengths or stream sizes, or on another
interpreter or core count (timings are stated against a calibration loop
of this interpreter), measured different things: every timing row of
that pair is ``unresolved``.
Exits non-zero when any row is ``worse``, or when a file is a ``--smoke``
run (tiny sizes are not comparable).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(old: dict, new: dict, better: str, bound: float) -> str:
    """Classify one metric of B (``new``) against A (``old``)."""
    if not old["value"] or new["value"] is None:
        return "unresolved"
    change = new["value"] / old["value"] - 1.0
    if better == "higher":
        change = -change  # positive now always means "got worse"
    spreads = [s for s in (old.get("spread"), new.get("spread")) if s is not None]
    noise = max(spreads, default=0.0)
    if abs(change) > max(bound, noise):
        return "worse" if change > 0 else "better"
    return "unresolved" if noise > bound else "within bound"


def differing(a: dict, b: dict) -> list[str]:
    """What the two files did not measure alike."""
    return [
        key for key in ("seed", "seconds", "runs", "sizes", "python", "nproc")
        if a["meta"].get(key) != b["meta"].get(key)
    ]


def compare(a: dict, b: dict, benchmark: dict) -> list[tuple]:
    """Rows of (workload, metric, A's value, B's value, verdict)."""
    comparable = not differing(a, b)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        old, new = a["workloads"].get(workload), b["workloads"].get(workload)
        if old is None or new is None:
            rows.append((workload, "*", None, None, "unresolved"))
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            x, y = old["end_to_end"][name], new["end_to_end"][name]
            status = verdict(x, y, metric["better"], metric["bound"]) if comparable else "unresolved"
            rows.append((workload, name, x["value"], y["value"], status))
        x, y = old["failed_ops_share"], new["failed_ops_share"]
        rows.append(
            (workload, "failed_ops_share", x, y, "worse" if y > x else "within bound")
        )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for path, doc in zip(argv, (a, b)):
        if doc["meta"].get("smoke"):
            print(f"compare: {path} is a --smoke run and cannot be compared", file=sys.stderr)
            return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, benchmark)
    if differing(a, b):
        print(f"compare: the files differ in {', '.join(differing(a, b))}: "
              "their timings are unresolved", file=sys.stderr)
    print(f"{'workload':<16} {'metric':<22} {'A':>14} {'B':>14}  verdict")
    for workload, metric, x, y, status in rows:
        x, y = (f"{v:>14.6g}" if v is not None else f"{'null':>14}" for v in (x, y))
        print(f"{workload:<16} {metric:<22} {x} {y}  {status}")
    worse = [row for row in rows if row[4] == "worse"]
    if worse:
        print(f"compare: {len(worse)} metric(s) worse than the bound", file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
