"""Self-tests of the ledger's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``; not
part of tier-1 (``pyproject.toml`` collects ``tests/`` only).
"""

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_mirrors_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]


def test_tail_needs_ten_samples_beyond_it():
    value, share = measure.tail([float(i) for i in range(1000)])
    assert (value, share) == (989.0, 0.99)  # ten larger samples: 990..999
    value, share = measure.tail([float(i) for i in range(400)])
    assert (value, share) == (389.0, 0.975)
    # 5,000 samples could support p99.8, but the cap keeps it p99.
    value, share = measure.tail([float(i) for i in range(5000)])
    assert (value, share) == (4949.0, 0.99)
    # Too few samples for anything above the median.
    assert measure.tail([3.0, 1.0, 2.0]) == (2.0, 0.5)


def test_self_time_is_span_minus_children():
    spans = [
        ("root", 0.0, 10.0, None, 7),
        ("a", 1.0, 4.0, 0, 7),
        ("b", 5.0, 9.0, 0, 7),
        ("a", 6.0, 8.0, 2, 7),  # grandchild, nested inside b
    ]
    own = layers.self_times(spans)
    assert own == {"root": 3.0, "a": 5.0, "b": 2.0}
    assert sum(own.values()) == 10.0  # nothing counted twice


class StallingSession:
    """Answers instantly, except for one injected stall; every event
    'emits' the moment it is handed over."""

    spin_below = 0.0

    def __init__(self, clock, stall_at: int, stall: float) -> None:
        self.clock, self.stall_at, self.stall = clock, stall_at, stall
        self.receipts = []
        self.sent = 0

    def submit_due(self, events) -> int:
        for _ in events:
            if self.sent == self.stall_at:
                self.clock.now += self.stall
            self.receipts.append((self.clock.now, self.sent))
            self.sent += 1
        return len(events)


class FakeClock:
    now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_latency_counts_from_the_due_time():
    clock = FakeClock()
    rate = 10.0  # event i is due at t0 + i/10
    session = StallingSession(clock, stall_at=2, stall=0.35)
    t0, lags = measure.pace(session, list(range(8)), rate, clock=clock, sleep=clock.sleep)
    latencies = [at - t0 - index / rate for at, index in session.receipts]
    # Event 2 stalls 0.35 s.  Events 3..5 were due during the stall and
    # are charged the wait, although each was answered instantly once sent.
    expected = [0.0, 0.0, 0.35, 0.25, 0.15, 0.05, 0.0, 0.0]
    assert all(abs(a - b) < 1e-9 for a, b in zip(latencies, expected)), latencies
    # The generator reports how late it ran, and never sent early.
    assert max(lags) > 0.2 and min(lags) > -1e-9


def test_timings_are_stated_for_a_quiet_host_with_the_raw_value_alongside():
    # Two repetitions of 1,000 events: one on a quiet host, one taking 1.5x
    # as long while the calibration loop also ran 1.5x slower.
    quiet = measure.Phase("closed1", offered=1000, seconds=0.10, setup_s=0.02, slowdown=1.0)
    disturbed = measure.Phase(
        "closed2", offered=1000, seconds=0.15, setup_s=0.03, extra_setups=[0.03], slowdown=1.5
    )
    result = measure.EndToEnd("w", 1, 1000, phases=[quiet, disturbed])
    metrics = measure.end_to_end_metrics(result)
    assert abs(metrics["events_per_s"]["value"] - 10_000.0) < 1e-6
    assert abs(metrics["events_per_s"]["raw"] - (10_000 + 1000 / 0.15) / 2) < 1e-6
    assert metrics["events_per_s"]["host_slowdown"] == 1.25
    assert abs(metrics["setup_s"]["value"] - 0.02) < 1e-9
    assert (metrics["setup_s"]["raw"], metrics["setup_s"]["samples"]) == (0.03, 3)

    ticks = iter([0.0, measure.CALIBRATION_UNITS * measure.CALIBRATION_REFERENCE_SECONDS * 2])
    assert abs(measure.host_slowdown(clock=lambda: next(ticks)) - 2.0) < 1e-9


SMOKE = workloads.BY_NAME["stock_embedded"]


def test_digest_mismatch_is_a_failed_operation_and_a_nonzero_exit(capsys):
    events, registry = SMOKE.stream(1, SMOKE.event_count(smoke=True))
    phase = measure.run_phase("closed1", SMOKE, events, registry, None, measure.closed_loop)

    clean = measure.EndToEnd(SMOKE.name, 1, len(events), phases=[phase])
    measure.gate(SMOKE, events, registry, clean)
    assert clean.failed == 0 and clean.attempted > len(events)
    assert run.report({"workload": SMOKE.name}, {}, clean.attempted, 0, []) == 0

    name, line = phase.lines[3]
    phase.lines[3] = (name, line.replace('"epoch": 3', '"epoch": 33'))
    broken = measure.EndToEnd(SMOKE.name, 1, len(events), phases=[phase])
    measure.gate(SMOKE, events, registry, broken)
    assert broken.failed == 1 and "missing or different" in broken.problems[0]
    code = run.report({"workload": SMOKE.name}, {}, broken.attempted, broken.failed, broken.problems)
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_a_failed_untraced_run_is_a_failure_not_a_crash(monkeypatch):
    real = layers.run_phase

    def failing(label, *rest):
        if label == "untraced":
            return measure.Phase(label, offered=300, error="RuntimeError: refused")
        return real(label, *rest)

    monkeypatch.setattr(layers, "run_phase", failing)
    traced = layers.traced_run(SMOKE, 1, smoke=True)
    assert not traced.valid and traced.failed >= 300
    assert all(m["value"] is None and "refused" in m["reason"] for m in traced.metrics.values())


def test_server_memory_is_the_servers_own_however_large_the_driver():
    # A child's ru_maxrss starts at its parent's resident size at spawn time,
    # so RUSAGE_CHILDREN would read this ballast; VmHWM is reset at exec.
    ballast = bytearray(b"x") * (300 << 20)
    serve = workloads.BY_NAME["stock_serve"]
    events, registry = serve.stream(1, serve.event_count(smoke=True))
    phase = measure.run_phase("closed1", serve, events, registry, 0, measure.closed_loop)
    assert phase.error is None
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > len(ballast) // 1024
    assert 5 < phase.child_rss_kb / 1024 < 100


def test_compare_verdicts():
    old = {"value": 100.0, "spread": 0.01}
    assert compare.verdict(old, {"value": 120.0, "spread": 0.01}, "lower", 0.1) == "worse"
    assert compare.verdict(old, {"value": 120.0, "spread": 0.01}, "higher", 0.1) == "better"
    assert compare.verdict(old, {"value": 105.0, "spread": 0.01}, "lower", 0.1) == "within bound"
    assert compare.verdict(old, {"value": 105.0, "spread": 0.3}, "lower", 0.1) == "unresolved"
    # A move inside the run-to-run spread is not a verdict either way.
    assert compare.verdict(old, {"value": 120.0, "spread": 0.3}, "lower", 0.1) == "unresolved"
    # A run whose every session failed has no value; that is not a crash.
    assert compare.verdict(old, {"value": None, "spread": None}, "lower", 0.1) == "unresolved"


def ledger_file(value, **meta) -> dict:
    metrics = {m["name"]: {"value": value, "spread": 0.01} for m in BENCHMARK["end_to_end"]}
    row = {"end_to_end": metrics, "failed_ops_share": 0.0}
    meta = dict({"seed": 1, "seconds": 10, "runs": 1, "sizes": {}, "smoke": False}, **meta)
    return {"meta": meta, "workloads": {w.name: row for w in workloads.WORKLOADS}}


def test_compare_prints_broken_runs_and_refuses_unlike_files(tmp_path, capsys):
    paths = []
    for name, doc in {
        "a": ledger_file(100.0),
        "broken": ledger_file(None),
        "other_seed": ledger_file(200.0, seed=2),
    }.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    a, broken, other_seed = map(str, paths)
    assert compare.main([a, broken]) == 0
    assert "null  unresolved" in capsys.readouterr().out
    assert compare.main([a, other_seed]) == 0  # twice as slow, but not the same inputs
    printed = capsys.readouterr()
    assert "worse" not in printed.out and "differ in seed" in printed.err


def test_smoke_ledger_is_quick_stamped_and_not_comparable(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 20.0, f"smoke run took {elapsed:.1f}s"
    ledger = json.loads(out.read_text())
    assert ledger["meta"]["smoke"] is True
    assert set(ledger["workloads"]) == {w.name for w in workloads.WORKLOADS}
    for row in ledger["workloads"].values():
        assert row["correct"] and row["failed_ops_share"] == 0 and row["trace_valid"]
    for name in ("commit", "python", "nproc", "loadavg", "sizes", "seed"):
        assert name in ledger["meta"]
    assert compare.main([str(out), str(out)]) == 2
