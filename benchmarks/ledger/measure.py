"""The end-to-end run: set-up, closed loop, correctness gate.

One call to :func:`run_workload` measures one workload with the
benchmark's spans off and the product's defaults on.  After one
discarded warm-up it makes closed-loop repetitions for ``--seconds``
seconds, each on a fresh session: first submit to ``flush()``/``sync()``
returned and every emission delivered to the subscriber.

*Host calibration.*  The hosts this runs on are shared.  A neighbour
makes the same interpreter loop take anything from 1.0x to 1.9x its
quiet time, in phases that last from seconds to minutes: longer than a
run, so no statistic of one run's raw timings is steady, and in the
heavy phases not one millisecond of the host is quiet, so the quiet speed
cannot be found inside the run either.  A fixed pure-Python loop is
therefore timed before and after every repetition
(:func:`host_slowdown`) against its quiet-phase time on the host the
sizes were chosen on, and each timing is stated for a quiet host: rates
are multiplied by the slowdown measured around them, durations divided.
README.md gives, per workload, the raw and the scaled spread this was
accepted on.  The raw median and the slowdown travel with every metric.

The open-loop phase (:func:`pace`) lives here too, but only the traced
run uses it: emission latency near a queue is too sensitive to the
host's phase to carry a regression bound, so it is a per-layer metric.

The *gate*: every session's emission lines must equal an embedded
reference run of the same program on the same events, and for
window-close workloads that reference must equal match-then-rank per
query and epoch.  A mismatch or a refused event is a failed operation,
never a silently printed number.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.baselines.match_then_rank import MatchThenRankQuery
from repro.events.time import SequenceAssigner
from repro.runtime.serialize import emission_to_line

from sessions import Line, clock, open_session
from workloads import Workload, fresh

#: closed-loop repetitions a run makes at least, however short ``--seconds``.
MIN_REPETITIONS = 5

#: each repetition is followed by set-up-only sessions for about this
#: long, so a 1 ms embedded set-up gets a steady median from hundreds of
#: samples and a 0.5 s process spawn is sampled by the repetitions alone.
SETUP_EXTRA_SECONDS = 0.02

#: One calibration unit is 10,000 iterations of an integer multiply-add
#: in the interpreter; this is its mean time in a quiet phase of the
#: 2-core host the workload sizes were chosen on (CPython 3.11).  On
#: another machine or interpreter every scaled number is off by one
#: constant factor, which is why ``compare.py`` refuses to compare files
#: whose host fingerprints differ.
CALIBRATION_REFERENCE_SECONDS = 0.434e-3
CALIBRATION_UNITS = 60


def host_slowdown(clock=clock) -> float:
    """How much slower than in a quiet phase the host runs Python right now."""
    started = clock()
    for _ in range(CALIBRATION_UNITS):
        total = 0
        for i in range(10_000):
            total += i * i
    return (clock() - started) / CALIBRATION_UNITS / CALIBRATION_REFERENCE_SECONDS


# -- statistics ---------------------------------------------------------------


def tail(samples: list[float], cap: float = 0.99) -> tuple[float, float]:
    """Highest percentile (at most ``cap``) with >= 10 samples beyond it.

    Returns ``(value, percentile)``.  With 1,000 samples that is p99; with
    400 it is p97.5; below 21 samples no percentile above the median
    qualifies and the median is returned.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < 21:
        return statistics.median(ordered), 0.5
    beyond = max(10, count - math.ceil(cap * count))
    return ordered[count - beyond - 1], (count - beyond) / count


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (None below 4 values)."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else None


def digest(lines: list[Line]) -> str:
    sha = hashlib.sha256()
    for _name, line in lines:
        sha.update(line.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def mismatches(got: list[Line], want: list[Line]) -> int:
    """Reference emissions that are missing or different in ``got``."""
    wrong = sum(1 for a, b in zip(got, want) if a != b)
    return wrong + abs(len(got) - len(want))


# -- open-loop load generation ------------------------------------------------


def pace(session, events, rate, clock=clock, sleep=time.sleep):
    """Offer ``events`` open loop at ``rate`` events/s.

    Event *i* is due at ``t0 + i/rate`` and is never sent early.  When
    the system (or the generator) stalls, everything that became due in
    the meantime is sent at once, in order.  Returns ``(t0, lags)`` where
    ``lags[i]`` is how late event *i* was handed over.
    """
    count = len(events)
    interval = 1.0 / rate
    spin_below = session.spin_below
    lags: list[float] = []
    sent = 0
    t0 = clock()
    while sent < count:
        now = clock() - t0
        wait = sent * interval - now
        if wait > 1e-9:  # below any clock's resolution: due
            if wait > spin_below:
                sleep(wait - spin_below / 2)
            continue
        due = max(sent + 1, min(count, int(now * rate) + 1))
        session.submit_due(events[sent:due])
        lags.extend(now - i * interval for i in range(sent, due))
        sent = due
    return t0, lags


# -- sessions as phases --------------------------------------------------------


@dataclass
class Phase:
    """What one session (one repetition or one paced segment) produced."""

    label: str
    offered: int
    accepted: int = 0
    setup_s: float | None = None
    seconds: float | None = None
    lines: list[Line] | None = None
    #: (receive time, trigger key) of every event-triggered emission.
    receipts: list = field(default_factory=list)
    #: paced only: the schedule origin and each event's lateness.
    t0: float | None = None
    lags: list[float] = field(default_factory=list)
    #: set-up-only sessions opened right after this one, seconds each.
    extra_setups: list[float] = field(default_factory=list)
    #: host slowdown measured around this session (1.0 = quiet).
    slowdown: float = 1.0
    #: largest ``VmHWM`` among the session's child processes, KB.
    child_rss_kb: int = 0
    error: str | None = None


def closed_loop(session, stream, phase: Phase) -> float:
    begun = clock()
    phase.accepted = session.submit_all(stream)
    return begun


def open_loop(rate: float):
    def drive(session, stream, phase: Phase) -> float:
        phase.t0, phase.lags = pace(session, stream, rate)
        phase.accepted = len(phase.lags)
        return phase.t0

    return drive


def run_phase(label, workload, events, registry, expected, drive) -> Phase:
    """Open a session, let ``drive`` feed it ``events``, finish and close it."""
    phase = Phase(label=label, offered=len(events))
    stream = fresh(events)
    session = None
    try:
        started = clock()
        session = open_session(workload, registry, expected)
        phase.setup_s = clock() - started
        begun = drive(session, stream, phase)
        phase.seconds = session.finish() - begun
        phase.receipts = session.event_receipts()
        closing, session = session, None
        phase.lines = closing.close()
        phase.child_rss_kb = closing.child_peak_kb
    except Exception as exc:  # a failed session is a result, not a crash
        phase.error = f"{type(exc).__name__}: {exc}"
        print(f"ledger: {workload.name} {label} failed: {phase.error}", file=sys.stderr)
        if session is not None:
            try:
                session.close()
            except Exception as closing_error:
                print(f"ledger: closing after failure: {closing_error}", file=sys.stderr)
    return phase


def emission_latencies_ms(workload: Workload, events, phase: Phase) -> list[float]:
    """Due time of the triggering event to receipt, per emission."""
    if workload.backend == "serve":
        index_of = {e.timestamp: i for i, e in enumerate(events)}.__getitem__
    else:
        index_of = int
    return [
        (at - phase.t0 - index_of(key) / workload.paced_rate) * 1e3
        for at, key in phase.receipts
    ]


# -- references ---------------------------------------------------------------


class Reference:
    """An embedded run of the workload's program on the same events, made
    on first use: its emission ``lines``, and how many of them come
    ``before_flush`` (what a serve subscriber must have seen before the
    server drains)."""

    def __init__(self, workload: Workload, events, registry) -> None:
        self._workload = replace(workload, backend="embedded", runner_options={})
        self._events, self._registry = events, registry

    @cached_property
    def _run(self) -> tuple[list[Line], int]:
        session = open_session(self._workload, self._registry)
        session.submit_all(fresh(self._events))
        session.finish()
        before_flush = len(session.event_receipts())
        return session.close(), before_flush

    @property
    def lines(self) -> list[Line]:
        return self._run[0]

    @property
    def before_flush(self) -> int:
        return self._run[1]


def match_then_rank_lines(workload: Workload, events, registry) -> list[list[Line]]:
    """Per query, the lines the match-then-rank baseline emits per epoch.

    The baseline is fed the events of the query's relevant types only,
    exactly what the router offers the query, so an epoch closes on the
    same event in both.
    """
    stream = fresh(events)
    assigner = SequenceAssigner()
    for event in stream:
        assigner.assign(event)
    per_query = []
    for name, text in workload.program.items():
        baseline = MatchThenRankQuery(text, registry, name=name)
        relevant = baseline.analyzed.relevant_types
        emissions = baseline.run([e for e in stream if e.event_type in relevant])
        per_query.append([(name, emission_to_line(e)) for e in emissions])
    return per_query


# -- the run ------------------------------------------------------------------


@dataclass
class EndToEnd:
    workload: str
    seed: int
    events: int
    phases: list[Phase] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def repetitions(self) -> list[Phase]:
        return [p for p in self.phases if p.label.startswith("closed") and p.seconds]


def peak_rss_mb(backend: str, phases: list[Phase]) -> float:
    """Peak resident memory of the system under test, in MB.

    ``ru_maxrss`` of this process (Linux reports KB) for ``embedded``; the
    server child's own high-water mark for ``serve``; this process plus
    the largest worker's for ``process``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = max((p.child_rss_kb for p in phases), default=0)
    used = {"embedded": own, "process": own + child, "serve": child}[backend]
    return used / 1024.0


def run_workload(workload: Workload, seed: int, seconds: float, smoke=False) -> EndToEnd:
    count = workload.event_count(smoke)
    events, registry = workload.stream(seed, count)
    result = EndToEnd(workload.name, seed, count)
    reference = Reference(workload, events, registry)
    # Only the serve subscriber needs to know, up front, how many emissions
    # precede the drain; its system under test is the server child, so the
    # reference run does not disturb peak_rss_mb.  In-process backends get
    # their reference after the memory reading.
    expected = reference.before_flush if workload.backend == "serve" else None

    before = host_slowdown()
    until = clock() + seconds
    while True:
        index = len(result.phases)
        label = f"closed{index}" if index else "warmup"
        phase = run_phase(label, workload, events, registry, expected, closed_loop)
        if index and phase.setup_s:
            for _ in range(int(SETUP_EXTRA_SECONDS / phase.setup_s)):
                started = clock()
                opened = open_session(workload, registry, 0)
                phase.extra_setups.append(clock() - started)
                opened.finish()
                opened.close()
        after = host_slowdown()
        phase.slowdown, before = (before + after) / 2, after
        if index and phase.lines == result.phases[0].lines:
            phase.lines = result.phases[0].lines  # one copy, however long the run
        result.phases.append(phase)
        if index >= 1 if smoke else index >= MIN_REPETITIONS and clock() >= until:
            break

    result.peak_rss_mb = peak_rss_mb(workload.backend, result.phases)
    gate(workload, events, registry, result, reference)
    return result


def gate(workload, events, registry, result: EndToEnd, reference=None) -> None:
    """Fill ``attempted``/``failed`` from the phases and the references."""
    whole = (reference or Reference(workload, events, registry)).lines
    result.digest = digest(whole)
    if workload.tumbling:
        baseline = match_then_rank_lines(workload, events, registry)
        wrong = sum(
            mismatches([line for line in whole if line[0] == name], want)
            for name, want in zip(workload.program, baseline)
        )
        if wrong:
            result.problems.append(
                f"embedded run differs from match-then-rank in {wrong} emissions"
            )
        result.attempted += sum(len(lines) for lines in baseline)
        result.failed += wrong
    for phase in result.phases:
        result.attempted += phase.offered + len(whole)
        if phase.lines is None:
            result.failed += phase.offered + len(whole)
            result.problems.append(f"{phase.label}: {phase.error}")
            continue
        refused = phase.offered - phase.accepted
        wrong = mismatches(phase.lines, whole)
        if refused or wrong:
            result.problems.append(
                f"{phase.label}: {refused} events refused, {wrong} of "
                f"{len(whole)} reference emissions missing or different "
                f"(digest {digest(phase.lines)[:12]} != {result.digest[:12]})"
            )
        result.failed += refused + wrong


# -- reporting ----------------------------------------------------------------


def end_to_end_metrics(result: EndToEnd) -> dict:
    """The end-to-end metrics of one untraced run, by name.

    Each timing is the median of its samples after stating every sample
    for a quiet host, and carries the sample count, the within-run
    ``spread`` of the scaled samples (interquartile range over their
    median; ``compare.py`` uses it to tell "within bound" from
    "unresolved"), the ``raw`` median and the median ``host_slowdown``.
    """

    def metric(samples: list[tuple[float, float]], faster_is_more: bool, unit: str) -> dict:
        if not samples:  # every session failed: the gate has counted them
            return {"value": None, "unit": unit, "samples": 0, "spread": None}
        scaled = [x * f if faster_is_more else x / f for x, f in samples]
        return {
            "value": statistics.median(scaled),
            "unit": unit,
            "samples": len(samples),
            "spread": spread(scaled),
            "raw": statistics.median(x for x, _f in samples),
            "host_slowdown": statistics.median(f for _x, f in samples),
        }

    measured = result.repetitions
    setups = [(took, p.slowdown) for p in measured for took in [p.setup_s, *p.extra_setups]]
    rates = [(p.offered / p.seconds, p.slowdown) for p in measured]
    return {
        "setup_s": metric(setups, False, "s"),
        "events_per_s": metric(rates, True, "events/s"),
        "peak_rss_mb": {
            "value": result.peak_rss_mb, "unit": "MB", "samples": 1, "spread": None,
        },
    }
