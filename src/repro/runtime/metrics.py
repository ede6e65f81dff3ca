"""Runtime metrics: throughput, latency, and per-query counters.

The monitor and the benchmark harness read these.  Latencies are recorded
with a bounded reservoir so long runs keep constant memory while the
percentile estimates stay representative.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field


class LatencyRecorder:
    """Reservoir-sampled latency series with percentile queries.

    Uses Vitter's algorithm R with a private seeded RNG, so recordings are
    deterministic for a fixed call sequence and never disturb global
    :mod:`random` state.

    ``count`` and ``maximum`` are exact over what was recorded, and so is
    ``total`` unless a caller weights its samples (:meth:`record`).  Zero
    observations are kept apart, as the count :attr:`zeros` beside the
    reservoir: the percentiles merge them back in, at the reservoir's
    scale.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0
        #: zero observations (:meth:`record_zeros`), not in the reservoir.
        self.zeros = 0
        self._samples: list[float] = []
        #: measured observations the reservoir is a sample of.
        self._seen = 0
        self._rng = random.Random(seed)

    def record(self, latency_seconds: float, weight: int = 1) -> None:
        """Record one measured observation.

        Its value stands for ``weight`` observations in ``total``: itself
        and ``weight - 1`` unmeasured ones before it, which the caller
        counts in ``count`` as they happen (the sampled pipeline,
        :meth:`~repro.runtime.query.Pipeline.process`).
        """
        self.count += 1
        self.total += latency_seconds * weight
        if latency_seconds > self.maximum:
            self.maximum = latency_seconds
        self._seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(latency_seconds)
        else:
            index = self._rng.randrange(self._seen)
            if index < self.capacity:
                self._samples[index] = latency_seconds

    def record_zeros(self, n: int = 1) -> None:
        """Record ``n`` zero-latency observations, as a count: O(1).

        The shared-execution skip path owes one sample per elided
        (query, event) pair to keep the sample-per-routed-event invariant,
        and pays a dormant query's whole debt in one call.
        """
        self.count += n
        self.zeros += n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Empirical ``q``-th percentile (0 < q <= 100) of the reservoir.

        Linearly interpolates between adjacent order statistics (the
        ``numpy.percentile`` default): nearest-rank rounding systematically
        understates tail percentiles on small samples — with 10 samples a
        rounded p99 lands on the 9th largest value, not between the two
        largest.

        The zero count joins the sorted reservoir at the value 0: all of
        it while the reservoir holds every measured observation, else
        scaled by the share of them it holds.
        """
        samples = self._samples
        zeros = self.zeros
        measured = self.count - zeros
        if zeros and measured > len(samples):
            zeros = round(zeros * len(samples) / measured)
        size = len(samples) + zeros
        if not size:
            return 0.0
        ordered = sorted(samples)
        below = bisect_left(ordered, 0.0) if zeros else 0

        def at(index: int) -> float:
            if index < below:
                return ordered[index]
            if index < below + zeros:
                return 0.0
            return ordered[index - zeros]

        if size == 1:
            return at(0)
        position = max(0.0, min(1.0, q / 100)) * (size - 1)
        lower = int(position)
        upper = min(lower + 1, size - 1)
        fraction = position - lower
        low = at(lower)
        return low + (at(upper) - low) * fraction

    def absorb(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's observations in (fleet aggregation).

        Exact for count/total/maximum and the zero count; the percentile
        reservoir is merged by pooling both sample sets and subsampling
        back to capacity with the private RNG, which keeps the estimate
        representative when the pooled set overflows.
        """
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        self._seen += other._seen
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        pooled = self._samples + other._samples
        if len(pooled) > self.capacity:
            pooled = self._rng.sample(pooled, self.capacity)
        self._samples = pooled


@dataclass
class QueryMetrics:
    """Hot-path counters for one query group's pipeline.

    Read through the metrics registry (``query_*_total``,
    ``latency_seconds``) under every member's name; see
    :mod:`repro.observability.instruments`.  ``emissions`` counts what the
    ranker released, before the fan-out: each member counts its own
    deliveries.  ``events_routed`` and the latency count of a pipeline the
    router has asleep lag until the engine settles them, which every
    registry read does first (docs/SHARED_EXECUTION.md).
    """

    events_routed: int = 0
    matches: int = 0
    emissions: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)


class EngineMetrics:
    """Engine-wide throughput accounting.

    Two rates are kept: the **lifetime** rate (:attr:`throughput`, events
    over the whole observed span — the benchmark harness reads this) and a
    **sliding-window** rate (:attr:`recent_throughput`, events over the
    trailing ``window_seconds``), so a live monitor on a long replay shows
    what the engine is doing *now* instead of a stale average.  The window
    is kept as one-second count buckets in a deque — O(1) per call,
    constant memory.  The owner counts every event into
    :attr:`events_pushed`; the clock is read once per ``push``/``push_batch``
    call (:meth:`start`, :meth:`on_call`).
    """

    def __init__(
        self, clock=time.perf_counter, window_seconds: float = 10.0
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self._clock = clock
        self.window_seconds = window_seconds
        self.events_pushed = 0
        self.started_at: float | None = None
        self.last_push_at: float | None = None
        #: trailing one-second buckets: ``[second, events in that second]``.
        self._buckets: deque[list[float]] = deque()

    def start(self) -> None:
        """Open the lifetime span now, unless it is open already: called
        at the start of each ``push``/``push_batch`` call, so the span
        covers the first call's events too."""
        if self.started_at is None:
            self.started_at = self._clock()

    def on_call(self, events: int) -> None:
        """Meter one ``push``/``push_batch`` call that took ``events`` events.

        The caller counts each event into :attr:`events_pushed` as it
        goes; the clock is read here, once per call, and the call's events
        land in the bucket of the second it ended in.
        """
        if not events:
            return
        now = self._clock()
        if self.started_at is None:
            self.started_at = now
        self.last_push_at = now
        second = int(now)
        buckets = self._buckets
        if buckets and buckets[-1][0] == second:
            buckets[-1][1] += events
        else:
            buckets.append([second, events])
            horizon = second - self.window_seconds
            while buckets and buckets[0][0] <= horizon:
                buckets.popleft()

    @property
    def elapsed(self) -> float:
        if self.started_at is None or self.last_push_at is None:
            return 0.0
        return self.last_push_at - self.started_at

    @property
    def throughput(self) -> float:
        """Lifetime events per second over the observed span (0 when idle)."""
        elapsed = self.elapsed
        return self.events_pushed / elapsed if elapsed > 0 else 0.0

    @property
    def recent_throughput(self) -> float:
        """Events per second over the trailing ``window_seconds``.

        Reads the clock (to age out buckets the stream stopped filling),
        so an idle engine decays to 0 instead of reporting its last burst
        forever.
        """
        if self.last_push_at is None:
            return 0.0
        now = self._clock()
        horizon = now - self.window_seconds
        total = sum(
            count for second, count in self._buckets if second + 1 > horizon
        )
        if total == 0:
            return 0.0
        assert self.started_at is not None
        span = min(self.window_seconds, max(now - self.started_at, 1e-9))
        return total / span
