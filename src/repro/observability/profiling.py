"""Per-query per-stage wall-time profiling.

Every ``push`` travels ``match → rank → emit`` inside
:meth:`~repro.runtime.query.Pipeline.process`; this module holds
the accounting for where that time goes.  A :class:`StageProfile` keeps
one :class:`StageTimer` per stage — a count/total/max accumulator,
deliberately cheaper than a reservoir.

The pipeline times one (query, event) pair in :data:`STRIDE` — the first
pair always — so the profile can stay on.  The rank stage of a pair with
matches to rank or emissions to release, and the emit stage of a pair
with emissions, are timed too: few pairs have them, and they carry most
of those stages' time, which a sample of one in sixteen would estimate
badly; a pair without emissions has no fan-out, so no emit time.  So:

* ``count`` is exact: every pair is counted, timed or not;
* ``total`` is an estimate: a sampled duration stands for itself and
  the pairs counted untimed since the previous sample
  (:meth:`StageTimer.sample`), and :meth:`StageTimer.settle` folds in
  the ones after the last sample at the end of the stream;
* ``maximum`` is the largest duration among the timed pairs.

The live object belongs to its query; everyone else reads it through the
metrics registry (``stage_seconds_total`` / ``stage_events_total`` /
``stage_max_seconds``), from which
:func:`~repro.observability.instruments.profiles_by_query` rebuilds a
profile — for one engine or, absorbed, for a fleet.
"""

from __future__ import annotations

STAGES = ("match", "rank", "emit")

#: the pipeline times one pair in this many (the first always).
STRIDE = 16


class StageTimer:
    """Count/total/max accumulator for one pipeline stage.

    A pair counted with ``count += 1`` and no duration is *untimed*;
    :meth:`add` and :meth:`sample` count a timed one.
    """

    __slots__ = ("count", "total", "maximum", "_folded", "_last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0
        #: pairs ``total`` stands for (the untimed ones after it do not yet).
        self._folded = 0
        #: the latest sampled duration.
        self._last = 0.0

    def add(self, seconds: float) -> None:
        """Count one pair timed on its own: ``seconds`` stands for it alone."""
        self.count += 1
        self._folded += 1
        self.total += seconds
        if seconds > self.maximum:
            self.maximum = seconds

    def sample(self, seconds: float) -> int:
        """Count one sampled pair: ``seconds`` stands for it and for every
        pair counted untimed since the previous sample.  Returns how many
        pairs that is."""
        self.count += 1
        weight = self.count - self._folded
        self._folded = self.count
        self._last = seconds
        self.total += seconds * weight
        if seconds > self.maximum:
            self.maximum = seconds
        return weight

    def settle(self) -> None:
        """Fold the pairs counted untimed since the latest sample into
        ``total`` at that sample's duration (the end of a stream)."""
        self.total += (self.count - self._folded) * self._last
        self._folded = self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_us": self.mean * 1e6,
            "max_us": self.maximum * 1e6,
        }


class StageProfile:
    """Wall-time breakdown of one query's operator chain."""

    __slots__ = ("match", "rank", "emit")

    def __init__(self) -> None:
        self.match = StageTimer()
        self.rank = StageTimer()
        self.emit = StageTimer()

    def settle(self) -> None:
        """:meth:`StageTimer.settle` every stage."""
        self.match.settle()
        self.rank.settle()
        self.emit.settle()

    def timers(self) -> tuple[tuple[str, StageTimer], ...]:
        return (("match", self.match), ("rank", self.rank), ("emit", self.emit))

    @property
    def total_seconds(self) -> float:
        return self.match.total + self.rank.total + self.emit.total

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {name: timer.snapshot() for name, timer in self.timers()}

    def describe(self) -> str:
        """One-line rendering: per-stage mean and share of pipeline time."""
        total = self.total_seconds
        parts = []
        for name, timer in self.timers():
            share = (timer.total / total * 100) if total > 0 else 0.0
            parts.append(f"{name}={timer.mean * 1e6:.0f}us({share:.0f}%)")
        return " ".join(parts)
