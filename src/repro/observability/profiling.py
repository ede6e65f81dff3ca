"""Per-query per-stage wall-time profiling.

Every ``push`` travels ``match → rank → emit`` inside
:meth:`~repro.runtime.query.RegisteredQuery.process`; this module holds
the accounting for where that time goes.  A :class:`StageProfile` keeps
one :class:`StageTimer` per stage — a three-float accumulator
(count/total/max), deliberately cheaper than a reservoir because it is
updated on *every* event even when tracing is off.  The live object
belongs to its query; everyone else reads it through the metrics registry
(``stage_seconds_total`` / ``stage_events_total`` / ``stage_max_seconds``),
from which :func:`~repro.observability.instruments.profiles_by_query`
rebuilds a profile — for one engine or, absorbed, for a fleet.
"""

from __future__ import annotations

STAGES = ("match", "rank", "emit")


class StageTimer:
    """Count/total/max accumulator for one pipeline stage."""

    __slots__ = ("count", "total", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.maximum:
            self.maximum = seconds

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
