"""Pressure signals: is the pipeline keeping up?

Three independent saturation signals feed one composite score:

* **ingest lag** — event-time watermark skew: the timestamp of the last
  event *admitted* minus that of the last event *drained*.  Zero when
  the queue drains as fast as it fills; grows in event-time units when a
  backlog builds.  Normalised against a lag budget (how much skew the
  operator tolerates).
* **input-queue saturation** — the threaded runner's bounded ingest
  queue (the only one: a bare engine and a fleet have none), depth over
  capacity.  1.0 means producers are blocking.
* **subscriber saturation** — the fullest per-client outbound queue in
  the serving layer, depth over capacity.  1.0 means the slow-consumer
  policy is about to engage.

The composite score is the **maximum** of the component saturations
(clamped to [0, 1]): pressure is a weakest-link property — a drained
queue does not excuse a client about to be disconnected.

:class:`PressureAssessor` turns instantaneous scores into a stable state
signal: an EWMA smooths bursts, and the ok → overloaded transition uses
hysteresis (enter high, exit low) so the state cannot flap on a workload
oscillating around one threshold.  Everything here is pure and
deterministic — the property suite drives it with synthetic samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

#: default lag budget: event-time skew treated as full saturation.
DEFAULT_LAG_BUDGET_SECONDS = 5.0

#: hysteresis thresholds for the ok/overloaded state machine.
DEFAULT_ENTER_THRESHOLD = 0.75
DEFAULT_EXIT_THRESHOLD = 0.5

#: EWMA smoothing factor (weight of the newest observation).
DEFAULT_SMOOTHING = 0.3


def _saturation(depth: float, capacity: float) -> float:
    if capacity <= 0:
        return 0.0
    return min(1.0, max(0.0, depth / capacity))


@dataclass(frozen=True)
class PressureSample:
    """One instantaneous reading of every pressure input."""

    ingest_lag_seconds: float = 0.0
    queue_depth: int = 0
    queue_capacity: int = 0
    queue_high_water: int = 0
    subscriber_depth: int = 0
    subscriber_capacity: int = 0

    def components(
        self, lag_budget: float = DEFAULT_LAG_BUDGET_SECONDS
    ) -> dict[str, float]:
        """Per-signal saturation in [0, 1]."""
        return {
            "lag": _saturation(self.ingest_lag_seconds, lag_budget),
            "queue": _saturation(self.queue_depth, self.queue_capacity),
            "subscriber": _saturation(
                self.subscriber_depth, self.subscriber_capacity
            ),
        }

    def score(self, lag_budget: float = DEFAULT_LAG_BUDGET_SECONDS) -> float:
        """Composite pressure: the worst component saturation."""
        return max(self.components(lag_budget).values())

    def to_dict(
        self, lag_budget: float = DEFAULT_LAG_BUDGET_SECONDS
    ) -> dict[str, Any]:
        doc: dict[str, Any] = {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }
        doc["components"] = {
            name: round(value, 6)
            for name, value in self.components(lag_budget).items()
        }
        doc["score"] = round(self.score(lag_budget), 6)
        return doc


@dataclass
class PressureAssessor:
    """EWMA-smoothed pressure level with hysteretic overload state.

    ``observe`` folds one instantaneous score (or sample) in and returns
    the smoothed level; :attr:`state` is ``"ok"`` until the level crosses
    ``enter_threshold`` and stays ``"overloaded"`` until it falls below
    ``exit_threshold``.
    """

    enter_threshold: float = DEFAULT_ENTER_THRESHOLD
    exit_threshold: float = DEFAULT_EXIT_THRESHOLD
    smoothing: float = DEFAULT_SMOOTHING
    lag_budget: float = DEFAULT_LAG_BUDGET_SECONDS
    level: float = 0.0
    state: str = field(default="ok")
    transitions: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {self.smoothing}")
        if not 0.0 <= self.exit_threshold <= self.enter_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 <= exit <= enter <= 1, got "
                f"exit={self.exit_threshold} enter={self.enter_threshold}"
            )

    def observe(self, reading: "PressureSample | float") -> float:
        """Fold one reading in; return the smoothed level."""
        if isinstance(reading, PressureSample):
            score = reading.score(self.lag_budget)
        else:
            score = min(1.0, max(0.0, float(reading)))
        self.level += self.smoothing * (score - self.level)
        if self.state == "ok" and self.level >= self.enter_threshold:
            self.state = "overloaded"
            self.transitions += 1
        elif self.state == "overloaded" and self.level < self.exit_threshold:
            self.state = "ok"
            self.transitions += 1
        return self.level

    @property
    def overloaded(self) -> bool:
        return self.state == "overloaded"

    def to_dict(self) -> dict[str, Any]:
        return {
            "level": round(self.level, 6),
            "state": self.state,
            "transitions": self.transitions,
            "enter_threshold": self.enter_threshold,
            "exit_threshold": self.exit_threshold,
        }

    def describe(self) -> str:
        """Short rendering for the monitor header / ``cepr stats --watch``."""
        return f"pressure={self.level:.2f} [{self.state}]"
