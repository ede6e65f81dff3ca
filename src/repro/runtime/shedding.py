"""Rank-aware adaptive load shedding with overload control.

When a deployment is overloaded — the :class:`~repro.observability.
pressure.PressureAssessor` enters ``overloaded``, or ingest lag exceeds
the configured latency target — the runner engages a
:class:`ShedController` that drops the events *least likely to matter*
for the ranked output, instead of letting the bounded queues push the
latency unboundedly up (``docs/SHEDDING.md``).

Events are dropped *before* the engine, with a rank-weighted probability
adapted (AIMD) toward the latency target.  Each is first classified by
:meth:`~repro.runtime.query.Pipeline.shed_probe`: ``protected``
events (bound into live partial matches) are never dropped, ``safe``
events (provably inert for the query, or starting a run whose score-bound
headroom — the run pruner's own interval arithmetic against the current
k-th retained score — proves it cannot crack the top-k) are dropped
preferentially, and ``uncertified`` events are sampled — at a reduced
rate when their bound headroom shows they could still crack the top-k.
The measured recall estimate (``1 - uncertified sheds / uncertified
offered``) quantifies what the approximation may have cost.

The controller is deterministic for a fixed call sequence (private
seeded RNG, no wall-clock reads of its own) and owns a **private**
pressure assessor — the runner's assessor is mutated by every registry
export, so sharing it would couple the shedding state machine to the
observability scrape cadence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any

from repro.events.event import Event
from repro.observability.flightrec import current as flightrec_current
from repro.observability.pressure import PressureAssessor, PressureSample
from repro.runtime.query import (
    SHED_PROTECTED,
    SHED_SAFE,
    SHED_UNCERTIFIED,
)

#: default ingest-lag target (seconds of event-time skew) the adaptive
#: policy steers toward; ``--latency-target`` overrides it in serve.
DEFAULT_LATENCY_TARGET_SECONDS = 1.0

#: the adaptive drop probability never exceeds this — some fraction of
#: uncertified events always gets through, so the recall estimate stays
#: an estimate of a sample, not of a blackout.
MAX_DROP_RATE = 0.95

#: multiplicative boost for provably-safe drops: when the sampler runs
#: at rate p, safe events shed at min(1, BOOST * p) — free capacity.
SAFE_DROP_BOOST = 4.0

#: rate multiplier for uncertified events whose bound headroom is known
#: and <= 0 (they could still crack the top-k): shed reluctantly.
RISKY_DROP_FACTOR = 0.25


@dataclass
class ShedStats:
    """Shedding counters of one controller."""

    #: events the engaged controller looked at.
    offered: int = 0
    #: events kept because they touch live partial-match state.
    protected_total: int = 0
    #: sheds backed by a score-bound certificate (subset of safe sheds).
    certified_total: int = 0
    #: events classified uncertified while engaged (recall denominator).
    uncertified_offered: int = 0
    #: uncertified events actually dropped (recall numerator).
    uncertified_shed: int = 0
    #: every shed event, regardless of class.
    shed_events_total: int = 0
    #: sheds that provably cannot change output (inert or certified).
    shed_safe_total: int = 0
    #: lossy sampled drops.
    shed_sampled_total: int = 0
    #: ok -> engaged transitions.
    engagements: int = 0

    @property
    def recall_estimate(self) -> float:
        """Measured lower-bound recall of the shedded stream.

        Only *uncertified* drops can lose matches, so the estimate is the
        fraction of uncertified events that survived; certified/inert
        sheds never lower it.  1.0 when nothing uncertified was offered.
        """
        if self.uncertified_offered == 0:
            return 1.0
        return 1.0 - self.uncertified_shed / self.uncertified_offered

    def to_dict(self) -> dict[str, Any]:
        doc = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        doc["recall_estimate"] = round(self.recall_estimate, 6)
        return doc


class ShedController:
    """Overload state machine + rank-weighted drop policy.

    Parameters
    ----------
    policy:
        ``"off"`` (never sheds) or ``"adaptive"`` (lossy rank-weighted
        sampling ahead of the engine).
    latency_target:
        Ingest-lag budget in seconds; lag above it counts as overload
        even while the composite pressure score is still below the
        assessor's enter threshold.
    assessor:
        Private :class:`PressureAssessor` override (tests inject
        pre-tuned hysteresis); a fresh one is built by default.
    seed:
        Seed of the private sampling RNG — decisions are deterministic
        for a fixed offered sequence.
    force:
        Engage regardless of pressure.  Tests use this to exercise
        shedding deterministically on streams that never saturate a queue.
    """

    def __init__(
        self,
        policy: str = "off",
        latency_target: float = DEFAULT_LATENCY_TARGET_SECONDS,
        assessor: PressureAssessor | None = None,
        seed: int = 2016,
        force: bool = False,
    ) -> None:
        if policy not in ("off", "adaptive"):
            raise ValueError(f"shed_policy must be off|adaptive, got {policy!r}")
        if latency_target <= 0:
            raise ValueError(
                f"latency_target must be positive, got {latency_target}"
            )
        self.policy = policy
        self.latency_target = latency_target
        self.assessor = assessor if assessor is not None else PressureAssessor()
        self.force = force
        self.engaged = force
        self.drop_rate = 0.0
        self.stats = ShedStats()
        self._rng = random.Random(seed)
        #: captured once, like the engine does — disabled cost is one check.
        self._flightrec = flightrec_current()

    # -- state machine -----------------------------------------------------------

    @property
    def adaptive_active(self) -> bool:
        return self.policy == "adaptive" and self.engaged

    @property
    def recall_estimate(self) -> float:
        return self.stats.recall_estimate

    def control(
        self,
        sample: PressureSample | float | None = None,
        lag_seconds: float = 0.0,
    ) -> None:
        """One control tick: fold a pressure reading, adapt the policy.

        AIMD on the drop rate: grow multiplicatively while the deployment
        is overloaded or behind the latency target, halve when it
        recovers, disengage once the rate decays away.
        """
        if self.policy == "off":
            return
        if sample is not None:
            self.assessor.observe(sample)
        behind = self.assessor.overloaded or lag_seconds > self.latency_target
        if self.force or behind:
            self._engage()
            self.drop_rate = min(MAX_DROP_RATE, self.drop_rate * 1.5 + 0.05)
            return
        if self.drop_rate >= 0.01:
            self.drop_rate *= 0.5
            return
        self.drop_rate = 0.0
        self._disengage()

    def _engage(self) -> None:
        if self.engaged:
            return
        self.engaged = True
        self.stats.engagements += 1
        if self._flightrec is not None:
            self._flightrec.record(
                "shed-engage",
                policy=self.policy,
                pressure=round(self.assessor.level, 4),
            )

    def _disengage(self) -> None:
        if not self.engaged:
            return
        self.engaged = False
        if self._flightrec is not None:
            self._flightrec.record(
                "shed-disengage",
                policy=self.policy,
                shed_events=self.stats.shed_events_total,
                recall_estimate=round(self.recall_estimate, 4),
            )

    # -- sampling (called from the runner's ingest path) ------------------------

    def admit(self, event: Event, probes, seq_hint: int | None = None) -> bool:
        """Adaptive drop decision: ``False`` means drop before the engine.

        ``probes`` are the query pipelines the event would reach
        (anything with ``shed_probe``); the event's class is the *worst*
        across them — protected for any query protects it outright.
        The threaded runner probes its engine on the consumer thread;
        should a probe fail anyway, the failure demotes the verdict to
        uncertified (shed reluctantly), never to safe.
        """
        if not self.adaptive_active:
            return True
        stats = self.stats
        stats.offered += 1
        worst = SHED_SAFE
        risky = False
        certified = False
        for query in probes:
            try:
                classification, headroom = query.shed_probe(
                    event, seq_hint=seq_hint
                )
            except Exception:
                classification, headroom = SHED_UNCERTIFIED, None
            if classification is SHED_PROTECTED:
                stats.protected_total += 1
                return True
            if classification is SHED_UNCERTIFIED:
                worst = SHED_UNCERTIFIED
                if headroom is not None and headroom <= 0:
                    risky = True
            elif headroom is not None:
                certified = True
        probability = self.drop_rate
        if worst is SHED_SAFE:
            probability = min(1.0, SAFE_DROP_BOOST * probability)
        else:
            stats.uncertified_offered += 1
            if risky:
                probability *= RISKY_DROP_FACTOR
        if self._rng.random() >= probability:
            return True
        stats.shed_events_total += 1
        if worst is SHED_SAFE:
            stats.shed_safe_total += 1
            if certified:
                stats.certified_total += 1
        else:
            stats.shed_sampled_total += 1
            stats.uncertified_shed += 1
        return False

    # -- reporting ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot for the serving layer's STATS frame."""
        return {
            "policy": self.policy,
            "engaged": self.engaged,
            "drop_rate": round(self.drop_rate, 6),
            "latency_target": self.latency_target,
            "pressure": self.assessor.to_dict(),
            "stats": self.stats.to_dict(),
        }

    def describe(self) -> str:
        """Short rendering for the monitor header / ``cepr top``."""
        state = "engaged" if self.engaged else "standby"
        return (
            f"shed[{self.policy}]={state} "
            f"dropped={self.stats.shed_events_total} "
            f"recall~{self.recall_estimate:.2f}"
        )
