"""The :class:`Match` result record produced by the matching engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.events.event import Event

Binding = Event | tuple[Event, ...]


@dataclass(slots=True)
class Match:
    """One complete pattern match.

    ``bindings`` maps each positive pattern variable to its event (singleton
    variables) or tuple of events (Kleene variables).  ``score`` is filled
    by the ranking layer: a comparable tuple where *smaller sorts first*
    (descending keys are negated), so the best match has the minimum score.
    """

    bindings: Mapping[str, Binding]
    first_seq: int
    last_seq: int
    first_ts: float
    last_ts: float
    partition_key: tuple[Any, ...] = ()
    #: Monotone detection index within the query, for deterministic
    #: tie-breaking and revision bookkeeping.
    detection_index: int = -1
    score: tuple[Any, ...] | None = None
    query_name: str | None = None
    #: Values of the RANK BY expressions in user order/direction (for
    #: display; ``score`` is the normalised comparator form).
    rank_values: tuple[Any, ...] = field(default_factory=tuple)
    #: The completing run's aggregate registers, which the scorer's
    #: readers read; derived, never encoded (``None``, as on a decoded
    #: match: score from the bindings).
    agg_states: Mapping[str, Any] | None = field(default=None, compare=False, repr=False)

    def __getitem__(self, var: str) -> Binding:
        return self.bindings[var]

    def events(self) -> Iterator[Event]:
        """All matched events in pattern-variable order."""
        for binding in self.bindings.values():
            if isinstance(binding, Event):
                yield binding
            else:
                yield from binding

    @property
    def duration(self) -> float:
        """Stream-time span of the match."""
        return self.last_ts - self.first_ts

    @property
    def size(self) -> int:
        """Total number of matched events."""
        return sum(
            1 if isinstance(b, Event) else len(b) for b in self.bindings.values()
        )

    def for_query(self, name: str) -> "Match":
        """This detection as query ``name`` reports it: a copy stamped
        with that name (the members of a query group share detections).

        A shallow copy of every slot, passed positionally:
        ``dataclasses.replace`` costs several times as much on the emit
        path.
        """
        return Match(
            self.bindings,
            self.first_seq,
            self.last_seq,
            self.first_ts,
            self.last_ts,
            self.partition_key,
            self.detection_index,
            self.score,
            name,
            self.rank_values,
            self.agg_states,
        )

    def sort_key(self) -> tuple[Any, ...]:
        """Total order used by rankers: score, then detection order."""
        if self.score is None:
            return (self.detection_index,)
        return (*self.score, self.detection_index)

    def describe(self) -> str:
        """One-line human-readable rendering, used by sinks and the monitor."""
        parts = []
        for var, binding in self.bindings.items():
            if isinstance(binding, Event):
                parts.append(f"{var}={binding.event_type}@{binding.timestamp:g}")
            else:
                parts.append(f"{var}=[{len(binding)} x {binding[0].event_type}]")
        score = ""
        if self.rank_values:
            rendered = ", ".join(
                f"{v:g}" if isinstance(v, (int, float)) else repr(v)
                for v in self.rank_values
            )
            score = f" score=({rendered})"
        return f"Match<{' '.join(parts)}{score}>"
