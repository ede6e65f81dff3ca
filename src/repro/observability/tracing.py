"""Span tracing and emission provenance for the match pipeline.

A :class:`Tracer` collects :class:`Span` records emitted by the engine's
hot paths — one per pipeline step::

    route → nfa_transition → run_create / run_extend / run_kill
          → match → rank → emit

Tracing is **off by default** and globally switched: components attach a
tracer only while :func:`tracing_enabled` is true (or the engine is asked
explicitly), so the disabled cost on the hot path is a handful of
``tracer is None`` checks.  Spans live in a bounded ring buffer —
long traced runs keep constant memory and the newest history.

Provenance answers the user question *"why is this result #1?"*:
:func:`build_emission_trace` folds an emission's matches together with the
span history into an :class:`EmissionTrace` — which events fed each match,
which rank keys scored it, and how many runs were created, pruned, or
killed en route inside the match's partition.  Exposed as
``CEPREngine.trace(emission)`` and ``cepr trace``.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterator, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.language.semantics import AnalyzedQuery
    from repro.ranking.emission import Emission

# ---------------------------------------------------------------------------
# global switch
# ---------------------------------------------------------------------------

_ENABLED = False


def enable_tracing() -> None:
    """Turn the module-level tracing switch on (new engines attach tracers)."""
    global _ENABLED
    _ENABLED = True


def disable_tracing() -> None:
    """Turn the module-level tracing switch off."""
    global _ENABLED
    _ENABLED = False


def tracing_enabled() -> bool:
    """Whether the module-level tracing switch is on."""
    return _ENABLED


@contextmanager
def traced() -> Iterator[None]:
    """Context manager: enable tracing inside the block, restore after."""
    previous = _ENABLED
    enable_tracing()
    try:
        yield
    finally:
        if not previous:
            disable_tracing()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class SpanKind(Enum):
    """Pipeline step a span records."""

    #: an event was routed to a query's operator chain.
    ROUTE = "route"
    #: an automaton transition consumed an event (bind / Kleene take).
    NFA_TRANSITION = "nfa_transition"
    #: a fresh run started at stage 0.
    RUN_CREATE = "run_create"
    #: a live run was extended by an event.
    RUN_EXTEND = "run_extend"
    #: a run died (see ``detail["reason"]``: expired / strict / negation /
    #: pruned / epoch).
    RUN_KILL = "run_kill"
    #: a run completed into a match (or was confirmed from pending).
    MATCH = "match"
    #: a match was scored by the RANK BY keys.
    RANK = "rank"
    #: an emission was released to the sinks.
    EMIT = "emit"


@dataclass(frozen=True, slots=True)
class Span:
    """One traced pipeline step at a stream point."""

    kind: SpanKind
    seq: int
    ts: float
    query: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        extras = " ".join(f"{k}={v!r}" for k, v in self.detail.items())
        head = f"{self.kind.value} seq={self.seq} t={self.ts:g}"
        if self.query:
            head += f" query={self.query}"
        return f"{head} {extras}".rstrip()


class SpanRecorder(Protocol):
    """Where a pipeline's matcher and ranker record spans: a
    :class:`Tracer`, or a query group's per-member view of one."""

    def record(
        self,
        kind: SpanKind,
        seq: int,
        ts: float,
        query: str | None = None,
        **detail: Any,
    ) -> None: ...


class Tracer:
    """Bounded collector of :class:`Span` records.

    Parameters
    ----------
    capacity:
        Ring-buffer bound; the oldest spans are evicted first.  Evictions
        are counted in :attr:`dropped` so a truncated provenance can say
        so instead of silently under-reporting.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self.recorded = 0

    def record(
        self,
        kind: SpanKind,
        seq: int,
        ts: float,
        query: str | None = None,
        **detail: Any,
    ) -> None:
        """Append one span (hot-path entry point; callers guard on ``None``)."""
        self.recorded += 1
        self._spans.append(Span(kind, seq, ts, query, detail))

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring buffer."""
        return self.recorded - len(self._spans)

    def spans(
        self, kind: SpanKind | None = None, query: str | None = None
    ) -> list[Span]:
        """Recorded spans, optionally filtered by kind and/or query."""
        return [
            span
            for span in self._spans
            if (kind is None or span.kind is kind)
            and (query is None or span.query == query)
        ]

    def counts_by_kind(self, query: str | None = None) -> dict[str, int]:
        """``{span kind value: count}`` over the retained buffer."""
        tally: _TallyCounter[str] = _TallyCounter()
        for span in self._spans:
            if query is None or span.query == query:
                tally[span.kind.value] += 1
        return dict(tally)

    def clear(self) -> None:
        self._spans.clear()
        self.recorded = 0

    # -- provenance scans -------------------------------------------------------

    def partition_activity(
        self,
        query: str,
        partition: tuple[Any, ...],
        first_seq: int,
        last_seq: int,
    ) -> dict[str, int]:
        """Run-lifecycle tallies inside one partition over a seq interval.

        Returns counts of ``run_create`` / ``run_extend`` spans and of each
        ``run_kill`` reason (``killed_<reason>``) whose span lies in
        ``[first_seq, last_seq]`` for the given partition — the competition
        a match survived on its way to emission.
        """
        tally: _TallyCounter[str] = _TallyCounter()
        for span in self._spans:
            if span.query != query or not first_seq <= span.seq <= last_seq:
                continue
            if span.detail.get("partition") != partition:
                continue
            if span.kind is SpanKind.RUN_KILL:
                tally[f"killed_{span.detail.get('reason', 'unknown')}"] += 1
            elif span.kind in (SpanKind.RUN_CREATE, SpanKind.RUN_EXTEND):
                tally[span.kind.value] += 1
        return dict(tally)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


@dataclass
class MatchProvenance:
    """Why one match appeared (at its rank) in an emission."""

    position: int
    detection_index: int
    partition_key: tuple[Any, ...]
    #: ``(variable, event_type, seq, ts)`` for every event that fed the match.
    events: list[tuple[str, str, int, float]]
    #: ``(rank expression text, direction, value)`` per RANK BY key.
    rank_keys: list[tuple[str, str, Any]]
    #: run-lifecycle tallies in the match's partition over its seq span.
    competition: dict[str, int]

    def describe(self) -> str:
        lines = [f"#{self.position} detection={self.detection_index}"]
        if self.partition_key:
            lines[0] += f" partition={self.partition_key!r}"
        lines.append("  events:")
        for variable, event_type, seq, ts in self.events:
            lines.append(f"    {variable}: {event_type} seq={seq} t={ts:g}")
        if self.rank_keys:
            lines.append("  rank keys:")
            for expr, direction, value in self.rank_keys:
                lines.append(f"    {expr} {direction} = {value!r}")
        if self.competition:
            summary = " ".join(
                f"{key}={value}" for key, value in sorted(self.competition.items())
            )
            lines.append(f"  en route: {summary}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "position": self.position,
            "detection_index": self.detection_index,
            "partition_key": list(self.partition_key),
            "events": [
                {"variable": var, "type": etype, "seq": seq, "ts": ts}
                for var, etype, seq, ts in self.events
            ],
            "rank_keys": [
                {"expr": expr, "direction": direction, "value": value}
                for expr, direction, value in self.rank_keys
            ],
            "competition": dict(self.competition),
        }


@dataclass
class EmissionTrace:
    """Full provenance of one emission (see :func:`build_emission_trace`)."""

    query: str | None
    kind: str
    revision: int
    at_seq: int
    at_ts: float
    epoch: int | None
    matches: list[MatchProvenance]
    #: span tallies for the whole query over the retained trace buffer.
    span_counts: dict[str, int]
    #: spans evicted from the ring buffer (provenance may be truncated).
    spans_dropped: int = 0

    def describe(self) -> str:
        head = (
            f"emission {self.kind} rev={self.revision} seq={self.at_seq} "
            f"t={self.at_ts:g}"
        )
        if self.epoch is not None:
            head += f" epoch={self.epoch}"
        if self.query:
            head += f" query={self.query}"
        lines = [head, f"{len(self.matches)} ranked match(es)"]
        for provenance in self.matches:
            lines.append(provenance.describe())
        if self.span_counts:
            summary = " ".join(
                f"{key}={value}" for key, value in sorted(self.span_counts.items())
            )
            lines.append(f"query span totals: {summary}")
        if self.spans_dropped:
            lines.append(
                f"(trace buffer overflowed; {self.spans_dropped} oldest spans "
                "dropped — provenance may under-count)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "kind": self.kind,
            "revision": self.revision,
            "at_seq": self.at_seq,
            "at_ts": self.at_ts,
            "epoch": self.epoch,
            "matches": [provenance.to_dict() for provenance in self.matches],
            "span_counts": dict(self.span_counts),
            "spans_dropped": self.spans_dropped,
        }


def build_emission_trace(
    emission: "Emission",
    analyzed: "AnalyzedQuery | None" = None,
    tracer: Tracer | None = None,
    query: str | None = None,
) -> EmissionTrace:
    """Reconstruct the provenance of ``emission``.

    Works degraded without a tracer (events and rank keys still come from
    the matches themselves; only the run-lifecycle competition tallies need
    span history).
    """
    from repro.events.event import Event
    from repro.language.printer import format_expr

    if query is None and emission.ranking:
        query = emission.ranking[0].query_name

    rank_specs: list[tuple[str, str]] = []
    if analyzed is not None:
        rank_specs = [
            (format_expr(key.expr), key.direction.value)
            for key in analyzed.rank_keys
        ]

    matches: list[MatchProvenance] = []
    for position, match in enumerate(emission.ranking, start=1):
        events: list[tuple[str, str, int, float]] = []
        for variable, binding in match.bindings.items():
            bound = (binding,) if isinstance(binding, Event) else binding
            for event in bound:
                events.append(
                    (variable, event.event_type, event.seq, event.timestamp)
                )
        rank_keys = [
            (expr, direction, value)
            for (expr, direction), value in zip(rank_specs, match.rank_values)
        ]
        if not rank_keys and match.rank_values:
            # no analyzed query handed in: fall back to positional keys
            rank_keys = [
                (f"key[{index}]", "?", value)
                for index, value in enumerate(match.rank_values)
            ]
        competition: dict[str, int] = {}
        if tracer is not None and query is not None:
            competition = tracer.partition_activity(
                query, match.partition_key, match.first_seq, match.last_seq
            )
        matches.append(
            MatchProvenance(
                position=position,
                detection_index=match.detection_index,
                partition_key=match.partition_key,
                events=events,
                rank_keys=rank_keys,
                competition=competition,
            )
        )

    span_counts = tracer.counts_by_kind(query) if tracer is not None else {}
    return EmissionTrace(
        query=query,
        kind=emission.kind.value,
        revision=emission.revision,
        at_seq=emission.at_seq,
        at_ts=emission.at_ts,
        epoch=emission.epoch,
        matches=matches,
        span_counts=span_counts,
        spans_dropped=tracer.dropped if tracer is not None else 0,
    )


def remote_contexts(emission: "Emission") -> list[dict[str, Any]]:
    """Transport-stamped trace contexts of the events feeding an emission.

    The serving layer stamps ``Event.trace`` with the client's HELLO/push
    context; this collects one record per bound event that carried one —
    the remote half of a stitched client-push → ranked-emission causal
    chain (``cepr trace --connect``).  Events bound by several matches
    report once, at their best (lowest) rank position.
    """
    from repro.events.event import Event

    records: list[dict[str, Any]] = []
    seen: set[int] = set()
    for position, match in enumerate(emission.ranking, start=1):
        for variable, binding in match.bindings.items():
            bound = (binding,) if isinstance(binding, Event) else binding
            for event in bound:
                if event.trace is None or id(event) in seen:
                    continue
                seen.add(id(event))
                records.append(
                    {
                        "position": position,
                        "variable": variable,
                        "type": event.event_type,
                        "seq": event.seq,
                        "ts": event.timestamp,
                        "context": dict(event.trace),
                    }
                )
    return records


def trace_document(engine: Any, emission: "Emission", query: str) -> dict[str, Any]:
    """One emission of ``query``: its TRACE document — its provenance
    (``to_dict``), the client contexts stamped on its events (``remote``)
    and the rendered provenance (``text``).  ``cepr serve`` answers TRACE
    with it and ``cepr trace`` prints it, replayed or remote."""
    import json

    trace = engine.trace(emission, query)
    doc = trace.to_dict()
    doc["remote"] = remote_contexts(emission)
    doc["text"] = trace.describe()
    # Bindings and rank keys can hold arbitrary attribute values;
    # degrade anything non-JSON to its repr rather than refusing.
    return json.loads(json.dumps(doc, default=str))
