"""Shard reports: the one thing a shard tells its coordinator.

A :class:`ShardReport` is produced by ``Shard.report()`` at a barrier and
is the coordinator's whole view of that shard until the next one.  It
carries merge-control state — the emissions each query released since the
previous report (a **delta**, handed over once) and the last barrier's
delivery order across queries, the epochs its rankers still hold open
(the merge stage's release condition), the hosting pid — plus **one**
telemetry field: ``instruments``, the shard engine's metrics registry.
A local shard hands over its live registry by reference; a pipe shard
decodes value rows off a barrier reply frame.  Either way every fleet
counter is ``absorb`` over the last reports' registries, as fresh as the
last barrier — also after the fleet has stopped.

This module is also the report's wire format (:func:`encode_report` /
:func:`decode_report`); the registry travels in its own codec
(:meth:`~repro.observability.registry.MetricsRegistry.to_wire`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.engine.snapshot import decode_emission, encode_emission
from repro.observability.instruments import HELP
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission
from repro.ranking.score import Scorer


@dataclass
class QueryReport:
    """One query on one shard, as of a barrier."""

    #: emissions released since the previous report; whoever reads the
    #: report owns them (the shard has already forgotten them).
    emissions: list[Emission] = field(default_factory=list)
    #: tumbling epochs the ranker still buffers (merge ``min_open``).
    open_epochs: tuple[int, ...] = ()


@dataclass
class ShardReport:
    """One shard, as of a barrier."""

    #: process hosting the shard's engine.
    pid: int
    #: everything the shard's engine counts.
    instruments: MetricsRegistry = field(default_factory=MetricsRegistry)
    queries: dict[str, QueryReport] = field(default_factory=dict)
    #: the query of each emission the last heartbeat or flush delivered,
    #: in the engine's order (a YIELD cascade follows the rest).
    barrier_order: list[str] = field(default_factory=list)


# -- wire format ------------------------------------------------------------------


def encode_report(report: ShardReport) -> dict[str, Any]:
    """JSON-safe document for one report (floats may be non-finite)."""
    return {
        "pid": report.pid,
        "instruments": report.instruments.to_wire(),
        "queries": {
            name: {
                "emissions": [encode_emission(e) for e in query.emissions],
                "open_epochs": list(query.open_epochs),
            }
            for name, query in report.queries.items()
        },
        "barrier_order": list(report.barrier_order),
    }


def decode_report(
    doc: Mapping[str, Any], scorers: Mapping[str, Scorer]
) -> ShardReport:
    """Inverse of :func:`encode_report`; ``scorers`` re-score the matches."""
    return ShardReport(
        pid=int(doc["pid"]),
        instruments=MetricsRegistry.from_wire(doc["instruments"], HELP),
        queries={
            name: QueryReport(
                emissions=[
                    decode_emission(state, scorers[name])
                    for state in item["emissions"]
                ],
                open_epochs=tuple(int(epoch) for epoch in item["open_epochs"]),
            )
            for name, item in doc["queries"].items()
        },
        barrier_order=[str(name) for name in doc["barrier_order"]],
    )
