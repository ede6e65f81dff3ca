"""End-to-end observability: tracing, metrics, profiling, logging.

This package is the engine's window into itself, built from three pillars
(all zero-dependency, all safe to import from hot paths):

* :mod:`repro.observability.tracing` — span-level tracing of the match
  pipeline (``route → nfa_transition → run_create/extend/kill → match →
  rank → emit``) plus per-emission *provenance*: which events fed a match,
  which rank keys scored it, and which runs were pruned en route.  Off by
  default; enabling it is a module-level switch so the disabled cost is a
  handful of ``is None`` checks.
* :mod:`repro.observability.registry` — a typed metrics registry
  (counters, gauges, histograms) every runtime component registers into,
  exported as a JSON snapshot or Prometheus text exposition
  (``cepr stats --prom``).
* :mod:`repro.observability.profiling` — per-query per-stage wall-time
  accounting (match vs. rank vs. emit), rendered by the monitor and
  ``explain()``.

:mod:`repro.observability.log` rounds the package out with structured
(JSON or text) logging used by the CLI and the sharded runtime.

The second-generation telemetry layer adds three more pillars the
load-shedding controller and cluster mode consume directly:

* :mod:`repro.observability.cost` — per-query :class:`CostAccount`
  records (runs created/extended/killed, shared-index hit/miss split,
  prune ratio, CPU time) ranked by ``cepr top``;
* :mod:`repro.observability.pressure` — ingest-lag / queue / subscriber
  saturation samples folded into one composite score with hysteresis;
* :mod:`repro.observability.flightrec` — a byte-budgeted black-box
  flight recorder that dumps a postmortem artifact on crash, sanitizer
  trip, ``SIGUSR2``, or demand.
"""

from repro.observability.cost import CostAccount, rank_accounts
from repro.observability.flightrec import (
    FlightRecorder,
    dump_if_armed,
    install_flight_recorder,
    uninstall_flight_recorder,
)
from repro.observability.log import configure_logging, get_logger
from repro.observability.pressure import PressureAssessor, PressureSample
from repro.observability.profiling import StageProfile, StageTimer
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import (
    EmissionTrace,
    MatchProvenance,
    Span,
    SpanKind,
    Tracer,
    disable_tracing,
    enable_tracing,
    remote_contexts,
    tracing_enabled,
)

__all__ = [
    "CostAccount",
    "Counter",
    "EmissionTrace",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MatchProvenance",
    "MetricsRegistry",
    "PressureAssessor",
    "PressureSample",
    "Span",
    "SpanKind",
    "StageProfile",
    "StageTimer",
    "Tracer",
    "configure_logging",
    "disable_tracing",
    "dump_if_armed",
    "enable_tracing",
    "get_logger",
    "install_flight_recorder",
    "rank_accounts",
    "remote_contexts",
    "tracing_enabled",
    "uninstall_flight_recorder",
]
