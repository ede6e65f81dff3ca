"""Typed metrics registry with JSON and Prometheus export.

The runtime keeps its hot-path counters as plain attributes (increments
must stay nanosecond-cheap); this module is the *typed, exported view*
over them.  A :class:`MetricsRegistry` holds three instrument kinds:

* :class:`Counter` — monotone count (events pushed, matches, prunes);
* :class:`Gauge` — point-in-time value (live runs, backlog, throughput);
* :class:`Histogram` — a distribution backed by a
  :class:`~repro.runtime.metrics.LatencyRecorder` reservoir, exported as a
  Prometheus *summary* (quantiles + ``_sum`` + ``_count``).

Instruments may be **owned** (the component calls ``inc``/``set``/
``observe``) or **callback-backed** (``fn=...`` reads a live counter the
hot path already maintains, so registration adds zero steady-state cost).
Histograms can likewise *bridge* an existing ``LatencyRecorder``.

Registries merge with :meth:`MetricsRegistry.absorb`: counters sum, gauges
sum (or take ``max``, per instrument), histogram reservoirs pool.  That is
the **only** way counts from several shards are ever combined — a fleet's
telemetry is ``absorb`` over its shards' registries, and a registry crosses
a process boundary as :meth:`MetricsRegistry.to_wire` rows.

Exports are deterministic: instruments sort by name then labels, and
:meth:`MetricsRegistry.to_prometheus` emits valid text exposition format
(``# HELP``/``# TYPE`` headers, escaped label values).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    # runtime.metrics lives above this package in the import graph (the
    # runtime package imports the engine which imports this module), so the
    # recorder class is only imported lazily.
    from repro.runtime.metrics import LatencyRecorder

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: quantiles exported for every histogram (Prometheus summary convention).
QUANTILES = (0.5, 0.9, 0.99)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count (owned or callback-backed)."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        fn: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._fn = fn
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise TypeError(f"counter {self.name!r} is callback-backed")
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def override(self, value: float) -> None:
        """Overwrite an owned counter's total.

        For fleet-merge corrections only: when per-part counters tally
        something the merged deployment counts differently (e.g. shard-local
        epoch releases vs. the merged emission stream), the aggregator
        replaces the summed value with the authoritative one.
        """
        if self._fn is not None:
            raise TypeError(f"counter {self.name!r} is callback-backed")
        self._value = float(value)

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Gauge:
    """Point-in-time value; ``agg`` picks the merge rule (``sum``/``max``)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        fn: Callable[[], float] | None = None,
        agg: str = "sum",
    ) -> None:
        if agg not in ("sum", "max"):
            raise ValueError(f"unknown gauge aggregation {agg!r}")
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.agg = agg
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is callback-backed")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is callback-backed")
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """Distribution instrument backed by a reservoir recorder.

    Pass ``recorder=`` to *bridge* a live
    :class:`~repro.runtime.metrics.LatencyRecorder` the hot path already
    feeds; otherwise the histogram owns a private recorder fed through
    :meth:`observe`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        recorder: LatencyRecorder | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        if recorder is None:
            from repro.runtime.metrics import LatencyRecorder

            recorder = LatencyRecorder()
        self.recorder = recorder

    def observe(self, value: float) -> None:
        self.recorder.record(value)

    @property
    def count(self) -> int:
        return self.recorder.count

    @property
    def sum(self) -> float:
        return self.recorder.total

    def quantile(self, q: float) -> float:
        return self.recorder.percentile(q * 100)


Instrument = Counter | Gauge | Histogram


@dataclass
class MetricSample:
    """One collected series: everything an exporter needs."""

    name: str
    kind: str
    help: str
    labels: dict[str, str]
    value: float
    #: histogram extras (``None`` for counters/gauges).
    count: int | None = None
    quantiles: dict[float, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.kind == "histogram":
            row["count"] = self.count
            row["quantiles"] = {str(q): v for q, v in self.quantiles.items()}
        return row


class MetricsRegistry:
    """A named set of instruments with deterministic export.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same ``(name, labels)`` returns the same instrument, so components
    can idempotently re-register.  A kind clash on an existing series
    raises.
    """

    def __init__(self, namespace: str = "cepr") -> None:
        if not _NAME_RE.match(namespace):
            raise ValueError(f"invalid metric namespace {namespace!r}")
        self.namespace = namespace
        self._instruments: dict[tuple[str, LabelItems], Instrument] = {}

    # -- registration ----------------------------------------------------------

    def _register(
        self, cls: type, name: str, help: str, labels: dict[str, str], **kwargs: Any
    ) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        labels = {key: str(value) for key, value in labels.items()}
        slot = (name, _label_key(labels))
        existing = self._instruments.get(slot)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = cls(name, help=help, labels=labels, **kwargs)
        self._instruments[slot] = instrument
        return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float] | None = None,
        **labels: str,
    ) -> Counter:
        """Get or create a counter (``fn`` makes it callback-backed)."""
        return self._register(Counter, name, help, labels, fn=fn)

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float] | None = None,
        agg: str = "sum",
        **labels: str,
    ) -> Gauge:
        """Get or create a gauge; ``agg`` ("sum"/"max") rules merging."""
        return self._register(Gauge, name, help, labels, fn=fn, agg=agg)

    def histogram(
        self,
        name: str,
        help: str = "",
        recorder: LatencyRecorder | None = None,
        **labels: str,
    ) -> Histogram:
        """Get or create a histogram (``recorder`` bridges a live one)."""
        return self._register(Histogram, name, help, labels, recorder=recorder)

    def prune(self, name: str | None = None, **labels: str) -> int:
        """Remove instruments matching ``name`` and/or a label subset.

        An instrument matches when its name equals ``name`` (if given) and
        its labels contain every ``labels`` item — so ``prune(query="q1")``
        drops all of one query's series while leaving engine-level ones.
        Returns the number of instruments removed.  At least one criterion
        is required (an unconstrained prune would silently empty the
        registry).
        """
        if name is None and not labels:
            raise ValueError("prune requires a name or at least one label")
        matched = [
            slot
            for slot, instrument in self._instruments.items()
            if (name is None or instrument.name == name)
            and all(
                instrument.labels.get(key) == str(value)
                for key, value in labels.items()
            )
        ]
        for slot in matched:
            del self._instruments[slot]
        return len(matched)

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        """Instruments in registration order (exports sort: :meth:`instruments`)."""
        return iter(self._instruments.values())

    def get(self, name: str, **labels: str) -> Instrument | None:
        """The instrument registered as ``(name, labels)``, if any."""
        return self._instruments.get((name, _label_key(labels)))

    def instruments(self) -> list[Instrument]:
        """All instruments, sorted by name then labels."""
        return [self._instruments[slot] for slot in sorted(self._instruments)]

    def collect(self) -> list[MetricSample]:
        """Snapshot every instrument into exporter-ready samples."""
        samples = []
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                samples.append(
                    MetricSample(
                        name=instrument.name,
                        kind=instrument.kind,
                        help=instrument.help,
                        labels=dict(instrument.labels),
                        value=instrument.sum,
                        count=instrument.count,
                        quantiles={
                            q: instrument.quantile(q) for q in QUANTILES
                        },
                    )
                )
            else:
                samples.append(
                    MetricSample(
                        name=instrument.name,
                        kind=instrument.kind,
                        help=instrument.help,
                        labels=dict(instrument.labels),
                        value=instrument.value,
                    )
                )
        return samples

    # -- merging ---------------------------------------------------------------

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (fleet aggregation).

        Counters sum, gauges sum or max per their ``agg`` rule, histogram
        reservoirs pool via ``LatencyRecorder.absorb``.  The folded-into
        instruments are owned (callback instruments are snapshotted), so a
        fleet registry built from per-shard registries is a plain value
        object.
        """
        for instrument in other:
            if isinstance(instrument, Counter):
                mine = self.counter(
                    instrument.name, instrument.help, **instrument.labels
                )
                mine.inc(instrument.value)
            elif isinstance(instrument, Gauge):
                mine = self.gauge(
                    instrument.name,
                    instrument.help,
                    agg=instrument.agg,
                    **instrument.labels,
                )
                if instrument.agg == "max":
                    mine.set(max(mine.value, instrument.value))
                else:
                    mine.set(mine.value + instrument.value)
            else:
                mine = self.histogram(
                    instrument.name, instrument.help, **instrument.labels
                )
                mine.recorder.absorb(instrument.recorder)

    # -- wire codec ---------------------------------------------------------------

    def to_wire(self) -> list[list[Any]]:
        """Value snapshot for another process: one compact row per series.

        Rows are ``[kind, name, labels, value]`` — ``kind`` is ``"c"``,
        ``"g"`` (sum gauge), ``"m"`` (max gauge) or ``"h"``, whose value is
        the reservoir ``[count, total, maximum, samples, zeros]``.  Help text
        stays home; :meth:`from_wire` takes it from the receiver's
        catalogue.  Values may be non-finite (pipe frames carry them).
        """
        rows: list[list[Any]] = []
        for instrument in self:
            value: Any
            if isinstance(instrument, Histogram):
                recorder = instrument.recorder
                kind = "h"
                value = [
                    recorder.count,
                    recorder.total,
                    recorder.maximum,
                    list(recorder._samples),
                    recorder.zeros,
                ]
            elif isinstance(instrument, Counter):
                kind, value = "c", instrument.value
            else:
                kind = "m" if instrument.agg == "max" else "g"
                value = instrument.value
            rows.append([kind, instrument.name, instrument.labels, value])
        return rows

    @classmethod
    def from_wire(
        cls, rows: list[list[Any]], help: Mapping[str, str]
    ) -> "MetricsRegistry":
        """A registry of plain values from :meth:`to_wire` rows, in order;
        ``help`` is the receiver's catalogue (series name -> help text)."""
        registry = cls()
        for kind, name, labels, value in rows:
            text = help.get(name, "")
            if kind == "c":
                registry.counter(name, text, **labels).override(float(value))
            elif kind == "h":
                count, total, maximum, samples, zeros = value
                recorder = registry.histogram(name, text, **labels).recorder
                recorder.count = int(count)
                recorder.total = float(total)
                recorder.maximum = float(maximum)
                recorder._samples = [float(sample) for sample in samples]
                recorder.zeros = int(zeros)
                # A decoded reservoir is a value: it stands for what it holds.
                recorder._seen = len(recorder._samples)
            else:
                agg = "max" if kind == "m" else "sum"
                registry.gauge(name, text, agg=agg, **labels).set(float(value))
        return registry

    # -- exporters --------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """JSON-ready snapshot: ``{"namespace": ..., "metrics": [...]}``."""
        return {
            "namespace": self.namespace,
            "metrics": [sample.to_dict() for sample in self.collect()],
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Histograms are exported as summaries (``{quantile="..."}`` series
        plus ``_sum`` and ``_count``), matching how latency reservoirs are
        actually queried.  Conformance details the golden test pins:
        counters are exposed with the conventional ``_total`` suffix
        (appended when the registered name lacks it), ``# HELP`` precedes
        ``# TYPE`` for each metric family, and label values escape
        backslash, double-quote, and newline.
        """
        lines: list[str] = []
        emitted_headers: set[str] = set()
        for sample in self.collect():
            name = f"{self.namespace}_{sample.name}"
            if sample.kind == "counter" and not name.endswith("_total"):
                name += "_total"
            if name not in emitted_headers:
                emitted_headers.add(name)
                if sample.help:
                    lines.append(f"# HELP {name} {_escape_help(sample.help)}")
                prom_type = (
                    "summary" if sample.kind == "histogram" else sample.kind
                )
                lines.append(f"# TYPE {name} {prom_type}")
            if sample.kind == "histogram":
                for q, value in sample.quantiles.items():
                    labels = dict(sample.labels)
                    labels["quantile"] = f"{q:g}"
                    lines.append(f"{name}{_render_labels(labels)} {_render(value)}")
                base = _render_labels(sample.labels)
                lines.append(f"{name}_sum{base} {_render(sample.value)}")
                lines.append(f"{name}_count{base} {_render(sample.count or 0)}")
            else:
                lines.append(
                    f"{name}{_render_labels(sample.labels)} "
                    f"{_render(sample.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def merge_registries(parts: list[MetricsRegistry]) -> MetricsRegistry:
    """A fresh registry absorbing every part (order-independent totals)."""
    merged = MetricsRegistry(namespace=parts[0].namespace if parts else "cepr")
    for part in parts:
        merged.absorb(part)
    return merged


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _render(value: float) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)
