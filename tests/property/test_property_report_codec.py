"""Property: the shard-report codec is a bijection on what it carries.

``decode_report(encode_report(r)) == r`` for arbitrary reports — through
the real wire path (non-finite-float sentinels, JSON text, back) — with
``inf``/``nan`` rank values and gauge values, empty emission deltas, an
empty registry, ``agg="max"`` gauges and latency reservoirs all in the
domain: the ``instruments`` field (the registry wire codec) is covered by
the same property.  Reports hold live-object types without ``__eq__`` and
NaN never equals itself, so equality is taken on canonical JSON of the
decoded report's own fields (including the re-scored matches and every
instrument's kind, help, merge rule and value), never by trusting the
encoder twice.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event
from repro.engine.match import Match
from repro.events.jsonsafe import decode_state, dumps, encode_state, sanitize
from repro.language.parser import parse_query
from repro.language.semantics import analyze
from repro.observability.instruments import HELP
from repro.observability.registry import Counter, Histogram, MetricsRegistry
from repro.ranking.emission import Emission, EmissionKind
from repro.ranking.score import Scorer
from repro.runtime.report import (
    QueryReport,
    ShardReport,
    decode_report,
    encode_report,
)

SCORER = Scorer(
    analyze(
        parse_query(
            "PATTERN SEQ(A a, B bs+) WITHIN 9 EVENTS "
            "RANK BY a.x DESC, count(bs) ASC"
        )
    ).rank_keys
)
SCORERS = {"q": SCORER, "other": SCORER}

counts = st.integers(min_value=0, max_value=10**9)
seconds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
values = st.floats(allow_nan=True, allow_infinity=True)
#: a NaN RANK BY value is a scoring error, so no emitted match carries one
rank_values = st.floats(allow_nan=False, allow_infinity=True)


@st.composite
def matches(draw):
    ts = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    a = Event("A", ts, x=draw(rank_values), tag=draw(st.text(max_size=4)))
    bs = tuple(
        Event("B", ts + index + 1, y=draw(values))
        for index in range(draw(st.integers(min_value=1, max_value=3)))
    )
    seq = draw(st.integers(min_value=0, max_value=10**6))
    a.seq = seq
    for index, event in enumerate(bs):
        event.seq = seq + index + 1
    match = Match(
        bindings={"a": a, "bs": bs},
        first_seq=seq,
        last_seq=seq + len(bs),
        first_ts=ts,
        last_ts=bs[-1].timestamp,
        partition_key=(draw(st.text(max_size=3)),),
        detection_index=draw(counts),
        query_name="q",
    )
    return SCORER.score(match)


@st.composite
def emissions(draw):
    ranking = draw(st.lists(matches(), max_size=3))
    return Emission(
        kind=draw(st.sampled_from(list(EmissionKind))),
        ranking=ranking,
        at_seq=draw(counts),
        at_ts=draw(seconds),
        epoch=draw(st.none() | st.integers(min_value=0, max_value=10**6)),
        revision=draw(counts),
        entered=draw(st.lists(matches(), max_size=2)),
        exited=ranking[:1],
    )


label_values = st.text(max_size=4)


@st.composite
def registries(draw):
    """Arbitrary registries over the real catalogue's series names: owned
    and callback-backed counters, sum and max gauges, reservoirs."""
    registry = MetricsRegistry()
    for name in draw(st.sets(st.sampled_from(sorted(HELP)), max_size=6)):
        labels = draw(st.dictionaries(st.sampled_from(["query", "stage"]), label_values))
        kind = draw(st.sampled_from(["counter", "callback", "sum", "max", "histogram"]))
        if kind == "counter":
            registry.counter(name, HELP[name], **labels).inc(draw(counts))
        elif kind == "callback":
            value = draw(counts)
            registry.counter(name, HELP[name], fn=lambda value=value: value, **labels)
        elif kind == "histogram":
            histogram = registry.histogram(name, HELP[name], **labels)
            for sample in draw(st.lists(seconds, max_size=5)):
                histogram.observe(sample)
            histogram.recorder.record_zeros(draw(st.integers(min_value=0, max_value=3)))
        else:
            registry.gauge(name, HELP[name], agg=kind, **labels).set(draw(values))
    return registry


@st.composite
def query_reports(draw):
    return QueryReport(
        emissions=draw(st.lists(emissions(), max_size=3)),
        open_epochs=tuple(sorted(draw(st.sets(counts, max_size=4)))),
    )


@st.composite
def shard_reports(draw):
    names = draw(st.sets(st.sampled_from(sorted(SCORERS)), max_size=2))
    return ShardReport(
        pid=draw(st.integers(min_value=1, max_value=2**22)),
        instruments=draw(registries()),
        queries={name: draw(query_reports()) for name in sorted(names)},
        barrier_order=draw(st.lists(st.sampled_from(sorted(SCORERS)), max_size=5)),
    )


def instrument_fields(instrument):
    fields = [instrument.kind, instrument.name, instrument.help, instrument.labels]
    if isinstance(instrument, Histogram):
        recorder = instrument.recorder
        return fields + [
            recorder.count, recorder.total, recorder.maximum, recorder._samples,
            recorder.zeros,
        ]
    agg = "sum" if isinstance(instrument, Counter) else instrument.agg
    return fields + [agg, instrument.value]


def match_fields(match):
    fields = dataclasses.asdict(match)
    fields["bindings"] = {
        var: [
            (e.event_type, e.timestamp, e.seq, sorted(e.payload.items()))
            for e in (binding if isinstance(binding, tuple) else (binding,))
        ]
        for var, binding in match.bindings.items()
    }
    return fields


def canonical(report: ShardReport) -> str:
    """Every field the report carries, read off the objects themselves."""
    queries = {}
    for name, query in report.queries.items():
        queries[name] = {
            "emissions": [
                {
                    "kind": e.kind.value,
                    "point": [e.at_seq, e.at_ts, e.epoch, e.revision],
                    "ranking": [match_fields(m) for m in e.ranking],
                    "entered": [match_fields(m) for m in e.entered],
                    "exited": [match_fields(m) for m in e.exited],
                }
                for e in query.emissions
            ],
            "open_epochs": list(query.open_epochs),
        }
    return dumps(
        sanitize(
            {
                "pid": report.pid,
                # registration order is part of the contract (view order)
                "instruments": [instrument_fields(i) for i in report.instruments],
                "queries": queries,
                "barrier_order": report.barrier_order,
            }
        )
    )


@given(report=shard_reports())
@settings(max_examples=60, deadline=None)
def test_decode_inverts_encode_through_the_wire(report):
    wire = encode_state(encode_report(report))  # what a pipe frame carries
    decoded = decode_report(decode_state(wire), SCORERS)
    assert canonical(decoded) == canonical(report)


def test_nonfinite_values_empty_deltas_and_an_empty_registry_survive():
    """The corners the issue names, pinned explicitly (not left to luck)."""
    event = Event("A", 1.0, x=float("inf"))
    event.seq = 0
    b = Event("B", 2.0, y=float("nan"))
    b.seq = 1
    match = SCORER.score(
        Match(
            bindings={"a": event, "bs": (b,)},
            first_seq=0,
            last_seq=1,
            first_ts=1.0,
            last_ts=2.0,
            query_name="q",
        )
    )
    assert match.rank_values[0] == float("inf")
    emission = Emission(
        kind=EmissionKind.WINDOW_CLOSE, ranking=[match], at_seq=1, at_ts=2.0, epoch=0
    )
    instruments = MetricsRegistry()
    instruments.gauge("throughput_eps", HELP["throughput_eps"]).set(float("inf"))
    instruments.gauge("peak_live_runs", HELP["peak_live_runs"], agg="max", query="q").set(
        float("nan")
    )
    instruments.histogram("latency_seconds", HELP["latency_seconds"], query="q")
    report = ShardReport(
        pid=1,
        instruments=instruments,
        queries={
            "q": QueryReport(emissions=[emission]),
            "other": QueryReport(emissions=[]),
        },
    )
    wire = encode_state(encode_report(report))
    assert "Infinity" not in wire and "NaN" not in wire, "frames stay strict JSON"
    decoded = decode_report(decode_state(wire), SCORERS)
    assert canonical(decoded) == canonical(report)
    assert decoded.queries["q"].emissions[0].ranking[0].rank_values[0] == float("inf")
    assert decoded.queries["other"].emissions == []
    assert decoded.instruments.get("peak_live_runs", query="q").agg == "max"
    assert decoded.instruments.get("latency_seconds", query="q").count == 0

    bare = ShardReport(pid=2)  # nothing registered, nothing reported
    decoded = decode_report(decode_state(encode_state(encode_report(bare))), SCORERS)
    assert len(decoded.instruments) == 0 and decoded.queries == {}
