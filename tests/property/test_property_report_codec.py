"""Property: the shard-report codec is a bijection on what it carries.

``decode_report(encode_report(r)) == r`` for arbitrary reports — through
the real wire path (non-finite-float sentinels, JSON text, back) — with
``inf``/``nan`` rank values, empty emission deltas and ``profile=None``
all in the domain.  Reports hold live-object types without ``__eq__``
and NaN never equals itself, so equality is taken on canonical JSON of
the decoded report's own fields (including the re-scored matches), never
by trusting the encoder twice.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event
from repro.engine.match import Match
from repro.engine.matcher import MatcherStats
from repro.events.jsonsafe import desanitize, dumps, sanitize
from repro.language.parser import parse_query
from repro.language.semantics import analyze
from repro.observability.profiling import StageProfile
from repro.ranking.emission import Emission, EmissionKind
from repro.ranking.score import Scorer
from repro.runtime.metrics import EngineMetrics, LatencyRecorder, QueryMetrics
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


@st.composite
def matches(draw):
    ts = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    a = Event("A", ts, x=draw(values), tag=draw(st.text(max_size=4)))
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


@st.composite
def recorders(draw):
    recorder = LatencyRecorder()
    for sample in draw(st.lists(seconds, max_size=5)):
        recorder.record(sample)
    return recorder


@st.composite
def profiles(draw):
    profile = StageProfile()
    for _name, timer in profile.timers():
        for sample in draw(st.lists(seconds, max_size=3)):
            timer.add(sample)
    return profile


@st.composite
def query_reports(draw, name):
    stats = MatcherStats(
        **{spec.name: draw(counts) for spec in dataclasses.fields(MatcherStats)}
    )
    return QueryReport(
        name=name,
        metrics=QueryMetrics(
            events_routed=draw(counts),
            matches=draw(counts),
            emissions=draw(counts),
            revisions=draw(counts),
            latency=draw(recorders()),
        ),
        stats=stats,
        profile=draw(st.none() | profiles()),
        emissions=draw(st.lists(emissions(), max_size=3)),
        open_epochs=tuple(sorted(draw(st.sets(counts, max_size=4)))),
        live_runs=draw(counts),
        pending=draw(counts),
    )


@st.composite
def shard_reports(draw):
    engine = EngineMetrics()
    engine.events_pushed = draw(counts)
    engine.last_event_ts = draw(st.none() | seconds)
    names = draw(st.sets(st.sampled_from(sorted(SCORERS)), max_size=2))
    trip_counts = st.dictionaries(st.text(max_size=6), counts, max_size=3)
    return ShardReport(
        pid=draw(st.integers(min_value=1, max_value=2**22)),
        engine=engine,
        shared=draw(trip_counts),
        sanitizer_trips=draw(st.none() | trip_counts),
        queries={name: draw(query_reports(name)) for name in sorted(names)},
    )


def recorder_fields(recorder):
    return [recorder.count, recorder.total, recorder.maximum, recorder._samples]


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
        assert query.name == name
        metrics = dataclasses.asdict(query.metrics)
        metrics["latency"] = recorder_fields(query.metrics.latency)
        queries[name] = {
            "metrics": metrics,
            "stats": dataclasses.asdict(query.stats),
            "profile": None
            if query.profile is None
            else [
                (stage, timer.count, timer.total, timer.maximum)
                for stage, timer in query.profile.timers()
            ],
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
            "live": [query.live_runs, query.pending],
        }
    return dumps(
        sanitize(
            {
                "pid": report.pid,
                "engine": [report.engine.events_pushed, report.engine.last_event_ts],
                "shared": report.shared,
                "sanitizer": report.sanitizer_trips,
                "queries": queries,
            }
        )
    )


@given(report=shard_reports())
@settings(max_examples=60, deadline=None)
def test_decode_inverts_encode_through_the_wire(report):
    wire = dumps(sanitize(encode_report(report)))  # what a pipe frame carries
    decoded = decode_report(desanitize(json.loads(wire)), SCORERS)
    assert canonical(decoded) == canonical(report)


def test_nonfinite_scores_empty_deltas_and_missing_profile_survive():
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
    report = ShardReport(
        pid=1,
        queries={
            "q": QueryReport(name="q", emissions=[emission], profile=None),
            "other": QueryReport(name="other", emissions=[], profile=StageProfile()),
        },
    )
    wire = dumps(sanitize(encode_report(report)))
    assert "Infinity" not in wire and "NaN" not in wire, "frames stay strict JSON"
    decoded = decode_report(desanitize(json.loads(wire)), SCORERS)
    assert canonical(decoded) == canonical(report)
    assert decoded.queries["q"].emissions[0].ranking[0].rank_values[0] == float("inf")
    assert decoded.queries["q"].profile is None
    assert decoded.queries["other"].emissions == []
