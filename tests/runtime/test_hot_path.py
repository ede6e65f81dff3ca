"""Contracts of the engine's hot path, whose bookkeeping runs per call.

The matcher's work is per event; what surrounds it is not:

* the throughput clock is read once per ``push``/``push_batch`` call,
  while ``events_pushed`` counts every event;
* a schema validates a payload through one compiled check, falling back
  to :meth:`AttributeSpec.validate` only for a value that fails it;
* each event's epoch is computed once, and runs expire against bounds
  computed once per event;
* one pipeline pair in ``STRIDE`` is timed (the first always), every
  count stays exact, and elided pairs' zero latencies are a count beside
  the reservoir.

Each contract is checked against an oracle that does the work the old,
per-event way: per-event pushes, the attribute-by-attribute validator,
the traced expiry sweep (which keeps ``Run.window_excludes`` and the
epoch tracker per run), and explicit sample lists.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import CEPREngine, Event
from repro.events.schema import (
    AttributeSpec,
    Domain,
    EventSchema,
    SchemaError,
    SchemaRegistry,
)
from repro.observability.instruments import HELP
from repro.observability.profiling import STRIDE
from repro.observability.registry import MetricsRegistry
from repro.runtime.metrics import LatencyRecorder
from repro.runtime.serialize import emission_to_line
from repro.workloads.stock import StockWorkload

# -- one clock read per call ---------------------------------------------------------

PROGRAM = {
    "close": "PATTERN SEQ(Buy b, Sell s) WHERE b.symbol == s.symbol AND s.price > b.price "
    "WITHIN 30 EVENTS USING SKIP_TILL_ANY PARTITION BY symbol "
    "RANK BY s.price - b.price DESC LIMIT 3 EMIT ON WINDOW CLOSE",
    "wide": "PATTERN SEQ(Buy b, Sell s) WHERE b.symbol == s.symbol AND s.price > b.price "
    "WITHIN 30 EVENTS USING SKIP_TILL_ANY PARTITION BY symbol "
    "RANK BY s.price - b.price DESC LIMIT 5 EMIT ON WINDOW CLOSE",
    "timed": "PATTERN SEQ(Sell a, Buy c) WHERE a.symbol == c.symbol AND c.price < a.price "
    "WITHIN 2 SECONDS PARTITION BY symbol RANK BY a.price - c.price DESC LIMIT 2 "
    "EMIT ON WINDOW CLOSE",
    "eager": "PATTERN SEQ(Buy b, Buy c) WHERE b.volume > 990 AND b.symbol == c.symbol "
    "WITHIN 10 EVENTS PARTITION BY symbol RANK BY c.price DESC LIMIT 2 EMIT EAGER",
}


def stock_engine(**options) -> CEPREngine:
    engine = CEPREngine(registry=StockWorkload().registry(), **options)
    for name, text in PROGRAM.items():
        engine.register_query(text, name=name)
    return engine


def lines(engine: CEPREngine) -> dict[str, list[str]]:
    return {
        handle.name: [emission_to_line(e) for e in handle.results()]
        for handle in engine.queries()
    }


@pytest.mark.parametrize("shared_execution", [True, False])
@pytest.mark.parametrize("max_lateness", [None, 0.5])
def test_push_per_event_equals_one_push_batch(shared_execution, max_lateness):
    events = list(StockWorkload(seed=3, rate=40.0).events(1500))
    options = dict(shared_execution=shared_execution, max_lateness=max_lateness)
    single, batched = stock_engine(**options), stock_engine(**options)
    for event in events:
        single.push(Event(event.event_type, event.timestamp, **event.payload))
    batched.push_batch(Event(e.event_type, e.timestamp, **e.payload) for e in events)
    single.flush()
    batched.flush()
    assert lines(single) == lines(batched)
    assert single.metrics.events_pushed == batched.metrics.events_pushed == len(events)
    assert batched.metrics.throughput > 0


def test_the_clock_is_read_once_per_call():
    reads = []

    def clock():
        reads.append(None)
        return float(len(reads))

    engine = CEPREngine()
    engine.metrics._clock = clock
    engine.register_query("PATTERN SEQ(A a, B b) WITHIN 5 EVENTS")
    engine.push_batch(Event("A" if i % 2 else "B", float(i)) for i in range(100))
    assert len(reads) == 2  # the span's start, and the call's end
    engine.push(Event("A", 100.0))
    assert len(reads) == 3
    assert engine.metrics.events_pushed == 101
    assert sum(count for _second, count in engine.metrics._buckets) == 101


# -- the compiled schema check ----------------------------------------------------------


def reference_validate(schema: EventSchema, event: Event) -> None:
    """The attribute-by-attribute validator the compiled check replaces."""
    if event.event_type != schema.event_type:
        raise SchemaError(
            f"event type {event.event_type!r} does not match schema "
            f"{schema.event_type!r}"
        )
    for spec in schema.attributes:
        if spec.name not in event.payload:
            if spec.required:
                raise SchemaError(
                    f"event {event.event_type!r} missing required attribute "
                    f"{spec.name!r}"
                )
            continue
        spec.validate(event.payload[spec.name])


def outcome(check, *args) -> str | None:
    try:
        check(*args)
    except SchemaError as exc:
        return str(exc)
    return None


class FloatSubclass(float):
    pass


SCHEMA = EventSchema(
    "Order",
    (
        AttributeSpec("symbol", "str"),
        AttributeSpec("price", "float", Domain(1.0, 500.0)),
        AttributeSpec("volume", "int", Domain(1, 1000)),
        AttributeSpec("size", "int"),
        AttributeSpec("ratio", "float", Domain(-math.inf, 1.0), required=False),
        AttributeSpec("flag", "bool", required=False),
    ),
)

values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, 500, 1000, 1001, 2**53 + 1, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.0, 500.0, 500.00000000000006, 0.9999999999999999, math.nan]),
    st.builds(FloatSubclass, st.floats(min_value=0, max_value=600)),
    st.text(max_size=3),
    st.none(),
)


@given(
    payload=st.dictionaries(
        st.sampled_from(["symbol", "price", "volume", "size", "ratio", "flag", "extra"]),
        values,
        max_size=7,
    ),
    event_type=st.sampled_from(["Order", "Order", "Order", "Quote"]),
)
@settings(max_examples=400, deadline=None)
def test_the_compiled_check_raises_what_the_attribute_specs_raise(payload, event_type):
    event = Event(event_type, 1.0, **payload)
    assert outcome(SCHEMA.validate, event) == outcome(reference_validate, SCHEMA, event)


@pytest.mark.parametrize(
    "payload",
    [
        {"symbol": "X", "price": True, "volume": 5, "size": 1},  # bool for float
        {"symbol": "X", "price": 2.0, "volume": False, "size": 1},  # bool for int
        {"symbol": "X", "price": 2.0, "volume": 5.0, "size": 1},  # float for int
        {"symbol": "X", "price": 2, "volume": 5, "size": 1},  # int for float: fine
        {"symbol": "X", "volume": 5, "size": 1},  # missing required
        {"symbol": "X", "price": math.nan, "volume": 5, "size": 1},  # NaN
        {"symbol": "X", "price": 2.0, "volume": 1001, "size": 1},  # out of domain
        {"symbol": "X", "price": 2.0, "volume": 5, "size": 1, "ratio": 10**400},
        {"symbol": "X", "price": FloatSubclass(2.0), "volume": 5, "size": 1},
    ],
)
def test_the_compiled_check_on_named_corners(payload):
    event = Event("Order", 1.0, **payload)
    if "ratio" in payload:  # an int past float range: both overflow alike
        with pytest.raises(OverflowError):
            reference_validate(SCHEMA, event)
        with pytest.raises(OverflowError):
            SCHEMA.validate(event)
        return
    assert outcome(SCHEMA.validate, event) == outcome(reference_validate, SCHEMA, event)


def test_unknown_type_under_strict():
    registry = SchemaRegistry([SCHEMA])
    event = Event("Quote", 1.0, symbol="X")
    with pytest.raises(SchemaError, match="no schema registered for event type 'Quote'"):
        registry.validate(event, strict=True)
    registry.validate(event)  # lenient: unknown types pass


# -- the sampled stage profile -----------------------------------------------------------


class StepClock:
    """Each read is one second after the previous one."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_the_first_pair_is_sampled_and_one_in_stride_after_it():
    engine = CEPREngine()
    # only A events: no pair has matches to rank or emissions to fan out
    handle = engine.register_query("PATTERN SEQ(A a, B b) WITHIN 3 EVENTS", name="q")
    handle.pipeline._clock = StepClock()
    engine.push(Event("A", 0.0))
    profile, latency = handle.pipeline.profile, handle.pipeline.metrics.latency
    # three reads one second apart: one second to match, one to rank; a
    # pair without emissions has no fan-out to time
    assert (profile.match.count, profile.match.total, profile.match.maximum) == (1, 1.0, 1.0)
    assert (profile.rank.count, profile.rank.total) == (1, 1.0)
    assert (profile.emit.count, profile.emit.total) == (1, 0.0)
    assert (latency.count, latency.total, latency.maximum) == (1, 2.0, 2.0)
    for i in range(1, 2 * STRIDE + 5):
        engine.push(Event("A", float(i)))
    pairs = 2 * STRIDE + 5
    # sampled: pairs 0, STRIDE, 2 * STRIDE; each later one stands for STRIDE
    for timer in (profile.match, profile.rank):
        assert timer.count == pairs
        assert timer.total == 1.0 + 2 * STRIDE
        assert timer.maximum == 1.0
    assert (profile.emit.count, profile.emit.total) == (pairs, 0.0)
    assert latency.count == handle.pipeline.metrics.events_routed == pairs
    assert latency.total == 2.0 * (1 + 2 * STRIDE)
    assert latency._samples == [2.0, 2.0, 2.0]
    assert latency.percentile(50) == 2.0
    # a sampled pair reads the clock three times, any other pair once
    assert handle.pipeline._clock.now == 3 * 3 + (pairs - 3)
    engine.flush()  # the pairs after the last sample count at its duration
    assert profile.match.total == profile.rank.total == float(pairs)


def test_pairs_with_work_time_their_rank_and_emit_stages():
    """A pair with matches to rank or emissions to release has its rank
    stage timed, one with emissions its emit stage: few pairs do, and
    they carry most of those stages' time."""
    engine = CEPREngine()
    handle = engine.register_query("PATTERN SEQ(A a, B b) WITHIN 3 EVENTS", name="q")
    handle.pipeline._clock = StepClock()
    engine.push(Event("A", 0.0))  # pair 0: sampled
    engine.push(Event("B", 1.0))  # pair 1: a match, eagerly emitted
    profile = handle.pipeline.profile
    assert handle.pipeline._clock.now == 3 + 3  # before and after the rank stage, after emit
    assert (profile.match.count, profile.match.total) == (2, 1.0)
    assert (profile.rank.count, profile.rank.total) == (2, 2.0)
    assert (profile.emit.count, profile.emit.total) == (2, 1.0)
    for i in range(2, STRIDE + 1):  # pair STRIDE: the next sample
        engine.push(Event("A", float(i)))
    # the sample stands for itself and the pairs untimed since pair 0
    assert (profile.match.count, profile.match.total) == (STRIDE + 1, 1.0 + STRIDE)
    assert (profile.rank.count, profile.rank.total) == (STRIDE + 1, 2.0 + STRIDE - 1)
    assert (profile.emit.count, profile.emit.total) == (STRIDE + 1, 1.0)
    assert handle.pipeline.metrics.latency.count == STRIDE + 1


def test_counts_stay_exact_with_dormant_and_elided_pairs():
    """``latency.count == events_routed`` for every query, whether its
    pairs were timed, untimed, skipped as inert or owed while dormant."""
    gated = {
        f"g{gate}_{i}": (
            f"PATTERN SEQ(Buy b, Sell s) WHERE b.volume > {gate} AND b.symbol == s.symbol "
            f"WITHIN 8 EVENTS PARTITION BY symbol RANK BY s.price + {i} DESC LIMIT 2 "
            f"EMIT ON WINDOW CLOSE"
        )
        for gate in (900, 980, 995)
        for i in range(3)
    }
    engine = CEPREngine()
    for name, text in gated.items():
        engine.register_query(text, name=name)
    engine.push_batch(StockWorkload(seed=5).events(2000))
    rows = engine.stats_by_query()
    elided = 0
    for handle in engine.queries():
        routed = rows[handle.name]["events_routed"]
        latency = handle.pipeline.metrics.latency
        assert latency.count == routed == handle.pipeline.metrics.events_routed
        assert handle.pipeline.profile.match.count == routed - latency.zeros
        elided += latency.zeros
    assert elided > 0, "the program must exercise the skip path"


# -- quantiles with the zero count ---------------------------------------------------------


def reference_percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = q / 100 * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


latencies = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), max_size=40
)


@given(parts=st.lists(st.tuples(latencies, st.integers(0, 30)), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_quantiles_count_the_zeros_after_absorb_and_the_wire(parts):
    """Under capacity the zero count is exact: the quantiles equal those of
    the explicit sample list, for one recorder, for their ``absorb`` and
    after a wire round-trip of the registry."""
    merged = LatencyRecorder()
    everything: list[float] = []
    registry = MetricsRegistry()
    for index, (samples, zeros) in enumerate(parts):
        recorder = registry.histogram(
            "latency_seconds", HELP["latency_seconds"], query=f"q{index}"
        ).recorder
        for sample in samples:
            recorder.record(sample)
        recorder.record_zeros(zeros)
        own = samples + [0.0] * zeros
        assert recorder.count == len(own) and recorder.zeros == zeros
        for q in (0, 10, 50, 90, 99, 100):
            assert recorder.percentile(q) == pytest.approx(reference_percentile(own, q))
        merged.absorb(recorder)
        everything += own
    decoded = MetricsRegistry.from_wire(registry.to_wire(), HELP)
    wired = LatencyRecorder()
    for histogram in decoded:
        wired.absorb(histogram.recorder)
    for recorder in (merged, wired):
        assert recorder.count == len(everything)
        assert recorder.zeros == sum(zeros for _samples, zeros in parts)
        for q in (0, 10, 50, 90, 99, 100):
            assert recorder.percentile(q) == pytest.approx(
                reference_percentile(everything, q)
            )


def test_zeros_are_scaled_to_a_full_reservoir():
    recorder = LatencyRecorder(capacity=10)
    for _ in range(100):
        recorder.record(1.0)
    recorder.record_zeros(300)  # three in four observations are zeros
    assert len(recorder._samples) == 10
    assert recorder.percentile(50) == 0.0
    assert recorder.percentile(74) == 0.0
    assert recorder.percentile(80) == 1.0


# -- expiry and epoch boundaries ------------------------------------------------------------


def boundary_program(span: str) -> dict[str, str]:
    return {
        "close": f"PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN {span} PARTITION BY k "
        f"RANK BY b.x - a.x DESC LIMIT 2 EMIT ON WINDOW CLOSE",
        "slide": f"PATTERN SEQ(A a, B bs+) WHERE bs.x > a.x WITHIN {span} "
        f"USING SKIP_TILL_ANY PARTITION BY k RANK BY count(bs) DESC LIMIT 3 EMIT EAGER",
    }


def run_program(program, events, tracing: bool) -> dict[str, list[str]]:
    engine = CEPREngine(tracing=tracing)
    for name, text in program.items():
        engine.register_query(text, name=name)
    engine.push_batch(Event(e.event_type, e.timestamp, **e.payload) for e in events)
    engine.flush()
    return lines(engine)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["A", "B"]), st.integers(0, 60), st.integers(0, 1)),
        min_size=1,
        max_size=30,
    ),
    span=st.sampled_from(["0.3 SECONDS", "0.7 SECONDS", "1.5 SECONDS", "3 EVENTS"]),
)
@settings(max_examples=200, deadline=None)
def test_boundary_timestamps_expire_as_the_per_run_checks_do(steps, span):
    """Timestamps on a grid of tenths land exactly at ``first_ts + span``
    and at ``epoch * span``, and a float hair either side of them: the
    untraced engine, which compares bounds computed once per event,
    emits what the traced one emits — whose expiry sweep calls
    ``Run.window_excludes`` and the epoch tracker on every run."""
    stamps = sorted(tenths / 10 for _kind, tenths, _key in steps)
    events = [
        Event(kind, ts, k=key, x=index)
        for index, ((kind, _tenths, key), ts) in enumerate(zip(steps, stamps))
    ]
    program = boundary_program(span)
    assert run_program(program, events, tracing=False) == run_program(
        program, events, tracing=True
    )


def test_the_window_cut_off_is_ts_minus_first_ts_over_span():
    """In floats ``0.8 - 0.5 > 0.3`` but not ``0.5 < 0.8 - 0.3``: the run
    begun at 0.5 is dead at 0.8, as ``Run.window_excludes`` says; one
    begun at 0.0 is alive at exactly 0.3."""
    program = {
        "q": "PATTERN SEQ(A a, B b) WITHIN 0.3 SECONDS RANK BY b.x DESC LIMIT 3 EMIT EAGER"
    }
    assert 0.8 - 0.5 > 0.3 and not 0.5 < 0.8 - 0.3
    dead = run_program(program, [Event("A", 0.5, x=0), Event("B", 0.8, x=1)], False)
    alive = run_program(program, [Event("A", 0.0, x=0), Event("B", 0.3, x=1)], False)
    assert dead == {"q": []}
    assert len(alive["q"]) == 2  # the match, then the final ranking
