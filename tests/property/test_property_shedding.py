"""Property tests: shed verdicts are sound, adaptive stays bounded.

Two layers:

* Probe soundness — for any random stream (with and without schema
  domains, so both the structural and the bound-certified rungs of the
  ladder fire), every event ``shed_probe`` calls ``SHED_SAFE`` is then
  processed for real, and the matcher does nothing with it that could
  reach an emission: no run extended, killed or tripped, no match
  completed or parked, and any run it starts is pruned in the same call.
  This is what ``shed_safe_total`` and ``recall_estimate`` rest on.
* Controller algebra — for any admission sequence the counters stay
  consistent (every shed is safe or sampled, never both; protected
  events are never dropped; the recall estimate is a true ratio in
  [0, 1]) and the AIMD rate never escapes [0, MAX_DROP_RATE].
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import CEPREngine, Event
from repro.events.schema import AttributeSpec, Domain, EventSchema, SchemaRegistry
from repro.runtime.query import SHED_PROTECTED, SHED_SAFE, SHED_UNCERTIFIED
from repro.runtime.shedding import MAX_DROP_RATE, ShedController
from repro.workloads.generic import GenericWorkload

RANKED_QUERY = """
NAME spread
PATTERN SEQ(A a, B b)
WITHIN 20 EVENTS
USING SKIP_TILL_ANY
RANK BY b.value - a.value DESC
LIMIT 2
EMIT ON WINDOW CLOSE
"""


def make_registry():
    attrs = (AttributeSpec("value", "float", Domain(0.0, 100.0)),)
    return SchemaRegistry([EventSchema("A", attrs), EventSchema("B", attrs)])


event_specs = st.lists(
    st.tuples(
        st.booleans(),  # A / B
        st.integers(min_value=0, max_value=100),  # value
    ),
    min_size=0,
    max_size=150,
)


def build_stream(specs):
    events = []
    ts = 0.0
    for is_a, value in specs:
        ts += 0.5
        events.append(Event("A" if is_a else "B", ts, value=float(value)))
    return events


#: what a processed event may not have moved if dropping it was safe.
OUTPUT_BEARING = (
    "runs_extended",
    "matches_completed",
    "pending_created",
    "runs_killed_strict",
    "runs_killed_negation",
    "runs_tripped",
)

QUERIES = {
    "ranked": RANKED_QUERY,
    "strict": RANKED_QUERY.replace("SKIP_TILL_ANY", "STRICT"),
    "kleene": """
NAME surge
PATTERN SEQ(A a, B bs+)
WITHIN 20 EVENTS
USING SKIP_TILL_ANY
RANK BY max(bs.value) - a.value DESC
LIMIT 2
EMIT ON WINDOW CLOSE
""",
    "negation": "NAME gap PATTERN SEQ(A a, NOT B n, A c) WITHIN 20 EVENTS",
    "trailing-negation": "NAME quiet PATTERN SEQ(A a, A c, NOT B n) WITHIN 20 EVENTS",
}


def process_checking_safe_verdicts(query, events, registry=None):
    """Run ``events`` through one engine; returns ``(safe, certified)`` counts.

    Every event is probed first, exactly as the adaptive sampler would
    (unsequenced, with the next sequence number as the hint), then
    processed whatever the verdict — and a ``SHED_SAFE`` one is held to it.
    """
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(query)
    stats = handle.matcher.stats
    safe = certified = 0
    for event in events:
        verdict, headroom = handle.pipeline.shed_probe(
            event, seq_hint=engine.metrics.events_pushed
        )
        before = {name: getattr(stats, name) for name in OUTPUT_BEARING}
        kept_before = stats.runs_created - stats.runs_pruned
        engine.push(event)
        if verdict is not SHED_SAFE:
            continue
        safe += 1
        certified += headroom is not None
        assert {name: getattr(stats, name) for name in OUTPUT_BEARING} == before
        assert stats.runs_created - stats.runs_pruned == kept_before
    return safe, certified


class TestProbeSoundness:
    @pytest.mark.parametrize("query", sorted(QUERIES))
    @given(specs=event_specs)
    @settings(max_examples=40, deadline=None)
    def test_safe_events_process_without_a_trace(self, query, specs):
        process_checking_safe_verdicts(
            QUERIES[query], build_stream(specs), registry=make_registry()
        )

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @given(specs=event_specs)
    @settings(max_examples=25, deadline=None)
    def test_structural_verdicts_without_domains_are_also_sound(
        self, query, specs
    ):
        # without domains no bound can certify, only structural safety
        _, certified = process_checking_safe_verdicts(
            QUERIES[query], build_stream(specs)
        )
        assert certified == 0

    def test_bound_certificates_fire_with_domains(self):
        # Tight schema domains are the precondition for score-bound
        # certificates (same as pruning): the generic workload's declared
        # value range makes many stage-0 events provably hopeless.
        workload = GenericWorkload(seed=5, alphabet_size=2)
        safe, certified = process_checking_safe_verdicts(
            RANKED_QUERY, workload.events(2000), registry=workload.registry()
        )
        assert 0 < certified < safe


class _Probe:
    def __init__(self, classification, headroom):
        self.classification = classification
        self.headroom = headroom

    def shed_probe(self, event, seq_hint=None):
        return self.classification, self.headroom


probe_specs = st.lists(
    st.tuples(
        st.sampled_from([SHED_SAFE, SHED_PROTECTED, SHED_UNCERTIFIED]),
        st.one_of(
            st.none(),
            st.floats(
                min_value=-10.0,
                max_value=10.0,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
    ),
    min_size=0,
    max_size=200,
)


class TestControllerAlgebra:
    @given(
        specs=probe_specs,
        rate=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_admission_counters_stay_consistent(self, specs, rate, seed):
        controller = ShedController(policy="adaptive", force=True, seed=seed)
        controller.drop_rate = rate
        protected_dropped = 0
        for i, (classification, headroom) in enumerate(specs):
            admitted = controller.admit(
                Event("A", float(i)), [_Probe(classification, headroom)]
            )
            if classification is SHED_PROTECTED and not admitted:
                protected_dropped += 1
        stats = controller.stats
        assert protected_dropped == 0
        assert stats.offered == len(specs)
        assert (
            stats.shed_events_total
            == stats.shed_safe_total + stats.shed_sampled_total
        )
        assert stats.uncertified_shed <= stats.uncertified_offered
        assert stats.certified_total <= stats.shed_safe_total
        assert 0.0 <= stats.recall_estimate <= 1.0

    @given(
        pressures=st.lists(
            st.floats(
                min_value=0.0,
                max_value=1.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=0,
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_aimd_rate_stays_bounded(self, pressures):
        controller = ShedController(policy="adaptive")
        for level in pressures:
            controller.control(level)
            assert 0.0 <= controller.drop_rate <= MAX_DROP_RATE
            if not controller.engaged:
                assert controller.drop_rate == 0.0
