"""RANK BY is a total order: a NaN key, or keys of mixed kinds, is a scoring error.

A match whose sort key has no place in a total order never reaches a
ranking scope.  It is an ``EvaluationError``: raised when strict, counted
in ``scoring_errors`` (the ``evaluation_errors_total`` series) and dropped
when lenient.  The differential runs streams with NaN in a ranked
attribute through tumbling, ``EMIT EAGER`` and ``EMIT EVERY`` queries,
pruning on and off, on the embedded and process backends and on the
process fleet's in-process double:

* strict, every run raises at the first NaN-keyed match (a fleet surfaces
  it the way it surfaces any engine failure);
* lenient, every run emits what one engine emits with pruning off, and
  ``MatchThenRankQuery`` too, and counts the same errors.

Checkpoints written before the rule (``checkpoints_8e944db/``, by the
engine at commit 8e944db, with the query and events beside each snapshot)
restore byte-identically unless they hold what the rule forbids.
"""

import json
import math
import random
from pathlib import Path

import pytest

from repro import CEPREngine, Event
from repro.baselines.match_then_rank import MatchThenRankQuery
from repro.engine.snapshot import SnapshotFormatError
from repro.events.jsonsafe import desanitize
from repro.events.schema import AttributeSpec, Domain, EventSchema, SchemaRegistry
from repro.events.time import SequenceAssigner
from repro.language.errors import EvaluationError
from repro.runtime import RunnerConfig
from repro.runtime.serialize import emission_to_line
from repro.runtime.sinks import CollectorSink
from tests.runtime.fleet import DOUBLE, create_test_runner, local_fleet

NAN = math.nan
NAN_ERROR = "RANK BY expressions must not produce NaN"

REGISTRY = SchemaRegistry(
    [
        EventSchema(
            event_type,
            (
                AttributeSpec("value", "float"),  # no domain: NaN is a legal value
                AttributeSpec("w", "float", Domain(0.0, 1.0)),
                AttributeSpec("g", "int"),
            ),
        )
        for event_type in "AB"
    ]
)

#: PR 24's key: bounded by [0, 5], yet NaN for any a.value > 0
OVERFLOW = "max2(min2(a.value * 1e308 * 10 - a.value * 1e308 * 10, 5), 0)"

QUERIES = {
    "tumbling": "RANK BY b.value - a.value DESC LIMIT 2 EMIT ON WINDOW CLOSE",
    # the pruner bounds b.w by its domain and reads a.value exactly: an
    # infinite a.value times a b.w of 0 is NaN, so there is no bound
    "tumbling-product": "RANK BY a.value * b.w ASC LIMIT 1 EMIT ON WINDOW CLOSE",
    "tumbling-overflow": f"RANK BY {OVERFLOW} + b.w DESC LIMIT 2 EMIT ON WINDOW CLOSE",
    "eager": "RANK BY b.value - a.value DESC LIMIT 2 EMIT EAGER",
    "every": "RANK BY b.value - a.value ASC LIMIT 3 EMIT EVERY 5 EVENTS",
}
BACKENDS = ["embedded", "process", DOUBLE]


def query(name):
    return (
        "PATTERN SEQ(A a, B b) WITHIN 10 EVENTS USING SKIP_TILL_ANY "
        f"PARTITION BY g {QUERIES[name]}"
    )


def stream(count=240, seed=2016):
    rng = random.Random(seed)
    return [
        Event(
            rng.choice("AB"),
            float(i),
            value=rng.choice([-1.0, 0.0, 1.0, 2.5, 1e300, math.inf, NAN]),
            w=rng.choice([0.0, 0.5, 1.0]),
            g=rng.randint(0, 3),
        )
        for i in range(count)
    ]


def run(name, backend, enable_pruning, lenient):
    """Lines and the error count of one run, or the error it raised."""
    runner = create_test_runner(
        {"q": query(name)},
        RunnerConfig(
            backend=backend,
            shards=2,
            registry=REGISTRY,
            enable_pruning=enable_pruning,
            lenient_errors=lenient,
        ),
    )
    sink = CollectorSink()
    runner.subscribe("q", sink)
    try:
        with runner:
            runner.submit_all(stream())
            runner.flush()
            errors = [
                sample.value
                for sample in runner.metrics_registry().collect()
                if sample.name == "evaluation_errors_total"
            ]
    except (EvaluationError, RuntimeError) as exc:
        return exc
    return [emission_to_line(e) for e in sink.emissions], errors


class LenientMatchThenRank(MatchThenRankQuery):
    """The baseline under the lenient policy: a match whose key fails to
    score is counted and dropped."""

    scoring_errors = 0

    def _buffer(self, matches):
        scored = []
        for match in matches:
            try:
                scored.append(self.scorer.score(match))
            except EvaluationError:
                self.scoring_errors += 1
        super()._buffer(scored)


def match_then_rank(name):
    events = stream()
    assigner = SequenceAssigner()
    for event in events:
        assigner.assign(event)
    baseline = LenientMatchThenRank(query(name), REGISTRY, name="q")
    baseline.run(events)
    return [emission_to_line(e) for e in baseline.emissions], baseline.scoring_errors


@pytest.fixture(scope="module")
def reference():
    """Per query: one lenient engine without pruning, and where strict
    stops it (the events pushed when the first NaN-keyed match raised)."""
    out = {}
    for name in QUERIES:
        engine = CEPREngine(registry=REGISTRY, enable_pruning=False, lenient_errors=True)
        handle = engine.register_query(query(name), name="q")
        engine.run(stream())
        strict = CEPREngine(registry=REGISTRY, enable_pruning=False)
        strict.register_query(query(name), name="q")
        with pytest.raises(EvaluationError, match=NAN_ERROR):
            strict.run(stream())
        out[name] = (
            [emission_to_line(e) for e in handle.results()],
            handle.ranker.scoring_errors,
            strict.events_pushed,
        )
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("enable_pruning", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("name", sorted(QUERIES))
class TestNaNDifferential:
    def test_strict_raises_at_the_first_nan_keyed_match(
        self, reference, name, enable_pruning, backend
    ):
        raised = run(name, backend, enable_pruning, lenient=False)
        assert isinstance(raised, Exception), raised
        if backend == "embedded":
            assert isinstance(raised, EvaluationError) and str(raised) == NAN_ERROR
            engine = CEPREngine(registry=REGISTRY, enable_pruning=enable_pruning)
            engine.register_query(query(name), name="q")
            with pytest.raises(EvaluationError):
                engine.run(stream())
            assert engine.events_pushed == reference[name][2]
        else:
            assert isinstance(raised, RuntimeError)
            assert NAN_ERROR in str(raised.__cause__)

    def test_lenient_counts_and_emits_what_pruning_off_emits(
        self, reference, name, enable_pruning, backend
    ):
        lines, errors = run(name, backend, enable_pruning, lenient=True)
        expected, scoring_errors, _ = reference[name]
        assert scoring_errors > 0
        assert lines == expected
        assert errors == [scoring_errors]
        if name.startswith("tumbling"):
            assert match_then_rank(name) == (expected, scoring_errors)


class TestCounterexamples:
    @pytest.mark.parametrize("lenient", [False, True])
    def test_the_sliding_counterexample_answers_like_the_list(self, lenient):
        """Keys 5, 3, NaN, 0 with k=1: sorting the old scope's list of all
        four answered 0, while the band answered 3.  The NaN is now a
        scoring error, and the band answers 0 like the list."""
        engine = CEPREngine(lenient_errors=lenient)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 100 EVENTS RANK BY a.x ASC LIMIT 1 EMIT EAGER",
            name="q",
        )
        events = [Event("A", float(i), x=x) for i, x in enumerate([5.0, 3.0, NAN, 0.0])]
        if not lenient:
            with pytest.raises(EvaluationError, match=NAN_ERROR):
                engine.run(events)
            assert engine.events_pushed == 3
            return
        engine.run(events)
        assert handle.ranker.scoring_errors == 1
        assert [m.rank_values for m in handle.results()[-1].ranking] == [(0.0,)]

    @pytest.mark.parametrize("lenient", [False, True])
    def test_mixed_kinds_in_a_tumbling_scope(self, lenient):
        """A string key meeting a number key in one epoch's buffer: a typed
        error, not a raw ``TypeError``; lenient drops the incoming match."""
        engine = CEPREngine(lenient_errors=lenient)
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 100 EVENTS RANK BY a.x ASC LIMIT 2", name="q"
        )
        events = [Event("A", float(i), x=x) for i, x in enumerate([1.0, "b", 0.5])]
        if not lenient:
            with pytest.raises(EvaluationError, match="mixed kinds"):
                engine.run(events)
            return
        engine.run(events)
        assert handle.ranker.scoring_errors == 1
        assert [m.rank_values for m in handle.results()[0].ranking] == [(0.5,), (1.0,)]


GOLDEN = Path(__file__).parent / "checkpoints_8e944db"
GOLDEN_REGISTRY = SchemaRegistry(
    [
        EventSchema(t, (AttributeSpec("value", "float"), AttributeSpec("g", "int")))
        for t in "AB"
    ]
)


def golden(name):
    return desanitize(json.loads((GOLDEN / f"{name}.json").read_text()))


def golden_events(doc):
    return [
        Event(t, float(i), value=value, g=g) for i, (t, value, g) in enumerate(doc["steps"])
    ]


def resume(doc):
    engine = CEPREngine(registry=GOLDEN_REGISTRY)
    handle = engine.register_query(doc["query"], name="q")
    engine.restore(doc["snapshot"])
    return engine, handle


class TestParentCheckpoints:
    @pytest.mark.parametrize(
        "name, reason",
        [
            ("tumbling_unordered", "epoch 0 took a NaN key"),
            ("sliding_nan", "a held match cannot be ranked: " + NAN_ERROR),
        ],
    )
    def test_what_the_rule_forbids_is_refused(self, name, reason):
        with pytest.raises(SnapshotFormatError, match=f"^query 'q': {reason}"):
            resume(golden(name))

    @pytest.mark.parametrize("name", ["tumbling", "sliding"])
    def test_a_nan_free_checkpoint_continues_byte_identically(self, name):
        doc = golden(name)
        events = golden_events(doc)
        first = CEPREngine(registry=GOLDEN_REGISTRY)
        first_handle = first.register_query(doc["query"], name="q")
        first.run(events[: doc["cut"]], flush=False)
        engine, handle = resume(doc)
        engine.run(events[doc["cut"] :])
        after = [emission_to_line(e) for e in handle.results()]
        assert after
        assert [emission_to_line(e) for e in first_handle.results()] + after == doc["lines"]


FLEET_QUERY = """
    PATTERN SEQ(A a)
    WITHIN 10 EVENTS
    PARTITION BY g
    RANK BY a.x DESC
    LIMIT 2
    EMIT ON WINDOW CLOSE
"""


class TestFleetCheckpoints:
    """A fleet checkpoint holding a NaN-keyed match in an un-merged epoch
    is refused like a single engine's: by name, not by a raw scoring
    error."""

    @staticmethod
    def fleet():
        return local_fleet({"q": FLEET_QUERY}, shards=2)

    @pytest.mark.parametrize("where", ["pending_epochs", "shard_tails"])
    def test_a_nan_key_in_an_unmerged_epoch_is_refused(self, where):
        # s1 is seen only in epoch 0 and s0 goes on, so the shard holding
        # s1 never closes epoch 0: its merge stays pending.
        events = [
            Event("A", float(i), g="s1" if i < 3 else "s0", x=float(i))
            for i in range(14)
        ]
        runner = self.fleet()
        with runner:
            runner.submit_all(events)
            runner.sync()
            if where == "pending_epochs":
                runner.poll()
            state = runner.snapshot()
        view = state["views"]["q"]
        emissions = (
            [emission for parts in view["pending_epochs"].values() for _, emission in parts]
            if where == "pending_epochs"
            else [emission for tail in view["shard_tails"] for emission in tail]
        )
        assert emissions and emissions[0]["ranking"]
        emissions[0]["ranking"][0]["bindings"]["a"]["one"]["payload"]["x"] = math.nan

        resumed = self.fleet()
        with resumed:
            with pytest.raises(
                SnapshotFormatError,
                match=f"^query 'q': a held match cannot be ranked: {NAN_ERROR}",
            ):
                resumed.restore(state)
