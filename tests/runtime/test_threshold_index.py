"""The router's threshold index against the per-gate path it replaces.

A dormant gate whose first predicate is ``attr <op> number`` is answered
by one bisect of the event's value into its type bucket's sorted
thresholds, and the gates that value shuts are booked in bulk
(``repro.runtime.router._ThresholdIndex``).  With ``attr_threshold``
patched to recognise no shape, every gate takes the per-gate path again:
each program and script here runs both ways and must give the same
emissions (and the same strict errors, in the same order), the same
per-query cost accounts and counter rows, and the same
``SharedExecutionIndex`` counters.
"""

import math
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CEPREngine, Event
from repro.language.errors import EvaluationError
from repro.runtime import router as router_module
from repro.runtime.router import SharedExecutionIndex
from repro.runtime.serialize import emission_to_line
from tests.runtime.fleet import local_fleet


@contextmanager
def per_gate_path():
    """Every gate evaluated one by one, as before the index."""
    with mock.patch.object(router_module, "attr_threshold", lambda expr: None):
        yield


OPS = (">", ">=", "<", "<=")
#: int and float thresholds, with equal ones (2, 2.0) and ties with VALUES.
BOUNDS = (-1.5, 0, 1, 2, 2.0, 2.5)
NAN = float("nan")
MISSING = object()
#: every kind of value the index must answer or hand to the per-gate path.
VALUES = st.one_of(
    st.sampled_from((-2, 0, 1, 2, 3)),
    st.sampled_from((-1.5, -0.0, 2.0, 2.5, 7.25, math.inf)),
    st.booleans(),
    st.sampled_from(("2", "")),
    st.just(NAN),
    st.just(MISSING),
)

#: few enough that drawn queries often share a gate, and so its wake list.
first_predicates = st.sampled_from(
    ("a.x > 2", "a.x > 2.0", "a.x >= 0", "a.x < 2.5", "a.x <= -1.5", "a.y > 1",
     "a.x == 1", "a.x + 0 > 1")  # the last two are not indexed
)
queries = st.tuples(
    first_predicates,
    # a second gate predicate
    st.one_of(st.none(), st.sampled_from(("a.y <= 2", "a.x != 3"))),
    st.booleans(),  # partitioned
    st.sampled_from(("DESC LIMIT 1", "DESC LIMIT 2", "ASC LIMIT 1")),
)


def query_text(first, second, partitioned, order):
    where = first if second is None else f"{first} AND {second}"
    partition = "PARTITION BY k " if partitioned else ""
    return (
        f"PATTERN SEQ(A a, B b) WHERE {where} WITHIN 6 EVENTS {partition}"
        f"RANK BY b.z {order} EMIT ON WINDOW CLOSE"
    )


programs = st.lists(queries, min_size=1, max_size=8).map(
    lambda drawn: {f"q{i}": query_text(*query) for i, query in enumerate(drawn)}
)


@st.composite
def events(draw, count=st.integers(10, 60)):
    stream = []
    for ts in range(draw(count)):
        payload = {}
        if draw(st.integers(0, 9)):  # one in ten is keyless
            payload["k"] = draw(st.sampled_from("pq"))
        if draw(st.integers(0, 3)):  # one in four is a B
            for attr in ("x", "y"):
                value = draw(VALUES)
                if value is not MISSING:
                    payload[attr] = value
            stream.append(("A", float(ts), payload))
        else:
            payload["z"] = draw(st.integers(0, 9))
            stream.append(("B", float(ts), payload))
    return stream


def counters(source):
    """Everything counted, nothing timed."""
    accounts = {
        name: {**account.to_dict(), "cpu_seconds": None, "cpu_per_event_us": None}
        for name, account in source.cost_accounts().items()
    }
    rows = {
        name: {key: value for key, value in row.items() if "latency" not in key}
        for name, row in source.stats_by_query().items()
    }
    return accounts, rows, source.shared_stats()


def run_script(script, lenient):
    """Drive one engine through ``script``: pushes, churn and restores."""
    engine = CEPREngine(lenient_errors=lenient)
    registered: dict[str, str] = {}
    out: list = []
    for step in script:
        if step[0] == "push":
            _, kind, ts, payload = step
            try:
                emissions = engine.push(Event(kind, ts, **payload))
                out.append([emission_to_line(e) for e in emissions])
            except EvaluationError as error:
                out.append(("raised", str(error)))
        elif step[0] == "register":
            engine.register_query(step[2], name=step[1])
            registered[step[1]] = step[2]
        elif step[0] == "unregister":
            engine.unregister_query(step[1])
            del registered[step[1]]
        else:  # restore into a fresh engine
            state = engine.snapshot()
            engine = CEPREngine(lenient_errors=lenient)
            for name, text in registered.items():
                engine.register_query(text, name=name)
            engine.restore(state)
    out.append([emission_to_line(e) for e in engine.flush()])
    return out, counters(engine)


def both_ways(script, lenient):
    indexed = run_script(script, lenient)
    with per_gate_path():
        per_gate = run_script(script, lenient)
    assert indexed == per_gate


@st.composite
def scripts(draw):
    program = draw(programs)
    stream = draw(events())
    script = [("register", name, text) for name, text in program.items()]
    script += [("push", *event) for event in stream]
    if draw(st.booleans()):  # churn: unregister one, register a newcomer
        names = list(program)
        gone = draw(st.sampled_from(names))
        at = draw(st.integers(len(program), len(script)))
        script.insert(at, ("unregister", gone))
        newcomer = query_text(*draw(queries))
        joins = draw(st.integers(at + 1, len(script)))
        script.insert(joins, ("register", "late", newcomer))
    if draw(st.booleans()):  # restore at a random offset
        script.insert(draw(st.integers(len(program), len(script))), ("restore",))
    return script


class TestIndexAgainstPerGatePath:
    @given(script=scripts(), lenient=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scripts_match_the_per_gate_path(self, script, lenient):
        both_ways(script, lenient)

    def test_every_shape_and_value_kind(self):
        """A fixed program over every op, bound kind and value kind."""
        texts = [
            query_text(f"a.x {op} {bound}", second, part, "DESC LIMIT 1")
            for op in OPS
            for bound in (2, 2.0, 2.5)
            for second, part in ((None, True), ("a.y < 1", False))
        ]
        script = [("register", f"q{i}", text) for i, text in enumerate(texts)]
        values = (2, 2.0, 1, 3, 2.5, -0.0, True, "2", NAN, MISSING)
        ts = 0.0
        for value in values * 2:
            for kind in ("A", "B"):
                payload = {"k": "p", "y": 0, "z": 1}
                if value is not MISSING:
                    payload["x"] = value
                script.append(("push", kind, ts, payload))
                ts += 1
        script.insert(len(script) // 2, ("restore",))
        for lenient in (True, False):
            both_ways(script, lenient)

    def test_a_rebuild_mid_event_keeps_the_event_verdicts(self):
        """A query waking mid-event rebuilds its bucket's index after the
        index shut ``a.x > 5`` for the event: a later owner's consult of
        that gate is still a memo hit, and the dormant non-leader holder
        whose gate it shut still saves nothing."""

        def text(pattern, where, window, rank):
            return (
                f"PATTERN {pattern} WHERE {where} WITHIN {window} EVENTS "
                f"PARTITION BY k RANK BY {rank} DESC LIMIT 1 EMIT ON WINDOW CLOSE"
            )

        program = {  # registration order is dispatch order
            "leader": text("SEQ(A a, B b)", "a.x > 5", 2, "b.z"),
            "waker": text("SEQ(A a, A c)", "a.y > 0 AND c.y > 5", 50, "c.y"),
            "holder": text("SEQ(A a, B b)", "a.x > 5 AND b.z > 100", 50, "b.z"),
        }
        script = [("register", name, text) for name, text in program.items()]
        xy = [(0, 0), (9, 1), (0, 0), (0, 0), (0, 0), (0, 9)]  # the last wakes "waker"
        for ts, (x, y) in enumerate(xy):
            script.append(("push", "A", float(ts), {"k": "p", "x": x, "y": y}))
        (out, (accounts, _, _)) = run_script(script, True)
        assert accounts["waker"]["emissions"] == 1
        assert accounts["holder"]["shared_hits"] == len(xy)
        both_ways(script, True)

    def test_sleep_and_wake_settle_against_what_the_index_shut(self):
        """Shuts the index booked but has not folded yet count for the
        dormant owners of before, not for a query going dormant now, and
        are paid to a query waking now."""

        def text(where, order):
            return (
                f"PATTERN SEQ(A a, B b) WHERE {where} WITHIN 50 EVENTS "
                f"PARTITION BY k RANK BY b.z {order} LIMIT 1 EMIT ON WINDOW CLOSE"
            )

        def push(ts, kind, **payload):
            return ("push", kind, float(ts), payload)

        # "late" joins the gate's owners after two shut events and sleeps
        # on the next one.
        joining = [
            ("register", "leader", text("a.x > 5", "DESC")),
            push(0, "A", k="p", x=0),
            push(1, "A", k="p", x=0),
            ("register", "late", text("a.x > 5", "ASC")),
            push(2, "A", k="p", x=0),
            push(3, "A", k="p", x=0),
        ]
        # "waker" holds a run in p, is owed the shuts of two events in q,
        # and wakes when its run completes ("leader"'s does not).
        waking = [
            ("register", "leader", text("a.x > 5 AND b.z > 100", "DESC")),
            ("register", "waker", text("a.x > 5", "ASC")),
            push(0, "A", k="p", x=0),
            push(1, "A", k="p", x=9),
            push(2, "A", k="q", x=0),
            push(3, "A", k="q", x=0),
            push(4, "B", k="p", z=1),
        ]
        for script in (joining, waking):
            both_ways(script, True)
        (_, (accounts, _, _)) = run_script(waking, True)
        assert accounts["waker"]["shared_hits"] == 4  # the leader evaluates every A

    @given(program=programs, stream=events())
    @settings(max_examples=15, deadline=None)
    def test_local_fleet_matches_the_per_gate_path(self, program, stream):
        def run():
            runner = local_fleet(program, shards=2, lenient_errors=True)
            received: list = []
            for name in program:
                runner.subscribe(name, received.append)
            runner.start()
            for kind, ts, payload in stream:
                runner.submit(Event(kind, ts, **payload))
            runner.flush()
            runner.stop()
            return [emission_to_line(e) for e in received], counters(runner)

        indexed = run()
        with per_gate_path():
            assert run() == indexed


GATES = {
    f"g{i}": query_text(f"a.x {op} {bound}", None, True, "DESC LIMIT 1")
    for i, (op, bound) in enumerate(
        [(">", 5), (">", 6), (">=", 6), (">", 7.5), ("<", -3), ("<=", -4)]
    )
}


class TestWorkBound:
    def test_an_event_that_shuts_every_gate_costs_one_lookup(self):
        """Six gates on ``A.x`` in four operators, on two partitioners, one
        on ``A.y`` and one on ``B.z``: one read per (event type,
        attribute) answers all of them, and no gate is evaluated."""
        program = dict(GATES)
        program["flat"] = query_text("a.x > 9", None, False, "DESC LIMIT 1")
        program["on_y"] = query_text("a.y > 9", None, True, "DESC LIMIT 1")
        program["on_b"] = (
            "PATTERN SEQ(B b, A a) WHERE b.z > 9 WITHIN 6 EVENTS "
            "RANK BY a.x DESC LIMIT 1 EMIT ON WINDOW CLOSE"
        )
        engine = CEPREngine()
        for name, text in program.items():
            engine.register_query(text, name=name)
        engine.push(Event("A", 0.0, x=0, y=0, k="p"))  # every gate shut
        engine.push(Event("B", 1.0, z=0, k="p"))
        assert len(engine._router._dormant) == len(program)
        indexes = {}
        for kind, attributes in (("A", {"x", "y"}), ("B", {"z"})):
            index = indexes[kind] = engine._router._buckets[kind].thresholds
            assert index is not None and not index.rest
            assert {attr for attr, _ in index.attributes} == attributes
        before = {kind: index.lookups for kind, index in indexes.items()}
        performed = engine.shared_stats()["predicate_evals_performed"]
        with mock.patch.object(
            SharedExecutionIndex,
            "_evaluate_gate",
            side_effect=AssertionError("evaluated"),
        ):
            assert engine.push(Event("A", 2.0, x=0.5, y=1, k="q")) == []
            assert engine.push(Event("B", 3.0, z=-1, k="q")) == []
        grown = {kind: index.lookups - before[kind] for kind, index in indexes.items()}
        assert grown == {"A": 2, "B": 1}  # one per (event type, attribute)
        shut = engine.shared_stats()["predicate_evals_performed"] - performed
        assert shut == len(program)  # each gate counted once, as evaluated

    def test_a_value_the_index_cannot_order_takes_the_per_gate_path(self):
        engine = CEPREngine(lenient_errors=True)
        for name, text in GATES.items():
            engine.register_query(text, name=name)
        engine.push(Event("A", 0.0, x=0, k="p"))
        evaluated = []
        evaluate = SharedExecutionIndex._evaluate_gate

        def spy(self, stage):
            evaluated.append(stage.gate_key)
            return evaluate(self, stage)

        with mock.patch.object(SharedExecutionIndex, "_evaluate_gate", spy):
            for value in (True, "7", NAN):
                evaluated.clear()
                engine.push(Event("A", 1.0, x=value, k="p"))
                assert len(evaluated) == len(GATES), value
