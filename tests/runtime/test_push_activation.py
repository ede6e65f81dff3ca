"""Push-based activation: inert queries cost nothing per event.

With shared execution on, a query whose ranker is inert goes dormant: the
router offers it only the events of partitions where its matcher holds
runs or pendings, and those that open its stage-0 gate — evaluated once
per distinct gate per event (docs/SHARED_EXECUTION.md, "Dormant and
awake").  Two contracts are pinned here:

* **work bound** — per-event work is O(awake + holders of the event's
  partition + distinct gates), counted as calls that reach a query's
  ``Pipeline`` at all;
* **laziness is invisible** — whatever sleeps, every read (stats rows,
  cost accounts, sharing counters, emissions, checkpoints) equals what
  per-event bookkeeping shows, at any point of any interleaving of the
  engine's entry points.  The eager oracle is the same engine with
  ``on_inert`` cleared on every pipeline (nobody is ever demoted, so every
  routed pair runs the residual skip check, as before push-based
  activation); the independent oracle is ``shared_execution=False``.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import CEPREngine, Event
from repro.runtime.query import Pipeline
from repro.runtime.serialize import emission_to_line
from repro.workloads.stock import StockWorkload

# -- (a) the work bound ---------------------------------------------------------

GATES = (10, 20, 30, 40)


def gated_program(
    per_gate: int, grouped: bool = False, renamed: bool = False
) -> dict[str, str]:
    """``per_gate`` queries behind each of four distinct stage-0 gates.

    Their rank keys differ (``b.x + i``), so each is a query group of its
    own and the router runs one pipeline per query; ``grouped`` drops the
    offset, and then the queries behind one gate differ only in ``LIMIT``
    and run as one group.  ``renamed`` binds every other query's variables
    as ``x``/``y``: its gate tests what its neighbours' does under another
    name, so it shares their gate key and wake list.
    """

    def text(gate: int, i: int) -> str:
        a, b = ("x", "y") if renamed and i % 2 else ("a", "b")
        return (
            f"PATTERN SEQ(A {a}, B {b}) WHERE {a}.x > {gate} AND {a}.k == {b}.k "
            f"WITHIN 8 EVENTS PARTITION BY k "
            f"RANK BY {b}.x{'' if grouped else f' + {i}'} DESC LIMIT {1 + i % 3} "
            f"EMIT ON WINDOW CLOSE"
        )

    return {f"g{gate}_{i:02d}": text(gate, i) for gate in GATES for i in range(per_gate)}


@pytest.fixture
def touched(monkeypatch):
    """Names of the pipelines whose ``skip_if_inert`` / ``process`` ran
    (a pipeline's name is its first member's)."""
    calls: list[tuple[str, str]] = []
    for method in ("skip_if_inert", "process"):
        original = getattr(Pipeline, method)

        def counted(self, event, _original=original, _method=method):
            calls.append((_method, self.name))
            return _original(self, event)

        monkeypatch.setattr(Pipeline, method, counted)
    return calls


class TestWorkBound:
    @pytest.mark.parametrize("renamed", [False, True], ids=["same-names", "renamed"])
    def test_only_the_owners_of_an_open_gate_are_touched(self, touched, renamed):
        engine = CEPREngine()
        program = gated_program(64, renamed=renamed)
        for name, text in program.items():
            engine.register_query(text, name=name)
        assert len(program) == 256

        # Everybody starts awake; one event that opens no gate sends all
        # 256 dormant (each is offered it once and proves itself inert).
        engine.push(Event("A", 1.0, x=0, k="p"))
        assert len(touched) == 256
        assert len(engine._router._dormant) == 256

        touched.clear()
        engine.push(Event("A", 2.0, x=5, k="p"))  # fails all four gates
        engine.push(Event("B", 3.0, x=99, k="p"))  # nobody holds a run
        assert touched == []

        engine.push(Event("A", 4.0, x=15, k="p"))  # opens `a.x > 10` only
        opened = sorted(name for name in program if name.startswith("g10_"))
        assert sorted(n for m, n in touched if m == "skip_if_inert") == opened
        assert sorted(n for m, n in touched if m == "process") == opened
        # They now hold a run in partition p, and stay dormant elsewhere.
        assert len(engine._router._dormant) == 256

        # Their runs get them the B event of their partition; nobody else.
        touched.clear()
        engine.push(Event("B", 5.0, x=7, k="p"))
        assert sorted(n for m, n in touched if m == "process") == opened

        # Reads settle: every query was routed all five events.
        rows = engine.stats_by_query()
        assert {row["events_routed"] for row in rows.values()} == {5}
        assert all(h.pipeline.metrics.latency.count == 5 for h in engine.queries())
        assert engine.shared_stats()["events_gated"] == 256 + 2 * 256 + 192 + 192

    def test_a_group_is_touched_once(self, touched):
        """Queries equal but for LIMIT are one router entry: the work bound
        counts groups, and every member still books every event."""
        engine = CEPREngine()
        program = gated_program(64, grouped=True)
        for name, text in program.items():
            engine.register_query(text, name=name)
        assert len(engine._router) == len(GATES)
        engine.push(Event("A", 1.0, x=0, k="p"))
        assert sorted(n for _m, n in touched) == [f"g{gate}_00" for gate in GATES]
        touched.clear()
        engine.push(Event("A", 2.0, x=15, k="p"))  # opens `a.x > 10` only
        assert [n for m, n in touched if m == "process"] == ["g10_00"]
        rows = engine.stats_by_query()
        assert {row["events_routed"] for row in rows.values()} == {2}
        assert engine.shared_stats()["query_groups"] == len(GATES)

    def test_a_partition_nobody_holds_state_in_touches_no_query(self, touched):
        # The per-partition bound: a run in one partition keeps its query
        # dormant for every other partition.
        engine = CEPREngine()
        program = gated_program(16)
        for name, text in program.items():
            engine.register_query(text, name=name)
        engine.push(Event("A", 1.0, x=0, k="p"))  # all 64 go dormant
        engine.push(Event("A", 2.0, x=45, k="p"))  # every gate opens in p
        assert all(h.matcher._partitions.keys() == {("p",)} for h in engine.queries())

        touched.clear()
        for index, key in enumerate("qrsqrs"):
            engine.push(Event("B", 3.0 + index, x=99, k=key))
            engine.push(Event("A", 3.5 + index, x=5, k=key))  # shuts every gate
        engine.push(Event("A", 9.0, x=70))  # no key: no gate is read
        engine.push(Event("A", 9.5, y=1))  # nor raises for want of x
        assert touched == []
        assert len(engine._router._dormant) == 64

        # Back in p, exactly the holders are offered the event.
        engine.push(Event("B", 10.0, x=99, k="p"))
        assert sorted(n for m, n in touched if m == "process") == sorted(program)

        rows = engine.stats_by_query()
        assert {row["events_routed"] for row in rows.values()} == {17}
        assert {row["partition_skips"] for row in rows.values()} == {2}
        assert engine.shared_stats()["events_gated"] == 64 + 14 * 64

    def test_a_bucket_nobody_sleeps_in_is_the_plain_list(self):
        engine = CEPREngine()
        # Unconditional stage 0: would wake on every A, so it never sleeps.
        engine.register_query("PATTERN SEQ(A a, B b) WITHIN 5 EVENTS", name="q")
        for index in range(20):
            engine.push(Event("B" if index % 3 else "A", float(index), x=index))
        router = engine._router
        assert not router._dormant
        assert router.route(Event("A", 99.0, x=1)) is router._buckets["A"].awake

    def test_traced_queries_never_sleep(self):
        engine = CEPREngine(tracing=True)
        engine.register_query(gated_program(1)["g10_00"], name="q")
        for index in range(5):
            engine.push(Event("A", float(index), x=0, k="p"))
        assert not engine._router._dormant
        engine.set_tracing(False)
        engine.push(Event("A", 9.0, x=0, k="p"))
        assert [q.name for q in engine._router._dormant] == ["q"]
        engine.set_tracing(True)
        assert not engine._router._dormant

    def test_a_query_re_reading_its_own_gate_saves_nothing(self):
        """The residual check and the matcher both read a query's gate for
        one event: that is one evaluation, and nothing is saved until a
        second query consults the gate."""
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a, B b) WHERE a.x > 0 WITHIN 5 EVENTS", name="q")
        for index in range(10):
            engine.push(Event("A", float(index), x=index + 1))
        assert engine.shared_stats()["predicate_evals_performed"] == 10
        assert engine.shared_stats()["predicate_evals_saved"] == 0

        engine.register_query("PATTERN SEQ(A x, B y) WHERE x.x > 0 WITHIN 4 EVENTS", name="r")
        for index in range(10, 20):
            engine.push(Event("A", float(index), x=index + 1))
        assert engine.shared_stats()["predicate_evals_performed"] == 20
        assert engine.shared_stats()["predicate_evals_saved"] == 10

    def test_a_keyless_gate_is_evaluated_once_per_event(self):
        """A gate with an unfingerprinted predicate has no gate key, but the
        residual check and the matcher still share one evaluation of it per
        event: each gate predicate is evaluated once, and nothing is saved."""
        engine = CEPREngine()
        engine.register_query(
            "PATTERN SEQ(A a) WHERE duration() < 50 AND a.x > 3 WITHIN 5 EVENTS",
            name="d",
        )
        events = [Event("AB"[i % 3 == 2], float(i), x=i % 7) for i in range(90)]
        engine.push_batch(events)
        opened = sum(1 for e in events if e.event_type == "A")
        assert opened == 60
        # `duration() < 50` holds for every fresh run, so `a.x > 3` is read
        # too: two predicates, once each, per A event.
        assert engine.shared_stats()["predicate_evals_performed"] == 2 * opened
        assert engine.shared_stats()["predicate_evals_saved"] == 0
        account = engine.cost_accounts()["d"]
        assert (account.shared_misses, account.shared_hits) == (opened, 0)

    def test_a_gate_sleeps_whatever_registered_before_it(self, touched):
        """A gate's leader is its first-registered owner, whoever anchors
        the gate's predicates earlier: here ``c.volume > 990`` on a Buy is
        a later stage of the first query and the gate of the second."""
        program = {
            "sell_buy": "PATTERN SEQ(Sell a, Buy c) "
            "WHERE c.volume > 990 AND a.symbol == c.symbol",
            "buy_sell": "PATTERN SEQ(Buy b, Sell s) "
            "WHERE b.volume > 990 AND b.symbol == s.symbol",
        }
        tail = (
            " WITHIN 20 EVENTS PARTITION BY symbol RANK BY {} DESC LIMIT 1 "
            "EMIT ON WINDOW CLOSE"
        )
        ranks = {"sell_buy": "c.price - a.price", "buy_sell": "s.price - b.price"}
        events = list(StockWorkload(seed=3).events(4000))
        engines = {}
        for shared in (False, True):
            engine = engines[shared] = CEPREngine(shared_execution=shared)
            for name, text in program.items():
                engine.register_query(text + tail.format(ranks[name]), name=name)
            touched.clear()
            engine.push_batch(events)
        # Offered: every pair the residual check saw.  Dormant, the second
        # query sees only the Buys over 990 and its own partitions' events.
        offered = [name for method, name in touched if method == "skip_if_inert"]
        assert offered.count("buy_sell") < len(events) // 20
        lazy, independent = engines[True], engines[False]
        assert [q.name for q in lazy._router._dormant] == ["buy_sell"]
        for engine in engines.values():
            engine.flush()
        for name in program:
            assert [emission_to_line(e) for e in lazy.query(name).results()] == [
                emission_to_line(e) for e in independent.query(name).results()
            ], name
        rows = {
            engine: {
                name: {k: v for k, v in row.items() if not k.startswith("latency_")}
                for name, row in engines[engine].stats_by_query().items()
            }
            for engine in engines
        }
        assert rows[True] == rows[False]
        costs = {
            engine: {
                name: {
                    k: v
                    for k, v in account.to_dict().items()
                    if "cpu" not in k and k not in SHARING_FIELDS
                }
                for name, account in engines[engine].cost_accounts().items()
            }
            for engine in engines
        }
        assert costs[True] == costs[False]


# -- (b) laziness is invisible --------------------------------------------------

# Sixteen queries over three event types: four alert templates at three
# thresholds (shared gates, selective enough that most queries sleep most
# of the time), plus one of everything the lifecycle has a special case
# for: a negation-only relevant type, a Kleene stage 0, an eager and a
# periodic ranker (the latter never inert), an unranked pass-through.
_TEMPLATES = (
    "PATTERN SEQ(A a, B b) WHERE a.x > {k} AND a.k == b.k AND b.x > a.x "
    "WITHIN 6 EVENTS PARTITION BY k RANK BY b.x - a.x DESC LIMIT 2 "
    "EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(B a, A c) WHERE a.x > {k} AND a.k == c.k "
    "WITHIN 6 EVENTS PARTITION BY k RANK BY a.x DESC LIMIT 1 "
    "EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(A a, A c) WHERE a.x > {k} AND c.x > {k} AND a.k == c.k "
    "WITHIN 6 EVENTS PARTITION BY k RANK BY c.x DESC LIMIT 3 "
    "EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(A a, NOT C n, B b) WHERE a.x > {k} AND a.k == b.k "
    "WITHIN 6 EVENTS PARTITION BY k RANK BY b.x DESC LIMIT 2 "
    "EMIT ON WINDOW CLOSE",
)
_SPECIALS = (
    "PATTERN SEQ(A a+, B b) WHERE a.x > 85 "
    "WITHIN 6 EVENTS PARTITION BY k RANK BY count(a) DESC LIMIT 2 "
    "EMIT ON WINDOW CLOSE",
    "PATTERN SEQ(A a, B b) WHERE a.x > 85 AND a.k == b.k "
    "WITHIN 6 EVENTS PARTITION BY k RANK BY b.x DESC LIMIT 2 EMIT EAGER",
    "PATTERN SEQ(A a, B b) WHERE a.x > 85 AND a.k == b.k "
    "WITHIN 6 EVENTS PARTITION BY k RANK BY b.x DESC LIMIT 2 "
    "EMIT EVERY 7 EVENTS",
    "PATTERN SEQ(B a, C c) WHERE a.x > 90 AND a.k == c.k WITHIN 3 SECONDS "
    "PARTITION BY k",
)
PROGRAM = {
    **{
        f"t{t}_{k}": template.format(k=k)
        for t, template in enumerate(_TEMPLATES)
        for k in (80, 90, 95)
    },
    **{f"s{i}": text for i, text in enumerate(_SPECIALS)},
    # LIMIT-only variants of the first template: with ``t0_*`` they form
    # one query group per threshold.
    **{
        f"t0_{k}_{suffix}": _TEMPLATES[0].format(k=k).replace("LIMIT 2 ", limit)
        for k in (80, 90, 95)
        for suffix, limit in (("top1", "LIMIT 1 "), ("all", ""))
    },
    # The second template with renamed bindings: a group of its own, whose
    # stage-0 gate shares ``t1_*``'s gate key and wake list.
    **{
        f"t1_{k}_renamed": "PATTERN SEQ(B u, A v) WHERE u.x > {k} AND u.k == v.k "
        "WITHIN 6 EVENTS PARTITION BY k RANK BY u.x DESC LIMIT 2 "
        "EMIT ON WINDOW CLOSE".format(k=k)
        for k in (80, 90, 95)
    },
}
assert len(PROGRAM) == 25

#: The grouped queries: their matcher-side counters and state are their
#: group's (docs/SHARED_EXECUTION.md, "Query groups"), so against the
#: independent engine only their output and their routing and delivery
#: counters are compared; against the eager engine, everything.
GROUPED = {name for name in PROGRAM if name.startswith("t0_")}
MEMBER_ROWS = ("events_routed", "emissions", "revisions", "partition_skips")
MEMBER_COSTS = ("events_routed", "emissions")

#: cost-account fields only a sharing engine counts.
SHARING_FIELDS = {"shared_hits", "shared_misses", "predicate_evals", "hit_ratio"}

#: the largest ``x`` each partition key draws (gates open above 80..95).
PARTITION_CEILING = {"p": 100, "q": 100, "r": 92, "s": 79}


class Trio:
    """The same program in a lazy, an eager and an independent engine."""

    def __init__(self) -> None:
        self.engines = {
            "lazy": CEPREngine(lenient_errors=True),
            "eager": CEPREngine(lenient_errors=True),
            "independent": CEPREngine(lenient_errors=True, shared_execution=False),
        }
        self.lines: dict[str, list[str]] = {mode: [] for mode in self.engines}
        for name, text in PROGRAM.items():
            self.register(name, text)

    def register(self, name: str, text: str) -> None:
        for mode, engine in self.engines.items():
            handle = engine.register_query(text, name=name)
            if mode == "eager":
                handle.pipeline.on_inert = None

    def apply(self, op) -> None:
        for mode, engine in self.engines.items():
            self.lines[mode].extend(
                f"{e.ranking[0].query_name if e.ranking else '-'} {emission_to_line(e)}"
                for e in op(engine) or ()
            )

    def restore_fresh(self) -> None:
        """Checkpoint, then carry on in a freshly built engine."""
        for mode, engine in list(self.engines.items()):
            state = engine.snapshot()
            fresh = CEPREngine(
                lenient_errors=True, shared_execution=mode != "independent"
            )
            for handle in engine.queries():  # current registration order
                twin = fresh.register_query(PROGRAM[handle.name], name=handle.name)
                if mode == "eager":
                    twin.pipeline.on_inert = None
            fresh.restore(state)
            self.engines[mode] = fresh

    def check(self) -> None:
        lazy, eager, independent = (
            self.observe(mode) for mode in ("lazy", "eager", "independent")
        )
        assert lazy == eager
        for view in (lazy, independent):
            for account in view["costs"].values():
                for field in SHARING_FIELDS:
                    account.pop(field)
            view.pop("events_gated")
            for name in GROUPED & view["rows"].keys():
                row, account = view["rows"][name], view["costs"][name]
                view["rows"][name] = {key: row[key] for key in MEMBER_ROWS}
                view["costs"][name] = {key: account[key] for key in MEMBER_COSTS}
            # A skipped pair leaves the ranker's clock where it was; the
            # matchers must agree, down to which partitions they keep.
            for name, state in view.pop("checkpoint").items():
                if name in GROUPED:
                    continue
                view.setdefault("matchers", []).append(state["matcher"])
                state["matcher"]["stats"].pop("shared_hits")
                state["matcher"]["stats"].pop("shared_misses")
        assert lazy == independent

    def observe(self, mode: str) -> dict:
        engine = self.engines[mode]
        rows = engine.stats_by_query()
        for row in rows.values():
            for key in [key for key in row if key.startswith("latency_")]:
                del row[key]
        costs = {
            name: {
                key: value
                for key, value in account.to_dict().items()
                if "cpu" not in key
            }
            for name, account in engine.cost_accounts().items()
        }
        registry = engine.metrics_registry()
        checkpoint = engine.snapshot()["queries"]
        return {
            "lines": self.lines[mode],
            "rows": rows,
            "costs": costs,
            "events_gated": engine.shared_stats().get("events_gated"),
            "latency_counts": {
                name: registry.get("latency_seconds", query=name).count
                for name in rows
            },
            "last_seen": {
                name: state["last_seq"] for name, state in checkpoint.items()
            },
            "checkpoint": checkpoint,
        }


def lifecycle(seed: int, steps: int) -> None:
    rng = random.Random(seed)
    trio = Trio()
    clock = 0.0

    def events(count: int) -> list[Event]:
        nonlocal clock
        batch = []
        for _ in range(count):
            clock += rng.choice((0.25, 0.5, 1.0))
            # Four partitions, and queries hold runs in only some of them:
            # every gate opens in p and q, the lower ones in r, none in s.
            key = rng.choice("pqrs")
            payload = {"x": rng.randint(0, PARTITION_CEILING[key]), "k": key}
            # Dirty data (a keyless event is dropped before any gate is
            # consulted, so it charges no evaluation error either).
            dirt = rng.random()
            if dirt < 0.04:
                del payload["x"]  # lenient gate evaluation errors
            elif dirt < 0.07:
                del payload["k"]  # no partition key
            elif dirt < 0.09:
                payload.clear()  # neither
            batch.append((rng.choice("AABBC"), clock, payload))
        return batch

    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            ((kind, ts, payload),) = events(1)
            trio.apply(lambda e: e.push(Event(kind, ts, **payload)))
        elif roll < 0.65:
            chunk = events(rng.randint(1, 12))
            trio.apply(
                lambda e: e.push_batch(Event(k, t, **p) for k, t, p in chunk)
            )
        elif roll < 0.75:
            clock += rng.choice((0.5, 2.0, 5.0))
            trio.apply(lambda e, ts=clock: e.advance_time(ts))
        elif roll < 0.82:
            trio.apply(lambda e: e.restore(e.snapshot()))
        elif roll < 0.87:
            trio.restore_fresh()
        elif roll < 0.94:
            name = rng.choice(sorted(PROGRAM))
            trio.apply(lambda e: e.unregister_query(name))
            trio.register(name, PROGRAM[name])
        else:
            enabled = rng.random() < 0.5
            trio.apply(lambda e: e.set_tracing(enabled) and None)
        trio.check()
    trio.apply(lambda e: e.flush())
    trio.check()


class TestLifecycle:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_any_interleaving_reads_like_eager_bookkeeping(self, seed):
        lifecycle(seed, steps=60)

    @pytest.mark.parametrize("seed", [2016, 7, 99])
    def test_long_streams_do_sleep_and_still_read_exactly(self, seed):
        # The property above is vacuous if nobody is ever dormant, or never
        # while holding runs: pin that this program, on this kind of
        # stream, is both.
        rng = random.Random(seed)
        engine = CEPREngine(lenient_errors=True)
        for name, text in PROGRAM.items():
            engine.register_query(text, name=name)
        assert len(engine._router) == len(PROGRAM) - 6  # the variants joined
        slept = holding = 0
        renamed: set[str] = set()
        for index in range(300):
            key = rng.choice("pqrs")
            x = rng.randint(0, PARTITION_CEILING[key])
            engine.push(Event(rng.choice("AABBC"), index * 0.5, x=x, k=key))
            dormant = engine._router._dormant
            slept = max(slept, len(dormant))
            holding = max(holding, sum(1 for q in dormant if q.matcher._partitions))
            renamed |= {q.name for q in dormant if q.name.endswith("_renamed")}
        assert slept >= 8
        assert holding >= 2
        assert renamed  # behind a gate another query leads
        assert engine.shared_stats()["events_gated"] > 0
        lifecycle(seed, steps=150)
