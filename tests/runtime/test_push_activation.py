"""Push-based activation: inert queries cost nothing per event.

With shared execution on, a query whose whole chain is inert sleeps in
the wake list of its stage-0 gate; the router evaluates each distinct
gate once per event and offers the event only to awake queries and to the
sleepers of a gate that opened (docs/SHARED_EXECUTION.md, "Dormant and
awake").  Two contracts are pinned here:

* **work bound** — per-event work is O(awake + distinct gates), counted
  as calls that reach a ``RegisteredQuery`` at all;
* **laziness is invisible** — whatever sleeps, every read (stats rows,
  cost accounts, sharing counters, emissions, checkpoints) equals what
  per-event bookkeeping shows, at any point of any interleaving of the
  engine's entry points.  The eager oracle is the same engine with
  ``on_inert`` cleared on every query (nobody is ever demoted, so every
  routed pair runs the residual skip check, as before push-based
  activation); the independent oracle is ``shared_execution=False``.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import CEPREngine, Event
from repro.runtime.query import RegisteredQuery
from repro.runtime.serialize import emission_to_line

# -- (a) the work bound ---------------------------------------------------------

GATES = (10, 20, 30, 40)


def gated_program(per_gate: int) -> dict[str, str]:
    """``per_gate`` queries behind each of four distinct stage-0 gates."""
    return {
        f"g{gate}_{i:02d}": (
            f"PATTERN SEQ(A a, B b) WHERE a.x > {gate} AND a.k == b.k "
            f"WITHIN 8 EVENTS PARTITION BY k "
            f"RANK BY b.x DESC LIMIT {1 + i % 3} EMIT ON WINDOW CLOSE"
        )
        for gate in GATES
        for i in range(per_gate)
    }


@pytest.fixture
def touched(monkeypatch):
    """Names of the queries whose ``skip_if_inert`` / ``process`` ran."""
    calls: list[tuple[str, str]] = []
    for method in ("skip_if_inert", "process"):
        original = getattr(RegisteredQuery, method)

        def counted(self, event, _original=original, _method=method):
            calls.append((_method, self.name))
            return _original(self, event)

        monkeypatch.setattr(RegisteredQuery, method, counted)
    return calls


class TestWorkBound:
    def test_only_the_owners_of_an_open_gate_are_touched(self, touched):
        engine = CEPREngine()
        program = gated_program(64)
        for name, text in program.items():
            engine.register_query(text, name=name)
        assert len(program) == 256

        # Everybody starts awake; one event that opens no gate sends all
        # 256 to sleep (each is offered it once and proves itself inert).
        engine.push(Event("A", 1.0, x=0, k="p"))
        assert len(touched) == 256
        assert len(engine._router._dormant) == 256

        touched.clear()
        engine.push(Event("A", 2.0, x=5, k="p"))  # fails all four gates
        engine.push(Event("B", 3.0, x=99, k="p"))  # nobody holds a run
        assert touched == []

        engine.push(Event("A", 4.0, x=15, k="p"))  # opens `a.x > 10` only
        woken = sorted(name for name in program if name.startswith("g10_"))
        assert sorted(n for m, n in touched if m == "skip_if_inert") == woken
        assert sorted(n for m, n in touched if m == "process") == woken
        assert len(engine._router._dormant) == 192

        # Their runs keep the 64 awake for the B event; the rest sleep on.
        touched.clear()
        engine.push(Event("B", 5.0, x=7, k="p"))
        assert sorted(n for m, n in touched if m == "process") == woken

        # Reads settle: every query was routed all five events.
        rows = engine.stats_by_query()
        assert {row["events_routed"] for row in rows.values()} == {5}
        assert all(h.metrics.latency.count == 5 for h in engine.queries())
        assert engine.shared_stats()["events_gated"] == 256 + 2 * 256 + 192 + 192

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
}
assert len(PROGRAM) == 16

#: cost-account fields only a sharing engine counts.
SHARING_FIELDS = {"shared_hits", "shared_misses", "predicate_evals", "hit_ratio"}


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
                handle.on_inert = None

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
                    twin.on_inert = None
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
            # A keyless event skipped before the matcher is not counted as
            # a partition skip: eager skipping already behaved that way.
            for row in view["rows"].values():
                row.pop("partition_skips")
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
            payload = {"x": rng.randint(0, 100), "k": rng.choice("pqr")}
            # Dirty data, one defect per event (a keyless event is dropped
            # before an independent matcher evaluates anything, while the
            # skip check consults the gate first — eagerly or not).
            dirt = rng.random()
            if dirt < 0.04:
                del payload["x"]  # lenient gate evaluation errors
            elif dirt < 0.07:
                del payload["k"]  # no partition key
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
        # The property above is vacuous if nobody ever sleeps: pin that
        # this program, on this kind of stream, does.
        rng = random.Random(seed)
        engine = CEPREngine(lenient_errors=True)
        for name, text in PROGRAM.items():
            engine.register_query(text, name=name)
        slept = 0
        for index in range(300):
            engine.push(
                Event(rng.choice("AABBC"), index * 0.5, x=rng.randint(0, 100), k="p")
            )
            slept = max(slept, len(engine._router._dormant))
        assert slept >= 8
        assert engine.shared_stats()["events_gated"] > 0
        lifecycle(seed, steps=150)
