"""A malformed snapshot is a :class:`SnapshotFormatError` naming where.

Every restore entry point — engine, query, ranker, sequencer, lateness
buffer, fleet — turns a missing key or a wrong type in its section into
the named error, never a bare ``KeyError``.  Each case deletes one key
from an otherwise valid snapshot.
"""

import pytest

from repro import CEPREngine, Event
from repro.engine.snapshot import SnapshotFormatError
from tests.runtime.fleet import local_fleet

QUERY = """
    PATTERN SEQ(A a)
    WITHIN 10 EVENTS
    PARTITION BY g
    RANK BY a.x DESC
    LIMIT 2
    EMIT ON WINDOW CLOSE
"""

EVENTS = [Event("A", float(i), g=f"s{i % 2}", x=float(i)) for i in range(14)]


def engine_snapshot() -> dict:
    engine = CEPREngine(max_lateness=2.0)
    engine.register_query(QUERY, name="q")
    engine.run(EVENTS, flush=False)
    return engine.snapshot()


def restore_into_engine(state: dict) -> None:
    engine = CEPREngine(max_lateness=2.0)
    engine.register_query(QUERY, name="q")
    engine.restore(state)


#: (path to the deleted key, what the message must start with)
ENGINE_CASES = [
    (("queries",), "engine: missing key 'queries'"),
    (("sequencer",), "engine: missing key 'sequencer'"),
    (("derived_events",), "engine: missing key 'derived_events'"),
    (("events_pushed",), "engine: missing key 'events_pushed'"),
    (("lateness",), "engine: missing key 'lateness'"),
    (("sequencer", "next_seq"), "sequencer: missing key 'next_seq'"),
    (("lateness", "heap"), "lateness: missing key 'heap'"),
    (("queries", "q", "last_seq"), "query 'q': missing key 'last_seq'"),
    (("queries", "q", "metrics"), "query 'q': missing key 'metrics'"),
    (("queries", "q", "ranker", "revision"), "query 'q': ranker: missing key 'revision'"),
    (("queries", "q", "ranker", "epochs"), "query 'q': ranker: missing key 'epochs'"),
    (("queries", "q", "matcher", "partitions"), "query 'q': bad matcher state"),
]


def delete(state: dict, path: tuple[str, ...]) -> dict:
    section = state
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    return state


class TestEngineRestore:
    @pytest.mark.parametrize(
        "path, message", ENGINE_CASES, ids=["/".join(p) for p, _ in ENGINE_CASES]
    )
    def test_a_missing_key_is_named(self, path, message):
        state = delete(engine_snapshot(), path)
        with pytest.raises(SnapshotFormatError) as excinfo:
            restore_into_engine(state)
        assert str(excinfo.value).startswith(message)

    def test_a_wrong_type_is_named(self):
        state = engine_snapshot()
        state["queries"]["q"]["metrics"]["matches"] = [1]
        with pytest.raises(SnapshotFormatError, match="^query 'q': "):
            restore_into_engine(state)

    def test_each_entry_point_names_its_section(self):
        """Called directly, each part's restore raises the named error."""
        state = engine_snapshot()
        engine = CEPREngine(max_lateness=2.0)
        handle = engine.register_query(QUERY, name="q")
        query_state = state["queries"]["q"]
        cases = [
            (handle.restore, {}, "query 'q': missing key"),
            (handle.ranker.restore, {"mode": query_state["ranker"]["mode"]}, "ranker: "),
            (engine._sequencer.restore, {}, "sequencer: "),
        ]
        for restore, partial_state, message in cases:
            with pytest.raises(SnapshotFormatError, match=f"^{message}"):
                restore(partial_state)


def fleet():
    return local_fleet({"q": QUERY}, shards=2)


class TestFleetRestore:
    @pytest.fixture(scope="class")
    def fleet_state(self):
        runner = fleet()
        with runner:
            runner.submit_all(EVENTS)
            runner.sync()
            state = runner.snapshot()
        return state

    @pytest.mark.parametrize(
        "path, message",
        [
            (("sequencer",), "fleet: missing key 'sequencer'"),
            (("views", "q", "shard_tails"), "query 'q': missing key 'shard_tails'"),
            (("views", "q", "pending_epochs"), "query 'q': missing key 'pending_epochs'"),
            (("engines",), "fleet: missing key 'engines'"),
        ],
    )
    def test_a_missing_key_is_named(self, fleet_state, path, message):
        import copy

        state = delete(copy.deepcopy(fleet_state), path)
        runner = fleet()
        with runner:
            with pytest.raises(SnapshotFormatError) as excinfo:
                runner.restore(state)
        assert str(excinfo.value).startswith(message)
