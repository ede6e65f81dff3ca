"""Unified Runner API: factory, config, protocol, plain construction.

``create_runner(program, config)`` is the construction path where
backend choice is a config value.  These tests pin the factory's
contract: program forms, override semantics, early backend/feature
validation, protocol conformance by ``isinstance``, and that building
a runner class directly is plain construction (no warnings, same
object the factory builds).
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import Event
from repro.events.jsonsafe import desanitize
from repro.language.parser import parse_query
from repro.observability.instruments import stats_document
from repro.runtime import (
    Runner,
    RunnerConfig,
    ShardedEngineRunner,
    ThreadedEngineRunner,
    create_runner,
)
from repro.runtime.engine import CEPREngine
from repro.runtime.process import PipeShard
from repro.runtime.config import queue_backed, reject_ignored_shards, resolve
from repro.runtime.serialize import emission_to_line
from repro.runtime.shard import LocalShard
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import DOUBLE, create_test_runner

PROFITS = """
    NAME profits
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 60 EVENTS
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""

DROPS = """
    NAME drops
    PATTERN SEQ(Sell hi, Sell lo)
    WHERE hi.symbol == lo.symbol AND lo.price < hi.price
    WITHIN 40 EVENTS
    RANK BY hi.price - lo.price DESC
    LIMIT 2
    EMIT ON WINDOW CLOSE
"""

BACKEND_TYPES = {
    "embedded": CEPREngine,
    "threaded": ThreadedEngineRunner,
    "process": ShardedEngineRunner,
}


class TestFactory:
    def test_default_backend_is_embedded(self):
        runner = create_runner(PROFITS)
        assert isinstance(runner, Runner)
        assert type(runner) is CEPREngine

    @pytest.mark.parametrize("backend", sorted(BACKEND_TYPES))
    def test_each_backend_builds_its_class(self, backend):
        runner = create_runner(PROFITS, RunnerConfig(backend=backend))
        assert type(runner) is BACKEND_TYPES[backend]

    def test_process_backend_is_the_sharded_runner_over_pipe_shards(self):
        assert create_runner(PROFITS, backend="process").shard_type is PipeShard
        assert ShardedEngineRunner(RunnerConfig()).shard_type is PipeShard

    @pytest.mark.parametrize("backend", sorted(BACKEND_TYPES))
    def test_every_backend_satisfies_the_protocol(self, backend):
        runner = create_runner(config=RunnerConfig(backend=backend))
        assert isinstance(runner, Runner)

    def test_runner_is_returned_unstarted(self):
        """More queries can be registered between create and start."""
        runner = create_runner(PROFITS, backend="process", shards=2)
        runner.register_query(DROPS)
        runner.start()
        try:
            assert {v.name for v in runner.queries()} == {"profits", "drops"}
        finally:
            runner.stop()


class TestProgramForms:
    def test_query_text_registers_under_its_name(self):
        runner = create_runner(PROFITS)
        assert runner.query("profits").name == "profits"

    def test_parsed_ast(self):
        runner = create_runner(parse_query(PROFITS))
        assert runner.query("profits").name == "profits"

    def test_mapping_overrides_names(self):
        runner = create_runner({"a": PROFITS, "b": parse_query(DROPS)})
        assert {v.name for v in runner.queries()} == {"a", "b"}

    def test_iterable_of_queries(self):
        runner = create_runner([PROFITS, parse_query(DROPS)])
        assert {v.name for v in runner.queries()} == {"profits", "drops"}

    def test_none_registers_nothing(self):
        assert create_runner().queries() == []

    def test_bad_program_item_raises_type_error(self):
        with pytest.raises(TypeError, match="program items"):
            create_runner([PROFITS, 42])

    def test_bad_program_raises_type_error(self):
        with pytest.raises(TypeError, match="program must be"):
            create_runner(42)


class TestOverrides:
    def test_keyword_overrides_build_the_config(self):
        runner = create_runner(backend="process", shards=2)
        assert isinstance(runner, ShardedEngineRunner)
        assert runner.config.shards == 2

    def test_overrides_layer_on_top_of_config(self):
        config = RunnerConfig(backend="process", shards=4)
        runner = create_runner(config=config, shards=8)
        assert runner.config.shards == 8
        assert config.shards == 4, "the caller's config must not mutate"

    def test_unknown_override_raises_type_error(self):
        with pytest.raises(TypeError):
            create_runner(PROFITS, sharding_level=3)


class TestValidation:
    def test_unknown_backend_lists_the_choices(self):
        with pytest.raises(ValueError, match=r"\['embedded', 'process', 'threaded'\]"):
            create_runner(PROFITS, backend="distributed")

    def test_embedded_rejects_shedding(self):
        with pytest.raises(ValueError, match="use backend='threaded'"):
            create_runner(PROFITS, shed_policy="rank")

    @pytest.mark.parametrize("backend", ["process"])
    def test_fleet_backends_reject_tracing(self, backend):
        with pytest.raises(ValueError, match="tracing"):
            create_runner(PROFITS, backend=backend, tracing=True)

    def test_process_rejects_shedding(self):
        with pytest.raises(ValueError, match="use backend='threaded'"):
            create_runner(PROFITS, backend="process", shed_policy="rank")


#: Every rule ``create_runner`` owns: config fields -> the resolved
#: ``(backend, shards)``, or a ``ValueError`` matching the string.
RULES = [
    ({}, ("embedded", 1)),
    ({"shards": 1}, ("embedded", 1)),
    ({"shards": 8}, ("process", 8)),
    ({"backend": "process"}, ("process", 4)),
    ({"backend": "embedded", "shards": 2}, ("embedded", 1)),
    ({"backend": "threaded", "shards": 2}, ("threaded", 1)),
    ({"backend": "process", "shards": 2}, ("process", 2)),
    ({"backend": "threaded", "shed_policy": "adaptive"}, ("threaded", 1)),
    ({"backend": "threaded", "tracing": True}, ("threaded", 1)),
    ({"shards": 0}, "shards must be >= 1"),
    ({"backend": "process", "shards": -1}, "shards must be >= 1"),
    ({"backend": "distributed"}, "unknown runner backend"),
    (
        {"backend": "sharded"},
        r"unknown runner backend 'sharded'; "
        r"expected one of \['embedded', 'process', 'threaded'\]",
    ),
    ({"shed_policy": "adaptive"}, "backend 'embedded' does not shed load; use backend='threaded'"),
    (
        {"backend": "process", "shed_policy": "adaptive"},
        "backend 'process' does not shed load; use backend='threaded'",
    ),
    ({"shards": 2, "shed_policy": "adaptive"}, "use backend='threaded'"),
    ({"backend": "process", "tracing": True}, "tracing"),
    ({"shards": 2, "tracing": True}, "tracing"),
    ({"backend": "threaded", "shed_policy": "sometimes"}, "shed_policy must be"),
]


class TestRules:
    @pytest.mark.parametrize("fields, expected", RULES, ids=repr)
    def test_create_runner_enforces(self, fields, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                create_runner(PROFITS, **fields)
            return
        backend, shards = expected
        config = resolve(RunnerConfig(**fields))
        assert (config.backend, config.shards) == expected
        assert resolve(config) == config, "resolution is idempotent"
        runner = create_runner(PROFITS, **fields)
        assert type(runner) is BACKEND_TYPES[backend]
        if isinstance(runner, ShardedEngineRunner):
            assert runner.config.shards == shards

    def test_shards_without_backend_builds_a_fleet(self):
        """``shards`` alone picks the fleet, and the fleet answers exactly
        as one engine does."""
        query = PROFITS.replace("EMIT ON", "PARTITION BY symbol EMIT ON")

        def lines(runner) -> list[str]:
            collected = []
            runner.subscribe("profits", collected.append)
            with runner:
                runner.submit_all(StockWorkload(seed=5).events(1_500))
                runner.flush()
            return [emission_to_line(emission) for emission in collected]

        fleet = create_runner(query, shards=2)
        assert type(fleet) is ShardedEngineRunner
        assert fleet.config.shards == 2 and fleet.shard_type is PipeShard
        expected = lines(create_runner(query))
        assert expected, "the workload must emit for the test to bite"
        assert lines(fleet) == expected

    @pytest.mark.parametrize(
        "fields, backend",
        [
            ({}, "threaded"),
            ({"backend": "embedded"}, "threaded"),
            ({"shed_policy": "adaptive"}, "threaded"),
            ({"shards": 2}, "process"),
            ({"backend": "process"}, "process"),
        ],
    )
    def test_queue_backed_upgrades_only_the_bare_engine(self, fields, backend):
        assert queue_backed(RunnerConfig(**fields)).backend == backend

    @pytest.mark.parametrize("backend", ["embedded", "threaded"])
    def test_user_input_rejects_ignored_shards(self, backend):
        with pytest.raises(ValueError, match="single-engine"):
            reject_ignored_shards(RunnerConfig(backend=backend, shards=2))
        reject_ignored_shards(RunnerConfig(backend=backend, shards=1))
        reject_ignored_shards(RunnerConfig(backend="process", shards=2))


class TestKill:
    @pytest.mark.parametrize("teardown", ["stop", "flush", "close", "poll"])
    @pytest.mark.parametrize("backend", [*sorted(BACKEND_TYPES), DOUBLE])
    def test_kill_tears_down_without_flushing(self, backend, teardown):
        """``cepr run``'s crash path, on every backend ``--runner`` picks
        and on the process fleet's in-process double: held results vanish
        instead of being flushed out, whichever teardown call follows."""

        def emitted(crash: bool) -> int:
            runner = create_test_runner(
                PROFITS, RunnerConfig(backend=backend, shards=2)
            )
            seen = []
            runner.subscribe("profits", seen.append)
            runner.start()
            runner.submit_all(StockWorkload(seed=5).events(30))
            if crash:
                runner.kill()
            getattr(runner, teardown)()
            runner.close()  # flushes, or a no-op after kill()
            return len(seen)

        assert emitted(crash=False) > 0, "a flush must emit for this to bite"
        assert emitted(crash=True) == 0


class TestDirectConstruction:
    """Direct construction is plain construction: no deprecation plumbing."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ThreadedEngineRunner(CEPREngine()),
            lambda: ShardedEngineRunner(RunnerConfig(shards=2)),
            lambda: ShardedEngineRunner(RunnerConfig(shards=2), LocalShard),
        ],
    )
    def test_direct_construction_is_silent_and_a_runner(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner = build()
        assert isinstance(runner, Runner)

    def test_direct_fleet_takes_no_shedding_options(self):
        """Only ``threaded`` sheds: a fleet built directly refuses a
        shedding config the way ``resolve`` does, and takes no controller."""
        with pytest.raises(ValueError, match="does not shed load"):
            ShardedEngineRunner(RunnerConfig(shed_policy="adaptive"), LocalShard)
        with pytest.raises(TypeError, match="shed_controller"):
            ShardedEngineRunner(RunnerConfig(), LocalShard, shed_controller=None)

    @pytest.mark.parametrize("backend", ["process", DOUBLE])
    def test_a_started_fleet_has_no_ingest_queue(self, backend):
        """A fleet's backpressure is the pipe write: it holds no queue,
        pressure or shedding surface, and reports none."""
        workload = StockWorkload(seed=2016)
        runner = create_test_runner(
            PROFITS,
            RunnerConfig(backend=backend, shards=2, registry=workload.registry()),
        )
        with runner:
            runner.submit_all(workload.events(300))
            runner.sync()
            for name in (
                "backlog",
                "queue_capacity",
                "queue_high_water",
                "pressure",
                "shed_controller",
            ):
                assert not hasattr(runner, name), name
            doc = stats_document(runner)
            assert doc["pressure"] is None and doc["shedding"] is None
            assert runner.events_submitted == 300

    @pytest.mark.parametrize(
        "fields, message",
        [({"tracing": True}, "tracing"), ({"shards": 0}, "shards must be >= 1")],
    )
    def test_direct_fleet_is_held_to_the_process_rules(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ShardedEngineRunner(RunnerConfig(**fields), LocalShard)

    @pytest.mark.parametrize("backend", sorted(BACKEND_TYPES))
    def test_factory_construction_is_silent(self, backend):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            create_runner(PROFITS, RunnerConfig(backend=backend))


class TestImportFootprint:
    def test_runtime_imports_neither_asyncio_nor_the_server(self):
        """The runtime (and every worker process, which imports the same
        modules) sits below the serving layer: the frame codec it shares
        with the server lives in ``repro.events.frames``."""
        probe = (
            "import sys\n"
            "import repro.runtime, repro.runtime.process_worker\n"
            "loaded = [m for m in ('asyncio', 'repro.serve.server', "
            "'repro.serve') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )


class TestFleetCheckpointLayout:
    """The on-disk contract of a fleet checkpoint: key names are frozen
    (a checkpoint written before the shard interface existed restores)."""

    @pytest.mark.parametrize("backend", ["process", DOUBLE])
    def test_snapshot_keys(self, backend):
        runner = create_test_runner(
            {"profits": PROFITS, "drops": DROPS}, RunnerConfig(backend=backend, shards=2)
        )
        with runner:
            state = runner.snapshot()
        assert set(state) == {
            "shards",
            "sequencer",
            "lateness",
            "events_submitted",
            "events_pushed",
            "engines",
            "views",
        }
        assert len(state["engines"]) == len(runner.worker_pids())
        assert all("queries" in engine for engine in state["engines"])
        assert set(state["views"]) == {"profits", "drops"}
        for view in state["views"].values():
            assert set(view) == {
                "mode",
                "revision",
                "detections",
                "last_routed_seq",
                "last_routed_ts",
                "last_ts",
                "runner_epoch",
                "advances",
                "pending_epochs",
                "shard_tails",
            }


#: A checkpoint the thread fleet (``backend="sharded"``, hash-placed, two
#: shards) wrote mid-stream at commit ac29636, with the program, the
#: stream, the cut and what each query emitted before it.
SHARDED_GOLDEN = Path(__file__).parent / "golden_sharded_fleet_checkpoint_20261017.json"


class TestShardedFleetGolden:
    """A fleet checkpoint does not record the backend that wrote it, so one
    written by the thread fleet resumes on a process fleet (and on the
    in-process double of the merge stage) exactly where it stopped."""

    @pytest.mark.parametrize("shard_type", [LocalShard, PipeShard])
    def test_restores_and_finishes_like_one_engine(self, shard_type):
        doc = desanitize(json.loads(SHARDED_GOLDEN.read_text()))
        assert (doc["backend"], doc["shards"]) == ("sharded", 2)
        events = [
            Event(t, ts, symbol=symbol, price=price)
            for t, ts, symbol, price in doc["steps"]
        ]

        def lines(runner, events, state=None) -> dict[str, list[str]]:
            collected = {name: [] for name in doc["program"]}
            for name, out in collected.items():
                runner.subscribe(
                    name, lambda emission, out=out: out.append(emission_to_line(emission))
                )
            with runner:
                if state is not None:
                    runner.restore(state)
                runner.submit_all(events)
                runner.flush()
            return collected

        expected = lines(create_runner(doc["program"]), events)
        fleet = ShardedEngineRunner(RunnerConfig(shards=doc["shards"]), shard_type)
        for name, query in doc["program"].items():
            fleet.register_query(query, name=name)
        resumed = lines(fleet, events[doc["cut"] :], doc["snapshot"])
        assert all(resumed.values()), "every query must emit after the cut"
        assert {
            name: doc["before"][name] + lines for name, lines in resumed.items()
        } == expected
