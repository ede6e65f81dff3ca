"""The runner recipe is one recipe: every engine a backend builds, and
every backend's admission stage, carry the ``RunnerConfig`` it was given.

``embedded``, ``threaded`` and every shard engine of the process fleet's
in-process double are built from the same config; a fleet's shards
differ from it only in what its merge stage cannot do
(:data:`FLEET_FIXED`).  Admission (:data:`ADMISSION`) is the runner's:
each backend runs exactly one :class:`~repro.events.time.Ingress`
holding the recipe's schema, time-order and lateness settings, and an
engine behind a runner — the threaded consumer's, every shard's — runs
none.  Worker-process shards build the same engine from the same config
shipped over the pipe.
"""

from dataclasses import fields

import pytest

from repro.observability.tracing import disable_tracing, enable_tracing
from repro.runtime.runner import RunnerConfig, create_runner
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import local_fleet

PROGRAM = {
    # partitioned: one engine per shard of its group
    "spread": """
        PATTERN SEQ(Buy b, Sell s)
        WHERE s.price > b.price
        WITHIN 40 EVENTS
        PARTITION BY symbol
        RANK BY s.price - b.price DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
    """,
    # unpartitioned: the fleet's solo engine
    "top_sell": """
        PATTERN SEQ(Sell s)
        WITHIN 15 EVENTS
        RANK BY s.price DESC
        LIMIT 2
        EMIT ON WINDOW CLOSE
    """,
}

REGISTRY = StockWorkload().registry()


def _lateness(ingress):
    buffer = ingress.lateness
    return None if buffer is None else buffer.max_lateness


#: engine-level field -> (recipe value, what an engine built from it
#: shows, how to read that off the engine).  ``tracing`` is left to the
#: process-wide switch, which tests turn on.  The registry is also the
#: analyzer's (attribute domains drive pruning), so every engine holds it.
CASES = {
    "registry": (REGISTRY, REGISTRY, lambda engine: engine.registry),
    "enable_pruning": (False, False, lambda engine: engine.enable_pruning),
    "lenient_errors": (True, True, lambda engine: engine.lenient_errors),
    "sanitize": (True, True, lambda engine: engine.sanitizer is not None),
    "tracing": (None, True, lambda engine: engine.tracer is not None),
}

#: admission field -> (recipe value, how to read it off an ``Ingress``).
ADMISSION = {
    "registry": (REGISTRY, lambda ingress: ingress.registry),
    "strict_schema": (True, lambda ingress: ingress.strict_schema),
    "strict_time": (True, lambda ingress: ingress.strict_time),
    "max_lateness": (2.5, _lateness),
}

#: What a fleet fixes for its shard engines whatever the recipe says:
#: the merge stage cannot stitch cross-shard traces.
FLEET_FIXED = {"tracing": False}

#: ``RunnerConfig`` fields that steer a runner, not its engines.
RUNNER_LEVEL = {
    "backend",
    "shards",
    "max_queue",
    "batch_size",
    "shed_policy",
    "latency_target",
}


@pytest.fixture(autouse=True)
def process_wide_tracing():
    enable_tracing()
    yield
    disable_tracing()


def test_every_engine_level_field_has_a_case():
    names = {field.name for field in fields(RunnerConfig)}
    assert set(CASES) | set(ADMISSION) == names - RUNNER_LEVEL
    assert set(FLEET_FIXED) <= set(CASES)


@pytest.mark.parametrize("field", sorted(CASES))
class TestRecipe:
    def test_single_engine_backends(self, field):
        value, shows, read = CASES[field]
        config = RunnerConfig(**{field: value})
        embedded = create_runner(PROGRAM, config)
        threaded = create_runner(PROGRAM, config, backend="threaded")
        assert read(embedded) == shows
        assert read(threaded.engine) == shows

    def test_every_shard_engine_of_the_double(self, field):
        value, shows, read = CASES[field]
        fleet = local_fleet(PROGRAM, shards=2, **{field: value})
        with fleet:
            engines = [worker.shard.engine for worker in fleet._workers]
        assert len(engines) == 3, "two partitioned shards and the solo engine"
        assert [read(engine) for engine in engines] == [
            FLEET_FIXED.get(field, shows)
        ] * len(engines)


@pytest.mark.parametrize("field", sorted(ADMISSION))
class TestAdmission:
    def test_every_backends_ingress_holds_it(self, field):
        value, read = ADMISSION[field]
        config = RunnerConfig(shards=2, **{field: value})
        runners = [
            create_runner(PROGRAM, config, backend=backend)
            for backend in ("embedded", "threaded", "process")
        ]
        runners.append(local_fleet(PROGRAM, shards=2, **{field: value}))
        assert [read(runner.ingress) for runner in runners] == [value] * 4

    def test_no_engine_behind_a_runner_admits(self, field):
        value, _ = ADMISSION[field]
        config = RunnerConfig(backend="threaded", **{field: value})
        threaded = create_runner(PROGRAM, config)
        fleet = local_fleet(PROGRAM, shards=2, **{field: value})
        with fleet:
            engines = [worker.shard.engine for worker in fleet._workers]
        assert len(engines) == 3, "two partitioned shards and the solo engine"
        assert [engine.ingress for engine in [threaded.engine, *engines]] == [None] * 4
