"""The runner recipe is one recipe: every engine a backend builds carries
the ``RunnerConfig`` it was given.

``embedded``, ``threaded`` and every shard engine of the process fleet's
in-process double are built from the same config; a fleet's shards
differ from it only in what the coordinator does for all of them
(:data:`FLEET_FIXED`).  Worker-process shards build the same engine from
the same config shipped over the pipe.
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


def _lateness(engine):
    buffer = engine.lateness_buffer
    return None if buffer is None else buffer.max_lateness


#: engine-level field -> (recipe value, what an engine built from it
#: shows, how to read that off the engine).  ``tracing`` is left to the
#: process-wide switch, which tests turn on.
CASES = {
    "registry": (REGISTRY, REGISTRY, lambda engine: engine.registry),
    "strict_schema": (True, True, lambda engine: engine.strict_schema),
    "enable_pruning": (False, False, lambda engine: engine.enable_pruning),
    "strict_time": (True, True, lambda engine: engine._sequencer.strict),
    "lenient_errors": (True, True, lambda engine: engine.lenient_errors),
    "max_lateness": (2.5, 2.5, _lateness),
    "sanitize": (True, True, lambda engine: engine.sanitizer is not None),
    "tracing": (None, True, lambda engine: engine.tracer is not None),
}

#: What a fleet fixes for its shard engines whatever the recipe says:
#: the coordinator checks time order and buffers late events before it
#: dispatches, and the merge stage cannot stitch cross-shard traces.
FLEET_FIXED = {"strict_time": False, "max_lateness": None, "tracing": False}

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
    assert set(CASES) == names - RUNNER_LEVEL
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
