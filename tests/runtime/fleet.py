"""The in-process test double of the process fleet."""

from dataclasses import replace

from repro.language.ast_nodes import Query
from repro.runtime.runner import Runner, RunnerConfig, create_runner
from repro.runtime.shard import LocalShard
from repro.runtime.sharded import ShardedEngineRunner

#: The backend name tests give the double; ``create_runner`` has none such.
DOUBLE = "double"


def local_fleet(
    program: dict[str, str | Query] | None = None, shards: int = 2, **config
) -> ShardedEngineRunner:
    """The process fleet's coordinator and merge stage over
    :class:`LocalShard` engines in this process, with ``program`` (if
    any) registered; ``config`` are ``RunnerConfig`` fields."""
    return create_test_runner(
        program, RunnerConfig(backend=DOUBLE, shards=shards, **config)
    )


def create_test_runner(
    program: str | dict[str, str | Query] | None, config: RunnerConfig
) -> Runner:
    """:func:`create_runner`, but for ``backend=DOUBLE`` the double: the
    ``process`` backend's fleet, built by ``create_runner`` itself (so the
    same rules apply, e.g. no tracing), with its shards swapped for
    :class:`LocalShard` before ``start()`` spawns any worker."""
    if config.backend != DOUBLE:
        return create_runner(program, config)
    runner = create_runner(program, replace(config, backend="process"))
    runner.shard_type = LocalShard
    return runner
