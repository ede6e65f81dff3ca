"""Shards: the narrow interface the fleet coordinator drives.

A shard answers ``push_batch``, ``advance_time``, ``flush``, ``report``,
``snapshot``, ``restore``, ``explain``, ``alive``/``pid``/``respawn`` and
``close(force)``, called on the coordinator's (the caller's) thread; it
has no thread and no queue of its own.  :class:`LocalShard` wraps a
:class:`~repro.runtime.engine.CEPREngine` in this process;
:class:`~repro.runtime.process.PipeShard` speaks pipe frames to a worker
process, which itself hosts a :class:`LocalShard`.  The only way a
coordinator learns anything about a shard is the
:class:`~repro.runtime.report.ShardReport` its ``report()`` returns.

Failure model: a shard call that raises latches on the coordinator's
worker for that shard, which re-raises it at the next submit or barrier.
"""

from __future__ import annotations

import os
from collections import deque
from functools import partial
from typing import Callable, Mapping, Protocol

from repro.events.event import Event
from repro.events.time import PreassignedSequencer
from repro.language.ast_nodes import Query
from repro.ranking.emission import Emission
from repro.runtime.config import RunnerConfig, build_engine
from repro.runtime.report import ShardReport
from repro.sanitize.core import release_affinity


class Shard(Protocol):
    """What a coordinator may ask of one shard.

    Every method but ``explain`` (read-only) and ``close`` (teardown) is
    called under the coordinator's dispatch lock, from whichever thread
    holds it.
    """

    #: process hosting the engine.
    pid: int | None

    def push_batch(self, events: list[Event]) -> None: ...

    def advance_time(self, timestamp: float) -> None: ...

    def flush(self) -> None: ...

    def report(self) -> ShardReport:
        """State as of now; emission deltas are handed over exactly once."""
        ...

    def snapshot(self) -> dict: ...

    def restore(self, state: dict) -> None:
        """Load an engine snapshot; un-reported emissions are dropped."""
        ...

    def explain(self, query: str) -> str: ...

    def alive(self) -> bool: ...

    def respawn(self) -> None:
        """Replace the engine with a fresh one: same queries, empty state."""
        ...

    def close(self, force: bool = False) -> None:
        """Release the engine (``force``: without waiting for it)."""
        ...


class LocalShard:
    """A shard that is a :class:`CEPREngine` in this process.

    The engine is built from ``config`` (its fleet's recipe) without an
    ingress — the coordinator admitted every event it is sent; when
    ``preassigned`` it keeps the global sequence numbers the coordinator
    stamped instead of numbering events itself.  ``queries`` maps names
    to CEPR-QL text or parsed ASTs.  Each worker process hosts one; a
    fleet of them in this process is the test double of the merge stage.
    """

    def __init__(
        self,
        config: RunnerConfig,
        queries: Mapping[str, str | Query],
        preassigned: bool,
    ) -> None:
        self._recipe = (config, dict(queries), preassigned)
        self.pid = os.getpid()
        self.respawn()

    def respawn(self) -> None:
        config, queries, preassigned = self._recipe
        self.engine = build_engine(
            config, PreassignedSequencer() if preassigned else None, admits=False
        )
        for name, query in queries.items():
            self.engine.register_query(query, name=name)
        # Registered once: a shard's queries and sinks never change, so
        # every report hands over this same live registry.
        self._instruments = self.engine.metrics_registry()
        self._alive = True
        #: query names in the order the last barrier delivered to them.
        self._barrier_order: list[str] = []

    def alive(self) -> bool:
        return self._alive

    def close(self, force: bool = False) -> None:
        self._alive = False

    def _handoff(self) -> None:
        """Sanitizer handoff: the coordinator's dispatch lock serialises
        shard calls, so whichever thread holds it may drive the engine."""
        release_affinity(self.engine)

    def push_batch(self, events: list[Event]) -> None:
        self._handoff()
        self.engine.push_batch(events)

    def advance_time(self, timestamp: float) -> None:
        self._barrier(partial(self.engine.advance_time, timestamp))

    def flush(self) -> None:
        self._barrier(self.engine.flush)

    def _barrier(self, run: Callable[[], list[Emission]]) -> None:
        """Run a heartbeat or the flush, noting whom each delivery went to:
        the first query, in registration order, whose next new collected
        emission it is (group members may be handed one shared object)."""
        handles = self.engine.queries()
        marks = [len(handle.collector.emissions) for handle in handles]
        self._handoff()
        delivered = run()
        fresh = {
            handle.name: deque(handle.collector.emissions[mark:])
            for handle, mark in zip(handles, marks)
        }
        self._barrier_order = []
        for emission in delivered:
            name = next(n for n, new in fresh.items() if new and new[0] is emission)
            self._barrier_order.append(name)
            fresh[name].popleft()

    def report(self) -> ShardReport:
        barrier_order, self._barrier_order = self._barrier_order, []
        return ShardReport(
            pid=self.pid,
            instruments=self._instruments,
            queries={
                handle.name: handle.report()
                for handle in self.engine.queries()
            },
            barrier_order=barrier_order,
        )

    def snapshot(self) -> dict:
        return self.engine.snapshot()

    def restore(self, state: dict) -> None:
        for handle in self.engine.queries():
            if handle.collector is not None:
                handle.collector.clear()
        self._barrier_order = []
        self._handoff()
        self.engine.restore(state)

    def explain(self, query: str) -> str:
        return self.engine.query(query).explain()
