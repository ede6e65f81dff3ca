"""Runtime glue: the engine facade, query handles, routing, sinks, metrics,
and the live monitor.

Execution backends live behind the unified Runner API: build any of
embedded / threaded / process with
:func:`~repro.runtime.runner.create_runner` and drive it through the
:class:`~repro.runtime.runner.Runner` protocol.  The threaded runner's
:class:`~repro.runtime.concurrent.WorkerLoop` — a bounded queue drained by
the thread that owns the engine, whose only control operation is "run
this callable on the owner thread, then acknowledge" — is the runtime's
only ingest queue, so only that runner reports pressure and sheds load.
The process fleet has one :class:`~repro.runtime.shard.Shard` interface
with a pipe implementation (engine in a worker process) and a local one
(engine in this process: what each worker hosts, and the in-process test
double of the merge stage), which the coordinator calls on the caller's
thread without a thread or queue of its own; its backpressure is the
blocking pipe write.  A coordinator learns about a shard only from the
:class:`~repro.runtime.report.ShardReport` it hands back at a barrier, so
coordinator-side state is at least as fresh as the last barrier."""

from repro.runtime.concurrent import ThreadedEngineRunner
from repro.runtime.engine import CEPREngine
from repro.runtime.metrics import EngineMetrics, LatencyRecorder, QueryMetrics
from repro.runtime.monitor import Monitor
from repro.runtime.query import RegisteredQuery
from repro.runtime.router import EventRouter
from repro.runtime.runner import Runner, RunnerConfig, create_runner
from repro.runtime.serialize import emission_to_json, emission_to_line, match_to_json
from repro.runtime.sharded import ShardedEngineRunner, ShardedQuery
from repro.runtime.sinks import (
    CallbackSink,
    CollectorSink,
    JSONLSink,
    PrintSink,
    ResultSink,
)

__all__ = [
    "CEPREngine",
    "CallbackSink",
    "CollectorSink",
    "EngineMetrics",
    "EventRouter",
    "JSONLSink",
    "LatencyRecorder",
    "Monitor",
    "PrintSink",
    "QueryMetrics",
    "RegisteredQuery",
    "ResultSink",
    "Runner",
    "RunnerConfig",
    "ShardedEngineRunner",
    "ShardedQuery",
    "ThreadedEngineRunner",
    "create_runner",
    "emission_to_json",
    "emission_to_line",
    "match_to_json",
]
