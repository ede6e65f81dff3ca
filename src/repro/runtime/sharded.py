"""Sharded partition-parallel execution.

``PARTITION BY`` is the semantic lever that licenses parallelism: events
only interact with runs of their own key, so distinct keys can be matched
by distinct engines as long as every event keeps its **global** sequence
number (count windows measure global arrival positions).
:class:`ShardedEngineRunner` exploits exactly that:

* the runner assigns global sequence numbers once, at the dispatch point,
  then hashes each event's partition key across ``N`` worker shards;
* the coordinator runs no thread: it appends each event to its shard's
  chunk, and a full chunk leaves as one ``push_batch`` — one pipe frame
  to a :class:`~repro.runtime.process.PipeShard`'s worker process;
* at every barrier each shard hands back a
  :class:`~repro.runtime.report.ShardReport`; that report is the **only**
  thing this module knows about a shard — it never holds an engine, a
  query handle, a ranker or a matcher, so the process fleet and its
  in-process test double (:class:`~repro.runtime.shard.LocalShard`
  shards) are the same coordinator with a different ``shard_type``;
* a deterministic **ordered-merge stage** recombines per-shard emissions
  into the exact single-engine output: per-epoch top-k lists are k-way
  merged (:func:`~repro.ranking.topk.merge_rankings`) under a tie-break
  key that provably reproduces the single-engine order, and pass-through
  match emissions are re-sequenced by the global sequence number of the
  event that triggered them.

Exactness and placement
-----------------------

Not every query can be sharded without changing its output.  At
:meth:`ShardedEngineRunner.start` each query is placed:

* **sharded** — partitioned queries with ``EMIT ON WINDOW CLOSE``
  (tumbling) or unranked pass-through emission: the merged output is
  *identical* to a single-engine run (the differential test suite asserts
  this match-for-match);
* **solo** — everything else (unpartitioned queries, sliding
  ``EMIT EVERY``/ranked ``EAGER`` scopes whose snapshots depend on the
  *global* event order, and — whenever any query has a ``YIELD`` clause —
  all queries, because derived events must cascade through one engine).
  Solo queries run on a single dedicated engine, which is trivially exact.

Equivalence is modulo bookkeeping: merged matches are re-stamped with
fresh per-query ``detection_index``/``revision`` values assigned in the
deterministic merge order, which coincides with single-engine detection
order (scores, bindings, rankings, and emission points are identical).

Barrier semantics
-----------------

``advance_time`` and ``flush`` are **barriers**: the runner sends every
unsent chunk, runs the operation on each shard in worker order, collects
their reports, and then runs the merge stage.  An event waits in its
chunk until the chunk fills or a barrier comes, and merged emissions are
released at barrier points (live deployments already call
``advance_time`` on a heartbeat), and coordinator-side state is at least
as fresh as the last barrier, whatever the shard type.  A
tumbling epoch is merged once no shard can still contribute to it —
immediately for time windows closed by a heartbeat, at the next barrier
after every shard moved past it for count windows, and at ``flush`` at the
latest.

Exactness assumes heartbeat timestamps never run *ahead* of later events'
timestamps (the normal live contract — a watermark followed by earlier
timestamps is a contradictory stream): a watermark that overtakes the
stream lets a single engine close an epoch, then re-open it for matches
arriving behind the watermark, an emission split the merge stage does not
reproduce.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import replace
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from repro.engine.match import Match
from repro.engine.partitioner import Partitioner
from repro.engine.snapshot import (
    SnapshotFormatError,
    decode_emission,
    encode_emission,
    restoring,
)
from repro.engine.windows import EpochTracker
from repro.events.event import Event
from repro.events.time import Ingress, SequenceAssigner, merge_admission, rejected
from repro.language.analysis.shardability import (
    ShardabilityReport,
    certify_shardability,
)
from repro.language.ast_nodes import Query, WindowKind
from repro.language.errors import CEPRSemanticError
from repro.language.parser import parse_query
from repro.language.semantics import AnalyzedQuery, analyze
from repro.observability.instruments import (
    FLEET,
    INGRESS,
    QUERY_SHARDS,
    QUERY_SOLO_FALLBACK,
    RUNNER_SUBMITTED,
    SHARD,
    TelemetryViews,
    bind,
    bind_table,
)
from repro.observability.log import get_logger
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission, EmissionKind
from repro.ranking.score import Scorer
from repro.ranking.topk import merge_rankings
from repro.runtime.config import RunnerConfig, resolve
from repro.runtime.metrics import EngineMetrics
from repro.runtime.report import QueryReport, ShardReport
from repro.runtime.process import PipeShard
from repro.runtime.shard import Shard
from repro.runtime.sinks import CollectorSink, SinkLike, SinkOwner, Subscription
from repro.sanitize.locks import register_lock_metrics, tracked_lock

_INF = float("inf")


def stable_shard(key: tuple[Any, ...], shards: int) -> int:
    """Deterministic shard assignment for a partition key.

    Uses CRC32 over the key's ``repr`` instead of :func:`hash` so the
    assignment is stable across processes (``hash`` of strings is salted
    per interpreter), which keeps per-shard statistics reproducible.
    """
    return zlib.crc32(repr(key).encode("utf-8", "backslashreplace")) % shards


# The shardability decision table lives in the static analyzer
# (language/analysis/shardability.py): certify_shardability() reports
# which property of a query — no PARTITION BY, trailing negation, sliding
# emission, global LIMIT, YIELD — forces solo execution.  The runner
# consumes the certificate at start() and logs the blockers whenever
# ``shards > 1`` degrades to a solo engine.
_log = get_logger(__name__)


class ShardedQuery(SinkOwner):
    """Fleet-wide handle for one query registered on a sharded runner.

    Shaped like :class:`~repro.runtime.query.RegisteredQuery` where it
    matters (``results``/``matches``/``final_ranking``, ``analyzed``, the
    sink API), but backed by the merge stage: ``results()`` returns the
    deterministically merged emission stream.  Counters are not here —
    they are views of the runner's ``metrics_registry()``.
    """

    def __init__(self, name: str, analyzed: AnalyzedQuery) -> None:
        self.name = name
        self.analyzed = analyzed
        #: The analyzer's certificate: why this query can(not) be sharded.
        self.shardability: ShardabilityReport = certify_shardability(analyzed)
        #: True when ``shards > 1`` was requested but this query ran solo.
        self.solo_fallback = False
        #: "sharded-tumbling" | "sharded-passthrough" | "solo"; set at start.
        self.mode: str | None = None
        self._scorer = Scorer(analyzed.rank_keys)
        self._workers: list[_Worker] = []
        #: per shard: emissions reported but not merged yet (checkpointed).
        self._tails: list[list[Emission]] = []
        #: Subscriptions/sinks fed the *merged* emission stream (by the
        #: runner's release, on the barrier-calling thread).  While the
        #: runner is live, subscribe through the runner — it takes the
        #: dispatch lock around the sink-list mutation.
        self.sinks: list[Any] = []
        #: the merged emission stream, collector-shaped for the monitor.
        self.collector = CollectorSink()
        self._merged = self.collector.emissions
        self._revision = 0
        self._detections = 0
        # Global-stream bookkeeping maintained by the runner at dispatch.
        self.last_routed_seq = -1
        self.last_routed_ts = 0.0
        self.last_ts = 0.0
        self._tracker: EpochTracker | None = None
        self._runner_epoch: int | None = None
        #: close records: (first epoch strictly after the closed ones, seq, ts)
        self._advances: deque[tuple[int, int, float]] = deque()
        #: epoch -> list of (shard_index, per-shard WINDOW_CLOSE emission)
        self._pending_epochs: dict[int, list[tuple[int, Emission]]] = {}

    # -- wiring (runner internals) ------------------------------------------------

    def _attach(self, mode: str, workers: list[_Worker]) -> None:
        self.mode = mode
        self._workers = workers
        self._tails = [[] for _ in workers]
        if mode == "sharded-tumbling":
            assert self.analyzed.window is not None
            self._tracker = EpochTracker(self.analyzed.window)

    @property
    def handles(self) -> list[QueryReport]:
        """This query's part of each shard's last report, in shard order."""
        return [worker.report.queries[self.name] for worker in self._workers]

    def _collect(self) -> None:
        """Take the emission deltas out of the shards' fresh reports."""
        for tail, handle in zip(self._tails, self.handles):
            tail.extend(handle.emissions)
            handle.emissions.clear()

    def _observe_routed(self, event: Event) -> None:
        """Track the global stream point (called by the runner, pre-dispatch)."""
        self.last_routed_seq = event.seq
        self.last_routed_ts = event.timestamp
        if event.timestamp > self.last_ts:
            self.last_ts = event.timestamp
        if self._tracker is None:
            return
        epoch = self._tracker.epoch_of(event)
        if self._runner_epoch is None:
            self._runner_epoch = epoch
        elif epoch > self._runner_epoch:
            self._advances.append((epoch, event.seq, event.timestamp))
            self._runner_epoch = epoch

    def _observe_advance(self, timestamp: float) -> None:
        """Track a heartbeat barrier (closes time-window epochs globally)."""
        if timestamp > self.last_ts:
            self.last_ts = timestamp
        if (
            self._tracker is None
            or self.analyzed.window is None
            or self.analyzed.window.kind is not WindowKind.TIME
        ):
            return
        epoch = self._tracker.epoch_of_point(self.last_routed_seq, timestamp)
        if self._runner_epoch is None:
            self._runner_epoch = epoch
        elif epoch > self._runner_epoch:
            self._advances.append((epoch, self.last_routed_seq, timestamp))
            self._runner_epoch = epoch

    # -- checkpointing -------------------------------------------------------------

    def _snapshot_merge_state(self) -> dict:
        """Merge-stage state: pending epochs, counters, un-merged tails.

        The merged emission *history* is output, not state — it never
        influences future merges — and is not checkpointed (see
        docs/RECOVERY.md).  What must travel is everything that feeds the
        next merge: reported emissions not yet drained, epochs drained but
        not yet closable, and the re-stamping counters.
        """
        return {
            "mode": self.mode,
            "revision": self._revision,
            "detections": self._detections,
            "last_routed_seq": self.last_routed_seq,
            "last_routed_ts": self.last_routed_ts,
            "last_ts": self.last_ts,
            "runner_epoch": self._runner_epoch,
            "advances": [list(advance) for advance in self._advances],
            "pending_epochs": {
                str(epoch): [
                    [shard, encode_emission(emission)]
                    for shard, emission in parts
                ]
                for epoch, parts in self._pending_epochs.items()
            },
            "shard_tails": [
                [encode_emission(emission) for emission in tail]
                for tail in self._tails
            ],
        }

    def _restore_merge_state(self, state: dict) -> None:
        with restoring(f"query {self.name!r}", outer=True):
            if state["mode"] != self.mode:
                raise SnapshotFormatError(
                    f"snapshot placement {state['mode']!r} "
                    f"does not match current placement {self.mode!r}"
                )
            scorer = self._scorer
            self._revision = int(state["revision"])
            self._detections = int(state["detections"])
            self.last_routed_seq = int(state["last_routed_seq"])
            self.last_routed_ts = float(state["last_routed_ts"])
            self.last_ts = float(state["last_ts"])
            self._runner_epoch = state["runner_epoch"]
            self._advances = deque(
                (int(epoch), int(seq), float(ts))
                for epoch, seq, ts in state["advances"]
            )
            self._pending_epochs = {
                int(epoch): [
                    (int(shard), decode_emission(item, scorer))
                    for shard, item in parts
                ]
                for epoch, parts in state["pending_epochs"].items()
            }
            # The shards were restored with nothing left to report; the
            # un-merged tails come back from the checkpoint alone.
            self._tails = [
                [decode_emission(item, scorer) for item in tail]
                for tail in state["shard_tails"]
            ]

    # -- merge stage ---------------------------------------------------------------

    def _drain_shards(self) -> list[tuple[int, int, Emission]]:
        """New (shard, index, emission) triples since the last merge."""
        drained: list[tuple[int, int, Emission]] = []
        for shard, tail in enumerate(self._tails):
            drained.extend(
                (shard, index, emission) for index, emission in enumerate(tail)
            )
            tail.clear()
        return drained

    def _merge_ready(
        self, point: tuple[int, float] | None = None, final: bool = False
    ) -> tuple[list[Emission], list[Emission]]:
        """Run the merge stage; returns the newly released merged emissions
        as ``(stream, barrier)``.

        ``stream`` emissions have an event of the stream as their emission
        point; ``barrier`` ones were produced by the barrier itself
        (heartbeat confirmations and closes, flush releases) at ``point``,
        the barrier's global ``(seq, ts)``.  Without a ``point`` only the
        former release.  ``final`` marks the flush barrier, after which
        every held epoch is closable.
        """
        if self.mode == "sharded-tumbling":
            stream, barrier = self._merge_tumbling(point, final)
        else:
            if self.mode == "solo":
                released = [emission for _, _, emission in self._drain_shards()]
            else:
                released = self._merge_passthrough(point)
            # A barrier pass runs right after a merge without one, so all
            # it drains is what the barrier itself produced.
            stream, barrier = (released, []) if point is None else ([], released)
        self._merged.extend(stream)
        self._merged.extend(barrier)
        return stream, barrier

    def _merge_passthrough(self, point: tuple[int, float] | None) -> list[Emission]:
        drained = self._drain_shards()
        if not drained:
            return []
        if point is None:
            # In-stream emissions carry the triggering event's global seq:
            # ordering by it reproduces the single-engine emission order
            # (ties share one shard, where report order is detection
            # order).
            drained.sort(key=lambda t: (t[2].at_seq, t[0], t[1]))
        else:
            # Barrier-produced confirmations: per-shard at_seq is the
            # shard-local stream tail, so re-stamp with the global point
            # and order by the detection point of the match itself.
            drained.sort(key=lambda t: (t[2].ranking[0].last_seq, t[0], t[1]))
        released = []
        for _, _, emission in drained:
            at_seq, at_ts = (
                (emission.at_seq, emission.at_ts) if point is None else point
            )
            for match in emission.ranking:
                match.detection_index = self._detections
                self._detections += 1
            self._revision += 1
            released.append(
                Emission(
                    kind=emission.kind,
                    ranking=list(emission.ranking),
                    at_seq=at_seq,
                    at_ts=at_ts,
                    revision=self._revision,
                )
            )
        return released

    def _merge_tumbling(
        self, point: tuple[int, float] | None, final: bool
    ) -> tuple[list[Emission], list[Emission]]:
        for shard, _, emission in self._drain_shards():
            assert emission.epoch is not None
            self._pending_epochs.setdefault(emission.epoch, []).append(
                (shard, emission)
            )
        stream: list[Emission] = []
        barrier: list[Emission] = []
        if not self._pending_epochs:
            return stream, barrier
        # An epoch is mergeable once no shard still buffers it (or anything
        # before it); epochs must release in ascending order.
        if final:
            min_open = _INF
        else:
            min_open = min(
                (
                    min(handle.open_epochs, default=_INF)
                    for handle in self.handles
                ),
                default=_INF,
            )
        for epoch in sorted(self._pending_epochs):
            if epoch >= min_open:
                break
            # The stream closed the epoch, or else the barrier does.
            close, released = self._stream_close(epoch), stream
            if close is None:
                if point is None:
                    break
                close, released = point, barrier
            released.append(
                self._merge_epoch(epoch, self._pending_epochs.pop(epoch), close)
            )
        return stream, barrier

    def _stream_close(self, epoch: int) -> tuple[int, float] | None:
        """Global ``(seq, ts)`` at which the stream closed ``epoch``, if it has."""
        advances = self._advances
        while advances and advances[0][0] <= epoch:
            advances.popleft()  # useless for this and every later epoch
        if advances:
            return (advances[0][1], advances[0][2])
        return None

    def _merge_epoch(
        self, epoch: int, parts: list[tuple[int, Emission]], close: tuple[int, float]
    ) -> Emission:
        # Re-stamp detection indices in global detection order: within a
        # shard, collector/ranking order restricted to equal scores is
        # detection order, and across shards the completing event's global
        # seq orders detections (one event is matched by exactly one
        # shard).  After re-stamping, each per-shard ranking is still
        # sorted under Match.sort_key, so a k-way merge yields the global
        # top-k — identical to the single-engine epoch ranking.
        union = [
            (match.last_seq, shard, match.detection_index, match)
            for shard, emission in parts
            for match in emission.ranking
        ]
        union.sort(key=lambda t: t[:3])
        for _, _, _, match in union:
            match.detection_index = self._detections
            self._detections += 1
        rankings = [list(emission.ranking) for _, emission in parts]
        merged = merge_rankings(rankings, k=self.analyzed.limit)
        self._revision += 1
        return Emission(
            kind=EmissionKind.WINDOW_CLOSE,
            ranking=merged,
            at_seq=close[0],
            at_ts=close[1],
            epoch=epoch,
            revision=self._revision,
        )

    # -- results -------------------------------------------------------------------

    def results(self) -> list[Emission]:
        """All merged emissions released so far (complete after ``flush``)."""
        return list(self._merged)

    def matches(self) -> list[Match]:
        return self.collector.matches()

    def final_ranking(self) -> list[Match]:
        return self.collector.final_ranking()

    # -- introspection ---------------------------------------------------------------

    @property
    def has_yield(self) -> bool:
        return self.analyzed.yield_spec is not None

    @property
    def relevant_types(self) -> frozenset[str]:
        return self.analyzed.relevant_types

    @property
    def shards(self) -> int:
        return len(self._workers)

    def explain(self) -> str:
        return self._workers[0].shard.explain(self.name)


class _Worker:
    """One shard, its unsent chunk, its last report and its latched
    failure: a shard call that raised, cleared only by ``restore``."""

    def __init__(self, shard: Shard) -> None:
        self.shard = shard
        self.chunk: list[Event] = []
        self.report: ShardReport = shard.report()
        self.failure: BaseException | None = None

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)``, skipped after a failure; a raise latches."""
        if self.failure is None:
            try:
                return fn(*args)
            except BaseException as exc:
                self.failure = exc
        return None

    @property
    def events_processed(self) -> int:
        """Events the shard's engine took in, as of its last report."""
        return int(self.report.instruments.get("events_pushed_total").value)

    def send(self) -> None:
        """Ship the chunk as one ``push_batch``."""
        chunk, self.chunk = self.chunk, []
        if chunk:
            self.call(self.shard.push_batch, chunk)


class _Group:
    """One fleet of shards serving queries that share a partition spec."""

    def __init__(
        self, attributes: tuple[str, ...], workers: list[_Worker]
    ) -> None:
        self.partitioner = Partitioner(attributes)
        self.workers = workers
        self.relevant_types: frozenset[str] = frozenset()


class ShardedEngineRunner(TelemetryViews):
    """Partition-parallel engine fleet with a deterministic merge stage.

    Lifecycle mirrors :class:`~repro.runtime.concurrent.ThreadedEngineRunner`
    — ``register_query`` (before ``start``), ``start``, ``submit`` from any
    thread, ``advance_time``/``flush`` barriers, ``stop`` — but results per
    query come from :class:`ShardedQuery` handles whose merged output is
    identical to a single-engine run (see the module docstring for the
    exactness contract).

    ``config`` is the fleet's recipe, held to :func:`resolve
    <repro.runtime.config.resolve>`'s rules for ``backend="process"``:
    ``shards`` is the worker count per partition group and ``batch_size``
    the events per ``push_batch`` (one pipe frame, whose blocking write
    is the backpressure).  Shard calls run on the calling thread, under
    the dispatch lock.  Each shard's engine is built from the same
    recipe, without the :attr:`ingress` that admits every event here.
    Subscriptions receive the *merged* emissions
    on the barrier-calling thread.  ``shard_type`` picks the shard
    implementation: :class:`~repro.runtime.process.PipeShard` (one worker
    process per shard, the default — ``create_runner(backend="process")``)
    or :class:`~repro.runtime.shard.LocalShard` (an engine in this
    process: the in-process test double of the merge stage).  A fleet
    has no ingest queue — a full pipe blocks ``submit`` instead — so it
    reports no pressure and sheds no load.
    """

    def __init__(
        self, config: RunnerConfig, shard_type: type[Shard] = PipeShard
    ) -> None:
        self.config = config = resolve(replace(config, backend="process"))
        self.shard_type = shard_type

        self._views: dict[str, ShardedQuery] = {}
        self._asts: dict[str, Query] = {}
        self._auto_name_counter = 0
        self._started = False
        self._stopped = False
        self._flushed = False
        self._lock = tracked_lock("sharded.dispatch")
        self.ingress = Ingress(
            config.registry,
            config.strict_schema,
            config.strict_time,
            config.max_lateness,
        )
        self._sequencer = SequenceAssigner()
        self.metrics = EngineMetrics()

        self._workers: list[_Worker] = []
        self._groups: list[_Group] = []
        self._solo_worker: _Worker | None = None
        self._solo_types: frozenset[str] = frozenset()
        #: event type -> sharded views whose global-stream point it advances
        self._type_watchers: dict[str, list[ShardedQuery]] = {}

    # -- registration -----------------------------------------------------------------

    def register_query(
        self, query: str | Query, name: str | None = None
    ) -> ShardedQuery:
        """Parse, analyse, and stage one query (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("cannot register queries after start()")
        ast = parse_query(query) if isinstance(query, str) else query
        analyzed = analyze(ast, self.config.registry)
        resolved = name or ast.name or self._next_auto_name()
        if resolved in self._views:
            raise CEPRSemanticError(
                f"a query named {resolved!r} is already registered"
            )
        view = ShardedQuery(resolved, analyzed)
        self._views[resolved] = view
        self._asts[resolved] = ast
        return view

    def _next_auto_name(self) -> str:
        self._auto_name_counter += 1
        candidate = f"q{self._auto_name_counter}"
        while candidate in self._views:
            self._auto_name_counter += 1
            candidate = f"q{self._auto_name_counter}"
        return candidate

    # -- lifecycle ---------------------------------------------------------------------

    def _new_worker(self, preassigned: bool, views: list[ShardedQuery]) -> _Worker:
        """Build one shard: its engine recipe and its queries."""
        queries = {view.name: self._asts[view.name] for view in views}
        shard = self.shard_type(self.config, queries, preassigned)
        worker = _Worker(shard)
        self._workers.append(worker)
        return worker

    def start(self) -> "ShardedEngineRunner":
        if self._started:
            raise RuntimeError("runner already started")
        self._started = True

        shards = self.config.shards
        views = list(self._views.values())
        # YIELD cascades derive events that must re-enter one global
        # engine (and consume global sequence numbers), so any YIELD pins
        # the whole deployment to the solo engine.
        any_yield = any(view.has_yield for view in views)
        solo: list[ShardedQuery] = []
        grouped: dict[tuple[str, ...], list[ShardedQuery]] = {}
        for view in views:
            report = view.shardability
            if shards == 1 or any_yield or not report.shardable:
                solo.append(view)
                # shards == 1 is not a downgrade — solo IS the request.
                if shards > 1:
                    view.solo_fallback = True
                    if not report.shardable:
                        reasons = "; ".join(
                            f"{b.code}: {b.message}" for b in report.blockers
                        )
                    else:
                        reasons = (
                            "CEPR405: another query's YIELD pins the whole "
                            "deployment to the solo engine"
                        )
                    _log.warning(
                        "query %r falls back to a solo engine despite "
                        "--shards %d (%s)",
                        view.name,
                        shards,
                        reasons,
                    )
            else:
                grouped.setdefault(view.analyzed.partition_by, []).append(view)
        if solo:
            # Without a partitioned group the one engine numbers events
            # itself, so YIELD-derived events take global numbers too.
            self._solo_worker = self._new_worker(bool(grouped), solo)
            types: set[str] = set()
            for view in solo:
                view._attach("solo", [self._solo_worker])
                types |= view.relevant_types
            self._solo_types = frozenset(types)

        for attributes, members in grouped.items():
            workers = [self._new_worker(True, members) for _ in range(shards)]
            group = _Group(attributes, workers)
            types = set()
            for view in members:
                view._attach(view.shardability.mode, workers)
                types |= view.relevant_types
                for event_type in view.relevant_types:
                    self._type_watchers.setdefault(event_type, []).append(view)
            group.relevant_types = frozenset(types)
            self._groups.append(group)
        return self

    def __enter__(self) -> "ShardedEngineRunner":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _halt(self, force: bool) -> None:
        """Drop every unsent chunk and close every shard."""
        self._stopped = True
        for worker in self._workers:
            worker.chunk = []
            worker.shard.close(force=force)

    def stop(self, timeout: float | None = 30.0) -> None:
        """Flush (if needed), then close every shard; ``timeout`` is unused."""
        if not self._started or self._stopped:
            return
        try:
            if not self._flushed:
                self.flush()
        finally:
            self._halt(force=False)
        self._check_failures()
        for view in self._views.values():
            view.close_sinks()

    def close(self) -> None:
        """Terminal teardown: alias for :meth:`stop` (which closes sinks)."""
        self.stop()

    def kill(self, timeout: float | None = 5.0) -> None:
        """Close every shard **without flushing** (crash simulation).

        The fault-injection harness uses this to model a process dying
        mid-stream: no flush barrier, no final merge, unsent chunks and
        buffered state simply vanish, and every later barrier releases
        nothing.  Worker processes are terminated, so repeated
        kill/restore cycles in a test session don't leak them.
        """
        if self._started and not self._stopped:
            self._halt(force=True)

    def worker_pids(self) -> list[int | None]:
        """Pid hosting each shard's engine, in deterministic worker order."""
        return [worker.shard.pid for worker in self._workers]

    # -- checkpointing ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Coordinated JSON-safe snapshot of the whole fleet.

        Takes a barrier: sends every unsent chunk, then captures the
        dispatch state (ingress, sequencer), every shard's engine
        snapshot (in the deterministic worker order fixed by
        :meth:`start`), and each query's merge-stage state.  Consistency
        holds because the runner's lock blocks submits for the duration
        and the barrier leaves no event unsent.
        """
        if not self._started:
            raise RuntimeError("runner not started")
        if self._stopped:
            raise RuntimeError("runner is stopped")
        with self._lock:
            self._barrier()
            state = {
                "shards": self.config.shards,
                "sequencer": self._sequencer.snapshot(),
                "events_submitted": self.ingress.events_admitted,
                "events_pushed": self.metrics.events_pushed,
                "engines": [worker.shard.snapshot() for worker in self._workers],
                "views": {
                    name: view._snapshot_merge_state()
                    for name, view in self._views.items()
                },
            }
            return merge_admission(state, self.ingress.snapshot())

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this runner.

        The runner must be configured identically to the one that took
        the snapshot — same ``shards``, same ``max_lateness`` setting, and
        the same queries registered under the same names — so its worker
        list lines up positionally with the snapshot's engine list.

        Doubles as crash recovery: a shard that is dead or has a latched
        failure is revived first (``respawn`` if needed, failure cleared),
        and every unsent chunk is discarded — those events are part of
        the checkpointed-or-lost past, and replaying them after the
        restored cut would double-count.
        """
        if not self._started:
            raise RuntimeError("runner not started (call start() first)")
        if self._stopped or self._flushed:
            raise RuntimeError("runner is stopped")
        with restoring("fleet"):
            if int(state["shards"]) != self.config.shards:
                raise SnapshotFormatError(
                    f"shard count mismatch: snapshot has {state['shards']}, "
                    f"runner has {self.config.shards}"
                )
            missing = sorted(set(state["views"]) - set(self._views))
            extra = sorted(set(self._views) - set(state["views"]))
            if missing or extra:
                raise SnapshotFormatError(
                    f"query set mismatch: snapshot has {sorted(state['views'])}, "
                    f"runner has {sorted(self._views)}"
                )
            engines = state["engines"]
            if len(engines) != len(self._workers):
                raise SnapshotFormatError(
                    f"worker count mismatch: snapshot has {len(engines)} "
                    f"engines, runner has {len(self._workers)} workers"
                )
            with self._lock:
                self.ingress.restore(state)
                self.ingress.events_admitted = int(state["events_submitted"])
                for worker in self._workers:
                    worker.chunk = []
                    if not worker.shard.alive():
                        worker.shard.respawn()
                    worker.failure = None
                self._sequencer.restore(state["sequencer"])
                self.metrics.events_pushed = int(state["events_pushed"])
                for worker, engine_state in zip(self._workers, engines):
                    worker.shard.restore(engine_state)
                self._barrier()
                for name, view_state in state["views"].items():
                    self._views[name]._restore_merge_state(view_state)

    # -- producing --------------------------------------------------------------------

    def submit(self, event: Event, timeout: float | None = None) -> None:
        """Ingest one event into its shard's chunk (a full chunk is sent
        now, blocking on a full pipe); ``timeout`` is unused."""
        self.submit_all((event,))

    def submit_all(self, events: Iterable[Event]) -> int:
        """:meth:`submit` each event, admitted (:attr:`ingress`) before it
        is numbered, ``batch_size`` at a time: each batch is pulled before
        the lock is taken and admitted under it; the throughput clock is
        read once.  A rejected event raises, with the events before it
        admitted (:func:`~repro.events.time.rejected`)."""
        ingress, events, size = self.ingress, iter(events), self.config.batch_size
        metrics = self.metrics
        metrics.start()
        pushed = metrics.events_pushed
        count = 0
        try:
            while True:
                chunk = list(islice(events, size))
                with self._lock:
                    # Checked under the lock, so no submit lands after a flush.
                    self._ensure_live()
                    released, admitted, rejection = ingress.admit_batch(chunk)
                    for event in released:
                        self._ingest(event)
                count += admitted
                if rejection is not None:
                    raise rejected(rejection, count)
                if len(chunk) < size:
                    return count
        finally:
            with self._lock:
                metrics.on_call(metrics.events_pushed - pushed)

    def _ingest(self, event: Event) -> None:
        # An all-solo deployment's engine renumbers (see start()).
        self._sequencer.assign(event)
        self.metrics.events_pushed += 1
        for view in self._type_watchers.get(event.event_type, ()):
            view._observe_routed(event)
        batch_size = self.config.batch_size
        for worker in self._targets(event):
            chunk = worker.chunk
            chunk.append(event)
            if len(chunk) >= batch_size:
                worker.send()

    def _targets(self, event: Event) -> Iterator[_Worker]:
        """The workers ``event`` is dispatched to."""
        event_type = event.event_type
        if self._solo_worker is not None and (
            not self._groups or event_type in self._solo_types
        ):
            yield self._solo_worker
        for group in self._groups:
            if event_type not in group.relevant_types:
                continue
            key = group.partitioner.key_of(event)
            # Key-less events cannot join any run; shard 0 still receives
            # them so the skip is counted once, like a single engine would.
            shard = 0 if key is None else stable_shard(key, len(group.workers))
            yield group.workers[shard]

    @property
    def events_pushed(self) -> int:
        return self.metrics.events_pushed

    @property
    def events_submitted(self) -> int:
        return self.ingress.events_admitted

    @property
    def effective_shards(self) -> int:
        """Shards actually running partitioned fleets (1 if none)."""
        return self.config.shards if self._groups else 1

    def _check_failures(self) -> None:
        for worker in self._workers:
            if worker.failure is not None:
                raise RuntimeError("shard failed") from worker.failure

    def _ensure_live(self) -> None:
        if not self._started:
            raise RuntimeError("runner not started")
        if self._stopped or self._flushed:
            raise RuntimeError("runner is stopped")
        self._check_failures()

    # -- barriers ---------------------------------------------------------------------

    def _barrier(self, op: Callable[[Shard], None] | None = None) -> None:
        """Send every chunk, run ``op`` on every shard, collect the reports.

        The only place the coordinator learns anything about its shards.
        Every chunk goes out first, so the worker processes catch up in
        parallel; then each shard in turn runs ``op`` and ``report()``,
        and the views take their emission deltas.  An exception latches
        as that shard's failure; the barrier still completes, then raises.
        """
        for worker in self._workers:
            worker.send()
        for worker in self._workers:
            if op is not None:
                worker.call(op, worker.shard)
            report = worker.call(worker.shard.report)
            if report is not None:
                worker.report = report
        for view in self._views.values():
            view._collect()
        self._check_failures()

    def _release(
        self, merged: list[tuple[list[Emission], list[Emission]]]
    ) -> list[Emission]:
        """Deliver merged output to the subscribers in one global order.

        ``merged`` holds each view's ``(stream, barrier)`` output, in
        registration order.  Stream emissions go first, by (global seq,
        registration order, merge order), as a single engine emits them
        event by event.  Barrier emissions follow view by view, as its
        heartbeat and flush loops do — unless the solo engine runs every
        view: then they follow that engine's delivery order, where the
        events a heartbeat derives through ``YIELD`` cascade after every
        query's own heartbeat output.  Returns the ordered emissions.
        """
        views = list(self._views.values())
        tagged = sorted(
            (
                (emission.at_seq, order, position, emission)
                for order, (stream, _) in enumerate(merged)
                for position, emission in enumerate(stream)
            ),
            key=lambda t: t[:3],
        )
        ordered = [(views[order], emission) for _, order, _, emission in tagged]
        if self._groups or self._solo_worker is None:
            # No view YIELDs (a YIELD pins every view to the solo engine).
            ordered += [
                (view, emission)
                for view, (_, barrier) in zip(views, merged)
                for emission in barrier
            ]
        else:
            pending = {view.name: deque(b) for view, (_, b) in zip(views, merged)}
            ordered += [
                (self._views[name], pending[name].popleft())
                for name in self._solo_worker.report.barrier_order
            ]
            if any(pending.values()):
                raise RuntimeError("the solo shard's barrier order misses output")
        for view, emission in ordered:
            for sink in list(view.sinks):
                sink.accept(emission)
        return [emission for _, emission in ordered]

    def _merge_barrier(
        self,
        op: Callable[[Shard], None],
        point_of: Callable[[ShardedQuery], tuple[int, float]],
        final: bool = False,
    ) -> list[Emission]:
        """Merge the stream so far, run ``op`` on every shard, merge at
        each view's barrier point, then release it all in one order."""
        self._barrier()
        views = list(self._views.values())
        merged = [view._merge_ready() for view in views]
        self._barrier(op)
        for view, (stream, barrier) in zip(views, merged):
            late, produced = view._merge_ready(point=point_of(view), final=final)
            stream += late
            barrier += produced
        return self._release(merged)

    def sync(self) -> None:
        """Barrier: return once every shard has processed every event.

        Gives callers read-your-writes over shard-engine state without
        releasing merged emissions (use :meth:`poll` for that).
        """
        with self._lock:
            self._ensure_live()
            self._barrier()

    def poll(self) -> list[Emission]:
        """Non-terminal merge barrier: release whatever is mergeable now.

        Sends every chunk, runs the merge stage with no barrier point (so
        only epochs every shard has moved past — and pass-through
        emissions — release), and returns the newly merged emissions.
        The serving layer calls this on a cadence so subscribers see
        merged output between heartbeats.
        """
        if not self._started:
            raise RuntimeError("runner not started")
        with self._lock:
            if self._stopped or self._flushed:
                return []
            self._barrier()
            return self._release(
                [view._merge_ready() for view in self._views.values()]
            )

    def subscribe(
        self,
        query_name: str,
        target: SinkLike,
        kinds: EmissionKind | str | Iterable[EmissionKind | str] | None = None,
    ) -> Subscription:
        """Subscribe to one query's merged emission stream.

        Safe while the runner is live: the sink-list mutation happens
        under the dispatch lock, serialising it against merge releases.
        """
        if query_name not in self._views:
            raise KeyError(f"no query named {query_name!r} is registered")
        with self._lock:
            return self._views[query_name].subscribe(target, kinds=kinds)

    def advance_time(self, timestamp: float) -> list[Emission]:
        """Heartbeat barrier: broadcast to every shard, then merge.

        Returns every merged emission this barrier released — both
        heartbeat-triggered output (closed time epochs, confirmed
        pendings) and in-stream output that became mergeable.
        """
        with self._lock:
            self._ensure_live()
            # Epochs the heartbeat closes are barrier output, closed at its
            # point; the views record it as an advance only afterwards.
            released = self._merge_barrier(
                lambda shard: shard.advance_time(timestamp),
                lambda view: (view.last_routed_seq, timestamp),
            )
            for view in self._views.values():
                if view.mode != "solo":
                    view._observe_advance(timestamp)
            return released

    def flush(self) -> list[Emission]:
        """End-of-stream barrier: flush every shard and merge everything.

        ``[]`` once flushed, and after :meth:`kill`.
        """
        if not self._started:
            raise RuntimeError("runner not started")
        with self._lock:
            if self._flushed or self._stopped:
                return []
            self._flushed = True
            pushed = self.metrics.events_pushed
            for event in self.ingress.flush():
                self._ingest(event)
            self.metrics.on_call(self.metrics.events_pushed - pushed)
            released = self._merge_barrier(
                lambda shard: shard.flush(),
                lambda view: (view.last_routed_seq, view.last_ts),
                final=True,
            )
            for view in self._views.values():
                view.flush_sinks()
            return released

    # -- introspection -----------------------------------------------------------------

    def query(self, name: str) -> ShardedQuery:
        return self._views[name]

    def queries(self) -> list[ShardedQuery]:
        return list(self._views.values())

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-worker view: events processed, unsent chunk, live runs, role."""
        rows: list[dict[str, Any]] = []
        for index, worker in enumerate(self._workers):
            rows.append(
                {
                    "shard": index,
                    "role": "solo" if worker is self._solo_worker else "sharded",
                    "events_processed": worker.events_processed,
                    "backlog": len(worker.chunk),
                    "live_runs": sum(
                        int(instrument.value)
                        for instrument in worker.report.instruments
                        if instrument.name == "live_runs"
                    ),
                }
            )
        return rows

    def metrics_registry(self) -> MetricsRegistry:
        """One fleet registry: the shards' last-reported registries
        absorbed, plus the coordinator's own dispatch instruments.

        As fresh as the last barrier, and still answerable after
        :meth:`stop` (the reports outlive the shards).  The absorbed
        series are value snapshots (counters sum, ``max`` gauges take the
        fleet peak, latency reservoirs pool); build a fresh registry per
        export.  ``stats_by_query`` and the other views read this.
        """
        fleet = MetricsRegistry()
        # Registered before absorbing, so per-query views list queries in
        # registration order (a solo shard would otherwise lead).
        for view in self._views.values():
            bind(fleet, QUERY_SHARDS, view, query=view.name)
            bind(fleet, QUERY_SOLO_FALLBACK, view, query=view.name)
        for worker in self._workers:
            fleet.absorb(worker.report.instruments)
        span = fleet.get("ingest_span_seconds")
        if span is not None and span.value > 0:
            # The fleet's lifetime rate over the fleet's observed span (the
            # busiest shard's); per-shard rates do not add.
            fleet.gauge("throughput_eps").set(
                fleet.get("events_pushed_total").value / span.value
            )
        for name, view in self._views.items():
            if view.mode == "solo":
                continue
            # Shard-local counters tally per-shard epoch releases; what the
            # deployment observed is the merge stage's own count of the
            # merged stream (the coordinator's counter, not a combination).
            fleet.counter("query_emissions_total", query=name).override(
                len(view._merged)
            )
            fleet.counter("query_revisions_total", query=name).override(
                view._revision
            )
        bind(fleet, RUNNER_SUBMITTED, self)
        bind_table(fleet, INGRESS, self.ingress)
        bind_table(fleet, FLEET, self)
        for index, worker in enumerate(self._workers):
            bind(fleet, SHARD, worker, shard=str(index))
        register_lock_metrics(fleet, self._lock)
        return fleet
