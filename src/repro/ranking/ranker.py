"""The rank operator: orders completed matches and drives emission.

One :class:`Ranker` is attached per query.  It consumes the matches
completed at each event (already scored by a
:class:`~repro.ranking.score.Scorer`), maintains the ranking scope
appropriate to the query's emission policy, and returns the
:class:`~repro.ranking.emission.Emission` records triggered by the event.

Policy → scope mapping (see DESIGN.md for the semantics rationale); the
scope is chosen once, when the ranker is constructed:

* ``EMIT ON WINDOW CLOSE`` → *tumbling*: one bounded
  :class:`~repro.ranking.topk.EpochTopK` per window epoch; the ordered
  answer is released when the epoch closes.  This scope exposes
  :meth:`Ranker.kth_bound_for_epoch` to the pruning hook.
* ``EMIT EAGER`` (unranked) → *pass-through*, classical CEP: each match is
  emitted the moment it is detected (respecting ``LIMIT`` per epoch).
* ``EMIT EVERY n`` / ``EMIT EAGER`` (ranked) → *sliding*: a
  :class:`~repro.ranking.topk.SlidingRanking`, the k-skyband of the live
  matches, snapshotted every ``n`` events/seconds, or whenever the current
  top-k changes (including by expiry).

Unranked queries with ``ON WINDOW CLOSE``/``EVERY`` reuse the ranked
machinery: their sort key degenerates to detection order, so ``LIMIT k``
keeps the first k matches of the scope.

Every scope has one step — absorb these matches, move the clock to this
point, release what is due — and the three ways a query moves forward
are names for it: :meth:`Ranker.observe` (an event: the count and the
time axis both move), :meth:`Ranker.tick` (a heartbeat: only time moves)
and :meth:`Ranker.observe_final` (end of stream: everything held is due).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro.engine.match import Match
from repro.engine.windows import EpochTracker
from repro.events.event import Event
from repro.language.ast_nodes import EmitKind, WindowKind
from repro.language.errors import EvaluationError
from repro.language.semantics import AnalyzedQuery
from repro.observability.tracing import SpanKind, SpanRecorder
from repro.ranking.emission import Emission, EmissionKind, snapshot_delta
from repro.ranking.score import Scorer
from repro.ranking.topk import EpochTopK, SlidingRanking

_RANK = SpanKind.RANK

_State = Mapping[str, Any]
_Encode = Callable[[Match], dict[str, Any]]
_Rescore = Callable[[_State], Match]


class Ranker:
    """Per-query ranking and emission state machine (see module docs).

    ``Ranker(analyzed, scorer)`` returns the scope the query's emission
    policy calls for; this class holds what the scopes share.
    """

    #: this scope's tag in checkpoint snapshots.
    mode: str

    def __new__(
        cls,
        analyzed: AnalyzedQuery,
        scorer: Scorer,
        lenient_errors: bool = False,
    ) -> "Ranker":
        if cls is Ranker:
            if analyzed.emit.kind is EmitKind.ON_WINDOW_CLOSE:
                cls = _TumblingRanker
            elif analyzed.emit.kind is EmitKind.EAGER and not scorer.is_ranked:
                cls = _PassThroughRanker
            else:
                cls = _SlidingRanker
        return super().__new__(cls)

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        scorer: Scorer,
        lenient_errors: bool = False,
    ) -> None:
        self.analyzed = analyzed
        self.scorer = scorer
        self.emit = analyzed.emit
        self.window = analyzed.window
        self.limit = analyzed.limit
        #: When true, a match whose RANK BY keys fail to evaluate is dropped
        #: (and counted) instead of crashing the engine.
        self.lenient_errors = lenient_errors
        self.scoring_errors = 0
        #: Attached by the observability layer when tracing is enabled.
        self.tracer: SpanRecorder | None = None
        #: set by a sharing router while the query is dormant: called once
        #: a step's matches leave the scope holding state (no longer
        #: :meth:`inert_without_matches`), so it is offered every event.
        self.on_busy: Callable[[], None] | None = None
        self._revision = 0
        self._init_scope()

    # -- public API ---------------------------------------------------------------

    @property
    def revision(self) -> int:
        """Revisions issued so far (the last emission's ``revision`` stamp)."""
        return self._revision

    def inert_without_matches(self) -> bool:
        """True when observing a matchless event cannot change any output.

        The engine's shared-execution fast path skips a query's whole
        operator chain for events that cannot bind a fresh run — but only
        when the ranker, fed that event with zero matches, would provably
        emit nothing *and* end in the same state.  Each scope says when.
        """
        raise NotImplementedError

    def observe(
        self, event: Event, matches: Sequence[Match], epoch: int | None = None
    ) -> list[Emission]:
        """Process one event's completions; return triggered emissions.

        ``epoch`` is the tumbling epoch the matcher placed ``event`` in, if
        it did (:attr:`~repro.engine.matcher.PatternMatcher.epoch`); the
        tumbling scope computes it otherwise.
        """
        if not matches:  # nothing to score, nothing to make the scope busy
            return self._step(matches, event.seq, event.timestamp, 1, False, epoch)
        return self._advance(matches, event.seq, event.timestamp, 1, False, epoch)

    def tick(
        self, matches: Sequence[Match], seq: int, timestamp: float
    ) -> list[Emission]:
        """Heartbeat at ``timestamp``: absorb late-confirmed matches and
        release whatever time-based scopes are now due.

        Only time-driven scopes react (time-window tumbling epochs close,
        time-periodic snapshots fire, sliding expiry by time runs);
        count-based scopes need events to advance.
        """
        return self._advance(matches, seq, timestamp, 0, False)

    def observe_final(
        self, matches: Sequence[Match], last_seq: int, last_ts: float
    ) -> list[Emission]:
        """Absorb matches confirmed at stream end, then release all held."""
        return self._advance(matches, last_seq, last_ts, 0, True)

    def _advance(
        self,
        matches: Sequence[Match],
        seq: int,
        ts: float,
        events: int,
        final: bool,
        epoch: int | None = None,
    ) -> list[Emission]:
        """:meth:`_step` over the scored matches, then :attr:`on_busy` if
        they left the scope holding state (only matches can)."""
        emissions = self._step(self._score_all(matches), seq, ts, events, final, epoch)
        if matches and self.on_busy is not None and not self.inert_without_matches():
            self.on_busy()
        return emissions

    def _step(
        self,
        matches: Sequence[Match],
        seq: int,
        ts: float,
        events: int,
        final: bool,
        epoch: int | None,
    ) -> list[Emission]:
        """Absorb ``matches``, move the clock to ``(seq, ts)``, release what is due.

        ``events`` is how far the count axis moved: 1 for an event, 0 for
        a heartbeat or the end of the stream, where ``seq`` is still the
        last event's.  ``final`` releases whatever the scope still holds.
        ``epoch``, when known, is the tumbling epoch of ``(seq, ts)``.
        """
        raise NotImplementedError

    def _init_scope(self) -> None:
        raise NotImplementedError

    def _place(self, match: Match) -> None:
        """Put one scored match into the scope (the scopes that hold any)."""
        raise NotImplementedError

    def _absorb(self, matches: Sequence[Match]) -> None:
        """:meth:`_place` each match.  ``RANK BY`` is a total order, so a
        key another held key cannot be compared with (a string against a
        number, read from undeclared attributes) is a scoring error: raised
        when strict, counted and the match dropped when lenient."""
        for match in matches:
            try:
                self._place(match)
            except TypeError as exc:
                if not self.lenient_errors:
                    raise EvaluationError(
                        f"RANK BY keys of mixed kinds cannot be ranked: {exc}"
                    ) from exc
                self.scoring_errors += 1

    def _score_all(self, matches: Sequence[Match]) -> Sequence[Match]:
        """Score matches, applying the evaluation-error policy."""
        tracer = self.tracer
        if not self.lenient_errors:
            for match in matches:
                self.scorer.score(match)
                if tracer is not None:
                    self._record_rank(tracer, match)
            return matches
        kept: list[Match] = []
        for match in matches:
            try:
                self.scorer.score(match)
            except EvaluationError:
                self.scoring_errors += 1
                continue
            if tracer is not None:
                self._record_rank(tracer, match)
            kept.append(match)
        return kept

    def _record_rank(self, tracer: SpanRecorder, match: Match) -> None:
        tracer.record(
            _RANK,
            match.last_seq,
            match.last_ts,
            self.analyzed.name,
            partition=match.partition_key,
            detection_index=match.detection_index,
            rank_values=match.rank_values,
        )

    def held_matches(self) -> int:
        """Matches the scope holds now (the ``ranker_held_matches`` gauge);
        the pass-through scope holds none."""
        return 0

    def open_epochs(self) -> tuple[int, ...]:
        """Tumbling epochs still buffered (not yet released), ascending.

        The sharded runtime's merge stage uses this at barrier points to
        know which epochs a shard may still contribute matches to; the
        other scopes have none.
        """
        return ()

    def kth_bound_for_epoch(self, epoch: int) -> tuple[Any, ...] | None:
        """The pruning bound for runs completing in ``epoch``.

        Only the tumbling scope has a sound bound (DESIGN.md); ``None``
        disables pruning.
        """
        return None

    # -- checkpointing --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot of the emission state machine.

        Matches are stored without their scores (see
        :mod:`repro.engine.snapshot`); :meth:`restore` re-scores them,
        which is deterministic because scores are pure functions of the
        bindings.
        """
        from repro.engine.snapshot import encode_match

        return {
            "revision": self._revision,
            "scoring_errors": self.scoring_errors,
            "mode": self.mode,
            **self._scope_state(encode_match),
        }

    def restore(self, state: _State) -> None:
        """Load a :meth:`snapshot` into this (freshly constructed) ranker."""
        from repro.engine.snapshot import SnapshotFormatError, rescore, restoring

        with restoring("ranker"):
            if state.get("mode") != self.mode:
                raise SnapshotFormatError(
                    f"ranker mode mismatch: snapshot is {state.get('mode')!r}, "
                    f"query needs {self.mode!r}"
                )
            self._revision = int(state["revision"])
            self.scoring_errors = int(state["scoring_errors"])
            # Older checkpoints may hold a NaN key (refused by rescore) or
            # keys of mixed kinds, which meet in a buffer's comparisons.
            try:
                self._restore_scope(state, partial(rescore, self.scorer))
            except TypeError as exc:
                raise SnapshotFormatError(
                    f"a held match cannot be ranked: {exc}"
                ) from exc

    def _scope_state(self, encode: _Encode) -> dict[str, Any]:
        raise NotImplementedError

    def _restore_scope(self, state: _State, rescore: _Rescore) -> None:
        raise NotImplementedError


class _TumblingRanker(Ranker):
    """``EMIT ON WINDOW CLOSE``: a bounded top-k per window epoch."""

    mode = "tumbling"

    def _init_scope(self) -> None:
        assert self.window is not None  # enforced by semantic analysis
        self._epoch_tracker = EpochTracker(self.window)
        self._epoch_buffers: dict[int, EpochTopK] = {}
        #: the oldest buffered epoch (``None``: nothing buffered): no epoch
        #: is due while the clock has not passed it.
        self._oldest: int | None = None
        #: the epoch the clock is in; nothing reads it, checkpoints carry it.
        self._current_epoch: int | None = None

    def inert_without_matches(self) -> bool:
        """Only with nothing buffered: a later epoch's event closes epochs."""
        return not self._epoch_buffers

    def _place(self, match: Match) -> None:
        """Put a completed match into the buffer of its own epoch."""
        epoch = self._epoch_tracker.epoch_of_point(match.last_seq, match.last_ts)
        buffer = self._epoch_buffers.get(epoch)
        if buffer is None:
            buffer = self._epoch_buffers[epoch] = EpochTopK(self.limit)
            if self._oldest is None or epoch < self._oldest:
                self._oldest = epoch
        buffer.insert(match)

    def _step(
        self,
        matches: Sequence[Match],
        seq: int,
        ts: float,
        events: int,
        final: bool,
        epoch: int | None,
    ) -> list[Emission]:
        if matches:
            self._absorb(matches)
        buffers = self._epoch_buffers
        if final:
            due = sorted(buffers)
        else:
            # On a heartbeat ``seq`` has not moved, so no count epoch is
            # behind the clock point: only time epochs close.
            now = (
                self._epoch_tracker.epoch_of_point(seq, ts) if epoch is None else epoch
            )
            self._current_epoch = now
            oldest = self._oldest
            if oldest is None or oldest >= now:
                return []
            due = sorted(e for e in buffers if e < now)
        emissions = []
        for closed in due:
            self._revision += 1
            emissions.append(
                Emission(
                    kind=EmissionKind.WINDOW_CLOSE,
                    ranking=buffers.pop(closed).ranking(),
                    at_seq=seq,
                    at_ts=ts,
                    epoch=closed,
                    revision=self._revision,
                )
            )
        self._oldest = min(buffers) if buffers else None
        return emissions

    def held_matches(self) -> int:
        # A copy first: exports may read this off the engine's thread.
        return sum(len(buffer) for buffer in tuple(self._epoch_buffers.values()))

    def open_epochs(self) -> tuple[int, ...]:
        return tuple(sorted(self._epoch_buffers))

    def kth_bound_for_epoch(self, epoch: int) -> tuple[Any, ...] | None:
        """The k-th retained key of ``epoch``'s heap, once it is full.

        A run may only be compared against the k-th score of the epoch it
        will complete in — a fresh epoch has no bound yet, so runs created
        at an epoch boundary are never pruned against the previous epoch's
        heap.
        """
        buffer = self._epoch_buffers.get(epoch)
        if buffer is None:
            return None
        return buffer.kth_key()

    def _scope_state(self, encode: _Encode) -> dict[str, Any]:
        return {
            "current_epoch": self._current_epoch,
            "epochs": {
                str(epoch): {
                    "matches": [encode(m) for m in buffer.ranking()],
                    "discarded": buffer.discarded,
                }
                for epoch, buffer in self._epoch_buffers.items()
            },
        }

    def _restore_scope(self, state: _State, rescore: _Rescore) -> None:
        from repro.engine.snapshot import SnapshotFormatError

        self._current_epoch = state["current_epoch"]
        self._epoch_buffers = {}
        for key, item in state["epochs"].items():
            # An older format's one boolean: a NaN went through the epoch.
            if any(flag is True for flag in item.values()):
                raise SnapshotFormatError(
                    f"epoch {key} took a NaN key, so its held matches may be "
                    f"out of order"
                )
            buffer = self._epoch_buffers[int(key)] = EpochTopK(self.limit)
            for encoded in item["matches"]:
                buffer.insert(rescore(encoded))
            buffer.discarded = int(item["discarded"])
        self._oldest = min(self._epoch_buffers) if self._epoch_buffers else None


class _PassThroughRanker(Ranker):
    """Unranked ``EMIT EAGER``: every match is its own emission."""

    mode = "passthrough"

    def _init_scope(self) -> None:
        self._limit_tracker = (
            EpochTracker(self.window)
            if self.limit is not None and self.window is not None
            else None
        )
        self._limit_epoch: int | None = None
        self._emitted_in_epoch = 0

    def inert_without_matches(self) -> bool:
        """Always: the scope is stateless between matches."""
        return True

    def _step(
        self,
        matches: Sequence[Match],
        seq: int,
        ts: float,
        events: int,
        final: bool,
        epoch: int | None,
    ) -> list[Emission]:
        tracker = self._limit_tracker
        if tracker is not None:
            # LIMIT k is a quota per epoch of the emission point.
            assert self.limit is not None
            epoch = tracker.epoch_of_point(seq, ts)
            if epoch != self._limit_epoch:
                self._limit_epoch = epoch
                self._emitted_in_epoch = 0
            matches = matches[: self.limit - self._emitted_in_epoch]
            self._emitted_in_epoch += len(matches)
        emissions = []
        for match in matches:
            self._revision += 1
            emissions.append(
                Emission(
                    kind=EmissionKind.MATCH,
                    ranking=[match],
                    at_seq=seq,
                    at_ts=ts,
                    revision=self._revision,
                )
            )
        return emissions

    def _scope_state(self, encode: _Encode) -> dict[str, Any]:
        return {
            "limit_epoch": self._limit_epoch,
            "emitted_in_epoch": self._emitted_in_epoch,
        }

    def _restore_scope(self, state: _State, rescore: _Rescore) -> None:
        self._limit_epoch = state["limit_epoch"]
        self._emitted_in_epoch = int(state["emitted_in_epoch"])


class _SlidingRanker(Ranker):
    """``EMIT EVERY`` / ranked ``EMIT EAGER``: snapshots of the live matches."""

    mode = "sliding"

    def _init_scope(self) -> None:
        self._sliding = SlidingRanking(self.limit, self.window)
        self._last_snapshot: list[Match] = []
        self._events_since_emit = 0
        self._last_emit_ts: float | None = None
        self._eager = self.emit.kind is EmitKind.EAGER
        self._expires_by_time = (
            self.window is not None and self.window.kind is WindowKind.TIME
        )

    def inert_without_matches(self) -> bool:
        """Eager: only with the live set and the last snapshot both empty
        (expiry can shrink the ranking and trigger a delta emission).
        ``EMIT EVERY``: never — the cadence counts every observed event
        (or reads its timestamp), so skipping one would shift all later
        snapshot points."""
        return self._eager and not self._sliding and not self._last_snapshot

    def held_matches(self) -> int:
        return len(self._sliding)

    def _place(self, match: Match) -> None:
        self._sliding.insert(match)

    def _step(
        self,
        matches: Sequence[Match],
        seq: int,
        ts: float,
        events: int,
        final: bool,
        epoch: int | None,
    ) -> list[Emission]:
        sliding = self._sliding
        # A heartbeat moves the time axis only; the end of the stream, none.
        if events or (self._expires_by_time and not final):
            sliding.expire(seq, ts)
        if matches:
            self._absorb(matches)
        if final:
            kind = EmissionKind.FINAL
            ranking = sliding.ranking()
            due = bool(ranking)
        elif self._eager:
            kind = EmissionKind.EAGER
            ranking = sliding.ranking()
            due = [m.detection_index for m in ranking] != [
                m.detection_index for m in self._last_snapshot
            ]
        else:
            kind = EmissionKind.PERIODIC
            due = self._period_elapsed(events, ts)
            ranking = sliding.ranking() if due else []
        if not due:
            return []
        entered, exited = snapshot_delta(self._last_snapshot, ranking)
        self._last_snapshot = ranking
        self._revision += 1
        return [
            Emission(
                kind=kind,
                ranking=ranking,
                at_seq=seq,
                at_ts=ts,
                revision=self._revision,
                entered=entered,
                exited=exited,
            )
        ]

    def _period_elapsed(self, events: int, ts: float) -> bool:
        """``EMIT EVERY n EVENTS / t <unit>``: is a snapshot due now?"""
        period = self.emit.period
        assert period is not None
        if self.emit.period_kind is WindowKind.COUNT:
            self._events_since_emit += events
            if self._events_since_emit < int(period):
                return False
            self._events_since_emit = 0
            return True
        last = self._last_emit_ts
        if last is None:
            # The cadence is anchored on the first event, not a heartbeat.
            if events:
                self._last_emit_ts = ts
            return False
        if ts - last < period:
            return False
        self._last_emit_ts = ts
        return True

    def _scope_state(self, encode: _Encode) -> dict[str, Any]:
        held = self._sliding.held()
        return {
            "live": [encode(match) for match, _stamp in held],
            "stamps": [stamp for _match, stamp in held],
            "expired": self._sliding.expired,
            "dominated": self._sliding.dominated,
            "last_snapshot": [encode(m) for m in self._last_snapshot],
            "events_since_emit": self._events_since_emit,
            "last_emit_ts": self._last_emit_ts,
        }

    def _restore_scope(self, state: _State, rescore: _Rescore) -> None:
        # A snapshot without stamps holds every live match (the format
        # before the skyband): their running maximum is the stamp, exactly,
        # because every match dropped before them had already expired.
        sliding = self._sliding = SlidingRanking(self.limit, self.window)
        live = state["live"]
        for encoded, stamp in zip(live, state.get("stamps") or [None] * len(live)):
            sliding.insert(rescore(encoded), stamp)
        sliding.expired = int(state["expired"])
        sliding.dominated = int(state.get("dominated", sliding.dominated))
        self._last_snapshot = [
            rescore(encoded) for encoded in state["last_snapshot"]
        ]
        self._events_since_emit = int(state["events_since_emit"])
        self._last_emit_ts = state["last_emit_ts"]
