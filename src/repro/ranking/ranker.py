"""The rank operator: orders completed matches and drives emission.

One :class:`Ranker` is attached per query.  It consumes the matches
completed at each event (already scored by a
:class:`~repro.ranking.score.Scorer`), maintains the ranking scope
appropriate to the query's emission policy, and returns the
:class:`~repro.ranking.emission.Emission` records triggered by the event.

Policy → scope mapping (see DESIGN.md for the semantics rationale):

* ``EMIT ON WINDOW CLOSE`` → *tumbling*: one bounded
  :class:`~repro.ranking.topk.EpochTopK` per window epoch; the ordered
  answer is released when the epoch closes.  This mode exposes
  :meth:`Ranker.kth_bound` to the pruning hook.
* ``EMIT EVERY n`` → *sliding periodic*: a
  :class:`~repro.ranking.topk.SlidingRanking` of live matches, snapshotted
  every ``n`` events/seconds.
* ``EMIT EAGER`` (ranked) → *sliding eager*: a snapshot whenever the
  current top-k changes (including by expiry).
* ``EMIT EAGER`` (unranked) → classical CEP pass-through: each match is
  emitted the moment it is detected (respecting ``LIMIT`` per epoch).

Unranked queries with ``ON WINDOW CLOSE``/``EVERY`` reuse the ranked
machinery: their sort key degenerates to detection order, so ``LIMIT k``
keeps the first k matches of the scope.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.match import Match
from repro.engine.windows import EpochTracker
from repro.events.event import Event
from repro.language.ast_nodes import EmitKind, WindowKind
from repro.language.errors import EvaluationError
from repro.language.semantics import AnalyzedQuery
from repro.observability.tracing import SpanKind, Tracer
from repro.ranking.emission import Emission, EmissionKind, snapshot_delta
from repro.ranking.score import Scorer
from repro.ranking.topk import EpochTopK, SlidingRanking

_RANK = SpanKind.RANK


class Ranker:
    """Per-query ranking and emission state machine (see module docs)."""

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
        self.tracer: Tracer | None = None
        self._revision = 0

        self._tumbling = self.emit.kind is EmitKind.ON_WINDOW_CLOSE
        self._passthrough = (
            self.emit.kind is EmitKind.EAGER and not scorer.is_ranked
        )

        if self._tumbling:
            assert self.window is not None  # enforced by semantic analysis
            self._epoch_tracker = EpochTracker(self.window)
            self._epoch_buffers: dict[int, EpochTopK] = {}
            self._current_epoch: int | None = None
        elif self._passthrough:
            self._limit_tracker = (
                EpochTracker(self.window)
                if self.limit is not None and self.window is not None
                else None
            )
            self._limit_epoch: int | None = None
            self._emitted_in_epoch = 0
        else:
            self._sliding = SlidingRanking(self.limit, self.window)
            self._last_snapshot: list[Match] = []
            self._events_since_emit = 0
            self._last_emit_ts: float | None = None

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
        emit nothing *and* end in the same state.  Per mode:

        * pass-through: stateless between matches — always inert.
        * tumbling: inert only with no buffered epochs (an event in a later
          epoch closes buffered ones).
        * ranked EAGER: inert only when both the live set and the last
          snapshot are empty (expiry can shrink the ranking and trigger an
          eager delta emission).
        * ``EMIT EVERY``: never inert — the emission cadence counts every
          observed event (or reads its timestamp), so skipping one would
          shift all later snapshot points.
        """
        if self._passthrough:
            return True
        if self._tumbling:
            return not self._epoch_buffers
        if self.emit.kind is EmitKind.EAGER:
            return not self._sliding and not self._last_snapshot
        return False

    def observe(self, event: Event, matches: Sequence[Match]) -> list[Emission]:
        """Process one event's completions; return triggered emissions."""
        matches = self._score_all(matches)
        if self._tumbling:
            return self._observe_tumbling(event, matches)
        if self._passthrough:
            return self._observe_passthrough(event, matches)
        return self._observe_sliding(event, matches)

    def observe_final(
        self, matches: Sequence[Match], last_seq: int, last_ts: float
    ) -> list[Emission]:
        """Absorb matches confirmed at stream end, then flush.

        Pass-through mode emits the late-confirmed matches directly; the
        buffered modes fold them into the final rankings.
        """
        matches = self._score_all(matches)
        emissions: list[Emission] = []
        if self._passthrough:
            for match in matches:
                self._revision += 1
                emissions.append(
                    Emission(
                        kind=EmissionKind.MATCH,
                        ranking=[match],
                        at_seq=last_seq,
                        at_ts=last_ts,
                        revision=self._revision,
                    )
                )
        elif self._tumbling:
            for match in matches:
                epoch = self._epoch_tracker.epoch_of_point(
                    match.last_seq, match.last_ts
                )
                buffer = self._epoch_buffers.get(epoch)
                if buffer is None:
                    buffer = EpochTopK(self.limit)
                    self._epoch_buffers[epoch] = buffer
                buffer.insert(match)
        else:
            for match in matches:
                self._sliding.insert(match)
        emissions.extend(self.flush(last_seq, last_ts))
        return emissions

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

    def _record_rank(self, tracer: Tracer, match: Match) -> None:
        tracer.record(
            _RANK,
            match.last_seq,
            match.last_ts,
            self.analyzed.name,
            partition=match.partition_key,
            detection_index=match.detection_index,
            rank_values=match.rank_values,
        )

    def tick(
        self, matches: Sequence[Match], seq: int, timestamp: float
    ) -> list[Emission]:
        """Heartbeat at ``timestamp``: absorb late-confirmed matches and
        release whatever time-based scopes are now due.

        Only time-driven scopes react (time-window tumbling epochs close,
        time-periodic snapshots fire, sliding expiry by time runs);
        count-based scopes need events to advance.
        """
        matches = self._score_all(matches)
        emissions: list[Emission] = []
        if self._tumbling:
            for match in matches:
                epoch = self._epoch_tracker.epoch_of_point(
                    match.last_seq, match.last_ts
                )
                buffer = self._epoch_buffers.get(epoch)
                if buffer is None:
                    buffer = EpochTopK(self.limit)
                    self._epoch_buffers[epoch] = buffer
                buffer.insert(match)
            if self.window is not None and self.window.kind is WindowKind.TIME:
                now_epoch = self._epoch_tracker.epoch_of_point(seq, timestamp)
                for epoch in sorted(
                    e for e in self._epoch_buffers if e < now_epoch
                ):
                    emissions.append(
                        self._close_epoch(epoch, seq, timestamp, final=False)
                    )
            return emissions
        if self._passthrough:
            for match in matches:
                self._revision += 1
                emissions.append(
                    Emission(
                        kind=EmissionKind.MATCH,
                        ranking=[match],
                        at_seq=seq,
                        at_ts=timestamp,
                        revision=self._revision,
                    )
                )
            return emissions
        # sliding scopes: expire by time, then check time-driven policies
        if self.window is not None and self.window.kind is WindowKind.TIME:
            self._sliding.expire(seq, timestamp)
        for match in matches:
            self._sliding.insert(match)
        if self.emit.kind is EmitKind.EAGER:
            ranking = self._sliding.ranking()
            if [m.detection_index for m in ranking] != [
                m.detection_index for m in self._last_snapshot
            ]:
                snapshot = self._make_snapshot(
                    EmissionKind.EAGER, ranking, seq, timestamp
                )
                if snapshot is not None:
                    emissions.append(snapshot)
            return emissions
        if (
            self.emit.period_kind is WindowKind.TIME
            and self._last_emit_ts is not None
            and timestamp - self._last_emit_ts >= (self.emit.period or 0)
        ):
            self._last_emit_ts = timestamp
            snapshot = self._make_snapshot(
                EmissionKind.PERIODIC, self._sliding.ranking(), seq, timestamp
            )
            if snapshot is not None:
                emissions.append(snapshot)
        return emissions

    def flush(self, last_seq: int, last_ts: float) -> list[Emission]:
        """Stream end: release whatever the policy still holds."""
        if self._tumbling:
            emissions = []
            for epoch in sorted(self._epoch_buffers):
                emissions.append(
                    self._close_epoch(epoch, last_seq, last_ts, final=True)
                )
            self._epoch_buffers.clear()
            return emissions
        if self._passthrough:
            return []
        ranking = self._sliding.ranking()
        if not ranking:
            return []
        emission = self._make_snapshot(
            EmissionKind.FINAL, ranking, last_seq, last_ts
        )
        return [emission] if emission is not None else []

    def open_epochs(self) -> tuple[int, ...]:
        """Tumbling epochs still buffered (not yet released), ascending.

        The sharded runtime's merge stage uses this at barrier points to
        know which epochs a shard may still contribute matches to; other
        emission modes always return ``()``.
        """
        if not self._tumbling:
            return ()
        return tuple(sorted(self._epoch_buffers))

    def kth_bound_for_epoch(self, epoch: int) -> tuple | None:
        """The pruning bound for runs completing in ``epoch``.

        Only tumbling mode has a sound bound (DESIGN.md), and a run may
        only be compared against the k-th score of the epoch it will
        complete in — a fresh epoch has no bound yet, so runs created at an
        epoch boundary are never pruned against the previous epoch's heap.
        Other modes return ``None``, which disables pruning.
        """
        if not self._tumbling:
            return None
        buffer = self._epoch_buffers.get(epoch)
        if buffer is None:
            return None
        return buffer.kth_key()

    # -- checkpointing --------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe snapshot of the emission state machine.

        Matches are stored without their scores (see
        :mod:`repro.engine.snapshot`); :meth:`restore` re-scores them,
        which is deterministic because scores are pure functions of the
        bindings.
        """
        from repro.engine.snapshot import encode_match

        state: dict = {
            "revision": self._revision,
            "scoring_errors": self.scoring_errors,
        }
        if self._tumbling:
            state["mode"] = "tumbling"
            state["current_epoch"] = self._current_epoch
            state["epochs"] = {
                str(epoch): {
                    "matches": [encode_match(m) for m in buffer.ranking()],
                    "discarded": buffer.discarded,
                }
                for epoch, buffer in self._epoch_buffers.items()
            }
        elif self._passthrough:
            state["mode"] = "passthrough"
            state["limit_epoch"] = self._limit_epoch
            state["emitted_in_epoch"] = self._emitted_in_epoch
        else:
            state["mode"] = "sliding"
            state["live"] = [encode_match(m) for m in self._sliding]
            state["expired"] = self._sliding.expired
            state["last_snapshot"] = [
                encode_match(m) for m in self._last_snapshot
            ]
            state["events_since_emit"] = self._events_since_emit
            state["last_emit_ts"] = self._last_emit_ts
        return state

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (freshly constructed) ranker."""
        from repro.engine.snapshot import SnapshotFormatError, decode_match

        mode = (
            "tumbling"
            if self._tumbling
            else "passthrough" if self._passthrough else "sliding"
        )
        if state.get("mode") != mode:
            raise SnapshotFormatError(
                f"ranker mode mismatch: snapshot is {state.get('mode')!r}, "
                f"query needs {mode!r}"
            )

        def rescore(item: dict) -> Match:
            return self.scorer.score(decode_match(item))

        self._revision = int(state["revision"])
        self.scoring_errors = int(state["scoring_errors"])
        if self._tumbling:
            self._current_epoch = state["current_epoch"]
            self._epoch_buffers = {}
            for key, item in state["epochs"].items():
                buffer = EpochTopK(self.limit)
                # Stored best-first and within capacity, so re-inserting
                # cannot evict; the discard count carries over verbatim.
                for encoded in item["matches"]:
                    buffer.insert(rescore(encoded))
                buffer.discarded = int(item["discarded"])
                self._epoch_buffers[int(key)] = buffer
        elif self._passthrough:
            self._limit_epoch = state["limit_epoch"]
            self._emitted_in_epoch = int(state["emitted_in_epoch"])
        else:
            self._sliding = SlidingRanking(self.limit, self.window)
            for encoded in state["live"]:
                self._sliding.insert(rescore(encoded))
            self._sliding.expired = int(state["expired"])
            self._last_snapshot = [
                rescore(encoded) for encoded in state["last_snapshot"]
            ]
            self._events_since_emit = int(state["events_since_emit"])
            self._last_emit_ts = state["last_emit_ts"]

    # -- tumbling -------------------------------------------------------------------

    def _observe_tumbling(
        self, event: Event, matches: Sequence[Match]
    ) -> list[Emission]:
        for match in matches:
            epoch = self._epoch_tracker.epoch_of_point(match.last_seq, match.last_ts)
            buffer = self._epoch_buffers.get(epoch)
            if buffer is None:
                buffer = EpochTopK(self.limit)
                self._epoch_buffers[epoch] = buffer
            buffer.insert(match)

        event_epoch = self._epoch_tracker.epoch_of(event)
        emissions: list[Emission] = []
        for epoch in sorted(e for e in self._epoch_buffers if e < event_epoch):
            emissions.append(
                self._close_epoch(epoch, event.seq, event.timestamp, final=False)
            )
        self._current_epoch = event_epoch
        return emissions

    def _close_epoch(
        self, epoch: int, at_seq: int, at_ts: float, final: bool
    ) -> Emission:
        buffer = self._epoch_buffers.pop(epoch)
        self._revision += 1
        return Emission(
            kind=EmissionKind.WINDOW_CLOSE,
            ranking=buffer.ranking(),
            at_seq=at_seq,
            at_ts=at_ts,
            epoch=epoch,
            revision=self._revision,
        )

    # -- pass-through (unranked EAGER) -------------------------------------------------

    def _observe_passthrough(
        self, event: Event, matches: Sequence[Match]
    ) -> list[Emission]:
        emissions: list[Emission] = []
        if self._limit_tracker is not None:
            epoch = self._limit_tracker.epoch_of(event)
            if epoch != self._limit_epoch:
                self._limit_epoch = epoch
                self._emitted_in_epoch = 0
        for match in matches:
            if self.limit is not None and self._limit_tracker is not None:
                if self._emitted_in_epoch >= self.limit:
                    continue
                self._emitted_in_epoch += 1
            self._revision += 1
            emissions.append(
                Emission(
                    kind=EmissionKind.MATCH,
                    ranking=[match],
                    at_seq=event.seq,
                    at_ts=event.timestamp,
                    revision=self._revision,
                )
            )
        return emissions

    # -- sliding (EVERY / ranked EAGER) --------------------------------------------------

    def _observe_sliding(
        self, event: Event, matches: Sequence[Match]
    ) -> list[Emission]:
        self._sliding.expire(event.seq, event.timestamp)
        for match in matches:
            self._sliding.insert(match)

        if self.emit.kind is EmitKind.EAGER:
            ranking = self._sliding.ranking()
            if [m.detection_index for m in ranking] == [
                m.detection_index for m in self._last_snapshot
            ]:
                return []
            emission = self._make_snapshot(
                EmissionKind.EAGER, ranking, event.seq, event.timestamp
            )
            return [emission] if emission is not None else []

        # EMIT EVERY n EVENTS / t <unit>
        assert self.emit.period is not None
        due = False
        if self.emit.period_kind is WindowKind.COUNT:
            self._events_since_emit += 1
            if self._events_since_emit >= int(self.emit.period):
                due = True
                self._events_since_emit = 0
        else:
            if self._last_emit_ts is None:
                self._last_emit_ts = event.timestamp
            elif event.timestamp - self._last_emit_ts >= self.emit.period:
                due = True
                self._last_emit_ts = event.timestamp
        if not due:
            return []
        emission = self._make_snapshot(
            EmissionKind.PERIODIC, self._sliding.ranking(), event.seq, event.timestamp
        )
        return [emission] if emission is not None else []

    def _make_snapshot(
        self,
        kind: EmissionKind,
        ranking: list[Match],
        at_seq: int,
        at_ts: float,
    ) -> Emission | None:
        entered, exited = snapshot_delta(self._last_snapshot, ranking)
        self._last_snapshot = ranking
        self._revision += 1
        return Emission(
            kind=kind,
            ranking=ranking,
            at_seq=at_seq,
            at_ts=at_ts,
            revision=self._revision,
            entered=entered,
            exited=exited,
        )
