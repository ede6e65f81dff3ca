"""The *match-then-rank* baseline.

This is what you get by bolting ranking onto an existing CEP engine: run
classical pattern matching, materialise **every** match of the scope, sort
the full list when results are due, cut to k.  It shares CEPR's matcher
(same automaton, same semantics, no pruning, no bounded top-k), so any
performance difference against the integrated ranker isolates the ranking
algorithms themselves.

Answer-equivalence with the integrated path (same matches, same order) is
a correctness property the test suite checks; the benchmarks (E2) measure
the cost gap as windows grow.
"""

from __future__ import annotations

from repro.engine.compiler import compile_automaton
from repro.engine.match import Match
from repro.engine.matcher import PatternMatcher
from repro.engine.windows import EpochTracker
from repro.events.event import Event
from repro.events.schema import SchemaRegistry
from repro.language.ast_nodes import EmitKind, Query
from repro.language.errors import CEPRSemanticError
from repro.language.parser import parse_query
from repro.language.semantics import analyze
from repro.ranking.emission import Emission, EmissionKind
from repro.ranking.score import Scorer


class MatchThenRankQuery:
    """Tumbling-epoch ranked query answered by materialise-sort-cut."""

    def __init__(
        self,
        query: str | Query,
        registry: SchemaRegistry | None = None,
        name: str = "match-then-rank",
    ) -> None:
        ast = parse_query(query) if isinstance(query, str) else query
        self.analyzed = analyze(ast, registry)
        if self.analyzed.emit.kind is not EmitKind.ON_WINDOW_CLOSE:
            raise CEPRSemanticError(
                "the match-then-rank baseline implements tumbling emission "
                "(EMIT ON WINDOW CLOSE) only"
            )
        self.name = name
        self.automaton = compile_automaton(self.analyzed)
        self.scorer = Scorer(self.analyzed.rank_keys)
        self.matcher = PatternMatcher(
            self.automaton, prune_hook=None, tumbling=True, query_name=name
        )
        assert self.analyzed.window is not None
        self._epochs = EpochTracker(self.analyzed.window)
        self._buffers: dict[int, list[Match]] = {}
        self._revision = 0
        self._last_seq = -1
        self._last_ts = 0.0
        self.emissions: list[Emission] = []
        #: total matches materialised (the cost the integrated path avoids).
        self.matches_buffered = 0

    def process(self, event: Event) -> list[Emission]:
        self._last_seq = event.seq
        self._last_ts = event.timestamp
        self._buffer(self.matcher.process(event))
        event_epoch = self._epochs.epoch_of(event)
        out: list[Emission] = []
        for epoch in sorted(e for e in self._buffers if e < event_epoch):
            out.append(self._close_epoch(epoch, event.seq, event.timestamp))
        self.emissions.extend(out)
        return out

    def flush(self) -> list[Emission]:
        self._buffer(self.matcher.flush())
        out = [
            self._close_epoch(epoch, self._last_seq, self._last_ts)
            for epoch in sorted(self._buffers)
        ]
        self.emissions.extend(out)
        return out

    def _buffer(self, matches: list[Match]) -> None:
        """Score each match and keep it in the buffer of its epoch."""
        for match in matches:
            self.scorer.score(match)
            epoch = self._epochs.epoch_of_point(match.last_seq, match.last_ts)
            self._buffers.setdefault(epoch, []).append(match)
            self.matches_buffered += 1

    def run(self, events) -> list[Emission]:
        """Convenience: sequence, process, and flush a whole stream."""
        from repro.events.time import SequenceAssigner

        assigner = SequenceAssigner()
        for event in events:
            if event.seq < 0:
                assigner.assign(event)
            self.process(event)
        self.flush()
        return self.emissions

    def _close_epoch(self, epoch: int, at_seq: int, at_ts: float) -> Emission:
        buffered = self._buffers.pop(epoch)
        buffered.sort(key=Match.sort_key)  # the full sort CEPR avoids
        if self.analyzed.limit is not None:
            buffered = buffered[: self.analyzed.limit]
        self._revision += 1
        return Emission(
            kind=EmissionKind.WINDOW_CLOSE,
            ranking=buffered,
            at_seq=at_seq,
            at_ts=at_ts,
            epoch=epoch,
            revision=self._revision,
        )
