"""Score-bound pruning of partial runs — CEPR's ranking-aware optimisation.

The naive way to answer a ranked pattern query is *match-then-rank*: run a
classical CEP engine, materialise every match, sort, cut to k.  CEPR
instead integrates the top-k operator with the run manager: whenever the
matcher is about to keep a partial run, the :class:`ScoreBoundPruner`
bounds the best score any completion of that run could achieve (interval
arithmetic over the primary ``RANK BY`` expression, using exact values for
bound variables and schema-declared domains for unbound ones) and discards
the run if that optimistic bound is *strictly worse* than the current k-th
retained score.  Strictness keeps the optimisation exact: a run whose best
possible primary key merely ties the k-th could still win on a secondary
key or tie-breaking, so it is kept.

Soundness requires that the k-th score can only improve while the run is
alive, which holds in tumbling mode (``EMIT ON WINDOW CLOSE``): matches
only accumulate within an epoch, and runs never cross epoch boundaries.
Sliding scopes let good matches *expire*, which could resurrect a pruned
run's chances, so there the ranker's
:meth:`~repro.ranking.ranker.Ranker.kth_bound_for_epoch` returns ``None``
and pruning self-disables.  Within tumbling mode, a run is only compared
against the heap of the epoch it will complete in (the epoch of its first
event): runs born at an epoch boundary face an empty heap, never the
previous epoch's scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.runs import Run
from repro.engine.windows import EpochTracker
from repro.events.event import Event
from repro.events.schema import Domain, SchemaRegistry
from repro.language.ast_nodes import Direction
from repro.language.intervals import IntervalEvaluator
from repro.language.semantics import AnalyzedQuery
from repro.ranking.keys import normalise_bound

#: Supplies the k-th retained (normalised) sort key of one tumbling epoch,
#: or ``None`` when that epoch's heap is absent or not yet full.
BoundProvider = Callable[[int], tuple[Any, ...] | None]
DomainLookup = Callable[[str, str], Domain | None]


@dataclass
class PruningStats:
    """Book-keeping for the pruning experiments (E3)."""

    attempts: int = 0
    pruned: int = 0
    no_bound_available: int = 0  # heap not full yet
    unbounded_expression: int = 0  # interval evaluation returned None

    @property
    def prune_rate(self) -> float:
        return self.pruned / self.attempts if self.attempts else 0.0


class ScoreBoundPruner:
    """The prune hook installed into the matcher (see module docs)."""

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        domain_of: DomainLookup,
        bound_provider: BoundProvider,
    ) -> None:
        if not analyzed.rank_keys:
            raise ValueError("score-bound pruning requires a RANK BY clause")
        if analyzed.window is None:
            raise ValueError("score-bound pruning requires a WITHIN window")
        self.primary = analyzed.rank_keys[0]
        self.domain_of = domain_of
        self.bound_provider = bound_provider
        self.stats = PruningStats()
        # In tumbling mode runs never cross epoch boundaries, so a run
        # completes (if ever) in the epoch of its first event — that epoch's
        # heap is the only sound pruning reference.
        self._epochs = EpochTracker(analyzed.window)

    @classmethod
    def from_registry(
        cls,
        analyzed: AnalyzedQuery,
        registry: SchemaRegistry | None,
        bound_provider: BoundProvider,
    ) -> "ScoreBoundPruner":
        if registry is None:
            domain_of: DomainLookup = lambda _t, _a: None
        else:
            domain_of = registry.domain_of
        return cls(analyzed, domain_of, bound_provider)

    def __call__(self, run: Run, event: Event) -> bool:
        """``True`` ⇒ the matcher discards this partial run."""
        self.stats.attempts += 1
        run_epoch = self._epochs.epoch_of_point(run.first_seq, run.first_ts)
        status, headroom = self._headroom(run_epoch, run, event)
        if status == "no_bound":
            self.stats.no_bound_available += 1
            return False
        if status == "unbounded":
            self.stats.unbounded_expression += 1
            return False
        if status != "ok":
            return False
        assert headroom is not None
        if headroom > 0:
            self.stats.pruned += 1
            return True
        return False

    def event_headroom(
        self, run: Run, event: Event, seq: int | None = None
    ) -> float | None:
        """Normalised slack between ``run``'s best possible primary key and
        the k-th retained key of the epoch ``event`` lands in.

        The shedding controller calls this with a hypothetical stage-0 run
        to certify dropping ``event``: a **positive** value proves no
        completion of that run could strictly beat the current k-th (the
        same strict comparison :meth:`__call__` uses, so ties that could
        still win on secondary keys are never certified).  ``None`` means
        no usable bound exists (heap not full, non-numeric primary, or an
        unbounded expression) — the caller must keep the event.  ``seq``
        overrides the event's own sequence number for count-window epoch
        placement when the event has not been sequenced yet (the runner's
        pre-ingest sampling path); certification there is advisory only.
        """
        point_seq = event.seq if seq is None else seq
        epoch = self._epochs.epoch_of_point(point_seq, event.timestamp)
        status, headroom = self._headroom(epoch, run, event)
        return headroom if status == "ok" else None

    def _headroom(
        self, epoch: int, run: Run, event: Event
    ) -> tuple[str, float | None]:
        """Core bound evaluation: ``(status, best_possible - kth_primary)``.

        Normalised keys sort ascending-is-better, so a positive headroom
        means the run is strictly worse than the k-th retained score no
        matter how it completes.
        """
        kth = self.bound_provider(epoch)
        if kth is None:
            return "no_bound", None
        kth_primary = kth[0]
        if isinstance(kth_primary, bool) or not isinstance(kth_primary, (int, float)):
            return "non_numeric", None  # string-keyed: no interval reasoning

        view = run.partial_view(self.domain_of, event.timestamp)
        interval = IntervalEvaluator(view).bound(self.primary.expr)
        if interval is None:
            return "unbounded", None
        optimistic_raw = (
            interval.lo if self.primary.direction is Direction.ASC else interval.hi
        )
        best_possible = normalise_bound(optimistic_raw, self.primary.direction)
        return "ok", best_possible - kth_primary
