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

The bound is compiled once per query, one closure per run *shape* — the
``(stage, kleene_open)`` point a run is at fixes which variables are bound,
which are open and which Kleene variable has observed elements — when a
run at that shape is first offered, so an attempt reads the run's
bindings and O(1) aggregate states directly: a bound singleton
contributes its exact value, an open variable its schema domain, a Kleene
aggregate its :class:`~repro.engine.aggregates.AggregateState` (counts
capped by the window).  Past the leaves the
closures apply the interval functions of :mod:`repro.language.intervals`,
whose :class:`~repro.language.intervals.IntervalEvaluator` stays the
reference: the compiled bound may be looser than it, never tighter
(CEPRSan's ``score-bound`` check compares the two on every call).

A shape whose optimistic end is one value for every run (literals and
domains only, or an open ``max(V.a) DESC`` / ``min(V.a) ASC``) never
prunes: every match of a ``SEQ`` passes through it, so no real θ is
better.  The matcher does not offer its runs (:attr:`ScoreBoundPruner.
fixed_shapes`), so its bound is compiled only if a shed probe or CEPRSan
asks.

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

import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.nfa import PatternAutomaton
from repro.engine.runs import Run
from repro.engine.windows import EpochTracker
from repro.events.event import Event
from repro.events.schema import Domain
from repro.language.ast_nodes import (
    Aggregate,
    AttrRef,
    Binary,
    Direction,
    Expr,
    FuncCall,
    Literal,
    Unary,
    UnaryOp,
    VarRef,
    WindowKind,
    iter_subexpressions,
)
from repro.language.intervals import (
    ARITHMETIC,
    NUMERIC_FUNCTIONS,
    Interval,
    bound_aggregate,
    bound_arithmetic,
    bound_count,
    bound_duration,
    bound_function,
    numeric_exact,
)
from repro.language.semantics import AnalyzedQuery, CompiledRankKey, Reads
from repro.ranking.keys import normalise_bound

#: Supplies the k-th retained (normalised) sort key of one tumbling epoch,
#: or ``None`` when that epoch's heap is absent or not yet full.
BoundProvider = Callable[[int], tuple[Any, ...] | None]
DomainLookup = Callable[[str, str], Domain | None]
#: one run shape's compiled bound: ``(run, latest_ts) -> Interval | None``.
ShapeBound = Callable[[Run, float], Interval | None]

_EPSILON = sys.float_info.epsilon


@dataclass
class PruningStats:
    """Book-keeping for the pruning experiments (E3).

    Every attempt lands in exactly one of the last four counters.
    """

    attempts: int = 0
    pruned: int = 0
    no_bound_available: int = 0  # heap not full yet
    unbounded_expression: int = 0  # no numeric bound: domain, string key, ...
    kept: int = 0  # bounded, and the bound can still reach the top k

    @property
    def prune_rate(self) -> float:
        return self.pruned / self.attempts if self.attempts else 0.0


class ScoreBoundPruner:
    """The prune hook installed into the matcher (see module docs)."""

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        automaton: PatternAutomaton,
        reads: Reads,
        bound_provider: BoundProvider,
    ) -> None:
        if not analyzed.rank_keys:
            raise ValueError("score-bound pruning requires a RANK BY clause")
        if analyzed.window is None:
            raise ValueError("score-bound pruning requires a WITHIN window")
        self.primary = analyzed.rank_keys[0]
        registry = reads.registry
        self.domain_of: DomainLookup = (
            registry.domain_of if registry is not None else lambda _t, _a: None
        )
        self.bound_provider = bound_provider
        self.stats = PruningStats()
        # In tumbling mode runs never cross epoch boundaries, so a run
        # completes (if ever) in the epoch of its first event — that epoch's
        # heap is the only sound pruning reference.
        self._epochs = EpochTracker(analyzed.window)
        self._optimistic_is_lo = self.primary.direction is Direction.ASC
        self._automaton, self._reads = automaton, reads
        #: per shape, its bound once compiled (``None``: unbounded)
        self._bounds: dict[tuple[int, bool], ShapeBound | None] = {}
        self.fixed_shapes = _fixed_shapes(self.primary, automaton, reads)

    def __call__(self, run: Run, event: Event, epoch: int | None = None) -> bool:
        """``True`` ⇒ the matcher discards this partial run.

        ``epoch`` is the one the matcher placed ``event`` in.  It is the
        run's own whenever the run began no later than ``event``: the
        matcher has just expired every run begun in an earlier epoch, and
        epochs do not decrease along the axis.  A run begun later (an
        out-of-order timestamp) has its epoch computed.
        """
        stats = self.stats
        stats.attempts += 1
        if (
            epoch is None
            or run.first_seq > event.seq
            or run.first_ts > event.timestamp
        ):
            epoch = self._epochs.epoch_of_point(run.first_seq, run.first_ts)
        headroom = self._headroom(epoch, run, event.timestamp)
        if headroom is None:
            return False
        if headroom > 0:
            stats.pruned += 1
            return True
        stats.kept += 1
        return False

    def event_headroom(
        self, run: Run, event: Event, seq: int | None = None
    ) -> float | None:
        """Normalised slack between ``run``'s best possible primary key and
        the k-th retained key of the epoch ``event`` lands in.

        The shedding controller's classifier calls this with a hypothetical
        stage-0 run: a **positive** value proves no completion of that run
        could strictly beat the current k-th (the same strict comparison
        :meth:`__call__` uses, so ties that could still win on secondary
        keys are never certified).  ``None`` means no usable bound exists
        (heap not full, non-numeric primary, or an unbounded expression).
        ``seq`` overrides the event's own sequence number for count-window
        epoch placement when the event has not been sequenced yet.  Probes
        count in no :class:`PruningStats` bucket.
        """
        point_seq = event.seq if seq is None else seq
        epoch = self._epochs.epoch_of_point(point_seq, event.timestamp)
        return self._headroom(epoch, run, event.timestamp, probe=True)

    def _headroom(
        self, epoch: int, run: Run, latest_ts: float, probe: bool = False
    ) -> float | None:
        """``best_possible - kth_primary``, or ``None`` with no usable bound.

        Normalised keys sort ascending-is-better, so a positive headroom
        means the run is strictly worse than the k-th retained score no
        matter how it completes.  Outside a probe, a ``None`` answer is
        booked here in the bucket that explains it.
        """
        kth = self.bound_provider(epoch)
        if kth is None:
            if not probe:
                self.stats.no_bound_available += 1
            return None
        kth_primary = kth[0]
        best = None
        if not isinstance(kth_primary, bool) and isinstance(kth_primary, (int, float)):
            best = self._optimistic(run, latest_ts)
        if best is None:  # string-keyed primary, or no finite reasoning
            if not probe:
                self.stats.unbounded_expression += 1
            return None
        return best - kth_primary

    def _optimistic(self, run: Run, latest_ts: float) -> float | None:
        """The best normalised primary key any completion of ``run`` can
        reach, from its shape's compiled bound (``None``: unbounded)."""
        shape = (run.stage, run.kleene_open)
        try:
            bound = self._bounds[shape]
        except KeyError:
            compiled = _Shape(self._automaton, self._reads, *shape).compile(self.primary.expr)
            bound = self._bounds[shape] = compiled
        interval = bound(run, latest_ts) if bound is not None else None
        if interval is None:
            return None
        raw = interval.lo if self._optimistic_is_lo else interval.hi
        return normalise_bound(raw, self.primary.direction)


# -- compilation --------------------------------------------------------------------


def _fixed_shapes(
    primary: CompiledRankKey, automaton: PatternAutomaton, reads: Reads
) -> frozenset[tuple[int, bool]]:
    """The ``(stage, kleene_open)`` shapes a kept run can be at whose
    optimistic end is fixed (no run is kept awaiting stage 0)."""
    expr, hi = primary.expr, primary.direction is Direction.DESC
    return frozenset(
        (stage.index, kleene_open)
        for stage in automaton.stages
        for kleene_open in ((False, True) if stage.is_kleene else (False,))
        if (stage.index or kleene_open)
        and _Shape(automaton, reads, stage.index, kleene_open).fixed(expr, hi)
    )


def _constant(value: Interval | None) -> ShapeBound | None:
    """A compile-time bound; ``None`` when it is unbounded (no closure)."""
    if value is None:
        return None
    return lambda run, ts: value


class _Shape:
    """Everything known about a run at one ``(stage, kleene_open)`` point.

    Mirrors ``Run.partial_view``: variables of earlier stages are bound,
    the current stage's and later ones are open, and an open Kleene
    current stage has observed elements.
    """

    def __init__(
        self,
        automaton: PatternAutomaton,
        reads: Reads,
        stage: int,
        kleene_open: bool,
    ) -> None:
        stages = automaton.stages
        self.kleene_vars = automaton.kleene_vars
        self.bound = {s.variable.name for s in stages[:stage]}
        self.open = {s.variable.name for s in stages[stage:]}
        self.observed = set(self.bound)
        if kleene_open:
            self.observed.add(stages[stage].variable.name)
        window = automaton.window
        count_window = window is not None and window.kind is WindowKind.COUNT
        self.max_count = int(window.span) if window is not None and count_window else None
        self.max_duration = window.span if window is not None and not count_window else None
        self.reads = reads

    def _domain(self, var: str, attr: str) -> Interval | None:
        spec = self.reads.attribute(var, attr)
        domain = spec.domain if spec is not None else None
        return Interval.from_domain(domain) if domain is not None else None

    def _validated_numeric(self, var: str, attr: str) -> bool:
        """Whether every observed element carries a numeric ``attr`` —
        which the aggregate states assume, skipping anything else."""
        spec = self.reads.declared(var, attr)
        return spec is not None and spec.dtype in ("int", "float")

    def fixed(self, expr: Expr, hi: bool) -> bool:
        """Whether ``expr`` has a bound at this shape whose ``hi`` (else
        ``lo``) end is one value for every run."""
        if isinstance(expr, Aggregate) and expr.var in self.open and expr.var in self.observed:
            # an open max's hi (min's lo) is its validated domain's
            return (
                expr.func == ("max" if hi else "min")
                and self._validated_numeric(expr.var, expr.attr or "")
                and self._domain(expr.var, expr.attr or "") is not None
            )
        return not any(  # else: constant, when no leaf reads the run, and bounded
            isinstance(node, FuncCall) and node.name in ("duration", "timestamp", "ts")
            or isinstance(node, AttrRef) and node.var in self.bound
            or isinstance(node, Aggregate) and node.var in self.observed
            for node in iter_subexpressions(expr)
        ) and self.compile(expr) is not None

    def compile(self, expr: Expr) -> ShapeBound | None:
        """The bound of ``expr`` over this shape's completions (``None``:
        unbounded for every run of the shape)."""
        if isinstance(expr, Literal):
            return _constant(numeric_exact(expr.value))
        if isinstance(expr, AttrRef):
            return self._attr(expr.var, expr.attr)
        if isinstance(expr, Aggregate):
            return self._aggregate(expr)
        if isinstance(expr, FuncCall):
            return self._func(expr)
        if isinstance(expr, Binary) and expr.op in ARITHMETIC:
            left, right = self.compile(expr.left), self.compile(expr.right)
            if left is None or right is None:
                return None
            op = expr.op

            def arithmetic(run: Run, ts: float) -> Interval | None:
                a = left(run, ts)
                if a is None:
                    return None
                b = right(run, ts)
                return bound_arithmetic(op, a, b) if b is not None else None

            return arithmetic
        if isinstance(expr, Unary) and expr.op is UnaryOp.NEG:
            inner = self.compile(expr.operand)
            if inner is None:
                return None

            def negated(run: Run, ts: float) -> Interval | None:
                value = inner(run, ts)
                return -value if value is not None else None

            return negated
        return None  # boolean-valued, MOD, prev(), bare variables

    def _attr(self, var: str, attr: str) -> ShapeBound | None:
        if var in self.kleene_vars:
            return None  # per-element value: no single bound
        if var not in self.bound:
            return _constant(self._domain(var, attr))
        return lambda run, ts: numeric_exact(run.bindings[var].get(attr))

    def _aggregate(self, expr: Aggregate) -> ShapeBound | None:
        var, func, attr = expr.var, expr.func, expr.attr
        is_open = var in self.open
        cap = self.max_count
        if var not in self.observed:
            count = bound_count(0, is_open, cap)
            if func in ("count", "len"):
                return _constant(count)
            assert attr is not None
            return _constant(
                bound_aggregate(func, None, self._domain(var, attr), is_open, count)
            )
        if var not in self.kleene_vars:
            return None  # an aggregate over a bound singleton: left unbounded
        if func in ("count", "len"):
            return lambda run, ts: bound_count(len(run.bindings[var]), is_open, cap)
        assert attr is not None
        if not self._validated_numeric(var, attr):
            return None
        domain = self._domain(var, attr)

        def kleene(run: Run, ts: float) -> Interval | None:
            state = run.agg_states.get(var)
            if state is None:
                return None  # not tracked (the aggregate ablation)
            agg = state.attrs.get(attr)
            if agg is None or agg.minimum is None or agg.total is None:
                return None  # no element yet, or an int past a float's range
            n = state.count
            try:
                lo, hi = float(agg.minimum), float(agg.maximum)
                first, last = float(agg.first), float(agg.last)
            except OverflowError:
                return None
            count = bound_count(n, is_open, cap)
            if func not in ("sum", "avg"):
                observed = (n, agg.total, lo, hi, first, last)
                return bound_aggregate(func, observed, domain, is_open, count)
            # The scorer's sum() may round the same values differently from
            # this running total (compensated summation since Python 3.12):
            # widen by a bound on that difference — looser, never tighter.
            slack = (n + 1) * n * _EPSILON * max(abs(lo), abs(hi))
            low, high = (
                bound_aggregate(
                    func, (n, agg.total + d, lo, hi, first, last), domain, is_open, count
                )
                for d in (-slack, slack)
            )
            if low is None or high is None:
                return None
            return Interval(low.lo, high.hi)

        return kleene

    def _func(self, expr: FuncCall) -> ShapeBound | None:
        name = expr.name
        if name == "duration":
            cap = self.max_duration
            return lambda run, ts: bound_duration(run.last_ts - run.first_ts, cap)
        if name in ("timestamp", "ts"):
            arg = expr.args[0]
            if not isinstance(arg, VarRef):
                return None
            var = arg.var
            if var in self.bound and var not in self.kleene_vars:
                return lambda run, ts: Interval.exact(run.bindings[var].timestamp)
            return lambda run, ts: Interval(ts, float("inf"))
        if name not in NUMERIC_FUNCTIONS:
            return None
        compiled = [bound for bound in map(self.compile, expr.args) if bound is not None]
        if len(compiled) != len(expr.args):
            return None

        def function(run: Run, ts: float) -> Interval | None:
            values = []
            for arg in compiled:
                value = arg(run, ts)
                if value is None:
                    return None
                values.append(value)
            return bound_function(name, values)

        return function
