"""Compile an analysed query into a :class:`~repro.engine.nfa.PatternAutomaton`.

Besides the stage-chain compiler, this module owns **hot-path edge
compilation** (:func:`compile_edges`): for every NFA edge the per-spec
interpreter loop — run reader or context evaluation, context
construction, lenient error accounting — is fused into one closure built
once per matcher.  The matcher then dispatches a single call per edge
check instead of re-deciding the routing per predicate per event: a total
predicate is its run reader, and the
:class:`~repro.language.expressions.EvalContext` the others need is
materialised at most once per edge check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.aggregates import needed_aggregates
from repro.engine.nfa import PatternAutomaton, Stage
from repro.engine.runs import Run
from repro.events.event import Event
from repro.language.ast_nodes import Expr, split_conjuncts
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext, evaluate_predicate
from repro.language.semantics import AnalyzedQuery, PredicateSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.matcher import PatternMatcher
    from repro.runtime.router import SharedExecutionIndex


def compile_automaton(analyzed: AnalyzedQuery) -> PatternAutomaton:
    """Build the stage chain and predicate attachments for ``analyzed``."""
    stages: list[Stage] = []
    for info in analyzed.positives:
        assigned = analyzed.predicates_at.get(info.name, [])
        bind = tuple(p for p in assigned if not p.incremental)
        incremental = tuple(p for p in assigned if p.incremental)
        if info.is_kleene and bind:
            # Semantic analysis never anchors non-incremental predicates at
            # a Kleene variable; guard against regressions loudly.
            raise AssertionError(
                f"non-incremental predicate anchored at Kleene variable {info.name!r}"
            )
        stages.append(
            Stage(
                index=info.position,
                variable=info,
                bind_predicates=bind,
                incremental_predicates=incremental,
            )
        )

    exprs: list[Expr] = []
    exprs.extend(split_conjuncts(analyzed.ast.where))
    exprs.extend(key.expr for key in analyzed.rank_keys)
    aggregates = needed_aggregates(exprs)

    return PatternAutomaton(
        stages=tuple(stages),
        negations=tuple(analyzed.negations),
        completion_predicates=tuple(analyzed.completion_predicates),
        window=analyzed.window,
        strategy=analyzed.strategy,
        partition_by=analyzed.partition_by,
        var_types={v.name: v.event_type for v in analyzed.positives},
        kleene_vars=analyzed.kleene_variable_names(),
        needed_aggregates=aggregates,
        analyzed=analyzed,
    )


# ---------------------------------------------------------------------------
# hot-path edge compilation
# ---------------------------------------------------------------------------

#: fused guard over one edge's predicate chain: ``check(run, event)``.
GuardCheck = Callable[[Run, Event], bool]


@dataclass(frozen=True)
class CompiledEdges:
    """Per-matcher fused evaluators, one closure per NFA edge.

    ``bind``/``kleene`` are indexed by stage index; ``negation`` maps
    ``id(negation_spec)`` (the specs are interned on the automaton for the
    matcher's lifetime) to the fused guard over its predicates.  Closures
    read ``matcher.stats`` through the matcher attribute on every call, so
    a checkpoint restore — which replaces the stats object wholesale —
    needs no recompilation hook.
    """

    bind: tuple[GuardCheck, ...]
    kleene: tuple[GuardCheck, ...]
    gate0: Callable[[Event], bool]
    negation: dict[int, GuardCheck]
    completion: Callable[[Run], bool]


def _always_true(run: Run, event: Event) -> bool:
    return True


def _fuse_guard(
    specs: Sequence[PredicateSpec],
    variable: str | None,
    matcher: "PatternMatcher",
    lenient: bool,
) -> GuardCheck:
    """Fuse one edge's anchored-predicate loop into a single closure.

    Per spec, in order: a total predicate is its run reader
    (:func:`~repro.language.semantics.run_readers`), which raises no
    evaluation error — only ``LookupError`` for an attribute the registry
    does not vouch for, and then the spec is evaluated as if it had no
    reader; everything else evaluates against one lazily built run
    context.  Short-circuits on the first failing predicate; under the
    lenient policy an evaluation error counts as a failed predicate and
    charges ``stats.evaluation_errors``.
    """
    if not specs:
        return _always_true
    plan = tuple(
        (matcher.readers.get(id(spec.expr), (None, ""))[0], spec.evaluator)
        for spec in specs
    )

    def check(run: Run, event: Event) -> bool:
        ctx: EvalContext | None = None
        for read, evaluator in plan:
            if read is not None:
                try:
                    if not read(run, event):
                        return False
                    continue
                except LookupError:  # absent or ill-typed: as if unread
                    pass
            try:
                if ctx is None:
                    ctx = run.context(current_var=variable, current_event=event)
                if not evaluate_predicate(evaluator, ctx):
                    return False
            except EvaluationError:
                if not lenient:
                    raise
                matcher.stats.evaluation_errors += 1
                return False
        return True

    return check


def _fuse_gate0(
    stage: Stage,
    matcher: "PatternMatcher",
    shared: "SharedExecutionIndex | None",
    lenient: bool,
) -> Callable[[Event], bool]:
    """Stage-0 acceptance check against an empty run: a stage-0 predicate
    reads nothing bound before it.  With sharing on, a dispatched event's
    verdict comes from the shared index's per-event gate memo."""
    guard = _fuse_guard(stage.gate_predicates, stage.variable.name, matcher, lenient)
    empty = Run(matcher.automaton, 0, {}, 0, 0, 0.0, 0.0)

    def gate_local(event: Event) -> bool:
        return guard(empty, event)

    if shared is None:
        return gate_local

    def gate(event: Event) -> bool:
        # Whole-gate memo: one verdict per (event, gate key) across queries.
        if shared.current_event is event:
            return shared.stage_gate(stage, matcher.stats, lenient)
        return gate_local(event)

    return gate


def _fuse_completion(
    specs: Sequence[PredicateSpec], matcher: "PatternMatcher", lenient: bool
) -> Callable[[Run], bool]:
    """Completion-predicate conjunction over one full run."""
    guard = _fuse_guard(specs, None, matcher, lenient)
    return lambda run: guard(run, None)  # type: ignore[arg-type]


def compile_edges(matcher: "PatternMatcher") -> CompiledEdges:
    """Build the fused per-edge closure table for one matcher.

    Built per matcher because the closures fold in per-query state: the
    run readers, the lenient-error policy, the stats object the error
    counters charge, and the engine's shared index, whose per-event gate
    memo the stage-0 gate consults.  With no readers (a matcher built
    outside a registration) every predicate evaluates against its context.
    """
    automaton = matcher.automaton
    lenient = matcher.lenient_errors
    return CompiledEdges(
        bind=tuple(
            _fuse_guard(stage.bind_predicates, stage.variable.name, matcher, lenient)
            for stage in automaton.stages
        ),
        kleene=tuple(
            _fuse_guard(stage.incremental_predicates, stage.variable.name, matcher, lenient)
            for stage in automaton.stages
        ),
        gate0=_fuse_gate0(automaton.stages[0], matcher, matcher.shared, lenient),
        negation={
            id(negation): _fuse_guard(
                negation.predicates, negation.element.variable, matcher, lenient
            )
            for negation in automaton.negations
        },
        completion=_fuse_completion(automaton.completion_predicates, matcher, lenient),
    )
