"""Query plan explanation.

``explain(automaton)`` renders the compiled evaluation plan of a query as
readable text: the stage chain with every pushed-down predicate at its
evaluation point, negation guards, completion predicates, ranking keys,
window/strategy/emission configuration, whether each WHERE conjunct and
``RANK BY`` key reads the run directly (or why the context evaluator
reads it), and where ranking-aware execution acts: whether score-bound
pruning is eligible and at which run shapes its optimum is fixed, and
whether the completing-edge cut and run dominance are active (or the
first condition each fails).  Exposed as ``RegisteredQuery.explain()``
and used by the demo tooling —
understanding *where* a predicate runs is the difference between a query
that scales and one that does not.
"""

from __future__ import annotations

from repro.engine.nfa import PatternAutomaton
from repro.language.ast_nodes import EmitKind, Expr, WindowKind
from repro.language.printer import format_expr
from repro.language.semantics import AnalyzedQuery, Readers, RunDominance


def explain(
    automaton: PatternAutomaton,
    pruning_enabled: bool = False,
    cut_status: str | None = None,
    dominance_status: str | None = None,
    fixed_shapes: frozenset[tuple[int, bool]] = frozenset(),
    dominance: RunDominance | None = None,
    readers: Readers | None = None,
) -> str:
    """Render the evaluation plan of a compiled query.

    ``cut_status`` and ``dominance_status`` are the completing-edge cut's
    and run dominance's verdicts (``"active"`` or the first condition that
    fails, see :func:`~repro.language.semantics.completion_cut` and
    :func:`~repro.language.semantics.run_dominance`), ``dominance`` its
    armed form; ``fixed_shapes`` are the pruner's fixed-optimum ones;
    ``readers`` the query's :func:`~repro.language.semantics.run_readers`.
    """
    analyzed = automaton.analyzed

    def how(expr: Expr) -> str:
        read, why = (readers or {}).get(id(expr), (None, ""))
        return f"  [{why if read else f'context evaluator: {why}'}]" if why else ""

    lines: list[str] = ["evaluation plan:"]

    lines.append(f"  strategy: {automaton.strategy.value}")
    lines.append(f"  window:   {_describe_window(automaton)}")
    if automaton.partition_by:
        lines.append(f"  partition by: {', '.join(automaton.partition_by)}")

    lines.append("  stages:")
    for stage in automaton.stages:
        kind = "kleene+" if stage.is_kleene else "singleton"
        lines.append(
            f"    [{stage.index}] {stage.event_type} {stage.variable.name} ({kind})"
        )
        for predicate in stage.bind_predicates:
            lines.append(f"          on bind: {format_expr(predicate.expr)}{how(predicate.expr)}")
        for predicate in stage.incremental_predicates:
            lines.append(f"          per element: {format_expr(predicate.expr)}{how(predicate.expr)}")

    for negation in automaton.negations:
        element = negation.element
        guard = (
            "until window expiry (match pends)"
            if negation.before_is_end
            else f"until stage {negation.before} binds"
        )
        lines.append(
            f"  negation: NOT {element.event_type} {element.variable} — armed "
            f"after stage {negation.after}, {guard}"
        )
        for predicate in negation.predicates:
            lines.append(f"          kills when: {format_expr(predicate.expr)}{how(predicate.expr)}")

    for predicate in automaton.completion_predicates:
        lines.append(f"  at completion: {format_expr(predicate.expr)}{how(predicate.expr)}")

    if analyzed is not None:
        ranking = _describe_ranking(analyzed, pruning_enabled)
        if readers is not None:  # under the ``rank by:`` line
            ranking[1:1] = [
                f"          key {index}: {format_expr(key.expr)}{how(key.expr)}"
                for index, key in enumerate(analyzed.rank_keys, 1)
            ]
        lines.extend(ranking)
        if cut_status is not None and analyzed.rank_keys:
            if cut_status != "active":
                cut_status = f"inactive ({cut_status})"
            lines.append(f"  completing-edge cut: {cut_status}")
        if fixed_shapes:
            shapes = ", ".join(
                f"[{i}] {automaton.stages[i].variable.name} {'open' if o else 'awaiting'}"
                for i, o in sorted(fixed_shapes)
            )
            lines.append(f"  fixed optimum, never offered to the pruner: {shapes}")
        if dominance_status is not None and analyzed.rank_keys:
            if dominance_status == "active":
                final = analyzed.positives[-1].name
                dominance_status = (
                    f"active (k-skyband over the runs of {final}+ per partition, "
                    f"k={analyzed.limit}{_describe_vector(dominance)})"
                )
            else:
                dominance_status = f"inactive ({dominance_status})"
            lines.append(f"  run dominance: {dominance_status}")
        lines.extend(_describe_sharding(analyzed))
    return "\n".join(lines)


def _describe_vector(dominance: RunDominance | None) -> str:
    """``; vector (...); NaN test ...``: the components in order, the
    strict ones marked, and whether the sweep tests for NaN."""
    if dominance is None:
        return ""
    components = ", ".join(
        f"{label} strict" if i < dominance.strict else label
        for i, label in enumerate(dominance.components)
    )
    nan_test = "armed" if dominance.nan_test else "off"
    return f"; vector ({components}); NaN test {nan_test}"


def _describe_window(automaton: PatternAutomaton) -> str:
    window = automaton.window
    if window is None:
        return "none (runs never expire)"
    if window.kind is WindowKind.COUNT:
        return f"{int(window.span)} events"
    return f"{window.span:g} seconds"


def _describe_ranking(analyzed: AnalyzedQuery, pruning_enabled: bool) -> list[str]:
    lines: list[str] = []
    if analyzed.rank_keys:
        keys = ", ".join(
            f"{format_expr(k.expr)} {k.direction.value}" for k in analyzed.rank_keys
        )
        lines.append(f"  rank by: {keys}")
    if analyzed.limit is not None:
        lines.append(f"  limit: top {analyzed.limit}")
    lines.append(f"  emit: {_describe_emit(analyzed)}")
    lines.append(f"  ranking scope: {_describe_scope(analyzed)}")
    if analyzed.yield_spec is not None:
        assignments = ", ".join(
            f"{attr} = {format_expr(expr)}"
            for attr, expr, _evaluator in analyzed.yield_spec.assignments
        )
        lines.append(
            f"  yield: derive {analyzed.yield_spec.event_type}({assignments}) "
            f"per emitted match"
        )

    if not analyzed.rank_keys:
        status = "n/a (unranked query)"
    elif not analyzed.has_epoch_bound:
        status = "ineligible (needs LIMIT and EMIT ON WINDOW CLOSE)"
    elif pruning_enabled:
        status = "active"
    else:
        status = "disabled by engine configuration"
    lines.append(f"  score-bound pruning: {status}")
    return lines


def _describe_sharding(analyzed: AnalyzedQuery) -> list[str]:
    """Render the analyzer's shardability certificate."""
    from repro.language.analysis.shardability import certify_shardability

    report = certify_shardability(analyzed)
    described = report.describe()
    lines = [f"  sharding: {described[0]}"]
    lines.extend(f"  {line}" for line in described[1:])
    return lines


def _describe_scope(analyzed: AnalyzedQuery) -> str:
    """The container the ranker holds matches in (``ranking/topk.py``)."""
    emit = analyzed.emit
    if emit.kind is EmitKind.ON_WINDOW_CLOSE:
        return "a bounded top-k per tumbling epoch"
    if emit.kind is EmitKind.EAGER and not analyzed.rank_keys:
        return "none (pass-through)"
    return (
        "k-skyband of the live matches (a match leaves once k better ones "
        "completed after it, or when the window passes it)"
    )


def _describe_emit(analyzed: AnalyzedQuery) -> str:
    emit = analyzed.emit
    if emit.kind is EmitKind.ON_WINDOW_CLOSE:
        return "ordered answer per tumbling window epoch"
    if emit.kind is EmitKind.EAGER:
        if analyzed.rank_keys:
            return "snapshot whenever the top-k changes (revisions possible)"
        return "each match on detection"
    assert emit.period is not None
    unit = "events" if emit.period_kind is WindowKind.COUNT else "seconds"
    return f"snapshot every {emit.period:g} {unit}"
