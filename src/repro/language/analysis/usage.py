"""Unused-binding and unreachable-pattern checks.

Pure AST/shape checks that need no schema registry:

* ``CEPR301`` — a positive pattern variable never referenced by any
  WHERE / RANK BY / YIELD expression (only reported when the query has at
  least one such expression — bare structural patterns are idiomatic —
  and never for the leading element, which anchors where the window
  opens);
* ``CEPR302`` — a negation that can never decide anything: under
  ``STRICT`` contiguity any unconsumed event already kills the run before
  an internal negation's predicates are consulted (satisfiability adds a
  second trigger: negation predicates that are unsatisfiable);
* ``CEPR303`` — ``LIMIT 0`` ranks nothing (also rejected by semantic
  analysis; the analyzer reports it with a span and hint first);
* ``CEPR304`` — a count window shorter than the minimum number of events
  the pattern needs, so no match can ever fit inside it;
* ``CEPR305`` — the same WHERE conjunct appearing twice;
* ``CEPR306`` — a RANK BY key that folds to a constant (every match ties);
* ``CEPR307`` — the same RANK BY expression appearing in two keys (the
  later key can never break a tie the earlier one left).
"""

from __future__ import annotations

from repro.language.analysis.diagnostics import Diagnostic, Severity
from repro.language.ast_nodes import (
    Expr,
    Literal,
    Query,
    SelectionStrategy,
    WindowKind,
    query_expressions,
    referenced_variables,
    split_conjuncts,
)
from repro.language.optimizer import optimize
from repro.language.printer import format_expr
from repro.language.semantics import AnalyzedQuery


def check_ast(query: Query) -> list[Diagnostic]:
    """Checks on the raw AST that must run before semantic analysis.

    Semantic analysis rejects ``LIMIT 0`` outright, so the analyzer
    reports it from the AST to give a coded diagnostic instead of a bare
    :class:`~repro.language.errors.CEPRSemanticError`.
    """
    diagnostics: list[Diagnostic] = []
    if query.limit == 0:
        diagnostics.append(
            Diagnostic(
                "CEPR303",
                Severity.ERROR,
                "LIMIT 0",
                "LIMIT 0 keeps zero results: every emission would be empty",
                hint="drop the LIMIT clause to keep all results, or use a "
                "positive k",
            )
        )
    return diagnostics


def check_usage(analyzed: AnalyzedQuery) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    query = analyzed.ast

    diagnostics.extend(_check_unused_variables(analyzed))
    diagnostics.extend(_check_dead_negations(analyzed))
    diagnostics.extend(_check_window_too_short(analyzed))
    diagnostics.extend(_check_duplicate_predicates(query))
    diagnostics.extend(_check_rank_keys(query))
    return diagnostics


def _check_unused_variables(analyzed: AnalyzedQuery) -> list[Diagnostic]:
    exprs = query_expressions(analyzed.ast)
    if not exprs:
        return []  # a bare structural pattern references nothing by design
    used: set[str] = set()
    for expr in exprs:
        used |= referenced_variables(expr)
    out: list[Diagnostic] = []
    for position, info in enumerate(analyzed.positives):
        if info.name in used:
            continue
        if position == 0:
            # The leading element anchors where a match (and its window)
            # opens; leaving it unreferenced is an idiomatic way to say
            # "start at any A" and is not suspicious.
            continue
        kleene = "+" if info.is_kleene else ""
        out.append(
            Diagnostic(
                "CEPR301",
                Severity.WARNING,
                f"PATTERN {info.event_type} {info.name}{kleene}",
                f"variable {info.name!r} is never referenced by any WHERE, "
                f"RANK BY, or YIELD expression",
                hint="it still constrains the match structurally; drop it if "
                "that is not intended",
            )
        )
    return out


def _check_dead_negations(analyzed: AnalyzedQuery) -> list[Diagnostic]:
    if analyzed.strategy is not SelectionStrategy.STRICT:
        return []
    out: list[Diagnostic] = []
    for spec in analyzed.negations:
        if spec.trailing or not spec.predicates:
            continue
        element = spec.element
        out.append(
            Diagnostic(
                "CEPR302",
                Severity.WARNING,
                f"NOT {element.event_type} {element.variable}",
                "negation predicates are dead under STRICT: any event the "
                "run does not consume kills it before the negation is "
                "consulted, whether or not the predicate holds",
                hint="use SKIP_TILL_NEXT/SKIP_TILL_ANY if the predicate "
                "should select which events kill the run",
            )
        )
    return out


def _check_window_too_short(analyzed: AnalyzedQuery) -> list[Diagnostic]:
    window = analyzed.window
    if window is None or window.kind is not WindowKind.COUNT:
        return []
    minimum = len(analyzed.positives)  # a Kleene-plus binds at least one
    if window.span >= minimum:
        return []
    return [
        Diagnostic(
            "CEPR304",
            Severity.ERROR,
            f"WITHIN {int(window.span)} EVENTS",
            f"the pattern needs at least {minimum} events but the window "
            f"holds only {int(window.span)}: no match can ever fit",
            hint=f"widen the window to at least {minimum} events",
        )
    ]


def _check_duplicate_predicates(query: Query) -> list[Diagnostic]:
    seen: set[Expr] = set()
    reported: set[Expr] = set()
    out: list[Diagnostic] = []
    for conjunct in split_conjuncts(query.where):
        if conjunct in seen and conjunct not in reported:
            reported.add(conjunct)
            out.append(
                Diagnostic(
                    "CEPR305",
                    Severity.WARNING,
                    f"WHERE {format_expr(conjunct)}",
                    "duplicate conjunct: the same predicate already appears "
                    "in this WHERE clause",
                    hint="remove the repeated conjunct",
                )
            )
        seen.add(conjunct)
    return out


def _check_rank_keys(query: Query) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    seen: set[Expr] = set()
    for key in query.rank_by:
        folded = optimize(key.expr)
        span = f"RANK BY {format_expr(key.expr)}"
        if isinstance(folded, Literal):
            out.append(
                Diagnostic(
                    "CEPR306",
                    Severity.WARNING,
                    span,
                    f"rank key folds to the constant "
                    f"{format_expr(folded)}: every match gets the same score",
                    hint="rank by something derived from the matched events",
                )
            )
        if folded in seen:
            out.append(
                Diagnostic(
                    "CEPR307",
                    Severity.WARNING,
                    span,
                    "duplicate rank key: an earlier key already orders by "
                    "this expression, so this one never breaks a tie",
                    hint="remove the repeated key",
                )
            )
        seen.add(folded)
    return out
