"""Semantic analysis of parsed CEPR-QL queries.

Turns a raw :class:`~repro.language.ast_nodes.Query` into an
:class:`AnalyzedQuery` that the engine compiler consumes:

* resolves pattern variables and rejects malformed references;
* **decomposes the WHERE clause** into conjuncts and assigns each to the
  earliest evaluation point at which it is decidable (SASE-style predicate
  pushdown): the moment a singleton variable binds, per element of a Kleene
  variable (*incremental* predicates), on candidate events of a negated
  variable, or at match completion;
* validates and compiles ``RANK BY`` keys, and derives whether the primary
  key can act as a completing-edge cut (:func:`completion_cut`) and whether
  runs of a trailing Kleene stage can be compared by dominance
  (:func:`run_dominance`);
* fills in defaults (selection strategy, emission policy) and enforces the
  clause interactions documented in DESIGN.md (e.g. ``RANK BY`` requires a
  ``WITHIN`` window that defines its ranking scope).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.events.event import Event
from repro.events.schema import AttributeSpec, SchemaRegistry
from repro.language.ast_nodes import (
    Aggregate,
    AttrRef,
    Binary,
    BinaryOp,
    Direction,
    EmitKind,
    EmitSpec,
    Expr,
    FuncCall,
    Literal,
    PatternElement,
    PrevRef,
    Query,
    SelectionStrategy,
    Unary,
    UnaryOp,
    VarRef,
    WindowKind,
    WindowSpec,
    iter_subexpressions,
    referenced_variables,
    split_conjuncts,
)
from repro.language.errors import CEPRSemanticError
from repro.language.expressions import (
    EventCheck,
    Evaluator,
    compile_event_predicate,
    compile_expr,
)
from repro.language.fingerprint import predicate_fingerprint
from repro.language.optimizer import optimize
from repro.language.printer import format_expr


@dataclass(frozen=True)
class VariableInfo:
    """Resolved facts about one pattern variable."""

    name: str
    event_type: str
    #: Index among the *positive* elements; for a negated variable, the
    #: index of the positive element that closes its guard interval
    #: (``len(positives)`` for a trailing negation).
    position: int
    is_kleene: bool = False
    is_negated: bool = False


@dataclass(frozen=True)
class PredicateSpec:
    """One WHERE conjunct, compiled and assigned to an evaluation point."""

    expr: Expr
    evaluator: Evaluator
    variables: frozenset[str]
    #: Variable at whose binding attempt this predicate runs; ``None`` for
    #: completion predicates (evaluated when the match is finalised).
    anchor_var: str | None
    #: True when the predicate re-runs for every element of a Kleene
    #: variable rather than once.
    incremental: bool = False
    #: Alpha-invariant canonical fingerprint (see
    #: :mod:`repro.language.fingerprint`), set only when the predicate is
    #: *self-contained* — its value depends on nothing but the candidate
    #: event bound to ``anchor_var``.  Stage-0 gate keys are built from
    #: it, so equal gates share one evaluation per event across all
    #: registered queries; ``None`` predicates are never shared.
    fingerprint: str | None = None
    #: Set exactly when ``fingerprint`` is: the same predicate compiled
    #: against the candidate event alone (:func:`~repro.language.
    #: expressions.compile_event_predicate`) — what the shared gate memo
    #: evaluates, without building an evaluation context.
    event_check: EventCheck | None = field(
        init=False, default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.fingerprint is not None:
            object.__setattr__(self, "event_check", compile_event_predicate(self.expr))


@dataclass(frozen=True)
class NegationSpec:
    """A negated pattern element with its guard interval and predicates.

    The negation is *armed* once positive element ``after`` has bound and
    *disarmed* when positive element ``before`` binds (for a trailing
    negation, ``before == len(positives)`` and the match stays pending until
    its window expires).  While armed, an event of ``element.event_type``
    satisfying all ``predicates`` kills the run.
    """

    element: PatternElement
    after: int
    before: int
    predicates: tuple[PredicateSpec, ...] = ()

    @property
    def trailing(self) -> bool:
        return self.element.negated and self.before_is_end

    @property
    def before_is_end(self) -> bool:
        return self.before < 0  # sentinel set by the analyser


@dataclass(frozen=True)
class CompiledRankKey:
    """One compiled ``RANK BY`` term."""

    expr: Expr
    direction: Direction
    evaluator: Evaluator


@dataclass(frozen=True)
class CompiledYield:
    """A compiled ``YIELD`` clause: derived event type + payload builders."""

    event_type: str
    assignments: tuple[tuple[str, Expr, Evaluator], ...]


@dataclass
class AnalyzedQuery:
    """The output of semantic analysis, ready for NFA compilation."""

    ast: Query
    variables: dict[str, VariableInfo]
    positives: list[VariableInfo]
    negations: list[NegationSpec]
    #: anchor variable name -> predicates evaluated when it binds.
    predicates_at: dict[str, list[PredicateSpec]]
    #: evaluated once, when a match completes.
    completion_predicates: list[PredicateSpec]
    rank_keys: list[CompiledRankKey]
    yield_spec: "CompiledYield | None"
    window: WindowSpec | None
    strategy: SelectionStrategy
    partition_by: tuple[str, ...]
    limit: int | None
    emit: EmitSpec
    name: str | None = None
    #: event types this query must be fed (positives and negations).
    relevant_types: frozenset[str] = field(default_factory=frozenset)

    @property
    def is_ranked(self) -> bool:
        return bool(self.rank_keys)

    @property
    def has_epoch_bound(self) -> bool:
        """Whether each tumbling epoch keeps a bounded top-k, so its k-th
        retained key θ exists: ``RANK BY``, ``LIMIT`` and ``EMIT ON WINDOW
        CLOSE``.  The scope of score-bound pruning, of the completing-edge
        cut (:func:`completion_cut`) and of run dominance
        (:func:`run_dominance`)."""
        return (
            bool(self.rank_keys)
            and self.limit is not None
            and self.emit.kind is EmitKind.ON_WINDOW_CLOSE
        )

    def kleene_variable_names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.positives if v.is_kleene)


_TRAILING = -1  # sentinel: negation guarded until window expiry


def analyze(query: Query, registry: SchemaRegistry | None = None) -> AnalyzedQuery:
    """Analyse ``query``; raises :class:`CEPRSemanticError` on violations."""
    variables, positives, raw_negations = _resolve_variables(query)
    if registry is not None:
        _check_schemas(query, registry)

    predicates_at: dict[str, list[PredicateSpec]] = {v.name: [] for v in variables.values()}
    completion: list[PredicateSpec] = []
    negation_predicates: dict[str, list[PredicateSpec]] = {
        spec.element.variable: [] for spec in raw_negations
    }

    for conjunct in split_conjuncts(query.where):
        conjunct = optimize(conjunct)
        if conjunct == Literal(True):
            continue  # vacuous conjunct folded away
        spec = _assign_conjunct(conjunct, variables, positives)
        if spec.anchor_var is None:
            completion.append(spec)
        elif spec.anchor_var in negation_predicates:
            negation_predicates[spec.anchor_var].append(spec)
        else:
            predicates_at[spec.anchor_var].append(spec)

    negations = [
        NegationSpec(
            element=spec.element,
            after=spec.after,
            before=spec.before,
            predicates=tuple(negation_predicates[spec.element.variable]),
        )
        for spec in raw_negations
    ]

    rank_keys = _compile_rank_keys(query, variables)
    yield_spec = _compile_yield(query, variables)
    window = query.window
    emit = default_emit(query)
    _check_limit(query.limit, bool(rank_keys), emit, window)

    analyzed = AnalyzedQuery(
        ast=query,
        variables=variables,
        positives=positives,
        negations=negations,
        predicates_at=predicates_at,
        completion_predicates=completion,
        rank_keys=rank_keys,
        yield_spec=yield_spec,
        window=window,
        strategy=query.strategy or SelectionStrategy.SKIP_TILL_NEXT,
        partition_by=query.partition_by,
        limit=query.limit,
        emit=emit,
        name=query.name,
        relevant_types=frozenset(e.event_type for e in query.pattern),
    )
    return analyzed


def analyze_member(
    group: AnalyzedQuery, query: Query, registry: SchemaRegistry | None = None
) -> AnalyzedQuery:
    """:func:`analyze` for ``query``, which equals ``group.ast`` (a query
    group's analysis) but for ``NAME`` and ``LIMIT``: ``group`` with those
    two and the AST replaced.

    Nothing else analysis derives reads ``NAME`` or ``LIMIT``, so only
    what might raise differently is checked again, in :func:`analyze`'s
    order: the schemas (the registry may have changed since ``group``) and
    the checks that read ``LIMIT``.  The result shares ``group``'s
    predicates, rank keys and variables, which nothing mutates.
    """
    if registry is not None:
        _check_schemas(query, registry)
    _check_limit(query.limit, group.is_ranked, group.emit, group.window)
    return replace(group, ast=query, name=query.name, limit=query.limit)


def _check_limit(
    limit: int | None, ranked: bool, emit: EmitSpec, window: WindowSpec | None
) -> None:
    """The checks that read ``LIMIT`` (``LIMIT 0``, ``LIMIT`` without a
    window), with the two window checks analysis raises between them.
    One function, so a query group's member (:func:`analyze_member`)
    raises exactly what its own analysis would."""
    if limit == 0:
        # The parser accepts LIMIT 0 so the static analyzer can report it
        # as CEPR303; the runtime must never see k=0 (an empty top-k has
        # no kth bound and every emission would be empty).
        raise CEPRSemanticError(
            "LIMIT 0 keeps zero results; use a positive k or drop the "
            "LIMIT clause"
        )
    if ranked and window is None:
        raise CEPRSemanticError(
            "RANK BY requires a WITHIN window: the window defines the scope "
            "within which matches compete"
        )
    if emit.kind is EmitKind.ON_WINDOW_CLOSE and window is None:
        raise CEPRSemanticError("EMIT ON WINDOW CLOSE requires a WITHIN window")
    if limit is not None and not ranked:
        # LIMIT without RANK BY keeps the first k matches in detection
        # order — legal, but only meaningful with an emission scope.
        if window is None:
            raise CEPRSemanticError("LIMIT requires a WITHIN window")


# ---------------------------------------------------------------------------
# variable resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RawNegation:
    element: PatternElement
    after: int
    before: int


def _resolve_variables(
    query: Query,
) -> tuple[dict[str, VariableInfo], list[VariableInfo], list[_RawNegation]]:
    if not query.pattern:
        raise CEPRSemanticError("pattern must contain at least one element")

    variables: dict[str, VariableInfo] = {}
    positives: list[VariableInfo] = []
    raw_negations: list[_RawNegation] = []
    positive_index = 0

    if query.pattern[0].negated:
        raise CEPRSemanticError(
            "negation must follow at least one positive element (a leading "
            "negation has no guard interval: the run only exists once its "
            "first positive event arrives)"
        )

    for element in query.pattern:
        if element.variable in variables:
            raise CEPRSemanticError(f"duplicate pattern variable {element.variable!r}")
        if element.negated:
            info = VariableInfo(
                element.variable,
                element.event_type,
                position=positive_index,
                is_negated=True,
            )
            variables[element.variable] = info
            raw_negations.append(
                _RawNegation(element, after=positive_index - 1, before=positive_index)
            )
        else:
            info = VariableInfo(
                element.variable,
                element.event_type,
                position=positive_index,
                is_kleene=element.kleene,
            )
            variables[element.variable] = info
            positives.append(info)
            positive_index += 1

    if not positives:
        raise CEPRSemanticError("pattern must contain at least one positive element")

    # Mark trailing negations (guarded until window expiry).
    total = len(positives)
    resolved: list[_RawNegation] = []
    for raw in raw_negations:
        before = _TRAILING if raw.before >= total else raw.before
        resolved.append(_RawNegation(raw.element, raw.after, before))
        if before is _TRAILING and query.window is None:
            raise CEPRSemanticError(
                f"trailing negation NOT {raw.element.event_type} "
                f"{raw.element.variable} requires a WITHIN window (matches stay "
                f"pending until the window expires)"
            )
    return variables, positives, resolved


def _check_schemas(query: Query, registry: SchemaRegistry) -> None:
    for element in query.pattern:
        schema = registry.get(element.event_type)
        if schema is None:
            continue  # unknown types are allowed; strict mode is an engine option
        for attr in query.partition_by:
            if schema.attribute(attr) is None:
                raise CEPRSemanticError(
                    f"PARTITION BY attribute {attr!r} is not declared on event "
                    f"type {element.event_type!r}"
                )


# ---------------------------------------------------------------------------
# predicate decomposition
# ---------------------------------------------------------------------------


def _uses_duration(expr: Expr) -> bool:
    return any(
        isinstance(node, FuncCall) and node.name == "duration"
        for node in iter_subexpressions(expr)
    )


def _per_element_kleene_refs(
    expr: Expr, variables: dict[str, VariableInfo]
) -> set[str]:
    """Kleene variables referenced per element (AttrRef/PrevRef, not aggregates)."""
    refs: set[str] = set()
    for node in iter_subexpressions(expr):
        if isinstance(node, (AttrRef, PrevRef)):
            info = variables.get(node.var)
            if info is not None and info.is_kleene:
                refs.add(node.var)
    return refs


def _assign_conjunct(
    conjunct: Expr,
    variables: dict[str, VariableInfo],
    positives: list[VariableInfo],
) -> PredicateSpec:
    refs = referenced_variables(conjunct)
    for name in refs:
        if name not in variables:
            raise CEPRSemanticError(f"unknown pattern variable {name!r} in WHERE")

    negated_refs = {n for n in refs if variables[n].is_negated}
    per_element = _per_element_kleene_refs(conjunct, variables)
    has_duration = _uses_duration(conjunct)

    for node in iter_subexpressions(conjunct):
        if isinstance(node, PrevRef) and not variables[node.var].is_kleene:
            raise CEPRSemanticError(
                f"prev({node.var}.{node.attr}): {node.var!r} is not a Kleene variable"
            )
        if isinstance(node, Aggregate) and variables[node.var].is_negated:
            raise CEPRSemanticError(
                f"aggregate over negated variable {node.var!r} is not allowed"
            )
        if isinstance(node, (AttrRef, VarRef)) and node.var in variables:
            info = variables[node.var]
            if isinstance(node, VarRef) and info.is_kleene:
                raise CEPRSemanticError(
                    f"timestamp()/ts() over Kleene variable {node.var!r} is "
                    f"ambiguous; aggregate its elements instead"
                )

    evaluator = compile_expr(conjunct)

    # Case 1: incremental predicate on exactly one Kleene variable.
    if per_element:
        if len(per_element) > 1:
            raise CEPRSemanticError(
                f"a WHERE conjunct may reference per-element attributes of at "
                f"most one Kleene variable, found {sorted(per_element)}"
            )
        if negated_refs:
            raise CEPRSemanticError(
                "a conjunct cannot mix per-element Kleene references with "
                "negated variables"
            )
        anchor = next(iter(per_element))
        anchor_pos = variables[anchor].position
        for name in refs - {anchor}:
            if variables[name].position >= anchor_pos:
                raise CEPRSemanticError(
                    f"incremental predicate on {anchor!r} references later "
                    f"variable {name!r}; only earlier variables are bound when "
                    f"each element of {anchor!r} is evaluated"
                )
        return PredicateSpec(
            conjunct,
            evaluator,
            refs,
            anchor,
            incremental=True,
            fingerprint=predicate_fingerprint(conjunct, anchor),
        )

    # Case 2: negation predicate.
    if negated_refs:
        if len(negated_refs) > 1:
            raise CEPRSemanticError(
                f"a conjunct may reference at most one negated variable, "
                f"found {sorted(negated_refs)}"
            )
        if has_duration:
            raise CEPRSemanticError(
                "duration() cannot appear in a predicate on a negated variable"
            )
        anchor = next(iter(negated_refs))
        guard_start = variables[anchor].position  # positives bound before guard
        for name in refs - {anchor}:
            if variables[name].is_negated:
                raise CEPRSemanticError("predicates cannot relate two negated variables")
            if variables[name].position >= guard_start:
                raise CEPRSemanticError(
                    f"predicate on negated variable {anchor!r} references "
                    f"{name!r}, which binds only after the negation's guard "
                    f"interval opens"
                )
        return PredicateSpec(
            conjunct,
            evaluator,
            refs,
            anchor,
            incremental=False,
            fingerprint=predicate_fingerprint(conjunct, anchor),
        )

    # Case 3: positive-variable predicate; anchored at the latest variable
    # it references (aggregates over a Kleene variable are complete only
    # when the *next* positive binds, or at match completion).
    anchor_info: VariableInfo | None = None
    force_completion = False
    for name in refs:
        info = variables[name]
        candidate = info
        if info.is_kleene:
            # Referenced via aggregate only (per-element handled above);
            # defer to the element after the Kleene closes.
            next_pos = info.position + 1
            candidate = positives[next_pos] if next_pos < len(positives) else None
        if candidate is None:
            force_completion = True  # aggregate over a trailing Kleene
            break
        if anchor_info is None or candidate.position > anchor_info.position:
            anchor_info = candidate

    if has_duration and not force_completion:
        # duration() keeps growing until completion; evaluate last.
        last = positives[-1]
        if last.is_kleene:
            force_completion = True
        elif anchor_info is None or anchor_info.position < last.position:
            anchor_info = last

    if not refs and not has_duration:
        # Constant predicate: evaluate once at completion.
        force_completion = True

    if force_completion:
        anchor_info = None

    anchor_var = anchor_info.name if anchor_info is not None else None
    return PredicateSpec(
        conjunct,
        evaluator,
        refs,
        anchor_var,
        incremental=False,
        fingerprint=predicate_fingerprint(conjunct, anchor_var),
    )


# ---------------------------------------------------------------------------
# rank keys and defaults
# ---------------------------------------------------------------------------


def _compile_rank_keys(
    query: Query, variables: dict[str, VariableInfo]
) -> list[CompiledRankKey]:
    keys: list[CompiledRankKey] = []
    for key in query.rank_by:
        _validate_complete_match_expr(key.expr, variables, "RANK BY")
        optimized = optimize(key.expr)
        keys.append(CompiledRankKey(optimized, key.direction, compile_expr(optimized)))
    return keys


#: ``key(run, event)``: the normalised primary ``RANK BY`` value of the
#: match ``event`` completes from ``run`` (a trailing Kleene ``run`` has
#: taken ``event``) — the scorer's own float operations, in its order.
CutKey = Callable[[Any, Event], Any]
#: ``read(held)``: an aggregate from the registers (``agg_states``) of a
#: run or match; ``None`` while its variable is empty.
Register = Callable[[Any], Any]
_REGISTER_FIELDS = {"max": "maximum", "min": "minimum", "first": "first", "last": "last"}

#: ``read(held, event)``: the value of an expression :func:`total_reader`
#: accepted; ``event`` is the candidate bound to the current variable,
#: ``held`` the run or match holding the other bindings and the registers.
Reader = Callable[[Any, Any], Any]
#: ``id(expr)`` -> ``(reader, how)`` or ``(None, why not)``.
Readers = dict[int, tuple[Reader | None, str]]
#: the ``how`` of a reader that never raises ``LookupError``: the registry
#: vouches for every attribute it reads
PROVEN = "reads the run"

_CUT_ARITH = {
    BinaryOp.ADD: operator.add,
    BinaryOp.SUB: operator.sub,
    BinaryOp.MUL: operator.mul,
}
_READ_OPS = {
    **_CUT_ARITH,
    BinaryOp.LT: operator.lt,
    BinaryOp.LTE: operator.le,
    BinaryOp.GT: operator.gt,
    BinaryOp.GTE: operator.ge,
    BinaryOp.EQ: operator.eq,
    BinaryOp.NEQ: operator.ne,
}
_KINDS = ("number", "str", "bool")
#: the kind an operator needs of its operands (``None``: any), and the
#: value types a reader accepts for it from an attribute it checks
_WANTS: dict[Any, str | None] = {
    UnaryOp.NEG: "number",
    UnaryOp.NOT: "bool",
    BinaryOp.AND: "bool",
    BinaryOp.OR: "bool",
    BinaryOp.EQ: None,
    BinaryOp.NEQ: None,
}
_ACCEPTS = {"number": frozenset({int, float}), "bool": frozenset({bool})}
#: the kind of a value of a declared dtype, where a reader may read it
_DTYPE_KINDS = {"int": "number", "float": "number", "str": "str", "bool": "bool"}
_CUT_FUNCS = {"abs": (abs, 1), "min2": (min, 2), "max2": (max, 2)}


class _CutBlocked(Exception):
    """One condition of the completing-edge cut fails; the message says which."""


class _CutShape(_CutBlocked):
    """An operation the cut does not compile (the message is its text)."""


def completion_cut(analyzed: AnalyzedQuery, reads: Reads) -> tuple[CutKey | None, str]:
    """The primary key compiled as a completing-edge cut, or why it is not.

    Returns ``(key, "active")``, or ``(None, reason)`` naming the first
    condition that fails.  The matcher skips a completion that would
    score strictly worse than the epoch's k-th retained key (DESIGN.md,
    "Where θ acts"); a trailing Kleene stage still takes the element.
    That is exact only where a skip cannot change what the ranker keeps
    and cannot hide work that could raise or count an error — hence every
    condition here.
    """
    if not analyzed.has_epoch_bound:
        return None, "scope: needs RANK BY, LIMIT and EMIT ON WINDOW CLOSE"
    if analyzed.strategy is not SelectionStrategy.SKIP_TILL_ANY:
        return None, (
            f"strategy: under {analyzed.strategy.value} a completion consumes "
            f"or kills its run, so every completing edge must be evaluated"
        )
    final = analyzed.positives[-1]
    if len(analyzed.positives) < 2:
        return None, "final stage: needs a final stage after another stage"
    if any(negation.trailing for negation in analyzed.negations):
        return None, (
            "final stage: a trailing negation holds completions pending, "
            "possibly past their epoch's close"
        )

    primary, *secondary = analyzed.rank_keys
    # (where, expression, the value kinds it may have).  The scorer
    # evaluates every key of every match, so a secondary key that could
    # raise blocks the cut just as the primary would.  A trailing Kleene
    # stage still takes the element, so its element predicates still run.
    checks = [("key", primary.expr, ("number",))]
    for key in secondary:
        checks.append(("secondary key", key.expr, ("number", "str", "bool")))
    edge = () if final.is_kleene else analyzed.predicates_at[final.name]
    for spec in (*edge, *analyzed.completion_predicates):
        checks.append(("edge predicate", spec.expr, ("bool",)))
    compiled = []
    for where, expr, kinds in checks:
        try:
            kind, reader = _compile(expr, reads, final.name, None, "", None)
        except _CutShape as shape:
            return None, f"{where} shape: {shape} is not compiled into the cut"
        except _CutBlocked as blocked:
            return None, str(blocked)
        if kind not in kinds:
            return None, f"{where} shape: {format_expr(expr)} is not a {kinds[0]}"
        if where == "secondary key" and not _nan_free(expr, reads):
            return None, f"{where} shape: {format_expr(expr)} may be NaN"
        compiled.append(reader)  # the primary key first
    raw = compiled[0]
    if primary.direction is Direction.ASC:
        return raw, "active"
    return (lambda run, event: -raw(run, event)), "active"


class Reads:
    """What a compiled rank value may read without hiding an error.

    One per registered query: the scorer's registers, the completing-edge
    cut, run dominance and the pruner's shapes all look the schema
    registry's declarations up through it.
    """

    def __init__(self, analyzed: AnalyzedQuery, registry: SchemaRegistry | None) -> None:
        self.variables, self.registry = analyzed.variables, registry
        self._found: dict[tuple[str, str], AttributeSpec | None] = {}

    def attribute(self, var: str, attr: str) -> AttributeSpec | None:
        """The registry's declaration of ``var.attr``, required or not
        (looked up once per registration)."""
        key = (var, attr)
        if key not in self._found:
            info, registry = self.variables.get(var), self.registry
            schema = registry.get(info.event_type) if info and registry is not None else None
            self._found[key] = schema.attribute(attr) if schema is not None else None
        return self._found[key]

    def declared(self, var: str, attr: str) -> AttributeSpec | None:
        """The registry's declaration of ``var.attr`` when it is required —
        then every event a query reads carries a value that passed it
        (ingested events at ``push``, YIELD-derived ones when derived)."""
        found = self.attribute(var, attr)
        return found if found is not None and found.required else None

    def register(self, expr: Aggregate) -> Register | None:
        var, attr = expr.var, expr.attr
        if not self.variables[var].is_kleene:
            return None
        if expr.func in ("count", "len"):
            return lambda held: held.agg_states[var].count
        field = _REGISTER_FIELDS.get(expr.func)
        found = self.declared(var, attr) if attr is not None else None
        numeric = found is not None and found.dtype in ("int", "float")
        if field is None or attr is None or not numeric:
            return None  # a bool or str element leaves the register inexact
        read = operator.attrgetter(field)
        return lambda held: read(held.agg_states[var].attrs[attr])


def _cut_kind(
    expr: Expr, reads: Reads, open_var: str = "", unproven: list[str] | None = None
) -> str:
    """``"number"``, ``"bool"`` or ``"str"``: the value kind of an
    expression the cut may skip without hiding an evaluation error.

    Only ``+ - *``, unary ``-``, literals, comparisons, ``== !=``,
    ``AND OR NOT``, ``abs``, ``min2``, ``max2`` and the aggregates the
    registers serve qualify, over attributes the registry declares
    required and numeric — or ``str``, which only ``==``/``!=`` may read.
    An aggregate of ``open_var``, which may still grow, does not.
    Given an ``unproven`` list (a reader that falls back to the context
    evaluator), an attribute not declared required qualifies too — its
    declared kind, else ``"any"``, which a reader checks where an operator
    needs a kind — and is appended to it.
    Raises :class:`_CutShape` or :class:`_CutBlocked` otherwise.
    """
    return _compile(expr, reads, None, None, open_var, unproven)[0]


def _nan_free(expr: Expr, reads: Reads) -> bool:
    """Whether a key the cut never evaluates cannot be NaN, a scoring error
    a skip would hide: it reads floats only with a domain, and no ``+ - *``."""
    nodes = list(iter_subexpressions(expr))
    arithmetic = any(isinstance(node, Binary) and node.op in _CUT_ARITH for node in nodes)
    for node in nodes:
        if isinstance(node, Literal) and isinstance(node.value, float) and arithmetic:
            return False
        if isinstance(node, (AttrRef, Aggregate)) and node.attr is not None:
            spec = reads.declared(node.var, node.attr)
            if spec is not None and spec.dtype == "float" and (arithmetic or spec.domain is None):
                return False
    return True


def _compile(
    expr: Expr,
    reads: Reads,
    current: str | None,
    want: str | None,
    open_var: str,
    unproven: list[str] | None,
) -> tuple[str, Reader]:
    """:func:`_cut_kind`'s verdict on ``expr`` and its reader, in one walk.

    ``current``'s attributes read the candidate event, every other
    variable's the held run's or match's bindings, an aggregate its
    registers — with no context, and no type check where the registry
    vouches for the attribute: the kinds proved here are what the
    reference evaluator checks for.  An attribute it does not vouch for is
    checked to be the ``want`` kind its operator needs (``None``: any),
    else it reads as absent (``KeyError``).  No source is generated,
    nothing is ``compile()``-d — here or in the dominance vector reader: a
    compiled function costs about 38 µs of registration each, about a
    tenth of ``kleene_dense``'s ``setup_s``.
    """
    if isinstance(expr, (Literal, AttrRef)):
        kind = _leaf_kind(expr, reads, unproven)
        if isinstance(expr, AttrRef):
            return kind, _fuse_attr(None, expr, None, current, _accepts(expr, reads, want))
        value = expr.value
        return kind, lambda held, event: value
    if isinstance(expr, Aggregate) and expr.var != open_var:
        read = reads.register(expr)
        if read is not None:
            return "number", lambda held, event: read(held)
    if isinstance(expr, Unary):
        need = _WANTS[expr.op]
        kind, inner = _compile(expr.operand, reads, current, need, open_var, unproven)
        _expect(expr, need, kind)
        if expr.op is UnaryOp.NOT:
            return "bool", lambda held, event: not inner(held, event)
        return "number", lambda held, event: -inner(held, event)
    if isinstance(expr, FuncCall) and expr.name in _CUT_FUNCS:
        fn, arity = _CUT_FUNCS[expr.name]
        args = [_compile(arg, reads, current, "number", open_var, unproven) for arg in expr.args]
        _expect(expr, "number", *(kind for kind, _read in args))
        first = args[0][1]
        if arity == 1:
            return "number", lambda held, event: fn(first(held, event))
        second = args[1][1]
        return "number", lambda held, event: fn(first(held, event), second(held, event))
    if isinstance(expr, Binary) and expr.op not in (BinaryOp.DIV, BinaryOp.MOD):
        op, first_expr, second_expr = expr.op, expr.left, expr.right
        sides = _WANTS.get(op, "number")
        kind = "number" if op in _CUT_ARITH else "bool"
        fn = _READ_OPS.get(op)  # ``None``: AND, OR
        if (
            fn is not None
            and isinstance(first_expr, AttrRef)
            and isinstance(second_expr, (AttrRef, Literal))
        ):  # a join or threshold is one closure: its sides compile no reader
            lkind = _leaf_kind(first_expr, reads, unproven)
            _expect(expr, sides, lkind, _leaf_kind(second_expr, reads, unproven))
            accepts = _accepts(first_expr, reads, sides) or _accepts(second_expr, reads, sides)
            return kind, _fuse_attr(fn, first_expr, second_expr, current, accepts)
        (lkind, left), (rkind, right) = (
            _compile(side, reads, current, sides, open_var, unproven)
            for side in (first_expr, second_expr)
        )
        _expect(expr, sides, lkind, rkind)
        if op is BinaryOp.AND:
            return kind, lambda held, event: left(held, event) and right(held, event)
        if op is BinaryOp.OR:
            return kind, lambda held, event: left(held, event) or right(held, event)
        apply = _READ_OPS[op]
        return kind, lambda held, event: apply(left(held, event), right(held, event))
    raise _CutShape(format_expr(expr))


def _leaf_kind(expr: Literal | AttrRef, reads: Reads, unproven: list[str] | None) -> str:
    """The value kind of a literal, or of an attribute the registry
    declares required.  Given an ``unproven`` list, any other attribute is
    appended to it and has its declared kind, else ``"any"``; without
    one, it is refused."""
    if isinstance(expr, Literal):
        value = expr.value
        return "bool" if isinstance(value, bool) else "str" if isinstance(value, str) else "number"
    found = reads.attribute(expr.var, expr.attr)
    if found is None or not found.required:
        if unproven is None:
            found = None
        else:
            unproven.append(f"{expr.var}.{expr.attr}")
    kind = _DTYPE_KINDS.get(found.dtype if found is not None else "")
    if kind not in ("number", "str") and unproven is None:
        raise _CutBlocked(
            f"undeclared attribute: {expr.var}.{expr.attr} is not a required "
            f"int, float or str attribute of the schema registry"
        )
    return kind or "any"


def _expect(expr: Expr, want: str | None, *kinds: str) -> None:
    """Refuse ``expr`` unless its operands are of the ``want`` kind (or
    ``"any"``, checked when read); ``==`` (no ``want``) compares any two
    values without raising."""
    if want is not None and not {*kinds} <= {want, "any"}:
        raise _CutShape(format_expr(expr))


def _accepts(expr: Expr, reads: Reads, want: str | None) -> frozenset[type] | None:
    """The types a read of attribute ``expr`` is checked for: none where
    the registry declares it (a value it carries passed that declaration)
    or any kind will do."""
    if want is None or not isinstance(expr, AttrRef):
        return None
    return None if reads.attribute(expr.var, expr.attr) else _ACCEPTS[want]


def _fuse_attr(
    op: Callable[[Any, Any], Any] | None,
    left: AttrRef,
    right: AttrRef | Literal | None,
    current: str | None,
    accepts: frozenset[type] | None,
) -> Reader:
    """``v.a`` (no ``op``), ``v.a <op> literal`` or ``v.a <op> w.b`` as
    one closure — the join and threshold shapes, two calls fewer — with
    each value's type in ``accepts`` unless that is ``None``: a value of
    another type reads as absent (``KeyError``)."""
    var, attr, own = left.var, left.attr, left.var == current
    if op is None or right is None:

        def value(held: Any, event: Any) -> Any:
            a = (event if own else held.bindings[var]).payload[attr]
            if accepts is None or type(a) in accepts:
                return a
            raise KeyError(attr)

        return value
    const = isinstance(right, Literal)
    literal = right.value if isinstance(right, Literal) else None
    other, key = (right.var, right.attr) if isinstance(right, AttrRef) else ("", "")
    theirs = other == current

    def compare(held: Any, event: Any) -> Any:
        a = (event if own else held.bindings[var]).payload[attr]
        b = literal if const else (event if theirs else held.bindings[other]).payload[key]
        if accepts is None or (type(a) in accepts and type(b) in accepts):
            return op(a, b)
        raise KeyError(attr)

    return compare


def total_reader(
    expr: Expr, reads: Reads, current: str | None = None, kinds: tuple[str, ...] = _KINDS
) -> tuple[Reader | None, str]:
    """``expr`` as a direct read of the run (:func:`_compile`), or
    ``None`` and why the context evaluator reads it: :func:`_cut_kind`'s
    reason (an aggregate of ``current`` may still be empty), or a value
    kind outside ``kinds``.  An attribute the registry does not declare
    required is read too: a reader that finds it absent or of another type
    raises ``LookupError``, and the context evaluator decides."""
    unproven: list[str] = []
    want = "bool" if kinds == ("bool",) else None
    try:
        kind, reader = _compile(expr, reads, current, want, current or "", unproven)
    except _CutShape as shape:
        return None, f"shape: {shape} is not compiled into a reader"
    except _CutBlocked as blocked:
        return None, str(blocked)
    if kind not in kinds and kind != "any":
        return None, f"shape: {format_expr(expr)} is not a {kinds[0]}"
    if not unproven:
        return reader, PROVEN
    return reader, f"{PROVEN} unless {', '.join(sorted(set(unproven)))} is absent or ill-typed"


def reader_sites(analyzed: AnalyzedQuery) -> list[tuple[Expr, Evaluator, str | None, tuple[str, ...]]]:
    """Every WHERE conjunct and ``RANK BY`` key: its expression, its
    evaluator, the variable it is evaluated binding (keys: none) and the
    value kinds it may have (a conjunct must be a ``bool``)."""
    specs = [spec for specs in analyzed.predicates_at.values() for spec in specs]
    specs += [spec for negation in analyzed.negations for spec in negation.predicates]
    specs += analyzed.completion_predicates
    return [(spec.expr, spec.evaluator, spec.anchor_var, ("bool",)) for spec in specs] + [
        (key.expr, key.evaluator, None, _KINDS) for key in analyzed.rank_keys
    ]


def run_readers(analyzed: AnalyzedQuery, reads: Reads) -> Readers:
    """:func:`total_reader` of every :func:`reader_sites` expression, by
    its ``id``: compiled once per pipeline, for the guards, the scorer and
    ``explain()``."""
    return {
        id(expr): total_reader(expr, reads, current, kinds)
        for expr, _evaluator, current, kinds in reader_sites(analyzed)
    }


#: ``vector(run)``: a final-stage run's direction-normalised components
#: (smaller is better), strict ones first.  ``run`` is the engine's run
#: (``bindings``, ``agg_states``, ``first_ts``).
Vector = Callable[[Any], tuple[Any, ...]]
#: ``part(state, run)``: one component, from the trailing variable's
#: ``AggregateState`` ``state`` or from ``run`` itself.
_Part = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class _Component:
    """One key's place in the vector: its reader, whether it is strict,
    whether it can never be NaN, and how ``explain()`` names it."""

    part: _Part
    strict: bool
    nan_free: bool
    label: str


@dataclass(frozen=True)
class RunDominance:
    """The armed form of :func:`run_dominance`: how to place a run of the
    trailing Kleene stage against the others of its partition."""

    #: the top-k size: a run is dropped once ``k`` others dominate it
    k: int
    #: reads a run's whole vector with one ``agg_states`` lookup
    vector: Vector
    #: how many leading components keep a strict advantage under every
    #: extension — a dominator must be strictly better in one of them
    strict: int
    #: the components in vector order, as ``explain()`` prints them
    components: tuple[str, ...]
    #: whether a component may be NaN, so the sweep must test for it
    nan_test: bool


def run_dominance(analyzed: AnalyzedQuery, reads: Reads) -> tuple[RunDominance | None, str]:
    """The runs of a trailing Kleene stage as comparable vectors, or why not.

    Returns ``(dominance, "active")``, or ``(None, reason)`` naming the
    first condition that fails.  Two runs parked on the trailing Kleene
    stage V see the same future: V's element predicates read only the
    element, so a later event extends both or neither, and each key of
    the extended match moves monotonically in the run's current value.  A
    run that ``k`` others beat under every future can never place, and
    the matcher drops it (DESIGN.md, "Where dominance acts").  Every
    condition below is what makes that exact.
    """
    if not analyzed.has_epoch_bound:
        return None, "scope: needs RANK BY, LIMIT and EMIT ON WINDOW CLOSE"
    if analyzed.strategy is not SelectionStrategy.SKIP_TILL_ANY:
        return None, (
            f"strategy: under {analyzed.strategy.value} a run that takes an "
            f"event stops skipping it, so two runs' futures differ"
        )
    final = analyzed.positives[-1]
    if not final.is_kleene:
        return None, "final stage: needs a trailing Kleene stage"
    for negation in analyzed.negations:
        if negation.trailing:
            return None, (
                "final stage: a trailing negation holds completions pending, "
                "possibly past their epoch's close"
            )
        if negation.before == final.position:
            return None, (
                f"final stage: NOT {negation.element.event_type} "
                f"{negation.element.variable} kills runs awaiting "
                f"{final.name}'s first element but not open ones"
            )
    if analyzed.completion_predicates:
        return None, (
            f"completion predicate: "
            f"{format_expr(analyzed.completion_predicates[0].expr)} is "
            f"evaluated per match, not per element"
        )

    name = final.name
    strict: list[_Component] = []
    loose: list[_Component] = []
    where = "element predicate"
    try:
        for predicate in analyzed.predicates_at[name]:
            others = sorted(predicate.variables - {name})
            if others:
                raise _CutBlocked(
                    f"element predicate: {format_expr(predicate.expr)} reads "
                    f"{others[0]!r}, so runs may accept different events"
                )
            if _cut_kind(predicate.expr, reads, name) != "bool":
                raise _CutShape(format_expr(predicate.expr))
        where = "key"
        for key in analyzed.rank_keys:
            component = _dominance_component(key, name, reads)
            (strict if component.strict else loose).append(component)
    except _CutShape as shape:
        return None, f"{where} shape: {shape} is outside what dominance compares"
    except _CutBlocked as blocked:
        return None, str(blocked)
    if not strict:
        return None, (
            f"keys: none keeps a strict advantage under every extension "
            f"(needs count({name}) or a key over earlier singletons)"
        )
    assert analyzed.window is not None and analyzed.limit is not None
    if analyzed.window.kind is WindowKind.TIME:
        # A dominator must outlive what it drops: a run born no earlier
        # leaves its time window no earlier.  Never NaN: an event stamped
        # NaN has no tumbling epoch, so the matcher refuses it.
        born = _Component(lambda state, run: -run.first_ts, False, True, "-first_ts")
        loose.append(born)
    components = (*strict, *loose)
    return (
        RunDominance(
            analyzed.limit,
            _vector(name, tuple(c.part for c in components)),
            len(strict),
            tuple(c.label for c in components),
            not all(c.nan_free for c in components),
        ),
        "active",
    )


def _vector(var: str, parts: tuple[_Part, ...]) -> Vector:
    """``vector(run)`` over ``parts``: ``agg_states[var]`` is read once
    (absent where no key aggregates ``var``, so nothing tracks it)."""
    if len(parts) == 2:  # the usual shape: a count and an extreme
        first, second = parts

        def pair(run: Any) -> tuple[Any, ...]:
            state = run.agg_states.get(var)
            return (first(state, run), second(state, run))

        return pair

    def vector(run: Any) -> tuple[Any, ...]:
        state = run.agg_states.get(var)
        return tuple([part(state, run) for part in parts])

    return vector


def _dominance_component(
    key: CompiledRankKey, final_var: str, reads: Reads
) -> _Component:
    """One ``RANK BY`` key as a run-vector component.

    ``count(V)`` (strict: every extension adds the same number to both
    runs), ``max(V.a)``/``min(V.a)`` (monotone but not strict: a shared
    future element can erase the gap) with the aggregate's identity while
    V is still empty — both read from the run's registers — or a number
    over what is bound before V (a constant per run, strict; a run it
    makes NaN only completes scoring errors, and the matcher keeps it out
    of the sweep).  Raises :class:`_CutShape` / :class:`_CutBlocked`
    otherwise.
    """
    expr = key.expr
    desc = key.direction is Direction.DESC
    sign = -1 if desc else 1
    text = format_expr(expr)
    label = (f"-({text})" if " " in text else f"-{text}") if desc else text
    if isinstance(expr, Aggregate) and expr.var == final_var:
        attr = expr.attr
        if expr.func in ("count", "len"):
            if desc:
                return _Component(lambda state, run: -state.count, True, True, label)
            return _Component(lambda state, run: state.count, True, True, label)
        if expr.func not in ("max", "min"):
            raise _CutShape(text)
        if reads.register(expr) is None:
            raise _CutBlocked(
                f"undeclared attribute: {final_var}.{attr} is not a required "
                f"int or float attribute of the schema registry"
            )
        assert attr is not None
        found = reads.declared(final_var, attr)
        if found is not None and found.dtype == "float" and found.domain is None:
            # A run awaiting V's first element holds the identity, not
            # a NaN: dropped now, it could still take a NaN element, and
            # the scoring errors of its matches would go unreported.
            raise _CutBlocked(
                f"NaN: {text} reads a float with no declared "
                f"domain, so a dropped run could hide a NaN key's scoring error"
            )
        # the aggregate's identity while V awaits its first element
        empty = sign * (-math.inf if expr.func == "max" else math.inf)
        read = operator.attrgetter(_REGISTER_FIELDS[expr.func])

        def extreme(state: Any, run: Any) -> Any:
            value = read(state.attrs[attr])
            return empty if value is None else sign * value

        return _Component(extreme, False, True, label)
    kind, raw = _compile(expr, reads, final_var, None, final_var, None)
    if kind != "number":
        raise _CutShape(text)
    # RANK BY reads a Kleene variable only through aggregates, so this is
    # a number over what is bound before V: the event is never read.
    return _Component(
        lambda state, run: sign * raw(run, None), True, _nan_free(expr, reads), label
    )


def _validate_complete_match_expr(
    expr: Expr, variables: dict[str, VariableInfo], where: str
) -> None:
    """Shared checks for expressions evaluated over complete matches."""
    for node in iter_subexpressions(expr):
        if isinstance(node, PrevRef):
            raise CEPRSemanticError(f"prev() is not allowed in {where}")
        if isinstance(node, (AttrRef, VarRef, Aggregate)):
            info = variables.get(node.var)
            if info is None:
                raise CEPRSemanticError(
                    f"unknown pattern variable {node.var!r} in {where}"
                )
            if info.is_negated:
                raise CEPRSemanticError(
                    f"{where} cannot reference negated variable {node.var!r}"
                )
            if info.is_kleene and isinstance(node, AttrRef):
                raise CEPRSemanticError(
                    f"{where} must reference Kleene variable {node.var!r} "
                    f"through an aggregate, not {node.var}.{node.attr}"
                )
            if info.is_kleene and isinstance(node, VarRef):
                raise CEPRSemanticError(
                    f"timestamp()/ts() over Kleene variable {node.var!r} is "
                    f"ambiguous; aggregate its elements instead"
                )


def _compile_yield(
    query: Query, variables: dict[str, VariableInfo]
) -> CompiledYield | None:
    if query.yield_spec is None:
        return None
    if query.yield_spec.event_type in {
        element.event_type for element in query.pattern
    }:
        raise CEPRSemanticError(
            f"YIELD type {query.yield_spec.event_type!r} appears in this "
            f"query's own pattern; direct self-feedback loops are rejected "
            f"(route through a different derived type)"
        )
    compiled = []
    for attr, expr in query.yield_spec.assignments:
        _validate_complete_match_expr(expr, variables, "YIELD")
        optimized = optimize(expr)
        compiled.append((attr, optimized, compile_expr(optimized)))
    return CompiledYield(query.yield_spec.event_type, tuple(compiled))


def default_emit(query: Query) -> EmitSpec:
    """``query``'s ``EMIT`` clause, or the policy it defaults to."""
    if query.emit is not None:
        return query.emit
    if query.rank_by:
        # Ranked queries default to tumbling-epoch emission: the ordered
        # answer for each window epoch is released when the epoch closes.
        return EmitSpec(EmitKind.ON_WINDOW_CLOSE)
    # Unranked queries behave like a classical CEP engine: every match is
    # emitted the moment it is detected.
    return EmitSpec(EmitKind.EAGER)
