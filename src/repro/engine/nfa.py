"""The compiled pattern automaton.

CEPR patterns are linear sequences with optional Kleene-plus elements and
interleaved negations, so the automaton is a chain of :class:`Stage` nodes
— one per *positive* pattern element — each carrying the predicates pushed
down to it by semantic analysis, plus a side table of
:class:`~repro.language.semantics.NegationSpec` guards.  This is the
NFA^b structure of SASE+ (Agrawal et al., SIGMOD'08) specialised to
sequence patterns: the nondeterminism (skip edges, Kleene take/proceed
branching) lives in the run manager, not in explicit epsilon edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.language.ast_nodes import SelectionStrategy, WindowSpec
from repro.language.semantics import (
    AnalyzedQuery,
    NegationSpec,
    PredicateSpec,
    VariableInfo,
)


@dataclass(frozen=True)
class Stage:
    """One positive pattern element in the automaton chain.

    * ``bind_predicates`` run once, on the candidate event that binds the
      stage (for a Kleene stage: never — Kleene stages only carry
      incremental predicates).
    * ``incremental_predicates`` run on every candidate element of a Kleene
      stage, including the first.
    """

    index: int
    variable: VariableInfo
    bind_predicates: tuple[PredicateSpec, ...] = ()
    incremental_predicates: tuple[PredicateSpec, ...] = ()
    #: The variable's event type and Kleene flag, and the predicates an
    #: event must pass to start a run here (``incremental_predicates`` for
    #: a Kleene stage, ``bind_predicates`` otherwise): derived once, read
    #: as plain fields on the matcher's hot path.
    event_type: str = field(init=False, repr=False, compare=False)
    is_kleene: bool = field(init=False, repr=False, compare=False)
    gate_predicates: tuple[PredicateSpec, ...] = field(
        init=False, repr=False, compare=False
    )
    #: What the stage's gate tests, by alpha-invariant fingerprint: the
    #: event type joined with its gate predicates' fingerprints, in
    #: evaluation order.  Equal keys mean equal verdicts (and errors) for
    #: every event, whatever the binding names; ``None`` when a gate
    #: predicate is unfingerprinted, whose gate is then shared by nobody.
    gate_key: str | None = field(init=False)

    def __post_init__(self) -> None:
        event_type = self.variable.event_type
        is_kleene = self.variable.is_kleene
        gate = self.incremental_predicates if is_kleene else self.bind_predicates
        key: str | None = event_type
        for spec in gate:
            if spec.fingerprint is None:
                key = None
                break
            key += "\x1f" + spec.fingerprint
        set_field = object.__setattr__
        set_field(self, "event_type", event_type)
        set_field(self, "is_kleene", is_kleene)
        set_field(self, "gate_predicates", gate)
        set_field(self, "gate_key", key)


@dataclass(frozen=True)
class PatternAutomaton:
    """The full compiled automaton for one query."""

    stages: tuple[Stage, ...]
    negations: tuple[NegationSpec, ...]
    completion_predicates: tuple[PredicateSpec, ...]
    window: WindowSpec | None
    strategy: SelectionStrategy
    partition_by: tuple[str, ...]
    #: variable name -> event type for every positive variable (used by the
    #: interval evaluator when bounding unbound variables).
    var_types: Mapping[str, str] = field(default_factory=dict)
    kleene_vars: frozenset[str] = frozenset()
    #: aggregates any expression of the query needs, as (var, func, attr).
    needed_aggregates: frozenset[tuple[str, str, str | None]] = frozenset()
    analyzed: AnalyzedQuery | None = None

    @property
    def accepting_index(self) -> int:
        """Stage index that signifies completion."""
        return len(self.stages)

    @property
    def has_trailing_negation(self) -> bool:
        return any(neg.before_is_end for neg in self.negations)

    def stage_for_type(self, event_type: str) -> list[Stage]:
        """Stages whose element type matches ``event_type``."""
        return [s for s in self.stages if s.event_type == event_type]

    def first_stage(self) -> Stage:
        return self.stages[0]
