"""Scoring: evaluate ``RANK BY`` keys over completed matches."""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

from repro.engine.match import Match
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext, Evaluator
from repro.language.semantics import CompiledRankKey, Register
from repro.ranking.keys import normalise_component


class Scorer:
    """Computes and attaches the normalised score of each match.

    ``score(match)`` fills ``match.rank_values`` (raw values, user order)
    and ``match.score`` (normalised comparator tuple: smaller = better) and
    returns the match for chaining.

    A match carrying its run's registers (``agg_states``) is scored from
    them for each key ``registers`` (:func:`~repro.language.semantics.
    rank_registers`) serves, from its bindings for the rest and whenever
    it carries none (restored or decoded).
    """

    def __init__(
        self, rank_keys: Sequence[CompiledRankKey], registers: Sequence[Register | None] = ()
    ) -> None:
        self.rank_keys = tuple(rank_keys)
        self._evaluators = tuple(key.evaluator for key in self.rank_keys)
        #: per key, its value off a match that carries registers, decided
        #: here once (``None``: no key is served from them)
        reads = [read or partial(_from_bindings, key.evaluator)
                 for key, read in zip(self.rank_keys, registers)]
        self._reads = tuple(reads) if any(registers) else None

    @property
    def is_ranked(self) -> bool:
        return bool(self.rank_keys)

    def score(self, match: Match) -> Match:
        if not self.rank_keys:
            match.score = ()
            match.rank_values = ()
            return match
        source: Any = match
        getters = self._reads
        if getters is None or match.agg_states is None:
            source, getters = EvalContext(bindings=match.bindings), self._evaluators
        raw = []
        normalised = []
        for key, get in zip(self.rank_keys, getters):
            try:
                value = get(source)
            except EvaluationError as exc:
                raise EvaluationError(
                    f"failed to evaluate RANK BY key over a match: {exc}"
                ) from exc
            raw.append(value)
            normalised.append(normalise_component(value, key.direction))
        # the registers are read: a held match pins them no longer
        match.rank_values, match.score, match.agg_states = tuple(raw), tuple(normalised), None
        return match


def _from_bindings(evaluator: Evaluator, match: Match) -> Any:
    return evaluator(EvalContext(bindings=match.bindings))
