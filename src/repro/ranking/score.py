"""Scoring: evaluate ``RANK BY`` keys over completed matches."""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

from repro.engine.match import Match
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext, Evaluator
from repro.language.semantics import CompiledRankKey, Reader, Readers
from repro.ranking.keys import normalise_component


class Scorer:
    """Computes and attaches the normalised score of each match.

    ``score(match)`` fills ``match.rank_values`` (raw values, user order)
    and ``match.score`` (normalised comparator tuple: smaller = better) and
    returns the match for chaining.

    A match the engine built (it carries its run's registers,
    ``agg_states``) is scored by each key's run reader (:func:`~repro.
    language.semantics.run_readers`) where the key is total, from its
    bindings for the rest — and wholly from its bindings when a reader
    finds an attribute absent or ill-typed.  A match decoded from a
    checkpoint or a frame carries none, and every key is evaluated over
    its bindings: nothing proves its payloads passed the registry.
    """

    def __init__(self, rank_keys: Sequence[CompiledRankKey], readers: Readers | None = None) -> None:
        self.rank_keys = tuple(rank_keys)
        self._evaluators: tuple[Reader, ...] = tuple(
            partial(_on_context, key.evaluator) for key in self.rank_keys
        )
        verdicts = readers or {}
        found = [verdicts.get(id(key.expr), (None,))[0] for key in self.rank_keys]
        #: per key, its value off a match the engine built, decided here
        #: once (``None``: no key is total)
        reads: list[Reader] = [read or partial(_from_bindings, key.evaluator)
                               for key, read in zip(self.rank_keys, found)]
        self._reads: tuple[Reader, ...] | None = tuple(reads) if any(found) else None

    @property
    def is_ranked(self) -> bool:
        return bool(self.rank_keys)

    def score(self, match: Match) -> Match:
        if not self.rank_keys:
            match.score = ()
            match.rank_values = ()
            return match
        if self._reads is not None and match.agg_states is not None:
            try:
                return self._score(match, self._reads, match)
            except LookupError:  # an attribute absent or ill-typed: as if unread
                pass
        return self._score(match, self._evaluators, EvalContext(bindings=match.bindings))

    def _score(self, match: Match, getters: tuple[Reader, ...], source: Any) -> Match:
        raw = []
        normalised = []
        for key, get in zip(self.rank_keys, getters):
            try:
                value = get(source, None)
            except EvaluationError as exc:
                raise EvaluationError(
                    f"failed to evaluate RANK BY key over a match: {exc}"
                ) from exc
            raw.append(value)
            normalised.append(normalise_component(value, key.direction))
        # the registers are read: a held match pins them no longer
        match.rank_values, match.score, match.agg_states = tuple(raw), tuple(normalised), None
        return match


def _on_context(evaluator: Evaluator, ctx: EvalContext, event: None) -> Any:
    return evaluator(ctx)


def _from_bindings(evaluator: Evaluator, match: Match, event: None) -> Any:
    return evaluator(EvalContext(bindings=match.bindings))
