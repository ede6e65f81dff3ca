"""Skyline (Pareto-front) ranking — a multi-criteria extension.

Lexicographic ``RANK BY`` imposes a total order: the second key only breaks
ties on the first.  When criteria are genuinely incomparable — maximise
profit *and* minimise duration — the natural "best" answers are the
**Pareto front**: matches not dominated on every criterion by any other
match.  This module provides that semantics over scored matches, as the
kind of future-work extension a ranking-CEP system grows into:

>>> front = pareto_front(query.matches(), query.analyzed.rank_keys)

Matches must already carry ``rank_values`` (the Scorer fills them); each
``RANK BY`` direction says which way is better for that criterion (``DESC``
= larger is better).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.engine.match import Match
from repro.language.ast_nodes import Direction
from repro.language.errors import EvaluationError
from repro.language.semantics import CompiledRankKey


def _oriented(values: Sequence[Any], directions: Sequence[Direction]) -> tuple[float, ...]:
    """Rewrite criterion values so that larger is always better."""
    if len(values) != len(directions):
        raise ValueError(
            f"match has {len(values)} rank values but {len(directions)} "
            f"directions were given"
        )
    oriented = []
    for value, direction in zip(values, directions):
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            raise EvaluationError(
                f"skyline criteria must be numeric, got {value!r}"
            )
        oriented.append(value if direction is Direction.DESC else -value)
    return tuple(oriented)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether oriented vector ``a`` dominates ``b``.

    ``a`` dominates ``b`` when it is at least as good on every criterion
    and strictly better on at least one.
    """
    at_least_as_good = all(x >= y for x, y in zip(a, b))
    strictly_better = any(x > y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def _directions_of(keys: Sequence[CompiledRankKey | Direction]) -> list[Direction]:
    return [k if isinstance(k, Direction) else k.direction for k in keys]


def pareto_front(
    matches: Iterable[Match],
    keys: Sequence[CompiledRankKey | Direction],
) -> list[Match]:
    """The non-dominated subset of ``matches``, in detection order.

    ``keys`` supplies one direction per rank value — pass a query's
    ``analyzed.rank_keys`` or a plain list of :class:`Direction`.
    Duplicate criterion vectors all stay on the front (none dominates the
    others).
    """
    directions = _directions_of(keys)
    candidates = [
        (match, _oriented(match.rank_values, directions)) for match in matches
    ]
    front: list[tuple[Match, tuple[float, ...]]] = []
    for match, vector in candidates:
        if any(dominates(other, vector) for _m, other in candidates):
            continue
        front.append((match, vector))
    front.sort(key=lambda pair: pair[0].detection_index)
    return [match for match, _v in front]
