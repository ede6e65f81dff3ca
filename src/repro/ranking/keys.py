"""Normalised ranking keys.

CEPR orders matches by a lexicographic composite of ``RANK BY`` terms, each
``ASC`` or ``DESC``.  To use plain tuple comparison ("smaller sorts first,
best match = minimum") every term is *normalised*:

* numeric values: kept as-is for ``ASC``, negated for ``DESC``;
* strings: kept for ``ASC``, wrapped in :class:`ReversedStr` (which inverts
  comparison) for ``DESC``.

Ties across all terms break by detection order (appended by
``Match.sort_key``), making every ranking a deterministic total order.
A value with no place in that order — NaN, or anything but a number or
a string — is an :class:`~repro.language.errors.EvaluationError`.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Any

from repro.language.ast_nodes import Direction
from repro.language.errors import EvaluationError


@total_ordering
class ReversedStr:
    """A string that compares in reverse lexicographic order."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReversedStr):
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other: "ReversedStr") -> bool:
        if not isinstance(other, ReversedStr):
            return NotImplemented
        return self.value > other.value

    def __hash__(self) -> int:
        return hash(("ReversedStr", self.value))

    def __repr__(self) -> str:
        return f"ReversedStr({self.value!r})"


def normalise_component(value: Any, direction: Direction) -> Any:
    """Normalise one rank-key value so smaller sorts better."""
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        if value != value:
            raise EvaluationError("RANK BY expressions must not produce NaN")
        return value if direction is Direction.ASC else -value
    if isinstance(value, str):
        return value if direction is Direction.ASC else ReversedStr(value)
    raise EvaluationError(
        f"RANK BY expressions must produce numbers or strings, got {value!r}"
    )


def normalise_bound(value: float, direction: Direction) -> float:
    """Normalise the *optimistic* end of a numeric interval bound.

    For ``ASC`` the best achievable normalised component is the interval's
    lower end; for ``DESC`` it is the negated upper end.  Callers pass the
    corresponding raw endpoint here.
    """
    return value if direction is Direction.ASC else -value
