"""Top-k containers used by the rank operator.

Two containers for the two ranking scopes:

* :class:`EpochTopK` — bounded, insert-only; used in tumbling mode
  (``EMIT ON WINDOW CLOSE``), where a match that falls out of the top-k can
  never re-enter (scores within an epoch only accumulate, nothing leaves).
  Exposes the k-th score as the **pruning bound**.
* :class:`SlidingRanking` — unbounded buffer of *live* matches with
  window-driven expiry; used by ``EMIT EVERY`` and ``EMIT EAGER``, where an
  expiring better match can promote previously dominated ones (so nothing
  may be discarded early, and pruning is disabled — see DESIGN.md).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import Any, Callable, Iterable, Iterator

from repro.engine.match import Match
from repro.language.ast_nodes import WindowKind, WindowSpec


def merge_rankings(
    rankings: Iterable[list[Match]],
    k: int | None = None,
    key: Callable[[Match], tuple[Any, ...]] = Match.sort_key,
) -> list[Match]:
    """K-way merge of already-ordered rankings into one best-first list.

    Each input list must be sorted under ``key`` (smaller = better); the
    merged result is truncated to ``k`` when given.  This is how the
    sharded runtime combines per-shard top-k lists: because every shard
    ranks its own matches with the same comparator, the global top-k is the
    top-k of the merged per-shard top-k lists.
    """
    merged = heapq.merge(*rankings, key=key)
    if k is None:
        return list(merged)
    return list(itertools.islice(merged, k))


class EpochTopK:
    """A bounded best-k set ordered by ``Match.sort_key()`` (min = best)."""

    def __init__(self, k: int | None) -> None:
        self.k = k
        self._keys: list[tuple[Any, ...]] = []
        self._matches: list[Match] = []
        #: matches rejected or evicted because the buffer was full.
        self.discarded = 0
        #: a NaN primary key was inserted: NaN compares false both ways, so
        #: the list is no longer totally ordered by primary and its last
        #: key stops being a sound bound for ever (checkpoints carry it).
        self.unordered = False

    def __len__(self) -> int:
        return len(self._matches)

    def __iter__(self) -> Iterator[Match]:
        return iter(self._matches)

    @property
    def is_full(self) -> bool:
        return self.k is not None and len(self._matches) >= self.k

    def kth_key(self) -> tuple[Any, ...] | None:
        """The current k-th (worst retained) sort key, when full.

        This is the bound θ that pruning and the completing-edge cut test
        against: while the primary keys are totally ordered, a later
        insert can only lower it.  ``None`` once a NaN primary went in.
        """
        if not self.is_full or not self._matches or self.unordered:
            return None
        return self._keys[-1]

    def insert(self, match: Match) -> bool:
        """Insert ``match``; returns ``True`` if it is retained."""
        key = match.sort_key()
        if key[0] != key[0]:
            self.unordered = True
        if self.is_full and key >= self._keys[-1]:
            self.discarded += 1
            return False
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._matches.insert(index, match)
        if self.k is not None and len(self._matches) > self.k:
            self._keys.pop()
            self._matches.pop()
            self.discarded += 1
        return True

    def ranking(self) -> list[Match]:
        """Best-first snapshot."""
        return list(self._matches)


class SlidingRanking:
    """All live matches, with sliding-window expiry and top-k snapshots.

    A match is *live* while the observation point is within the window span
    of its completion: for count windows, ``now_seq - last_seq < span``;
    for time windows, ``now_ts - last_ts <= span``.
    """

    def __init__(self, k: int | None, window: WindowSpec | None) -> None:
        self.k = k
        self.window = window
        self._live: list[Match] = []  # completion order (non-decreasing last_seq)
        self.expired = 0

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[Match]:
        return iter(self._live)

    def insert(self, match: Match) -> None:
        self._live.append(match)

    def expire(self, now_seq: int, now_ts: float) -> int:
        """Drop matches whose completion left the window; returns count."""
        if self.window is None or not self._live:
            return 0
        if self.window.kind is WindowKind.COUNT:
            span = int(self.window.span)
            alive_from = 0
            for alive_from, match in enumerate(self._live):  # noqa: B007
                if now_seq - match.last_seq < span:
                    break
            else:
                alive_from = len(self._live)
        else:
            seconds = self.window.span
            alive_from = 0
            for alive_from, match in enumerate(self._live):  # noqa: B007
                if now_ts - match.last_ts <= seconds:
                    break
            else:
                alive_from = len(self._live)
        dropped = alive_from
        if dropped:
            self._live = self._live[alive_from:]
            self.expired += dropped
        return dropped

    def ranking(self) -> list[Match]:
        """Best-first snapshot of the current top-k among live matches."""
        ordered = sorted(self._live, key=Match.sort_key)
        if self.k is not None:
            return ordered[: self.k]
        return ordered
