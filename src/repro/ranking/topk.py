"""Top-k containers used by the rank operator.

Two containers for the two ranking scopes:

* :class:`EpochTopK` — bounded, insert-only; used in tumbling mode
  (``EMIT ON WINDOW CLOSE``), where a match that falls out of the top-k can
  never re-enter (scores within an epoch only accumulate, nothing leaves).
  Exposes the k-th score as the **pruning bound**.
* :class:`SlidingRanking` — the live matches of a sliding window that can
  still reach the top k, a *k-skyband*; used by ``EMIT EVERY`` and
  ``EMIT EAGER``, where an expiring better match can promote a worse one,
  so a match leaves early only once k better matches are sure to outlive
  it (and pruning has no θ — see DESIGN.md).
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
        against: a later insert can only lower it.
        """
        if not self.is_full or not self._matches:
            return None
        return self._keys[-1]

    def insert(self, match: Match) -> bool:
        """Insert ``match``; returns ``True`` if it is retained.

        A key that cannot be compared with a held one raises ``TypeError``
        before anything changes.
        """
        key = match.sort_key()
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
    """The live matches that can still reach the top k: a k-skyband.

    A match is *live* while the observation point is within the window span
    of its completion — for count windows ``now_seq - last_seq < span``, for
    time windows ``now_ts - last_ts <= span`` — and expiry drops a *prefix*
    of the insertion order: it stops at the first live match, so a match
    inserted later never leaves before one inserted earlier.  Each member
    carries an **expiry stamp**, the running maximum of completion points
    over insertion order (a pending match confirmed late can arrive with an
    older point), and leaves exactly when its stamp is out of the window.

    So once k matches with smaller sort keys have been inserted after a
    match, those k outlive it and it can never re-enter the top k: it is
    dropped on the spot (counted in :attr:`dominated`).  Members are kept
    sorted by sort key and :meth:`ranking` is a slice.  Each member of the
    band has all its dominators in the band too (a dropped match's
    dominators dominate everything it dominated), so the band alone
    restores exactly.
    """

    def __init__(self, k: int | None, window: WindowSpec | None) -> None:
        self.k = k
        self.window = window
        self._by_time = window is not None and window.kind is WindowKind.TIME
        # One member per index of four parallel lists, ascending by sort key.
        self._keys: list[tuple[Any, ...]] = []
        self._matches: list[Match] = []
        #: ``(stamp, ordinal)``: when the member leaves, and its insertion rank.
        self._marks: list[tuple[float, int]] = []
        #: better members inserted after this one; it is dropped at k.
        self._beaten: list[int] = []
        self._ordinals = itertools.count()
        #: the newest stamp handed out (``None`` once everything expired).
        self._last_stamp: float | None = None
        #: no member's stamp is older than this (a lower bound: a dominated
        #: member may have held it), so expiry usually costs one comparison.
        self._oldest_stamp: float | None = None
        #: matches that left by expiry.
        self.expired = 0
        #: matches dropped because k better matches outlive them.
        self.dominated = 0

    def __len__(self) -> int:
        return len(self._matches)

    def held(self) -> list[tuple[Match, float]]:
        """``(match, stamp)`` for every member, in insertion order."""
        marks = self._marks
        order = sorted(range(len(marks)), key=lambda i: marks[i][1])
        return [(self._matches[i], marks[i][0]) for i in order]

    def insert(self, match: Match, stamp: float | None = None) -> None:
        """Insert a completed match; ``stamp`` restores a checkpointed one.

        A key that cannot be compared with a held one raises ``TypeError``
        before anything changes.
        """
        key = match.sort_key()
        index = bisect.bisect_left(self._keys, key)
        if stamp is None:
            stamp = match.last_ts if self._by_time else match.last_seq
        stamp = self._stamp(stamp)
        if self._oldest_stamp is None:
            self._oldest_stamp = stamp
        self._keys.insert(index, key)
        self._matches.insert(index, match)
        self._marks.insert(index, (stamp, next(self._ordinals)))
        self._beaten.insert(index, 0)
        if self.k is not None:
            self._dominate(index, self.k)

    def _stamp(self, point: float) -> float:
        """The expiry stamp of a match completing at ``point``: the running
        maximum over insertion order, which is when prefix expiry reaches it."""
        last = self._last_stamp
        if last is not None and last > point:
            return last
        self._last_stamp = point
        return point

    def _dominate(self, index: int, k: int) -> None:
        """The member just placed at ``index`` beats every member after it;
        drop those it makes the k-th later, better match of."""
        beaten = self._beaten
        tail = [count + 1 for count in beaten[index + 1 :]]
        beaten[index + 1 :] = tail
        doomed = tail.count(k)  # counts step by one: a doomed member holds k
        position = index + 1
        for _ in range(doomed):
            position = beaten.index(k, position)
            del self._keys[position], self._matches[position]
            del self._marks[position], beaten[position]
        self.dominated += doomed

    def expire(self, now_seq: int, now_ts: float) -> int:
        """Drop matches whose completion left the window; returns count."""
        oldest = self._oldest_stamp
        window = self.window
        if window is None or oldest is None:
            return 0
        if self._by_time:
            seconds = window.span
            if now_ts - oldest <= seconds:
                return 0
            alive = [now_ts - stamp <= seconds for stamp, _ordinal in self._marks]
        else:
            span = int(window.span)
            if now_seq - oldest < span:
                return 0
            alive = [now_seq - stamp < span for stamp, _ordinal in self._marks]
        self._keys = list(itertools.compress(self._keys, alive))
        self._matches = list(itertools.compress(self._matches, alive))
        marks = self._marks = list(itertools.compress(self._marks, alive))
        self._beaten = list(itertools.compress(self._beaten, alive))
        dropped = len(alive) - len(marks)
        self.expired += dropped
        if not marks:
            # Everything inserted so far has left the window, and so have
            # its stamps: the next match is measured from its own point.
            self._last_stamp = self._oldest_stamp = None
            return dropped
        self._oldest_stamp = min(stamp for stamp, _ordinal in marks)
        return dropped

    def ranking(self) -> list[Match]:
        """Best-first snapshot of the current top-k among live matches."""
        k = self.k
        return self._matches[:] if k is None else self._matches[:k]
