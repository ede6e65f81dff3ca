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

    def restore(self, matches: list[Match], discarded: int, unordered: bool) -> None:
        """Hold ``matches`` exactly as a checkpoint stored them (best-first,
        within capacity).  Inserting them again would re-sort them, and keys
        a NaN left unordered have no sorted place to return to."""
        self._matches = list(matches)
        self._keys = [match.sort_key() for match in self._matches]
        self.discarded = discarded
        # a snapshot written before the flag existed reads its held keys
        self.unordered = unordered or any(key[0] != key[0] for key in self._keys)


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

    NaN compares false both ways and a ``TypeError`` means no order at all:
    while any held key is *unordered* the scope drops nothing, holds its
    members in insertion order and sorts them on :meth:`ranking`, and once
    those keys expire it rebuilds the band from what it holds.
    """

    def __init__(self, k: int | None, window: WindowSpec | None) -> None:
        self.k = k
        self.window = window
        self._by_time = window is not None and window.kind is WindowKind.TIME
        # One member per index of four parallel lists, ascending by sort key
        # — or in insertion order while unordered, with no keys or counts.
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
        #: ordinal of the newest member with an unordered key, while held.
        self._unordered_through: int | None = None
        #: matches that left by expiry.
        self.expired = 0
        #: matches dropped because k better matches outlive them.
        self.dominated = 0

    def __len__(self) -> int:
        return len(self._matches)

    @property
    def unordered(self) -> bool:
        """Whether a held key has no total order (NaN, or a ``TypeError``)."""
        return self._unordered_through is not None

    def held(self) -> list[tuple[Match, float]]:
        """``(match, stamp)`` for every member, in insertion order."""
        return [(self._matches[i], self._marks[i][0]) for i in self._insertion_order()]

    def _insertion_order(self) -> list[int]:
        marks = self._marks
        return sorted(range(len(marks)), key=lambda i: marks[i][1])

    def insert(self, match: Match, stamp: float | None = None) -> None:
        """Insert a completed match; ``stamp`` restores a checkpointed one."""
        if stamp is None:
            stamp = match.last_ts if self._by_time else match.last_seq
        stamp = self._stamp(stamp)
        if self._oldest_stamp is None:
            self._oldest_stamp = stamp
        mark = (stamp, next(self._ordinals))
        key = match.sort_key()
        ordered = True
        for component in key:
            if component != component:  # NaN
                ordered = False
                break
        if self._unordered_through is None:
            if ordered:
                try:
                    index = bisect.bisect_left(self._keys, key)
                except TypeError:
                    ordered = False
                else:
                    self._keys.insert(index, key)
                    self._matches.insert(index, match)
                    self._marks.insert(index, mark)
                    self._beaten.insert(index, 0)
                    if self.k is not None:
                        self._dominate(index, self.k)
                    return
            order = self._insertion_order()
            self._matches = [self._matches[i] for i in order]
            self._marks = [self._marks[i] for i in order]
            self._keys, self._beaten = [], []
        if not ordered:
            self._unordered_through = mark[1]
        self._matches.append(match)
        self._marks.append(mark)

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
            self._last_stamp = self._oldest_stamp = self._unordered_through = None
            return dropped
        self._oldest_stamp = min(stamp for stamp, _ordinal in marks)
        through = self._unordered_through
        if through is not None and marks[0][1] > through:
            self._rebuild()
        return dropped

    def _rebuild(self) -> None:
        """The unordered keys have expired: re-insert what is held."""
        held = self.held()
        self._keys, self._matches, self._marks, self._beaten = [], [], [], []
        self._last_stamp = self._oldest_stamp = self._unordered_through = None
        for match, stamp in held:
            self.insert(match, stamp)

    def ranking(self) -> list[Match]:
        """Best-first snapshot of the current top-k among live matches."""
        k = self.k
        if self._unordered_through is not None:
            ordered = sorted(self._matches, key=Match.sort_key)
            return ordered if k is None else ordered[:k]
        return self._matches[:] if k is None else self._matches[:k]
