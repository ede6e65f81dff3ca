"""Lock-order race detection and lock contention accounting.

:func:`tracked_lock` is the project-wide lock constructor: with the
sanitizer disabled it returns a plain ``threading.Lock`` (zero cost, no
wrapper in the acquire path); enabled, it returns a :class:`TrackedLock`
that feeds two facilities:

* a process-wide **lock-order graph** — every acquire records
  ``held → acquiring`` edges per thread, and a cycle in that graph is a
  *potential deadlock* (two threads that ever take the same locks in
  opposite orders can deadlock under the right interleaving, whether or
  not they did this run).  TSan-style: the bug is reported without
  needing the hang to actually happen.
* **contention counters** — acquire count, contended-acquire count, and
  a wait-time histogram (zero samples for uncontended acquires, so the
  distribution covers every acquisition).  Surfaced through
  :func:`register_lock_metrics` in ``cepr stats``.

The self-lint rule CEPR603 enforces that production code under
``src/repro`` constructs locks through :func:`tracked_lock` only.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable

from repro.observability.instruments import LOCK, bind_table
from repro.runtime.metrics import LatencyRecorder
from repro.sanitize.core import Sanitizer, sanitizer_enabled

_tls = threading.local()


def _held_stack() -> list[str]:
    """Names of tracked locks the current thread holds, in acquire order."""
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class LockOrderGraph:
    """Directed *held-before* graph over named locks, with cycle detection.

    ``record(held, acquiring)`` adds one edge per held lock and reports a
    cycle the first time the new edges close one.  Each distinct cycle
    (as a set of lock names) is reported once — a hot loop re-acquiring
    in the inverted order should not flood the log.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        self._reported: set[frozenset[str]] = set()
        self._mutex = threading.Lock()  # san: allow-raw-lock (is the tracker)

    def edges(self) -> dict[str, frozenset[str]]:
        with self._mutex:
            return {name: frozenset(out) for name, out in self._edges.items()}

    def record(
        self, held: Iterable[str], acquiring: str
    ) -> list[str] | None:
        """Add ``held → acquiring`` edges; return a new cycle path, if any."""
        with self._mutex:
            added = False
            for name in held:
                if name == acquiring:
                    continue
                out = self._edges.setdefault(name, set())
                if acquiring not in out:
                    out.add(acquiring)
                    added = True
            if not added:
                return None
            cycle = self._find_cycle(acquiring)
            if cycle is None:
                return None
            signature = frozenset(cycle)
            if signature in self._reported:
                return None
            self._reported.add(signature)
            return cycle

    def _find_cycle(self, start: str) -> list[str] | None:
        """DFS for a path ``start → … → start`` through the edge set."""
        path: list[str] = []
        seen: set[str] = set()

        def walk(node: str) -> bool:
            for nxt in self._edges.get(node, ()):
                if nxt == start:
                    return True
                if nxt in seen:
                    continue
                seen.add(nxt)
                path.append(nxt)
                if walk(nxt):
                    return True
                path.pop()
            return False

        if walk(start):
            return [start, *path, start]
        return None


#: process-wide default graph — lock ordering is a whole-process property.
_default_graph = LockOrderGraph()
#: default reporter for locks constructed without an explicit sanitizer.
_default_sanitizer = Sanitizer(scope="locks")


def default_lock_sanitizer() -> Sanitizer:
    """The reporter behind locks made by bare :func:`tracked_lock` calls."""
    return _default_sanitizer


class TrackedLock:
    """A named ``threading.Lock`` that feeds the order graph and counters.

    API-compatible with ``threading.Lock`` (``acquire``/``release``/
    ``locked``/context manager).  The order edge is recorded on acquire
    *intent* — before blocking — so an actual deadlock still gets its
    report.
    """

    def __init__(
        self,
        name: str,
        *,
        graph: LockOrderGraph | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        self.name = name
        self._lock = threading.Lock()  # san: allow-raw-lock (is the wrapper)
        self._graph = graph if graph is not None else _default_graph
        self._sanitizer = (
            sanitizer if sanitizer is not None else _default_sanitizer
        )
        #: successful acquisitions.
        self.acquisitions = 0
        #: acquisitions that had to wait (fast-path try failed).
        self.contended = 0
        #: wait-time distribution over *all* acquisitions (zeros when
        #: uncontended), pooled by ``register_lock_metrics``.
        self.wait_times = LatencyRecorder()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = _held_stack()
        cycle = self._graph.record(tuple(held), self.name)
        if cycle is not None:
            self._sanitizer.trip(
                "lock-order-cycle",
                "potential deadlock: lock-order cycle "
                + " -> ".join(cycle)
                + f" (thread {threading.current_thread().name!r} holds "
                + f"{held!r} while acquiring {self.name!r})",
                cycle=list(cycle),
                held=list(held),
                acquiring=self.name,
            )
        acquired = self._lock.acquire(False)
        if not acquired:
            if not blocking:
                return False
            self.contended += 1
            started = time.perf_counter()
            acquired = self._lock.acquire(True, timeout)
            self.wait_times.record(time.perf_counter() - started)
            if not acquired:
                return False
        else:
            self.wait_times.record_zeros()
        self.acquisitions += 1
        held.append(self.name)
        return True

    def release(self) -> None:
        held = _held_stack()
        if held and held[-1] == self.name:
            held.pop()
        elif self.name in held:  # non-nested release order is legal
            held.remove(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedLock({self.name!r}, acquisitions={self.acquisitions})"


def tracked_lock(
    name: str,
    *,
    graph: LockOrderGraph | None = None,
    sanitizer: Sanitizer | None = None,
):
    """The project lock constructor: tracked when sanitizing, plain otherwise.

    Passing an explicit ``sanitizer`` (tests, targeted soak runs) forces
    a :class:`TrackedLock` regardless of the global switch.
    """
    if sanitizer is not None or sanitizer_enabled():
        return TrackedLock(name, graph=graph, sanitizer=sanitizer)
    return threading.Lock()  # san: allow-raw-lock (disabled-mode fast path)


def register_lock_metrics(registry, lock, **labels) -> None:
    """Expose one tracked lock's counters in a metrics registry.

    No-op for plain locks, so callers can pass whatever
    :func:`tracked_lock` returned without checking.
    """
    if isinstance(lock, TrackedLock):
        bind_table(registry, LOCK, lock, lock=lock.name, **labels)
