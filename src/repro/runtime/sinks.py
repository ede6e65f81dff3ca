"""Result sinks and subscriptions: where a query's emissions go.

A sink is anything with an ``accept(emission)`` method; ``flush()`` and
``close()`` are *optional* lifecycle extensions (buffered sinks implement
them, in-memory ones need not).  The engine propagates the lifecycle:
:meth:`~repro.runtime.engine.CEPREngine.flush` flushes every sink and
:meth:`~repro.runtime.engine.CEPREngine.close` closes them, so a JSONL
file sink no longer needs caller-side special-casing.

The first-class wiring surface is the **subscription API**::

    sub = query.subscribe(lambda emission: ..., kinds=("window_close",))
    ...
    sub.cancel()            # detach; delivery stops immediately

``subscribe`` accepts a plain callback *or* a full sink object (anything
with ``accept``); the returned :class:`Subscription` is itself a sink that
filters by emission kind, counts deliveries, and forwards the lifecycle
calls to the wrapped sink.

All built-in sinks share :class:`BaseSink`: subclasses implement
``_deliver`` and get the ``emissions_accepted`` counter and the default
no-op lifecycle for free.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Protocol, TextIO, Union

from repro.engine.match import Match
from repro.ranking.emission import Emission, EmissionKind


class ResultSink(Protocol):
    """Anything that can receive emissions.

    ``flush`` and ``close`` are optional extensions of the protocol: the
    engine calls them through :func:`flush_sink`/:func:`close_sink`, which
    skip sinks that do not implement them.  Implement ``flush`` when the
    sink buffers (write-through to disk or network) and ``close`` when it
    owns a resource (file handle, socket).
    """

    def accept(self, emission: Emission) -> None: ...


#: What ``subscribe`` accepts: a callback or a full sink object.
SinkLike = Union[Callable[[Emission], None], ResultSink]


def flush_sink(sink: ResultSink) -> None:
    """Call ``sink.flush()`` if the sink implements the optional method."""
    flush = getattr(sink, "flush", None)
    if callable(flush):
        flush()


def close_sink(sink: ResultSink) -> None:
    """Call ``sink.close()`` if the sink implements the optional method."""
    close = getattr(sink, "close", None)
    if callable(close):
        close()


def normalize_kinds(
    kinds: EmissionKind | str | Iterable[EmissionKind | str] | None,
) -> frozenset[EmissionKind] | None:
    """Normalise a kinds filter to a frozenset of :class:`EmissionKind`.

    ``None`` means "all kinds".  Accepts enum members, their string values
    (``"window_close"``), or any iterable of either.
    """
    if kinds is None:
        return None
    if isinstance(kinds, (EmissionKind, str)):
        kinds = (kinds,)
    normalized = frozenset(
        kind if isinstance(kind, EmissionKind) else EmissionKind(kind)
        for kind in kinds
    )
    if not normalized:
        raise ValueError("kinds filter must name at least one emission kind")
    return normalized


class BaseSink:
    """Shared sink plumbing: the acceptance counter and no-op lifecycle.

    Subclasses implement :meth:`_deliver`; ``accept`` counts then
    delegates.  ``flush``/``close`` are no-ops unless overridden.
    """

    def __init__(self) -> None:
        self.emissions_accepted = 0

    def accept(self, emission: Emission) -> None:
        self.emissions_accepted += 1
        self._deliver(emission)

    def _deliver(self, emission: Emission) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output downstream (no-op by default)."""

    def close(self) -> None:
        """Release owned resources (no-op by default)."""


class Subscription(BaseSink):
    """A detachable, kind-filtered delivery handle for one subscriber.

    Returned by ``RegisteredQuery.subscribe`` (and the engine/runner-level
    ``subscribe`` wrappers).  The subscription *is* the sink registered on
    the query: it filters emissions by :class:`EmissionKind`, counts what
    it delivered (``emissions_accepted``), and forwards ``flush``/``close``
    to the wrapped target when that target is a sink object.

    ``cancel`` detaches the subscription from its owner and is idempotent;
    a cancelled subscription drops anything still routed to it.
    """

    def __init__(
        self,
        owner: Any,
        target: SinkLike,
        kinds: EmissionKind | str | Iterable[EmissionKind | str] | None = None,
    ) -> None:
        super().__init__()
        self._owner = owner
        self.kinds = normalize_kinds(kinds)
        accept = getattr(target, "accept", None)
        if callable(accept):
            self._sink: ResultSink | None = target  # type: ignore[assignment]
            self._callback: Callable[[Emission], None] = accept
        elif callable(target):
            self._sink = None
            self._callback = target
        else:
            raise TypeError(
                f"subscribe target must be a callable or a sink with "
                f"accept(), got {type(target).__name__}"
            )
        self.active = True

    @property
    def target(self) -> SinkLike:
        """The callback or sink this subscription delivers to."""
        return self._sink if self._sink is not None else self._callback

    def accept(self, emission: Emission) -> None:
        if not self.active:
            return
        if self.kinds is not None and emission.kind not in self.kinds:
            return
        self.emissions_accepted += 1
        self._callback(emission)

    def flush(self) -> None:
        if self._sink is not None:
            flush_sink(self._sink)

    def close(self) -> None:
        if self._sink is not None:
            close_sink(self._sink)

    def cancel(self) -> bool:
        """Detach from the owning query; safe to call more than once.

        Returns ``True`` when this call detached the subscription and
        ``False`` when it was already cancelled.
        """
        if not self.active:
            return False
        self.active = False
        remove = getattr(self._owner, "remove_sink", None)
        if callable(remove):
            remove(self)
        return True


class SinkOwner:
    """The subscription API of a query handle, over its ``sinks`` list.

    Shared by :class:`~repro.runtime.query.RegisteredQuery` (sinks fed
    as the engine emits) and :class:`~repro.runtime.sharded.ShardedQuery`
    (sinks fed the merged stream, at merge release points).
    """

    sinks: list

    def subscribe(
        self,
        target: SinkLike,
        kinds: EmissionKind | str | Iterable[EmissionKind | str] | None = None,
    ) -> Subscription:
        """Attach a subscriber; returns a cancellable handle.

        ``target`` is a callback ``(Emission) -> None`` or a sink object
        (anything with ``accept``).  ``kinds`` optionally restricts
        delivery to the given :class:`~repro.ranking.emission.EmissionKind`
        values (enum members or their string values).  Cancel the returned
        :class:`Subscription` to detach.
        """
        subscription = Subscription(self, target, kinds=kinds)
        self.sinks.append(subscription)
        return subscription

    def remove_sink(self, sink: ResultSink) -> bool:
        """Detach a sink (or subscription); returns whether it was attached.

        Accepts the attached :class:`Subscription` itself — or the target
        that a :meth:`subscribe` call wrapped, in which case its
        subscription is cancelled.
        """
        try:
            self.sinks.remove(sink)
        except ValueError:
            for attached in self.sinks:
                if isinstance(attached, Subscription) and attached.target is sink:
                    return attached.cancel()
            return False
        if isinstance(sink, Subscription):
            sink.active = False
        return True

    def flush_sinks(self) -> None:
        """Propagate the optional ``flush`` lifecycle call to every sink."""
        for sink in self.sinks:
            flush_sink(sink)

    def close_sinks(self) -> None:
        """Propagate the optional ``close`` lifecycle call to every sink."""
        for sink in self.sinks:
            close_sink(sink)


class CollectorSink(BaseSink):
    """Stores every emission; the default sink behind ``Query.results()``."""

    def __init__(self) -> None:
        super().__init__()
        self.emissions: list[Emission] = []

    def _deliver(self, emission: Emission) -> None:
        self.emissions.append(emission)

    def __len__(self) -> int:
        return len(self.emissions)

    def __iter__(self) -> Iterator[Emission]:
        return iter(self.emissions)

    def matches(self) -> list[Match]:
        """All matches across emissions, in emission order (may repeat a
        match across eager revisions)."""
        return [m for e in self.emissions for m in e.ranking]

    def final_ranking(self) -> list[Match]:
        """The ranking of the most recent emission."""
        return list(self.emissions[-1].ranking) if self.emissions else []

    def clear(self) -> None:
        self.emissions.clear()


class CallbackSink(BaseSink):
    """Invokes ``callback(emission)`` for every emission."""

    def __init__(self, callback: Callable[[Emission], None]) -> None:
        super().__init__()
        self._callback = callback

    def _deliver(self, emission: Emission) -> None:
        self._callback(emission)


class PrintSink(BaseSink):
    """Writes ``emission.describe()`` lines to a text stream."""

    def __init__(self, out: TextIO) -> None:
        super().__init__()
        self._out = out

    def _deliver(self, emission: Emission) -> None:
        self._out.write(emission.describe() + "\n")

    def flush(self) -> None:
        self._out.flush()


class JSONLSink(BaseSink):
    """Persists emissions as JSON lines (one emission per line).

    Accepts an open text handle or a path; when given a path, the file is
    opened lazily on the first emission.  The sink participates in the
    standard lifecycle — engine ``flush``/``close`` propagate here — and
    still works as a context manager for standalone use.

    ``mode`` controls what happens to an existing file at that path:
    ``"w"`` (default) truncates, ``"a"`` appends.  A resumed run
    (``cepr run --resume``) must use ``"a"`` — truncating would destroy
    the emissions already written before the crash.
    """

    def __init__(self, target: Any, mode: str = "w") -> None:
        from pathlib import Path

        super().__init__()
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._handle: TextIO | None = None
        else:
            self._path = None
            self._handle = target
        self._mode = mode
        self.emissions_written = 0

    @property
    def emissions_accepted(self) -> int:  # type: ignore[override]
        return self.emissions_written

    @emissions_accepted.setter
    def emissions_accepted(self, value: int) -> None:
        self.emissions_written = value

    def _deliver(self, emission: Emission) -> None:
        from repro.runtime.serialize import emission_to_line

        if self._handle is None:
            assert self._path is not None
            self._handle = self._path.open(self._mode)
        self._handle.write(emission_to_line(emission) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._path is not None and self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
