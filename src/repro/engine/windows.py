"""Window bookkeeping shared by the matcher and the ranking layer.

Per-run sliding-window expiry lives on :class:`~repro.engine.runs.Run`
itself; this module provides the *tumbling epoch* arithmetic used by
``EMIT ON WINDOW CLOSE`` (DESIGN.md: in that mode the stream is cut into
consecutive epochs of the window span, matches compete within their epoch,
and runs never cross an epoch boundary).
"""

from __future__ import annotations

from repro.events.event import Event
from repro.language.ast_nodes import WindowKind, WindowSpec


class EpochTracker:
    """Maps events to tumbling epochs of one window span.

    Epoch ``i`` covers sequence numbers ``[i*span, (i+1)*span)`` for count
    windows, or timestamps ``[i*span, (i+1)*span)`` for time windows.  The
    kind and the span are decided once, here.
    """

    __slots__ = ("window", "by_count", "span")

    def __init__(self, window: WindowSpec) -> None:
        self.window = window
        #: whether epochs are cut by sequence number (else by timestamp).
        self.by_count = window.kind is WindowKind.COUNT
        #: the epoch length: an ``int`` for count windows.
        self.span = int(window.span) if self.by_count else window.span

    def epoch_of(self, event: Event) -> int:
        """The epoch ``event`` belongs to."""
        if self.by_count:
            return event.seq // self.span
        return int(event.timestamp // self.span)

    def epoch_of_point(self, seq: int, timestamp: float) -> int:
        if self.by_count:
            return int(seq // self.span)
        return int(timestamp // self.span)

    def epoch_bounds(self, epoch: int) -> tuple[float, float]:
        """Half-open ``[start, end)`` bounds of ``epoch`` in its native unit."""
        span = self.window.span
        return (epoch * span, (epoch + 1) * span)
