"""Partition-key extraction for ``PARTITION BY``.

Partitioning splits the run space by the values of one or more attributes
(e.g. ``PARTITION BY symbol``): events only interact with runs of their own
key, which is both a semantic construct (per-symbol patterns) and the main
scalability lever (run lists stay short).
"""

from __future__ import annotations

from typing import Any

from repro.events.event import Event

#: The single key used by unpartitioned queries.
GLOBAL_KEY: tuple[Any, ...] = ()


class Partitioner:
    """Extracts a hashable partition key from each event."""

    def __init__(self, attributes: tuple[str, ...]) -> None:
        self.attributes = attributes

    def key_of(self, event: Event) -> tuple[Any, ...] | None:
        """The event's partition key, or ``None`` if a key attribute is
        missing (such events cannot participate and are skipped)."""
        if not self.attributes:
            return GLOBAL_KEY
        key = []
        for attr in self.attributes:
            if attr not in event.payload:
                return None
            key.append(event.payload[attr])
        return tuple(key)
