"""JSON serialisation of matches and emissions.

Shared by the CLI's ``--output jsonl`` mode and
:class:`~repro.runtime.sinks.JSONLSink`, so downstream consumers see one
stable schema: an emission object with a ``ranking`` array of match
objects, each carrying its query name, rank values, time span, and full
bindings.

Non-finite floats (NaN/Infinity) are not valid JSON; bare ``json.dumps``
would happily emit them and break strict parsers downstream.  Event
payloads are scrubbed through :mod:`repro.events.jsonsafe` — affected
attributes serialise as ``null`` plus a ``"~nf"`` flag field naming the
original value — and rank values get the same treatment as a
positional flag map.  :func:`event_from_json` and
:func:`emission_from_line` reverse it, so a NaN sensor reading survives a
round trip through a JSONL sink.
"""

from __future__ import annotations

import json
from typing import Any

from repro.engine.match import Match
from repro.events.event import Event
from repro.events.jsonsafe import NONFINITE_KEY, dumps, scrub, unscrub
from repro.ranking.emission import Emission


def event_to_json(event: Event) -> dict[str, Any]:
    """One event as a JSON-compatible dict (type + timestamp + payload)."""
    return {"type": event.event_type, "t": event.timestamp, **scrub(event.payload)}


def event_from_json(doc: dict[str, Any]) -> Event:
    """Inverse of :func:`event_to_json` (non-finite flags restored)."""
    payload = unscrub({k: v for k, v in doc.items() if k not in ("type", "t")})
    return Event(doc["type"], doc["t"], **payload)


def match_to_json(match: Match) -> dict[str, Any]:
    """One match as a JSON-compatible dict (query, rank values, bindings)."""
    bindings: dict[str, Any] = {}
    for var, binding in match.bindings.items():
        if isinstance(binding, Event):
            bindings[var] = event_to_json(binding)
        else:
            bindings[var] = [event_to_json(e) for e in binding]
    ranks = scrub({str(index): value for index, value in enumerate(match.rank_values)})
    rank_flags = ranks.pop(NONFINITE_KEY, None)
    doc = {
        "query": match.query_name,
        "rank_values": list(ranks.values()),
        "first_ts": match.first_ts,
        "last_ts": match.last_ts,
        "bindings": bindings,
    }
    if rank_flags:
        doc[NONFINITE_KEY] = rank_flags
    return doc


def emission_to_json(emission: Emission) -> dict[str, Any]:
    """One emission as a JSON-compatible dict with its full ranking."""
    return {
        "kind": emission.kind.value,
        "at_ts": emission.at_ts,
        "epoch": emission.epoch,
        "revision": emission.revision,
        "ranking": [match_to_json(m) for m in emission.ranking],
    }


def emission_to_line(emission: Emission) -> str:
    """One emission as a compact JSON line (strict: rejects bare NaN)."""
    return dumps(emission_to_json(emission))


def emission_from_line(line: str) -> dict[str, Any]:
    """Parse one JSONL emission line back to a dict, restoring non-finite
    rank values and payload attributes flagged by the encoder."""
    doc = json.loads(line)
    for match_doc in doc.get("ranking", []):
        values = match_doc.get("rank_values", [])
        flags = match_doc.pop(NONFINITE_KEY, {})
        for index, value in unscrub({NONFINITE_KEY: flags}).items():
            values[int(index)] = value
        for binding in match_doc.get("bindings", {}).values():
            event_docs = binding if isinstance(binding, list) else [binding]
            for event_doc in event_docs:
                unscrub(event_doc)
    return doc
