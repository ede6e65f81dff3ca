"""Strict-JSON encoding of payloads that may carry non-finite floats.

Python's ``json.dumps`` default emits ``NaN``/``Infinity``/``-Infinity``
tokens, which are *not* JSON: ``JSON.parse``, jq, and most non-Python
consumers reject the whole line.  Every serialisation boundary in CEPR
therefore encodes with ``allow_nan=False`` and an explicit policy for
non-finite floats, decided here and nowhere else:

* **Flat payloads** (the event log, emission JSONL, the TCP wire): a
  non-finite value is written as ``null`` and its kind recorded in a
  ``"~nf"`` flag field mapping the attribute name to
  ``"nan"``/``"inf"``/``"-inf"`` (:func:`scrub`, :func:`unscrub`).  ``~``
  cannot start a CEPR-QL identifier, so the flag field can never collide
  with a real attribute.
* **Nested state** (checkpoint files, worker pipe frames): a non-finite
  float becomes the sentinel object ``{"~nf": kind}``.
  :func:`encode_state` encodes strictly and copies the state through
  :func:`sanitize` only when that refuses a non-finite float;
  :func:`decode_state` walks it back only when the text holds the
  sentinel key.

Either way the emitted bytes are valid JSON everywhere and the original
values round-trip exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any

#: Flag field carrying non-finite attribute kinds alongside a payload.
NONFINITE_KEY = "~nf"
#: the sentinel key as it appears in encoded text
_SENTINEL = json.dumps(NONFINITE_KEY)

_KIND_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def classify(value: Any) -> str | None:
    """``"nan"``/``"inf"``/``"-inf"`` for a non-finite float, else ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return None


def scrub(payload: dict[str, Any]) -> dict[str, Any]:
    """A flat payload that serialises strictly: ``payload`` itself when it
    holds no non-finite float, else a copy with each one as ``None`` and a
    trailing ``"~nf"`` flag field mapping its attribute to its kind."""
    flags = {attr: kind for attr, value in payload.items() if (kind := classify(value))}
    if not flags:
        return payload
    clean = {attr: None if attr in flags else value for attr, value in payload.items()}
    clean[NONFINITE_KEY] = flags
    return clean


def unscrub(record: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`scrub`, in place: pops the flag field and restores
    the non-finite values it names."""
    for attr, kind in record.pop(NONFINITE_KEY, {}).items():
        record[attr] = _KIND_VALUES[kind]
    return record


def sanitize(obj: Any) -> Any:
    """Deep-copy ``obj`` replacing non-finite floats with sentinel objects.

    The result serialises under ``allow_nan=False``.  Dicts and lists are
    recursed; tuples become lists (JSON has no tuple type — decoders that
    need tuples restore them structurally).
    """
    kind = classify(obj)
    if kind is not None:
        return {NONFINITE_KEY: kind}
    if isinstance(obj, dict):
        return {key: sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(value) for value in obj]
    return obj


def desanitize(obj: Any) -> Any:
    """Inverse of :func:`sanitize` (sentinel objects back to floats)."""
    if isinstance(obj, dict):
        if set(obj) == {NONFINITE_KEY}:
            return _KIND_VALUES[obj[NONFINITE_KEY]]
        return {key: desanitize(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [desanitize(value) for value in obj]
    return obj


def encode_state(obj: Any, **json_kwargs: Any) -> str:
    """Nested ``obj`` as compact strict JSON (``json_kwargs`` go to
    ``json.dumps``); only a state the strict encoder refuses is copied
    through :func:`sanitize` and encoded again."""
    json_kwargs.setdefault("separators", (",", ":"))
    try:
        return json.dumps(obj, allow_nan=False, **json_kwargs)
    except ValueError:
        return json.dumps(sanitize(obj), allow_nan=False, **json_kwargs)


def decode_state(text: str) -> Any:
    """Inverse of :func:`encode_state`."""
    obj = json.loads(text)
    return desanitize(obj) if _SENTINEL in text else obj


def dumps(obj: Any) -> str:
    """``json.dumps`` that refuses to emit invalid NaN/Infinity tokens:
    corrupting the output stream silently would be strictly worse."""
    return json.dumps(obj, allow_nan=False)
