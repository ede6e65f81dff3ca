"""Length-prefixed JSON frames: the codec under every CEPR byte stream.

A frame is a 4-byte big-endian unsigned length ``N`` followed by exactly
``N`` bytes of UTF-8 JSON encoding one object with an ``"op"`` string.
Two transports speak it: the TCP wire protocol
(:mod:`repro.serve.protocol`, which adds the op tables and the asyncio
and socket readers) and the worker-process pipes
(:mod:`repro.runtime.process`).  The codec lives below both so the
runtime never imports the serving layer.  TCP frames are strict JSON;
the pipes pass :func:`~repro.events.jsonsafe.encode_state` and
:func:`~repro.events.jsonsafe.decode_state` as ``encode``/``decode``, so
engine state with non-finite floats crosses them.
"""

from __future__ import annotations

import json
import struct
from functools import partial
from typing import Any, Callable

#: Default cap on a single frame's JSON payload (bytes).
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024

HEADER = struct.Struct(">I")
HEADER_BYTES = HEADER.size

E_MALFORMED = "CEPR500"
E_FRAME_TOO_LARGE = "CEPR501"


class FrameError(Exception):
    """A frame that violates the protocol; ``code`` is a ``CEPR5xx``.

    ``fatal`` marks violations after which the byte stream cannot be
    trusted (oversized frames) — the connection must close.
    """

    def __init__(self, code: str, message: str, fatal: bool = False) -> None:
        super().__init__(message)
        self.code = code
        self.fatal = fatal


class ConnectionClosed(Exception):
    """The peer closed the connection (possibly mid-frame)."""


#: the TCP frames' JSON: compact, and refusing non-finite floats.
_strict = partial(json.dumps, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def encode_frame(
    doc: dict[str, Any],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    encode: Callable[[Any], str] = _strict,
) -> bytes:
    """Serialise one frame: length prefix + compact JSON payload."""
    payload = encode(doc).encode("utf-8")
    if len(payload) > max_frame_bytes:
        raise FrameError(
            E_FRAME_TOO_LARGE,
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit",
            fatal=True,
        )
    return HEADER.pack(len(payload)) + payload


def frame_length(header: bytes, max_frame_bytes: int) -> int:
    """Payload length a frame header declares (fatal error if oversized)."""
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameError(
            E_FRAME_TOO_LARGE,
            f"declared frame length {length} exceeds the "
            f"{max_frame_bytes}-byte limit",
            fatal=True,
        )
    return length


def read_frame_from(
    read: Callable[[int], bytes],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    decode: Callable[[str], Any] = json.loads,
) -> dict[str, Any]:
    """Read one frame through a blocking ``read(n) -> bytes`` (socket
    ``recv`` or pipe ``read``); an empty read is the peer closing."""

    def exactly(count: int) -> bytes:
        chunks = []
        while count:
            chunk = read(count)
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    return decode_payload(
        exactly(frame_length(exactly(HEADER_BYTES), max_frame_bytes)), decode
    )


def decode_payload(
    payload: bytes, decode: Callable[[str], Any] = json.loads
) -> dict[str, Any]:
    """Parse and validate one frame payload (must be an object with op)."""
    try:
        doc = decode(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(E_MALFORMED, f"frame is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError(
            E_MALFORMED, f"frame must be a JSON object, got {type(doc).__name__}"
        )
    op = doc.get("op")
    if not isinstance(op, str) or not op:
        raise FrameError(E_MALFORMED, "frame is missing its 'op' string")
    return doc
