"""The CEPR wire protocol: versioned, length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length ``N`` followed by exactly
``N`` bytes of UTF-8 JSON encoding one object.  Every frame carries an
``"op"`` string; requests may carry a client-chosen ``"id"`` which the
matching ``ack``/``error`` reply echoes, so a client can interleave
requests with asynchronously delivered ``emission`` frames.

The full frame tables (ops, reply shapes, failure semantics) live in
``docs/SERVING.md``; this module is the single source of truth for the
constants (the codec itself is :mod:`repro.events.frames`).

Trace context propagation (all additive, so the version stays 1):
``hello`` and ``push``/``push_batch`` frames may carry an optional
``"trace"`` object — an opaque client-chosen context (request ids,
tenant tags).  The server merges the connection-level HELLO context with
the per-push context and stamps the result on every ingested event; the
``trace`` op (``{"op": "trace", "query": ..., "emission": index}``,
``shards == 1`` only) returns that emission's engine-side provenance
stitched to the remote contexts of the events that fed it — one causal
chain from client push to ranked emission.

Error frames are typed: ``{"op": "error", "code": "CEPR5xx", ...}``.
The ``CEPR5xx`` range extends the static analyzer's coded-diagnostic
convention (``CEPR4xx`` covers shardability) to the serving layer:

============  =====================================================
``CEPR500``   malformed frame (bad JSON, not an object, missing op)
``CEPR501``   frame exceeds the negotiated maximum size (fatal)
``CEPR502``   unknown op
``CEPR503``   bad handshake (missing HELLO or version mismatch)
``CEPR504``   unknown query name
``CEPR505``   query rejected (parse/analysis error; message has why)
``CEPR506``   invalid event document, or an event the ingress rejects
``CEPR507``   invalid argument (bad kinds filter, bad field type)
``CEPR508``   server is draining; mutation refused
``CEPR509``   op unsupported in this server mode (e.g. REGISTER on
              a sharded fleet)
``CEPR510``   internal server error while handling the request
============  =====================================================

Only ``CEPR501`` (and a failed handshake) close the connection: the
length prefix keeps frame boundaries intact for every other error, so
the server answers with a typed error frame and keeps reading.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any

# The frame codec itself lives below the serving layer (the worker-process
# pipes speak it too); re-exported here as part of the wire protocol.
from repro.events.frames import (  # noqa: F401 - re-exports
    DEFAULT_MAX_FRAME_BYTES,
    E_FRAME_TOO_LARGE,
    E_MALFORMED,
    HEADER_BYTES,
    ConnectionClosed,
    FrameError,
    decode_payload,
    encode_frame,
    frame_length,
    read_frame_from,
)

#: Protocol version spoken by this build; HELLO must carry it verbatim.
PROTOCOL_VERSION = 1

# -- error codes (CEPR500/501 come from the codec) ---------------------------

E_UNKNOWN_OP = "CEPR502"
E_BAD_HELLO = "CEPR503"
E_UNKNOWN_QUERY = "CEPR504"
E_QUERY_REJECTED = "CEPR505"
E_INVALID_EVENT = "CEPR506"
E_INVALID_ARGUMENT = "CEPR507"
E_DRAINING = "CEPR508"
E_UNSUPPORTED = "CEPR509"
E_INTERNAL = "CEPR510"

#: Ops a client may send (the server additionally emits ``ack``, ``error``,
#: ``emission``, ``unsubscribed``, and ``bye``).
REQUEST_OPS = frozenset(
    {
        "hello",
        "ping",
        "push",
        "push_batch",
        "advance",
        "sync",
        "register",
        "unregister",
        "subscribe",
        "unsubscribe",
        "stats",
        "trace",
        "bye",
    }
)


def error_frame(
    code: str, message: str, reply_to: Any = None
) -> dict[str, Any]:
    """Build a typed error frame, echoing the request id when known."""
    doc: dict[str, Any] = {"op": "error", "code": code, "message": message}
    if reply_to is not None:
        doc["id"] = reply_to
    return doc


def ack_frame(request: dict[str, Any], **fields: Any) -> dict[str, Any]:
    """Build the ack for ``request``, echoing its op and id."""
    doc: dict[str, Any] = {"op": "ack", "of": request["op"]}
    if "id" in request:
        doc["id"] = request["id"]
    doc.update(fields)
    return doc


# -- asyncio reading (server side) -------------------------------------------


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    payload_timeout: float | None = None,
) -> dict[str, Any]:
    """Read one frame from an asyncio stream.

    Waiting for a frame to *start* is unbounded (idle subscribers are
    legitimate); once the header arrives, the payload must follow within
    ``payload_timeout`` seconds — the slow-loris guard.  Raises
    :class:`ConnectionClosed` on EOF and :class:`FrameError` (fatal) on an
    oversized declared length.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("peer closed the connection") from exc
    length = frame_length(header, max_frame_bytes)
    try:
        payload = await asyncio.wait_for(
            reader.readexactly(length), timeout=payload_timeout
        )
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("peer closed the connection mid-frame") from exc
    except asyncio.TimeoutError as exc:
        raise FrameError(
            E_MALFORMED,
            f"frame payload did not arrive within {payload_timeout}s",
            fatal=True,
        ) from exc
    return decode_payload(payload)


# -- blocking reading (client side) ------------------------------------------


def read_frame_blocking(
    sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> dict[str, Any]:
    """Read one frame from a blocking socket (client side)."""
    return read_frame_from(sock.recv, max_frame_bytes)
