"""The dist wire protocol: versioned frames between coordinator and workers.

The distributed backend (:mod:`repro.exec.dist`) splits a campaign across
rank-addressed worker processes connected over TCP.  Everything they say
to each other crosses this module: length-prefixed *frames* with a fixed
8-byte header followed by a payload.

Frame layout (big-endian)::

    offset  size  field
    0       2     magic  b"RW"
    2       1     protocol version (PROTOCOL_VERSION)
    3       1     frame type (HELLO, WELCOME, TASK, ...)
    4       4     payload length in bytes
    8       n     payload

Control frames (``HELLO``/``WELCOME``/``SHUTDOWN``/``GOODBYE``/``ERROR``)
carry UTF-8 JSON objects, so a worker speaking a *newer* protocol can
still parse the coordinator's version refusal.  Data frames (``TASK``/
``RESULT``) carry pickles: tasks hold arbitrary user callables and items,
results hold numpy arrays — exactly pickle's job.  Pickled frames are an
explicit trust statement: workers execute code the coordinator sends and
the coordinator unpickles what workers return, so it reads nothing but
a JSON ``HELLO`` from a new peer; workers it spawned itself must show
a per-run token there (see :mod:`repro.exec.dist`).  Externally started
workers carry none: their listener must only ever face machines you
already trust to run your campaign.

Version negotiation is deliberately blunt: the worker announces its
version in ``HELLO``; on mismatch the coordinator answers with an
``ERROR`` frame and closes.  There is no downgrade path — both ends ship
in one repository, so "same version" is the only supported pairing, and
the check exists to turn a skew into a clean error instead of a pickle
crash.

The sync helpers (:func:`send_frame` / :func:`recv_frame`) serve the
blocking worker loop; :func:`read_frame_async` serves the coordinator's
asyncio reader.  Both enforce :data:`MAX_FRAME_BYTES` so a corrupt
header cannot make either side allocate gigabytes.
"""

from __future__ import annotations

import asyncio
import io
import json
import pickle
import socket
import struct
from typing import Any

from ..errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "HELLO",
    "WELCOME",
    "TASK",
    "RESULT",
    "SHUTDOWN",
    "GOODBYE",
    "ERROR",
    "FRAME_NAMES",
    "ProtocolError",
    "encode_frame",
    "decode_payload",
    "send_frame",
    "recv_frame",
    "read_frame_async",
]

#: Bump on any change to frame layout or payload schema.
PROTOCOL_VERSION = 2

MAGIC = b"RW"

#: Upper bound on one frame's payload.  Large campaign values should be
#: spilled to the shard store, not shipped through task frames.
MAX_FRAME_BYTES = 1 << 28  # 256 MiB

_HEADER = struct.Struct(">2sBBI")

# Frame types.
HELLO = 1  # worker -> coordinator: rank, pid, host, protocol version
WELCOME = 2  # coordinator -> worker: assigned rank
TASK = 3  # coordinator -> worker: one work item (pickled)
RESULT = 4  # worker -> coordinator: one outcome (pickled)
SHUTDOWN = 5  # coordinator -> worker: drain and exit
GOODBYE = 6  # worker -> coordinator: clean-exit acknowledgement
ERROR = 7  # either direction: refusal before closing the connection

FRAME_NAMES: dict[int, str] = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    TASK: "TASK",
    RESULT: "RESULT",
    SHUTDOWN: "SHUTDOWN",
    GOODBYE: "GOODBYE",
    ERROR: "ERROR",
}

_JSON_FRAMES = frozenset({HELLO, WELCOME, SHUTDOWN, GOODBYE, ERROR})
_PICKLE_FRAMES = frozenset({TASK, RESULT})


class ProtocolError(ReproError, RuntimeError):
    """A malformed, oversized, or version-skewed dist frame."""


def encode_frame(ftype: int, payload: Any) -> bytes:
    """Serialize one frame (header + payload) to bytes."""
    if ftype in _JSON_FRAMES:
        raw = json.dumps(payload, separators=(",", ":")).encode()
    elif ftype in _PICKLE_FRAMES:
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        raise ProtocolError(f"unknown frame type {ftype}")
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"{FRAME_NAMES.get(ftype, ftype)} payload of {len(raw)} bytes "
            f"exceeds the {MAX_FRAME_BYTES}-byte frame limit"
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, ftype, len(raw)) + raw


def _parse_header(header: bytes) -> tuple[int, int]:
    """Validate a raw header; returns ``(frame_type, payload_length)``."""
    magic, version, ftype, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (not a dist peer?)")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks v{version}, "
            f"this side speaks v{PROTOCOL_VERSION}"
        )
    if ftype not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type {ftype}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame announces {length} bytes, above the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return ftype, length


def decode_payload(ftype: int, raw: bytes) -> Any:
    """Deserialize a frame payload according to its type."""
    try:
        if ftype in _JSON_FRAMES:
            return json.loads(raw.decode())
        return pickle.loads(raw)
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 - corrupt payload boundary
        raise ProtocolError(
            f"undecodable {FRAME_NAMES.get(ftype, ftype)} payload: {exc}"
        ) from exc


# --------------------------------------------------------------------------
# Blocking-socket side (workers)
# --------------------------------------------------------------------------


def send_frame(sock: socket.socket, ftype: int, payload: Any) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(ftype, payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = io.BytesIO()
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed {remaining} bytes short of a frame"
            )
        buf.write(chunk)
        remaining -= len(chunk)
    return buf.getvalue()


def recv_frame(sock: socket.socket) -> tuple[int, Any]:
    """Read one frame from a blocking socket; ``(frame_type, payload)``.

    Raises :class:`ConnectionError` on a clean EOF at a frame boundary
    (zero bytes read) as well as mid-frame — the caller decides whether
    the peer hanging up was expected.
    """
    ftype, length = _parse_header(_recv_exact(sock, _HEADER.size))
    raw = _recv_exact(sock, length) if length else b""
    return ftype, decode_payload(ftype, raw)


# --------------------------------------------------------------------------
# Asyncio side (coordinator)
# --------------------------------------------------------------------------


async def read_frame_async(
    reader: asyncio.StreamReader, *, expect: int | None = None
) -> tuple[int, Any]:
    """Read one frame from an asyncio stream; ``(frame_type, payload)``.

    With *expect* set, any other frame type raises :class:`ProtocolError`
    from the header alone, before its payload is read or unpickled.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
        ftype, length = _parse_header(header)
        if expect is not None and ftype != expect:
            raise ProtocolError(
                f"expected {FRAME_NAMES[expect]}, got {FRAME_NAMES[ftype]}"
            )
        raw = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("connection closed mid-frame") from exc
    return ftype, decode_payload(ftype, raw)
