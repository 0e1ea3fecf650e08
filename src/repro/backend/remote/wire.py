"""Length-prefixed binary framing for every worker connection.

TCP links to ``remote`` servers and the socketpairs of ``process``
workers carry the same frames.

Every message on a worker connection is one *frame*: a
struct-packed header (magic, protocol version, flags, body length)
followed by the body.  Control messages -- ops and their replies -- are
pickled Python dicts (``FLAG_PICKLE``); bulk column payloads travel as
raw frames (``FLAG_RAW``), chunked at :data:`CHUNK_BYTES` so neither
side ever buffers an unbounded body and a slow peer trips the read
timeout instead of wedging the coordinator.

The first exchange on every connection is a version handshake: the
client sends a ``hello`` frame carrying :data:`PROTOCOL_VERSION`, the
server answers with its own.  Frames additionally carry the version in
every header, so a peer that skipped the handshake (or a stream that
desynchronised) is rejected on the first frame rather than unpickled.

All receive paths honour a deadline: sockets are switched to per-recv
timeouts and a frame that does not complete in time raises
:class:`WireTimeout`.  EOF mid-frame raises :class:`WireClosed`.  Both
are :class:`WireError`\\ s -- transport faults the client maps onto its
fall-back-in-process path.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Any

__all__ = [
    "CHUNK_BYTES",
    "FLAG_PICKLE",
    "FLAG_RAW",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "VersionMismatch",
    "WireClosed",
    "WireError",
    "WireTimeout",
    "read_frame",
    "read_obj",
    "read_raw_into",
    "send_frame",
    "send_obj",
    "send_raw",
]

#: Bumped on any incompatible change to ops, replies or framing.
PROTOCOL_VERSION = 3

_MAGIC = b"RPRW"
#: magic, version, flags, body length.
_HEADER = struct.Struct("!4sHHQ")

FLAG_PICKLE = 0
FLAG_RAW = 1

#: Hard per-frame sanity bound -- control frames are KBs, raw chunks are
#: :data:`CHUNK_BYTES`; anything larger is a corrupt or hostile stream.
MAX_FRAME = 64 * 1024 * 1024

#: Raw column payloads are split into frames of at most this many bytes.
CHUNK_BYTES = 4 * 1024 * 1024


class WireError(RuntimeError):
    """Transport-level failure on a remote worker connection."""


class WireClosed(WireError):
    """The peer closed the connection (EOF mid-frame or on a header)."""


class WireTimeout(WireError):
    """A frame did not complete within the caller's deadline."""


class VersionMismatch(WireError):
    """The peer speaks a different protocol version."""

    def __init__(self, theirs: int, ours: int = PROTOCOL_VERSION):
        super().__init__(
            f"remote worker protocol version {theirs} != {ours}")
        self.theirs = theirs
        self.ours = ours


def _recv_exact(sock: socket.socket, count: int,
                deadline: float | None) -> bytes:
    """Read exactly ``count`` bytes or raise ``WireClosed``/``WireTimeout``."""
    parts: list[bytes] = []
    remaining = count
    while remaining:
        budget = None
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise WireTimeout(f"read timed out ({count - remaining}"
                                  f"/{count} bytes)")
        try:
            # Set on every pass (None included: a previous deadline read
            # may have left a timeout behind), and inside the try: a
            # socket closed under us fails here first.
            sock.settimeout(budget)
            piece = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:
            raise WireTimeout(str(exc) or "read timed out") from exc
        except OSError as exc:
            raise WireClosed(f"connection lost: {exc!r}") from exc
        if not piece:
            raise WireClosed("connection closed by peer")
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


def send_frame(sock: socket.socket, body: bytes,
               flags: int = FLAG_PICKLE) -> int:
    """Send one frame; returns the total bytes put on the wire."""
    if len(body) > MAX_FRAME:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    header = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, flags, len(body))
    try:
        sock.sendall(header + body)
    except socket.timeout as exc:
        raise WireTimeout(str(exc) or "send timed out") from exc
    except OSError as exc:
        raise WireClosed(f"connection lost: {exc!r}") from exc
    return len(header) + len(body)


def read_frame(sock: socket.socket,
               deadline: float | None = None) -> tuple[int, bytes, int]:
    """Read one frame; returns ``(flags, body, wire_bytes)``."""
    header = _recv_exact(sock, _HEADER.size, deadline)
    magic, version, flags, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(version)
    if length > MAX_FRAME:
        raise WireError(f"frame of {length} bytes exceeds MAX_FRAME")
    body = _recv_exact(sock, int(length), deadline)
    return flags, body, _HEADER.size + len(body)


def send_obj(sock: socket.socket, obj: Any) -> int:
    """Pickle ``obj`` into one control frame; returns wire bytes."""
    try:
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise WireError(f"could not serialise message: {exc!r}") from exc
    return send_frame(sock, body, FLAG_PICKLE)


def read_obj(sock: socket.socket,
             deadline: float | None = None) -> tuple[Any, int]:
    """Read one control frame; returns ``(message, wire_bytes)``."""
    flags, body, nbytes = read_frame(sock, deadline)
    if flags != FLAG_PICKLE:
        raise WireError(f"expected a control frame, got flags={flags}")
    try:
        return pickle.loads(body), nbytes
    except Exception as exc:
        raise WireError(f"could not deserialise message: {exc!r}") from exc


def send_raw(sock: socket.socket, payload) -> int:
    """Stream a bulk payload as chunked raw frames; returns wire bytes.

    ``payload`` is anything supporting the buffer protocol.  The chunk
    layout is implicit: the receiver knows the total byte count from the
    control message that announced the payload and keeps reading raw
    frames until it is complete.
    """
    view = memoryview(payload).cast("B")
    sent = 0
    if len(view) == 0:
        return send_frame(sock, b"", FLAG_RAW)
    for start in range(0, len(view), CHUNK_BYTES):
        chunk = view[start:start + CHUNK_BYTES]
        sent += send_frame(sock, bytes(chunk), FLAG_RAW)
    return sent


def read_raw_into(sock: socket.socket, dest, nbytes: int,
                  deadline: float | None = None) -> int:
    """Read chunked raw frames totalling ``nbytes`` into ``dest``.

    ``dest`` is a writable buffer of at least ``nbytes`` bytes.  Returns
    the wire bytes consumed (headers included).
    """
    view = memoryview(dest).cast("B")
    filled = 0
    wire = 0
    while True:
        flags, body, frame_bytes = read_frame(sock, deadline)
        wire += frame_bytes
        if flags != FLAG_RAW:
            raise WireError(f"expected a raw frame, got flags={flags}")
        if filled + len(body) > nbytes:
            raise WireError("raw payload overran its announced size")
        view[filled:filled + len(body)] = body
        filled += len(body)
        if filled >= nbytes:
            return wire
