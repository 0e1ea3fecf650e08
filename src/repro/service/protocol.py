"""JSON-lines protocol adapter: the feedback service as a real server.

Stdlib-only (``asyncio`` streams + ``json``): one JSON object per line in
each direction, so the protocol can be driven by ``nc``, a five-line
client, or the bundled example.  Requests carry an ``op``.  There is one
protocol version, 2; a connection mixes the two groups of ops freely.

**Summary operations** (request/response):

``{"op": "open", "query": "...", "config": {"percentage": 0.4}}``
    Prepare a session; replies ``{"ok": true, "session": "s1", ...}`` with
    the initial frame summary, the granted ``protocol`` (2) and the
    session's current ``frame_id``.  ``"protocol"`` may be omitted; any
    value but 2 is a ``bad-request``.
``{"op": "event", "session": "s1", "event": {"type": "range", "path": [0],
"low": 10, "high": 20}}``
    Enqueue one modification; replies immediately with the queue verdict
    (``queued`` / ``coalesced`` / ``shed``) -- this is the firehose path a
    client calls on every slider tick.  Event types: ``range``,
    ``threshold`` (``value``), ``weight`` (``weight``), ``percentage``
    (``value``).
``{"op": "snapshot", "session": "s1", "wait": true, "top": 5,
"render": false}``
    The settled frame after every submitted event executed (or, with
    ``wait: false``, the newest completed frame).  With ``render: true``
    each window summary additionally carries a base64 PNG of its pixels.
``{"op": "metrics"}``, ``{"op": "close", "session": "s1"}``,
``{"op": "ping"}``
    Introspection and lifecycle.
``{"op": "trace", "session": "s1", "include_recent": false, "limit": 16,
"format": "chrome"}``
    Slow-event forensics: the retained traces of events that blew
    ``ServiceConfig.trace_budget_ms`` (full span tree + explain record),
    newest last.  All arguments optional -- ``session`` filters to one
    session, ``include_recent`` adds the ring of recent (fast) traces,
    ``format: "chrome"`` returns Chrome trace-event JSON that loads
    straight into Perfetto.  Requires the service to run with
    ``ServiceConfig(trace_enabled=True)``; otherwise replies with zero
    traces.

**Frame-stream operations** (the versioned delta-frame stream; see
``docs/protocol.md`` for the full message reference):

``{"op": "subscribe", "session": "s1"}``
    Reply with a full frame (``mode: "snapshot"``: statistics, display
    order and every window's cell arrays) and start tracking this
    connection's acknowledged ``frame_id`` for the session.
``{"op": "delta", "session": "s1", "wait": true}``
    The streaming pull.  When the client's acknowledged frame is still in
    the session's retention ring (``ServiceConfig.frame_retention`` recent
    frames; the previous frame always is), the reply is ``mode: "delta"``
    -- changed window cells, displayed-set changes, fresh statistics --
    *unless* the full frame would be smaller on the wire (degenerate
    drags), in which case ``mode: "snapshot"`` is sent.  The delta is
    encoded first and wins outright when it fits under a lower bound on
    the frame's size computed from the window geometry alone
    (``FrameSnapshot.payload_size_floor``); the full frame is serialized
    for an exact comparison only past that bound, so a steady drag costs
    O(changed cells) on the wire leg, never O(pixels).  A base that fell
    out of the ring or mismatches resyncs with a full frame.  A
    client already holding the current frame gets the tiny ``mode:
    "unchanged"`` answer.  ``base_frame_id`` may be passed to override the
    tracked ack.
``{"op": "resync", "session": "s1"}``
    Unconditionally reply with a full frame and re-ack it.

Errors never kill the connection: a malformed line, a bad ``frame_id`` or
an unknown session replies with a structured error frame ``{"ok": false,
"code": "...", "error": "..."}`` and the stream continues.  Error codes:
``parse-error`` (the line was not JSON), ``bad-request`` (missing/invalid
fields, unknown event types, malformed events: a path that is not a list
of non-negative integers, a non-finite number, a weight outside [0, 1], a
percentage outside (0, 1]), ``unknown-op``, ``unknown-session``,
``bad-frame-id``, ``session-limit`` and ``internal``.
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import time

from repro.core.engine import check_percentage
from repro.interact.events import (
    SessionEvent,
    SetPercentageDisplayed,
    SetQueryRange,
    SetThreshold,
    SetWeight,
)
from repro.obs import chrome_trace_events
from repro.query.expr import check_weight
from repro.service.service import FeedbackService, SessionLimitError
from repro.service.session import UnknownSessionError
from repro.service.snapshot import delta_payload
from repro.vis.colormap import VisDBColormap
from repro.vis.render import png_bytes

__all__ = ["FeedbackProtocolServer", "ProtocolError", "parse_event", "serve"]

#: Pipeline-config fields a remote client may override per session.  The
#: shard count and worker threads are the operator's (they size the
#: process's thread pools), so a client cannot set them.
_ALLOWED_CONFIG = {"percentage", "pixels_per_item", "multipeak_z", "target_max"}

#: The protocol version the server speaks.
_PROTOCOL_VERSION = 2


class ProtocolError(ValueError):
    """A malformed or unserviceable request, answered with an error frame.

    ``code`` is the machine-readable error class (stable across releases);
    the message stays human-oriented.  Raising this never drops the
    connection -- the handler turns it into ``{"ok": false, "code": ...,
    "error": ...}`` and keeps reading.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _SessionRunError(Exception):
    """A pipeline failure surfaced through a well-formed request.

    Wraps errors re-raised by ``FeedbackService.snapshot()`` (a poisoned
    session's last run) so the error frame reports ``internal`` -- the
    client's request was fine; the server-side run was not.  Without the
    wrapper a pipeline ``ValueError`` would hit the generic bad-request
    mapping and tell a correct client to fix its message.
    """

    def __init__(self, cause: Exception):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.cause = cause


def parse_event(payload: dict) -> SessionEvent:
    """Build a session event from its wire form (raises ``ValueError``).

    A malformed event is refused here, before it is queued: a path that is
    not a list of non-negative integers, a non-finite number, a weight
    outside [0, 1] or a percentage outside (0, 1].  A well-formed path to
    a node the session's tree lacks fails when the batch runs.
    """
    if not isinstance(payload, dict):
        raise ValueError("event must be an object")
    kind = payload.get("type")
    path = payload.get("path", [])
    if not isinstance(path, list) or not all(
            type(index) is int and index >= 0 for index in path):
        raise ValueError(
            f"event path must be a list of non-negative integers, got {path!r}")
    path = tuple(path)

    def number(field: str) -> float:
        value = float(payload[field])
        if not math.isfinite(value):
            raise ValueError(f"event field {field!r} must be finite, got {value}")
        return value

    try:
        if kind in ("range", "SetQueryRange"):
            return SetQueryRange(path, number("low"), number("high"))
        if kind in ("threshold", "SetThreshold"):
            return SetThreshold(path, number("value"))
        if kind in ("weight", "SetWeight"):
            return SetWeight(path, check_weight(number("weight")))
        if kind in ("percentage", "SetPercentageDisplayed"):
            return SetPercentageDisplayed(check_percentage(number("value")))
    except KeyError as exc:
        raise ValueError(f"event {kind!r} is missing field {exc.args[0]!r}") from None
    raise ValueError(f"unknown event type {kind!r}")


class FeedbackProtocolServer:
    """Serve a :class:`FeedbackService` over newline-delimited JSON."""

    #: Stream buffer limit for connections (both directions).  Full
    #: frames carry whole window cell arrays on one line, which overflows
    #: asyncio's 64 KiB default; clients reading frames should open their
    #: connection with (at least) this same limit.
    STREAM_LIMIT = 2 ** 24

    def __init__(self, service: FeedbackService, host: str = "127.0.0.1",
                 port: int = 0, limit: int = STREAM_LIMIT):
        self.service = service
        self.host = host
        self.port = port
        self.limit = limit
        self._server: asyncio.AbstractServer | None = None
        self._colormap = VisDBColormap()
        #: Wire accounting of the frame stream: how many updates went out as
        #: deltas vs full frames, their encoded sizes, and the bytes the
        #: size-based choice saved against always-full snapshots.
        #: ``bytes_saved`` is a lower bound: a delta that wins without the
        #: full frame being encoded is credited ``payload_size_floor() -
        #: len(delta)``, the exact difference only when the full frame was
        #: built anyway.  Served by the ``metrics`` op so the payoff is
        #: observable in production.
        self.wire_stats: dict[str, int] = {
            "deltas_sent": 0,
            "snapshots_sent": 0,
            "unchanged_sent": 0,
            "resyncs": 0,
            "delta_bytes": 0,
            "snapshot_bytes": 0,
            "bytes_saved": 0,
            "errors_sent": 0,
        }

    # ------------------------------------------------------------------ #
    async def start(self) -> "FeedbackProtocolServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=self.limit
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "FeedbackProtocolServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        # Per-connection stream state: the last frame id this client
        # acknowledged (was sent a frame for), per session.
        acked: dict[str, int] = {}
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                # Timestamp the receive before any parsing: event traces
                # backdate their root span to this instant, so queueing and
                # JSON decode are visible inside the trace, not before it.
                received_at = time.perf_counter()
                pending_trace = None
                try:
                    try:
                        request = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ProtocolError(
                            "parse-error", f"line is not valid JSON: {exc}"
                        ) from None
                    encoded, pending_trace = await self._dispatch(
                        request, acked, received_at)
                except Exception as exc:  # noqa: BLE001 - protocol boundary
                    encoded = json.dumps(self._error_frame(exc)).encode()
                    self.wire_stats["errors_sent"] += 1
                send_t0 = time.perf_counter()
                writer.writelines((encoded, b"\n"))
                await writer.drain()
                if pending_trace is not None:
                    span_id = pending_trace.begin(
                        "wire.send", t0=send_t0, bytes=len(encoded) + 1)
                    pending_trace.end(span_id)
        finally:
            # No await here: the handler may be ending because the server is
            # closing (task cancellation), and awaiting wait_closed() inside
            # a cancelled task just re-raises into the loop's exception hook.
            writer.close()

    @staticmethod
    def _error_frame(exc: Exception) -> dict:
        """Structured error frame for any failure behind one request.

        Every malformed or unserviceable message -- unknown op, bad frame
        id, non-JSON line, unknown session -- answers with a frame instead
        of dropping the connection; ``code`` gives clients a stable switch.
        """
        if isinstance(exc, ProtocolError):
            code = exc.code
        elif isinstance(exc, SessionLimitError):
            code = "session-limit"
        elif isinstance(exc, UnknownSessionError):
            code = "unknown-session"
        elif isinstance(exc, _SessionRunError):
            return {"ok": False, "code": "internal", "error": str(exc)}
        elif isinstance(exc, (KeyError, ValueError, TypeError)):
            # A missing request field raises KeyError('field').
            code = "bad-request"
        else:
            code = "internal"
        return {"ok": False, "code": code,
                "error": f"{type(exc).__name__}: {exc}"}

    async def _settled_snapshot(self, session_id: str, wait: bool):
        """A session's snapshot with failures mapped to stable wire codes.

        A session that was closed or expired while the wait was pending is
        gone from the client's point of view (``unknown-session``, not the
        admission-control ``session-limit`` its exception type suggests);
        any error a pipeline run left behind is a server-side failure
        (``internal``), not a malformed request.
        """
        try:
            return await self.service.snapshot(session_id, wait=wait)
        except UnknownSessionError:
            raise
        except SessionLimitError as exc:
            raise UnknownSessionError(str(exc)) from exc
        except Exception as exc:  # noqa: BLE001 - session-run boundary
            raise _SessionRunError(exc) from exc

    @staticmethod
    def _take_trace(snapshot):
        """Detach a snapshot's trace for encode/send span attachment.

        The first pull that delivers a frame claims its trace: subsequent
        pulls of the same settled snapshot (a polling client) would
        otherwise append an encode+send leg per poll and grow ring traces
        without bound.
        """
        trace = snapshot.trace
        snapshot.trace = None
        return trace

    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: dict, acked: dict[str, int],
                        received_at: float | None = None):
        """Serve one request; returns ``(encoded_response, trace_or_None)``.

        The second element is the pipeline trace of the frame being
        delivered (when one exists): the connection handler closes the
        loop by timing the actual socket write into it as ``wire.send``.
        """
        if not isinstance(request, dict):
            raise ProtocolError("bad-request", "request must be a JSON object")
        op = request.get("op")
        if op in ("subscribe", "delta", "resync"):
            return await self._dispatch_stream(op, request, acked)
        response, trace = await self._dispatch_summary(
            op, request, acked, received_at)
        if trace is not None:
            t0 = time.perf_counter()
            encoded = json.dumps(response).encode()
            span_id = trace.begin("frame.encode", t0=t0, mode="summary",
                                  bytes=len(encoded))
            trace.end(span_id)
        else:
            encoded = json.dumps(response).encode()
        return encoded, trace

    async def _dispatch_summary(self, op, request: dict, acked: dict[str, int],
                                received_at: float | None = None):
        """Serve one summary request; returns ``(response_dict, trace_or_None)``."""
        if op == "ping":
            return {"ok": True, "pong": True}, None
        if op == "open":
            protocol = request.get("protocol", _PROTOCOL_VERSION)
            if protocol != _PROTOCOL_VERSION:
                raise ProtocolError(
                    "bad-request",
                    f"unsupported protocol {protocol!r} (supported: "
                    f"{_PROTOCOL_VERSION})",
                )
            overrides = {
                key: value
                for key, value in (request.get("config") or {}).items()
                if key in _ALLOWED_CONFIG
            }
            session_id = await self.service.open_session(
                request["query"], **overrides
            )
            snapshot = await self.service.snapshot(session_id)
            return ({"ok": True, "session": session_id, "protocol": protocol,
                     **snapshot.as_dict(top=int(request.get("top", 0)))},
                    self._take_trace(snapshot))
        if op == "event":
            event = parse_event(request.get("event"))
            verdict = await self.service.submit(
                request["session"], event, received_at=received_at)
            return {"ok": True, **verdict}, None
        if op == "snapshot":
            snapshot = await self._settled_snapshot(
                request["session"], wait=bool(request.get("wait", True))
            )
            body = snapshot.as_dict(top=int(request.get("top", 10)))
            if request.get("render"):
                # Colormapping + zlib + base64 is real CPU work: run it off
                # the event loop so one rendering client does not stall
                # every other connection's event stream.
                colormap, windows = self._colormap, snapshot.windows

                def encode() -> dict[tuple, str]:
                    return {
                        path: base64.b64encode(
                            png_bytes(window.to_rgb(colormap))
                        ).decode("ascii")
                        for path, window in windows.items()
                    }

                encoded = await asyncio.get_running_loop().run_in_executor(None, encode)
                for entry in body["windows"]:
                    entry["png"] = encoded[tuple(entry["path"])]
            return {"ok": True, **body}, self._take_trace(snapshot)
        if op == "metrics":
            return {"ok": True,
                    "metrics": {**self.service.metrics_report(),
                                "wire": dict(self.wire_stats)}}, None
        if op == "trace":
            traces = self.service.trace_report(
                session_id=request.get("session"),
                include_recent=bool(request.get("include_recent", False)),
                limit=int(request.get("limit", 16)),
            )
            if request.get("format") == "chrome":
                return {"ok": True, "chrome": chrome_trace_events(traces),
                        "count": len(traces)}, None
            return {"ok": True, "traces": traces,
                    "count": len(traces)}, None
        if op == "close":
            await self.service.close_session(request["session"])
            acked.pop(request["session"], None)
            return {"ok": True}, None
        raise ProtocolError("unknown-op", f"unknown op {op!r}")

    async def _dispatch_stream(self, op: str, request: dict,
                               acked: dict[str, int]):
        """The frame stream: subscribe / delta / resync.

        Returns ``(encoded_frame, trace_or_None)`` like :meth:`_dispatch`.
        """
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ProtocolError("bad-request", "'session' must be a string")
        wait = bool(request.get("wait", True))
        # Validate before awaiting: a rejectable request must not first
        # block behind the session's queued pipeline runs (the connection
        # is a serial request/response line).
        base_given = "base_frame_id" in request
        base = request.get("base_frame_id")
        if op == "delta" and base is not None and (
                isinstance(base, bool) or not isinstance(base, int) or base < 0):
            raise ProtocolError(
                "bad-frame-id",
                f"'base_frame_id' must be a non-negative integer, got {base!r}",
            )
        snapshot = await self._settled_snapshot(session_id, wait=wait)
        base_snapshot = None
        if op == "delta":
            if not base_given:
                base = acked.get(session_id)
            if base == snapshot.frame_id:
                # A poll by a current client delivers no frame, so the
                # frame's trace stays attached for the pull that does.
                self.wire_stats["unchanged_sent"] += 1
                return json.dumps({
                    "ok": True, "type": "frame", "mode": "unchanged",
                    "session": session_id, "frame_id": snapshot.frame_id,
                    "statistics": snapshot.statistics.as_dict(),
                }).encode(), None
            session = self.service.registry.get(session_id)
            if session is not None and base is not None:
                base_snapshot = session.retained_frame(base)
        trace = self._take_trace(snapshot)

        def record(name, t0, t1, payload, **attrs):
            if trace is not None:
                span_id = trace.begin(name, t0=t0, bytes=len(payload), **attrs)
                trace.end(span_id, t1=t1)

        def encode_full() -> bytes:
            t0 = time.perf_counter()
            full = snapshot.payload_bytes()
            record("frame.encode", t0, time.perf_counter(), full,
                   mode="snapshot")
            return full

        def encode_delta() -> tuple[bytes | None, bytes | None]:
            """Delta first: ``(delta, full)``, either of which may be None.

            A delta no larger than the frame's geometric size floor has
            already won the size comparison, and ``full`` stays None; only
            a degenerate drag (most cells changed) pays for the full encode
            to settle it exactly, and ``delta`` is None when it lost.
            """
            t0 = time.perf_counter()
            delta = json.dumps({
                "ok": True, **delta_payload(base_snapshot, snapshot),
            }).encode()
            t1 = time.perf_counter()
            full = (None if len(delta) <= snapshot.payload_size_floor()
                    else encode_full())
            wins = full is None or len(delta) <= len(full)
            record("delta.encode", t0, t1, delta,
                   base_frame=base_snapshot.frame_id,
                   choice="delta" if wins else "snapshot",
                   full_encoded=full is not None)
            return (delta if wins else None), full

        # Diffing and serializing cell arrays is CPU work (O(changed cells)
        # for a delta, O(pixels) and several ms for a full frame): run it
        # off the event loop like the PNG path above, so one streaming
        # client's pull cannot stall every other connection's event
        # firehose.
        loop = asyncio.get_running_loop()
        full = None
        if base_snapshot is not None and base_snapshot is not snapshot:
            # The client's acked frame is still retained: send the delta
            # unless the full frame is smaller on the wire.
            delta, full = await loop.run_in_executor(None, encode_delta)
            if delta is not None:
                acked[session_id] = snapshot.frame_id
                self.wire_stats["deltas_sent"] += 1
                self.wire_stats["delta_bytes"] += len(delta)
                self.wire_stats["bytes_saved"] += (
                    snapshot.payload_size_floor() if full is None
                    else len(full)) - len(delta)
                return delta, trace
        # subscribe / resync, a gap (the base fell out of the retention
        # ring), a mismatch, or the delta lost on size: the full frame.
        if full is None:
            full = await loop.run_in_executor(None, encode_full)
        acked[session_id] = snapshot.frame_id
        self.wire_stats["snapshots_sent"] += 1
        if op == "resync":
            self.wire_stats["resyncs"] += 1
        self.wire_stats["snapshot_bytes"] += len(full)
        return full, trace


async def serve(service: FeedbackService, host: str = "127.0.0.1",
                port: int = 0) -> FeedbackProtocolServer:
    """Start a protocol server for ``service``; returns it (bound port set)."""
    return await FeedbackProtocolServer(service, host, port).start()
