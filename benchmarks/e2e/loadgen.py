"""The load generator: closed-loop VisDB clients over the real TCP protocol.

Single process, one asyncio loop, at most ``nproc`` connections.  Every
client is **closed-loop**: it waits for its frame before it sends the
next event, so a slower server receives less load and latency is never
inflated by a queue the generator built.

Timed spans use the client clock and cover bytes only: a span starts
immediately before the first request byte is written and ends when the
last reply byte has been read.  Replies are kept as raw lines and parsed
after the timed window (the one exception is the ``open`` reply, whose
session id the next request needs).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from workloads import (
    BURST_EVENTS,
    FIRST_TOUCH_EVENTS,
    Workload,
    event_at,
    session_sql,
)

STREAM_LIMIT = 2 ** 24
#: First-frame samples of the non-cold-open workloads: sessions opened on
#: the workload's query after each set-up's warm-up (and, on the measured
#: set-up, after the window).  The first few of each round -- the server
#: settling from the drag into opens -- are untimed.
REOPENS = 12
REOPEN_WARM = 3
_OK = b'{"ok": true'


def _line(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


class Wire:
    """One connection speaking newline-delimited JSON."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def connect(cls, port: int) -> "Wire":
        return cls(*await asyncio.open_connection(
            "127.0.0.1", port, limit=STREAM_LIMIT))

    async def exchange(self, request: bytes, replies: int = 1) -> list[bytes]:
        """Write ``request`` (one or more lines), read ``replies`` lines."""
        self.writer.write(request)
        await self.writer.drain()
        lines = [await self.reader.readline() for _ in range(replies)]
        if not lines[-1]:
            raise ConnectionError("server closed the connection")
        return lines

    async def call(self, payload: dict) -> dict:
        return json.loads((await self.exchange(_line(payload)))[0])

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


@dataclass
class SessionLog:
    """Everything one session was sent and told, for the oracle."""

    index: int
    session_id: str
    sql: str
    #: The ``subscribe`` frame followed by every update pulled since, raw.
    frames: list[bytes] = field(default_factory=list)
    #: Last event sent per control (the final slider position).
    controls: dict[tuple, dict] = field(default_factory=dict)
    resync: bytes | None = None

    def sent(self, event: dict) -> None:
        self.controls[(event["type"], tuple(event.get("path", ())))] = event


@dataclass
class WireRun:
    """Raw observations of one timed window."""

    #: ``(finish_stamp_s, latency_ms)`` per timed event (per burst on fan-out).
    event_ms: list[tuple[float, float]] = field(default_factory=list)
    #: The frame reply of each timed event, raw.
    event_frames: list[bytes] = field(default_factory=list)
    first_frame_ms: list[tuple[float, float]] = field(default_factory=list)
    first_frames: list[bytes] = field(default_factory=list)
    #: Delivery times of the timed window's frames, per connection.
    delivered: dict[int, list[float]] = field(default_factory=dict)
    #: Peak RSS of the server's process tree.  Cold opens sample it after a
    #: fixed number of opens: their memory steps up with the open count,
    #: and the count at the end of a window varies with machine speed.
    peak_rss_mb: float | None = None
    wall_s: float = 0.0
    #: Requests sent / error frames received, over the whole run.
    attempted: int = 0
    errors: int = 0
    sessions: list[SessionLog] = field(default_factory=list)
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)

    def interaction(self, workload: Workload) -> tuple[list, list[bytes]]:
        """``(stamped latencies, frames)`` of the workload's own interaction:
        the open on ``cold_open.*``, the event (or burst) elsewhere."""
        if workload.kind == "cold_open":
            return self.first_frame_ms, self.first_frames
        return self.event_ms, self.event_frames


class LoadGen:
    """Drives one workload against a server listening on ``port``."""

    def __init__(self, workload: Workload, seed: int, port: int,
                 rss_probe: Callable[[], float] | None = None):
        self.workload = workload
        self.seed = seed
        self.port = port
        self.rss_probe = rss_probe
        self.timed_ops = 0
        self.run = WireRun()
        self.wires: list[Wire] = []
        self.live: list[SessionLog] = []
        #: Next script position per session index.
        self.cursor: dict[int, int] = {}
        self.opens = 0

    # ------------------------------------------------------------------ #
    def _delivered(self, conn: int, stamp: float) -> None:
        """Book one timed frame delivery (between timed spans, never inside)."""
        self.run.delivered.setdefault(conn, []).append(stamp)
        self.timed_ops += 1
        if self.timed_ops == self.workload.rss_ops and self.rss_probe:
            self.run.peak_rss_mb = self.rss_probe()

    def _check(self, replies: list[bytes]) -> None:
        self.run.attempted += len(replies)
        self.run.errors += sum(1 for r in replies if not r.startswith(_OK))

    async def _open(self, wire: Wire, index: int, timed: bool) -> SessionLog:
        """``open`` + ``subscribe``: one first-frame sample.

        On ``cold_open.*`` the subscribe is the session's only frame pull,
        so its round trip (full-frame encode + wire) is also the
        workload's ``event_ms`` sample and its frame the ``update``.
        """
        sql = session_sql(self.workload, self.seed, index)
        open_line = _line({"op": "open", "protocol": 2, "query": sql})
        t0 = time.perf_counter()
        (opened,) = await wire.exchange(open_line)
        reply = json.loads(opened)
        if not reply.get("ok"):
            self.run.attempted += 1
            self.run.errors += 1
            raise RuntimeError(f"open failed: {reply}")
        subscribe_line = _line({"op": "subscribe", "session": reply["session"]})
        t_pull = time.perf_counter()
        (frame,) = await wire.exchange(subscribe_line)
        t1 = time.perf_counter()
        self._check([opened, frame])
        if timed:
            self.run.first_frame_ms.append((t1, (t1 - t0) * 1e3))
            self.run.first_frames.append(frame)
            if self.workload.kind == "cold_open":
                self.run.event_ms.append((t1, (t1 - t_pull) * 1e3))
                self.run.event_frames.append(frame)
                self._delivered(0, t1)
        return SessionLog(index, reply["session"], sql, frames=[frame])

    async def _event(self, wire: Wire, log: SessionLog, timed: bool) -> None:
        """One slider tick: ``event`` then ``delta wait:true``."""
        k = self.cursor.get(log.index, 0)
        self.cursor[log.index] = k + 1
        event = event_at(self.workload, self.seed, k, log.index)
        log.sent(event)
        event_line = _line({"op": "event", "session": log.session_id,
                            "event": event})
        delta_line = _line({"op": "delta", "session": log.session_id,
                            "wait": True})
        t0 = time.perf_counter()
        (verdict,) = await wire.exchange(event_line)
        (frame,) = await wire.exchange(delta_line)
        t1 = time.perf_counter()
        self._check([verdict, frame])
        log.frames.append(frame)
        if timed:
            self.run.event_ms.append((t1, (t1 - t0) * 1e3))
            self.run.event_frames.append(frame)
            self._delivered(0, t1)

    async def _burst(self, conn: int, log: SessionLog, timed: bool) -> None:
        """Fan-out turn: pipelined events, then the frame pull, in one write."""
        k = self.cursor.get(log.index, 0)
        self.cursor[log.index] = k + BURST_EVENTS
        request = b""
        for j in range(BURST_EVENTS):
            event = event_at(self.workload, self.seed, k + j, log.index)
            log.sent(event)
            request += _line({"op": "event", "session": log.session_id,
                              "event": event})
        request += _line({"op": "delta", "session": log.session_id, "wait": True})
        t0 = time.perf_counter()
        replies = await self.wires[conn].exchange(request, BURST_EVENTS + 1)
        t1 = time.perf_counter()
        self._check(replies)
        log.frames.append(replies[-1])
        if timed:
            self.run.event_ms.append((t1, (t1 - t0) * 1e3))
            self.run.event_frames.append(replies[-1])
            self._delivered(conn, t1)

    async def _cold_open(self, wire: Wire, timed: bool, ticks: int = 0) -> None:
        """One cold-open iteration: open, subscribe, resync, close.

        No slider tick is sent in between: the first re-execution on an
        engine indexes the range attributes, after which the backends
        decline whole-pipeline offload for every later open -- the opens
        would stop being comparable.  ``ticks`` is for the traced
        epilogue only (see :meth:`finish`).
        """
        index = self.opens
        self.opens += 1
        log = await self._open(wire, index, timed)
        for _ in range(ticks):
            await self._event(wire, log, timed=False)
        await self._finish_session(wire, log)

    async def _finish_session(self, wire: Wire, log: SessionLog) -> None:
        (log.resync,) = await wire.exchange(
            _line({"op": "resync", "session": log.session_id}))
        (closed,) = await wire.exchange(
            _line({"op": "close", "session": log.session_id}))
        self._check([log.resync, closed])
        self.run.sessions.append(log)

    # ------------------------------------------------------------------ #
    async def setup(self) -> None:
        """Connect, open and subscribe every session, run the warm-up."""
        w = self.workload
        self.wires = [await Wire.connect(self.port) for _ in range(w.connections)]
        if w.kind == "cold_open":
            for _ in range(w.warm):
                await self._cold_open(self.wires[0], timed=False)
            return
        for i in range(w.sessions):
            self.live.append(
                await self._open(self.wires[i % w.connections], i, timed=False))
        if w.kind == "fanout":
            for _ in range(w.warm):
                await asyncio.gather(*[
                    self._turns(c, rounds=1) for c in range(w.connections)])
        else:
            for _ in range(w.warm):
                await self._event(self.wires[0], self.live[0], timed=False)

    async def _turns(self, conn: int, rounds: int | None = None,
                     deadline: float | None = None) -> None:
        """One connection's fan-out loop over the sessions it carries."""
        mine = self.live[conn::self.workload.connections]
        done = 0
        while True:
            for log in mine:
                await self._burst(conn, log, timed=deadline is not None)
            done += 1
            if rounds is not None and done >= rounds:
                return
            if deadline is not None and time.perf_counter() >= deadline:
                return

    async def measure(self, seconds: float) -> None:
        """The timed window: run the workload's loop for ``seconds``."""
        w = self.workload
        self.run.counters_before = await self.metrics()
        start = time.perf_counter()
        deadline = start + seconds
        if w.kind == "fanout":
            await asyncio.gather(*[
                self._turns(c, deadline=deadline) for c in range(w.connections)])
        elif w.kind == "cold_open":
            while True:
                await self._cold_open(self.wires[0], timed=True)
                if time.perf_counter() >= deadline:
                    break
        else:
            # The retune script cycles three kinds of event: stop on a
            # whole cycle so every run times the same mix.
            cycle = 3 if w.kind == "retune" else 1
            done = 0
            while True:
                await self._event(self.wires[0], self.live[0], timed=True)
                done += 1
                if done % cycle == 0 and time.perf_counter() >= deadline:
                    break
        self.run.wall_s = time.perf_counter() - start
        self.run.counters_after = await self.metrics()
        await self.reopen()

    async def reopen(self) -> None:
        """One round of first-frame samples on a non-cold-open workload.

        Further sessions open on the workload's own query in the warm
        server.  (The very first open of a fresh process is one sample
        per set-up and varies severalfold; it is part of ``setup_s``.)
        Every set-up of a run contributes a round, so the samples are
        spread over the run's wall time instead of one second of it.
        """
        if self.workload.kind == "cold_open":
            return
        for n in range(REOPEN_WARM + REOPENS):
            log = await self._open(self.wires[0], 0, timed=n >= REOPEN_WARM)
            await self._finish_session(self.wires[0], log)

    async def metrics(self) -> dict:
        reply = await self.wires[0].call({"op": "metrics"})
        self.run.attempted += 1
        if not reply.get("ok"):
            self.run.errors += 1
            return {}
        return reply["metrics"]

    async def finish(self, want_traces: bool = False) -> WireRun:
        """Resync and close every live session, fetch traces, disconnect."""
        w = self.workload
        for i, log in enumerate(self.live):
            await self._finish_session(self.wires[i % w.connections], log)
        self.live = []
        if want_traces:
            if w.kind == "cold_open":
                # Epilogue, after every timed open: a few ticks on one more
                # session, so the event-only spans (coalesce wait, scheduler
                # queue, delta encode) exist in this server's trace ring.
                await self._cold_open(self.wires[0], timed=False,
                                      ticks=FIRST_TOUCH_EVENTS)
            reply = await self.wires[0].call(
                {"op": "trace", "include_recent": True, "limit": 8192})
            self.run.attempted += 1
            if reply.get("ok"):
                self.run.traces = reply["traces"]
            else:
                self.run.errors += 1
        await self.close()
        return self.run

    async def close(self) -> None:
        for wire in self.wires:
            await wire.close()
        self.wires = []
