"""Feedback service demo: streaming delta frames to several dragging users.

Starts a :class:`~repro.service.FeedbackService` over a synthetic
environmental database, exposes it through the JSON-lines protocol on a
local TCP port, and simulates a handful of concurrent users.  Each user
opens a session, subscribes (receiving one full frame:
statistics, display order and every window's cell arrays), then drags a
range slider in a rapid burst while pulling ``delta`` updates at its own
frame rate -- applying each update with the reference client
(:func:`~repro.service.apply_frame_update`) exactly as a real UI would
patch its pixel buffers.

Two server-side effects make the loop cheap, and the demo prints both:

* **coalescing** -- hundreds of drag events per user resolve in a handful
  of pipeline runs, because bursts collapse to the newest slider position
  while the previous frame is still executing;
* **delta streaming** -- after the one-time subscribe, updates ship only
  changed window cells and displayed-set changes; the report compares the
  bytes that crossed the wire against the bytes of sending a full
  snapshot on every pull.

Run with::

    python examples/feedback_service.py
"""

from __future__ import annotations

import asyncio
import json
import statistics as pystats

from repro import FeedbackService, PipelineConfig, ServiceConfig
from repro.datasets import environmental_database
from repro.service import apply_frame_update, serve
from repro.service.protocol import FeedbackProtocolServer

USERS = 4
DRAG_EVENTS = 150
#: Pull a delta every this many drag events (the client's "frame rate").
PULL_EVERY = 10


def query_text(user: int) -> str:
    """Each user explores their own variant of the Fig. 3 query (wire form)."""
    return (
        "SELECT * FROM Weather "
        f"WHERE Temperature > {12.0 + 2.0 * user} "
        "AND Humidity BETWEEN 30 AND 80"
    )


async def request(reader, writer, payload: dict) -> tuple[dict, int]:
    """One JSON-lines round trip; returns (response, response bytes)."""
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    response = json.loads(line)
    if not response.get("ok"):
        raise RuntimeError(f"server error [{response.get('code')}]: "
                           f"{response.get('error')}")
    return response, len(line)


async def simulate_user(port: int, user: int) -> dict:
    """Open a session, subscribe, drag a slider while streaming deltas."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=FeedbackProtocolServer.STREAM_LIMIT)
    update_bytes: list[int] = []
    modes: dict[str, int] = {}
    try:
        opened, _ = await request(reader, writer, {
            "op": "open", "protocol": 2, "query": query_text(user),
            "config": {"percentage": 0.35},
        })
        session = opened["session"]
        # The one-time full frame; everything after this is patched.
        subscribed, full_bytes = await request(
            reader, writer, {"op": "subscribe", "session": session})
        state = apply_frame_update(None, subscribed)
        # The drag: the lower humidity bound sweeps upward one step per
        # simulated frame.  Events stream at full rate; the client pulls a
        # delta only at its own frame rate, like a UI rendering at 60 Hz
        # against a firehose of input.
        for step in range(DRAG_EVENTS):
            await request(reader, writer, {
                "op": "event", "session": session,
                "event": {"type": "range", "path": [1],
                          "low": 30.0 + step * 0.2, "high": 80.0},
            })
            if step % PULL_EVERY == PULL_EVERY - 1:
                update, size = await request(
                    reader, writer,
                    {"op": "delta", "session": session, "wait": False})
                state = apply_frame_update(state, update)
                update_bytes.append(size)
                modes[update["mode"]] = modes.get(update["mode"], 0) + 1
        # Settle: wait for the last event to execute, then pull the final
        # delta so the client state is the settled frame.
        update, size = await request(
            reader, writer, {"op": "delta", "session": session, "wait": True})
        state = apply_frame_update(state, update)
        update_bytes.append(size)
        modes[update["mode"]] = modes.get(update["mode"], 0) + 1
        metrics, _ = await request(reader, writer, {"op": "metrics"})
        per_session = metrics["metrics"]["sessions"][session]
        await request(reader, writer, {"op": "close", "session": session})
        return {
            "user": user, "session": session,
            "statistics": state["statistics"],
            "metrics": per_session,
            "full_bytes": full_bytes,
            "update_bytes": update_bytes,
            "modes": modes,
        }
    finally:
        writer.close()


async def main() -> None:
    database = environmental_database(hours=1200, stations=3, seed=21)
    print(f"database: {len(database.table('Weather'))} weather items, "
          f"{USERS} simulated users, {DRAG_EVENTS} drag events each\n")

    service = FeedbackService(
        database,
        # Sharded + incremental execution: events patch per-shard state,
        # and the delta stream ships only what those patches changed.
        PipelineConfig(shard_count=4),
        service_config=ServiceConfig(max_inflight=4, max_queue_depth=32),
    )
    async with service:
        server = await serve(service)
        print(f"JSON-lines server on 127.0.0.1:{server.port}\n")
        results = await asyncio.gather(*[
            simulate_user(server.port, user) for user in range(USERS)
        ])
        report = service.metrics_report()
        wire = dict(server.wire_stats)
        await server.aclose()

    for result in results:
        metrics = result["metrics"]
        updates = result["update_bytes"]
        print(f"user {result['user']} ({result['session']}): "
              f"{metrics['events_received']} events -> {metrics['runs']} pipeline runs "
              f"({metrics['events_coalesced']} coalesced), "
              f"p95 run {metrics['run_p95_ms']:.1f} ms, "
              f"displayed {result['statistics']['# displayed']}")
        print(f"  wire: subscribe {result['full_bytes'] / 1024:.0f} KiB, then "
              f"{len(updates)} updates at median "
              f"{pystats.median(updates) / 1024:.2f} KiB "
              f"({result['modes']})")
    service_totals = report["service"]
    saved = wire["bytes_saved"]
    shipped = wire["delta_bytes"] + wire["snapshot_bytes"]
    print(f"\nservice totals: {service_totals['events_received']} events, "
          f"{service_totals['runs']} runs, "
          f"p95 {service_totals['run_p95_ms']:.1f} ms")
    print(f"wire totals: {wire['deltas_sent']} deltas + "
          f"{wire['snapshots_sent']} full frames = {shipped / 1024:.0f} KiB shipped, "
          f"{saved / 1024:.0f} KiB saved vs full snapshots "
          f"({(saved + shipped) / max(shipped, 1):.1f}x smaller)")
    incremental = report["incremental"]
    print(f"engine incremental: {incremental['displayed_patches']} displayed patches, "
          f"{incremental['result_count_patches']} result-count patches, "
          f"{incremental['shards_reused']} shard slices reused")


if __name__ == "__main__":
    asyncio.run(main())
