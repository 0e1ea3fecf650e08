"""Interactive drag against a two-worker TCP fleet.

Spawns two standalone worker servers (the same ``python -m
repro.backend.remote.server`` processes you would run on other hosts),
points ``REPRO_REMOTE_WORKERS`` at them, and drives a range drag through
a traced :class:`~repro.service.FeedbackService` with
``PipelineConfig(backend="remote")``.  For every event it prints what
actually crossed the sockets -- request bytes out, reply bytes back --
against the columns published once at attach, then prints the stitched
span tree of the last event: the coordinator's own spans interleaved
with ``worker-HOST:PORT`` tracks timed on each worker's clock.

Run it self-contained (workers on loopback, shared-memory data plane)::

    python examples/remote_fleet.py [--out remote_trace.json]

The optional ``--out`` file is Chrome trace-event JSON -- open it at
https://ui.perfetto.dev to see the same stitched tree on a timeline,
exactly as :mod:`examples.trace_dump` renders service traces.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro import FeedbackService, PipelineConfig, Query, ServiceConfig
from repro.backend.remote import ENV_WORKERS
from repro.datasets import environmental_database
from repro.interact.events import SetQueryRange
from repro.obs import write_chrome_trace
from repro.query.builder import between, condition
from repro.query.expr import AndNode


def launch_fleet(count: int = 2) -> list[tuple[subprocess.Popen, str]]:
    """Start ``count`` worker servers on loopback; returns (proc, endpoint)."""
    env = dict(os.environ)
    # Make sure the workers can import repro the same way we did, even
    # when running from a source checkout without an install.
    package_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    fleet = []
    for _ in range(count):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.backend.remote.server",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, env=env)
        line = proc.stdout.readline()
        match = re.search(r"listening on (\S+)", line)
        if not match:
            raise RuntimeError(f"worker failed to start: {line!r}")
        fleet.append((proc, match.group(1)))
    return fleet


def print_span_tree(trace: dict) -> None:
    """Indented span tree; remote tracks are marked with their endpoint."""
    spans = trace["spans"]
    children: dict[int, list[dict]] = {}
    for record in spans:
        if record["id"] != 0:
            children.setdefault(record["parent"], []).append(record)

    def walk(record: dict, depth: int) -> None:
        track = f"  [{record['tid']}]" if record["tid"].startswith("worker-") else ""
        print(f"    {record['duration_ms']:8.2f} ms  "
              f"{'  ' * depth}{record['name']}{track}")
        for child in children.get(record["id"], ()):
            walk(child, depth + 1)

    walk(spans[0], 0)


async def drag(out: str | None) -> None:
    database = environmental_database(hours=2400, stations=4, seed=7)
    query = Query(name="fleet-demo", tables=["Weather"], condition=AndNode([
        between("Temperature", 10.0, 30.0),
        condition("Humidity", "<", 75.0),
    ]))
    config = PipelineConfig(percentage=0.3, shard_count=4, backend="remote")
    service_config = ServiceConfig(trace_enabled=True)
    async with FeedbackService(database, config,
                               service_config=service_config) as service:
        sid = await service.open_session(query)
        await service.snapshot(sid)

        def backend_stats() -> dict:
            return service.metrics_report()["backend"] or {}

        cold = backend_stats()
        print(f"fleet: {os.environ[ENV_WORKERS]}  "
              f"(workers alive: {cold.get('workers_alive')})")
        print(f"published once at attach: {cold.get('published_bytes', 0):,} "
              f"column bytes "
              f"({cold.get('column_bytes', 0):,} of them over the socket; "
              f"0 means the loopback shared-memory plane carried them)\n")

        print("drag Temperature's lower bound, one micro-move per event:")
        for step in range(1, 9):
            before = backend_stats()
            await service.submit(
                sid, SetQueryRange((0,), 10.0 + 0.25 * step, 30.0))
            await service.snapshot(sid)
            after = backend_stats()
            wire = after["traffic_bytes"] - before["traffic_bytes"]
            reply = after["reply_bytes"] - before["reply_bytes"]
            # On the loopback shared-memory plane result columns never
            # touch the socket, so the reply payload is 0 B; cross-host
            # workers would show the partials bytes here.
            print(f"  event {step}: {wire:6,} B requests out, "
                  f"{reply:6,} B result payload back, "
                  f"fallbacks {after['remote_fallbacks']}")

        report = service.trace_report(include_recent=True)
        last_event = next(t for t in reversed(report) if t["name"] == "event")
        print(f"\nstitched trace of the last event "
              f"({last_event['duration_ms']:.1f} ms, "
              f"{len(last_event['spans'])} spans):")
        print_span_tree(last_event)

        if out:
            write_chrome_trace(out, report)
            print(f"\nwrote {len(report)} trace(s) to {out} "
                  f"-- open at https://ui.perfetto.dev")


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Drive a drag over a spawned two-worker TCP fleet")
    parser.add_argument("--out", default=None,
                        help="also write Chrome trace-event JSON here")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker servers to spawn (default 2)")
    args = parser.parse_args()

    fleet = launch_fleet(args.workers)
    os.environ[ENV_WORKERS] = ",".join(endpoint for _, endpoint in fleet)
    try:
        asyncio.run(drag(args.out))
    finally:
        for proc, _ in fleet:
            proc.terminate()
        for proc, _ in fleet:
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
