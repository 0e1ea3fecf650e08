"""The program under test, as the benchmark launches it.

Builds the seeded table, starts the real ``FeedbackService`` behind the
real ``FeedbackProtocolServer`` on an ephemeral loopback port, prints
``READY <port>`` and serves until its stdin closes.  Nothing in here is
measured from the inside: every end-to-end number is taken by the load
generator on the other side of the socket.
"""

from __future__ import annotations

import argparse
import asyncio
import sys


async def serve(args: argparse.Namespace) -> None:
    from repro import FeedbackService, PipelineConfig, ServiceConfig
    from repro.service.protocol import FeedbackProtocolServer
    from repro.storage.table import Table

    from workloads import TABLE_NAME, locality_table_columns

    table = Table(TABLE_NAME, locality_table_columns(args.rows, args.seed))
    service = FeedbackService(
        table,
        PipelineConfig(percentage=args.percentage, shard_count=args.shards,
                       max_workers=args.workers, backend=args.backend),
        service_config=ServiceConfig(
            max_inflight=args.workers,
            trace_enabled=bool(args.trace),
            # The traced replay reads every event's tree back through the
            # ``trace`` op, so the ring must hold the whole replay and
            # nothing may be diverted for being "slow".
            trace_ring=8192, trace_budget_ms=1e9,
        ),
    )
    async with service:
        server = await FeedbackProtocolServer(service).start()
        print(f"READY {server.port}", flush=True)
        loop = asyncio.get_running_loop()
        # Parent closing our stdin (or dying) is the stop signal.
        await loop.run_in_executor(None, sys.stdin.buffer.read)
        await server.aclose()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--percentage", type=float, required=True)
    parser.add_argument("--backend", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
