"""``process`` backend: a fleet of locally spawned worker servers.

Whole-pipeline sessions run in spawned worker processes that map the
table's published columns zero-copy from shared memory
(:mod:`repro.backend.shm`).  Per-event traffic is only the pickled plan,
shard spans, block names and counting rows -- never column data -- which is
what makes the process boundary cheaper than the columns it
parallelises over.

Each worker is a :func:`repro.backend.remote.server.serve_socket` server
on one end of a ``socketpair``, driven by the same transport as the
``remote`` fleet (:mod:`repro.backend.remote.client`) through *local*
endpoints.  Nothing listens: a socketpair has no address.  The op itself
lives in :class:`repro.backend.coordinator.Coordinator` (which
:class:`ProcessBackend` extends) and, worker-side, in
:class:`repro.backend.worker.WorkerOps`.

One local fleet is shared process-wide (reference-counted by backend
instances; the first requester fixes its size) because the natural unit
of parallelism is the machine, not the engine: the differential suite
runs dozens of engines over the same tables and must not spawn dozens of
fleets.  Servers spawn lazily on the first op; one op at a time uses a
worker.

Faults follow the coordinator's two-kind taxonomy: a rejected or
unserialisable op (:class:`WorkerOpError`) keeps the workers; a dead
peer or a timeout (:class:`WorkerPoolError`) kills that worker, and the
next op respawns it.  Either way the event completes bit-identically on
the coordinator.
"""

from __future__ import annotations

import os

from repro.backend.coordinator import Coordinator, WorkerOpError, WorkerPoolError
from repro.backend.remote.client import (
    STORE,
    _Fleet,
    hold_local_fleet,
    local_endpoints,
)

__all__ = ["ProcessBackend", "WorkerOpError", "WorkerPoolError"]


class ProcessBackend(Coordinator):
    """Pipeline sessions on the local fleet."""

    name = "process"
    store = STORE

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        hold_local_fleet(+1)

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        hold_local_fleet(-1)

    def _open_transport(self) -> _Fleet:
        size = self.max_workers if self.max_workers is not None \
            else os.cpu_count() or 1
        endpoints = local_endpoints(max(1, size))
        for endpoint in endpoints:
            endpoint.spawn()  # all boot in parallel; borrow awaits each
        return _Fleet(endpoints, self)

    def _gauges(self) -> dict[str, int]:
        procs = _procs()
        return {"worker_count": len(procs),
                "workers_alive": sum(proc.is_alive() for proc in procs)}

    def worker_pids(self) -> list[int]:
        """Pids of the local workers ([] while none is up)."""
        return [proc.pid for proc in _procs()]


def _procs() -> list:
    return [proc for ep in local_endpoints() if (proc := ep.proc) is not None]
