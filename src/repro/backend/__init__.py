"""Pluggable shard-execution backends.

A backend owns *where* shard work runs; the evaluator owns *what* is
computed.  Three implementations ship in-tree -- ``threads`` (the
default: the in-process shared thread pool), ``process`` (locally
spawned worker servers mapping shared memory zero-copy) and ``remote``
(a TCP worker fleet, ``REPRO_REMOTE_WORKERS=host:port,...``) -- and
third parties add more via :func:`register_backend`.  See
``docs/backends.md`` for the contract.

Importing this package installs an ``atexit`` hook that drains the shared
thread executors, stops the local workers and closes fleet connections,
so interpreter shutdown never hangs on live workers even when no one
called ``QueryEngine.close()``.
"""

from __future__ import annotations

import atexit

from repro.backend.base import ExecBackend
from repro.backend.process import ProcessBackend
from repro.backend.registry import (
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.backend.remote import RemoteBackend, shutdown_fleet
from repro.backend.threads import ThreadsBackend

__all__ = [
    "ExecBackend",
    "ProcessBackend",
    "RemoteBackend",
    "ThreadsBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "shutdown_all",
    "unregister_backend",
]

register_backend("threads", ThreadsBackend)
register_backend("process", ProcessBackend)
register_backend("remote", RemoteBackend)


def shutdown_all(drain_timeout: float = 5.0) -> None:
    """Drain executors, stop local workers, close fleet connections.

    Runs automatically at interpreter exit; anything shut down here is
    respawned or reconnected lazily if an engine keeps executing
    afterwards.  Idempotent.
    """
    from repro.core.shard import shutdown_executors

    shutdown_fleet()
    shutdown_executors(drain_timeout=drain_timeout)


atexit.register(shutdown_all)
