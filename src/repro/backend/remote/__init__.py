"""The socket transport, in three modules, and the ``remote`` backend.

The ``process`` backend rides the same transport over locally spawned
servers.  The ops it carries are not here: the coordinator is
:mod:`repro.backend.coordinator`, the worker op table
:mod:`repro.backend.worker`.

* :mod:`~repro.backend.remote.wire` -- length-prefixed binary framing
  with a protocol-version handshake.
* :mod:`~repro.backend.remote.server` -- the worker server
  (``python -m repro.backend.remote.server --listen HOST:PORT``, or
  ``serve_socket`` in a spawned local worker): the one socket loop
  around the op table.
* :mod:`~repro.backend.remote.client` -- local and remote endpoints,
  their connections, and the coordinator-side
  :class:`~repro.backend.remote.client.RemoteBackend`, configured via
  ``REPRO_REMOTE_WORKERS=host:port,host:port``.

The server module is intentionally *not* imported here: the package
import stays cheap on the coordinator, and the server pulls it in itself
when launched.
"""

from repro.backend.remote.client import (
    ENV_WORKERS,
    RemoteBackend,
    parse_remote_workers,
    shutdown_fleet,
)

__all__ = [
    "ENV_WORKERS",
    "RemoteBackend",
    "parse_remote_workers",
    "shutdown_fleet",
]
