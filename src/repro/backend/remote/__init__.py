"""``remote`` backend package: shard execution over TCP worker fleets.

The socket transport, in three modules.  The ops it carries are not
here: the coordinator is :mod:`repro.backend.coordinator`, the worker op
table :mod:`repro.backend.worker`, both shared with the process backend.

* :mod:`~repro.backend.remote.wire` -- length-prefixed binary framing
  with a protocol-version handshake.
* :mod:`~repro.backend.remote.server` -- the standalone worker server
  (``python -m repro.backend.remote.server --listen HOST:PORT``): the
  socket loop around the op table.
* :mod:`~repro.backend.remote.client` -- the fleet's connections and the
  coordinator-side :class:`~repro.backend.remote.client.RemoteBackend`,
  configured via ``REPRO_REMOTE_WORKERS=host:port,host:port``.

The server module is intentionally *not* imported here: the package
import stays cheap on the coordinator, and the server pulls it in itself
when launched.
"""

from repro.backend.remote.client import (
    ENV_WORKERS,
    RemoteBackend,
    parse_remote_workers,
    shutdown_remote_backend,
)

__all__ = [
    "ENV_WORKERS",
    "RemoteBackend",
    "parse_remote_workers",
    "shutdown_remote_backend",
]
