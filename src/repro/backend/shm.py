"""Coordinator-side shared-memory column store.

A table's columns are published exactly once per coordinator process:
numeric columns are copied raw into ``multiprocessing.shared_memory``
blocks (workers then map them zero-copy), object columns are pickled once
into their own block.  What crosses a socket afterwards is only a
*manifest* -- block names, dtypes and lengths -- so per-event traffic
never includes column data.

The store is bounded: :class:`ShmColumnStore` is one
:class:`~repro.storage.lru.LRUStore`, the package's one cache store, so
publications beyond :data:`MAX_PUBLISHED_TABLES` evict the
least-recently-used table (notifying the eviction callback so worker
processes drop their mappings, then closing and unlinking its blocks).
Re-publishing an evicted table allocates fresh blocks under a new
publication key, so stale worker mappings can never be confused with the
new ones.

A publication an op is actively broadcasting against is *pinned*
(:meth:`ShmColumnStore.pin`): eviction of a pinned table is deferred --
the entry leaves the LRU immediately (so capacity is respected for new
publications) but the blocks stay linked and the eviction callback stays
unsent until the last pin drops.  Without the deferral, an LRU eviction
racing an in-flight broadcast would unlink blocks whose names that
broadcast already carries: a worker attaching them mid-op would fail (or
the drop notification would interleave with the op's own messages), and
the op would fault spuriously.  The near-misses are counted
(``evict_deferred`` in :meth:`stats`).
"""

from __future__ import annotations

import itertools
import os
import pickle
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.storage.lru import LRUStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table

__all__ = [
    "MAX_PUBLISHED_TABLES",
    "PublishedTable",
    "ShmColumnStore",
    "attach_block",
    "build_table_from_manifest",
    "table_from_buffers",
]

#: Published-table LRU capacity (matches the engine's table-cache scale).
MAX_PUBLISHED_TABLES = 8

_PUBLICATION_SEQ = itertools.count(1)


def block_prefix() -> str:
    """The name prefix of every block this process creates: ``rp<pid>_``."""
    return f"rp{os.getpid()}_"


def create_block(size: int) -> shared_memory.SharedMemory:
    """A new block named :func:`block_prefix` plus 16 random hex digits.

    At most 26 characters, inside the 31 every platform allows, and
    countable per process: a census of ``/dev/shm`` can tell this
    process's blocks from any other process's.
    """
    return shared_memory.SharedMemory(
        name=block_prefix() + os.urandom(8).hex(), create=True, size=size)


def attach_block(name: str) -> shared_memory.SharedMemory:
    """Open an existing shared-memory block without adopting ownership.

    Attaching registers the name with the resource tracker (Python <=
    3.12 does so unconditionally), but worker processes are spawned
    children and therefore share the coordinator's tracker process, where
    the registration is an idempotent no-op: the name stays tracked until
    the coordinator's ``unlink``.  Nothing to undo here -- attempting to
    unregister from a worker would remove the name from the *shared*
    tracker and break the coordinator's cleanup.
    """
    return shared_memory.SharedMemory(name=name)


class PublishedTable:
    """One table's published blocks plus the manifest workers attach from."""

    def __init__(self, key: str, manifest: dict[str, Any],
                 blocks: list[shared_memory.SharedMemory], nbytes: int):
        self.key = key
        self.manifest = manifest
        self.blocks = blocks
        self.nbytes = nbytes
        self.closed = False

    def destroy(self) -> None:
        """Close and unlink every block (idempotent).

        Workers that still hold mappings keep valid memory until they drop
        them -- unlinking only removes the names.
        """
        if self.closed:
            return
        self.closed = True
        for shm in self.blocks:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - already gone
                pass


class ShmColumnStore:
    """The published tables, keyed by ``Table.export_id``.

    One :class:`~repro.storage.lru.LRUStore` of :class:`PublishedTable`
    values: an evicted publication notifies ``on_evict`` (so workers drop
    their mappings), then loses its blocks -- after the last
    :meth:`unpin` when an op holds it pinned.
    """

    def __init__(self, max_tables: float = MAX_PUBLISHED_TABLES,
                 on_evict: Callable[[PublishedTable], None] | None = None):
        self._on_evict = on_evict
        self.tables: LRUStore[PublishedTable] = LRUStore(
            max_tables, on_evict=self._retire)

    @property
    def _max_tables(self) -> float:
        """The capacity; a lowered one applies from the next publish."""
        return self.tables.max_entries

    @_max_tables.setter
    def _max_tables(self, value: float) -> None:
        self.tables.max_entries = value

    def pin(self, published: PublishedTable) -> None:
        """Hold ``published``'s blocks linked across an in-flight op."""
        self.tables.pin(published)

    def unpin(self, published: PublishedTable) -> None:
        """Release one pin; a deferred eviction completes on the last one."""
        self.tables.release(published)

    def _retire(self, old: PublishedTable) -> None:
        """Notify workers, then destroy."""
        try:
            if self._on_evict is not None:
                self._on_evict(old)
        finally:
            old.destroy()

    def publish(self, table: "Table") -> PublishedTable:
        """Publish ``table``'s columns (idempotent per ``export_id``)."""
        published = self.tables.get(table.export_id)
        if published is None:
            # Built outside the store's lock: copying the columns is the
            # slow part.  A racing publish of the same table keeps the
            # first build; the loser is destroyed unannounced.
            built = self._build(table)
            published = self.tables.put(table.export_id, built)
            if published is not built:
                built.destroy()
        return published

    def _build(self, table: "Table") -> PublishedTable:
        key = f"{table.export_id}.{next(_PUBLICATION_SEQ)}"
        rows = len(table)
        blocks: list[shared_memory.SharedMemory] = []
        columns: list[dict[str, Any]] = []
        nbytes = 0
        try:
            for name, array in table.export_columns().items():
                if array.dtype.kind == "f":
                    size = max(1, array.nbytes)
                    shm = create_block(size)
                    blocks.append(shm)
                    if rows:
                        dest = np.ndarray(rows, dtype=np.float64, buffer=shm.buf)
                        dest[:] = array
                    columns.append({"name": name, "kind": "f8", "shm": shm.name})
                    nbytes += size
                else:
                    payload = pickle.dumps(array, protocol=pickle.HIGHEST_PROTOCOL)
                    shm = create_block(max(1, len(payload)))
                    blocks.append(shm)
                    shm.buf[:len(payload)] = payload
                    columns.append({
                        "name": name,
                        "kind": "object",
                        "shm": shm.name,
                        "nbytes": len(payload),
                    })
                    nbytes += len(payload)
        except Exception:
            PublishedTable(key, {}, blocks, nbytes).destroy()
            raise
        manifest = {
            "table_id": key,
            "name": table.name,
            "rows": rows,
            "columns": columns,
        }
        return PublishedTable(key, manifest, blocks, nbytes)

    def stats(self) -> dict[str, int]:
        live = [published for _, published in self.tables.items()]
        return {
            "published_tables": len(live),
            "published_bytes": sum(p.nbytes for p in live),
            "evict_deferred": self.tables.deferred,
        }

    def close(self) -> None:
        """Destroy every publication (idempotent).

        Shutdown path: pins are not honoured here -- any op still in
        flight is already doomed (its workers are being stopped) and falls
        back in-process.
        """
        self.tables.clear()


def table_from_buffers(manifest: dict[str, Any],
                       buffer_of: Callable[[dict[str, Any]], Any]) -> "Table":
    """Rebuild a published table over one buffer per manifest column.

    ``buffer_of(column_spec)`` returns the bytes of that column: numeric
    columns become ndarray views straight over the buffer (zero-copy),
    object columns are unpickled once.  Shared by both data planes -- the
    buffers are mapped shared-memory blocks or streamed uploads -- so the
    two cannot decode a publication differently.
    """
    from repro.storage.table import Table

    rows = manifest["rows"]
    columns: dict[str, np.ndarray] = {}
    for spec in manifest["columns"]:
        buf = buffer_of(spec)
        if spec["kind"] == "f8":
            columns[spec["name"]] = np.ndarray(
                rows, dtype=np.float64, buffer=buf)
        else:
            columns[spec["name"]] = pickle.loads(bytes(buf[:spec["nbytes"]]))
    if not columns:
        return Table.empty(manifest["name"], [])
    return Table.adopt_columns(manifest["name"], columns)


def build_table_from_manifest(
    manifest: dict[str, Any],
    attach: Callable[[str], shared_memory.SharedMemory] = attach_block,
) -> tuple["Table", list[shared_memory.SharedMemory]]:
    """Reconstruct a table over published blocks (worker side, zero-copy).

    ``attach`` opens one block by name (a standalone server passes its
    untracked variant).  Returns the table plus the block handles the
    caller must keep alive (and close when the table is dropped).
    """
    blocks: list[shared_memory.SharedMemory] = []

    def mapped(spec: dict[str, Any]):
        blocks.append(attach(spec["shm"]))
        return blocks[-1].buf

    try:
        return table_from_buffers(manifest, mapped), blocks
    except Exception:
        for shm in blocks:
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass
        raise
