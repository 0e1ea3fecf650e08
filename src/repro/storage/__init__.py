"""Storage substrate: column-store tables, databases, indexes and caches.

The VisDB paper assumes an underlying database system that can deliver all
candidate data items for a query (and, ideally, supports multidimensional
range queries and incremental query modification -- see the paper's
conclusions).  This package provides that substrate:

* :class:`~repro.storage.table.Table` -- an in-memory NumPy column store.
* :class:`~repro.storage.database.Database` -- a named collection of tables
  plus the designer-defined *connections* (named joins) used by the query
  specification interface.
* :mod:`~repro.storage.sqlite_backend` -- persistence to/from SQLite.
* :mod:`~repro.storage.csv_io` -- CSV import/export with type inference.
* :mod:`~repro.storage.index` -- sorted single-attribute and grid-based
  multi-attribute indexes for range queries.
* :class:`~repro.storage.cache.PrefetchCache` -- the incremental
  "retrieve more data than necessary" cache sketched in the conclusions.
* :mod:`~repro.storage.cross_product` -- lazy cross products for
  approximate joins.
* :class:`~repro.storage.lru.LRUStore` -- the one bounded, pin-aware LRU
  behind every cache of the engine and the backends.
"""

from repro.storage.table import Table, ColumnStats
from repro.storage.database import Database
from repro.storage.index import SortedIndex, GridIndex
from repro.storage.cache import PrefetchCache, CachedRegion
from repro.storage.cross_product import CrossProduct, sampled_pair_indices
from repro.storage import csv_io, sqlite_backend

__all__ = [
    "Table",
    "ColumnStats",
    "Database",
    "SortedIndex",
    "GridIndex",
    "PrefetchCache",
    "CachedRegion",
    "CrossProduct",
    "sampled_pair_indices",
    "csv_io",
    "sqlite_backend",
]
