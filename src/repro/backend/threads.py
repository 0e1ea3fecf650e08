"""``threads`` backend: the classic in-process shared thread pool.

It declines the one offload hook, so the evaluator computes every shard
on the process-wide shared executor the engine hands it
(:func:`repro.core.shard.shared_executor`) exactly as it did before
backends existed.  It is the default backend and the reference other
backends are differentially tested against.
"""

from __future__ import annotations

from repro.backend.base import ExecBackend

__all__ = ["ThreadsBackend"]


class ThreadsBackend(ExecBackend):

    name = "threads"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
