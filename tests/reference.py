"""The one reference every suite holds production frames against.

Lives in its own module rather than ``conftest.py`` because ``conftest`` is
not a unique module name under the tier-1 command: pytest also imports
``benchmarks/e2e/conftest.py`` (last), so ``from conftest import ...`` in a
test module would resolve to that one.
"""

from __future__ import annotations

import copy

from repro import QueryEngine
from repro.core.plan import reference_feedback


def reference_frame(source, prepared):
    """The naive whole-table reference for a prepared query's current state.

    A fresh engine assembles the evaluation table and the effective
    condition (qualified, join leaves attached) from a copy of the query --
    nothing is executed on it -- and
    :func:`~repro.core.plan.reference_feedback` computes the frame from
    those with plain NumPy calls: no evaluation cache, no shards, no
    prefetch regions, no incremental state.  It shares no evaluator code
    with the engine under test, not even the compiled plan, so it can fail
    on a sharded-evaluator or plan-compiler bug at every shard count, one
    shard included.
    """
    fresh = QueryEngine(source, prepared.config).prepare(
        copy.deepcopy(prepared.query))
    return reference_feedback(fresh.table, fresh._effective, fresh.config)
