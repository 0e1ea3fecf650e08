"""Output oracle: what the server streamed must be what a cold run computes.

Two checks per session:

1. **Fold**: applying every update the client pulled, in order, with the
   reference client ``apply_frame_update`` must reproduce the final
   ``resync`` frame field for field.
2. **Reference**: that frame's statistics and a digest of its
   ``display_order`` must equal a cold, single-shard, in-process
   (``threads``) execution at the session's final slider position, run
   here in the benchmark process on a table rebuilt from the same seed.

The digest per cold-open query is also returned so a full run can check
that the three ``cold_open.*`` backends produced identical pictures.
"""

from __future__ import annotations

import hashlib
import json

from loadgen import SessionLog
from workloads import TABLE_NAME, Workload, locality_table_columns


def order_digest(display_order: list[int]) -> str:
    return hashlib.blake2b(
        json.dumps(display_order).encode(), digest_size=12).hexdigest()


def fold_matches(log: SessionLog) -> tuple[bool, dict | None]:
    """Check 1; returns ``(ok, final_frame_state)``."""
    from repro.service import apply_frame_update, frame_state

    try:
        state = None
        for raw in log.frames:
            state = apply_frame_update(state, json.loads(raw))
        final = frame_state(json.loads(log.resync))
    except (ValueError, KeyError, TypeError):
        return False, None
    return state == final, final


class Reference:
    """Cold single-shard executions on the benchmark's own copy of the table."""

    def __init__(self, workload: Workload, seed: int):
        from repro import PipelineConfig, QueryEngine
        from repro.storage.table import Table

        self.workload = workload
        self.table = Table(TABLE_NAME, locality_table_columns(workload.rows, seed))
        self.engine = QueryEngine(self.table, PipelineConfig(
            percentage=workload.percentage, shard_count=1, max_workers=1,
            backend="threads"))
        self._results: dict[tuple, tuple] = {}

    def close(self) -> None:
        self.engine.close()

    def matches(self, log: SessionLog, final: dict) -> bool:
        """Check 2 for one session (one cold run per distinct final query)."""
        from repro.service import parse_event

        key = (log.sql, json.dumps(list(log.controls.values()), sort_keys=True))
        if key not in self._results:
            prepared = self.engine.prepare(log.sql)
            changes = [parse_event(event) for event in log.controls.values()]
            feedback = prepared.execute(changes=changes or None)
            self._results[key] = (feedback.statistics.as_dict(),
                                  feedback.display_order.tolist())
        statistics, order = self._results[key]
        return statistics == final["statistics"] and order == final["display_order"]


def check(workload: Workload, seed: int, sessions: list[SessionLog]) -> dict:
    """Run both checks; returns counts plus the per-query digests.

    The fold runs on every session.  The cold reference is O(rows) per
    session, so cold-open runs (dozens of sessions, each of which already
    pays a fold) reference-check their last session only.
    """
    attempted = mismatches = 0
    digests: dict[str, str] = {}
    finals: list[tuple[SessionLog, dict]] = []
    for log in sessions:
        attempted += 1
        ok, final = fold_matches(log)
        if not ok:
            mismatches += 1
            continue
        digests[str(log.index)] = order_digest(final["display_order"])
        finals.append((log, final))
    if workload.kind == "cold_open":
        finals = finals[-1:]
    if finals:
        reference = Reference(workload, seed)
        try:
            for log, final in finals:
                attempted += 1
                if not reference.matches(log, final):
                    mismatches += 1
        finally:
            reference.close()
    return {"attempted": attempted, "mismatches": mismatches, "digests": digests}
