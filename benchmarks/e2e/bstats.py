"""Pure statistics helpers: percentiles, spreads and the span self-time fold."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

#: A percentile is reported only where at least this many samples lie
#: beyond it (p95 therefore needs >= 200 samples, p50 >= 20).
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float | None:
    return float(statistics.median(values)) if values else None


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_SAMPLES_BEYOND) -> float | None:
    """The ``q`` percentile (0..100), or ``None`` if too few samples lie beyond it.

    Linear interpolation between order statistics (NumPy's default rule).
    """
    n = len(values)
    if n == 0 or n * (1.0 - q / 100.0) < min_beyond:
        return None
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def iqr_share(values: Sequence[float]) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else None


def block_spread(stamped: Sequence[tuple[float, float]], blocks: int = 5) -> float | None:
    """Within-run steadiness of a timing: IQR share of per-block medians.

    ``stamped`` holds ``(finish_time, value)`` pairs; the run is cut into
    ``blocks`` equal time slices.  A metric whose own run cannot agree
    with itself is *unresolved*, not regressed, when it later moves.
    """
    if len(stamped) < 4 * blocks:
        return None
    t0, t1 = stamped[0][0], stamped[-1][0]
    width = (t1 - t0) / blocks or 1.0
    per_block: list[list[float]] = [[] for _ in range(blocks)]
    for t, v in stamped:
        per_block[min(blocks - 1, int((t - t0) / width))].append(v)
    medians = [statistics.median(b) for b in per_block if b]
    return iqr_share(medians)


# --------------------------------------------------------------------------- #
# Span trees (the ``trace`` op's JSON form: id, parent, name, start_ms,
# duration_ms per span; span 0 is the root)
# --------------------------------------------------------------------------- #
def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_extent(spans: Sequence[dict]) -> float:
    """End of the latest span, relative to the root's start.

    Encode and send spans attach after the pipeline run closed the root,
    so the event's real extent is the latest end, not the root duration.
    """
    return max(s["start_ms"] + s["duration_ms"] for s in spans)


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children.

    Children are clipped to the parent's interval and overlapping
    children (parallel shard work) are counted once.  The root's interval
    is stretched to :func:`span_extent`.
    """
    extent = span_extent(spans)
    interval = {}
    for s in spans:
        lo = s["start_ms"]
        hi = extent if s["parent"] < 0 else lo + s["duration_ms"]
        interval[s["id"]] = (lo, hi)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = interval.get(s["parent"])
        if parent is None:
            continue
        lo, hi = interval[s["id"]]
        lo, hi = max(lo, parent[0]), min(hi, parent[1])
        if hi > lo:
            children.setdefault(s["parent"], []).append((lo, hi))
    return {
        sid: (hi - lo) - _union_length(children.get(sid, ()))
        for sid, (lo, hi) in interval.items()
    }


def span_total(spans: Sequence[dict], name: str, prefix: bool = False,
               self_time: bool = False) -> float | None:
    """Time one trace spent in spans called ``name`` (``None`` if absent).

    A name nested inside itself (``node.evaluate`` recursion) is counted
    at its outermost occurrence only.  ``self_time`` subtracts children.
    """
    def match(n: str) -> bool:
        return n.startswith(name) if prefix else n == name

    by_id = {s["id"]: s for s in spans}
    own = self_times(spans) if self_time else None
    total, seen = 0.0, False
    for s in spans:
        if not match(s["name"]):
            continue
        parent = by_id.get(s["parent"])
        if parent is not None and match(parent["name"]):
            continue
        seen = True
        total += own[s["id"]] if own is not None else s["duration_ms"]
    return total if seen else None


def unattributed_share(spans: Sequence[dict]) -> float:
    """Root self time as a share of the event's extent."""
    extent = span_extent(spans)
    return self_times(spans)[spans[0]["id"]] / extent if extent > 0 else 0.0
