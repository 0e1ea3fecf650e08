"""Workload definitions: tables, queries and seeded event scripts.

Everything the server sees is generated here from ``--seed`` alone: the
table contents, every slider trajectory and every cold-open query.  The
program under test receives only these generated inputs.

All slider trajectories are **triangle waves inside a bounded band**, so
the amount of dirty work per event -- and with it the latency -- is
stationary over a run of any length (a monotone drag grows its violating
band and drifts, which is what made the older in-process benches
non-comparable between run lengths).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

NPROC = os.cpu_count() or 1
#: Server pinning: ``max_workers = max_inflight = pool size = WORKERS``.
WORKERS = min(2, NPROC)

TABLE_NAME = "Events"
#: Node paths of the benchmark query ``t-range AND (a > x OR b < y)``.
PATH_T, PATH_OR, PATH_A, PATH_B = (0,), (1,), (1, 0), (1, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``drag`` / ``retune`` / ``cold_open`` / ``fanout`` -- picks the driver.
    kind: str
    rows: int
    shards: int
    percentage: float
    backend: str = "threads"
    sessions: int = 1
    connections: int = 1
    #: Warm-up operations before the timed window (events, opens or rounds).
    warm: int = 20
    #: Timed operations after which the server's peak RSS is sampled
    #: (0 = at the end of the window).
    rss_ops: int = 0
    #: For ``drag``: the control that moves and its band.
    control: str = ""
    low: float = 0.0
    high: float = 0.0
    step: float = 0.0


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "drag_local",
        "headline interaction: range drag on the row-order-correlated column, "
        "1-2 of 32 shards dirty, so certificates, chunk patching, scheduler "
        "hop and delta encode are the event",
        "drag", 1_000_000, 32, 0.01, warm=20,
        control="range_t", low=980.0, high=990.0, step=0.05),
    Workload(
        "drag_scatter",
        "same incremental layer used the other way: threshold drag on a "
        "column uncorrelated with row order, all 32 shards dirty every event",
        "drag", 1_000_000, 32, 0.01, warm=4,
        control="threshold_b", low=69.0, high=70.0, step=0.005),
    Workload(
        "global_retune",
        "O(n) shard-parallel events (weight, percentage dial, range jump): "
        "kernels dominate, certificates are bypassed, large deltas make "
        "encode and wire matter",
        "retune", 1_000_000, 32, 0.01, warm=12),
    Workload(
        "cold_open.threads",
        "time to first picture: whole cold pipeline in-process plus a "
        "full-frame encode; baseline for the other two backends",
        "cold_open", 500_000, 32, 0.02, backend="threads", warm=2, rss_ops=12),
    Workload(
        "cold_open.process",
        "same opens with the whole pipeline offloaded to the shared-memory "
        "process pool",
        "cold_open", 500_000, 32, 0.02, backend="process", warm=2, rss_ops=12),
    Workload(
        "cold_open.remote",
        "same opens against two loopback TCP workers: the second transport "
        "of the same session algorithm",
        "cold_open", 500_000, 32, 0.02, backend="remote", warm=2, rss_ops=12),
    Workload(
        "fanout_burst",
        "8 sessions on 2 connections sending 5-event bursts: engine work is "
        "small and shared, so coalescing, the scheduler, the window cache "
        "and JSON encode are the event",
        "fanout", 250_000, 8, 0.01, sessions=8, connections=WORKERS,
        warm=4, control="range_t", low=980.0, high=990.0, step=0.05),
)

BY_NAME = {w.name: w for w in WORKLOADS}
#: Events pipelined per fan-out burst before the frame pull.
BURST_EVENTS = 5
#: Slider ticks of the cold-open layer-pass epilogue (never inside the timed
#: window: the first tick on an engine changes how later opens execute).
FIRST_TOUCH_EVENTS = 3


def smoke(workload: Workload) -> Workload:
    """The same workload on a 20k-row table (self-test scale)."""
    from dataclasses import replace
    return replace(workload, rows=20_000, shards=min(workload.shards, 8),
                   percentage=max(workload.percentage, 0.05),
                   warm=min(workload.warm, 3),
                   rss_ops=min(workload.rss_ops, 2))


def locality_table_columns(rows: int, seed: int) -> dict[str, np.ndarray]:
    """Columns of the benchmark table.

    ``t`` is sorted, hence correlated with row order (time-series
    locality: a value band maps to few row-range shards); ``a`` follows
    ``t`` loosely; ``b`` is independent of row order.
    """
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1000.0, rows))
    a = t * 0.1 + rng.normal(0.0, 5.0, rows)
    b = rng.uniform(0.0, 100.0, rows)
    return {"t": t, "a": a, "b": b}


def query_sql(t_low: float = 5.0, t_high: float = 990.0,
              a_min: float = 30.0, b_max: float = 70.0) -> str:
    return (f"SELECT * FROM {TABLE_NAME} WHERE t BETWEEN {t_low!r} AND "
            f"{t_high!r} AND (a > {a_min!r} OR b < {b_max!r})")


def _rng(seed: int, *salt: object) -> np.random.Generator:
    """A generator that is a pure function of ``seed`` and the salt."""
    key = zlib.crc32(repr(salt).encode())
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, key])


def triangle_wave(k: int, low: float, high: float, step: float,
                  phase: int = 0) -> float:
    """Position ``k`` of a triangle wave over ``[low, high]`` in ``step``s.

    Computed from the step index, never accumulated, so position ``k`` is
    exact and identical however the trajectory is consumed.
    """
    n = max(1, int(round((high - low) / step)))
    i = (k + phase) % (2 * n)
    return round(low + (i if i <= n else 2 * n - i) * step, 9)


def wave_phase(workload: Workload, seed: int, session: int = 0) -> int:
    n = max(1, int(round((workload.high - workload.low) / workload.step)))
    return int(_rng(seed, workload.name, "phase", session).integers(0, 2 * n))


def drag_event(workload: Workload, value: float) -> dict:
    if workload.control == "range_t":
        return {"type": "range", "path": list(PATH_T), "low": 5.0, "high": value}
    if workload.control == "threshold_b":
        return {"type": "threshold", "path": list(PATH_B), "value": value}
    raise ValueError(f"unknown control {workload.control!r}")


def event_at(workload: Workload, seed: int, k: int, session: int = 0) -> dict:
    """Event ``k`` of a session's script (pure function of its arguments)."""
    if workload.kind in ("drag", "fanout"):
        phase = wave_phase(workload, seed, session)
        return drag_event(workload, triangle_wave(
            k, workload.low, workload.high, workload.step, phase))
    if workload.kind == "retune":
        phase = int(_rng(seed, workload.name, "phase").integers(0, 8))
        turn, kind = divmod(k, 3)
        if kind == 0:
            return {"type": "weight", "path": list(PATH_OR),
                    "weight": triangle_wave(turn, 0.5, 0.9, 0.05, phase)}
        if kind == 1:
            return {"type": "percentage",
                    "value": triangle_wave(turn, 0.008, 0.012, 0.0005, phase)}
        return {"type": "range", "path": list(PATH_T), "low": 5.0,
                "high": 985.0 if (turn + phase) % 2 else 700.0}
    if workload.kind == "cold_open":
        # Ticks on a cold-open session (layer pass only, after the timed
        # opens): a short threshold drag on ``a``.
        return {"type": "threshold", "path": list(PATH_A),
                "value": round(cold_open_constants(seed, session)[2]
                               + 0.05 * (k + 1), 9)}
    raise ValueError(f"unknown workload kind {workload.kind!r}")


def cold_open_constants(seed: int, k: int) -> tuple[float, float, float, float]:
    """Constants of the ``k``-th cold-open query.

    Every constant differs from every other open's, so no plan, leaf or
    node cache entry of an earlier open can serve a later one.  They do
    not depend on the backend: the three ``cold_open.*`` workloads issue
    the same queries and must return identical pictures.
    """
    base = float(_rng(seed, "cold_open", "base").integers(0, 100)) * 0.001
    shift = round(base + 0.01 * k, 9)
    return (round(5.0 + shift, 9), round(990.0 - shift, 9),
            round(30.0 + shift, 9), round(70.0 - shift, 9))


def session_sql(workload: Workload, seed: int, session: int) -> str:
    if workload.kind == "cold_open":
        return query_sql(*cold_open_constants(seed, session))
    return query_sql()
