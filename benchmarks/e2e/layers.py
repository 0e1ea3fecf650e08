"""The layer pass: where did the event's milliseconds go?

Every probe here calls a layer's *public* functions from the benchmark's
own files and times the call from outside; nothing in ``src/repro`` is
instrumented for it.  Four sources:

* the **wire run** itself (every v2 frame carries ``run_ms``) and the
  delta of the public ``metrics`` op over the timed window;
* the **ladder**: the same event prefix replayed in-process at three
  depths (``FeedbackService`` -> ``ServiceSession`` -> ``PreparedQuery``),
  whose differences price the layers in between;
* **encode and kernel probes** on the workload's own frames and columns;
* the program's own **span trees**, read through the public ``trace`` op
  after a second, traced wire replay.

A probe that cannot import or call its target yields ``None`` plus a
reason; it never fails the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import re
import time
from typing import Callable

import bstats
from loadgen import WireRun
from workloads import (
    BURST_EVENTS,
    FIRST_TOUCH_EVENTS,
    PATH_A,
    PATH_B,
    TABLE_NAME,
    WORKERS,
    Workload,
    event_at,
    locality_table_columns,
    session_sql,
)

#: name -> (value or None, unit, reason-if-None)
Metrics = dict[str, tuple[float | None, str, str]]


def _put(out: Metrics, name: str, value, unit: str, reason: str = "") -> None:
    out[name] = (None if value is None else float(value), unit,
                 reason if value is None else "")


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _ms(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return (time.perf_counter() - t0) * 1e3, result


_RUN_MS = re.compile(rb'"run_ms": ([0-9.eE+-]+)')


def _median_ms(fn: Callable[[], object], reps: int = 5) -> float:
    return bstats.median([_ms(fn)[0] for _ in range(reps)])


# --------------------------------------------------------------------------- #
# Wire run: run_ms carried by the frames themselves
# --------------------------------------------------------------------------- #
def wire_metrics(workload: Workload, run: WireRun) -> Metrics:
    out: Metrics = {}
    stamped, frames = run.interaction(workload)
    # Full frames run to hundreds of kilobytes: read the one field, not the frame.
    found = [_RUN_MS.search(frame) for frame in frames]
    run_ms = [float(m.group(1)) for m in found if m]
    total = [ms for _, ms in stamped]
    _put(out, "service.session.run_ms_p50", bstats.median(run_ms), "ms",
         "no frames")
    _put(out, "service.session.run_ms_p95", bstats.percentile(run_ms, 95), "ms",
         f"{len(run_ms)} samples: fewer than 10 beyond p95")
    outside = [t - r for t, r in zip(total, run_ms)] if len(total) == len(run_ms) else []
    _put(out, "service.protocol.outside_run_ms_p50", bstats.median(outside),
         "ms", "frames without run_ms")
    return out


# --------------------------------------------------------------------------- #
# Counters: delta of the public ``metrics`` op over the timed window
# --------------------------------------------------------------------------- #
def counter_metrics(run: WireRun) -> Metrics:
    before, after = run.counters_before, run.counters_after
    out: Metrics = {}

    def delta(section: str, key: str) -> float:
        a = (after.get(section) or {}).get(key, 0) or 0
        b = (before.get(section) or {}).get(key, 0) or 0
        return float(a - b)

    def session_total(key: str) -> float:
        def total(report: dict) -> float:
            return float(sum(row.get(key, 0)
                             for row in (report.get("sessions") or {}).values()))
        return total(after) - total(before)

    inc, eng, svc, wire, be = (functools.partial(delta, section) for section in (
        "incremental", "engine", "service", "wire", "backend"))
    none = "nothing attempted in the window"

    recomputed, reused = inc("shards_recomputed"), inc("shards_reused")
    lookups = inc("slice_hits") + inc("slice_misses")
    rows = [
        ("core.shard.shards_recomputed_per_event",
         _ratio(recomputed, inc("events")), "count"),
        ("core.shard.dirty_share", _ratio(recomputed, recomputed + reused), "ratio"),
        ("core.shard.slice_hit_rate", _ratio(inc("slice_hits"), lookups), "ratio"),
        ("core.shard.bounds_shortcircuit_rate",
         _ratio(inc("bounds_shortcircuits"), lookups), "ratio"),
        ("core.engine.displayed_patch_rate",
         _ratio(inc("displayed_patches"), inc("events")), "ratio"),
        ("core.engine.result_count_patch_rate",
         _ratio(inc("result_count_patches"), inc("events")), "ratio"),
        ("core.engine.quantile_certified_rate",
         _ratio(inc("quantile_certified"),
                inc("quantile_certified") + inc("quantile_fallbacks")), "ratio"),
        ("core.chunks.patched_share",
         _ratio(inc("chunks_patched"),
                inc("chunks_patched") + inc("chunks_shared")), "ratio"),
        ("core.plan.leaf_hit_rate",
         _ratio(eng("leaf_hits"), eng("leaf_hits") + eng("leaf_misses")), "ratio"),
        ("core.plan.node_hit_rate",
         _ratio(eng("node_hits"), eng("node_hits") + eng("node_misses")), "ratio"),
        ("storage.cache.prefetch_hit_rate",
         _ratio(eng("prefetch_hits"),
                eng("prefetch_hits") + eng("prefetch_misses")), "ratio"),
        ("service.coalesce.coalesced_share",
         _ratio(svc("events_coalesced"), svc("events_received")), "ratio"),
        ("service.coalesce.shed", svc("events_shed"), "count"),
        ("service.service.events_per_run",
         _ratio(svc("events_executed"), svc("runs")), "count"),
        ("service.session.render_hit_rate",
         _ratio(session_total("render_hits"),
                session_total("render_hits") + session_total("render_misses")),
         "ratio"),
        ("service.protocol.delta_share",
         _ratio(wire("deltas_sent"),
                wire("deltas_sent") + wire("snapshots_sent")), "ratio"),
        ("service.protocol.errors_sent", wire("errors_sent"), "count"),
        ("backend.pipeline_ops_per_open",
         _ratio(be("pipeline_ops"), svc("sessions_opened")), "count"),
        ("backend.offloaded_ops", be("offloaded_ops"), "count"),
        ("backend.fallbacks", be("fallbacks"), "count"),
        ("backend.pipeline_fallbacks", be("pipeline_fallbacks"), "count"),
        ("backend.worker_restarts", be("worker_restarts"), "count"),
        ("backend.traffic_bytes_per_op",
         _ratio(be("traffic_bytes"), be("offloaded_ops")), "bytes"),
        ("backend.reply_bytes_per_op",
         _ratio(be("reply_bytes"), be("offloaded_ops")), "bytes"),
        ("backend.published_bytes",
         float((after.get("backend") or {}).get("published_bytes", 0)), "bytes"),
        ("backend.remote.column_bytes", be("column_bytes"), "bytes"),
        ("backend.remote.remote_fallbacks", be("remote_fallbacks"), "count"),
        ("backend.remote.endpoint_reconnects", be("endpoint_reconnects"), "count"),
    ]
    for name, value, unit in rows:
        _put(out, name, value, unit, none)
    return out


# --------------------------------------------------------------------------- #
# Program-reported spans (traced wire replay)
# --------------------------------------------------------------------------- #
#: metric stem -> (span name, prefix match, self time)
SPAN_METRICS = {
    "prog.coalesce.wait": ("coalesce.wait", False, False),
    "prog.scheduler.queue": ("scheduler.queue", False, False),
    "prog.engine.refresh": ("engine.refresh", False, False),
    "prog.plan.evaluate_self": ("plan.evaluate", False, True),
    "prog.node.evaluate": ("node.evaluate", False, False),
    "prog.displayed.select": ("displayed.select", False, False),
    "prog.relevance.update": ("relevance.update", False, False),
    "prog.frame.build": ("frame.build", False, False),
    "prog.frame.encode": ("frame.encode", False, False),
    "prog.delta.encode": ("delta.encode", False, False),
    "prog.wire.send": ("wire.send", False, False),
    "prog.pipeline.round": ("pipeline.round", False, False),
    "prog.backend.broadcast": ("backend.broadcast", False, False),
    "prog.worker.kernel": ("worker.", True, False),
}


def span_metrics(workload: Workload, traced: WireRun,
                 untraced_p50: float | None) -> Metrics:
    """Fold the traced replay's span trees into per-layer medians.

    The workload's own interaction picks the primary trace kind (``open``
    on ``cold_open.*``, ``event`` elsewhere).  A span that only exists in
    the other kind -- the coalesce/scheduler/delta-encode spans of the
    first-touch ticks after a cold open -- is taken from there.
    """
    out: Metrics = {}
    primary_kind = "open" if workload.kind == "cold_open" else "event"
    stamped, frames = traced.interaction(workload)
    timed = len(frames)
    by_kind: dict[str, list[list[dict]]] = {"open": [], "event": []}
    for trace in traced.traces:
        if trace["name"] in by_kind and trace.get("spans"):
            by_kind[trace["name"]].append(trace["spans"])
    # Warm-up traces sit at the front of the ring; keep the timed tail.
    primary = by_kind[primary_kind][-timed:] if timed else []
    other = by_kind["event" if primary_kind == "open" else "open"]
    for stem, (name, prefix, own) in SPAN_METRICS.items():
        for pool in (primary, other):
            samples = [v for v in (bstats.span_total(s, name, prefix, own)
                                   for s in pool) if v is not None]
            if samples:
                break
        _put(out, f"{stem}_ms_p50", bstats.median(samples), "ms",
             f"no {name!r} span in {len(primary)} {primary_kind} traces")
    traced_p50 = bstats.median([ms for _, ms in stamped])
    _put(out, "obs.trace_overhead_ratio",
         _ratio(traced_p50, untraced_p50) if traced_p50 and untraced_p50 else None,
         "ratio", "no traced or untraced samples")
    _put(out, "obs.spans_per_event",
         bstats.median([len(s) for s in primary]), "count", "no traces")
    _put(out, "obs.unattributed_share",
         bstats.median([bstats.unattributed_share(s) for s in primary]),
         "ratio", "no traces")
    return out


# --------------------------------------------------------------------------- #
# In-process: ladder, encode probes, kernels
# --------------------------------------------------------------------------- #
class _Bench:
    """The benchmark process's own copy of the table, and engines on it."""

    def __init__(self, workload: Workload, seed: int):
        from repro.storage.table import Table

        self.workload = workload
        self.table = Table(TABLE_NAME, locality_table_columns(workload.rows, seed))

    @contextlib.contextmanager
    def engine(self, backend: str | None = None):
        """An engine on the table, closed on exit.

        Keep as few alive as the probe needs: every live engine keeps its
        cache set resident, and cold executions slow down severalfold
        once several have filled up.  The server under test has one.
        """
        from repro import PipelineConfig, QueryEngine

        w = self.workload
        engine = QueryEngine(self.table, PipelineConfig(
            percentage=w.percentage, shard_count=w.shards,
            max_workers=WORKERS, backend=backend or w.backend))
        try:
            yield engine
        finally:
            engine.close()

    def close(self) -> None:
        """Stop pool workers and fleet connections of *this* process."""
        from repro.backend import shutdown_all

        shutdown_all()


def _turn(workload: Workload, seed: int, index: int, position: int) -> list:
    """Parsed events of one session's turn ``position`` of the wire script."""
    from repro.service import parse_event

    per_turn = BURST_EVENTS if workload.kind == "fanout" else 1
    return [parse_event(event_at(workload, seed, position * per_turn + j, index))
            for j in range(per_turn)]


def _coalesce(turn: list) -> list:
    from repro.service import CoalescingQueue

    queue = CoalescingQueue()
    for event in turn:
        queue.put(event)
    return queue.drain()


def _cold_index(workload: Workload, iteration: int, depth: int) -> int:
    """Query number of a ladder cold open: past the warm-up, one per depth."""
    return workload.warm + 3 * iteration + depth


def _open_cold(engine, sql: str):
    """``prepare`` then the cold ``execute``, timed separately."""
    prepare_ms, prepared = _ms(lambda: engine.prepare(sql))
    execute_ms, _ = _ms(prepared.execute)
    return prepared, prepare_ms, execute_ms


def _encode_probe(previous, current, sink: dict[str, list[float]]) -> None:
    """Time the wire encoders on one frame (and, given a base, its delta)."""
    from repro.service import delta_payload, frame_payload

    ms, payload = _ms(lambda: json.dumps(
        {"ok": True, **frame_payload(current)}).encode())
    sink["full_ms"].append(ms)
    sink["full_bytes"].append(len(payload))
    if previous is None:
        return
    ms, payload = _ms(lambda: json.dumps(
        {"ok": True, **delta_payload(previous, current)}).encode())
    sink["delta_ms"].append(ms)
    sink["delta_bytes"].append(len(payload))
    sink["diff_ms"].append(_ms(lambda: [
        window.diff_cells(previous.windows.get(path))
        for path, window in current.windows.items()])[0])


async def _ladder(engines, workload: Workload, seed: int, count: int,
                  sink: dict[str, list[float]]) -> None:
    """Replay ``count`` turns at three depths, interleaved turn by turn.

    Depth ``submit``: ``FeedbackService.submit`` + ``snapshot`` (scheduler,
    coalescing queue, executor hop; no socket, no JSON).  Depth ``batch``:
    ``ServiceSession.execute_batch`` (engine + frame build).  Depth
    ``execute``: ``PreparedQuery.execute`` alone.  One turn each, in a
    rotating order, so machine noise and position effects land on the
    three alike and their differences stay meaningful.

    ``engines`` holds one engine per depth for the drags -- sessions that
    drag the same attribute on one engine evict each other's range
    history and stop patching, which the single-session workloads never
    do.  Cold opens share one engine (more would multiply the resident
    cache sets) and stay cold through distinct query constants per depth.
    """
    from repro import FeedbackService, ServiceConfig
    from repro.service import ServiceSession

    service = FeedbackService(
        engines[0], service_config=ServiceConfig(max_inflight=WORKERS))
    async with service:
        if workload.kind == "cold_open":
            engine = engines[0]
            session = None

            async def submit(k: int) -> None:
                t0 = time.perf_counter()
                sid = await service.open_session(session_sql(workload, seed, k))
                await service.snapshot(sid)
                sink["submit"].append((time.perf_counter() - t0) * 1e3)
                await service.close_session(sid)

            async def batch(k: int) -> None:
                nonlocal session
                t0 = time.perf_counter()
                prepared = engine.prepare(session_sql(workload, seed, k))
                session = ServiceSession(f"b{k}", prepared)
                session.execute_batch([])
                sink["batch"].append((time.perf_counter() - t0) * 1e3)

            async def execute(k: int) -> None:
                _, p_ms, c_ms = _open_cold(engine, session_sql(workload, seed, k))
                sink["prepare"].append(p_ms)
                sink["cold"].append(c_ms)
                sink["execute"].append(p_ms + c_ms)

            depths = [submit, batch, execute]
            for i in range(count):
                for j in range(3):
                    await depths[(i + j) % 3](_cold_index(workload, i, (i + j) % 3))
                if len(sink["full_ms"]) < 10:
                    _encode_probe(None, session.snapshot, sink)
            # Ticks only after the last timed open (a re-execution changes
            # how later opens on this engine run): frame pairs for the
            # delta encoder.
            for position in range(FIRST_TOUCH_EVENTS):
                session.execute_batch(_turn(workload, seed, 0, position))
                _encode_probe(*session.frames, sink)
            return

        # As many sessions per depth as the wire workload has, taking turns
        # in the same rotation: on ``fanout_burst`` the sessions drag one
        # attribute of one engine and evict each other's range history,
        # which is the engine work the wire run actually pays.
        count_sessions = workload.sessions
        prepared, sessions, sids = [], [], []
        for index in range(count_sessions):
            sql = session_sql(workload, seed, index)
            query, p_ms, c_ms = _open_cold(engines[2], sql)
            prepared.append(query)
            if index == 0:
                sink["prepare"].append(p_ms)
                sink["cold"].append(c_ms)
            sessions.append(ServiceSession(f"b{index}", engines[1].prepare(sql)))
            sessions[-1].execute_batch([])
            sids.append(await service.open_session(sql))

        async def submit(index: int, turn: list) -> float:
            t0 = time.perf_counter()
            for event in turn:
                await service.submit(sids[index], event)
            await service.snapshot(sids[index], wait=True)
            return (time.perf_counter() - t0) * 1e3

        async def batch(index: int, turn: list) -> float:
            coalesced = _coalesce(turn)
            return _ms(lambda: sessions[index].execute_batch(coalesced))[0]

        async def execute(index: int, turn: list) -> float:
            coalesced = _coalesce(turn)
            return _ms(lambda: prepared[index].execute(changes=coalesced))[0]

        depths = [("submit", submit), ("batch", batch), ("execute", execute)]
        warm = min(workload.warm, 12) * count_sessions
        for n in range(warm + count):
            index, position = n % count_sessions, n // count_sessions
            turn = _turn(workload, seed, index, position)
            took = {}
            for j in range(3):
                name, depth = depths[(n + j) % 3]
                took[name] = await depth(index, turn)
            if n >= warm:
                for name, ms in took.items():
                    sink[name].append(ms)
                if len(sink["full_ms"]) < 30:
                    _encode_probe(*sessions[index].frames, sink)


def ladder_metrics(workload: Workload, seed: int, count: int,
                   wire_p50: float | None) -> Metrics:
    """The in-process ladder and the encode probes; prices the gaps."""
    out: Metrics = {}
    bench = _Bench(workload, seed)
    sink: dict[str, list[float]] = {k: [] for k in (
        "submit", "batch", "execute", "prepare", "cold",
        "full_ms", "full_bytes", "delta_ms", "delta_bytes", "diff_ms")}
    try:
        with contextlib.ExitStack() as stack:
            engines = [stack.enter_context(bench.engine()) for _ in range(
                1 if workload.kind == "cold_open" else 3)]
            asyncio.run(_ladder(engines, workload, seed, count, sink))
        # The same cold executions on the in-process backend, for the ratio.
        ratio = 1.0
        if workload.backend != "threads":
            opens = ([_cold_index(workload, i, 2) for i in range(count)]
                     if workload.kind == "cold_open" else [0])
            with bench.engine("threads") as engine:
                base = [_open_cold(engine, session_sql(workload, seed, k))[2]
                        for k in opens]
            ratio = _ratio(bstats.median(sink["cold"]), bstats.median(base))
    finally:
        bench.close()

    a, b, c = (bstats.median(sink[k]) for k in ("submit", "batch", "execute"))
    none = "no samples"
    _put(out, "service.service.submit_snapshot_ms_p50", a, "ms", none)
    _put(out, "service.session.batch_ms_p50", b, "ms", none)
    _put(out, "core.engine.execute_ms_p50", c, "ms", none)
    _put(out, "core.engine.execute_ms_p95", bstats.percentile(sink["execute"], 95),
         "ms", f"{len(sink['execute'])} samples: fewer than 10 beyond p95")
    # The three depths ran the same turn back to back, so the layers in
    # between are priced by the median of the *paired* differences: event
    # kinds of different cost (the retune cycle) cancel turn by turn.
    paired = lambda x, y: bstats.median(  # noqa: E731
        [p - q for p, q in zip(sink[x], sink[y])])
    _put(out, "service.protocol.overhead_ms_p50",
         None if wire_p50 is None or a is None else wire_p50 - a, "ms", none)
    _put(out, "service.service.overhead_ms_p50", paired("submit", "batch"), "ms", none)
    _put(out, "service.session.frame_build_ms_p50", paired("batch", "execute"),
         "ms", none)
    _put(out, "query.parse_prepare_ms_p50", bstats.median(sink["prepare"]), "ms", none)
    _put(out, "core.engine.cold_execute_ms_p50", bstats.median(sink["cold"]), "ms", none)
    _put(out, "backend.cold_execute_ratio", ratio, "ratio", none)
    _put(out, "service.snapshot.delta_encode_ms_p50",
         bstats.median(sink["delta_ms"]), "ms", none)
    _put(out, "service.snapshot.full_encode_ms_p50",
         bstats.median(sink["full_ms"]), "ms", none)
    _put(out, "service.snapshot.delta_bytes_p50",
         bstats.median(sink["delta_bytes"]), "bytes", none)
    _put(out, "service.snapshot.full_bytes_p50",
         bstats.median(sink["full_bytes"]), "bytes", none)
    _put(out, "vis.window.diff_cells_ms_p50",
         bstats.median(sink["diff_ms"]), "ms", none)
    return out


def kernel_metrics(workload: Workload, seed: int) -> Metrics:
    """Kernel probes on the workload's own columns, one probe per layer."""
    import numpy as np

    out: Metrics = {}
    bench = _Bench(workload, seed)
    try:
        with bench.engine("threads") as engine:
            feedback = engine.prepare(session_sql(workload, seed, 0)).execute()
        n = workload.rows
        mrows = n / 1e6
        node_a, node_b = feedback.node_feedback[PATH_A], feedback.node_feedback[PATH_B]
        overall = np.asarray(feedback.overall.normalized_distances)
        target = max(1, int(round(workload.percentage * n)))
        bounds = np.linspace(0, n, workload.shards + 1).astype(int)

        def normalize():
            from repro.core.normalization import reduced_normalization
            raw = np.asarray(node_a.raw_distances)
            return _median_ms(lambda: reduced_normalization(
                raw, node_a.weight, feedback.display_capacity)) / mrows

        def combine():
            from repro.core.combine import CombinationRule, combine_columns
            columns = [np.asarray(node_a.normalized_distances),
                       np.asarray(node_b.normalized_distances)]
            weights = np.array([node_a.weight, node_b.weight])
            return _median_ms(lambda: combine_columns(
                CombinationRule.OR, columns, weights)) / mrows

        def select():
            from repro.core.reduction import select_display_set
            return _median_ms(lambda: select_display_set(
                overall, feedback.display_capacity, 3,
                percentage=workload.percentage)) / mrows

        def topk_merge():
            from repro.core.reduction import (
                merge_topk_candidates_many, resolve_topk, topk_candidates)
            partials = [topk_candidates(overall[lo:hi], target, offset=int(lo))
                        for lo, hi in zip(bounds[:-1], bounds[1:])]
            return _median_ms(
                lambda: resolve_topk(merge_topk_candidates_many(partials)))

        band = np.arange(max(0, n - 6000), max(1, n - 1000))

        def chunk_patch():
            from repro.core.chunks import ChunkedColumn
            column = ChunkedColumn.from_array(overall.copy())
            values = np.zeros(len(band))
            return _median_ms(lambda: column.patch(band, values))

        def chunk_materialize():
            from repro.core.chunks import ChunkedColumn
            column = ChunkedColumn.from_array(overall.copy())
            values = np.zeros(len(band))
            # A patched column has no cached contiguous form: each fresh
            # patch result pays the full materialization.
            return bstats.median([
                _ms(column.patch(band, values).materialize)[0] for _ in range(5)])

        def index_build():
            from repro.storage.index import SortedIndex
            return _median_ms(lambda: SortedIndex(bench.table, "t"), reps=3)

        def index_query():
            from repro.storage.index import SortedIndex
            index = SortedIndex(bench.table, "t")
            calls = 200
            ms, _ = _ms(lambda: [index.range_query(985.0, 985.05, sort=False)
                                 for _ in range(calls)])
            return ms * 1e3 / calls

        def shm_publish():
            from repro.backend.shm import ShmColumnStore
            times = []
            for _ in range(3):
                store = ShmColumnStore()
                try:
                    times.append(_ms(lambda: store.publish(bench.table))[0])
                finally:
                    store.close()
            return bstats.median(times)

        probes = [
            ("core.normalization.normalize_ms_per_mrow", normalize, "ms"),
            ("core.combine.combine_ms_per_mrow", combine, "ms"),
            ("core.reduction.select_ms_per_mrow", select, "ms"),
            ("core.reduction.topk_merge_ms", topk_merge, "ms"),
            ("core.chunks.patch_ms", chunk_patch, "ms"),
            ("core.chunks.materialize_ms", chunk_materialize, "ms"),
            ("storage.index.build_ms", index_build, "ms"),
            ("storage.index.range_query_us", index_query, "us"),
            ("backend.shm.publish_ms", shm_publish, "ms"),
        ]
        for name, probe, unit in probes:
            try:
                _put(out, name, probe(), unit)
            except Exception as exc:  # noqa: BLE001 - a probe never fails the run
                _put(out, name, None, unit, f"{type(exc).__name__}: {exc}")
    finally:
        bench.close()
    return out


@contextlib.contextmanager
def remote_env(fleet: str | None):
    """Point this process's remote backend at ``fleet`` for the duration."""
    previous = os.environ.get("REPRO_REMOTE_WORKERS")
    if fleet:
        os.environ["REPRO_REMOTE_WORKERS"] = fleet
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_REMOTE_WORKERS", None)
        else:
            os.environ["REPRO_REMOTE_WORKERS"] = previous
