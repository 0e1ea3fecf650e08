"""Observability subsystem tests: span tracing + the ``metrics`` reply.

Unit coverage for :mod:`repro.obs` (trace trees, sampling, retention
rings, explain records, worker-span stitching, Chrome export, counter
atomicity, percentile windows) plus service-level structure tests: the
span tree of a cold run vs an incremental micro-move under both the
``threads`` and ``process`` backends, trace isolation across concurrent
sessions, the ``trace`` protocol op's slow-event forensics, and the
``metrics`` reply against its glossary in docs/observability.md.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import tracemalloc

import numpy as np
import pytest

from repro import PipelineConfig, Query, QueryEngine, ScreenSpec
from repro.interact.events import SetQueryRange
from repro.obs import (
    Counter,
    Histogram,
    Trace,
    Tracer,
    build_explain,
    chrome_trace_events,
    current_trace,
    span,
    trace_active,
    use_trace,
    write_chrome_trace,
)
from repro.obs.trace import _NULL_SPAN
from repro.query.builder import between, condition
from repro.query.expr import AndNode, OrNode
from repro.service.protocol import FeedbackProtocolServer, serve
from repro.service.service import FeedbackService, ServiceConfig
from repro.storage.table import Table


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def small_table(seed: int = 0, n: int = 4_000) -> Table:
    rng = np.random.default_rng(seed)
    return Table("Demo", {
        "a": rng.uniform(0.0, 100.0, n),
        "b": rng.uniform(0.0, 10.0, n),
        "c": rng.normal(50.0, 15.0, n),
    })


def demo_query(table: Table) -> Query:
    return Query(name="demo", tables=[table.name], condition=AndNode([
        between("a", 20.0, 70.0), condition("b", ">", 4.0),
    ]))


SMALL = dict(screen=ScreenSpec(width=64, height=64))


def run(coro):
    return asyncio.run(coro)


def spans_by_name(trace_dict: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for s in trace_dict["spans"]:
        out.setdefault(s["name"], []).append(s)
    return out


def parent_of(trace_dict: dict, span_record: dict) -> dict:
    return trace_dict["spans"][span_record["parent"]]


# --------------------------------------------------------------------------- #
# Tracer unit behaviour
# --------------------------------------------------------------------------- #
def test_disabled_tracing_is_free_noop():
    tracer = Tracer(enabled=False)
    assert tracer.start("event") is None
    assert tracer.finish(None) is None
    assert tracer.recent_traces() == []
    # Outside any active trace the ambient API hands back one shared
    # null object -- no allocation on the hot path.
    assert span("anything", key="value") is _NULL_SPAN
    assert span("other") is _NULL_SPAN
    assert not trace_active()
    assert current_trace() is None
    with span("nested") as s:
        s.annotate(ignored=True)
    # use_trace(None) is a no-op so call sites need no branching.
    with use_trace(None):
        assert not trace_active()


def test_sampling_and_ring_retention():
    tracer = Tracer(enabled=True, sample_rate=0.0)
    assert tracer.start("event") is None

    tracer = Tracer(enabled=True, ring_size=4, budget_ms=None)
    for i in range(10):
        tracer.finish(tracer.start("event", i=i))
    recent = tracer.recent_traces()
    assert len(recent) == 4
    assert [t.attrs["i"] for t in recent] == [6, 7, 8, 9]
    assert tracer.slow_traces() == []  # no budget -> nothing is "slow"

    # With a zero budget every trace lands in the (bounded) slow ring
    # and carries an explain record.
    tracer = Tracer(enabled=True, budget_ms=0.0, slow_ring_size=3)
    for i in range(5):
        explain = tracer.finish(tracer.start("event", i=i))
        assert explain is not None and "slowest_spans" in explain
    slow = tracer.slow_traces()
    assert len(slow) == 3
    assert all(t.explain is not None for t in slow)


def test_ambient_spans_nest_and_reparent():
    trace = Trace("event", trace_id=7)
    with use_trace(trace):
        assert trace_active() and current_trace() is trace
        with span("outer", a=1) as outer:
            with span("inner") as inner:
                assert inner.trace is trace
            with span("inner2"):
                pass
        assert not any(s.name == "missing" for s in trace.spans)
    trace.finish()
    tree = trace.span_tree()
    assert tree["name"] == "event"
    assert [c["name"] for c in tree["children"]] == ["outer"]
    assert [c["name"] for c in tree["children"][0]["children"]] == [
        "inner", "inner2"]
    assert trace.spans[outer.span_id].attrs == {"a": 1}
    assert all(s.t1 is not None for s in trace.spans)


def test_ambient_context_is_task_local():
    """Two asyncio tasks tracing concurrently never see each other's trace."""
    async def traced_task(trace, marker):
        with use_trace(trace):
            with span("step", marker=marker):
                await asyncio.sleep(0)
                assert current_trace() is trace
                with span("substep", marker=marker):
                    await asyncio.sleep(0)

    async def main():
        t1, t2 = Trace("a", 1), Trace("b", 2)
        await asyncio.gather(traced_task(t1, "one"), traced_task(t2, "two"))
        for trace, marker in ((t1, "one"), (t2, "two")):
            markers = {s.attrs["marker"] for s in trace.spans if s.attrs}
            assert markers == {marker}

    run(main())


def test_remote_span_stitching_anchors_to_parent():
    trace = Trace("event", trace_id=1)
    parent = trace.begin("pipeline.round")
    trace.add_remote_spans(parent, [
        {"name": "worker.pipeline_start", "start": 0.001, "dur": 0.002,
         "attrs": {"pid": 123}},
    ], tid="worker-123")
    trace.end(parent)
    trace.finish()
    worker = trace.find("worker.pipeline_start")[0]
    assert worker.parent == parent
    assert worker.tid == "worker-123"
    assert worker.attrs["clock"] == "worker"
    assert worker.attrs["pid"] == 123
    anchor = trace.spans[parent].t0
    assert worker.t0 == pytest.approx(anchor + 0.001)
    assert worker.duration_ms == pytest.approx(2.0)


def test_build_explain_aggregates_certificates_and_shards():
    trace = Trace("event", trace_id=1)
    ok = trace.begin("node.evaluate", node="(0,)")
    trace.end(ok, certificate="bounds", certified=True,
              shards_recomputed=1, shards_reused=7)
    bad = trace.begin("node.evaluate", node="(1,)")
    trace.end(bad, certificate="bounds", certified=False,
              shards_recomputed=8, shards_reused=0)
    lost = trace.begin("leaf.raw")
    trace.end(lost, backend_fallbacks=1, worker_restarts=1)
    trace.annotate(0, root_dirty_shards=8)
    trace.finish()
    explain = build_explain(trace, budget_ms=5.0)
    assert explain["certificates_passed"] == 1
    assert explain["certificates_failed"] == [
        {"certificate": "bounds", "node": "(1,)", "span": "node.evaluate"}]
    assert explain["shards_recomputed"] == 9
    assert explain["shards_reused"] == 7
    assert explain["root_dirty_shards"] == 8
    assert explain["backend_fallbacks"] == 1
    assert explain["worker_restarts"] == 1
    assert explain["budget_ms"] == 5.0
    assert len(explain["slowest_spans"]) == 3


def test_chrome_trace_export_shape(tmp_path):
    trace = Trace("event", trace_id=9, session="s1")
    with use_trace(trace):
        with span("work"):
            pass
    trace.finish()
    # Both live traces and their wire (to_dict) form must convert.
    for source in (trace, trace.to_dict()):
        doc = chrome_trace_events([source])
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in complete} == {"event", "work"}
        assert all(e["pid"] == 9 for e in complete)
        assert all(e["dur"] >= 0 for e in complete)
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), [trace])
    assert json.loads(path.read_text())["traceEvents"]


# --------------------------------------------------------------------------- #
# Engine reason codes
# --------------------------------------------------------------------------- #
def test_per_root_statistics_say_why_they_rebuilt():
    """``state_declined`` on the span where the relation was decided.

    The table is built so each reason has a deterministic trigger.  The
    root is one range leaf at weight 0.5 over ``t`` (80 rows, target 20,
    keep 40): the keep-th smallest distance belongs to rows *below* the
    range, which a move of the upper bound leaves alone, so the evaluator
    keeps its dirty-shard relation; the target-th smallest belongs to rows
    *above* it, whose distances all move -- the displayed set's own
    counting certificate fails.
    """
    from repro import QueryEngine
    from repro.interact.events import SetPercentageDisplayed, SetWeight

    t = np.concatenate([
        800.0 + 2.0 * np.arange(1, 16),                     # above: d = 2..30
        np.linspace(300.0, 700.0, 10),                      # inside: d = 0
        np.full(10, 160.0), np.full(10, 150.0),             # below: d = 40, 50
        40.0 - np.arange(35),                               # far below
    ])
    table = Table("Steps", {"t": t})
    config = PipelineConfig(screen=ScreenSpec(width=32, height=32),
                            percentage=0.25, shard_count=2, max_workers=2)
    prepared = QueryEngine(table, config).prepare(Query(
        name="steps", tables=[table.name],
        condition=between("t", 200.0, 800.0).with_weight(0.5)))

    def declined(*changes) -> dict[str, str]:
        trace = Trace("event", trace_id=1)
        with use_trace(trace):
            prepared.execute(changes=list(changes))
        return {s.name: s.attrs["state_declined"] for s in trace.spans
                if s.name in everything and "state_declined" in (s.attrs or {})}

    everything = {"displayed.select", "result_count"}
    assert declined() == dict.fromkeys(everything, "no-state")
    assert declined() == {}                  # replay: same root column
    assert declined(SetQueryRange((), 200.0, 801.0)) == {
        "displayed.select": "certificate-failed"}
    # A new target: the displayed state was built for another one.  (The
    # other statistics keep patching when the bounds certify.)
    assert declined(SetPercentageDisplayed(0.2))["displayed.select"] == \
        "params-changed"
    # A weight move re-resolves the bounds: no dirty-shard relation.  (The
    # result count needs none: the fulfilment mask is the same object.)
    assert declined(SetWeight((), 0.25)) == {
        "displayed.select": "no-relation"}


def test_node_bounds_say_why_they_rebuilt():
    """``state_declined`` on ``node.evaluate`` when a node's normalization
    bounds rebuild instead of patching.

    ``t`` steps by 10 over [0, 990]; the range [400, 600] holds 21 exact
    answers, so at weight 1 (``keep`` 50, the display target) ``d_max`` is
    a positive distance of rows above and below the range: a move of the
    upper bound shifts it and the leaf's certificate fails.
    """
    from repro import QueryEngine
    from repro.interact.events import SetWeight

    table = Table("Steps", {"t": np.arange(100) * 10.0,
                            "b": np.arange(100)[::-1] * 1.0})
    config = PipelineConfig(screen=ScreenSpec(width=32, height=32),
                            percentage=0.5, shard_count=2, max_workers=2)
    prepared = QueryEngine(table, config).prepare(Query(
        name="steps", tables=[table.name],
        condition=AndNode([between("t", 400.0, 600.0),
                           condition("b", "<", 50.0)])))

    def declined(*changes) -> dict[str, str]:
        trace = Trace("event", trace_id=1)
        with use_trace(trace):
            prepared.execute(changes=list(changes))
        return {s.attrs["node"]: s.attrs["state_declined"] for s in trace.spans
                if s.name == "node.evaluate"
                and "state_declined" in (s.attrs or {})}

    assert declined() == dict.fromkeys(["()", "(0,)", "(1,)"], "no-state")
    assert declined() == {}                  # replay: every node cached
    assert declined(SetQueryRange((0,), 400.0, 610.0))["(0,)"] == \
        "certificate-failed"
    # A child's weight enters the combination: the root's combined column
    # has no dirty-shard relation to the one its bounds were built from.
    assert declined(SetWeight((0,), 0.5))["()"] == "no-relation"


def test_displayed_certificate_verdict_is_the_patch_outcome():
    """``certified`` on ``displayed.select`` says whether the cached
    displayed set was served (reused or patched), so a refuted patch
    reaches the explain record as a failed certificate, at every display
    size."""
    from repro import QueryEngine
    from repro.interact.events import SetPercentageDisplayed

    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.0, 1000.0, 4_000))
    table = Table("Steps", {"t": t})
    config = PipelineConfig(screen=ScreenSpec(width=32, height=32),
                            percentage=0.02, shard_count=4, max_workers=2)
    prepared = QueryEngine(table, config).prepare(Query(
        name="steps", tables=[table.name], condition=between("t", 200.0, 800.0)))

    def verdict(*changes):
        trace = Trace("event", trace_id=1)
        with use_trace(trace):
            prepared.execute(changes=list(changes))
        found = [s.attrs for s in trace.spans if s.name == "displayed.select"]
        failed = [f["certificate"] for f in build_explain(trace)[
            "certificates_failed"] if f["span"] == "displayed.select"]
        assert len(found) == 1
        return found[0].get("certified"), failed

    assert verdict() == (False, ["displayed-topk"])        # cold: rebuilt
    assert verdict() == (True, [])                         # replay: reused
    assert verdict(SetQueryRange((), 200.0, 800.5)) == (True, [])  # patched
    # Collapsing the range moves the target-th smallest distance: rebuilt.
    assert verdict(SetQueryRange((), 500.0, 501.0)) == (False, ["displayed-topk"])
    # A broad display keeps the same state: a new target rebuilds it.
    assert verdict(SetPercentageDisplayed(0.9)) == (False, ["displayed-topk"])


def test_pipeline_offload_says_why_it_was_declined():
    """``offload_declined`` on ``pipeline.offload`` when no op was offered."""
    from repro import QueryEngine

    rng = np.random.default_rng(3)
    table = Table("Offload", {"t": np.sort(rng.uniform(0.0, 100.0, 400)),
                              "b": rng.normal(0.0, 1.0, 400)})
    engine = QueryEngine(table, PipelineConfig(
        screen=ScreenSpec(width=32, height=32), percentage=0.25,
        shard_count=4, max_workers=2, backend="process"))
    prepared = engine.prepare(Query(
        name="offload", tables=[table.name],
        condition=AndNode([between("t", 10.0, 90.0), condition("b", "<", 0.5)])))

    def offload(*changes) -> dict:
        trace = Trace("event", trace_id=1)
        with use_trace(trace):
            prepared.execute(changes=list(changes))
        (found,) = [s for s in trace.spans if s.name == "pipeline.offload"]
        return found.attrs

    try:
        assert offload() == {"accepted": True}      # cold open: no entry
        assert offload() == {
            "accepted": False, "offload_declined": "root-cached"}
        # A modified re-execution indexes the slider: the site's entry patches.
        assert offload(SetQueryRange((0,), 10.0, 89.0)) == {
            "accepted": False, "offload_declined": "site-has-entry"}
    finally:
        engine.close()


#: Callables whose string-literal positional arguments are span names:
#: ``obs.span`` / ``Trace.begin`` / ``Tracer.start`` and the thin wrappers
#: that forward a name to them (the coordinator's traced rounds, the
#: protocol's encode recorder).
_SPAN_CALLS = {"span", "begin", "start", "traced_round", "_round", "record"}


def test_span_table_matches_the_code():
    """docs/observability.md's span table lists what ``src/repro`` emits."""
    import ast
    import pathlib
    import re
    from fnmatch import fnmatchcase

    import repro
    from repro.backend.worker import _TIMED_OPS

    root = pathlib.Path(repro.__file__).parent
    emitted = {f"worker.{op}" for op in _TIMED_OPS}
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            if callee in _SPAN_CALLS:
                emitted.update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str))

    doc = (root.parents[1] / "docs" / "observability.md").read_text()
    table = doc.split("## Span taxonomy")[1].split("\n\n|", 1)[1]
    table = table.split("\n\n", 1)[0]
    documented = {
        name for row in table.splitlines()[2:]
        for name in re.findall(r"`([^`]+)`", row.split("|")[1])}

    undocumented = {name for name in emitted if not any(
        fnmatchcase(name, pattern) for pattern in documented)}
    unemitted = {pattern for pattern in documented if not any(
        fnmatchcase(name, pattern) for name in emitted)}
    assert not undocumented, f"spans missing from the table: {undocumented}"
    assert not unemitted, f"table rows nothing emits: {unemitted}"


# --------------------------------------------------------------------------- #
# Trace cost and the counter primitives
# --------------------------------------------------------------------------- #
def _traced_drag_cost(n: int, shards: int) -> tuple[set, float]:
    """``(spans, annotations)`` per traced warm drag, and traced bytes per span.

    The drag is the event-latency headline's: a range slider on a column
    that correlates with row order, with a fixed display budget, so the
    event changes the same few rows at every table size.
    """
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0.0, 1000.0, n))
    table = Table("Events", {"t": t, "a": t * 0.1 + rng.normal(0.0, 5.0, n),
                             "b": rng.uniform(0.0, 100.0, n)})
    engine = QueryEngine(table, PipelineConfig(
        percentage=600 / n, shard_count=shards, max_workers=2, backend="threads"))
    prepared = engine.prepare(Query(name="drag", tables=[table.name], condition=AndNode([
        between("t", 5.0, 990.0),
        OrNode([condition("a", ">", 30.0), condition("b", "<", 70.0)]),
    ])))
    prepared.execute()
    counts = set()
    tracemalloc.start()
    try:
        for k in range(3):
            trace = Trace("drag", trace_id=k)
            with use_trace(trace):
                feedback = prepared.execute(
                    changes=[SetQueryRange((0,), 5.0, 989.9 - 0.05 * k)])
            del feedback
            counts.add((len(trace.spans),
                        sum(len(s.attrs or ()) for s in trace.spans)))
            gc.collect()
            with_trace = tracemalloc.get_traced_memory()[0]
            spans = len(trace.spans)
            del trace
            gc.collect()
            bytes_per_span = (with_trace - tracemalloc.get_traced_memory()[0]) / spans
    finally:
        tracemalloc.stop()
        engine.close()
    return counts, bytes_per_span


def test_trace_cost_per_event_is_independent_of_table_size():
    """Tracing a drag records the same spans at n rows and at 16n.

    The deterministic contract behind the wall-clock trace overhead: the
    span and annotation counts of a warm drag are the same when the table
    and its shard grid grow 16x (rows per shard held, as a deployment
    shards), so no span is per shard, per chunk or per row; and each span
    keeps a bounded number of bytes alive.
    """
    small_counts, small_bytes = _traced_drag_cost(8_000, shards=2)
    large_counts, large_bytes = _traced_drag_cost(128_000, shards=32)
    assert len(small_counts) == 1, small_counts
    assert large_counts == small_counts
    assert small_bytes <= 1024 and large_bytes <= 1024, (small_bytes, large_bytes)


def test_counter_increments_are_atomic_under_threads():
    counter = Counter()
    n_threads, per_thread = 8, 5_000

    def worker():
        for _ in range(per_thread):
            counter.inc()

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == n_threads * per_thread


def test_histogram_nearest_rank_percentiles():
    hist = Histogram(window=16)
    assert hist.percentile(50.0) == 0.0  # empty window
    for v in (5.0, 1.0, 3.0, 2.0, 4.0):
        hist.observe(v)
    assert hist.p50 == 3.0
    assert hist.percentile(100.0) == 5.0
    assert hist.percentile(0.0) == 1.0
    assert hist.count == 5 and hist.total == 15.0
    with pytest.raises(ValueError):
        hist.percentile(101.0)


def test_latency_window_percentile_safe_under_concurrent_records():
    """Regression: percentile must not sort the live deque."""
    window = Histogram(window=64)
    stop = threading.Event()
    errors: list[BaseException] = []

    def recorder():
        i = 0
        while not stop.is_set():
            window.observe(float(i % 100) / 1000.0)
            i += 1

    def reader():
        try:
            for _ in range(300):
                p50 = window.percentile(50.0)
                assert 0.0 <= p50 < 0.1
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=recorder) for _ in range(3)]
    threads.append(threading.Thread(target=reader))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


# --------------------------------------------------------------------------- #
# Service-level span trees
# --------------------------------------------------------------------------- #
def _traced_service(table, backend, **cfg):
    return FeedbackService(
        table,
        PipelineConfig(shard_count=4, backend=backend, **SMALL),
        service_config=ServiceConfig(
            trace_enabled=True, trace_budget_ms=0.0, **cfg),
    )


@pytest.mark.parametrize("backend", ["threads", "process"])
def test_span_tree_cold_vs_incremental(backend):
    """Cold runs show per-node leaf work; micro-moves show the certificate.

    Under the ``process`` backend the cold run must additionally carry
    worker-side spans, timed on the worker's clock and parented under the
    broadcast round that collected them.
    """
    table = small_table()

    async def main():
        async with _traced_service(table, backend) as service:
            sid = await service.open_session(demo_query(table))
            await service.submit(sid, SetQueryRange((0,), 20.0, 70.0))
            await service.snapshot(sid)
            await service.submit(sid, SetQueryRange((0,), 20.5, 70.0))
            await service.snapshot(sid)
            return service.trace_report(include_recent=True)

    report = run(main())
    cold = next(t for t in report if t["name"] == "open")
    names = spans_by_name(cold)
    # The cold tree: execute -> evaluate -> per-node work -> frame build.
    execute = names["session.execute_batch"][0]
    assert parent_of(cold, execute)["name"] == "open"
    evaluate = names["plan.evaluate"][0]
    assert parent_of(cold, evaluate) is execute
    assert evaluate["attrs"]["shards"] == 4
    node_spans = names["node.evaluate"]
    assert {s["attrs"]["kind"] for s in node_spans} == {"leaf", "composite"}
    assert names["frame.build"][0]["parent"] == execute["id"]
    if backend == "process":
        # A cold plan of range leaves offloads whole (pipeline rounds);
        # either way the workers' own-clock spans must ride the replies.
        workers = [s for key, spans in names.items()
                   if key.startswith("worker.") for s in spans]
        assert workers, "cold offloaded run must ship worker spans back"
        for w in workers:
            assert w["tid"].startswith("worker-")
            assert w["attrs"]["clock"] == "worker"
            assert parent_of(cold, w)["name"] == "pipeline.round"

    # The micro-move tree: the full protocol path plus the certificate
    # verdict annotated where the incremental evaluator decided.
    event = report[-1]
    assert event["name"] == "event"
    names = spans_by_name(event)
    for expected in ("protocol.receive", "coalesce.wait", "scheduler.queue",
                     "session.execute_batch", "plan.evaluate", "frame.build"):
        assert expected in names, f"missing span {expected!r}"
    assert names["protocol.receive"][0]["attrs"]["event"] == "SetQueryRange"
    certified = [s for s in event["spans"]
                 if s["attrs"].get("certificate") == "bounds"]
    assert certified, "incremental run must record its bounds certificate"
    assert all("node" in s["attrs"] for s in certified)


def test_concurrent_session_traces_never_interleave():
    """Spans recorded by parallel sessions stay in their own trees."""
    table = small_table()

    async def main():
        async with _traced_service(table, "threads",
                                   max_inflight=2) as service:
            s1 = await service.open_session(demo_query(table))
            s2 = await service.open_session(demo_query(table))
            for step in range(6):
                await asyncio.gather(
                    service.submit(s1, SetQueryRange((0,), 20.0 + step, 70.0)),
                    service.submit(s2, SetQueryRange((0,), 25.0 + step, 75.0)),
                )
            await asyncio.gather(service.snapshot(s1), service.snapshot(s2))
            return s1, s2, service.trace_report(include_recent=True)

    s1, s2, report = run(main())
    seen = set()
    for trace in report:
        owner = trace["attrs"].get("session")
        assert owner in (s1, s2)
        seen.add(owner)
        # Every span that names a session agrees with the trace's owner:
        # a cross-session interleave would smuggle the other id in here.
        for s in trace["spans"]:
            if "session" in s["attrs"]:
                assert s["attrs"]["session"] == owner
        execs = [s for s in trace["spans"]
                 if s["name"] == "session.execute_batch"]
        assert len(execs) == 1
    assert seen == {s1, s2}


def test_trace_report_filters_and_limits():
    table = small_table()

    async def main():
        async with _traced_service(table, "threads") as service:
            s1 = await service.open_session(demo_query(table))
            s2 = await service.open_session(demo_query(table))
            await service.submit(s1, SetQueryRange((0,), 30.0, 70.0))
            await service.snapshot(s1)
            only_s1 = service.trace_report(session_id=s1)
            assert only_s1 and all(
                t["attrs"]["session"] == s1 for t in only_s1)
            assert service.trace_report(session_id=s2, include_recent=True)
            assert len(service.trace_report(limit=1)) == 1
            # Disabled tracing keeps the report empty and the API callable.
        async with FeedbackService(
                table, PipelineConfig(**SMALL)) as untraced:
            sid = await untraced.open_session(demo_query(table))
            await untraced.submit(sid, SetQueryRange((0,), 30.0, 70.0))
            await untraced.snapshot(sid)
            assert untraced.trace_report(include_recent=True) == []

    run(main())


# --------------------------------------------------------------------------- #
# The trace protocol op: slow-event forensics over the wire
# --------------------------------------------------------------------------- #
async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_trace_op_returns_stitched_slow_event_tree():
    """The acceptance path: a slow event's whole story via ``trace``.

    With a zero budget every event is "slow"; the op must return the
    stitched receive -> coalesce -> execute -> frame -> encode -> send
    tree plus the explain record naming certificate verdicts.
    """
    table = small_table()

    async def main():
        async with _traced_service(table, "process") as service:
            server = await serve(service)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70"})
            sid = opened["session"]
            # A large move dirties every shard: certificates fail and the
            # leaves recompute (offloaded under the process backend).
            await _request(reader, writer, {
                "op": "event", "session": sid,
                "event": {"type": "range", "path": [], "low": 60.0,
                          "high": 95.0}})
            await _request(reader, writer, {
                "op": "snapshot", "session": sid, "top": 1})
            forensics = await _request(reader, writer, {
                "op": "trace", "session": sid})
            chrome = await _request(reader, writer, {
                "op": "trace", "format": "chrome"})
            writer.close()
            return sid, forensics, chrome

    sid, forensics, chrome = run(main())
    assert forensics["ok"] and forensics["count"] >= 1
    event = next(t for t in reversed(forensics["traces"])
                 if t["name"] == "event")
    assert event["attrs"]["session"] == sid
    names = spans_by_name(event)
    for expected in ("protocol.receive", "coalesce.wait", "scheduler.queue",
                     "session.execute_batch", "frame.build", "frame.encode",
                     "wire.send"):
        assert expected in names, f"missing span {expected!r}"
    explain = event["explain"]
    assert explain is not None
    assert explain["certificates_failed"] or explain["certificates_passed"]
    for failure in explain["certificates_failed"]:
        assert failure["certificate"] and failure["span"]
    assert explain["shards_recomputed"] + explain["shards_reused"] > 0
    # The chrome form is Perfetto-loadable trace-event JSON.
    assert chrome["ok"]
    events = chrome["chrome"]["traceEvents"]
    assert any(e.get("name") == "session.execute_batch" for e in events)


def test_current_clients_poll_leaves_the_trace_for_the_delivering_pull():
    """An ``unchanged`` poll delivers no frame and must not claim its trace.

    Two connections share one session.  The first is already current on
    the new frame when it polls ``delta``; the second then really receives
    that frame, and its pull must still close the trace with the encode
    and send spans (annotated with the delta-vs-snapshot choice).
    """
    table = small_table()

    async def main():
        async with _traced_service(table, "threads") as service:
            server = await serve(service)
            limit = server.STREAM_LIMIT
            current = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=limit)
            lagging = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=limit)
            opened = await _request(*current, {
                "op": "open", "query": "a between 20 and 70", "protocol": 2})
            sid = opened["session"]
            await _request(*lagging, {"op": "subscribe", "session": sid})
            await _request(*current, {
                "op": "event", "session": sid,
                "event": {"type": "range", "path": [], "low": 25.0,
                          "high": 70.0}})
            # Settle the run without pulling, then poll as a client that
            # already holds the new frame.
            frame_id = (await service.snapshot(sid)).frame_id
            poll = await _request(*current, {
                "op": "delta", "session": sid, "base_frame_id": frame_id})
            assert poll["mode"] == "unchanged"
            update = await _request(*lagging, {"op": "delta", "session": sid})
            assert update["mode"] == "delta"
            forensics = await _request(*current, {"op": "trace", "session": sid})
            for _, writer in (current, lagging):
                writer.close()
            await server.aclose()
            return forensics

    forensics = run(main())
    event = next(t for t in reversed(forensics["traces"])
                 if t["name"] == "event")
    names = spans_by_name(event)
    assert "frame.encode" not in names, (
        "a small delta must not serialize the full frame")
    encode, = names["delta.encode"]
    assert encode["attrs"]["choice"] == "delta"
    assert encode["attrs"]["full_encoded"] is False
    send, = names["wire.send"]
    assert send["attrs"]["bytes"] == encode["attrs"]["bytes"] + 1


def test_untraced_service_protocol_unchanged():
    """With tracing off the wire surface stays byte-compatible."""
    table = small_table()

    async def main():
        async with FeedbackService(table, PipelineConfig(**SMALL)) as service:
            server = await serve(service)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70"})
            sid = opened["session"]
            verdict = await _request(reader, writer, {
                "op": "event", "session": sid,
                "event": {"type": "range", "path": [], "low": 25.0,
                          "high": 70.0}})
            assert verdict["ok"]
            snapshot = await _request(reader, writer, {
                "op": "snapshot", "session": sid, "top": 2})
            assert snapshot["ok"] and len(snapshot["top_items"]) == 2
            forensics = await _request(reader, writer, {"op": "trace"})
            assert forensics["ok"] and forensics["count"] == 0
            writer.close()

    run(main())


# --------------------------------------------------------------------------- #
# The metrics reply: one documented schema
# --------------------------------------------------------------------------- #
def _metrics_glossary() -> dict[str, set[str]]:
    """Section -> key names of docs/observability.md's metric glossary
    (``*`` marks a row covering the section's remaining keys)."""
    import pathlib
    import re

    import repro

    doc = (pathlib.Path(repro.__file__).parents[2] / "docs"
           / "observability.md").read_text()
    table = doc.split("### Metric glossary")[1].split("\n\n|", 1)[1]
    table = table.split("\n\n", 1)[0]
    glossary: dict[str, set[str]] = {}
    for row in table.splitlines()[2:]:
        cells = row.split("|")
        keys = re.findall(r"`([^`]+)`", cells[1])
        for section in re.findall(r"`([^`]+)`", cells[2]):
            glossary.setdefault(section, set()).update(keys)
    return glossary


def test_metrics_reply_matches_the_glossary():
    """The ``metrics`` reply after an open, a drag and a delta pull has
    exactly the glossary's sections; every ``service`` and session-row key
    has a row, and every key a row names is emitted."""
    table = small_table()

    async def main():
        async with FeedbackService(table, PipelineConfig(**SMALL)) as service:
            server = await serve(service)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port,
                limit=FeedbackProtocolServer.STREAM_LIMIT)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70 and b > 4.0"})
            sid = opened["session"]
            await _request(reader, writer, {"op": "subscribe", "session": sid})
            for low in (22.0, 24.0, 26.0):
                await _request(reader, writer, {
                    "op": "event", "session": sid,
                    "event": {"type": "range", "path": [0], "low": low,
                              "high": 70.0}})
            assert (await _request(reader, writer, {
                "op": "delta", "session": sid}))["ok"]
            reply = await _request(reader, writer, {"op": "metrics"})
            writer.close()
            await writer.wait_closed()
            await server.aclose()
            return sid, reply

    sid, reply = run(main())
    assert reply["ok"]
    metrics = reply["metrics"]
    glossary = _metrics_glossary()
    assert set(metrics) == set(glossary)
    emitted = {**metrics, "sessions": metrics["sessions"][sid]}
    for section, keys in glossary.items():
        unemitted = keys - {"*"} - set(emitted[section])
        assert not unemitted, f"{section} rows nothing emits: {unemitted}"
    for section in ("service", "sessions"):
        undocumented = set(emitted[section]) - glossary[section]
        assert not undocumented, f"{section} keys missing from the glossary: {undocumented}"
