"""Tests of the multi-session feedback service.

The binding contract: feedback served through the concurrent service is
**bit-identical** to a serial replay of the session's coalesced event
stream on a fresh engine -- the multi-session stress test enforces it by
replaying each session's executed batches (reusing the comparators of the
differential harness).  Around that sit unit tests for the latest-wins
coalescing semantics, scheduler fairness, backpressure shedding, admission
control, engine lifecycle and the JSON-lines protocol.
"""

from __future__ import annotations

import asyncio
import copy
import json

import numpy as np
import pytest

from repro import PipelineConfig, QueryEngine, ReductionMethod, ScreenSpec
from repro.core.plan import CacheStats
from repro.interact.events import (
    ClearSelection,
    SelectColorRange,
    SelectTuple,
    SetPercentageDisplayed,
    SetQueryRange,
    SetThreshold,
    SetWeight,
)
from repro.datasets import environmental_database
from repro.query.builder import Query, QueryBuilder, between, condition
from repro.query.expr import AndNode
from repro.service import (
    CoalescingQueue,
    FeedbackService,
    ServiceConfig,
    ServiceSession,
    SessionLimitError,
    WindowCache,
    serve,
)
from repro.storage.cache import PrefetchCache
from repro.storage.table import Table
from repro.vis.layout import MultiWindowLayout

from reference import reference_frame
from test_differential import (
    assert_feedback_identical,
    random_condition,
    random_events,
    random_table,
)


def small_table(seed: int = 0, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    return Table("Demo", {
        "a": rng.uniform(0.0, 100.0, n),
        "b": rng.uniform(0.0, 10.0, n),
        "c": rng.normal(50.0, 15.0, n),
    })


def demo_condition():
    return AndNode([between("a", 20.0, 70.0), condition("b", ">", 4.0)])


def demo_query(table: Table, name: str = "demo") -> Query:
    return Query(name=name, tables=[table.name], condition=demo_condition())


SMALL_SCREEN = dict(screen=ScreenSpec(width=64, height=64))


# --------------------------------------------------------------------------- #
# Coalescing keys and queue semantics
# --------------------------------------------------------------------------- #
def test_coalesce_keys_identify_controls():
    assert SetQueryRange((0, 1), 1.0, 2.0).coalesce_key() == ("predicate", (0, 1))
    assert SetQueryRange((0, 1), 5.0, 6.0).coalesce_key() == ("predicate", (0, 1))
    assert SetQueryRange((2,), 1.0, 2.0).coalesce_key() != SetQueryRange((0,), 1.0, 2.0).coalesce_key()
    # Threshold and range moves on one leaf both replace its predicate, so
    # they share the slot: the later of either kind wins outright (a later
    # range move must not replay after -- and be clobbered by -- an older
    # threshold event that the full stream ordered before it).
    assert SetThreshold((0, 1), 3.0).coalesce_key() == SetQueryRange((0, 1), 1.0, 2.0).coalesce_key()
    assert SetWeight((1,), 0.5).coalesce_key() == ("weight", (1,))
    assert SetPercentageDisplayed(0.5).coalesce_key() == SetPercentageDisplayed(0.9).coalesce_key()
    # Selection events share one slot: the latest selection wins outright.
    assert SelectTuple(3).coalesce_key() == ClearSelection().coalesce_key()
    assert SelectColorRange((0,), 0.0, 1.0).coalesce_key() == SelectTuple(0).coalesce_key()


def test_queue_latest_wins_and_drain_order():
    queue = CoalescingQueue()
    assert queue.put(SetQueryRange((0,), 1.0, 2.0)) == "queued"
    assert queue.put(SetWeight((1,), 0.3)) == "queued"
    for low in (2.0, 3.0, 4.0):
        assert queue.put(SetQueryRange((0,), low, low + 1.0)) == "coalesced"
    assert queue.depth == 2
    assert queue.received == 5
    assert queue.coalesced == 3
    batch = queue.drain()
    # First-arrival order of controls, each holding its newest value.
    assert batch == [SetQueryRange((0,), 4.0, 5.0), SetWeight((1,), 0.3)]
    assert queue.depth == 0 and not queue


def test_queue_sheds_oldest_coalesced_first():
    queue = CoalescingQueue(max_depth=2)
    queue.put(SetQueryRange((0,), 1.0, 2.0))
    queue.put(SetWeight((1,), 0.3))
    queue.put(SetWeight((1,), 0.4))           # (1,) is now the coalesced entry
    assert queue.put(SetPercentageDisplayed(0.5)) == "shed"
    assert queue.shed == 1
    # The rapid-fire weight control was shed, not the untouched range slider.
    kinds = [type(event).__name__ for event in queue.peek()]
    assert kinds == ["SetQueryRange", "SetPercentageDisplayed"]


def test_queue_sheds_oldest_when_nothing_coalesced():
    queue = CoalescingQueue(max_depth=2)
    queue.put(SetQueryRange((0,), 1.0, 2.0))
    queue.put(SetWeight((1,), 0.3))
    assert queue.put(SetPercentageDisplayed(0.5)) == "shed"
    kinds = [type(event).__name__ for event in queue.peek()]
    assert kinds == ["SetWeight", "SetPercentageDisplayed"]


# --------------------------------------------------------------------------- #
# Window render cache
# --------------------------------------------------------------------------- #
def test_window_cache_reuses_unchanged_windows():
    table = small_table()
    prepared = QueryEngine(table, **SMALL_SCREEN).prepare(demo_query(table))
    cache = WindowCache(MultiWindowLayout(window_width=32, window_height=32))
    feedback = prepared.execute()
    windows, fresh = cache.windows(feedback)
    assert set(fresh) == set(windows)          # everything rendered once
    again, fresh2 = cache.windows(prepared.execute())
    assert fresh2 == ()                        # unchanged result: all hits
    for path in windows:
        assert again[path] is windows[path]
    prepared.apply_change(SetQueryRange((0,), 10.0, 50.0))
    _, fresh3 = cache.windows(prepared.execute())
    assert fresh3                              # the move re-rendered windows
    assert cache.hits and cache.misses


# --------------------------------------------------------------------------- #
# Engine lifecycle and configuration validation (satellite)
# --------------------------------------------------------------------------- #
def test_engine_close_is_idempotent_and_blocks_prepare():
    table = small_table()
    engine = QueryEngine(table)
    engine.prepare(demo_query(table)).execute()
    engine.close()
    engine.close()
    assert engine.closed
    with pytest.raises(RuntimeError, match="closed"):
        engine.prepare(demo_query(table))


def test_engine_context_manager_closes():
    table = small_table()
    with QueryEngine(table) as engine:
        engine.prepare(demo_query(table)).execute()
    assert engine.closed


def test_malformed_repro_shards_raises(monkeypatch):
    from repro.core.engine import default_shard_count

    monkeypatch.setenv("REPRO_SHARDS", "banana")
    with pytest.raises(ValueError, match="REPRO_SHARDS"):
        default_shard_count()
    monkeypatch.setenv("REPRO_SHARDS", "0")
    with pytest.raises(ValueError, match="REPRO_SHARDS"):
        default_shard_count()
    monkeypatch.setenv("REPRO_SHARDS", "")
    assert default_shard_count() == 1


@pytest.mark.parametrize("field", ["shard_count", "max_workers"])
@pytest.mark.parametrize("bad", ["4", 2.5, 0, -1, True])
def test_malformed_worker_config_raises(field, bad):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -5.0])
def test_target_max_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="target_max"):
        PipelineConfig(target_max=bad)


def test_engine_stats_aggregates_cache_counters():
    table = small_table()
    engine = QueryEngine(table, **SMALL_SCREEN)
    prepared = engine.prepare(demo_query(table))
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 25.0, 60.0)])
    stats = engine.stats()
    assert stats["node_hits"] > 0
    assert stats["leaf_misses"] > 0
    assert set(stats) == set(CacheStats().as_dict()) | {"backend"}


def test_prefetch_cache_stats_counts_evictions():
    table = small_table()
    cache = PrefetchCache(table, max_regions=1, margin=0.0)
    cache.query({"a": (10.0, 20.0)})
    cache.query({"a": (80.0, 90.0)})           # evicts the first region
    cache.query({"a": (82.0, 88.0)})           # hit inside the second
    stats = cache.stats()
    assert stats == {"hits": 1, "misses": 2, "evictions": 1, "regions": 1}


# --------------------------------------------------------------------------- #
# Service behaviour
# --------------------------------------------------------------------------- #
def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def executed_batches(monkeypatch):
    """Session id -> the batches its ``execute_batch`` completed, in order.

    A serial replay of their concatenation is the session's reference
    semantics; a batch that raised was rolled back and is not kept.
    """
    log: dict[str, list[list]] = {}
    real = ServiceSession.execute_batch

    def recording(session, batch, *args, **kwargs):
        snapshot = real(session, batch, *args, **kwargs)
        log.setdefault(session.id, []).append(list(batch))
        return snapshot

    monkeypatch.setattr(ServiceSession, "execute_batch", recording)
    return log


def test_drag_burst_coalesces_to_few_runs(executed_batches):
    """A 200-event drag resolves in a handful of pipeline executions."""
    table = small_table()

    async def main():
        async with FeedbackService(
            table, PipelineConfig(**SMALL_SCREEN),
        ) as service:
            sid = await service.open_session(demo_query(table))
            for step in range(200):
                await service.submit(
                    sid, SetQueryRange((0,), 20.0 - step * 0.05, 70.0))
            snapshot = await service.snapshot(sid)
            session = service.registry.get(sid)
            assert session.metrics.events_received == 200
            # Acceptance bound: >= 100 queued events in <= 10 pipeline runs.
            assert session.metrics.runs <= 10
            assert session.metrics.events_coalesced >= 190
            # The settled frame reflects the *latest* slider position.
            replay = QueryEngine(table, **SMALL_SCREEN).prepare(demo_query(table))
            for batch in executed_batches[sid]:
                replayed = replay.execute(changes=batch)
            assert_feedback_identical(replayed, snapshot.feedback, "drag-burst")

    run(main())


def test_concurrent_sessions_bit_identical_to_serial_replay(executed_batches):
    """The multi-session stress lock: concurrent service output == serial replay.

    N sessions over one shared table issue randomized interleaved event
    streams; each session's settled feedback must equal a serial replay of
    its coalesced batches on a fresh engine (same comparator as the
    differential harness).  Runs sharded when REPRO_SHARDS is set, like the
    rest of the suite.
    """
    rng = np.random.default_rng(424_242)
    table = random_table(rng)
    sessions = 6
    events_per_session = 12
    roots = [random_condition(rng) for _ in range(sessions)]
    # Two sessions share a condition shape to stress shared engine caches.
    roots[-1] = copy.deepcopy(roots[0])
    streams = [
        random_events(rng, root, events_per_session) for root in roots
    ]

    async def main():
        config = PipelineConfig(screen=ScreenSpec(width=48, height=48))
        async with FeedbackService(
            table, config,
            service_config=ServiceConfig(max_inflight=3, max_queue_depth=64),
        ) as service:
            ids = []
            for index, root in enumerate(roots):
                query = Query(name=f"stress-{index}", tables=[table.name],
                              condition=copy.deepcopy(root))
                ids.append(await service.open_session(query))
            # Interleave submissions round-robin, yielding to the scheduler
            # so runs genuinely overlap with arrivals.
            for step in range(events_per_session):
                for sid, stream in zip(ids, streams):
                    await service.submit(sid, stream[step])
                await asyncio.sleep(0)
            snapshots = {sid: await service.snapshot(sid) for sid in ids}
            logs = {sid: executed_batches[sid] for sid in ids}
            runs = {sid: service.registry.get(sid).metrics.runs for sid in ids}
        return snapshots, logs, runs

    snapshots, logs, runs = run(main())
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48))
    for index, (sid, snapshot) in enumerate(snapshots.items()):
        replay = QueryEngine(table, config).prepare(
            Query(name=f"stress-{index}", tables=[table.name],
                  condition=copy.deepcopy(roots[index])))
        replayed = replay.execute()
        for batch in logs[sid]:
            replayed = replay.execute(changes=batch)
        assert_feedback_identical(
            replayed, snapshot.feedback, f"session={sid} runs={runs[sid]}")
        # Every event either executed or coalesced away -- none lost.
        executed = sum(len(batch) for batch in logs[sid])
        assert executed <= events_per_session
        assert runs[sid] <= events_per_session + 1


def test_scheduler_round_robin_is_fair():
    """With one executor slot, pending sessions are served in rotation order."""
    table = small_table()
    order: list[str] = []

    async def main():
        async with FeedbackService(
            table, PipelineConfig(**SMALL_SCREEN),
            service_config=ServiceConfig(max_inflight=1),
        ) as service:
            ids = [await service.open_session(demo_query(table, f"q{i}"))
                   for i in range(3)]
            for sid in ids:
                session = service.registry.get(sid)
                original = session.execute_batch

                def recorded(batch, _original=original, _sid=sid):
                    order.append(_sid)
                    return _original(batch)

                session.execute_batch = recorded
            # Hold the scheduler back while all three sessions queue events,
            # then release: dispatch must follow the rotation, not the
            # (reversed) submission order.
            service._inflight = service.config.max_inflight
            for sid in reversed(ids):
                await service.submit(sid, SetQueryRange((0,), 25.0, 65.0))
            service._inflight = 0
            service._wake.set()
            for sid in ids:
                await service.snapshot(sid)
        return ids

    ids = run(main())
    assert order == ids


def test_backpressure_sheds_and_reports(executed_batches):
    table = small_table()

    async def main():
        async with FeedbackService(
            table, PipelineConfig(**SMALL_SCREEN),
            service_config=ServiceConfig(max_queue_depth=2),
        ) as service:
            sid = await service.open_session(demo_query(table))
            service._inflight = service.config.max_inflight  # hold scheduler
            assert (await service.submit(
                sid, SetQueryRange((0,), 10.0, 60.0)))["status"] == "queued"
            assert (await service.submit(
                sid, SetQueryRange((0,), 11.0, 60.0)))["status"] == "coalesced"
            assert (await service.submit(
                sid, SetWeight((1,), 0.5)))["status"] == "queued"
            verdict = await service.submit(sid, SetPercentageDisplayed(0.5))
            assert verdict["status"] == "shed"
            assert verdict["queue_depth"] == 2
            session = service.registry.get(sid)
            assert session.metrics.events_shed == 1
            service._inflight = 0
            service._wake.set()
            snapshot = await service.snapshot(sid)
            # The shed dropped the (coalesced) range entry; the executed
            # stream is exactly what the logs say it is.
            replay = QueryEngine(table, **SMALL_SCREEN).prepare(demo_query(table))
            for batch in executed_batches[sid]:
                replayed = replay.execute(changes=batch)
            assert_feedback_identical(replayed, snapshot.feedback, "backpressure")

    run(main())


def test_admission_control_rejects_past_session_cap():
    table = small_table()

    async def main():
        async with FeedbackService(
            table, PipelineConfig(**SMALL_SCREEN),
            service_config=ServiceConfig(max_sessions=1),
        ) as service:
            await service.open_session(demo_query(table))
            with pytest.raises(SessionLimitError, match="session limit"):
                await service.open_session(demo_query(table))
            assert service.metrics.sessions_rejected == 1

    run(main())


def test_admission_control_holds_under_concurrent_opens():
    """Opens racing through their awaited prepares cannot exceed the cap."""
    table = small_table()

    async def main():
        async with FeedbackService(
            table, PipelineConfig(**SMALL_SCREEN),
            service_config=ServiceConfig(max_sessions=2),
        ) as service:
            results = await asyncio.gather(
                *[service.open_session(demo_query(table, f"q{i}")) for i in range(5)],
                return_exceptions=True,
            )
            opened = [r for r in results if isinstance(r, str)]
            rejected = [r for r in results if isinstance(r, SessionLimitError)]
            assert len(opened) == 2 and len(rejected) == 3
            assert len(service.registry) == 2
            assert service.metrics.sessions_rejected == 3

    run(main())


def test_service_config_validation():
    with pytest.raises(ValueError, match="sweep_interval"):
        ServiceConfig(sweep_interval=0)
    with pytest.raises(ValueError, match="max_inflight"):
        ServiceConfig(max_inflight=0)
    with pytest.raises(ValueError, match="idle_ttl"):
        ServiceConfig(idle_ttl=0.0)


def test_idle_sessions_expire():
    table = small_table()

    async def main():
        async with FeedbackService(
            table, PipelineConfig(**SMALL_SCREEN),
            service_config=ServiceConfig(idle_ttl=0.01, sweep_interval=0.02),
        ) as service:
            sid = await service.open_session(demo_query(table))
            for _ in range(100):
                await asyncio.sleep(0.02)
                if sid not in service.registry:
                    break
            assert sid not in service.registry
            assert service.metrics.sessions_expired == 1

    run(main())


def test_abandoned_session_expires_despite_steady_traffic():
    """The expiry sweep runs on schedule even while other sessions are busy."""
    table = small_table()

    async def main():
        async with FeedbackService(
            table, PipelineConfig(**SMALL_SCREEN),
            service_config=ServiceConfig(idle_ttl=0.05, sweep_interval=0.05),
        ) as service:
            busy = await service.open_session(demo_query(table, "busy"))
            abandoned = await service.open_session(demo_query(table, "gone"))
            for step in range(40):
                # Constant traffic keeps the scheduler's wake event firing.
                await service.submit(busy, SetQueryRange((0,), 20.0 + step, 70.0))
                await asyncio.sleep(0.01)
                if abandoned not in service.registry:
                    break
            assert abandoned not in service.registry
            assert busy in service.registry

    run(main())


def test_service_admits_a_join_query_without_a_condition():
    """The connection alone is the visualized condition: the service opens
    whatever the engine prepares, so its session must not ask for more."""
    db = environmental_database(hours=40, stations=1, seed=3)
    query = (QueryBuilder("join-only", db).use_tables("Weather", "Air-Pollution")
             .use_connection("Air-Pollution at-same-time-as Weather").build())
    assert query.condition is None

    async def main():
        async with FeedbackService(db, PipelineConfig(
                percentage=0.2, max_join_pairs=5_000, **SMALL_SCREEN)) as service:
            sid = await service.open_session(query)
            snapshot = await service.snapshot(sid)
            assert snapshot.frame_id == 1
            assert snapshot.statistics.num_objects > 0

    run(main())


def test_unsupported_events_are_rejected():
    table = small_table()

    async def main():
        async with FeedbackService(table, PipelineConfig(**SMALL_SCREEN)) as service:
            sid = await service.open_session(demo_query(table))
            with pytest.raises(TypeError, match="SelectTuple"):
                await service.submit(sid, SelectTuple(0))

    run(main())


def test_failed_batch_poisons_only_its_session():
    table = small_table()

    async def main():
        async with FeedbackService(table, PipelineConfig(**SMALL_SCREEN)) as service:
            bad = await service.open_session(demo_query(table, "bad"))
            good = await service.open_session(demo_query(table, "good"))
            # One batch mixing a valid weight change with a type error
            # (SetThreshold on a range leaf): held back so both events land
            # in the same run, which must roll back *wholesale*.
            service._inflight = service.config.max_inflight
            await service.submit(bad, SetWeight((1,), 0.5))
            await service.submit(bad, SetThreshold((0,), 5.0))
            service._inflight = 0
            service._wake.set()
            await service.submit(good, SetQueryRange((0,), 25.0, 65.0))
            snapshot = await service.snapshot(good)
            assert snapshot.sequence == 1
            with pytest.raises(TypeError):
                await service.snapshot(bad)
            # Rollback: the valid half of the failed batch did not linger.
            session = service.registry.get(bad)
            assert session.prepared.query.condition.find((1,)).weight == 1.0
            # The poisoned session recovers on its next valid event.
            await service.submit(bad, SetQueryRange((0,), 30.0, 60.0))
            recovered = await service.snapshot(bad)
            assert recovered.sequence >= 1

    run(main())


def test_failed_frame_build_rolls_back_and_numbers_no_frame(
        monkeypatch, executed_batches):
    """A batch whose frame build fails is undone like one the engine fails.

    The live state must stay the serial replay of the recorded batches, and
    the next frame must follow the last one with no gap in the ids.
    """
    table = small_table()
    config = PipelineConfig(**SMALL_SCREEN)
    session = ServiceSession(
        "s", QueryEngine(table, config).prepare(demo_query(table)))
    first = session.execute_batch([])
    real_windows = WindowCache.windows
    failures = []

    def fail_once(cache, feedback):
        if not failures:
            failures.append(feedback)
            raise RuntimeError("frame build failed")
        return real_windows(cache, feedback)

    monkeypatch.setattr(WindowCache, "windows", fail_once)
    with pytest.raises(RuntimeError, match="frame build failed"):
        session.execute_batch([SetThreshold((1,), 8.0)])
    assert failures, "the frame build must have run and failed"
    following = session.execute_batch([SetQueryRange((0,), 25.0, 65.0)])

    replay = QueryEngine(table, config).prepare(demo_query(table))
    for batch in executed_batches["s"]:
        for event in batch:
            replay.apply_change(event)
    assert_feedback_identical(
        reference_frame(table, replay), following.feedback, "after failed build")
    assert following.frame_id == first.frame_id + 1
    assert following.base_frame_id == first.frame_id
    assert following.sequence == first.sequence + 1


def test_warm_batch_deep_copies_nothing(monkeypatch):
    """Rollback is a revert of recorded changes, not a backup copy.

    A warm one-event batch deep-copies nothing: the session layer reverts
    recorded changes and the engine compiles its plan from the live tree.
    """
    table = small_table()
    session = ServiceSession("s", QueryEngine(
        table, PipelineConfig(**SMALL_SCREEN)).prepare(demo_query(table)))
    session.execute_batch([])
    session.execute_batch([SetQueryRange((0,), 25.0, 65.0)])
    real_deepcopy = copy.deepcopy
    depth, calls = [0], []

    def counting_deepcopy(obj, memo=None):
        # Count top-level calls only: deepcopy recurses through the
        # module attribute this test replaces.
        if not depth[0]:
            calls.append(type(obj).__name__)
        depth[0] += 1
        try:
            return real_deepcopy(obj, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
    session.execute_batch([SetQueryRange((0,), 26.0, 65.0)])
    assert calls == [], calls


def test_snapshot_waiter_errors_when_session_closes_underneath():
    table = small_table()

    async def main():
        async with FeedbackService(table, PipelineConfig(**SMALL_SCREEN)) as service:
            sid = await service.open_session(demo_query(table))
            service._inflight = service.config.max_inflight  # hold scheduler
            await service.submit(sid, SetQueryRange((0,), 25.0, 65.0))
            waiter = asyncio.ensure_future(service.snapshot(sid))
            await asyncio.sleep(0)
            await service.close_session(sid)
            with pytest.raises(SessionLimitError, match="closed while awaiting"):
                await waiter
            service._inflight = 0

    run(main())


def test_service_metrics_report_shape():
    table = small_table()

    async def main():
        async with FeedbackService(table, PipelineConfig(**SMALL_SCREEN)) as service:
            sid = await service.open_session(demo_query(table))
            await service.submit(sid, SetQueryRange((0,), 25.0, 65.0))
            await service.snapshot(sid)
            report = service.metrics_report()
            assert report["service"]["sessions_opened"] == 1
            assert report["sessions"][sid]["events_received"] == 1
            assert report["engine"]["leaf_misses"] > 0
            assert report["service"]["run_p95_ms"] >= 0.0

    run(main())


def test_service_owns_engine_lifecycle():
    table = small_table()

    async def main():
        service = FeedbackService(table, PipelineConfig(**SMALL_SCREEN))
        async with service:
            await service.open_session(demo_query(table))
        assert service.engine.closed
        # A shared engine passed in is NOT closed by the service.
        engine = QueryEngine(table, PipelineConfig(**SMALL_SCREEN))
        async with FeedbackService(engine) as shared:
            await shared.open_session(demo_query(table))
        assert not engine.closed
        engine.close()

    run(main())


# --------------------------------------------------------------------------- #
# JSON-lines protocol
# --------------------------------------------------------------------------- #
async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_protocol_open_cannot_size_the_servers_thread_pools():
    """``shard_count`` / ``max_workers`` are the operator's config: an
    ``open`` that asks for others gets the service's."""
    table = small_table()

    async def main():
        config = PipelineConfig(shard_count=2, max_workers=1, **SMALL_SCREEN)
        async with FeedbackService(table, config) as service:
            server = await serve(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70",
                "config": {"shard_count": 3, "max_workers": 3, "percentage": 0.5},
            })
            assert opened["ok"], opened
            session_config = service.registry.get(opened["session"]).prepared.config
            assert (session_config.shard_count, session_config.max_workers) == (2, 1)
            assert session_config.percentage == 0.5
            writer.close()
            await writer.wait_closed()
            await server.aclose()

    run(main())


def _assert_open_refused(config: PipelineConfig, overrides: dict) -> None:
    """A protocol ``open`` with ``overrides`` is a ``bad-request`` and
    admits no session."""
    table = small_table()

    async def main():
        async with FeedbackService(table, config) as service:
            server = await serve(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            refused = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70",
                "config": overrides,
            })
            assert refused["ok"] is False and refused["code"] == "bad-request", refused
            assert len(service.registry) == 0
            assert service.metrics.sessions_opened == 0
            writer.close()
            await writer.wait_closed()
            await server.aclose()

    run(main())


@pytest.mark.parametrize("target_max", [float("nan"), 0, -1])
def test_protocol_open_refuses_a_bad_target_max(target_max):
    """``json.loads`` accepts ``NaN``; a target range that is not finite
    and positive is a ``bad-request`` and opens no session."""
    _assert_open_refused(PipelineConfig(**SMALL_SCREEN),
                         {"target_max": target_max})


@pytest.mark.parametrize("z", [2.5, True, float("nan")])
def test_protocol_open_refuses_a_bad_multipeak_z(z):
    """``multipeak_z`` is admitted by ``open``; a value the multi-peak cut
    cannot take is refused there, not answered ``internal`` by the first
    execute (or, for ``true``, run as z = 1)."""
    _assert_open_refused(PipelineConfig(reduction=ReductionMethod.MULTIPEAK,
                                        **SMALL_SCREEN), {"multipeak_z": z})


def test_protocol_roundtrip_and_errors():
    table = small_table()

    async def main():
        async with FeedbackService(table, PipelineConfig(**SMALL_SCREEN)) as service:
            server = await serve(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            assert (await _request(reader, writer, {"op": "ping"}))["pong"] is True

            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70",
                "config": {"percentage": 0.5},
            })
            assert opened["ok"] and opened["statistics"]["# objects"] == len(table)
            sid = opened["session"]

            for low in (20.0, 22.0, 24.0):
                verdict = await _request(reader, writer, {
                    "op": "event", "session": sid,
                    "event": {"type": "range", "path": [], "low": low, "high": 70.0},
                })
                assert verdict["ok"]
            snapshot = await _request(reader, writer, {
                "op": "snapshot", "session": sid, "top": 3, "render": True,
            })
            assert snapshot["ok"] and snapshot["sequence"] >= 1
            assert len(snapshot["top_items"]) == 3
            assert all("png" in window for window in snapshot["windows"])

            metrics = await _request(reader, writer, {"op": "metrics"})
            assert metrics["metrics"]["service"]["events_received"] == 3

            assert (await _request(reader, writer, {"op": "close", "session": sid}))["ok"]

            for bad in (
                {"op": "nope"},
                {"op": "snapshot", "session": "missing"},
                {"op": "event", "session": sid,
                 "event": {"type": "range", "path": []}},
            ):
                response = await _request(reader, writer, bad)
                assert response["ok"] is False and response["error"]

            writer.close()
            await server.aclose()

    run(main())
