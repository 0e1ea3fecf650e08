"""ExecBackend subsystem tests.

Covers the provider registry, backend selection/validation through
``PipelineConfig(backend=...)`` and ``REPRO_BACKEND``, the ``process``
backend's local fleet (offload, fault injection, respawn, shutdown, one
connection per worker, no listener), and an OR of range leaves under
drags.

The crash tests deliberately kill workers of the *shared* local fleet;
a killed worker is respawned lazily by the next op, so later tests (and
the differential suite) see live workers.
"""

import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest

import repro.backend
from repro import (
    PipelineConfig,
    Query,
    QueryEngine,
    available_backends,
    between,
    condition,
    register_backend,
    unregister_backend,
)
from repro.backend import ExecBackend, create_backend
from repro.backend.threads import ThreadsBackend
from repro.core.engine import default_backend_name
from repro.query import AndNode, OrNode, PredicateLeaf
from repro.query.predicates import StringMatchPredicate
from repro.storage.table import Table

from census import (
    descendants,
    listening_ports,
    module_census,
    unix_socket_paths,
)
from reference import reference_frame


@pytest.fixture(scope="module", autouse=True)
def _census():
    """Nothing this module starts may outlive it (``tests/census.py``)."""
    yield from module_census()


# --------------------------------------------------------------------------- #
# Fixtures and helpers
# --------------------------------------------------------------------------- #
def make_table(n: int = 4_000, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table("T", {
        "a": rng.normal(0.0, 10.0, n),
        "b": rng.normal(5.0, 3.0, n),
        "s": np.array([f"row{i % 5}" for i in range(n)], dtype=object),
    })


def make_condition(string_predicate=None, target="row3"):
    """AND of a range band and an OR with a non-range (string) arm.

    A first execution has no site entries, so an offloading backend runs
    the whole plan -- range leaves and the string leaf -- on its workers.
    """
    leaf = PredicateLeaf(string_predicate
                         or StringMatchPredicate("s", target))
    return AndNode([
        between("a", -5.0, 15.0),
        OrNode([between("b", 2.0, 6.0), leaf]),
    ])


def build_prepared(backend, shards, *, table=None, cond=None, max_workers=2):
    table = table if table is not None else make_table()
    config = PipelineConfig(shard_count=shards, max_workers=max_workers,
                            backend=backend, percentage=0.4)
    engine = QueryEngine(table, config)
    query = Query(name="backend-test", tables=[table.name],
                  condition=cond if cond is not None else make_condition())
    return engine, table, engine.prepare(query)


def cold_open(engine, table, target):
    """A fresh prepared query with new constants: its first execute has no
    site entry and no cached column, so it consults the backend (a warm
    event on an existing query patches in-process and never does)."""
    prepared = engine.prepare(Query(
        name=f"backend-test-{target}", tables=[table.name],
        condition=make_condition(target=target)))
    return prepared, prepared.execute()


#: From-scratch reference of a prepared query's current state: the naive
#: whole-table computation (no cache, shards or backend), shared by every
#: suite through ``reference.reference_frame``.
cold_frame = reference_frame


def assert_frames_identical(reference, frame, context=""):
    assert np.array_equal(reference.display_order, frame.display_order), context
    for key in reference.node_feedback:
        ref = reference.node_feedback[key].normalized_distances
        got = frame.node_feedback[key].normalized_distances
        assert np.array_equal(ref, got, equal_nan=True), (context, key)


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_builtin_backends_registered():
    names = available_backends()
    assert {"threads", "process", "remote"} <= set(names)


def test_available_backends_sorted():
    """The listing is sorted, so error messages and docs are deterministic."""
    names = available_backends()
    assert names == tuple(sorted(names))


def test_unknown_backend_messages_exact():
    """All three validation sites name the registered backends, sorted."""
    known = ", ".join(available_backends())
    with pytest.raises(ValueError) as err:
        create_backend("nope")
    assert str(err.value) == (
        f"unknown execution backend 'nope'; registered backends: {known}")
    with pytest.raises(ValueError) as err:
        PipelineConfig(backend="nope")
    assert str(err.value) == (
        f"unknown execution backend 'nope'; registered backends: {known}")
    before = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = "nope"
    try:
        with pytest.raises(ValueError) as err:
            default_backend_name()
        assert str(err.value) == (
            f"REPRO_BACKEND names an unknown execution backend 'nope'; "
            f"registered backends: {known}")
    finally:
        if before is None:
            del os.environ["REPRO_BACKEND"]
        else:
            os.environ["REPRO_BACKEND"] = before


def test_register_duplicate_raises_unless_replace():
    register_backend("tb-dup", ThreadsBackend)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_backend("tb-dup", ThreadsBackend)
        sentinel = []

        def factory(max_workers=None):
            sentinel.append(max_workers)
            return ThreadsBackend(max_workers=max_workers)

        register_backend("tb-dup", factory, replace=True)
        backend = create_backend("tb-dup", max_workers=3)
        assert isinstance(backend, ThreadsBackend)
        assert sentinel == [3]
    finally:
        unregister_backend("tb-dup")
    assert "tb-dup" not in available_backends()
    with pytest.raises(ValueError, match="not registered"):
        unregister_backend("tb-dup")


def test_register_rejects_bad_names_and_factories():
    with pytest.raises(ValueError):
        register_backend("", ThreadsBackend)
    with pytest.raises(ValueError):
        register_backend("tb-bad", "not-a-factory")


def test_create_backend_unknown_lists_registered():
    with pytest.raises(ValueError) as excinfo:
        create_backend("no-such-backend")
    message = str(excinfo.value)
    assert "no-such-backend" in message
    assert "threads" in message and "process" in message


def test_create_backend_rejects_non_backend_factory():
    register_backend("tb-broken", lambda max_workers=None: object())
    try:
        with pytest.raises(TypeError, match="ExecBackend"):
            create_backend("tb-broken")
    finally:
        unregister_backend("tb-broken")


def test_third_party_backend_participates_end_to_end():
    """A registered custom backend is selectable via config and consulted."""
    calls = {"prepare": 0, "shard_pipeline": 0}

    class RecordingBackend(ExecBackend):
        name = "tb-recording"

        def __init__(self, max_workers=None):
            self.max_workers = max_workers

        def prepare(self, sharded):
            calls["prepare"] += 1

        def shard_pipeline(self, sharded, spec):
            calls["shard_pipeline"] += 1
            return None  # decline: evaluator must run in-process

    register_backend("tb-recording", RecordingBackend)
    try:
        engine, table, prepared = build_prepared("tb-recording", 4)
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "custom backend declining every op")
        assert calls["prepare"] >= 1
        assert calls["shard_pipeline"] == 1
        assert engine.stats()["backend"]["name"] == "tb-recording"
        engine.close()
    finally:
        unregister_backend("tb-recording")


def test_backend_instances_are_per_engine():
    e1 = QueryEngine(make_table(), PipelineConfig(backend="process",
                                                  shard_count=2, max_workers=2))
    e2 = QueryEngine(make_table(seed=1), PipelineConfig(backend="process",
                                                        shard_count=2,
                                                        max_workers=2))
    try:
        b1 = e1.execution_backend("process")
        b2 = e2.execution_backend("process")
        assert b1 is not b2
        assert e1.execution_backend("process") is b1  # cached per engine
    finally:
        e1.close()
        e2.close()


# --------------------------------------------------------------------------- #
# Selection and validation (REPRO_BACKEND / PipelineConfig.backend)
# --------------------------------------------------------------------------- #
def test_default_backend_name_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend_name() == "threads"
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert default_backend_name() == "threads"
    monkeypatch.setenv("REPRO_BACKEND", "process")
    assert default_backend_name() == "process"


def test_default_backend_name_unknown_env_raises(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ValueError) as excinfo:
        default_backend_name()
    message = str(excinfo.value)
    assert "bogus" in message and "threads" in message


def test_pipeline_config_backend_validation():
    assert PipelineConfig(backend=None).backend is None
    assert PipelineConfig(backend="threads").backend == "threads"
    assert PipelineConfig(backend="process").backend == "process"
    with pytest.raises(ValueError) as excinfo:
        PipelineConfig(backend="no-such-backend")
    assert "threads" in str(excinfo.value)
    with pytest.raises(ValueError):
        PipelineConfig(backend=3)


def test_engine_stats_report_backend_name(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    engine = QueryEngine(make_table(), PipelineConfig(shard_count=2))
    try:
        assert engine.stats()["backend"]["name"] == "threads"
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Process backend: offload and bit-identity
# --------------------------------------------------------------------------- #
def test_process_backend_offloads_and_matches_cold():
    engine, table, prepared = build_prepared("process", 4)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame, "initial")
        stats = engine.stats()["backend"]
        assert stats["name"] == "process"
        assert stats["offloaded_ops"] >= 1
        assert stats["published_tables"] >= 1
        assert stats["published_bytes"] > 0
        assert stats["worker_count"] == 2
        assert stats["workers_alive"] == 2
        # Per-event traffic excludes columns: orders of magnitude below the
        # published column bytes even after several events.
        assert stats["traffic_bytes"] < stats["published_bytes"]

        prepared.condition.children[1].children[0].predicate.high = 5.0
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame, "event")
    finally:
        engine.close()


def test_process_backend_service_metrics_surface():
    engine, table, prepared = build_prepared("process", 4)
    try:
        prepared.execute()
        backend = engine.stats()["backend"]
        for key in ("offloaded_ops", "fallbacks", "worker_restarts",
                    "traffic_bytes", "worker_count", "workers_alive",
                    "published_tables", "published_bytes", "name"):
            assert key in backend
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------------- #
def test_killed_worker_falls_back_bit_identical_and_respawns():
    engine, table, prepared = build_prepared("process", 4)
    try:
        prepared.execute()
        backend = engine.execution_backend("process")
        before = backend.stats()
        assert before["offloaded_ops"] >= 1
        pids = backend.worker_pids()
        assert len(pids) == 2

        os.kill(pids[0], signal.SIGKILL)
        assert wait_until(lambda: backend.stats()["workers_alive"] < 2), \
            "killed worker still reported alive"

        # A cold open must consult the backend again: the dead pool is
        # detected, the open completes on the in-process cold path, and a
        # fresh pool serves the rest.
        second, frame = cold_open(engine, table, "row2")
        assert_frames_identical(cold_frame(table, second), frame,
                                "open against a killed worker")

        after = backend.stats()
        assert after["fallbacks"] == before["fallbacks"] + 1
        assert after["worker_restarts"] == before["worker_restarts"] + 1

        # The pool was respawned lazily: fresh pids, everything alive, and
        # subsequent opens offload again.
        third, frame = cold_open(engine, table, "row4")
        assert_frames_identical(cold_frame(table, third), frame,
                                "open after respawn")
        respawned = backend.stats()
        assert respawned["workers_alive"] == 2
        assert respawned["offloaded_ops"] > after["offloaded_ops"]
        new_pids = backend.worker_pids()
        assert new_pids and pids[0] not in new_pids
    finally:
        engine.close()


class _UnpicklablePredicate(StringMatchPredicate):
    """Crosses deepcopy fine but refuses to cross a pipe."""

    def __deepcopy__(self, memo):
        return _UnpicklablePredicate(self.attribute, self.target)

    def __reduce_ex__(self, protocol):
        raise pickle.PicklingError("deliberately unpicklable predicate")


def test_unpicklable_predicate_falls_back_without_restart():
    cond = make_condition(string_predicate=_UnpicklablePredicate("s", "row3"))
    engine, table, prepared = build_prepared("process", 4, cond=cond)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "unpicklable leaf")
        stats = engine.stats()["backend"]
        assert stats["fallbacks"] >= 1
        # A coordinator-side pickle failure is the op's fault, not the
        # pool's: no restart, workers stay up.
        assert stats["worker_restarts"] == 0
        assert stats["workers_alive"] == stats["worker_count"] > 0
    finally:
        engine.close()


def test_shutdown_all_drains_pool_and_respawns_on_demand():
    engine, table, prepared = build_prepared("process", 4)
    try:
        prepared.execute()
        backend = engine.execution_backend("process")
        assert backend.stats()["workers_alive"] > 0

        repro.backend.shutdown_all()
        assert backend.worker_pids() == []
        drained = backend.stats()
        assert drained["workers_alive"] == 0
        assert drained["published_tables"] == 0

        # The shutdown hook must not wedge the engine: the next cold open
        # republished the table and respawned the pool on demand.
        reopened, frame = cold_open(engine, table, "row1")
        assert_frames_identical(cold_frame(table, reopened), frame,
                                "open after shutdown_all")
        assert backend.stats()["workers_alive"] > 0
    finally:
        engine.close()


def test_process_backend_spawns_nothing_before_first_offload():
    repro.backend.shutdown_all()  # engines other suites left open keep theirs
    before = set(descendants(os.getpid()))
    engine, table, prepared = build_prepared("process", 4)
    try:
        backend = engine.execution_backend("process")
        assert backend.worker_pids() == []
        assert set(descendants(os.getpid())) == before
        assert backend.stats()["worker_count"] == 0

        prepared.execute()
        assert len(backend.worker_pids()) == 2
        assert set(backend.worker_pids()) <= set(descendants(os.getpid()))
    finally:
        engine.close()


def test_process_backend_never_listens():
    """Local workers ride socketpairs: no TCP listener, no socket file."""
    ports, paths = listening_ports(), unix_socket_paths()

    def assert_no_listener(context):
        assert listening_ports() <= ports, context
        assert unix_socket_paths() <= paths, context

    engine, table, prepared = build_prepared("process", 4)
    try:
        prepared.execute()
        backend = engine.execution_backend("process")
        assert backend.stats()["offloaded_ops"] == 1
        assert_no_listener("first offload")

        os.kill(backend.worker_pids()[0], signal.SIGKILL)
        cold_open(engine, table, "row2")  # faults, falls back
        cold_open(engine, table, "row4")  # respawns
        assert backend.stats()["worker_restarts"] == 1
        assert backend.stats()["workers_alive"] == 2
        assert_no_listener("after a kill and a respawn")
    finally:
        engine.close()
    repro.backend.shutdown_all()
    assert_no_listener("after shutdown_all")
    assert not any(_is_worker(pid) for pid in descendants(os.getpid()))


def _is_worker(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" not in fh.read()
    except OSError:
        return False


def test_concurrent_cold_opens_take_turns_on_each_worker():
    """Two engines, two threads, one connection per worker: no third server.

    A local worker has exactly one connection; an op that finds it in use
    waits for it, exactly as it once waited on a pool lock.
    """
    engines = [build_prepared("process", 4, table=make_table(seed=seed))
               for seed in (21, 22)]
    try:
        for _engine, _table, prepared in engines:
            prepared.execute()
        backends = [engine.execution_backend("process")
                    for engine, _, _ in engines]
        pids = backends[0].worker_pids()
        assert len(pids) == 2 and backends[1].worker_pids() == pids
        workers = {pid for pid in descendants(os.getpid()) if _is_worker(pid)}
        errors = []

        def drive(engine, table, turn):
            try:
                for i in range(10):
                    prepared, frame = cold_open(engine, table,
                                                f"row{turn}-{i}")
                    assert_frames_identical(reference_frame(table, prepared),
                                            frame, f"thread {turn} open {i}")
                    assert backends[turn].worker_pids() == pids
            except BaseException as exc:  # reported on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(engine, table, turn))
                   for turn, (engine, table, _) in enumerate(engines)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the two ops' rounds often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for backend in backends:
            stats = backend.stats()
            assert stats["pipeline_ops"] == 11
            assert stats["pipeline_fallbacks"] == 0
        assert {pid for pid in descendants(os.getpid())
                if _is_worker(pid)} == workers
    finally:
        for engine, _, _ in engines:
            engine.close()


# --------------------------------------------------------------------------- #
# OR of range leaves
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", [1, 4])
def test_or_of_range_leaves_matches_cold_frame(shards):
    """An OR of range leaves whose arm is narrowed, then widened far past
    where it started: every frame equals a cold run, at one shard and at
    several."""
    table = make_table()
    config = PipelineConfig(shard_count=shards, max_workers=2, percentage=0.3)
    engine = QueryEngine(table, config)
    try:
        prepared = engine.prepare(Query(name="union", tables=[table.name],
                                        condition=OrNode([between("a", -5.0, 5.0),
                                                          between("b", 2.0, 8.0)])))
        assert_frames_identical(cold_frame(table, prepared),
                                prepared.execute(), "union initial")
        arm = prepared.condition.children[0].predicate
        for high, context in ((4.0, "union narrowed"), (40.0, "union widened")):
            arm.high = high
            assert_frames_identical(cold_frame(table, prepared),
                                    prepared.execute(), context)
    finally:
        engine.close()
