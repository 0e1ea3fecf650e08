"""Differential suite for the delta-frame stream.

The binding contract of the frame stream: a client that applies
``delta`` + ``resync`` payloads reconstructs -- field for field, after a
JSON round trip -- exactly the frame state a cold full snapshot of the
same query state would produce.  Randomized query/mutation sequences (the
generators of the differential harness) are replayed across shard counts
{1, 2, 7, 32}; every step checks the replayed client state against the
naive whole-table reference.

Around that sit unit tests for the pieces: the service session's frame
numbering and the displayed-set changes its deltas carry, the incremental
``result_count``, window cell diff/patch round trips (including O(changed
cells) RGB patching), and the protocol-level version negotiation plus the
structured-error paths for malformed messages.
"""

from __future__ import annotations

import asyncio
import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import PipelineConfig, QueryEngine, ScreenSpec
from repro.core.result import FeedbackStatistics
from repro.interact.events import SetQueryRange, SetWeight
from repro.query.builder import Query, between, condition
from repro.query.expr import AndNode, OrNode
from repro.service import (
    FeedbackService,
    ServiceConfig,
    ServiceSession,
    apply_frame_update,
    delta_payload,
    frame_payload,
    frame_state,
    serve,
)
from repro.service import snapshot as snapshot_module
from repro.service.protocol import FeedbackProtocolServer
from repro.service.snapshot import (
    DisplayedOrder,
    FrameGapError,
    FrameSnapshot,
    WindowCache,
    parse_path_key,
    path_key,
    window_state,
)
from repro.storage.table import Table
from repro.vis.colormap import VisDBColormap
from repro.vis.layout import MultiWindowLayout
from repro.vis.render import patch_rgb
from repro.vis.window import VisualizationWindow

from reference import reference_frame
from test_differential import (
    random_condition,
    random_config,
    random_events,
    random_table,
)

SHARD_COUNTS = (1, 2, 7, 32)
CASES = 10
EVENTS_PER_CASE = 4


def small_layout() -> MultiWindowLayout:
    """Small windows keep the JSON payloads test-sized; the codec paths are
    identical at any geometry."""
    return MultiWindowLayout(window_width=24, window_height=24)


def canonical(payload):
    """JSON round trip: exactly what a wire client would have received."""
    return json.loads(json.dumps(payload))


def encode_update(previous, snapshot, base_frame_id):
    """What the server sends to a client acknowledged at ``base_frame_id``.

    Mirrors the protocol adapter's decision: ``unchanged`` when the client
    is current, a delta when it holds the previous frame (unless the full
    frame is smaller on the wire), a full snapshot otherwise.
    """
    if base_frame_id == snapshot.frame_id:
        return {
            "type": "frame", "mode": "unchanged",
            "frame_id": snapshot.frame_id,
            "statistics": snapshot.statistics.as_dict(),
        }
    full = frame_payload(snapshot)
    if previous is not None and base_frame_id == previous.frame_id:
        delta = delta_payload(previous, snapshot)
        if len(json.dumps(delta)) <= len(json.dumps(full)):
            return delta
    return full


def reconstructable(state: dict) -> dict:
    """The client state minus its frame id (cold references renumber)."""
    return canonical({k: v for k, v in state.items() if k != "frame_id"})


def cold_reference_state(source, prepared) -> dict:
    """Frame state a full snapshot of the naive reference frame would carry.

    The feedback comes from ``reference.reference_frame`` (no cache, no
    shards); the windows are rendered from it exactly as a session renders
    them and encoded with the wire model's own ``window_state``.
    """
    feedback = reference_frame(source, prepared)
    windows, _ = WindowCache(small_layout()).windows(feedback)
    return canonical({
        "statistics": feedback.statistics.as_dict(),
        "display_order": feedback.display_order.tolist(),
        "windows": {path_key(path): window_state(window)
                    for path, window in windows.items()},
    })


# --------------------------------------------------------------------------- #
# The differential contract: delta replay == cold snapshot
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(CASES))
def test_delta_replay_reconstructs_cold_snapshots(seed):
    rng = np.random.default_rng(411_000 + seed)
    table = random_table(rng)
    root = random_condition(rng)
    config = random_config(rng)
    events = random_events(rng, root, EVENTS_PER_CASE)
    for shards in SHARD_COUNTS:
        engine = QueryEngine(table, config.with_(shard_count=shards, max_workers=2))
        prepared = engine.prepare(Query(
            name=f"stream-{seed}", tables=[table.name],
            condition=copy.deepcopy(root),
        ))
        session = ServiceSession(f"s{shards}", prepared, layout=small_layout())
        snapshot = session.execute_batch([])
        state = apply_frame_update(None, canonical(frame_payload(snapshot)))
        assert reconstructable(state) == cold_reference_state(table, prepared), (
            f"seed={seed} shards={shards} initial frame"
        )
        for step, event in enumerate(events):
            session.execute_batch([event])
            previous, current = session.frames
            update = canonical(encode_update(previous, current, state["frame_id"]))
            state = apply_frame_update(state, update)
            assert state["frame_id"] == current.frame_id
            assert reconstructable(state) == cold_reference_state(table, prepared), (
                f"seed={seed} shards={shards} step={step} event={event!r} "
                f"mode={update['mode']}"
            )


def test_delta_replay_with_interleaved_resyncs():
    """A stream that alternates deltas and resyncs converges identically."""
    rng = np.random.default_rng(77)
    table = random_table(rng)
    root = random_condition(rng)
    config = random_config(rng)
    events = random_events(rng, root, 6)
    engine = QueryEngine(table, config.with_(shard_count=7, max_workers=2))
    prepared = engine.prepare(Query(
        name="resync", tables=[table.name], condition=copy.deepcopy(root)))
    session = ServiceSession("s", prepared, layout=small_layout())
    state = apply_frame_update(
        None, canonical(frame_payload(session.execute_batch([]))))
    for step, event in enumerate(events):
        session.execute_batch([event])
        previous, current = session.frames
        if step % 2 == 0:
            update = encode_update(previous, current, state["frame_id"])
        else:
            update = frame_payload(current)  # forced resync
        state = apply_frame_update(state, canonical(update))
        assert reconstructable(state) == cold_reference_state(table, prepared)


def test_delta_gap_raises_and_resync_recovers():
    table = small_locality_table()
    prepared = QueryEngine(
        table, PipelineConfig(percentage=0.2, shard_count=4, max_workers=2),
    ).prepare(Query(name="gap", tables=[table.name], condition=AndNode([
        between("t", 100.0, 800.0), condition("a", ">", 10.0)])))
    session = ServiceSession("s", prepared, layout=small_layout())
    state = apply_frame_update(
        None, canonical(frame_payload(session.execute_batch([]))))
    # Two frames advance while the client sleeps: the delta of the newest
    # pair no longer bases on the client's frame.
    session.execute_batch([SetQueryRange((0,), 100.0, 790.0)])
    session.execute_batch([SetQueryRange((0,), 100.0, 780.0)])
    previous, current = session.frames
    stale_delta = canonical(delta_payload(previous, current))
    with pytest.raises(FrameGapError):
        apply_frame_update(state, stale_delta)
    # An "unchanged" answer for a frame the client does not hold is a gap too.
    with pytest.raises(FrameGapError):
        apply_frame_update(state, {"mode": "unchanged", "frame_id": current.frame_id})
    # Recovery: a resync (full frame) re-bases the client exactly.
    state = apply_frame_update(state, canonical(frame_payload(current)))
    assert reconstructable(state) == cold_reference_state(table, prepared)


def test_retention_ring_keeps_full_feedback_for_the_newest_frame_only():
    """Superseded frames stay delta bases without pinning O(n) arrays."""
    _, prepared = drag_prepared()
    session = ServiceSession("s", prepared, layout=small_layout(),
                             frame_retention=3)
    seen = [session.execute_batch([])]
    for k in range(4):
        # A subscribe or resync encodes the current frame before a newer
        # run supersedes it.
        seen[-1].payload_bytes()
        seen.append(session.execute_batch(
            [SetQueryRange((0,), 50.0, 895.0 - 2.0 * k)]))
    history = session.frame_history
    assert [f.frame_id for f in history] == [f.frame_id for f in seen[-3:]]
    assert history[-1] is seen[-1]
    assert history[-1].feedback is session.feedback
    for kept, original in zip(history[:-1], seen[-3:-1]):
        assert isinstance(kept.feedback, DisplayedOrder)
        assert kept.feedback.display_order is original.feedback.display_order
        assert kept.windows is original.windows and kept.trace is None
        # A delta base never sends itself: the ring pins no encoded frame.
        assert original._encoded_payload is not None
        assert kept._encoded_payload is None
        # Still a complete delta base and resync unit: same wire payloads.
        assert delta_payload(kept, seen[-1]) == delta_payload(original, seen[-1])
        assert kept.payload_bytes() == original.payload_bytes()


def small_locality_table(n: int = 2_000, seed: int = 13) -> Table:
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1000.0, n))
    return Table("Local", {
        "t": t,
        "a": t * 0.1 + rng.normal(0.0, 4.0, n),
        "b": rng.uniform(0.0, 100.0, n),
    })


# --------------------------------------------------------------------------- #
# Frame numbering and displayed-set deltas
# --------------------------------------------------------------------------- #
def drag_prepared(shards: int = 8):
    table = small_locality_table(n=4_000)
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48),
                            percentage=0.1, shard_count=shards, max_workers=2)
    prepared = QueryEngine(table, config).prepare(Query(
        name="frames", tables=[table.name],
        condition=AndNode([
            between("t", 50.0, 900.0),
            OrNode([condition("a", ">", 20.0), condition("b", "<", 80.0)]),
        ]),
    ))
    return table, prepared


def test_frame_ids_are_monotonic_and_chained():
    _, prepared = drag_prepared()
    session = ServiceSession("s", prepared, layout=small_layout())
    frames = [session.execute_batch([])]
    for k in range(3):
        frames.append(session.execute_batch(
            [SetQueryRange((0,), 50.0, 895.0 - 2.0 * k)]))
    assert [f.frame_id for f in frames] == [1, 2, 3, 4]
    assert [f.sequence for f in frames] == [0, 1, 2, 3]
    assert frames[0].base_frame_id is None
    for older, newer in zip(frames, frames[1:]):
        assert newer.base_frame_id == older.frame_id
        assert delta_payload(older, newer)["base_frame_id"] == older.frame_id
        assert frame_payload(newer)["base_frame_id"] == older.frame_id


def test_frame_delta_entered_left_match_brute_force():
    _, prepared = drag_prepared()
    session = ServiceSession("s", prepared, layout=small_layout())
    previous = session.execute_batch([])
    changed_steps = 0
    # Narrow ranges hold fewer rows than the 400 displayed, so the
    # displayed set follows the range (a repeated range leaves it alone).
    for k, low in enumerate((400.0, 405.0, 600.0, 100.0, 100.0)):
        frame = session.execute_batch([SetQueryRange((0,), low, low + 20.0)])
        display = canonical(delta_payload(previous, frame))["display"]
        old_order = previous.feedback.display_order
        new_order = frame.feedback.display_order
        if np.array_equal(old_order, new_order):
            assert display == {"unchanged": True}, f"step {k}"
        else:
            changed_steps += 1
            old_set = set(old_order.tolist())
            new_set = set(new_order.tolist())
            assert display["order"] == new_order.tolist(), f"step {k}"
            assert display["entered"] == sorted(new_set - old_set), f"step {k}"
            assert display["left"] == sorted(old_set - new_set), f"step {k}"
        previous = frame
    assert changed_steps, "the drag must move the displayed set"


def test_no_op_execute_yields_empty_delta():
    _, prepared = drag_prepared()
    session = ServiceSession("s", prepared, layout=small_layout())
    base = session.execute_batch([])
    replay = session.execute_batch([])
    payload = delta_payload(base, replay)
    assert payload["display"] == {"unchanged": True}
    assert payload["windows"]
    assert all(entry == {"unchanged": True}
               for entry in payload["windows"].values())
    assert "removed_windows" not in payload
    assert replay.display_unchanged


# --------------------------------------------------------------------------- #
# Incremental result_count
# --------------------------------------------------------------------------- #
def test_result_count_matches_popcount_and_patches():
    table, prepared = drag_prepared(shards=8)
    stats = prepared.engine.evaluation_cache(prepared.table).stats
    prepared.execute()
    before = stats.result_count_patches
    for k in range(5):
        frame = prepared.execute(
            changes=[SetQueryRange((0,), 50.0, 896.0 - 1.0 * k)])
        assert frame.statistics.num_results == int(
            np.count_nonzero(frame.overall.exact_mask))
    assert stats.result_count_patches > before, (
        "steady micro-moves must serve result_count from per-shard popcounts"
    )


def test_result_count_one_shard_patches_too():
    """One shard is the same evaluator: the count equals the popcount and,
    once the drag has a site entry to patch from, goes through the same
    per-shard recount (of the one shard) as any other shard count."""
    table, prepared = drag_prepared(shards=1)
    stats = prepared.engine.evaluation_cache(prepared.table).stats
    for k in range(3):
        frame = prepared.execute(
            changes=[SetQueryRange((0,), 50.0, 896.0 - 1.0 * k)])
        assert frame.statistics.num_results == int(
            np.count_nonzero(frame.overall.exact_mask))
    assert stats.result_count_patches > 0


# --------------------------------------------------------------------------- #
# Window cell diff / patch primitives
# --------------------------------------------------------------------------- #
def random_window(rng, title="w", shape=(9, 11)) -> VisualizationWindow:
    distances = rng.uniform(0.0, 255.0, shape)
    item_ids = rng.integers(-1, 40, shape)
    distances[item_ids < 0] = np.nan
    return VisualizationWindow(title, distances, item_ids)


def test_window_diff_and_patch_round_trip():
    rng = np.random.default_rng(5)
    base = random_window(rng)
    new = random_window(rng)
    diff = new.diff_cells(base)
    assert diff is not None and len(diff) > 0
    patched = base.with_cells(
        diff, new.distances.reshape(-1)[diff], new.item_ids.reshape(-1)[diff])
    np.testing.assert_array_equal(patched.item_ids, new.item_ids)
    np.testing.assert_array_equal(
        np.isnan(patched.distances), np.isnan(new.distances))
    finite = ~np.isnan(new.distances)
    np.testing.assert_array_equal(patched.distances[finite], new.distances[finite])


def test_window_diff_identity_and_geometry():
    rng = np.random.default_rng(6)
    window = random_window(rng)
    assert len(window.diff_cells(window)) == 0
    clone = VisualizationWindow(
        window.title, window.distances.copy(), window.item_ids.copy())
    assert len(window.diff_cells(clone)) == 0
    other = random_window(rng, shape=(5, 5))
    assert window.diff_cells(other) is None
    assert window.diff_cells(None) is None


def test_patch_rgb_matches_full_render():
    rng = np.random.default_rng(7)
    colormap = VisDBColormap()
    base = random_window(rng)
    new = random_window(rng)
    rgb = base.to_rgb(colormap)
    diff = new.diff_cells(base)
    patched = patch_rgb(rgb, new, diff, colormap)
    np.testing.assert_array_equal(patched, new.to_rgb(colormap))
    # Empty patch is a no-op on an up-to-date buffer.
    np.testing.assert_array_equal(
        patch_rgb(patched.copy(), new, np.empty(0, dtype=np.intp), colormap),
        new.to_rgb(colormap))


def test_path_key_round_trip():
    for path in [(), (0,), (1, 2), (10, 0, 3)]:
        assert parse_path_key(path_key(path)) == path


# --------------------------------------------------------------------------- #
# Protocol: version negotiation and structured errors
# --------------------------------------------------------------------------- #
async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def _service_table(seed: int = 0, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    return Table("Demo", {
        "a": rng.uniform(0.0, 100.0, n),
        "b": rng.uniform(0.0, 10.0, n),
    })


def _small_service(table, frame_retention: int = 4) -> FeedbackService:
    return FeedbackService(
        table,
        PipelineConfig(screen=ScreenSpec(width=64, height=64), percentage=0.4),
        service_config=ServiceConfig(
            max_inflight=2, frame_retention=frame_retention),
        layout=small_layout(),
    )


async def _connect(server):
    return await asyncio.open_connection(
        "127.0.0.1", server.port, limit=FeedbackProtocolServer.STREAM_LIMIT)


def test_protocol_negotiation_v1_and_v2_round_trips():
    table = _service_table()

    async def main():
        async with _small_service(table) as service:
            server = await serve(service)
            reader, writer = await _connect(server)
            # No version asked for: the one protocol, 2, is granted.
            default = await _request(reader, writer,
                                     {"op": "open", "query": "a between 20 and 70"})
            assert default["ok"] and default["protocol"] == 2
            assert default["frame_id"] == 1
            # Asking for 2 explicitly: the granted version is echoed.
            explicit = await _request(reader, writer, {
                "op": "open", "query": "a between 10 and 60", "protocol": 2,
            })
            assert explicit["ok"] and explicit["protocol"] == 2
            sid = explicit["session"]
            # Any other version is a structured error, not a hangup.
            for version in (1, 3):
                refused = await _request(reader, writer, {
                    "op": "open", "query": "a between 10 and 60",
                    "protocol": version,
                })
                assert refused["ok"] is False
                assert refused["code"] == "bad-request"

            sub = await _request(reader, writer, {"op": "subscribe", "session": sid})
            assert sub["ok"] and sub["mode"] == "snapshot"
            state = apply_frame_update(None, sub)
            # Current client pulling again: the tiny "unchanged" answer.
            unchanged = await _request(reader, writer, {"op": "delta", "session": sid})
            assert unchanged["mode"] == "unchanged"
            state = apply_frame_update(state, unchanged)
            # One slider move -> one delta; applying it must reproduce the
            # resync state bit for bit.
            for low in (22.0, 24.0):
                await _request(reader, writer, {
                    "op": "event", "session": sid,
                    "event": {"type": "range", "path": [], "low": low, "high": 60.0},
                })
                update = await _request(reader, writer, {"op": "delta", "session": sid})
                assert update["ok"] and update["mode"] in ("delta", "snapshot")
                state = apply_frame_update(state, update)
                resync = await _request(reader, writer, {"op": "resync", "session": sid})
                assert resync["mode"] == "snapshot"
                assert reconstructable(state) == reconstructable(frame_state(resync))
                assert state["frame_id"] == resync["frame_id"]
                state = apply_frame_update(state, resync)
            metrics = await _request(reader, writer, {"op": "metrics"})
            wire = metrics["metrics"]["wire"]
            assert wire["deltas_sent"] >= 1 and wire["snapshots_sent"] >= 3
            assert wire["bytes_saved"] > 0
            writer.close()
            await server.aclose()

    asyncio.run(main())


def test_protocol_malformed_messages_get_structured_errors():
    table = _service_table()

    async def main():
        async with _small_service(table) as service:
            server = await serve(service)
            reader, writer = await _connect(server)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70", "protocol": 2,
            })
            sid = opened["session"]

            # Non-JSON line: parse-error, connection stays up.
            writer.write(b"definitely{not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"] is False and response["code"] == "parse-error"

            cases = [
                ({"op": "warp"}, "unknown-op"),
                ({"op": "delta", "session": sid, "base_frame_id": "x"},
                 "bad-frame-id"),
                ({"op": "delta", "session": sid, "base_frame_id": -2},
                 "bad-frame-id"),
                ({"op": "delta", "session": sid, "base_frame_id": True},
                 "bad-frame-id"),
                ({"op": "delta", "session": "s404"}, "unknown-session"),
                ({"op": "subscribe", "session": 7}, "bad-request"),
                ({"op": "snapshot", "session": "s404"}, "unknown-session"),
                ({"op": "event", "session": sid,
                  "event": {"type": "range", "path": []}}, "bad-request"),
                ({"op": "event", "session": sid,
                  "event": {"type": "sideways", "path": []}}, "bad-request"),
                ({"op": "open"}, "bad-request"),
            ]
            for request, code in cases:
                response = await _request(reader, writer, request)
                assert response["ok"] is False, request
                assert response["code"] == code, (request, response)
                assert response["error"]
                # The stream survives every error.
                assert (await _request(reader, writer, {"op": "ping"}))["pong"]

            errors = (await _request(reader, writer, {"op": "metrics"}))[
                "metrics"]["wire"]["errors_sent"]
            assert errors == len(cases) + 1
            writer.close()
            await server.aclose()

    asyncio.run(main())


@pytest.mark.parametrize("event", [
    pytest.param({"type": "weight", "path": ["1"], "weight": 0.5}, id="path-of-strings"),
    pytest.param({"type": "weight", "path": [True], "weight": 0.5}, id="path-of-bools"),
    pytest.param({"type": "range", "path": [-1], "low": 1.0, "high": 2.0},
                 id="negative-path-index"),
    pytest.param({"type": "threshold", "path": 1, "value": 5.0}, id="path-not-a-list"),
    pytest.param({"type": "weight", "path": [1], "weight": "nan"}, id="non-finite-weight"),
    pytest.param({"type": "range", "path": [0], "low": float("-inf"), "high": 50.0},
                 id="non-finite-range"),
    pytest.param({"type": "threshold", "path": [1], "value": "inf"},
                 id="non-finite-threshold"),
    pytest.param({"type": "weight", "path": [1], "weight": 1.5}, id="weight-above-one"),
    pytest.param({"type": "weight", "path": [1], "weight": -0.5}, id="weight-below-zero"),
    pytest.param({"type": "percentage", "value": 5}, id="percentage-above-one"),
    pytest.param({"type": "percentage", "value": 0}, id="percentage-zero"),
])
def test_protocol_refuses_a_malformed_event_without_poisoning_the_session(event):
    """A malformed event is a ``bad-request``; it is never queued, so the
    session's next frame is served as if it had not been sent."""
    table = _service_table()

    async def main():
        async with _small_service(table) as service:
            server = await serve(service)
            reader, writer = await _connect(server)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70 and b > 4.0"})
            sid = opened["session"]
            refused = await _request(reader, writer, {
                "op": "event", "session": sid, "event": event})
            assert refused["ok"] is False and refused["code"] == "bad-request", refused
            snapshot = await _request(reader, writer, {"op": "snapshot", "session": sid})
            assert snapshot["ok"], snapshot
            assert snapshot["frame_id"] == opened["frame_id"]
            writer.close()
            await server.aclose()

    asyncio.run(main())


def test_protocol_poisoned_session_reports_internal_not_bad_request():
    """A pipeline failure surfaced by a well-formed pull is code 'internal'."""
    table = _service_table()

    async def main():
        async with _small_service(table) as service:
            server = await serve(service)
            reader, writer = await _connect(server)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70", "protocol": 2,
            })
            sid = opened["session"]
            # The event parses fine but its path addresses no node, so the
            # run fails server-side and poisons the session's next pull.
            await _request(reader, writer, {
                "op": "event", "session": sid,
                "event": {"type": "range", "path": [9], "low": 1.0, "high": 2.0},
            })
            response = await _request(reader, writer, {"op": "delta", "session": sid})
            assert response["ok"] is False and response["code"] == "internal", response
            # The connection (and other sessions) survive the failure.
            assert (await _request(reader, writer, {"op": "ping"}))["pong"]
            writer.close()
            await server.aclose()

    asyncio.run(main())


def test_settled_snapshot_maps_closed_wait_to_unknown_session():
    """A session closed/expired mid-wait is gone, not an admission refusal."""
    from repro.service import SessionLimitError, UnknownSessionError
    table = _service_table()

    async def main():
        async with _small_service(table) as service:
            server = FeedbackProtocolServer(service)

            async def closed_while_waiting(session_id, wait=True):
                raise SessionLimitError(
                    f"session {session_id!r} was closed while awaiting its snapshot")

            service.snapshot = closed_while_waiting
            with pytest.raises(UnknownSessionError):
                await server._settled_snapshot("s1", True)
            assert server._error_frame(
                UnknownSessionError("unknown session 's1'"))["code"] == "unknown-session"

    asyncio.run(main())


def test_protocol_delta_after_gap_resyncs_with_full_frame():
    """A base that fell out of the retention ring gets a full snapshot."""
    table = _service_table()

    async def main():
        # Only the current frame is retained: any lag is a gap.
        async with _small_service(table, frame_retention=1) as service:
            server = await serve(service)
            reader, writer = await _connect(server)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70", "protocol": 2,
            })
            sid = opened["session"]
            sub = await _request(reader, writer, {"op": "subscribe", "session": sid})
            state = apply_frame_update(None, sub)
            stale_id = state["frame_id"]
            await _request(reader, writer, {
                "op": "event", "session": sid,
                "event": {"type": "range", "path": [], "low": 25.0, "high": 70.0},
            })
            update = await _request(reader, writer, {
                "op": "delta", "session": sid, "base_frame_id": stale_id,
            })
            assert update["mode"] == "snapshot", "a gap must resync, never guess"
            state = apply_frame_update(state, update)
            resync = await _request(reader, writer, {"op": "resync", "session": sid})
            assert reconstructable(state) == reconstructable(frame_state(resync))
            writer.close()
            await server.aclose()

    asyncio.run(main())


def test_protocol_lagging_client_catches_up_within_retention_ring():
    """A client several frames behind (but retained) still gets a delta."""
    table = _service_table()

    async def main():
        async with _small_service(table) as service:
            server = await serve(service)
            reader, writer = await _connect(server)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70", "protocol": 2,
            })
            sid = opened["session"]
            sub = await _request(reader, writer, {"op": "subscribe", "session": sid})
            state = apply_frame_update(None, sub)
            # Three settled frames pass without the client pulling; the
            # default retention (4) still holds its base.
            for low in (22.0, 24.0, 26.0):
                await _request(reader, writer, {
                    "op": "event", "session": sid,
                    "event": {"type": "range", "path": [], "low": low, "high": 70.0},
                })
                await _request(reader, writer,
                               {"op": "snapshot", "session": sid, "top": 0})
            update = await _request(reader, writer, {"op": "delta", "session": sid})
            assert update["mode"] == "delta", (
                "a lag inside the retention ring must be served a delta"
            )
            state = apply_frame_update(state, update)
            resync = await _request(reader, writer, {"op": "resync", "session": sid})
            assert reconstructable(state) == reconstructable(frame_state(resync))
            writer.close()
            await server.aclose()

    asyncio.run(main())


# --------------------------------------------------------------------------- #
# Delta-first encoding: the size floor and the delta-vs-snapshot choice
# --------------------------------------------------------------------------- #
#: Distances that tie in blocks or stress float formatting: the exact and
#: saturated ends, negative zero, integral values, tiny and huge floats.
SPECIAL_DISTANCES = (0.0, 255.0, -0.0, 17.0, 5e-324, 1e-300, 1e16, 1.5e300)


def item_id_grids(shape):
    # -1 marks an empty cell; single-digit ids are the 1-byte worst case.
    return arrays(np.intp, shape, elements=st.one_of(
        st.just(-1), st.integers(0, 9), st.integers(0, 10 ** 7)))


@st.composite
def wire_windows(draw) -> list[VisualizationWindow]:
    """Up to four windows that encode as short as JSON allows, down to a
    single cell.  Windows of one shape may share one item-id grid (the same
    array or an equal copy), as the windows of a real frame do; distances
    range from all-distinct to a few tied values, so the encoder's
    distinct-count choice is drawn on both sides."""
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    shared = draw(item_id_grids(draw(shapes)))
    windows = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.one_of(st.just(shared.shape), shapes))
        tied = draw(st.lists(
            st.one_of(st.sampled_from(SPECIAL_DISTANCES), st.just(float("nan")),
                      st.floats(allow_nan=False)),
            min_size=1, max_size=3))
        distances = draw(st.one_of(
            # Nothing displayed: every cell is NaN on the server, ``null``
            # on the wire.
            st.just(np.full(shape, np.nan)),
            arrays(float, shape, elements=st.one_of(
                st.just(float("nan")), st.floats(min_value=0.0, max_value=255.0))),
            arrays(float, shape, elements=st.sampled_from(tied)),
            # Equal values, distinct bits: each zero keeps its own token.
            arrays(float, shape, elements=st.sampled_from(
                (0.0, -0.0, float("nan")))),
        ))
        own = item_id_grids(shape)
        if shape == shared.shape:
            own = st.one_of(st.just(shared), st.just(shared.copy()), own)
        windows.append(VisualizationWindow("", distances, draw(own)))
    return windows


@settings(max_examples=150, deadline=None)
@given(
    windows=wire_windows(),
    display_order=st.one_of(st.just([]),
                            st.lists(st.integers(0, 10 ** 7), max_size=30)),
)
def test_payload_size_floor_never_exceeds_encoded_size(windows, display_order):
    snapshot = FrameSnapshot(
        session_id="", sequence=0, events_applied=0,
        statistics=FeedbackStatistics(0, 0, 0.0, 0),
        feedback=DisplayedOrder(np.array(display_order, dtype=np.intp)),
        # Path () is the overall window, (k,) the top-level predicate ones.
        windows={(() if k == 0 else (k - 1,)): window
                 for k, window in enumerate(windows)},
        rendered_fresh=(), run_seconds=0.0,
    )
    encoded = snapshot.payload_bytes()
    # The array encoder writes exactly what ``json`` writes for the
    # reference dict form.
    assert encoded == json.dumps({"ok": True, **frame_payload(snapshot)}).encode()
    payload = json.loads(encoded)
    # The floor argues from the cell and order lists alone -- checking it
    # against just those keeps the frame's fixed fields from hiding a
    # too-optimistic bound; the rest of the payload only adds bytes.
    lists = [payload["display_order"]] + [
        window[key] for window in payload["windows"].values()
        for key in ("distances", "item_ids")]
    assert (snapshot.payload_size_floor()
            <= sum(len(json.dumps(values)) for values in lists)
            <= len(encoded))


def _lists_in(value):
    """Every list inside one ``json.dumps`` argument, nested ones included."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _lists_in(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            if isinstance(item, (list, dict)):
                yield from _lists_in(item)


@pytest.mark.parametrize("side", [64, 256])
def test_full_frame_encode_work_is_one_grid_and_one_token_per_distance(
        monkeypatch, side):
    """Counted encoder work: the frame's shared item-id grid reaches
    ``json`` once, and a distance grid with two distinct bit patterns hands
    ``json`` at most two floats, whatever the window size."""
    rng = np.random.default_rng(side)
    item_ids = rng.integers(-1, 10 ** 6, (side, side))
    windows = {
        # Every window places the displayed items at the same pixels: the
        # same grid object, or an equal one.
        path: VisualizationWindow(
            f"w{k}", np.where(rng.random((side, side)) < 0.5, 0.0, np.nan),
            item_ids if k < 2 else item_ids.copy())
        for k, path in enumerate([(), (0,), (1,)])
    }
    snapshot = FrameSnapshot(
        session_id="s", sequence=0, events_applied=0,
        statistics=FeedbackStatistics(0, 0, 0.0, 0),
        feedback=DisplayedOrder(np.arange(side, dtype=np.intp)),
        windows=windows, rendered_fresh=(), run_seconds=0.0,
    )
    calls = []

    def dumps(value, *args, **kwargs):
        calls.append(value)
        return json.dumps(value, *args, **kwargs)

    monkeypatch.setattr(snapshot_module, "json", SimpleNamespace(dumps=dumps))
    encoded = snapshot.payload_bytes()
    assert encoded == json.dumps({"ok": True, **frame_payload(snapshot)}).encode()
    grid = item_ids.reshape(-1).tolist()
    assert sum(lst == grid for value in calls for lst in _lists_in(value)) == 1
    floats = [isinstance(value, float)
              + sum(isinstance(x, float) for lst in _lists_in(value) for x in lst)
              for value in calls]
    assert max(floats) <= 2


def test_protocol_delta_pull_skips_the_full_frame_encode(monkeypatch):
    """Only replies that send (or must size) the full frame serialize it."""
    table = _service_table()
    full_encodes = []
    real_payload_bytes = FrameSnapshot.payload_bytes

    def spy(snapshot):
        full_encodes.append(snapshot.frame_id)
        return real_payload_bytes(snapshot)

    monkeypatch.setattr(FrameSnapshot, "payload_bytes", spy)

    async def main():
        # A ring of two: one un-pulled frame is still a delta, two are a gap.
        async with _small_service(table, frame_retention=2) as service:
            server = await serve(service)
            reader, writer = await _connect(server)

            async def encodes_during(payload: dict) -> tuple[dict, int]:
                before = len(full_encodes)
                reply = await _request(reader, writer, payload)
                return reply, len(full_encodes) - before

            async def move(low: float) -> None:
                await _request(reader, writer, {
                    "op": "event", "session": sid,
                    "event": {"type": "range", "path": [], "low": low,
                              "high": 70.0},
                })
                await _request(reader, writer,
                               {"op": "snapshot", "session": sid, "top": 0})

            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70", "protocol": 2,
            })
            sid = opened["session"]
            assert full_encodes == [], "summary replies never build the frame"

            sub, count = await encodes_during({"op": "subscribe", "session": sid})
            assert sub["mode"] == "snapshot" and count == 1
            state = apply_frame_update(None, sub)

            # The streaming pull: retained base, small delta -> no full
            # encode at all, and the saving is credited from the floor.
            await move(22.0)
            update, count = await encodes_during({"op": "delta", "session": sid})
            assert update["mode"] == "delta" and count == 0
            state = apply_frame_update(state, update)
            wire = (await _request(reader, writer, {"op": "metrics"}))[
                "metrics"]["wire"]
            assert wire["deltas_sent"] == 1
            current = service.registry.get(sid).retained_frame(state["frame_id"])
            assert wire["bytes_saved"] == (
                current.payload_size_floor() - wire["delta_bytes"])
            assert 0 < wire["bytes_saved"] <= (
                len(real_payload_bytes(current)) - wire["delta_bytes"])

            unchanged, count = await encodes_during(
                {"op": "delta", "session": sid})
            assert unchanged["mode"] == "unchanged" and count == 0

            resync, count = await encodes_during({"op": "resync", "session": sid})
            assert resync["mode"] == "snapshot" and count == 1
            assert reconstructable(state) == reconstructable(frame_state(resync))

            # Two frames pass un-pulled: the acked base fell out of the ring.
            await move(24.0)
            await move(26.0)
            gap, count = await encodes_during({"op": "delta", "session": sid})
            assert gap["mode"] == "snapshot" and count == 1
            writer.close()
            await server.aclose()

    asyncio.run(main())


@pytest.mark.parametrize("event, winner", [
    # Most cells rewritten: the delta outgrows even the real frame.
    ({"type": "percentage", "value": 0.9}, "snapshot"),
    # Past the floor but still under the real frame: the delta wins, and
    # only the exact comparison can tell.
    ({"type": "range", "path": [], "low": 60.0, "high": 95.0}, "delta"),
])
def test_protocol_degenerate_drag_sends_the_shorter_encoding(event, winner):
    table = _service_table()

    async def main():
        async with _small_service(table) as service:
            server = await serve(service)
            reader, writer = await _connect(server)
            opened = await _request(reader, writer, {
                "op": "open", "query": "a between 20 and 70", "protocol": 2,
            })
            sid = opened["session"]
            sub = await _request(reader, writer, {"op": "subscribe", "session": sid})
            state = apply_frame_update(None, sub)
            await _request(reader, writer,
                           {"op": "event", "session": sid, "event": event})
            writer.write(json.dumps({"op": "delta", "session": sid}).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            update = json.loads(line)

            session = service.registry.get(sid)
            base = session.retained_frame(sub["frame_id"])
            current = session.retained_frame(update["frame_id"])
            delta_size = len(json.dumps(
                {"ok": True, **delta_payload(base, current)}).encode())
            full_size = len(current.payload_bytes())
            assert delta_size > current.payload_size_floor(), (
                "the case must be past the floor to exercise the fall-through"
            )
            assert update["mode"] == winner
            assert winner == ("delta" if delta_size <= full_size else "snapshot")
            assert len(line) - 1 == min(delta_size, full_size)

            state = apply_frame_update(state, update)
            resync = await _request(reader, writer, {"op": "resync", "session": sid})
            assert reconstructable(state) == reconstructable(frame_state(resync))
            assert state["frame_id"] == resync["frame_id"]
            wire = (await _request(reader, writer, {"op": "metrics"}))[
                "metrics"]["wire"]
            if winner == "delta":
                assert wire["bytes_saved"] == full_size - delta_size
            else:
                assert wire["bytes_saved"] == 0 and wire["deltas_sent"] == 0
            writer.close()
            await server.aclose()

    asyncio.run(main())
