"""Differential property-test harness for sharded plan execution.

Randomized (seeded, shrinkable) query trees over random tables are executed
three ways and must agree **bit for bit**:

* the naive whole-table reference
  (:func:`~repro.core.plan.reference_feedback` through
  ``reference.reference_frame``: no cache, no shards, no incremental state
  -- the reference semantics, recomputed from scratch per state);
* sharded execution for shard counts {1, 2, 7, 32} -- one evaluator, so
  the one-shard leg can fail on an evaluator bug like any other;
* incremental re-execution: the sharded engines are prepared once and
  driven through a random mutation sequence of slider / weight /
  percentage events, so every step after the first also exercises the
  delta paths (site slice entries, per-shard indexes, node caches).

With ``CASES x EVENTS_PER_CASE`` = 200 randomized query/mutation states
(each checked across four shard counts) this is the lock that lets the
sharding layer -- and any future backend behind
:class:`~repro.core.engine.QueryEngine` -- be refactored freely.

The random cases and the adversarial dirty-tracking cases additionally run
once per **registered execution backend** (``threads``, ``process``, plus
anything third parties register): the ExecBackend contract is that a
backend only changes where the per-shard kernels run, so every backend
must reproduce the reference bits exactly -- including the
incremental/dirty-tracking steps and the all-hit replay.

On failure the harness shrinks the mutation sequence to the shortest
failing prefix and reports the case seed, so a repro is one
``_check_case(seed, max_events=k)`` call away.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import PipelineConfig, QueryEngine, ScreenSpec
from repro.backend import available_backends
from repro.core.plan import reference_feedback
from repro.core.reduction import ReductionMethod
from repro.datasets import environmental_database
from repro.interact import VisDBSession
from repro.interact.events import (
    SetPercentageDisplayed,
    SetQueryRange,
    SetThreshold,
    SetWeight,
)
from repro.query.builder import Query, QueryBuilder, between, condition
from repro.query.expr import AndNode, NotNode, OrNode, PredicateLeaf
from repro.query.predicates import AttributePredicate, ComparisonOperator, RangePredicate
from repro.storage.table import Table

from reference import reference_frame

SHARD_COUNTS = (1, 2, 7, 32)
CASES = 40
EVENTS_PER_CASE = 5
BACKENDS = available_backends()


# --------------------------------------------------------------------------- #
# Random case generation
# --------------------------------------------------------------------------- #
def random_table(rng: np.random.Generator) -> Table:
    n = int(rng.integers(20, 400))
    columns: dict[str, np.ndarray] = {}
    for name in ("a", "b", "c", "d"):
        kind = rng.integers(0, 3)
        if kind == 0:
            values = rng.uniform(0.0, 100.0, n)
        elif kind == 1:
            values = rng.normal(50.0, 20.0, n)
        else:
            # Quantized values force ties in distances and at selection
            # boundaries -- the hard case for the per-shard percentage cut
            # and the counting rows.
            values = np.round(rng.uniform(0.0, 100.0, n) / 5.0) * 5.0
        if rng.random() < 0.35:
            values[rng.random(n) < rng.uniform(0.05, 0.3)] = np.nan
        columns[name] = values
    return Table("Random", columns)


def random_leaf(rng: np.random.Generator) -> PredicateLeaf:
    attribute = str(rng.choice(["a", "b", "c", "d"]))
    if rng.random() < 0.5:
        low = float(rng.uniform(0.0, 80.0))
        leaf = between(attribute, low, low + float(rng.uniform(1.0, 40.0)))
    else:
        operator = str(rng.choice(["<", "<=", ">", ">=", "="]))
        leaf = condition(attribute, operator, float(rng.uniform(10.0, 90.0)))
    leaf.with_weight(round(float(rng.uniform(0.1, 1.0)), 2))
    return leaf


def random_condition(rng: np.random.Generator, depth: int = 2):
    if depth == 0 or rng.random() < 0.25:
        return random_leaf(rng)
    children = [random_condition(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))]
    node_type = AndNode if rng.random() < 0.6 else OrNode
    node = node_type(children)
    node.with_weight(round(float(rng.uniform(0.2, 1.0)), 2))
    return node


def random_config(rng: np.random.Generator) -> PipelineConfig:
    percentage = None
    reduction = ReductionMethod.QUANTILE
    roll = rng.random()
    if roll < 0.45:
        percentage = round(float(rng.uniform(0.05, 0.9)), 2)
    elif roll < 0.55:
        reduction = ReductionMethod.MULTIPEAK
    return PipelineConfig(
        screen=ScreenSpec(width=int(rng.integers(24, 96)), height=int(rng.integers(24, 96))),
        pixels_per_item=int(rng.choice([1, 4])),
        percentage=percentage,
        reduction=reduction,
    )


def random_events(rng: np.random.Generator, root, count: int) -> list:
    """A mutation sequence, tracked against a shadow tree so that each event
    is valid for the predicate kind it will find at apply time."""
    shadow = copy.deepcopy(root)
    leaf_paths = [path for path, _ in shadow.iter_leaves()]
    node_paths = [path for path, _ in shadow.iter_nodes()]
    events = []
    while len(events) < count:
        roll = rng.random()
        if roll < 0.45:
            path = leaf_paths[rng.integers(0, len(leaf_paths))]
            leaf = shadow.find(tuple(path))
            attribute = leaf.predicate.attribute
            low = float(rng.uniform(0.0, 80.0))
            event = SetQueryRange(tuple(path), low, low + float(rng.uniform(0.5, 40.0)))
            leaf.predicate = RangePredicate(attribute, event.low, event.high)
        elif roll < 0.75:
            path = node_paths[rng.integers(0, len(node_paths))]
            event = SetWeight(tuple(path), round(float(rng.uniform(0.05, 1.0)), 2))
        elif roll < 0.85:
            event = SetPercentageDisplayed(round(float(rng.uniform(0.05, 1.0)), 2))
        else:
            attribute_leaves = [
                p for p in leaf_paths
                if isinstance(shadow.find(tuple(p)).predicate, AttributePredicate)
            ]
            if not attribute_leaves:
                continue
            path = attribute_leaves[rng.integers(0, len(attribute_leaves))]
            event = SetThreshold(tuple(path), float(rng.uniform(10.0, 90.0)))
        events.append(event)
    return events


# --------------------------------------------------------------------------- #
# Bitwise feedback comparison
# --------------------------------------------------------------------------- #
def assert_feedback_identical(reference, candidate, context: str) -> None:
    __tracebackhide__ = True
    try:
        np.testing.assert_array_equal(reference.display_order, candidate.display_order)
        assert reference.statistics == candidate.statistics, (
            f"{reference.statistics} != {candidate.statistics}"
        )
        assert reference.display_capacity == candidate.display_capacity
        np.testing.assert_array_equal(reference.relevance, candidate.relevance)
        assert set(reference.node_feedback) == set(candidate.node_feedback)
        for path in reference.node_feedback:
            ref_node = reference.node_feedback[path]
            cand_node = candidate.node_feedback[path]
            np.testing.assert_array_equal(
                ref_node.normalized_distances, cand_node.normalized_distances)
            np.testing.assert_array_equal(ref_node.raw_distances, cand_node.raw_distances)
            np.testing.assert_array_equal(ref_node.exact_mask, cand_node.exact_mask)
            assert (ref_node.signed_distances is None) == (cand_node.signed_distances is None)
            if ref_node.signed_distances is not None:
                np.testing.assert_array_equal(
                    ref_node.signed_distances, cand_node.signed_distances)
    except AssertionError as exc:
        raise AssertionError(f"[{context}] {exc}") from None


# --------------------------------------------------------------------------- #
# Case execution and shrinking
# --------------------------------------------------------------------------- #
def _check_case(seed: int, max_events: int = EVENTS_PER_CASE,
                backend: str = "threads") -> None:
    rng = np.random.default_rng(987_000 + seed)
    table = random_table(rng)
    root = random_condition(rng)
    config = random_config(rng)
    events = random_events(rng, root, EVENTS_PER_CASE)[:max_events]

    prepared = {
        shards: QueryEngine(table, config.with_(shard_count=shards, max_workers=2,
                                                backend=backend))
        .prepare(Query(name=f"case-{seed}", tables=[table.name],
                       condition=copy.deepcopy(root)))
        for shards in SHARD_COUNTS
    }
    reference = reference_frame(table, prepared[1])
    for shards in SHARD_COUNTS:
        assert_feedback_identical(
            reference, prepared[shards].execute(),
            f"seed={seed} step=initial shards={shards}",
        )
    for step, event in enumerate(events):
        feedbacks = {
            shards: prepared[shards].execute(changes=[event]) for shards in SHARD_COUNTS
        }
        reference = reference_frame(table, prepared[1])
        for shards in SHARD_COUNTS:
            assert_feedback_identical(
                reference, feedbacks[shards],
                f"seed={seed} step={step} event={event!r} shards={shards}",
            )
    # Re-execution without changes must serve every node from the caches and
    # still be identical (the all-hit incremental path).
    for shards in SHARD_COUNTS:
        assert_feedback_identical(
            reference, prepared[shards].execute(),
            f"seed={seed} step=replay shards={shards}",
        )


def _shrink(seed: int, backend: str = "threads") -> str:
    """Shortest failing event prefix for a failing seed (for the repro hint)."""
    for k in range(EVENTS_PER_CASE + 1):
        try:
            _check_case(seed, max_events=k, backend=backend)
        except AssertionError as exc:
            return (f"minimal repro: _check_case({seed}, max_events={k}, "
                    f"backend={backend!r}) -- {exc}")
    return "failure did not reproduce during shrinking (flaky environment?)"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(CASES))
def test_differential_random_case(seed, backend):
    try:
        _check_case(seed, backend=backend)
    except AssertionError:
        raise AssertionError(_shrink(seed, backend=backend)) from None


# --------------------------------------------------------------------------- #
# Join-table differential (cross product under slider drags)
# --------------------------------------------------------------------------- #
def test_differential_join_query_with_slider_drag():
    db = environmental_database(hours=60, stations=2, seed=11)
    config = PipelineConfig(percentage=0.25, max_join_pairs=8_000)

    def build():
        return (
            QueryBuilder("join-diff", db)
            .use_tables("Weather")
            .where(AndNode([
                OrNode([
                    condition("Weather.Temperature", ">", 15.0),
                    condition("Weather.Humidity", "<", 60.0),
                ]),
                between("Air-Pollution.Ozone", 20.0, 120.0),
            ]))
            .use_connection("Air-Pollution with-time-diff Weather", parameter=120)
            .build()
        )

    prepared = {
        shards: QueryEngine(db, config.with_(shard_count=shards, max_workers=2))
        .prepare(build())
        for shards in SHARD_COUNTS
    }
    events = [
        SetQueryRange((1,), 25.0, 110.0),
        SetQueryRange((1,), 30.0, 100.0),
        SetWeight((0,), 0.6),
        SetQueryRange((1,), 32.0, 96.0),
        SetPercentageDisplayed(0.4),
    ]
    for shards in SHARD_COUNTS:
        prepared[shards].execute()
    for step, event in enumerate(events):
        feedbacks = {
            shards: prepared[shards].execute(changes=[event]) for shards in SHARD_COUNTS
        }
        reference = reference_frame(db, prepared[1])
        for shards in SHARD_COUNTS:
            assert_feedback_identical(
                reference, feedbacks[shards], f"join step={step} shards={shards}"
            )


# --------------------------------------------------------------------------- #
# Adversarial dirty-tracking cases (per-site slice entries, PR 4)
# --------------------------------------------------------------------------- #
def _locality_table(n: int = 6_000, seed: int = 23) -> Table:
    """A table whose first column correlates with row order.

    Row-range shards then give slider bands real locality (few dirty
    shards), which is exactly the regime the per-site slice entries patch
    in -- and the regime where a patching bug would go unnoticed by tables
    whose dirty sets always cover every shard.
    """
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1000.0, n))
    a = t * 0.1 + rng.normal(0.0, 4.0, n)
    b = rng.uniform(0.0, 100.0, n)
    b[rng.random(n) < 0.05] = np.nan
    return Table("Local", {"t": t, "a": a, "b": b})


def _drive_against_cold(table, condition_root, config, events, context,
                        backend="threads"):
    """Prepare per shard count, apply each event, compare against cold runs."""
    prepared = {
        shards: QueryEngine(table, config.with_(shard_count=shards, max_workers=2,
                                                backend=backend))
        .prepare(Query(name="adv", tables=[table.name],
                       condition=copy.deepcopy(condition_root)))
        for shards in SHARD_COUNTS
    }
    reference = reference_frame(table, prepared[1])
    for shards in SHARD_COUNTS:
        assert_feedback_identical(
            reference, prepared[shards].execute(),
            f"{context} step=initial shards={shards}",
        )
    for step, event in enumerate(events):
        feedbacks = {
            shards: prepared[shards].execute(changes=[event])
            for shards in SHARD_COUNTS
        }
        reference = reference_frame(table, prepared[1])
        for shards in SHARD_COUNTS:
            assert_feedback_identical(
                reference, feedbacks[shards],
                f"{context} step={step} event={event!r} shards={shards}",
            )
    return prepared


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("percentage", [0.1, None])
def test_differential_repeated_same_leaf_micro_moves(percentage, backend):
    """Many tiny moves of one slider: the patch-chain case (interior moves
    whose resolved bounds rarely change), across both reduction paths."""
    table = _locality_table()
    root = AndNode([
        between("t", 50.0, 900.0),
        OrNode([condition("a", ">", 20.0), condition("b", "<", 80.0)]),
    ])
    config = PipelineConfig(screen=ScreenSpec(width=64, height=64),
                            percentage=percentage)
    events = [SetQueryRange((0,), 50.0, 900.0 - 2.5 * (k + 1)) for k in range(12)]
    _drive_against_cold(table, root, config, events,
                        f"micro pct={percentage} backend={backend}",
                        backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_differential_moves_crossing_shard_boundaries(backend):
    """Band sweeps that enter, span and leave shard boundaries."""
    table = _locality_table(n=4_096)
    root = AndNode([between("t", 100.0, 500.0), condition("a", ">", 10.0)])
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48), percentage=0.2)
    # With 7 and 32 row-range shards over the sorted column, these highs
    # sweep bands that straddle several shard boundaries at once, shrink
    # inside one shard, and jump back across many.
    highs = [880.0, 620.0, 615.0, 610.0, 940.0, 130.0, 480.0]
    events = [SetQueryRange((0,), 100.0, high) for high in highs]
    _drive_against_cold(table, root, config, events, f"boundary backend={backend}",
                        backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_differential_wide_or_of_range_leaves(backend):
    """An OR of 19 range leaves: 17 arms on the NaN-bearing column, two of
    them overlapping, and two arms on a second column.  One overlapping arm
    is dragged narrower, then wider than it started, then a second-column
    arm moves."""
    table = _locality_table(n=3_000)
    arms = [between("b", 6.0 * k, 6.0 * k + 3.0) for k in range(15)]
    arms += [between("b", 40.0, 50.0), between("b", 45.0, 58.0)]
    arms += [between("a", 10.0, 20.0), between("a", 60.0, 70.0)]
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48), percentage=0.1)
    events = [
        SetQueryRange((15,), 41.0, 49.0),
        SetQueryRange((15,), 42.0, 48.0),
        SetQueryRange((15,), 30.0, 64.0),
        SetQueryRange((17,), 12.0, 30.0),
    ]
    _drive_against_cold(table, OrNode(arms), config, events,
                        f"wide-or backend={backend}", backend=backend)


def test_differential_moves_changing_global_bounds():
    """Moves engineered to shift the resolved (d_min, d_max).

    Tightening the range far below every value makes the distances of all
    rows grow (the resolved d_max must move), then snapping back restores
    them -- the short-circuit must disengage and re-engage correctly.
    """
    table = _locality_table(n=3_000)
    root = AndNode([between("t", 400.0, 600.0), condition("a", ">", 30.0)])
    config = PipelineConfig(screen=ScreenSpec(width=40, height=40), percentage=0.15)
    events = [
        SetQueryRange((0,), 400.0, 600.0 - 1.0),   # interior micro-move
        SetQueryRange((0,), 1200.0, 1250.0),       # beyond the data: all dirty
        SetQueryRange((0,), 400.0, 599.0),         # snap back
        SetQueryRange((0,), 0.0, 1500.0),          # everything matches: d_max -> 0
        SetQueryRange((0,), 400.0, 598.0),
    ]
    _drive_against_cold(table, root, config, events, "bounds-move")


def test_differential_weight_changes_mid_sequence():
    """Weight events interleaved with slider moves: weight changes alter
    every value key (and the keep count) without touching raw columns."""
    table = _locality_table(n=3_500)
    root = AndNode([
        between("t", 100.0, 800.0),
        OrNode([condition("a", ">", 40.0), condition("b", "<", 50.0)]),
    ])
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48), percentage=0.1)
    events = [
        SetQueryRange((0,), 100.0, 795.0),
        SetWeight((0,), 0.6),
        SetQueryRange((0,), 100.0, 790.0),
        SetWeight((1, 0), 0.3),
        SetWeight((), 0.8),
        SetQueryRange((0,), 100.0, 785.0),
        SetWeight((0,), 0.6),                      # back to an earlier weight
        SetQueryRange((0,), 100.0, 780.0),
        SetPercentageDisplayed(0.25),
        SetQueryRange((0,), 100.0, 775.0),
    ]
    _drive_against_cold(table, root, config, events, "weights")


@pytest.mark.parametrize("backend", BACKENDS)
def test_differential_interleaved_sessions_same_attribute(backend):
    """Several prepared queries on one engine drag the same attribute in turn.

    Patch provenance is per prepared query, so each session's range leaf
    must keep patching from its own previous state however the peers'
    drags interleave (no session moves twice in a row here).  The sessions
    differ in the leaf's weight, so they share raw leaf columns (the raw
    LRU) but no node column.  Covered on top of the alternating drags at
    different phases: a session landing on exactly the bounds a peer holds
    (raw columns from the LRU, dirty shards from its own entry) and
    dragging on from there, and a late session whose first execution
    follows the peers' events (no entry of its own: the cold path,
    whatever the peers dragged).
    """
    table = _locality_table(n=8_000)
    config = PipelineConfig(screen=ScreenSpec(width=64, height=64),
                            percentage=0.01)

    def root(k: int):
        return AndNode([
            between("t", 50.0, (900.0, 697.5, 797.5)[k]).with_weight(1.0 - 0.2 * k),
            OrNode([condition("a", ">", 20.0), condition("b", "<", 80.0)]),
        ])

    sessions = {}
    for shards in SHARD_COUNTS:
        engine = QueryEngine(table, config.with_(
            shard_count=shards, max_workers=2, backend=backend))
        sessions[shards] = [
            engine.prepare(Query(name=f"session-{k}", tables=[table.name],
                                 condition=root(k)))
            for k in range(3)
        ]
    for k in (0, 1):  # session 2 opens late, after its peers' events
        reference = reference_frame(table, sessions[1][k])
        for shards in SHARD_COUNTS:
            assert_feedback_identical(
                reference, sessions[shards][k].execute(),
                f"sessions backend={backend} open={k} shards={shards}")
    before = {shards: sessions[shards][0].cache_stats for shards in SHARD_COUNTS}
    script = [
        (0, 897.5), (1, 700.0), (0, 895.0), (1, 702.5), (0, 892.5), (1, 705.0),
        (2, 800.0),   # first execution of the late session
        (1, 892.5),   # exactly session 0's bounds: peer raw-LRU hit
        (0, 890.0), (1, 890.5), (2, 802.5), (0, 887.5), (1, 888.0), (2, 805.0),
    ]
    for step, (k, high) in enumerate(script):
        event = SetQueryRange((0,), 50.0, high)
        feedbacks = {
            shards: sessions[shards][k].execute(changes=[event])
            for shards in SHARD_COUNTS
        }
        reference = reference_frame(table, sessions[1][k])
        for shards in SHARD_COUNTS:
            assert_feedback_identical(
                reference, feedbacks[shards],
                f"sessions backend={backend} step={step} session={k} "
                f"high={high} shards={shards}")
    for shards in SHARD_COUNTS[1:]:
        after = sessions[shards][0].cache_stats
        # Interleaving cost no session its patch chain: clean shards were
        # reused and displayed sets patched.
        assert after["shards_reused"] > before[shards]["shards_reused"], shards
        assert after["displayed_patches"] > before[shards]["displayed_patches"], shards


def test_differential_session_opened_from_the_node_cache_patches():
    """A session whose open is served wholly from the node cache (a peer
    opened the same query first) patches its first micro-drags from the
    entries that open left, bit-identically to the reference."""
    table = _locality_table()
    root = AndNode([
        between("t", 50.0, 900.0),
        OrNode([condition("a", ">", 20.0), condition("b", "<", 80.0)]),
    ])
    config = PipelineConfig(screen=ScreenSpec(width=64, height=64), percentage=0.05)
    for shards in SHARD_COUNTS:
        engine = QueryEngine(table, config.with_(shard_count=shards, max_workers=2))
        peer, session = (
            engine.prepare(Query(name=name, tables=[table.name],
                                 condition=copy.deepcopy(root)))
            for name in ("peer", "session"))
        peer.execute()
        assert_feedback_identical(reference_frame(table, session), session.execute(),
                                  f"cache-open shards={shards}")
        for high in (897.5, 895.0):
            hits = session.cache_stats["slice_hits"]
            frame = session.execute(changes=[SetQueryRange((0,), 50.0, high)])
            assert_feedback_identical(reference_frame(table, session), frame,
                                      f"cache-open high={high} shards={shards}")
            assert session.cache_stats["slice_hits"] > hits, (high, shards)


def test_differential_incremental_matches_reference():
    """A patch chain at an odd shard count reproduces the naive reference's
    bits at every step (a 10 % display: node columns and the displayed
    set's per-shard lists patch per shard)."""
    table = _locality_table(n=2_500)
    root = AndNode([between("t", 50.0, 900.0), condition("a", ">", 20.0)])
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48), percentage=0.1)
    on = QueryEngine(table, config.with_(shard_count=7, max_workers=2)).prepare(
        Query(name="on", tables=[table.name], condition=copy.deepcopy(root)))
    on.execute()
    for k in range(8):
        event = SetQueryRange((0,), 50.0, 897.0 - 1.5 * k)
        frame = on.execute(changes=[event])
        assert_feedback_identical(
            reference_frame(table, on), frame, f"on-vs-reference step={k}")
    assert on.cache_stats["shards_reused"] > 0


SESSION_CASES = 6
SESSION_STEPS = 12


@pytest.mark.parametrize("shards", [None, 7])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(SESSION_CASES))
def test_differential_session_undo_redo_and_failed_batches(seed, backend, shards):
    """A VisDBSession driven through events, undo, redo and failed batches
    matches the reference bit for bit after every step.

    Undo, redo and the rollback of a failed batch all set recorded values
    back, while the engine keeps the site entries and caches it built for
    the abandoned state; every step after a revert is a patch against
    them.  ``shards=None`` runs at the ``REPRO_SHARDS`` of the environment.
    """
    rng = np.random.default_rng(555_000 + seed)
    table = random_table(rng)
    root = random_condition(rng)
    config = random_config(rng).with_(shard_count=shards, max_workers=2,
                                      backend=backend)
    events = random_events(rng, root, SESSION_STEPS)
    session = VisDBSession(table, Query(name=f"session-{seed}", tables=[table.name],
                                        condition=copy.deepcopy(root)),
                           config=config)

    def check(step: str) -> None:
        assert_feedback_identical(
            reference_frame(table, session.prepared), session.feedback,
            f"seed={seed} backend={backend} shards={shards} {step}")

    try:
        check("initial")
        # The condition states on the undo stack (current last) and the undone
        # ones: what undo and redo must return to.
        states, undone = [session.condition.fingerprint()], []
        for step in range(SESSION_STEPS):
            action = str(rng.choice(["apply", "apply", "undo", "redo", "fail"]))
            if action == "apply" and events:
                event = events.pop(0)
                session.apply(event)
                if not isinstance(event, SetPercentageDisplayed):
                    states.append(session.condition.fingerprint())
                    undone.clear()
            elif action == "undo" and session.history.can_undo:
                session.undo()
                undone.append(states.pop())
            elif action == "redo" and session.history.can_redo:
                session.redo()
                states.append(undone.pop())
            elif action == "fail" and events:
                # The next event fails with its batch -- in the body, after the
                # recalculation, or at apply time behind it -- and is applied
                # for real by a later step.
                if rng.random() < 0.5:
                    with pytest.raises(RuntimeError, match="frame build"):
                        with session.batch(events[:1]):
                            raise RuntimeError("frame build failed")
                else:
                    with pytest.raises(IndexError):
                        with session.batch([events[0], SetWeight((99,), 0.5)]):
                            pass
            assert session.condition.fingerprint() == states[-1], (seed, step, action)
            check(f"step={step} action={action}")
    finally:
        session.prepared.engine.close()


def test_differential_shard_count_beyond_rows():
    """More shards than rows: trailing empty shards must be inert."""
    rng = np.random.default_rng(5)
    table = Table("Tiny", {"a": rng.uniform(0, 100, 9), "b": rng.uniform(0, 10, 9)})
    config = PipelineConfig(screen=ScreenSpec(width=32, height=32))
    query = Query(name="tiny", tables=["Tiny"],
                  condition=AndNode([between("a", 10.0, 60.0), condition("b", ">", 4.0)]))
    reference = reference_feedback(table, query.condition, config)
    for shards in (2, 7, 32, 64):
        feedback = QueryEngine(table, config.with_(shard_count=shards)).prepare(
            copy.deepcopy(query)).execute()
        assert_feedback_identical(reference, feedback, f"tiny shards={shards}")


# --------------------------------------------------------------------------- #
# NOT, and a reference that shares no plan with the engine
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("node_type", [AndNode, OrNode])
def test_differential_negated_comparison_over_nan(node_type, backend):
    """``NOT (b > 60)`` beside a range leaf, over a column carrying NaN.

    The engine rewrites the negation when it compiles its plan, the
    reference as it walks the tree.  NaN fulfils neither ``b > 60`` nor
    its negation, so the masks are three-valued.  Weight events move the
    negation's and the root's weight, percentage events the display.
    """
    table = _locality_table(n=3_000)
    root = node_type([NotNode(condition("b", ">", 60.0)), between("t", 100.0, 700.0)])
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48), percentage=0.2)
    events = [
        SetWeight((0,), 0.5),
        SetPercentageDisplayed(0.35),
        SetQueryRange((1,), 100.0, 690.0),
        SetWeight((), 0.7),
        SetWeight((0,), 1.0),
        SetPercentageDisplayed(0.1),
    ]
    prepared = _drive_against_cold(table, root, config, events,
                                   f"not {node_type.__name__} backend={backend}",
                                   backend=backend)
    negated = prepared[7].execute().node_feedback[(0,)].exact_mask
    b = table.column("b")
    assert np.isnan(b).any()
    assert int(np.count_nonzero(negated)) == int(np.count_nonzero(b <= 60.0))


def test_differential_catches_a_planted_compiler_bug(monkeypatch):
    """A compiler that swaps AND and OR fails the differential check.

    The reference walks the query tree and never calls ``compile_plan``,
    so a compiler bug cannot agree with itself.
    """
    from repro.core import engine, plan
    from repro.core.combine import CombinationRule

    swap = {CombinationRule.AND: CombinationRule.OR,
            CombinationRule.OR: CombinationRule.AND}
    compile_plan = plan.compile_plan

    def swapped(condition):
        # compile_plan recurses through its module binding, so every
        # composite of the tree passes through here once.
        compiled = compile_plan(condition)
        if isinstance(compiled, plan.CompositePlan):
            compiled.rule = swap[compiled.rule]
        return compiled

    seed = 0
    rng = np.random.default_rng(987_000 + seed)
    random_table(rng)
    assert isinstance(random_condition(rng), (AndNode, OrNode))
    _check_case(seed, max_events=0)
    monkeypatch.setattr(plan, "compile_plan", swapped)
    monkeypatch.setattr(engine, "compile_plan", swapped)
    with pytest.raises(AssertionError):
        _check_case(seed, max_events=0)


# --------------------------------------------------------------------------- #
# Adversarial chunked copy-on-write + quantile certificate cases (PR 9)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_differential_micro_moves_sweeping_chunk_boundaries(backend):
    """Micro-move chains whose dirty bands walk across chunk boundaries.

    Every column is chunked on the shard grid, so over 4096 sorted rows
    the chunks are 585-586 rows at 7 shards (an uneven grid) and 128 at
    32: each step's dirty band slides a little further, repeatedly
    entering, straddling and leaving chunk (= shard) boundaries -- one or
    two dirty chunks per column patch, in one drag.
    """
    table = _locality_table(n=4_096)
    root = AndNode([
        between("t", 100.0, 600.0),
        OrNode([condition("a", ">", 20.0), condition("b", "<", 70.0)]),
    ])
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48), percentage=0.15)
    events = [SetQueryRange((0,), 100.0, 600.0 + 7.0 * (k + 1)) for k in range(10)]
    _drive_against_cold(table, root, config, events,
                        f"chunk-sweep backend={backend}", backend=backend)


def test_differential_dirty_bands_one_chunk_and_all_chunks():
    """Extremes of the chunk grid: bands inside exactly one chunk (one
    shard), then moves that dirty every chunk (a global-bounds shift),
    then back."""
    table = _locality_table(n=2_048)
    root = AndNode([between("t", 300.0, 400.0), condition("a", ">", 10.0)])
    config = PipelineConfig(screen=ScreenSpec(width=40, height=40), percentage=0.2)
    events = [
        SetQueryRange((0,), 300.0, 399.0),     # a handful of rows, one chunk
        SetQueryRange((0,), 300.0, 398.5),     # again: patch of a patch
        SetQueryRange((0,), 1100.0, 1200.0),   # beyond the data: all chunks dirty
        SetQueryRange((0,), 300.0, 398.0),     # snap back
        SetQueryRange((0,), 300.0, 397.5),     # one-chunk band over rebuilt columns
    ]
    _drive_against_cold(table, root, config, events, "chunk-extremes")


@pytest.mark.parametrize("backend", BACKENDS)
def test_differential_quantile_threshold_moves_across_shards(backend):
    """Quantile reduction under moves that shift the p-quantile across shards.

    percentage=None selects the quantile path.  Interior micro-moves keep
    the threshold element in place (the order-statistic certificate should
    hold); the large jumps rewrite enough distances that the p-quantile
    lands in a different shard, forcing the certificate to fail and the
    exact concatenate-and-quantile fallback to run -- both must reproduce
    the cold bits exactly.
    """
    table = _locality_table(n=3_000)
    root = AndNode([
        between("t", 100.0, 800.0),
        OrNode([condition("a", ">", 30.0), condition("b", "<", 60.0)]),
    ])
    config = PipelineConfig(screen=ScreenSpec(width=64, height=64), percentage=None)
    events = [
        SetQueryRange((0,), 100.0, 798.0),     # interior micro-move
        SetQueryRange((0,), 100.0, 796.5),     # another: patch chain
        SetQueryRange((0,), 100.0, 350.0),     # huge jump: threshold shifts shards
        SetQueryRange((0,), 100.0, 348.0),     # micro-move at the new position
        SetQueryRange((0,), 600.0, 900.0),     # jump the whole band elsewhere
        SetQueryRange((0,), 600.0, 898.5),     # settle with a micro-move
    ]
    prepared = _drive_against_cold(table, root, config, events,
                                   f"quantile-shift backend={backend}",
                                   backend=backend)
    stats = prepared[7].cache_stats
    # Both certificate outcomes were exercised: passes (micro-moves) and
    # the exact-fallback path (cold run + threshold shifts).
    assert stats["quantile_certified"] > 0
    assert stats["quantile_fallbacks"] > 0


def test_differential_quantile_incremental_matches_reference():
    """Quantile path: the certificate machinery reproduces the naive
    (always-exact) reference's bits at every step of a patch chain."""
    table = _locality_table(n=2_500)
    root = AndNode([between("t", 50.0, 900.0), condition("a", ">", 20.0)])
    config = PipelineConfig(screen=ScreenSpec(width=48, height=48), percentage=None)
    on = QueryEngine(table, config.with_(shard_count=7, max_workers=2)).prepare(
        Query(name="on", tables=[table.name], condition=copy.deepcopy(root)))
    on.execute()
    for k in range(8):
        event = SetQueryRange((0,), 50.0, 897.0 - 1.5 * k)
        frame = on.execute(changes=[event])
        assert_feedback_identical(
            reference_frame(table, on), frame,
            f"quantile on-vs-reference step={k}")
    assert on.cache_stats["quantile_certified"] > 0
