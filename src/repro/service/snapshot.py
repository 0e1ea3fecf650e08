"""Frame snapshots and the versioned frame/delta wire model.

One pipeline run produces one :class:`FrameSnapshot` -- the relevance
feedback plus the rendered visualization windows of the paper's
"Visualization and Query Modification" screen.  Windows are built through
:class:`WindowCache`, which fingerprints what a window actually shows (the
displayed item order and the node's distances *at those items*) and
re-renders only windows whose fingerprint changed: after a weight change
deep in an OR subtree, the untouched predicate windows are served from the
cache byte-for-byte.

The second half of this module is the **wire model**: a client-side
frame is a plain JSON-able dictionary (statistics + display order + the
windows' cell arrays), :func:`frame_payload` encodes a snapshot as a full
frame, :func:`delta_payload` encodes only what changed against a base
snapshot (cell patches per window, computed through
:meth:`~repro.vis.window.VisualizationWindow.diff_cells`), and
:func:`apply_frame_update` is the reference client: applying a delta
stream reconstructs -- field for field -- the frame a cold full snapshot
would show.  The differential suite in ``tests/test_stream_delta.py``
enforces exactly that equivalence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.result import FeedbackStatistics, QueryFeedback
from repro.query.expr import NodePath
from repro.query.fingerprint import stable_fingerprint
from repro.vis.arrangement import window_for_node
from repro.vis.layout import MultiWindowLayout
from repro.vis.window import VisualizationWindow

__all__ = [
    "FrameSnapshot",
    "WindowCache",
    "window_fingerprint",
    "FrameGapError",
    "path_key",
    "parse_path_key",
    "window_state",
    "frame_payload",
    "delta_payload",
    "frame_state",
    "apply_frame_update",
]


def _digest(array: np.ndarray) -> str:
    """Content digest of one array (shape- and dtype-qualified)."""
    array = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=12)
    h.update(str(array.dtype).encode())
    h.update(str(array.shape).encode())
    h.update(array.tobytes())
    return h.hexdigest()


def window_fingerprint(feedback: QueryFeedback, path: NodePath,
                       width: int, height: int, pixels_per_item: int,
                       order_digest: str | None = None) -> str:
    """Identity of everything one window's pixels depend on.

    A window shows the displayed items (in overall relevance order) coloured
    by the node's normalized distances at those items; the geometry adds the
    window size and the pixels-per-item block factor.  Distances of items
    outside the displayed set cannot change the window, so they are
    deliberately not part of the fingerprint -- that is what makes the cache
    hit when an event reshuffles only off-screen items.  The window *title*
    (the node label, which embeds the current bounds) is deliberately not
    covered either: :class:`WindowCache` refreshes a stale title on the hit
    path without re-rendering a single pixel.

    ``order_digest`` is the digest of ``feedback.display_order`` when the
    caller already has it: every window of one frame shares the order, so
    :class:`WindowCache` hashes it once per frame instead of once per
    window.
    """
    if order_digest is None:
        order_digest = _digest(feedback.display_order)
    return stable_fingerprint(
        "window", tuple(path), width, height, pixels_per_item,
        order_digest,
        _digest(feedback.ordered_distances(path)),
    )


@dataclass(frozen=True)
class DisplayedOrder:
    """What a superseded frame keeps of its feedback: the displayed rows."""

    display_order: np.ndarray


@dataclass
class FrameSnapshot:
    """The state handed to a client after one pipeline run."""

    session_id: str
    #: Run number within the session (0 = the initial execution at open).
    sequence: int
    #: Coalesced events applied by this run.
    events_applied: int
    statistics: FeedbackStatistics
    #: The run's full feedback while this is the session's current frame;
    #: only its displayed order once :meth:`superseded`.
    feedback: QueryFeedback | DisplayedOrder
    windows: dict[NodePath, VisualizationWindow]
    #: Paths re-rendered by this run; every other window was a cache hit.
    rendered_fresh: tuple[NodePath, ...]
    run_seconds: float
    #: True when the displayed set (and every window) is provably unchanged
    #: from the previous frame -- the run was served entirely from caches,
    #: so clients may skip re-uploading pixel data.
    display_unchanged: bool = False
    #: The session's number for this frame (1, 2, ...: ``sequence + 1``)
    #: and for the frame before it (None for the first); what the delta
    #: stream acks.
    frame_id: int = 0
    base_frame_id: int | None = None
    #: The trace of the run that produced this frame (None when tracing is
    #: off).  Kept on the snapshot so the protocol layer can attach its
    #: encode/send spans to the same tree when the frame is pulled.
    trace: object | None = field(default=None, repr=False, compare=False)
    #: Lazily cached wire encoding of the full frame (see
    #: :meth:`payload_bytes`).
    _encoded_payload: bytes | None = field(default=None, repr=False, compare=False)

    def payload_bytes(self) -> bytes:
        """The full frame payload of this snapshot, encoded exactly once.

        The bytes are exactly ``json.dumps({"ok": True,
        **frame_payload(self)}).encode()``, written from the snapshot's
        arrays instead of one Python object per cell:

        * the scalar fields go through ``json.dumps`` of the same header
          dict :func:`frame_payload` uses, so the field list exists once;
        * every window's ``item_ids`` grid is encoded once per frame and
          the bytes are reused for every window whose grid is equal -- all
          windows place the same displayed items at the same pixels, so
          one frame normally encodes a single grid;
        * a distance grid is encoded as one ``json`` token per distinct
          bit pattern (NaN is ``null``, ``-0.0`` keeps its own token), each
          token written by ``json.dumps`` itself, then gathered per cell.
          That wins when distances repeat -- exact answers at 0, saturated
          rows at the maximum, empty cells -- and loses on a gradient, so
          a grid with more than a quarter of its cells distinct takes the
          plain ``json.dumps`` of its list instead.  The rule reads the
          input; it is not an option.

        Encoding happens only when the bytes are sent
        (``subscribe``/``resync``/gap replies) or when a ``delta`` pull's
        encoded delta exceeds :meth:`payload_size_floor` and the exact
        size has to settle the delta-vs-snapshot choice.  The cache keeps
        many clients pulling the same settled frame from re-serializing
        it once each.  The snapshot is immutable after construction, and a
        racing double encode would produce identical bytes, so the lazy
        cache needs no lock.
        """
        if self._encoded_payload is None:
            self._encoded_payload = _encode_frame(self)
        return self._encoded_payload

    def payload_size_floor(self) -> int:
        """A lower bound on ``len(self.payload_bytes())`` from geometry alone.

        ``json.dumps`` writes a list of ``n`` elements as two brackets, at
        least one character per element and ``n - 1`` two-character
        ``", "`` separators: never fewer than ``3 * n`` bytes.  A frame
        carries one such list per window for ``distances`` and for
        ``item_ids`` (one element per cell) and one for ``display_order``;
        everything else in the payload only adds to the true size.
        O(windows) -- no array is traversed -- which lets a ``delta`` pull
        prove its delta smaller than the frame without encoding the frame.
        """
        cells = sum(window.distances.size for window in self.windows.values())
        return 3 * (2 * cells + len(self.feedback.display_order))

    def superseded(self) -> "FrameSnapshot":
        """This frame as the retention ring keeps it behind a newer one.

        A superseded frame is only ever a ``delta`` base, which reads its
        windows (O(pixels)) and displayed order (capacity-bounded).  The
        per-item arrays of the full feedback are O(n) each; consecutive
        frames of a steady drag share them chunk for chunk, but a run of
        full recomputes would pin one whole-table generation per retained
        frame.  The unclaimed trace goes too: pulls deliver the current
        frame, so nothing can claim it any more -- and so does the encoded
        full frame, which a delta base never sends.
        """
        return replace(
            self, feedback=DisplayedOrder(self.feedback.display_order),
            trace=None, _encoded_payload=None)

    def as_dict(self, top: int = 10) -> dict[str, object]:
        """JSON-serializable summary (protocol form, without pixel data)."""
        overall = self.feedback.ordered_distances(())
        order = self.feedback.display_order
        k = max(0, min(int(top), len(order)))
        return {
            "session": self.session_id,
            "sequence": self.sequence,
            "events_applied": self.events_applied,
            "statistics": self.statistics.as_dict(),
            "run_ms": round(self.run_seconds * 1e3, 3),
            "display_unchanged": self.display_unchanged,
            "frame_id": self.frame_id,
            "base_frame_id": self.base_frame_id,
            "windows": [
                {
                    "path": list(path),
                    "title": window.title,
                    "width": window.width,
                    "height": window.height,
                    "items": window.item_count(),
                    "occupancy": round(window.occupancy, 4),
                    "fresh": path in self.rendered_fresh,
                }
                for path, window in sorted(
                    self.windows.items(), key=lambda item: (len(item[0]), item[0])
                )
            ],
            "top_items": [
                {"row": int(order[i]), "distance": float(overall[i])}
                for i in range(k)
            ],
        }


class WindowCache:
    """Per-session cache of rendered windows, keyed by result fingerprint."""

    def __init__(self, layout: MultiWindowLayout | None = None):
        self.layout = layout or MultiWindowLayout()
        self._cache: dict[NodePath, tuple[str, VisualizationWindow]] = {}
        self.hits = 0
        self.misses = 0

    def windows(self, feedback: QueryFeedback) -> tuple[
            dict[NodePath, VisualizationWindow], tuple[NodePath, ...]]:
        """Overall + top-level windows for ``feedback``; re-renders only changes.

        Returns the window mapping plus the tuple of paths that were
        actually re-rendered this call.
        """
        layout = self.layout
        paths: list[NodePath] = [()]
        paths.extend(p for p in feedback.top_level_paths() if p != ())
        result: dict[NodePath, VisualizationWindow] = {}
        fresh: list[NodePath] = []
        order_digest = _digest(feedback.display_order)
        for path in paths:
            fingerprint = window_fingerprint(
                feedback, path, layout.window_width, layout.window_height,
                layout.pixels_per_item, order_digest,
            )
            cached = self._cache.get(path)
            if cached is not None and cached[0] == fingerprint:
                self.hits += 1
                window = cached[1]
                label = feedback.node_feedback[path].label
                if window.title != label:
                    # Same pixels, new title (a slider move rewrites the
                    # node label every tick): rewrap the cached arrays
                    # instead of re-rendering -- and keep the refreshed
                    # title cached so the next hit compares equal.
                    window = VisualizationWindow(
                        label, window.distances, window.item_ids,
                        dict(window.metadata),
                    )
                    self._cache[path] = (fingerprint, window)
                result[path] = window
                continue
            self.misses += 1
            window = window_for_node(
                feedback, path, layout.window_width, layout.window_height,
                pixels_per_item=layout.pixels_per_item,
            )
            self._cache[path] = (fingerprint, window)
            result[path] = window
            fresh.append(path)
        # Windows of paths that no longer exist (query reshaped) are dropped
        # so the cache cannot grow past the current query's window count.
        for stale in [p for p in self._cache if p not in result]:
            del self._cache[stale]
        return result, tuple(fresh)

    def clear(self) -> None:
        self._cache.clear()


# --------------------------------------------------------------------------- #
# The wire model: full frames, deltas and the reference client
# --------------------------------------------------------------------------- #
class FrameGapError(ValueError):
    """A delta's base frame does not match the client's current frame.

    The reference client raises this instead of guessing; a real client
    answers it with a ``resync`` request for a full frame.
    """


def path_key(path: NodePath) -> str:
    """Wire form of a node path (JSON object keys must be strings)."""
    return "/".join(str(i) for i in path)


def parse_path_key(key: str) -> NodePath:
    """Inverse of :func:`path_key` (the empty string is the root path)."""
    if not key:
        return ()
    return tuple(int(part) for part in key.split("/"))


def _encode_distances(values: np.ndarray) -> list:
    """Flat distance list with ``None`` for NaN (JSON has no NaN literal)."""
    return [None if v != v else v for v in values.reshape(-1).tolist()]


def _window_header(window: VisualizationWindow) -> dict:
    """A window's fields before its cell arrays, in wire order."""
    return {"title": window.title, "width": window.width,
            "height": window.height}


def window_state(window: VisualizationWindow) -> dict:
    """The client-side form of one window: geometry plus flat cell arrays."""
    return {
        **_window_header(window),
        "distances": _encode_distances(window.distances),
        "item_ids": window.item_ids.reshape(-1).tolist(),
    }


def _frame_header(snapshot: FrameSnapshot) -> dict:
    """A full frame's fields before its arrays, in wire order."""
    return {
        "type": "frame",
        "mode": "snapshot",
        "session": snapshot.session_id,
        "sequence": snapshot.sequence,
        "events_applied": snapshot.events_applied,
        "run_ms": round(snapshot.run_seconds * 1e3, 3),
        "frame_id": snapshot.frame_id,
        "base_frame_id": snapshot.base_frame_id,
        "statistics": snapshot.statistics.as_dict(),
    }


def frame_payload(snapshot: FrameSnapshot) -> dict:
    """Encode a snapshot as a full frame (``mode: "snapshot"``).

    This is the resync unit: everything a client needs to rebuild its
    frame state from nothing.  The windows dominate the size -- O(pixels)
    per window -- which is exactly what :func:`delta_payload` avoids.
    It is the reference form of :meth:`FrameSnapshot.payload_bytes`,
    which writes the same JSON straight from the arrays.
    """
    return {
        **_frame_header(snapshot),
        "display_order": snapshot.feedback.display_order.tolist(),
        "windows": {
            path_key(path): window_state(window)
            for path, window in snapshot.windows.items()
        },
    }


def _json_ints(values: np.ndarray) -> bytes:
    """``json.dumps`` of the flat integer list of ``values``."""
    return json.dumps(values.reshape(-1).tolist()).encode()


def _json_distances(values: np.ndarray) -> bytes:
    """``json.dumps`` of the flat distance list, one token per distinct bits.

    Keyed by bit pattern, not value, so ``-0.0`` keeps its own token and
    every NaN is ``null``.  Each token is padded with NULs to the longest
    one in a byte matrix, gathered per cell and squeezed; see
    :meth:`FrameSnapshot.payload_bytes` for when this beats ``json``.
    """
    flat = values.reshape(-1)
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    if 4 * len(bits) > len(flat):
        return json.dumps(_encode_distances(flat)).encode()
    tokens = np.array([b"null, " if v != v else json.dumps(v).encode() + b", "
                       for v in bits.view(np.float64).tolist()])
    body = tokens[inverse].tobytes().replace(b"\x00", b"")
    return b"[" + body[:-2] + b"]"


def _encode_frame(snapshot: FrameSnapshot) -> bytes:
    """The bytes of :meth:`FrameSnapshot.payload_bytes`."""
    head = json.dumps({"ok": True, **_frame_header(snapshot)})
    parts = [head[:-1].encode(), b', "display_order": ',
             _json_ints(snapshot.feedback.display_order), b', "windows": {']
    grids: list[tuple[np.ndarray, bytes]] = []
    for k, (path, window) in enumerate(snapshot.windows.items()):
        item_ids = window.item_ids
        for grid, encoded_ids in grids:
            if grid is item_ids or np.array_equal(grid, item_ids):
                break
        else:
            encoded_ids = _json_ints(item_ids)
            grids.append((item_ids, encoded_ids))
        # ``{"key": {"title": ..., "height": h}}`` less its two closing
        # braces: the window's header fields, open for the cell arrays.
        fields = json.dumps({path_key(path): _window_header(window)})[1:-2]
        parts += [b", " if k else b"", fields.encode(), b', "distances": ',
                  _json_distances(window.distances), b', "item_ids": ',
                  encoded_ids, b"}"]
    parts.append(b"}}")
    return b"".join(parts)


def delta_payload(base: FrameSnapshot, snapshot: FrameSnapshot) -> dict:
    """Encode ``snapshot`` as a delta against ``base`` (``mode: "delta"``).

    Per window, the encoding is chosen cell-diff first: an identical window
    object (the render-cache hit that dominates steady drags) costs a
    one-entry ``{"unchanged": true}``, a changed window ships only its
    changed cells, and a window with no cell-level relation (new path,
    resized, retitled) ships wholesale.  The displayed order is included in
    full only when it changed -- it is capacity-bounded, never O(n).

    Applying the result to a client state holding ``base`` reconstructs
    exactly the state :func:`frame_payload` of ``snapshot`` would build.
    """
    base_order = base.feedback.display_order
    new_order = snapshot.feedback.display_order
    if len(base_order) == len(new_order) and np.array_equal(base_order, new_order):
        display: dict = {"unchanged": True}
    else:
        new_sorted = np.sort(new_order)
        old_sorted = np.sort(base_order)
        display = {
            "order": new_order.tolist(),
            "entered": np.setdiff1d(new_sorted, old_sorted,
                                    assume_unique=True).tolist(),
            "left": np.setdiff1d(old_sorted, new_sorted,
                                 assume_unique=True).tolist(),
        }
    windows: dict[str, dict] = {}
    for path, window in snapshot.windows.items():
        key = path_key(path)
        previous = base.windows.get(path)
        diff = window.diff_cells(previous)
        if diff is None:
            windows[key] = {"full": window_state(window)}
            continue
        # A slider move rewrites the node label (the window title) on every
        # tick while usually leaving the pixels alone; titles therefore ride
        # the cell patch as a field instead of forcing a full window.
        title_changed = previous.title != window.title
        if len(diff) == 0 and not title_changed:
            windows[key] = {"unchanged": True}
        else:
            distances = window.distances.reshape(-1)[diff]
            item_ids = window.item_ids.reshape(-1)[diff]
            entry: dict = {"cells": [
                [int(i), None if d != d else float(d), int(item)]
                for i, d, item in zip(diff.tolist(), distances.tolist(),
                                      item_ids.tolist())
            ]}
            if title_changed:
                entry["title"] = window.title
            windows[key] = entry
    removed = [
        path_key(path) for path in base.windows if path not in snapshot.windows
    ]
    payload = {
        "type": "frame",
        "mode": "delta",
        "session": snapshot.session_id,
        "sequence": snapshot.sequence,
        "events_applied": snapshot.events_applied,
        "run_ms": round(snapshot.run_seconds * 1e3, 3),
        "frame_id": snapshot.frame_id,
        "base_frame_id": base.frame_id,
        "statistics": snapshot.statistics.as_dict(),
        "display": display,
        "windows": windows,
    }
    if removed:
        payload["removed_windows"] = removed
    return payload


def frame_state(payload: dict) -> dict:
    """The reconstructable client state carried by a full frame payload."""
    return {
        "frame_id": payload["frame_id"],
        "statistics": payload["statistics"],
        "display_order": payload["display_order"],
        "windows": payload["windows"],
    }


def apply_frame_update(state: dict | None, payload: dict) -> dict:
    """The reference client: fold one frame payload into the frame state.

    * ``mode: "snapshot"`` replaces the state wholesale (works from None);
    * ``mode: "unchanged"`` (the server's "you are current" answer) keeps
      the state, after checking the frame id actually matches;
    * ``mode: "delta"`` requires ``state["frame_id"] ==
      payload["base_frame_id"]`` -- on any gap or mismatch a
      :class:`FrameGapError` is raised and the client should resync.

    The function never mutates ``state``; unchanged windows are shared
    between the old and new state (they are never mutated in place either).
    """
    mode = payload.get("mode")
    if mode == "snapshot":
        return frame_state(payload)
    if mode == "unchanged":
        if state is None or state["frame_id"] != payload["frame_id"]:
            raise FrameGapError(
                f"server says frame {payload.get('frame_id')} is current but the "
                f"client holds {None if state is None else state['frame_id']}"
            )
        return state
    if mode != "delta":
        raise ValueError(f"unknown frame mode {mode!r}")
    if state is None or state["frame_id"] != payload["base_frame_id"]:
        raise FrameGapError(
            f"delta base {payload.get('base_frame_id')} does not match client "
            f"frame {None if state is None else state['frame_id']}"
        )
    display = payload["display"]
    order = state["display_order"] if display.get("unchanged") else display["order"]
    windows: dict[str, dict] = {}
    for key, entry in payload["windows"].items():
        if "full" in entry:
            windows[key] = entry["full"]
            continue
        previous = state["windows"].get(key)
        if previous is None:
            raise FrameGapError(
                f"delta patches window {key!r} the client does not have"
            )
        if entry.get("unchanged"):
            windows[key] = previous
            continue
        distances = list(previous["distances"])
        item_ids = list(previous["item_ids"])
        for index, distance, item in entry["cells"]:
            distances[index] = distance
            item_ids[index] = item
        windows[key] = {
            "title": entry.get("title", previous["title"]),
            "width": previous["width"],
            "height": previous["height"],
            "distances": distances,
            "item_ids": item_ids,
        }
    return {
        "frame_id": payload["frame_id"],
        "statistics": payload["statistics"],
        "display_order": order,
        "windows": windows,
    }
