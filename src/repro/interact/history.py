"""Undo/redo history over recorded query changes."""

from __future__ import annotations

from collections import deque
from typing import Sequence

__all__ = ["QueryHistory", "revert"]

#: One recorded change, as :meth:`~repro.core.engine.PreparedQuery.apply_change`
#: returns it: ``(target, attribute, old, new)`` -- the modification set
#: ``target.attribute`` from ``old`` to ``new``.
Change = tuple


def revert(changes: Sequence[Change]) -> None:
    """Set every change's old value back, newest first."""
    for target, attribute, old, _ in reversed(changes):
        setattr(target, attribute, old)


class QueryHistory:
    """A bounded undo/redo stack of query modification steps.

    A step is the changes one modification made (one event, or one batch
    of events).  :meth:`undo` sets their old values back and :meth:`redo`
    the new ones, so walking the stack copies no condition tree.  This
    supports the exploratory usage pattern of VisDB where the user tries
    many slight variations of a query and wants to return to an earlier
    one.
    """

    def __init__(self, max_depth: int = 100):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self._past: deque[tuple[Change, ...]] = deque(maxlen=max_depth)
        self._future: list[tuple[Change, ...]] = []

    def push(self, changes: Sequence[Change]) -> None:
        """Record one step (already applied); clears the redo stack."""
        self._past.append(tuple(changes))
        self._future.clear()

    def undo(self) -> tuple[Change, ...]:
        """Revert the newest step and return it (raises if there is none)."""
        if not self._past:
            raise IndexError("nothing to undo")
        step = self._past.pop()
        revert(step)
        self._future.append(step)
        return step

    def redo(self) -> tuple[Change, ...]:
        """Re-apply the most recently undone step (raises if there is none)."""
        if not self._future:
            raise IndexError("nothing to redo")
        step = self._future.pop()
        for target, attribute, _, new in step:
            setattr(target, attribute, new)
        self._past.append(step)
        return step

    @property
    def can_undo(self) -> bool:
        """True if :meth:`undo` would succeed."""
        return bool(self._past)

    @property
    def can_redo(self) -> bool:
        """True if :meth:`redo` would succeed."""
        return bool(self._future)

    def __len__(self) -> int:
        return len(self._past) + len(self._future)
