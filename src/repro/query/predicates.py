"""Selection predicates and their distance semantics.

Every selection predicate can do two things:

* decide exactly which data items *fulfil* it (the classical boolean
  evaluation), and
* compute a **signed distance** for every data item, where a distance of
  zero means the item fulfils the predicate and the magnitude says how far
  it misses.  Negative/positive signs encode the direction of the miss
  (below/above the query value), which the 2D arrangement of Fig. 1b uses.

Items for which no distance can be defined (e.g. the failing side of a
``!=`` predicate -- the paper's "negation problem") get ``NaN``; the
relevance engine maps NaN to the maximum normalized distance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from repro.query.fingerprint import stable_fingerprint
from repro.storage.table import Table

__all__ = [
    "ComparisonOperator",
    "Predicate",
    "AttributePredicate",
    "RangePredicate",
    "SetMembershipPredicate",
    "StringMatchPredicate",
    "NoDistanceWarning",
]


class NoDistanceWarning(UserWarning):
    """Raised as a warning category when a predicate cannot provide distances."""


class ComparisonOperator(Enum):
    """The comparison operators of the query Tool Box."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="

    def inverted(self) -> "ComparisonOperator":
        """Return the negated operator (used to rewrite ``NOT (a op b)``).

        Equality/inequality swap into each other; the four order operators
        invert as the paper describes for negated comparison operators.
        """
        return _INVERTED[self]

    def evaluate(self, values: np.ndarray, reference: float) -> np.ndarray:
        """Vectorised boolean evaluation of ``values <op> reference``."""
        if self is ComparisonOperator.LT:
            return values < reference
        if self is ComparisonOperator.LE:
            return values <= reference
        if self is ComparisonOperator.GT:
            return values > reference
        if self is ComparisonOperator.GE:
            return values >= reference
        if self is ComparisonOperator.EQ:
            return values == reference
        return values != reference


_INVERTED = {
    ComparisonOperator.LT: ComparisonOperator.GE,
    ComparisonOperator.LE: ComparisonOperator.GT,
    ComparisonOperator.GT: ComparisonOperator.LE,
    ComparisonOperator.GE: ComparisonOperator.LT,
    ComparisonOperator.EQ: ComparisonOperator.NE,
    ComparisonOperator.NE: ComparisonOperator.EQ,
}


class Predicate:
    """Base class for selection predicates.

    Subclasses implement :meth:`exact_mask` and :meth:`signed_distances`;
    the default :meth:`distances` (absolute distances used for relevance
    calculation) and :meth:`describe` derive from those.
    """

    #: Attribute (column) the predicate mainly refers to; used for sliders.
    attribute: str

    def exact_mask(self, table: Table) -> np.ndarray:
        """Boolean array: True where the data item fulfils the predicate."""
        raise NotImplementedError

    def signed_distances(self, table: Table) -> np.ndarray:
        """Signed distance per data item (0 = fulfilled, NaN = undefined)."""
        raise NotImplementedError

    def distances(self, table: Table) -> np.ndarray:
        """Absolute distances (the quantity normalized and combined)."""
        return np.abs(self.signed_distances(table))

    @property
    def supports_direction(self) -> bool:
        """True if signed distances carry meaningful direction information."""
        return True

    def describe(self) -> str:
        """Human-readable label used for window titles and sliders."""
        return self.attribute

    def inverted(self) -> "Predicate":
        """Return the negated predicate, if a distance-preserving negation exists."""
        raise ValueError(
            f"predicate {self.describe()!r} cannot be negated while keeping distances"
        )

    def fingerprint(self) -> str:
        """Stable identity of this predicate's distance computation.

        Two predicates of the same type with equal parameters share a
        fingerprint, which lets the query engine reuse cached raw distance
        columns across re-executions.  All concrete predicates are
        dataclasses, so the default derives the fingerprint from the typed
        field values; non-dataclass subclasses fall back to object identity.
        """
        if is_dataclass(self):
            parts = [getattr(self, f.name) for f in fields(self)]
            return stable_fingerprint(type(self).__name__, *parts)
        return stable_fingerprint(type(self).__name__, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


@dataclass(repr=False)
class AttributePredicate(Predicate):
    """A simple comparison ``attribute <op> value`` on a numeric attribute.

    The signed distance is zero for fulfilling items and ``value - x``
    (for ``>``/``>=``) or ``x - value`` (for ``<``/``<=``) otherwise, so the
    magnitude is "how much the item misses the threshold" and the sign is
    negative when the item lies below the query value and positive when it
    lies above it.
    """

    attribute: str
    operator: ComparisonOperator
    value: float

    def exact_mask(self, table: Table) -> np.ndarray:
        return self.operator.evaluate(np.asarray(table.column(self.attribute), dtype=float),
                                      self.value)

    def signed_distances(self, table: Table) -> np.ndarray:
        values = np.asarray(table.column(self.attribute), dtype=float)
        signed = values - self.value
        fulfilled = self.operator.evaluate(values, self.value)
        distances = np.where(fulfilled, 0.0, signed)
        if self.operator is ComparisonOperator.NE:
            # Failing items are exactly equal to the forbidden value: no
            # gradation exists (the negation problem); mark them undefined.
            distances = np.where(fulfilled, 0.0, np.nan)
        distances = np.where(np.isnan(values), np.nan, distances)
        return distances

    @property
    def supports_direction(self) -> bool:
        return self.operator is not ComparisonOperator.NE

    def describe(self) -> str:
        return f"{self.attribute} {self.operator.value} {self.value:g}"

    def inverted(self) -> "AttributePredicate":
        return AttributePredicate(self.attribute, self.operator.inverted(), self.value)


@dataclass(repr=False)
class RangePredicate(Predicate):
    """A range condition ``low <= attribute <= high``.

    This is the predicate the VisDB sliders manipulate: the black lines in
    a slider are exactly ``low`` and ``high``.  Items above the range get
    positive distances (``x - high``), items below negative ones
    (``x - low``).
    """

    attribute: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(
                f"invalid range for {self.attribute!r}: low {self.low} > high {self.high}"
            )

    def exact_mask(self, table: Table) -> np.ndarray:
        values = np.asarray(table.column(self.attribute), dtype=float)
        return (values >= self.low) & (values <= self.high)

    def signed_distances(self, table: Table) -> np.ndarray:
        values = np.asarray(table.column(self.attribute), dtype=float)
        below = np.where(values < self.low, values - self.low, 0.0)
        above = np.where(values > self.high, values - self.high, 0.0)
        distances = below + above
        return np.where(np.isnan(values), np.nan, distances)

    def describe(self) -> str:
        return f"{self.low:g} <= {self.attribute} <= {self.high:g}"

    def with_range(self, low: float, high: float) -> "RangePredicate":
        """Return a copy with a new query range (a slider move)."""
        return RangePredicate(self.attribute, low, high)

    @classmethod
    def around(cls, attribute: str, centre: float, deviation: float) -> "RangePredicate":
        """Build a range from a medium value and allowed deviation.

        This mirrors the alternative slider type "where the medium value and
        some allowed deviation can be manipulated graphically".
        """
        if deviation < 0:
            raise ValueError("deviation must be non-negative")
        return cls(attribute, centre - deviation, centre + deviation)


@dataclass(repr=False)
class SetMembershipPredicate(Predicate):
    """``attribute IN {v1, v2, ...}`` for numeric or categorical attributes.

    For numeric attributes the distance is the signed difference to the
    nearest member; for categorical attributes an optional distance matrix
    (a mapping ``(value, member) -> distance``) provides graded distances,
    otherwise failing items are undefined (NaN).
    """

    attribute: str
    members: tuple[Any, ...]
    distance_matrix: dict[tuple[Any, Any], float] | None = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("SetMembershipPredicate needs at least one member value")
        self.members = tuple(self.members)

    def _is_numeric(self, table: Table) -> bool:
        return table.is_numeric(self.attribute) and all(
            isinstance(m, (int, float, np.integer, np.floating)) for m in self.members
        )

    def exact_mask(self, table: Table) -> np.ndarray:
        column = table.column(self.attribute)
        if self._is_numeric(table):
            values = np.asarray(column, dtype=float)
            mask = np.zeros(len(values), dtype=bool)
            for member in self.members:
                mask |= values == float(member)
            return mask
        member_set = set(self.members)
        return np.array([v in member_set for v in column], dtype=bool)

    def signed_distances(self, table: Table) -> np.ndarray:
        column = table.column(self.attribute)
        if self._is_numeric(table):
            values = np.asarray(column, dtype=float)
            member_values = np.array(sorted(float(m) for m in self.members))
            diffs = values[:, None] - member_values[None, :]
            nearest = np.argmin(np.abs(diffs), axis=1)
            signed = diffs[np.arange(len(values)), nearest]
            return np.where(np.isnan(values), np.nan, signed)
        distances = np.empty(len(column), dtype=float)
        member_set = set(self.members)
        for i, value in enumerate(column):
            if value in member_set:
                distances[i] = 0.0
            elif self.distance_matrix is not None:
                candidates = [
                    self.distance_matrix.get((value, m), np.nan) for m in self.members
                ]
                finite = [c for c in candidates if not np.isnan(c)]
                distances[i] = min(finite) if finite else np.nan
            else:
                distances[i] = np.nan
        return distances

    @property
    def supports_direction(self) -> bool:
        return False

    def describe(self) -> str:
        shown = ", ".join(str(m) for m in self.members[:4])
        if len(self.members) > 4:
            shown += ", ..."
        return f"{self.attribute} in {{{shown}}}"


@dataclass(repr=False)
class StringMatchPredicate(Predicate):
    """``attribute = 'target'`` on a string attribute with a graded distance.

    ``distance_function`` maps ``(value, target)`` to a non-negative float;
    the defaults in :mod:`repro.distance.strings` provide lexicographical,
    character-wise, substring, edit and phonetic differences.
    """

    attribute: str
    target: str
    distance_function: Callable[[str, str], float] | None = None

    def exact_mask(self, table: Table) -> np.ndarray:
        column = table.column(self.attribute)
        return np.array([str(v) == self.target for v in column], dtype=bool)

    def signed_distances(self, table: Table) -> np.ndarray:
        from repro.distance.strings import edit_distance  # local import: avoid cycle

        distance = self.distance_function or edit_distance
        column = table.column(self.attribute)
        return np.array([float(distance(str(v), self.target)) for v in column], dtype=float)

    @property
    def supports_direction(self) -> bool:
        return False

    def describe(self) -> str:
        return f"{self.attribute} ~ {self.target!r}"


def predicate_for_values(attribute: str, values: Sequence[Any]) -> Predicate:
    """Convenience factory: build an IN / EQ predicate from example values."""
    if len(values) == 1:
        value = values[0]
        if isinstance(value, str):
            return StringMatchPredicate(attribute, value)
        return AttributePredicate(attribute, ComparisonOperator.EQ, float(value))
    return SetMembershipPredicate(attribute, tuple(values))
