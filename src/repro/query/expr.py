"""Weighted boolean expression trees over selection predicates.

The query condition is an arbitrarily nested combination of ``AND`` and
``OR`` over selection predicates, approximate joins and subqueries.  The
tree shape drives two things in VisDB:

* distance combination -- ``AND`` nodes use the weighted arithmetic mean,
  ``OR`` nodes the weighted geometric mean, applied recursively with
  re-normalization between levels (paper section 5.2), and
* the multi-window visualization -- the user sees one window per top-level
  part and can "double click" any inner operator box to open a separate
  visualization for that subpart (paper section 4.4).

Every node carries a *weight* used by its parent when combining, which is
how the query specification interface's weighting factors are represented.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.query.fingerprint import stable_fingerprint
from repro.query.predicates import Predicate
from repro.storage.table import Table

__all__ = [
    "QueryNode",
    "PredicateLeaf",
    "AndNode",
    "OrNode",
    "NotNode",
    "SubqueryNode",
    "NodePath",
    "check_weight",
]

#: Address of a node inside the expression tree: a tuple of child indices.
NodePath = tuple[int, ...]


def check_weight(weight: float) -> float:
    """Return ``weight`` if it is a valid weighting factor (raises ``ValueError``)."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight}")
    return weight


class QueryNode:
    """Base class of all expression-tree nodes."""

    def __init__(self, weight: float = 1.0, label: str | None = None):
        self.weight = check_weight(weight)
        self._label = label

    # -- structure ------------------------------------------------------ #
    @property
    def children(self) -> Sequence["QueryNode"]:
        """Child nodes (empty for leaves)."""
        return ()

    @property
    def is_leaf(self) -> bool:
        """True for nodes without children."""
        return not self.children

    def find(self, path: NodePath) -> "QueryNode":
        """Return the node addressed by ``path`` (a tuple of child indices)."""
        node: QueryNode = self
        for index in path:
            children = node.children
            if not 0 <= index < len(children):
                raise IndexError(f"invalid node path {path!r} at index {index}")
            node = children[index]
        return node

    def iter_nodes(self, prefix: NodePath = ()) -> Iterator[tuple[NodePath, "QueryNode"]]:
        """Yield ``(path, node)`` pairs in pre-order."""
        yield prefix, self
        for i, child in enumerate(self.children):
            yield from child.iter_nodes(prefix + (i,))

    def iter_leaves(self, prefix: NodePath = ()) -> Iterator[tuple[NodePath, "PredicateLeaf"]]:
        """Yield ``(path, leaf)`` for every predicate leaf, in left-to-right order."""
        for path, node in self.iter_nodes(prefix):
            if isinstance(node, PredicateLeaf):
                yield path, node

    def leaf_count(self) -> int:
        """Number of predicate leaves (the paper's ``#sp``)."""
        return sum(1 for _ in self.iter_leaves())

    def depth(self) -> int:
        """Height of the tree (a single leaf has depth 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)

    # -- evaluation ------------------------------------------------------ #
    def exact_mask(self, table: Table) -> np.ndarray:
        """Classical boolean evaluation: True where the condition is fulfilled."""
        raise NotImplementedError

    # -- identity --------------------------------------------------------- #
    def source_fingerprint(self) -> str:
        """Identity of this node's *raw* evaluation, excluding weights.

        Leaves override this with their predicate's fingerprint; the value
        keys the engine cache of raw (pre-normalization) distance columns,
        which weight changes must not invalidate.
        """
        return stable_fingerprint(type(self).__name__)

    def fingerprint(self) -> str:
        """Stable identity of the full (sub)tree, including weights.

        The fingerprint changes whenever a predicate parameter, a weighting
        factor or the tree structure changes -- i.e. exactly when cached
        evaluation results for this subtree become invalid.
        """
        return stable_fingerprint(
            type(self).__name__,
            self.weight,
            self.source_fingerprint(),
            *[child.fingerprint() for child in self.children],
        )

    # -- presentation ---------------------------------------------------- #
    @property
    def label(self) -> str:
        """Short label used for window titles (settable at construction)."""
        return self._label if self._label is not None else self.describe()

    def describe(self) -> str:
        """Human-readable rendering of the (sub)expression."""
        raise NotImplementedError

    def with_weight(self, weight: float) -> "QueryNode":
        """Return ``self`` after setting a new weighting factor (chainable)."""
        self.weight = check_weight(weight)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class PredicateLeaf(QueryNode):
    """A leaf wrapping one selection predicate (a single Condition box)."""

    def __init__(self, predicate: Predicate, weight: float = 1.0, label: str | None = None):
        super().__init__(weight=weight, label=label)
        self.predicate = predicate

    def exact_mask(self, table: Table) -> np.ndarray:
        return self.predicate.exact_mask(table)

    def source_fingerprint(self) -> str:
        return self.predicate.fingerprint()

    def describe(self) -> str:
        return self.predicate.describe()


class _CompositeNode(QueryNode):
    """Shared implementation of AND / OR nodes."""

    _joiner = "?"

    def __init__(self, children: Sequence[QueryNode], weight: float = 1.0,
                 label: str | None = None):
        super().__init__(weight=weight, label=label)
        children = list(children)
        if len(children) < 1:
            raise ValueError(f"{type(self).__name__} needs at least one child")
        self._children = children

    @property
    def children(self) -> Sequence[QueryNode]:
        return tuple(self._children)

    def add(self, child: QueryNode) -> None:
        """Append another child (incremental query specification)."""
        self._children.append(child)

    def replace_child(self, index: int, child: QueryNode) -> None:
        """Replace the child at ``index`` (used by interactive modification)."""
        self._children[index] = child

    def child_weights(self) -> np.ndarray:
        """Weights of the children, in order."""
        return np.array([c.weight for c in self._children], dtype=float)

    def describe(self) -> str:
        parts = []
        for child in self._children:
            text = child.describe()
            if not child.is_leaf:
                text = f"({text})"
            parts.append(text)
        return f" {self._joiner} ".join(parts)


class AndNode(_CompositeNode):
    """Conjunction; distances combine via the weighted arithmetic mean."""

    _joiner = "AND"

    def exact_mask(self, table: Table) -> np.ndarray:
        mask = np.ones(len(table), dtype=bool)
        for child in self.children:
            mask &= child.exact_mask(table)
        return mask


class OrNode(_CompositeNode):
    """Disjunction; distances combine via the weighted geometric mean."""

    _joiner = "OR"

    def exact_mask(self, table: Table) -> np.ndarray:
        mask = np.zeros(len(table), dtype=bool)
        for child in self.children:
            mask |= child.exact_mask(table)
        return mask


class NotNode(QueryNode):
    """Negation.

    The paper notes that negations generally yield no distance values; the
    only exception is a negated comparison operator, which can be rewritten
    by inverting the operator.  :meth:`simplify` performs that rewrite where
    possible; the relevance engine refuses to colour other negations.
    """

    def __init__(self, child: QueryNode, weight: float = 1.0, label: str | None = None):
        super().__init__(weight=weight, label=label)
        self.child = child

    @property
    def children(self) -> Sequence[QueryNode]:
        return (self.child,)

    def exact_mask(self, table: Table) -> np.ndarray:
        return ~self.child.exact_mask(table)

    def describe(self) -> str:
        inner = self.child.describe()
        if not self.child.is_leaf:
            inner = f"({inner})"
        return f"NOT {inner}"

    def simplify(self) -> QueryNode:
        """Rewrite ``NOT (a op b)`` into the inverted comparison if possible.

        Raises ``ValueError`` when the child cannot be inverted, mirroring
        the paper's statement that such negations provide no distances.
        """
        if isinstance(self.child, PredicateLeaf):
            inverted = self.child.predicate.inverted()
            return PredicateLeaf(inverted, weight=self.weight, label=self._label)
        raise ValueError(
            "cannot simplify NOT over a composite expression; "
            "no distance values can be obtained for such negations"
        )


class SubqueryNode(QueryNode):
    """A leaf whose distances come from an arbitrary callable.

    This is the hook used for nested ``EXISTS`` / ``IN`` subqueries and for
    approximate joins evaluated against a derived (cross-product) table: the
    callable receives the table under evaluation and returns the signed
    distance per data item.  ``exact`` receives the table and returns the
    boolean fulfilment mask.
    """

    def __init__(self, describe: str,
                 distances: Callable[[Table], np.ndarray],
                 exact: Callable[[Table], np.ndarray],
                 weight: float = 1.0, label: str | None = None):
        super().__init__(weight=weight, label=label)
        self._describe = describe
        self._distances = distances
        self._exact = exact

    def exact_mask(self, table: Table) -> np.ndarray:
        return np.asarray(self._exact(table), dtype=bool)

    def source_fingerprint(self) -> str:
        # Callables have no structural identity; key them by object id so a
        # reused SubqueryNode hits the cache and a replaced one recomputes.
        return stable_fingerprint(
            "subquery", self._describe, self._distances, self._exact
        )

    def signed_distances(self, table: Table) -> np.ndarray:
        """Signed distances supplied by the wrapped callable."""
        return np.asarray(self._distances(table), dtype=float)

    def describe(self) -> str:
        return self._describe
