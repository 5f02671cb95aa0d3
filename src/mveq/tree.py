"""Finite event trees encoding the probability space and filtration.

Conventions used throughout the package:

* Nodes carry integer ids ``0 .. n_nodes-1`` with node 0 the unique root
  (time 0).  Children ids are strictly larger than their parent's id;
  sibling ids need not be contiguous and children lists may come in any
  order.
* All leaves sit at the horizon ``T``; the time-t nodes are the atoms of
  the time-t sigma-algebra.
* An *adapted* scalar process is a ``numpy`` array of shape ``(n_nodes,)``;
  a d-dimensional one has shape ``(n_nodes, d)``.
* A *predictable* process for the increment over ``(t-1, t]`` is stored on
  the time-(t-1) node, i.e. it is an array of shape ``(n_nodes, d)`` whose
  entries are only meaningful at non-terminal nodes.
* A *leaf-indexed* vector lists one value per leaf, in increasing order of
  the leaf node ids.

Tree sweeps work on the ``parent`` array and on one level plan per tree
(:meth:`FiltrationTree.levels`, built on first use): per time step, the
nodes, their padded children table, the children's conditional
probabilities and their square roots, and the parents of the next
level's nodes.  :meth:`FiltrationTree.child_mean` gives ``E[y_child |
node]`` at every node at once; :meth:`FiltrationTree.accumulate`, the
forward sweep ``out[c] = out[parent[c]] + inc[c]``, runs level by level
from the root; :meth:`FiltrationTree.backward` closes martingales from
their leaf values level by level from the horizon.  The hedging engine
and the GKW projection of :mod:`mveq.mvh`, which factor each node's
children jointly, read the same plan.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["FiltrationTree"]


class Level(NamedTuple):
    """One time step ``t -> t + 1`` of a tree's level plan."""

    nodes: np.ndarray  # the nodes at time t
    kids: np.ndarray  # (len(nodes), b) their children, padded with n_nodes
    sqrt_p: np.ndarray  # (len(nodes), b) sqrt of the children's conditional probabilities
    slots: np.ndarray  # (b, len(nodes) + 1) kids transposed, one more padding column
    probs: np.ndarray  # (b, len(nodes) + 1, 1) conditional probabilities at slots
    below: np.ndarray  # the nodes at time t + 1
    parents: np.ndarray  # the parent of each of them


class FiltrationTree:
    """Event tree with leaf probabilities.

    Parameters
    ----------
    children:
        ``children[i]`` lists the ids of the children of node ``i`` (empty
        for leaves).  Node 0 must be the root and every child id must be
        strictly larger than its parent's id.
    leaf_probs:
        One probability per leaf, in increasing order of leaf node ids.
        Positivity and summing to 1 are checked by scenario validation,
        not here; interior node probabilities are always the sum of their
        children's.
    """

    def __init__(self, children, leaf_probs):
        self.children = [list(map(int, cs)) for cs in children]
        n = len(self.children)
        if n == 0:
            raise ValueError("tree must have at least the root node")
        parent = np.full(n, -1, dtype=int)
        for i, cs in enumerate(self.children):
            for c in cs:
                if not i < c < n:
                    raise ValueError(f"child id {c} of node {i} out of order")
                if parent[c] != -1:
                    raise ValueError(f"node {c} has two parents")
                parent[c] = i
        if np.any(parent[1:] == -1):
            raise ValueError("tree is disconnected")
        self.parent = parent

        self.time = np.zeros(n, dtype=int)
        for i in range(1, n):
            self.time[i] = self.time[parent[i]] + 1
        self.horizon = int(self.time.max()) if n > 1 else 0
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

        has_children = np.array([bool(cs) for cs in self.children])
        self.leaves = np.flatnonzero(~has_children)
        if np.any(self.time[self.leaves] != self.horizon):
            raise ValueError("all leaves must sit at the horizon")
        self._nonterminal = np.flatnonzero(has_children)
        self._nonterminal.flags.writeable = False

        leaf_probs = np.asarray(leaf_probs, dtype=float)
        if leaf_probs.shape != (len(self.leaves),):
            raise ValueError(
                f"expected {len(self.leaves)} leaf probabilities, "
                f"got {leaf_probs.shape}"
            )
        self.leaf_probs = leaf_probs

        # position of each leaf in the leaf ordering; -1 for interior nodes
        self.leaf_row = np.full(n, -1, dtype=int)
        self.leaf_row[self.leaves] = np.arange(len(self.leaves))

        self.prob = np.zeros(n)
        self.prob[self.leaves] = leaf_probs
        # finite leaf probabilities may sum past the float range: the inf
        # is left for scenario validation to report
        with np.errstate(over="ignore"):
            for i in range(n - 1, 0, -1):
                self.prob[parent[i]] += self.prob[i]

        self.nodes_at = [
            np.flatnonzero(self.time == t) for t in range(self.horizon + 1)
        ]

        # conditional probability of each node given its parent (1 at the
        # root); when a non-terminal node has nonpositive probability the
        # steps out of it are undefined and child_mean raises instead.  The
        # children of a node of infinite (or NaN) probability get NaN, left
        # for scenario validation to report
        bad = self._nonterminal[self.prob[self._nonterminal] <= 0]
        self._bad_node = int(bad[0]) if len(bad) else None
        self.cond_prob = np.ones(n)
        if self._bad_node is None:
            p_parent = self.prob[parent[1:]]
            self.cond_prob[1:] = np.nan
            np.divide(self.prob[1:], p_parent, out=self.cond_prob[1:],
                      where=np.isfinite(p_parent))
        self._plan: list[Level] | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.children)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def nonterminal(self) -> np.ndarray:
        """Ids of all nodes strictly before the horizon (read-only)."""
        return self._nonterminal

    def child_weights(self, node: int) -> np.ndarray:
        """Conditional probabilities of the children given the node."""
        cs = self.children[node]
        p = self.prob[node]
        if p <= 0:
            raise ValueError(f"node {node} has nonpositive probability")
        return self.prob[cs] / p

    def increments(self, x) -> np.ndarray:
        """One-step increments ``x[c] - x[parent[c]]`` of an adapted
        process, one per node (0 at the root)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[1:] = x[1:] - x[self.parent[1:]]
        return out

    def child_mean(self, y) -> np.ndarray:
        """Conditional mean ``E[y_child | node]`` of a child-indexed array
        (shape ``(n_nodes, ...)``; the root entry is ignored), at every
        node at once; 0 at the leaves."""
        if self._bad_node is not None:
            raise ValueError(f"node {self._bad_node} has nonpositive probability")
        y = np.asarray(y, dtype=float)
        n = self.n_nodes
        cols = y.reshape(n, -1)[1:] * self.cond_prob[1:, None]
        m = cols.shape[1]
        # column j of node i goes to bin i * m + j: one bincount for all columns
        bins = self.parent[1:] if m == 1 else (self.parent[1:, None] * m + np.arange(m)).ravel()
        return np.bincount(bins, weights=cols.ravel(), minlength=n * m).reshape(y.shape)

    def levels(self) -> list[Level]:
        """The level plan: one :class:`Level` per time ``t < horizon``.
        Row ``i`` of a level's ``kids`` lists the children of
        ``nodes[i]`` in increasing id order, padded with ``n_nodes`` (one
        past the last node id) to the widest row; ``sqrt_p`` is 0 at the
        padding.  Built once per tree; raises like :meth:`child_mean`
        where conditional probabilities are undefined."""
        if self._bad_node is not None:
            raise ValueError(f"node {self._bad_node} has nonpositive probability")
        return self._levels()

    def _levels(self) -> list[Level]:
        """The level plan, also where conditional probabilities are
        undefined (for :meth:`accumulate`, which reads only the
        parents)."""
        if self._plan is None:
            n, parent = self.n_nodes, self.parent
            counts = np.bincount(parent[1:], minlength=n)
            first = np.cumsum(counts) - counts
            # children grouped by parent (stable: by id within a group)
            order = np.argsort(parent[1:], kind="stable") + 1
            slot = np.empty(n, dtype=int)
            slot[order] = np.arange(n - 1) - first[parent[order]]
            row = np.empty(n, dtype=int)
            cond = np.append(self.cond_prob, 0.0)
            # a negative leaf probability, left for validation to report,
            # gives a NaN square root
            with np.errstate(invalid="ignore"):
                sqrt_p = np.sqrt(cond)
            self._plan = []
            for nodes, below in zip(self.nodes_at[:-1], self.nodes_at[1:]):
                row[nodes] = np.arange(len(nodes))
                kids = np.full((len(nodes), counts[nodes].max()), n)
                kids[row[parent[below]], slot[below]] = below
                # for backward(): the table transposed, one row per child
                # slot; one more column of padding keeps NumPy from summing
                # a lone node's children pairwise instead of one after another
                slots = np.ascontiguousarray(np.vstack([kids, np.full(kids.shape[1], n)]).T)
                lv = Level(nodes, kids, sqrt_p[kids], slots, cond[slots][:, :, None],
                           below, parent[below])
                for a in lv:  # shared by every sweep of the tree
                    a.flags.writeable = False
                self._plan.append(lv)
        return self._plan

    def backward(self, x_leaf, growth=None) -> np.ndarray:
        """Backward sweep from the leaf values ``x_leaf`` (shape
        ``(n_leaves, ...)``): each non-terminal node gets ``E[growth_c y_c |
        node]`` over its children's values ``y_c``, level by level from the
        horizon, with ``growth`` one factor per node (1 if omitted).  Each
        level reads its own children only, all columns at once, so a sweep
        costs O(nodes) per column.  The children are added one after
        another in increasing id order, as :meth:`child_mean`'s bincount
        does, so the values have its bits.  Raises like
        :meth:`child_mean` where conditional probabilities are
        undefined."""
        levels = self.levels()
        x_leaf = np.asarray(x_leaf, dtype=float)
        n = self.n_nodes
        # row n pads the child tables: value 0, probability 0
        out = np.zeros((n + 1,) + x_leaf.shape[1:])
        out[self.leaves] = x_leaf
        flat = out.reshape(n + 1, -1)
        if growth is not None:
            growth = np.append(growth, 1.0)[:, None]
        for lv in reversed(levels):
            y = flat[lv.slots] if growth is None else growth[lv.slots] * flat[lv.slots]
            flat[lv.nodes] = np.add.reduce(lv.probs * y, axis=0, initial=0.0)[:-1]
        return out[:-1]

    def accumulate(self, x: np.ndarray, start: int = 0, op=np.add) -> np.ndarray:
        """Forward sweep in place: ``x[c] = op(x[parent[c]], x[c])`` for
        every node after time ``start``, level by level from the root.
        Entries at times up to ``start`` are left as they are.  ``x`` has
        shape ``(n_nodes,)`` or ``(n_nodes, m)``; the columns of the
        latter are swept one after another, since gathering whole rows
        costs several times as much as gathering single values.  Returns
        ``x``."""
        steps = self._levels()[start:]
        for col in x.reshape(len(x), -1).T:
            for lv in steps:
                col[lv.below] = op(col[lv.parents], col[lv.below])
        return x

    def descendants(self, node: int) -> np.ndarray:
        """Boolean mask of the subtree rooted at ``node`` (inclusive)."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[node] = True
        return self.accumulate(mask, int(self.time[node]), np.logical_or)

    def path(self, node: int) -> list[int]:
        """Node ids from the root to ``node`` inclusive."""
        out = [node]
        while out[-1] != 0:
            out.append(int(self.parent[out[-1]]))
        return out[::-1]

    def subtree(self, node: int) -> np.ndarray:
        """Ids of all nodes in the subtree rooted at ``node``."""
        return np.flatnonzero(self.descendants(node))
