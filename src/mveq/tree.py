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

Tree sweeps work on the ``parent`` array and the per-time node lists
``nodes_at``: :meth:`FiltrationTree.child_mean`, ``E[y_child | node]`` at
every node at once, and :meth:`FiltrationTree.accumulate`, the forward
sweep ``out[c] = out[parent[c]] + inc[c]`` level by level from the root.
The backward sweep :meth:`FiltrationTree.backward`, which closes
martingales from their leaf values level by level from the horizon, and
the hedging engine, which factors each node's children jointly, read
the children from :meth:`FiltrationTree.child_table` instead, one padded
table per level.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FiltrationTree"]


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
        self._child_table = None

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

    def child_table(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per time ``t < horizon``, the nodes at ``t`` and their children:
        row ``i`` of the ``(len(nodes), width)`` table lists the children
        of ``nodes[i]`` in increasing id order, padded with ``n_nodes`` (one
        past the last node id) to the widest row.  Built once per tree;
        raises like :meth:`child_mean` where conditional probabilities are
        undefined."""
        if self._bad_node is not None:
            raise ValueError(f"node {self._bad_node} has nonpositive probability")
        if self._child_table is None:
            n, parent = self.n_nodes, self.parent
            counts = np.bincount(parent[1:], minlength=n)
            first = np.cumsum(counts) - counts
            # children grouped by parent (stable: by id within a group)
            order = np.argsort(parent[1:], kind="stable") + 1
            slot = np.empty(n, dtype=int)
            slot[order] = np.arange(n - 1) - first[parent[order]]
            row = np.empty(n, dtype=int)
            cond = np.append(self.cond_prob, 0.0)
            self._child_table, self._child_probs = [], []
            for nodes, kids in zip(self.nodes_at[:-1], self.nodes_at[1:]):
                row[nodes] = np.arange(len(nodes))
                table = np.full((len(nodes), counts[nodes].max()), n)
                table[row[parent[kids]], slot[kids]] = kids
                self._child_table.append((nodes, table))
                # for backward(): the table transposed, one row per child
                # slot, and the children's conditional probabilities; one
                # more column of padding keeps NumPy from summing a lone
                # node's children pairwise instead of one after another
                slots = np.ascontiguousarray(np.vstack([table, np.full(table.shape[1], n)]).T)
                self._child_probs.append((nodes, slots, cond[slots][:, :, None]))
        return self._child_table

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
        self.child_table()
        x_leaf = np.asarray(x_leaf, dtype=float)
        n = self.n_nodes
        # row n pads the child tables: value 0, probability 0
        out = np.zeros((n + 1,) + x_leaf.shape[1:])
        out[self.leaves] = x_leaf
        flat = out.reshape(n + 1, -1)
        if growth is not None:
            growth = np.append(growth, 1.0)[:, None]
        for nodes, kids, probs in reversed(self._child_probs):
            y = flat[kids] if growth is None else growth[kids] * flat[kids]
            flat[nodes] = np.add.reduce(probs * y, axis=0, initial=0.0)[:-1]
        return out[:-1]

    def accumulate(self, x: np.ndarray, start: int = 0, op=np.add) -> np.ndarray:
        """Forward sweep in place: ``x[c] = op(x[parent[c]], x[c])`` for
        every node after time ``start``, level by level from the root.
        Entries at times up to ``start`` are left as they are.  ``x`` has
        shape ``(n_nodes,)`` or ``(n_nodes, m)``; the columns of the
        latter are swept one after another, since gathering whole rows
        costs several times as much as gathering single values.  Returns
        ``x``."""
        steps = [(lvl, self.parent[lvl]) for lvl in self.nodes_at[start + 1 :]]
        for col in x.reshape(len(x), -1).T:
            for lvl, par in steps:
                col[lvl] = op(col[par], col[lvl])
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
