"""Dense gains matrix of a price system: a test oracle for ``mveq.mvh``.

``DenseGains`` materialises the linear map from strategy coordinates (one
d-vector per non-terminal node, in the order of ``tree.nonterminal()``)
to gains: ``paths[n, c]`` is the gains-path value at node ``n`` of one unit
in coordinate ``c`` and ``terminal`` its rows at the leaves.  Every hedge
is then one weighted least-squares solve, and gains uniqueness is the
kernel criterion: no kernel vector of ``terminal`` has a nonzero gains
path.  It costs O(nodes^2 d) memory, so it is for small trees only.
"""

import numpy as np

from mveq.mvh import RCOND


class DenseGains:
    def __init__(self, tree, prices):
        prices = np.asarray(prices, dtype=float)
        if prices.ndim == 1:
            prices = prices[:, None]
        self.tree, self.prices = tree, prices
        d = prices.shape[1]
        nonterminal = tree.nonterminal()
        self.cols = [(int(n), j) for n in nonterminal for j in range(d)]
        # first coordinate of each non-terminal node's block of d columns
        first = np.zeros(tree.n_nodes, dtype=int)
        first[nonterminal] = d * np.arange(len(nonterminal))
        step = tree.increments(prices)
        # a node's gains row is its parent's plus its own step in the
        # parent's coordinates, filled level by level from the root
        self.paths = np.zeros((tree.n_nodes, len(self.cols)))
        for lvl in tree.nodes_at[1:]:
            up = tree.parent[lvl]
            self.paths[lvl] = self.paths[up]
            self.paths[lvl[:, None], first[up][:, None] + np.arange(d)] = step[lvl]
        self.terminal = self.paths[tree.leaves]
        self._w = np.sqrt(tree.leaf_probs)

    def theta_from_coords(self, x):
        theta = np.zeros((self.tree.n_nodes, self.prices.shape[1]))
        theta[tuple(np.array(self.cols, dtype=int).reshape(-1, 2).T)] = x
        return theta

    def kernel_gap(self) -> float:
        """Largest gains-path entry of an orthonormal kernel basis of the
        weighted terminal map (singular values cut at ``RCOND``)."""
        _, sv, vt = np.linalg.svd(self._w[:, None] * self.terminal, full_matrices=True)
        rank = int(np.sum(sv > RCOND * (sv[0] if len(sv) else 0.0)))
        return float(np.max(np.abs(self.paths @ vt[rank:].T), initial=0.0))

    def hedge(self, h):
        """Minimal-norm coordinates of the least-squares hedge of ``h``."""
        x, *_ = np.linalg.lstsq(self._w[:, None] * self.terminal, self._w * h,
                                rcond=RCOND)
        return x

    def exhedge(self, h):
        """Constant and coordinates of the joint least-squares fit of ``h``
        by a constant plus a terminal gain."""
        a = np.hstack([np.ones((self.tree.n_leaves, 1)), self.terminal])
        x, *_ = np.linalg.lstsq(self._w[:, None] * a, self._w * h, rcond=RCOND)
        return float(x[0]), x[1:]
