"""Mean-variance hedging by least-squares projection.

Strategies are identified by their gains paths ("S-equivalence"); the
solvers return the minimal-norm coordinate representative.  The terminal
gains map is materialised as a matrix over strategy coordinates, one
d-vector per non-terminal node, that :class:`GainsOperator` factors once in
the probability-weighted inner product: every hedge, uniqueness test and
closed-form extended-hedge constant ``E[h(1 - g)] / ell`` comes from it.
Functions taking ``prices`` here, in ``quadratic`` and in ``linear_mv``
also accept the operator of those prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .scenario import DEFAULT_TOL
from .stoch import is_martingale, martingale_from_terminal, stoch_integral
from .tree import FiltrationTree

__all__ = [
    "GainsOperator",
    "MvhSolution",
    "OpportunityProcess",
    "build_gains_operator",
    "solve_mvh",
    "solve_exmvh",
    "c_of_H_formula",
    "pure_investment",
    "uniqueness_of_gains",
    "uniqueness_of_values",
    "zero_solves_mvh_iff",
    "opportunity_process",
]

RCOND = 1e-10


@dataclass
class GainsOperator:
    """Linear map from strategy coordinates to gains, factored once.

    ``terminal[r, c]`` is the terminal gain at leaf row ``r`` of one unit
    in coordinate ``c``; ``paths[n, c]`` the gains-path value at node ``n``.
    Coordinate ``c`` corresponds to ``cols[c] = (node, asset)``.  One SVD
    of the weighted ``terminal`` (cut at ``RCOND``) gives the pure-investment
    hedge ``theta1``, its error ``ell`` and ``kernel_gap``, the largest
    gains-path entry of an orthonormal kernel basis of ``terminal``.
    """

    tree: FiltrationTree
    prices: np.ndarray
    cols: list[tuple[int, int]]
    terminal: np.ndarray
    paths: np.ndarray

    def __post_init__(self):
        self.col_node, self.col_asset = np.array(self.cols, dtype=int).reshape(-1, 2).T
        w = np.sqrt(self.tree.leaf_probs)
        u, sv, vt = np.linalg.svd(w[:, None] * self.terminal, full_matrices=True)
        rank = int(np.sum(sv > RCOND * (sv[0] if len(sv) else 0.0)))
        # pseudo-inverse: payoff -> minimal-norm coordinates of its hedge
        self._pinv = (vt[:rank].T / sv[:rank]) @ (w[:, None] * u[:, :rank]).T
        self.kernel_gap = float(np.max(np.abs(self.paths @ vt[rank:].T), initial=0.0))
        x1 = self._pinv @ np.ones(self.tree.n_leaves)
        self._g1 = self.terminal @ x1
        self.ell = float(self.tree.leaf_probs @ (1.0 - self._g1) ** 2)
        self.theta1 = self.theta_from_coords(x1)
        self.theta1.flags.writeable = False

    def theta_from_coords(self, x: np.ndarray) -> np.ndarray:
        theta = np.zeros((self.tree.n_nodes, self.prices.shape[1]))
        theta[self.col_node, self.col_asset] = x
        return theta

    def unique_gains(self, tol: float) -> bool:
        """See :func:`uniqueness_of_gains`."""
        return self.kernel_gap <= tol

    def unique_values(self, tol: float) -> bool:
        """See :func:`uniqueness_of_values`."""
        return self.unique_gains(tol) and self.ell > tol

    def hedge(self, h, tol: float) -> MvhSolution:
        """See :func:`solve_mvh`."""
        x = self._pinv @ h
        err = float(self.tree.leaf_probs @ (self.terminal @ x - h) ** 2)
        return MvhSolution(self.theta_from_coords(x), err, unique=self.unique_gains(tol))

    def hedge_ex(self, h, tol: float) -> MvhSolution:
        """See :func:`solve_exmvh`; the constant is E[h(1 - g)] / ell with g
        the terminal pure-investment gain."""
        if self.ell <= tol:
            raise ValueError("value-process uniqueness fails")
        h = np.asarray(h, dtype=float)
        c = float(self.tree.leaf_probs @ (h * (1.0 - self._g1))) / self.ell
        return replace(self.hedge(h - c, tol), c=c)


def build_gains_operator(tree: FiltrationTree, prices) -> GainsOperator:
    prices = np.asarray(prices, dtype=float)
    if prices.ndim == 1:
        prices = prices[:, None]
    d = prices.shape[1]
    nonterminal = tree.nonterminal()
    cols = [(int(n), j) for n in nonterminal for j in range(d)]
    # first coordinate of each non-terminal node's block of d columns
    first = np.zeros(tree.n_nodes, dtype=int)
    first[nonterminal] = d * np.arange(len(nonterminal))
    step = tree.increments(prices)
    # a node's gains row is its parent's plus its own step in the parent's
    # coordinates, filled level by level from the root
    paths = np.zeros((tree.n_nodes, len(cols)))
    for lvl in tree.nodes_at[1:]:
        up = tree.parent[lvl]
        paths[lvl] = paths[up]
        paths[lvl[:, None], first[up][:, None] + np.arange(d)] = step[lvl]
    terminal = paths[tree.leaves]
    return GainsOperator(
        tree=tree, prices=prices, cols=cols, terminal=terminal, paths=paths
    )


@dataclass(frozen=True)
class MvhSolution:
    """Least-squares hedge: strategy, optional initial constant, attained
    squared error and a uniqueness diagnostic."""

    theta: np.ndarray
    sq_error: float
    c: float | None = None
    unique: bool = False


def _as_operator(tree: FiltrationTree, prices) -> GainsOperator:
    """``prices`` if it is an operator already, else its operator."""
    if isinstance(prices, GainsOperator):
        return prices
    return build_gains_operator(tree, prices)


def solve_mvh(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> MvhSolution:
    """Minimise E[(theta . S_T - h)^2]; minimal-norm coordinates."""
    return _as_operator(tree, prices).hedge(h, tol)


def solve_exmvh(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> MvhSolution:
    """Minimise E[(c + theta . S_T - h)^2] over the constant and the
    strategy jointly; raises ``ValueError`` where the constant is not
    unique (pure-investment error at most ``tol``)."""
    return _as_operator(tree, prices).hedge_ex(h, tol)


def pure_investment(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Hedge of the constant payoff 1; returns (strategy, minimal error)."""
    op = _as_operator(tree, prices)
    return op.theta1, op.ell


def c_of_H_formula(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> float:
    """Initial constant of the extended hedge via the closed form
    E[h(1 - g)] / E[(1 - g)^2] with g the terminal pure-investment gain."""
    return _as_operator(tree, prices).hedge_ex(h, tol).c


def uniqueness_of_gains(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> bool:
    """True iff strategies with equal terminal gains have equal gains
    paths, decided on a kernel basis of the terminal map."""
    return _as_operator(tree, prices).unique_gains(tol)


def uniqueness_of_values(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> bool:
    """Uniqueness of gains plus a strictly positive pure-investment error."""
    return _as_operator(tree, prices).unique_values(tol)


def zero_solves_mvh_iff(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> dict:
    """Check both sides of the zero-hedge characterisation: the zero
    strategy is optimal for ``h`` iff Z S^j is a martingale for all j,
    where Z is the martingale closed by ``h``."""
    op = _as_operator(tree, prices)
    h = np.asarray(h, dtype=float)
    sol = op.hedge(h, tol)
    err_at_zero = float(tree.leaf_probs @ h**2)
    zero_optimal = err_at_zero - sol.sq_error <= tol
    z = martingale_from_terminal(tree, h)
    zs_mart = all(
        is_martingale(tree, z * op.prices[:, j], tol)[1]
        for j in range(op.prices.shape[1])
    )
    return {"zero_optimal": bool(zero_optimal), "zs_martingale": bool(zs_mart)}


@dataclass(frozen=True)
class OpportunityProcess:
    """Dynamic value of the pure investment problem, per node, with the
    mean value process of a target payoff and the per-node restarted
    optimal strategies."""

    L: np.ndarray
    v_bar: np.ndarray
    theta0: np.ndarray
    m0: np.ndarray
    started: dict[int, np.ndarray] = field(default_factory=dict)


def opportunity_process(
    tree: FiltrationTree, prices, h_bar, tol: float = DEFAULT_TOL
) -> OpportunityProcess:
    """Solve the conditional pure-investment problem on every subtree.

    ``L`` is the per-node minimal conditional squared error (a (0,1]-valued
    submartingale with value 1 at the horizon); ``v_bar`` the mean value
    process of ``h_bar``.  Requires uniqueness of value processes.
    """
    op = _as_operator(tree, prices)
    if not op.unique_values(tol):
        raise ValueError("opportunity process needs uniqueness of value processes")
    h_bar = np.asarray(h_bar, dtype=float)

    L = np.ones(tree.n_nodes)
    v_bar = np.zeros(tree.n_nodes)
    v_bar[tree.leaves] = h_bar
    started: dict[int, np.ndarray] = {}
    for n in tree.nonterminal():
        n = int(n)
        sub = tree.descendants(n)
        col_ids = np.flatnonzero(sub[op.col_node])
        rows = np.flatnonzero(sub[tree.leaves])
        a = op.terminal[np.ix_(rows, col_ids)]
        cond_p = tree.leaf_probs[rows] / tree.prob[n]
        w = np.sqrt(cond_p)
        x, *_ = np.linalg.lstsq(w[:, None] * a, w, rcond=RCOND)
        gains = a @ x
        L[n] = float(cond_p @ (1.0 - gains) ** 2)
        v_bar[n] = float(cond_p @ (h_bar[rows] * (1.0 - gains))) / L[n]
        full = np.zeros(len(op.cols))
        full[col_ids] = x
        started[n] = op.theta_from_coords(full)

    theta0 = started[0]
    m0 = L * (1.0 - stoch_integral(tree, theta0, op.prices))
    return OpportunityProcess(
        L=L, v_bar=v_bar, theta0=theta0, m0=m0, started=started
    )
