"""Mean-variance hedging by least-squares projection.

Strategies are identified by their gains paths ("S-equivalence"); the
solvers return the minimal-norm coordinate representative.  The terminal
gains map is materialised as a matrix over strategy coordinates, one
d-vector per non-terminal node, and all projections are carried out in
the probability-weighted inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class GainsOperator:
    """Linear map from strategy coordinates to gains.

    ``terminal[r, c]`` is the terminal gain at leaf row ``r`` of one unit
    in coordinate ``c``; ``paths[n, c]`` the gains-path value at node ``n``.
    Coordinate ``c`` corresponds to ``cols[c] = (node, asset)``.
    """

    tree: FiltrationTree
    prices: np.ndarray
    cols: list[tuple[int, int]]
    terminal: np.ndarray
    paths: np.ndarray

    def theta_from_coords(self, x: np.ndarray) -> np.ndarray:
        nodes, assets = np.array(self.cols, dtype=int).reshape(-1, 2).T
        theta = np.zeros((self.tree.n_nodes, self.prices.shape[1]))
        theta[nodes, assets] = x
        return theta


def _as_matrix(prices) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    return prices[:, None] if prices.ndim == 1 else prices


def build_gains_operator(tree: FiltrationTree, prices) -> GainsOperator:
    prices = _as_matrix(prices)
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


def _weighted_lstsq(tree, a, b):
    w = np.sqrt(tree.leaf_probs)
    x, *_ = np.linalg.lstsq(w[:, None] * a, w * b, rcond=RCOND)
    resid = a @ x - b
    return x, float(tree.leaf_probs @ resid**2)


def solve_mvh(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> MvhSolution:
    """Minimise E[(theta . S_T - h)^2]; minimal-norm coordinates."""
    op = build_gains_operator(tree, prices)
    h = np.asarray(h, dtype=float)
    x, err = _weighted_lstsq(tree, op.terminal, h)
    return MvhSolution(
        theta=op.theta_from_coords(x),
        sq_error=err,
        unique=uniqueness_of_gains(tree, prices, tol),
    )


def solve_exmvh(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> MvhSolution:
    """Minimise E[(c + theta . S_T - h)^2] over the constant and the
    strategy jointly."""
    op = build_gains_operator(tree, prices)
    h = np.asarray(h, dtype=float)
    a = np.hstack([np.ones((tree.n_leaves, 1)), op.terminal])
    x, err = _weighted_lstsq(tree, a, h)
    return MvhSolution(
        theta=op.theta_from_coords(x[1:]),
        sq_error=err,
        c=float(x[0]),
        unique=uniqueness_of_values(tree, prices, tol),
    )


def pure_investment(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Hedge of the constant payoff 1; returns (strategy, minimal error)."""
    sol = solve_mvh(tree, prices, np.ones(tree.n_leaves), tol)
    return sol.theta, sol.sq_error


def c_of_H_formula(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> float:
    """Initial constant of the extended hedge via the closed form
    E[h(1 - g)] / E[(1 - g)^2] with g the terminal pure-investment gain."""
    theta1, _ = pure_investment(tree, prices, tol)
    g = stoch_integral(tree, theta1, _as_matrix(prices))[tree.leaves]
    denom = float(tree.leaf_probs @ (1.0 - g) ** 2)
    if denom <= tol:
        raise ValueError("value-process uniqueness fails")
    h = np.asarray(h, dtype=float)
    return float(tree.leaf_probs @ (h * (1.0 - g))) / denom


def uniqueness_of_gains(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> bool:
    """True iff strategies with equal terminal gains have equal gains
    paths, decided on a kernel basis of the terminal map."""
    op = build_gains_operator(tree, prices)
    w = np.sqrt(tree.leaf_probs)
    a = w[:, None] * op.terminal
    _, sv, vt = np.linalg.svd(a, full_matrices=True)
    cutoff = RCOND * (sv[0] if len(sv) else 0.0)
    rank = int(np.sum(sv > cutoff))
    for v in vt[rank:]:
        if np.max(np.abs(op.paths @ v)) > tol:
            return False
    return True


def uniqueness_of_values(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> bool:
    """Uniqueness of gains plus a strictly positive pure-investment error."""
    if not uniqueness_of_gains(tree, prices, tol):
        return False
    _, ell = pure_investment(tree, prices, tol)
    return ell > tol


def zero_solves_mvh_iff(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> dict:
    """Check both sides of the zero-hedge characterisation: the zero
    strategy is optimal for ``h`` iff Z S^j is a martingale for all j,
    where Z is the martingale closed by ``h``."""
    prices = _as_matrix(prices)
    h = np.asarray(h, dtype=float)
    sol = solve_mvh(tree, prices, h, tol)
    err_at_zero = float(tree.leaf_probs @ h**2)
    zero_optimal = err_at_zero - sol.sq_error <= tol
    z = martingale_from_terminal(tree, h)
    zs_mart = all(
        is_martingale(tree, z * prices[:, j], tol)[1]
        for j in range(prices.shape[1])
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
    prices = _as_matrix(prices)
    if not uniqueness_of_values(tree, prices, tol):
        raise ValueError("opportunity process needs uniqueness of value processes")
    h_bar = np.asarray(h_bar, dtype=float)
    op = build_gains_operator(tree, prices)

    col_nodes = np.array([m for m, _ in op.cols], dtype=int)
    L = np.ones(tree.n_nodes)
    v_bar = np.zeros(tree.n_nodes)
    v_bar[tree.leaves] = h_bar
    started: dict[int, np.ndarray] = {}
    for n in tree.nonterminal():
        n = int(n)
        sub = tree.descendants(n)
        col_ids = np.flatnonzero(sub[col_nodes])
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
    m0 = L * (1.0 - stoch_integral(tree, theta0, prices))
    return OpportunityProcess(
        L=L, v_bar=v_bar, theta0=theta0, m0=m0, started=started
    )
