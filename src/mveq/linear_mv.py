"""Linear mean-variance equilibria via the closed-form fixed point.

A linear mean-variance equilibrium coincides with the quadratic
equilibrium whose aggregate risk tolerance solves a one-line fixed-point
equation: the sum of the agents' risk tolerances plus the expected
aggregate endowment.  It exists in the solved class iff that value
exceeds the essential supremum of the aggregate endowment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mvh import GainsOperator, _as_operator
from .quadratic import (
    AggregateState,
    _constant_strategy,
    _density_martingales,
    _full_eta,
    _gains,
    clearing_residual,
    construct_prices,
)
from .scenario import DEFAULT_TOL, LinearMV, Scenario, aggregate_endowment, total_endowment
from .stoch import _bracket
from .tree import FiltrationTree

__all__ = [
    "FrontierData",
    "MvEquilibriumReport",
    "gamma_bar_fixed_point",
    "solve_linear_mv",
    "agent_frontier",
    "optimal_mv_strategy",
    "mv_efficiency_check",
    "verify_fixed_point",
]


@dataclass(frozen=True)
class FrontierData:
    """Efficient frontier of one agent, parametrised by the speculative
    exposure y >= 0."""

    ell: float
    c_k: float
    eps2_k: float

    def mean(self, y: float) -> float:
        return self.c_k + (1.0 - self.ell) * y

    def stdev(self, y: float) -> float:
        return float(np.sqrt(self.eps2_k + self.ell * (1.0 - self.ell) * y**2))

    def point(self, y: float) -> tuple[float, float]:
        return self.mean(y), self.stdev(y)


@dataclass
class MvEquilibriumReport:
    gamma_bar: float
    gamma_bar_0: float
    exists: bool
    prices: np.ndarray | None = None
    ell: float = float("nan")
    c_k: list[float] = field(default_factory=list)
    eps2_k: list[float] = field(default_factory=list)
    y_k: list[float] = field(default_factory=list)
    strategies: list[np.ndarray] = field(default_factory=list)
    fp_residual: float = float("nan")
    identity_residual: float = float("nan")
    clearing_residual: float = float("nan")
    trivial_regime: bool = False


def _lambdas(s: Scenario) -> list[float]:
    lams = []
    for a in s.agents:
        if not isinstance(a.preference, LinearMV):
            raise ValueError("linear mean-variance solver requires LinearMV agents only")
        lams.append(a.preference.lam)
    return lams


def gamma_bar_fixed_point(
    s: Scenario, tol: float = DEFAULT_TOL, xi_bar=None
) -> tuple[float, float, bool]:
    """Aggregate risk tolerance of the candidate equilibrium, the essential
    supremum of the aggregate endowment, and the existence flag.
    ``xi_bar`` is the aggregate endowment of ``s`` if the caller has it."""
    lams = _lambdas(s)
    xi_bar = aggregate_endowment(s) if xi_bar is None else xi_bar
    if np.min(xi_bar) < -tol:
        raise ValueError("aggregate endowment must be nonnegative")
    mean_xi = float(s.tree.leaf_probs @ xi_bar)
    gamma_bar = float(sum(lams)) + mean_xi
    gamma_bar_0 = float(np.max(xi_bar))
    return gamma_bar, gamma_bar_0, gamma_bar > gamma_bar_0 + tol


def _is_trivial_regime(tree: FiltrationTree, mart, z0, z0_scale: float, tol: float) -> bool:
    """All asset martingales ``mart`` (one column each: the financial
    martingale parts, then the martingales closed by the dividends)
    strongly orthogonal to the density ``z0`` at the boundary tolerance
    level: prices are martingales for every choice of risk tolerances.

    Each bracket ``E_n[dM dZ0]`` is compared with ``tol max|M| z0_scale``,
    where ``z0_scale`` is the size of the payoff terms closing ``z0``
    (``gamma_bar_0`` and the aggregate endowment).  Both factors are
    levels, not increments, so the decision does not depend on the money
    unit, and an ``M`` or ``z0`` that is constant up to round-off counts
    as orthogonal."""
    scale = tol * np.max(np.abs(mart), axis=0) * z0_scale
    return not np.any(np.abs(_bracket(tree, mart, np.asarray(z0)[:, None])) > scale)


def solve_linear_mv(s: Scenario, tol: float = DEFAULT_TOL) -> MvEquilibriumReport:
    """Construct and cross-check the linear mean-variance equilibrium."""
    xi_bar = aggregate_endowment(s)
    gamma_bar, gamma_bar_0, exists = gamma_bar_fixed_point(s, tol, xi_bar)
    report = MvEquilibriumReport(
        gamma_bar=gamma_bar, gamma_bar_0=gamma_bar_0, exists=exists
    )
    if not exists:
        return report

    tree = s.tree
    h_bar = gamma_bar - xi_bar
    # the density, the productive numerators, the density at the boundary
    # level and the dividend martingales, from one sweep
    z_bar, num, more = _density_martingales(tree, h_bar, s.dividends,
                                            gamma_bar_0 - xi_bar, s.dividends)
    # the quadratic equilibrium at the fixed-point risk tolerance
    agg = AggregateState(gamma_bar, xi_bar, h_bar, z_bar, s.eta_bar(), num)
    prices = construct_prices(s, tol, agg)
    report.prices = prices
    report.trivial_regime = _is_trivial_regime(
        tree, np.column_stack([s.m_fin, more[:, 1:]]), more[:, 0],
        max(abs(gamma_bar_0), float(np.max(np.abs(xi_bar)))), tol)

    op = _as_operator(tree, prices)
    report.ell = op.ell
    for y_k, theta, ex in _mv_strategies(s, op, range(len(s.agents)), tol):
        report.c_k.append(ex.c)
        report.eps2_k.append(ex.sq_error)
        report.y_k.append(y_k)
        report.strategies.append(theta)

    fp = verify_fixed_point(s, op, gamma_bar, tol, xi_bar)
    report.fp_residual = fp["fp_residual"]
    report.identity_residual = fp["identity_residual"]
    report.clearing_residual = clearing_residual(s, prices, report.strategies)
    return report


def _endowments(s: Scenario, ks) -> np.ndarray:
    """Terminal endowments of the agents ``ks``, one column each."""
    return np.reshape([total_endowment(s, k) for k in ks], (-1, s.tree.n_leaves)).T


def agent_frontier(
    s: Scenario, prices, k: int, tol: float = DEFAULT_TOL
) -> FrontierData:
    """Closed-form efficient frontier of agent ``k`` under the given
    prices; requires uniqueness of value processes.  Read off the sweep
    of every agent's endowment, the one the solve's hedge ran."""
    return _frontiers(s, _as_operator(s.tree, prices), tol)[k]


def _frontiers(s: Scenario, op: GainsOperator, tol: float) -> list[FrontierData]:
    """:func:`agent_frontier` of every agent from one backward sweep:
    ``c_k`` is the mean value of the endowment at the root, ``eps2_k`` its
    squared error around it."""
    if not op.unique_values(tol):
        raise ValueError("frontier requires uniqueness of value processes")
    v_bar, eps2 = op.values(_endowments(s, range(len(s.agents))))
    return [FrontierData(ell=op.ell, c_k=float(c), eps2_k=float(e))
            for c, e in zip(v_bar[0], eps2)]


def optimal_mv_strategy(
    s: Scenario, prices, k: int, tol: float = DEFAULT_TOL
) -> tuple[float, np.ndarray]:
    """Optimal strategy lam_k/ell units of the pure-investment hedge on
    top of holding the endowment and hedging the income."""
    y_k, theta, _ = _mv_strategies(s, _as_operator(s.tree, prices), [k], tol)[0]
    return y_k, theta


def _mv_strategies(s: Scenario, op: GainsOperator, ks, tol: float):
    """``(y_k, theta_k, extended hedge of the endowment)`` of the agents
    ``ks`` (see :func:`optimal_mv_strategy`) from one hedge sweep."""
    if not op.unique_values(tol):
        raise ValueError("optimal strategy requires uniqueness of value processes")
    out = []
    for k, ex in zip(ks, op.hedges(_endowments(s, ks), tol, extended=True)):
        y_k = s.agents[k].preference.lam / op.ell
        theta = y_k * op.theta1 + _constant_strategy(s.tree, _full_eta(s, k)) - ex.theta
        out.append((y_k, theta, ex))
    return out


def mv_efficiency_check(
    s: Scenario, prices, theta, k: int, tol: float = DEFAULT_TOL
) -> bool:
    """Decide whether ``theta`` is mean-variance efficient for agent ``k``:
    its centred part must be a nonnegative multiple of the pure-investment
    hedge at the gains-path level, and its mean/stdev must sit on the
    frontier."""
    tree = s.tree
    op = _as_operator(tree, prices)
    if not op.unique_values(tol):
        raise ValueError("efficiency check requires uniqueness of value processes")
    ex = op.hedge_ex(total_endowment(s, k), tol)

    net = theta - _constant_strategy(tree, _full_eta(s, k))
    gains = _gains(tree, [net + ex.theta, op.theta1, net], op.prices)
    g_centred, g_one = gains[:, 0], gains[:, 1]
    denom = float(tree.leaf_probs @ g_one[tree.leaves] ** 2)
    if denom <= tol:
        y = 0.0
    else:
        y = float(tree.leaf_probs @ (g_centred[tree.leaves] * g_one[tree.leaves])) / denom
    if y < -tol:
        return False
    y = max(y, 0.0)
    if np.max(np.abs(g_centred - y * g_one)) > tol:
        return False

    front = FrontierData(ell=op.ell, c_k=ex.c, eps2_k=ex.sq_error)
    v = gains[tree.leaves, 2] + total_endowment(s, k)
    mean_v = float(tree.leaf_probs @ v)
    var_v = float(tree.leaf_probs @ (v - mean_v) ** 2)
    return (
        abs(mean_v - front.mean(y)) <= tol
        and abs(var_v - (front.eps2_k + op.ell * (1.0 - op.ell) * y**2)) <= tol
    )


def verify_fixed_point(
    s: Scenario, prices, gamma_bar: float, tol: float = DEFAULT_TOL, xi_bar=None
) -> dict:
    """Residuals of the fixed-point equation and of the structural
    identity linking the pure-investment error, the aggregate hedging
    constants and the mean aggregate endowment; needs unique value
    processes.  ``xi_bar`` is the aggregate endowment of ``s`` if the
    caller has it."""
    tree = s.tree
    op = _as_operator(tree, prices)
    if not op.unique_values(tol):
        raise ValueError("fixed-point check requires uniqueness of value processes")
    lams = _lambdas(s)
    cs = op.constants(_endowments(s, range(len(s.agents))))
    fp = abs(gamma_bar - sum(c + lam / op.ell for c, lam in zip(cs, lams)))
    xi_bar = aggregate_endowment(s) if xi_bar is None else xi_bar
    mean_xi = float(tree.leaf_probs @ xi_bar)
    ident = abs((gamma_bar - mean_xi) - (gamma_bar - sum(cs)) * op.ell)
    return {"fp_residual": float(fp), "identity_residual": float(ident)}
