"""Quadratic-utility equilibria: construction, necessary conditions and
first-principles verification.

The aggregate density process is the martingale closed by the aggregate
bliss-point shortfall.  When it never vanishes the equilibrium is unique
and given in closed form; when it hits zero, prices are built with a
restarted multiplicative reconstruction and existence hinges on two
nodewise necessary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mvh import _as_operator, build_gains_operator
from .scenario import (
    DEFAULT_TOL,
    Quadratic,
    Scenario,
    aggregate_endowment,
    total_endowment,
)
from .stoch import (
    gkw_decompose,
    is_martingale,
    martingale_from_terminal,
    restarted_exponential,
    stoch_integral,
)
from .tree import FiltrationTree

__all__ = [
    "AggregateState",
    "EquilibriumReport",
    "NonexistenceError",
    "aggregate",
    "construct_regular",
    "construct_degenerate",
    "check_necessary_conditions",
    "clearing_residual",
    "individual_optimal",
    "representative_check",
    "verify_equilibrium",
    "solve_quadratic",
]


class NonexistenceError(ValueError):
    """Raised when a necessary existence condition provably fails."""


@dataclass(frozen=True)
class AggregateState:
    gamma_bar: float
    xi_bar: np.ndarray  # per leaf
    h_bar: np.ndarray  # per leaf
    z_bar: np.ndarray  # per node
    eta_bar: np.ndarray  # length d1 + d2, zeros on the financial block


@dataclass
class EquilibriumReport:
    verdict: str  # "Equilibrium" | "NotEquilibrium" | "NonexistenceProven"
    reason: str = ""
    prices: np.ndarray | None = None
    agent_strategies: list[np.ndarray] = field(default_factory=list)
    clearing_residual: float = float("nan")
    martingale_residual: float = float("nan")
    optimality_gaps: list[float] = field(default_factory=list)
    unique_gains: bool = False
    buy_and_hold_admissible: bool = True  # automatic on finite trees
    diagnostics: dict = field(default_factory=dict)


def aggregate(s: Scenario) -> AggregateState:
    """Representative-agent data: aggregate risk tolerance, endowment and
    the density martingale."""
    gammas = []
    for a in s.agents:
        if not isinstance(a.preference, Quadratic):
            raise ValueError("aggregate requires quadratic preferences only")
        gammas.append(a.preference.gamma)
    gamma_bar = float(sum(gammas))
    xi_bar = aggregate_endowment(s)
    h_bar = gamma_bar - xi_bar
    z_bar = martingale_from_terminal(s.tree, h_bar)
    return AggregateState(
        gamma_bar=gamma_bar,
        xi_bar=xi_bar,
        h_bar=h_bar,
        z_bar=z_bar,
        eta_bar=s.eta_bar(),
    )


def _financial_prices(tree, s0_fin, m_fin, z_bar, xi, tol, degenerate):
    """Martingale part plus the equilibrium drift.  In the degenerate
    variant the drift increment is switched off wherever the density
    vanishes."""
    alive = np.abs(z_bar) > tol
    if not degenerate and not np.all(alive[tree.nonterminal()]):
        raise ValueError("density process vanishes; use the degenerate construction")
    dm = tree.increments(m_fin)
    bracket = tree.child_mean(dm[:, :, None] * dm[:, None, :])  # E[dM_i dM_j | n]
    da = np.zeros_like(m_fin)
    np.divide(-np.einsum("ni,nij->nj", xi, bracket), z_bar[:, None], out=da,
              where=alive[:, None])
    a = np.zeros_like(m_fin)
    a[1:] = da[tree.parent[1:]]
    return s0_fin + m_fin + tree.accumulate(a)


def _productive_prices_regular(tree, h_bar, dividends, z_bar):
    d2 = dividends.shape[1]
    prices = np.zeros((tree.n_nodes, d2))
    for j in range(d2):
        num = martingale_from_terminal(tree, h_bar * dividends[:, j])
        prices[:, j] = num / z_bar
    return prices


def _productive_prices_degenerate(tree, dividends, z_bar, tol):
    """Backward recursion pricing with the restarted exponential: each
    node prices the dividend under the multiplicative restart of the
    density at that node."""
    z_prev = z_bar[tree.parent[1:]]
    growth = np.ones(tree.n_nodes)
    np.divide(z_bar[1:], z_prev, out=growth[1:], where=np.abs(z_prev) > tol)
    prices = np.zeros((tree.n_nodes, dividends.shape[1]))
    prices[tree.leaves] = dividends
    for lvl in reversed(tree.nodes_at[:-1]):
        prices[lvl] = tree.child_mean(growth[:, None] * prices)[lvl]
    return prices


def construct_prices(
    tree: FiltrationTree,
    s0_fin,
    m_fin,
    dividends,
    h_bar,
    tol: float = DEFAULT_TOL,
    degenerate: bool = False,
) -> np.ndarray:
    """Equilibrium price system for a given aggregate payoff ``h_bar``."""
    z_bar = martingale_from_terminal(tree, h_bar)
    m_fin = np.asarray(m_fin, dtype=float).reshape(tree.n_nodes, -1)
    d1 = m_fin.shape[1]
    blocks = []
    if d1 > 0:
        gkw = gkw_decompose(tree, z_bar, m_fin, tol)
        blocks.append(
            _financial_prices(
                tree, np.asarray(s0_fin, float), m_fin, z_bar, gkw.xi, tol, degenerate
            )
        )
    dividends = np.asarray(dividends, dtype=float).reshape(tree.n_leaves, -1)
    if dividends.shape[1] > 0:
        if degenerate:
            blocks.append(_productive_prices_degenerate(tree, dividends, z_bar, tol))
        else:
            if np.min(np.abs(z_bar)) <= tol:
                raise ValueError(
                    "density process vanishes; use the degenerate construction"
                )
            blocks.append(_productive_prices_regular(tree, h_bar, dividends, z_bar))
    return np.hstack(blocks)


def construct_regular(s: Scenario, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Closed-form equilibrium prices; requires the density process to be
    bounded away from zero at every node."""
    agg = aggregate(s)
    if np.min(np.abs(agg.z_bar)) <= tol:
        raise ValueError("density process vanishes; use the degenerate construction")
    return construct_prices(
        s.tree, s.s0_fin, s.m_fin, s.dividends, agg.h_bar, tol, degenerate=False
    )


def check_necessary_conditions(s: Scenario, tol: float = DEFAULT_TOL) -> dict:
    """Nodewise existence conditions on the set where the density process
    vanishes.  Returns per-condition failure lists and an overall flag."""
    agg = aggregate(s)
    tree = s.tree
    cond_xi: list[tuple[int, int, float]] = []
    cond_g: list[tuple[int, int, float]] = []

    dead = np.abs(agg.z_bar) <= tol
    dead[tree.leaves] = False

    if s.d1 > 0:
        gkw = gkw_decompose(tree, agg.z_bar, s.m_fin, tol)
        dm = tree.increments(s.m_fin)
        val = gkw.xi * tree.child_mean(dm * dm)
        for n, i in np.argwhere(dead[:, None] & (np.abs(val) > tol)):
            cond_xi.append((int(n), int(i), float(val[n, i])))

    for j in range(s.d2):
        num = martingale_from_terminal(tree, agg.h_bar * s.dividends[:, j])
        for n in np.flatnonzero(dead & (np.abs(num) > tol)):
            cond_g.append((int(n), j, float(num[n])))

    return {
        "cond_xi_failures": cond_xi,
        "cond_g_failures": cond_g,
        "passed": not cond_xi and not cond_g,
    }


def restart_martingale_failures(
    tree: FiltrationTree, z_bar, tol: float = DEFAULT_TOL
) -> list[int]:
    """Start times whose restarted exponential fails the martingale check."""
    bad = []
    for start in range(tree.horizon + 1):
        rexp = restarted_exponential(tree, z_bar, start, tol)
        if not is_martingale(tree, rexp, tol)[1]:
            bad.append(start)
    return bad


def construct_degenerate(s: Scenario, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Equilibrium prices that remain valid when the density process hits
    zero.  Raises :class:`NonexistenceError` if the necessary conditions
    fail."""
    cond = check_necessary_conditions(s, tol)
    if not cond["passed"]:
        failed = "xi" if cond["cond_xi_failures"] else "dividend"
        raise NonexistenceError(
            f"necessary condition on the {failed} side fails where the "
            "density process vanishes"
        )
    agg = aggregate(s)
    return construct_prices(
        s.tree, s.s0_fin, s.m_fin, s.dividends, agg.h_bar, tol, degenerate=True
    )


def _full_eta(s: Scenario, k: int) -> np.ndarray:
    eta = np.zeros(s.d)
    eta[s.d1:] = s.agents[k].eta2
    return eta


def _constant_strategy(tree: FiltrationTree, eta: np.ndarray) -> np.ndarray:
    theta = np.zeros((tree.n_nodes, len(eta)))
    theta[tree.nonterminal()] = eta
    return theta


def individual_optimal(
    s: Scenario, prices, k: int, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, dict]:
    """Optimal strategy of agent ``k`` against the given prices: the
    buy-and-hold endowment plus the hedge of the bliss-point shortfall.

    The report cross-checks the hedging/pure-investment decomposition
    whenever the pure-investment error is positive.
    """
    tree = s.tree
    op = _as_operator(tree, prices)
    gamma_k = s.agents[k].preference.gamma
    xi_k = total_endowment(s, k)
    hk = gamma_k - xi_k
    sol = op.hedge(hk, tol)
    theta = sol.theta + _constant_strategy(tree, _full_eta(s, k))

    report = {"mvh_sq_error": sol.sq_error, "unique": sol.unique}
    if op.unique_values(tol):
        ex = op.hedge_ex(xi_k, tol)
        alt = (
            _constant_strategy(tree, _full_eta(s, k))
            - ex.theta
            + (gamma_k - ex.c) * op.theta1
        )
        diff = stoch_integral(tree, theta, op.prices) - stoch_integral(
            tree, alt, op.prices
        )
        report["c_k"] = ex.c
        report["decomposition_gap"] = float(np.max(np.abs(diff)))
    return theta, report


def clearing_residual(s: Scenario, prices, strategies) -> float:
    """Market clearing at the gains-path level: the largest gap, over all
    nodes, between the gains of the summed strategies and those of the
    aggregate supply held buy-and-hold."""
    tree = s.tree
    total = sum(strategies, np.zeros((tree.n_nodes, s.d)))
    supply = stoch_integral(tree, _constant_strategy(tree, s.eta_bar()), prices)
    return float(np.max(np.abs(stoch_integral(tree, total, prices) - supply)))


def representative_check(
    s: Scenario, prices, tol: float = DEFAULT_TOL
) -> tuple[float, bool]:
    """Gains path of the summed individual optima against the
    representative agent's optimum."""
    tree = s.tree
    op = _as_operator(tree, prices)
    agg = aggregate(s)
    total = np.zeros((tree.n_nodes, s.d))
    for k in range(len(s.agents)):
        theta, _ = individual_optimal(s, op, k, tol)
        total += theta
    rep = op.hedge(agg.h_bar, tol).theta + _constant_strategy(tree, agg.eta_bar)
    diff = stoch_integral(tree, total, op.prices) - stoch_integral(
        tree, rep, op.prices
    )
    residual = float(np.max(np.abs(diff)))
    return residual, residual <= tol


def verify_equilibrium(
    s: Scenario, prices, tol: float = DEFAULT_TOL
) -> EquilibriumReport:
    """First-principles check of a candidate price system: recompute every
    agent's optimum and test market clearing at the gains-path level."""
    tree = s.tree
    prices = np.asarray(prices, dtype=float).reshape(tree.n_nodes, s.d)
    agg = aggregate(s)

    # structural checks: terminal dividends and given martingale parts
    term = prices[tree.leaves, s.d1:]
    if s.d2 > 0 and np.max(np.abs(term - s.dividends)) > tol:
        return EquilibriumReport(
            verdict="NotEquilibrium",
            reason="terminal prices do not match the dividends",
            prices=prices,
        )
    if s.d1 > 0:
        # the drift must be predictable: each increment equals its
        # conditional mean given the parent node
        inc = tree.increments(prices[:, : s.d1] - s.m_fin)
        spread = inc[1:] - tree.child_mean(inc)[tree.parent[1:]]
        if np.max(np.abs(spread)) > tol:
            return EquilibriumReport(
                verdict="NotEquilibrium",
                reason="financial price does not respect the given martingale part",
                prices=prices,
            )

    op = build_gains_operator(tree, prices)
    strategies = []
    gaps = []
    for k in range(len(s.agents)):
        theta, rep = individual_optimal(s, op, k, tol)
        strategies.append(theta)
        gamma_k = s.agents[k].preference.gamma
        hk = gamma_k - total_endowment(s, k)
        gains = stoch_integral(tree, theta - _constant_strategy(tree, _full_eta(s, k)), prices)
        err = float(tree.leaf_probs @ (gains[tree.leaves] - hk) ** 2)
        gaps.append(err - rep["mvh_sq_error"])

    clearing = clearing_residual(s, prices, strategies)

    mart_res = 0.0
    for j in range(s.d):
        res, _ = is_martingale(tree, agg.z_bar * prices[:, j], np.inf)
        mart_res = max(mart_res, res)

    verdict = "Equilibrium" if clearing <= tol else "NotEquilibrium"
    reason = "" if clearing <= tol else "clearing fails"
    return EquilibriumReport(
        verdict=verdict,
        reason=reason,
        prices=prices,
        agent_strategies=strategies,
        clearing_residual=clearing,
        martingale_residual=mart_res,
        optimality_gaps=gaps,
        unique_gains=op.unique_gains(tol),
    )


def solve_quadratic(s: Scenario, tol: float = DEFAULT_TOL) -> EquilibriumReport:
    """Construct the quadratic equilibrium (regular or degenerate) and
    verify it; prove nonexistence when the necessary conditions fail."""
    agg = aggregate(s)
    diagnostics: dict = {}
    degenerate = np.min(np.abs(agg.z_bar)) <= tol
    if degenerate:
        cond = check_necessary_conditions(s, tol)
        diagnostics["necessary_conditions"] = cond
        if not cond["passed"]:
            which = (
                "xi * bracket nonzero on {Z=0}"
                if cond["cond_xi_failures"]
                else "E[H D | F_t] nonzero on {Z=0}"
            )
            return EquilibriumReport(
                verdict="NonexistenceProven",
                reason=which,
                diagnostics=diagnostics,
            )
        diagnostics["restart_martingale_failures"] = restart_martingale_failures(
            s.tree, agg.z_bar, tol
        )
    prices = construct_prices(
        s.tree, s.s0_fin, s.m_fin, s.dividends, agg.h_bar, tol, degenerate
    )
    report = verify_equilibrium(s, prices, tol)
    report.diagnostics.update(diagnostics)
    return report
