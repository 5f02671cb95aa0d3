"""Quadratic-utility equilibria: construction, necessary conditions and
first-principles verification.

The aggregate density process is the martingale closed by the aggregate
bliss-point shortfall.  When it never vanishes the equilibrium is unique
and given in closed form; when it hits zero, prices are built with a
restarted multiplicative reconstruction and existence hinges on two
nodewise necessary conditions.  :func:`construct_prices` picks the route
from the density itself; :func:`solve_quadratic` checks the conditions
first and proves nonexistence where they fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mvh import GainsOperator, _as_operator
from .scenario import (
    DEFAULT_TOL,
    Quadratic,
    Scenario,
    aggregate_endowment,
    total_endowment,
)
from .stoch import (
    _bracket,
    _check_martingale,
    _vanishing,
    is_martingale,
    martingale_from_terminal,
    restarted_exponential,
    stoch_integral,
)
from .tree import FiltrationTree

__all__ = [
    "AggregateState",
    "EquilibriumReport",
    "aggregate",
    "construct_prices",
    "check_necessary_conditions",
    "individual_optimal",
    "representative_check",
    "verify_equilibrium",
    "solve_quadratic",
]


@dataclass(frozen=True)
class AggregateState:
    gamma_bar: float
    xi_bar: np.ndarray  # per leaf
    h_bar: np.ndarray  # per leaf
    z_bar: np.ndarray  # per node
    eta_bar: np.ndarray  # length d1 + d2, zeros on the financial block
    num: np.ndarray  # per node and productive asset: E[h_bar D_j | F_n]


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
    """Representative-agent data: aggregate risk tolerance, endowment, the
    density martingale and the numerators of the productive prices."""
    gammas = []
    for a in s.agents:
        if not isinstance(a.preference, Quadratic):
            raise ValueError("aggregate requires quadratic preferences only")
        gammas.append(a.preference.gamma)
    gamma_bar = float(sum(gammas))
    xi_bar = aggregate_endowment(s)
    h_bar = gamma_bar - xi_bar
    z_bar, num, _ = _density_martingales(s.tree, h_bar, s.dividends)
    return AggregateState(
        gamma_bar=gamma_bar,
        xi_bar=xi_bar,
        h_bar=h_bar,
        z_bar=z_bar,
        eta_bar=s.eta_bar(),
        num=num,
    )


def _density_martingales(tree, h_bar, dividends, *more):
    """From one backward sweep: the density martingale closed by
    ``h_bar``, the numerators ``E[h_bar D_j | F_n]`` of the productive
    prices (one column per dividend column) and the martingales closed by
    the leaf columns ``more``."""
    dividends = np.asarray(dividends, dtype=float).reshape(tree.n_leaves, -1)
    h_bar = np.asarray(h_bar, dtype=float)
    d2 = dividends.shape[1]
    mart = martingale_from_terminal(
        tree, np.column_stack([h_bar, h_bar[:, None] * dividends, *more]))
    return np.ascontiguousarray(mart[:, 0]), mart[:, 1:d2 + 1], mart[:, d2 + 1:]


def _restarted(z_bar, tol: float) -> bool:
    """Whether the density vanishes at some node, so that prices take the
    restarted construction.  A density holding a NaN keeps the closed
    form."""
    dead, alive = _vanishing(z_bar, tol)
    return bool(np.any(dead) and np.all(dead | alive))


def _financial_prices(tree, s0_fin, m_fin, z_bar, tol):
    """Martingale part plus the equilibrium drift -d<Z, M> / Z; the drift
    increment is switched off wherever the density vanishes."""
    alive = _vanishing(z_bar, tol)[1]
    da = np.zeros_like(m_fin)
    np.divide(-_bracket(tree, z_bar[:, None], m_fin), z_bar[:, None], out=da,
              where=alive[:, None])
    a = np.zeros_like(m_fin)
    a[1:] = da[tree.parent[1:]]
    return s0_fin + m_fin + tree.accumulate(a)


def _productive_prices_degenerate(tree, dividends, z_bar, tol):
    """Backward recursion pricing with the restarted exponential: each
    node prices the dividend under the multiplicative restart of the
    density at that node."""
    z_prev = z_bar[tree.parent[1:]]
    growth = np.ones(tree.n_nodes)
    np.divide(z_bar[1:], z_prev, out=growth[1:], where=_vanishing(z_prev, tol)[1])
    return tree.backward(dividends, growth)


def construct_prices(
    s: Scenario, tol: float = DEFAULT_TOL, agg: AggregateState | None = None
) -> np.ndarray:
    """Equilibrium price system of ``s``: in closed form where the density
    never vanishes, else by the restarted construction, which gives
    equilibrium prices only where :func:`check_necessary_conditions`
    passes.  ``agg`` is :func:`aggregate` of ``s`` if the caller has it;
    the linear mean-variance solver passes that of its fixed-point risk
    tolerance."""
    agg = aggregate(s) if agg is None else agg
    tree, z_bar = s.tree, agg.z_bar
    blocks = []
    if s.d1 > 0:
        for j in range(s.d1):
            _check_martingale(tree, s.m_fin[:, j], tol, f"m[{j}]")
        blocks.append(_financial_prices(tree, s.s0_fin, s.m_fin, z_bar, tol))
    if s.d2 > 0:
        if _restarted(z_bar, tol):
            blocks.append(_productive_prices_degenerate(tree, s.dividends, z_bar, tol))
        else:
            blocks.append(agg.num / z_bar[:, None])
    return np.hstack(blocks)


def check_necessary_conditions(
    s: Scenario, tol: float = DEFAULT_TOL, agg: AggregateState | None = None
) -> dict:
    """Nodewise existence conditions on the set where the density process
    vanishes.  Returns per-condition failure lists and an overall flag."""
    agg = aggregate(s) if agg is None else agg
    tree = s.tree
    cond_xi: list[tuple[int, int, float]] = []
    cond_g: list[tuple[int, int, float]] = []

    dead = _vanishing(agg.z_bar, tol)[0]
    dead[tree.leaves] = False

    if s.d1 > 0:
        for j in range(s.d1):
            _check_martingale(tree, s.m_fin[:, j], tol, f"m[{j}]")
        # d<Z, M_i> = (xi^T d<M>)_i with xi the GKW integrand of Z on M
        val = _bracket(tree, agg.z_bar[:, None], s.m_fin)
        for n, i in np.argwhere(dead[:, None] & (np.abs(val) > tol)):
            cond_xi.append((int(n), int(i), float(val[n, i])))

    for j in range(s.d2):
        num = agg.num[:, j]
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
    whenever the pure-investment error is positive: ``c_k`` is the
    initial constant of the extended hedge of the endowment and
    ``decomposition_gap`` the largest gap between the gains of the optimum
    and of ``eta - (hedge of xi_k) + (gamma_k - c_k) theta1``.
    """
    tree = s.tree
    op = _as_operator(tree, prices)
    gamma, xi = s.agents[k].preference.gamma, total_endowment(s, k)
    ex = op.unique_values(tol)
    # the shortfall from capital 0; the endowment with a free constant,
    # where that constant is unique
    cols = [gamma - xi] + ([xi] if ex else [])
    sols = op.hedges(np.reshape(cols, (-1, tree.n_leaves)).T, tol, [False, True][:len(cols)])
    eta = _constant_strategy(tree, _full_eta(s, k))
    theta = sols[0].theta + eta
    report = {"mvh_sq_error": sols[0].sq_error, "unique": sols[0].unique}
    if ex:
        e = sols[1]
        gap = theta - (eta - e.theta + (gamma - e.c) * op.theta1)
        report["c_k"] = e.c
        report["decomposition_gap"] = float(np.max(np.abs(_gains(tree, [gap], op.prices))))
    return theta, report


def _optima(s: Scenario, op: GainsOperator, tol: float, extra=None):
    """Every agent's optimum (see :func:`individual_optimal`) and the
    hedge of the payoff ``extra``, if given, from one hedge sweep: the
    bliss-point shortfalls (one leaf vector per agent), the hedges of the
    shortfalls, then of ``extra``, and the optimal strategies."""
    tree = s.tree
    short = [a.preference.gamma - total_endowment(s, k) for k, a in enumerate(s.agents)]
    cols = short + ([] if extra is None else [extra])
    n = len(cols)
    # one payoff column would take NumPy's matrix-vector products, whose
    # round-off differs from the matrix-matrix ones of a batch: a lone
    # column is hedged twice, so that a lone agent's optimum takes the
    # same products as every agent's in a larger market
    sols = op.hedges(np.reshape(cols * 2 if n == 1 else cols, (-1, tree.n_leaves)).T,
                     tol)[:n]
    thetas = [sol.theta + _constant_strategy(tree, _full_eta(s, k))
              for k, sol in enumerate(sols[:len(short)])]
    return short, sols, thetas


def _gains(tree: FiltrationTree, strategies, prices) -> np.ndarray:
    """Gains paths of a list of strategies, one column each, from one
    forward sweep."""
    prices = np.asarray(prices, dtype=float).reshape(tree.n_nodes, -1)
    return stoch_integral(tree, np.reshape(strategies, (-1,) + prices.shape), prices)


def _clearing_pair(s: Scenario, strategies) -> list[np.ndarray]:
    """The summed strategies and the aggregate supply held buy-and-hold:
    the market clears when their gains paths agree."""
    tree = s.tree
    total = sum(strategies, np.zeros((tree.n_nodes, s.d)))
    return [total, _constant_strategy(tree, s.eta_bar())]


def _last_gap(gains: np.ndarray) -> float:
    """Largest gap, over all nodes, between the last two gains paths."""
    return float(np.max(np.abs(gains[:, -2] - gains[:, -1])))


def clearing_residual(s: Scenario, prices, strategies) -> float:
    """Market clearing at the gains-path level: the largest gap, over all
    nodes, between the gains of the summed strategies and those of the
    aggregate supply held buy-and-hold."""
    return _last_gap(_gains(s.tree, _clearing_pair(s, strategies), prices))


def _clearing_verdict(clearing: float, tol: float) -> tuple[str, str]:
    """Verdict and reason that the clearing residual ``clearing`` gives."""
    if clearing <= tol:
        return "Equilibrium", ""
    return "NotEquilibrium", "clearing fails"


def _terminal_gap(s: Scenario, prices: np.ndarray) -> float:
    """Largest gap between the productive assets' terminal prices and
    their dividends (0 without productive assets); ``prices`` has one row
    per node."""
    if s.d2 == 0:
        return 0.0
    return float(np.max(np.abs(prices[s.tree.leaves, s.d1:] - s.dividends)))


def representative_check(
    s: Scenario, prices, tol: float = DEFAULT_TOL
) -> tuple[float, bool]:
    """Gains path of the summed individual optima against the
    representative agent's optimum."""
    tree = s.tree
    op = _as_operator(tree, prices)
    agg = aggregate(s)
    _, sols, thetas = _optima(s, op, tol, extra=agg.h_bar)
    total = sum(thetas, np.zeros((tree.n_nodes, s.d)))
    rep = sols[-1].theta + _constant_strategy(tree, agg.eta_bar)
    residual = _last_gap(_gains(tree, [total, rep], op.prices))
    return residual, residual <= tol


def verify_equilibrium(
    s: Scenario, prices, tol: float = DEFAULT_TOL, agg: AggregateState | None = None
) -> EquilibriumReport:
    """First-principles check of a candidate price system: recompute every
    agent's optimum and test market clearing at the gains-path level.
    ``agg`` is :func:`aggregate` of ``s`` if the caller has it."""
    tree = s.tree
    prices = np.asarray(prices, dtype=float).reshape(tree.n_nodes, s.d)
    agg = aggregate(s) if agg is None else agg

    # structural checks: terminal dividends and given martingale parts
    if _terminal_gap(s, prices) > tol:
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

    op = _as_operator(tree, prices)
    short, sols, strategies = _optima(s, op, tol)
    # the agents' hedges, then the clearing pair, from one forward sweep
    gains = _gains(tree, [sol.theta for sol in sols] + _clearing_pair(s, strategies),
                   prices)
    gaps = [float(tree.leaf_probs @ (gains[tree.leaves, k] - hk) ** 2) - sol.sq_error
            for k, (hk, sol) in enumerate(zip(short, sols))]
    clearing = _last_gap(gains)

    mart_res = 0.0
    for j in range(s.d):
        res, _ = is_martingale(tree, agg.z_bar * prices[:, j], np.inf)
        mart_res = max(mart_res, res)

    verdict, reason = _clearing_verdict(clearing, tol)
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
    """Construct the quadratic equilibrium (closed form or restarted) and
    verify it; prove nonexistence when the necessary conditions fail."""
    agg = aggregate(s)
    diagnostics: dict = {}
    if _restarted(agg.z_bar, tol):
        cond = check_necessary_conditions(s, tol, agg)
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
    prices = construct_prices(s, tol, agg)
    report = verify_equilibrium(s, prices, tol, agg)
    report.diagnostics.update(diagnostics)
    return report
