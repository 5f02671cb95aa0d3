from dataclasses import replace

import numpy as np
import pytest

from mveq import (
    AgentSpec,
    LinearMV,
    Quadratic,
    Scenario,
    agent_frontier,
    aggregate_endowment,
    gamma_bar_fixed_point,
    mv_efficiency_check,
    optimal_mv_strategy,
    solve_linear_mv,
    solve_quadratic,
    stoch_integral,
    total_endowment,
    verify_fixed_point,
)
from mveq.generate import generate_random_scenario
from mveq.quadratic import _constant_strategy, _full_eta

from dense_oracle import DenseGains


def with_lambda(s, lam):
    return Scenario(
        tree=s.tree, d1=s.d1, d2=s.d2, s0_fin=s.s0_fin, m_fin=s.m_fin,
        dividends=s.dividends,
        agents=[AgentSpec(a.eta2, a.xi_n, LinearMV(lam)) for a in s.agents],
    )


def brute_force_min_variance(s, prices, k, target_mean):
    """Oracle: minimum variance over all strategies hitting the target mean,
    via the stationarity system of the constrained least-squares problem."""
    tree = s.tree
    xi = total_endowment(s, k)
    p = tree.leaf_probs
    a = DenseGains(tree, prices).terminal
    q = a.T @ (p[:, None] * a)
    m1 = a.T @ p  # E[column gains]
    b = a.T @ (p * xi)
    # minimise E[(xi + Ax)^2] - mean^2 subject to E[xi + Ax] = target_mean
    kkt = np.block([[q, m1[:, None]], [m1[None, :], np.zeros((1, 1))]])
    rhs = np.concatenate([-b, [target_mean - float(p @ xi)]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=1e-10)
    v = xi + a @ sol[:-1]
    mean = float(p @ v)
    var = float(p @ (v - mean) ** 2)
    return mean, var


def test_gamma_bar_fixed_point(scen_b):
    gamma_bar, gamma_bar_0, exists = gamma_bar_fixed_point(scen_b)
    assert gamma_bar == pytest.approx(2.5)
    assert gamma_bar_0 == pytest.approx(2.0)
    assert exists
    # tiny risk tolerance: 0.1 < esssup - mean = 0.5
    g, g0, exists = gamma_bar_fixed_point(with_lambda(scen_b, 0.1))
    assert (g, g0) == (pytest.approx(1.6), pytest.approx(2.0))
    assert not exists


def test_gamma_bar_deterministic_endowment(coin_tree):
    s = Scenario(
        tree=coin_tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=np.array([[1.0], [1.0]]),
        agents=[AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0], preference=LinearMV(0.01))],
    )
    _, g0, exists = gamma_bar_fixed_point(s)
    assert g0 == pytest.approx(1.0)
    assert exists  # any positive risk tolerance works


def test_gamma_bar_rejects_negative_endowment(coin_tree):
    s = Scenario(
        tree=coin_tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=np.array([[1.0], [1.0]]),
        agents=[AgentSpec(eta2=[1.0], xi_n=[-5.0, 0.0], preference=LinearMV(1.0))],
    )
    with pytest.raises(ValueError):
        gamma_bar_fixed_point(s)


def test_solve_linear_mv_scen_b(scen_b):
    report = solve_linear_mv(scen_b)
    assert report.exists
    assert report.prices[0, 0] == pytest.approx(1.25, abs=1e-12)
    assert report.ell == pytest.approx(0.8, abs=1e-12)
    assert report.c_k[0] == pytest.approx(1.25, abs=1e-12)
    assert report.eps2_k[0] == pytest.approx(0.0, abs=1e-14)
    assert report.y_k[0] == pytest.approx(1.25, abs=1e-12)
    assert report.fp_residual <= 1e-12
    assert report.identity_residual <= 1e-12
    assert report.clearing_residual <= 1e-12
    assert not report.trivial_regime


def in_units(s, k):
    """``s`` with every money amount multiplied by ``k``."""
    return replace(s, s0_fin=s.s0_fin * k, m_fin=s.m_fin * k, dividends=s.dividends * k,
                   agents=[AgentSpec(a.eta2, a.xi_n * k, LinearMV(a.preference.lam * k))
                           for a in s.agents])


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_trivial_regime_invariant_under_money_unit(seed):
    s = generate_random_scenario(seed, horizon=3, branching=3, d1=1, d2=1, n_agents=2,
                                 preference_kind="linear_mv")
    # agent 0's income offsets the others': the aggregate endowment is
    # constant up to round-off, so is the density at the boundary level
    a0 = s.agents[0]
    xi_0 = a0.xi_n - aggregate_endowment(s) + 2.0
    flat = replace(s, agents=[AgentSpec(a0.eta2, xi_0, a0.preference), *s.agents[1:]])
    for market, trivial in ((s, False), (flat, True)):
        for k in (1.0, 1e-6, 1e5):
            report = solve_linear_mv(in_units(market, k))
            assert report.exists
            assert report.trivial_regime == trivial, k


def test_solve_linear_mv_nonexistent(scen_b):
    report = solve_linear_mv(with_lambda(scen_b, 0.1))
    assert not report.exists
    assert report.prices is None


def test_trivial_regime_deterministic_endowment(coin_tree):
    s = Scenario(
        tree=coin_tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=np.array([[1.0], [1.0]]),
        agents=[AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0], preference=LinearMV(2.0))],
    )
    report = solve_linear_mv(s)
    assert report.trivial_regime
    assert report.ell == pytest.approx(1.0)
    # martingale prices: constant dividend prices at 1 throughout
    np.testing.assert_allclose(report.prices[:, 0], 1.0, atol=1e-12)
    assert report.fp_residual <= 1e-12


def test_two_agent_split_same_prices(scen_b):
    split = Scenario(
        tree=scen_b.tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=scen_b.dividends,
        agents=[
            AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0], preference=LinearMV(0.5)),
            AgentSpec(eta2=[0.0], xi_n=[0.0, 0.0], preference=LinearMV(0.5)),
        ],
    )
    one = solve_linear_mv(scen_b)
    two = solve_linear_mv(split)
    assert two.gamma_bar == pytest.approx(one.gamma_bar)
    np.testing.assert_allclose(two.prices, one.prices, atol=1e-12)
    assert two.clearing_residual <= 1e-12


def test_agent_frontier_scen_b(scen_b):
    report = solve_linear_mv(scen_b)
    front = agent_frontier(scen_b, report.prices, 0)
    assert front.point(0.0) == (pytest.approx(1.25), pytest.approx(0.0))
    for y in (0.5, 1.0, 2.0):
        mean, stdev = front.point(y)
        assert mean == pytest.approx(1.25 + 0.2 * y)
        assert stdev == pytest.approx(0.4 * y)


def test_optimal_strategy_scaling(scen_b):
    prices = solve_linear_mv(scen_b).prices
    y1, theta1 = optimal_mv_strategy(scen_b, prices, 0)
    assert y1 == pytest.approx(1.25)
    doubled = with_lambda(scen_b, 2.0)
    y2, _ = optimal_mv_strategy(doubled, prices, 0)
    assert y2 == pytest.approx(2 * y1)


def test_mv_efficiency_check(scen_b):
    from mveq.mvh import pure_investment, solve_exmvh

    prices = solve_linear_mv(scen_b).prices
    tree = scen_b.tree
    _, theta = optimal_mv_strategy(scen_b, prices, 0)
    assert mv_efficiency_check(scen_b, prices, theta, 0)

    theta1, _ = pure_investment(tree, prices)
    ex = solve_exmvh(tree, prices, total_endowment(scen_b, 0))
    base = _constant_strategy(tree, _full_eta(scen_b, 0)) - ex.theta
    assert mv_efficiency_check(scen_b, prices, base, 0)  # y = 0
    assert not mv_efficiency_check(scen_b, prices, base - theta1, 0)  # y = -1


def test_verify_fixed_point_scen_b(scen_b):
    prices = solve_linear_mv(scen_b).prices
    res = verify_fixed_point(scen_b, prices, 2.5)
    assert res["fp_residual"] <= 1e-12
    assert res["identity_residual"] <= 1e-12


def test_verify_fixed_point_requires_value_uniqueness(scen_b):
    # a deterministic price step makes the constant 1 attainable: ell = 0
    prices = np.array([[0.5], [1.0], [1.0]])
    with pytest.raises(ValueError, match="fixed-point check requires uniqueness"):
        verify_fixed_point(scen_b, prices, 2.5)


def test_quadratic_optimum_is_mv_efficient(scen_b):
    # a quadratic agent with bliss point gamma >= c_k trades on the same
    # frontier with y = gamma - c_k
    from mveq import Quadratic, individual_optimal

    prices = solve_linear_mv(scen_b).prices
    front = agent_frontier(scen_b, prices, 0)
    for gamma in (1.25, 2.0, 4.0):
        quad = Scenario(
            tree=scen_b.tree, d1=0, d2=1, s0_fin=np.zeros(0),
            m_fin=np.zeros((3, 0)), dividends=scen_b.dividends,
            agents=[AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0],
                              preference=Quadratic(gamma))],
        )
        theta, _ = individual_optimal(quad, prices, 0)
        assert mv_efficiency_check(quad, prices, theta, 0, 1e-8)


def test_frontier_against_brute_force():
    s = generate_random_scenario(101, horizon=2, branching=3, d1=1, d2=1,
                                 n_agents=2, preference_kind="linear_mv")
    report = solve_linear_mv(s)
    assert report.exists
    front = agent_frontier(s, report.prices, 0)
    for y in np.linspace(0.0, 2.0, 10):
        target = front.mean(y)
        _, var = brute_force_min_variance(s, report.prices, 0, target)
        assert var == pytest.approx(front.stdev(y) ** 2, abs=1e-7)


def test_dominance_against_random_competitors(scen_b):
    report = solve_linear_mv(scen_b)
    tree = scen_b.tree
    lam = 1.0
    theta = report.strategies[0]
    xi = total_endowment(scen_b, 0)

    def score(net):
        # wealth = endowment payoff + gains of the net trade
        v = stoch_integral(tree, net, report.prices)[tree.leaves] + xi
        mean = float(tree.leaf_probs @ v)
        var = float(tree.leaf_probs @ (v - mean) ** 2)
        return mean - var / (2 * lam)

    best = score(theta - _constant_strategy(tree, _full_eta(scen_b, 0)))
    rng = np.random.default_rng(8)
    for _ in range(200):
        comp = rng.uniform(-3, 3, size=theta.shape)
        assert score(comp) <= best + 1e-10


@pytest.mark.parametrize("shape", [
    dict(horizon=3, branching=3, d1=1, d2=1, n_agents=3),
    dict(horizon=2, branching=3, d1=2, d2=2, n_agents=2),
], ids=["h3-b3-d1-d1-k3", "h2-b3-d2-d2-k2"])
def test_linear_mv_is_quadratic_at_fixed_point_tolerances(shape):
    # a linear mean-variance equilibrium is the quadratic equilibrium of the
    # same market whose agents' risk tolerances are gamma_k = c_k + lam_k/ell
    solved = 0
    for seed in range(40):
        s = generate_random_scenario(seed, preference_kind="linear_mv", **shape)
        lin = solve_linear_mv(s)
        if not lin.exists:
            continue
        quad = Scenario(
            tree=s.tree, d1=s.d1, d2=s.d2, s0_fin=s.s0_fin, m_fin=s.m_fin,
            dividends=s.dividends,
            agents=[AgentSpec(a.eta2, a.xi_n, Quadratic(c + a.preference.lam / lin.ell))
                    for a, c in zip(s.agents, lin.c_k)],
        )
        report = solve_quadratic(quad)
        assert report.verdict == "Equilibrium", seed
        scale = max(1.0, float(np.max(np.abs(lin.prices))))
        np.testing.assert_allclose(report.prices, lin.prices, rtol=0, atol=1e-12 * scale)
        gains = [stoch_integral(s.tree, theta, lin.prices)
                 for theta in (*lin.strategies, *report.agent_strategies)]
        k = len(s.agents)
        for a, b in zip(gains[:k], gains[k:]):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-11 * scale)
        solved += 1
    assert solved > 0
