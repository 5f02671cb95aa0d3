import numpy as np
import pytest

from mveq import (
    DEFAULT_TOL,
    AgentSpec,
    LinearMV,
    Quadratic,
    Scenario,
    aggregate,
    check_necessary_conditions,
    construct_prices,
    individual_optimal,
    is_martingale,
    representative_check,
    solve_linear_mv,
    solve_quadratic,
    verify_equilibrium,
)
from mveq import generate
from mveq.mvh import GainsOperator, _as_operator
from mveq.quadratic import (
    _constant_strategy,
    _financial_prices,
    _full_eta,
    _gains,
    _productive_prices_degenerate,
    restart_martingale_failures,
)
from mveq.scenario import total_endowment
from mveq.generate import generate_random_scenario


def test_aggregate_scen_a(scen_a):
    agg = aggregate(scen_a)
    assert agg.gamma_bar == pytest.approx(10.0)
    np.testing.assert_allclose(agg.h_bar, [8.0, 9.0])
    assert agg.z_bar[0] == pytest.approx(8.5)


def test_aggregate_constant_endowment(coin_tree):
    s = Scenario(
        tree=coin_tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=np.array([[1.0], [1.0]]),
        agents=[AgentSpec(eta2=[0.0], xi_n=[0.0, 0.0], preference=Quadratic(5.0))],
    )
    agg = aggregate(s)
    np.testing.assert_allclose(agg.z_bar, 5.0)


def test_aggregate_rejects_mixed_preferences(scen_a, scen_b):
    mixed = Scenario(
        tree=scen_a.tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=scen_a.dividends,
        agents=[scen_a.agents[0], scen_b.agents[0]],
    )
    with pytest.raises(ValueError):
        aggregate(mixed)


def test_construct_regular_scen_a(scen_a):
    prices = construct_prices(scen_a)
    assert prices[0, 0] == pytest.approx(25 / 17, abs=1e-12)
    np.testing.assert_allclose(prices[scen_a.tree.leaves, 0], [2.0, 1.0])


def test_construct_regular_scen_d(scen_d):
    prices = construct_prices(scen_d)
    # drift dA = -xi * E[dM^2] / Z0 = 1/2 on top of the martingale part
    np.testing.assert_allclose(prices[:, 0], [0.0, 1.5, -0.5], atol=1e-12)


def test_construct_regular_deterministic_endowment(coin_tree):
    s = Scenario(
        tree=coin_tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=np.array([[2.0], [1.0]]),
        agents=[AgentSpec(eta2=[0.0], xi_n=[1.0, 1.0], preference=Quadratic(5.0))],
    )
    prices = construct_prices(s)
    assert prices[0, 0] == pytest.approx(1.5)  # martingale price E[D]


def test_solve_rejects_a_financial_part_that_is_not_a_martingale(scen_d):
    m = scen_d.m_fin.copy()
    m[scen_d.tree.leaves[0], 0] += 0.3
    bad = Scenario(tree=scen_d.tree, d1=1, d2=0, s0_fin=scen_d.s0_fin, m_fin=m,
                   dividends=scen_d.dividends, agents=scen_d.agents)
    for call in (solve_quadratic, check_necessary_conditions):
        with pytest.raises(ValueError, match=r"m\[0\] is not a martingale"):
            call(bad)


def test_necessary_conditions(scen_a, scen_c, scen_c_prime):
    assert check_necessary_conditions(scen_a)["passed"]  # vacuous
    assert check_necessary_conditions(scen_c)["passed"]
    cond = check_necessary_conditions(scen_c_prime)
    assert not cond["passed"]
    [(node, asset, value)] = cond["cond_g_failures"]
    assert (node, asset) == (0, 0)
    assert value == pytest.approx(-0.5)


def test_construct_degenerate_matches_regular(scen_a, scen_d):
    # the restarted construction, built directly, agrees with the closed
    # form where the density never vanishes
    for s in (scen_a, scen_d):
        z_bar, tol = aggregate(s).z_bar, DEFAULT_TOL
        blocks = []
        if s.d1 > 0:
            blocks.append(_financial_prices(s.tree, s.s0_fin, s.m_fin, z_bar, tol))
        if s.d2 > 0:
            blocks.append(_productive_prices_degenerate(s.tree, s.dividends, z_bar, tol))
        np.testing.assert_allclose(np.hstack(blocks), construct_prices(s), atol=1e-12)


def test_construct_degenerate_scen_c(scen_c):
    prices = construct_prices(scen_c)
    assert prices[0, 0] == pytest.approx(1.0)
    assert not restart_martingale_failures(scen_c.tree, aggregate(scen_c).z_bar)


def test_individual_optimal_scen_a(scen_a):
    prices = construct_prices(scen_a)
    theta, report = individual_optimal(scen_a, prices, 0)
    # single agent holds the supply; hedge part vanishes at equilibrium
    np.testing.assert_allclose(theta[0], [1.0], atol=1e-12)
    assert report["decomposition_gap"] == pytest.approx(0.0, abs=1e-10)


def test_individual_optimal_scen_d(scen_d):
    prices = construct_prices(scen_d)
    theta, _ = individual_optimal(scen_d, prices, 0)
    np.testing.assert_allclose(theta[0], [0.0], atol=1e-12)


def test_representative_check_on_split(scen_a):
    prices = construct_prices(scen_a)
    split = Scenario(
        tree=scen_a.tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=scen_a.dividends,
        agents=[
            AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0], preference=Quadratic(4.0)),
            AgentSpec(eta2=[0.0], xi_n=[0.0, 0.0], preference=Quadratic(6.0)),
        ],
    )
    np.testing.assert_allclose(construct_prices(split), prices, atol=1e-12)
    residual, ok = representative_check(split, prices)
    assert ok and residual <= 1e-10


def test_verify_accepts_constructed_and_rejects_perturbed(scen_a):
    prices = construct_prices(scen_a)
    assert verify_equilibrium(scen_a, prices).verdict == "Equilibrium"
    for bump in (0.05, -0.05):
        perturbed = prices.copy()
        perturbed[0, 0] += bump
        report = verify_equilibrium(scen_a, perturbed)
        assert report.verdict == "NotEquilibrium"
        assert report.clearing_residual > 1e-6


def test_verify_rejects_wrong_terminal_prices(scen_a):
    prices = construct_prices(scen_a)
    bad = prices.copy()
    bad[1, 0] = 3.0
    report = verify_equilibrium(scen_a, bad)
    assert report.verdict == "NotEquilibrium"
    assert "terminal" in report.reason


def test_verify_rejects_wrong_martingale_part(scen_d):
    prices = construct_prices(scen_d)
    bad = prices.copy()
    bad[1, 0] += 0.3  # breaks the increment structure of M + drift
    report = verify_equilibrium(scen_d, bad)
    assert report.verdict == "NotEquilibrium"
    assert "martingale part" in report.reason


def test_verify_scen_c_non_uniqueness(scen_c):
    for s0 in (1.0, 0.5):
        prices = np.full((3, 1), s0)
        prices[scen_c.tree.leaves, 0] = 1.0
        assert verify_equilibrium(scen_c, prices).verdict == "Equilibrium"


def test_solve_quadratic_dispatch(scen_a, scen_c, scen_c_prime, scen_d):
    assert solve_quadratic(scen_a).verdict == "Equilibrium"
    assert solve_quadratic(scen_d).verdict == "Equilibrium"
    assert solve_quadratic(scen_c).verdict == "Equilibrium"
    report = solve_quadratic(scen_c_prime)
    assert report.verdict == "NonexistenceProven"
    assert not report.diagnostics["necessary_conditions"]["passed"]


def test_solve_quadratic_checks_conditions_once(scen_c, monkeypatch):
    import mveq.quadratic

    calls = []
    real = mveq.quadratic.check_necessary_conditions

    def counting_check(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(mveq.quadratic, "check_necessary_conditions", counting_check)
    report = solve_quadratic(scen_c)
    assert report.verdict == "Equilibrium"
    assert calls == [scen_c]
    np.testing.assert_array_equal(report.prices, construct_prices(scen_c))


def test_falsification_sweep_when_nonexistent(scen_c_prime):
    # no martingale-part/terminal-respecting candidate verifies
    rng = np.random.default_rng(12)
    tree = scen_c_prime.tree
    for _ in range(50):
        prices = np.zeros((3, 1))
        prices[tree.leaves, 0] = scen_c_prime.dividends[:, 0]
        prices[0, 0] = rng.uniform(-3, 3)
        assert verify_equilibrium(scen_c_prime, prices).verdict != "Equilibrium"


def test_zs_martingale_on_constructed_equilibria():
    for seed in range(5):
        s = generate_random_scenario(seed, horizon=3, branching=3, d1=1, d2=2,
                                     n_agents=2, preference_kind="quadratic")
        prices = construct_prices(s)
        z = aggregate(s).z_bar
        for j in range(s.d):
            assert is_martingale(s.tree, z * prices[:, j], 1e-8)[1]


def test_drift_independent_of_integrand_representative(coin_tree):
    # two financial assets with collinear increments: the hedge integrand is
    # non-unique, but the constructed drift must not depend on the choice
    # or on the column order
    tree = coin_tree
    m = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0]])
    div = np.zeros((2, 0))

    def build(order):
        s = Scenario(
            tree=tree, d1=2, d2=0, s0_fin=np.array([0.0, 0.0]),
            m_fin=m[:, order], dividends=div,
            agents=[AgentSpec(eta2=[], xi_n=[3.0, 1.0], preference=Quadratic(4.0))],
        )
        return construct_prices(s)[:, np.argsort(order)]

    np.testing.assert_allclose(build([0, 1]), build([1, 0]), atol=1e-12)


@pytest.mark.parametrize("seed, shape", [
    (2, dict(horizon=7, branching=3, d1=1, d2=1, n_agents=2)),  # 1,134 nodes
    (3, dict(horizon=9, branching=4, d1=1, d2=1, n_agents=3)),  # 29,079 nodes
], ids=["h7-seed2", "h9-seed3"])
def test_small_financial_variance_is_priced(seed, shape, monkeypatch):
    # both markets have nodes where the financial asset's conditional
    # variance lies below DEFAULT_TOL; the drift must still clear there
    monkeypatch.setattr(generate, "MAX_HORIZON", shape["horizon"])
    report = solve_quadratic(generate_random_scenario(seed, **shape))
    assert report.verdict == "Equilibrium"
    assert report.clearing_residual <= DEFAULT_TOL


def in_money_unit(s: Scenario, k: float) -> Scenario:
    """The market ``s`` with every amount of money multiplied by ``k``."""
    def pref(p):
        return Quadratic(k * p.gamma) if isinstance(p, Quadratic) else LinearMV(k * p.lam)

    return Scenario(
        tree=s.tree, d1=s.d1, d2=s.d2, s0_fin=k * s.s0_fin, m_fin=k * s.m_fin,
        dividends=k * s.dividends,
        agents=[AgentSpec(a.eta2, k * a.xi_n, pref(a.preference)) for a in s.agents],
    )


@pytest.mark.parametrize("kind", ["quadratic", "linear_mv"])
def test_small_money_unit_keeps_outcome(kind):
    k = 1e-6
    for seed in range(40):
        s = generate_random_scenario(seed, horizon=3, branching=3, d1=1, d2=1,
                                     n_agents=2, preference_kind=kind)
        if kind == "quadratic":
            a, b = solve_quadratic(s), solve_quadratic(in_money_unit(s, k))
            assert b.verdict == a.verdict
        else:
            a, b = solve_linear_mv(s), solve_linear_mv(in_money_unit(s, k))
            assert b.exists == a.exists
            if a.exists:
                assert (b.clearing_residual <= DEFAULT_TOL) == (
                    a.clearing_residual <= DEFAULT_TOL)
        if a.prices is not None:
            np.testing.assert_allclose(b.prices / k, a.prices, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(a.prices)))


# ---------------------------------------------------------------- verification cost


def three_agent_market():
    return generate_random_scenario(4, horizon=3, branching=3, d1=1, d2=1, n_agents=3)


def test_verification_hedges_k_columns_in_one_gains_sweep(monkeypatch):
    import mveq.quadratic

    s = three_agent_market()
    widths, sweeps = [], []
    real_hedges, real_integral = GainsOperator.hedges, mveq.quadratic.stoch_integral

    def counting_hedges(self, H, *args, **kwargs):
        widths.append(np.shape(H)[1])
        return real_hedges(self, H, *args, **kwargs)

    def counting_integral(tree, theta, prices):
        sweeps.append(len(theta))
        return real_integral(tree, theta, prices)

    monkeypatch.setattr(GainsOperator, "hedges", counting_hedges)
    monkeypatch.setattr(mveq.quadratic, "stoch_integral", counting_integral)
    report = solve_quadratic(s)
    assert report.verdict == "Equilibrium"
    # three shortfalls; three hedges plus the clearing pair in one sweep
    assert (widths, sweeps) == ([3], [5])
    widths.clear()
    sweeps.clear()
    assert verify_equilibrium(s, report.prices).verdict == "Equilibrium"
    assert (widths, sweeps) == ([3], [5])


def old_optima(s, op, ks, tol, extra=None):
    """The optima of the agents ``ks`` with the decomposition cross-check,
    as every verification used to run it: the shortfalls and ``extra``
    hedged from capital 0 and the endowments with a free constant, in one
    sweep."""
    tree = s.tree
    gammas = [s.agents[k].preference.gamma for k in ks]
    xis = [total_endowment(s, k) for k in ks]
    ex = op.unique_values(tol)
    plain = [g - x for g, x in zip(gammas, xis)] + ([] if extra is None else [extra])
    cols = plain + (xis if ex else [])
    sols = op.hedges(np.reshape(cols, (-1, tree.n_leaves)).T, tol,
                     np.arange(len(cols)) >= len(plain))
    out, gaps = [], []
    for i, k in enumerate(ks):
        eta = _constant_strategy(tree, _full_eta(s, k))
        theta = sols[i].theta + eta
        out.append((theta, {"mvh_sq_error": sols[i].sq_error, "unique": sols[i].unique}))
        if ex:
            e = sols[len(plain) + i]
            gaps.append(theta - (eta - e.theta + (gammas[i] - e.c) * op.theta1))
    if ex:
        diff = _gains(tree, gaps, op.prices)
        for i, (_, report) in enumerate(out):
            report["c_k"] = sols[len(plain) + i].c
            report["decomposition_gap"] = float(np.max(np.abs(diff[:, i])))
    return out, (None if extra is None else sols[len(ks)])


@pytest.mark.parametrize("market", ["scen_a", "scen_d", "three"])
def test_individual_optimal_keeps_its_bits(market, request):
    s = three_agent_market() if market == "three" else request.getfixturevalue(market)
    op = _as_operator(s.tree, solve_quadratic(s).prices)
    for k in range(len(s.agents)):
        theta, report = individual_optimal(s, op.prices, k)
        [(old_theta, old_report)] = old_optima(s, op, [k], DEFAULT_TOL)[0]
        assert theta.tobytes() == old_theta.tobytes()
        assert set(report) == {"mvh_sq_error", "unique", "c_k", "decomposition_gap"}
        for key, value in old_report.items():
            assert np.float64(report[key]).tobytes() == np.float64(value).tobytes()


def test_representative_check_keeps_its_value():
    s = three_agent_market()
    op = _as_operator(s.tree, solve_quadratic(s).prices)
    optima, sol = old_optima(s, op, range(len(s.agents)), DEFAULT_TOL,
                             extra=aggregate(s).h_bar)
    total = sum((theta for theta, _ in optima), np.zeros((s.tree.n_nodes, s.d)))
    rep = sol.theta + _constant_strategy(s.tree, s.eta_bar())
    gains = _gains(s.tree, [total, rep], op.prices)
    old = float(np.max(np.abs(gains[:, 0] - gains[:, 1])))
    residual, ok = representative_check(s, op.prices)
    assert ok
    assert residual == old
