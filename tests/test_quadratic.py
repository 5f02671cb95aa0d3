import numpy as np
import pytest

from mveq import (
    AgentSpec,
    Quadratic,
    Scenario,
    aggregate,
    check_necessary_conditions,
    construct_degenerate,
    construct_regular,
    individual_optimal,
    is_martingale,
    representative_check,
    solve_quadratic,
    verify_equilibrium,
)
from mveq.quadratic import NonexistenceError, restart_martingale_failures
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
    prices = construct_regular(scen_a)
    assert prices[0, 0] == pytest.approx(25 / 17, abs=1e-12)
    np.testing.assert_allclose(prices[scen_a.tree.leaves, 0], [2.0, 1.0])


def test_construct_regular_scen_d(scen_d):
    prices = construct_regular(scen_d)
    # drift dA = -xi * E[dM^2] / Z0 = 1/2 on top of the martingale part
    np.testing.assert_allclose(prices[:, 0], [0.0, 1.5, -0.5], atol=1e-12)


def test_construct_regular_deterministic_endowment(coin_tree):
    s = Scenario(
        tree=coin_tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=np.array([[2.0], [1.0]]),
        agents=[AgentSpec(eta2=[0.0], xi_n=[1.0, 1.0], preference=Quadratic(5.0))],
    )
    prices = construct_regular(s)
    assert prices[0, 0] == pytest.approx(1.5)  # martingale price E[D]


def test_construct_regular_requires_nonvanishing_density(scen_c):
    with pytest.raises(ValueError, match="degenerate"):
        construct_regular(scen_c)


def test_necessary_conditions(scen_a, scen_c, scen_c_prime):
    assert check_necessary_conditions(scen_a)["passed"]  # vacuous
    assert check_necessary_conditions(scen_c)["passed"]
    cond = check_necessary_conditions(scen_c_prime)
    assert not cond["passed"]
    [(node, asset, value)] = cond["cond_g_failures"]
    assert (node, asset) == (0, 0)
    assert value == pytest.approx(-0.5)


def test_construct_degenerate_matches_regular(scen_a, scen_d):
    for s in (scen_a, scen_d):
        np.testing.assert_allclose(
            construct_degenerate(s), construct_regular(s), atol=1e-12
        )


def test_construct_degenerate_scen_c(scen_c):
    prices = construct_degenerate(scen_c)
    assert prices[0, 0] == pytest.approx(1.0)
    assert not restart_martingale_failures(scen_c.tree, aggregate(scen_c).z_bar)


def test_construct_degenerate_rejects_scen_c_prime(scen_c_prime):
    with pytest.raises(NonexistenceError):
        construct_degenerate(scen_c_prime)


def test_individual_optimal_scen_a(scen_a):
    prices = construct_regular(scen_a)
    theta, report = individual_optimal(scen_a, prices, 0)
    # single agent holds the supply; hedge part vanishes at equilibrium
    np.testing.assert_allclose(theta[0], [1.0], atol=1e-12)
    assert report["decomposition_gap"] == pytest.approx(0.0, abs=1e-10)


def test_individual_optimal_scen_d(scen_d):
    prices = construct_regular(scen_d)
    theta, _ = individual_optimal(scen_d, prices, 0)
    np.testing.assert_allclose(theta[0], [0.0], atol=1e-12)


def test_representative_check_on_split(scen_a):
    prices = construct_regular(scen_a)
    split = Scenario(
        tree=scen_a.tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=scen_a.dividends,
        agents=[
            AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0], preference=Quadratic(4.0)),
            AgentSpec(eta2=[0.0], xi_n=[0.0, 0.0], preference=Quadratic(6.0)),
        ],
    )
    np.testing.assert_allclose(construct_regular(split), prices, atol=1e-12)
    residual, ok = representative_check(split, prices)
    assert ok and residual <= 1e-10


def test_verify_accepts_constructed_and_rejects_perturbed(scen_a):
    prices = construct_regular(scen_a)
    assert verify_equilibrium(scen_a, prices).verdict == "Equilibrium"
    for bump in (0.05, -0.05):
        perturbed = prices.copy()
        perturbed[0, 0] += bump
        report = verify_equilibrium(scen_a, perturbed)
        assert report.verdict == "NotEquilibrium"
        assert report.clearing_residual > 1e-6


def test_verify_rejects_wrong_terminal_prices(scen_a):
    prices = construct_regular(scen_a)
    bad = prices.copy()
    bad[1, 0] = 3.0
    report = verify_equilibrium(scen_a, bad)
    assert report.verdict == "NotEquilibrium"
    assert "terminal" in report.reason


def test_verify_rejects_wrong_martingale_part(scen_d):
    prices = construct_regular(scen_d)
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
    np.testing.assert_array_equal(report.prices, construct_degenerate(scen_c))


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
        prices = construct_regular(s)
        z = aggregate(s).z_bar
        for j in range(s.d):
            assert is_martingale(s.tree, z * prices[:, j], 1e-8)[1]


def test_drift_independent_of_integrand_representative(coin_tree):
    # two financial assets with collinear increments: the hedge integrand is
    # non-unique, but the constructed drift must not depend on the choice;
    # swapping the column order changes the Gram-Schmidt representative
    tree = coin_tree
    m = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0]])
    div = np.zeros((2, 0))

    def build(order):
        s = Scenario(
            tree=tree, d1=2, d2=0, s0_fin=np.array([0.0, 0.0]),
            m_fin=m[:, order], dividends=div,
            agents=[AgentSpec(eta2=[], xi_n=[3.0, 1.0], preference=Quadratic(4.0))],
        )
        return construct_regular(s)[:, np.argsort(order)]

    np.testing.assert_allclose(build([0, 1]), build([1, 0]), atol=1e-12)
