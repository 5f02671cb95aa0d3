import numpy as np
import pytest

from mveq import (
    build_gains_operator,
    c_of_H_formula,
    martingale_from_terminal,
    opportunity_process,
    pure_investment,
    solve_exmvh,
    solve_mvh,
    stoch_integral,
    uniqueness_of_gains,
    uniqueness_of_values,
    zero_solves_mvh_iff,
)
from mveq.generate import generate_random_scenario, random_tree
from mveq.mvh import RCOND
from mveq.scenario import DEFAULT_TOL
from mveq.quadratic import construct_regular, aggregate


def random_market(seed, horizon=2):
    s = generate_random_scenario(seed, horizon=horizon, branching=3, d1=1, d2=1,
                                 n_agents=2, preference_kind="quadratic")
    return s.tree, construct_regular(s), s


def leaf_gains(tree, theta, prices):
    return stoch_integral(tree, theta, prices)[tree.leaves]


# Dense oracles: each hedge as one weighted least-squares solve on the
# terminal gains matrix, the extended one with a column for the constant.


def lstsq_hedge(tree, prices, h):
    """Gains path of the minimal-norm least-squares hedge of ``h``."""
    op = build_gains_operator(tree, prices)
    w = np.sqrt(tree.leaf_probs)
    x, *_ = np.linalg.lstsq(w[:, None] * op.terminal, w * h, rcond=RCOND)
    return op.paths @ x


def lstsq_exhedge(tree, prices, h):
    """Constant and gains path of the joint least-squares fit of ``h`` by
    a constant plus a terminal gain."""
    op = build_gains_operator(tree, prices)
    w = np.sqrt(tree.leaf_probs)
    a = np.hstack([np.ones((tree.n_leaves, 1)), op.terminal])
    x, *_ = np.linalg.lstsq(w[:, None] * a, w * h, rcond=RCOND)
    return float(x[0]), op.paths @ x[1:]


@pytest.mark.parametrize(
    "market", ["random-3", "random-17", "random-23", "random-31", "collinear", "cancel"]
)
def test_hedges_match_dense_oracles(market, coin_tree, cancel_tree_prices):
    if market == "collinear":
        tree, prices = coin_tree, np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    elif market == "cancel":
        tree, prices = cancel_tree_prices
    else:
        tree, prices, _ = random_market(int(market.split("-")[1]))
    _, ell = pure_investment(tree, prices)
    rng = np.random.default_rng(7)
    for _ in range(3):
        h = rng.uniform(-2, 2, tree.n_leaves)
        sol = solve_mvh(tree, prices, h)
        gains = stoch_integral(tree, sol.theta, prices)
        oracle = lstsq_hedge(tree, prices, h)
        np.testing.assert_allclose(gains, oracle, rtol=0, atol=1e-10)
        c, paths = lstsq_exhedge(tree, prices, h)
        if ell <= DEFAULT_TOL:  # the constant is not unique; the oracle picks one
            with pytest.raises(ValueError, match="uniqueness"):
                solve_exmvh(tree, prices, h)
            continue
        ex = solve_exmvh(tree, prices, h)
        assert abs(ex.c - c) <= 1e-10
        gains = stoch_integral(tree, ex.theta, prices)
        np.testing.assert_allclose(gains, paths, rtol=0, atol=1e-10)


def test_gains_operator_one_period(coin_tree):
    prices = np.array([25 / 17, 2.0, 1.0])[:, None]
    op = build_gains_operator(coin_tree, prices)
    np.testing.assert_allclose(op.terminal, [[9 / 17], [-8 / 17]])
    # constant prices give the zero operator
    op0 = build_gains_operator(coin_tree, np.ones(3))
    np.testing.assert_allclose(op0.terminal, 0.0)


def test_gains_operator_collinear_columns(coin_tree):
    prices = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    op = build_gains_operator(coin_tree, prices)
    assert np.linalg.matrix_rank(op.terminal) == 1


def test_solve_mvh_zero_and_attainable(coin_tree):
    prices = np.array([25 / 17, 2.0, 1.0])
    sol = solve_mvh(coin_tree, prices, np.zeros(2))
    np.testing.assert_allclose(sol.theta, 0.0, atol=1e-12)
    assert sol.sq_error == pytest.approx(0.0, abs=1e-15)

    theta0 = np.zeros((3, 1))
    theta0[0] = 2.0
    target = leaf_gains(coin_tree, theta0, prices[:, None])
    sol = solve_mvh(coin_tree, prices, target)
    assert sol.sq_error == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(
        leaf_gains(coin_tree, sol.theta, prices[:, None]), target, atol=1e-12
    )


def test_zero_hedge_at_equilibrium(scen_a):
    prices = construct_regular(scen_a)
    h_bar = aggregate(scen_a).h_bar  # (8, 9)
    sol = solve_mvh(scen_a.tree, prices, h_bar)
    np.testing.assert_allclose(sol.theta, 0.0, atol=1e-12)
    assert sol.sq_error == pytest.approx(72.5)


def test_projection_optimality_against_competitors():
    tree, prices, _ = random_market(17)
    rng = np.random.default_rng(0)
    h = rng.uniform(-2, 2, tree.n_leaves)
    sol = solve_mvh(tree, prices, h)
    for _ in range(100):
        theta = rng.uniform(-2, 2, size=(tree.n_nodes, prices.shape[1]))
        err = float(tree.leaf_probs @ (leaf_gains(tree, theta, prices) - h) ** 2)
        assert err >= sol.sq_error - 1e-10


def test_first_order_condition():
    tree, prices, _ = random_market(23)
    rng = np.random.default_rng(1)
    h = rng.uniform(-2, 2, tree.n_leaves)
    sol = solve_mvh(tree, prices, h)
    resid = h - leaf_gains(tree, sol.theta, prices)
    op = build_gains_operator(tree, prices)
    for col in range(op.terminal.shape[1]):
        assert tree.leaf_probs @ (op.terminal[:, col] * resid) == pytest.approx(
            0.0, abs=1e-10
        )


def test_mvh_linearity_at_gains_level():
    tree, prices, _ = random_market(29)
    rng = np.random.default_rng(2)
    h1 = rng.uniform(-2, 2, tree.n_leaves)
    h2 = rng.uniform(-2, 2, tree.n_leaves)
    lam = 1.7
    g_combo = stoch_integral(
        tree, solve_mvh(tree, prices, h1 + lam * h2).theta, prices
    )
    g1 = stoch_integral(tree, solve_mvh(tree, prices, h1).theta, prices)
    g2 = stoch_integral(tree, solve_mvh(tree, prices, h2).theta, prices)
    np.testing.assert_allclose(g_combo, g1 + lam * g2, atol=1e-9)


def test_exmvh_replicable_and_orthogonal(scen_b):
    from mveq.linear_mv import solve_linear_mv

    prices = solve_linear_mv(scen_b).prices
    ex = solve_exmvh(scen_b.tree, prices, [2.0, 1.0])
    assert ex.c == pytest.approx(1.25)
    assert ex.sq_error == pytest.approx(0.0, abs=1e-14)
    # constant payoffs are replicated by the constant alone when ell > 0
    exk = solve_exmvh(scen_b.tree, prices, [3.0, 3.0])
    assert exk.c == pytest.approx(3.0)


def test_c_of_h_formula_matches_exmvh():
    tree, prices, _ = random_market(31)
    rng = np.random.default_rng(3)
    assert uniqueness_of_values(tree, prices)
    for _ in range(5):
        h = rng.uniform(-2, 2, tree.n_leaves)
        assert c_of_H_formula(tree, prices, h) == pytest.approx(
            lstsq_exhedge(tree, prices, h)[0], abs=1e-10
        )


def test_c_of_h_martingale_prices():
    tree = random_tree(np.random.default_rng(4), 2, 2)
    prices = martingale_from_terminal(tree, np.arange(tree.n_leaves, dtype=float))
    h = np.linspace(0, 1, tree.n_leaves)
    assert c_of_H_formula(tree, prices, h) == pytest.approx(
        float(tree.leaf_probs @ h)
    )


def test_c_of_h_degenerate_denominator(coin_tree):
    # deterministic price step of 0.5: the constant 1 is attainable as a gain
    prices = np.array([0.5, 1.0, 1.0])
    with pytest.raises(ValueError, match="uniqueness"):
        c_of_H_formula(coin_tree, prices, np.ones(2))
    with pytest.raises(ValueError, match="uniqueness"):
        solve_exmvh(coin_tree, prices, np.ones(2))


def test_pure_investment_oracles(scen_a, scen_b):
    from mveq.linear_mv import solve_linear_mv

    # one-period oracle: ell = 1 - E[dS]^2 / E[dS^2]
    _, ell_a = pure_investment(scen_a.tree, construct_regular(scen_a))
    assert ell_a == pytest.approx(289 / 290, abs=1e-12)
    _, ell_b = pure_investment(scen_b.tree, solve_linear_mv(scen_b).prices)
    assert ell_b == pytest.approx(0.8, abs=1e-12)
    # martingale prices: zero hedge, ell = 1
    tree = scen_a.tree
    mart = martingale_from_terminal(tree, [2.0, 1.0])
    theta1, ell = pure_investment(tree, mart)
    np.testing.assert_allclose(theta1, 0.0, atol=1e-12)
    assert ell == pytest.approx(1.0)


def test_uniqueness_of_gains(coin_tree, cancel_tree_prices):
    # one-period models: terminal gains are the whole path
    assert uniqueness_of_gains(coin_tree, np.array([25 / 17, 2.0, 1.0]))
    assert uniqueness_of_gains(coin_tree, np.ones(3))  # constant prices
    tree, prices = cancel_tree_prices
    assert not uniqueness_of_gains(tree, prices)


def test_uniqueness_of_values(coin_tree):
    mart = martingale_from_terminal(coin_tree, [2.0, 1.0])
    assert uniqueness_of_values(coin_tree, mart)
    # deterministic nonzero step makes 1 attainable: ell = 0
    assert not uniqueness_of_values(coin_tree, np.array([0.5, 1.0, 1.0]))


def test_zero_solves_mvh_iff(scen_a):
    prices = construct_regular(scen_a)
    h_bar = aggregate(scen_a).h_bar
    res = zero_solves_mvh_iff(scen_a.tree, prices, h_bar)
    assert res == {"zero_optimal": True, "zs_martingale": True}
    perturbed = prices.copy()
    perturbed[0] = 1.6
    res = zero_solves_mvh_iff(scen_a.tree, perturbed, h_bar)
    assert res == {"zero_optimal": False, "zs_martingale": False}


def test_zero_solves_mvh_iff_martingale_prices(coin_tree):
    mart = martingale_from_terminal(coin_tree, [2.0, 1.0])
    res = zero_solves_mvh_iff(coin_tree, mart, np.ones(2))
    assert res == {"zero_optimal": True, "zs_martingale": True}


def test_opportunity_process_invariants():
    tree, prices, s = random_market(41)
    h_bar = aggregate(s).h_bar
    opp = opportunity_process(tree, prices, h_bar)
    # L is a (0,1]-valued submartingale ending at 1, starting at ell
    assert np.all(opp.L > 0)
    assert np.all(opp.L <= 1 + 1e-12)
    np.testing.assert_allclose(opp.L[tree.leaves], 1.0)
    _, ell = pure_investment(tree, prices)
    assert opp.L[0] == pytest.approx(ell, abs=1e-10)
    for n in tree.nonterminal():
        cs = tree.children[n]
        assert tree.child_weights(n) @ opp.L[cs] >= opp.L[n] - 1e-10
    # mean value process closes at the payoff and V*M0 is a martingale
    np.testing.assert_allclose(opp.v_bar[tree.leaves], h_bar)
    from mveq import is_martingale

    assert is_martingale(tree, opp.v_bar * opp.m0, 1e-8)[1]


def test_opportunity_process_martingale_prices():
    tree = random_tree(np.random.default_rng(6), 2, 2)
    prices = martingale_from_terminal(tree, np.arange(tree.n_leaves, dtype=float))
    h = np.linspace(-1, 1, tree.n_leaves)
    opp = opportunity_process(tree, prices, h)
    np.testing.assert_allclose(opp.L, 1.0, atol=1e-12)
    np.testing.assert_allclose(opp.v_bar, martingale_from_terminal(tree, h), atol=1e-10)


def test_opportunity_process_requires_uniqueness(coin_tree):
    with pytest.raises(ValueError):
        opportunity_process(coin_tree, np.array([0.5, 1.0, 1.0]), np.ones(2))


def count_factorizations(monkeypatch):
    counts = {"svd": 0, "lstsq": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def test_one_factorization_per_price_system(scen_a, scen_b, tmp_path, capsys,
                                            monkeypatch):
    from mveq.linear_mv import solve_linear_mv
    from mveq.quadratic import solve_quadratic
    from test_io_cli import run_cli, write_scenario

    path = write_scenario(tmp_path / "b.json", scen_b, solve_linear_mv(scen_b).prices)
    counts = count_factorizations(monkeypatch)
    runs = {
        "solve_quadratic": lambda: solve_quadratic(scen_a),
        "solve_linear_mv": lambda: solve_linear_mv(scen_b),
        "cli frontier": lambda: run_cli(["frontier", "--input", path]),
    }
    for name, run in runs.items():
        counts.update(svd=0, lstsq=0)
        run()
        assert counts == {"svd": 1, "lstsq": 0}, name
    capsys.readouterr()
    # the opportunity process is one backward sweep: the operator's SVD only
    tree, prices, s = random_market(41)
    counts.update(svd=0, lstsq=0)
    opportunity_process(tree, prices, aggregate(s).h_bar)
    assert counts == {"svd": 1, "lstsq": 0}
