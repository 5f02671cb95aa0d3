import numpy as np
import pytest

from mveq import (
    FiltrationTree,
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
from mveq import mvh
from mveq.mvh import GainsOperator, _as_operator
from mveq.scenario import DEFAULT_TOL
from mveq.quadratic import construct_prices, aggregate

from dense_oracle import DenseGains


def random_market(seed, horizon=2):
    s = generate_random_scenario(seed, horizon=horizon, branching=3, d1=1, d2=1,
                                 n_agents=2, preference_kind="quadratic")
    return s.tree, construct_prices(s), s


def leaf_gains(tree, theta, prices):
    return stoch_integral(tree, theta, prices)[tree.leaves]


def constructed_market(rng):
    """Seeded tree and prices where about a third of the nodes step
    deterministically (the payoff 1 is replicable there, so ``L``
    vanishes), some do not step at all and, with two assets, some step
    deterministically in one asset only."""
    d = int(rng.integers(1, 3))
    tree = random_tree(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
    ds = rng.uniform(-1, 1, (tree.n_nodes, d))
    ds[0] = 0.0
    for n in tree.nonterminal():
        cs, u = tree.children[n], rng.uniform()
        if u < 0.3:
            ds[cs] = ds[cs[0]]
        elif u < 0.4:
            ds[cs] = 0.0
        elif u < 0.5:
            ds[cs, -1] = ds[cs[0], -1]
    return tree, tree.accumulate(ds)


def riskless_node_market():
    """No risk out of the root, a riskless gain of 1 out of node 1 (``L``
    vanishes there) and a fair coin out of node 2."""
    tree = FiltrationTree([[1, 2], [3, 4], [5, 6], [], [], [], []], [0.25] * 4)
    return tree, np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0])[:, None]


# Dense oracles: each hedge as one weighted least-squares solve on the
# terminal gains matrix, the extended one with a column for the constant.


def lstsq_hedge(tree, prices, h):
    """Gains path of the minimal-norm least-squares hedge of ``h``."""
    dense = DenseGains(tree, prices)
    return dense.paths @ dense.hedge(h)


def lstsq_exhedge(tree, prices, h):
    """Constant and gains path of the joint least-squares fit of ``h`` by
    a constant plus a terminal gain."""
    dense = DenseGains(tree, prices)
    c, x = dense.exhedge(h)
    return c, dense.paths @ x


MARKETS = ["random-3", "random-17", "random-23", "random-31", "collinear", "cancel",
           "riskless-root", "riskless-node", "constructed-5", "constructed-8"]


@pytest.mark.parametrize("market", MARKETS)
def test_hedges_match_dense_oracles(market, coin_tree, cancel_tree_prices):
    """Terminal gains and errors always match the oracle's; gains paths
    only where they are unique (on ``cancel``, for one, equal terminal
    gains come from different paths)."""
    kind, _, seed = market.partition("-")
    if market == "collinear":
        tree, prices = coin_tree, np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    elif market == "cancel":
        tree, prices = cancel_tree_prices
    elif market == "riskless-root":
        tree, prices = coin_tree, np.array([0.5, 1.0, 1.0])[:, None]
    elif market == "riskless-node":
        tree, prices = riskless_node_market()
    elif kind == "constructed":
        tree, prices = constructed_market(np.random.default_rng(int(seed)))
    else:
        tree, prices, _ = random_market(int(seed))
    _, ell = pure_investment(tree, prices)
    unique = uniqueness_of_gains(tree, prices)
    p = tree.leaf_probs

    def assert_matches(sol, c, oracle_paths, h):
        gains = c + stoch_integral(tree, sol.theta, prices)
        np.testing.assert_allclose(gains[tree.leaves], c + oracle_paths[tree.leaves],
                                   rtol=0, atol=1e-10)
        oracle_err = float(p @ (c + oracle_paths[tree.leaves] - h) ** 2)
        assert sol.sq_error == pytest.approx(oracle_err, rel=1e-10, abs=1e-12)
        if unique:
            np.testing.assert_allclose(gains, c + oracle_paths, rtol=0, atol=1e-10)

    rng = np.random.default_rng(7)
    for _ in range(3):
        h = rng.uniform(-2, 2, tree.n_leaves)
        assert_matches(solve_mvh(tree, prices, h), 0.0, lstsq_hedge(tree, prices, h), h)
        c, paths = lstsq_exhedge(tree, prices, h)
        if ell <= DEFAULT_TOL:  # the constant is not unique; the oracle picks one
            with pytest.raises(ValueError, match="uniqueness"):
                solve_exmvh(tree, prices, h)
            continue
        ex = solve_exmvh(tree, prices, h)
        assert abs(ex.c - c) <= 1e-10
        assert_matches(ex, c, paths, h)


def test_nodewise_uniqueness_matches_kernel_criterion(cancel_tree_prices):
    rng = np.random.default_rng(2024)
    markets = [constructed_market(rng) for _ in range(240)] + [cancel_tree_prices]
    outcomes = []
    for tree, prices in markets:
        kernel = DenseGains(tree, prices).kernel_gap() <= DEFAULT_TOL
        assert uniqueness_of_gains(tree, prices) == kernel
        outcomes.append(kernel)
    assert 50 <= sum(outcomes) <= len(outcomes) - 50
    # the constructed markets of the hedging test have unique gains and not
    assert [uniqueness_of_gains(*constructed_market(np.random.default_rng(seed)))
            for seed in (5, 8)] == [False, True]


def test_gains_operator_one_period(coin_tree):
    prices = np.array([25 / 17, 2.0, 1.0])[:, None]
    np.testing.assert_allclose(DenseGains(coin_tree, prices).terminal,
                               [[9 / 17], [-8 / 17]])
    # constant prices give the zero operator
    np.testing.assert_allclose(DenseGains(coin_tree, np.ones(3)).terminal, 0.0)
    # one-period oracle: ell = 1 - E[dS]^2 / E[dS^2]
    assert GainsOperator(coin_tree, prices).ell == pytest.approx(
        1 - (1 / 34) ** 2 / (145 / 289 / 2), abs=1e-12)
    assert GainsOperator(coin_tree, np.ones(3)).ell == pytest.approx(1.0, abs=1e-15)


def test_gains_operator_collinear_columns(coin_tree):
    prices = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    assert np.linalg.matrix_rank(DenseGains(coin_tree, prices).terminal) == 1
    # a collinear second asset leaves the pure-investment problem as it is
    drifting = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0]])
    assert GainsOperator(coin_tree, drifting).ell == pytest.approx(
        GainsOperator(coin_tree, drifting[:, 0]).ell, abs=1e-14)


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
    prices = construct_prices(scen_a)
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
    terminal = DenseGains(tree, prices).terminal
    for col in range(terminal.shape[1]):
        assert tree.leaf_probs @ (terminal[:, col] * resid) == pytest.approx(
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
    _, ell_a = pure_investment(scen_a.tree, construct_prices(scen_a))
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
    prices = construct_prices(scen_a)
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


def test_opportunity_process_names_node_where_L_vanishes():
    tree, prices = riskless_node_market()
    assert uniqueness_of_values(tree, prices)
    with pytest.raises(ValueError, match="vanishes at node 1"):
        opportunity_process(tree, prices, np.array([0.0, 1.0, 2.0, 3.0]))


def count_calls(monkeypatch, owner, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(owner, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def test_one_engine_per_price_system(scen_a, scen_b, tmp_path, capsys, monkeypatch):
    from mveq.linear_mv import solve_linear_mv
    from mveq.quadratic import solve_quadratic
    from test_io_cli import run_cli, write_scenario

    path = write_scenario(tmp_path / "b.json", scen_b, solve_linear_mv(scen_b).prices)
    bare = write_scenario(tmp_path / "b_bare.json", scen_b)
    engines = count_calls(monkeypatch, GainsOperator, ["__init__"])
    linalg = count_calls(monkeypatch, np.linalg, ["lstsq"])
    rows = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        rows.append(np.shape(a)[-2])
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    # with two assets the local increments are factored by SVDs
    two = generate_random_scenario(3, horizon=3, branching=3, d1=0, d2=2, n_agents=2)
    runs = {
        "solve_quadratic": (scen_a, lambda: solve_quadratic(scen_a)),
        "solve_linear_mv": (scen_b, lambda: solve_linear_mv(scen_b)),
        "cli frontier": (scen_b, lambda: run_cli(["frontier", "--input", path])),
        # the frontiers reuse the engine of the solve's report prices
        "cli frontier, no prices": (scen_b, lambda: run_cli(["frontier", "--input", bare])),
        "solve_quadratic, two assets": (two, lambda: solve_quadratic(two)),
    }
    for name, (s, run) in runs.items():
        monkeypatch.setattr(mvh, "_last", None)
        engines.update(__init__=0)
        linalg.update(lstsq=0)
        rows.clear()
        run()
        assert engines == {"__init__": 1}, name
        assert linalg == {"lstsq": 0}, name
        assert max(rows, default=0) <= max(len(cs) for cs in s.tree.children), name
    assert rows
    capsys.readouterr()


def test_one_hedge_sweep_per_solve(monkeypatch):
    from mveq.linear_mv import solve_linear_mv
    from mveq.quadratic import solve_quadratic

    sweeps = count_calls(monkeypatch, GainsOperator, ["__init__", "_backward", "_forward"])
    for kind, solve in (("linear_mv", solve_linear_mv), ("quadratic", solve_quadratic)):
        s = generate_random_scenario(5, horizon=3, branching=3, d1=0, d2=2,
                                     n_agents=3, preference_kind=kind)
        monkeypatch.setattr(mvh, "_last", None)
        sweeps.update(__init__=0, _backward=0, _forward=0)
        solve(s)
        assert sweeps == {"__init__": 1, "_backward": 1, "_forward": 1}, kind
    # the opportunity process needs no forward sweep
    tree, prices, s = random_market(41)
    monkeypatch.setattr(mvh, "_last", None)
    sweeps.update(__init__=0, _backward=0, _forward=0)
    opportunity_process(tree, prices, aggregate(s).h_bar)
    assert sweeps == {"__init__": 1, "_backward": 1, "_forward": 0}
    # the frontiers read the solve's sweep of the endowments; only the
    # opportunity process sweeps another payoff
    s = generate_random_scenario(0, horizon=3, branching=3, d1=1, d2=1,
                                 n_agents=3, preference_kind="linear_mv")
    monkeypatch.setattr(mvh, "_last", None)
    sweeps.update(__init__=0, _backward=0, _forward=0)
    frontier_session(s, lambda: None)
    assert sweeps == {"__init__": 1, "_backward": 2, "_forward": 1}


def bits(values):
    return [np.asarray(v).tobytes() for v in values]


def frontier_session(s, before):
    """What a caller of the linear mean-variance layer runs on one price
    system: the solve, every agent's frontier and the opportunity process
    of the report's prices; ``before`` runs ahead of each call."""
    from mveq.linear_mv import agent_frontier, solve_linear_mv
    from mveq.scenario import aggregate_endowment

    before()
    r = solve_linear_mv(s)
    out = [r.prices, r.ell, r.c_k, r.eps2_k, r.y_k, *r.strategies,
           r.fp_residual, r.identity_residual, r.clearing_residual]
    for k in range(len(s.agents)):
        before()
        f = agent_frontier(s, r.prices, k)
        out.append((f.ell, f.c_k, f.eps2_k))
    before()
    opp = opportunity_process(s.tree, r.prices, r.gamma_bar - aggregate_endowment(s))
    return out + [opp.L, opp.v_bar, opp.theta0, opp.m0]


def test_engine_shared_across_solve_frontiers_and_opportunity(monkeypatch):
    s = generate_random_scenario(0, horizon=3, branching=3, d1=1, d2=1,
                                 n_agents=3, preference_kind="linear_mv")
    engines = count_calls(monkeypatch, GainsOperator, ["__init__"])
    cold = frontier_session(s, lambda: monkeypatch.setattr(mvh, "_last", None))
    assert engines["__init__"] == 5
    monkeypatch.setattr(mvh, "_last", None)
    engines.update(__init__=0)
    warm = frontier_session(s, lambda: None)
    assert engines == {"__init__": 1}
    assert bits(warm) == bits(cold)


def test_engine_rebuilt_for_other_price_systems(monkeypatch):
    tree, prices, s = random_market(41)
    prices[2, 0] = 0.0
    h = aggregate(s).h_bar
    twin = FiltrationTree(tree.children, tree.leaf_probs)
    ulp = prices.copy()
    ulp[5, 1] = np.nextafter(ulp[5, 1], np.inf)
    neg = prices.copy()
    neg[2, 0] = -0.0
    engines = count_calls(monkeypatch, GainsOperator, ["__init__"])

    def opp_bits(t, p):
        opp = opportunity_process(t, p, h)
        return bits([opp.L, opp.v_bar, opp.theta0, opp.m0])

    for name, t, p in (("equal tree", twin, prices), ("one ulp", tree, ulp),
                       ("-0.0", tree, neg)):
        monkeypatch.setattr(mvh, "_last", None)
        cold = opp_bits(t, p)
        opportunity_process(tree, prices, h)
        engines.update(__init__=0)
        assert opp_bits(t, p) == cold, name
        assert engines == {"__init__": 1}, name

    # the caller's array changed in place after its engine was built
    own = prices.copy()
    moved = own.copy()
    moved[5, 1] += 0.25
    monkeypatch.setattr(mvh, "_last", None)
    cold = opp_bits(tree, moved)
    opportunity_process(tree, own, h)
    own[5, 1] += 0.25
    engines.update(__init__=0)
    assert opp_bits(tree, own) == cold
    assert engines == {"__init__": 1}


def test_engine_arrays_read_only():
    tree, prices, s = random_market(41)
    op = _as_operator(tree, prices)
    opp = opportunity_process(tree, prices, aggregate(s).h_bar)
    assert opp.L is op.L
    for a in (op.L, op.prices, op.beta, op.y, op.theta1, opp.L):
        with pytest.raises(ValueError):
            a[0] = 1.0
    # the engine holds its own copy of the prices
    before = bits([op.prices])
    prices[0] += 1.0
    assert bits([op.prices]) == before


def test_sweep_slot_keyed_on_payoff_bits(monkeypatch):
    tree, prices, s = random_market(41)
    H = np.column_stack([aggregate(s).h_bar, np.zeros(tree.n_leaves)])
    ulp = H.copy()
    ulp[2, 0] = np.nextafter(ulp[2, 0], np.inf)
    neg = H.copy()
    neg[3, 1] = -0.0
    sweeps = count_calls(monkeypatch, GainsOperator, ["_backward"])
    for name, other, swept in (("equal copy", H.copy(), 0), ("one ulp", ulp, 1),
                               ("-0.0", neg, 1)):
        cold = bits(GainsOperator(tree, prices).values(other))
        op = GainsOperator(tree, prices)
        op.values(H)
        sweeps.update(_backward=0)
        assert bits(op.values(other)) == cold, name
        assert sweeps == {"_backward": swept}, name


def test_sweep_slot_holds_one_payoff_matrix(monkeypatch):
    tree, prices, s = random_market(41)
    h1 = aggregate(s).h_bar
    h2 = h1 + 1.0
    op = GainsOperator(tree, prices)
    sweeps = count_calls(monkeypatch, GainsOperator, ["_backward", "_forward"])
    first = bits(op.values(h1))
    op.values(h2)
    assert bits(op.values(h1)) == first
    assert sweeps == {"_backward": 3, "_forward": 0}
    # a hedge of the payoff in the slot runs only the forward sweep
    sol = op.hedge(h1, DEFAULT_TOL)
    assert sweeps == {"_backward": 3, "_forward": 1}
    assert bits([sol.theta]) == bits([GainsOperator(tree, prices).hedge(h1, DEFAULT_TOL).theta])


def test_sweep_slot_arrays_read_only():
    tree, prices, s = random_market(41)
    h = aggregate(s).h_bar
    op = _as_operator(tree, prices)
    v_bar, eps2 = op.values(h)
    opp = opportunity_process(tree, prices, h)
    for a in (v_bar, eps2, opp.v_bar):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert bits(op.values(h)) == bits(GainsOperator(tree, prices).values(h))
