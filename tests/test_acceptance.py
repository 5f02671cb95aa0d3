"""Acceptance gate: one test per shipped acceptance criterion.

Each criterion states explicit tolerances; expected numbers come from
independent closed-form oracles (one-period first-order conditions,
ell = 1 - E[dS]^2/E[dS^2], constrained least squares for frontiers).
"""

import json
import time

import numpy as np
import pytest

from mveq import (
    AgentSpec,
    Quadratic,
    Scenario,
    aggregate_endowment,
    agent_frontier,
    c_of_H_formula,
    construct_prices,
    martingale_from_terminal,
    opportunity_process,
    representative_check,
    solve_linear_mv,
    solve_mvh,
    solve_quadratic,
    stoch_integral,
    total_endowment,
    uniqueness_of_gains,
    verify_equilibrium,
    zero_solves_mvh_iff,
)
from mveq.cli import main as cli_main
from mveq.generate import generate_random_scenario, random_tree
from mveq.io import emit_scenario
from mveq.quadratic import _constant_strategy, _full_eta

from dense_oracle import DenseGains
from test_linear_mv import brute_force_min_variance
from test_mvh import lstsq_exhedge


def test_criterion_1_one_period_quadratic(scen_a):
    t0 = time.perf_counter()
    report = solve_quadratic(scen_a)
    elapsed = time.perf_counter() - t0
    assert report.verdict == "Equilibrium"
    assert report.prices[0, 0] == pytest.approx(25 / 17, abs=1e-12)
    # oracle: E[(D - S0)(gamma_bar - D)] = 0 at the constructed S0
    s0 = report.prices[0, 0]
    foc = 0.5 * (2 - s0) * 8 + 0.5 * (1 - s0) * 9
    assert foc == pytest.approx(0.0, abs=1e-12)
    for bump in (0.05, -0.05):
        perturbed = report.prices.copy()
        perturbed[0, 0] += bump
        assert verify_equilibrium(scen_a, perturbed).verdict == "NotEquilibrium"
    assert elapsed < 0.010


def test_criterion_2_one_period_linear_mv(scen_b):
    t0 = time.perf_counter()
    report = solve_linear_mv(scen_b)
    elapsed = time.perf_counter() - t0
    assert report.gamma_bar == pytest.approx(2.5, abs=1e-12)
    assert report.prices[0, 0] == pytest.approx(1.25, abs=1e-12)
    assert report.ell == pytest.approx(0.8, abs=1e-12)
    assert report.c_k[0] == pytest.approx(1.25, abs=1e-12)
    assert report.eps2_k[0] == pytest.approx(0.0, abs=1e-12)
    assert report.y_k[0] == pytest.approx(1.25, abs=1e-12)
    assert report.fp_residual <= 1e-12
    assert report.identity_residual <= 1e-12
    assert elapsed < 0.010


def test_criterion_3_financial_drift(scen_d):
    report = solve_quadratic(scen_d)
    assert report.verdict == "Equilibrium"
    drift = report.prices[:, 0] - scen_d.m_fin[:, 0]
    assert drift[1] - drift[0] == pytest.approx(0.5, abs=1e-12)
    assert drift[2] - drift[0] == pytest.approx(0.5, abs=1e-12)
    assert report.clearing_residual <= 1e-12


def test_criterion_4_degenerate_suite(scen_c, scen_c_prime):
    assert solve_quadratic(scen_c_prime).verdict == "NonexistenceProven"
    prices = construct_prices(scen_c)
    assert prices[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert verify_equilibrium(scen_c, prices).verdict == "Equilibrium"
    alt = prices.copy()
    alt[0, 0] = 0.5
    assert verify_equilibrium(scen_c, alt).verdict == "Equilibrium"


def _quadratic_suite_scenario(seed):
    rng = np.random.default_rng(seed)
    d1 = int(rng.integers(0, 2))
    return generate_random_scenario(
        seed,
        horizon=int(rng.integers(1, 5)),
        branching=int(rng.integers(2, 4)),
        d1=d1,
        d2=int(rng.integers(1, 4 - d1)),
        n_agents=int(rng.integers(1, 4)),
        preference_kind="quadratic",
    )


def _resplit_gammas(s, seed):
    rng = np.random.default_rng(seed + 10_000)
    gamma_bar = sum(a.preference.gamma for a in s.agents)
    w = rng.uniform(0.2, 1.0, len(s.agents))
    w *= gamma_bar / w.sum()
    agents = [
        AgentSpec(a.eta2, a.xi_n, Quadratic(float(g)))
        for a, g in zip(s.agents, w)
    ]
    return Scenario(tree=s.tree, d1=s.d1, d2=s.d2, s0_fin=s.s0_fin,
                    m_fin=s.m_fin, dividends=s.dividends, agents=agents)


def test_criterion_5_random_quadratic_suite():
    t0 = time.perf_counter()
    for seed in range(200):
        s = _quadratic_suite_scenario(seed)
        report = solve_quadratic(s)
        assert report.verdict == "Equilibrium", f"seed {seed}"
        assert report.clearing_residual <= 1e-8, f"seed {seed}"
        assert max(abs(g) for g in report.optimality_gaps) <= 1e-8
        assert report.martingale_residual <= 1e-8, f"seed {seed}"
        residual, ok = representative_check(s, report.prices, 1e-8)
        assert ok, f"seed {seed}: representative residual {residual}"
        if len(s.agents) > 1:
            resplit = _resplit_gammas(s, seed)
            assert (
                np.max(np.abs(construct_prices(resplit) - report.prices)) <= 1e-10
            ), f"seed {seed}"
    assert time.perf_counter() - t0 < 60.0


def _linear_suite_scenarios(count):
    seed, found = 0, 0
    while found < count:
        rng = np.random.default_rng(seed + 50_000)
        s = generate_random_scenario(
            seed + 50_000,
            horizon=int(rng.integers(1, 4)),
            branching=int(rng.integers(2, 4)),
            d1=int(rng.integers(0, 2)),
            d2=int(rng.integers(1, 3)),
            n_agents=int(rng.integers(1, 4)),
            preference_kind="linear_mv",
        )
        seed += 1
        report = solve_linear_mv(s)
        if not report.exists:
            continue
        found += 1
        yield s, report


def _dominance_holds(s, report, k, n_competitors, rng):
    tree = s.tree
    lam = s.agents[k].preference.lam
    xi = total_endowment(s, k)
    terminal = DenseGains(tree, report.prices).terminal

    def utility(v):
        mean = tree.leaf_probs @ v
        var = tree.leaf_probs @ (v - mean) ** 2
        return mean - var / (2 * lam)

    net = report.strategies[k] - _constant_strategy(tree, _full_eta(s, k))
    best = utility(stoch_integral(tree, net, report.prices)[tree.leaves] + xi)
    coords = rng.uniform(-3, 3, size=(terminal.shape[1], n_competitors))
    values = xi[:, None] + terminal @ coords
    means = tree.leaf_probs @ values
    variances = tree.leaf_probs @ (values - means) ** 2
    return np.all(means - variances / (2 * lam) <= best + 1e-10)


def test_criterion_6_random_linear_mv_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for i, (s, report) in enumerate(_linear_suite_scenarios(200)):
        assert report.fp_residual <= 1e-8, f"case {i}"
        assert report.identity_residual <= 1e-8, f"case {i}"
        h_bar = report.gamma_bar - aggregate_endowment(s)
        opp = opportunity_process(s.tree, report.prices, h_bar)
        assert abs(opp.L[0] - report.ell) <= 1e-8, f"case {i}"
        # frontier-vs-brute-force variance match on a 10-point mean grid
        front = agent_frontier(s, report.prices, 0)
        for y in np.linspace(0.0, 2.0, 10):
            _, var = brute_force_min_variance(s, report.prices, 0, front.mean(y))
            assert abs(var - front.stdev(y) ** 2) <= 1e-7, f"case {i}"
        for k in range(len(s.agents)):
            assert _dominance_holds(s, report, k, 500, rng), f"case {i} agent {k}"
    assert time.perf_counter() - t0 < 120.0


def test_criterion_7_hedging_identities(cancel_tree_prices):
    rng = np.random.default_rng(99)
    # linearity at the gains-path level and the closed-form constant
    for seed in range(10):
        s = _quadratic_suite_scenario(seed)
        prices = construct_prices(s)
        tree = s.tree
        h1 = rng.uniform(-2, 2, tree.n_leaves)
        h2 = rng.uniform(-2, 2, tree.n_leaves)
        lam = rng.uniform(-2, 2)
        g = lambda h: stoch_integral(tree, solve_mvh(tree, prices, h).theta, prices)
        assert np.max(np.abs(g(h1 + lam * h2) - (g(h1) + lam * g(h2)))) <= 1e-9
        assert abs(
            c_of_H_formula(tree, prices, h1) - lstsq_exhedge(tree, prices, h1)[0]
        ) <= 1e-10

    # the zero-hedge characterisation holds in both directions
    trees = [random_tree(np.random.default_rng(t), 2, 3) for t in range(5)]
    results = {(True, True): 0, (False, False): 0}
    for i in range(500):
        tree = trees[i % len(trees)]
        if i % 3 == 0:
            # martingale prices and constant payoff: Z is constant, so Z*S
            # inherits the martingale property and the zero hedge is optimal
            h = np.full(tree.n_leaves, rng.uniform(-2, 2))
            prices = martingale_from_terminal(tree, rng.uniform(-1, 1, tree.n_leaves))
        else:
            h = rng.uniform(-2, 2, tree.n_leaves)
            prices = rng.uniform(-1, 1, tree.n_nodes)
        res = zero_solves_mvh_iff(tree, prices, h)
        key = (res["zero_optimal"], res["zs_martingale"])
        assert key[0] == key[1], f"pair {i} disagrees"
        results[key] += 1
    assert min(results.values()) > 0  # both directions exercised

    tree, prices = cancel_tree_prices
    assert not uniqueness_of_gains(tree, prices)


def test_criterion_8_determinism(scen_b, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(emit_scenario(scen_b)))
    outputs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli_main(["solve-linear-mv", "--input", str(path),
                         "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
