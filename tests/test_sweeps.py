"""The vectorised tree sweeps against per-node loop references.

Each ``loop_*`` function below is the straightforward per-node loop over
``children`` and ``child_weights`` that the sweep replaces.  They run on
seeded random trees and on a depth-first renumbering of them whose
children lists come in reverse order, so sibling ids are neither
contiguous nor sorted.  Pure copies and elementwise products (gains
paths, restarted exponentials) must match bit for bit; sums of
conditional moments may be added up in another order and must match to
``RTOL`` relative to the scale of the reference.
"""

import numpy as np
import pytest

from mveq import (
    AgentSpec,
    FiltrationTree,
    Scenario,
    cond_expect,
    delta_bracket,
    gkw_decompose,
    is_martingale,
    martingale_from_terminal,
    opportunity_process,
    restarted_exponential,
    solve_linear_mv,
    solve_quadratic,
    stoch_integral,
    validate_scenario,
)
from mveq.generate import generate_random_scenario, random_tree
from mveq.linear_mv import _is_trivial_regime
from mveq.mvh import RCOND, GainsOperator
from mveq.quadratic import (
    _financial_prices,
    _productive_prices_degenerate,
    check_necessary_conditions,
    restart_martingale_failures,
)

from dense_oracle import DenseGains

RTOL = 1e-12
TOL = 1e-9


def assert_close(new, ref):
    ref = np.asarray(ref, dtype=float)
    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    np.testing.assert_allclose(new, ref, rtol=RTOL, atol=RTOL * scale)


# ---------------------------------------------------------------- trees


def dfs_relabel(tree):
    """Depth-first renumbering with children lists in reverse order.

    Returns the new tree, ``order`` (the old id of each new node) and
    ``leaf_order``, so that a node-indexed array ``x`` becomes ``x[order]``
    and a leaf-indexed one ``y`` becomes ``y[leaf_order]``."""
    order, stack = [], [0]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend(tree.children[n])
    order = np.array(order)
    new_id = np.empty(tree.n_nodes, dtype=int)
    new_id[order] = np.arange(tree.n_nodes)
    children = [[int(new_id[c]) for c in tree.children[n]] for n in order]
    leaf_order = tree.leaf_row[order[[i for i, cs in enumerate(children) if not cs]]]
    new = FiltrationTree(children, tree.leaf_probs[leaf_order])
    return new, order, leaf_order


def relabel_scenario(s):
    tree, order, leaf_order = dfs_relabel(s.tree)
    agents = [AgentSpec(a.eta2, a.xi_n[leaf_order], a.preference) for a in s.agents]
    return Scenario(tree=tree, d1=s.d1, d2=s.d2, s0_fin=s.s0_fin,
                    m_fin=s.m_fin[order], dividends=s.dividends[leaf_order],
                    agents=agents), order


def trees():
    out = []
    for seed, (h, b) in enumerate([(1, 4), (2, 3), (3, 2), (3, 3), (4, 3)]):
        tree = random_tree(np.random.default_rng(100 + seed), h, b)
        out += [tree, dfs_relabel(tree)[0]]
    return out


TREES = trees()
IDS = [f"{kind}{i // 2}" for i, kind in enumerate(["bfs", "dfs"] * 5)]


def test_relabelled_trees_have_scattered_siblings():
    tree = TREES[-1]
    assert any(np.any(np.diff(cs) != 1) for cs in tree.children if cs)
    assert any(cs != sorted(cs) for cs in tree.children if cs)


def martingale(tree, rng, lo=-2.0, hi=2.0):
    return loop_martingale_from_terminal(tree, rng.uniform(lo, hi, tree.n_leaves))


# ---------------------------------------------------------------- loop references


def loop_martingale_from_terminal(tree, x_leaf):
    out = np.zeros(tree.n_nodes)
    out[tree.leaves] = x_leaf
    for n in range(tree.n_nodes - 1, -1, -1):
        cs = tree.children[n]
        if cs:
            out[n] = tree.child_weights(n) @ out[cs]
    return out


def loop_cond_expect(tree, x_leaf, t):
    out = []
    for n in tree.nodes_at[t]:
        rows = tree.leaf_row[[m for m in tree.subtree(n) if not tree.children[m]]]
        out.append(tree.leaf_probs[rows] @ x_leaf[rows] / tree.prob[n])
    return np.array(out)


def loop_bracket(tree, a, b):
    out = np.zeros(tree.n_nodes)
    for n in tree.nonterminal():
        cs = tree.children[n]
        out[n] = tree.child_weights(n) @ ((a[cs] - a[n]) * (b[cs] - b[n]))
    return out


def loop_gkw(tree, z, m, tol):
    d1 = m.shape[1]
    xi = np.zeros((tree.n_nodes, d1))
    residual = np.zeros(tree.n_nodes)
    for n in tree.nonterminal():
        cs = tree.children[n]
        w = tree.child_weights(n)
        dz = z[cs] - z[n]
        dm = m[cs] - m[n]

        def inner(x, y):
            return float(w @ (x * y))

        xi_n = np.zeros(d1)
        basis = []
        for i in range(d1):
            o = dm[:, i].copy()
            coeffs = np.zeros(d1)
            coeffs[i] = 1.0
            for ob, cb in basis:
                c = inner(dm[:, i], ob) / inner(ob, ob)
                o -= c * ob
                coeffs -= c * cb
            nrm = inner(o, o)
            if nrm > tol:
                basis.append((o, coeffs))
                xi_n += (inner(dz, o) / nrm) * coeffs
        xi[n] = xi_n
        residual[cs] = residual[n] + dz - dm @ xi_n
    return xi, residual


def loop_stoch_integral(tree, theta, s):
    out = np.zeros(tree.n_nodes)
    for n in tree.nonterminal():
        for c in tree.children[n]:
            out[c] = out[n] + theta[n] @ (s[c] - s[n])
    return out


def loop_restarted_exponential(tree, z, s, tol):
    out = np.full(tree.n_nodes, np.nan)
    out[tree.nodes_at[s]] = 1.0
    for n in range(tree.n_nodes):
        if tree.time[n] < s or not tree.children[n]:
            continue
        for c in tree.children[n]:
            dn = (z[c] - z[n]) / z[n] if abs(z[n]) > tol else 0.0
            out[c] = out[n] * (1.0 + dn)
    return out


def loop_max_drift(tree, x, start=0):
    worst = 0.0
    for n in tree.nonterminal():
        if tree.time[n] >= start:
            cs = tree.children[n]
            worst = max(worst, abs(float(tree.child_weights(n) @ x[cs] - x[n])))
    return worst


def loop_gains_paths(tree, prices):
    d = prices.shape[1]
    cols = [(int(n), j) for n in tree.nonterminal() for j in range(d)]
    paths = np.zeros((tree.n_nodes, len(cols)))
    for c, (n, j) in enumerate(cols):
        for ch in tree.children[n]:
            for m in tree.subtree(ch):
                paths[m, c] = prices[ch, j] - prices[n, j]
    return cols, paths


def loop_financial_prices(tree, s0_fin, m_fin, z_bar, tol):
    d1 = m_fin.shape[1]
    a = np.zeros((tree.n_nodes, d1))
    for n in tree.nonterminal():
        cs = tree.children[n]
        w = tree.child_weights(n)
        for j in range(d1):
            da = 0.0
            if abs(z_bar[n]) > tol:
                dzm = (z_bar[cs] - z_bar[n]) * (m_fin[cs, j] - m_fin[n, j])
                da = -(w @ dzm) / z_bar[n]
            a[cs, j] = a[n, j] + da
    return s0_fin + m_fin + a


def loop_productive_degenerate(tree, dividends, z_bar, tol):
    prices = np.zeros((tree.n_nodes, dividends.shape[1]))
    prices[tree.leaves] = dividends
    for n in range(tree.n_nodes - 1, -1, -1):
        cs = tree.children[n]
        if cs:
            growth = z_bar[cs] / z_bar[n] if abs(z_bar[n]) > tol else np.ones(len(cs))
            prices[n] = tree.child_weights(n) @ (growth[:, None] * prices[cs])
    return prices


def loop_opportunity(tree, prices, h_bar):
    """Per-subtree least-squares pure-investment hedges; returns ``L``,
    ``v_bar`` and the gains path of the hedge started at the root."""
    cols, paths = loop_gains_paths(tree, prices)
    terminal = paths[tree.leaves]
    L = np.ones(tree.n_nodes)
    v_bar = np.zeros(tree.n_nodes)
    v_bar[tree.leaves] = h_bar
    for n in tree.nonterminal():
        sub = set(tree.subtree(n).tolist())
        col_ids = [c for c, (m, _) in enumerate(cols) if m in sub]
        rows = tree.leaf_row[sorted(m for m in sub if not tree.children[m])]
        a = terminal[np.ix_(rows, col_ids)]
        cond_p = tree.leaf_probs[rows] / tree.prob[n]
        w = np.sqrt(cond_p)
        x, *_ = np.linalg.lstsq(w[:, None] * a, w, rcond=RCOND)
        gains = a @ x
        L[n] = cond_p @ (1.0 - gains) ** 2
        v_bar[n] = cond_p @ (h_bar[rows] * (1.0 - gains)) / L[n]
        if n == 0:
            root_gains = paths[:, col_ids] @ x
    return L, v_bar, root_gains


# ---------------------------------------------------------------- stoch


@pytest.mark.parametrize("tree", TREES, ids=IDS)
def test_conditional_expectations_match_loops(tree):
    rng = np.random.default_rng(tree.n_nodes)
    x = rng.uniform(-3, 3, tree.n_leaves)
    assert_close(martingale_from_terminal(tree, x),
                 loop_martingale_from_terminal(tree, x))
    for t in range(tree.horizon + 1):
        assert_close(cond_expect(tree, x, t), loop_cond_expect(tree, x, t))
    a, b = martingale(tree, rng), martingale(tree, rng)
    ref = loop_bracket(tree, a, b)
    for t in range(1, tree.horizon + 1):
        assert_close(delta_bracket(tree, a, b, t), ref[tree.nodes_at[t - 1]])
    drifting = a + rng.uniform(-1, 1, tree.n_nodes)
    for y in (a, drifting):
        worst, _ = is_martingale(tree, y)
        assert_close(worst, loop_max_drift(tree, y))


@pytest.mark.parametrize("tree", TREES, ids=IDS)
def test_gkw_and_integral_match_loops(tree):
    rng = np.random.default_rng(tree.n_nodes + 1)
    z = martingale(tree, rng)
    m = np.column_stack([martingale(tree, rng) for _ in range(2)])
    m = np.column_stack([m, m[:, 0] - 2.0 * m[:, 1]])  # a dependent column
    m -= m[0]
    dec = gkw_decompose(tree, z, m)
    xi, residual = loop_gkw(tree, z, m, TOL)
    # the dependent column leaves xi non-unique; its gains path is unique
    assert_close(stoch_integral(tree, dec.xi, m), stoch_integral(tree, xi, m))
    assert_close(dec.residual, residual)
    # where every column is kept, xi^T d<M> is the bracket d<Z, M>
    xi, _ = loop_gkw(tree, z, m[:, :2], TOL)
    d_m = [[loop_bracket(tree, m[:, i], m[:, j]) for j in range(2)] for i in range(2)]
    for j in range(2):
        assert_close(xi[:, 0] * d_m[0][j] + xi[:, 1] * d_m[1][j],
                     loop_bracket(tree, z, m[:, j]))
    theta = rng.uniform(-1, 1, (tree.n_nodes, 3))
    assert_close(stoch_integral(tree, theta, m), loop_stoch_integral(tree, theta, m))


@pytest.mark.parametrize("tree", TREES, ids=IDS)
def test_batched_sweeps_match_per_column_bitwise(tree):
    rng = np.random.default_rng(tree.n_nodes + 7)
    y = rng.uniform(-2.0, 2.0, (tree.n_nodes, 4))
    means = tree.child_mean(y)
    x = rng.uniform(-2.0, 2.0, (tree.n_leaves, 4))
    mart = martingale_from_terminal(tree, x)
    for j in range(4):
        assert means[:, j].tobytes() == tree.child_mean(y[:, j]).tobytes()
        assert mart[:, j].tobytes() == martingale_from_terminal(tree, x[:, j]).tobytes()
    s = np.column_stack([martingale(tree, rng) for _ in range(3)])
    thetas = rng.uniform(-1.0, 1.0, (5, tree.n_nodes, 3))
    gains = stoch_integral(tree, thetas, s)
    for j in range(5):
        assert gains[:, j].tobytes() == stoch_integral(tree, thetas[j], s).tobytes()


@pytest.mark.parametrize("tree", TREES, ids=IDS)
def test_restarted_exponential_matches_loop_bitwise(tree):
    rng = np.random.default_rng(tree.n_nodes + 2)
    z = martingale(tree, rng)
    z[tree.nodes_at[1][0]] = 0.0  # absorbed from the first time-1 node on
    for s in range(tree.horizon + 1):
        rexp = restarted_exponential(tree, z, s)
        np.testing.assert_array_equal(rexp, loop_restarted_exponential(tree, z, s, TOL))
        assert_close(is_martingale(tree, rexp)[0], loop_max_drift(tree, rexp, s))


# ---------------------------------------------------------------- mvh


@pytest.mark.parametrize("tree", TREES, ids=IDS)
def test_gains_operator_matches_loop_bitwise(tree):
    rng = np.random.default_rng(tree.n_nodes + 3)
    prices = rng.uniform(-2, 2, (tree.n_nodes, 2))
    op = DenseGains(tree, prices)
    cols, paths = loop_gains_paths(tree, prices)
    assert op.cols == cols
    np.testing.assert_array_equal(op.paths, paths)
    np.testing.assert_array_equal(op.terminal, paths[tree.leaves])
    x = rng.uniform(-1, 1, len(cols))
    theta = op.theta_from_coords(x)
    for c, (n, j) in enumerate(cols):
        assert theta[n, j] == x[c]
    assert np.count_nonzero(theta) == np.count_nonzero(x)
    # the engine reads coordinates in the same order
    np.testing.assert_array_equal(GainsOperator(tree, prices).theta_from_coords(x), theta)


@pytest.mark.parametrize("tree", TREES, ids=IDS)
def test_opportunity_process_matches_loop(tree):
    rng = np.random.default_rng(tree.n_nodes + 4)
    prices = martingale(tree, rng) + 0.3 * tree.time  # a drift makes ell < 1
    h = rng.uniform(-2, 2, tree.n_leaves)
    # the second market's columns are collinear, so every local Gram
    # matrix has rank one
    for market in (prices[:, None], np.column_stack([prices, 2 * prices - 1])):
        opp = opportunity_process(tree, market, h)
        L, v_bar, gains = loop_opportunity(tree, market, h)
        assert_close(opp.L, L)
        assert_close(opp.v_bar, v_bar)
        assert_close(opp.m0, L * (1.0 - gains))
        assert_close(stoch_integral(tree, opp.theta0, market), gains)
    for n in tree.nonterminal():
        assert list(tree.subtree(n)) == sorted(np.flatnonzero(tree.descendants(n)))


def test_nonpositive_probability_raises():
    tree = FiltrationTree([[1, 2], [3, 4], [5], [], [], []], [0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="node 2 has nonpositive probability"):
        tree.child_mean(np.ones(tree.n_nodes))
    with pytest.raises(ValueError, match="nonpositive"):
        martingale_from_terminal(tree, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- quadratic


@pytest.mark.parametrize("tree", TREES, ids=IDS)
def test_price_constructions_match_loops(tree):
    rng = np.random.default_rng(tree.n_nodes + 5)
    h = rng.uniform(0.5, 2.0, tree.n_leaves)
    h[: max(1, tree.n_leaves // 3)] = 0.0  # the density vanishes somewhere
    z = loop_martingale_from_terminal(tree, h)
    m = np.column_stack([martingale(tree, rng) for _ in range(2)])
    m -= m[0]
    s0 = np.array([1.0, 2.0])
    assert_close(_financial_prices(tree, s0, m, z, TOL),
                 loop_financial_prices(tree, s0, m, z, TOL))
    div = rng.uniform(0, 3, (tree.n_leaves, 2))
    assert_close(_productive_prices_degenerate(tree, div, z, TOL),
                 loop_productive_degenerate(tree, div, z, TOL))
    rexps = [loop_restarted_exponential(tree, z, s, TOL)
             for s in range(tree.horizon + 1)]
    bad = [s for s, rexp in enumerate(rexps) if loop_max_drift(tree, rexp, s) > TOL]
    assert restart_martingale_failures(tree, z) == bad


def degenerate_scenario(seed, d1):
    s = generate_random_scenario(seed, horizon=3, branching=3, d1=d1, d2=1, n_agents=2)
    tree = s.tree
    # move agent 0's income so that h_bar vanishes under the root's first child
    gamma_bar = sum(a.preference.gamma for a in s.agents)
    under = tree.leaf_row[[m for m in tree.subtree(tree.children[0][0])
                           if not tree.children[m]]]
    xi0 = s.agents[0].xi_n.copy()
    h_bar = gamma_bar - sum(s.dividends @ a.eta2 + a.xi_n for a in s.agents)
    xi0[under] += h_bar[under]
    xi0[under[0]] += 0.5  # a wedge: E[H D | F_t] no longer vanishes there
    xi0[under[-1]] -= 0.5 * tree.leaf_probs[under[0]] / tree.leaf_probs[under[-1]]
    agents = [AgentSpec(s.agents[0].eta2, xi0, s.agents[0].preference), s.agents[1]]
    return Scenario(tree=tree, d1=d1, d2=1, s0_fin=s.s0_fin, m_fin=s.m_fin,
                    dividends=s.dividends, agents=agents)


@pytest.mark.parametrize(
    "seed, d1", [(seed, d1) for d1 in (1, 2) for seed in range(4)],
    ids=[*map(str, range(4)), *(f"two-assets-{seed}" for seed in range(4))])
def test_necessary_conditions_match_loops(seed, d1):
    s = degenerate_scenario(seed, d1)
    for s in (s, relabel_scenario(s)[0]):
        tree = s.tree
        cond = check_necessary_conditions(s)
        gamma_bar = sum(a.preference.gamma for a in s.agents)
        h_bar = gamma_bar - sum(s.dividends @ a.eta2 + a.xi_n for a in s.agents)
        z = loop_martingale_from_terminal(tree, h_bar)
        dead = [n for n in tree.nonterminal() if abs(z[n]) <= TOL]
        assert dead
        # the value is the bracket E_n[dZ dM_i]
        brackets = [loop_bracket(tree, z, s.m_fin[:, i]) for i in range(d1)]
        ref_xi = [(n, i, brackets[i][n]) for n in dead for i in range(d1)]
        ref_xi = [r for r in ref_xi if abs(r[2]) > TOL]
        assert ref_xi
        if d1 == 1:  # with one asset it is xi d<M>, xi from the Gram-Schmidt loop
            xi, _ = loop_gkw(tree, z, s.m_fin, TOL)
            d_m = loop_bracket(tree, s.m_fin[:, 0], s.m_fin[:, 0])
            assert_close([xi[n, 0] * d_m[n] for n, _, _ in ref_xi],
                         [r[2] for r in ref_xi])
        num = loop_martingale_from_terminal(tree, h_bar * s.dividends[:, 0])
        ref_g = [(n, 0, num[n]) for n in dead if abs(num[n]) > TOL]
        for got, ref in ((cond["cond_xi_failures"], ref_xi),
                         (cond["cond_g_failures"], ref_g)):
            assert [g[:2] for g in got] == [r[:2] for r in ref]
            assert_close([g[2] for g in got], [r[2] for r in ref])


# ---------------------------------------------------------------- scenario, linear_mv


def test_martingale_part_check_names_first_failing_node():
    s = generate_random_scenario(3, horizon=3, branching=3, d1=2, d2=0)
    for scen in (s, relabel_scenario(s)[0]):
        tree = scen.tree
        m = scen.m_fin.copy()
        late = tree.nonterminal()[-2:]
        m[tree.children[late[1]][0], 1] += 0.1
        m[tree.children[late[0]][0], 1] += 0.1
        bad = Scenario(tree=tree, d1=2, d2=0, s0_fin=scen.s0_fin, m_fin=m,
                       dividends=scen.dividends, agents=scen.agents)
        [msg] = validate_scenario(bad)
        drift = {n: tree.child_weights(n) @ m[tree.children[n], 1] - m[n, 1]
                 for n in tree.nonterminal()}
        first = min(n for n, x in drift.items() if abs(x) > TOL)
        assert msg.startswith("m_fin component 1 is not a martingale")
        assert msg.endswith(f"at node {first})")


@pytest.mark.parametrize("seed", range(6))
def test_trivial_regime_matches_loop(seed):
    s = generate_random_scenario(seed, horizon=2, branching=3, d1=1, d2=1,
                                 preference_kind="linear_mv")
    tree = s.tree
    xi_bar = sum(s.dividends @ a.eta2 + a.xi_n for a in s.agents)
    for g0, dividends in ((float(np.max(xi_bar)), s.dividends),
                          (0.0, np.ones_like(s.dividends))):
        scen = Scenario(tree=tree, d1=1, d2=1, s0_fin=s.s0_fin, m_fin=s.m_fin * 0.0,
                        dividends=dividends, agents=s.agents)
        xi_bar = sum(dividends @ a.eta2 + a.xi_n for a in s.agents)
        z0 = loop_martingale_from_terminal(tree, g0 - xi_bar)
        mart = [scen.m_fin[:, 0], loop_martingale_from_terminal(tree, dividends[:, 0])]
        # each bracket against TOL times the levels of its two factors
        scale = max(abs(g0), float(np.max(np.abs(xi_bar))))
        ref = all(np.max(np.abs(loop_bracket(tree, x, z0))) <= TOL * np.max(np.abs(x)) * scale
                  for x in mart)
        assert _is_trivial_regime(tree, np.column_stack(mart), z0, scale, TOL) == ref
        assert ref == (dividends is not s.dividends)


# ---------------------------------------------------------------- invariance


@pytest.mark.parametrize("seed", range(4))
def test_relabelling_nodes_leaves_solutions_unchanged(seed):
    cases = [
        (generate_random_scenario(seed, horizon=3, branching=3, d1=1, d2=1),
         solve_quadratic),
        (degenerate_scenario(seed, 0), solve_quadratic),
        (generate_random_scenario(seed, horizon=3, branching=3, d1=1, d2=2,
                                  preference_kind="linear_mv"), solve_linear_mv),
    ]
    for s, solve in cases:
        relabelled, order = relabel_scenario(s)
        a, b = solve(s), solve(relabelled)
        if solve is solve_quadratic:
            assert a.verdict == b.verdict
        else:
            assert a.exists == b.exists
        if a.prices is None:
            assert b.prices is None
        else:
            assert_close(b.prices, a.prices[order])
