import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mveq import (
    cond_expect,
    delta_bracket,
    gkw_decompose,
    is_martingale,
    martingale_from_terminal,
    restarted_exponential,
    stoch_integral,
)
from mveq.generate import random_tree
from conftest import one_period_tree

leaf_values = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=8, max_size=8
)


def two_period_tree():
    return random_tree(np.random.default_rng(3), horizon=2, branching=3)


def test_cond_expect_constant(coin_tree):
    np.testing.assert_allclose(cond_expect(coin_tree, [3.0, 3.0], 0), [3.0])


def test_cond_expect_weighted_average(coin_tree):
    np.testing.assert_allclose(cond_expect(coin_tree, [8.0, 9.0], 0), [8.5])


def test_cond_expect_indicator(coin_tree):
    np.testing.assert_allclose(cond_expect(coin_tree, [1.0, 0.0], 0), [0.5])


def test_cond_expect_rejects_bad_time(coin_tree):
    with pytest.raises(ValueError):
        cond_expect(coin_tree, [1.0, 2.0], 2)


@settings(max_examples=25, deadline=None)
@given(leaf_values)
def test_tower_property(x):
    tree = random_tree(np.random.default_rng(11), horizon=3, branching=2)
    x = np.resize(x, tree.n_leaves)
    e1 = cond_expect(tree, x, 2)
    # project the time-2 values back to leaves and condition again
    z = martingale_from_terminal(tree, x)
    np.testing.assert_allclose(z[tree.nodes_at[2]], e1, atol=1e-12)
    np.testing.assert_allclose(
        cond_expect(tree, z[tree.leaves], 1), cond_expect(tree, x, 1), atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(leaf_values)
def test_martingale_from_terminal_is_martingale(x):
    tree = two_period_tree()
    x = np.resize(x, tree.n_leaves)
    z = martingale_from_terminal(tree, x)
    assert is_martingale(tree, z)[1]
    np.testing.assert_allclose(z[tree.leaves], x)


def test_delta_bracket_values():
    tree = one_period_tree()
    m = martingale_from_terminal(tree, [1.0, -1.0])
    np.testing.assert_allclose(delta_bracket(tree, m, m, 1), [1.0])
    const = np.full(tree.n_nodes, 2.0)
    np.testing.assert_allclose(delta_bracket(tree, const, m, 1), [0.0])


def test_delta_bracket_orthogonal_product():
    tree = one_period_tree((0.25, 0.25, 0.25, 0.25))
    a = martingale_from_terminal(tree, [1.0, 1.0, -1.0, -1.0])
    b = martingale_from_terminal(tree, [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(delta_bracket(tree, a, b, 1), [0.0])


def test_delta_bracket_rejects_non_martingale(coin_tree):
    drifting = np.array([0.0, 1.0, 1.0])
    mart = martingale_from_terminal(coin_tree, [1.0, -1.0])
    with pytest.raises(ValueError):
        delta_bracket(coin_tree, drifting, mart, 1)


@settings(max_examples=25, deadline=None)
@given(leaf_values, leaf_values, st.floats(-3, 3))
def test_delta_bracket_bilinear_symmetric(xa, xb, lam):
    tree = two_period_tree()
    a = martingale_from_terminal(tree, np.resize(xa, tree.n_leaves))
    b = martingale_from_terminal(tree, np.resize(xb, tree.n_leaves))
    for t in (1, 2):
        ab = delta_bracket(tree, a, b, t)
        np.testing.assert_allclose(ab, delta_bracket(tree, b, a, t), atol=1e-10)
        np.testing.assert_allclose(
            delta_bracket(tree, a + lam * b, b, t),
            ab + lam * delta_bracket(tree, b, b, t),
            atol=1e-8,
        )


def test_gkw_perfect_hedge(coin_tree):
    m = martingale_from_terminal(coin_tree, [1.0, -1.0])
    z = 2.0 - m
    dec = gkw_decompose(coin_tree, z, m)
    np.testing.assert_allclose(dec.xi[0], [-1.0])
    np.testing.assert_allclose(dec.residual, 0.0, atol=1e-12)
    assert dec.z0 == pytest.approx(2.0)


def test_gkw_constant_z(coin_tree):
    m = martingale_from_terminal(coin_tree, [1.0, -1.0])
    dec = gkw_decompose(coin_tree, np.full(3, 5.0), m)
    np.testing.assert_allclose(dec.xi, 0.0, atol=1e-12)
    np.testing.assert_allclose(dec.residual, 0.0, atol=1e-12)


def test_gkw_orthogonal_z():
    tree = one_period_tree((0.25, 0.25, 0.25, 0.25))
    m = martingale_from_terminal(tree, [1.0, 1.0, -1.0, -1.0])
    z = martingale_from_terminal(tree, [1.0, -1.0, 1.0, -1.0])
    dec = gkw_decompose(tree, z, m)
    np.testing.assert_allclose(dec.xi, 0.0, atol=1e-12)
    np.testing.assert_allclose(dec.residual, z - z[0], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(leaf_values, leaf_values, leaf_values)
def test_gkw_reconstruction_and_orthogonality(xz, x1, x2):
    tree = two_period_tree()
    z = martingale_from_terminal(tree, np.resize(xz, tree.n_leaves))
    m = np.column_stack(
        [
            martingale_from_terminal(tree, np.resize(x, tree.n_leaves))
            for x in (x1, x2)
        ]
    )
    m -= m[0]
    dec = gkw_decompose(tree, z, m)
    # reconstruction at every node
    recon = dec.z0 + stoch_integral(tree, dec.xi, m) + dec.residual
    np.testing.assert_allclose(recon, z, atol=1e-9)
    # residual is a martingale strongly orthogonal to each reference column
    assert is_martingale(tree, dec.residual, 1e-9)[1]
    for j in range(2):
        for t in (1, 2):
            np.testing.assert_allclose(
                delta_bracket(tree, dec.residual, m[:, j], t, 1e-7),
                0.0,
                atol=1e-9,
            )


@pytest.mark.parametrize(
    "x1",
    [
        # two equal leaves under node 3: its increments are round-off
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.6110393588425255, 0.6110393588425255, 0.0],
        # a leaf at 2.2e-16 under node 2, below the round-off of m's values
        [0.0, 0.0, 0.0, 0.0, 2.220446049250313e-16, 0.0, 1.0, 0.0],
    ],
    ids=["equal-leaves", "ulp-leaf"],
)
def test_gkw_cuts_round_off_increments(x1):
    tree = two_period_tree()
    z = martingale_from_terminal(tree, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    m = martingale_from_terminal(tree, np.resize(x1, tree.n_leaves))
    m = np.column_stack([m - m[0], np.zeros(tree.n_nodes)])
    dec = gkw_decompose(tree, z, m)
    # the exact integrand is at most 1 in size; inverting round-off is not
    assert np.abs(dec.xi).max() <= 1.0 + 1e-12
    assert is_martingale(tree, dec.residual, 1e-12)[1]
    for t in (1, 2):
        np.testing.assert_allclose(
            delta_bracket(tree, dec.residual, m[:, 0], t, 1e-7), 0.0, atol=1e-12
        )


def test_gkw_sequential_orthogonality_single_column():
    # with one reference column the hedged part is strongly orthogonal to
    # the residual itself
    tree = two_period_tree()
    rng = np.random.default_rng(5)
    z = martingale_from_terminal(tree, rng.uniform(-2, 2, tree.n_leaves))
    m = martingale_from_terminal(tree, rng.uniform(-2, 2, tree.n_leaves))
    m = m - m[0]
    dec = gkw_decompose(tree, z, m)
    hedged = stoch_integral(tree, dec.xi, m)
    for t in (1, 2):
        np.testing.assert_allclose(
            delta_bracket(tree, hedged, dec.residual, t, 1e-7), 0.0, atol=1e-9
        )


def test_stoch_integral_buy_and_hold(coin_tree):
    s = np.array([[1.0, 0.0], [2.0, 1.0], [0.5, -1.0]])
    theta = np.zeros((3, 2))
    theta[0] = [1.0, 0.0]
    np.testing.assert_allclose(stoch_integral(coin_tree, theta, s), [0.0, 1.0, -0.5])
    np.testing.assert_allclose(stoch_integral(coin_tree, 0 * theta, s), 0.0)


@settings(max_examples=25, deadline=None)
@given(leaf_values)
def test_integral_against_martingale_is_martingale(x):
    tree = two_period_tree()
    s = martingale_from_terminal(tree, np.resize(x, tree.n_leaves))
    rng = np.random.default_rng(1)
    theta = rng.uniform(-1, 1, size=(tree.n_nodes, 1))
    gains = stoch_integral(tree, theta, s)
    assert is_martingale(tree, gains, 1e-9)[1]


def test_restarted_exponential_nonvanishing():
    tree = two_period_tree()
    rng = np.random.default_rng(9)
    z = martingale_from_terminal(tree, rng.uniform(1.0, 3.0, tree.n_leaves))
    for s in range(tree.horizon + 1):
        rexp = restarted_exponential(tree, z, s)
        for n in range(tree.n_nodes):
            if tree.time[n] < s:
                assert np.isnan(rexp[n])
            else:
                # ratio form holds when z never vanishes
                anc = n
                while tree.time[anc] > s:
                    anc = tree.parent[anc]
                assert rexp[n] == pytest.approx(z[n] / z[anc])


def test_restarted_exponential_constant(coin_tree):
    z = np.full(3, 4.0)
    np.testing.assert_allclose(restarted_exponential(coin_tree, z, 0), 1.0)


def test_restarted_exponential_absorbed_at_zero(coin_tree):
    z = martingale_from_terminal(coin_tree, [-1.0, 1.0])  # z0 = 0
    rexp = restarted_exponential(coin_tree, z, 0)
    np.testing.assert_allclose(rexp, [1.0, 1.0, 1.0])


def test_is_martingale_flags_drift(coin_tree):
    assert not is_martingale(coin_tree, np.array([0.0, 1.0, 1.0]))[1]
    assert is_martingale(coin_tree, np.array([0.0, 1.0, -1.0]))[1]
