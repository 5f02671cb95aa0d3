import warnings

import numpy as np
import pytest

from mveq import FiltrationTree
from mveq.generate import random_tree


def test_basic_shape(coin_tree):
    assert coin_tree.n_nodes == 3
    assert coin_tree.n_leaves == 2
    assert coin_tree.horizon == 1
    assert list(coin_tree.leaves) == [1, 2]
    assert list(coin_tree.nonterminal()) == [0]
    assert coin_tree.prob[0] == pytest.approx(1.0)


def test_two_period_bookkeeping():
    tree = FiltrationTree([[1, 2], [3, 4], [5, 6], [], [], [], []],
                          [0.1, 0.2, 0.3, 0.4])
    assert tree.horizon == 2
    assert list(tree.time) == [0, 1, 1, 2, 2, 2, 2]
    assert tree.prob[1] == pytest.approx(0.3)
    assert tree.prob[2] == pytest.approx(0.7)
    assert list(tree.path(4)) == [0, 1, 4]
    assert list(tree.subtree(2)) == [2, 5, 6]
    np.testing.assert_allclose(tree.child_weights(1), [1 / 3, 2 / 3])
    # probabilities at each fixed time sum to 1
    for t in range(tree.horizon + 1):
        assert tree.prob[tree.nodes_at[t]].sum() == pytest.approx(1.0)


def test_rejects_malformed_trees():
    with pytest.raises(ValueError):
        FiltrationTree([], [])  # no root
    with pytest.raises(ValueError):
        FiltrationTree([[1], [0]], [1.0])  # child id not larger than parent
    with pytest.raises(ValueError):
        FiltrationTree([[1, 2], [], [], []], [0.5, 0.5])  # disconnected node
    with pytest.raises(ValueError):
        # leaves at different depths
        FiltrationTree([[1, 2], [3], [], []], [0.5, 0.5])
    with pytest.raises(ValueError):
        FiltrationTree([[1, 2], [], []], [0.5, 0.25, 0.25])  # prob count


def test_random_tree_is_consistent():
    rng = np.random.default_rng(7)
    tree = random_tree(rng, horizon=3, branching=3)
    assert tree.horizon == 3
    assert tree.leaf_probs.sum() == pytest.approx(1.0)
    assert np.all(tree.leaf_probs > 0)
    for t in range(4):
        assert tree.prob[tree.nodes_at[t]].sum() == pytest.approx(1.0)


def test_infinite_leaf_probability_is_left_to_validation():
    # inf / inf, or finite probabilities summing past the float range,
    # would warn; the children of the infinite node get NaN
    for leaf_probs in ([np.inf, 0.5], [1e308, 1e308]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = FiltrationTree([[1, 2], [], []], leaf_probs)
        assert tree.prob[0] == np.inf
        assert np.all(np.isnan(tree.cond_prob[1:]))


def test_level_plan_built_once_and_read_only():
    tree = FiltrationTree([[1, 2], [3, 4], [5, 6, 7], [], [], [], [], []],
                          [0.1, 0.2, 0.3, 0.2, 0.2])
    levels = tree.levels()
    assert tree.levels() is levels
    assert [lv.nodes.tolist() for lv in levels] == [[0], [1, 2]]
    # children by increasing id, padded with n_nodes; sqrt(p) 0 at the padding
    assert levels[1].kids.tolist() == [[3, 4, 8], [5, 6, 7]]
    np.testing.assert_array_equal(levels[1].sqrt_p,
                                  np.sqrt(np.append(tree.cond_prob, 0.0))[levels[1].kids])
    assert [lv.parents.tolist() for lv in levels] == [[0, 0], [1, 1, 2, 2, 2]]
    for lv in levels:
        for a in lv:
            with pytest.raises(ValueError):
                a[0] = 0
    # accumulate reads the same plan
    np.testing.assert_array_equal(tree.accumulate(np.ones(8)), [1, 2, 2, 3, 3, 3, 3, 3])


def test_level_plan_needs_positive_probabilities():
    tree = FiltrationTree([[1, 2], [3, 4], [5, 6], [], [], [], []], [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="node 2 has nonpositive probability"):
        tree.levels()
    # the forward sweep needs only the parents
    assert list(tree.subtree(2)) == [2, 5, 6]
