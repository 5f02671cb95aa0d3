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
    # inf / inf would warn; the children of the infinite node get NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = FiltrationTree([[1, 2], [], []], [np.inf, 0.5])
    assert tree.prob[0] == np.inf
    assert np.all(np.isnan(tree.cond_prob[1:]))
