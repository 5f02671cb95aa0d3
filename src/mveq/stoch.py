"""Martingale calculus on filtration trees.

Conditional expectations, predictable brackets, discrete stochastic
integrals and restarted stochastic exponentials.  All functions are pure
and operate on the array conventions documented in :mod:`mveq.tree`.  The
Galtchouk-Kunita-Watanabe decomposition is the hedging engine's and lives
in :mod:`mveq.mvh`.
"""

from __future__ import annotations

import numpy as np

from .scenario import DEFAULT_TOL
from .tree import FiltrationTree

__all__ = [
    "cond_expect",
    "martingale_from_terminal",
    "delta_bracket",
    "stoch_integral",
    "restarted_exponential",
    "is_martingale",
]


def cond_expect(tree: FiltrationTree, x_leaf, t: int) -> np.ndarray:
    """E[x | F_t], one value per time-t node (ordered by node id)."""
    if not 0 <= t <= tree.horizon:
        raise ValueError(f"time {t} outside 0..{tree.horizon}")
    return martingale_from_terminal(tree, x_leaf)[tree.nodes_at[t]]


def martingale_from_terminal(tree: FiltrationTree, x_leaf) -> np.ndarray:
    """The martingale closed by the leaf values, one value per node; leaf
    values of shape ``(n_leaves, m)`` close ``m`` martingales, one column
    each, from one backward sweep (:meth:`FiltrationTree.backward`)."""
    return tree.backward(x_leaf)


def _check_martingale(tree, x, tol, name):
    res, ok = is_martingale(tree, x, tol)
    if not ok:
        raise ValueError(f"{name} is not a martingale (max drift {res!r})")


def _vanishing(z, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The vanishing-density cut: where ``|z| <= tol`` (the density is
    taken for zero) and where ``|z| > tol`` (it may be divided by).  A NaN
    is in neither set."""
    size = np.abs(z)
    return size <= tol, size > tol


def _bracket(tree: FiltrationTree, a, b) -> np.ndarray:
    """E[da db | F_n] at every node, 0 at the leaves; ``a`` and ``b``
    broadcast against each other like their increments."""
    return tree.child_mean(tree.increments(a) * tree.increments(b))


def delta_bracket(
    tree: FiltrationTree, a, b, t: int, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Predictable bracket increment E[da*db | F_{t-1}] of two scalar
    martingales, one value per time-(t-1) node."""
    if not 1 <= t <= tree.horizon:
        raise ValueError(f"time {t} outside 1..{tree.horizon}")
    _check_martingale(tree, a, tol, "first input")
    _check_martingale(tree, b, tol, "second input")
    return _bracket(tree, a, b)[tree.nodes_at[t - 1]]


def stoch_integral(tree: FiltrationTree, theta, s) -> np.ndarray:
    """Discrete stochastic integral (theta . s), one value per node, null
    at the root.  ``theta`` is predictable of shape ``(n_nodes, d)`` and
    ``s`` adapted of shape ``(n_nodes, d)``; scalar shapes are accepted.
    ``m`` strategies at once, ``theta`` of shape ``(m, n_nodes, d)``, give
    one column each, ``(n_nodes, m)``, from one forward sweep."""
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if theta.ndim == 1:
        theta = theta[:, None]
    steps = np.sum(theta[..., tree.parent[1:], :] * tree.increments(s)[1:], axis=-1)
    gains = np.zeros((tree.n_nodes,) + steps.shape[:-1])
    gains[1:] = steps.T
    return tree.accumulate(gains)


def restarted_exponential(
    tree: FiltrationTree, z, s: int, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Multiplicative restart of the martingale ``z`` at time ``s``.

    The increment ratio dz/z_prev is taken to be 0 wherever the previous
    value vanishes (within ``tol``), so the process is absorbed at 0 when
    ``z`` hits 0 from a nonzero value.  Returns one value per node; nodes
    before time ``s`` carry NaN.
    """
    if not 0 <= s <= tree.horizon:
        raise ValueError(f"time {s} outside 0..{tree.horizon}")
    z = np.asarray(z, dtype=float)
    z_prev = z[tree.parent[1:]]
    ratio = np.zeros(tree.n_nodes - 1)
    np.divide(z[1:] - z_prev, z_prev, out=ratio, where=_vanishing(z_prev, tol)[1])
    out = np.where(tree.time < s, np.nan, 1.0)
    later = tree.time[1:] > s
    out[1:][later] = 1.0 + ratio[later]
    return tree.accumulate(out, s, np.multiply)


def is_martingale(
    tree: FiltrationTree, x, tol: float = DEFAULT_TOL
) -> tuple[float, bool]:
    """Max absolute one-step drift of an adapted scalar process and whether
    it stays within ``tol``.  Nodes whose drift is NaN (the process is
    undefined there, as before the start of a restarted exponential) are
    skipped."""
    x = np.asarray(x, dtype=float)
    nt = tree.nonterminal()
    drift = np.abs(tree.child_mean(x)[nt] - x[nt])
    worst = float(np.max(drift, initial=0.0, where=~np.isnan(drift)))
    return worst, worst <= tol
