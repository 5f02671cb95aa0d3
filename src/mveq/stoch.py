"""Martingale calculus on filtration trees.

Conditional expectations, predictable brackets, the orthogonal
(Galtchouk-Kunita-Watanabe style) decomposition of a martingale against a
family of reference martingales, discrete stochastic integrals and
restarted stochastic exponentials.  All functions are pure and operate on
the array conventions documented in :mod:`mveq.tree`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import DEFAULT_TOL
from .tree import FiltrationTree

__all__ = [
    "cond_expect",
    "martingale_from_terminal",
    "delta_bracket",
    "gkw_decompose",
    "GkwDecomposition",
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
    """The martingale closed by the leaf values, one value per node."""
    out = np.zeros(tree.n_nodes)
    out[tree.leaves] = np.asarray(x_leaf, dtype=float)
    for lvl in reversed(tree.nodes_at[:-1]):
        out[lvl] = tree.child_mean(out)[lvl]
    return out


def _check_martingale(tree, x, tol, name):
    res, ok = is_martingale(tree, x, tol)
    if not ok:
        raise ValueError(f"{name} is not a martingale (max drift {res!r})")


def delta_bracket(
    tree: FiltrationTree, a, b, t: int, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Predictable bracket increment E[da*db | F_{t-1}] of two scalar
    martingales, one value per time-(t-1) node."""
    if not 1 <= t <= tree.horizon:
        raise ValueError(f"time {t} outside 1..{tree.horizon}")
    _check_martingale(tree, a, tol, "first input")
    _check_martingale(tree, b, tol, "second input")
    bracket = tree.child_mean(tree.increments(a) * tree.increments(b))
    return bracket[tree.nodes_at[t - 1]]


@dataclass(frozen=True)
class GkwDecomposition:
    """z = z0 + (xi . m) + residual with residual strongly orthogonal to
    every reference martingale."""

    xi: np.ndarray  # (n_nodes, d1), meaningful at non-terminal nodes
    residual: np.ndarray  # (n_nodes,), martingale null at the root
    z0: float


def gkw_decompose(
    tree: FiltrationTree, z, m, tol: float = DEFAULT_TOL
) -> GkwDecomposition:
    """Orthogonal decomposition of the martingale ``z`` against the columns
    of ``m`` (shape ``(n_nodes, d1)``).

    Per node, the increment of ``z`` is orthogonally projected onto the
    span of the reference increments in the conditional inner product.
    The integrand is computed by Gram-Schmidt in column order; directions
    with vanishing conditional variance get coefficient 0, which picks a
    canonical representative when the increments are linearly dependent.
    """
    z = np.asarray(z, dtype=float)
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    d1 = m.shape[1]
    _check_martingale(tree, z, tol, "z")
    for j in range(d1):
        _check_martingale(tree, m[:, j], tol, f"m[{j}]")

    n = tree.n_nodes
    parent = tree.parent[1:]
    dz = tree.increments(z)
    dm = tree.increments(m)  # (n_nodes, d1), child-indexed

    def inner(x, y):
        return tree.child_mean(x * y)

    # Gram-Schmidt over the reference increments at every node at once,
    # tracking how each orthogonal direction expands in the original
    # columns; a direction only enters a node's basis where it is kept.
    xi = np.zeros((n, d1))
    basis: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for i in range(d1):
        o = dm[:, i].copy()
        coeffs = np.zeros((n, d1))
        coeffs[:, i] = 1.0
        for ob, cb, nb in basis:
            c = np.divide(inner(dm[:, i], ob), nb, out=np.zeros(n),
                          where=nb > tol)
            o[1:] -= c[parent] * ob[1:]
            coeffs -= c[:, None] * cb
        nrm = inner(o, o)
        basis.append((o, coeffs, nrm))
        coef = np.divide(inner(dz, o), nrm, out=np.zeros(n), where=nrm > tol)
        xi += coef[:, None] * coeffs
    dres = np.zeros(n)
    dres[1:] = dz[1:] - np.sum(dm[1:] * xi[parent], axis=1)
    residual = tree.accumulate(dres)
    return GkwDecomposition(xi=xi, residual=residual, z0=float(z[0]))


def stoch_integral(tree: FiltrationTree, theta, s) -> np.ndarray:
    """Discrete stochastic integral (theta . s), one value per node, null
    at the root.  ``theta`` is predictable of shape ``(n_nodes, d)`` and
    ``s`` adapted of shape ``(n_nodes, d)``; scalar shapes are accepted."""
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if theta.ndim == 1:
        theta = theta[:, None]
    gains = np.zeros(tree.n_nodes)
    gains[1:] = np.sum(theta[tree.parent[1:]] * tree.increments(s)[1:], axis=1)
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
    np.divide(z[1:] - z_prev, z_prev, out=ratio, where=np.abs(z_prev) > tol)
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
