"""Mean-variance hedging by nodewise dynamic programming.

Strategies are identified by their gains paths ("S-equivalence").  One
:class:`GainsOperator` per price system runs the backward recursion of
discrete-time mean-variance hedging (Schweizer 1995; Cerny 2004) once: at
each non-terminal node ``n`` it factors the weighted local increments
``X_n = diag(sqrt(p_c L_c)) dS_c`` over the children ``c`` (one stacked SVD
per level, singular values cut at ``RCOND`` relative to the node's
largest; with one asset the pseudo-inverse ``x^T / |x|^2`` needs none),
and takes from that factor the local pure-investment hedge ratio
``beta_n``, the opportunity process ``L`` (the minimal conditional squared
error of hedging the payoff 1, with ``ell = L_0``) and the pure-investment
hedge ``theta1``.

Hedging payoffs, given as the columns of one matrix, is one more backward
sweep for their mean value processes ``v_bar`` (with ``xi_n = pinv(X_n)
(sqrt(p L) v_bar)``) and one forward feedback sweep ``theta_n = xi_n - V_n
beta_n``, where ``V`` is the wealth started from capital 0 (the hedge) or
``v_bar_0`` (the hedge with a free initial constant, which equals the
closed form ``E[h(1 - g)] / ell`` with ``g`` the terminal pure-investment
gain).  Where ``L`` is at most ``RCOND**2`` the payoff 1 is replicable from
that node on: its weight and its ``v_bar`` are taken as 0.  Gains are
unique iff at no node does dropping the children with ``L <= tol`` lower
the rank of the local increments.  Every sweep costs O(nodes b d^2) for
branching ``b`` and ``d`` assets.  Functions taking ``prices`` here, in
``quadratic`` and in ``linear_mv`` also accept the operator of those prices.

Each level of the recursion reads its nodes, their padded children and
the square roots of the children's conditional probabilities from the
tree's level plan (``FiltrationTree.levels``), built once per tree; with
one asset a level runs on ``(k, b)`` arrays.  The pure-investment
shortfall ``y`` and hedge ``theta1`` are computed on first read: a
quadratic solve never reads them.

Repeated calls on the same tree object and bitwise-equal prices share one
engine: the last one built is kept and reused, so a solve, the agents'
frontiers and the opportunity process of its prices run the backward
recursion once.  An engine keeps its own copy of the prices, and its
arrays (``prices``, ``L``, ``beta``, ``y``, ``theta1``) are read-only.
The payoffs hedged for the agents come from the scenario's endowment
matrix (``Scenario.endowments``), built once per scenario: a scenario
cannot change after construction (read-only arrays, ``agents`` a tuple).

Each engine also keeps its last payoff sweep in one slot: ``v_bar`` and
the per-level ``xi`` of the payoff matrix swept last, keyed on that
matrix's shape and bytes, plus its ``eps2`` once :meth:`GainsOperator.values`
asked for it.  The slot holds one payoff matrix (the next one evicts it)
and hands out read-only arrays.  :meth:`GainsOperator.hedges` and
:meth:`GainsOperator.values` both go through it, so the frontiers of
``linear_mv.agent_frontier``, read off the sweep of every agent's
endowment, reuse the sweep the solve's hedge ran.

The Galtchouk-Kunita-Watanabe decomposition of a martingale against
reference martingales is the hedge with those martingales as prices
taken with ``beta = 0`` and ``L = 1``: ``xi`` is the least-norm integrand
of the local projection (Schweizer 1995; Cerny and Kallsen 2007).  It
runs that projection itself rather than on an engine, which would read
the round-off in ``E[dM]`` as a drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scenario import DEFAULT_TOL
from .stoch import (
    _check_martingale,
    is_martingale,
    martingale_from_terminal,
    stoch_integral,
)
from .tree import FiltrationTree

__all__ = [
    "GkwDecomposition",
    "MvhSolution",
    "OpportunityProcess",
    "solve_mvh",
    "solve_exmvh",
    "c_of_H_formula",
    "pure_investment",
    "uniqueness_of_gains",
    "uniqueness_of_values",
    "zero_solves_mvh_iff",
    "opportunity_process",
    "gkw_decompose",
]

RCOND = 1e-10
# values of the opportunity process treated as 0
L_CUT = RCOND**2
# gkw_decompose's cut, relative to the scale of the reference values: per
# unit of dz, a kept direction of size s adds a drift of about eps * scale
# / s and a cut one leaves a bracket of s, or s / scale relative to that
# scale; the two meet at s = sqrt(eps) * scale
GKW_RCOND = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class MvhSolution:
    """Least-squares hedge: strategy, optional initial constant, attained
    squared error and a uniqueness diagnostic."""

    theta: np.ndarray
    sq_error: float
    c: float | None = None
    unique: bool = False


class _Level(NamedTuple):
    """One time step of the sweeps: the ``k`` nodes at that time, their
    children (padded to ``b`` per row, see ``FiltrationTree.levels``)
    and the factored local increments."""

    nodes: np.ndarray
    kids: np.ndarray
    dsk: np.ndarray  # (k, b, d) price steps to the children
    beta: np.ndarray  # (k, d, 1) local pure-investment hedge ratios
    m: np.ndarray  # (k, d + 1, b): v_bar at the children -> xi and L v_bar
    inv_L: np.ndarray  # (k,) 1 / L, 0 where L is cut
    x: np.ndarray  # (k, b, d) weighted increments X = w dS
    wgt: np.ndarray  # (k, b) weights w = sqrt(p L)
    res: np.ndarray  # (k, b) local residual w (1 - beta . dS) of the payoff 1


class _Sweep:
    """The slot of an engine's last backward sweep: the payoff matrix's
    shape and bytes, its ``v`` (``v_bar`` plus a padding row) and per-level
    ``xi``, and ``eps2`` once :meth:`GainsOperator.values` asked for it.
    Every array is read-only."""

    def __init__(self, key, v, xis):
        self.key, self.v, self.xis = key, v, xis
        self.v_bar = v[:-1]
        self.eps2 = None


def _price_matrix(prices) -> np.ndarray:
    """``prices`` as a float array with one column per asset."""
    prices = np.asarray(prices, dtype=float)
    return prices[:, None] if prices.ndim == 1 else prices


class GainsOperator:
    """Mean-variance hedging engine of one price system.

    Attributes set by the backward sweep: ``L`` (opportunity process, one
    value per node), ``ell = L[0]`` and ``beta`` (local pure-investment
    hedge ratios, 0 at the leaves); computed on first read: ``y``
    (shortfall ``1 - g`` of the pure-investment hedge started at the root)
    and ``theta1 = beta * y``, that hedge.  These arrays and ``prices``,
    the engine's own copy of the prices, are read-only.
    """

    def __init__(self, tree: FiltrationTree, prices):
        prices = np.array(_price_matrix(prices))  # the engine's own copy
        self.tree, self.prices = tree, prices
        n, d = prices.shape
        # index n pads the child tables: no step
        ds = np.zeros((n + 1, d))
        ds[:n] = tree.increments(prices)
        if d == 1:
            ds = ds[:, 0]
        L = np.ones(n + 1)
        sl = np.ones(n + 1)  # sqrt(L), 0 where L is cut
        step = np.ones(n + 1)
        beta = np.zeros((n, d))
        self._levels = []
        for lv in reversed(tree.levels()):
            nodes, kids = lv.nodes, lv.kids
            wgt = lv.sqrt_p * sl[kids]
            dsk = ds[kids]
            # rows 0..d-1 of m map v_bar at the children to xi, row d to L v_bar
            m = np.empty((len(nodes), d + 1, kids.shape[1]))
            if d == 1:  # one singular value, |x|: pinv(x) = x^T / |x|^2
                x = wgt * dsk
                n2 = np.einsum("kb,kb->k", x, x)
                pw = np.divide(x, np.where(n2 > 0.0, n2, 1.0)[:, None], out=m[:, 0])
                pw *= wgt  # pinv(X) diag(w): maps v_bar at the children to xi
                b = pw.sum(axis=1)[:, None]
                gain = dsk * b
                dsk, x = dsk[:, :, None], x[:, :, None]
            else:
                x = wgt[:, :, None] * dsk
                u, sv, vt = np.linalg.svd(x, full_matrices=False)
                keep = sv > RCOND * sv[:, :1]
                inv = keep / np.where(keep, sv, 1.0)
                pinv = (vt.transpose(0, 2, 1) * inv[:, None, :]) @ u.transpose(0, 2, 1)
                pw = np.multiply(pinv, wgt[:, None, :], out=m[:, :d])
                b = pw.sum(axis=2)
                gain = (dsk @ b[:, :, None])[:, :, 0]
            short = 1.0 - gain
            step[kids] = short
            res = wgt * short  # local residual of the pure investment
            np.multiply(res, wgt, out=m[:, d])
            beta[nodes] = b
            Ln = (res * res).sum(axis=1)
            L[nodes] = Ln
            live = Ln > L_CUT
            sl[nodes] = np.sqrt(Ln * live)
            inv_L = live / np.where(live, Ln, 1.0)
            self._levels.append(_Level(nodes, kids, dsk, b[:, :, None], m, inv_L, x, wgt, res))
        self._levels.reverse()
        self.L = L[:n]
        self.ell = float(L[0])
        self.beta = beta
        self._step = step[:n]
        self._y = self._theta1 = None
        # the engine may be shared by every caller of the same price system
        for a in (self.prices, self.L, self.beta):
            a.flags.writeable = False
        self._unique: dict[float, bool] = {}
        self._swept: _Sweep | None = None

    @property
    def y(self) -> np.ndarray:
        """Shortfall ``1 - g`` of the pure-investment hedge started at the
        root, per node; one forward sweep on first read."""
        if self._y is None:
            y = self.tree.accumulate(self._step.copy(), 0, np.multiply)
            y.flags.writeable = False
            self._y = y
        return self._y

    @property
    def theta1(self) -> np.ndarray:
        """The pure-investment hedge ``beta * y``; computed on first read."""
        if self._theta1 is None:
            theta1 = self.beta * self.y[:, None]
            theta1.flags.writeable = False
            self._theta1 = theta1
        return self._theta1

    def theta_from_coords(self, x: np.ndarray) -> np.ndarray:
        """Strategy ``(n_nodes, d)`` from its coordinates ``x``, the flat
        vector of the d-vectors held at the nodes of ``tree.nonterminal()``
        in that order; ``m`` strategies at once from ``x`` of shape ``(m,
        n_nonterminal, d)`` give ``(m, n_nodes, d)``.  Leaves hold 0."""
        nt = self.tree.nonterminal()
        x = np.asarray(x, dtype=float)
        flat = x.ndim == 1
        x = x.reshape(-1, len(nt), self.prices.shape[1])
        theta = np.zeros((len(x), self.tree.n_nodes, x.shape[2]))
        theta[:, nt] = x
        return theta[0] if flat else theta

    def unique_gains(self, tol: float) -> bool:
        """See :func:`uniqueness_of_gains`."""
        if tol not in self._unique:
            self._unique[tol] = self._gains_unique(tol)
        return self._unique[tol]

    def _gains_unique(self, tol: float) -> bool:
        """A strategy with null terminal gains but a nonzero gains path
        exists iff some step pays off only at children from which the
        payoff 1 is replicable (``L <= tol``) and nowhere else."""
        L = np.append(self.L, 1.0)
        if L[1:].min() > tol:
            return True
        for plan, lv in zip(self.tree.levels(), self._levels):
            low = L[lv.kids] <= tol
            rows = low.any(axis=1)
            if not rows.any():
                continue
            low = low[rows]
            y = plan.sqrt_p[rows][:, :, None] * lv.dsk[rows]
            sv_all = np.linalg.svd(y, compute_uv=False)
            sv_kept = np.linalg.svd(np.where(low[:, :, None], 0.0, y), compute_uv=False)
            cut = RCOND * sv_all[:, :1]
            if np.any(np.sum(sv_kept > cut, axis=1) < np.sum(sv_all > cut, axis=1)):
                return False
        return True

    def unique_values(self, tol: float) -> bool:
        """See :func:`uniqueness_of_values`."""
        return self.unique_gains(tol) and self.ell > tol

    def values(self, H) -> tuple[np.ndarray, np.ndarray]:
        """Mean value process of each payoff column of ``H`` (one row per
        leaf) at every node, and each column's minimal squared error with
        a free initial constant, ``eps2``: the sum over nodes of ``P(n)``
        times the squared local residual.  One backward sweep, or none if
        ``H`` was the last payoff matrix swept; both arrays are read-only."""
        sw = self._sweep(H)
        if sw.eps2 is None:
            sw.eps2 = self._errors(sw)
        return sw.v_bar, sw.eps2

    def constants(self, H) -> np.ndarray:
        """Closed-form initial constants ``E[h (1 - g)] / ell`` of the
        payoff columns of ``H``; no sweep."""
        tree = self.tree
        return (tree.leaf_probs * self.y[tree.leaves]) @ np.asarray(H, float) / self.ell

    def _sweep(self, H) -> _Sweep:
        """The backward sweep of the payoff columns of ``H``, taken from
        the slot if ``H`` has the same shape and bits as the payoff matrix
        swept last (so ``-0.0`` and ``0.0`` never share one), else run and
        put in the slot."""
        H = np.asarray(H, dtype=float).reshape(self.tree.n_leaves, -1)
        key = (H.shape, H.tobytes())
        sw = self._swept  # read once, like _as_operator's slot
        if sw is None or sw.key != key:
            v, xis = self._backward(H)
            for a in (v, *xis):
                a.flags.writeable = False
            sw = self._swept = _Sweep(key, v, xis)
        return sw

    def _backward(self, H):
        """``v_bar`` (n_nodes + 1, m; the last row pads the child tables)
        and the per-level ``xi`` (k, d, m) of the payoff columns of ``H``."""
        tree = self.tree
        n, d = self.prices.shape
        v = np.zeros((n + 1, H.shape[1]))
        v[tree.leaves] = H
        xis = []
        for lv in reversed(self._levels):
            out = lv.m @ v[lv.kids]
            v[lv.nodes] = out[:, d] * lv.inv_L[:, None]
            xis.append(out[:, :d])
        return v, xis[::-1]

    def _errors(self, sw: _Sweep) -> np.ndarray:
        """``eps2`` (m,) of a swept payoff matrix, read off its ``v_bar``
        and ``xi`` without another sweep; read-only."""
        v = sw.v
        eps2 = np.zeros(v.shape[1])
        for lv, xi in zip(reversed(self._levels), reversed(sw.xis)):
            r = (lv.wgt[:, :, None] * v[lv.kids] - lv.x @ xi
                 - lv.res[:, :, None] * v[lv.nodes][:, None, :])
            eps2 += self.tree.prob[lv.nodes] @ np.einsum("kbm,kbm->km", r, r)
        eps2.flags.writeable = False
        return eps2

    def _forward(self, xis, capital) -> tuple[np.ndarray, np.ndarray]:
        """Strategies (``(m, n_nodes, d)``) and wealth paths (``(n_nodes,
        m)``) of the feedback ``theta = xi - V beta``, the wealth ``V``
        started from ``capital`` (one per column)."""
        n, d = self.prices.shape
        wealth = np.zeros((n + 1, len(capital)))
        wealth[0] = capital
        theta = np.zeros((n, d, len(capital)))  # leaves hold 0
        for lv, xi in zip(self._levels, xis):
            vn = wealth[lv.nodes]
            th = theta[lv.nodes] = xi - lv.beta * vn[:, None, :]
            wealth[lv.kids] = vn[:, None, :] + lv.dsk @ th
        return np.ascontiguousarray(theta.transpose(2, 0, 1)), wealth[:n]

    def hedges(self, H, tol: float, extended=False) -> list[MvhSolution]:
        """Hedge of each payoff column of ``H`` (one row per leaf) from one
        backward sweep (none if ``H`` is the payoff matrix in the slot)
        and one forward sweep.  ``extended`` (one flag, or one
        per column) marks the columns hedged with a free initial constant,
        ``v_bar_0`` (see :func:`solve_exmvh`); they need ``ell > tol``."""
        tree = self.tree
        H = np.asarray(H, dtype=float).reshape(tree.n_leaves, -1)
        extended = np.broadcast_to(np.asarray(extended, dtype=bool), H.shape[1:])
        if extended.any() and self.ell <= tol:
            raise ValueError("value-process uniqueness fails")
        sw = self._sweep(H)
        capital = np.where(extended, sw.v[0], 0.0)
        theta, wealth = self._forward(sw.xis, capital)
        err = tree.leaf_probs @ (wealth[tree.leaves] - H) ** 2
        unique = self.unique_gains(tol)
        return [
            MvhSolution(theta[j], float(err[j]), float(capital[j]) if extended[j] else None,
                        unique)
            for j in range(H.shape[1])
        ]

    def hedge(self, h, tol: float) -> MvhSolution:
        """See :func:`solve_mvh`."""
        return self.hedges(h, tol)[0]

    def hedge_ex(self, h, tol: float) -> MvhSolution:
        """See :func:`solve_exmvh`."""
        return self.hedges(h, tol, extended=True)[0]


# the engine built last by _as_operator; one slot, so at most one engine
# is kept alive
_last: GainsOperator | None = None


def _as_operator(tree: FiltrationTree, prices) -> GainsOperator:
    """``prices`` if it is an operator already, else its operator.

    The engine built last is reused when ``tree`` is the same object and
    ``prices`` has the same shape and the same bits as the engine's copy
    (so ``-0.0`` and ``0.0``, or two NaN payloads, never share one);
    otherwise a new engine is built and takes its place."""
    global _last
    if isinstance(prices, GainsOperator):
        return prices
    prices = _price_matrix(prices)
    op = _last  # read once: a concurrent caller can cost a rebuild, no mix-up
    if (op is None or op.tree is not tree or op.prices.shape != prices.shape
            or op.prices.tobytes() != prices.tobytes()):
        op = _last = GainsOperator(tree, prices)
    return op


def solve_mvh(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> MvhSolution:
    """Minimise E[(theta . S_T - h)^2] over strategies."""
    return _as_operator(tree, prices).hedge(h, tol)


def solve_exmvh(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> MvhSolution:
    """Minimise E[(c + theta . S_T - h)^2] over the constant and the
    strategy jointly; raises ``ValueError`` where the constant is not
    unique (pure-investment error at most ``tol``)."""
    return _as_operator(tree, prices).hedge_ex(h, tol)


def pure_investment(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Hedge of the constant payoff 1; returns (strategy, minimal error)."""
    op = _as_operator(tree, prices)
    return op.theta1, op.ell


def c_of_H_formula(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> float:
    """Initial constant of the extended hedge via the closed form
    E[h(1 - g)] / E[(1 - g)^2] with g the terminal pure-investment gain."""
    op = _as_operator(tree, prices)
    if op.ell <= tol:
        raise ValueError("value-process uniqueness fails")
    return float(op.constants(h))


def uniqueness_of_gains(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> bool:
    """True iff strategies with equal terminal gains have equal gains
    paths, decided node by node from the local increments."""
    return _as_operator(tree, prices).unique_gains(tol)


def uniqueness_of_values(
    tree: FiltrationTree, prices, tol: float = DEFAULT_TOL
) -> bool:
    """Uniqueness of gains plus a strictly positive pure-investment error."""
    return _as_operator(tree, prices).unique_values(tol)


def zero_solves_mvh_iff(
    tree: FiltrationTree, prices, h, tol: float = DEFAULT_TOL
) -> dict:
    """Check both sides of the zero-hedge characterisation: the zero
    strategy is optimal for ``h`` iff Z S^j is a martingale for all j,
    where Z is the martingale closed by ``h``."""
    op = _as_operator(tree, prices)
    h = np.asarray(h, dtype=float)
    sol = op.hedge(h, tol)
    err_at_zero = float(tree.leaf_probs @ h**2)
    zero_optimal = err_at_zero - sol.sq_error <= tol
    z = martingale_from_terminal(tree, h)
    zs_mart = all(
        is_martingale(tree, z * op.prices[:, j], tol)[1]
        for j in range(op.prices.shape[1])
    )
    return {"zero_optimal": bool(zero_optimal), "zs_martingale": bool(zs_mart)}


@dataclass(frozen=True)
class OpportunityProcess:
    """Dynamic value of the pure investment problem, per node, with the
    mean value process of a target payoff and the pure-investment hedge
    started at the root."""

    L: np.ndarray
    v_bar: np.ndarray
    theta0: np.ndarray
    m0: np.ndarray


def opportunity_process(
    tree: FiltrationTree, prices, h_bar, tol: float = DEFAULT_TOL
) -> OpportunityProcess:
    """The opportunity process and the mean value process of ``h_bar``,
    read off the engine of ``prices``.

    ``L`` is the per-node minimal conditional squared error (a (0,1]-valued
    submartingale with value 1 at the horizon); ``v_bar`` the mean value
    process of ``h_bar``; ``theta0`` the optimal pure-investment strategy
    from the root and ``m0 = L (1 - theta0 . S)``.  Requires uniqueness of
    value processes, and raises ``ValueError`` naming the first node where
    ``L`` vanishes, since ``v_bar`` is undefined there.
    """
    op = _as_operator(tree, prices)
    if not op.unique_values(tol):
        raise ValueError("opportunity process needs uniqueness of value processes")
    nt = tree.nonterminal()
    dead = nt[op.L[nt] <= L_CUT]
    if len(dead):
        raise ValueError(
            f"opportunity process vanishes at node {dead[0]}, "
            "where the mean value process is undefined"
        )
    v_bar = op._sweep(h_bar).v_bar[:, 0]
    return OpportunityProcess(L=op.L, v_bar=v_bar, theta0=op.theta1, m0=op.L * op.y)


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

    Per node, the increment of ``z`` is projected onto the span of the
    reference increments in the conditional inner product: ``xi_n =
    pinv(X_n) (sqrt(p) dz)`` with ``X_n = diag(sqrt(p_c)) dM_c``, one
    stacked SVD per level.  Singular values up to ``GKW_RCOND`` times the
    node's scale, the largest ``|m|`` at the node and its children, are
    cut: increments that small are mostly the round-off of ``m``'s values,
    and ``xi`` would carry that round-off into the residual as a drift.
    Where the increments are linearly dependent, ``xi`` is the least-norm
    integrand."""
    z = np.asarray(z, dtype=float)
    m = _price_matrix(m)
    _check_martingale(tree, z, tol, "z")
    for j in range(m.shape[1]):
        _check_martingale(tree, m[:, j], tol, f"m[{j}]")
    n = tree.n_nodes
    # index n pads the child tables: no step, scale 0
    dz = np.zeros(n + 1)
    dz[:n] = tree.increments(z)
    dm = np.zeros((n + 1, m.shape[1]))
    dm[:n] = tree.increments(m)
    size = np.zeros(n + 1)
    size[:n] = np.abs(m).max(axis=1, initial=0.0)
    xi = np.zeros(m.shape)
    for lv in tree.levels():
        nodes, kids, w = lv.nodes, lv.kids, lv.sqrt_p
        u, sv, vt = np.linalg.svd(w[:, :, None] * dm[kids], full_matrices=False)
        scale = np.maximum(size[nodes], size[kids].max(axis=1))
        keep = sv > GKW_RCOND * scale[:, None]
        coef = np.einsum("kbr,kb->kr", u, w * dz[kids]) * keep / np.where(keep, sv, 1.0)
        xi[nodes] = np.einsum("krd,kr->kd", vt, coef)
    return GkwDecomposition(xi, z - z[0] - stoch_integral(tree, xi, m), float(z[0]))
