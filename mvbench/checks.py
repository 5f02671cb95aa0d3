"""Independent output checks.

Nothing here calls into ``mveq``'s numerics.  Every expected value is
recomputed from the scenario's own primitives (children lists, leaf
probabilities, dividends, incomes, preference parameters) with a small
event-tree helper, and compared with what the program returned.  Each
check function returns a dict mapping a check name to a failure message,
empty when the output passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the CLI's default --tol; zero tests on the density and the witnesses
ZERO = 1e-9
# relative tolerance of every comparison against a closed form
RTOL = 1e-8


class Tree:
    """Event tree from raw children lists and leaf probabilities."""

    def __init__(self, children, leaf_probs):
        self.children = [list(map(int, c)) for c in children]
        n = len(self.children)
        self.n = n
        self.leaves = np.array([i for i in range(n) if not self.children[i]])
        self.interior = [i for i in range(n) if self.children[i]]
        self.leaf_probs = np.asarray(leaf_probs, dtype=float)
        self.prob = np.zeros(n)
        self.prob[self.leaves] = self.leaf_probs
        for i in reversed(self.interior):  # children carry larger ids
            self.prob[i] = self.prob[self.children[i]].sum()
        self.row = {int(leaf): r for r, leaf in enumerate(self.leaves)}

    def closing(self, x_leaf) -> np.ndarray:
        """E[x | F_t] at every node, by a backward sweep."""
        out = np.zeros(self.n)
        out[self.leaves] = x_leaf
        for i in reversed(self.interior):
            cs = self.children[i]
            out[i] = self.prob[cs] @ out[cs] / self.prob[i]
        return out

    def cond(self, i: int, x) -> float:
        """E[x(child) | node i] for a per-node array x."""
        cs = self.children[i]
        return float(self.prob[cs] @ x[cs] / self.prob[i])

    def integral(self, theta, s) -> np.ndarray:
        """sum over steps of theta(parent) . (s(child) - s(parent))."""
        out = np.zeros(self.n)
        for i in self.interior:
            for c in self.children[i]:
                out[c] = out[i] + theta[i] @ (s[c] - s[i])
        return out

    def max_drift(self, x) -> float:
        return max(abs(self.cond(i, x) - x[i]) for i in self.interior)

    def subtree(self, v: int) -> list[int]:
        out, k = [v], 0
        while k < len(out):
            out.extend(self.children[out[k]])
            k += 1
        return sorted(out)

    def leaves_below(self, v: int) -> np.ndarray:
        return np.array([self.row[i] for i in self.subtree(v)
                         if not self.children[i]])

    def expect(self, x_leaf) -> float:
        return float(self.leaf_probs @ x_leaf)


@dataclass
class Primitives:
    tree: Tree
    d1: int
    d2: int
    s0_fin: np.ndarray
    m_fin: np.ndarray  # (n, d1)
    dividends: np.ndarray  # (leaves, d2)
    eta2: np.ndarray  # (agents, d2)
    xi_n: np.ndarray  # (agents, leaves)
    gamma: np.ndarray | None  # quadratic bliss points
    lam: np.ndarray | None  # linear mean-variance risk tolerances

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    @property
    def xi_bar(self) -> np.ndarray:
        return self.dividends @ self.eta2.sum(axis=0) + self.xi_n.sum(axis=0)

    @property
    def eta_bar(self) -> np.ndarray:
        return np.concatenate([np.zeros(self.d1), self.eta2.sum(axis=0)])

    @property
    def gamma_bar(self) -> float:
        if self.gamma is not None:
            return float(self.gamma.sum())
        return float(self.lam.sum()) + self.tree.expect(self.xi_bar)

    @property
    def h_bar(self) -> np.ndarray:
        return self.gamma_bar - self.xi_bar


def primitives(s) -> Primitives:
    """Read the raw data of an ``mveq`` scenario object."""
    prefs = [a.preference for a in s.agents]
    gamma = lam = None
    if all(hasattr(p, "gamma") for p in prefs):
        gamma = np.array([p.gamma for p in prefs], dtype=float)
    elif all(hasattr(p, "lam") for p in prefs):
        lam = np.array([p.lam for p in prefs], dtype=float)
    n = len(s.tree.children)
    n_leaves = len(s.tree.leaf_probs)
    return Primitives(
        tree=Tree(s.tree.children, s.tree.leaf_probs),
        d1=int(s.d1),
        d2=int(s.d2),
        s0_fin=np.asarray(s.s0_fin, dtype=float).reshape(s.d1),
        m_fin=np.asarray(s.m_fin, dtype=float).reshape(n, s.d1),
        dividends=np.asarray(s.dividends, dtype=float).reshape(n_leaves, s.d2),
        eta2=np.array([a.eta2 for a in s.agents], dtype=float).reshape(
            len(s.agents), s.d2),
        xi_n=np.array([a.xi_n for a in s.agents], dtype=float),
        gamma=gamma,
        lam=lam,
    )


def scenario_doc(p: Primitives, prices=None) -> dict:
    """The scenario file format documented in the repository README."""
    def pref(k):
        if p.gamma is not None:
            return {"type": "quadratic", "gamma": float(p.gamma[k])}
        return {"type": "linear_mv", "lambda": float(p.lam[k])}

    t = p.tree
    doc = {
        "horizon": int(_depth(t)),
        "tree": {"children": t.children, "leaf_probs": t.leaf_probs.tolist()},
        "d1": p.d1,
        "d2": p.d2,
        "s0_fin": p.s0_fin.tolist(),
        "m_fin": p.m_fin.tolist(),
        "dividends": p.dividends.tolist(),
        "agents": [
            {"eta2": p.eta2[k].tolist(), "xi_n": p.xi_n[k].tolist(),
             "preference": pref(k)}
            for k in range(len(p.xi_n))
        ],
    }
    if prices is not None:
        doc["prices"] = np.asarray(prices, dtype=float).tolist()
    return doc


def _depth(t: Tree) -> int:
    depth, i = 0, 0
    while t.children[i]:
        i = t.children[i][0]
        depth += 1
    return depth


def _scale(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _close(a, b, scale=1.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= RTOL * max(1.0, scale)))


def _fail(out: dict, name: str, ok: bool, msg: str) -> None:
    out[name] = "" if ok else msg


# ---------------------------------------------------------------- closed forms

def productive_s0(p: Primitives, h_bar) -> np.ndarray:
    """S0 of each productive asset: E[h_bar D] / E[h_bar]."""
    t = p.tree
    return np.array([t.expect(h_bar * p.dividends[:, j]) / t.expect(h_bar)
                     for j in range(p.d2)])


def regular_prices(p: Primitives) -> np.ndarray:
    """Quadratic equilibrium prices from leaf sums: productive
    S = E[h_bar D | F] / Z_bar, financial S = s0 + M + A with
    dA = -E[dZ_bar dM | F] / Z_bar (one financial asset at most)."""
    t = p.tree
    h = p.h_bar
    z = t.closing(h)
    prices = np.zeros((t.n, p.d))
    if p.d1 > 1:
        raise ValueError("closed-form drift written for d1 <= 1")
    if p.d1 == 1:
        m = p.m_fin[:, 0]
        a = np.zeros(t.n)
        for i in t.interior:
            cs = t.children[i]
            dzdm = t.prob[cs] @ ((z[cs] - z[i]) * (m[cs] - m[i])) / t.prob[i]
            a[cs] = a[i] - dzdm / z[i]
        prices[:, 0] = p.s0_fin[0] + m + a
    for j in range(p.d2):
        prices[:, p.d1 + j] = t.closing(h * p.dividends[:, j]) / z
    return prices


def linear_exists(p: Primitives) -> bool:
    """gamma_bar = sum(lambda) + E[Xi_bar] > max Xi_bar."""
    return p.gamma_bar > float(np.max(p.xi_bar))


def witness_nodes(p: Primitives) -> set[int]:
    """Interior nodes where Z_bar = 0 and E[dZ_bar dM^i | F] or
    E[h_bar D^j | F] is non-zero: there no equilibrium can exist."""
    t = p.tree
    h = p.h_bar
    z = t.closing(h)
    hd = [t.closing(h * p.dividends[:, j]) for j in range(p.d2)]
    out = set()
    for i in t.interior:
        if abs(z[i]) > ZERO:
            continue
        cs = t.children[i]
        w = t.prob[cs] / t.prob[i]
        vals = [w @ ((z[cs] - z[i]) * (p.m_fin[cs, k] - p.m_fin[i, k]))
                for k in range(p.d1)]
        vals += [g[i] for g in hd]
        if any(abs(v) > ZERO for v in vals):
            out.add(i)
    return out


# ---------------------------------------------------------------- checks

def _clearing(p: Primitives, prices, strategies) -> float:
    t = p.tree
    total = np.sum([np.asarray(th, dtype=float) for th in strategies], axis=0)
    gains = t.integral(total, prices)
    supply = (prices - prices[0]) @ p.eta_bar
    return _scale(gains - supply)


def _terminal(p: Primitives, prices) -> bool:
    t = p.tree
    return _close(prices[t.leaves, p.d1:], p.dividends, _scale(p.dividends))


def _predictable_fin(p: Primitives, prices) -> bool:
    t = p.tree
    for k in range(p.d1):
        a = prices[:, k] - p.m_fin[:, k]
        scale = _scale(prices[:, k])
        if not _close(a[0], p.s0_fin[k], scale):
            return False
        for i in t.interior:
            inc = a[t.children[i]] - a[i]
            if not _close(inc, inc[0], scale):
                return False
    return True


def check_quadratic(p: Primitives, verdict, prices, strategies) -> dict:
    """Regular quadratic equilibrium."""
    out: dict = {}
    _fail(out, "verdict", verdict == "Equilibrium", f"verdict {verdict}")
    if prices is None:
        return out
    t = p.tree
    prices = np.asarray(prices, dtype=float).reshape(t.n, p.d)
    scale = _scale(prices)
    s0 = productive_s0(p, p.h_bar)
    _fail(out, "s0_closed_form", _close(prices[0, p.d1:], s0, scale),
          f"S0 {prices[0, p.d1:]} vs E[hD]/E[h] {s0}")
    z = t.closing(p.h_bar)
    zs = max(t.max_drift(z * prices[:, j]) for j in range(p.d))
    _fail(out, "density_martingale",
          zs <= RTOL * max(1.0, scale * _scale(z)),
          f"Z_bar S drift {zs}")
    _fail(out, "terminal", _terminal(p, prices), "S_T != D")
    _fail(out, "predictable_drift", _predictable_fin(p, prices),
          "financial S - M has non-predictable increments")
    clr = _clearing(p, prices, strategies)
    _fail(out, "clearing", clr <= RTOL * max(1.0, scale * np.sum(p.eta_bar)),
          f"clearing residual {clr}")
    return out


def check_linear(p: Primitives, gamma_bar, prices, ell, c_k, L, frontiers) -> dict:
    """Linear mean-variance equilibrium, its opportunity process and the
    per-agent frontiers."""
    out: dict = {}
    t = p.tree
    g = p.gamma_bar
    _fail(out, "gamma_bar", _close(gamma_bar, g, g), f"gamma_bar {gamma_bar} vs {g}")
    prices = np.asarray(prices, dtype=float).reshape(t.n, p.d)
    s0 = np.concatenate([p.s0_fin, productive_s0(p, g - p.xi_bar)])
    _fail(out, "s0_closed_form", _close(prices[0], s0, _scale(prices)),
          f"S0 {prices[0]} vs {s0}")
    c = np.asarray(c_k, dtype=float)
    _fail(out, "ell_range", 0.0 < ell <= 1.0, f"ell {ell}")
    if 0.0 < ell:
        fp = g - float(np.sum(c + p.lam / ell))
        _fail(out, "fixed_point", abs(fp) <= RTOL * max(1.0, g), f"fixed point {fp}")
        ident = (g - t.expect(p.xi_bar)) - (g - c.sum()) * ell
        _fail(out, "identity", abs(ident) <= RTOL * max(1.0, g), f"identity {ident}")
    L = np.asarray(L, dtype=float)
    _fail(out, "opportunity_l0", _close(L[0], ell), f"L0 {L[0]} vs ell {ell}")
    _fail(out, "opportunity_range",
          bool(np.all(L > 0) and np.all(L <= 1 + RTOL) and _close(L[t.leaves], 1.0)),
          "L outside (0, 1] or L_T != 1")
    fe = [f[0] for f in frontiers]
    fc = [f[1] for f in frontiers]
    _fail(out, "frontier", _close(fe, ell) and _close(fc, c, _scale(c)),
          "frontier (ell, c_k) disagree with the equilibrium report")
    return out


def check_degenerate_solve(p: Primitives, code, report) -> dict:
    """``solve-quadratic`` on a degenerate market: nonexistence exactly
    where the witness is non-zero; otherwise an equilibrium that clears."""
    out: dict = {}
    witness = witness_nodes(p)
    verdict = report.get("verdict")
    if witness:
        _fail(out, "nonexistence", verdict == "NonexistenceProven" and code == 3,
              f"witness at {sorted(witness)} but verdict {verdict}, exit {code}")
        return out
    _fail(out, "nonexistence", verdict == "Equilibrium" and code == 0,
          f"no witness but verdict {verdict}, exit {code}")
    if "prices" not in report:
        return out
    t = p.tree
    prices = np.asarray(report["prices"], dtype=float).reshape(t.n, p.d)
    scale = _scale(prices)
    _fail(out, "terminal", _terminal(p, prices), "S_T != D")
    clr = _clearing(p, prices, report.get("strategies", []))
    _fail(out, "clearing", clr <= RTOL * max(1.0, scale * np.sum(p.eta_bar)),
          f"clearing residual {clr}")
    return out


def check_conditions(p: Primitives, code, report) -> dict:
    """``check-conditions``: failure nodes equal the witness nodes."""
    out: dict = {}
    witness = witness_nodes(p)
    nodes = {f["node"] for f in report.get("cond_xi_failures", [])}
    nodes |= {f["node"] for f in report.get("cond_g_failures", [])}
    _fail(out, "failure_nodes", code == 0 and nodes == witness
          and report.get("passed") == (not witness),
          f"failures at {sorted(nodes)}, witness at {sorted(witness)}")
    return out


def check_verify(code, report, accept: bool) -> dict:
    out: dict = {}
    want = "Equilibrium" if accept else "NotEquilibrium"
    verdict = report.get("verdict")
    _fail(out, "verify_accept" if accept else "verify_reject",
          code == 0 and verdict == want, f"verdict {verdict}, exit {code}")
    return out


def check_csv(p: Primitives, code, text: str) -> dict:
    """``--format csv`` of a solve: verdict row, S0 rows against the closed
    form, one price row per node and asset."""
    out: dict = {}
    rows = [line.split(",", 4) for line in text.splitlines()[1:]]
    verdict = [r[4] for r in rows if r[0] == "verdict"]
    s0 = {int(r[2]): float(r[4]) for r in rows if r[0] == "s0"}
    n_price = sum(1 for r in rows if r[0] == "prices")
    want = np.concatenate([p.s0_fin, productive_s0(p, p.h_bar)])
    got = np.array([s0.get(j, np.nan) for j in range(p.d)])
    ok = (code == 0 and verdict == ["'Equilibrium'"] and len(s0) == p.d
          and _close(got, want, _scale(want))
          and n_price == p.tree.n * p.d)
    _fail(out, "csv", ok, f"csv verdict {verdict}, s0 {got} vs {want}, "
          f"{n_price} price rows")
    return out


def failures(result: dict) -> list[str]:
    return [f"{k}: {v}" for k, v in result.items() if v]
