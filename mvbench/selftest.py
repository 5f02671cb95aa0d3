"""Self-test of the output checks on hand-checked one-period markets.

Every check must pass on the program's output for these markets and must
reject an output perturbed in the quantity it guards.  The closed forms
the checks rely on are pinned to the hand-derived values first:

* one productive asset D = (2, 1), gamma = 10: S0 = 25/17;
* the same market with one linear mean-variance agent, lambda = 1:
  gamma_bar = 2.5, S0 = 1.25, ell = 0.8;
* one financial asset dM = (+1, -1), gamma = 4, income (3, 1): drift +0.5.

Run alone with ``python3 mvbench/selftest.py``; ``run.py`` runs it before
every measurement and refuses to measure if it fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

import checks

COIN = {"children": [[1, 2], [], []], "leaf_probs": [0.5, 0.5]}


def _doc(d1, d2, m_fin, s0_fin, dividends, agents):
    return {"horizon": 1, "tree": COIN, "d1": d1, "d2": d2, "s0_fin": s0_fin,
            "m_fin": m_fin, "dividends": dividends, "agents": agents}


def _agent(eta2, xi_n, pref):
    return {"eta2": eta2, "xi_n": xi_n, "preference": pref}


MARKETS = {
    # S0 = 25/17
    "a": _doc(0, 1, [[], [], []], [], [[2.0], [1.0]],
              [_agent([1.0], [0.0, 0.0], {"type": "quadratic", "gamma": 10.0})]),
    # gamma_bar = 2.5, S0 = 1.25, ell = 0.8, c = 1.25
    "b": _doc(0, 1, [[], [], []], [], [[2.0], [1.0]],
              [_agent([1.0], [0.0, 0.0], {"type": "linear_mv", "lambda": 1.0})]),
    # Z0 = 0 but E[h D] = 0: solvable, S0 not pinned down
    "c": _doc(0, 1, [[], [], []], [], [[1.0], [1.0]],
              [_agent([1.0], [2.0, 0.0], {"type": "quadratic", "gamma": 2.0})]),
    # Z0 = 0 and E[h D] = -0.5: no equilibrium
    "c_prime": _doc(0, 1, [[], [], []], [], [[2.0], [1.0]],
                    [_agent([1.0], [1.0, 0.0], {"type": "quadratic", "gamma": 2.0})]),
    # drift +0.5
    "d": _doc(1, 0, [[0.0], [1.0], [-1.0]], [0.0], [[], []],
              [_agent([], [3.0, 1.0], {"type": "quadratic", "gamma": 4.0})]),
}


def _bump(arr, index, by=0.05):
    out = np.array(arr, dtype=float)
    out[index] += by
    return out


class SelfTest:
    def __init__(self, mveq, workdir):
        self.mveq = mveq
        self.workdir = workdir
        self.problems: list[str] = []
        self.exercised: set[str] = set()

    def expect(self, ok, msg):
        if not ok:
            self.problems.append(msg)

    def scenario(self, key):
        s, _ = self.mveq.io.parse_scenario(MARKETS[key])
        return s, checks.primitives(s)

    def cli(self, key, command, *extra, prices=None):
        doc = dict(MARKETS[key])
        if prices is not None:
            doc["prices"] = np.asarray(prices).tolist()
        path = os.path.join(self.workdir, f"selftest-{key}.json")
        out = os.path.join(self.workdir, f"selftest-{key}.out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = self.mveq.cli.main([command, "--input", path, "--output", out,
                                   *extra])
        with open(out) as fh:
            return code, fh.read()

    def gate(self, where, fn, right, perturbed):
        """``fn(*right)`` passes every check; ``fn(*perturbed[name])``
        fails check ``name``."""
        res = fn(*right)
        self.expect(not checks.failures(res),
                    f"{where}: right output rejected: {checks.failures(res)}")
        for name, args in perturbed.items():
            self.exercised.add(name)
            self.expect(name in res, f"{where}: no check named {name}")
            self.expect(bool(fn(*args).get(name)),
                        f"{where}: check {name} accepts a perturbed output")

    def run(self) -> list[str]:
        self.closed_forms()
        self.quadratic()
        self.linear()
        self.degenerate()
        self.cli_outputs()
        return self.problems

    def closed_forms(self):
        _, pa = self.scenario("a")
        self.expect(abs(checks.productive_s0(pa, pa.h_bar)[0] - 25 / 17) < 1e-12,
                    "closed form S0 != 25/17")
        _, pb = self.scenario("b")
        self.expect(abs(pb.gamma_bar - 2.5) < 1e-12, "closed form gamma_bar != 2.5")
        self.expect(checks.linear_exists(pb), "existence test fails on market b")
        _, pd = self.scenario("d")
        a = checks.regular_prices(pd)[:, 0] - pd.m_fin[:, 0]
        self.expect(np.allclose(a[1:] - a[0], 0.5, atol=1e-12),
                    "closed form drift != +0.5")
        _, pc = self.scenario("c_prime")
        self.expect(checks.witness_nodes(pc) == {0}, "no witness on market c'")

    def quadratic(self):
        for key in ("a", "d"):
            s, p = self.scenario(key)
            r = self.mveq.quadratic.solve_quadratic(s)
            right = (p, r.verdict, r.prices, r.agent_strategies)
            leaf = int(p.tree.leaves[0])
            bumped = [_bump(th, (0, 0)) for th in r.agent_strategies]
            perturbed = {
                "verdict": (p, "NotEquilibrium", r.prices, r.agent_strategies),
                "density_martingale": (p, r.verdict, _bump(r.prices, (0, 0)),
                                       r.agent_strategies),
                "clearing": (p, r.verdict, r.prices, bumped),
            }
            if key == "a":
                perturbed["s0_closed_form"] = (p, r.verdict, _bump(r.prices, (0, 0)),
                                               r.agent_strategies)
                perturbed["terminal"] = (p, r.verdict, _bump(r.prices, (leaf, 0)),
                                         r.agent_strategies)
            else:
                perturbed["predictable_drift"] = (
                    p, r.verdict, _bump(r.prices, (leaf, 0)), r.agent_strategies)
            self.gate(f"quadratic {key}", checks.check_quadratic, right, perturbed)

    def linear(self):
        s, p = self.scenario("b")
        lm, mvh = self.mveq.linear_mv, self.mveq.mvh
        r = lm.solve_linear_mv(s)
        self.expect(abs(r.prices[0, 0] - 1.25) < 1e-12 and abs(r.ell - 0.8) < 1e-12,
                    "market b: S0 or ell off the hand-checked value")
        L = mvh.opportunity_process(s.tree, r.prices, r.gamma_bar - p.xi_bar).L
        fr = [(f.ell, f.c_k) for f in
              (lm.agent_frontier(s, r.prices, k) for k in range(len(s.agents)))]
        right = (p, r.gamma_bar, r.prices, r.ell, r.c_k, L, fr)

        def with_(**kw):
            args = dict(zip(("p", "gamma_bar", "prices", "ell", "c_k", "L",
                             "frontiers"), right))
            args.update(kw)
            return tuple(args.values())

        c_bumped = list(_bump(r.c_k, 0))
        perturbed = {
            "gamma_bar": with_(gamma_bar=r.gamma_bar + 0.05),
            "s0_closed_form": with_(prices=_bump(r.prices, (0, 0))),
            "ell_range": with_(ell=1.05),
            "fixed_point": with_(c_k=c_bumped),
            "identity": with_(c_k=c_bumped),
            "opportunity_l0": with_(L=_bump(L, 0)),
            "opportunity_range": with_(L=_bump(L, int(p.tree.leaves[0]), -0.05)),
            "frontier": with_(frontiers=[(e + 0.05, c) for e, c in fr]),
        }
        self.gate("linear b", checks.check_linear, right, perturbed)

    def degenerate(self):
        _, p = self.scenario("c_prime")
        code, text = self.cli("c_prime", "solve-quadratic")
        rep = json.loads(text)
        wrong = dict(rep, verdict="Equilibrium")
        self.gate("solve c'", checks.check_degenerate_solve, (p, code, rep),
                  {"nonexistence": (p, 0, wrong)})
        code, text = self.cli("c_prime", "check-conditions")
        rep = json.loads(text)
        self.gate("check-conditions c'", checks.check_conditions, (p, code, rep),
                  {"failure_nodes": (p, code, dict(rep, cond_g_failures=[]))})

        _, p = self.scenario("c")
        code, text = self.cli("c", "solve-quadratic")
        rep = json.loads(text)
        leaf = int(p.tree.leaves[0])
        self.gate("solve c", checks.check_degenerate_solve, (p, code, rep), {
            "nonexistence": (p, 3, dict(rep, verdict="NonexistenceProven")),
            "terminal": (p, code, dict(rep, prices=_bump(rep["prices"], (leaf, 0)))),
            # every S0 clears here (dS = 0), so move S0 and the holdings
            "clearing": (p, code, dict(rep, prices=_bump(rep["prices"], (0, 0)),
                                       strategies=[_bump(th, (0, 0))
                                                   for th in rep["strategies"]])),
        })

    def cli_outputs(self):
        _, p = self.scenario("a")
        prices = checks.regular_prices(p)
        code, text = self.cli("a", "verify", prices=prices)
        rep = json.loads(text)
        self.gate("verify a", checks.check_verify, (code, rep, True),
                  {"verify_accept": (code, dict(rep, verdict="NotEquilibrium"), True)})
        for by in (0.05, -0.05):
            code, text = self.cli("a", "verify", prices=_bump(prices, (0, 0), by))
            rep = json.loads(text)
            self.gate(f"verify a {by:+}", checks.check_verify, (code, rep, False),
                      {"verify_reject": (code, dict(rep, verdict="Equilibrium"), False)})
        code, text = self.cli("a", "solve-quadratic", "--format", "csv")
        lines = text.splitlines()
        bad = "\n".join(
            line.rsplit(",", 1)[0] + ",1.5" if line.startswith("s0,") else line
            for line in lines)
        self.gate("csv a", checks.check_csv, (p, code, text), {"csv": (p, code, bad)})


def run_selftest(mveq, workdir) -> tuple[list[str], int]:
    """Problems found (empty when the checks are sound) and the number of
    distinct checks shown to reject a wrong output.  Scratch files go to
    a temporary directory under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        st = SelfTest(mveq, tmp)
        problems = st.run()
    return problems, len(st.exercised)


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import mveq
    import mveq.cli  # noqa: F401  (not imported by the package)

    found, n = run_selftest(mveq, os.path.join(here, "_work"))
    for line in found:
        print(line)
    print(f"{n} checks exercised, {len(found)} problems")
    sys.exit(1 if found else 0)
