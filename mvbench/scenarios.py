"""Seeded scenario sets for the three workloads.

Every scenario comes from ``mveq.generate``; the benchmark seed only picks
the generator sub-seeds.  Tree sizes are held steady across seeds: each
tier draws a fixed number of candidate sub-seeds and keeps the one whose
tree is closest to the tier's target node count, so a run's amount of
work hardly depends on ``--seed`` while the market data does.

The degenerate scenarios are regular generated markets whose first
agent's non-traded income is rewritten on one subtree, so that the
aggregate density ``h_bar = gamma_bar - Xi_bar`` is exactly zero there
(solvable) or has zero conditional mean there with a non-zero wedge
below one node (proven nonexistence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks

# (name, horizon, branching, d1, d2, n_agents, target node count, copies)
QUADRATIC_TIERS = [
    ("q-h4", 4, 3, 0, 2, 3, 55, 6),
    ("q-h5", 5, 3, 0, 1, 2, 160, 2),
    ("q-h6", 6, 3, 0, 2, 3, 410, 1),
    ("q-h7", 7, 3, 0, 1, 2, 1020, 1),
]
# ROADMAP item 1's regression market: node 405 has conditional variance
# 5.5e-10, below the absolute DEFAULT_TOL, so gkw_decompose drops it.
NAMED_GKW = ("gkw-h7-seed2", 2, dict(horizon=7, branching=3, d1=1, d2=1, n_agents=2))

LINEAR_TIERS = [
    ("l-h4", 4, 3, 0, 1, 3, 60, 4),
    ("l-h5", 5, 3, 0, 2, 4, 150, 2),
    ("l-h6", 6, 3, 0, 1, 5, 330, 1),
]

# (name, horizon, branching, d1, d2, n_agents, target, kind)
DEGENERATE_TIERS = [
    ("nonexist-xi", 5, 3, 1, 1, 2, 160, "wedge"),
    ("nonexist-g", 6, 3, 0, 1, 2, 350, "wedge"),
    ("solvable-a", 5, 3, 0, 1, 2, 100, "vanish"),
    ("solvable-b", 6, 3, 0, 2, 2, 250, "vanish"),
]
VERIFY_TIER = ("verify", 5, 3, 0, 2, 2, 160)


def candidates(target: int) -> int:
    """Sub-seeds drawn per scenario, whatever the seed: enough that the
    closest tree lands within a few per cent of the target node count
    (about 1% for the largest tier)."""
    return 120 if target > 500 else 40


def _max_horizon(generate, horizon):
    """Raise the generator's horizon cap in this process only."""
    if horizon > generate.MAX_HORIZON:
        generate.MAX_HORIZON = horizon


def _subseeds(seed: int, tier: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, tier])
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=count)]


def _closest(generate, seed, tier, horizon, branching, target, accept=None,
             **kw):
    """The candidate scenario whose node count is closest to ``target``
    (earliest on ties), among those ``accept`` keeps."""
    best = None
    for sub in _subseeds(seed, tier, candidates(target)):
        if accept is None:
            n = generate.random_tree(np.random.default_rng(sub), horizon,
                                     branching).n_nodes
            key = (abs(n - target), sub)
        else:
            s = generate.generate_random_scenario(sub, horizon=horizon,
                                                  branching=branching, **kw)
            if not accept(s):
                continue
            key = (abs(s.tree.n_nodes - target), sub)
        if best is None or key[0] < best[0]:
            best = key
    if best is None:
        raise RuntimeError(f"no candidate accepted for tier {tier}")
    return generate.generate_random_scenario(best[1], horizon=horizon,
                                             branching=branching, **kw)


@dataclass
class Case:
    name: str
    scenario: object  # mveq.scenario.Scenario
    prim: checks.Primitives


def _tier_cases(gen, seed, tiers, base, accept=None, **kw) -> list[Case]:
    out = []
    for i, (name, h, b, d1, d2, k, target, copies) in enumerate(tiers):
        _max_horizon(gen, h)
        for c in range(copies):
            s = _closest(gen, seed, base + 10 * i + c, h, b, target,
                         accept=accept, d1=d1, d2=d2, n_agents=k, **kw)
            out.append(Case(f"{name}#{c}", s, checks.primitives(s)))
    return out


def quadratic_cases(mveq, seed: int) -> list[Case]:
    gen = mveq.generate
    out = _tier_cases(gen, seed, QUADRATIC_TIERS, 0)
    name, sub, kw = NAMED_GKW
    _max_horizon(gen, kw["horizon"])
    s = gen.generate_random_scenario(sub, **kw)
    out.append(Case(name, s, checks.primitives(s)))
    return out


def linear_cases(mveq, seed: int) -> list[Case]:
    def exists(s):
        return checks.linear_exists(checks.primitives(s))

    return _tier_cases(mveq.generate, seed, LINEAR_TIERS, 100, accept=exists,
                       preference_kind="linear_mv")


def _with_income(mveq, s, xi0):
    """Copy of ``s`` with the first agent's non-traded income replaced."""
    sc = mveq.scenario
    agents = [sc.AgentSpec(s.agents[0].eta2, xi0, s.agents[0].preference)]
    agents += list(s.agents[1:])
    return sc.Scenario(tree=s.tree, d1=s.d1, d2=s.d2, s0_fin=s.s0_fin,
                       m_fin=s.m_fin, dividends=s.dividends, agents=agents)


def make_degenerate(mveq, s, kind: str, rng: np.random.Generator):
    """Rewrite agent 0's income so that h_bar vanishes under one child of
    the root: identically (``vanish``), or with a zero-mean two-sided
    wedge under the first pre-terminal node there (``wedge``)."""
    p = checks.primitives(s)
    t = p.tree
    v = min(t.children[0], key=lambda c: len(t.leaves_below(c)))
    target = p.h_bar.copy()
    rows = t.leaves_below(v)
    target[rows] = 0.0
    if kind == "wedge":
        u = next(n for n in t.subtree(v) if t.children[n]
                 and not t.children[t.children[n][0]])
        w_rows = t.leaves_below(u)
        x = rng.uniform(0.5, 1.5, size=len(w_rows)) * np.where(
            np.arange(len(w_rows)) % 2 == 0, 1.0, -1.0)
        w = t.leaf_probs[w_rows]
        target[w_rows] = x - (w @ x) / w.sum()
    # h_bar = gamma_bar - Xi_bar; move the change into agent 0's income
    xi0 = s.agents[0].xi_n + (p.h_bar - target)
    return _with_income(mveq, s, xi0)


def degenerate_cases(mveq, seed: int) -> list[Case]:
    gen = mveq.generate
    out = []
    for i, (name, h, b, d1, d2, k, target, kind) in enumerate(DEGENERATE_TIERS):
        _max_horizon(gen, h)
        s = _closest(gen, seed, 200 + 10 * i, h, b, target, d1=d1, d2=d2,
                     n_agents=k)
        rng = np.random.default_rng([seed, 300 + i])
        s = make_degenerate(mveq, s, kind, rng)
        out.append(Case(name, s, checks.primitives(s)))
    return out


def verify_case(mveq, seed: int) -> Case:
    gen = mveq.generate
    name, h, b, d1, d2, k, target = VERIFY_TIER
    s = _closest(gen, seed, 400, h, b, target, d1=d1, d2=d2, n_agents=k)
    return Case(name, s, checks.primitives(s))
