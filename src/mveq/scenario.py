"""Market scenarios: primitives, agents and validation.

A scenario fixes the data a market is built from: the event tree, the
initial prices and martingale parts of the ``d1`` financial assets, the
terminal dividends of the ``d2`` productive assets, and the agents with
their endowments and preferences.  Financial assets are in zero net
supply, so agents only hold units of the productive assets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import FiltrationTree

__all__ = [
    "DEFAULT_TOL",
    "Quadratic",
    "LinearMV",
    "AgentSpec",
    "Scenario",
    "validate_scenario",
    "total_endowment",
    "aggregate_endowment",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Quadratic:
    """Quadratic utility 2*gamma*x - x^2; gamma may be any real."""

    gamma: float


@dataclass(frozen=True)
class LinearMV:
    """Linear mean-variance preference mean - var/(2*lam); lam > 0."""

    lam: float


@dataclass(frozen=True)
class AgentSpec:
    """One agent: traded endowment in productive assets, non-traded
    terminal income (one value per leaf) and a preference."""

    eta2: np.ndarray
    xi_n: np.ndarray
    preference: Quadratic | LinearMV

    def __post_init__(self):
        object.__setattr__(self, "eta2", np.asarray(self.eta2, dtype=float))
        object.__setattr__(self, "xi_n", np.asarray(self.xi_n, dtype=float))


@dataclass(frozen=True)
class Scenario:
    """Market primitives plus agents.

    ``m_fin`` holds the martingale parts of the financial assets as an
    array of shape ``(n_nodes, d1)`` with value 0 at the root; ``dividends``
    has shape ``(n_leaves, d2)``.
    """

    tree: FiltrationTree
    d1: int
    d2: int
    s0_fin: np.ndarray
    m_fin: np.ndarray
    dividends: np.ndarray
    agents: list[AgentSpec] = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "s0_fin", np.asarray(self.s0_fin, dtype=float))
        m = np.asarray(self.m_fin, dtype=float).reshape(self.tree.n_nodes, self.d1)
        object.__setattr__(self, "m_fin", m)
        d = np.asarray(self.dividends, dtype=float).reshape(
            self.tree.n_leaves, self.d2
        )
        object.__setattr__(self, "dividends", d)

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def eta_bar(self) -> np.ndarray:
        """Aggregate supply: zero for financial assets, summed units of
        productive assets."""
        out = np.zeros(self.d)
        for a in self.agents:
            out[self.d1:] += a.eta2
        return out


def total_endowment(s: Scenario, k: int) -> np.ndarray:
    """Terminal endowment of agent ``k``, one value per leaf: the dividend
    value of the traded units plus the non-traded income."""
    agent = s.agents[k]
    return s.dividends @ agent.eta2 + agent.xi_n


def aggregate_endowment(s: Scenario) -> np.ndarray:
    """Sum of all agents' terminal endowments, one value per leaf."""
    out = np.zeros(s.tree.n_leaves)
    for k in range(len(s.agents)):
        out += total_endowment(s, k)
    return out


def validate_scenario(s: Scenario, tol: float = DEFAULT_TOL) -> list[str]:
    """Check a scenario and return a list of violations (empty = valid)."""
    violations: list[str] = []
    tree = s.tree

    # a NaN fails no comparison, so non-finite data would pass the checks
    # below and reach the solvers
    for name, values in (("leaf_probs", tree.leaf_probs), ("s0_fin", s.s0_fin),
                         ("m_fin", s.m_fin), ("dividends", s.dividends)):
        if not np.all(np.isfinite(values)):
            violations.append(f"{name} must be finite")
    if np.any(tree.leaf_probs <= 0):
        violations.append("leaf probabilities must be strictly positive")
    if abs(tree.leaf_probs.sum() - 1.0) > tol:
        violations.append(
            f"leaf probabilities sum to {float(tree.leaf_probs.sum())!r}, not 1"
        )

    if s.d1 < 0 or s.d2 < 0 or s.d1 + s.d2 < 1:
        violations.append("need d1 >= 0, d2 >= 0 and d1 + d2 >= 1")
    if s.s0_fin.shape != (s.d1,):
        violations.append(f"s0_fin must have length d1={s.d1}")

    if s.d1 > 0 and np.max(np.abs(s.m_fin[0])) > tol:
        violations.append("martingale parts must start at 0")
    if np.all(tree.prob > 0):
        nt = tree.nonterminal()
        drift = tree.child_mean(s.m_fin)[nt] - s.m_fin[nt]
        for j in range(s.d1):
            bad = np.flatnonzero(np.abs(drift[:, j]) > tol)
            if len(bad):
                violations.append(
                    f"m_fin component {j} is not a martingale "
                    f"(drift {float(drift[bad[0], j])!r} at node {nt[bad[0]]})"
                )

    for k, agent in enumerate(s.agents):
        if agent.eta2.shape != (s.d2,):
            violations.append(f"agent {k}: eta2 must have length d2={s.d2}")
        if agent.xi_n.shape != (tree.n_leaves,):
            violations.append(f"agent {k}: xi_n must have one value per leaf")
        if isinstance(agent.preference, LinearMV) and agent.preference.lam <= 0:
            violations.append(f"agent {k}: lambda must be positive")
        pref = agent.preference
        param = ("lambda", pref.lam) if isinstance(pref, LinearMV) else ("gamma", pref.gamma)
        for name, values in (("eta2", agent.eta2), ("xi_n", agent.xi_n), param):
            if not np.all(np.isfinite(values)):
                violations.append(f"agent {k}: {name} must be finite")

    return violations
