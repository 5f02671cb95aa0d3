"""Market scenarios: primitives, agents and validation.

A scenario fixes the data a market is built from: the event tree, the
initial prices and martingale parts of the ``d1`` financial assets, the
terminal dividends of the ``d2`` productive assets, and the agents with
their endowments and preferences.  Financial assets are in zero net
supply, so agents only hold units of the productive assets.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _frozen(values, shape=None) -> np.ndarray:
    """A read-only float copy of ``values``, reshaped to ``shape`` if
    given."""
    out = np.array(values, dtype=float)
    if shape is not None:
        out = out.reshape(shape)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class AgentSpec:
    """One agent: traded endowment in productive assets, non-traded
    terminal income (one value per leaf) and a preference.  The arrays
    are read-only copies of the inputs."""

    eta2: np.ndarray
    xi_n: np.ndarray
    preference: Quadratic | LinearMV

    def __post_init__(self):
        object.__setattr__(self, "eta2", _frozen(self.eta2))
        object.__setattr__(self, "xi_n", _frozen(self.xi_n))


@dataclass(frozen=True)
class Scenario:
    """Market primitives plus agents.

    ``m_fin`` holds the martingale parts of the financial assets as an
    array of shape ``(n_nodes, d1)`` with value 0 at the root; ``dividends``
    has shape ``(n_leaves, d2)``.

    A scenario does not change once built: its arrays are read-only
    copies of the inputs and ``agents`` is a tuple, so data derived from
    it, such as :meth:`endowments`, is computed once.
    ``dataclasses.replace`` builds a new scenario, which derives its own.
    """

    tree: FiltrationTree
    d1: int
    d2: int
    s0_fin: np.ndarray
    m_fin: np.ndarray
    dividends: np.ndarray
    agents: tuple[AgentSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "s0_fin", _frozen(self.s0_fin))
        object.__setattr__(self, "m_fin", _frozen(self.m_fin, (self.tree.n_nodes, self.d1)))
        object.__setattr__(self, "dividends",
                           _frozen(self.dividends, (self.tree.n_leaves, self.d2)))
        object.__setattr__(self, "agents", tuple(self.agents))
        # built by endowments() on first use, so that a malformed agent
        # reaches validate_scenario instead of failing here
        object.__setattr__(self, "_endowments", None)

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

    def endowments(self) -> np.ndarray:
        """Terminal endowments of all agents, ``(n_leaves, k)``: column
        ``k`` is the dividend value of agent ``k``'s traded units plus its
        non-traded income.  Built on first call; read-only."""
        if self._endowments is None:
            rows = np.reshape([self.dividends @ a.eta2 + a.xi_n for a in self.agents],
                              (-1, self.tree.n_leaves))
            rows.flags.writeable = False
            object.__setattr__(self, "_endowments", rows.T)
        return self._endowments


def total_endowment(s: Scenario, k: int) -> np.ndarray:
    """Terminal endowment of agent ``k``, one value per leaf (read-only;
    see :meth:`Scenario.endowments`)."""
    return s.endowments()[:, k]


def aggregate_endowment(s: Scenario) -> np.ndarray:
    """Sum of all agents' terminal endowments, one value per leaf, added
    in agent order."""
    out = np.zeros(s.tree.n_leaves)
    for col in s.endowments().T:
        out += col
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
    # finite probabilities may sum past the float range: that inf is
    # reported here, not warned about
    with np.errstate(over="ignore"):
        total = float(tree.leaf_probs.sum())
    if abs(total - 1.0) > tol:
        violations.append(f"leaf probabilities sum to {total!r}, not 1")

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
