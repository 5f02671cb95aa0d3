import numpy as np
import pytest

from mveq import (
    AgentSpec,
    LinearMV,
    Quadratic,
    Scenario,
    aggregate_endowment,
    total_endowment,
    validate_scenario,
)
from conftest import one_period_tree


def fin_scenario(tree, m_fin, agents=()):
    return Scenario(
        tree=tree,
        d1=1,
        d2=0,
        s0_fin=np.array([1.0]),
        m_fin=m_fin,
        dividends=np.zeros((tree.n_leaves, 0)),
        agents=list(agents),
    )


def test_symmetric_martingale_is_valid():
    tree = one_period_tree()
    s = fin_scenario(tree, np.array([[0.0], [1.0], [-1.0]]))
    assert validate_scenario(s) == []


def test_detects_drifting_martingale_part():
    tree = one_period_tree((0.6, 0.4))
    s = fin_scenario(tree, np.array([[0.0], [1.0], [-1.0]]))  # E[dM] = 0.2
    drift = tree.child_mean(s.m_fin)[0, 0]
    assert validate_scenario(s) == [
        f"m_fin component 0 is not a martingale (drift {float(drift)!r} at node 0)"]


def test_detects_nonpositive_lambda(scen_b):
    bad = Scenario(
        tree=scen_b.tree,
        d1=0,
        d2=1,
        s0_fin=np.zeros(0),
        m_fin=np.zeros((3, 0)),
        dividends=scen_b.dividends,
        agents=[AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0], preference=LinearMV(0.0))],
    )
    assert any("lambda" in v for v in validate_scenario(bad))


def test_detects_bad_probabilities():
    tree = one_period_tree((0.5, 0.4))
    s = fin_scenario(tree, np.zeros((3, 1)))
    # plain floats, not NumPy reprs such as np.float64(0.9)
    assert validate_scenario(s) == ["leaf probabilities sum to 0.9, not 1"]


@pytest.mark.parametrize(
    "eta, xi_n, expected",
    [
        (1.0, [0.0, 0.0], [2.0, 1.0]),
        (0.0, [3.0, 1.0], [3.0, 1.0]),
        (2.0, [1.0, 1.0], [5.0, 3.0]),
    ],
)
def test_total_endowment(coin_tree, eta, xi_n, expected):
    s = Scenario(
        tree=coin_tree,
        d1=0,
        d2=1,
        s0_fin=np.zeros(0),
        m_fin=np.zeros((3, 0)),
        dividends=np.array([[2.0], [1.0]]),
        agents=[AgentSpec(eta2=[eta], xi_n=xi_n, preference=Quadratic(5.0))],
    )
    np.testing.assert_allclose(total_endowment(s, 0), expected)


def test_aggregate_endowment_sums_agents(coin_tree):
    s = Scenario(
        tree=coin_tree,
        d1=0,
        d2=1,
        s0_fin=np.zeros(0),
        m_fin=np.zeros((3, 0)),
        dividends=np.array([[2.0], [1.0]]),
        agents=[
            AgentSpec(eta2=[1.0], xi_n=[1.0, 0.0], preference=Quadratic(5.0)),
            AgentSpec(eta2=[0.5], xi_n=[0.0, 2.0], preference=Quadratic(3.0)),
        ],
    )
    np.testing.assert_allclose(
        aggregate_endowment(s),
        total_endowment(s, 0) + total_endowment(s, 1),
    )
    np.testing.assert_allclose(s.eta_bar(), [1.5])


def replaced(s, **fields):
    """``s`` with some primitives or agent-0 fields replaced."""
    agent = s.agents[0]
    agent = AgentSpec(eta2=fields.pop("eta2", agent.eta2),
                      xi_n=fields.pop("xi_n", agent.xi_n),
                      preference=fields.pop("preference", agent.preference))
    tree = fields.pop("tree", s.tree)
    args = dict(tree=tree, d1=s.d1, d2=s.d2, s0_fin=s.s0_fin, m_fin=s.m_fin,
                dividends=s.dividends, agents=[agent, *s.agents[1:]])
    args.update(fields)
    return Scenario(**args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_detects_non_finite_data(scen_a, scen_b, scen_d, bad):
    with np.errstate(invalid="ignore"):  # inf / inf conditional probabilities
        tree = one_period_tree((bad, 0.5))
    cases = [
        (replaced(scen_a, tree=tree), "leaf_probs must be finite"),
        (replaced(scen_d, s0_fin=np.array([bad])), "s0_fin must be finite"),
        (replaced(scen_d, m_fin=np.array([[0.0], [bad], [-1.0]])), "m_fin must be finite"),
        (replaced(scen_a, dividends=np.array([[bad], [1.0]])), "dividends must be finite"),
        (replaced(scen_a, eta2=np.array([bad])), "agent 0: eta2 must be finite"),
        (replaced(scen_a, xi_n=np.array([0.0, bad])), "agent 0: xi_n must be finite"),
        (replaced(scen_a, preference=Quadratic(bad)), "agent 0: gamma must be finite"),
        (replaced(scen_b, preference=LinearMV(bad)), "agent 0: lambda must be finite"),
    ]
    for s, message in cases:
        assert message in validate_scenario(s), message
    for s in (scen_a, scen_b, scen_d):
        assert validate_scenario(s) == []
