from dataclasses import replace

import numpy as np
import pytest

from mveq import (
    AgentSpec,
    FiltrationTree,
    LinearMV,
    Quadratic,
    Scenario,
    agent_frontier,
    aggregate_endowment,
    opportunity_process,
    solve_linear_mv,
    total_endowment,
    validate_scenario,
)
from mveq.generate import generate_random_scenario
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


@pytest.mark.filterwarnings("error")
def test_probabilities_summing_past_the_float_range(scen_a):
    # only validation reports the overflow; no warning on the way
    tree = FiltrationTree([[1, 2], [], []], [1e308, 1e308])
    assert validate_scenario(replaced(scen_a, tree=tree)) == [
        "leaf probabilities sum to inf, not 1"]


@pytest.mark.parametrize("field, value, message", [
    ("eta2", [1.0, 2.0], "agent 0: eta2 must have length d2=1"),
    ("xi_n", [1.0, 2.0, 3.0], "agent 0: xi_n must have one value per leaf"),
])
def test_malformed_agent_reaches_validation(scen_a, field, value, message):
    # the endowment matrix is built on first use, after validation
    assert validate_scenario(replaced(scen_a, **{field: np.array(value)})) == [message]


def test_scenario_arrays_are_read_only_copies():
    s = generate_random_scenario(4, horizon=2, branching=2, d1=1, d2=1, n_agents=2,
                                 preference_kind="linear_mv")
    inputs = dict(s0_fin=np.array(s.s0_fin), m_fin=np.array(s.m_fin),
                  dividends=np.array(s.dividends))
    eta2, xi_n = np.array(s.agents[0].eta2), np.array(s.agents[0].xi_n)
    agents = [AgentSpec(eta2, xi_n, s.agents[0].preference), *s.agents[1:]]
    own = Scenario(tree=s.tree, d1=s.d1, d2=s.d2, agents=agents, **inputs)
    assert isinstance(own.agents, tuple)
    report = solve_linear_mv(own)
    before = [report.prices.tobytes(), own.endowments().tobytes()]
    # the caller's arrays change after construction: the scenario does not
    for a in (*inputs.values(), eta2, xi_n):
        a += 1.0
    agents.pop()
    assert len(own.agents) == 2
    assert [solve_linear_mv(own).prices.tobytes(), own.endowments().tobytes()] == before
    for a in (own.s0_fin, own.m_fin, own.dividends, own.agents[0].eta2,
              own.agents[0].xi_n, own.endowments(), total_endowment(own, 1)):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_replace_rebuilds_the_endowment_matrix(scen_a):
    np.testing.assert_array_equal(scen_a.endowments(), [[2.0], [1.0]])
    doubled = replace(scen_a, dividends=2.0 * scen_a.dividends)
    np.testing.assert_array_equal(doubled.endowments(), [[4.0], [2.0]])
    richer = replace(scen_a, agents=[*scen_a.agents, AgentSpec([0.5], [1.0, 0.0], Quadratic(3.0))])
    np.testing.assert_array_equal(richer.endowments(), [[2.0, 2.0], [1.0, 0.5]])
    np.testing.assert_array_equal(aggregate_endowment(richer), [4.0, 1.5])
    np.testing.assert_array_equal(scen_a.endowments(), [[2.0], [1.0]])


def test_endowment_matrix_built_once_per_frontier_session(monkeypatch):
    s = generate_random_scenario(2, horizon=3, branching=3, d1=1, d2=1, n_agents=5,
                                 preference_kind="linear_mv")
    builds = []
    real = Scenario.endowments

    def counting(self):
        if self._endowments is None:
            builds.append(self)
        return real(self)

    monkeypatch.setattr(Scenario, "endowments", counting)
    r = solve_linear_mv(s)
    assert r.exists
    for k in range(len(s.agents)):
        agent_frontier(s, r.prices, k)
    opportunity_process(s.tree, r.prices, r.gamma_bar - aggregate_endowment(s))
    assert builds == [s]
