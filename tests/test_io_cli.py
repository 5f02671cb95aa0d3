import json
import re

import numpy as np
import pytest

from mveq import (
    ParseError,
    emit_scenario,
    load_scenario,
    parse_scenario,
    report_to_csv,
    report_to_json,
)
from mveq.cli import main
from mveq.generate import generate_random_scenario
from mveq.quadratic import construct_prices


def write_scenario(path, s, prices=None):
    path.write_text(json.dumps(emit_scenario(s, prices)))
    return str(path)


def assert_same_scenario(a, b):
    assert a.tree.children == b.tree.children
    np.testing.assert_array_equal(a.tree.leaf_probs, b.tree.leaf_probs)
    assert (a.d1, a.d2) == (b.d1, b.d2)
    np.testing.assert_array_equal(a.s0_fin, b.s0_fin)
    np.testing.assert_array_equal(a.m_fin, b.m_fin)
    np.testing.assert_array_equal(a.dividends, b.dividends)
    assert len(a.agents) == len(b.agents)
    for x, y in zip(a.agents, b.agents):
        np.testing.assert_array_equal(x.eta2, y.eta2)
        np.testing.assert_array_equal(x.xi_n, y.xi_n)
        assert x.preference == y.preference


@pytest.mark.parametrize("kind", ["quadratic", "linear_mv"])
def test_round_trip(kind, tmp_path):
    s = generate_random_scenario(5, d1=1, d2=2, preference_kind=kind)
    doc = emit_scenario(s)
    parsed, prices = parse_scenario(doc)
    assert prices is None
    assert_same_scenario(s, parsed)
    # and through a file, with a price block attached
    p = construct_prices(s) if kind == "quadratic" else None
    if p is not None:
        path = write_scenario(tmp_path / "s.json", s, p)
        loaded, loaded_prices = load_scenario(path)
        assert_same_scenario(s, loaded)
        np.testing.assert_array_equal(loaded_prices, p)


def malformed(doc, path, value):
    """Copy of ``doc`` with the field at ``path`` (a list of keys and
    indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


MALFORMED = [
    (["d1"], [0], "'d1'"),
    (["d1"], "x", "'d1'"),
    (["d2"], None, "'d2'"),
    (["agents"], 5, "'agents'"),
    (["agents"], [5], "'agents[0]'"),
    (["agents", 0, "preference"], "quadratic", "'agents[0].preference'"),
    (["agents", 0, "preference", "gamma"], "abc", "'agents[0].preference.gamma'"),
    (["agents", 0, "preference", "gamma"], [1.0], "'agents[0].preference.gamma'"),
    (["agents", 0, "eta2"], [[1.0], [1.0, 2.0]], "'agents[0].eta2'"),
    (["agents", 0, "xi_n"], [[0.0], [0.0, 1.0]], "'agents[0].xi_n'"),
    (["agents", 0, "xi_n"], {"a": 1}, "'agents[0].xi_n'"),
    (["dividends"], {"a": 1}, "'dividends'"),
    (["tree"], [1], "'tree'"),
]


def test_parse_errors(scen_a, tmp_path):
    doc = emit_scenario(scen_a)
    for key in ("tree", "horizon", "d1", "agents"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(ParseError):
            parse_scenario(broken)
    broken = dict(doc)
    broken["horizon"] = 3
    with pytest.raises(ParseError, match="horizon"):
        parse_scenario(broken)
    broken = json.loads(json.dumps(doc))
    broken["agents"][0]["preference"]["type"] = "exotic"
    with pytest.raises(ParseError, match="preference"):
        parse_scenario(broken)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(str(bad))
    # a field of the wrong type, or whose value does not convert, is named
    for path, value, field in MALFORMED:
        with pytest.raises(ParseError, match=re.escape(field)):
            parse_scenario(malformed(doc, path, value))


def test_report_serialisation(coin_tree):
    report = {"s0": [1.25], "verdict": "Equilibrium",
              "prices": [[1.25], [2.0], [1.0]]}
    text = report_to_json(report)
    assert json.loads(text)["s0"] == [1.25]
    csv = report_to_csv(report, coin_tree)
    lines = csv.strip().splitlines()
    assert lines[0] == "quantity,time,node,asset,value"
    assert "prices,0,0,0,1.25" in lines


def run_cli(args):
    return main(args)


def test_cli_solve_quadratic(scen_a, tmp_path, capsys):
    path = write_scenario(tmp_path / "a.json", scen_a)
    assert run_cli(["solve-quadratic", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Equilibrium"
    assert out["s0"] == [25 / 17]


def test_cli_solve_linear_mv(scen_b, tmp_path, capsys):
    path = write_scenario(tmp_path / "b.json", scen_b)
    assert run_cli(["solve-linear-mv", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s0"] == [1.25]
    assert out["ell"] == pytest.approx(0.8)


def test_cli_exit_codes(scen_b, scen_c_prime, tmp_path, capsys):
    from mveq import AgentSpec, LinearMV, Scenario

    # nonexistence: lambda too small -> exit 3
    small = Scenario(
        tree=scen_b.tree, d1=0, d2=1, s0_fin=np.zeros(0), m_fin=np.zeros((3, 0)),
        dividends=scen_b.dividends,
        agents=[AgentSpec(eta2=[1.0], xi_n=[0.0, 0.0], preference=LinearMV(0.1))],
    )
    path = write_scenario(tmp_path / "small.json", small)
    texts = []
    for command in ("solve-linear-mv", "frontier"):
        assert run_cli([command, "--input", path]) == 3
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    out = json.loads(texts[0])
    assert out["gamma_bar"] == pytest.approx(1.6)
    assert not out["exists"]

    # proven nonexistence on the quadratic side -> exit 3
    path = write_scenario(tmp_path / "cp.json", scen_c_prime)
    for command in ("solve-quadratic", "frontier"):
        assert run_cli([command, "--input", path]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "NonexistenceProven"

    # parse error -> exit 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli(["solve-quadratic", "--input", str(bad)]) == 1
    capsys.readouterr()
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(malformed(emit_scenario(small), ["d1"], "x")))
    assert run_cli(["solve-linear-mv", "--input", str(wrong)]) == 1
    assert capsys.readouterr().err.startswith("parse error: bad field 'd1'")

    # validation error -> exit 2
    doc = emit_scenario(small)
    doc["tree"]["leaf_probs"] = [0.5, 0.4]
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    assert run_cli(["solve-linear-mv", "--input", str(invalid)]) == 2
    capsys.readouterr()
    # a NaN passes every comparison but the finiteness check -> exit 2
    doc = emit_scenario(small)
    doc["tree"]["leaf_probs"] = [float("nan"), 0.5]
    invalid.write_text(json.dumps(doc))
    assert run_cli(["solve-linear-mv", "--input", str(invalid)]) == 2
    assert "leaf_probs must be finite" in capsys.readouterr().err


def test_cli_loads_scenario_once(scen_a, tmp_path, capsys, monkeypatch):
    import mveq.cli

    calls = []

    def counting_load(path):
        calls.append(path)
        return load_scenario(path)

    monkeypatch.setattr(mveq.cli, "load_scenario", counting_load)
    path = write_scenario(tmp_path / "a.json", scen_a)
    for command in ("solve-quadratic", "frontier", "check-conditions"):
        calls.clear()
        assert run_cli([command, "--input", path]) == 0
        assert calls == [path]
    capsys.readouterr()


def test_cli_verify_non_uniqueness(scen_c, tmp_path, capsys):
    for s0 in (1.0, 0.5):
        prices = np.full((3, 1), s0)
        prices[scen_c.tree.leaves, 0] = 1.0
        path = write_scenario(tmp_path / f"c{s0}.json", scen_c, prices)
        assert run_cli(["verify", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "Equilibrium"


def test_cli_verify_requires_prices_and_terminal_match(scen_a, tmp_path, capsys):
    path = write_scenario(tmp_path / "nop.json", scen_a)
    assert run_cli(["verify", "--input", path]) == 2
    prices = construct_prices(scen_a)
    prices[1, 0] = 5.0  # contradicts the dividend
    path = write_scenario(tmp_path / "badterm.json", scen_a, prices)
    assert run_cli(["verify", "--input", path]) == 2
    prices = construct_prices(scen_a)
    prices[0, 0] = float("nan")
    path = write_scenario(tmp_path / "nan.json", scen_a, prices)
    capsys.readouterr()
    assert run_cli(["verify", "--input", path]) == 2
    assert capsys.readouterr().err == "validation error: prices must be finite\n"


def test_cli_check_conditions(scen_c_prime, tmp_path, capsys):
    path = write_scenario(tmp_path / "cp.json", scen_c_prime)
    assert run_cli(["check-conditions", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert not out["passed"]
    assert out["cond_g_failures"][0]["node"] == 0


def test_cli_frontier(scen_b, tmp_path, capsys):
    path = write_scenario(tmp_path / "b.json", scen_b)
    assert run_cli(["frontier", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    agent = out["agents"][0]
    assert agent["ell"] == pytest.approx(0.8)
    assert agent["c_k"] == pytest.approx(1.25)


def test_cli_solver_precondition_is_not_a_validation_error(scen_c, tmp_path, capsys):
    # S = 0 -> 1 on both branches: the payoff 1 is replicable from 0, so
    # value processes are not unique and the frontiers are undefined
    prices = np.array([[0.0], [1.0], [1.0]])
    path = write_scenario(tmp_path / "c.json", scen_c, prices)
    assert run_cli(["frontier", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: frontier requires uniqueness of value processes\n"
    # a scenario that fails validation keeps its label
    doc = emit_scenario(scen_c, prices)
    doc["tree"]["leaf_probs"] = [0.5, 0.4]
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    assert run_cli(["frontier", "--input", str(invalid)]) == 2
    assert capsys.readouterr().err.startswith("validation error: ")


def test_cli_random_suite(capsys):
    assert run_cli(["random-suite", "--seed", "3", "--count", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == 6
    assert out["all_passed"]


def test_cli_deterministic_output(scen_b, tmp_path):
    path = write_scenario(tmp_path / "b.json", scen_b)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["solve-linear-mv", "--input", path, "--output", str(out1)]) == 0
    assert run_cli(["solve-linear-mv", "--input", path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_csv_output(scen_a, tmp_path):
    path = write_scenario(tmp_path / "a.json", scen_a)
    out = tmp_path / "r.csv"
    assert run_cli(["solve-quadratic", "--input", path,
                    "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "quantity,time,node,asset,value"
    assert any(line.startswith("prices,0,0,0,") for line in lines)
