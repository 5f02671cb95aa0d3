"""Scenario files and report emission.

Scenario files are JSON documents with the fields ``horizon``, ``tree``
(children lists plus leaf probabilities), ``d1``, ``d2``, ``s0_fin``,
``m_fin`` (one length-d1 vector per node), ``dividends`` (one length-d2
vector per leaf), ``agents`` and an optional ``prices`` block (one
length-(d1+d2) vector per node) for verification runs.
"""

from __future__ import annotations

import json

import numpy as np

from .scenario import AgentSpec, LinearMV, Quadratic, Scenario
from .tree import FiltrationTree

__all__ = [
    "ParseError",
    "parse_scenario",
    "emit_scenario",
    "load_scenario",
    "report_to_json",
    "report_to_csv",
]


class ParseError(ValueError):
    """Malformed scenario document."""


def _require(doc, key: str, name: str | None = None):
    """The field ``key`` of the object ``doc``, which sits at ``name`` in
    the document (the document itself if None)."""
    if not isinstance(doc, dict):
        if name is None:
            raise ParseError("scenario document must be a JSON object")
        raise ParseError(f"field {name!r} must be an object")
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _convert(value, convert, name: str):
    """``convert(value)``, or a :class:`ParseError` naming the field
    ``name`` if the value has the wrong type or does not convert."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad field {name!r}: {exc}") from exc


def _array(value, name: str, shape=None) -> np.ndarray:
    """A float array from ``value``, reshaped to ``shape`` if given."""
    def convert(v):
        arr = np.asarray(v, dtype=float)
        return arr if shape is None else arr.reshape(shape)

    return _convert(value, convert, name)


def parse_scenario(doc: dict) -> tuple[Scenario, np.ndarray | None]:
    """Build a scenario (and the optional price block) from a parsed JSON
    document.  Any missing field, or one of the wrong type or that does
    not convert, raises :class:`ParseError`."""
    try:
        tree_doc = _require(doc, "tree")
        tree = FiltrationTree(
            _require(tree_doc, "children", "tree"),
            _require(tree_doc, "leaf_probs", "tree"),
        )
    except ParseError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"bad tree: {exc}") from exc

    horizon = _require(doc, "horizon")
    if horizon != tree.horizon:
        raise ParseError(
            f"declared horizon {horizon} does not match the tree ({tree.horizon})"
        )
    d1 = _convert(_require(doc, "d1"), int, "d1")
    d2 = _convert(_require(doc, "d2"), int, "d2")
    m_fin = _array(_require(doc, "m_fin"), "m_fin", (tree.n_nodes, d1))
    dividends = _array(_require(doc, "dividends"), "dividends", (tree.n_leaves, d2))
    s0_fin = _array(_require(doc, "s0_fin"), "s0_fin", (d1,))

    agents_doc = _require(doc, "agents")
    if not isinstance(agents_doc, list):
        raise ParseError("field 'agents' must be a list")
    agents = []
    for i, a in enumerate(agents_doc):
        where = f"agents[{i}]"
        pref_doc = _require(a, "preference", where)
        kind = _require(pref_doc, "type", f"{where}.preference")
        if kind == "quadratic":
            gamma = _require(pref_doc, "gamma", f"{where}.preference")
            pref = Quadratic(gamma=_convert(gamma, float, f"{where}.preference.gamma"))
        elif kind == "linear_mv":
            lam = _require(pref_doc, "lambda", f"{where}.preference")
            pref = LinearMV(lam=_convert(lam, float, f"{where}.preference.lambda"))
        else:
            raise ParseError(f"agent {i}: unknown preference type {kind!r}")
        agents.append(
            AgentSpec(
                eta2=_array(_require(a, "eta2", where), f"{where}.eta2"),
                xi_n=_array(_require(a, "xi_n", where), f"{where}.xi_n"),
                preference=pref,
            )
        )

    scenario = Scenario(
        tree=tree, d1=d1, d2=d2, s0_fin=s0_fin, m_fin=m_fin,
        dividends=dividends, agents=agents,
    )

    prices = None
    if doc.get("prices") is not None:
        prices = _array(doc["prices"], "prices", (tree.n_nodes, d1 + d2))
    return scenario, prices


def emit_scenario(s: Scenario, prices: np.ndarray | None = None) -> dict:
    """Inverse of :func:`parse_scenario`; round-trips field for field."""
    doc = {
        "horizon": s.tree.horizon,
        "tree": {
            "children": [list(c) for c in s.tree.children],
            "leaf_probs": s.tree.leaf_probs.tolist(),
        },
        "d1": s.d1,
        "d2": s.d2,
        "s0_fin": s.s0_fin.tolist(),
        "m_fin": s.m_fin.tolist(),
        "dividends": s.dividends.tolist(),
        "agents": [
            {
                "eta2": a.eta2.tolist(),
                "xi_n": a.xi_n.tolist(),
                "preference": (
                    {"type": "quadratic", "gamma": a.preference.gamma}
                    if isinstance(a.preference, Quadratic)
                    else {"type": "linear_mv", "lambda": a.preference.lam}
                ),
            }
            for a in s.agents
        ],
    }
    if prices is not None:
        doc["prices"] = np.asarray(prices, dtype=float).tolist()
    return doc


def load_scenario(path: str) -> tuple[Scenario, np.ndarray | None]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    return parse_scenario(doc)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def report_to_json(report: dict) -> str:
    """Deterministic serialisation: sorted keys, shortest lossless float
    representation."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=2)


def report_to_csv(report: dict, tree=None) -> str:
    """Flat CSV: one row per scalar entry with columns
    quantity,time,node,asset,value.  Per-node arrays get node/time
    columns, per-asset dimensions the asset column; scalars leave them
    blank."""
    lines = ["quantity,time,node,asset,value"]

    def emit(name, value):
        value = _jsonable(value)
        if isinstance(value, dict):
            for k, v in sorted(value.items()):
                emit(f"{name}.{k}", v)
        elif isinstance(value, list):
            arr = np.asarray(value, dtype=object)
            if tree is not None and arr.ndim >= 1 and len(arr) == tree.n_nodes:
                for n, row in enumerate(value):
                    t = int(tree.time[n])
                    if isinstance(row, list):
                        for j, x in enumerate(row):
                            lines.append(f"{name},{t},{n},{j},{x!r}")
                    else:
                        lines.append(f"{name},{t},{n},,{row!r}")
            else:
                for i, row in enumerate(value):
                    if isinstance(row, list):
                        for j, x in enumerate(row):
                            lines.append(f"{name},,{i},{j},{x!r}")
                    else:
                        lines.append(f"{name},,{i},,{row!r}")
        else:
            lines.append(f"{name},,,,{value!r}")

    for key in sorted(report):
        emit(key, report[key])
    return "\n".join(lines) + "\n"
