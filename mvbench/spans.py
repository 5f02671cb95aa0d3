"""Span tracing of ``mveq``'s layers, installed from outside the package.

``Tracer.install`` wraps every function defined in ``mveq``'s modules at
every place it is bound (module attributes, the package namespace and
module-level dicts such as ``cli.COMMANDS``), the methods of
``FiltrationTree`` and ``GainsOperator``, and ``numpy.linalg.lstsq`` /
``numpy.linalg.svd``.  Each call records a span (name, start, end, parent
span) in flat in-memory lists; ``self_times`` turns them into per-name
self time (duration minus the time covered by child spans) and call
counts.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("tree", "scenario", "stoch", "mvh", "quadratic", "linear_mv", "io",
          "cli", "generate")
METHODS = {
    "tree.FiltrationTree": {"__init__": "tree.build", "subtree": "tree.subtree",
                            "path": "tree.path", "nonterminal": "tree.nonterminal",
                            "child_weights": "tree.child_weights"},
    "mvh.GainsOperator": {"theta_from_coords": "mvh.theta_from_coords"},
}


def _dense_flops(a) -> float:
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    return float(m) * n * min(m, n)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def adopt(self, doc: dict, parent: int) -> None:
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.names)
        for name, s, e, p in zip(doc["names"], doc["start"], doc["end"],
                                 doc["parent"]):
            self.names.append(name)
            self.start.append(s)
            self.end.append(e)
            self.parent.append(parent if p < 0 else base + p)
        for k, v in doc["counters"].items():
            self.counters[k] += v

    # ------------------------------------------------------------ install
    def install(self, mveq) -> None:
        hooks = {
            "mvh.build_gains_operator": _gains_mb,
            "io.report_to_json": _report_bytes,
            "io.report_to_csv": _report_bytes,
        }
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"mveq.{layer}"]
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(val)] = self.wrap(name, val, hooks.get(name))
        mods = [m for k, m in list(sys.modules.items())
                if k == "mveq" or k.startswith("mveq.")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._set(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers:
                            self._restore.append((val, k, v, True))
                            val[k] = wrappers[id(v)]
        for qual, methods in METHODS.items():
            layer, cls_name = qual.split(".")
            cls = getattr(sys.modules[f"mveq.{layer}"], cls_name)
            for attr, name in methods.items():
                self._set(cls, attr, self.wrap(name, vars(cls)[attr]))
        import numpy.linalg as la

        self._set(la, "lstsq", self.wrap("mvh.lstsq", la.lstsq, _flops))
        self._set(la, "svd", self.wrap("mvh.svd", la.svd, _flops))

    def _set(self, obj, attr, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr), False))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, key, val, is_dict in reversed(self._restore):
            if is_dict:
                obj[key] = val
            else:
                setattr(obj, key, val)
        self._restore.clear()

    # ------------------------------------------------------------ results
    def self_times(self) -> tuple[dict, dict]:
        """Per-name self time in seconds and call count."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            self_s[name] += dur[i] - covered[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def doc(self) -> dict:
        return {"names": self.names, "start": self.start, "end": self.end,
                "parent": self.parent, "counters": dict(self.counters)}

    def dump(self, path: str, **extra) -> None:
        doc = self.doc()
        doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def dump_lines(self, path: str) -> None:
        """One JSON line per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": self.start[i], "end": self.end[i],
                                     "parent": self.parent[i]}) + "\n")


def _gains_mb(counters, args, op) -> None:
    counters["mvh.gains_operator_mb"] += 8.0 * (op.paths.size + op.terminal.size) / 1e6


def _report_bytes(counters, args, text) -> None:
    counters["io.report_bytes"] += len(text.encode())


def _flops(counters, args, result) -> None:
    counters["mvh.dense_flops"] += _dense_flops(args[0])
