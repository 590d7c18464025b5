"""Scenario JSON loading and result serialization.

Scenario schema:
{
  "nodes": [1, 2],
  "edges": [{"from": 1, "to": 2,
             "channel": {"type": "dmc", "kernel": [[...], ...]}
                      | {"type": "pipe", "rate": 0.5}}],
  "sources": {"type": "iid", "alphabet_sizes": [...], "pmf": [...]}
           | {"type": "markov", "alphabet_sizes": [...],
              "initial": [...], "transition": [[...], ...]},
  "demands": [{"a": 1, "b": 2, "distortion_matrix": [[...], ...]}],
  "code": {"name": "uncoded_relay", "params": {...}},
  "experiment": "simulate" | "stack-check" | ...,
  ... experiment-specific keys ...
}
"""

import inspect
import json
import operator
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .netmodel import (BitPipe, DmcChannel, Edge, IidJoint, MarkovJoint,
                       NetworkSpec, validate_spec)
from .probkit import Kernel
from .recipes import RECIPES

SCHEMA_VERSION = "sepnet/v1"


class ScenarioError(ValueError):
    pass


def parse_channel(obj):
    kind = obj.get("type")
    if kind == "dmc":
        return DmcChannel(Kernel(obj["kernel"]))
    if kind == "pipe":
        return BitPipe(float(obj["rate"]))
    raise ScenarioError("unknown channel type %r" % kind)


def parse_sources(obj):
    kind = obj.get("type")
    sizes = obj["alphabet_sizes"]
    if kind == "iid":
        return IidJoint(sizes, obj["pmf"])
    if kind == "markov":
        return MarkovJoint(sizes, obj["initial"], obj["transition"])
    raise ScenarioError("unknown source type %r" % kind)


def parse_network(obj):
    nodes = tuple(obj["nodes"])
    edges = tuple(Edge(e["from"], e["to"], parse_channel(e["channel"]))
                  for e in obj.get("edges", []))
    demands = {(d["a"], d["b"]): np.asarray(d["distortion_matrix"], dtype=float)
               for d in obj.get("demands", [])}
    return NetworkSpec(nodes, edges, demands, parse_sources(obj["sources"]))


@dataclass
class Scenario:
    """A loaded scenario file: extra holds the keys outside the network
    sections. A bare solver-input file (no "nodes") has net None."""
    net: NetworkSpec
    experiment: str
    code_name: str = None
    code_params: dict = field(default_factory=dict)
    trials: int = 1000
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def value(self, key, default, convert):
        """An experiment-specific key, read by scenario_value."""
        return scenario_value(self.extra, key, default, convert)


_KNOWN = {"nodes", "edges", "sources", "demands", "code", "experiment",
          "trials", "seed"}


def scenario_value(obj, key, default, convert):
    """convert(obj[key]), or convert(default) when the key is absent; a value
    convert rejects is a ScenarioError naming the key."""
    value = obj.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError("scenario key %r: cannot read %r: %s"
                            % (key, value, exc)) from None


def positive_ints(values):
    """A list of integers >= 1; 2.5, "8" and null are not integers."""
    out = tuple(operator.index(v) for v in values)
    if min(out, default=1) < 1:
        raise ValueError("entries must be >= 1")
    return out


def _code_entry(code):
    """(name, params) of a code entry; params are integer keywords of the
    named recipe."""
    code = dict(code or {})
    name = code.get("name")
    params = {k: operator.index(v)
              for k, v in dict(code.get("params") or {}).items()}
    if name in RECIPES:
        inspect.signature(RECIPES[name]).bind(None, **params)
    return name, params


def load_scenario(path):
    """Read a scenario file once. A network scenario is parsed and
    validated; a bare solver-input file loads with net None."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ScenarioError("a scenario file must hold a JSON object")
    experiment = scenario_value(obj, "experiment", "simulate", str)
    extra = {k: v for k, v in obj.items() if k not in _KNOWN}
    if "nodes" not in obj:
        return Scenario(net=None, experiment=experiment, extra=extra)
    try:
        net = parse_network(obj)
    except (TypeError, KeyError, AttributeError) as exc:
        raise ScenarioError("malformed network section: %s %s"
                            % (type(exc).__name__, exc)) from None
    diags = validate_spec(net)
    if diags:
        raise ScenarioError("; ".join(str(d) for d in diags))
    code_name, code_params = scenario_value(obj, "code", None, _code_entry)
    return Scenario(
        net=net,
        experiment=experiment,
        code_name=code_name,
        code_params=code_params,
        trials=scenario_value(obj, "trials", 1000, int),
        seed=scenario_value(obj, "seed", 0, int),
        extra=extra)


def write_json_atomic(obj, path):
    """Write a result file via temp-and-rename, with an embedded schema tag."""
    obj = dict(obj)
    obj.setdefault("schema", SCHEMA_VERSION)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path

