"""Experiment configuration: versioned JSON schema and network building.

Schema (version 1), all keys except "version", "network", "image_size"
and "grid" optional with the defaults below:

{
  "version": 1,
  "network": {"preset": "vgg13", "in_channels": 1, "base": 4, "hidden": 32}
           | {"in_channels": 1, "layers": [
                {"kind": "conv", "c_out": 8, "kernel": 3, "stride": 1, "pad": 1},
                {"kind": "relu"}, {"kind": "maxpool", "kernel": 2, "stride": 2},
                {"kind": "flatten"}, {"kind": "dense", "width": 1}]},
  "image_size": 64, "grid": [2, 2],
  "batch_size": 1, "steps": 10, "learning_rate": 0.05,
  "seed": 0, "precision": "single" | "double",
  "mode": "sgd" | "ssgd",
  "dataset": {"n_train": 32, "noise": 0.02},
  "verify": {"fd_coords": 40},
  "bench": {"steps": 3},
  "out": "path"
}

parse_config rejects, with ConfigError, any key not listed here (a
preset takes the keyword arguments of its function in
tilestream.network; a "layers" network has no "split_index", since its
split is its one flatten) and any value of the wrong type or range: counts
are ints (never booleans), noise and learning_rate finite non-negative
numbers. verify's gates (tilestream.equivalence's tolerances and
finite-difference step and tolerance) are constants that no config can
widen, and fd_coords is at least 1, so the finite-difference gate always
probes.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, ShapeError
from .network import Conv, Dense, Flatten, MaxPool, NetworkSpec, PRESETS, Relu

SCHEMA_VERSION = 1

# A value check is (type, predicate); booleans never pass as numbers.
_ANY = (object, lambda v: True)
_POS_INT = (int, lambda v: v >= 1)
_NONNEG_INT = (int, lambda v: v >= 0)
_NONNEG = ((int, float), lambda v: 0 <= v < math.inf)

_FIELDS = {
    "version": _ANY,  # checked first by parse_config
    "network": _ANY,  # checked by _check_network
    "image_size": (int, lambda v: v >= 4),
    "grid": (list, lambda v: len(v) == 2 and all(_valid(g, _POS_INT) for g in v)),
    "batch_size": _POS_INT,
    "steps": _NONNEG_INT,
    "learning_rate": _NONNEG,
    "seed": _NONNEG_INT,
    "precision": (str, lambda v: v in ("single", "double")),
    "mode": (str, lambda v: v in ("sgd", "ssgd")),
    "dataset": {"n_train": (int, lambda v: v >= 2 and v % 2 == 0), "noise": _NONNEG},
    "verify": {"fd_coords": _POS_INT},
    "bench": {"steps": _POS_INT},
    "out": (str, lambda v: True),
}

# kind -> (layer class, its fields in a config entry, the required ones)
_LAYER_KINDS = {
    "conv": (Conv, {"c_out": _POS_INT, "kernel": _POS_INT, "stride": _POS_INT,
                    "pad": _NONNEG_INT}, ("c_out",)),
    "maxpool": (MaxPool, {"kernel": _POS_INT, "stride": _POS_INT}, ()),
    "relu": (Relu, {}, ()),
    "flatten": (Flatten, {}, ()),
    "dense": (Dense, {"width": _POS_INT}, ("width",)),
}


@dataclass
class ExperimentConfig:
    network: dict
    image_size: int
    grid: tuple
    batch_size: int = 1
    steps: int = 10
    learning_rate: float = 0.05
    seed: int = 0
    precision: str = "double"
    mode: str = "ssgd"
    dataset: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    bench: dict = field(default_factory=dict)
    out: str = None

    @property
    def n_train(self):
        return int(self.dataset.get("n_train", 32))

    @property
    def noise(self):
        return float(self.dataset.get("noise", 0.02))


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _valid(v, check):
    kind, ok = check
    return isinstance(v, kind) and not isinstance(v, bool) and ok(v)


def _check_fields(where, doc, fields, required=()):
    """doc must be an object with only the keys of fields, each value passing
    its check (a nested dict of fields checks a nested object)."""
    _require(isinstance(doc, dict), f"{where} must be an object")
    for key in required:
        _require(key in doc, f"{where} is missing required key {key!r}")
    for key, v in doc.items():
        _require(key in fields, f"unknown key {key!r} in {where}")
        if isinstance(fields[key], dict):
            _check_fields(key, v, fields[key])
        else:
            _require(_valid(v, fields[key]), f"bad value for {key!r} in {where}: {v!r}")


def _check_network(net):
    _require(isinstance(net, dict), "network must be an object")
    _require(("preset" in net) != ("layers" in net),
             "network needs exactly one of 'preset' or 'layers'")
    if "preset" in net:
        preset = net["preset"]
        _require(isinstance(preset, str) and preset in PRESETS, f"unknown preset {preset!r}")
        kwargs = inspect.signature(PRESETS[preset]).parameters
        _check_fields("network", net, {"preset": _ANY, **dict.fromkeys(kwargs, _POS_INT)})
        return
    _require("split_index" not in net,
             "unknown key 'split_index' in network: the split is the network's flatten")
    _check_fields("network", net, {"in_channels": _POS_INT,
                                   "layers": (list, lambda v: len(v) > 0)})
    for i, entry in enumerate(net["layers"]):
        kind = entry.get("kind") if isinstance(entry, dict) else None
        _require(isinstance(kind, str) and kind in _LAYER_KINDS, f"bad layer entry {entry!r}")
        _, fields, required = _LAYER_KINDS[kind]
        _check_fields(f"network.layers[{i}]", entry, {"kind": _ANY, **fields}, required)


def parse_config(doc):
    _require(isinstance(doc, dict), "config root must be a JSON object")
    _require(doc.get("version") == SCHEMA_VERSION,
             f"config version must be {SCHEMA_VERSION}, got {doc.get('version')!r}")
    _check_fields("config", doc, _FIELDS, required=("network", "image_size", "grid"))
    _check_network(doc["network"])
    fields = {k: v for k, v in doc.items() if k != "version"}
    fields["grid"] = tuple(doc["grid"])
    return ExperimentConfig(**fields)


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return parse_config(doc)


def build_network(cfg: ExperimentConfig) -> NetworkSpec:
    net = cfg.network
    try:
        if "preset" in net:
            kwargs = {k: v for k, v in net.items() if k != "preset"}
            return PRESETS[net["preset"]](**kwargs)
        layers = tuple(_LAYER_KINDS[d["kind"]][0](**{k: v for k, v in d.items() if k != "kind"})
                       for d in net["layers"])
        return NetworkSpec(net.get("in_channels", 1), layers)
    except ShapeError as exc:
        raise ConfigError(f"bad network spec: {exc}") from exc
