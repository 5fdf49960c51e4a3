"""Experiment configuration: versioned JSON schema and network building.

Schema (version 1), all keys except "version", "network", "image_size"
and "grid" optional with the defaults below:

{
  "version": 1,
  "network": {"preset": "vgg13", "in_channels": 1, "base": 4, "hidden": 32}
           | {"in_channels": 1, "split_index": 6, "layers": [
                {"kind": "conv", "c_out": 8, "kernel": 3, "stride": 1, "pad": 1},
                {"kind": "relu"}, {"kind": "maxpool", "kernel": 2, "stride": 2},
                {"kind": "flatten"}, {"kind": "dense", "width": 1}]},
  "image_size": 64, "grid": [2, 2],
  "batch_size": 1, "steps": 10, "learning_rate": 0.05,
  "seed": 0, "precision": "single" | "double",
  "mode": "sgd" | "ssgd",
  "dataset": {"n_train": 32, "noise": 0.02},
  "tolerances": {"loss": ..., "grad": ..., "logit": ..., "split_map": ...},
  "verify": {"fd_coords": 40, "fd_eps": 1e-5, "fd_tol": 1e-5},
  "bench": {"steps": 3},
  "out": "path"
}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError, ShapeError
from .network import Conv, Dense, Flatten, MaxPool, NetworkSpec, PRESETS, Relu

SCHEMA_VERSION = 1

_LAYER_KINDS = {
    "conv": lambda d: Conv(c_out=d["c_out"], kernel=d.get("kernel", 3),
                           stride=d.get("stride", 1), pad=d.get("pad", 0)),
    "maxpool": lambda d: MaxPool(kernel=d.get("kernel", 2), stride=d.get("stride", 2)),
    "relu": lambda d: Relu(),
    "flatten": lambda d: Flatten(),
    "dense": lambda d: Dense(width=d["width"]),
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
    tolerances: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    bench: dict = field(default_factory=dict)
    out: str = None

    @property
    def n_train(self):
        return int(self.dataset.get("n_train", 32))

    @property
    def noise(self):
        return float(self.dataset.get("noise", 0.02))

    @property
    def in_channels(self):
        return int(self.network.get("in_channels", 1))


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def parse_config(doc):
    _require(isinstance(doc, dict), "config root must be a JSON object")
    _require(doc.get("version") == SCHEMA_VERSION,
             f"config version must be {SCHEMA_VERSION}, got {doc.get('version')!r}")
    for key in ("network", "image_size", "grid"):
        _require(key in doc, f"config missing required key {key!r}")
    net = doc["network"]
    _require(isinstance(net, dict), "network must be an object")
    _require(("preset" in net) != ("layers" in net),
             "network needs exactly one of 'preset' or 'layers'")
    if "preset" in net:
        _require(net["preset"] in PRESETS, f"unknown preset {net['preset']!r}")
    else:
        _require("split_index" in net, "inline network needs split_index")
        for entry in net["layers"]:
            _require(isinstance(entry, dict) and entry.get("kind") in _LAYER_KINDS,
                     f"bad layer entry {entry!r}")
    image_size = doc["image_size"]
    _require(isinstance(image_size, int) and image_size >= 4, "image_size must be an int >= 4")
    grid = doc["grid"]
    _require(isinstance(grid, list) and len(grid) == 2
             and all(isinstance(g, int) and g >= 1 for g in grid),
             "grid must be [rows, cols] with positive ints")

    cfg = ExperimentConfig(network=net, image_size=image_size, grid=tuple(grid))
    for key, kind, check in (
            ("batch_size", int, lambda v: v >= 1),
            ("steps", int, lambda v: v >= 0),
            ("learning_rate", (int, float), lambda v: v >= 0),
            ("seed", int, lambda v: True)):
        if key in doc:
            v = doc[key]
            _require(isinstance(v, kind) and not isinstance(v, bool) and check(v),
                     f"bad value for {key}: {v!r}")
            setattr(cfg, key, v if key != "learning_rate" else float(v))
    if "precision" in doc:
        _require(doc["precision"] in ("single", "double"),
                 f"precision must be 'single' or 'double', got {doc['precision']!r}")
        cfg.precision = doc["precision"]
    if "mode" in doc:
        _require(doc["mode"] in ("sgd", "ssgd"),
                 f"mode must be sgd or ssgd, got {doc['mode']!r}")
        cfg.mode = doc["mode"]
    for key in ("dataset", "tolerances", "verify", "bench"):
        if key in doc:
            _require(isinstance(doc[key], dict), f"{key} must be an object")
            setattr(cfg, key, doc[key])
    if "out" in doc:
        _require(isinstance(doc["out"], str), "out must be a path string")
        cfg.out = doc["out"]
    if cfg.dataset:
        n_tr = cfg.dataset.get("n_train", 32)
        _require(isinstance(n_tr, int) and n_tr >= 2 and n_tr % 2 == 0,
                 "dataset.n_train must be an even int >= 2")
    return cfg


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
        layers = tuple(_LAYER_KINDS[d["kind"]](d) for d in net["layers"])
        return NetworkSpec(net.get("in_channels", 1), layers, net["split_index"])
    except (KeyError, TypeError, ShapeError) as exc:
        raise ConfigError(f"bad network spec: {exc}") from exc
