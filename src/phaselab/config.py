"""Strict JSON configuration for experiments and sweeps.

One parser, one schema: unknown fields are rejected, dotted-path overrides
come from the command line, and every numeric invariant is checked before
any computation starts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ConfigurationError

EXPERIMENTS = ("vlasov", "hartree", "linear-hartree", "twin-classical", "twin-quantum")
PROBES = (
    "convergence",
    "wick_structure",
    "wick_square",
    "weight_remainder",
    "commutator",
    "b_remainder",
    "init_diff",
    "positivity_defect",
    "sqrt_comparison",
    "regularity",
)

_SCHEMA = {
    "experiment": str,
    "N": int,
    "L_x": (int, float),
    "L_xi": (int, float),
    "sign": int,
    "T": (int, float),
    "dt": (int, float, type(None)),
    "profile": dict,
    "sweep_N": list,
    "probes": list,
    "out_dir": str,
    "seed": int,
    "dump_snapshots": bool,
}

DEFAULTS = {
    "experiment": "vlasov",
    "N": 64,
    "L_x": 6.283185307179586,
    "L_xi": 6.283185307179586,
    "sign": 1,
    "T": 0.5,
    "dt": None,
    "profile": {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42},
    "sweep_N": [64, 96, 128, 192, 256],
    "probes": ["convergence"],
    "out_dir": "results",
    "seed": 0,
    "dump_snapshots": False,
}


def _check_types(data: dict):
    for key, value in data.items():
        if key not in _SCHEMA:
            raise ConfigurationError(f"unknown config field {key!r}")
        expected = _SCHEMA[key]
        if not isinstance(value, expected):
            raise ConfigurationError(
                f"config field {key!r} has type {type(value).__name__}, expected {expected}"
            )
        if isinstance(value, bool) and expected is not bool:
            raise ConfigurationError(f"config field {key!r} must be a number, not a boolean")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"config field {key!r} must be finite, got {value!r}")


def validate(data: dict) -> dict:
    """The config with DEFAULTS filled in; raises ConfigurationError on an
    unknown field, a wrong type or a broken invariant."""
    merged = dict(DEFAULTS)
    merged.update(data)
    _check_types(merged)
    if merged["experiment"] not in EXPERIMENTS:
        raise ConfigurationError(
            f"experiment must be one of {EXPERIMENTS}, got {merged['experiment']!r}"
        )
    N = merged["N"]
    if N % 2 != 0 or N < 8:
        raise ConfigurationError(f"N must be even and >= 8, got {N}")
    if merged["sign"] not in (-1, 0, 1):
        raise ConfigurationError("sign must be -1, 0, or +1")
    if merged["T"] < 0:
        raise ConfigurationError("T must be nonnegative")
    if merged["dt"] is not None and merged["dt"] <= 0:
        raise ConfigurationError("dt must be positive when given")
    if merged["seed"] < 0:
        raise ConfigurationError("seed must be nonnegative")
    sweep = merged["sweep_N"]
    if not all(type(n) is int and n % 2 == 0 for n in sweep):  # a bool is not an int here
        raise ConfigurationError("sweep_N entries must be even integers")
    if sorted(sweep) != sweep or len(set(sweep)) != len(sweep):
        raise ConfigurationError("sweep_N must be strictly increasing")
    for p in merged["probes"]:
        if p not in PROBES:
            raise ConfigurationError(f"unknown probe {p!r}; known: {PROBES}")
    if len(set(merged["probes"])) != len(merged["probes"]):
        raise ConfigurationError("probes must not list a probe twice")
    if "name" not in merged["profile"]:
        raise ConfigurationError("profile needs a 'name' field")
    for key, value in merged["profile"].items():
        if key != "name" and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or not math.isfinite(value)):
            raise ConfigurationError(
                f"profile field {key!r} must be a finite number, got {value!r}")
    return merged


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    return validate(raw)


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply repeatable --set key=value flags with dotted paths.

    Values parse as JSON when possible (numbers, booleans, null, lists),
    falling back to bare strings.
    """
    data = json.loads(json.dumps(config))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return validate(data)
