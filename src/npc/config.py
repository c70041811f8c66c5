"""Run configuration: flat key=value files, presets, typed coercion.

A config file holds one `key = value` pair per line ('#' starts a
comment).  Keys must match RunConfig fields exactly; anything else is
rejected with the offending key named.  Values are coerced by the field's
default type; lam must be finite and nonnegative.  Sources compose as
defaults < preset < file < explicit overrides (CLI flags).
"""

import math
from dataclasses import dataclass, fields

__all__ = ["RunConfig", "ConfigError", "parse_config_file", "DATASET_PRESETS"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # task and data
    task: str = "classification"
    algorithm: str = "npc"
    data: str = "toy"            # builtin name (toy, sine) or a CSV path
    out: str = "."
    seed: int = 0
    # model
    backend: str = "ode_rnn"
    m: int = 5
    window: int = 4
    ctrl_hidden: int = 16
    model_hidden: int = 16
    action_dim: int = 8
    head_width: int = 0
    fdepth: int = 2
    jumps: bool = True
    cde_tanh: bool = True
    substeps: int = 2
    method: str = "rk4"
    n_classes: int = 2
    # objective
    lam: float = 0.1
    # trainer
    epochs: int = 50
    batch: int = 32
    inner_steps: int = 1
    lr: float = 1e-3
    stride: int = 1
    patience: int = 10
    min_rel_improve: float = 1e-5
    # synthetic regression data
    n_series: int = 10
    length: int = 64
    cycles: float = 1.5
    noise: float = 0.02
    drop: float = 0.0
    # evaluation
    horizon: int = 0             # extrapolation steps; 0 means the planner's m

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(
                f"key 'lam': expected a finite number >= 0, got {self.lam!r}")

    def merged(self, mapping, origin="config"):
        """New RunConfig with `mapping` applied over this one."""
        allowed = {f.name for f in fields(self)}
        values = vars(self).copy()
        for key, raw in mapping.items():
            if key not in allowed:
                raise ConfigError(f"unknown {origin} key {key!r}")
            values[key] = _coerce(key, raw, getattr(self, key))
        return RunConfig(**values)


def _coerce(key, raw, default):
    if isinstance(raw, type(default)) and not isinstance(raw, str):
        return raw
    text = str(raw).strip()
    if isinstance(default, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {text!r}")
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
    except ValueError:
        raise ConfigError(
            f"key {key!r}: expected {type(default).__name__}, got {text!r}"
        ) from None
    return text


def parse_config_file(path):
    """Read a flat key=value file into a dict of raw strings."""
    pairs = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"{path}:{lineno}: expected key = value, got {body!r}")
            key, value = body.split("=", 1)
            key = key.strip()
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value.strip()
    return pairs


# Per-dataset defaults (window N1, horizon M, learning rate, action penalty).
# toy reuses the HAR row; these only pick hyperparameters, never data.
DATASET_PRESETS = {
    "toy":    {"window": 4,  "m": 5,  "lr": 0.001,  "lam": 0.2},
    "har":    {"window": 4,  "m": 5,  "lr": 0.001,  "lam": 0.2},
    "earth":  {"window": 6,  "m": 10, "lr": 0.0001, "lam": 0.01},
    "ecg":    {"window": 4,  "m": 5,  "lr": 0.0008, "lam": 0.1},
    "car":    {"window": 8,  "m": 6,  "lr": 0.003,  "lam": 0.01},
    "worsyn": {"window": 12, "m": 10, "lr": 0.005,  "lam": 0.01},
    "trace":  {"window": 10, "m": 8,  "lr": 0.001,  "lam": 0.01},
    "plane":  {"window": 12, "m": 12, "lr": 0.003,  "lam": 0.005},
    "fish":   {"window": 14, "m": 14, "lr": 0.003,  "lam": 0.02},
    "symbol": {"window": 10, "m": 12, "lr": 0.003,  "lam": 0.03},
    "syncon": {"window": 12, "m": 14, "lr": 0.002,  "lam": 0.01},
    "pv":     {"window": 10, "m": 4,  "lr": 0.0002, "lam": 0.005},
}


def load_run_config(config_path=None, preset=None, overrides=None):
    """Compose defaults, an optional preset, an optional file, and CLI
    overrides into one RunConfig."""
    cfg = RunConfig()
    if preset is not None:
        if preset not in DATASET_PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from "
                f"{', '.join(sorted(DATASET_PRESETS))}")
        cfg = cfg.merged(DATASET_PRESETS[preset], origin="preset")
    if config_path is not None:
        cfg = cfg.merged(parse_config_file(config_path), origin="config")
    if overrides:
        cfg = cfg.merged(overrides, origin="option")
    return cfg
