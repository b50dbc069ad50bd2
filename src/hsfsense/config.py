"""Line-oriented ``key = value`` run configuration with strict validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

COMMANDS = ("fidelity", "sweep", "zeno", "fragments", "bound", "montecarlo")


def _positive(name):
    def check(v):
        if v <= 0:
            raise ConfigError(f"{name} must be positive, got {v}")
        return v

    return check


def _nonnegative(name):
    def check(v):
        if v < 0:
            raise ConfigError(f"{name} must be nonnegative, got {v}")
        return v

    return check


def _choice(name, options):
    def check(v):
        if v not in options:
            raise ConfigError(f"{name} must be one of {options}, got {v!r}")
        return v

    return check


def _int_list(text):
    return tuple(int(x) for x in str(text).split(";") if x.strip())


def _float_list(text):
    return tuple(float(x) for x in str(text).split(";") if x.strip())


@dataclass
class RunConfig:
    """Typed, validated configuration for one CLI command."""

    command: str = ""
    lattice_width: int = 4
    lattice_height: int = 3
    lattice_boundary: str = "frame"
    partition: str = "canonical"
    couplings_jbar: float = 1.0
    couplings_sigma: float = 0.0
    couplings_seed: int = 1
    couplings_file: str = ""
    omega: float = 0.4
    t_int: float = 0.1
    t_all: float = 10.0
    t_max: float = 2.0
    t_points: int = 50
    delta_th: float = 0.1
    sweep_scheme: str = "hsf"
    sweep_ideal: bool = False
    zeno_tau: float = 0.1
    zeno_omega0: float = 1.0
    zeno_beta_values: tuple = (0.0,)
    zeno_gamma_values: tuple = (0.0,)
    zeno_n_values: tuple = (64, 128, 256, 512, 1024, 2048, 4096)
    zeno_t_all: float = 1.0
    mc_repetitions: int = 100
    mc_trials: int = 1000
    seed: int = 1
    out: str = ""


# config-file key -> (attribute, parser, validator)
KEYS = {
    "command": ("command", str, _choice("command", COMMANDS)),
    "lattice.width": ("lattice_width", int, _positive("lattice.width")),
    "lattice.height": ("lattice_height", int, _positive("lattice.height")),
    "lattice.boundary": ("lattice_boundary", str, _choice("lattice.boundary", ("frame", "open"))),
    "partition": ("partition", str, None),
    "couplings.jbar": ("couplings_jbar", float, _positive("couplings.jbar")),
    "couplings.sigma": ("couplings_sigma", float, _nonnegative("couplings.sigma")),
    "couplings.seed": ("couplings_seed", int, None),
    "couplings.file": ("couplings_file", str, None),
    "omega": ("omega", float, None),
    "t_int": ("t_int", float, _positive("t_int")),
    "t_all": ("t_all", float, _positive("t_all")),
    "t_max": ("t_max", float, _positive("t_max")),
    "t_points": ("t_points", int, _positive("t_points")),
    "delta_th": ("delta_th", float, _positive("delta_th")),
    "sweep.scheme": ("sweep_scheme", str, _choice("sweep.scheme", ("ghz_free", "ghz_interacting", "hsf", "all"))),
    "sweep.ideal": ("sweep_ideal", lambda s: str(s).lower() in ("1", "true", "yes"), None),
    "zeno.tau": ("zeno_tau", float, _positive("zeno.tau")),
    "zeno.omega0": ("zeno_omega0", float, None),
    "zeno.beta_values": ("zeno_beta_values", _float_list, None),
    "zeno.gamma_values": ("zeno_gamma_values", _float_list, None),
    "zeno.n_values": ("zeno_n_values", _int_list, None),
    "zeno.t_all": ("zeno_t_all", float, _positive("zeno.t_all")),
    "mc.repetitions": ("mc_repetitions", int, _positive("mc.repetitions")),
    "mc.trials": ("mc_trials", int, _positive("mc.trials")),
    "seed": ("seed", int, None),
    "out": ("out", str, None),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _, _) in KEYS.items()}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines with ``#`` comments; reject unknown keys.

    All problems are collected and reported together in one ConfigError.
    """
    config = RunConfig()
    problems = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        attr, parser, validator = KEYS[key]
        try:
            parsed = parser(value)
            items = parsed if isinstance(parsed, tuple) else (parsed,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            if validator:
                parsed = validator(parsed)
        except ConfigError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        except (TypeError, ValueError):
            problems.append(f"line {lineno}: cannot parse {value!r} for key {key!r}")
            continue
        setattr(config, attr, parsed)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def serialize_config(config: RunConfig) -> str:
    """Render a config to text that parses back to an equal config."""
    lines = []
    for f in fields(RunConfig):
        if f.name not in _ATTR_TO_KEY:
            continue
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ";".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        if value == "" or value is None:
            continue
        lines.append(f"{_ATTR_TO_KEY[f.name]} = {value}")
    return "\n".join(lines) + "\n"
