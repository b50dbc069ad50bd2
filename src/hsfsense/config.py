"""Line-oriented ``key = value`` run configuration with strict validation.

Each key is declared once, as a ``RunConfig`` field that carries its file key,
parser and check.  ``set_key`` parses, checks and sets one key: ``parse_config``
calls it per line and the CLI per flag, so a bad value names its key either way.
``check_value`` is that check, which ``cli.run`` applies to every key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

COMMANDS = ("fidelity", "sweep", "zeno", "fragments", "bound", "montecarlo")
# the Ramsey schemes of ``sensing.ramsey_setup``; kept here so the config and
# the CLI check them without importing ``sensing`` (and numpy with it).  The
# probe schemes read the probes of a partition.
PROBE_SCHEMES = ("hsf", "hsf_ideal")
SCHEMES = ("ghz_free", "ghz_interacting") + PROBE_SCHEMES


def _positive(key, v):
    if v <= 0:
        raise ConfigError(f"{key} must be positive, got {v}")
    return v


def _nonnegative(key, v):
    if v < 0:
        raise ConfigError(f"{key} must be nonnegative, got {v}")
    return v


def _choice(options):
    def check(key, v):
        if v not in options:
            raise ConfigError(f"{key} must be one of {options}, got {v!r}")
        return v

    return check


def _partition(key, v):
    if v != "canonical" and not (v.startswith("explicit:") and v.removeprefix("explicit:")):
        raise ConfigError(f"{key} must be 'canonical' or 'explicit:<file>', got {v!r}")
    return v


def _output(key, v):
    if not v:
        raise ConfigError(f"no output path: set '{key}' in the config or pass --{key}")
    return v


def _each(rule):
    """Check a list value: it must not be empty, and ``rule`` holds for every entry."""

    def check(key, values):
        if not values:
            raise ConfigError(f"{key} must list at least one value")
        return tuple(rule(key, v) for v in values)

    return check


def _list(parse):
    """Parse ``;``-separated entries, each with ``parse``."""
    return lambda text: tuple(parse(x) for x in text.split(";") if x.strip())


def _key(key, default, parse=str, check=None):
    """A ``RunConfig`` field read from ``key``: ``check(key, parse(text))`` is its value."""
    return field(default=default, metadata={"key": key, "parse": parse, "check": check})


@dataclass
class RunConfig:
    """Typed, validated configuration for one CLI command."""

    command: str = _key("command", "", check=_choice(COMMANDS))
    lattice_width: int = _key("lattice.width", 4, int, _positive)
    lattice_height: int = _key("lattice.height", 3, int, _positive)
    lattice_boundary: str = _key("lattice.boundary", "frame", check=_choice(("frame", "open")))
    partition: str = _key("partition", "canonical", check=_partition)
    couplings_jbar: float = _key("couplings.jbar", 1.0, float, _positive)
    couplings_sigma: float = _key("couplings.sigma", 0.0, float, _nonnegative)
    couplings_seed: int = _key("couplings.seed", 1, int, _nonnegative)
    couplings_file: str = _key("couplings.file", "")
    omega: float = _key("omega", 0.4, float)
    t_int: float = _key("t_int", 0.1, float, _positive)
    t_all: float = _key("t_all", 10.0, float, _positive)
    t_max: float = _key("t_max", 2.0, float, _positive)
    t_points: int = _key("t_points", 50, int, _positive)
    delta_th: float = _key("delta_th", 0.1, float, _positive)
    sweep_scheme: str = _key("sweep.scheme", "hsf", check=_choice(SCHEMES + ("all",)))
    zeno_tau: float = _key("zeno.tau", 0.1, float, _positive)
    zeno_omega0: float = _key("zeno.omega0", 1.0, float)
    zeno_beta_values: tuple = _key("zeno.beta_values", (0.0,), _list(float), _each(_nonnegative))
    zeno_gamma_values: tuple = _key("zeno.gamma_values", (0.0,), _list(float), _each(_nonnegative))
    zeno_n_values: tuple = _key("zeno.n_values", (64, 128, 256, 512, 1024, 2048, 4096), _list(int), _each(_positive))
    zeno_t_all: float = _key("zeno.t_all", 1.0, float, _positive)
    mc_repetitions: int = _key("mc.repetitions", 100, int, _positive)
    mc_trials: int = _key("mc.trials", 1000, int, _positive)
    seed: int = _key("seed", 1, int, _nonnegative)
    out: str = _key("out", "", check=_output)


# config-file key -> its RunConfig field
KEYS = {f.metadata["key"]: f for f in fields(RunConfig)}


def check_value(key: str, value):
    """``value`` of ``key`` once it is finite and passes the key's check; a ConfigError names the key."""
    items = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    check = KEYS[key].metadata["check"]
    return check(key, value) if check else value


def set_key(config: RunConfig, key: str, text: str) -> None:
    """Parse ``text`` as ``key``, check it and set it on ``config``; a ConfigError names the key."""
    if key not in KEYS:
        raise ConfigError(f"unknown key {key!r}")
    f = KEYS[key]
    try:
        value = f.metadata["parse"](text)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {text!r} for key {key!r}") from None
    setattr(config, f.name, check_value(key, value))


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
        try:
            set_key(config, key.strip(), value.strip())
        except ConfigError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def serialize_config(config: RunConfig) -> str:
    """Render a config to text that parses back to an equal config."""
    lines = []
    for key, f in KEYS.items():
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ";".join(str(v) for v in value)
        if value == "" or value is None:
            continue
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
