from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsfsense.config import KEYS, RunConfig, parse_config, serialize_config
from hsfsense.errors import ConfigError


def test_defaults():
    cfg = parse_config("command = fidelity")
    assert cfg.command == "fidelity"
    assert cfg.lattice_width == 4 and cfg.lattice_height == 3
    assert cfg.couplings_jbar == 1.0 and cfg.couplings_sigma == 0.0
    assert cfg.omega == 0.4


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\ncommand = zeno  # trailing\nomega = 0.2\n")
    assert cfg.command == "zeno"
    assert cfg.omega == 0.2


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("command = fidelity\nnope = 1")


def test_all_problems_collected_in_one_error():
    bad = "command = warp\nlattice.width = -2\nt_int = oops\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msg = str(exc.value)
    assert "line 1" in msg and "line 2" in msg and "line 3" in msg


def test_validators_reject_out_of_range():
    with pytest.raises(ConfigError):
        parse_config("command = fidelity\nt_points = 0")
    with pytest.raises(ConfigError):
        parse_config("command = fidelity\ncouplings.sigma = -1")
    with pytest.raises(ConfigError):
        parse_config("command = fidelity\nlattice.boundary = torus")


def test_list_valued_keys():
    cfg = parse_config(
        "command = zeno\nzeno.n_values = 64;128;256\nzeno.beta_values = 0;0.25;0.5\n"
    )
    assert cfg.zeno_n_values == (64, 128, 256)
    assert cfg.zeno_beta_values == (0.0, 0.25, 0.5)


def test_serialize_roundtrip_defaults():
    cfg = parse_config("command = bound\nout = report.csv")
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_serialize_roundtrip_nondefaults():
    text = (
        "command = montecarlo\nlattice.width = 3\nlattice.height = 3\n"
        "couplings.sigma = 0.3\ncouplings.seed = 42\nomega = 0.25\n"
        "mc.trials = 77\nseed = 9\nout = x.csv\nsweep.scheme = hsf_ideal\n"
    )
    cfg = parse_config(text)
    assert cfg.sweep_scheme == "hsf_ideal"
    assert parse_config(serialize_config(cfg)) == cfg


def test_every_key_is_declared_once_and_round_trips():
    """A valid value other than the default in every field parses back from its text."""
    cfg = RunConfig(
        command="montecarlo",
        lattice_width=3,
        lattice_height=6,
        lattice_boundary="open",
        partition="explicit:layout.txt",
        couplings_jbar=2.5,
        couplings_sigma=0.3,
        couplings_seed=42,
        couplings_file="bonds.csv",
        omega=0.25,
        t_int=0.05,
        t_all=20.0,
        t_max=1.5,
        t_points=7,
        delta_th=0.2,
        sweep_scheme="hsf_ideal",
        zeno_tau=0.2,
        zeno_omega0=0.5,
        zeno_beta_values=(0.25, 0.5),
        zeno_gamma_values=(0.1,),
        zeno_n_values=(8, 16),
        zeno_t_all=2.0,
        mc_repetitions=30,
        mc_trials=7,
        seed=9,
        out="x.csv",
    )
    default = RunConfig()
    assert [f.name for f in fields(RunConfig) if getattr(cfg, f.name) == getattr(default, f.name)] == []
    assert parse_config(serialize_config(cfg)) == cfg
    assert [f.name for f in KEYS.values()] == [f.name for f in fields(RunConfig)]


@given(
    st.floats(0.001, 10.0, allow_nan=False),
    st.integers(1, 8),
    st.integers(0, 10_000),
)
def test_roundtrip_property(omega, width, seed):
    cfg = RunConfig(command="fidelity", omega=omega, lattice_width=width, seed=seed, out="o.csv")
    assert parse_config(serialize_config(cfg)) == cfg
