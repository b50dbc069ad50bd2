import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsfsense
from hsfsense.cli import main


def run_cli(tmp_path, text, *args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["--config", str(cfg), *args])


def test_fidelity_command(tmp_path):
    out = tmp_path / "fid.csv"
    text = (
        "command = fidelity\nlattice.width = 3\nlattice.height = 3\n"
        "couplings.sigma = 0.3\ncouplings.seed = 7\nomega = 0.4\n"
        f"t_max = 0.5\nt_points = 6\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 7
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    text = (
        "command = fidelity\nlattice.width = 3\nlattice.height = 3\n"
        "couplings.sigma = 0.3\ncouplings.seed = 7\nt_max = 0.3\nt_points = 4\n"
    )
    assert run_cli(tmp_path, text, "--out", str(out1)) == 0
    assert run_cli(tmp_path, text, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_all_schemes(tmp_path):
    out = tmp_path / "sweep.csv"
    text = (
        "command = sweep\nlattice.width = 3\nlattice.height = 3\n"
        f"omega = 0.4\nt_int = 0.1\nt_all = 10\nsweep.scheme = all\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scheme,N,jbar,omega,t_int,delta_omega"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "ghz_free",
        "ghz_interacting",
        "hsf",
    ]


def test_sweep_warns_when_accumulated_phase_is_large(tmp_path, capsys):
    # omega * n * t_int: 0.4 * 9 * 0.2 = 0.72 for the GHZ schemes, 0.4 * 1 * 0.2 for hsf
    out = tmp_path / "sweep.csv"
    text = (
        "command = sweep\nlattice.width = 3\nlattice.height = 3\n"
        f"omega = 0.4\nt_int = 0.2\nt_all = 10\nsweep.scheme = all\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 0
    captured = capsys.readouterr()
    warnings = captured.err.splitlines()
    assert [line.split(":")[1].strip() for line in warnings] == ["ghz_free", "ghz_interacting"]
    assert all(line.startswith("warning: ") for line in warnings)
    assert captured.out == ""
    assert len(out.read_text().splitlines()) == 4


_BLAS_THREADS_PROBE = """
import ctypes
import hsfsense
import numpy

paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower() and "/" in line}
count = None
for path in sorted(paths):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None and count is None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            count = int(fn())
print(count)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads the loaded libraries from /proc")
def test_hsf_threads_overrides_blas_thread_variables():
    src = str(Path(hsfsense.__file__).resolve().parents[1])
    env = {**os.environ, "HSF_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    count = proc.stdout.strip()
    if count == "None":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert count == "1"


def test_zeno_command(tmp_path):
    out = tmp_path / "z.csv"
    text = (
        "command = zeno\nzeno.tau = 0.1\nzeno.omega0 = 0.001\n"
        f"zeno.n_values = 64;256\nzeno.beta_values = 0;0.2\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,tau,beta,gamma,delta_omega"
    assert len(lines) == 1 + 2 * 2


def test_fragments_command_prints_summary(tmp_path, capsys):
    out = tmp_path / "f.csv"
    text = f"command = fragments\nlattice.width = 3\nlattice.height = 3\nout = {out}\n"
    assert run_cli(tmp_path, text) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total_fragments"] == 66
    assert out.read_text().startswith("dw_sector,fragment_id,size,is_frozen")


@pytest.mark.parametrize(
    "keys, digest",
    [
        (
            "lattice.width = 4\nlattice.height = 3\ncouplings.sigma = 0.3\ncouplings.seed = 5\n"
            "omega = 0.4\ndelta_th = 0.1\n",
            "8b8538699e67bd0ecbdd6de4e6a151e921c4034230acee935839330480129c7e",
        ),
        (
            "lattice.width = 3\nlattice.height = 3\nomega = 0.4\n",
            "b690a0c77b6c8c99bbcbec0e94c2677db905b719448d6e8d80f37da1ef6ca72c",
        ),
    ],
    ids=["disordered-4x3", "homogeneous-3x3"],
)
def test_fragments_csv_is_pinned(tmp_path, keys, digest):
    """The census CSV is integers only, so its bytes are the same on every platform."""
    out = tmp_path / "f.csv"
    assert run_cli(tmp_path, f"command = fragments\n{keys}out = {out}\n") == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_bound_command_prints_summary(tmp_path, capsys):
    out = tmp_path / "b.csv"
    text = (
        "command = bound\nlattice.width = 3\nlattice.height = 3\n"
        "couplings.sigma = 0.2\ncouplings.seed = 3\nomega = 0.05\n"
        f"t_points = 10\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["satisfied"] is True
    assert summary["vacuous"] is False
    assert out.read_text().startswith("t,epsilon,rhs,margin")


def test_bound_command_reports_vacuous_envelope(tmp_path, capsys):
    # seed 0 gives j_g = 1.27 at 4x4, so rhs >= 2 N omega / j_g = 1.26 at every t
    out = tmp_path / "b.csv"
    text = (
        "command = bound\nlattice.width = 4\nlattice.height = 4\n"
        "couplings.sigma = 0.3\ncouplings.seed = 0\nomega = 0.05\n"
        f"t_max = 1\nt_points = 3\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 0
    printed = capsys.readouterr().out
    assert '"vacuous": true' in printed
    assert json.loads(printed)["satisfied"] is True


def test_montecarlo_seed_override_changes_output(tmp_path):
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    text = (
        "command = montecarlo\nlattice.width = 3\nlattice.height = 3\n"
        "omega = 0.4\nt_int = 0.1\nmc.repetitions = 50\nmc.trials = 10\n"
    )
    assert run_cli(tmp_path, text, "--out", str(out1), "--seed", "1") == 0
    assert run_cli(tmp_path, text, "--out", str(out2), "--seed", "2") == 0
    assert out1.read_text().splitlines()[0] == "trial,omega_est,sq_error"
    assert out1.read_bytes() != out2.read_bytes()


def test_config_error_exit_code(tmp_path):
    assert run_cli(tmp_path, "command = warp\n") == 2


@pytest.mark.parametrize(
    "command,line",
    [
        ("sweep", "omega = nan"),
        ("sweep", "omega = inf"),
        ("bound", "omega = nan"),
        ("bound", "omega = inf"),
        ("sweep", "t_int = nan"),
        ("bound", "t_int = nan"),
        ("bound", "t_max = inf"),
        ("zeno", "zeno.beta_values = 0;nan"),
    ],
)
def test_non_finite_number_is_config_error(tmp_path, command, line):
    text = f"command = {command}\nlattice.width = 3\nlattice.height = 3\n{line}\nout = {tmp_path / 'o.csv'}\n"
    assert run_cli(tmp_path, text) == 2
    assert not (tmp_path / "o.csv").exists()


def test_missing_config_file_exit_code():
    assert main(["--config", "/no/such/file.cfg"]) == 2


def test_missing_output_path_is_config_error(tmp_path):
    assert run_cli(tmp_path, "command = fidelity\nlattice.width = 3\nlattice.height = 3\n") == 2


def test_numeric_failure_exit_code(tmp_path):
    # homogeneous couplings make every probe collar field zero, but a huge
    # omega breaks the Zeno series radicand -> invariant failure, exit 3
    out = tmp_path / "z.csv"
    text = f"command = zeno\nzeno.tau = 10\nzeno.omega0 = 0.001\nout = {out}\n"
    assert run_cli(tmp_path, text) == 3


def test_command_flag_overrides_config(tmp_path):
    out = tmp_path / "f.csv"
    text = f"command = zeno\nlattice.width = 3\nlattice.height = 3\nout = {out}\n"
    assert run_cli(tmp_path, text, "--command", "fragments") == 0
    assert out.read_text().startswith("dw_sector")
