import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsfsense
from hsfsense.cli import main, run
from hsfsense.config import RunConfig
from hsfsense.errors import ConfigError


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
        "hsf_ideal",
    ]


def test_scheme_flag_all_runs_every_scheme(tmp_path):
    out = tmp_path / "sweep.csv"
    text = "command = sweep\nlattice.width = 3\nlattice.height = 3\nomega = 0.4\nt_int = 0.1\nt_all = 10\n"
    assert run_cli(tmp_path, text, "--scheme", "all", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[-1].startswith("hsf_ideal,")


def test_scheme_flag_hsf_ideal_attains_the_probe_heisenberg_limit(tmp_path):
    """The decoupled probe drive on 3x6 (two probes) reaches 1/(m t_int sqrt(M))."""
    out = tmp_path / "sweep.csv"
    text = (
        "command = sweep\nlattice.width = 3\nlattice.height = 6\ncouplings.sigma = 0.3\n"
        "omega = 0.05\nt_int = 0.1\nt_all = 10\n"
    )
    assert run_cli(tmp_path, text, "--scheme", "hsf_ideal", "--out", str(out)) == 0
    scheme, n, *_, delta = out.read_text().splitlines()[1].split(",")
    assert (scheme, n) == ("hsf_ideal", "18")
    want = 1.0 / (2 * 0.1 * math.sqrt(100))
    assert abs(float(delta) - want) / want <= 1e-12


def test_sweep_warns_when_accumulated_phase_is_large(tmp_path, capsys):
    # omega * n * t_int: 0.4 * 9 * 0.2 = 0.72 for the GHZ schemes, 0.4 * 1 * 0.2 for the probe schemes
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
    assert len(out.read_text().splitlines()) == 5


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


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "HSF_THREADS")


def _env_with_threads(**threads) -> dict:
    """This environment without any thread variable (importing hsfsense here
    set them), plus ``threads``, with the package's source on the path."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    return {**env, **threads, "PYTHONPATH": str(Path(hsfsense.__file__).resolve().parents[1])}


def _blas_threads(**threads) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_PROBE],
        env=_env_with_threads(**threads), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    count = proc.stdout.strip()
    if count == "None":
        pytest.skip("numpy is not linked against OpenBLAS")
    return count


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads the loaded libraries from /proc")
def test_hsf_threads_overrides_blas_thread_variables():
    assert _blas_threads(HSF_THREADS="1", OPENBLAS_NUM_THREADS="2") == "1"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads the loaded libraries from /proc")
@pytest.mark.parametrize(
    "threads,count",
    [
        ({}, "1"),
        # OpenBLAS reads OPENBLAS_NUM_THREADS first: setting only the unset variables would give 1
        ({"OMP_NUM_THREADS": "2"}, "2"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"HSF_THREADS": "2"}, "2"),
    ],
    ids=["none", "omp", "openblas", "hsf"],
)
def test_blas_starts_with_one_thread_unless_a_count_is_set(threads, count):
    """The marches' BLAS calls are small products (a 2^4 x 2^4 matrix per
    nibble of a flip sum, and a grid row's coefficients times a few terms'
    branch sums), fastest on one thread; a set count opts into more."""
    assert _blas_threads(**threads) == count


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The flip sums and the grid rows' sums are BLAS products, which OpenBLAS
    may split over threads by rows and columns but not inside one entry's
    sum: ``bound`` at 4x4 (two 2^15-state blocks), a ``fidelity`` grid at 3x3
    (two bras read through the ring of term sums) and an ``hsf`` sweep at 3x3
    write the same bytes with the default one thread and under
    ``HSF_THREADS=2``."""
    configs = {
        "bound": "command = bound\nlattice.width = 4\nlattice.height = 4\ncouplings.sigma = 0.3\n"
        "couplings.seed = 3\nomega = 0.005\nt_max = 2\nt_points = 20\n",
        "fidelity": "command = fidelity\nlattice.width = 3\nlattice.height = 3\ncouplings.sigma = 0.3\n"
        "couplings.seed = 3\nomega = 0.4\nt_max = 2\nt_points = 20\n",
        "sweep": "command = sweep\nlattice.width = 3\nlattice.height = 3\ncouplings.sigma = 0.3\n"
        "sweep.scheme = hsf\nomega = 0.05\nt_int = 0.1\n",
    }
    outputs = []
    for threads in ({}, {"HSF_THREADS": "2"}):
        written = {}
        for name, text in configs.items():
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-m", "hsfsense.cli", "--config", str(cfg), "--out", str(out)],
                env=_env_with_threads(**threads), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            written[name] = out.read_bytes()
        outputs.append(written)
    assert outputs[0] == outputs[1]


_THREADS_AFTER_BOUND_PROBE = """
import os
import sys
from pathlib import Path

from hsfsense import cli

out = Path(sys.argv[1])
cfg = out / "bound.cfg"
cfg.write_text("command = bound\\nlattice.width = 3\\nlattice.height = 3\\ncouplings.sigma = 0.3\\nomega = 0.05\\nt_points = 4\\n")
if cli.main(["--config", str(cfg), "--out", str(out / "bound.csv")]) != 0:
    sys.exit("bound failed")
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="counts the process's threads in /proc")
def test_a_command_runs_in_one_thread_by_default(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER_BOUND_PROBE, str(tmp_path)],
        env=_env_with_threads(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


def _first_import_line(tree: ast.Module, package: str) -> float:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        lines += [node.lineno for name in names if name.split(".")[0] == package]
    return min(lines, default=math.inf)


@pytest.mark.parametrize(
    "script", sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py")), ids=lambda p: p.name
)
def test_every_script_imports_hsfsense_before_numpy(script):
    """numpy fixes its BLAS thread count when it loads, so ``HSF_THREADS`` and
    the one-thread default act only if hsfsense is imported first."""
    tree = ast.parse(script.read_text())
    numpy_line = _first_import_line(tree, "numpy")
    assert numpy_line == math.inf or _first_import_line(tree, "hsfsense") < numpy_line


_SCIPY_FREE_PROBE = """
import sys
from pathlib import Path

from hsfsense import cli

out = Path(sys.argv[1])
for name, command, keys in (
    ("bound", "bound", "couplings.sigma = 0.3\\nomega = 0.05\\nt_points = 4\\n"),
    ("sweep", "sweep", "sweep.scheme = all\\nomega = 0.4\\nt_int = 0.1\\n"),
    ("fidelity", "fidelity", "couplings.sigma = 0.3\\nt_max = 0.5\\nt_points = 4\\n"),
    ("fragments_hom", "fragments", "omega = 0.4\\n"),
    ("fragments_inhom", "fragments", "couplings.sigma = 0.3\\nomega = 0.4\\ndelta_th = 0.1\\n"),
    ("zeno", "zeno", "zeno.n_values = 64;256\\n"),
    ("montecarlo", "montecarlo", "mc.trials = 5\\n"),
):
    cfg = out / f"{name}.cfg"
    cfg.write_text(f"command = {command}\\nlattice.width = 3\\nlattice.height = 3\\n{keys}")
    if cli.main(["--config", str(cfg), "--out", str(out / f"{name}.csv")]) != 0:
        sys.exit(f"{name} failed")
print(",".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_no_cli_command_with_work_on_the_basis_imports_scipy(tmp_path):
    """scipy costs a quarter of a second at start-up; only the ``build_h_*`` /
    ``tocsr`` CSR oracles and the tests use it, so a stray top-level import
    would bring that back, and an install without the ``test`` extra has no
    scipy.  The probe runs all six commands, ``fragments`` both homogeneous
    and disordered, in one process."""
    src = str(Path(hsfsense.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "bound.csv", "fidelity.csv", "fragments_hom.csv", "fragments_inhom.csv", "montecarlo.csv", "sweep.csv",
        "zeno.csv",
    ]


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


@pytest.mark.parametrize("keys", ["", "couplings.sigma = 0.3\ndelta_th = 0.1\n"], ids=["homogeneous", "disordered"])
def test_fragments_with_zero_omega_freezes_every_state(tmp_path, capsys, keys):
    """A flip of zero amplitude joins no two states, as the builders store no zero entry."""
    out = tmp_path / "f.csv"
    text = f"command = fragments\nlattice.width = 3\nlattice.height = 3\nomega = 0\n{keys}out = {out}\n"
    assert run_cli(tmp_path, text) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"frozen_states": 512, "max_fragment_size": 1, "total_fragments": 512}
    assert len(out.read_text().splitlines()) == 1 + 512


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
        (
            "lattice.width = 4\nlattice.height = 4\ncouplings.sigma = 0.3\ncouplings.seed = 5\n"
            "omega = 0.4\ndelta_th = 0.1\n",
            "8742b3b327f98ea1510793d5de42d9bf5c47008be16c3627988e1ae839a765f6",
        ),
        # the census-5x4 benchmark config: six- and seven-digit ids, and more rows than one CSV chunk
        (
            "lattice.width = 5\nlattice.height = 4\ncouplings.jbar = 1\ncouplings.sigma = 0.3\n"
            "couplings.seed = 3\nomega = 0.4\ndelta_th = 0.1\n",
            "946c35895768e07010969a0691d9587116855e154e013058c81e79b13fbb2059",
        ),
        (
            "lattice.width = 5\nlattice.height = 4\ncouplings.jbar = 1\ncouplings.sigma = 0.3\n"
            "couplings.seed = 11\nomega = 0.4\ndelta_th = 0.1\n",
            "573d709a40038d5aef7039f7893ca3c4e38dbb6c0a18d65f2c3cc445d6f08f38",
        ),
    ],
    ids=["disordered-4x3", "homogeneous-3x3", "disordered-4x4", "disordered-5x4-seed3", "disordered-5x4-seed11"],
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


# canonical 3x3 layout: probe 4 with its up collar 3 and 5, every other ancilla down
_LAYOUT_33 = ["0 A down", "1 A down", "2 A down", "3 A up", "4 P", "5 A up", "6 A down",
              "7 A down", "8 A down"]


def run_bound_on_layout(tmp_path, lines):
    layout = tmp_path / "layout.txt"
    layout.write_text("\n".join(lines) + "\n")
    text = (
        "command = bound\nlattice.width = 3\nlattice.height = 3\nomega = 0.01\n"
        f"t_max = 0.5\nt_points = 3\npartition = explicit:{layout}\nout = {tmp_path / 'b.csv'}\n"
    )
    return run_cli(tmp_path, text)


def test_bound_on_an_explicit_layout(tmp_path, capsys):
    assert run_bound_on_layout(tmp_path, _LAYOUT_33) == 0
    assert json.loads(capsys.readouterr().out)["satisfied"] is True


@pytest.mark.parametrize(
    "line, message",
    [("two A down", "line 3: site must be an integer"), ("0 A up", "line 3: site 0 is listed twice")],
)
def test_malformed_layout_is_config_error(tmp_path, capsys, line, message):
    assert run_bound_on_layout(tmp_path, _LAYOUT_33[:2] + [line] + _LAYOUT_33[2:]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_bound_rejects_a_layout_that_breaks_the_freezing_rules(tmp_path, capsys):
    lines = [line.replace("7 A down", "7 A up") for line in _LAYOUT_33]
    assert run_bound_on_layout(tmp_path, lines) == 3
    assert "site 6: ancilla has 2 down" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_sweep_rejects_a_layout_that_breaks_the_freezing_rules(tmp_path, capsys):
    layout = tmp_path / "layout.txt"
    layout.write_text("\n".join(line.replace("7 A down", "7 A up") for line in _LAYOUT_33) + "\n")
    text = (
        "command = sweep\nlattice.width = 3\nlattice.height = 3\nomega = 0.05\nt_int = 0.1\n"
        f"sweep.scheme = hsf\npartition = explicit:{layout}\nout = {tmp_path / 's.csv'}\n"
    )
    assert run_cli(tmp_path, text) == 3
    assert "site 6: ancilla has 2 down" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "command,omega,scheme",
    [
        pytest.param("bound", "0.01", "hsf", id="bound"),
        pytest.param("bound", "0", "hsf", id="bound-omega0"),  # where nothing evolves
        pytest.param("sweep", "0.01", "hsf", id="sweep"),
        pytest.param("sweep", "0.01", "hsf_ideal", id="sweep-hsf_ideal"),
    ],
)
def test_a_layout_with_no_probe_exits_3_naming_the_probes(tmp_path, capsys, command, omega, scheme):
    """Nine frozen ancillas break no freezing rule, but leave nothing to read."""
    layout = tmp_path / "layout.txt"
    layout.write_text("\n".join(f"{site} A down" for site in range(9)) + "\n")
    text = (
        f"command = {command}\nlattice.width = 3\nlattice.height = 3\nomega = {omega}\nt_int = 0.1\n"
        f"t_max = 0.5\nt_points = 3\nsweep.scheme = {scheme}\npartition = explicit:{layout}\n"
        f"out = {tmp_path / 'o.csv'}\n"
    )
    assert run_cli(tmp_path, text) == 3
    assert "no probe" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "keys",
    ["command = fidelity\nt_max = 0.5\nt_points = 3\n", "command = fragments\n"],
    ids=["fidelity", "homogeneous-fragments"],
)
def test_commands_without_a_partition_run_on_a_2x2_lattice(tmp_path, keys):
    """Neither the fidelity grid nor the homogeneous census reads the partition,
    and a 2x2 lattice is too small to host a probe."""
    out = tmp_path / "o.csv"
    assert run_cli(tmp_path, f"{keys}lattice.width = 2\nlattice.height = 2\nout = {out}\n") == 0
    assert out.exists()


@pytest.mark.parametrize(
    "keys",
    ["command = fragments\ncouplings.sigma = 0.3\n", "command = bound\n", "command = sweep\nsweep.scheme = hsf\n"],
    ids=["inhomogeneous-fragments", "bound", "sweep-hsf"],
)
def test_commands_that_read_the_partition_reject_a_2x2_lattice(tmp_path, capsys, keys):
    out = tmp_path / "o.csv"
    assert run_cli(tmp_path, f"{keys}lattice.width = 2\nlattice.height = 2\nout = {out}\n") == 3
    assert "lattice too small to host a probe" in capsys.readouterr().err
    assert not out.exists()


def test_a_series_too_long_to_build_exits_3_naming_t(tmp_path, capsys):
    """omega = 1e300 makes r t ~ 1e299: numpy cannot even index the series's
    coefficient array, so the engine refuses it by name before building it."""
    out = tmp_path / "o.csv"
    text = (
        "command = fidelity\nlattice.width = 3\nlattice.height = 3\ncouplings.sigma = 0.3\n"
        f"omega = 1e300\nt_max = 0.5\nt_points = 6\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 3
    err = capsys.readouterr().err
    assert "error: Chebyshev series for t=0.1 (r*t = " in err and "would need more than 1048576 terms" in err
    assert not out.exists()


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


def test_montecarlo_ignores_t_all(tmp_path):
    """montecarlo draws mc.repetitions outcomes and never reads t_all, so a t_int
    beyond the default t_all runs, and t_all does not change the CSV."""
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    text = (
        "command = montecarlo\nlattice.width = 3\nlattice.height = 3\n"
        "omega = 0.01\nt_int = 20\nmc.repetitions = 50\nmc.trials = 10\n"
    )
    assert run_cli(tmp_path, text, "--out", str(out1)) == 0
    assert run_cli(tmp_path, text + "t_all = 20\n", "--out", str(out2)) == 0
    assert len(out1.read_text().splitlines()) == 11
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path):
    assert run_cli(tmp_path, "command = warp\n") == 2


@pytest.mark.parametrize(
    "command,lines,flags,message",
    [
        ("montecarlo", "seed = -4\n", (), ": seed must be nonnegative, got -4"),
        ("bound", "couplings.sigma = 0.3\ncouplings.seed = -1\n", (), ": couplings.seed must be nonnegative, got -1"),
        ("bound", "", ("--seed", "-2"), "--seed: seed must be nonnegative, got -2"),
        ("sweep", "", ("--scheme", "nope"), "--scheme: sweep.scheme must be one of"),
        ("bound", "", ("--command", "warp"), "--command: command must be one of"),
    ],
    ids=["seed", "couplings.seed", "--seed", "--scheme", "--command"],
)
def test_a_bad_key_from_a_file_or_a_flag_exits_2_naming_it(tmp_path, capsys, command, lines, flags, message):
    """A flag is checked as the key it sets, so a negative seed fails before numpy sees it."""
    out = tmp_path / "o.csv"
    text = f"command = {command}\nlattice.width = 3\nlattice.height = 3\n{lines}out = {out}\n"
    assert run_cli(tmp_path, text, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


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


def test_sweep_ideal_is_an_unknown_key(tmp_path, capsys):
    """The decoupled probe drive is the scheme ``hsf_ideal``, not a flag."""
    out = tmp_path / "s.csv"
    text = f"command = sweep\nlattice.width = 3\nlattice.height = 3\nsweep.ideal = true\nout = {out}\n"
    assert run_cli(tmp_path, text) == 2
    assert "unknown key 'sweep.ideal'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line,key",
    [
        ("zeno.n_values = 0;-4", "zeno.n_values"),
        ("zeno.n_values = 64;0", "zeno.n_values"),
        ("zeno.n_values =", "zeno.n_values"),
        ("zeno.beta_values = -0.1", "zeno.beta_values"),
        ("zeno.beta_values =", "zeno.beta_values"),
        ("zeno.gamma_values = 0;-0.5", "zeno.gamma_values"),
        ("zeno.gamma_values =", "zeno.gamma_values"),
    ],
)
def test_zeno_list_values_are_config_errors(tmp_path, capsys, line, key):
    out = tmp_path / "z.csv"
    assert run_cli(tmp_path, f"command = zeno\n{line}\nout = {out}\n") == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_warns_when_accumulated_phase_is_large(tmp_path, capsys):
    out = tmp_path / "m.csv"
    text = (
        "command = montecarlo\nlattice.width = 3\nlattice.height = 3\n"
        f"omega = 5\nt_int = 0.1\nmc.repetitions = 50\nmc.trials = 10\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: montecarlo: ")
    assert len(captured.err.splitlines()) == 1
    assert len(out.read_text().splitlines()) == 11
    assert run_cli(tmp_path, text.replace("omega = 5", "omega = 4.9")) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["fidelity", "zeno"])
@pytest.mark.parametrize("value", ["bogus", "explicit:"])
def test_a_bad_partition_exits_2_from_every_command(tmp_path, capsys, command, value):
    """The partition is checked as a key, so commands that never read it reject it too."""
    out = tmp_path / "o.csv"
    text = f"command = {command}\nlattice.width = 3\nlattice.height = 3\npartition = {value}\nout = {out}\n"
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "partition must be 'canonical' or 'explicit:<file>'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields,key",
    [({"command": "montecarlo", "seed": -1}, "seed"), ({"command": "zeno", "zeno_n_values": ()}, "zeno.n_values")],
    ids=["seed", "zeno.n_values"],
)
def test_run_checks_a_config_built_in_code(tmp_path, fields, key):
    """``run`` checks every field with the key's own check, before numpy sees a
    negative seed or a command writes a CSV with only its header."""
    out = tmp_path / "o.csv"
    with pytest.raises(ConfigError, match=f"^{key} must"):
        run(RunConfig(**fields, out=str(out)))
    assert not out.exists()
    with pytest.raises(ConfigError, match="^command must be one of"):
        run(RunConfig(out=str(out)))
    with pytest.raises(ConfigError, match="^no output path"):
        run(RunConfig(command="zeno"))


@pytest.mark.parametrize(
    "row,message",
    [
        ("0,1,abc", "couplings CSV line 2: '0,1,abc'"),
        ("0,1,-1.5", "couplings CSV line 2: |delta| 1.5 must be below jbar/2 = 0.5"),
        ("0,1,0.5", "couplings CSV line 2: |delta| 0.5 must be below jbar/2 = 0.5"),
        ("0,5,0.1", "couplings CSV line 2: (0,5) is not a lattice bond"),
    ],
    ids=["value", "delta", "delta-at-jbar/2", "bond"],
)
def test_a_malformed_couplings_file_exits_2_naming_the_line(tmp_path, capsys, row, message):
    couplings = tmp_path / "c.csv"
    couplings.write_text(f"i,j,delta\n{row}\n")
    out = tmp_path / "b.csv"
    text = (
        f"command = bound\nlattice.width = 3\nlattice.height = 3\nt_max = 0.5\nt_points = 3\n"
        f"couplings.file = {couplings}\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {couplings}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound", "sweep", "fidelity", "fragments"])
def test_a_non_finite_delta_in_a_couplings_file_exits_2_naming_the_line(tmp_path, capsys, command):
    """A NaN delta reached the operator's finite check (exit 3), or failed every
    ``<= delta_th`` of the fragment census silently (exit 0)."""
    couplings = tmp_path / "c.csv"
    out = tmp_path / "o.csv"
    for value in ("nan", "inf", "-inf"):
        couplings.write_text(f"i,j,delta\n0,1,{value}\n")
        text = (
            f"command = {command}\nlattice.width = 3\nlattice.height = 3\nt_max = 0.5\nt_points = 3\n"
            f"couplings.file = {couplings}\nout = {out}\n"
        )
        assert run_cli(tmp_path, text) == 2, value
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {couplings}: couplings CSV line 2: delta ") and "is not finite" in err
        assert not out.exists()


@pytest.mark.parametrize("second", ["0,9", "9,0"], ids=["same-order", "reversed"])
@pytest.mark.parametrize("command", ["bound", "sweep", "fidelity", "fragments"])
def test_a_bond_listed_twice_in_a_couplings_file_exits_2_naming_both_lines(tmp_path, capsys, command, second):
    """On 3x3 the later line gave bond (0, 9) its delta with no error."""
    couplings = tmp_path / "c.csv"
    couplings.write_text(f"i,j,delta\n0,9,0.1\n{second},-0.2\n")
    out = tmp_path / "o.csv"
    text = (
        f"command = {command}\nlattice.width = 3\nlattice.height = 3\nt_max = 0.5\nt_points = 3\n"
        f"couplings.file = {couplings}\nout = {out}\n"
    )
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {couplings}: couplings CSV lines 2 and 3: bond ({second}) is listed twice")
    assert not out.exists()


def test_a_sigma_too_large_for_jbar_exits_2_naming_the_key(tmp_path, capsys):
    """The sampler gives up on a bond after 1000 rejected draws: a config value, not a numeric failure."""
    out = tmp_path / "b.csv"
    text = f"command = bound\nlattice.width = 3\nlattice.height = 3\ncouplings.sigma = 1000\nout = {out}\n"
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: couplings.sigma: rejection sampling failed for bond")
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound", "sweep", "fidelity", "fragments"])
def test_a_couplings_file_with_a_spread_exits_2_naming_both(tmp_path, capsys, command):
    """The file gives every delta, so a spread set next to it was dropped
    silently (3x3 ``bound`` wrote the same CSV at sigma 0.3 and 0).  At
    sigma 0 the file alone is read."""
    couplings = tmp_path / "c.csv"
    couplings.write_text("i,j,delta\n0,1,0.1\n")
    out = tmp_path / "o.csv"
    text = (
        f"command = {command}\nlattice.width = 3\nlattice.height = 3\nt_max = 0.5\nt_points = 3\n"
        f"couplings.file = {couplings}\ncouplings.seed = 4\nout = {out}\n"
    )
    assert run_cli(tmp_path, text + "couplings.sigma = 0.3\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: couplings.file and couplings.sigma both set")
    assert not out.exists()
    assert run_cli(tmp_path, text + "couplings.sigma = 0\n") == 0
    assert out.exists()


def test_sweep_with_t_all_below_t_int_exits_2_naming_both(tmp_path, capsys):
    out = tmp_path / "s.csv"
    text = f"command = sweep\nlattice.width = 3\nlattice.height = 3\nt_int = 0.5\nt_all = 0.4\nout = {out}\n"
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "t_all (0.4) must be at least t_int (0.5)" in err
    assert not out.exists()


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
