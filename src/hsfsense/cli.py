"""Batch command-line front end.

Every command reads a ``key = value`` config file, runs one reproducible
experiment, and writes a CSV (atomically: temp file + rename).  Each flag
sets one or two config keys and is checked as those keys are in a file.
Exit codes: 0 success, 2 config error, 3 numeric or invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .config import KEYS, PROBE_SCHEMES, SCHEMES, RunConfig, check_value, parse_config, set_key
from .errors import ConfigError, CouplingError, PartitionError


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lattice(config: RunConfig):
    from .lattice import Boundary, Lattice

    boundary = Boundary.FIXED_DOWN_FRAME if config.lattice_boundary == "frame" else Boundary.OPEN
    return Lattice(config.lattice_width, config.lattice_height, boundary)


def _partition(config: RunConfig, lattice):
    """The probe/ancilla partition; built only by the commands that read it."""
    from .lattice import canonical_partition, parse_layout

    if config.partition == "canonical":
        return canonical_partition(lattice)
    path = config.partition.removeprefix("explicit:")
    with open(path) as fh:
        try:
            return parse_layout(fh.read(), lattice)
        except PartitionError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _couplings(config: RunConfig, lattice):
    from . import couplings as cp

    if config.couplings_file and config.couplings_sigma > 0:
        raise ConfigError("couplings.file and couplings.sigma both set: a file gives every delta, so no spread can apply")
    if config.couplings_file:
        with open(config.couplings_file) as fh:
            try:
                return cp.from_csv(lattice, config.couplings_jbar, fh.read())
            except CouplingError as exc:
                raise ConfigError(f"{config.couplings_file}: {exc}") from None
    if config.couplings_sigma > 0:
        try:
            return cp.sample_gaussian(lattice, config.couplings_jbar, config.couplings_sigma, config.couplings_seed)
        except CouplingError as exc:
            raise ConfigError(f"couplings.sigma: {exc}") from None
    return cp.homogeneous(lattice, config.couplings_jbar)


def _cmd_fidelity(config: RunConfig) -> tuple[str, None]:
    import numpy as np

    from . import hamiltonian as ham
    from .evolve import dynamical_fidelity_grid

    lattice = _lattice(config)
    couplings = _couplings(config, lattice)
    ts = np.linspace(0.0, config.t_max, config.t_points)
    fd = dynamical_fidelity_grid(ham.op_tfim(lattice, couplings, config.omega), config.omega, ts)
    lines = ["t,fidelity"]
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(ts, fd)]
    return "\n".join(lines) + "\n", None


def _warn_phase(label: str, rc, n: int) -> None:
    """Warn on stderr at |omega n t_int| >= 0.5, where the linearization behind
    ``sweep``'s uncertainty and ``montecarlo``'s estimator is suspect."""
    if rc.phase_warning(n):
        print(
            f"warning: {label}: accumulated phase |omega * n * t_int| = "
            f"{abs(rc.omega * n * rc.t_int):.3g} >= 0.5 (n = {n}); "
            "the linearization in omega is suspect",
            file=sys.stderr,
        )


def _cmd_sweep(config: RunConfig) -> tuple[str, None]:
    from .sensing import RamseyConfig, numeric_sensitivity

    if config.t_all < config.t_int:
        raise ConfigError(f"t_all ({config.t_all}) must be at least t_int ({config.t_int}): one repetition")
    schemes = SCHEMES if config.sweep_scheme == "all" else (config.sweep_scheme,)
    lattice = _lattice(config)
    partition = _partition(config, lattice) if any(s in PROBE_SCHEMES for s in schemes) else None
    couplings = _couplings(config, lattice)
    rc = RamseyConfig(omega=config.omega, t_int=config.t_int, t_all=config.t_all)
    n = lattice.n_sites
    lines = ["scheme,N,jbar,omega,t_int,delta_omega"]
    for scheme in schemes:
        n_sensing = partition.n_probe if scheme in PROBE_SCHEMES else n
        _warn_phase(scheme, rc, n_sensing)
        delta = numeric_sensitivity(scheme, rc, lattice, partition, couplings)
        lines.append(
            f"{scheme},{n},{_fmt(couplings.jbar)},{_fmt(config.omega)},"
            f"{_fmt(config.t_int)},{_fmt(delta)}"
        )
    return "\n".join(lines) + "\n", None


def _cmd_zeno(config: RunConfig) -> tuple[str, None]:
    from .sensing import ZenoParams, zeno_uncertainty

    lines = ["N,tau,beta,gamma,delta_omega"]
    for n in config.zeno_n_values:
        for beta in config.zeno_beta_values:
            for gamma in config.zeno_gamma_values:
                params = ZenoParams(
                    tau=config.zeno_tau,
                    beta=beta,
                    gamma=gamma,
                    omega0=config.zeno_omega0,
                    jbar=config.couplings_jbar,
                )
                delta = zeno_uncertainty(params, n, config.zeno_t_all)
                lines.append(f"{n},{_fmt(config.zeno_tau)},{_fmt(beta)},{_fmt(gamma)},{_fmt(delta)}")
    return "\n".join(lines) + "\n", None


def _cmd_fragments(config: RunConfig) -> tuple[str, dict]:
    import numpy as np

    from . import hamiltonian as ham
    from .fragments import census

    lattice = _lattice(config)
    if config.couplings_sigma > 0 or config.couplings_file:
        partition = _partition(config, lattice)
        masks = ham.flip_masks_inhomogeneous(lattice, partition, _couplings(config, lattice), config.delta_th)
    else:
        masks = ham.flip_masks_homogeneous(lattice)
    if config.omega / 2.0 == 0.0:  # a flip of zero amplitude joins nothing (the builders store none)
        masks = [np.zeros(1, dtype=bool)] * lattice.n_sites
    report = census(lattice, masks)
    return report.to_csv(), report.summary()


def _cmd_bound(config: RunConfig) -> tuple[str, dict]:
    import numpy as np

    from .bound import verify_bound

    lattice = _lattice(config)
    partition, couplings = _partition(config, lattice), _couplings(config, lattice)
    ts = np.linspace(0.0, config.t_max, config.t_points)
    report = verify_bound(lattice, partition, couplings, config.omega, ts)
    return report.to_csv(), report.summary()


def _cmd_montecarlo(config: RunConfig) -> tuple[str, None]:
    from .sensing import RamseyConfig, ideal_probability, monte_carlo_estimator

    partition = _partition(config, _lattice(config))
    # the draws are mc.repetitions outcomes, so t_all plays no part and is not checked
    rc = RamseyConfig(omega=config.omega, t_int=config.t_int, t_all=config.t_int)
    n_probe = partition.n_probe
    _warn_phase("montecarlo", rc, n_probe)
    p_true = ideal_probability(n_probe, config.omega, config.t_int)
    lines = ["trial,omega_est,sq_error"]
    for trial in range(config.mc_trials):
        est, _ = monte_carlo_estimator(
            rc, p_true, n_probe, config.mc_repetitions, seed=(config.seed, trial)
        )
        lines.append(f"{trial},{_fmt(est)},{_fmt((est - config.omega) ** 2)}")
    return "\n".join(lines) + "\n", None


def run(config: RunConfig) -> int:
    """Check every key of ``config``, then run ``_cmd_<command>``; returns the exit status."""
    for key, f in KEYS.items():
        check_value(key, getattr(config, f.name))
    text, summary = globals()[f"_cmd_{config.command}"](config)
    _write_atomic(config.out, text)
    if summary is not None:
        print(json.dumps(summary, sort_keys=True))
    return 0


# flag -> the config keys it sets, each parsed and checked as in a config file
FLAGS = {"command": ("command",), "out": ("out",), "seed": ("seed", "couplings.seed"), "scheme": ("sweep.scheme",)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hsfsense", description=__doc__)
    parser.add_argument("--config", help="path to a key = value config file")
    for flag, keys in FLAGS.items():
        parser.add_argument(f"--{flag}", help=f"sets {' and '.join(keys)}, checked as in a config file")
    args = parser.parse_args(argv)

    try:
        config = RunConfig()
        if args.config:
            with open(args.config) as fh:
                config = parse_config(fh.read())
        for flag, keys in FLAGS.items():
            value = getattr(args, flag)
            if value is None:
                continue
            try:
                for key in keys:
                    set_key(config, key, value)
            except ConfigError as exc:
                raise ConfigError(f"--{flag}: {exc}") from None
        return run(config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric/invariant failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
