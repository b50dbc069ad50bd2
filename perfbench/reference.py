"""Independent reference results and an environment record for one run config.

Usage: python3 reference.py CONFIG CACHE

Prints one JSON object ``{"env": ..., "reference": ...}``.  The reference is
read from CACHE when it exists and computed (then written there) otherwise.
It uses hsfsense only for the inputs (lattice, partition, couplings) and the
operators under test; states, propagation, projections and the fragment
census are computed here with numpy/scipy so that a defect in the program's
own versions of them shows up as a mismatch.

Run it with the same environment as the CLI children, so the BLAS thread
count it reports is the one they get.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import sys

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from hsfsense import hamiltonian as ham
from hsfsense.config import parse_config
from hsfsense.couplings import sample_gaussian
from hsfsense.lattice import Lattice, canonical_partition


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _probe_ancilla_indices(n: int, partition) -> tuple[np.ndarray, np.ndarray]:
    states = np.arange(1 << n, dtype=np.int64)
    p_idx = np.zeros_like(states)
    a_idx = np.zeros_like(states)
    for k, site in enumerate(sorted(partition.probe_sites)):
        p_idx |= ((states >> site) & 1) << k
    for k, site in enumerate(sorted(partition.ancilla_sites)):
        a_idx |= ((states >> site) & 1) << k
    return p_idx, a_idx


def _ghz_x_amplitudes(n_probe: int, relative: complex) -> np.ndarray:
    """(|+...+> + relative |-...->)/sqrt(2) over the probe factor, z basis."""
    parity = np.array([bin(p).count("1") % 2 for p in range(1 << n_probe)])
    return (1.0 + relative * (-1.0) ** parity) / math.sqrt(2.0 * 2.0**n_probe)


def _bound_reference(config, lattice, partition, couplings) -> dict:
    n = lattice.n_sites
    p_idx, a_idx = _probe_ancilla_indices(n, partition)
    frozen = sum(1 << s for s, up in partition.frozen_pattern.items() if up)
    psi0 = np.zeros(1 << n, dtype=complex)
    in_frozen = a_idx == a_idx[frozen]
    psi0[in_frozen] = _ghz_x_amplitudes(partition.n_probe, 1.0)[p_idx[in_frozen]]
    readout = _ghz_x_amplitudes(partition.n_probe, 1j)

    def probability(psi):
        amp = np.zeros((1 << partition.n_probe, 1 << len(partition.ancilla_sites)), dtype=complex)
        amp[p_idx, a_idx] = psi
        return float(np.sum(np.abs(readout.conj() @ amp) ** 2))

    def grid(h):
        states = expm_multiply(
            -1j * h, psi0, start=0.0, stop=config.t_max, num=config.t_points, endpoint=True
        )
        return np.array([probability(psi) for psi in states])

    h_total = ham.build_h_total(lattice, partition, couplings, config.omega)
    h_probe = ham.build_h_probe_omega(partition, lattice, config.omega)
    eps = grid(h_total) - grid(h_probe)
    return {"t": np.linspace(0.0, config.t_max, config.t_points).tolist(), "epsilon": eps.tolist()}


def _sweep_reference(config, partition) -> dict:
    repetitions = math.floor(config.t_all / config.t_int)
    return {
        "n_probe": partition.n_probe,
        "heisenberg_limit": 1.0 / (partition.n_probe * config.t_int * math.sqrt(repetitions)),
    }


def _census_reference(config, lattice, partition, couplings) -> dict:
    h_eff = ham.build_h_eff_inhomogeneous(lattice, partition, couplings, config.omega, config.delta_th)
    graph = sp.csr_matrix(h_eff, copy=True)
    graph.setdiag(0)
    graph.eliminate_zeros()
    _, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    return {
        "dimension": 1 << lattice.n_sites,
        "total_fragments": int(sizes.size),
        "max_fragment_size": int(sizes.max()),
        "frozen_states": int(np.sum(sizes == 1)),
    }


def reference(config) -> dict:
    lattice = Lattice(config.lattice_width, config.lattice_height)
    partition = canonical_partition(lattice)
    couplings = sample_gaussian(
        lattice, config.couplings_jbar, config.couplings_sigma, config.couplings_seed
    )
    if config.command == "bound":
        return _bound_reference(config, lattice, partition, couplings)
    if config.command == "sweep":
        return _sweep_reference(config, partition)
    if config.command == "fragments":
        return _census_reference(config, lattice, partition, couplings)
    raise ValueError(f"no reference for command {config.command!r}")


def main(argv: list[str]) -> int:
    config_path, cache_path = argv
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            ref = json.load(fh)
    else:
        with open(config_path) as fh:
            ref = reference(parse_config(fh.read()))
        tmp = cache_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(ref, fh)
        os.replace(tmp, cache_path)
    print(json.dumps({"env": environment(), "reference": ref}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
