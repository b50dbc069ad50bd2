"""Fragmentation-protected Ramsey sensing in the 2D transverse-field Ising
model, simulated exactly at small system size.

numpy is started with one BLAS/OpenMP thread, the measured-fastest setting:
the commands' two BLAS calls, the flip sums' small 0/1 products
(``hamiltonian.TransverseFieldOperator.flip_block``) and the march's row
products (``evolve``), ran no faster on two threads, and a worker pool costs
start-up time in every process.
``HSF_THREADS=k`` opts into ``k`` threads and overrides any
thread variable already set.  Without it, a user's own ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS`` is kept, and only when none
is set are all three set to 1.  This runs here, before numpy is first
imported (through ``.couplings``); a process that imported numpy earlier
keeps its count.
"""

import os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads() -> None:
    # all or none: OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS,
    # so filling in only the unset ones would override a lone OMP_NUM_THREADS
    cap = os.environ.get("HSF_THREADS")
    if not cap and any(os.environ.get(var) for var in _THREAD_VARS):
        return
    for var in _THREAD_VARS:
        os.environ[var] = cap or "1"


_cap_threads()

from .lattice import Boundary, Lattice, SitePartition, canonical_partition, validate_partition
from .couplings import CouplingMap, homogeneous, k_ratio, sample_gaussian

__all__ = [
    "Boundary",
    "Lattice",
    "SitePartition",
    "canonical_partition",
    "validate_partition",
    "CouplingMap",
    "homogeneous",
    "k_ratio",
    "sample_gaussian",
]

__version__ = "0.1.0"
