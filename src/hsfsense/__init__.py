"""Fragmentation-protected Ramsey sensing in the 2D transverse-field Ising
model, simulated exactly at small system size.

``HSF_THREADS`` caps BLAS/OpenMP threads.  The cap is applied here, before
numpy is first imported (through ``.couplings``), and overrides any thread
variable already set; a process that imported numpy earlier keeps its count.
"""

import os


def _cap_threads() -> None:
    cap = os.environ.get("HSF_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = cap


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
