"""Shared fixtures: small lattices, canonical partitions, coupling maps; and
the Kronecker-built GHZ oracles."""

import numpy as np
import pytest

from hsfsense.couplings import homogeneous, sample_gaussian
from hsfsense.lattice import Lattice, canonical_partition


@pytest.fixture(scope="session")
def lat33():
    return Lattice(3, 3)


@pytest.fixture(scope="session")
def lat34():
    return Lattice(4, 3)


@pytest.fixture(scope="session")
def part33(lat33):
    return canonical_partition(lat33)


@pytest.fixture(scope="session")
def part34(lat34):
    return canonical_partition(lat34)


@pytest.fixture(scope="session")
def hom33(lat33):
    return homogeneous(lat33, 1.0)


@pytest.fixture(scope="session")
def dis33(lat33):
    return sample_gaussian(lat33, 1.0, 0.3, seed=7)


PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def cat_components(n):
    """|+...+> and |-...-> on n sites by Kronecker products, site 0 the least significant bit."""
    plus = np.eye(1)
    minus = np.eye(1)
    for _ in range(n):
        plus = np.kron(PLUS, plus)
        minus = np.kron(MINUS, minus)
    return plus.ravel(), minus.ravel()


def ghz_x_oracle(n, c):
    """(|+...+> + c |-...->)/sqrt(2); c = 1j is the primed GHZ state the readout projects on."""
    plus, minus = cat_components(n)
    return (plus + c * minus) / np.sqrt(2.0)
