"""Shared fixtures: small lattices, canonical partitions, coupling maps; the
Kronecker-built GHZ oracles; and whole-vector helpers over the block kernels."""

import numpy as np
import pytest

from hsfsense import states
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


def flip_sum(op, psi):
    """sum_{i in op.sites} sigma^x_i psi (vectors stacked on leading axes summed
    apart), from ``op.flip_block`` over ``op.blocks()`` into a NaN-filled
    output, so an entry no block writes shows."""
    out = np.full(psi.shape, np.nan, dtype=np.result_type(psi, float))
    for block in op.blocks():
        op.flip_block(psi, out[..., block], block)
    return out


def apply(op, psi):
    """The ``TransverseFieldOperator`` ``op`` applied to the vector ``psi``:
    value times ``flip_sum``, plus the expanded diagonal times psi."""
    out = flip_sum(op, psi)
    out *= op.value
    if op.diag is not None:
        out += psi * op.diag.expand()
    return out


def whole(n):
    """The readout on no sites of n: its amplitudes are the whole state."""
    return states.Projector([[1.0, 0.0]], (), n)
