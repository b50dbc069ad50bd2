from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from hsfsense import states
from hsfsense.errors import EvolutionError
from hsfsense.lattice import Lattice, canonical_partition

I2 = np.eye(2, dtype=complex)
Y = np.array([[0.0, -1j], [1j, 0.0]])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def kron_chain(factors):
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(f, out)  # site 0 = least significant bit
    return out


def cat_components(n):
    plus = np.eye(1)
    minus = np.eye(1)
    for _ in range(n):
        plus = np.kron(PLUS, plus)
        minus = np.kron(MINUS, minus)
    return plus.ravel(), minus.ravel()


def ghz_x_oracle(n, c):
    plus, minus = cat_components(n)
    return (plus + c * minus) / np.sqrt(2.0)


@dataclass(frozen=True)
class MatrixProjector:
    """Projector given as an explicit matrix; quacks like ``states.Projector``."""

    matrix: object

    def expectation(self, state):
        return float(np.real(np.vdot(state, self.matrix @ state)))


def parity_projector(n):
    """(1 + prod_i sigma^y_i)/2, a rank 2^(n-1) projector."""
    dim = 1 << n
    basis = np.arange(dim, dtype=np.int64)
    popcounts = np.array([int(s).bit_count() for s in basis])
    phases = (1j) ** n * (-1.0) ** popcounts
    y_all = sp.coo_matrix((phases, (basis ^ (dim - 1), basis)), shape=(dim, dim)).tocsr()
    return MatrixProjector((sp.identity(dim, dtype=complex, format="csr") + y_all) * 0.5)


def parity_rotation_angle(n):
    """x-rotation angle on one spin aligning the parity readout with the primed projector.

    exp(-i a sigma^x_1 / 2) with a = -(n+1) pi/2 makes the parity-projector
    expectation equal the primed-GHZ projection probability for every n.
    """
    return -(n + 1) * np.pi / 2.0


def single_spin_x_rotation(n, site, angle):
    """Dense exp(-i angle sigma^x_site / 2) over the 2^n basis."""
    dim = 1 << n
    basis = np.arange(dim, dtype=np.int64)
    out = np.zeros((dim, dim), dtype=complex)
    out[basis, basis] = np.cos(angle / 2.0)
    out[basis ^ (1 << site), basis] = -1j * np.sin(angle / 2.0)
    return out


def ancilla_projector(partition, lattice):
    """Identity on probes tensored with |F><F| on the frozen ancillas, as a diagonal matrix."""
    basis = np.arange(1 << lattice.n_sites, dtype=np.int64)
    mask = np.ones(basis.shape, dtype=bool)
    for site, up in partition.frozen_pattern.items():
        mask &= (((basis >> site) & 1) == 1) == up
    return MatrixProjector(sp.diags(mask.astype(float)).tocsr())


@given(st.integers(1, 8))
def test_ghz_x_norm_and_phase_convention(n):
    for phase in ("plain", "primed"):
        vec = states.ghz_x(n, phase)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        first = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
        assert abs(first.imag) < 1e-12 and first.real > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghz_x_matches_kron_oracle(n):
    for phase, c in (("plain", 1.0), ("primed", 1j)):
        got = states.ghz_x(n, phase)
        want = ghz_x_oracle(n, c)
        # both fixed to the same global phase before comparing
        want *= np.conj(want[np.flatnonzero(np.abs(want) > 1e-12)[0]]) / abs(
            want[np.flatnonzero(np.abs(want) > 1e-12)[0]]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_ghz_plain_primed_overlap():
    # |<GHZ|GHZ'>|^2 = 1/2
    for n in (1, 3, 6):
        ov = abs(np.vdot(states.ghz_x(n), states.ghz_x(n, "primed"))) ** 2
        assert ov == pytest.approx(0.5, abs=1e-12)


def test_frozen_bits_and_state(lat33, part33):
    bits = states.frozen_bits(part33)
    for s, up in part33.frozen_pattern.items():
        assert bool((bits >> s) & 1) == up
    # the frozen background with every probe down is the single basis state ``bits``
    vec = states.embed(np.eye(1 << part33.n_probe)[0], part33, lat33)
    assert np.flatnonzero(vec).tolist() == [bits]
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_embed_places_probe_state_on_frozen_background(lat33, part33):
    probe_state = states.ghz_x(part33.n_probe)
    full = states.embed(probe_state, part33, lat33)
    assert np.linalg.norm(full) == pytest.approx(1.0, abs=1e-12)
    frozen = states.frozen_bits(part33)
    amask = 0
    for a in part33.ancilla_sites:
        amask |= 1 << a
    for s in np.flatnonzero(np.abs(full) > 1e-14):
        assert (int(s) & amask) == frozen


def test_embed_then_probe_projector_recovers_probabilities(lat33, part33):
    probe_state = states.ghz_x(part33.n_probe)
    full = states.embed(probe_state, part33, lat33)
    proj = states.probe_projector(states.ghz_x(part33.n_probe, "primed"), part33, lat33)
    got = states.measurement_probability(full, proj)
    want = abs(np.vdot(states.ghz_x(part33.n_probe, "primed"), probe_state)) ** 2
    assert got == pytest.approx(want, abs=1e-12)


def probe_ancilla_index_maps(partition, lattice):
    """Per full basis state: its probe-factor index and ancilla-factor index."""
    n = lattice.n_sites
    basis = np.arange(1 << n, dtype=np.int64)
    p_idx = np.zeros(1 << n, dtype=np.int64)
    a_idx = np.zeros(1 << n, dtype=np.int64)
    for k, site in enumerate(partition.probe_order()):
        p_idx |= ((basis >> site) & 1) << k
    for k, site in enumerate(sorted(partition.ancilla_sites)):
        a_idx |= ((basis >> site) & 1) << k
    return p_idx, a_idx


def test_probe_projector_ignores_ancilla_rotation(lat33, part33):
    """P^phi x I^A must not care what the ancilla register holds."""
    check_probe_amplitudes(lat33, part33)


def test_probe_amplitudes_with_two_probes():
    lat = Lattice(3, 6)
    part = canonical_partition(lat)
    assert part.n_probe == 2
    check_probe_amplitudes(lat, part)


def check_probe_amplitudes(lat, part):
    """Projector amplitudes and expectation of a random state against the index-map oracle."""
    rng = np.random.default_rng(1)
    n = lat.n_sites
    full = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    full /= np.linalg.norm(full)
    phi = rng.normal(size=1 << part.n_probe) + 1j * rng.normal(size=1 << part.n_probe)
    phi /= np.linalg.norm(phi)
    proj = states.probe_projector(phi, part, lat)
    p = states.measurement_probability(full, proj)
    assert 0.0 <= p <= 1.0
    # explicit sum over ancilla configurations, indexed in increasing site order
    p_idx, a_idx = probe_ancilla_index_maps(part, lat)
    amp = np.zeros((1 << part.n_probe, (1 << n) >> part.n_probe), dtype=complex)
    amp[p_idx, a_idx] = full
    want = phi.conj() @ amp
    np.testing.assert_allclose(proj.amplitudes(full), want, rtol=0, atol=1e-15)
    assert p == pytest.approx(float(np.sum(np.abs(want) ** 2)), abs=1e-12)
    with pytest.raises(EvolutionError, match="dimension mismatch"):
        proj.amplitudes(full[: 1 << (n - 1)])


def test_ancilla_projector_detects_leakage(lat33, part33):
    full = states.embed(states.ghz_x(part33.n_probe), part33, lat33)
    proj = ancilla_projector(part33, lat33)
    assert states.measurement_probability(full, proj) == pytest.approx(1.0, abs=1e-12)
    # flip one ancilla bit: the frozen-pattern projector must reject it
    a = min(part33.ancilla_sites)
    rolled = np.zeros_like(full)
    idx = np.flatnonzero(np.abs(full) > 1e-14)
    rolled[idx ^ (1 << a)] = full[idx]
    assert states.measurement_probability(rolled, proj) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parity_projector_matches_kron_oracle(n):
    y_all = kron_chain([Y] * n)
    want = (np.eye(1 << n, dtype=complex) + y_all) / 2.0
    got = parity_projector(n).matrix.toarray()
    np.testing.assert_allclose(got, want, atol=1e-12)
    # it is a projector
    np.testing.assert_allclose(got @ got, got, atol=1e-12)
    np.testing.assert_allclose(got, got.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parity_after_rotation_equals_primed_projection(n):
    """Rotating one spin maps the parity readout onto the primed-GHZ projector.

    The identity holds on the two-dimensional cat subspace where the Ramsey
    sequence lives, i.e. for any a|+...+> + b|-...->.
    """
    rot = single_spin_x_rotation(n, 0, parity_rotation_angle(n))
    parity = parity_projector(n)
    primed = states.rank1_projector(states.ghz_x(n, "primed"))
    plus, minus = cat_components(n)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = a * plus + b * minus
        psi /= np.linalg.norm(psi)
        p_par = states.measurement_probability(rot @ psi, parity)
        p_pri = states.measurement_probability(psi, primed)
        assert p_par == pytest.approx(p_pri, abs=1e-12)


def test_single_spin_x_rotation_is_unitary():
    u = single_spin_x_rotation(3, 1, 0.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


@given(st.integers(1, 6), st.floats(-np.pi, np.pi))
def test_rank1_projection_bounded(n, angle):
    psi = single_spin_x_rotation(n, 0, angle) @ states.ghz_x(n)
    p = states.measurement_probability(psi, states.rank1_projector(states.ghz_x(n, "primed")))
    assert -1e-12 <= p <= 1.0 + 1e-12


def test_frozen_subspace_lists_probe_configurations_in_probe_factor_order():
    lat = Lattice(3, 6)
    part = canonical_partition(lat)
    assert part.n_probe == 2
    base = states.frozen_bits(part)
    want = []
    for p in range(1 << part.n_probe):
        s = base
        for k, site in enumerate(part.probe_order()):
            if (p >> k) & 1:
                s |= 1 << site
        want.append(s)
    assert states.frozen_subspace(part).tolist() == want
    probe_state = np.arange(1.0, 5.0)
    full = states.embed(probe_state, part, lat)
    assert full[want].tolist() == probe_state.tolist()
    assert np.count_nonzero(full) == 4
