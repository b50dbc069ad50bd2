from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.errors import EvolutionError
from hsfsense.lattice import Lattice, canonical_partition

from conftest import cat_components, ghz_x_oracle

I2 = np.eye(2, dtype=complex)
Y = np.array([[0.0, -1j], [1j, 0.0]])


def kron_chain(factors):
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(f, out)  # site 0 = least significant bit
    return out


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
    vec = states.ghz_x(n)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    first = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
    assert abs(first.imag) < 1e-12 and first.real > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghz_x_matches_kron_oracle(n):
    np.testing.assert_allclose(states.ghz_x(n), ghz_x_oracle(n, 1.0), atol=1e-12)


def popcounts(n):
    """Number of set bits of every index below 2^n, by doubling."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = np.concatenate((counts, counts + 1))
    return counts


@pytest.mark.parametrize("n", [1, 2, 3, 9, 12, 16])
def test_ghz_x_matches_the_popcount_formula_bit_for_bit(n):
    """The in-place fill gives the bytes of the full-vector formula, signed zeros included."""
    signs = (-1.0) ** popcounts(n)
    want = (1.0 + signs) / (np.sqrt(2.0) * 2.0 ** (n / 2.0))
    got = states.ghz_x(n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ghz_ket_blocks_are_the_embedded_vector_bit_for_bit(lat33, part33):
    """The probe ket over the frozen background is ``embed(ghz_x(m))``, and
    every aligned block it writes is that vector's slice: one probe at 3x3 and
    two at 3x6, blocks of 1 state up to the whole basis."""
    lat36 = Lattice(3, 6)
    for lat, part, block_bits in ((lat33, part33, (0, 2, 5, 9)), (lat36, canonical_partition(lat36), (5, 12, 18))):
        ket = states.GHZKet(tuple(part.probe_order()), states.frozen_bits(part), lat.n_sites)
        want = states.embed(states.ghz_x(part.n_probe), part, lat)
        assert ket.vector().tobytes() == want.tobytes()
        for bits in block_bits:
            size = 1 << bits
            for start in range(0, want.size, size):
                got = ket.block(slice(start, start + size), np.full(size, np.nan))
                assert got.tobytes() == want[start : start + size].tobytes(), (bits, start)


@pytest.mark.parametrize(
    "sites,rest,match",
    [((), 0, "at least one spin"), ((1, 1), 0, "distinct"), ((0, 3), 0, "in range"), ((0,), 1, "overlaps")],
)
def test_ghz_ket_rejects_bad_input(sites, rest, match):
    with pytest.raises(EvolutionError, match=match):
        states.GHZKet(sites, rest, 3)


def test_ghz_plain_primed_overlap():
    # |<GHZ|GHZ'>|^2 = 1/2
    for n in (1, 3, 6):
        ov = abs(np.vdot(states.ghz_x(n), ghz_x_oracle(n, 1j))) ** 2
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
    proj = states.probe_projector(part33, lat33)
    got = states.measurement_probability(full, proj)
    want = abs(np.vdot(ghz_x_oracle(part33.n_probe, 1j), probe_state)) ** 2
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
    """Amplitudes and expectation of two random bras on the probes, and of the
    primed probe readout, for a random state against the index-map oracle."""
    rng = np.random.default_rng(1)
    n, m = lat.n_sites, part.n_probe
    full = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    full /= np.linalg.norm(full)
    bras = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    bras /= np.linalg.norm(bras)
    proj = states.Projector(bras, tuple(part.probe_order()), n)
    # explicit sum over ancilla configurations, indexed in increasing site order
    p_idx, a_idx = probe_ancilla_index_maps(part, lat)
    amp = np.zeros((1 << m, (1 << n) >> m), dtype=complex)
    amp[p_idx, a_idx] = full
    plus, minus = cat_components(m)
    want = ((bras[:, :1] * plus + bras[:, 1:] * minus) @ amp).T.reshape(-1)  # entry (ancillas, row)
    np.testing.assert_allclose(proj.amplitudes(full), want, rtol=0, atol=1e-15)
    assert proj.expectation(full) == pytest.approx(float(np.sum(np.abs(want) ** 2)), abs=1e-12)
    p = states.measurement_probability(full, states.probe_projector(part, lat))
    assert 0.0 <= p <= 1.0
    assert p == pytest.approx(float(np.sum(np.abs(ghz_x_oracle(m, 1j).conj() @ amp) ** 2)), abs=1e-12)
    with pytest.raises(EvolutionError, match="dimension mismatch"):
        proj.amplitudes(full[: 1 << (n - 1)])


def take_by_blocks(readout, state, blocks):
    """The amplitudes of ``state`` from the branch sums ``take`` gives block by
    block in ``walk`` order, each group's put at its entries, as the Chebyshev
    march does, and weighed by each row's ``branch_weights``."""
    x = np.stack([state.real, state.imag])
    term = readout.buffer(2, len(blocks))
    weights = readout.branch_weights
    branches = np.full((weights.shape[1], 2, readout.size // len(weights)), np.nan)
    for block, column, entries in readout.walk(blocks):
        sums = readout.take(x[:, block], column, term)
        if sums is not None:
            branches[..., entries] = sums
    return ((branches[:, 0] + 1j * branches[:, 1]).T @ weights.T).reshape(-1)


@pytest.mark.parametrize("block", [8, 10])
def test_take_by_blocks_equals_whole_amplitudes(block, monkeypatch):
    """At 3x6 the probes are sites 4 and 13, so with 2^8 or 2^10-state blocks
    one lies inside a block and one above it, as at 4x6 (probes 5 and 17) with
    the default blocks; the two GHZ branches on every site take 2^10 or 2^8
    blocks.  On no sites the bra (1, 0) is the identity, and its take copies
    every block bit for bit."""
    lat = Lattice(3, 6)
    part = canonical_partition(lat)
    assert part.probe_order() == [4, 13]
    monkeypatch.setattr(ham, "_BLOCK", block)
    blocks = ham.op_omega(lat, 0.4).blocks()
    assert len(blocks) >= 64
    rng = np.random.default_rng(block)
    psi = rng.normal(size=1 << lat.n_sites) + 1j * rng.normal(size=1 << lat.n_sites)
    psi /= np.linalg.norm(psi)
    n = lat.n_sites
    for readout in (states.probe_projector(part, lat), states.Projector(np.eye(2), tuple(range(n)), n)):
        got = take_by_blocks(readout, psi, blocks)
        np.testing.assert_allclose(got, readout.amplitudes(psi), rtol=0, atol=1e-15)
    assert np.array_equal(take_by_blocks(states.Projector([[1.0, 0.0]], (), n), psi, blocks), psi)


WALK_READOUTS = (
    lambda n: states.Projector(states.PRIMED, (4, 13), n),  # the 3x6 probes
    lambda n: states.Projector(np.eye(2), tuple(range(n)), n),
    lambda n: states.Projector([[0.6, 0.8j]], (17, 2, 9, 12), n),  # unsorted, below and above
    lambda n: states.Projector([[1.0, 0.0]], (), n),
)


@pytest.mark.parametrize("block", [8, 10, 15])
def test_walk_visits_each_block_once_in_groups_of_the_sites_above(block, monkeypatch):
    """``walk`` gives every block once; a group's blocks differ only in the
    readout's bits at or above the block, with the columns 0, 1, ... holding
    those bits (bit k from the k-th smallest site); and the groups tile the
    amplitudes in basis order."""
    n = 18
    monkeypatch.setattr(ham, "_BLOCK", block)
    blocks = ham.TransverseFieldOperator(n, None, 0.2, ()).blocks()
    size = 1 << block
    for make in WALK_READOUTS:
        readout = make(n)
        order = readout.walk(blocks)
        assert sorted(b.start for b, _, _ in order) == [b.start for b in blocks]
        above = sorted(s for s in readout.sites if s >= block)
        high = sum(1 << s for s in above)
        groups = []
        for b, column, entries in order:
            if column == 0:
                groups.append((b.start, entries))
            base, at = groups[-1]
            assert entries == at and b.start & ~high == base
            assert b.start == base | sum((column >> k & 1) << s for k, s in enumerate(above))
        assert all(len([c for _, c, e in order if e == at]) == 1 << len(above) for _, at in groups)
        assert [base for base, _ in groups] == sorted(base for base, _ in groups)
        width = size >> sum(s < block for s in readout.sites)
        assert [(at.start, at.stop) for _, at in groups] == [(g * width, (g + 1) * width) for g in range(len(groups))]
        assert len(groups) * width == readout.size // len(readout.bras)


def test_buffer_holds_one_group():
    """The sums hold the columns of one group: at 3x6 with 2^8-state blocks
    (probe 4 inside a block, 13 above) 2 columns of 2^7 entries, not 2 of
    2^12; at 4x6 (probes 5 and 17) with the 2^15-state blocks 2 of 2^14, not 2
    of 2^16."""
    for (w, h), block, want in (((3, 6), 8, (2, 2, 2, 128)), ((4, 6), 15, (2, 2, 2, 16384))):
        lat = Lattice(w, h)
        readout = states.probe_projector(canonical_partition(lat), lat)
        inside, sums, _ = readout.buffer(2, 1 << (lat.n_sites - block))
        assert len(inside) == 1 and sums.shape == want


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
    primed = states.Projector(states.PRIMED, tuple(range(n)), n)
    plus, minus = cat_components(n)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = a * plus + b * minus
        psi /= np.linalg.norm(psi)
        p_par = states.measurement_probability(rot @ psi, parity)
        p_pri = states.measurement_probability(psi, primed)
        assert p_par == pytest.approx(p_pri, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_ghz_overlaps_match_cat_state_oracle(n):
    """<+...+|psi> and <-...-|psi> from the two sums, against the Kronecker-built
    cat components; the primed readout's expectation is that of the primed
    GHZ state's rank-1 projector."""
    plus, minus = cat_components(n)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    got = states.Projector(np.eye(2), tuple(range(n)), n).amplitudes(psi)
    np.testing.assert_allclose(got, [np.vdot(plus, psi), np.vdot(minus, psi)], rtol=0, atol=1e-15)
    primed = states.Projector(states.PRIMED, tuple(range(n)), n)
    want = abs(np.vdot(ghz_x_oracle(n, 1j), psi)) ** 2
    assert primed.expectation(psi) == pytest.approx(want, abs=1e-15)
    assert states.measurement_probability(psi, primed) == pytest.approx(want, abs=1e-15)
    with pytest.raises(EvolutionError, match="dimension mismatch"):
        primed.amplitudes(psi[: 1 << (n - 1)])


def test_single_spin_x_rotation_is_unitary():
    u = single_spin_x_rotation(3, 1, 0.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


@given(st.integers(1, 6), st.floats(-np.pi, np.pi))
def test_rank1_projection_bounded(n, angle):
    psi = single_spin_x_rotation(n, 0, angle) @ states.ghz_x(n)
    p = states.measurement_probability(psi, states.Projector(states.PRIMED, tuple(range(n)), n))
    assert -1e-12 <= p <= 1.0 + 1e-12


def test_projector_rejects_bad_input_at_construction():
    bad = [
        lambda: states.Projector(np.ones(2), (0,), 3),  # one bra, not shaped (rows, 2)
        lambda: states.Projector(np.ones((1, 3)), (0,), 3),
        lambda: states.Projector(np.ones((0, 2)), (0,), 3),
        lambda: states.Projector(np.ones((3, 2)), (0,), 3),  # three rows in the span of two branches
        lambda: states.Projector(states.PRIMED, (1, 1), 3),
        lambda: states.Projector(states.PRIMED, (0, 3), 3),
        lambda: states.Projector(states.PRIMED, (-1,), 3),
        lambda: states.Projector(np.eye(2), (), 3),  # on no sites only the identity
        lambda: states.Projector(states.PRIMED, (), 3),
    ]
    for make in bad:
        with pytest.raises(EvolutionError):
            make()


@pytest.mark.parametrize("n", [1, 3, 6])
def test_projector_on_no_sites_is_the_identity(n):
    """No sites is not bad input: both sums are the state itself."""
    rng = np.random.default_rng(n)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    whole = states.Projector([[1.0, 0.0]], (), n)
    assert np.array_equal(whole.amplitudes(psi), psi)
    assert whole.expectation(psi) == pytest.approx(float(np.vdot(psi, psi).real), rel=1e-14)


def test_a_non_finite_expectation_is_an_evolution_error():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(EvolutionError, match="outside"):
            states.clip_probability(bad)
    psi = states.ghz_x(3)
    psi[0] = np.nan  # both bounds compare false on NaN
    with pytest.raises(EvolutionError, match="outside"):
        states.measurement_probability(psi, states.Projector(states.PRIMED, (0, 1, 2), 3))


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
