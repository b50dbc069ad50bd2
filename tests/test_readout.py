"""The readout paths (``bound``, ``sweep`` and ``fidelity``, which read every
Chebyshev term through GHZ-branch bras and keep no state)
against states evolved by the identity readout and contracted with explicit
full-space vectors by np.vdot."""

import numpy as np
import pytest

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.bound import verify_bound
from hsfsense.couplings import sample_gaussian
from hsfsense.evolve import EvolutionEngine, dynamical_fidelity_grid
from hsfsense.lattice import Lattice, canonical_partition
from hsfsense.sensing import (
    SCHEMES,
    RamseyConfig,
    ideal_probability,
    numeric_sensitivity,
    ramsey_setup,
    ramsey_uncertainty,
)

from conftest import ghz_x_oracle, whole

# (lattice, block bits): at 3x4 with 2^3-state blocks the probe (site 4) lies above the block
CASES = [((3, 4), None), ((3, 4), 3), ((4, 4), None)]
IDS = ["3x4", "3x4-block3", "4x4"]
TOL = 1e-14


def vdot(a, b):
    """np.vdot in extended precision where the platform has it: the oracle's
    sums over 2^N entries must not add rounding of their own."""
    return complex(np.vdot(np.asarray(a, dtype=np.clongdouble), np.asarray(b, dtype=np.clongdouble)))


def setup(shape):
    lat = Lattice(*shape)
    return lat, canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=3)


def small_blocks(block, part, monkeypatch):
    """Run the readout under test on blocks of 2^block states; the oracle's
    identity readout is bitwise the same on any block size, so it runs first
    on the default blocks."""
    if block is not None:
        monkeypatch.setattr(ham, "_BLOCK", block)
        assert min(part.probe_sites) >= block


def probe_projected(psi, part, lat):
    """(|phi><phi| on the probes) x (identity on the rest) applied to psi, with
    phi the primed probe GHZ state, as a full-space vector built from index maps."""
    phi = ghz_x_oracle(part.n_probe, 1j)
    basis = np.arange(1 << lat.n_sites)
    others = [s for s in range(lat.n_sites) if s not in part.probe_sites]
    p_idx = sum(((basis >> s) & 1) << k for k, s in enumerate(part.probe_order()))
    a_idx = sum(((basis >> s) & 1) << k for k, s in enumerate(others))
    amp = np.zeros((phi.size, basis.size // phi.size), dtype=np.clongdouble)
    amp[p_idx, a_idx] = psi
    return phi[p_idx] * (phi.conj() @ amp)[a_idx]


@pytest.mark.parametrize("shape,block", CASES, ids=IDS)
def test_bound_eps_matches_vdot_oracle(shape, block, monkeypatch):
    lat, part, c = setup(shape)
    ts = np.linspace(0.0, 0.4, 3)
    psi, h, _ = ramsey_setup("hsf", 0.4, lat, part, c)
    full = [vdot(s, probe_projected(s, part, lat)).real for s in EvolutionEngine(h).evolve_grid(psi, ts)]
    want = np.array(full) - ideal_probability(part.n_probe, 0.4, ts)
    small_blocks(block, part, monkeypatch)
    got = verify_bound(lat, part, c, 0.4, ts).epsilon_values
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert np.max(np.abs(want)) > 1e-4  # eps itself is far above the tolerance


@pytest.mark.parametrize("shape,block", CASES, ids=IDS)
# ids read "<layout>-<under the decoupled probe drive alone>", as they did
# before hsf_ideal became a scheme, so test histories line up
@pytest.mark.parametrize(
    "scheme",
    ["hsf", "hsf_ideal", "ghz_free", "ghz_interacting"],
    ids=["hsf-False", "hsf-True", "ghz_free-False", "ghz_interacting-False"],
)
def test_sensitivity_matches_vdot_oracle(shape, block, scheme, monkeypatch):
    lat, part, c = setup(shape)
    rc = RamseyConfig(omega=0.3, t_int=0.2, t_all=10.0)
    psi0, h, _ = ramsey_setup(scheme, rc.omega, lat, part, c)
    psi, dpsi = EvolutionEngine(h).readout_tangent(psi0, rc.t_int, whole(lat.n_sites))
    if scheme in ("hsf", "hsf_ideal"):
        projected = probe_projected(psi, part, lat)
        p, slope = vdot(psi, projected).real, vdot(projected, dpsi).real
    else:
        primed = ghz_x_oracle(lat.n_sites, 1j)
        u, du = vdot(primed, psi), vdot(primed, dpsi)
        p, slope = abs(u) ** 2, (u.conjugate() * du).real
    want = ramsey_uncertainty(p, slope, rc.repetitions)
    small_blocks(block, part, monkeypatch)
    assert abs(numeric_sensitivity(scheme, rc, lat, part, c) - want) <= TOL


@pytest.mark.parametrize("shape,block", CASES, ids=IDS)
def test_fidelity_grid_matches_vdot_oracle(shape, block, monkeypatch):
    """The closed-form ideal branch and two overlaps per term against both
    dynamics evolved as states."""
    lat, part, c = setup(shape)
    h = ham.op_tfim(lat, c, 0.4)
    ts = np.linspace(0.0, 0.4, 3)
    ghz = states.ghz_x(lat.n_sites)
    ideal, actual = EvolutionEngine(ham.op_omega(lat, 0.4)), EvolutionEngine(h)
    want = [abs(vdot(ideal.evolve(ghz, t), actual.evolve(ghz, t))) ** 2 for t in ts]
    small_blocks(block, part, monkeypatch)
    got = dynamical_fidelity_grid(h, 0.4, ts)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert np.min(want) < 0.99  # the fidelity has decayed


def test_readouts_equal_the_amplitudes_of_the_evolved_states(lat34, part34):
    """readout_grid and readout_tangent give what the readout's own ``amplitudes``
    gives on the whole states of evolve_grid and of readout_tangent on no sites, from a complex start:
    with real and imaginary branch weights, and with a random complex pair of
    bras on the probes, whose four weights are all nonzero in both planes."""
    op = ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=5), 0.4)
    rng = np.random.default_rng(6)
    psi = rng.normal(size=1 << lat34.n_sites) + 1j * rng.normal(size=1 << lat34.n_sites)
    psi /= np.linalg.norm(psi)
    eng = EvolutionEngine(op)
    ts = [0.0, 0.3, 1.1]
    every = tuple(range(lat34.n_sites))
    bras = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))  # every row weighs both branches
    readouts = (
        states.probe_projector(part34, lat34),
        states.Projector(states.PRIMED, every, lat34.n_sites),
        states.Projector(np.eye(2), every, lat34.n_sites),
        states.Projector(bras, tuple(part34.probe_order()), lat34.n_sites),
    )
    for readout in readouts:
        for got, state in zip(eng.readout_grid(psi, ts, readout), eng.evolve_grid(psi, ts)):
            np.testing.assert_allclose(got, readout.amplitudes(state), rtol=0, atol=TOL)
        for got, state in zip(eng.readout_tangent(psi, 0.7, readout), eng.readout_tangent(psi, 0.7, whole(lat34.n_sites))):
            np.testing.assert_allclose(got, readout.amplitudes(state), rtol=0, atol=TOL)
    assert eng.readout_grid(psi, [], readouts[0]) == []


def test_ghz_schemes_build_no_primed_state(lat34, part34, monkeypatch):
    """Every scheme starts from a GHZ ket, which the march writes block by
    block, and builds no GHZ vector: the primed-GHZ readout is the two
    coefficients of its bra, not a 2^N vector."""
    built = []
    vector = states.GHZKet.vector
    monkeypatch.setattr(states.GHZKet, "vector", lambda ket: built.append(ket) or vector(ket))
    rc = RamseyConfig(omega=0.3, t_int=0.2, t_all=10.0)
    c = sample_gaussian(lat34, 1.0, 0.3, seed=3)
    for scheme in SCHEMES:
        built.clear()
        psi, _, proj = ramsey_setup(scheme, rc.omega, lat34, part34, c)
        probes = scheme in ("hsf", "hsf_ideal")
        assert psi.sites == (tuple(part34.probe_order()) if probes else tuple(range(lat34.n_sites)))
        np.testing.assert_array_equal(proj.bras, states.PRIMED)
        assert numeric_sensitivity(scheme, rc, lat34, part34, c) > 0
        assert built == []
