import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfsense.couplings import from_csv, homogeneous, k_ratio, sample_gaussian
from hsfsense.errors import CouplingError
from hsfsense.lattice import Lattice


def test_homogeneous_deltas_zero(lat33):
    c = homogeneous(lat33, 1.5)
    assert all(d == 0.0 for _, d in ((b, c.bond_delta(*b)) for b in lat33.bonds()))
    assert k_ratio(c) == 0.0
    assert dict(c.items())[(0, 1)] == 1.5


def test_sample_reproducible(lat33):
    a = sample_gaussian(lat33, 1.0, 0.3, seed=5)
    b = sample_gaussian(lat33, 1.0, 0.3, seed=5)
    assert a.delta == b.delta
    c = sample_gaussian(lat33, 1.0, 0.3, seed=6)
    assert a.delta != c.delta


def test_sample_respects_perturbative_window(lat33):
    for seed in range(10):
        c = sample_gaussian(lat33, 2.0, 0.6, seed=seed)
        assert max(abs(d) for d in c.delta.values()) < 1.0
        assert k_ratio(c) < 1.0


def test_sample_covers_every_bond(lat34):
    c = sample_gaussian(lat34, 1.0, 0.1, seed=1)
    assert set(c.delta) == set(lat34.bonds())


def test_invalid_parameters_rejected(lat33):
    with pytest.raises(CouplingError):
        homogeneous(lat33, 0.0)
    with pytest.raises(CouplingError):
        sample_gaussian(lat33, 1.0, -0.1, seed=1)


def test_bond_value_is_jbar_plus_delta(lat33):
    c = sample_gaussian(lat33, 1.0, 0.2, seed=3)
    values = dict(c.items())
    for bond, d in c.delta.items():
        assert values[bond] == pytest.approx(1.0 + d)


def test_bond_lookup_is_order_insensitive(lat33):
    c = sample_gaussian(lat33, 1.0, 0.2, seed=3)
    assert c.bond_delta(0, 1) == c.bond_delta(1, 0)


def test_unknown_bond_rejected(lat33):
    c = homogeneous(lat33, 1.0)
    with pytest.raises(CouplingError):
        c.bond_delta(0, 8)


def test_csv_roundtrip(lat33):
    src = sample_gaussian(lat33, 1.0, 0.25, seed=9)
    text = "\n".join(f"{i},{j},{d!r}" for (i, j), d in sorted(src.delta.items()))
    back = from_csv(lat33, 1.0, text)
    assert back.delta == src.delta


def test_csv_unlisted_bonds_default_to_zero(lat33):
    c = from_csv(lat33, 1.0, "0,1,0.05")
    assert c.bond_delta(0, 1) == 0.05
    assert c.bond_delta(1, 2) == 0.0


def test_csv_non_bond_pair_rejected(lat33):
    with pytest.raises(CouplingError):
        from_csv(lat33, 1.0, "0,8,0.05")


@pytest.mark.parametrize("second", ["0,9", "9,0"])
def test_csv_bond_listed_twice_rejected_naming_both_lines(lat33, second):
    """The later line used to win silently."""
    with pytest.raises(CouplingError, match=rf"lines 1 and 3: bond \({second}\) is listed twice"):
        from_csv(lat33, 1.0, f"0,9,0.1\n0,1,0.05\n{second},-0.2")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.floats(0.01, 2.0))
def test_k_ratio_always_below_one(seed, sigma):
    lat = Lattice(3, 2)
    c = sample_gaussian(lat, 1.0, sigma, seed=seed)
    assert k_ratio(c) < 1.0
    assert k_ratio(c) == pytest.approx(max(2 * abs(d) for d in c.delta.values()))


def test_items_cover_all_bonds(lat33, dis33):
    seen = {bond for bond, _ in dis33.items()}
    assert seen == set(lat33.bonds())
