import math

import numpy as np
import pytest

from qtst import BarrierSystem, Isotope, KIEDataset, apparent_arrhenius, classical_kie, kie_qtst, units
from qtst.errors import DomainError
from qtst.units import _isotope_scaled

# Independent CODATA 2018 values, typed here so the oracle does not share
# the package's constants table.
H = 6.62607015e-34
KB = 1.380649e-23
C_CM_S = 2.99792458e10
NA = 6.02214076e23


def test_zero_maps_to_zero():
    # zero, the edge of the frequency domain (>= 0), scales to zero
    for iso in Isotope:
        assert _isotope_scaled(0.0, iso) == 0.0
        assert _isotope_scaled(np.zeros(3), iso).tolist() == [0.0] * 3


def test_wavenumber_to_kjmol_against_codata():
    expected = H * C_CM_S * NA / 1000.0  # hc*N_A for 1 cm^-1, in kJ/mol
    assert units.CM1_TO_KJ_PER_MOL == pytest.approx(expected, rel=1e-12)
    assert 1000.0 * units.CM1_TO_KJ_PER_MOL == pytest.approx(11.9627, rel=1e-4)


def test_wavenumber_to_kelvin_against_codata():
    expected = H * C_CM_S / KB  # hc/kB = 1.4388 K cm
    assert units.CM1_TO_K == pytest.approx(expected, rel=1e-12)
    assert 3000.0 * units.CM1_TO_K == pytest.approx(4316.33, rel=1e-4)


def test_wavenumber_to_rad_per_s():
    assert units.CM1_TO_RAD_PER_S == pytest.approx(2.0 * math.pi * C_CM_S, rel=1e-12)


def test_isotope_mass_numbers_fixed():
    assert Isotope.H.mass_number == 1.0
    assert Isotope.D.mass_number == 2.0
    assert Isotope.T.mass_number == 3.0
    assert Isotope.from_label("d") is Isotope.D
    for label in ("X", 5, None):
        with pytest.raises(DomainError):
            Isotope.from_label(label)


@pytest.mark.parametrize("text", ["H:D", "h/d", "HD", " H : D ", "H/D", "hd"])
def test_isotope_pair_reads_each_syntax(text):
    assert Isotope.pair(text) == (Isotope.H, Isotope.D)


@pytest.mark.parametrize("text", ["HDT", "H:", "X:D", "", "H::D", "H:D:T", 5, ["H", "D"], None])
def test_isotope_pair_rejects_what_is_not_two_labels(text):
    with pytest.raises(DomainError):
        Isotope.pair(text)


def test_isotope_pair_leaves_the_choice_of_pair_to_the_caller():
    assert Isotope.pair("T:H") == (Isotope.T, Isotope.H)
    assert Isotope.pair("H:H") == (Isotope.H, Isotope.H)


def test_isotope_frequency_values():
    assert _isotope_scaled(3000.0, Isotope.H) == 3000.0
    assert _isotope_scaled(3000.0, Isotope.D) == pytest.approx(3000.0 / math.sqrt(2), rel=1e-14)
    assert _isotope_scaled(3000.0, Isotope.T) == pytest.approx(3000.0 / math.sqrt(3), rel=1e-14)


def test_isotope_frequency_decreasing_in_mass():
    freqs = [_isotope_scaled(2500.0, iso) for iso in (Isotope.H, Isotope.D, Isotope.T)]
    assert freqs[0] > freqs[1] > freqs[2] > 0


def test_isotope_frequency_on_an_array_equals_a_scalar_loop():
    omega = np.linspace(0.0, 5000.0, 37).reshape(37, 1) * np.array([1.0, 0.37])
    for iso in Isotope:
        scalar = [[_isotope_scaled(float(v), iso) for v in row] for row in omega]
        np.testing.assert_allclose(_isotope_scaled(omega, iso), scalar, rtol=1e-15, atol=0.0)


# one isotope-order rule for every pair: the light isotope may not be the
# heavier one, an equal pair is allowed
_PAIR_TAKERS = {
    "kie_qtst": lambda light, heavy: kie_qtst(3000.0, 1000.0, 300.0, light, heavy),
    "apparent_arrhenius": lambda light, heavy: apparent_arrhenius(3000.0, 1000.0, 300.0, light, heavy),
    "classical_kie": lambda light, heavy: classical_kie(BarrierSystem(3000.0, 1000.0, 40.0), None, light, heavy),
    "KIEDataset": lambda light, heavy: KIEDataset((280.0, 300.0, 320.0), (9.0, 8.0, 7.0), None, light, heavy),
}


@pytest.mark.parametrize("take", _PAIR_TAKERS.values(), ids=_PAIR_TAKERS.keys())
def test_every_pair_taker_allows_an_equal_pair_and_refuses_heavier_first(take):
    take(Isotope.H, Isotope.H)
    with pytest.raises(DomainError) as exc:
        take(Isotope.D, Isotope.H)
    assert str(exc.value) == "light isotope must not be heavier than heavy isotope"
