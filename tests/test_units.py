import math

import numpy as np
import pytest

from qtst import Isotope, Quantity, Unit, convert, isotope_frequency
from qtst.errors import DomainError, UnitCompatibilityError

# Independent CODATA 2018 values, typed here so the oracle does not share
# the package's constants table.
H = 6.62607015e-34
KB = 1.380649e-23
C_CM_S = 2.99792458e10
NA = 6.02214076e23


def test_zero_maps_to_zero():
    assert convert(Quantity(0.0, Unit.WAVENUMBER), Unit.KJ_PER_MOL).value == 0.0


def test_wavenumber_to_kjmol_against_codata():
    expected = H * C_CM_S * NA * 1000.0 / 1000.0  # hc*N_A for 1000 cm^-1, in kJ/mol
    got = convert(Quantity(1000.0, Unit.WAVENUMBER), Unit.KJ_PER_MOL).value
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(11.9627, rel=1e-4)


def test_wavenumber_to_kelvin_against_codata():
    expected = H * C_CM_S / KB * 3000.0  # hc/kB = 1.4388 K cm
    got = convert(Quantity(3000.0, Unit.WAVENUMBER), Unit.KELVIN).value
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(4316.33, rel=1e-4)


def test_wavenumber_to_rad_per_s():
    got = convert(Quantity(1.0, Unit.WAVENUMBER), Unit.RAD_PER_S).value
    assert got == pytest.approx(2.0 * math.pi * C_CM_S, rel=1e-12)


@pytest.mark.parametrize("value", [1e-6, 0.037, 1.0, 311.7, 2.5e5])
@pytest.mark.parametrize(
    "chain",
    [
        (Unit.WAVENUMBER, Unit.KELVIN),
        (Unit.WAVENUMBER, Unit.KJ_PER_MOL),
        (Unit.KELVIN, Unit.RAD_PER_S),
        (Unit.KJ_PER_MOL, Unit.KELVIN),
        (Unit.RAD_PER_S, Unit.KJ_PER_MOL),
    ],
)
def test_round_trip_identity(value, chain):
    src, dst = chain
    q = Quantity(value, src)
    back = convert(convert(q, dst), src)
    assert abs(back.value - value) <= 1e-12 * abs(value)


def test_self_conversion_is_identity_for_time_and_dipole():
    assert convert(Quantity(8.3, Unit.PICOSECOND), Unit.PICOSECOND).value == 8.3
    assert convert(Quantity(5.0, Unit.DEBYE), Unit.DEBYE).value == 5.0


@pytest.mark.parametrize(
    "src,dst",
    [
        (Unit.WAVENUMBER, Unit.DEBYE),
        (Unit.PICOSECOND, Unit.KELVIN),
        (Unit.DEBYE, Unit.PICOSECOND),
        (Unit.KJ_PER_MOL, Unit.DEBYE),
    ],
)
def test_incompatible_units_error_names_both(src, dst):
    with pytest.raises(UnitCompatibilityError) as err:
        convert(Quantity(1.0, src), dst)
    assert src.value in str(err.value)
    assert dst.value in str(err.value)


def test_isotope_mass_numbers_fixed():
    assert Isotope.H.mass_number == 1.0
    assert Isotope.D.mass_number == 2.0
    assert Isotope.T.mass_number == 3.0
    assert Isotope.from_label("d") is Isotope.D
    with pytest.raises(DomainError):
        Isotope.from_label("X")


@pytest.mark.parametrize("text", ["H:D", "h/d", "HD", " H : D ", "H/D", "hd"])
def test_isotope_pair_reads_each_syntax(text):
    assert Isotope.pair(text) == (Isotope.H, Isotope.D)


@pytest.mark.parametrize("text", ["HDT", "H:", "X:D", "", "H::D", "H:D:T"])
def test_isotope_pair_rejects_what_is_not_two_labels(text):
    with pytest.raises(DomainError):
        Isotope.pair(text)


def test_isotope_pair_leaves_the_choice_of_pair_to_the_caller():
    assert Isotope.pair("T:H") == (Isotope.T, Isotope.H)
    assert Isotope.pair("H:H") == (Isotope.H, Isotope.H)


def test_isotope_frequency_values():
    assert isotope_frequency(3000.0, Isotope.H) == 3000.0
    assert isotope_frequency(3000.0, Isotope.D) == pytest.approx(3000.0 / math.sqrt(2), rel=1e-14)
    assert isotope_frequency(3000.0, Isotope.T) == pytest.approx(3000.0 / math.sqrt(3), rel=1e-14)


def test_isotope_frequency_decreasing_in_mass():
    freqs = [isotope_frequency(2500.0, iso) for iso in (Isotope.H, Isotope.D, Isotope.T)]
    assert freqs[0] > freqs[1] > freqs[2] > 0


def test_isotope_frequency_rejects_negative():
    with pytest.raises(DomainError):
        isotope_frequency(-1.0, Isotope.H)


def test_isotope_frequency_on_an_array_equals_a_scalar_loop():
    omega = np.linspace(0.0, 5000.0, 37).reshape(37, 1) * np.array([1.0, 0.37])
    for iso in Isotope:
        scalar = [[isotope_frequency(float(v), iso) for v in row] for row in omega]
        np.testing.assert_allclose(isotope_frequency(omega, iso), scalar, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_isotope_frequency_rejects_a_bad_entry_of_an_array(bad):
    omega = np.array([[1000.0, 2000.0], [3000.0, 4000.0]])
    omega[1, 0] = bad
    with pytest.raises(DomainError):
        isotope_frequency(omega, Isotope.D)
    with pytest.raises(DomainError):
        isotope_frequency(bad, Isotope.D)
