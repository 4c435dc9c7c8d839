import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from qtst import (
    DebyeDielectricFriction,
    DrudeFriction,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
    chromophore_estimate,
    effective_curvature,
    friction_model_from_json,
    kernel_upper_bound,
)
from qtst.errors import DivergentIntegralError, DomainError
from qtst import units
from qtst.spectral import _FEW, _auxiliary_fg, _fg_laguerre, _fg_power

from oracles import fg_sici, quadrature_kernel

ALL_FINITE_KE_MODELS = [
    DrudeFriction(gamma=100.0, omega_d=100.0),
    DrudeFriction(gamma=30.0, omega_d=600.0),
    PeakedFriction(gamma_r=200.0, width=150.0, omega_r=600.0),
    DebyeDielectricFriction(cavity_radius=3.0),
    LinearProteinFriction(),
]

# every built-in kernel, and the bound on the four with a finite K_e; Linear
# protein's z reaches both pieces of its f and h, which switch at z = 4
# times the cutoff (1,600)
KERNELS = [m.laplace_kernel for m in ALL_FINITE_KE_MODELS + [OhmicFriction(50.0)]] + [
    lambda z, m=m: kernel_upper_bound(m, z) for m in ALL_FINITE_KE_MODELS
]
KERNEL_IDS = [type(m).__name__ for m in ALL_FINITE_KE_MODELS] + ["OhmicFriction"] + [
    f"bound-{type(m).__name__}" for m in ALL_FINITE_KE_MODELS
]
CONTRACT_Z = np.concatenate((np.geomspace(1e-3, 1e7, 61), [7.0, 17_999.0, 18_000.0, 18_001.0]))


def _bad_z_forms(bad):
    """bad as a float and an np.float64, and as one entry of a list and a 2-D array."""
    return bad, np.float64(bad), [1.0, bad, 2.0], np.array([[1.0, 2.0], [bad, 3.0]])


# --------------------------------------------------------------- kernels


def test_ohmic_kernel_is_constant():
    m = OhmicFriction(50.0)
    for z in (0.1, 1.0, 123.0, 9999.0):
        assert m.laplace_kernel(z) == 50.0


def test_drude_kernel_hand_value():
    m = DrudeFriction(gamma=100.0, omega_d=100.0)
    assert m.laplace_kernel(100.0) == pytest.approx(50.0, rel=1e-14)


def test_peaked_kernel_hand_value_and_asymptote():
    gamma_r, width = 300.0, 30.0
    omega_r = 10.0 * width
    m = PeakedFriction(gamma_r, width, omega_r)
    z = omega_r
    # exact algebra: gamma_r*z*w/(2 z^2 + z w) = gamma_r*w/(2z + w)
    assert m.laplace_kernel(z) == pytest.approx(gamma_r * width / (2 * z + width), rel=1e-14)
    # narrow-peak scale estimate gamma_r*width/z holds within a factor ~2
    assert m.laplace_kernel(z) == pytest.approx(gamma_r * width / z, rel=1.1)


def test_kernel_rejects_nonpositive_z():
    # the Ohmic bound checks z before its divergent K_e
    for kernel in KERNELS + [lambda z: kernel_upper_bound(OhmicFriction(10.0), z)]:
        for bad in (0.0, 0, -5.0):
            for z in _bad_z_forms(bad):
                with pytest.raises(DomainError):
                    kernel(z)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_nonfinite_z(z):
    for kernel in KERNELS + [lambda z: kernel_upper_bound(OhmicFriction(10.0), z)]:
        for bad in _bad_z_forms(z):
            with pytest.raises(DomainError):
                kernel(bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: OhmicFriction(math.nan),
        lambda: OhmicFriction(math.inf),
        lambda: DrudeFriction(math.nan, 100.0),
        lambda: DrudeFriction(100.0, math.inf),
        lambda: PeakedFriction(math.nan, 100.0, 500.0),
        lambda: PeakedFriction(200.0, math.inf, 500.0),
        lambda: PeakedFriction(200.0, 100.0, -math.inf),
        lambda: LinearProteinFriction(delta_gamma=math.nan),
        lambda: LinearProteinFriction(slope=math.inf),
        lambda: LinearProteinFriction(cutoff=math.nan),
        lambda: DebyeDielectricFriction(cavity_radius=math.nan),
        lambda: DebyeDielectricFriction(cavity_radius=math.inf),
        lambda: DebyeDielectricFriction(cavity_radius=3.0, mass=math.nan),
    ],
    ids=[
        "ohmic-nan", "ohmic-inf", "drude-nan", "drude-inf", "peaked-nan", "peaked-inf",
        "peaked-neg-inf", "linear-nan", "linear-inf", "linear-cutoff-nan", "debye-radius-nan",
        "debye-radius-inf", "debye-mass-nan",
    ],
)
def test_constructor_rejects_nonfinite_parameter(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_c": 0.0},
        {"eps_c": -2.0},
    ],
    ids=["eps_c-zero", "eps_c-negative"],
)
def test_dielectric_rejects_unphysical_constants(kwargs):
    # eps_c = -2 once gave a negative spectrum, breaking the kernel bound
    with pytest.raises(DomainError):
        DebyeDielectricFriction(cavity_radius=3.0, **kwargs)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_kernel_returns_a_float_for_every_scalar_form(kernel):
    for z in (7.0, 7, np.float64(7.0), np.array(7.0), np.int64(7)):
        out = kernel(z)
        assert type(out) is float
        assert out == kernel(7.0)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_kernel_scalar_call_equals_array_element_bit_for_bit(kernel):
    arr = kernel(CONTRACT_Z)
    assert isinstance(arr, np.ndarray) and arr.dtype == float and arr.shape == CONTRACT_Z.shape
    assert arr.tolist() == [kernel(z) for z in CONTRACT_Z.tolist()]
    grid = CONTRACT_Z[:64].reshape(4, 16)
    assert kernel(grid).shape == (4, 16)
    assert kernel(grid).tolist() == kernel(grid.ravel()).reshape(4, 16).tolist()
    assert kernel(CONTRACT_Z.tolist()).tolist() == arr.tolist()


# the contract grid, omega = 0 and 1e4, and 20,000 seeded log-uniform points:
# among these a float's w ** 2 (libm pow) and an array's np.square (w * w)
# once gave 7 to 29 different Drude and Peaked values per model
SPECTRUM_OMEGA = np.concatenate(
    (CONTRACT_Z, [0.0, 1e4], 10.0 ** np.random.default_rng(1).uniform(-3.0, 7.0, 20_000))
)
SPECTRUM_MODELS = ALL_FINITE_KE_MODELS + [OhmicFriction(50.0), PeakedFriction(1.0, 1.0, 1.0)]


@pytest.mark.parametrize("model", SPECTRUM_MODELS, ids=[type(m).__name__ for m in SPECTRUM_MODELS])
def test_spectrum_scalar_call_equals_array_element(model):
    arr = model.friction_spectrum(SPECTRUM_OMEGA)
    scalar = [model.friction_spectrum(w) for w in SPECTRUM_OMEGA.tolist()]
    assert arr.tolist() == scalar


@pytest.mark.parametrize("model, first", [
    (DebyeDielectricFriction(3.0), 2.4e156),
], ids=["water"])
def test_debye_spectrum_is_zero_far_above_every_relaxation(model, first):
    # each term's denominator overflows to inf, its limit, and no term adds
    # 0 * inf: 0.0 for a float and for an array, with no warning
    huge = [first, 1e250, 1e300, float(np.finfo(float).max)]
    assert [model.friction_spectrum(w) for w in huge] == [0.0] * 4
    assert model.friction_spectrum(np.array(huge)).tolist() == [0.0] * 4
    # below that the tail still falls as 1/omega^2, the Debye terms' loss
    tail = model.friction_spectrum(np.array([1e100, 1e150]))
    assert tail[1] / tail[0] == pytest.approx(1e-100, rel=1e-12)


# each built-in model built from numpy scalars, beside its twin built from
# Python floats
NUMPY_PARAM_MODELS = [
    (OhmicFriction(np.float64(50.0)), OhmicFriction(50.0)),
    (DrudeFriction(np.float64(30.0), np.int64(600)), DrudeFriction(30.0, 600.0)),
    (PeakedFriction(np.float64(200.0), np.array(150.0), np.int64(600)), PeakedFriction(200.0, 150.0, 600.0)),
    (DebyeDielectricFriction(np.float64(3.0), eps_c=np.int64(2), mass=np.float64(2.0)),
     DebyeDielectricFriction(3.0, eps_c=2.0, mass=2.0)),
    (LinearProteinFriction(np.float64(20.0), np.float64(0.38), np.int64(400)), LinearProteinFriction()),
]


@pytest.mark.parametrize("model, twin", NUMPY_PARAM_MODELS,
                         ids=[type(m).__name__ for m, _ in NUMPY_PARAM_MODELS])
def test_numpy_scalar_parameters_are_stored_and_returned_as_floats(model, twin):
    for f in fields(model):
        assert type(getattr(model, f.name)) is float, f.name
    assert model == twin and hash(model) == hash(twin) and model.to_json() == twin.to_json()
    for x in (7.0, 600.0, 17_999.0, 18_001.0):
        for method in ("laplace_kernel", "friction_spectrum"):
            out = getattr(model, method)(x)
            assert type(out) is float and out == getattr(twin, method)(x), method


@pytest.mark.parametrize("model", ALL_FINITE_KE_MODELS + [OhmicFriction(50.0)],
                         ids=[type(m).__name__ for m in ALL_FINITE_KE_MODELS] + ["OhmicFriction"])
@pytest.mark.parametrize("omega", [-1.0, -math.inf, math.inf, math.nan])
def test_spectrum_rejects_negative_and_nonfinite_omega(model, omega):
    assert type(model.friction_spectrum(0.0)) is float
    for bad in _bad_z_forms(omega):
        with pytest.raises(DomainError):
            model.friction_spectrum(bad)


def test_kernel_bound_accepts_arrays():
    m = PeakedFriction(gamma_r=200.0, width=150.0, omega_r=600.0)
    zs = [1.0, 10.0, 250.0]
    got = kernel_upper_bound(m, zs)
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert list(got) == [kernel_upper_bound(m, z) for z in zs]
    assert isinstance(kernel_upper_bound(m, 10.0), float)
    with pytest.raises(DomainError):
        kernel_upper_bound(m, [1.0, 0.0])


def test_drude_approaches_ohmic_at_large_cutoff():
    z = 100.0
    drude = DrudeFriction(gamma=75.0, omega_d=1e6 * z)
    assert abs(drude.laplace_kernel(z) / 75.0 - 1.0) < 1e-3


def test_numeric_kernel_matches_analytic_for_drude():
    # the quadrature oracle, checked against the closed form
    m = DrudeFriction(gamma=120.0, omega_d=250.0)
    for z in (3.0, 70.0, 900.0):
        numeric = quadrature_kernel(m, z)
        assert numeric == pytest.approx(m.laplace_kernel(z), rel=1e-8)


def test_linear_protein_kernel_matches_quadrature_oracle():
    from scipy.integrate import quad

    m = LinearProteinFriction()
    for z in (5.0, 50.0, 400.0, 3000.0):
        oracle = (
            2.0
            * z
            / math.pi
            * quad(lambda w: m.friction_spectrum(w) / (w * w + z * z), 0.0, np.inf, limit=300)[0]
        )
        assert m.laplace_kernel(z) == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("make", [
    lambda: LinearProteinFriction(cutoff=None),
    lambda: friction_model_from_json({"kind": "linear_protein", "delta_gamma": 20.0, "slope": 0.38, "cutoff": None}),
], ids=["constructor", "json"])
def test_linear_protein_needs_a_cutoff(make):
    # without the cutoff the bath has no kernel and no K_e: it is not built
    with pytest.raises(DomainError, match="cutoff must be finite and > 0, got None"):
        make()


# ------------------------------------------------------------- spectra


def test_drude_spectrum_low_frequency_and_at_cutoff():
    m = DrudeFriction(gamma=80.0, omega_d=140.0)
    assert m.friction_spectrum(0.0) == pytest.approx(80.0, rel=1e-14)
    assert m.friction_spectrum(140.0) == pytest.approx(40.0, rel=1e-14)


def test_peaked_spectrum_peak_value_exact():
    m = PeakedFriction(gamma_r=321.0, width=45.0, omega_r=510.0)
    assert m.friction_spectrum(510.0) == pytest.approx(321.0, rel=1e-14)


@pytest.mark.parametrize("model", ALL_FINITE_KE_MODELS + [OhmicFriction(25.0)])
def test_spectrum_nonnegative(model):
    for w in np.linspace(0.0, 5000.0, 101):
        assert model.friction_spectrum(float(w)) >= 0.0


# ---------------------------------------------------- effective curvature


def test_effective_curvature_ohmic_diverges():
    with pytest.raises(DivergentIntegralError):
        effective_curvature(OhmicFriction(50.0))


def test_effective_curvature_drude_analytic():
    m = DrudeFriction(gamma=100.0, omega_d=200.0)
    assert effective_curvature(m) == pytest.approx(100.0 * 200.0, rel=1e-12)
    assert effective_curvature(m, mass=2.0) == pytest.approx(2.0 * 100.0 * 200.0, rel=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        DrudeFriction(gamma=100.0, omega_d=200.0),
        PeakedFriction(gamma_r=200.0, width=150.0, omega_r=600.0),
        LinearProteinFriction(),
    ],
)
def test_effective_curvature_vs_trapezoid_oracle(model):
    # brute-force oracle: dense trapezoid on the compactified variable
    # w = W t/(1-t), which folds the infinite tail into t -> 1
    scale = 300.0
    t = np.linspace(0.0, 1.0 - 1e-9, 2_000_001)
    w = scale * t / (1.0 - t)
    jac = scale / (1.0 - t) ** 2
    integral = np.trapezoid(model.friction_spectrum(w) * jac, t)
    assert effective_curvature(model) == pytest.approx(2.0 / math.pi * integral, rel=1e-6)


# x = z/cutoff: 4,000 seeded log-uniform points on (1e-10, 1e5], the switch
# at 4 and the float below it, 45 (where the sici form's test stops) and
# the float below it, and 1e5
FG_X = np.concatenate((10.0 ** np.random.default_rng(4).uniform(-10.0, 5.0, 4000),
                       np.nextafter([4.0, 45.0], 0.0), [4.0, 45.0, 1e5]))


def test_linear_kernel_f_and_g_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # _auxiliary_fg gives f and h = x g
    f, h = _auxiliary_fg(FG_X)
    with mpmath.workdps(30):
        for x, fx, hx in zip(FG_X.tolist(), f.tolist(), h.tolist()):
            X = mpmath.mpf(x)
            a, ci = mpmath.pi / 2 - mpmath.si(X), mpmath.ci(X)
            s, c = mpmath.sin(X), mpmath.cos(X)
            assert fx == pytest.approx(float(ci * s + a * c), rel=2e-13, abs=0.0), x
            assert hx == pytest.approx(float(X * (a * s - ci * c)), rel=2e-13, abs=0.0), x


def test_linear_kernel_f_and_g_match_the_sici_form_below_45():
    # above 45 the sici form cancels to a few digits
    x = FG_X[FG_X < 45.0]
    f, h = _auxiliary_fg(x)
    f_sici, g_sici = fg_sici(x)
    np.testing.assert_allclose(f, f_sici, rtol=5e-13, atol=0.0)
    np.testing.assert_allclose(h, x * g_sici, rtol=5e-13, atol=0.0)


@pytest.mark.parametrize("below, above, x, rtol", [
    # h from the 40-node quadrature is 4.4e-14 off the power series' at 4
    (_fg_power, _fg_laguerre, 4.0, (1e-13, 1e-13)),
], ids=["4"])
def test_linear_kernel_pieces_agree_at_each_switch(below, above, x, rtol):
    for near, far, tol in zip(below(x), above(x), rtol):
        assert far == pytest.approx(near, rel=tol, abs=0.0)


def test_linear_kernel_array_with_few_points_in_each_piece_equals_its_scalar_calls():
    # a piece with at most _FEW points of an array runs them one float at a
    # time, a larger one as an array
    m = LinearProteinFriction()
    for n in (1, _FEW, _FEW + 1):
        z = np.concatenate([np.geomspace(lo, hi, n) for lo, hi in ((1.0, 1599.0), (1600.0, 1e7))])
        assert m.laplace_kernel(z).tolist() == [m.laplace_kernel(v) for v in z.tolist()]


def test_linear_kernel_within_bound_at_large_z():
    # z/cutoff from 1e4, where the sici form cancels to a few digits, to
    # 1e305, far past 1.3e154, where (z/cutoff)^2 overflows a double
    m = LinearProteinFriction(0.0, 1.0, 100.0)
    z = np.geomspace(1e6, 1e307, 61)
    bound = kernel_upper_bound(m, z)
    # as floats and as one array; an overflow warning fails the test, as the
    # suite turns warnings into errors
    for kernel in (m.laplace_kernel(z), np.array([m.laplace_kernel(v) for v in z.tolist()])):
        assert np.all(kernel <= bound * (1.0 + 1e-15))
        # gamma_hat = K_e/(M z) (1 - 6 (cutoff/z)^2 + O((cutoff/z)^4))
        np.testing.assert_allclose(kernel, bound * (1.0 - 6.0 * (100.0 / z) ** 2), rtol=1e-12)


# ------------------------------------------------------------ the bound


def test_kernel_bound_drude_closed_form():
    m = DrudeFriction(gamma=100.0, omega_d=200.0)
    z = 50.0
    assert kernel_upper_bound(m, z) == pytest.approx(100.0 * 200.0 / z, rel=1e-12)


def test_kernel_bound_zero_curvature():
    assert kernel_upper_bound(DrudeFriction(gamma=0.0, omega_d=100.0), 10.0) == 0.0
    # zero Ohmic friction has a finite, zero spectrum integral
    assert OhmicFriction(0.0).spectrum_integral() == 0.0
    assert kernel_upper_bound(OhmicFriction(0.0), 10.0) == 0.0


@pytest.mark.parametrize("model", ALL_FINITE_KE_MODELS)
def test_kernel_never_exceeds_bound(model):
    for z in np.geomspace(1.0, 1e4, 41):
        z = float(z)
        assert model.laplace_kernel(z) <= kernel_upper_bound(model, z) * (1.0 + 1e-9)


# --------------------------------------------------- dielectric friction


def test_dielectric_static_and_high_frequency_limits():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    eps0 = m.epsilon(0.0)
    assert eps0.real == pytest.approx(1.54 + 76.82, rel=1e-12)
    assert eps0.imag == 0.0
    eps_hi = m.epsilon(1e7)
    assert eps_hi.real == pytest.approx(1.54, abs=1e-3)


def test_water_epsilon_is_the_four_term_formula():
    # eps(w) = eps_inf + sum_k delta_eps_k/(1 - i w tau_k) over three Debye
    # terms, plus delta_eps_4/(1 - i w tau_4 - (w/omega_4)^2), at w in rad/ps
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w_cm1 = np.concatenate((np.geomspace(1e-3, 1e5, 41), [0.0, 175.0]))
    om_tau = units.CM1_TO_RAD_PER_S * 1e-12
    for w in w_cm1.tolist():
        x = om_tau * w
        want = (1.54 + 71.5 / (1.0 - 1j * x * 8.3) + 2.8 / (1.0 - 1j * x * 1.0) + 1.6 / (1.0 - 1j * x * 0.1)
                + 0.92 / (1.0 - 1j * x * 0.025 - (w / 175.0) ** 2))
        got = m.epsilon(w)
        assert got.real == pytest.approx(want.real, rel=1e-14, abs=0.0), w
        assert got.imag == pytest.approx(want.imag, rel=1e-14, abs=1e-300), w


def test_dielectric_loss_positive_and_of_expected_size():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    for w in np.geomspace(0.01, 3000.0, 60):
        assert m.epsilon(float(w)).imag >= 0.0
    # the measured loss near 100 cm^-1 is about 2
    assert m.epsilon(100.0).imag == pytest.approx(1.91, abs=0.4)


def test_cavity_friction_radius_scaling():
    small = DebyeDielectricFriction(cavity_radius=2.0)
    big = DebyeDielectricFriction(cavity_radius=4.0)
    assert big.friction_spectrum(100.0) == pytest.approx(small.friction_spectrum(100.0) / 8.0, rel=1e-12)


def test_cavity_friction_spot_value_vs_independent_oracle():
    # re-derive from scratch with complex arithmetic and CODATA constants
    m = DebyeDielectricFriction(cavity_radius=3.0, eps_c=2.0, mass=1.0)
    w = 100.0
    om_tau = 2.0 * math.pi * 2.99792458e10 * 1e-12  # rad/ps per cm^-1
    eps = 1.54 + 0j
    for de, tau in zip((71.5, 2.8, 1.6), (8.3, 1.0, 0.1)):
        eps += de / (1.0 - 1j * om_tau * w * tau)
    eps += 0.92 / (1.0 - 1j * om_tau * w * 0.025 - (w / 175.0) ** 2)
    loss = ((eps - 2.0) / (2.0 * eps + 2.0)).imag
    pref = (1.602176634e-19) ** 2 / (
        2.0 * math.pi * 8.8541878128e-12 * (3e-10) ** 3 * 1.67262192369e-27
    )
    rad_s_per_cm1 = 2.0 * math.pi * 2.99792458e10
    expected = pref * loss / (w * rad_s_per_cm1) / rad_s_per_cm1
    assert m.friction_spectrum(w) == pytest.approx(expected, rel=1e-10)


def test_dielectric_array_calls_match_scalar_calls():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w = np.geomspace(0.01, 3000.0, 40)
    assert isinstance(m.epsilon(100.0), complex)
    assert isinstance(m.friction_spectrum(100.0), float)
    assert isinstance(m.laplace_kernel(100.0), float)
    # numpy and Python complex division may round differently in the last bit
    for f in (m.epsilon, m.friction_spectrum, m.laplace_kernel):
        np.testing.assert_allclose(f(w), [f(float(x)) for x in w], rtol=1e-15, atol=0.0)


def test_dielectric_epsilon_array_is_silent_where_b_w2_overflows():
    # past about 1.3e154 cm^-1 the resonance's b w^2 overflows to inf, and
    # the term goes to 0; an array must do so without an overflow warning
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w = [1e10, 1e157, 1e200, np.finfo(float).max]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalars = [m.epsilon(x) for x in w]
        array = m.epsilon(np.array(w))
    np.testing.assert_allclose(array, scalars, rtol=1e-15, atol=0.0)
    assert all(e.real == 1.54 for e in scalars[1:])


def test_dielectric_spectrum_zero_frequency_limit():
    # Im eps ~ omega as omega -> 0, so Re gamma has a finite limit at 0,
    # reached with a relative error of order (omega*tau)^2
    m = DebyeDielectricFriction(cavity_radius=3.0, eps_c=2.0)
    assert m.friction_spectrum(0.0) == pytest.approx(m.friction_spectrum(1e-6), rel=1e-9)
    assert np.isfinite(m.friction_spectrum(np.array([0.0, 1.0]))).all()


@pytest.mark.parametrize(
    "call",
    [
        lambda m: m.epsilon(math.nan),
        lambda m: m.epsilon(math.inf),
        lambda m: m.epsilon(-math.inf),
        lambda m: m.epsilon(-1.0),
        lambda m: m.epsilon([1.0, math.nan]),
        lambda m: m.epsilon(np.array([0.0, -1.0])),
        lambda m: m.friction_spectrum(math.nan),
        lambda m: m.friction_spectrum(math.inf),
        lambda m: m.friction_spectrum([1.0, -1.0]),
        lambda m: effective_curvature(m, mass=math.nan),
        lambda m: effective_curvature(m, mass=math.inf),
    ],
    ids=["dielectric-nan", "dielectric-inf", "dielectric-minus-inf", "dielectric-negative",
         "dielectric-list-nan", "dielectric-array-negative", "cavity-nan", "cavity-inf",
         "cavity-list-negative", "curvature-mass-nan", "curvature-mass-inf"],
)
def test_dielectric_helpers_reject_non_finite_input(call):
    with pytest.raises(DomainError):
        call(DebyeDielectricFriction(cavity_radius=3.0))


def test_debye_dielectric_takes_a_list():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w = [0.0, 10.0, 100.0]
    np.testing.assert_array_equal(m.epsilon(w), m.epsilon(np.array(w)))


def test_cavity_friction_takes_a_list():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w = [1.0, 10.0, 100.0]
    np.testing.assert_array_equal(m.friction_spectrum(w), m.friction_spectrum(np.array(w)))


def test_effective_curvature_takes_an_array_of_masses():
    m = DrudeFriction(gamma=100.0, omega_d=200.0)
    np.testing.assert_allclose(
        effective_curvature(m, mass=[1.0, 2.0, 3.0]), [2e4, 4e4, 6e4], rtol=1e-12
    )


def test_cavity_friction_rejects_bad_radius():
    with pytest.raises(DomainError):
        DebyeDielectricFriction(cavity_radius=-1.0)


# ------------------------------------------------- chromophore estimates


def test_chromophore_coupling_scale_against_independent_formula():
    est = chromophore_estimate(1000.0, 5.0)
    hbar = 6.62607015e-34 / (2 * math.pi)
    dmu = 5.0 * 1e-21 / 2.99792458e8
    expected = (hbar * 1.602176634e-19 / dmu) ** 2 / 1.67262192369e-27
    expected_cm1 = expected / (6.62607015e-34 * 2.99792458e10)
    assert est.coupling_scale == pytest.approx(expected_cm1, rel=1e-10)
    # about 30 cm^-1 for a proton with a 5-debye dipole change
    assert est.coupling_scale == pytest.approx(30.9, abs=0.5)


def test_chromophore_bound_scale_order_of_magnitude():
    est = chromophore_estimate(1000.0, 5.0)
    # formula value is ~140 cm^-1, same order as the published ~150 cm^-1
    assert est.bound_scale == pytest.approx(140.2, abs=1.0)
    assert 100.0 < est.bound_scale < 200.0


def test_chromophore_linearity_in_er_and_inverse_square_dipole():
    base = chromophore_estimate(500.0, 2.0)
    assert chromophore_estimate(1000.0, 2.0).K_e == pytest.approx(2.0 * base.K_e, rel=1e-12)
    assert chromophore_estimate(500.0, 4.0).K_e == pytest.approx(base.K_e / 4.0, rel=1e-12)


def test_chromophore_zero_reorganisation_energy():
    est = chromophore_estimate(0.0, 3.0)
    assert est.K_e == 0.0
    assert est.bound_scale == 0.0


def test_chromophore_rejects_nonpositive_dipole():
    with pytest.raises(DomainError):
        chromophore_estimate(1000.0, 0.0)


@pytest.mark.parametrize(
    "args",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)],
    ids=["E_R-nan", "E_R-inf", "dmu-nan", "dmu-inf", "mass-nan", "mass-inf"],
)
def test_chromophore_non_finite_input_is_domain_error(args):
    with pytest.raises(DomainError, match="finite"):
        chromophore_estimate(*args)


def test_chromophore_ke_is_mass_independent():
    # K_e in mass*cm^-2 units: the 1/M in the coupling cancels the M factor
    assert chromophore_estimate(800.0, 3.0, mass=1.0).K_e == pytest.approx(
        chromophore_estimate(800.0, 3.0, mass=3.0).K_e, rel=1e-12
    )


# ---------------------------------------------------------- serialization


@pytest.mark.parametrize("model", ALL_FINITE_KE_MODELS + [OhmicFriction(42.0)])
def test_json_round_trip(model):
    text = json.dumps(model.to_json())
    clone = friction_model_from_json(json.loads(text))
    assert clone == model


def test_json_unknown_kind_rejected():
    with pytest.raises(DomainError):
        friction_model_from_json({"kind": "elastic"})
    with pytest.raises(DomainError):
        friction_model_from_json({"gamma": 1.0})
