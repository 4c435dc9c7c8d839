"""Property tests: closed-form kernels, solvers, turning points and the KIE
fit against the slow oracles, the library's Brent's method against
scipy's, and the input check's float path against its general path.

Parameters are drawn from the physical boxes the models are used in; each
property runs on about 50 examples, a fit property on about 20.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtst import units
from qtst import (
    BarrierSystem,
    CubicBarrier,
    DebyeDielectricFriction,
    DrudeFriction,
    EckartBarrier,
    FitConfig,
    Isotope,
    KIEDataset,
    LinearProteinFriction,
    OhmicFriction,
    ParabolicBarrier,
    PeakedFriction,
    TabulatedPotential,
    correction_closed,
    correction_product,
    crossover_temperature,
    fit_kie,
    kernel_upper_bound,
    kie_qtst,
    turning_points,
)
from qtst.errors import DomainError, _require_array, _require_param
from qtst.fit import _SCREEN_STEPS, _kie_model, _lattice_axis, _local_minima, _screen
from qtst.kie import load_dataset_csv
from qtst.kramers import _mu_mismatch, classical_kie, solve_effective_frequency
from qtst.spectral import _kernel_body

from oracles import (
    brentq,
    drude_mu_cubic,
    fit_multistart,
    kie_model,
    mu_scan,
    peaked_mu_quartic,
    quadrature_kernel,
    quadrature_spectrum_integral,
    screen_broadcast,
)

# derandomize: the same examples on every run, so the suite cannot flake
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


debye_models = st.builds(
    DebyeDielectricFriction, cavity_radius=st.floats(2.0, 5.0), eps_c=st.floats(1.5, 5.0)
)
peaked_models = st.builds(
    PeakedFriction,
    gamma_r=st.floats(0.0, 2000.0),
    width=st.floats(0.0, 2000.0),
    omega_r=st.floats(0.0, 3000.0),
)
drude_models = st.builds(DrudeFriction, gamma=st.floats(0.0, 5000.0), omega_d=st.floats(1.0, 5000.0))
# every built-in model with a finite K_e; an Ohmic bath's bound is infinite
finite_ke_models = st.one_of(
    drude_models,
    peaked_models,
    debye_models,
    st.builds(
        LinearProteinFriction,
        delta_gamma=st.floats(0.0, 50.0),
        slope=st.floats(0.0, 1.0),
        cutoff=st.floats(100.0, 1000.0),
    ),
)
builtin_models = st.one_of(finite_ke_models, st.builds(OhmicFriction, st.floats(0.0, 5000.0)))
# gamma = 0 edges: the mismatch must be exactly 0 at omega_b, or Brent's
# method finds no sign change
zero_friction_models = st.sampled_from([
    OhmicFriction(0.0),
    DrudeFriction(0.0, 300.0),
    PeakedFriction(0.0, 0.0, 0.0),
    LinearProteinFriction(0.0, 0.0, 400.0),
])
barrier_frequencies = st.floats(100.0, 3000.0)
# up to the z ~ 1e8 that the Matsubara product reaches, and beyond
z_arrays = st.lists(_log_uniform(1e-2, 1e9), min_size=1, max_size=40).map(np.array)


@PROPERTY
@given(model=debye_models, z=_log_uniform(1.0, 1e5))
def test_debye_kernel_matches_quadrature(model, z):
    assert math.isclose(model.laplace_kernel(z), quadrature_kernel(model, z), rel_tol=1e-9)


@PROPERTY
@given(model=debye_models)
def test_debye_spectrum_integral_matches_quadrature(model):
    assert math.isclose(
        model.spectrum_integral(), quadrature_spectrum_integral(model), rel_tol=1e-9
    )


@PROPERTY
@given(model=peaked_models, omegab=barrier_frequencies)
def test_peaked_quartic_mu_matches_scan(model, omegab):
    mu, _ = solve_effective_frequency(omegab, model)
    assert abs(mu - mu_scan(omegab, model)) <= 1e-10 * omegab
    assert abs(mu - peaked_mu_quartic(omegab, model)) <= 1e-10 * omegab


@PROPERTY
@given(model=drude_models, omegab=barrier_frequencies)
def test_drude_mu_matches_cubic(model, omegab):
    mu, _ = solve_effective_frequency(omegab, model)
    assert abs(mu - drude_mu_cubic(omegab, model.gamma, model.omega_d)) <= 1e-10 * omegab


@PROPERTY
@given(model=st.one_of(builtin_models, zero_friction_models), omegab=barrier_frequencies)
def test_mu_matches_scan_for_every_builtin_model(model, omegab):
    mu, residual = solve_effective_frequency(omegab, model)
    assert 0.0 < mu <= omegab and residual <= 1e-10 * omegab
    assert abs(mu - mu_scan(omegab, model)) <= 1e-10 * omegab


@PROPERTY
@given(model=finite_ke_models, z=z_arrays)
def test_kernel_within_bound_at_array_z(model, z):
    g = model.laplace_kernel(z)
    assert np.all(g >= 0.0)
    assert np.all(g <= kernel_upper_bound(model, z) * (1.0 + 1e-9))


@PROPERTY
@given(model=builtin_models, z=z_arrays)
def test_scalar_and_array_kernels_agree(model, z):
    scalar = [model.laplace_kernel(float(x)) for x in z]
    np.testing.assert_allclose(model.laplace_kernel(z), scalar, rtol=1e-15, atol=0.0)


# ------------------------------------------- c_qm and the classical KIE

well_frequencies = st.floats(500.0, 4000.0)
# temperatures from just above the frictionless crossover, which lies above
# the crossover of any damped barrier, to three times it
crossover_multiples = st.floats(1.05, 3.0)


@PROPERTY
@given(
    omega0=well_frequencies,
    omegab=st.floats(500.0, 2000.0),
    factor=crossover_multiples,
    omega_d=_log_uniform(100.0, 5000.0),
    gammas=st.lists(st.floats(0.0, 5000.0), min_size=2, max_size=2),
)
def test_c_qm_at_least_one_and_not_rising_with_drude_gamma(omega0, omegab, factor, omega_d, gammas):
    system = BarrierSystem(omega0, omegab, 40.0)
    T = factor * crossover_temperature(omegab)
    weak, strong = (correction_product(system, DrudeFriction(g, omega_d), T).c_qm for g in sorted(gammas))
    assert weak >= 1.0 and strong >= 1.0
    # each log carries at most term_tol = 1e-9 of error
    assert math.log(strong) <= math.log(weak) + 2e-9


isotope_pairs = st.sampled_from([(Isotope.H, Isotope.D), (Isotope.H, Isotope.T), (Isotope.D, Isotope.T)])


def _classical_kie(omegab, model, light, heavy):
    return classical_kie(BarrierSystem(2000.0, omegab, 40.0), model, light, heavy)


@PROPERTY
@given(omegab=barrier_frequencies, model=st.one_of(builtin_models, zero_friction_models), pair=isotope_pairs)
def test_classical_kie_at_least_one_and_its_ratio_to_root_mass_ratio(omegab, model, pair):
    # With mu^2 + mu*g(mu) = omega_b^2 for each isotope, the KIE over
    # sqrt(m_h/m_l) is exactly (mu_h + g(mu_h))/(mu_l + g(mu_l)): at most 1
    # where z + g(z) does not fall between the two mu
    light, heavy = pair
    kie = _classical_kie(omegab, model, light, heavy)
    assert kie >= 1.0 - 1e-12
    mu_l, mu_h = (solve_effective_frequency(units._isotope_scaled(omegab, iso), model)[0] for iso in pair)
    ratio = (mu_h + model.laplace_kernel(mu_h)) / (mu_l + model.laplace_kernel(mu_l))
    assert math.isclose(kie / math.sqrt(heavy.mass_number / light.mass_number), ratio, rel_tol=1e-9)


@PROPERTY
@given(omegab=barrier_frequencies, gamma=st.floats(0.0, 5000.0), pair=isotope_pairs)
def test_ohmic_classical_kie_at_most_root_mass_ratio(omegab, gamma, pair):
    light, heavy = pair
    kie = _classical_kie(omegab, OhmicFriction(gamma), light, heavy)
    assert 1.0 - 1e-12 <= kie <= math.sqrt(heavy.mass_number / light.mass_number) * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "model, omegab",
    [(DrudeFriction(4000.0, 200.0), 1000.0), (DebyeDielectricFriction(cavity_radius=2.0, eps_c=2.0), 100.0)],
    ids=["drude", "debye"],
)
def test_classical_kie_exceeds_root_mass_ratio_where_friction_falls_steeply(model, omegab):
    # a kernel falling faster than z rises (g' < -1) between the two mu
    assert _classical_kie(omegab, model, Isotope.H, Isotope.D) > math.sqrt(2.0) * 1.02


@PROPERTY
@given(omega0=well_frequencies, omegab=barrier_frequencies, factor=crossover_multiples)
def test_frictionless_product_equals_closed_form(omega0, omegab, factor):
    T = factor * crossover_temperature(omegab)
    c_qm = correction_product(BarrierSystem(omega0, omegab, 40.0), None, T).c_qm
    assert math.isclose(c_qm, correction_closed(omega0, omegab, T), rel_tol=1e-9)


# ------------------------------------------------------------------ fit_kie

FIT_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


def synthetic_series(seed):
    """A measured-like KIE(T) series: the model at random (omega0, omegab) for
    H:D or H:T at 9 temperatures, times 3% log-normal scatter; half the
    seeds carry 5% sigmas."""
    rng = np.random.default_rng(seed)
    omega0, omegab = rng.uniform(1900.0, 3200.0), rng.uniform(850.0, 1100.0)
    heavy = Isotope.D if rng.random() < 0.5 else Isotope.T
    T = 275.0 + 6.25 * np.arange(9)
    kie = np.array([kie_qtst(omega0, omegab, float(t), Isotope.H, heavy).ratio for t in T])
    kie *= np.exp(0.03 * rng.standard_normal(T.size))
    sigma = tuple(0.05 * kie) if seed % 2 else None
    return KIEDataset(tuple(T), tuple(kie), sigma, Isotope.H, heavy)


series = st.integers(0, 2**32 - 1).map(synthetic_series)


def _fields(res):
    return (res.omega0, res.omegab, res.residual_norm, res.covariance, res.n_starts_converged)


@FIT_PROPERTY
@given(data=series, perm=st.permutations(range(9)))
def test_fit_bit_identical_under_point_permutation(data, perm):
    def take(column):
        return None if column is None else tuple(column[i] for i in perm)

    shuffled = KIEDataset(take(data.T_K), take(data.kie), take(data.sigma), data.light, data.heavy)
    assert _fields(fit_kie(shuffled)) == _fields(fit_kie(data))


@FIT_PROPERTY
@given(data=series, scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_fit_invariant_to_a_common_sigma_scale(data, scale):
    sigma = data.sigma or (1.0,) * len(data)
    base = KIEDataset(data.T_K, data.kie, sigma, data.light, data.heavy)
    scaled = KIEDataset(data.T_K, data.kie, tuple(scale * s for s in sigma), data.light, data.heavy)
    r1, r2 = fit_kie(base), fit_kie(scaled)
    assert math.isclose(r2.omega0, r1.omega0, rel_tol=1e-6)
    assert math.isclose(r2.omegab, r1.omegab, rel_tol=1e-6)


@FIT_PROPERTY
@given(data=series)
def test_fit_cost_at_most_the_lattice_minimum(data):
    # the default lattice, 50 and 25 cm^-1 over the fit's box
    omega0 = np.linspace(500.0, 5000.0, 91)
    omegab = np.linspace(100.0, 3000.0, 117)
    T, y, sigma = data.sorted_arrays()
    w = 1.0 if sigma is None else 1.0 / sigma
    lattice_min = float(np.min(screen_broadcast(T, y, w, omega0, omegab, data.light, data.heavy)))
    res = fit_kie(data)
    assert 0.5 * res.residual_norm**2 <= lattice_min * (1.0 + 1e-12)


_SCREEN_PAIRS = [(Isotope.H, Isotope.D), (Isotope.H, Isotope.T), (Isotope.D, Isotope.T)]
# (starts, box) per axis, omega0 then omegab: the default starts and the
# benchmark's 6 on the fit's box, and off-lattice starts on an off-lattice
# box, whose axes are unevenly spaced
_FIT_BOX = ((500.0, 5000.0), (100.0, 3000.0))
_SCREEN_CONFIGS = [
    ((FitConfig().omega0_starts, FitConfig().omegab_starts), _FIT_BOX),
    (((2000.0, 3000.0), (700.0, 1100.0, 1500.0)), _FIT_BOX),
    (((2010.5, 3333.3), (712.3,)), ((700.0, 4321.0), (150.0, 2600.0))),
]


@st.composite
def screen_cases(draw):
    """(T, y, w, omega0 axis, omegab axis, light, heavy): a 5- to 12-point
    series of the model with 3% scatter, its coldest point 1.03 to 2.5 times
    the light isotope's crossover at a barrier frequency of 300 to 1500
    cm^-1, so lattice columns above that frequency are clamped at it. The
    scatter keeps each cell's residuals away from 0: the two screens' models
    differ by about 1e-14 relative, and a cell's cost by that times
    model/residual, at most 6.3e-13 in these draws (at the best cell)."""
    light, heavy = draw(st.sampled_from(_SCREEN_PAIRS))
    starts, box = draw(st.sampled_from(_SCREEN_CONFIGS))
    omega0 = draw(st.floats(1500.0, 4000.0))
    omegab = draw(st.floats(300.0, 1500.0))
    T_min = draw(st.floats(1.03, 2.5)) * crossover_temperature(units._isotope_scaled(omegab, light))
    T = T_min + np.linspace(0.0, draw(st.floats(10.0, 100.0)), draw(st.integers(5, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.array([kie_qtst(omega0, omegab, float(t), light, heavy).ratio for t in T])
    y *= np.exp(0.03 * rng.standard_normal(T.size))
    w = 1.0 / (draw(st.floats(0.02, 0.1)) * y) if draw(st.booleans()) else np.ones_like(T)
    axes = tuple(_lattice_axis(*args) for args in zip(box, _SCREEN_STEPS, starts))
    return (T, y, w, *axes, light, heavy)


@PROPERTY
@given(case=screen_cases())
def test_screen_equals_the_broadcast_oracle(case):
    cost, oracle = _screen(*case), screen_broadcast(*case)
    finite = np.isfinite(oracle)
    assert np.array_equal(np.isfinite(cost), finite)
    assert np.allclose(cost[finite], oracle[finite], rtol=1e-12, atol=0.0)
    assert _local_minima(cost)[:3].tolist() == _local_minima(oracle)[:3].tolist()


@PROPERTY
@given(
    pair=st.sampled_from(_SCREEN_PAIRS),
    omega0=st.floats(500.0, 5000.0),
    omegab=st.floats(100.0, 3000.0),
    clamped=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=4),
    free=st.lists(st.floats(1.05, 3.0), min_size=1, max_size=6),
)
def test_fit_jacobian_matches_central_differences(pair, omega0, omegab, clamped, free):
    """The polish's analytic Jacobian against central differences (relative
    step 1e-6) of the oracle's model, over the default box, for rows below
    the clamp at 1.02*T0 (T/T0 from 0.5 to 1) and above it (1.05 to 3).
    Each row is scaled by model*CM1_TO_K/T_clamped, the size of its
    derivatives; the differences are within 7.4e-9 of that on 3,000 random
    cases. The model itself is within 5.3e-15*(1 + |log KIE|) of the
    oracle's there."""
    light, heavy = pair
    T0 = crossover_temperature(units._isotope_scaled(omegab, light))
    T = T0 * np.array(clamped + free)
    model, d_omega0, d_omegab = _kie_model(T, omega0, omegab, light, heavy)
    oracle = kie_model(T, omega0, omegab, light, heavy)
    np.testing.assert_array_less(np.abs(model / oracle - 1.0), 2e-14 * (1.0 + np.abs(np.log(oracle))))

    h0, hb = 1e-6 * omega0, 1e-6 * omegab
    expected_omega0 = (kie_model(T, omega0 + h0, omegab, light, heavy)
                       - kie_model(T, omega0 - h0, omegab, light, heavy)) / (2.0 * h0)
    expected_omegab = (kie_model(T, omega0, omegab + hb, light, heavy)
                       - kie_model(T, omega0, omegab - hb, light, heavy)) / (2.0 * hb)
    scale = model * units.CM1_TO_K / np.maximum(T, 1.02 * T0)
    np.testing.assert_array_less(np.abs(d_omega0 - expected_omega0), 1e-7 * scale)
    np.testing.assert_array_less(np.abs(d_omegab - expected_omegab), 1e-7 * scale)


def _assert_matches_multistart(data, rel):
    res, oracle = fit_kie(data), fit_multistart(data)
    assert math.isclose(res.omega0, oracle.omega0, rel_tol=rel)
    assert math.isclose(res.omegab, oracle.omegab, rel_tol=rel)
    assert math.isclose(res.implied_T0, oracle.implied_T0, rel_tol=rel)
    assert math.isclose(res.residual_norm, oracle.residual_norm, rel_tol=1e-12)
    assert res.valid == oracle.valid


@pytest.mark.parametrize("name, pair", [("fig3_mcm.csv", "H:D"), ("fig4_mao.csv", "H:T")])
def test_fit_matches_multistart_oracle_on_bundled_series(name, pair):
    # both optima are where J^T r = 0 to rounding: 2e-11 apart at most
    _assert_matches_multistart(KIEDataset.from_csv_text(load_dataset_csv(name), pair=pair), 1e-10)


@FIT_PROPERTY
@given(data=series)
def test_fit_matches_multistart_oracle_on_synthetic_series(data):
    # The polish stops on its Gauss-Newton step and the oracle finishes with
    # Gauss-Newton steps, so both optima are where J^T r = 0 to rounding:
    # 2.7e-10 relative apart at most on 160 seeded series; the costs agree
    # to rounding.
    _assert_matches_multistart(data, 1e-8)


# ------------------------------------------------------------ turning points


@st.composite
def barrier_tables(draw):
    """A table at 0 at both ends, with an interior top and any lesser humps."""
    n = draw(st.integers(4, 40))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    x = np.cumsum([draw(st.floats(-5.0, 5.0))] + steps)
    U = np.array([0.0] + draw(st.lists(st.floats(0.0, 50.0), min_size=n - 2, max_size=n - 2)) + [0.0])
    U[draw(st.integers(1, n - 2))] = U.max() + draw(st.floats(1e-3, 10.0))
    return TabulatedPotential(x, U)


masses = st.floats(1.0, 3.0)
closed_form_barriers = st.one_of(
    st.builds(ParabolicBarrier, E_b=st.floats(1.0, 100.0), omega_b=st.floats(200.0, 3000.0), mass=masses),
    st.builds(EckartBarrier, V0=st.floats(1.0, 100.0), width=st.floats(0.1, 2.0), mass=masses),
)
barriers = st.one_of(
    closed_form_barriers,
    st.builds(CubicBarrier, omega_0=st.floats(200.0, 3000.0), E_b=st.floats(1.0, 100.0), mass=masses),
    barrier_tables(),
)
energy_fractions = st.floats(1e-6, 1.0 - 1e-6, exclude_min=True, exclude_max=True)


def _closed_form_turning_point(pot, E):
    if isinstance(pot, ParabolicBarrier):
        return math.sqrt(2.0 * (pot.E_b - E) / (units.CURVATURE_KJ_PER_MOL * pot.mass * pot.omega_b**2))
    return pot.width * math.acosh(math.sqrt(pot.V0 / E))


@PROPERTY
@given(pot=barriers, frac=energy_fractions)
def test_each_bracket_holds_a_sign_change_and_its_turning_point(pot, frac):
    E = frac * pot.barrier_height
    (l_lo, l_hi), (r_lo, r_hi) = pot.brackets(E)
    assert l_lo < l_hi <= pot.barrier_position <= r_lo < r_hi
    # U rises through E in the left bracket and falls through it in the right
    assert pot.energy(l_lo) < E <= pot.energy(l_hi)
    assert pot.energy(r_lo) >= E > pot.energy(r_hi)
    x1, x2 = turning_points(pot, E)
    assert l_lo <= x1 <= l_hi and r_lo <= x2 <= r_hi
    if isinstance(pot, TabulatedPotential):
        # the innermost crossings: no knot between the brackets lies below E
        assert all(u >= E for x, u in zip(pot._knots, pot._U) if l_hi <= x <= r_lo)


@PROPERTY
@given(pot=closed_form_barriers, frac=energy_fractions)
def test_turning_points_match_the_closed_forms(pot, frac):
    # to 1e-12 of the bracket's scale, as turning_points promises; relative
    # to the point itself the root is ill-conditioned near the top, where
    # U - E is known only to an ulp of the barrier height
    E = frac * pot.barrier_height
    exact = _closed_form_turning_point(pot, E)
    (lo, hi), _ = pot.brackets(E)
    tol = 1e-12 * max(hi - lo, abs(lo), abs(hi))
    x1, x2 = turning_points(pot, E)
    assert abs(x1 + exact) <= tol and abs(x2 - exact) <= tol, (x1, x2, exact, tol)


# ------------------------------------------------ Brent's method against scipy

# a few examples each: every one runs two full root solves
BRENT = settings(max_examples=30, deadline=None, derandomize=True)


@BRENT
@given(model=builtin_models, omegab=barrier_frequencies)
def test_mu_solve_is_scipys_brentq_bit_for_bit(model, omegab):
    kernel = _kernel_body(model)
    expect = brentq(lambda mu: _mu_mismatch(mu, omegab, kernel), 1e-12 * omegab, omegab)
    assert solve_effective_frequency(omegab, model)[0].hex() == expect.hex()


@BRENT
@given(pot=st.one_of(st.builds(EckartBarrier, V0=st.floats(1.0, 100.0), width=st.floats(0.1, 2.0), mass=masses),
                     st.builds(CubicBarrier, omega_0=st.floats(200.0, 3000.0), E_b=st.floats(1.0, 100.0),
                               mass=masses),
                     barrier_tables()),
       frac=energy_fractions)
def test_turning_points_are_scipys_brentq_bit_for_bit(pot, frac):
    E = frac * pot.barrier_height
    expect = [brentq(lambda x: pot.energy(x) - E, lo, hi, xtol=1e-12 * max(hi - lo, abs(lo), abs(hi)))
              for lo, hi in pot.brackets(E)]
    assert [x.hex() for x in turning_points(pot, E)] == [x.hex() for x in expect]


# ------------------------------------- the input check: float path = general path

# the three flag settings of _require_param and the test each states
CHECK_FLAGS = [
    pytest.param({}, "finite and >= 0", id="non-negative"),
    pytest.param({"positive": True}, "finite and > 0", id="positive"),
    pytest.param({"signed": True}, "finite", id="signed"),
]
edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
])


@pytest.mark.parametrize("flags, want", CHECK_FLAGS)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(v=st.one_of(edge_floats, st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_float_check_gives_what_the_general_check_gives(flags, want, v):
    # a Python float is checked by comparison alone; np.float64 is not
    # exactly a float, so it takes the general path through numpy
    try:
        general = _require_param("x", np.float64(v), **flags)
    except DomainError:
        general = None
    try:
        got = _require_param("x", v, **flags)
    except DomainError as exc:
        assert general is None, (v, general)
        assert str(exc) == f"x must be {want}, got {v!r}"
    else:
        assert type(got) is float and general is not None
        assert got.hex() == general.hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(v=st.one_of(edge_floats, st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_array_check_of_a_float_is_the_number_check(v):
    # _require_array's float path is _require_param's, for every flag setting
    for flags in ({}, {"positive": True}, {"signed": True}):
        outcomes = []
        for check in (_require_param, _require_array):
            try:
                outcomes.append(check("x", v, **flags).hex())
            except DomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (v, flags)


@pytest.mark.parametrize(
    "check, value, flags, expect",
    [
        (_require_param, 3, {"positive": True}, 3.0),
        (_require_param, 0, {}, 0.0),
        (_require_param, -2, {"signed": True}, -2.0),
        (_require_param, True, {"positive": True}, 1.0),
        (_require_param, np.float64(2.5), {"positive": True}, 2.5),
        (_require_param, np.float32(0.5), {}, 0.5),
        (_require_param, np.array(4.0), {"positive": True}, 4.0),
        (_require_array, [1.0, 2.0], {"positive": True}, [1.0, 2.0]),
        (_require_array, np.array([0.0, 3.0]), {}, [0.0, 3.0]),
    ],
    ids=["int", "zero-int", "negative-int", "bool", "float64", "float32", "0-d", "list", "array"],
)
def test_non_float_inputs_keep_the_general_path(check, value, flags, expect):
    got = check("x", value, **flags)
    if isinstance(expect, list):
        assert isinstance(got, np.ndarray) and got.dtype == float and got.tolist() == expect
    else:
        assert type(got) is float and got == expect


@pytest.mark.parametrize(
    "check, value, flags, message",
    [
        (_require_param, -3, {}, "x must be finite and >= 0, got -3"),
        (_require_param, False, {"positive": True}, "x must be finite and > 0, got False"),
        (_require_param, np.float64(-1.0), {"positive": True}, "x must be finite and > 0, got np.float64(-1.0)"),
        (_require_param, np.array(math.nan), {"signed": True}, "x must be finite, got array(nan)"),
        (_require_array, [1.0, -2.0], {}, "x must be finite and >= 0, got [1.0, -2.0]"),
        (_require_param, "abc", {}, "x must be a number or a regular array of numbers, got 'abc'"),
        (_require_array, [1.0, [2.0]], {}, "x must be a number or a regular array of numbers, got [1.0, [2.0]]"),
        (_require_param, [1.0, 2.0], {}, "x must be a single number, got [1.0, 2.0]"),
        (_require_param, np.array([4.0]), {"positive": True}, "x must be a single number, got array([4.])"),
    ],
    ids=["int", "bool", "float64", "0-d", "list", "string", "ragged", "list-for-a-number", "array-for-a-number"],
)
def test_non_float_inputs_keep_the_general_errors(check, value, flags, message):
    with pytest.raises(DomainError) as info:
        check("x", value, **flags)
    assert str(info.value) == message
