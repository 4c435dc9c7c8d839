import math
import warnings
from dataclasses import FrozenInstanceError, asdict, dataclass, field, fields, replace

import numpy as np
import pytest

from qtst import (
    BarrierSystem,
    DrudeFriction,
    Isotope,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
    classical_kie,
    classical_rate,
    crossover_temperature,
    effective_barrier_frequency,
)
from qtst import units
from qtst.errors import DomainError, QtstError, SolverConvergenceError
from qtst.kramers import _mu_mismatch, _mu_mismatch_array, solve_effective_frequency

from oracles import mu_scan_float64

SYSTEM = BarrierSystem(omega0_H=3000.0, omegab_H=1000.0, barrier_kJ_per_mol=40.0)


# --------------------------------------------------- effective frequency


def test_frictionless_mu_equals_omegab():
    eb = effective_barrier_frequency(SYSTEM, None)
    assert eb.mu_cm1 == SYSTEM.omegab
    assert eb.residual == 0.0


def test_ohmic_mu_closed_form():
    # gamma = omega_b: mu = omega_b*(sqrt(5)/2 - 1/2)
    eb = effective_barrier_frequency(SYSTEM, OhmicFriction(1000.0))
    assert eb.mu_cm1 == pytest.approx(1000.0 * (math.sqrt(1.25) - 0.5), rel=1e-12)
    assert abs(eb.residual) < 1e-10 * 1000.0


@pytest.mark.parametrize("gamma_over_wb", [0.1, 0.5, 2.0, 10.0, 100.0])
def test_ohmic_mu_quadratic_oracle(gamma_over_wb):
    wb = 1000.0
    g = gamma_over_wb * wb
    mu, _ = solve_effective_frequency(wb, OhmicFriction(g))
    assert mu == pytest.approx(math.sqrt(0.25 * g * g + wb * wb) - 0.5 * g, rel=1e-11)


@pytest.mark.parametrize("gamma_over_wb", [1e4, 1e6])
def test_ohmic_mu_relative_precision_at_strong_friction(gamma_over_wb):
    # mu ~ omega_b^2/gamma lies far below omega_b and is still solved to
    # relative machine precision; the oracle is the quadratic's root in the
    # form that does not cancel, which the test above cannot use here
    wb = 1000.0
    g = gamma_over_wb * wb
    mu, _ = solve_effective_frequency(wb, OhmicFriction(g))
    assert mu == pytest.approx(2.0 * wb * wb / (g + math.sqrt(g * g + 4.0 * wb * wb)), rel=1e-14)


def test_drude_matches_ohmic_at_large_cutoff():
    wb = 1000.0
    mu_ohmic, _ = solve_effective_frequency(wb, OhmicFriction(wb))
    mu_drude, _ = solve_effective_frequency(wb, DrudeFriction(wb, 1e6 * wb))
    assert mu_drude == pytest.approx(mu_ohmic, rel=1e-6)


def test_drude_mu_vs_independent_cubic_oracle():
    # clear the denominator of mu^2 - wb^2 + mu*wd*g/(wd+mu) = 0 by hand
    wb, g, wd = 1000.0, 700.0, 250.0
    mu, _ = solve_effective_frequency(wb, DrudeFriction(g, wd))
    roots = np.roots([1.0, wd, g * wd - wb * wb, -wb * wb * wd])
    positive = [r.real for r in roots if abs(r.imag) < 1e-8 and r.real > 0]
    assert len(positive) == 1
    assert mu == pytest.approx(positive[0], rel=1e-10)


def test_mu_bounded_by_omegab_and_positive():
    for g in (0.0, 10.0, 1e4):
        model = None if g == 0 else OhmicFriction(g)
        mu, _ = solve_effective_frequency(500.0, model)
        assert 0.0 < mu <= 500.0


def test_mu_monotone_nonincreasing_in_friction_strength():
    wb = 1000.0
    for build in (lambda g: OhmicFriction(g), lambda g: DrudeFriction(g, 300.0)):
        mus = [solve_effective_frequency(wb, build(g) if g else None)[0] for g in np.linspace(0, 100 * wb, 40)]
        assert all(a >= b - 1e-9 for a, b in zip(mus, mus[1:]))


def test_peaked_builtin_kernel_has_unique_root_no_warning():
    import warnings

    # mu*(mu + gamma_hat(mu)) is strictly increasing for the built-in
    # peaked kernel, so the solve finds exactly one crossing
    model = PeakedFriction(gamma_r=8000.0, width=30.0, omega_r=500.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, residual = solve_effective_frequency(1000.0, model)
    assert 0.0 < mu <= 1000.0
    assert residual < 1e-10 * 1000.0


def test_structured_bath_multiple_roots_returns_largest_with_warning():
    import warnings
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class BumpKernel(PeakedFriction):
        # sharply resonant kernel engineered so mu*(mu+g(mu)) = wb^2 has
        # three crossings on (0, wb]
        def laplace_kernel(self, z):
            return 2000.0 * math.exp(-(((z - 800.0) / 30.0) ** 2))

    model = BumpKernel(gamma_r=1.0, width=1.0, omega_r=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mu, _ = solve_effective_frequency(1000.0, model)
    multi = [w for w in caught if "roots" in str(w.message)]
    assert multi, "expected a multiplicity warning for this bath"
    # the largest root sits where the bump has died off, mu ~ omega_b
    assert mu == pytest.approx(1000.0, rel=1e-6)


@dataclass(frozen=True)
class GaussianBump(PeakedFriction):
    # a bump of height gamma_r and width `width` at omega_r; with omega_b =
    # 1000 at omega_r = 900 and width 40, mu*(mu + g(mu)) = omega_b^2 has one
    # root at height 100 and three at height 1000. `calls` keeps the type of
    # every z the kernel is called with.
    calls: list = field(default_factory=list, compare=False, repr=False)

    def laplace_kernel(self, z):
        self.calls.append(type(z))
        return self.gamma_r * math.exp(-(((z - self.omega_r) / self.width) ** 2))


@pytest.mark.parametrize("height, roots", [(100.0, 1), (1000.0, 3)])
def test_multi_root_scan_equals_the_float64_scan_bit_for_bit(height, roots):
    model, oracle_model = GaussianBump(height, 40.0, 900.0), GaussianBump(height, 40.0, 900.0)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        mu, residual = solve_effective_frequency(1000.0, model)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        assert (mu, residual) == mu_scan_float64(1000.0, oracle_model)
    assert 998.0 < mu < 1000.0
    assert [(w.category, str(w.message)) for w in got] == [(w.category, str(w.message)) for w in want]
    assert len(got) == (roots > 1)
    if roots > 1:
        assert got[0].category is RuntimeWarning and f"has {roots} roots" in str(got[0].message)
    # the user's kernel sees Python floats only, 10,000 scan points and more
    assert set(model.calls) == {float} and len(model.calls) > 10_000
    assert np.float64 in set(oracle_model.calls)


@dataclass(frozen=True)
class GaussianBumpBody(PeakedFriction):
    # GaussianBump's kernel as the unchecked body, behind the checked entry
    def _kernel(self, z):
        return self.gamma_r * math.exp(-(((z - self.omega_r) / self.width) ** 2))


def test_peaked_subclass_with_its_own_kernel_body_takes_the_scan():
    model = GaussianBumpBody(1000.0, 40.0, 900.0)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        mu, residual = solve_effective_frequency(1000.0, model)
    assert [str(w.message) for w in got] == [
        "effective-frequency equation has 3 roots for this structured bath; returning the largest"
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert (mu, residual) == mu_scan_float64(1000.0, GaussianBump(1000.0, 40.0, 900.0))
    with pytest.raises(DomainError):
        model.laplace_kernel(0.0)


@dataclass(frozen=True)
class CountingBump(PeakedFriction):
    # GaussianBump's kernel; `zs` keeps every z it is called with, in order
    zs: list = field(default_factory=list, compare=False, repr=False)

    def laplace_kernel(self, z):
        self.zs.append(z)
        return self.gamma_r * math.exp(-(((z - self.omega_r) / self.width) ** 2))


def test_scan_calls_the_kernel_once_per_grid_point_in_order():
    model = CountingBump(1000.0, 40.0, 900.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solve_effective_frequency(1000.0, model)
    grid = np.linspace(1e-12 * 1000.0, 1000.0, 10_000).tolist()
    assert model.zs[:10_000] == grid
    # the rest are Brent's method in the three sign changes and the residual
    assert 10_000 < len(model.zs) < 10_200


@pytest.mark.parametrize("r", [0.0, 1e-3, 1.0, 100.0, 1e8, 1e300, -1e-3, -1.0, -100.0, -1e8, -1e12, -1e300])
@pytest.mark.parametrize("omegab", [1000.0, 700.0, 1e-3])
def test_scan_mismatch_array_equals_the_scalar_mismatch_bit_for_bit(r, omegab):
    # on the grid of the scan, a bump of peak r = gamma_hat/omega_b sweeps
    # every kernel value from 0 up to r; at |r| = 1e300, r*r overflows to inf
    # without a warning, as it does in Python floats. A negative peak, which
    # no built-in model has, takes the other form of the mismatch
    bump = CountingBump(abs(r) * omegab, 0.3 * omegab, 0.9 * omegab).laplace_kernel
    kernel = bump if r >= 0.0 else lambda z: -bump(z)
    points = np.linspace(1e-12 * omegab, omegab, 10_000)
    grid = points.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mu_mismatch_array(points, np.array([kernel(x) for x in grid]), omegab)
    assert got.tolist() == [_mu_mismatch(x, omegab, kernel) for x in grid]


@dataclass(frozen=True)
class FarNegativeOhmic(OhmicFriction):
    # a user kernel of -2e11 at every z: at omega_b = 1000 the mismatch form
    # for r >= 0, wb/(sqrt(1 + r^2/4) + r/2), would divide by an exact 0
    def _kernel(self, z):
        return -2e11


@dataclass(frozen=True)
class FarNegativePeaked(PeakedFriction):
    def laplace_kernel(self, z):
        return -2e11


@pytest.mark.parametrize("model", [FarNegativeOhmic(0.0), FarNegativePeaked(0.0, 1.0, 1.0)],
                         ids=["brent", "scan"])
def test_a_far_negative_user_kernel_raises_a_qtst_error(model):
    with pytest.raises(QtstError):
        solve_effective_frequency(1000.0, model)


@dataclass(frozen=True)
class TypedBump(PeakedFriction):
    # GaussianBump's kernel returning an int or an np.float64
    cast: type = float

    def laplace_kernel(self, z):
        return self.cast(round(self.gamma_r * math.exp(-(((z - self.omega_r) / self.width) ** 2))))


@pytest.mark.parametrize("cast", [int, np.float64])
def test_scan_takes_a_kernel_returning_an_int_or_a_numpy_float(cast):
    model, oracle = TypedBump(1000.0, 40.0, 900.0, cast), TypedBump(1000.0, 40.0, 900.0, float)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        mu, residual = solve_effective_frequency(1000.0, model)
    assert "has 3 roots" in str(got[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert (mu, residual) == mu_scan_float64(1000.0, oracle)


class FailingBump(PeakedFriction):
    # a user kernel that rejects the upper half of the grid
    def laplace_kernel(self, z):
        if z > 500.0:
            raise DomainError(f"z = {z} out of range")
        return 0.0


def test_scan_passes_a_kernel_domain_error_through():
    with pytest.raises(DomainError) as exc:
        solve_effective_frequency(1000.0, FailingBump(1.0, 1.0, 1.0))
    assert type(exc.value) is DomainError


@pytest.mark.parametrize("iso", list(Isotope))
def test_barrier_frequencies_are_isotope_scaled_once(iso):
    system = BarrierSystem(3000.0, 1000.0, 40.0, iso)
    assert system.omega0 == units.isotope_frequency(3000.0, iso)
    assert system.omegab == units.isotope_frequency(1000.0, iso)
    # the two frequencies are not fields: equality, hash, repr and asdict
    # see the four parameters only
    assert [f.name for f in fields(system)] == ["omega0_H", "omegab_H", "barrier_kJ_per_mol", "isotope"]
    twin = BarrierSystem(3000.0, 1000.0, 40.0, iso)
    assert system == twin and hash(system) == hash(twin)
    assert system != BarrierSystem(3000.0, 1000.0, 41.0, iso)
    assert repr(system) == (
        f"BarrierSystem(omega0_H=3000.0, omegab_H=1000.0, barrier_kJ_per_mol=40.0, isotope={iso!r})"
    )
    assert set(asdict(system)) == {"omega0_H", "omegab_H", "barrier_kJ_per_mol", "isotope"}
    with pytest.raises(FrozenInstanceError):
        system.omega0 = 1.0
    # replace and with_isotope construct anew, so both frequencies follow
    moved = replace(system, omega0_H=2800.0, omegab_H=900.0)
    assert (moved.omega0, moved.omegab) == (
        units.isotope_frequency(2800.0, iso), units.isotope_frequency(900.0, iso)
    )
    for other in Isotope:
        swapped = system.with_isotope(other)
        assert swapped == BarrierSystem(3000.0, 1000.0, 40.0, other)
        assert (swapped.omega0, swapped.omegab) == (
            units.isotope_frequency(3000.0, other), units.isotope_frequency(1000.0, other)
        )


def test_barrier_numbers_are_stored_as_floats():
    system = BarrierSystem(np.float64(3000.0), np.int64(1000), np.array(40.0), Isotope.D)
    assert [type(getattr(system, f.name)) for f in fields(system)[:3]] == [float] * 3
    assert type(system.omega0) is float and type(system.omegab) is float
    assert system == BarrierSystem(3000.0, 1000.0, 40.0, Isotope.D)
    assert repr(system) == repr(BarrierSystem(3000.0, 1000.0, 40.0, Isotope.D))


@pytest.mark.parametrize("params", [(200.0, 0.0, 600.0), (0.0, 150.0, 600.0), (0.0, 0.0, 0.0)])
def test_frictionless_peaked_bath_has_one_root(params):
    # a zero kernel leaves f(mu) = mu - omega_b, whose only root is omega_b
    import warnings
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ScannedPeaked(PeakedFriction):
        # same kernel, but an override sends the solve down the scan
        def laplace_kernel(self, z):
            return PeakedFriction.laplace_kernel(self, z)

    for model in (PeakedFriction(*params), ScannedPeaked(*params)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, residual = solve_effective_frequency(1000.0, model)
        assert mu == 1000.0 and residual == 0.0


@pytest.mark.parametrize("model", [OhmicFriction(0.0), DrudeFriction(0.0, 300.0),
                                   LinearProteinFriction(0.0, 0.0, 400.0)],
                         ids=["ohmic", "drude", "linear_protein"])
@pytest.mark.parametrize("omegab", [771.4763345553004, 768.8624060818676, 1542.525816914095,
                                    2906.9859507814745, 1000.0])
def test_zero_friction_mu_is_omegab(model, omegab):
    # at the first four omega_b, omega_b^2/sqrt(omega_b^2) rounds one ulp
    # below omega_b
    mu, residual = solve_effective_frequency(omegab, model)
    assert mu == omegab and residual == 0.0


class NegativeKernel(OhmicFriction):
    # mu^2 + mu*gamma_hat(mu) stays below omega_b^2 on the whole bracket
    def laplace_kernel(self, z):
        return -self.gamma


class NegativePeakedKernel(PeakedFriction):
    def laplace_kernel(self, z):
        return -self.gamma_r


@pytest.mark.parametrize("model", [NegativeKernel(500.0), NegativePeakedKernel(500.0, 1.0, 1.0)],
                         ids=["brent", "scan"])
def test_no_sign_change_raises_solver_error(model):
    with pytest.raises(SolverConvergenceError) as exc:
        solve_effective_frequency(1000.0, model)
    assert exc.value.bracket == (1e-12 * 1000.0, 1000.0)


def test_invalid_omegab_rejected():
    with pytest.raises(DomainError):
        solve_effective_frequency(0.0, None)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: BarrierSystem(math.nan, 1000.0, 40.0), id="omega0-nan"),
    pytest.param(lambda: BarrierSystem(3000.0, math.inf, 40.0), id="omegab-inf"),
    pytest.param(lambda: BarrierSystem(3000.0, 1000.0, math.nan), id="barrier-nan"),
    pytest.param(lambda: BarrierSystem(3000.0, 1000.0, math.inf), id="barrier-inf"),
    pytest.param(lambda: classical_rate(SYSTEM, None, math.nan), id="T-nan"),
    pytest.param(lambda: classical_rate(SYSTEM, None, math.inf), id="T-inf"),
    pytest.param(lambda: solve_effective_frequency(math.nan, OhmicFriction(10.0)), id="mu-omegab-nan"),
    pytest.param(lambda: solve_effective_frequency(math.inf, None), id="mu-omegab-inf"),
])
def test_non_finite_input_rejected(call):
    with pytest.raises(DomainError):
        call()


# ------------------------------------------------- crossover temperature


def test_crossover_constant():
    assert crossover_temperature(1000.0) == pytest.approx(228.99, abs=0.01)
    assert crossover_temperature(1300.0) == pytest.approx(297.7, abs=0.1)
    assert 295.0 < crossover_temperature(1300.0) < 305.0
    assert crossover_temperature(0.0) == 0.0


def test_crossover_rejects_negative():
    with pytest.raises(DomainError):
        crossover_temperature(-1.0)


def test_crossover_on_an_array_equals_a_scalar_loop():
    mu = np.geomspace(1.0, 5000.0, 24).reshape(4, 6)
    scalar = [[crossover_temperature(float(m)) for m in row] for row in mu]
    np.testing.assert_allclose(crossover_temperature(mu), scalar, rtol=1e-15, atol=0.0)
    assert crossover_temperature(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_crossover_rejects_a_bad_entry_of_an_array(bad):
    mu = np.full(5, 1000.0)
    mu[3] = bad
    with pytest.raises(DomainError):
        crossover_temperature(mu)
    with pytest.raises(DomainError):
        crossover_temperature(bad)


def test_crossover_temperature_nonincreasing_in_friction():
    wb = 1000.0
    for wd, flat in ((100.0 * wb, False), (0.01 * wb, True)):
        t0s = [
            effective_barrier_frequency(SYSTEM, DrudeFriction(g, wd)).T0_K
            for g in np.linspace(1.0, 3.0 * wb, 10)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(t0s, t0s[1:]))
        drop = 1.0 - t0s[-1] / crossover_temperature(wb)
        if flat:
            # slow bath barely suppresses the crossover temperature
            assert drop < 0.05
        else:
            # fast bath suppresses it strongly
            assert drop > 0.3


# --------------------------------------------------------- classical rate


def test_classical_rate_frictionless_prefactor():
    r = classical_rate(BarrierSystem(3000.0, 1000.0, 0.0), None, 300.0)
    # E_b = 0 and mu = omega_b: rate is omega_0/(2 pi), i.e. c*omega0 in Hz
    assert r.rate_per_s == pytest.approx(2.99792458e10 * 3000.0, rel=1e-12)
    assert r.rate_cm1 == pytest.approx(3000.0 / (2.0 * math.pi), rel=1e-12)
    assert r.c_qm == 1.0 and r.regime == "classical"


def test_classical_rate_arrhenius_factor():
    r300 = classical_rate(SYSTEM, None, 300.0)
    kb = 1.380649e-23 * 6.02214076e23 / 1000.0
    expected = 2.99792458e10 * 3000.0 * math.exp(-40.0 / (kb * 300.0))
    assert r300.rate_per_s == pytest.approx(expected, rel=1e-9)


def test_classical_rate_two_step_oracle_with_friction():
    # independent two-step oracle: closed-form mu, then the rate formula
    g = 1000.0
    mu = math.sqrt(0.25 * g * g + 1000.0**2) - 0.5 * g
    kb = 1.380649e-23 * 6.02214076e23 / 1000.0
    expected_cm1 = (mu / 1000.0) * 3000.0 / (2 * math.pi) * math.exp(-40.0 / (kb * 300.0))
    r = classical_rate(SYSTEM, OhmicFriction(g), 300.0)
    assert r.rate_cm1 == pytest.approx(expected_cm1, rel=1e-10)
    assert r.rate_per_s == pytest.approx(expected_cm1 * 2 * math.pi * 2.99792458e10, rel=1e-10)


def test_classical_rate_rejects_bad_temperature():
    with pytest.raises(DomainError):
        classical_rate(SYSTEM, None, 0.0)


# ---------------------------------------------------------- classical KIE


def test_classical_kie_frictionless_is_unity():
    assert classical_kie(SYSTEM, None, Isotope.H, Isotope.D) == pytest.approx(1.0, rel=1e-12)


def test_classical_kie_strong_friction_limits():
    strong = OhmicFriction(1e6 * 1000.0)
    assert classical_kie(SYSTEM, strong, Isotope.H, Isotope.D) == pytest.approx(math.sqrt(2.0), rel=1e-5)
    assert classical_kie(SYSTEM, strong, Isotope.H, Isotope.T) == pytest.approx(math.sqrt(3.0), rel=1e-5)


@pytest.mark.parametrize("gamma_over_wb", np.linspace(0.0, 100.0, 21))
def test_classical_kie_bounds(gamma_over_wb):
    model = None if gamma_over_wb == 0 else OhmicFriction(gamma_over_wb * 1000.0)
    hd = classical_kie(SYSTEM, model, Isotope.H, Isotope.D)
    ht = classical_kie(SYSTEM, model, Isotope.H, Isotope.T)
    assert 1.0 - 1e-9 <= hd <= math.sqrt(2.0) + 1e-9
    assert 1.0 - 1e-9 <= ht <= math.sqrt(3.0) + 1e-9


def test_classical_kie_requires_ordered_masses():
    with pytest.raises(DomainError):
        classical_kie(SYSTEM, None, Isotope.D, Isotope.H)


def test_effective_barrier_json_shape():
    eb = effective_barrier_frequency(SYSTEM, OhmicFriction(100.0))
    obj = eb.to_json()
    assert set(obj) == {"mu_cm1", "T0_K", "residual"}
