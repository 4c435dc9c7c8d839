import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from qtst import (
    CubicBarrier,
    EckartBarrier,
    ParabolicBarrier,
    TabulatedPotential,
    transmission,
    turning_points,
    wkb_action,
)
from qtst import units
from qtst.errors import DomainError, SolverConvergenceError
from qtst.wkb import _pchip_coefficients

from oracles import wkb_action_mpmath, wkb_action_pchip, wkb_action_reference

CM1_KJ = 0.011962656563869701
CURV = 0.000357396117155  # kJ/mol per (mass cm^-2 A^2)
ACTION = 2.23492152358  # (S/hbar) per sqrt(mass * kJ/mol) A

PARABOLA = ParabolicBarrier(E_b=40.0, omega_b=1000.0)


@pytest.mark.parametrize("cls,args", [(ParabolicBarrier, (40.0, 1000.0)), (EckartBarrier, (40.0, 0.45)),
                                      (CubicBarrier, (1000.0, 40.0))], ids=["parabolic", "eckart", "cubic"])
def test_analytic_barriers_store_python_floats(cls, args):
    # a numpy scalar, a 0-d array and an int in; Python floats out
    pot = cls(np.float64(args[0]), np.array(args[1]), mass=2)
    assert pot == cls(*args, mass=2.0)
    assert all(type(getattr(pot, f.name)) is float for f in fields(cls))


# --------------------------------------------------------- turning points


def test_each_potential_stores_its_barrier_top_on_construction():
    k = units.CURVATURE_KJ_PER_MOL * 2.0 * 1000.0 * 1000.0
    tops = [
        (ParabolicBarrier(40.0, 1000.0), 40.0, 0.0),
        (EckartBarrier(30.0, 0.45), 30.0, 0.0),
        (CubicBarrier(1000.0, 25.0, mass=2.0), 25.0, math.sqrt(6.0 * 25.0 / k)),
        # the largest knot, from sorted and from shuffled positions
        (TabulatedPotential([-1.0, 0.0, 0.5, 2.0], [0.0, 5.0, 7.0, 1.0]), 7.0, 0.5),
        (TabulatedPotential([0.5, 2.0, -1.0, 0.0], [7.0, 1.0, 0.0, 5.0]), 7.0, 0.5),
    ]
    for pot, height, position in tops:
        assert (pot.barrier_height, pot.barrier_position) == (height, position)
        assert type(pot.barrier_height) is float and type(pot.barrier_position) is float
    # the top is no dataclass field: equality, hashing and repr see the
    # parameters only, and replace() moves the top with them
    assert [f.name for f in fields(ParabolicBarrier)] == ["E_b", "omega_b", "mass"]
    assert "barrier" not in repr(PARABOLA) and hash(PARABOLA) == hash(ParabolicBarrier(40.0, 1000.0))
    for pot, field, top in [(PARABOLA, "E_b", (30.0, 0.0)), (EckartBarrier(40.0, 0.45), "V0", (30.0, 0.0)),
                            (CubicBarrier(1000.0, 40.0, mass=2.0), "E_b", (30.0, math.sqrt(6.0 * 30.0 / k)))]:
        moved = replace(pot, **{field: 30.0})
        assert (moved.barrier_height, moved.barrier_position) == top
        for name in ("barrier_height", "barrier_position"):
            with pytest.raises(FrozenInstanceError):
                setattr(pot, name, 1.0)


@pytest.mark.parametrize("name", ["mass", "barrier_height", "barrier_position", "_knots", "_coefs", "_i_top"])
def test_tabulated_potential_refuses_assignment_after_construction(name):
    # brackets() walks from _i_top and the action's integrand reads _knots
    # and _coefs directly, so none of them may drift from the others
    tab = TabulatedPotential([-1.0, 0.0, 0.5, 2.0], [0.0, 5.0, 7.0, 1.0])
    before = getattr(tab, name)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(tab, name, 10.0)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(tab, name)
    assert getattr(tab, name) == before
    assert turning_points(tab, 6.0) == turning_points(TabulatedPotential(tab._knots, tab._U), 6.0)


@pytest.mark.parametrize("x", [[-1.7e308, -1e308, 1e308, 1.7e308], [1e308, -1.7e308, 1.7e308, -1e308]],
                         ids=["sorted", "unsorted"])
def test_tabulated_positions_spanning_past_the_double_range_are_a_domain_error(x):
    # once numpy's overflow warning from differencing the positions, raised
    # as an error where warnings are errors
    with pytest.raises(DomainError, match="span less than the largest double"):
        TabulatedPotential(x, [0.0, 5.0, 7.0, 1.0])


def test_tabulated_spacing_whose_cube_overflows_is_a_domain_error():
    # once accepted, and energy(1e307) was nan: s*s overflowed to inf and
    # met a zero coefficient
    with pytest.raises(DomainError, match="spacing cubed must stay below the largest double"):
        TabulatedPotential([-3e307, -1e307, 0.0, 3e307], [0.0, 5.0, 7.0, 1.0])
    # a widest spacing whose cube is finite is kept, and every energy with it
    tab = TabulatedPotential([0.0, 5e102, 1e103, 1.5e103], [0.0, 5.0, 7.0, 1.0])
    assert all(math.isfinite(tab.energy(x)) for x in np.linspace(0.0, 1.5e103, 101))


def test_parabolic_turning_points_analytic_inversion():
    for E in (5.0, 20.0, 35.0):
        x1, x2 = turning_points(PARABOLA, E)
        expected = math.sqrt(2.0 * (40.0 - E) / (CURV * 1000.0**2))
        assert x1 == pytest.approx(-expected, rel=1e-8)
        assert x2 == pytest.approx(expected, rel=1e-8)


def test_turning_points_coalesce_at_barrier_top():
    x1, x2 = turning_points(PARABOLA, 40.0 * (1.0 - 1e-9))
    assert abs(x1) < 1e-4 and abs(x2) < 1e-4
    assert x1 < 0 < x2


def test_turning_points_no_barrier_error():
    with pytest.raises(DomainError):
        turning_points(PARABOLA, 40.0)
    with pytest.raises(DomainError):
        turning_points(PARABOLA, 55.0)
    with pytest.raises(DomainError):
        turning_points(PARABOLA, 0.0)


def test_eckart_turning_points_analytic():
    pot = EckartBarrier(V0=40.0, width=0.4)
    E = 10.0
    x1, x2 = turning_points(pot, E)
    expected = 0.4 * math.acosh(math.sqrt(40.0 / E))
    assert x2 == pytest.approx(expected, rel=1e-9)
    assert x1 == pytest.approx(-expected, rel=1e-9)


@pytest.mark.parametrize("call", [turning_points, wkb_action, transmission], ids=lambda f: f.__name__)
@pytest.mark.parametrize("build", [lambda: PARABOLA, lambda: EckartBarrier(40.0, 0.45),
                                   lambda: CubicBarrier(1000.0, 40.0), lambda: _benchmark_table(1.0)],
                         ids=["parabolic", "eckart", "cubic", "tabulated"])
@pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_energy_is_domain_error_on_every_potential(call, build, E):
    with pytest.raises(DomainError, match="energy must be finite"):
        call(build(), E)


def test_eckart_subnormal_energy_is_domain_error_naming_it():
    # 2*V0/E overflows, so no finite bracket end has U = E/2
    pot = EckartBarrier(40.0, 0.45)
    for E in (5e-324, 4e-321, np.nextafter(80.0 / np.finfo(float).max, 0.0)):
        with pytest.raises(DomainError, match=f"E = {E:g} kJ/mol is too small"):
            turning_points(pot, float(E))


@pytest.mark.parametrize("E", [1e-300, 80.0 / np.finfo(float).max, 1e-3, 10.0, 39.9])
def test_eckart_bracket_unchanged_wherever_its_ratio_is_finite(E):
    pot = EckartBarrier(40.0, 0.45)
    r = 0.45 * math.acosh(math.sqrt(2.0 * 40.0 / E))
    assert pot.brackets(E) == ((-r, 0.0), (0.0, r))
    x1, x2 = turning_points(pot, E)
    assert -r <= x1 < 0.0 < x2 <= r


class NoSignChange(ParabolicBarrier):
    # a right bracket that stops short of the turning point
    def brackets(self, E):
        return super().brackets(E)[0], (0.0, 1e-3)


def test_unsolvable_turning_point_is_solver_error_with_the_bracket():
    with pytest.raises(SolverConvergenceError, match="turning point not solved") as exc:
        turning_points(NoSignChange(40.0, 1000.0), 20.0)
    assert exc.value.bracket == (0.0, 1e-3)


def test_tabulated_turning_points_match_parabola():
    # dense, top-containing grid; monotone-cubic interpolation of a
    # parabola converges cubically, so 1601 points reach the 1e-8 target
    x = np.linspace(-1.2, 1.2, 1601)
    U = PARABOLA.energy(0.0) - 0.5 * CURV * 1000.0**2 * x**2
    tab = TabulatedPotential(x, U)
    for E in (10.0, 25.0):
        x1a, x2a = turning_points(PARABOLA, E)
        x1b, x2b = turning_points(tab, E)
        assert x1b == pytest.approx(x1a, rel=1e-8)
        assert x2b == pytest.approx(x2a, rel=1e-8)


def test_tabulated_non_bracketing_error():
    # truncated grid never drops below E on the right side
    x = np.linspace(-1.0, 0.05, 200)
    U = 40.0 - 0.5 * CURV * 1e6 * x**2
    tab = TabulatedPotential(np.concatenate([x, [0.06]]), np.concatenate([U, [39.0]]))
    with pytest.raises(DomainError):
        turning_points(tab, 38.0)


# ----------------------------------------------------------------- action


@pytest.mark.parametrize("frac", np.linspace(0.05, 0.95, 10))
def test_parabolic_action_analytic(frac):
    E = float (frac) * 40.0
    expected = math.pi * (40.0 - E) / (CM1_KJ * 1000.0)
    assert wkb_action(PARABOLA, E) == pytest.approx(expected, rel=1e-8)


def test_action_vanishes_at_barrier_top():
    assert wkb_action(PARABOLA, 40.0 * (1 - 1e-9)) == pytest.approx(0.0, abs=1e-7)


def test_eckart_action_vs_trapezoid_oracle_and_closed_form():
    pot = EckartBarrier(V0=50.0, width=0.35)
    E = 12.0
    x1, x2 = turning_points(pot, E)
    # brute-force oracle: dense trapezoid between the turning points
    x = np.linspace(x1, x2, 1_000_001)
    vals = np.sqrt(np.clip(50.0 / np.cosh(x / 0.35) ** 2 - E, 0.0, None))
    oracle = ACTION * np.trapezoid(vals, x)
    got = wkb_action(pot, E)
    assert got == pytest.approx(oracle, rel=1e-6)
    closed = ACTION * math.pi * 0.35 * (math.sqrt(50.0) - math.sqrt(E))
    assert got == pytest.approx(closed, rel=1e-9)


def test_cubic_action_decreasing_and_positive():
    pot = CubicBarrier(omega_0=1200.0, E_b=30.0)
    energies = np.linspace(2.0, 28.0, 12)
    actions = [wkb_action(pot, float(E)) for E in energies]
    assert all(s > 0 for s in actions)
    assert all(a > b for a, b in zip(actions, actions[1:]))


def test_action_strictly_decreasing_all_variants():
    pots = [
        PARABOLA,
        EckartBarrier(V0=40.0, width=0.5),
        CubicBarrier(omega_0=1000.0, E_b=40.0),
    ]
    for pot in pots:
        es = np.linspace(0.05, 0.95, 13) * pot.barrier_height
        actions = [wkb_action(pot, float(E)) for E in es]
        assert all(a > b for a, b in zip(actions, actions[1:]))


def test_isotope_scaling_of_action_exact_for_parabola():
    # same potential-energy curve, doubled mass: omega scales as 1/sqrt(2)
    # and the action picks up exactly sqrt(2)
    light = ParabolicBarrier(E_b=40.0, omega_b=1000.0, mass=1.0)
    heavy = ParabolicBarrier(E_b=40.0, omega_b=1000.0 / math.sqrt(2.0), mass=2.0)
    for E in (10.0, 20.0, 30.0):
        assert wkb_action(heavy, E) == pytest.approx(math.sqrt(2.0) * wkb_action(light, E), rel=1e-10)


def test_tabulated_action_close_to_analytic():
    xs = np.linspace(-1.3, 1.3, 400)
    tab = TabulatedPotential(xs, [PARABOLA.energy(float(v)) for v in xs])
    for E in (10.0, 20.0, 30.0):
        assert wkb_action(tab, E) == pytest.approx(wkb_action(PARABOLA, E), rel=1e-5)


def test_tabulated_eckart_agreement():
    pot = EckartBarrier(V0=40.0, width=0.5)
    xs = np.linspace(-2.5, 2.5, 400)
    tab = TabulatedPotential(xs, [pot.energy(float(v)) for v in xs])
    assert wkb_action(tab, 15.0) == pytest.approx(wkb_action(pot, 15.0), rel=1e-5)


# ------------------------------------------------------------ transmission


def test_transmission_limits_and_value():
    assert transmission(PARABOLA, 40.0 * (1 - 1e-9)) == pytest.approx(1.0, abs=1e-6)
    E = 20.0
    expected = math.exp(-2.0 * math.pi * (40.0 - E) / (CM1_KJ * 1000.0))
    assert transmission(PARABOLA, E) == pytest.approx(expected, rel=1e-8)
    assert 0.0 < transmission(PARABOLA, 5.0) < transmission(PARABOLA, 25.0) < 1.0


def test_transmission_increasing_in_energy():
    es = np.linspace(2.0, 38.0, 13)
    ts = [transmission(PARABOLA, float(E)) for E in es]
    assert all(a < b for a, b in zip(ts, ts[1:]))


# ------------------------------------------------------------- CSV intake


def test_tabulated_from_csv(tmp_path):
    xs = np.linspace(-1.2, 1.2, 201)  # odd count puts the top on the grid
    lines = ["x_angstrom,U_kJ_per_mol"]
    lines += [f"{x:.8f},{PARABOLA.energy(float(x)):.8f}" for x in xs]
    path = tmp_path / "barrier.csv"
    path.write_text("\n".join(lines) + "\n")
    tab = TabulatedPotential.from_csv(path)
    assert tab.barrier_height == pytest.approx(40.0, rel=1e-6)
    assert wkb_action(tab, 20.0) == pytest.approx(wkb_action(PARABOLA, 20.0), rel=1e-4)


def test_tabulated_rejects_too_few_points():
    with pytest.raises(DomainError):
        TabulatedPotential.from_csv("x,U\n0,1\n1,2\n")


@pytest.mark.parametrize(
    "x, U, message",
    [
        ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], "need matching 1-d arrays with at least 4 points"),
        ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 0.0], "grid positions must be distinct"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], "tabulated potential has no interior barrier top"),
    ],
    ids=["three-points", "duplicate-positions", "monotone"],
)
def test_tabulated_constructor_rejects_a_table_without_a_top(x, U, message):
    with pytest.raises(DomainError) as info:
        TabulatedPotential(x, U)
    assert str(info.value) == message


@pytest.mark.parametrize("bad_row", ["0.5,2O", "0.5", "x,U"])
def test_tabulated_rejects_unparsable_data_row(bad_row):
    # only the first row may be a header; "2O" (letter O) must not silently
    # drop its knot
    rows = ["x_angstrom,U_kJ_per_mol", "-1,0", "0,10", bad_row, "1,0", "2,-5"]
    with pytest.raises(DomainError, match="row 4"):
        TabulatedPotential.from_csv("\n".join(rows) + "\n")
    # the same table without the bad row loads
    del rows[3]
    assert TabulatedPotential.from_csv("\n".join(rows) + "\n").barrier_height == pytest.approx(10.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: ParabolicBarrier(v, 1000.0),
        lambda v: ParabolicBarrier(40.0, v),
        lambda v: ParabolicBarrier(40.0, 1000.0, mass=v),
        lambda v: EckartBarrier(v, 0.45),
        lambda v: EckartBarrier(40.0, v),
        lambda v: CubicBarrier(v, 40.0),
        lambda v: CubicBarrier(1000.0, v),
        lambda v: TabulatedPotential([-1.0, 0.0, 1.0, 2.0], [0.0, 5.0, 1.0, 0.0], mass=v),
    ],
    ids=["parabolic-E_b", "parabolic-omega_b", "parabolic-mass", "eckart-V0", "eckart-width",
         "cubic-omega_0", "cubic-E_b", "tabulated-mass"],
)
def test_potentials_reject_non_finite_and_non_positive_parameters(build, bad):
    with pytest.raises(DomainError, match="must be finite"):
        build(bad)


@pytest.mark.parametrize("column", ["x", "U"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tabulated_rejects_non_finite_samples(column, bad):
    data = {"x": [-1.0, 0.0, 1.0, 2.0], "U": [0.0, 5.0, 1.0, 0.0]}
    data[column][1] = bad
    with pytest.raises(DomainError, match=f"{column} must be finite"):
        TabulatedPotential(data["x"], data["U"])


# ------------------------------------------------- stored PCHIP evaluation


@st.composite
def tables(draw):
    """(x, U): distinct sorted positions, and values with an interior maximum."""
    n = draw(st.integers(4, 40))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    x = np.cumsum([draw(st.floats(-5.0, 5.0))] + steps)
    U = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    U[draw(st.integers(1, n - 2))] = U.max() + draw(st.floats(1e-3, 10.0))
    return x, U


@settings(max_examples=50, deadline=None, derandomize=True)
@given(tables(), st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20), st.randoms())
def test_tabulated_energy_is_scipy_pchip_bit_for_bit(table, fractions, rnd):
    x, U = table
    reference = PchipInterpolator(x, U, extrapolate=False)
    order = list(range(x.size))
    rnd.shuffle(order)
    # sorted input, and shuffled input that the constructor sorts back
    for pot in (TabulatedPotential(x, U), TabulatedPotential(x[order], U[order])):
        points = list(x) + [min(float(x[0] + f * (x[-1] - x[0])), x[-1]) for f in fractions]
        for p in points:
            assert pot.energy(float(p)) == float(reference(p))
        for outside in (np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)):
            with pytest.raises(DomainError, match="outside the tabulated range"):
                pot.energy(float(outside))


@st.composite
def pchip_tables(draw):
    """(x, U) with an interior top: random values, Eckart samples, Eckart
    samples rounded to 0 or 1 decimals (ties and flat tails), or small
    integers (flat runs, zero slopes and sign changes)."""
    n = draw(st.integers(4, 60))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    x = np.cumsum([draw(st.floats(-5.0, 5.0))] + steps)
    top = draw(st.integers(1, n - 2))
    kind = draw(st.sampled_from(["random", "eckart", "rounded", "integers"]))
    if kind == "random":
        U = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    elif kind == "integers":
        U = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    else:
        with np.errstate(over="ignore"):  # cosh^2 -> inf far out: U = 0
            U = draw(st.floats(1.0, 100.0)) / np.cosh((x - x[top]) / draw(st.floats(0.05, 3.0))) ** 2
        if kind == "rounded":
            U = np.round(U, draw(st.integers(0, 1)))
    if kind != "eckart":
        # an Eckart sample peaks at x[top] already
        U[top] = U.max() + (draw(st.floats(1e-3, 10.0)) if kind == "random" else 1.0)
    return x, U


def _pchip_hex(x, U):
    # where secants overflow, numpy warns and the port's floats do not
    with np.errstate(all="ignore"):
        return [[c.hex() for c in row] for row in PchipInterpolator(x, U).c[::-1].T.tolist()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pchip_tables(), st.randoms())
def test_tabulated_coefficients_are_scipy_pchip_bit_for_bit(table, rnd):
    x, U = table
    order = list(range(x.size))
    rnd.shuffle(order)
    expect = _pchip_hex(x, U)
    # sorted input, and shuffled input that the constructor sorts back
    for pot in (TabulatedPotential(x, U), TabulatedPotential(x[order], U[order])):
        assert [[c.hex() for c in row] for row in pot._coefs] == expect


@pytest.mark.parametrize(
    "U, end_slopes",
    [
        # the three-point estimate, kept at each end
        ([0.0, 1.0, 1.5, 1.0], (1.25, -1.0)),
        # left, an estimate against the end secant's sign is set to 0; right,
        # past a sign change, one over 3 times the end secant is cut to that
        ([0.0, 1.0, 5.0, 4.0], (0.0, -3.0)),
        ([0.0, 1.0, -9.0, -8.0], (3.0, 3.0)),
    ],
    ids=["estimate", "zero-and-cut", "cut"],
)
def test_tabulated_coefficients_take_each_end_rule_as_scipy_does(U, end_slopes):
    x = [0.0, 1.0, 2.0, 3.0]
    pot = TabulatedPotential(x, U)
    assert (pot._coefs[0][1], pot._coefs[-1][1] + 2 * pot._coefs[-1][2] + 3 * pot._coefs[-1][3]) == end_slopes
    assert [[c.hex() for c in row] for row in pot._coefs] == _pchip_hex(x, U)


def test_tabulated_coefficients_follow_scipy_where_secants_overflow():
    # an end estimate of inf - inf is a nan, which scipy sets to 0 and keeps;
    # the middle piece's a2 and a3 are infinite, which made energy(100.0)
    # nan, so the table is refused
    x, U = [0.0, 100.0, 101.0, 102.0], [-1.5e308, -0.5e308, 0.5e308, 0.4e308]
    coefs = _pchip_coefficients(x, U)
    assert coefs[0][1] == 0.0 and math.isinf(coefs[1][3])
    assert [[c.hex() for c in row] for row in coefs] == _pchip_hex(x, U)
    with pytest.raises(DomainError, match="PCHIP coefficients overflow"):
        TabulatedPotential(x, U)
    # a harmonic mean of two infinite secants is an infinite slope, which
    # scipy refuses with a ValueError
    x, U = [0.0, 1e-10, 2e-10, 3e-10], [-1e300, 0.0, 1e300, -1e300]
    with pytest.raises(ValueError, match="must contain only finite values"):
        _pchip_hex(x, U)
    with pytest.raises(DomainError, match="PCHIP slopes overflow"):
        TabulatedPotential(x, U)


def _benchmark_table(mass):
    # the benchmark's tabulated barrier: Eckart, 40 kJ/mol, width 0.45 A, 41
    # points written to CSV at 6 and 9 decimals
    rows = "".join(
        f"{x:.6f},{40.0 / math.cosh(x / 0.45) ** 2:.9f}\n" for x in np.linspace(-1.5, 1.5, 41)
    )
    return TabulatedPotential.from_csv("x_angstrom,U_kJ_per_mol\n" + rows, mass=mass)


@pytest.mark.parametrize("mass", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("frac", [0.05, 0.5, 0.95])
def test_tabulated_action_equals_scipy_pchip_oracle_exactly(mass, frac):
    tab = _benchmark_table(mass)
    E = frac * tab.barrier_height
    assert wkb_action(tab, E) == wkb_action_pchip(tab, E)


class OwnParabola(ParabolicBarrier):
    # energy overridden, with the parent's value: no closed form applies
    def energy(self, x):
        return super().energy(x)


class OwnEckart(EckartBarrier):
    def energy(self, x):
        return super().energy(x)


class OwnCubic(CubicBarrier):
    def energy(self, x):
        return super().energy(x)


@pytest.mark.parametrize("mass", [1.0, 2.0, 3.0])
@pytest.mark.parametrize(
    "build",
    [lambda m: OwnParabola(40.0, 1000.0, mass=m), lambda m: OwnEckart(40.0, 0.45, mass=m),
     lambda m: OwnCubic(1000.0, 40.0, mass=m), _benchmark_table],
    ids=["parabolic", "eckart", "cubic", "tabulated"],
)
def test_action_equals_the_generic_integrand_bit_for_bit(build, mass):
    # every potential that runs the quadrature (the table, and each model
    # barrier's subclass that overrides energy) against pot.energy at every
    # point, the quadrature and its settings the same; the model barriers'
    # closed forms are checked against mpmath below
    pot = build(mass)
    for frac in (0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99):
        E = frac * pot.barrier_height
        assert wkb_action(pot, E).hex() == wkb_action_reference(pot, E).hex(), frac


class WideParabola(ParabolicBarrier):
    # the parabola stretched to twice its width, so twice its action
    def energy(self, x):
        return super().energy(0.5 * x)

    def brackets(self, E):
        (lo, _), (_, hi) = super().brackets(E)
        return (2.0 * lo, 0.0), (0.0, 2.0 * hi)


class WideTable(TabulatedPotential):
    # the table stretched to twice its width, past the inlined integrand
    def energy(self, x):
        return super().energy(0.5 * x)

    def brackets(self, E):
        (a, b), (c, d) = super().brackets(E)
        return (2.0 * a, 2.0 * b), (2.0 * c, 2.0 * d)


@pytest.mark.parametrize("frac", [0.05, 0.5, 0.95])
def test_a_subclass_overriding_energy_takes_the_quadrature_of_its_own_energy(frac):
    # neither the parent's closed form nor the table's inlined integrand,
    # both of which describe the parent's energy only
    table = _benchmark_table(1.0)
    for parent, wide in ((PARABOLA, WideParabola(40.0, 1000.0)), (table, WideTable(table._knots, table._U))):
        E = frac * parent.barrier_height
        got = wkb_action(wide, E)
        assert got.hex() == wkb_action_reference(wide, E).hex()
        assert got == pytest.approx(2.0 * wkb_action(parent, E), rel=1e-8)


@st.composite
def model_barriers(draw):
    """(barrier, E/E_b): a parabolic, Eckart or cubic barrier with mass 1 to
    3, and an energy from 1e-6 to 1 - 1e-6 of its top, uniform or
    log-spaced from either end."""
    mass, height = draw(st.floats(1.0, 3.0)), draw(st.floats(5.0, 80.0))
    kind = draw(st.sampled_from(["parabolic", "eckart", "cubic"]))
    if kind == "parabolic":
        pot = ParabolicBarrier(height, draw(st.floats(300.0, 3000.0)), mass=mass)
    elif kind == "eckart":
        pot = EckartBarrier(height, draw(st.floats(0.2, 1.0)), mass=mass)
    else:
        pot = CubicBarrier(draw(st.floats(300.0, 3000.0)), height, mass=mass)
    if draw(st.booleans()):
        return pot, draw(st.floats(1e-6, 1.0 - 1e-6))
    gap = 10.0 ** draw(st.floats(-6.0, math.log10(0.5)))
    return pot, (gap if draw(st.booleans()) else 1.0 - gap)


# E/E_b where the cubic's turning-point gap is a quarter of the gap to its
# third root, and its closed form switches from the elliptic to the series
_CUBIC_SWITCH = math.sin(1.5 * math.atan(2.0 / math.sqrt(3.0))) ** 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_barriers())
@example((CubicBarrier(1000.0, 40.0, mass=2.0), 1e-6))
@example((CubicBarrier(1000.0, 40.0, mass=2.0), 1.0 - 1e-6))
@example((CubicBarrier(1000.0, 40.0, mass=2.0), _CUBIC_SWITCH * (1.0 - 1e-12)))
@example((CubicBarrier(1000.0, 40.0, mass=2.0), _CUBIC_SWITCH * (1.0 + 1e-12)))
@example((EckartBarrier(40.0, 0.45, mass=3.0), 1.0 - 1e-6))
@example((ParabolicBarrier(40.0, 1000.0, mass=1.0), 1.0 - 1e-6))
def test_closed_form_action_matches_a_50_digit_quadrature(case):
    pot, frac = case
    E = frac * pot.barrier_height
    oracle = wkb_action_mpmath(pot, E)
    assert abs(wkb_action(pot, E) - oracle) <= 1e-12 * oracle


def test_a_closed_form_calls_neither_energy_nor_brackets(monkeypatch):
    # no turning-point solve and no quadrature
    for pot in (PARABOLA, EckartBarrier(40.0, 0.45), CubicBarrier(1000.0, 40.0)):
        for name in ("brackets", "energy"):
            monkeypatch.setattr(type(pot), name, None)
        assert wkb_action(pot, 20.0) > 0.0


def test_tabulated_barrier_top_is_largest_knot():
    # no PCHIP piece rises above its end knots, so the top is the largest
    # knot; scipy's interpolant, scanned densely over the two pieces beside
    # it, exceeds that knot by at most one ulp
    tab = _benchmark_table(1.0)
    i = int(np.argmax(tab._U))
    assert (tab.barrier_position, tab.barrier_height) == (tab._knots[i], max(tab._U))
    scan = PchipInterpolator(tab._knots, tab._U)(np.linspace(tab._knots[i - 1], tab._knots[i + 1], 100_001))
    assert scan.max() <= np.nextafter(tab.barrier_height, np.inf)


def _first_crossing(interp, E, start, stop):
    # the first point from start towards stop where interp drops below E: a
    # dense scan for the sign change, then Brent's method inside that step
    xs = np.linspace(start, stop, 400_001)
    k = int(np.argmax(interp(xs) < E))
    assert k > 0 and interp(xs[k]) < E
    return brentq(lambda t: float(interp(t)) - E, *sorted((xs[k - 1], xs[k])), xtol=1e-15)


def test_tabulated_turning_point_is_first_crossing_before_a_second_hump():
    # a 30 kJ/mol hump right of the 40 kJ/mol top rises above E = 20 again
    # past the first crossing, within one quarter of the table's width
    x = np.linspace(-2.0, 2.0, 161)
    U = 1.0 + 40.0 * np.exp(-((x / 0.3) ** 2)) + (x > 0) * 30.0 * np.exp(-(((x - 0.5) / 0.12) ** 2))
    tab, E = TabulatedPotential(x, U), 20.0
    interp = PchipInterpolator(x, U)
    x1, x2 = turning_points(tab, E)
    left, right = _first_crossing(interp, E, 0.0, -2.0), _first_crossing(interp, E, 0.0, 2.0)
    assert abs(x1 - left) < 1e-9 and abs(x2 - right) < 1e-9, (x1, left, x2, right)
    assert x2 == pytest.approx(0.2647, abs=1e-4)
    # the action between the first crossings, by a dense trapezoid
    xs = np.linspace(left, right, 2_000_001)
    oracle = ACTION * np.trapezoid(np.sqrt(np.clip(interp(xs) - E, 0.0, None)), xs)
    assert wkb_action(tab, E) == pytest.approx(oracle, rel=1e-7)
    assert wkb_action(tab, E) == pytest.approx(3.9817, abs=1e-4)
