import math
import sys

import numpy as np
import pytest

from qtst import (
    ArrheniusFit,
    Isotope,
    fit_arrhenius,
    apparent_arrhenius,
    classify,
    correction_closed,
    crossover_temperature,
    kie_qtst,
    load_table1,
    swain_schaad,
)
from qtst import units
from qtst.errors import BelowCrossoverError, DomainError
from qtst.kie import _bundled_json, _log_kie
from qtst.units import _isotope_scaled

from oracles import log_closed, log_kie, log_kie_two_rows

KB_KJ = 1.380649e-23 * 6.02214076e23 / 1000.0


# ------------------------------------------------------------- kie_qtst


def test_kie_spot_value_frozen_oracle():
    # independently evaluated at 40-digit precision before freezing
    pred = kie_qtst(3000.0, 1000.0, 300.0, Isotope.H, Isotope.D)
    assert pred.ratio == pytest.approx(17.047042665710686, rel=1e-12)
    assert pred.valid
    pred_ht = kie_qtst(3000.0, 1000.0, 300.0, Isotope.H, Isotope.T)
    assert pred_ht.ratio == pytest.approx(52.600212604025088, rel=1e-12)


def test_kie_same_isotope_is_unity():
    assert kie_qtst(3000.0, 1000.0, 300.0, Isotope.D, Isotope.D).ratio == 1.0


def test_kie_low_frequency_limit():
    # with both frequencies tiny the sinh and sin ratios go to their
    # frequency-ratio limits and the expression tends to sqrt(m_h/m_l),
    # the attempt-frequency ratio of the rate prefactors
    pred = kie_qtst(1e-6, 1e-6, 300.0, Isotope.H, Isotope.D)
    assert pred.ratio == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_kie_below_crossover_names_isotope():
    t0_h = 0.22898845206107345 * 1000.0
    with pytest.raises(BelowCrossoverError) as err:
        kie_qtst(3000.0, 1000.0, 0.99 * t0_h, Isotope.H, Isotope.D)
    assert "H" in str(err.value)


def test_kie_validity_gate_uses_light_isotope():
    # 235 K is below H's crossover (229 K * 1.05 margin aside) but above
    # D's; the light isotope binds
    t0_h = 0.22898845206107345 * 1000.0
    pred = kie_qtst(3000.0, 1000.0, 1.01 * t0_h, Isotope.H, Isotope.D)
    assert not pred.valid  # inside the 5% fringe
    assert kie_qtst(3000.0, 1000.0, 1.2 * t0_h, Isotope.H, Isotope.D).valid


def test_kie_ratio_chain_identity():
    hd = kie_qtst(3000.0, 1000.0, 305.0, Isotope.H, Isotope.D).ratio
    dt = kie_qtst(3000.0, 1000.0, 305.0, Isotope.D, Isotope.T).ratio
    ht = kie_qtst(3000.0, 1000.0, 305.0, Isotope.H, Isotope.T).ratio
    assert ht == pytest.approx(hd * dt, rel=1e-12)


def test_kie_exceeds_unity_and_decreases_with_temperature():
    t0_h = 0.22898845206107345 * 1000.0
    values = [
        kie_qtst(3000.0, 1000.0, float(T), Isotope.H, Isotope.D).ratio
        for T in np.linspace(1.1 * t0_h, 400.0, 25)
    ]
    assert all(v >= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kie_rejects_inverted_pair():
    with pytest.raises(DomainError):
        kie_qtst(3000.0, 1000.0, 300.0, Isotope.T, Isotope.H)


NON_FINITE_KIE_ARGS = [
    (math.nan, 1000.0, 300.0),
    (3000.0, math.nan, 300.0),
    (3000.0, 1000.0, math.nan),
    (math.inf, 1000.0, 300.0),
    (3000.0, math.inf, 300.0),
    (3000.0, 1000.0, math.inf),
    (3000.0, 1000.0, -math.inf),
    (3000.0, 1000.0, [300.0, math.nan]),
]
NON_FINITE_IDS = ["omega0-nan", "omegab-nan", "T-nan", "omega0-inf", "omegab-inf", "T-inf", "T-neg-inf", "T-nan-row"]


@pytest.mark.parametrize("args", NON_FINITE_KIE_ARGS, ids=NON_FINITE_IDS)
def test_kie_rejects_non_finite_input(args):
    with pytest.raises(DomainError):
        kie_qtst(*args, Isotope.H, Isotope.D)


def test_kie_qtst_checks_each_input_once():
    # omega0, omegab and T at the entry, T once for a whole array; the
    # isotope scaling, the crossover and the closed form run on the checked
    # values
    from qtst import errors

    codes = (errors._require_param.__code__, errors._require_array.__code__)
    for T in (300.0, np.linspace(200.0, 400.0, 41)):
        checked = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                checked.append(frame.f_locals["name"])

        sys.setprofile(profile)
        try:
            kie_qtst(3000.0, 1000.0, T, Isotope.H, Isotope.T)
        finally:
            sys.setprofile(None)
        assert checked == ["omega0", "omegab", "temperature"]


def test_kie_equals_ratio_of_closed_form_corrections():
    # the KIE is sqrt(m_h/m_l) times the ratio of the two zero-friction
    # corrections at each isotope's frequencies
    for light, heavy in ((Isotope.H, Isotope.D), (Isotope.H, Isotope.T), (Isotope.D, Isotope.T)):
        for omega0, omegab in ((3000.0, 1000.0), (1500.0, 400.0), (4500.0, 2500.0)):
            t0 = crossover_temperature(_isotope_scaled(omegab, light))
            for T in t0 * np.geomspace(1.0 + 1e-6, 20.0, 15):
                T = float(T)
                closed = [
                    correction_closed(_isotope_scaled(omega0, iso), _isotope_scaled(omegab, iso), T)
                    for iso in (light, heavy)
                ]
                expected = math.sqrt(heavy.mass_number / light.mass_number) * closed[0] / closed[1]
                assert kie_qtst(omega0, omegab, T, light, heavy).ratio == pytest.approx(
                    expected, rel=1e-13
                )



PAIRS = [(Isotope.H, Isotope.D), (Isotope.H, Isotope.T), (Isotope.D, Isotope.T)]


def _kie_grid(light):
    # omega0 x omegab x T, with T above the light isotope's crossover, as
    # the broadcast shapes (k, 1, 1), (m, 1) and (m, n)
    rng = np.random.default_rng(9)
    omega0 = rng.uniform(500.0, 5000.0, 13)
    omegab = rng.uniform(100.0, 3000.0, 11)
    T0 = crossover_temperature(_isotope_scaled(omegab, light))
    T = T0[:, None] * rng.uniform(1.0001, 3.0, (11, 7))
    return omega0[:, None, None], omegab[:, None], T


@pytest.mark.parametrize("light, heavy", PAIRS)
def test_log_kie_on_arrays_equals_a_scalar_loop(light, heavy):
    omega0, omegab, T = _kie_grid(light)
    array = _log_kie(omega0, omegab, T, light, heavy)
    scalar = np.array([
        [[_log_kie(float(a), float(b[0]), float(t), light, heavy) for t in row] for b, row in zip(omegab, T)]
        for a in omega0.ravel()
    ])
    assert array.tolist() == scalar.tolist()
    # the oracle takes log KIE as the difference of two isotopes' logs of the
    # closed form, (omega_b/omega_0) and ln 2 included: each log is good to a
    # few ulps of its largest term, x0 or log sin(xb), so 8 eps of their sum
    # bounds the difference
    reference = log_kie(omega0, omegab, T, light, heavy)
    scale = sum(
        np.abs(log_closed(omega0 / math.sqrt(m), omegab / math.sqrt(m), T)) + units.CM1_TO_K * omega0 / (2.0 * T)
        for m in (light.mass_number, heavy.mass_number)
    )
    assert np.all(np.abs(array - reference) <= 8.0 * np.finfo(float).eps * scale)


def _hex(x):
    return np.shape(x), [v.hex() for v in np.ravel(x).tolist()]


@pytest.mark.parametrize("light, heavy", PAIRS)
def test_log_kie_equals_the_two_row_oracle_bit_for_bit(light, heavy):
    # one closed form per isotope takes the former two-row operations
    # element by element: on scalars, on temperature arrays, and on the
    # fit screen's broadcast shapes
    rng = np.random.default_rng(36)
    omega0 = rng.uniform(500.0, 5000.0, 9)
    omegab = np.sort(rng.uniform(100.0, 3000.0, 8))
    T0 = crossover_temperature(_isotope_scaled(omegab, light))
    T = np.sort(T0[-1] * rng.uniform(1.0001, 3.0, 6))
    T_rows = T0[:, None] * rng.uniform(1.0001, 3.0, (8, 6))
    cases = [(float(a), float(b), float(t)) for a, b, t in zip(omega0, omegab, T_rows[:, 0])]
    cases += [
        (float(omega0[0]), float(omegab[-1]), T),
        (omega0[:, None], float(omegab[0]), T_rows[0]),
        (float(omega0[0]), omegab[:, None], T_rows),
        (omega0[:, None], omegab, 1.02 * T0),
        (omega0[:, None, None], omegab[:, None], T_rows),
    ]
    for args in cases:
        assert _hex(_log_kie(*args, light, heavy)) == _hex(log_kie_two_rows(*args, light, heavy))


@pytest.mark.parametrize(
    "call, name",
    [(lambda: kie_qtst([3000.0, 3100.0], 1000.0, 300.0), "omega0"),
     (lambda: kie_qtst(np.array([3000.0, 3100.0]), 1000.0, 300.0), "omega0"),
     (lambda: kie_qtst(3000.0, [1000.0], np.array([300.0, 310.0])), "omegab"),
     (lambda: apparent_arrhenius([3000.0, 3100.0], 1000.0, 300.0), "omega0"),
     (lambda: apparent_arrhenius(3000.0, np.array([1000.0, 900.0]), 300.0), "omegab")],
    ids=["kie-list", "kie-array", "kie-omegab", "arrhenius-list", "arrhenius-array"],
)
def test_kie_takes_one_omega0_and_one_omegab(call, name):
    with pytest.raises(DomainError, match=f"{name} must be a single number"):
        call()


def test_kie_reads_any_real_scalar_frequency_as_its_float():
    expected = kie_qtst(3000.0, 1000.0, 300.0).ratio
    for omega0, omegab in ((3000, 1000), (np.float64(3000.0), np.float32(1000.0)), (np.array(3000.0), 1000)):
        assert kie_qtst(omega0, omegab, 300.0).ratio == expected
    assert apparent_arrhenius(3000, np.array(1000.0), 300.0) == apparent_arrhenius(3000.0, 1000.0, 300.0)


# ------------------------------------------------ kie_qtst on a T array


@pytest.mark.parametrize("light, heavy", PAIRS)
def test_kie_on_a_temperature_array_agrees_with_a_scalar_loop(light, heavy):
    # a scalar T and an array take the same numpy operations in _log_kie
    omega0, omegab, T = _kie_grid(light)
    for a in omega0.ravel().tolist():
        for b, row in zip(omegab.ravel().tolist(), T):
            pred = kie_qtst(a, b, row, light, heavy)
            scalar = [kie_qtst(a, b, t, light, heavy) for t in row.tolist()]
            assert pred.ratio.tolist() == [p.ratio for p in scalar]
            assert pred.valid.tolist() == [p.valid for p in scalar]
            assert pred.T_K.tolist() == row.tolist()


@pytest.mark.parametrize("light, heavy", PAIRS)
def test_kie_array_flags_rows_at_below_and_just_above_the_light_crossover(light, heavy):
    t0 = crossover_temperature(_isotope_scaled(1000.0, light))
    fringe = 1.05 * t0
    T = np.array([0.5 * t0, np.nextafter(t0, 0.0), t0, np.nextafter(t0, np.inf), 1.01 * t0,
                  np.nextafter(fringe, 0.0), fringe, 2.0 * t0])
    pred = kie_qtst(3000.0, 1000.0, T, light, heavy)
    assert pred.T0_light_K == t0
    assert np.isnan(pred.ratio).tolist() == [True, True, True, False, False, False, False, False]
    assert np.isfinite(pred.ratio[3:]).all()
    assert pred.valid.tolist() == [False] * 6 + [True, True]
    # a scalar call raises exactly where the array reads NaN
    for t, nan in zip(T.tolist(), np.isnan(pred.ratio).tolist()):
        if nan:
            with pytest.raises(BelowCrossoverError):
                kie_qtst(3000.0, 1000.0, t, light, heavy)
        else:
            assert kie_qtst(3000.0, 1000.0, t, light, heavy).valid == bool(t >= fringe)


def test_kie_array_keeps_the_shape_of_T_and_owns_its_copy():
    T = np.array([[200.0, 250.0, 300.0], [310.0, 320.0, 330.0]])
    pred = kie_qtst(3000.0, 1000.0, T)
    assert pred.ratio.shape == pred.T_K.shape == pred.valid.shape == (2, 3)
    assert pred.ratio.dtype == float and pred.valid.dtype == bool
    assert type(pred.T0_light_K) is float
    assert np.isnan(pred.ratio).tolist() == [[True, False, False], [False, False, False]]
    assert pred.ratio[1, 0] == pytest.approx(kie_qtst(3000.0, 1000.0, 310.0).ratio, rel=4e-15)
    T[1, 0] = 400.0
    assert pred.T_K[1, 0] == 310.0
    nested = kie_qtst(3000.0, 1000.0, [[250.0], [300.0]])
    assert nested.ratio.shape == (2, 1)
    assert kie_qtst(3000.0, 1000.0, []).ratio.shape == (0,)


def test_kie_scalar_call_returns_python_scalars_and_raises_below_crossover():
    pred = kie_qtst(3000.0, 1000.0, 300)
    assert type(pred.ratio) is float and type(pred.T0_light_K) is float and type(pred.valid) is bool
    assert pred.T_K == 300 and type(pred.T_K) is int
    assert type(kie_qtst(3000.0, 1000.0, 300.0).T_K) is float
    with pytest.raises(BelowCrossoverError):
        kie_qtst(3000.0, 1000.0, 200.0)


@pytest.mark.parametrize(
    "T", [[300.0, [310.0]], "abc", {"T": 300.0}, [300.0, -1.0]],
    ids=["ragged", "text", "dict", "negative-row"],
)
def test_kie_rejects_temperatures_that_are_not_positive_numbers(T):
    with pytest.raises(DomainError, match="temperature"):
        kie_qtst(3000.0, 1000.0, T)


# ---------------------------------------------------- apparent Arrhenius


@pytest.mark.parametrize("args", NON_FINITE_KIE_ARGS, ids=NON_FINITE_IDS)
def test_apparent_arrhenius_rejects_non_finite_input(args):
    with pytest.raises(DomainError):
        apparent_arrhenius(*args, Isotope.H, Isotope.D)


@pytest.mark.parametrize("T_R", [np.array([288.0, 300.0]), [200.0, 300.0], np.array([288.0])])
def test_apparent_arrhenius_takes_a_single_temperature(T_R):
    with pytest.raises(DomainError, match="T_R must be a single number"):
        apparent_arrhenius(3000.0, 1000.0, T_R, Isotope.H, Isotope.T)


def test_apparent_arrhenius_reference_values_H_T():
    res = apparent_arrhenius(3000.0, 1000.0, 288.0, Isotope.H, Isotope.T)
    assert res.delta_E_kJ_per_mol == pytest.approx(16.0, abs=0.5)
    assert res.a_ratio == pytest.approx(0.08, abs=0.015)
    assert res.expansion_ok


def test_apparent_arrhenius_reference_values_D_T():
    res = apparent_arrhenius(3000.0, 1000.0, 288.0, Isotope.D, Isotope.T)
    assert res.delta_E_kJ_per_mol == pytest.approx(3.6, abs=0.2)
    assert res.a_ratio == pytest.approx(0.70, abs=0.05)


def test_apparent_arrhenius_frozen_oracles():
    res = apparent_arrhenius(3000.0, 1000.0, 288.0, Isotope.H, Isotope.T)
    assert res.a_ratio == pytest.approx(0.08509207943, rel=1e-9)
    assert res.delta_E_kJ_per_mol == pytest.approx(16.0022786, rel=1e-8)


def test_apparent_arrhenius_same_isotope_trivial():
    res = apparent_arrhenius(3000.0, 1000.0, 288.0, Isotope.D, Isotope.D)
    assert res.a_ratio == 1.0 and res.delta_E_kJ_per_mol == 0.0


def test_apparent_arrhenius_expansion_flag():
    # a soft mode violates hbar*omega0 >> 2 kB T_R for the heavy isotope
    res = apparent_arrhenius(900.0, 200.0, 300.0, Isotope.H, Isotope.T)
    assert not res.expansion_ok


def test_apparent_arrhenius_below_crossover_raises():
    with pytest.raises(BelowCrossoverError):
        apparent_arrhenius(3000.0, 1500.0, 300.0, Isotope.H, Isotope.D)


def test_apparent_arrhenius_continuous_in_reference_temperature():
    values = [
        apparent_arrhenius(3000.0, 1000.0, float(t), Isotope.H, Isotope.T).delta_E_kJ_per_mol
        for t in np.linspace(280.0, 320.0, 41)
    ]
    steps = np.abs(np.diff(values))
    assert np.all(steps < 0.2)  # smooth drift, ~0.15 kJ/mol per kelvin here


def test_apparent_arrhenius_matches_local_log_derivative():
    # central finite differences of ln KIE vs 1/T reproduce delta_E within
    # 2% over the physiological window (expansion self-consistency)
    for T_R in (280.0, 300.0, 320.0):
        h = 1e-3
        k_plus = kie_qtst(3000.0, 1000.0, 1.0 / (1.0 / T_R + h / T_R**2), Isotope.H, Isotope.D).ratio
        k_minus = kie_qtst(3000.0, 1000.0, 1.0 / (1.0 / T_R - h / T_R**2), Isotope.H, Isotope.D).ratio
        dlnk_dinvT = (math.log(k_plus) - math.log(k_minus)) / (2.0 * h / T_R**2)
        delta_E_fd = dlnk_dinvT * KB_KJ
        delta_E = apparent_arrhenius(3000.0, 1000.0, T_R, Isotope.H, Isotope.D).delta_E_kJ_per_mol
        assert delta_E_fd == pytest.approx(delta_E, rel=0.02)


# ----------------------------------------------------------- swain-schaad


def test_swain_schaad_equal_logs():
    assert swain_schaad(math.e * 2.0, math.e * 2.0, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_swain_schaad_semiclassical_value():
    # unit prefactors, zero-point-only activation energies
    x = 7.0  # hbar*omega0/(2 kB T), arbitrary
    kH_over_kT = math.exp(x * (1.0 - 1.0 / math.sqrt(3.0)))
    kD_over_kT = math.exp(x * (1.0 / math.sqrt(2.0) - 1.0 / math.sqrt(3.0)))
    assert swain_schaad(kH_over_kT, kD_over_kT, 1.0) == pytest.approx(3.2572525594, rel=1e-9)


def test_swain_schaad_hand_arithmetic():
    assert swain_schaad(81.0, 3.85, 1.0) == pytest.approx(math.log(81.0) / math.log(3.85), rel=1e-14)


def test_swain_schaad_degenerate_denominator():
    with pytest.raises(DomainError):
        swain_schaad(3.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        swain_schaad(-1.0, 2.0, 1.0)


@pytest.mark.parametrize(
    "rates", [(math.nan, 1.0, 2.0), (3.0, math.inf, 2.0), (3.0, 2.0, math.nan), (math.inf, 2.0, 1.0)]
)
def test_swain_schaad_non_finite_rate_is_domain_error(rates):
    with pytest.raises(DomainError, match="finite"):
        swain_schaad(*rates)


@pytest.mark.parametrize("A", [math.nan, math.inf, 0.0, -1.0])
def test_arrhenius_params_reject_bad_prefactor(A):
    with pytest.raises(DomainError, match="prefactor"):
        ArrheniusFit(A, 3.0, 0.0, 0.0, 0.0)


def test_fit_arrhenius_rejects_a_prefactor_that_underflows():
    # ln A = -2072: exp of the intercept is 0, not a prefactor
    with pytest.raises(DomainError, match="Arrhenius prefactor must be finite and > 0, got 0.0"):
        fit_arrhenius((1.0, 2.0), (1e300, 1e-300))


# -------------------------------------------------------------- classify


def test_classify_methylmalonyl_row_triggers_all_criteria():
    rep = classify(35.6, 0.082, 14.3, (Isotope.H, Isotope.D))
    assert rep.kim_kreevoy_flags == (True, True, True)
    assert rep.outside_bell_low and not rep.outside_bell_high


def test_classify_inside_every_limit():
    rep = classify(5.0, 1.0, 2.0, (Isotope.H, Isotope.D))
    assert rep.kim_kreevoy_flags == (False, False, False)
    assert not rep.outside_bell_low and not rep.outside_bell_high


def test_classify_lipoxygenase_prefactor_above_bell_window():
    rep = classify(81.0, 18.0, 3.8, "H:D")
    assert rep.outside_bell_high and not rep.outside_bell_low


def test_classify_ht_window():
    rep = classify(22.0, 0.13, 13.0, (Isotope.H, Isotope.T))
    assert rep.outside_bell_low  # 0.13 < 0.3
    assert rep.pair == "HT"


def test_classify_unsupported_pair():
    with pytest.raises(DomainError):
        classify(10.0, 1.0, 1.0, (Isotope.T, Isotope.T))


@pytest.mark.parametrize("text", ["HT", "h/t", " H : T "])
def test_classify_reads_a_pair_in_any_syntax(text):
    assert classify(22.0, 0.13, 13.0, text) == classify(22.0, 0.13, 13.0, (Isotope.H, Isotope.T))


@pytest.mark.parametrize("text", ["HH", "H:H", "D/H"])
def test_classify_still_rejects_a_pair_outside_its_tables(text):
    with pytest.raises(DomainError):
        classify(10.0, 1.0, 1.0, text)


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan, 0.5, 2.0), "kie must be finite and > 0, got nan"),
        ((math.inf, 0.5, 2.0), "kie must be finite and > 0, got inf"),
        ((-3.0, 0.5, 2.0), "kie must be finite and > 0, got -3.0"),
        ((0.0, 0.5, 2.0), "kie must be finite and > 0, got 0.0"),
        ((5.0, math.nan, 2.0), "a_ratio must be finite and > 0, got nan"),
        ((5.0, -1.0, 2.0), "a_ratio must be finite and > 0, got -1.0"),
        ((5.0, 0.5, math.inf), "delta_E_kJ_per_mol must be finite, got inf"),
        ((5.0, 0.5, -math.inf), "delta_E_kJ_per_mol must be finite, got -inf"),
        ((5.0, 0.5, math.nan), "delta_E_kJ_per_mol must be finite, got nan"),
    ],
)
def test_classify_rejects_inputs_that_are_not_measurements(args, message):
    with pytest.raises(DomainError) as info:
        classify(*args)
    assert str(info.value) == message


def test_classify_accepts_a_negative_delta_E_and_echoes_inputs_as_passed():
    rep = classify(5, 0.5, -1.5, "H:D")
    assert (rep.kie, rep.a_ratio, rep.delta_E_kJ_per_mol) == (5, 0.5, -1.5)
    assert type(rep.kie) is int and not rep.delta_E_above_limit
    # every complete row of the bundled table passes the checks
    rows = [r for r in load_table1() if None not in (r["kie"], r["a_ratio"], r["delta_E"])]
    assert rows and all(classify(r["kie"], r["a_ratio"], r["delta_E"], r["pair"]) for r in rows)


# ---------------------------------------------------------- bundled data


def test_limits_file_contents():
    limits = _bundled_json("limits.json")
    assert limits["schema"] == "qtst/1"
    assert limits["kim_kreevoy"]["kie_hd_min"] == 6.4
    assert limits["kim_kreevoy"]["delta_E_kJ_per_mol_min"] == 5.0
    assert limits["kim_kreevoy"]["a_ratio_hd_max"] == 0.7
    assert limits["bell_prefactor_ranges"]["ranges"]["HT"] == [0.3, 1.7]
    assert limits["bell_prefactor_ranges"]["ranges"]["DT"] == [0.5, 1.4]
    # the zero-point formula value differs from the tabulated limit row;
    # both ship, clearly labelled
    assert limits["zero_point_formula"]["delta_E_HD_kJ_per_mol"] == pytest.approx(
        0.5 * 3000.0 * 0.011962656563869701 * (1 - 1 / math.sqrt(2)), abs=2e-4
    )
    assert limits["semiclassical_limit_rows"]["HD"]["delta_E_kJ_per_mol_max"] == 3.1


def test_table1_rows_complete_and_typed():
    rows = load_table1()
    assert len(rows) >= 30
    byname = {r["name"]: r for r in rows}
    mm = byname["Methylmalonyl-CoA mutase"]
    assert mm["kie"] == 35.6 and mm["kie_err"] == 2.4 and mm["pair"] == "HD"
    mao = byname["Flavoenzyme monoamine oxidase"]
    assert mao["pair"] == "HT" and mao["a_ratio"] == 0.13 and mao["delta_E"] == 13
    assert all(r["pair"] in ("HD", "HT") for r in rows)


def test_changing_loaded_reference_data_changes_no_later_result(capsys):
    # the bundled table is parsed once and shared; load_table1 returns a copy
    import qtst.cli

    def table1_reports():
        assert qtst.cli.main(["classify", "--dataset", "table1"]) == 0
        return capsys.readouterr().out

    reports = table1_reports()
    rows = load_table1()
    rows[0]["kie"] = 1e6
    rows.pop()
    assert table1_reports() == reports
    assert load_table1()[0]["kie"] != 1e6 and len(load_table1()) == len(rows) + 1


def test_barrier_frequency_table():
    rows = _bundled_json("table3_omegab.json")["rows"]
    assert any(r["omega_b_cm1"] == 2913 for r in rows)  # soybean lipoxygenase
    assert all(r["omega_b_cm1"] > 0 and r["max_T0_K"] > 0 for r in rows)
