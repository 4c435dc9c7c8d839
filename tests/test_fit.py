import json
import math
import types

import numpy as np
import pytest

from qtst import (
    FitConfig,
    Isotope,
    KIEDataset,
    apparent_arrhenius,
    crossover_temperature,
    fit_arrhenius,
    fit_kie,
    kie_qtst,
)
from qtst.errors import DomainError, FitConvergenceError

from oracles import kie_model_two_rows


def synth_dataset(omega0=3000.0, omegab=1000.0, n=10, lo=275.0, hi=320.0,
                  noise=0.0, seed=1234, pair=(Isotope.H, Isotope.D), sigma=None):
    T = np.linspace(lo, hi, n)
    y = np.array([kie_qtst(omega0, omegab, float(t), *pair).ratio for t in T])
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise * rng.standard_normal(T.size))
    s = None if sigma is None else tuple(sigma * y)
    return KIEDataset(tuple(T), tuple(y), s, pair[0], pair[1])


# ---------------------------------------------------------------- fit_kie


def test_noiseless_recovery_exact():
    res = fit_kie(synth_dataset())
    assert res.omega0 == pytest.approx(3000.0, rel=1e-6)
    assert res.omegab == pytest.approx(1000.0, rel=1e-6)
    assert res.residual_norm < 1e-6
    assert res.valid
    assert res.n_starts_converged > 0


def test_noisy_recovery_within_five_percent():
    # 2% multiplicative gaussian noise, documented fixed seed
    res = fit_kie(synth_dataset(noise=0.02, seed=1234))
    assert res.omega0 == pytest.approx(3000.0, rel=0.05)
    assert res.omegab == pytest.approx(1000.0, rel=0.05)


def test_kie_model_is_kie_qtst_above_the_clamp_and_penalised_below():
    from qtst.fit import _kie_model

    omega0, omegab = 3000.0, 1000.0
    t0 = crossover_temperature(omegab)
    T = np.linspace(0.9 * t0, 2.0 * t0, 23)
    model = _kie_model(T, omega0, omegab, Isotope.H, Isotope.T)[0]
    T_min = 1.02 * t0
    for t, value in zip(T, model):
        if t > T_min:
            expected = kie_qtst(omega0, omegab, float(t), Isotope.H, Isotope.T).ratio
        else:
            u = (T_min - t) / t0
            expected = kie_qtst(omega0, omegab, T_min, Isotope.H, Isotope.T).ratio * (1.0 + 10.0 * u * u)
        assert value == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("light, heavy", [(Isotope.H, Isotope.D), (Isotope.H, Isotope.T), (Isotope.D, Isotope.T)])
def test_kie_model_equals_kie_qtst_bit_for_bit_above_the_clamp(light, heavy):
    # the polish minimises the KIE that kie_qtst reports and `qtst fit
    # --curve` writes: one formula, so equal by ==, not to a tolerance
    from qtst.fit import _kie_model

    rng = np.random.default_rng(34)
    for omega0, omegab in zip(rng.uniform(500.0, 5000.0, 40), rng.uniform(100.0, 3000.0, 40)):
        t0 = crossover_temperature(omegab / math.sqrt(light.mass_number))
        T = t0 * rng.uniform(1.02, 3.0, 25)
        model = _kie_model(T, float(omega0), float(omegab), light, heavy)[0]
        assert model.tolist() == kie_qtst(float(omega0), float(omegab), T, light, heavy).ratio.tolist()


def test_fit_implied_crossover_and_validity():
    res = fit_kie(synth_dataset())
    assert res.implied_T0 == pytest.approx(0.22898845206107345 * res.omegab, rel=1e-12)
    cold = synth_dataset(lo=239.0, hi=320.0)  # 239 K is within 5% of T0(H)
    assert not fit_kie(cold).valid


@pytest.mark.parametrize(
    "pair, lo, valid",
    [((Isotope.H, Isotope.D), 250.0, True), ((Isotope.H, Isotope.T), 250.0, True),
     ((Isotope.D, Isotope.T), 185.0, True), ((Isotope.D, Isotope.T), 168.0, False)],
    ids=["HD", "HT", "DT", "DT-fringe"],
)
def test_fit_validity_is_kie_qtst_rule_at_the_light_crossover(pair, lo, valid):
    # a series the model itself generates is valid from 1.05*T0 of its light
    # isotope: a D:T series from 185 K lies below 1.05*T0 of H (240 K), but
    # not of D (170 K), while 168 K lies inside D's fringe; the implied T0
    # stays hydrogen's
    res = fit_kie(synth_dataset(lo=lo, hi=lo + 60.0, n=8, pair=pair))
    assert res.omega0 == pytest.approx(3000.0, rel=1e-6)
    assert res.omegab == pytest.approx(1000.0, rel=1e-6)
    assert res.implied_T0 == crossover_temperature(res.omegab)
    assert res.valid is valid
    assert kie_qtst(res.omega0, res.omegab, lo, *pair).valid is valid


@pytest.mark.parametrize("light, heavy", [(Isotope.H, Isotope.D), (Isotope.H, Isotope.T), (Isotope.D, Isotope.T)])
def test_kie_model_equals_the_two_row_oracle_bit_for_bit(light, heavy):
    # per isotope, the model and its Jacobian take the former two-row
    # operations element by element, in clamped rows too
    from qtst.fit import _kie_model

    rng = np.random.default_rng(36)
    for omega0, omegab in zip(rng.uniform(500.0, 5000.0, 40).tolist(), rng.uniform(100.0, 3000.0, 40).tolist()):
        t0 = crossover_temperature(omegab / math.sqrt(light.mass_number))
        T = np.sort(t0 * rng.uniform(0.8, 3.0, 25))
        got = _kie_model(T, omega0, omegab, light, heavy)
        want = kie_model_two_rows(T, omega0, omegab, light, heavy)
        for g, w in zip(got, want):
            assert [v.hex() for v in g.tolist()] == [v.hex() for v in w.tolist()]


def test_objective_not_worse_than_any_start():
    data = synth_dataset(noise=0.02, seed=7)
    config = FitConfig()
    res = fit_kie(data, config)
    T, y, _ = data.sorted_arrays()

    def cost(om0, omb):
        try:
            model = np.array([kie_qtst(om0, omb, float(t), data.light, data.heavy).ratio for t in T])
        except Exception:
            return np.inf
        return float(np.sum((model - y) ** 2))

    best_cost = cost(res.omega0, res.omegab)
    for om0 in config.omega0_starts:
        for omb in config.omegab_starts:
            assert best_cost <= cost(om0, omb) + 1e-12


@pytest.mark.parametrize(
    "config, bound",
    [(FitConfig(omegab_bounds=(900.0, 3000.0)), {"omegab": 900.0}),
     (FitConfig(omega0_bounds=(500.0, 2500.0)), {"omega0": 2500.0})],
    ids=["omegab-at-its-lower-bound", "omega0-at-its-upper-bound"],
)
def test_fit_optimum_on_a_bound(config, bound):
    # the unbounded optimum, near (3000, 800), lies outside each box: the
    # polish stops on the bound, at the minimum along the other coordinate
    data = synth_dataset(omega0=3000.0, omegab=800.0, noise=0.02, seed=5)
    res = fit_kie(data, config)
    assert res.n_starts_converged > 0
    (name, value), = bound.items()
    assert getattr(res, name) == value
    T, y, _ = data.sorted_arrays()

    def cost(**params):
        point = {"omega0": res.omega0, "omegab": res.omegab, **params}
        model = kie_qtst(point["omega0"], point["omegab"], T, data.light, data.heavy).ratio
        return float(np.sum((model - y) ** 2))

    free = "omega0" if name == "omegab" else "omegab"
    inward = 1.001 if value == getattr(config, f"{name}_bounds")[0] else 0.999
    best = cost()
    assert best < cost(**{name: value * inward})
    assert best <= cost(**{free: getattr(res, free) * 1.001})
    assert best <= cost(**{free: getattr(res, free) * 0.999})


def test_weight_scale_invariance():
    base = synth_dataset(noise=0.02, seed=42, sigma=0.05)
    scaled = KIEDataset(base.T_K, base.kie, tuple(10.0 * s for s in base.sigma),
                        base.light, base.heavy)
    r1, r2 = fit_kie(base), fit_kie(scaled)
    assert r2.omega0 == pytest.approx(r1.omega0, rel=1e-6)
    assert r2.omegab == pytest.approx(r1.omegab, rel=1e-6)


def test_point_order_invariance_bit_identical():
    data = synth_dataset(noise=0.02, seed=3)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(data))
    shuffled = KIEDataset(
        tuple(np.asarray(data.T_K)[perm]),
        tuple(np.asarray(data.kie)[perm]),
        None,
        data.light,
        data.heavy,
    )
    r1, r2 = fit_kie(data), fit_kie(shuffled)
    assert r1.omega0 == r2.omega0
    assert r1.omegab == r2.omegab
    assert r1.residual_norm == r2.residual_norm
    assert r1.covariance == r2.covariance


def test_covariance_symmetric_psd():
    res = fit_kie(synth_dataset(noise=0.02, seed=11))
    cov = np.array(res.covariance)
    assert np.allclose(cov, cov.T)
    eigs = np.linalg.eigvalsh(cov)
    assert np.all(eigs >= -1e-12 * max(1.0, eigs.max()))


def test_polishes_run_through_the_module_level_solver_name(monkeypatch):
    # bench/tracer.py counts the polishes by replacing qtst.fit.least_squares
    from qtst import fit

    calls = []
    solver = fit.least_squares

    def counting(*args, **kwargs):
        calls.append(kwargs["x0"])
        return solver(*args, **kwargs)

    monkeypatch.setattr(fit, "least_squares", counting)
    res = fit_kie(synth_dataset())
    assert len(calls) >= res.n_starts_converged > 0


def test_a_later_polish_can_beat_the_best_lattice_cell(monkeypatch):
    # an H:T series whose best lattice cell polishes to a local minimum; the
    # third lattice minimum polishes to a lower one, and the fit returns it
    from qtst import fit

    polishes = []
    solver = fit.least_squares

    def recording(*args, **kwargs):
        res = solver(*args, **kwargs)
        polishes.append((float(np.linalg.norm(res.fun)), *res.x.tolist(), res.success))
        return res

    monkeypatch.setattr(fit, "least_squares", recording)
    data = KIEDataset((334.42191, 338.997123, 362.473971), (91.2934, 85.3967, 48.2798),
                      light=Isotope.H, heavy=Isotope.T)
    res = fit_kie(data)
    assert len(polishes) == 3 and all(p[3] for p in polishes)
    first, _, third = polishes
    for (norm, omega0, omegab, _), want in ((first, (3.8657, 3342.7, 1275.3)), (third, (3.2540, 1274.5, 1528.5))):
        assert norm == pytest.approx(want[0], abs=1e-4)
        assert (omega0, omegab) == pytest.approx(want[1:], abs=0.05)
    assert (res.residual_norm, res.omega0, res.omegab) == third[:3]
    assert res.n_starts_converged == 3


def _unconverged_solver(*args, **kwargs):
    return types.SimpleNamespace(success=False, cost=0.0)


@pytest.mark.parametrize("solver", [_unconverged_solver], ids=["unconverged"])
def test_fit_fails_when_no_polish_converges(solver, monkeypatch):
    from qtst import fit

    monkeypatch.setattr(fit, "least_squares", solver)
    with pytest.raises(FitConvergenceError, match="no polish from the screened lattice converged"):
        fit_kie(synth_dataset())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"omega0_bounds": (500.0, math.nan)},  # once a bare ValueError from the lattice
        {"omegab_bounds": (100.0, math.inf)},  # once a bare OverflowError
        {"omegab_bounds": (0.0, 3000.0)},
        {"omega0_bounds": (5000.0, 500.0)},
        {"omegab_bounds": (100.0,)},
        {"omegab_starts": (700.0, math.nan)},
        {"omega0_starts": (-math.inf,)},
        {"omega0_starts": 2000.0},
        {"omegab_starts": ((700.0, 900.0), (1100.0, 1300.0))},
        {"omega0_starts": ((1.0, 2.0), (3.0,))},  # once numpy's own ValueError
    ],
    ids=["omega0-nan", "omegab-inf", "omegab-zero", "omega0-reversed", "omegab-single", "start-nan", "start-inf",
         "start-scalar", "starts-2d", "starts-ragged"],
)
def test_fit_config_rejects_bad_bounds_and_starts(kwargs):
    with pytest.raises(DomainError):
        FitConfig(**kwargs)


def test_fit_config_stores_floats_and_accepts_starts_outside_the_bounds():
    config = FitConfig(omega0_starts=(100, 9000), omegab_bounds=(200, 2000))
    assert config.omega0_starts == (100.0, 9000.0) and config.omegab_bounds == (200.0, 2000.0)
    assert all(type(v) is float for v in config.omega0_starts + config.omegab_bounds)


def test_fit_requires_three_points():
    with pytest.raises(DomainError):
        fit_kie(KIEDataset((300.0, 310.0), (10.0, 9.0)))


@pytest.mark.parametrize("iso", list(Isotope))
def test_fit_refuses_an_equal_pair(iso):
    # the model is 1 at every T, so no parameter is identified; the series
    # itself is allowed, as the shared isotope-order rule allows it
    data = KIEDataset((280.0, 300.0, 320.0), (1.0, 1.0, 1.0), light=iso, heavy=iso)
    with pytest.raises(DomainError, match=f"equal pair \\({iso.name}:{iso.name}\\)"):
        fit_kie(data)


def test_fit_all_points_below_crossover():
    # 20 K data cannot sit above the crossover of any admissible omega_b
    data = KIEDataset((10.0, 15.0, 20.0), (5.0, 4.0, 3.0))
    with pytest.raises(FitConvergenceError):
        fit_kie(data)


def test_fit_ht_pair_dataset():
    data = synth_dataset(omega0=2100.0, omegab=1048.0, lo=278.0, hi=318.0,
                         pair=(Isotope.H, Isotope.T))
    res = fit_kie(data)
    assert res.omega0 == pytest.approx(2100.0, rel=1e-5)
    assert res.omegab == pytest.approx(1048.0, rel=1e-5)


def test_fit_result_json_schema():
    payload = fit_kie(synth_dataset()).to_json()
    assert payload["schema"] == "qtst/1"
    assert set(payload) >= {"omega0_cm1", "omegab_cm1", "covariance", "implied_T0_K", "valid"}
    json.dumps(payload)


# ------------------------------------------------------------ csv intake


def test_dataset_from_csv_text_with_sigma():
    text = "T_K,kie,sigma\n280,20.5,1.0\n300,15.2,0.8\n320,12.0,0.6\n"
    data = KIEDataset.from_csv_text(text, pair="H:T")
    assert data.light is Isotope.H and data.heavy is Isotope.T
    assert data.sigma == (1.0, 0.8, 0.6)


def test_dataset_from_csv_file_with_sidecar(tmp_path):
    csv_path = tmp_path / "kie.csv"
    csv_path.write_text("T_K,kie\n280,20.5\n300,15.2\n320,12.0\n")
    (tmp_path / "kie.json").write_text(json.dumps({"pair": "D:T", "label": "demo"}))
    data = KIEDataset.from_csv(csv_path)
    assert data.light is Isotope.D and data.heavy is Isotope.T
    assert data.label == "demo"


def test_dataset_sidecar_pair_with_a_slash(tmp_path):
    csv_path = tmp_path / "kie.csv"
    csv_path.write_text("T_K,kie\n280,20.5\n300,15.2\n320,12.0\n")
    (tmp_path / "kie.json").write_text(json.dumps({"pair": "H/T"}))
    data = KIEDataset.from_csv(csv_path)
    assert (data.light, data.heavy) == (Isotope.H, Isotope.T)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["T_K", "kie", "sigma"])
def test_dataset_rejects_non_finite_values(field, bad):
    columns = {"T_K": [280.0, 300.0, 320.0], "kie": [9.0, 8.0, 7.0], "sigma": [0.1, 0.1, 0.1]}
    columns[field][1] = bad
    with pytest.raises(DomainError):
        KIEDataset(tuple(columns["T_K"]), tuple(columns["kie"]), tuple(columns["sigma"]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KIEDataset((280.0, 300.0, 320.0), (9.0, 8.0)), "T_K and kie must be 1-d sequences of equal length"),
        (lambda: KIEDataset((280.0, 300.0, 320.0), (9.0, 8.0, 7.0), (0.1, 0.1)), "sigma must match the data length"),
        (lambda: KIEDataset.from_csv_text("T,k\n280,9\n300,8\n320,7\n"), "expected CSV header 'T_K,kie[,sigma]'"),
        (lambda: KIEDataset.from_csv_text("280,9\n300,8\n320,7\n"), "expected CSV header 'T_K,kie[,sigma]'"),
    ],
    ids=["kie-length", "sigma-length", "wrong-header", "no-header"],
)
def test_dataset_rejects_mismatched_columns_and_a_missing_header(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_dataset_csv_skips_blank_rows_and_ignores_extra_cells():
    text = "T_K,kie,sigma,note\n\n280,20.5,1.0,a\n,,\n300,15.2,0.8,b\n320,12.0,0.6\n"
    data = KIEDataset.from_csv_text(text)
    assert data.T_K == (280.0, 300.0, 320.0) and data.sigma == (1.0, 0.8, 0.6)


def test_dataset_sigma_empty_in_only_some_rows_is_rejected():
    with pytest.raises(DomainError, match="sigma"):
        KIEDataset.from_csv_text("T_K,kie,sigma\n280,20.5,1.0\n300,15.2,\n320,12.0,0.6\n")


def test_bundled_fig3_loads_with_unit_weights_and_its_sidecar_pair():
    # fig3's sigma column is empty in every row
    from importlib import resources

    data = KIEDataset.from_csv(resources.files("qtst.data") / "fig3_mcm.csv")
    assert data.sigma is None
    assert (data.light, data.heavy) == (Isotope.H, Isotope.D)


def test_dataset_rejects_bad_csv():
    with pytest.raises(DomainError):
        KIEDataset.from_csv_text("")
    with pytest.raises(DomainError):
        KIEDataset.from_csv_text("wrong,header\n1,2\n")
    with pytest.raises(DomainError):
        KIEDataset.from_csv_text("T_K,kie\n300,5\n300,6\n310,4\n")  # duplicate T


# --------------------------------------------------------- bundled figure


def test_bundled_fig4_dataset_fit():
    from qtst.kie import load_dataset_csv

    data = KIEDataset.from_csv_text(load_dataset_csv("fig4_mao.csv"), pair="H:T")
    res = fit_kie(data)
    assert 1900.0 <= res.omega0 <= 2300.0
    assert 220.0 <= res.implied_T0 <= 260.0
    assert res.valid


# ------------------------------------------------------------- arrhenius


def test_arrhenius_exact_recovery():
    T = np.linspace(280.0, 330.0, 8)
    kb = 1.380649e-23 * 6.02214076e23 / 1000.0
    k = 7.3e9 * np.exp(-52.0 / (kb * T))
    res = fit_arrhenius(T, k)
    assert res.A == pytest.approx(7.3e9, rel=1e-10)
    assert res.E_kJ_per_mol == pytest.approx(52.0, rel=1e-10)
    assert res.residual_norm < 1e-10
    assert res.stderr_E_kJ_per_mol < 1e-8


def test_arrhenius_two_points_interpolates():
    res = fit_arrhenius([300.0, 320.0], [1.0e3, 5.0e3])
    kb = 1.380649e-23 * 6.02214076e23 / 1000.0
    for T, k in ((300.0, 1.0e3), (320.0, 5.0e3)):
        assert res.A * math.exp(-res.E_kJ_per_mol / (kb * T)) == pytest.approx(k, rel=1e-10)
    assert res.stderr_E_kJ_per_mol == 0.0


def test_arrhenius_degenerate_design():
    with pytest.raises(DomainError):
        fit_arrhenius([300.0, 300.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        fit_arrhenius([300.0], [1.0])


@pytest.mark.parametrize(
    "T, k",
    [
        ([300.0, math.nan, 320.0], [1.0, 2.0, 3.0]),
        ([300.0, math.inf, 320.0], [1.0, 2.0, 3.0]),
        ([300.0, 310.0, 320.0], [1.0, math.nan, 3.0]),
        ([300.0, 310.0, 320.0], [1.0, math.inf, 3.0]),
    ],
)
def test_arrhenius_non_finite_input_is_domain_error(T, k):
    with pytest.raises(DomainError, match="finite"):
        fit_arrhenius(T, k)


def test_arrhenius_cross_checks_apparent_parameters():
    # regressing the KIE curve over the physiological window reproduces
    # the locally expanded activation-energy difference within 5%
    T = np.linspace(275.0, 320.0, 10)
    ratios = [kie_qtst(3000.0, 1000.0, float(t), Isotope.H, Isotope.T).ratio for t in T]
    res = fit_arrhenius(T, ratios)
    expected = apparent_arrhenius(3000.0, 1000.0, 297.0, Isotope.H, Isotope.T)
    # the fitted "activation energy" of the ratio is E_T - E_H
    assert -res.E_kJ_per_mol == pytest.approx(-(-expected.delta_E_kJ_per_mol), rel=0.05)
    assert res.E_kJ_per_mol == pytest.approx(-expected.delta_E_kJ_per_mol, rel=0.05)
