import json
import math

import numpy as np
import pytest

from qtst.cli import main
from qtst import Isotope, kie_qtst


def run(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ------------------------------------------------------------ kie-predict


def test_kie_predict_monotone_curve(tmp_path):
    out = tmp_path / "kie.csv"
    rc = run([
        "kie-predict", "--omega0", "3000", "--omegab", "1000", "--pair", "H:D",
        "--tmin", "275", "--tmax", "325", "--points", "11", "--output", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["T_K", "kie", "valid"]
    kies = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(kies, kies[1:]))
    assert all(r[2] == "1" for r in rows)
    # spot check against the library
    assert kies[0] == pytest.approx(
        kie_qtst(3000.0, 1000.0, 275.0, Isotope.H, Isotope.D).ratio, rel=1e-9
    )


def test_kie_predict_degenerate_pair_constant_one(tmp_path):
    out = tmp_path / "same.csv"
    rc = run([
        "kie-predict", "--omega0", "3000", "--omegab", "1000", "--pair", "H:H",
        "--tmin", "280", "--tmax", "320", "--points", "5", "--output", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    assert all(float(r[1]) == 1.0 for r in rows)


def test_kie_predict_below_crossover_rows_flagged(tmp_path, capsys):
    out = tmp_path / "cold.csv"
    rc = run([
        "kie-predict", "--omega0", "3000", "--omegab", "1000", "--pair", "H:D",
        "--tmin", "200", "--tmax", "320", "--points", "7", "--output", str(out),
    ])
    assert rc == 0  # flagged rows, not an error
    assert "crossover" in capsys.readouterr().err
    _, rows = read_csv(out)
    flags = [r[2] for r in rows]
    assert "0" in flags and "1" in flags
    # rows at or below the crossover itself carry no value; rows in the
    # 5% fringe above it carry a value but are still flagged invalid
    t0_h = 0.22898845206107345 * 1000.0
    for r in rows:
        if float(r[0]) <= t0_h:
            assert r[1] == "nan" and r[2] == "0"
    assert any(r[1] == "nan" for r in rows)


def test_kie_predict_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["kie-predict", "--omega0", "2800", "--omegab", "900", "--points", "9"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_kie_predict_config_file_merging(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"omega0": 3000.0, "omegab": 1000.0, "points": 5, "tmin": 280.0, "tmax": 320.0}))
    out1 = tmp_path / "o1.csv"
    rc = run(["kie-predict", "--omega0", "3000", "--omegab", "1000", "--config", str(cfg), "--output", str(out1)])
    assert rc == 0
    _, rows = read_csv(out1)
    assert len(rows) == 5
    # explicit flag wins over the config value
    out2 = tmp_path / "o2.csv"
    rc = run([
        "kie-predict", "--omega0", "3000", "--omegab", "1000", "--config", str(cfg),
        "--points", "3", "--output", str(out2),
    ])
    assert rc == 0
    _, rows = read_csv(out2)
    assert len(rows) == 3


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"omega_zero": 1.0}))
    rc = run(["kie-predict", "--omega0", "3000", "--omegab", "1000", "--config", str(cfg)])
    assert rc == 2


def test_gnuplot_script_emitted(tmp_path):
    out = tmp_path / "kie.csv"
    gp = tmp_path / "kie.gp"
    rc = run([
        "kie-predict", "--omega0", "3000", "--omegab", "1000",
        "--output", str(out), "--gnuplot", str(gp),
    ])
    assert rc == 0
    text = gp.read_text()
    assert "plot" in text and str(out) in text


# ------------------------------------------------------------------ rate


def test_rate_quantum_curve(tmp_path):
    out = tmp_path / "rate.csv"
    rc = run([
        "rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40",
        "--gamma", "100", "--omega-d", "300", "--tmin", "260", "--tmax", "340",
        "--points", "5", "--output", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["T_K", "k", "c_qm", "regime"]
    ks = [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    assert all(float(r[2]) >= 1.0 for r in rows)


def test_rate_classical_kind(tmp_path):
    out = tmp_path / "ratec.csv"
    rc = run([
        "rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40",
        "--kind", "classical", "--tmin", "300", "--tmax", "300", "--points", "1",
        "--output", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    assert rows[0][3] == "classical"
    assert float(rows[0][2]) == 1.0


# ------------------------------------------------------------- crossover


def test_crossover_sweep_trends(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run([
        "crossover", "--omegab", "1000", "--omega-d", "10", "100000",
        "--gamma-max", "3", "--points", "7", "--output", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    slow = [float(r[3]) for r in rows if r[1] == "10"]
    fast = [float(r[3]) for r in rows if r[1] == "100000"]
    assert slow[0] == pytest.approx(0.22898845 * 1000.0, rel=1e-6)
    assert all(a >= b - 1e-9 for a, b in zip(slow, slow[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(fast, fast[1:]))
    # slow bath: nearly flat; fast bath: strongly suppressed
    assert slow[-1] > 0.95 * slow[0]
    assert fast[-1] < 0.55 * fast[0]


# -------------------------------------------------------------- classify


def test_classify_bundled_rows(tmp_path):
    out = tmp_path / "cls.json"
    rc = run(["classify", "--dataset", "table1", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "qtst/1"
    byname = {r["name"]: r for r in payload["reports"]}
    mm = byname["Methylmalonyl-CoA mutase"]
    assert all(mm["kim_kreevoy"].values())
    slo = byname["Soybean lipoxygenase (Wild type)"]
    assert slo["bell"]["outside_high"]


def test_classify_unknown_row_is_config_error():
    assert run(["classify", "--dataset", "table1", "--row", "no-such-enzyme"]) == 2


def test_classify_manual_values(tmp_path):
    out = tmp_path / "one.json"
    rc = run([
        "classify", "--kie", "5", "--a-ratio", "1.0", "--delta-e", "2",
        "--pair", "H:D", "--output", str(out),
    ])
    assert rc == 0
    rep = json.loads(out.read_text())["reports"][0]
    assert not any(rep["kim_kreevoy"].values())


# ------------------------------------------------------------------- fit


def test_fit_synthetic_noiseless(tmp_path):
    T = np.linspace(275.0, 320.0, 10)
    rows = ["T_K,kie"]
    rows += [f"{t:.4f},{kie_qtst(3000.0, 1000.0, float(t), Isotope.H, Isotope.D).ratio:.10f}" for t in T]
    data = tmp_path / "synthetic.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    curve = tmp_path / "curve.csv"
    rc = run(["fit", "--input", str(data), "--pair", "H:D", "--output", str(out), "--curve", str(curve)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["schema"] == "qtst/1"
    assert res["omega0_cm1"] == pytest.approx(3000.0, rel=1e-5)
    assert res["omegab_cm1"] == pytest.approx(1000.0, rel=1e-5)
    header, crows = read_csv(curve)
    assert header == ["T_K", "kie_model"] and len(crows) == 101


def test_fit_bundled_fig4(tmp_path):
    out = tmp_path / "fig4.json"
    rc = run(["fit", "--input", "fig4", "--output", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert 1900.0 <= res["omega0_cm1"] <= 2300.0
    assert res["pair"] == "H:T"


def test_fit_empty_file_is_config_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["fit", "--input", str(empty)]) == 2


def test_fit_missing_file_is_config_error():
    assert run(["fit", "--input", "/nonexistent/data.csv"]) == 2


# --------------------------------------------------------------- spectral


def test_spectral_grid_with_inline_json(tmp_path):
    out = tmp_path / "spec.csv"
    rc = run([
        "spectral", "--friction", json.dumps({"kind": "drude", "gamma": 100.0, "omega_d": 100.0}),
        "--zmin", "100", "--zmax", "100", "--points", "1", "--output", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(50.0, rel=1e-9)
    assert float(rows[0][3]) == pytest.approx(100.0 * 100.0 / 100.0, rel=1e-9)


def test_spectral_requires_model():
    assert run(["spectral"]) == 2


# ------------------------------------------------------------------- wkb


def test_wkb_parabolic_table(tmp_path):
    out = tmp_path / "wkb.csv"
    rc = run([
        "wkb", "--potential", "parabolic", "--barrier", "40", "--omegab", "1000",
        "--points", "5", "--output", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    for r in rows:
        E, S, P = map(float, r)
        assert S == pytest.approx(math.pi * (40.0 - E) / (0.011962656563869701 * 1000.0), rel=1e-8)
        # S is printed at 10 significant digits, so match at that level
        assert P == pytest.approx(math.exp(-2 * S), rel=1e-8)


# ------------------------------------------------- swain-schaad, arrhenius


def test_swain_schaad_command(tmp_path):
    out = tmp_path / "ss.json"
    rc = run(["swain-schaad", "--kh", "81", "--kd", "3.85", "--kt", "1.0", "--output", str(out)])
    assert rc == 0
    val = json.loads(out.read_text())["swain_schaad_exponent"]
    assert val == pytest.approx(math.log(81) / math.log(3.85), rel=1e-12)


def test_swain_schaad_degenerate_is_domain_error():
    assert run(["swain-schaad", "--kh", "3", "--kd", "2", "--kt", "2"]) == 3


def test_arrhenius_command(tmp_path):
    kb = 1.380649e-23 * 6.02214076e23 / 1000.0
    lines = ["T_K,k"]
    for T in (280.0, 300.0, 320.0):
        lines.append(f"{T},{2.5e8 * math.exp(-30.0 / (kb * T)):.10e}")
    data = tmp_path / "rates.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "arr.json"
    rc = run(["arrhenius", "--input", str(data), "--output", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["A"] == pytest.approx(2.5e8, rel=1e-8)
    assert res["E_kJ_per_mol"] == pytest.approx(30.0, rel=1e-8)


# ------------------------------------------------------------- exit codes


def test_domain_error_exit_code():
    # zero temperature grid is caught as a config error, but a domain
    # failure inside the library maps to exit 3
    assert run(["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40",
                "--kind", "classical", "--tmin", "-5", "--tmax", "300"]) == 2
    assert run(["classify", "--kie", "10", "--a-ratio", "1", "--delta-e", "1",
                "--pair", "T:T"]) == 3


@pytest.mark.parametrize("flag", ["--omega0", "--omegab"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_kie_predict_non_finite_frequency_is_domain_error(tmp_path, flag, value):
    args = {"--omega0": "3000", "--omegab": "1000"}
    args[flag] = value
    out = tmp_path / "kie.csv"
    rc = run(["kie-predict", "--omega0", args["--omega0"], "--omegab", args["--omegab"],
              "--tmin", "275", "--tmax", "325", "--output", str(out)])
    assert rc == 3
    assert not out.exists()


def test_help_lists_units_for_numeric_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kie-predict", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "cm^-1" in text and "(K)" in text


def test_fit_failure_exit_code(tmp_path):
    # well-formed file whose temperatures sit below every admissible
    # crossover: the fit cannot proceed and reports failure, exit 4
    data = tmp_path / "cold.csv"
    data.write_text("T_K,kie\n10,5\n15,4\n20,3\n")
    assert run(["fit", "--input", str(data), "--pair", "H:D"]) == 4
