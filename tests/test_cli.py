import json
import math
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from qtst.cli import build_parser, main
from qtst import BarrierSystem, DebyeDielectricFriction, Isotope, effective_barrier_frequency, kie_qtst

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


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


def test_kie_predict_pair_syntaxes_give_the_same_curve(tmp_path):
    texts = []
    for i, pair in enumerate(("H:D", "HD", "h/d")):
        out = tmp_path / f"kie{i}.csv"
        rc = run(["kie-predict", "--omega0", "3000", "--omegab", "1000", "--pair", pair,
                  "--tmin", "280", "--tmax", "320", "--points", "5", "--output", str(out)])
        assert rc == 0
        texts.append(out.read_text())
    assert texts[1] == texts[0] and texts[2] == texts[0]


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


@pytest.mark.parametrize("command", ["kie-predict", "fit"])
def test_kie_curve_is_one_kie_qtst_call(command, tmp_path, monkeypatch):
    from qtst import kie as kiemod

    calls = []

    def counted(*args):
        calls.append(args)
        return kie_qtst(*args)

    monkeypatch.setattr(kiemod, "kie_qtst", counted)
    out = tmp_path / "curve.csv"
    if command == "fit":
        argv = ["fit", "--input", "fig4", "--curve", str(out), "--output", str(tmp_path / "fit.json")]
    else:
        argv = ["kie-predict", "--omega0", "3000", "--omegab", "1000", "--tmin", "200", "--points", "51",
                "--output", str(out)]
    assert run(argv) == 0
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 1 + (101 if command == "fit" else 51)


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


KIE_FLAGS = ["kie-predict", "--omega0", "3000", "--omegab", "1000"]


def _config_run(tmp_path, capsys, argv, cfg):
    """(exit code, stdout rows, stderr) of argv with cfg written to a --config file."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = _in_process_run([a.replace("CFG", str(path)) for a in argv], capsys)
    return rc, [line.split(",") for line in out.splitlines()[1:]], err


def test_config_loses_to_an_explicit_flag_equal_to_its_default(tmp_path, capsys):
    # --tmin 275 is the parser default, and it still wins over the file
    argv = KIE_FLAGS + ["--tmin", "275", "--config", "CFG"]
    rc, rows, _ = _config_run(tmp_path, capsys, argv, {"tmin": 300, "points": 3})
    assert rc == 0
    assert [float(r[0]) for r in rows] == [275.0, 300.0, 325.0]


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    rc, rows, _ = _config_run(tmp_path, capsys, KIE_FLAGS + ["--config", "CFG"], {"points": "3"})
    assert rc == 0 and len(rows) == 3
    # a value the flag's choices exclude is rejected as on the command line
    argv = ["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40", "--config", "CFG"]
    rc, _, err = _config_run(tmp_path, capsys, argv, {"kind": "bogus"})
    assert rc == 2 and "invalid choice" in err and "bogus" in err
    rc, _, err = _config_run(tmp_path, capsys, KIE_FLAGS + ["--config", "CFG"], {"points": "three"})
    assert rc == 2 and "invalid int value" in err


def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = {"omega0": 3000, "omegab": 1000, "points": 2}
    for argv in (["kie-predict", "--config", "CFG"], ["kie-predict", "--config=CFG"]):
        rc, rows, _ = _config_run(tmp_path, capsys, argv, cfg)
        assert rc == 0
        assert float(rows[0][1]) == pytest.approx(kie_qtst(3000.0, 1000.0, 275.0).ratio, rel=1e-9)


def test_config_list_fills_a_multi_value_flag(tmp_path, capsys):
    cfg = {"omegab": 1000, "omega-d": [10, 100000], "gamma_max": 3, "points": 2}
    rc, rows, _ = _config_run(tmp_path, capsys, ["crossover", "--config", "CFG"], cfg)
    assert rc == 0
    assert [(float(r[0]), float(r[1])) for r in rows] == [(0.0, 10.0), (3.0, 10.0), (0.0, 1e5), (3.0, 1e5)]


def test_config_file_errors_are_returned_as_exit_2(tmp_path, capsys):
    # main returns exit 2 itself, with no SystemExit: a token argparse leaves
    # over, a missing file, and a file that is not a JSON object
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tmin": [280, 290]}))
    assert main(KIE_FLAGS + ["--config", str(cfg)]) == 2
    assert "290" in capsys.readouterr().err
    assert main(KIE_FLAGS + ["--config", str(tmp_path / "missing.json")]) == 2
    cfg.write_text("[1, 2]")
    assert main(KIE_FLAGS + ["--config", str(cfg)]) == 2


@pytest.mark.parametrize("key", ["poin", "omega"])
def test_config_key_must_be_a_whole_flag(key, tmp_path, capsys):
    # "poin" is a prefix of --points alone, "omega" of --omega0 and --omegab;
    # neither is read as a flag, and main returns exit 2 with no SystemExit
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: 2}))
    assert main(KIE_FLAGS + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"--{key} 2" in err


def test_command_line_flag_must_be_whole():
    with pytest.raises(SystemExit) as exc:
        main(KIE_FLAGS + ["--poin", "2"])
    assert exc.value.code == 2


def _readme_commands():
    """Each `qtst ...` line of README's command-line block, as argv."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def _config_of(flags):
    """The --config object for the flags after a subcommand: keys with '_',
    numbers as JSON numbers, and a list where a flag takes several values."""
    cfg = {}
    for token in flags:
        if token.startswith("--"):
            values = cfg[token[2:].replace("-", "_")] = []
            continue
        try:
            value = json.loads(token)
        except json.JSONDecodeError:
            value = token
        values.append(value if isinstance(value, (int, float)) else token)
    return {key: values[0] if len(values) == 1 else values for key, values in cfg.items()}


README_COMMANDS = _readme_commands()


def test_readme_shows_a_command_line_for_every_subcommand():
    assert len({argv[0] for argv in README_COMMANDS}) == len(README_COMMANDS) == 10


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_as_config_file_gives_identical_output(argv, tmp_path, monkeypatch):
    # every file a run writes (--output, fit's --curve) is compared byte for byte
    kies = [f"{T},{kie_qtst(3000.0, 1000.0, T, Isotope.H, Isotope.T).ratio:.8g}" for T in (280.0, 300.0, 320.0, 340.0)]
    inputs = {"data.csv": "\n".join(["T_K,kie", *kies]) + "\n", "rates.csv": "T_K,k\n280,1.5e3\n300,4.1e3\n320,9.8e3\n"}
    outputs = {}
    for mode in ("flags", "config"):
        work = tmp_path / mode
        work.mkdir()
        monkeypatch.chdir(work)
        for name, text in inputs.items():
            Path(name).write_text(text)
        before = set(os.listdir())
        if mode == "flags":
            command = argv + ["--output", "out.txt"]
        else:
            Path("run.json").write_text(json.dumps(_config_of(argv[1:])))
            command = argv[:1] + ["--config", "run.json", "--output", "out.txt"]
            before.add("run.json")
        assert main(command) == 0
        outputs[mode] = {name: Path(name).read_bytes() for name in set(os.listdir()) - before}
    assert "out.txt" in outputs["flags"]
    assert outputs["config"] == outputs["flags"]


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


RATE_ACROSS_T0 = ["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40",
                  "--tmin", "200", "--tmax", "240", "--points", "3"]


def test_rate_rows_below_t0_are_flagged(capsys):
    # T0 = 229 K: the quantum rate is undefined at 200 and 220 K
    rc, out, _ = _in_process_run(RATE_ACROSS_T0, capsys)
    assert rc == 0
    assert out.splitlines() == [
        "T_K,k,c_qm,regime",
        "200,nan,nan,below_T0",
        "220,nan,nan,below_T0",
        "240,1652858252,9330.330036,near_crossover",
    ]
    rc, out, _ = _in_process_run(RATE_ACROSS_T0 + ["--kind", "classical"], capsys)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["200", "220", "240"]
    assert all(math.isfinite(float(r[1])) and r[2:] == ["1", "classical"] for r in rows)


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kie", "nan", "--a-ratio", "0.5", "--delta-e", "2"], "kie must be finite and > 0, got nan"),
        (["--kie", "-3", "--a-ratio", "0.5", "--delta-e", "2"], "kie must be finite and > 0, got -3.0"),
        (["--kie", "5", "--a-ratio", "inf", "--delta-e", "2"], "a_ratio must be finite and > 0, got inf"),
        (["--kie", "5", "--a-ratio", "0.5", "--delta-e", "inf"], "delta_E_kJ_per_mol must be finite, got inf"),
    ],
    ids=["kie-nan", "kie-negative", "a_ratio-inf", "delta_e-inf"],
)
def test_classify_non_measurement_is_domain_error_not_invalid_json(argv, message, tmp_path, capsys):
    # NaN and Infinity are not JSON: one line on stderr, exit 3, no report
    out = tmp_path / "one.json"
    assert run(["classify", *argv, "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


def test_fit_with_no_converged_polish_exits_4(capsys, monkeypatch):
    from qtst import fit

    monkeypatch.setattr(fit, "least_squares", lambda *args, **kwargs: types.SimpleNamespace(success=False))
    rc, out, err = _in_process_run(["fit", "--input", "fig4"], capsys)
    assert rc == 4
    assert out == ""
    assert err.startswith("fit failed: no polish from the screened lattice converged")


def test_fit_bundled_fig4(tmp_path):
    out = tmp_path / "fig4.json"
    rc = run(["fit", "--input", "fig4", "--output", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert 1900.0 <= res["omega0_cm1"] <= 2300.0
    assert res["pair"] == "H:T"


def test_fit_bundled_takes_a_pair_without_a_separator(tmp_path):
    out = tmp_path / "fig4.json"
    assert run(["fit", "--input", "fig4", "--pair", "HT", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["pair"] == "H:T"


def test_fit_pair_heavier_first_is_config_error(capsys):
    # the series' own isotope rule: one line on stderr, exit 2, no fit
    rc, out, err = _in_process_run(["fit", "--input", "fig3", "--pair", "D:H"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: fig3: light isotope must not be heavier than heavy isotope\n"


def test_fit_equal_pair_is_config_error(capsys):
    # an equal pair fits nothing: one line on stderr, exit 2, no fit
    rc, out, err = _in_process_run(["fit", "--input", "fig3", "--pair", "H:H"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: fig3: an equal pair (H:H) has a KIE of 1 at every T and identifies no parameter\n"


def test_fit_pair_that_cannot_be_read_is_config_error(capsys):
    # as a sidecar's unreadable pair and --pair D:H or H:H do, an unreadable
    # --pair exits 2, naming the series
    rc, out, err = _in_process_run(["fit", "--input", "fig3", "--pair", "H:Q"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: fig3: unknown isotope label 'Q'; expected H, D or T\n"


def test_arrhenius_prefactor_that_overflows_is_domain_error(tmp_path, capsys):
    data = tmp_path / "rates.csv"
    data.write_text("T_K,k\n1,1e-300\n2,1e300\n")
    rc, out, err = _in_process_run(["arrhenius", "--input", str(data)], capsys)
    assert (rc, out) == (3, "")
    assert err.startswith("error: log A = 2072.33 exceeds") and err.count("\n") == 1


def test_fit_empty_file_is_config_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["fit", "--input", str(empty)]) == 2


def test_fit_missing_file_is_config_error():
    assert run(["fit", "--input", "/nonexistent/data.csv"]) == 2


@pytest.mark.parametrize("argv", [["arrhenius", "--input"], ["wkb", "--potential", "tabulated", "--table"]])
def test_missing_table_file_is_config_error(argv, capsys):
    assert run([*argv, "/nonexistent/table.csv"]) == 2
    assert "/nonexistent/table.csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "{dir}"],
    ["arrhenius", "--input", "{dir}"],
    ["wkb", "--potential", "tabulated", "--table", "{dir}"],
    ["spectral", "--friction", "{dir}"],
    ["swain-schaad", "--kh", "81", "--kd", "3.85", "--kt", "1", "--output", "{dir}"],
], ids=["fit-input", "arrhenius-input", "wkb-table", "spectral-friction", "swain-schaad-output"])
def test_path_that_cannot_be_read_or_written_is_config_error(argv, tmp_path, capsys):
    # a directory where a file is wanted: one line on stderr, exit 2
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1


def test_fit_bundled_pair_overrides_the_sidecar(tmp_path):
    out = tmp_path / "fig4.json"
    assert run(["fit", "--input", "fig4", "--pair", "HD", "--output", str(out)]) == 0
    hd = json.loads(out.read_text())
    assert run(["fit", "--input", "fig4", "--output", str(out)]) == 0
    ht = json.loads(out.read_text())
    assert (hd["pair"], ht["pair"]) == ("H:D", "H:T")
    assert hd["omega0_cm1"] != ht["omega0_cm1"]


@pytest.mark.parametrize("sidecar", ["{\"pair\": ", '["H:T"]'], ids=["malformed", "not-an-object"])
def test_fit_bad_sidecar_is_config_error(sidecar, tmp_path, capsys):
    data = tmp_path / "kie.csv"
    data.write_text("T_K,kie\n280,20.5\n300,15.2\n320,12.0\n")
    (tmp_path / "kie.json").write_text(sidecar)
    assert run(["fit", "--input", str(data)]) == 2
    assert "kie.json" in capsys.readouterr().err


@pytest.mark.parametrize("pair", [5, ["H", "D"], 0, [], ""], ids=["number", "list", "zero", "empty-list", "empty"])
def test_fit_sidecar_pair_that_cannot_be_read_is_config_error(pair, tmp_path, capsys):
    data = tmp_path / "kie.csv"
    data.write_text("T_K,kie\n280,20.5\n300,15.2\n320,12.0\n")
    (tmp_path / "kie.json").write_text(json.dumps({"pair": pair}))
    assert run(["fit", "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert "isotope pair" in err and err.count("\n") == 1


def test_fit_sigma_missing_in_one_row_is_config_error(tmp_path, capsys):
    data = tmp_path / "kie.csv"
    data.write_text("T_K,kie,sigma\n280,20.5,1.0\n300,15.2,\n320,12.0,0.6\n")
    assert run(["fit", "--input", str(data)]) == 2
    assert "sigma" in capsys.readouterr().err


# the three commands that read a table, each a valid table and its exit code
# for a bad input file
_TABLES = {
    "fit": (["fit", "--input"], ["T_K,kie", "280,40", "290,35", "300,30", "310,25"], 2),
    "arrhenius": (["arrhenius", "--input"], ["T_K,k", "280,1.0", "290,2.0", "300,3.0"], 2),
    "wkb": (["wkb", "--potential", "tabulated", "--table"], ["x,U", "-1,0", "-0.5,20", "0,40", "0.5,20", "1,0"], 3),
}


@pytest.mark.parametrize(
    "bad_row", ["300,abc", "300", ",5", "T,value"],
    ids=["non-numeric-cell", "missing-cell", "empty-first-cell", "late-header"],
)
@pytest.mark.parametrize("command", sorted(_TABLES))
def test_malformed_table_row_is_named_by_every_command(command, bad_row, tmp_path, capsys):
    # one rule for every table: the bad third row fails the command, with
    # its exit code and a one-line message naming the row
    argv, rows, code = _TABLES[command]
    table = tmp_path / "table.csv"
    table.write_text("\n".join([*rows[:2], bad_row, *rows[2:]]) + "\n")
    assert run([*argv, str(table)]) == code
    err = capsys.readouterr().err
    assert "row 3" in err and len(err.splitlines()) == 1


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


def test_spectral_ohmic_bound_column_is_nan(tmp_path):
    # an Ohmic spectrum has a divergent integral, hence no finite bound
    out = tmp_path / "spec.csv"
    rc = run(["spectral", "--gamma", "100", "--zmin", "1", "--zmax", "1e4", "--points", "5",
              "--output", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header[3] == "kernel_bound_cm1" and len(rows) == 5
    for r in rows:
        assert float(r[1]) == pytest.approx(100.0, rel=1e-12)
        assert r[3] == "nan"


def test_spectral_requires_model():
    assert run(["spectral"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["correction", "--omega0", "3000", "--omegab", "1000"],
        ["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40"],
        ["spectral"],
    ],
    ids=["correction", "rate", "spectral"],
)
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--omega-d", "50"], "--omega-d needs --gamma"),
        (["--friction", '{"kind": "ohmic", "gamma": 5}', "--gamma", "900"], "cannot be combined"),
        (["--friction", '{"kind": "ohmic", "gamma": 5}', "--omega-d", "50"], "cannot be combined"),
    ],
    ids=["omega-d-alone", "friction-and-gamma", "friction-and-omega-d"],
)
def test_friction_flags_that_would_be_ignored_are_config_errors(tmp_path, capsys, argv, flags, message):
    out = tmp_path / "out.csv"
    assert run([*argv, *flags, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("points", ["0", "-1"])
def test_wkb_points_below_one_is_config_error(tmp_path, capsys, points):
    out = tmp_path / "wkb.csv"
    assert run(["wkb", "--points", points, "--output", str(out)]) == 2
    assert "points >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "--friction", "{not json"], "--friction is neither a file nor valid JSON: "),
        (["kie-predict", "--omega0", "3000", "--omegab", "1000", "--points", "0"], "points must be >= 1"),
        (["classify", "--dataset", "table2"], "unknown dataset 'table2'; only 'table1' is bundled"),
        (["classify", "--kie", "5"], "provide --dataset table1 or all of --kie, --a-ratio, --delta-e"),
        (["spectral", "--gamma", "100", "--zmin", "0"], "need 0 < zmin <= zmax and points >= 1"),
        (["wkb", "--potential", "tabulated"], "--table CSV required for a tabulated potential"),
    ],
    ids=["friction-not-json", "points-zero", "unknown-dataset", "classify-kie-alone", "zmin-zero",
         "tabulated-without-table"],
)
def test_each_config_rejection_is_one_line_and_exit_2(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


# ------------------------------------------------- swain-schaad, arrhenius


def test_swain_schaad_command(tmp_path):
    out = tmp_path / "ss.json"
    rc = run(["swain-schaad", "--kh", "81", "--kd", "3.85", "--kt", "1.0", "--output", str(out)])
    assert rc == 0
    val = json.loads(out.read_text())["swain_schaad_exponent"]
    assert val == pytest.approx(math.log(81) / math.log(3.85), rel=1e-12)


def test_swain_schaad_degenerate_is_domain_error():
    assert run(["swain-schaad", "--kh", "3", "--kd", "2", "--kt", "2"]) == 3


def test_non_finite_rates_are_domain_errors_not_nan_json(tmp_path):
    out = tmp_path / "out.json"
    assert run(["swain-schaad", "--kh", "nan", "--kd", "3", "--kt", "1", "--output", str(out)]) == 3
    data = tmp_path / "rates.csv"
    data.write_text("T_K,k\n280,1.5e3\n300,nan\n320,9.8e3\n")
    assert run(["arrhenius", "--input", str(data), "--output", str(out)]) == 3
    assert not out.exists()


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


def test_rate_that_overflows_a_double_is_a_domain_error(tmp_path, capsys):
    # at 5.1 K c_qm and the rate in cm^-1 are finite, the rate in 1/s is not
    out = tmp_path / "rate.csv"
    rc = run(["rate", "--omega0", "5000", "--omegab", "20", "--barrier", "0",
              "--tmin", "5.1", "--tmax", "7.5", "--points", "3", "--output", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "rate_per_s overflows a double" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "friction,message",
    [
        ('{"kind": "ohmic", "gamma": "abc"}', "gamma must be a number"),
        ('{"kind": "ohmic", "gamma": [1.0, [2.0]]}', "gamma must be a number"),
        ('{"kind": "drude", "gamma": 1, "bogus": 2}', "kind 'drude'"),
        ('{"kind": "drude"}', "kind 'drude'"),
        ('{"kind": ["drude"]}', "kind ['drude']"),
        ('{"kind": "drude", "gamma": [100, 200], "omega_d": 300}', "gamma must be a single number"),
        ('{"kind": "debye_dielectric", "cavity_radius": 3, "tau_ps": [8.3, 1.0, 0.1, 0.025]}', "'tau_ps'"),
        ('{"kind": "debye_dielectric", "cavity_radius": 3, "eps_inf": 1.54}', "'eps_inf'"),
    ],
    ids=["text", "ragged", "unknown-key", "missing-fields", "unhashable-kind", "list-for-a-number",
         "debye-removed-tau", "debye-removed-eps-inf"],
)
def test_friction_parameter_numpy_cannot_read_is_domain_error(friction, message, tmp_path, capsys):
    out = tmp_path / "rate.csv"
    rc = run(["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40",
              "--friction", friction, "--output", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_rate_with_zero_friction_succeeds(tmp_path):
    # omega_b^2/sqrt(omega_b^2) rounds one ulp below this omega_b
    out = tmp_path / "rate.csv"
    rc = run(["rate", "--omega0", "3000", "--omegab", "771.4763345553004", "--barrier", "40",
              "--gamma", "0", "--output", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert rows and all(math.isfinite(float(r[1])) for r in rows)


@pytest.mark.parametrize("flag,value", [("--omega0", "nan"), ("--omegab", "nan"),
                                        ("--barrier", "inf"), ("--barrier", "nan")])
def test_rate_non_finite_input_is_domain_error(tmp_path, flag, value):
    args = {"--omega0": "3000", "--omegab": "1000", "--barrier": "40", flag: value}
    out = tmp_path / "rate.csv"
    rc = run(["rate", *[x for kv in args.items() for x in kv], "--output", str(out)])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "potential,flag,name",
    [("parabolic", "--barrier", "E_b"), ("parabolic", "--omegab", "omega_b"),
     ("eckart", "--width", "width"), ("cubic", "--omega0", "omega_0"),
     ("parabolic", "--mass", "mass")],
)
def test_wkb_nan_parameter_is_domain_error(tmp_path, capsys, potential, flag, name):
    out = tmp_path / "wkb.csv"
    rc = run(["wkb", "--potential", potential, flag, "nan", "--points", "2", "--output", str(out)])
    assert rc == 3
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


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


# ------------------------------------------------------- one parser per process


def _fresh_run(argv):
    """(exit code, stdout, stderr) of the command in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qtst.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process_run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_parser_built_once_gives_fresh_run_outputs(tmp_path, capsys):
    kie_cmd = ["kie-predict", "--omega0", "2800", "--omegab", "950", "--points", "6"]
    wkb_cmd = ["wkb", "--potential", "eckart", "--barrier", "35", "--points", "4"]
    rejected = ["rate", "--omega0", "3000", "--barrier", "40"]  # no --omegab: exit 2
    session = [kie_cmd, wkb_cmd, rejected, kie_cmd]
    fresh = {tuple(argv): _fresh_run(argv) for argv in session}
    capsys.readouterr()
    for argv in session:
        assert _in_process_run(argv, capsys) == fresh[tuple(argv)]
    assert fresh[tuple(rejected)][0] == 2
    assert build_parser() is build_parser()

    # --config still applies on a cached parser: tmin takes the file's
    # value, and the flags the command line repeats (points, omegab) win
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tmin": 280.0, "points": 4, "omegab": 1200.0}))
    rc, out, _ = _in_process_run(kie_cmd + ["--config", str(cfg)], capsys)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [280.0, 289.0, 298.0, 307.0, 316.0, 325.0]
    assert float(rows[0][1]) == pytest.approx(kie_qtst(2800.0, 950.0, 280.0).ratio, rel=1e-9)


# ---------------------------------------------------------------- overflow


def test_correction_row_is_nan_where_the_product_overflows(tmp_path):
    # strong Debye friction brings T0 down to 0.33 K; there log c_qm is
    # about 2750, past what a double holds
    system = BarrierSystem(2500.0, 500.0, 0.0)
    friction = DebyeDielectricFriction(cavity_radius=1.0)
    T = 1.03 * effective_barrier_frequency(system, friction).T0_K
    out = tmp_path / "corr.csv"
    rc = run([
        "correction", "--omega0", "2500", "--omegab", "500",
        "--friction", json.dumps(friction.to_json()),
        "--tmin", repr(T), "--tmax", repr(T), "--points", "1", "--output", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header[:2] == ["T_K", "c_qm"]
    assert rows[0][1] == "nan" and rows[0][-1] == ""
    # the rate on the same barrier fails cleanly: exit 3, not a traceback
    assert run([
        "rate", "--omega0", "2500", "--omegab", "500", "--barrier", "40",
        "--friction", json.dumps(friction.to_json()),
        "--tmin", repr(T), "--tmax", repr(T), "--points", "1",
    ]) == 3


def test_correction_row_is_nan_where_the_closed_form_overflows(tmp_path):
    # omega_0/omega_b = 250: at 5 K the closed form's log is about 715, at
    # 7.5 K it is finite
    out = tmp_path / "corr.csv"
    rc = run([
        "correction", "--omega0", "5000", "--omegab", "20", "--tmin", "5", "--tmax", "10",
        "--points", "3", "--kappa", "10", "--output", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header[:4] == ["T_K", "c_qm", "c_closed", "c_crossover"]
    assert rows[0][2] == "nan" and rows[0][3] == "nan"
    assert all(math.isfinite(float(r[2])) and math.isfinite(float(r[3])) for r in rows[1:])


def test_correction_crossover_cell_is_nan_where_it_overflows(tmp_path):
    # kappa = 1000: at 215 K (0.94*T0) y = -59.2 and c_crossover overflows a
    # double; at 227.5 K (y = -6.48) and 240 K it is finite
    out = tmp_path / "corr.csv"
    assert run([
        "correction", "--omega0", "3000", "--omegab", "1000", "--kappa", "1000",
        "--tmin", "215", "--tmax", "240", "--points", "3", "--output", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header[3] == "c_crossover"
    assert rows[0][3] == "nan"
    assert all(math.isfinite(float(r[3])) for r in rows[1:])


def test_correction_regime_is_empty_where_c_qm_overflows_above_T0(tmp_path):
    # T0 = 4.58 K: at 5 K the row is above it, but c_qm overflows a double;
    # only the 4 K row lies below the crossover
    out = tmp_path / "corr.csv"
    assert run([
        "correction", "--omega0", "5000", "--omegab", "20", "--tmin", "4", "--tmax", "10",
        "--points", "7", "--output", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["T_K", "c_qm", "c_closed", "c_crossover", "regime"]
    assert rows[0] == ["4", "nan", "nan", "nan", "invalid_below_T0"]
    assert rows[1] == ["5", "nan", "nan", "nan", ""]
    assert all(math.isfinite(float(r[1])) and r[4] == "high_T" for r in rows[2:])


def test_wkb_energy_below_the_eckart_range_is_domain_error(capsys):
    assert run(["wkb", "--potential", "eckart", "--emin-frac", "1e-322"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too small" in err and err.count("\n") == 1
