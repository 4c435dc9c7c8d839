"""The ROADMAP north-star baselines, each with the exact call it times.

``python3 bench/run.py --baselines`` runs every call a few times, takes the
median wall time, and writes ``bench/baselines.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import qtst
from qtst import kie

SYSTEM = "BarrierSystem(3000.0, 1000.0, 40.0)"
DATASET = 'KIEDataset.from_csv_text(kie.load_dataset_csv("fig4_mao.csv"), pair="H:T")'

# (name, statement, repeats); statements run with qtst's names in scope
CALLS = (
    ("fit_kie_fig4", f"fit_kie({DATASET})", 3),
    ("quantum_rate_300K_none", f"quantum_rate({SYSTEM}, None, 300.0)", 7),
    ("quantum_rate_300K_drude", f"quantum_rate({SYSTEM}, DrudeFriction(100.0, 300.0), 300.0)", 7),
    ("quantum_rate_300K_peaked",
     f"quantum_rate({SYSTEM}, PeakedFriction(200.0, 150.0, 600.0), 300.0)", 3),
    ("quantum_rate_300K_debye",
     f"quantum_rate({SYSTEM}, DebyeDielectricFriction(cavity_radius=3.0), 300.0)", 3),
    ("mu_solve_peaked",
     f"effective_barrier_frequency({SYSTEM}, PeakedFriction(200.0, 150.0, 600.0))", 5),
    ("mu_solve_debye",
     f"effective_barrier_frequency({SYSTEM}, DebyeDielectricFriction(cavity_radius=3.0))", 3),
)


def _time(statement, repeats, scope):
    code = compile(statement, "<baseline>", "eval")
    eval(code, scope)  # warm-up
    times, result = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        result = eval(code, scope)
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def _import_s(src, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); import qtst"],
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(provenance):
    scope = {name: getattr(qtst, name) for name in qtst.__all__}
    scope["kie"] = kie
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, statement, repeats in CALLS:
            seconds, result = _time(statement, repeats, scope)
            row = {"name": name, "call": statement, "repeats": repeats, "median_s": seconds}
            if getattr(result, "terms_used", None) is not None:
                row["terms_used"] = result.terms_used
            rows.append(row)
            print(f"{name:28s} {seconds * 1e3:12.3f} ms   {statement}")
    src = Path(qtst.__file__).resolve().parent.parent
    seconds = _import_s(src)
    rows.append({"name": "import_qtst_fresh_interpreter", "call": "python3 -c 'import qtst'",
                 "repeats": 5, "median_s": seconds})
    print(f"{'import_qtst_fresh_interpreter':28s} {seconds * 1e3:12.3f} ms")
    path = Path(__file__).resolve().parent / "baselines.json"
    path.write_text(json.dumps({"provenance": provenance, "baselines": rows}, indent=2) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.name}")
    return 0
