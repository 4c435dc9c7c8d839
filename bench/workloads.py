"""Seeded task lists for the benchmark workloads, and how to run one task.

A workload is a fixed list of tasks, built as blocks that each hold the same
number of tasks of each class (shuffled within the block). The class mix is
chosen so that the median and the 90th-percentile task time each fall inside
one class, not at the boundary between two. The list's first task is always
of one class: it is the task the set-up time measures.

A task is one user-level request: one library call, or one in-process
``qtst.cli.main`` command. Its spec is a JSON-able dict. Generation uses only
the workload name and the seed, never a library result, so one seed gives an
identical task list on every commit.

Calls look their target up on the module or the object when they run, so the
tracer's wrappers (installed on those same names) see every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qtst import fit, kie, kramers, qcorr, spectral, units

# T0 per cm^-1 of barrier frequency. Used only to place temperature grids
# above each isotope's bare crossover (friction lowers the true crossover).
_T0_PER_CM1 = 0.228988
_MASS = {"H": 1, "D": 2, "T": 3}

WORKLOADS = ("rate_scan", "structured_bath", "kie_cli")

# Tolerances of the output checks, relative unless marked ("abs", scale).
TOL_RATE = 1e-9  # c_qm and rates
TOL_MU = 1e-10  # times omega_b, absolute
TOL_KIE = 1e-12
TOL_FIT = 1e-8  # fitted optimum
TOL_WKB = 1e-8  # WKB action
TOL_KERNEL = 1e-9  # friction kernel, spectrum and bound
TOL_CSV = 1e-9  # the CLI prints 10 significant digits
EXACT = None


def _sys(rng):
    return {
        "omega0_H": round(rng.uniform(2600.0, 3400.0), 3),
        "omegab_H": round(rng.uniform(900.0, 1300.0), 3),
        "barrier": round(rng.uniform(30.0, 55.0), 3),
        "isotope": rng.choice("HDT"),
    }


def _t0(system):
    return _T0_PER_CM1 * system["omegab_H"] / math.sqrt(_MASS[system["isotope"]])


def _task(cls, op, **args):
    return {"cls": cls, "op": op, **args}


# ----------------------------------------------------------------- rate_scan
#
# quantum_rate along temperature curves, 1.03*T0 to 3*T0, for H, D and T with
# no friction, Ohmic or Drude friction. Most task time is the Matsubara
# product; the kernels are cheap array calls. Each block is one curve per
# friction kind. Sorted by cost, the median falls where the frictionless
# 126,976-term rates and the 61,440-term Drude rates interleave at one cost
# (within a few percent), and the 90th percentile among the 126,976-term
# Drude rates; neither sits at a step between two costs. Four blocks (144
# tasks) keep a pass near half a second, so each task runs many times in a
# run.

# Temperatures in units of the bare crossover. With omega_0/omega_b in
# [3.1, 3.7] the product needs 126,976 terms below 1.6*T0 and 61,440 above
# 2.05*T0 (no point lies between), so every curve has 5 costly and 7 cheaper
# points and the mix of task costs does not depend on the seed.
_RATE_GRID = (1.03, 1.15, 1.3, 1.45, 1.6, 2.05, 2.2, 2.35, 2.5, 2.65, 2.8, 3.0)
_RATE_BLOCKS = 4


def _rate_scan(rng):
    blocks = []
    for _ in range(_RATE_BLOCKS):
        block = []
        for kind in ("none", "ohmic", "drude"):
            omegab = round(rng.uniform(850.0, 1100.0), 3)
            system = {"omega0_H": round(rng.uniform(3.1, 3.7) * omegab, 3), "omegab_H": omegab,
                      "barrier": round(rng.uniform(30.0, 55.0), 3), "isotope": rng.choice("HDT")}
            wb = omegab / math.sqrt(_MASS[system["isotope"]])
            if kind == "none":
                friction = None
            elif kind == "ohmic":
                friction = {"kind": "ohmic", "gamma": round(rng.uniform(0.05, 0.6) * wb, 3)}
            else:
                friction = {
                    "kind": "drude",
                    "gamma": round(rng.uniform(0.05, 1.0) * wb, 3),
                    "omega_d": round(rng.uniform(0.2, 3.0) * wb, 3),
                }
            t0 = _t0(system)
            for r in _RATE_GRID:
                block.append(_task(f"rate_{kind}", "quantum_rate", system=system,
                                   friction=friction, T=round(r * t0, 6)))
        blocks.append(block)
    return blocks


# ----------------------------------------------------------- structured_bath
#
# Structured baths whose kernels are not the cheap array calls of rate_scan:
# PeakedFriction (mu from a 10,000-point scan), DebyeDielectricFriction (a
# quadrature per kernel value) and LinearProteinFriction, plus one kernel
# with three mu roots. Time goes to spectral and kramers, not the product.
# The list is one block of 12; sorted by cost: 5 cheap grids, solves and
# rates, 4 Peaked mu solves (the median, about 80 ms) and 3 Debye kernel
# grids of 31 points (the 90th percentile, about 125 ms). A pass takes well
# under a second, so each task runs many times in a run; the multi-second
# Debye rates and the Debye mu solves, whose cost overlaps the Peaked ones,
# are timed by the baselines instead.


@dataclass(frozen=True)
class BumpFriction(spectral.PeakedFriction):
    """A user-defined bath whose effective-frequency equation has three roots.

    The kernel is a narrow Gaussian bump, as in the library's own multi-root
    test; no built-in model has several roots, because z*gamma_hat(z) of any
    positive spectrum increases with z.
    """

    height: float = 2000.0
    center: float = 800.0
    spread: float = 30.0

    def laplace_kernel(self, z):
        return self.height * math.exp(-(((z - self.center) / self.spread) ** 2))


def _peaked(rng):
    return {"kind": "peaked", "gamma_r": round(rng.uniform(100.0, 400.0), 3),
            "width": round(rng.uniform(60.0, 200.0), 3),
            "omega_r": round(rng.uniform(400.0, 900.0), 3)}


def _debye(rng):
    return {"kind": "debye_dielectric", "cavity_radius": round(rng.uniform(2.6, 4.0), 4),
            "eps_c": round(rng.uniform(1.5, 4.0), 4)}


def _linear(rng):
    return {"kind": "linear_protein", "delta_gamma": round(rng.uniform(10.0, 30.0), 3),
            "slope": round(rng.uniform(0.2, 0.5), 4), "cutoff": round(rng.uniform(300.0, 500.0), 3)}


def _grid(cls, model, points):
    # what `qtst spectral` evaluates: kernel, spectrum and bound per point
    return _task(cls, "kernel_grid", friction=model, zmin=1.0, zmax=1e4, points=points)


def _rate(cls, rng, model):
    system = _sys(rng)
    return _task(cls, "quantum_rate", system=system, friction=model,
                 T=round(rng.uniform(1.2, 2.5) * _t0(system), 6))


def _structured_bath(rng):
    block = [
        _task("peaked_mu", "mu_solve", system=_sys(rng), friction=_peaked(rng)),
        _grid("light_grid", _peaked(rng), 61),
        _task("light_mu", "mu_solve", system=_sys(rng), friction=_linear(rng)),
        _task("bump_mu", "mu_solve", system={**_sys(rng), "omegab_H": 1000.0, "isotope": "H"},
              friction={"kind": "bump", "height": round(rng.uniform(1800.0, 2200.0), 3),
                        "center": 800.0, "spread": 30.0}),
    ]
    block += [_rate("linear_rate", rng, _linear(rng)) for _ in range(2)]
    block += [_task("peaked_mu", "mu_solve", system=_sys(rng), friction=_peaked(rng))
              for _ in range(3)]
    block += [_grid("debye_grid", _debye(rng), 31) for _ in range(3)]
    first, rest = block[0], block[1:]
    rng.shuffle(rest)
    return [[first] + rest]


# ------------------------------------------------------------------- kie_cli
#
# What a user analysing KIE data runs: fits, single KIE calls and a CLI
# session. Four fit blocks and two CLI blocks make a pass of 64 tasks of
# about half a second. Sorted by cost: 20 single kie_qtst,
# apparent_arrhenius and classify calls (microseconds), 32 parser-dominated
# CLI commands (the median), 2 crossover sweeps, 6 tabulated WKB runs (the
# 90th percentile) and 4 fits.
#
# Fit blocks: fit_kie on the bundled fig3 (H:D) and fig4 (H:T) series and on
# seeded synthetic series, with single kie_qtst, apparent_arrhenius and
# classify calls. Per block: 2 kie_qtst, 2 apparent_arrhenius, 1 classify
# and 1 fit.
#
# Each fit starts from 6 points of the default 72-point start grid. A
# default fit takes most of a second, and on a shared machine the fastest of
# a run's calls that long varied by up to 2x between runs; the 6-start fit
# takes about 60 ms and reaches the default fit's optimum (to 4e-9 relative
# on fig3, fig4 and 40 synthetic series). The default fit is timed by the
# baselines.
_FIT_STARTS = {"omega0": [2000.0, 3000.0], "omegab": [700.0, 1100.0, 1500.0]}


# hc/kB in cm K, for the synthetic series only
_HC_OVER_KB = 1.438777


def _synthetic_dataset(rng):
    """A KIE(T) series like a measured one: the two-parameter model (written
    out here, so the inputs do not depend on the library) times 3% scatter."""
    omega0, omegab = rng.uniform(1900.0, 3200.0), rng.uniform(850.0, 1100.0)
    pair = rng.choice(("H:D", "H:T"))
    m_l, m_h = (_MASS[x] for x in pair.split(":"))
    temps, kies = [275.0 + 6.25 * i for i in range(9)], []
    for T in temps:
        x0, xb = _HC_OVER_KB * omega0 / (2.0 * T), _HC_OVER_KB * omegab / (2.0 * T)
        model = (math.sqrt(m_h / m_l) * math.sinh(x0 / math.sqrt(m_l)) / math.sinh(x0 / math.sqrt(m_h))
                 * math.sin(xb / math.sqrt(m_h)) / math.sin(xb / math.sqrt(m_l)))
        kies.append(float(f"{model * math.exp(rng.gauss(0.0, 0.03)):.6g}"))
    return {"pair": pair, "T_K": temps, "kie": kies,
            "sigma": [float(f"{0.05 * y:.6g}") for y in kies]}


def _pair(rng):
    return rng.choice((("H", "D"), ("H", "T"), ("D", "T")))


def _kie_single(rng):
    (light, heavy), omegab = _pair(rng), round(rng.uniform(500.0, 1100.0), 3)
    T = round(rng.uniform(1.1, 2.0) * _T0_PER_CM1 * omegab / math.sqrt(_MASS[light]), 6)
    return _task("kie_single", "kie_qtst", omega0=round(rng.uniform(2000.0, 3500.0), 3),
                 omegab=omegab, T=T, light=light, heavy=heavy)


def _arrhenius_single(rng):
    light, heavy = _pair(rng)
    return _task("arrhenius_single", "apparent_arrhenius",
                 omega0=round(rng.uniform(2000.0, 3500.0), 3),
                 omegab=round(rng.uniform(500.0, 1100.0), 3),
                 T=round(rng.uniform(275.0, 320.0), 3), light=light, heavy=heavy)


def _fit_blocks(rng):
    datasets = [{"bundled": "fig3"}, {"bundled": "fig4"}]
    datasets += [{"synthetic": _synthetic_dataset(rng)} for _ in range(2)]
    blocks = []
    for dataset in datasets:
        rest = [_kie_single(rng), _arrhenius_single(rng), _arrhenius_single(rng)]
        rng.shuffle(rest)
        # classify, the costliest single call, follows the fit and so takes
        # the cold-cache call after it; the median stays among the kie_qtst
        # and apparent_arrhenius calls
        blocks.append([_kie_single(rng)] + rest + [
            _task("fit", "fit_kie", dataset=dataset, starts=_FIT_STARTS),
            _task("classify_single", "classify", kie=round(rng.uniform(2.0, 80.0), 4),
                  a_ratio=round(rng.uniform(0.05, 2.0), 4),
                  delta_E=round(rng.uniform(0.5, 20.0), 4), pair=rng.choice(("HD", "HT", "DT"))),
        ])
    return blocks


# CLI blocks: in-process `qtst.cli.main` over the README commands with
# seeded flags, writing CSV/JSON into a scratch directory, plus the
# documented rejections: below-crossover rows, exit 2 and exit 3. Per block:
# 16 parser-dominated commands, 1 crossover sweep and 3 tabulated WKB runs.

TABLE_FILE = "barrier.csv"
RATES_FILE = "rates.csv"


def _cli(cls, argv, expect=0):
    return _task(cls, "cli", argv=argv, expect=expect)


def _f(x):
    return repr(float(x))


def _cli_block(rng, k):
    omegab = rng.uniform(850.0, 1150.0)
    omega0 = rng.uniform(2200.0, 3400.0)
    block = [
        _cli("cli_light", ["kie-predict", "--omega0", _f(round(omega0, 2)), "--omegab",
                           _f(round(omegab, 2)), "--pair", rng.choice(("H:D", "H:T", "D:T")),
                           "--tmin", "275", "--tmax", "325"]),
        # the grid starts below the crossover: rows flagged valid=0
        _cli("cli_light", ["kie-predict", "--omega0", _f(round(omega0, 2)), "--omegab",
                           _f(round(omegab, 2)), "--pair", "H:D", "--tmin", "150", "--tmax", "330"]),
        # the rows matched set the cost, so every seed filters the same ones
        _cli("cli_light", ["classify", "--dataset", "table1", "--row",
                           ("lipoxygenase", "dehydrogenase")[k]]),
        _cli("cli_light", ["classify", "--kie", _f(round(rng.uniform(2.0, 80.0), 3)),
                           "--a-ratio", _f(round(rng.uniform(0.05, 2.0), 3)),
                           "--delta-e", _f(round(rng.uniform(0.5, 20.0), 3)),
                           "--pair", rng.choice(("H:D", "H:T", "D:T"))]),
        _cli("cli_light", ["wkb", "--potential", "parabolic",
                           "--barrier", _f(round(rng.uniform(20.0, 60.0), 3)),
                           "--omegab", _f(round(rng.uniform(800.0, 1500.0), 2))]),
        _cli("cli_light", ["wkb", "--potential", "eckart",
                           "--barrier", _f(round(rng.uniform(20.0, 60.0), 3)),
                           "--width", _f(round(rng.uniform(0.3, 0.6), 4))]),
        _cli("cli_light", ["wkb", "--potential", "cubic",
                           "--barrier", _f(round(rng.uniform(20.0, 60.0), 3)),
                           "--omega0", _f(round(rng.uniform(800.0, 1500.0), 2))]),
        _cli("cli_light", ["swain-schaad", "--kh", _f(round(rng.uniform(40.0, 120.0), 3)),
                           "--kd", _f(round(rng.uniform(3.0, 8.0), 3)), "--kt", "1"]),
        _cli("cli_light", ["arrhenius", "--input", RATES_FILE]),
        _cli("cli_light", ["spectral", "--friction", json.dumps(
            {"kind": "drude", "gamma": round(rng.uniform(50.0, 300.0), 2),
             "omega_d": round(rng.uniform(50.0, 500.0), 2)})]),
        _cli("cli_light", ["spectral", "--friction", json.dumps(_peaked(rng))]),
        _cli("cli_light", ["spectral", "--friction", json.dumps(_linear(rng))]),
        _cli("cli_light", ["kie-predict", "--omega0", _f(round(rng.uniform(2200.0, 3400.0), 2)),
                           "--omegab", _f(round(rng.uniform(850.0, 1150.0), 2)),
                           "--pair", "H:T", "--tmin", "280", "--tmax", "320", "--points", "21"]),
        # rejections: a configuration error (exit 2) and domain errors (exit 3)
        _cli("cli_light", ["crossover", "--omegab", "1000", "--gamma-max", "0"], expect=2),
        _cli("cli_light", ["swain-schaad", "--kh", "2", "--kd", "2", "--kt", "2"], expect=3),
        _cli("cli_light", ["wkb", "--potential", "eckart", "--barrier", "-5"], expect=3),
        _cli("cli_crossover", ["crossover", "--omegab", _f(round(omegab, 2)), "--omega-d",
                               _f(round(rng.uniform(10.0, 100.0), 2)),
                               _f(round(rng.uniform(1e3, 1e5), 1)),
                               "--gamma-max", _f(round(rng.uniform(1.0, 4.0), 3)),
                               "--points", "10"]),
    ]
    block += [_cli("cli_tabulated", ["wkb", "--potential", "tabulated", "--table", TABLE_FILE,
                                     "--mass", _f(rng.choice((1.0, 2.0, 3.0))),
                                     "--points", "3"]) for _ in range(3)]
    first, rest = block[0], block[1:]
    rng.shuffle(rest)
    return [first] + rest


def _kie_cli(rng):
    return _fit_blocks(rng) + [_cli_block(rng, k) for k in range(2)]


def cli_files(seed):
    """Input files the kie_cli commands read, as {name: text}.

    The tabulated barrier is the same for every seed (an Eckart barrier of
    40 kJ/mol and width 0.45 angstrom at 41 points): its shape sets the cost
    of the tabulated WKB runs, which hold the 90th percentile.
    """
    rng = random.Random(f"kie_cli-files:{seed}")
    table = "x_angstrom,U_kJ_per_mol\n" + "".join(
        f"{x:.6f},{40.0 / math.cosh(x / 0.45) ** 2:.9f}\n" for x in np.linspace(-1.5, 1.5, 41))
    ea = rng.uniform(40.0, 70.0)
    rates = "T_K,k\n" + "".join(
        f"{T},{1e12 * math.exp(-ea / (0.0083144626 * T) + rng.gauss(0.0, 0.02)):.9e}\n"
        for T in (278.0, 288.0, 298.0, 308.0, 318.0))
    return {TABLE_FILE: table, RATES_FILE: rates}


_GENERATORS = {
    "rate_scan": _rate_scan,
    "structured_bath": _structured_bath,
    "kie_cli": _kie_cli,
}


def generate(workload, seed):
    """The workload's blocks of task specs for this seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# --------------------------------------------------------- running one task


def _system(spec):
    return kramers.BarrierSystem(spec["omega0_H"], spec["omegab_H"], spec["barrier"],
                                 units.Isotope.from_label(spec["isotope"]))


def friction(spec):
    """The friction model of a task spec (None for no friction)."""
    if spec is None:
        return None
    if spec["kind"] == "bump":
        return BumpFriction(1.0, 1.0, 1.0, spec["height"], spec["center"], spec["spread"])
    return spectral.friction_model_from_json(spec)


def _iso(label):
    return units.Isotope.from_label(label)


class Prepared:
    """A task ready to run: ``call()`` is the timed request, ``extract``
    turns its result into ``[(field, value, tolerance), ...]`` afterwards,
    and ``bytes_out()`` (CLI tasks only) is the size of what it wrote."""

    __slots__ = ("call", "extract", "bytes_out")

    def __init__(self, call, extract, bytes_out=None):
        self.call, self.extract, self.bytes_out = call, extract, bytes_out


def _prep_quantum_rate(spec, ctx):
    system, model, T = _system(spec["system"]), friction(spec["friction"]), spec["T"]
    wb = system.omegab

    def extract(r):
        return [("rate_per_s", r.rate_per_s, TOL_RATE), ("rate_cm1", r.rate_cm1, TOL_RATE),
                ("c_qm", r.c_qm, TOL_RATE), ("mu_cm1", r.mu_cm1, ("abs", TOL_MU * wb)),
                ("T0_K", r.T0_K, ("abs", TOL_MU * _T0_PER_CM1 * wb)),
                ("regime", r.regime, EXACT), ("equilibrium_ok", r.equilibrium_ok, EXACT),
                ("equilibrium_margin", r.equilibrium_margin, TOL_RATE)]

    return Prepared(lambda: qcorr.quantum_rate(system, model, T), extract)


def _prep_mu_solve(spec, ctx):
    system, model = _system(spec["system"]), friction(spec["friction"])
    wb = system.omegab

    def extract(b):
        return [("mu_cm1", b.mu_cm1, ("abs", TOL_MU * wb)),
                ("T0_K", b.T0_K, ("abs", TOL_MU * _T0_PER_CM1 * wb)),
                ("omegab_cm1", wb, EXACT)]

    return Prepared(lambda: kramers.effective_barrier_frequency(system, model), extract)


def _prep_kernel_grid(spec, ctx):
    model = friction(spec["friction"])
    zs = [float(z) for z in np.geomspace(spec["zmin"], spec["zmax"], spec["points"])]

    def call():
        rows = []
        for z in zs:
            rows.append((model.laplace_kernel(z), model.friction_spectrum(z),
                         spectral.kernel_upper_bound(model, z)))
        return rows

    def extract(rows):
        out = []
        for i, (k, s, b) in enumerate(rows):
            out += [(f"kernel[{i}]", k, TOL_KERNEL), (f"spectrum[{i}]", s, TOL_KERNEL),
                    (f"bound[{i}]", b, TOL_KERNEL)]
        return out

    return Prepared(call, extract)


def _dataset(spec):
    """The KIEDataset a fit task fits."""
    if "bundled" in spec:
        name = {"fig3": "fig3_mcm.csv", "fig4": "fig4_mao.csv"}[spec["bundled"]]
        pair = {"fig3": "H:D", "fig4": "H:T"}[spec["bundled"]]
        return fit.KIEDataset.from_csv_text(kie.load_dataset_csv(name), pair=pair)
    s = spec["synthetic"]
    light, heavy = (_iso(x) for x in s["pair"].split(":"))
    return fit.KIEDataset(tuple(s["T_K"]), tuple(s["kie"]), tuple(s["sigma"]), light, heavy)


def _prep_fit(spec, ctx):
    data = _dataset(spec["dataset"])
    starts = spec["starts"]
    config = fit.FitConfig(omega0_starts=tuple(starts["omega0"]),
                           omegab_starts=tuple(starts["omegab"]))

    def extract(r):
        return [("omega0", r.omega0, TOL_FIT), ("omegab", r.omegab, TOL_FIT),
                ("implied_T0", r.implied_T0, TOL_FIT), ("residual_norm", r.residual_norm, 1e-6),
                ("valid", r.valid, EXACT)]

    return Prepared(lambda: fit.fit_kie(data, config), extract)


def _prep_kie(spec, ctx):
    a = (spec["omega0"], spec["omegab"], spec["T"], _iso(spec["light"]), _iso(spec["heavy"]))

    def extract(p):
        return [("ratio", p.ratio, TOL_KIE), ("T0_light_K", p.T0_light_K, TOL_KIE),
                ("valid", p.valid, EXACT)]

    return Prepared(lambda: kie.kie_qtst(*a), extract)


def _prep_apparent(spec, ctx):
    a = (spec["omega0"], spec["omegab"], spec["T"], _iso(spec["light"]), _iso(spec["heavy"]))

    def extract(p):
        return [("a_ratio", p.a_ratio, TOL_KIE), ("delta_E_kJ_per_mol", p.delta_E_kJ_per_mol, TOL_KIE),
                ("expansion_ok", p.expansion_ok, EXACT)]

    return Prepared(lambda: kie.apparent_arrhenius(*a), extract)


def _prep_classify(spec, ctx):
    a = (spec["kie"], spec["a_ratio"], spec["delta_E"], spec["pair"])

    def extract(r):
        return [(k, v, EXACT) for k, v in sorted(r.to_json()["kim_kreevoy"].items())] + \
               [(f"bell_{k}", v, EXACT) for k, v in sorted(r.to_json()["bell"].items())]

    return Prepared(lambda: kie.classify(*a), extract)


# per output column of a CLI command, the check tolerance (at least the
# printing precision)
_CLI_COLUMN_TOL = {"action_hbar": TOL_WKB, "transmission": 1e-6, "E_kJ_per_mol": TOL_WKB}


def _cli_values(prefix, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _cli_values(f"{prefix}.{k}" if prefix else k, obj[k], out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _cli_values(f"{prefix}[{i}]", v, out)
    elif isinstance(obj, float):
        out.append((prefix, obj, TOL_KIE if prefix.startswith("swain") else TOL_CSV))
    else:
        out.append((prefix, obj, EXACT))


def parse_cli_output(text):
    """Fields of a CLI output file: JSON objects or CSV tables."""
    out = []
    if text.startswith("{"):
        _cli_values("", json.loads(text), out)
        return out
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for i, row in enumerate(rows[1:]):
        for col, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            tol = EXACT if col in ("valid", "regime") else _CLI_COLUMN_TOL.get(col, TOL_CSV)
            out.append((f"{col}[{i}]", value, tol))
    return out


def _prep_cli(spec, ctx):
    from qtst import cli

    out_path = ctx / "out.txt"
    argv = [str(ctx / a) if a in (TABLE_FILE, RATES_FILE) else a for a in spec["argv"]]
    argv += ["--output", str(out_path)]

    def call():
        if out_path.exists():
            out_path.unlink()
        return cli.main(argv)

    def extract(rc):
        fields = [("exit", rc, EXACT)]
        if rc == 0:
            fields += parse_cli_output(out_path.read_text(encoding="utf-8"))
        return fields

    def bytes_out():
        return out_path.stat().st_size if out_path.exists() else 0

    return Prepared(call, extract, bytes_out)


_PREPARE = {
    "quantum_rate": _prep_quantum_rate,
    "mu_solve": _prep_mu_solve,
    "kernel_grid": _prep_kernel_grid,
    "fit_kie": _prep_fit,
    "kie_qtst": _prep_kie,
    "apparent_arrhenius": _prep_apparent,
    "classify": _prep_classify,
    "cli": _prep_cli,
}


def prepare(spec, ctx: Path) -> Prepared:
    """Build the inputs of one task; ``ctx`` is the CLI's scratch directory."""
    return _PREPARE[spec["op"]](spec, ctx)


def run_first(workload, seed, ctx):
    """Run the workload's first task once (the set-up time measurement)."""
    ctx = Path(ctx)
    if workload == "kie_cli":
        write_cli_files(seed, ctx)
    task = prepare(generate(workload, seed)[0][0], ctx)
    task.extract(task.call())


def write_cli_files(seed, ctx: Path):
    for name, text in cli_files(seed).items():
        (ctx / name).write_text(text, encoding="utf-8")

