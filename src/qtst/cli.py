"""Command-line interface: rate/KIE curves, fits, classification, sweeps.

Every subcommand accepts its parameters as flags and, optionally, as a
single JSON file via --config whose keys are the flag names; argparse
checks both alike, and flags on the command line win. Outputs are CSV (comma
separator, '.' decimal point, header row, LF line endings) or JSON
objects carrying a top-level ``"schema": "qtst/1"`` key. Exit codes:
0 ok, 2 configuration error, 3 domain error, 4 fit failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import fit as fitmod
from . import kie as kiemod
from . import qcorr, spectral, wkb
from .errors import (
    BelowCrossoverError,
    DomainError,
    FitConvergenceError,
    QtstError,
    _read_table,
)
from .kramers import (
    BarrierSystem,
    classical_rate,
    crossover_temperature,
    solve_effective_frequency,
)
from .units import Isotope

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_FIT = 4

SCHEMA = "qtst/1"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"  # NaN of either sign prints as "nan"
    return str(x)


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_curve(args, header, rows, ycol, title, logy=False):
    """Write the CSV curve to --output and, with --gnuplot, a script plotting column ycol."""
    _write_text(args.output, _csv_text(header, rows))
    if args.gnuplot:
        lines = [
            "set datafile separator ','",
            "set key autotitle columnhead",
            f"set title '{title}'",
        ]
        if logy:
            lines.append("set logscale y")
        lines.append(f"plot '{args.output or '-'}' using 1:{ycol} with linespoints")
        _write_text(args.gnuplot, "\n".join(lines) + "\n")


def _friction_from_args(args) -> spectral.FrictionModel | None:
    """--friction JSON, or the --gamma [--omega-d] shorthand; not both."""
    spec = args.friction
    if spec:
        if args.gamma is not None or args.omega_d is not None:
            raise ConfigError("--friction cannot be combined with --gamma or --omega-d")
        text = spec
        p = Path(spec)
        if p.exists():
            text = p.read_text(encoding="utf-8")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--friction is neither a file nor valid JSON: {exc}")
        return spectral.friction_model_from_json(obj)
    if args.gamma is None:
        if args.omega_d is not None:
            raise ConfigError("--omega-d needs --gamma")
        return None
    if args.omega_d is None:
        return spectral.OhmicFriction(args.gamma)
    return spectral.DrudeFriction(args.gamma, args.omega_d)


class ConfigError(Exception):
    pass


def _temperature_grid(args) -> np.ndarray:
    if args.tmin <= 0 or args.tmax < args.tmin:
        raise ConfigError("need 0 < tmin <= tmax")
    if args.points < 1:
        raise ConfigError("points must be >= 1")
    return np.linspace(args.tmin, args.tmax, args.points)


# ---------------------------------------------------------------- commands


def cmd_kie_predict(args):
    light, heavy = Isotope.pair(args.pair)
    pred = kiemod.kie_qtst(args.omega0, args.omegab, _temperature_grid(args), light, heavy)
    if np.isnan(pred.ratio).any():
        print(
            "warning: some temperatures lie below the light isotope's "
            "crossover; rows flagged with valid=0",
            file=sys.stderr,
        )
    rows = zip(pred.T_K.tolist(), pred.ratio.tolist(), pred.valid.astype(int).tolist())
    _write_curve(args, ("T_K", "kie", "valid"), rows, 2, "KIE vs T", logy=True)
    return EXIT_OK


def cmd_rate(args):
    iso = Isotope.from_label(args.isotope)
    system = BarrierSystem(args.omega0, args.omegab, args.barrier, iso)
    model = _friction_from_args(args)
    rate = classical_rate if args.kind == "classical" else qcorr.quantum_rate
    rows = []
    for T in _temperature_grid(args).tolist():
        try:
            r = rate(system, model, T)
            rows.append((T, r.rate_per_s, r.c_qm, r.regime))
        except BelowCrossoverError:
            rows.append((T, math.nan, math.nan, "below_T0"))
    _write_curve(args, ("T_K", "k", "c_qm", "regime"), rows, 2, "rate vs T", logy=True)
    return EXIT_OK


def cmd_correction(args):
    iso = Isotope.from_label(args.isotope)
    system = BarrierSystem(args.omega0, args.omegab, 0.0, iso)
    model = _friction_from_args(args)
    rows = []
    for T in _temperature_grid(args).tolist():
        try:
            prod = qcorr.correction_product(system, model, T)
            c_prod, regime = prod.c_qm, prod.regime
        except BelowCrossoverError:
            c_prod, regime = math.nan, "invalid_below_T0"
        except DomainError:  # c_qm overflows a double above T0
            c_prod, regime = math.nan, None
        try:
            c_closed = qcorr.correction_closed(system.omega0, system.omegab, T)
        except DomainError:
            c_closed = math.nan
        c_cross = math.nan
        if args.kappa is not None:
            try:
                c_cross = qcorr.correction_crossover(system, T, args.kappa)
            except DomainError:
                pass
        rows.append((T, c_prod, c_closed, c_cross, regime))
    _write_curve(args, ("T_K", "c_qm", "c_closed", "c_crossover", "regime"), rows, 2, "quantum correction", logy=True)
    return EXIT_OK


def cmd_crossover(args):
    if args.gamma_max <= 0 or args.points < 2:
        raise ConfigError("need gamma-max > 0 and points >= 2")
    omega_ds = args.omega_d if args.omega_d else [10.0 * args.omegab]
    gammas = np.linspace(0.0, args.gamma_max, args.points)
    rows = []
    for omega_d in omega_ds:
        for g in gammas:
            model = None if g == 0.0 else spectral.DrudeFriction(g * args.omegab, omega_d)
            mu, _ = solve_effective_frequency(args.omegab, model)
            rows.append((float(g), float(omega_d), mu, crossover_temperature(mu)))
    header = ("gamma_over_omegab", "omega_d_cm1", "mu_cm1", "T0_K")
    _write_curve(args, header, rows, 4, "crossover temperature vs friction")
    return EXIT_OK


def cmd_classify(args):
    reports = []
    if args.dataset:
        if args.dataset != "table1":
            raise ConfigError(f"unknown dataset {args.dataset!r}; only 'table1' is bundled")
        rows = kiemod._table1_rows()
        if args.row:
            rows = [r for r in rows if args.row.lower() in r["name"].lower()]
            if not rows:
                raise ConfigError(f"no table1 row matching {args.row!r}")
        for r in rows:
            if r["kie"] is None or r["a_ratio"] is None or r["delta_E"] is None:
                continue
            rep = kiemod.classify(r["kie"], r["a_ratio"], r["delta_E"], r["pair"])
            entry = rep.to_json()
            entry["name"] = r["name"]
            reports.append(entry)
    else:
        if None in (args.kie, args.a_ratio, args.delta_e):
            raise ConfigError("provide --dataset table1 or all of --kie, --a-ratio, --delta-e")
        rep = kiemod.classify(args.kie, args.a_ratio, args.delta_e, args.pair)
        reports.append(rep.to_json())
    _write_text(args.output, _json_text({"schema": SCHEMA, "reports": reports}))
    return EXIT_OK


# bundled KIE series for `fit --input`: the stem of the data file and its sidecar
_BUNDLED_SERIES = {"fig3": "fig3_mcm", "fig4": "fig4_mao"}


def cmd_fit(args):
    if args.input in _BUNDLED_SERIES:
        path = resources.files("qtst.data") / f"{_BUNDLED_SERIES[args.input]}.csv"
    else:
        path = Path(args.input)
    try:
        data = fitmod.KIEDataset.from_csv(path, pair=args.pair or None)
        result = fitmod.fit_kie(data)
    except DomainError as exc:
        raise ConfigError(f"{args.input}: {exc}")
    payload = result.to_json()
    payload["pair"] = f"{data.light.name}:{data.heavy.name}"
    payload["n_points"] = len(data)
    _write_text(args.output, _json_text(payload))
    if args.curve:
        grid = np.linspace(min(data.T_K), max(data.T_K), 101)
        pred = kiemod.kie_qtst(result.omega0, result.omegab, grid, data.light, data.heavy)
        _write_text(args.curve, _csv_text(("T_K", "kie_model"), zip(pred.T_K.tolist(), pred.ratio.tolist())))
    return EXIT_OK


def cmd_spectral(args):
    model = _friction_from_args(args)
    if model is None:
        raise ConfigError("a friction model is required (--friction or --gamma/--omega-d)")
    if args.zmin <= 0 or args.zmax < args.zmin or args.points < 1:
        raise ConfigError("need 0 < zmin <= zmax and points >= 1")
    z = np.geomspace(args.zmin, args.zmax, args.points)
    try:
        bound = spectral.kernel_upper_bound(model, z)
    except DomainError:
        bound = np.full_like(z, math.nan)
    columns = (z, model.laplace_kernel(z), model.friction_spectrum(z), bound)
    rows = zip(*(c.tolist() for c in columns))
    text = _csv_text(("z_cm1", "laplace_kernel_cm1", "friction_spectrum_cm1", "kernel_bound_cm1"), rows)
    _write_text(args.output, text)
    return EXIT_OK


def cmd_wkb(args):
    if args.potential == "parabolic":
        pot = wkb.ParabolicBarrier(args.barrier, args.omegab, args.mass)
    elif args.potential == "eckart":
        pot = wkb.EckartBarrier(args.barrier, args.width, args.mass)
    elif args.potential == "cubic":
        pot = wkb.CubicBarrier(args.omega0, args.barrier, args.mass)
    else:  # tabulated; argparse admits only these four choices
        if not args.table:
            raise ConfigError("--table CSV required for a tabulated potential")
        pot = wkb.TabulatedPotential.from_csv(args.table, mass=args.mass)
    if not (0.0 < args.emin_frac < args.emax_frac < 1.0) or args.points < 1:
        raise ConfigError("need 0 < emin-frac < emax-frac < 1 and points >= 1")
    fracs = np.linspace(args.emin_frac, args.emax_frac, args.points)
    rows = []
    for f in fracs:
        E = float(f) * pot.barrier_height
        s = wkb.wkb_action(pot, E)
        rows.append((E, s, math.exp(-2.0 * s)))
    text = _csv_text(("E_kJ_per_mol", "action_hbar", "transmission"), rows)
    _write_text(args.output, text)
    return EXIT_OK


def cmd_swain_schaad(args):
    alpha = kiemod.swain_schaad(args.kh, args.kd, args.kt)
    _write_text(args.output, _json_text({"schema": SCHEMA, "swain_schaad_exponent": alpha}))
    return EXIT_OK


def cmd_arrhenius(args):
    text = Path(args.input).read_text(encoding="utf-8")
    try:
        _, (T, k) = _read_table(text, "rate table", 2, 2)
    except DomainError as exc:
        raise ConfigError(f"{args.input}: {exc}")
    result = fitmod.fit_arrhenius(T, k)
    _write_text(args.output, _json_text(result.to_json()))
    return EXIT_OK


# ----------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qtst`` parser, built once per process; parsing leaves it unchanged.

    Flags are matched exactly, never by a prefix, on the command line and as
    ``--config`` keys alike."""
    parser = argparse.ArgumentParser(
        prog="qtst",
        description="Quantum transition state theory for hydrogen-transfer kinetics.",
        allow_abbrev=False,
    )
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    def add_common(p):
        p.add_argument("--config", help="JSON file of parameters; explicit flags win")
        p.add_argument("--output", "-o", default=None, help="output path (default: stdout)")

    def add_frequencies(p):
        p.add_argument("--omega0", type=float, required=True, help="reactant-well frequency for H (cm^-1)")
        p.add_argument("--omegab", type=float, required=True, help="barrier frequency for H (cm^-1)")

    def add_grid(p, tmin, tmax):
        p.add_argument("--tmin", type=float, default=tmin, help="lowest temperature (K)")
        p.add_argument("--tmax", type=float, default=tmax, help="highest temperature (K)")
        p.add_argument("--points", type=int, default=51, help="number of grid points")
        p.add_argument("--gnuplot", help="also write a gnuplot script to this path")

    def add_friction(p):
        p.add_argument("--friction", help="friction model as JSON text or a JSON file path")
        p.add_argument("--gamma", type=float, default=None, help="Ohmic/Drude friction strength (cm^-1)")
        p.add_argument("--omega-d", dest="omega_d", type=float, default=None, help="Drude bath response frequency (cm^-1)")

    p = sub.add_parser("kie-predict", help="KIE(T) curve for an isotope pair")
    add_common(p)
    add_frequencies(p)
    p.add_argument("--pair", default="H:D", help="isotope pair, light:heavy (e.g. H:D)")
    add_grid(p, 275.0, 325.0)
    p.set_defaults(func=cmd_kie_predict)

    p = sub.add_parser("rate", help="classical or quantum rate curve")
    add_common(p)
    add_frequencies(p)
    p.add_argument("--barrier", type=float, required=True, help="activation barrier (kJ/mol)")
    p.add_argument("--isotope", default="H", help="transferred isotope: H, D or T")
    p.add_argument("--kind", choices=("classical", "quantum"), default="quantum", help="rate expression")
    add_friction(p)
    add_grid(p, 250.0, 350.0)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("correction", help="quantum correction factor curves")
    add_common(p)
    add_frequencies(p)
    p.add_argument("--isotope", default="H", help="transferred isotope: H, D or T")
    p.add_argument("--kappa", type=float, default=None, help="crossover parameter kappa(T0), dimensionless")
    add_friction(p)
    add_grid(p, 240.0, 400.0)
    p.set_defaults(func=cmd_correction)

    p = sub.add_parser("crossover", help="crossover temperature vs Drude friction strength")
    add_common(p)
    p.add_argument("--omegab", type=float, required=True, help="barrier frequency (cm^-1)")
    p.add_argument("--omega-d", dest="omega_d", type=float, nargs="*", default=None, help="bath response frequencies (cm^-1)")
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=5.0, help="largest gamma/omega_b (dimensionless)")
    p.add_argument("--points", type=int, default=26, help="number of friction strengths")
    p.add_argument("--gnuplot", help="also write a gnuplot script to this path")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("classify", help="flag tunneling criteria for measured parameters")
    add_common(p)
    p.add_argument("--dataset", help="bundled dataset name (table1)")
    p.add_argument("--row", help="substring filter on dataset row names")
    p.add_argument("--kie", type=float, default=None, help="measured KIE near 300 K (dimensionless)")
    p.add_argument("--a-ratio", dest="a_ratio", type=float, default=None, help="prefactor ratio A_light/A_heavy (dimensionless)")
    p.add_argument("--delta-e", dest="delta_e", type=float, default=None, help="E_heavy - E_light (kJ/mol)")
    p.add_argument("--pair", default="H:D", help="isotope pair, light:heavy")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fit", help="fit the two-parameter KIE model to a dataset")
    add_common(p)
    p.add_argument("--input", required=True, help="CSV path with header T_K,kie[,sigma]; or 'fig3'/'fig4' for bundled data")
    p.add_argument("--pair", default=None, help="isotope pair, light:heavy (overrides sidecar)")
    p.add_argument("--curve", help="write the fitted model curve CSV to this path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("spectral", help="evaluate a friction model on a frequency grid")
    add_common(p)
    add_friction(p)
    p.add_argument("--zmin", type=float, default=1.0, help="lowest frequency (cm^-1)")
    p.add_argument("--zmax", type=float, default=1e4, help="highest frequency (cm^-1)")
    p.add_argument("--points", type=int, default=61, help="number of log-spaced points")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("wkb", help="tunneling action and transmission for a model barrier")
    add_common(p)
    p.add_argument("--potential", choices=("parabolic", "eckart", "cubic", "tabulated"), default="parabolic", help="barrier shape")
    p.add_argument("--barrier", type=float, default=40.0, help="barrier height (kJ/mol)")
    p.add_argument("--omegab", type=float, default=1000.0, help="barrier frequency (cm^-1), parabolic")
    p.add_argument("--omega0", type=float, default=1000.0, help="well frequency (cm^-1), cubic")
    p.add_argument("--width", type=float, default=0.5, help="Eckart width (angstrom)")
    p.add_argument("--mass", type=float, default=1.0, help="particle mass (hydrogen mass numbers)")
    p.add_argument("--table", help="two-column CSV (x_angstrom,U_kJ_per_mol) for tabulated potentials")
    p.add_argument("--emin-frac", dest="emin_frac", type=float, default=0.05, help="lowest E as fraction of the barrier")
    p.add_argument("--emax-frac", dest="emax_frac", type=float, default=0.95, help="highest E as fraction of the barrier")
    p.add_argument("--points", type=int, default=19, help="number of energies")
    p.set_defaults(func=cmd_wkb)

    p = sub.add_parser("swain-schaad", help="Swain-Schaad exponent from three rates")
    add_common(p)
    p.add_argument("--kh", type=float, required=True, help="rate for H transfer (1/s or any common unit)")
    p.add_argument("--kd", type=float, required=True, help="rate for D transfer (same unit)")
    p.add_argument("--kt", type=float, required=True, help="rate for T transfer (same unit)")
    p.set_defaults(func=cmd_swain_schaad)

    p = sub.add_parser("arrhenius", help="Arrhenius regression of a (T, k) table")
    add_common(p)
    p.add_argument("--input", required=True, help="CSV path with columns T_K,k (header optional)")
    p.set_defaults(func=cmd_arrhenius)

    return parser


# reads only --config, before the one full parse that the file's flags join;
# with no abbreviations it can find a path only in a token that is --config
# or starts with --config=, so argv without one skips it
_CONFIG_PARSER = argparse.ArgumentParser(prog="qtst", add_help=False, allow_abbrev=False)
_CONFIG_PARSER.add_argument("--config")


def _parse(argv) -> argparse.Namespace:
    """Parse argv with the --config file's flags right after the subcommand,
    where the flags on the command line, which argparse reads later, win."""
    path = None
    if any(token == "--config" or token.startswith("--config=") for token in argv):
        path = _CONFIG_PARSER.parse_known_args(argv)[0].config
    if path is None:
        return build_parser().parse_args(argv)
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        # key omega_d or omega-d is --omega-d; a list gives several values
        tokens.append("--" + key.replace("_", "-"))
        for v in value if isinstance(value, list) else [value]:
            tokens.append(v if isinstance(v, str) else json.dumps(v))
    args, extras = build_parser().parse_known_args([*argv[:1], *tokens, *argv[1:]])
    if extras:
        raise ConfigError(f"unrecognised arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitConvergenceError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    except QtstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
