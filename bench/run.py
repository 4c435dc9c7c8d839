#!/usr/bin/env python3
"""Seeded benchmark of qtst: end-to-end metrics, and per-module metrics traced.

Run from the repository root; the library is imported from ``src/``:

    python3 bench/run.py --workload rate_scan --seed 0 --seconds 34 --trace 0
    python3 bench/run.py --workload rate_scan --seed 0 --seconds 34 --trace 1
    python3 bench/run.py --workload all --seed 0      # every workload, one table
    python3 bench/run.py --record --seed 7            # reference outputs for seed 7
    python3 bench/run.py --baselines                  # the ROADMAP north-star timings

One client in one process runs the workload's fixed task list in a closed
loop, pass after pass, until ``--seconds`` have passed at the end of a pass
(and at least ten passes). With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs every pass twice, untraced and traced,
and reports the per-module metrics and the tracing overhead. Every task's output is checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with the provenance of the run and
a span file of the traced run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_PASSES = 10
# a task faster than this runs back to back within a pass until it fills it
REPEAT_S = 2e-3
MAX_REPEATS = 100



def declared_units(trace):
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_library():
    """Import qtst from this checkout's src/, or exit with an error."""
    if not (SRC / "qtst" / "__init__.py").is_file():
        sys.exit(f"error: no qtst sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import qtst

    if Path(qtst.__file__).resolve().parent != SRC / "qtst":
        sys.exit(f"error: imported qtst from {qtst.__file__}, not from {SRC}")


def provenance(seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qtst").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


class Workload:
    """One workload's seeded task list, prepared, with its output checks."""

    def __init__(self, name, seed, scratch):
        import checks
        import workloads

        self.name, self.seed, self.scratch = name, seed, scratch
        self.blocks = workloads.generate(name, seed)
        if workloads.generate(name, seed) != self.blocks:
            raise RuntimeError("task generation is not deterministic")
        files = workloads.cli_files(seed) if name == "kie_cli" else {}
        self.digest = checks.tasks_digest([self.blocks, files])
        if files:
            workloads.write_cli_files(seed, scratch)
        self.specs = [spec for block in self.blocks for spec in block]
        self.tasks = [(index, workloads.prepare(spec, scratch))
                      for index, spec in enumerate(self.specs)]
        self.reference = None  # recorded outputs, per list index
        self.first = {}  # list index -> first output seen
        self.bad = {}  # list index -> problems
        self.runs = Counter()  # list index -> task runs

    def run_task(self, index, task):
        """Run one task; returns (seconds, output or None)."""
        import checks

        t0 = perf_counter()
        try:
            result = task.call()
        except Exception as exc:  # a failed task is counted, the run goes on
            elapsed = perf_counter() - t0
            self._problem(index, f"raised {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = perf_counter() - t0
        output = task.extract(result)
        first = self.first.setdefault(index, output)
        if first is not output and not checks.identical(first, output):
            self._problem(index, "output differs from an earlier run of the same task")
        else:
            self.runs[index] += 1
        return elapsed, output

    def _problem(self, index, message):
        self.runs[index] += 1
        self.bad.setdefault(index, []).append(message)

    def check_outputs(self):
        """Reference and invariant checks of every distinct task that ran."""
        import checks

        for index, output in sorted(self.first.items()):
            problems = checks.invariants(self.specs[index], output)
            if self.reference is not None:
                problems += checks.against_reference(output, self.reference[index])
            if problems:
                self.bad.setdefault(index, []).extend(problems)
        if self.name == "rate_scan":
            problems = checks.classical_kie_problems(self.blocks)
            if problems:
                self.bad.setdefault(-1, []).extend(problems)

    @property
    def attempted(self):
        return sum(self.runs.values())

    @property
    def failed(self):
        """Task runs that raised, changed output, or whose output fails a check."""
        return sum(n for index, n in self.runs.items() if index in self.bad)

    def problems(self):
        return {str(k): v for k, v in sorted(self.bad.items())}


def quantile(values, q):
    """The q-quantile, linear between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def quantile_classes(wl, task_s, passes, q):
    """Task classes of the two samples the q-quantile lies between."""
    order = sorted(range(len(task_s)), key=task_s.__getitem__)
    pos = q * (len(task_s) * passes - 1)
    return sorted({wl.specs[order[int(k) // passes]]["cls"] for k in (pos // 1, -(-pos // 1))})


def measure_setup(wl):
    """Median wall time of a fresh interpreter importing qtst and running
    the workload's first task."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import qtst; "
            f"import workloads; workloads.run_first({wl.name!r}, {wl.seed}, {str(wl.scratch)!r})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=170,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_passes(wl, seconds, min_passes, each_pass):
    """Call ``each_pass(pass number)`` until ``seconds`` have passed, and at
    least ``min_passes`` times; returns the number of passes."""
    deadline = perf_counter() + seconds
    n = 0
    while n < min_passes or perf_counter() < deadline:
        each_pass(n)
        n += 1
    return n


def warm_up(wl):
    """Run every task once untimed: lazy imports and first-call costs.

    Returns each task's back-to-back runs per pass: enough to fill about
    ``REPEAT_S``, so a call of microseconds gets as many samples of its
    fastest run as a call of milliseconds.
    """
    reps = []
    for index, task in wl.tasks:
        elapsed = wl.run_task(index, task)[0]
        reps.append(max(1, min(MAX_REPEATS, int(REPEAT_S / max(elapsed, 1e-9)))))
    return reps


def end_to_end(wl, seconds):
    reps = warm_up(wl)
    setup = measure_setup(wl)
    wl.runs.clear()
    task_s = [float("inf")] * len(wl.tasks)  # fastest run, per list index

    def each_pass(_):
        for index, task in wl.tasks:
            for _ in range(reps[index]):
                task_s[index] = min(task_s[index], wl.run_task(index, task)[0])

    passes = run_passes(wl, seconds, MIN_PASSES, each_pass)
    wl.check_outputs()
    # A task's time is its fastest run in this run: a shared machine only
    # ever slows a run down, and on a shared 2-CPU virtual machine single
    # seconds ran up to 60% slow. Short passes give each task many runs
    # spread over the whole run.
    samples = task_s * passes  # each task once per pass
    metrics = {
        "tasks_per_s": len(task_s) / sum(task_s),
        "task_p50_ms": statistics.median(samples) * 1e3,
        "task_p90_ms": quantile(samples, 0.9) * 1e3,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"tasks": len(samples), "task_runs": wl.attempted, "passes": passes,
                     "p50_classes": quantile_classes(wl, task_s, passes, 0.5),
                     "p90_classes": quantile_classes(wl, task_s, passes, 0.9)}


def per_layer(wl, seconds):
    import tracer

    warm_up(wl)
    imports = tracer.import_times_ms(SRC)
    wl.runs.clear()
    tr = tracer.Tracer()
    plain, traced = [], []
    totals, vals = Counter(), Counter()
    per_fit, per_rate = Counter(), Counter()
    bytes_out = 0

    def traced_pass():
        nonlocal bytes_out
        tr.install()
        try:
            for index, task in wl.tasks:
                tr.task = len(traced)
                elapsed, _ = wl.run_task(index, task)
                traced.append(elapsed)
                counts, values = tr.take_task_counts()
                totals.update(counts)
                vals.update(values)
                if counts["fit.fit_kie"]:
                    per_fit.update(fits=counts["fit.fit_kie"], evals=counts["kie.kie_qtst"])
                if counts["qcorr.quantum_rate"]:
                    per_rate.update(rates=counts["qcorr.quantum_rate"],
                                    solves=counts["kramers.solve_effective_frequency"])
                if task.bytes_out is not None:
                    bytes_out += task.bytes_out()
        finally:
            tr.uninstall()

    def plain_pass():
        for index, task in wl.tasks:
            plain.append(wl.run_task(index, task)[0])

    def each_pass(n):
        # alternate the order so that drift affects both sides alike
        first, second = (plain_pass, traced_pass) if n % 2 == 0 else (traced_pass, plain_pass)
        first()
        second()

    passes = run_passes(wl, seconds, 1, each_pass)
    wl.check_outputs()
    n = len(traced)

    def per(x, d):
        return x / d if d else 0.0

    fits = per_fit["fits"]
    metrics = {}
    for m in tracer.MODULES:
        metrics[f"{m}.self_ms"] = tr.self_s[m] * 1e3 / n
        metrics[f"{m}.import_ms"] = imports[m]
        metrics[f"{m}.raised"] = tr.raised[m] / n
    metrics.update({
        "qcorr.product_calls": totals["qcorr.correction_product"] / n,
        "qcorr.terms_per_product": per(vals["qcorr.terms"], totals["qcorr.correction_product"]),
        "kramers.mu_solves": totals["kramers.solve_effective_frequency"] / n,
        "kramers.mu_solves_per_rate": per(per_rate["solves"], per_rate["rates"]),
        "spectral.kernel_calls": totals["spectral.laplace_kernel"] / n,
        "spectral.kernel_points": vals["spectral.kernel_points"] / n,
        "kie.kie_calls": totals["kie.kie_qtst"] / n,
        "fit.starts": per(totals["fit.least_squares"], fits),
        "fit.starts_converged_frac": per(vals["fit.starts_converged"], totals["fit.least_squares"]),
        "fit.solver_nfev": per(vals["fit.nfev"], fits),
        "fit.model_evals_per_fit": per(per_fit["evals"], fits),
        "wkb.actions": totals["wkb.wkb_action"] / n,
        "cli.commands": totals["cli.main"] / n,
        "cli.bytes_out": bytes_out / n,
        # traced minus untraced throughput over untraced; the passes pair up
        "trace.overhead_frac": sum(plain) / sum(traced) - 1.0,
        "trace.coverage_frac": sum(tr.self_s.values()) / sum(traced),
        "trace.task_ms": sum(traced) * 1e3 / n,
    })
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{wl.name}-seed{wl.seed}-spans.csv"
    tr.write(spans)
    return metrics, {"tasks": n + len(plain), "traced_tasks": n, "untraced_tasks": len(plain),
                     "passes": passes, "spans_file": str(spans.relative_to(ROOT)),
                     "span_records": len(tr.records)}


def run_one(args):
    import checks

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    measure = per_layer if args.trace else end_to_end
    # the CLI's messages on stderr and the library's warnings are expected
    # outcomes of some tasks; the checks judge the outputs
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wl = Workload(args.workload, args.seed, scratch)
            wl.reference = checks.load_reference(args.seed, wl.name, wl.digest)
            metrics, info = measure(wl, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    attempted, failed = wl.attempted, wl.failed
    problems = wl.problems()
    correct = failed == 0 and not problems
    classes = Counter(spec["cls"] for spec in wl.specs)
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "task_list": {"tasks": len(wl.tasks), "blocks": len(wl.blocks), "sha256": wl.digest,
                      "classes": dict(sorted(classes.items())),
                      "reference_checked": wl.reference is not None},
        "run": info,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "problems": problems,
    }
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} task runs in "
          f"{info['passes']} passes of {len(wl.tasks)} tasks; reference "
          f"{'checked' if wl.reference is not None else 'not recorded, invariants only'}")
    for k, u in units.items():
        print(f"  {k:28s} {metrics[k]:14.6g} {u}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} fraction ({failed}/{attempted})")
    for index, messages in list(problems.items())[:10]:
        print(f"  task {index}: {'; '.join(messages[:3])}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':28s} {'unit':12s}" + "".join(f"{n:>16s}" for n in rows))
    for k in names:
        unit = rows[workloads.WORKLOADS[0]]["metrics"][k]["unit"]
        print(f"{k:28s} {unit:12s}" + "".join(f"{r['metrics'][k]['value']:16.6g}" for r in rows.values()))
    print(f"{'failed_frac':28s} {'fraction':12s}"
          + "".join(f"{r['failed'] / r['attempted']:16.6g}" for r in rows.values()))
    print(f"{'tasks':28s} {'count':12s}" + "".join(f"{r['attempted']:16d}" for r in rows.values()))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def record(args):
    """Run every task of the seed's lists once and store the outputs."""
    import checks
    import workloads

    status = 0
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    for name in names:
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        try:
            with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wl = Workload(name, args.seed, scratch)
                outputs = [wl.run_task(index, task)[1] for index, task in wl.tasks]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        wl.check_outputs()
        if wl.problems():
            print(f"{name}: not recorded, outputs fail their checks: {wl.problems()}",
                  file=sys.stderr)
            status = 1
            continue
        checks.save_reference(args.seed, name, wl.digest, outputs, provenance(args.seed))
        print(f"{name}: recorded {len(outputs)} task outputs in {checks.reference_path(args.seed)}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="rate_scan, structured_bath, kie_cli or all")
    parser.add_argument("--seed", type=int, default=0, help="seed of the task lists")
    parser.add_argument("--seconds", type=float, default=34.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-module metrics from a traced run")
    parser.add_argument("--record", action="store_true",
                        help="record the reference outputs of --seed from this checkout")
    parser.add_argument("--baselines", action="store_true",
                        help="time the ROADMAP north-star calls and write bench/baselines.json")
    args = parser.parse_args(argv)
    import_library()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.baselines:
        import baselines

        return baselines.main(provenance(args.seed))
    if args.record:
        return record(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
