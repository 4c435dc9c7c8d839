"""Output checks: recorded references, invariants and run-to-run identity.

Every task's output is a list of ``(field, value, tolerance)``; a tolerance
is ``None`` (exact), a relative tolerance, or ``("abs", bound)``. The
reference file of a seed holds every task's output as recorded by
``run.py --record``; seeds without one get the invariant checks only.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from qtst import kramers, qcorr, units

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def tasks_digest(inputs):
    """SHA-256 of a workload's inputs (task list and files), the identity of
    a seed's inputs."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def reference_path(seed):
    return REFERENCE_DIR / f"seed-{seed}.json"


def load_reference(seed, workload, digest):
    """Recorded outputs of this seed's tasks, or None if none were recorded.

    Raises ValueError if the recorded task list is not this one.
    """
    path = reference_path(seed)
    if not path.exists():
        return None
    entry = json.loads(path.read_text(encoding="utf-8"))["workloads"].get(workload)
    if entry is None:
        return None
    if entry["tasks_sha256"] != digest:
        raise ValueError(f"{path.name}: the recorded {workload} task list differs from this one")
    return entry["outputs"]


def save_reference(seed, workload, digest, outputs, provenance):
    path = reference_path(seed)
    doc = {"seed": seed, "workloads": {}}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    doc["recorded_with"] = provenance
    doc["workloads"][workload] = {
        "tasks_sha256": digest,
        "outputs": [[[f, v] for f, v, _ in out] for out in outputs],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def same(value, ref, tol):
    """True when ``value`` matches ``ref`` within ``tol``."""
    if tol is None or not (_number(value) and _number(ref)):
        return value == ref or (_number(value) and _number(ref)
                                and math.isnan(value) and math.isnan(ref))
    if math.isnan(value) or math.isnan(ref):
        return math.isnan(value) and math.isnan(ref)
    bound = tol[1] if isinstance(tol, tuple) else tol * abs(ref)
    return abs(value - ref) <= bound


def identical(a, b):
    """Bitwise-equal outputs (NaN equal to NaN)."""
    return len(a) == len(b) and all(
        fa == fb and same(va, vb, None) for (fa, va, _), (fb, vb, _) in zip(a, b))


def against_reference(output, ref):
    """Fields that differ from the recorded reference, as messages."""
    ref = dict((f, v) for f, v in ref)
    problems = []
    if set(ref) != {f for f, _, _ in output}:
        problems.append("output fields differ from the reference")
    for field, value, tol in output:
        if field in ref and not same(value, ref[field], tol):
            problems.append(f"{field}={value!r}, reference {ref[field]!r}")
    return problems


# ---------------------------------------------------------------- invariants


def _finite(fields, allow_nan_rows=()):
    bad = []
    for f, v, _ in fields:
        if _number(v) and not math.isfinite(v):
            row = f[f.rfind("[") + 1:-1] if f.endswith("]") else None
            if row not in allow_nan_rows:
                bad.append(f"{f} is not finite")
    return bad


def _omegab(system_spec):
    return system_spec["omegab_H"] / math.sqrt(units.Isotope.from_label(system_spec["isotope"]).mass_number)


def invariants(spec, output):
    """Problems with one task's output that hold for any seed."""
    v = {f: x for f, x, _ in output}
    op = spec["op"]
    if op == "cli":
        if v["exit"] != spec["expect"]:
            return [f"exit {v['exit']}, expected {spec['expect']}"]
        flagged = {f[f.rfind("[") + 1:-1] for f, x, _ in output
                   if f.startswith("valid[") and x == 0}
        return _finite(output, flagged)
    problems = _finite(output)
    if op == "quantum_rate":
        wb = _omegab(spec["system"])
        if not v["c_qm"] >= 1.0:
            problems.append(f"c_qm = {v['c_qm']} < 1")
        if not 0.0 < v["mu_cm1"] <= wb * (1 + 1e-12):
            problems.append(f"mu = {v['mu_cm1']} outside (0, omega_b]")
        if spec["friction"] is None:
            s = spec["system"]
            system = kramers.BarrierSystem(s["omega0_H"], s["omegab_H"], s["barrier"],
                                           units.Isotope.from_label(s["isotope"]))
            closed = qcorr.correction_closed(system.omega0, system.omegab, spec["T"])
            if not same(v["c_qm"], closed, workloads.TOL_RATE):
                problems.append(f"zero-friction product {v['c_qm']!r} != closed form {closed!r}")
    elif op == "mu_solve":
        if not 0.0 < v["mu_cm1"] <= v["omegab_cm1"] * (1 + 1e-12):
            problems.append(f"mu = {v['mu_cm1']} outside (0, omega_b]")
    elif op == "kernel_grid":
        for i in range(spec["points"]):
            k, b = v[f"kernel[{i}]"], v[f"bound[{i}]"]
            if not 0.0 <= k <= b * (1.0 + 1e-9):
                problems.append(f"kernel[{i}] = {k} outside [0, K_e/(M z) = {b}]")
    elif op == "kie_qtst" and not v["ratio"] > 0.0:
        problems.append(f"KIE {v['ratio']} <= 0")
    return problems


def classical_kie_problems(blocks):
    """Classical KIE of every rate_scan system lies in [1, sqrt(m_h/m_l)]."""
    problems, seen = [], set()
    for block in blocks:
        for spec in block:
            key = json.dumps([spec["system"], spec["friction"]], sort_keys=True)
            if spec["op"] != "quantum_rate" or key in seen:
                continue
            seen.add(key)
            s = spec["system"]
            system = kramers.BarrierSystem(s["omega0_H"], s["omegab_H"], s["barrier"])
            model = workloads.friction(spec["friction"])
            for heavy in (units.Isotope.D, units.Isotope.T):
                value = kramers.classical_kie(system, model, units.Isotope.H, heavy)
                if not 1.0 - 1e-12 <= value <= math.sqrt(heavy.mass_number) * (1 + 1e-12):
                    problems.append(f"classical KIE H:{heavy.name} = {value} out of bounds")
    return problems
