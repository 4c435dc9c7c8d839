"""Per-module tracing from outside the library.

``Tracer.install`` replaces each traced module's public functions, at every
name they are bound to in the package (``qtst.qcorr.effective_barrier_frequency``,
``qtst.cli.classical_rate``, ``qtst.quantum_rate``, ...), and the friction
models' kernel methods, with wrappers; ``uninstall`` puts the originals back.

A call that enters a module from outside it opens a span (name, start, end,
parent, task id). Calls inside one module are counted but open no span, so
a module's self time is its spans' time minus their child spans. Runs of
identical leaf spans under one parent are kept as one record with a call
count and their summed busy time, so memory grows with the shape of the call
tree, not the number of calls. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
import types
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("spectral", "kramers", "qcorr", "kie", "fit", "wkb", "cli")
# public names of cli, which has no __all__
_CLI_PUBLIC = ("main", "build_parser")
_KERNEL_METHODS = ("laplace_kernel", "friction_spectrum", "spectrum_integral", "kernel_tail_scale")


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self.records = []  # (id, parent, name id, task, start, end, busy, calls)
        self.stack = []  # open spans: [module, child time, id, had children]
        self.next_id = 0
        self.task = -1
        self.self_s = Counter()  # module -> self time, s
        self.raised = Counter()  # module -> exceptions leaving it
        self.counts = Counter()  # "module.function" -> calls, in the current task
        self.values = Counter()  # quantities read from results, in the current task
        self._patched = []

    # -------------------------------------------------------------- install

    def install(self):
        """Wrap every traced function and method at every name bound to it."""
        targets = {}  # original function -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"qtst.{short}")
            public = _CLI_PUBLIC if short == "cli" else mod.__all__
            for attr in public:
                obj = getattr(mod, attr, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    targets[obj] = self._wrap(obj, short, f"{short}.{attr}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__ and short == "spectral":
                    for meth in _KERNEL_METHODS:
                        fn = obj.__dict__.get(meth)
                        if isinstance(fn, types.FunctionType):
                            self._set(obj, meth, self._wrap(fn, short, f"spectral.{meth}"))
        fitmod = importlib.import_module("qtst.fit")
        self._set(fitmod, "least_squares", self._count_solver(fitmod.least_squares))
        for name, mod in list(sys.modules.items()):
            if name == "qtst" or name.startswith("qtst."):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and obj in targets:
                        self._set(mod, attr, targets[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -------------------------------------------------------------- wrappers

    def _wrap(self, fn, module, name):
        name_id = len(self.names)
        self.names.append(name)
        after = _RESULT_HOOKS.get(name)
        before = _ARG_HOOKS.get(name)
        stack, counts, values = self.stack, self.counts, self.values

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(values, args)
            if stack and stack[-1][0] == module:
                result = fn(*args, **kwargs)
            else:
                result = self._span(fn, module, name_id, args, kwargs)
            if after is not None:
                after(values, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _span(self, fn, module, name_id, args, kwargs):
        stack = self.stack
        sid = self.next_id
        self.next_id += 1
        if stack:
            parent = stack[-1]
            parent[3] = True
            parent_id = parent[2]
        else:
            parent = None
            parent_id = -1
        frame = [module, 0.0, sid, False]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[module] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.self_s[module] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            self._record(sid, parent_id, name_id, t0, t1, dur, frame[3])

    def _record(self, sid, parent_id, name_id, t0, t1, dur, had_children):
        records = self.records
        if not had_children and records:
            last = records[-1]
            if (last[7] > 0 and last[1] == parent_id and last[2] == name_id
                    and last[3] == self.task):
                records[-1] = (last[0], parent_id, name_id, self.task, last[4], t1,
                               last[6] + dur, last[7] + 1)
                return
        # calls > 0 marks a leaf record that later identical leaves may join
        records.append((sid, parent_id, name_id, self.task, t0, t1, dur,
                        0 if had_children else 1))

    def _count_solver(self, least_squares):
        values, counts = self.values, self.counts

        def wrapper(*args, **kwargs):
            res = least_squares(*args, **kwargs)
            counts["fit.least_squares"] += 1
            values["fit.nfev"] += res.nfev
            return res

        wrapper.__wrapped__ = least_squares
        return wrapper

    # ------------------------------------------------------------------ output

    def take_task_counts(self):
        """Counts and values of the task just run; resets them."""
        counts, values = Counter(self.counts), Counter(self.values)
        self.counts.clear()
        self.values.clear()
        return counts, values

    def write(self, path):
        """Write the spans as CSV: one line per span or run of leaf spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,task,start_s,end_s,busy_s,calls\n")
            for sid, parent, name_id, task, t0, t1, busy, calls in self.records:
                fh.write(f"{sid},{parent},{self.names[name_id]},{task},{t0:.9f},{t1:.9f},"
                         f"{busy:.9f},{max(calls, 1)}\n")


def _kernel_points(values, args):
    values["spectral.kernel_points"] += int(np.size(args[1]))


def _terms(values, result):
    values["qcorr.terms"] += result.terms_used


def _converged(values, result):
    values["fit.starts_converged"] += result.n_starts_converged


_ARG_HOOKS = {"spectral.laplace_kernel": _kernel_points}
_RESULT_HOOKS = {"qcorr.correction_product": _terms, "fit.fit_kie": _converged}


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|(\s*)(\S+)")


def import_times_ms(src):
    """Import cost per traced module, from ``-X importtime``, in ms.

    A module's cost is its own import plus every non-qtst module it pulled
    in first, so ``fit`` carries ``scipy.optimize``.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); import qtst, qtst.cli"],
        capture_output=True, text=True, timeout=120, check=True)
    out = {}
    done = []  # (depth, name, cost) of modules whose parent is not listed yet
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth, name = len(m.group(2)) // 2, m.group(3)
        cost = int(m.group(1))
        # children are listed before their parent, one level deeper
        while done and done[-1][0] > depth:
            _, child, child_cost = done.pop()
            if not child.startswith("qtst"):
                cost += child_cost
        done.append((depth, name, cost))
        if name.startswith("qtst.") and name.split(".")[1] in MODULES:
            out[name.split(".")[1]] = cost / 1000.0
    return out
