import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qtst

SRC = Path(qtst.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
HEAVY_SCIPY = ("scipy.optimize", "scipy.special", "scipy.interpolate", "scipy.integrate")

MODULES = ("errors", "fit", "kie", "kramers", "qcorr", "spectral", "units", "wkb")


def test_package_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"qtst.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "a name is public in two modules"
    assert sorted(qtst.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(qtst, name) is getattr(module, name)


def _names_without_a_caller(names, sources, text):
    """The names that no source reads, as a name or an attribute, and that
    are no word of text. A definition, a string (an __all__ entry or a
    docstring) and a comment read nothing."""
    read = set(re.findall(r"\w+", text))
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(set(names) - read)


def _public_members():
    """The public methods and properties that each class of qtst.__all__
    defines itself. A dataclass field is a value, not a function, and is not
    one of them."""
    for name in qtst.__all__:
        cls = getattr(qtst, name)
        if isinstance(cls, type):
            for member, value in vars(cls).items():
                if not member.startswith("_") and (
                    inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
                ):
                    yield member


def test_every_public_name_has_a_caller_outside_the_tests():
    # the library itself, a demo, the benchmark or the README: a name or a
    # class's member only the tests call is not part of the package's
    # interface. A member is known by its name alone, so a name that several
    # classes define, such as to_json, counts as called where any one is.
    sources = [path.read_text() for path in SRC.glob("*.py")]
    docs = [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]
    text = "\n".join(path.read_text() for path in docs)
    assert _names_without_a_caller(qtst.__all__, sources, text) == []
    assert _names_without_a_caller(set(_public_members()), sources, text) == []


def test_the_member_guard_lists_methods_and_properties_but_not_fields():
    members = set(_public_members())
    assert {"to_json", "kim_kreevoy_flags", "from_csv", "pair", "energy"} <= members
    assert not members & {"omega0", "mu_cm1", "kind", "mass", "barrier_height", "H"}


def test_the_caller_guard_sees_a_name_that_is_only_defined():
    source = (
        "__all__ = ['f', 'g', 'h', 'k', 'm']\n"
        "def f():\n    'g'\n    # h\n    return k.m\n"
        "g = h = 1\nk = None\n"
    )
    assert _names_without_a_caller(["f", "g", "h", "k", "m"], [source], "f, in the README") == ["g", "h"]


def test_builtin_friction_models_leave_the_checks_to_the_base_class():
    # FrictionModel.laplace_kernel and friction_spectrum are the one place
    # that checks z and omega; a built-in model defines only the bodies
    from qtst import spectral

    for cls in spectral._KINDS.values():
        own = vars(cls)
        assert "_kernel" in own and "_spectrum" in own, cls.__name__
        assert "laplace_kernel" not in own and "friction_spectrum" not in own, cls.__name__


def _scipy_imports_run_at_import(node):
    # every import statement outside a function or lambda body: module level,
    # inside an if, try or with, or in a class body
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield child.lineno
        yield from _scipy_imports_run_at_import(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    # scipy is imported inside the function that uses it (see qtst/__init__)
    lines = list(_scipy_imports_run_at_import(ast.parse(path.read_text(), str(path))))
    assert not lines, f"{path.name}: scipy imported at import time on line(s) {lines}"


def _scipy_import_statements(tree):
    # every import statement anywhere in the module, function bodies included
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_has_a_scipy_import_statement(path):
    # errors._scipy is the one way in to scipy
    lines = list(_scipy_import_statements(ast.parse(path.read_text(), str(path))))
    assert not lines, f"{path.name}: scipy import statement on line(s) {lines}; use errors._scipy"


def test_the_statement_guard_sees_function_bodies():
    source = (
        "def f():\n    from scipy.optimize import brentq\n"
        "g = lambda: __import__('scipy')\n"
        "class A:\n    def m(self):\n        import scipy\n"
        "import scipyish\nfrom . import scipy_free\n"
    )
    assert sorted(_scipy_import_statements(ast.parse(source))) == [2, 6]


def _unused_imports(tree):
    # (line, name) of each name an import statement binds, anywhere in the
    # module, that no name in the module reads; `from __future__` binds none
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_every_module_uses_what_it_imports(path):
    # __init__ imports to re-export; every other module imports to use
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, f"{path.name}: unused import(s) (line, name): {unused}"


def test_the_unused_import_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom .errors import DomainError, _scipy\n"
        "def f():\n    import math\n    return os.path.join(_scipy)\n"
    )
    assert _unused_imports(ast.parse(source)) == [(3, "js"), (4, "DomainError"), (6, "math")]


def test_the_import_guard_sees_nested_imports():
    source = (
        "if True:\n    import scipy.special\n"
        "try:\n    from scipy import integrate\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy.optimize import brentq\n"
        "def f():\n    from scipy.optimize import brentq\n"
        "import scipyish\n"
    )
    assert list(_scipy_imports_run_at_import(ast.parse(source))) == [2, 4, 8]


_RUN_CLI = """
import contextlib, io, json, sys
import qtst.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert qtst.cli.main(argv) == 0
"""

# a Peaked, a Debye and a linear-protein mu solve, and a linear-protein rate
_RUN_SOLVES = """
import qtst
for model in (qtst.PeakedFriction(200.0, 150.0, 600.0), qtst.DebyeDielectricFriction(3.0),
              qtst.LinearProteinFriction()):
    qtst.solve_effective_frequency(1000.0, model)
qtst.quantum_rate(qtst.BarrierSystem(3000.0, 1000.0, 40.0), qtst.LinearProteinFriction(), 300.0)
"""

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def _scipy_modules_after(code, *args):
    """The scipy modules in sys.modules after a fresh interpreter runs code,
    with args as sys.argv[1:]."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _scipy_modules_after_cli(argv):
    """The scipy modules loaded after a fresh interpreter imports qtst.cli
    and, for a non-empty argv, runs qtst.cli.main(argv)."""
    return _scipy_modules_after(_RUN_CLI, json.dumps(argv))


LINEAR_PROTEIN = json.dumps({"kind": "linear_protein"})


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["kie-predict", "--omega0", "3000", "--omegab", "1000", "--pair", "H:D",
         "--tmin", "275", "--tmax", "325"],
        ["correction", "--omega0", "3000", "--omegab", "1000"],
        ["correction", "--omega0", "3000", "--omegab", "1000", "--kappa", "10"],
        ["classify", "--kie", "81", "--a-ratio", "0.1", "--delta-e", "5"],
        ["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40"],
        ["swain-schaad", "--kh", "81", "--kd", "3.85", "--kt", "1"],
        ["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40", "--gamma", "100", "--omega-d", "300"],
        ["rate", "--omega0", "3000", "--omegab", "1000", "--barrier", "40", "--friction", LINEAR_PROTEIN],
        ["crossover", "--omegab", "1000"],
        ["spectral", "--friction", LINEAR_PROTEIN],
        ["wkb", "--potential", "parabolic", "--barrier", "40", "--omegab", "1000"],
        ["wkb", "--potential", "eckart", "--barrier", "40", "--width", "0.45"],
        ["wkb", "--potential", "cubic", "--barrier", "40", "--omega0", "1000"],
    ],
    ids=["import", "kie-predict", "correction", "correction-kappa", "classify", "rate", "swain-schaad",
         "rate-drude", "rate-linear-protein", "crossover", "spectral-linear-protein",
         "wkb-parabolic", "wkb-eckart", "wkb-cubic"],
)
def test_closed_form_commands_load_no_heavy_scipy_module(argv):
    # the closed forms, every mu solve (Brent's method in Python), every
    # kernel, erfcx, the fit and the model barriers' WKB actions load none;
    # a tabulated WKB action does
    assert not _scipy_modules_after_cli(argv) & set(HEAVY_SCIPY)


def test_mu_solves_and_a_linear_protein_rate_load_no_scipy_module():
    assert _scipy_modules_after(_RUN_SOLVES) == set()


# fit_kie on both bundled series, then `qtst fit --input fig4` with its
# curve and JSON written to the paths in sys.argv[1:]
_RUN_FITS = """
import contextlib, io, sys
import qtst, qtst.cli
from qtst.kie import load_dataset_csv
for name, pair in (("fig3_mcm.csv", "H:D"), ("fig4_mao.csv", "H:T")):
    qtst.fit_kie(qtst.KIEDataset.from_csv_text(load_dataset_csv(name), pair=pair))
with contextlib.redirect_stdout(io.StringIO()):
    assert qtst.cli.main(["fit", "--input", "fig4", "--curve", sys.argv[1], "--output", sys.argv[2]]) == 0
"""


def test_a_fit_loads_no_scipy_module(tmp_path):
    # the polish is the library's own Levenberg-Marquardt with an analytic Jacobian
    assert _scipy_modules_after(_RUN_FITS, str(tmp_path / "curve.csv"), str(tmp_path / "fit.json")) == set()
    assert (tmp_path / "fit.json").exists()


def test_a_tabulated_wkb_loads_scipy_integrate_but_not_scipy_interpolate(tmp_path):
    # the PCHIP coefficients are the library's own; the action's quadrature
    # is scipy's, which shows the check can see a loaded module
    table = tmp_path / "eckart.csv"
    table.write_text("x_angstrom,U_kJ_per_mol\n" + "".join(
        f"{-1.5 + 0.075 * i:.6f},{40.0 / math.cosh((-1.5 + 0.075 * i) / 0.45) ** 2:.9f}\n" for i in range(41)
    ))
    loaded = _scipy_modules_after_cli(["wkb", "--potential", "tabulated", "--table", str(table)])
    assert "scipy.integrate" in loaded
    assert not any(m == "scipy.interpolate" or m.startswith("scipy.interpolate.") for m in loaded)
