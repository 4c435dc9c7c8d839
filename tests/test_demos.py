"""Every demo script, and the README's Quick start block, runs to completion
against the library in ``src/``, with warnings as errors, as the in-process
tests run."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a number as Python and numpy print it, or as a comment gives it after "~"
_NUMBER = r"nan|[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    _run([str(demo)])


def test_readme_quick_start_prints_what_its_comments_say():
    # each print whose comment gives values (nan, or ~x to x's last digit)
    # prints those values, in order
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = _run(["-c", block]).splitlines()
    assert len(printed) == len(prints) == 4
    checked = 0
    for code, out in zip(prints, printed):
        comment = code.partition("#")[2]
        want = re.findall(rf"\bnan\b|~(?:{_NUMBER})", comment)
        if not want:
            continue
        got = re.findall(_NUMBER, out)
        assert len(got) == len(want), (code, out)
        for w, g in zip(want, got):
            if w == "nan":
                assert g == "nan", (code, out)
            else:
                digits = len(w.partition(".")[2])
                assert round(float(g), digits) == float(w[1:]), (code, out)
            checked += 1
    assert checked == 6
