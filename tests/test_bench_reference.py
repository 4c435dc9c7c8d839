"""The benchmark's recorded outputs, checked once per workload at seed 0.

Each task of ``bench/run.py``'s seed-0 task list runs once, and its output
is checked against ``bench/reference/seed-0.json`` and the harness's own
invariants, so an output that drifts shows up here and not only when the
benchmark runs.
"""

import contextlib
import io
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["rate_scan", "structured_bath", "kie_cli"])
def test_seed_0_outputs_match_the_recorded_reference(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import run

    # as in run.py: the CLI's messages on stderr are expected outcomes of
    # some tasks, and warnings are silenced as there; no mu solve warns
    with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl = run.Workload(name, 0, tmp_path)
        wl.reference = checks.load_reference(0, name, wl.digest)
        for index, task in wl.tasks:
            wl.run_task(index, task)
        wl.check_outputs()
    assert wl.reference is not None, f"no seed-0 reference recorded for {name}"
    assert len(wl.first) == len(wl.specs)
    assert wl.problems() == {}
