"""run_solve answers of the benchmark's solve configs at seed 0, pinned.

The cap (k = 1, 32x64) and the superellipse (k = 2, 16x32) are the two
instances the solve benchmark times.  The report values, details.json and
the grid.csv digest are compared exactly, so a refactor that moves any
iterate by one rounding shows here.  The fixture was written by the solver
before the jet types were merged into one.
"""

import hashlib
import json
from pathlib import Path

import pytest

from khgraph import config, harness

GOLDEN = json.loads((Path(__file__).parent / "data" / "solve_seed0.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_answers_pinned(name, tmp_path):
    case = GOLDEN[name]
    rep = harness.run_solve(config.parse_config(json.dumps(case["config"])), str(tmp_path))
    got = {key: getattr(rep, key) for key in case["report"]}
    got["residual_history"] = [list(level) for level in got["residual_history"]]
    assert got == case["report"]
    assert rep.convergence_flag
    assert json.loads((tmp_path / "details.json").read_text()) == case["details"]
    digest = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()
    assert digest == case["grid_csv_sha256"]
