"""run_solve answers of the benchmark's solve configs at seed 0, pinned.

The cap (k = 1, 32x64) and the superellipse (k = 2, 16x32) are the two
instances the solve benchmark times; ellipse-k1 (32x64) adds a ball source
with a non-ball target.  The report values, details.json and the grid.csv
digest are compared exactly, so a refactor that moves any iterate by one
rounding shows here.  In solve_seed0.json the superellipse entry was written
by the solver before the jet types were merged into one, and the ball entry
after circular grids began fitting one stencil window per ring (its answers
moved by at most 1.5e-11 relative); solve_ellipse_k1.json was written before
the post-solve layer read u*'s derivatives from the solver state.
"""

import hashlib
import json
from pathlib import Path

import pytest

from khgraph import config, harness

DATA = Path(__file__).parent / "data"
GOLDEN = {
    name: case
    for fixture in ("solve_seed0.json", "solve_ellipse_k1.json")
    for name, case in json.loads((DATA / fixture).read_text()).items()
}


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
