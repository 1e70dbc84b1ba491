"""Every run_verify('all') detail string for seeds 0-7, pinned.

The checks batch their samples; each batch row is bit for bit the
one-sample call, so any change of grouping, kernel batching or draw order
that moves a single sample moves a detail here.  The fixture was written by
the checks whose spectral kernels take their eigenpairs from LAPACK's eigh.
"""

import json
from pathlib import Path

import pytest

from khgraph.verify import run_verify

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_all_seeds_0_7.json").read_text())


def test_golden_covers_every_check():
    assert len(GOLDEN) == 8 and sum(len(v) for v in GOLDEN.values()) == 176


@pytest.mark.parametrize("seed", sorted(GOLDEN, key=int))
def test_verify_details_pinned(seed):
    report = run_verify("all", int(seed))
    got = {f'{c["suite"]}/{c["name"]}': c["detail"] for c in report["checks"]}
    assert got == GOLDEN[seed]
    assert report["all_passed"]
