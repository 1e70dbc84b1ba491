"""One array path for the psi families and DualPsi.

Every shipped family and its dual broadcast over leading axes: a batch row
equals the one-point call bit for bit, and one point gives a 0-d result.
"""

import numpy as np
import pytest

from khgraph import registry
from khgraph.duality import DualPsi, unproject
from khgraph.grid import build_grid
from khgraph.psi import (
    cap_manufactured_psi,
    constant_psi,
    exponential_psi,
    normal_poly_psi,
)

NORMAL_ONLY = normal_poly_psi(
    2.5,
    linear=[0.2, -0.1, 0.15],
    quadratic=[[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.4]],
)
FAMILIES = {
    "constant": constant_psi(1.3),
    "normal-only": NORMAL_ONLY,
    "exponential-constant": exponential_psi(0.3, constant_psi(1.3)),
    "exponential-normal-only": exponential_psi(0.3, NORMAL_ONLY),
    "cap-manufactured": cap_manufactured_psi(0.5, 1, 0.5),
}
LEADS = [(), (7,), (3, 4)]


def inputs(lead):
    """Chart points y (lead + (2,)), support values z (lead) and unit normals p."""
    rng = np.random.default_rng(len(lead) + sum(lead))
    y = rng.normal(size=lead + (2,)) * 0.5
    z = rng.normal(size=lead)
    return y, z, unproject(y)


def assert_single_path(fn, a, b, lead, tail):
    out = fn(a, b)
    assert np.shape(out) == lead + tail
    for idx in np.ndindex(*lead):
        assert np.array_equal(out[idx], fn(a[idx], b[idx]))


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("name", FAMILIES)
def test_psi_family_single_array_path(name, lead):
    ps = FAMILIES[name]
    _, z, p = inputs(lead)
    assert_single_path(ps.evaluate, z, p, lead, ())
    assert_single_path(ps.partial_z, z, p, lead, ())
    assert_single_path(ps.partial_p, z, p, lead, (3,))


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("name", FAMILIES)
def test_dual_psi_single_array_path(name, lead):
    star = DualPsi(FAMILIES[name])
    y, z, _ = inputs(lead)
    assert_single_path(star.evaluate, y, z, lead, ())
    assert_single_path(star.partial_z, y, z, lead, ())
    assert_single_path(star.partial_y, y, z, lead, (2,))


@pytest.mark.parametrize("eps", [0.0, 0.4])
def test_dual_psi_single_array_path_on_grid_nodes(eps):
    # the superellipse instance's normal-only psi on its 32x64 grid: a BLAS
    # product a.p rounds a few of these nodes differently alone and in a batch
    cfg = registry.get_instance("superellipse-k2")
    y = build_grid(cfg.omega_star, 32, 64).nodes
    z = np.random.default_rng(3).uniform(-2.0, -0.5, size=len(y))
    star = DualPsi(exponential_psi(eps, cfg.psi))
    assert_single_path(star.evaluate, y, z, (len(y),), ())
    assert_single_path(star.partial_z, y, z, (len(y),), ())
    assert_single_path(star.partial_y, y, z, (len(y),), (2,))
