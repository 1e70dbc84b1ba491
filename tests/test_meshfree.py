"""The stencil fit against an independent full-system route, on ill-posed
patches, and the nearest-sample search against a sorted distance table."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from khgraph import meshfree, registry
from khgraph.grid import STENCIL_DEGREE, _logical_patch, build_grid
from khgraph.meshfree import (
    _solve_longdouble,
    jet_functionals,
    jet_weight_rows,
    monomial_exponents,
    nearest,
)


def whitened_frame(points, center):
    """The fit's local frame: offsets, their rotation and scales, and xi, in long double."""
    delta = (points - center[..., None, :]).astype(np.longdouble)
    cov = np.swapaxes(delta, -1, -2) @ delta / delta.shape[-2]
    evals, rot64 = np.linalg.eigh(cov.astype(float))
    floor = np.maximum(evals.max(axis=-1, keepdims=True), 1e-300) * 1e-10
    scales = np.sqrt(np.maximum(evals, floor).astype(np.longdouble))[..., None, :]
    rot = rot64.astype(np.longdouble)
    return rot, scales, (delta @ rot) / scales


def weighted_design(xi, degree):
    """Design matrix of the monomials at xi and the fit's squared weights."""
    exps = monomial_exponents(xi.shape[-1], degree)
    a = np.prod(xi[..., None, :] ** exps, axis=-1)
    return exps, a, (1.0 / (1.0 + (xi * xi).sum(axis=-1))) ** 2


def reference_weight_rows(points, center, degree):
    """Every coefficient's row from the full normal system, then the back-transform.

    Solves G C = A^T W^2 for all m columns and maps the value, gradient and
    Hessian coefficients to the original coordinates afterwards; the fit
    under test folds that map into six right-hand sides instead.
    """
    dim = points.shape[-1]
    rot, scales, xi = whitened_frame(points, center)
    exps, a, w2 = weighted_design(xi, degree)
    aw2 = np.swapaxes(a * w2[..., None], -1, -2)
    coef = _solve_longdouble(aw2 @ a, aw2)
    iv, ig, ih = jet_functionals(exps, dim)
    hess_xi = coef[..., ih, :] * (1 + np.eye(dim, dtype=int))[:, :, None]
    hess_xi = 0.5 * (hess_xi + np.swapaxes(hess_xi, -2, -3))
    rs = rot / scales
    w_val = coef[..., iv, :].astype(float)
    w_grad = (rs @ coef[..., ig, :]).astype(float)
    w_hess = np.einsum("...ai,...ijm,...bj->...abm", rs, hess_xi, rs).astype(float)
    return w_val, w_grad, w_hess


def assert_close_to_reference(points, centers, degree):
    for new, ref in zip(jet_weight_rows(points, centers, degree),
                        reference_weight_rows(points, centers, degree)):
        scale = np.abs(ref).max(axis=-1, keepdims=True)
        assert (np.abs(new - ref) <= 1e-15 * scale).all()


# x^i y^j -> coefficient: a full cubic
CUBIC = {(0, 0): 0.3, (1, 0): -1.0, (0, 1): 2.0, (2, 0): 1.0, (1, 1): -0.5, (0, 2): 1.5,
         (3, 0): 1.0, (2, 1): -2.0, (1, 2): 0.7, (0, 3): -1.0}


def poly_jet(p, degree):
    """Value, gradient and Hessian at points p of CUBIC cut to the given degree."""
    x, y = p[..., 0], p[..., 1]

    def term(c, i, j):  # c x^i y^j, powers below zero only ever meet c = 0
        return c * x ** max(i, 0) * y ** max(j, 0)

    terms = [(c, i, j) for (i, j), c in CUBIC.items() if i + j <= degree]
    value = sum(term(c, i, j) for c, i, j in terms)
    gx = sum(term(c * i, i - 1, j) for c, i, j in terms)
    gy = sum(term(c * j, i, j - 1) for c, i, j in terms)
    hxx = sum(term(c * i * (i - 1), i - 2, j) for c, i, j in terms)
    hxy = sum(term(c * i * j, i - 1, j - 1) for c, i, j in terms)
    hyy = sum(term(c * j * (j - 1), i, j - 2) for c, i, j in terms)
    hess = np.stack([np.stack([hxx, hxy], -1), np.stack([hxy, hyy], -1)], -2)
    return value, np.stack([gx, gy], -1), hess


def assert_exact_on_polynomials(points, centers, degree, tol):
    """The fitted jet of CUBIC cut to the fit's degree is its exact jet, to tol."""
    w_val, w_grad, w_hess = jet_weight_rows(points, centers, degree)
    f = poly_jet(points, degree)[0]
    value, grad, hess = poly_jet(centers, degree)
    assert np.abs((w_val * f).sum(-1) - value).max() <= tol
    assert np.abs((w_grad * f[..., None, :]).sum(-1) - grad).max() <= tol
    assert np.abs((w_hess * f[..., None, None, :]).sum(-1) - hess).max() <= tol


@pytest.mark.parametrize("instance", ["cap-k1", "superellipse-k2", "ellipse-k1"])
def test_grid_rings_match_full_system_reference(instance):
    g = build_grid(registry.INSTANCES[instance]().omega_star, 16, 32)
    rays = np.arange(g.n_theta)
    tol = 1e-11 * max(1.0, float(np.abs(g.nodes).max()))  # _validate_stencils' scale
    for j in range(1, g.n_r + 1):
        patch = _logical_patch(j, rays, g.n_r, g.n_theta, g.radii)
        points, centers = g.nodes[patch], g.nodes[(j - 1) * g.n_theta + rays]
        assert_close_to_reference(points, centers, STENCIL_DEGREE)
        assert_exact_on_polynomials(points, centers, STENCIL_DEGREE, tol)


@pytest.mark.parametrize("degree", [2, 3])
def test_scattered_patches_match_full_system_reference(degree):
    rng = np.random.default_rng(11)
    m = 2 * monomial_exponents(2, degree).shape[0]
    # well-posed anisotropic clouds: random points in a stretched, rotated disk
    r = np.sqrt(rng.uniform(size=(40, m)))
    t = rng.uniform(0, 2 * np.pi, size=(40, m))
    local = np.stack([0.05 * r * np.cos(t), 0.02 * r * np.sin(t)], axis=-1)
    angle = rng.uniform(0, np.pi, size=(40, 1, 1))
    rot = np.concatenate([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)],
                         axis=-1).reshape(40, 1, 2, 2)
    centers = rng.uniform(-0.3, 0.3, size=(40, 2))
    points = centers[:, None, :] + (rot @ local[..., None])[..., 0]
    assert_close_to_reference(points, centers, degree)
    assert_exact_on_polynomials(points, centers, degree, 1e-11)


def test_cocircular_patch_returns_finite_weights():
    # 12 points on a circle: 1, x^2 and y^2 are linearly dependent there,
    # so the degree-2 normal matrix is singular
    t = 0.1 + np.arange(12) * 2 * np.pi / 12
    points = np.array([0.01, -0.02]) + 0.03 * np.stack([np.cos(t), np.sin(t)], axis=-1)
    for center in (np.array([0.01, -0.02]), points[0], 0.5 * points[3]):
        for rows in jet_weight_rows(points, center, 2):
            assert np.isfinite(rows).all()


# the patch with the largest float64 normal-matrix condition number among the
# 1152 degree-2, 12-neighbour fits of JetInterpolant at the recovered primal
# samples of tests/test_solver.py::TestRecoveryAndDiagnostics (cap, 24x48):
# one ring's gradient image, cocircular up to rounding; its center is points[0]
ROUND_TRIP_WORST_PATCH = np.array([
    [8.0293625954174202e-03, -2.9965989158471765e-02],
    [1.1872016746261888e-02, -2.8661583841518526e-02],
    [4.0493238243665408e-03, -3.0757668092716281e-02],
    [1.5511537399077138e-02, -2.6866770878624754e-02],
    [-2.5489375948512648e-14, -3.1023074798172484e-02],
    [1.8885651346364163e-02, -2.4612260017270418e-02],
    [-4.0493238243503741e-03, -3.0757668092622353e-02],
    [-8.0293625953912987e-03, -2.9965989158484013e-02],
    [2.1936626563074831e-02, -2.1936626563002559e-02],
    [-1.1872016746316813e-02, -2.8661583841674710e-02],
    [2.4612260017288265e-02, -1.8885651346318595e-02],
    [-1.5511537399052285e-02, -2.6866770878675200e-02],
])


def test_round_trip_worst_patch_returns_finite_weights():
    points, center = ROUND_TRIP_WORST_PATCH, ROUND_TRIP_WORST_PATCH[0]
    _, _, xi = whitened_frame(points, center)
    _, a, w2 = weighted_design(xi.astype(float), 2)
    gram64 = (a * w2[:, None]).T @ a
    assert np.linalg.cond(gram64) > 1e16  # singular in float64
    for rows in jet_weight_rows(points, center, 2):
        assert np.isfinite(rows).all()


def nearest_case(case):
    """Samples and queries: scattered, on an integer lattice (exact distance
    ties), more queries than one chunk holds, and no queries at all."""
    rng = np.random.default_rng(11)
    if case == "lattice":
        points = np.stack(np.meshgrid(np.arange(9.0), np.arange(7.0)), axis=-1).reshape(-1, 2)
        return points, np.concatenate([points[::5], points[::7] + 0.5])
    points = rng.uniform(-1.0, 1.0, size=(60, 2))
    n_queries = {"scattered": 40, "chunked": 50, "empty": 0}[case]
    return points, rng.uniform(-1.2, 1.2, size=(n_queries, 2))


@pytest.mark.parametrize("k", [1, 20])
@pytest.mark.parametrize("case", ["scattered", "lattice", "chunked", "empty"])
def test_nearest_matches_sorted_distance_table(monkeypatch, case, k):
    points, queries = nearest_case(case)
    if case == "chunked":
        # chunks of 7 queries: the last chunk is a partial one
        monkeypatch.setattr(meshfree, "_NEAREST_TABLE", 7 * len(points))
    got = nearest(points, queries, k)
    dist2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    want = np.argsort(dist2, axis=1, kind="stable")
    rows = np.arange(len(queries))[:, None]
    assert got.shape == (len(queries), k)
    # the same distances, nearest first, and k distinct samples per query
    assert np.array_equal(dist2[rows, got], dist2[rows, want[:, :k]])
    assert all(len(set(r)) == k for r in got.tolist())
    # the same samples wherever the k-th and (k+1)-th distances differ
    sorted2 = np.take_along_axis(dist2, want, axis=1)
    apart = sorted2[:, k - 1] < sorted2[:, k]
    assert np.array_equal(np.sort(got[apart], axis=1), np.sort(want[apart, :k], axis=1))
    if k == 1:
        assert np.array_equal(got[:, 0], np.argmin(dist2, axis=1))
    if case == "lattice":
        assert (~apart).any()  # the lattice does exercise ties at the k-th distance


@pytest.mark.parametrize("degree", [2, 3])
def test_jet_interpolant_jets_sit_at_their_queries(degree):
    # scattered samples of a smooth function; a (3, 5) query grid is one
    # batched fit, each row the one-point call, each jet at its query
    rng = np.random.default_rng(40 + degree)
    points = rng.uniform(-1.0, 1.0, size=(120, 2))
    values = np.exp(points[:, 0] - 0.3 * points[:, 1])
    interp = meshfree.JetInterpolant(points, values, degree=degree)
    queries = rng.uniform(-0.8, 0.8, size=(3, 5, 2))
    batch = interp(queries)
    assert np.array_equal(batch.point, queries)
    assert batch.value.shape == (3, 5) and batch.hessian.shape == (3, 5, 2, 2)
    for idx in np.ndindex(3, 5):
        one = interp(queries[idx])
        assert np.array_equal(one.point, queries[idx]) and one.value.shape == ()
        for got, want in zip(one, batch):
            assert np.array_equal(got, want[idx])


def test_package_import_leaves_scipy_spatial_out():
    # a fresh interpreter, as perfbench/run.py times the import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import khgraph.config, khgraph.harness, khgraph.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
