"""Invariant verification suites, runnable from the CLI.

Each check is a named callable returning (passed, detail).  Suites mirror the
library layering: 'identities' covers the symmetric-function and pointwise
geometry identities, 'duality' the projection/support/Legendre layer,
'rotations' the flow fields (dimension-generic, exercised at n = 2 and 3).
The full pytest suite is the authoritative gate; these are the fast,
machine-readable subset the harness exposes.

The sample-heavy checks draw their samples one at a time in the order the
seed fixes, group them by dimension keeping draw order, and evaluate each
group with one batched kernel call per dimension (and operator mode): the
rotation checks make one make_field call per dimension, and the spectral
checks pass each sample's order k per row.  Random jets are drawn straight
into arrays and validated once per stacked batch.  A batch row is bit for
bit the one-sample call, so the details match those of a per-sample loop.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import bodies, duality, geometry, rotations, symfun
from .geometry import Jets
from .meshfree import central_difference_jet
from .psi import constant_psi


def _random_convex_jet(rng, n=2):
    """(point, value, gradient, hessian) of a random convex 2-jet in R^n."""
    b = rng.normal(size=(n, n))
    h = b @ b.T + (0.4 + rng.uniform()) * np.eye(n)
    return rng.normal(size=n) * 0.4, rng.normal() * 0.5, rng.normal(size=n) * 0.6, h


def _columns(samples):
    """The fields of equal-shape sample tuples, each stacked into one array."""
    return tuple(np.array(x) for x in zip(*samples))


def _stack(jets):
    """One Jets batch (m,) from jet tuples of one dimension, validated once."""
    return Jets(*_columns(jets))


def _grouped(rng, count, draw, hi):
    """count samples draw(rng, n), n drawn in 2..hi-1 first, grouped by n in draw order."""
    by_n = {}
    for _ in range(count):
        n = int(rng.integers(2, hi))
        by_n.setdefault(n, []).append(draw(rng, n))
    return by_n


# --- identities suite -------------------------------------------------------


def check_newton_maclaurin(seed):
    rng = np.random.default_rng(seed)
    by_n = _grouped(rng, 2000, lambda rng, n: rng.uniform(0.05, 3.0, n), 7)
    worst = 0.0
    for n, lams in by_n.items():
        e = symfun.sigma_all(np.array(lams))
        # float_power: libm's pow, the scalar ** of a single sample
        vals = np.stack([
            np.float_power(e[:, k] / comb(n, k), 1.0 / k)
            for k in range(1, n + 1)
        ], axis=-1)
        worst = max(worst, np.diff(vals, axis=-1).max())
    return worst <= 1e-12, f"max increase {worst:.2e}"


def check_operator_concavity(seed):
    def draw(rng, n):
        k = int(rng.integers(1, n + 1))
        mats = []
        for _ in range(2):
            b = rng.normal(size=(n, n))
            mats.append(b @ b.T + 0.3 * np.eye(n))
        t = rng.uniform()
        return k, t, t * mats[0] + (1 - t) * mats[1], *mats

    worst = 0.0
    for samples in _grouped(np.random.default_rng(seed), 100, draw, 5).values():
        k, t, mid, m0, m1 = _columns(samples)
        for mode in ("primal", "dual"):
            fm, f0, f1 = symfun.eval_operator(
                symfun.SpectrumRequest(np.stack([mid, m0, m1]), k, mode)
            ).value
            worst = max(worst, (t * f0 + (1 - t) * f1 - fm).max())
    return worst <= 1e-12, f"max convexity defect {worst:.2e}"


def check_duality_product(seed):
    def draw(rng, n):
        return int(rng.integers(1, n + 1)), rng.uniform(0.05, 4.0, n)

    worst = 0.0
    for samples in _grouped(np.random.default_rng(seed), 1000, draw, 7).values():
        k, kappa = _columns(samples)
        worst = max(worst, np.abs(symfun.duality_product(kappa, k) - 1.0).max())
    return worst <= 1e-12, f"max |F F* - 1| = {worst:.2e}"


def check_orthogonal_invariance(seed):
    def draw(rng, n):
        k = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, n))
        a = b @ b.T + 0.5 * np.eye(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return k, (a, q.T @ a @ q)

    worst = 0.0
    for samples in _grouped(np.random.default_rng(seed), 50, draw, 6).values():
        k, pairs = _columns(samples)
        f = symfun.eval_operator(
            symfun.SpectrumRequest(pairs, k[:, None], "primal")).value
        worst = max(worst, np.abs(f[:, 0] - f[:, 1]).max())
    return worst <= 1e-12, f"max |F(QtAQ) - F(A)| = {worst:.2e}"


def check_curvature_pack_identities(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, jets in _grouped(rng, 100, _random_convex_jet, 5).items():
        pk = geometry.curvature_pack(_stack(jets))
        worst = max(worst, np.abs(pk.b @ pk.b - pk.g_inv).max(),
                    np.abs(pk.b @ pk.b_inv - np.eye(n)).max())
    return worst <= 1e-12, f"max b-identity defect {worst:.2e}"


def check_shape_operator_similarity(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for jets in _grouped(rng, 100, _random_convex_jet, 5).values():
        pk = geometry.curvature_pack(_stack(jets))
        shape = pk.second_form @ pk.g_inv
        kappa2 = np.sort(np.linalg.eigvals(shape).real, axis=-1)
        worst = max(worst, np.abs(pk.kappa - kappa2).max())
    return worst <= 1e-10, f"max spectrum gap {worst:.2e}"


def check_rotation_invariance_residual(seed):
    def draw(rng, n):
        k = int(rng.integers(1, n + 1))
        point, value, gradient, hessian = jet = _random_convex_jet(rng, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return k, jet, (q.T @ point, value, q.T @ gradient, q.T @ hessian @ q)

    ps = constant_psi(1.3)
    worst = 0.0
    for samples in _grouped(np.random.default_rng(seed), 50, draw, 5).values():
        k, jets, jets_rot = zip(*samples)
        jets = _stack([j for pair in zip(jets, jets_rot) for j in pair])
        r = geometry.primal_residual(jets, np.repeat(k, 2), ps)
        worst = max(worst, np.abs(r[0::2] - r[1::2]).max())
    return worst <= 1e-12, f"max residual change {worst:.2e}"


def check_linearization_fd(seed):
    rng = np.random.default_rng(seed)
    from .psi import normal_poly_psi

    ps = normal_poly_psi(3.0, linear=[0.15, -0.1, 0.2])
    t = 1e-6
    # central-difference probes: the symmetric Hessian directions e_ij
    # (i, j in C order), then the gradient axes
    e_hess = np.zeros((4, 2, 2))
    for m, (i, j) in enumerate(np.ndindex(2, 2)):
        e_hess[m, i, j] += t / 2
        e_hess[m, j, i] += t / 2
    e_grad = np.zeros((2, 2))
    e_grad[[0, 1], [0, 1]] = t

    def gval(du, hess, k):
        """sigma_k of the curvature matrix at gradients du (m, 2) and Hessians (m, 2, 2)."""
        w = np.sqrt(1 + symfun.rowdot(du, du))[:, None, None]
        b = np.eye(2) - du[:, :, None] * du[:, None, :] / (w * (1 + w))
        return symfun.sigma_k(np.linalg.eigvalsh(b @ hess @ b / w), k)

    worst = 0.0
    for _ in range(20):
        jet = Jets(*_random_convex_jet(rng, 2))
        k = int(rng.integers(1, 3))
        gij, gs, psis = geometry.primal_linearization(jet, k, ps)
        du = np.concatenate([np.tile(jet.gradient, (8, 1)), jet.gradient + e_grad,
                             jet.gradient - e_grad])
        hess = np.concatenate([jet.hessian + e_hess, jet.hessian - e_hess,
                               np.tile(jet.hessian, (4, 1, 1))])
        vals = gval(du, hess, k)
        fd_hess = ((vals[:4] - vals[4:8]) / (2 * t)).reshape(2, 2)
        fd_grad = (vals[8:10] - vals[10:]) / (2 * t)
        worst = max(worst, (np.abs(fd_hess - gij) / max(abs(gij).max(), 1)).max(),
                    (np.abs(fd_grad - gs) / max(abs(gs).max(), 1)).max())
    return worst <= 1e-6, f"max FD gap {worst:.2e}"


# --- duality suite ----------------------------------------------------------


def _random_chart_point(rng, n):
    """A chart point y in R^n with independent N(0, 4) coordinates."""
    return rng.normal(size=n) * 2.0


def check_bstar_square_root(seed):
    """b* is the positive square root of I + y y^T with b*_inv its inverse."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    min_eig = np.inf
    for n, ys in _grouped(rng, 200, _random_chart_point, 5).items():
        y = np.array(ys)
        b = duality.bstar(y)
        outer = y[:, :, None] * y[:, None, :]
        worst = max(worst, np.abs(b @ b - (np.eye(n) + outer)).max(),
                    np.abs(b @ duality.bstar_inv(y) - np.eye(n)).max())
        min_eig = min(min_eig, np.linalg.eigvalsh(b)[:, 0].min())
    ok = worst <= 1e-12 and min_eig > 0.0
    return ok, f"identity defect {worst:.2e}, min eig {min_eig:.2e}"


def check_projection_roundtrip(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for ys in _grouped(rng, 1000, _random_chart_point, 5).values():
        y = np.array(ys)
        worst = max(worst, np.abs(duality.project(duality.unproject(y)) - y).max())
    return worst <= 1e-13, f"max roundtrip gap {worst:.2e}"


def check_gauss_chart_consistency(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for jets in _grouped(rng, 200, _random_convex_jet, 5).values():
        batch = _stack(jets)
        pk = geometry.curvature_pack(batch)
        worst = max(
            worst,
            np.abs(duality.project(pk.normal) - duality.gauss_image(batch)).max(),
        )
    return worst <= 1e-13, f"max P(N) vs Du gap {worst:.2e}"


def check_reciprocal_spectrum(seed):
    rng = np.random.default_rng(seed)
    jets = _stack([_random_convex_jet(rng, 2) for _ in range(100)])
    kappa = geometry.curvature_pack(jets).kappa
    dual_jets = Jets(jets.gradient, symfun.rowdot(jets.point, jets.gradient) - jets.value,
                     jets.point, np.linalg.inv(jets.hessian))
    pack = duality.dual_chart_pack(dual_jets)
    worst = np.abs(pack.radii - np.sort(1.0 / kappa, axis=-1)).max()
    return worst <= 1e-10, f"max radii vs 1/kappa gap {worst:.2e}"


def check_frame_identity(seed):
    """Matrix spherical Hessian vs finite-difference covariant Hessian."""
    rng = np.random.default_rng(seed)

    def vfun(y):
        return 0.7 * np.sqrt(1 + y @ y) + 0.3 * np.sin(y[0]) * np.cos(0.7 * y[1])

    def vt(y):
        return vfun(y) / np.sqrt(1 + y @ y)

    def error(y0, h):
        lam_matrix = duality.spherical_hessian(
            central_difference_jet(vfun, y0, h)
        ).lambda_matrix
        # oracle: covariant derivatives in the chart with the derived
        # Christoffel symbols, then frame rotation
        w = np.sqrt(1 + y0 @ y0)
        gam = duality.christoffel(y0)
        jet_t = central_difference_jet(vt, y0, h)
        cov = jet_t.hessian - np.einsum("kij,k->ij", gam, jet_t.gradient)
        b = duality.bstar(y0)
        oracle = w**2 * (b @ cov @ b) + jet_t.value * np.eye(y0.size)
        return np.abs(lam_matrix - oracle).max()

    y0 = rng.normal(size=2) * 0.5
    e_h, e_h2 = error(y0, 2e-3), error(y0, 1e-3)
    ratio = e_h / max(e_h2, 1e-300)
    return 3.0 <= ratio <= 5.5, f"O(h^2) ratio {ratio:.2f}"


def check_support_reconstruction(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        point, value, y, hessian = _random_convex_jet(rng, 2)
        ustar = point @ y - value
        dual_jet = Jets(y, ustar, point, np.linalg.inv(hessian))
        sd = duality.spherical_hessian(dual_jet)
        lhs = sd.grad_v @ sd.grad_v + sd.v**2
        rhs = point @ point + value**2
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, f"max |X|^2 gap {worst:.2e}"


def check_psi_star_monotone(seed):
    rng = np.random.default_rng(seed)
    from .psi import exponential_psi, normal_poly_psi

    base = normal_poly_psi(2.0, linear=[0.1, 0.1, -0.2])
    worst = np.inf
    for eps in (0.0, 0.1, 0.5):
        ps = exponential_psi(eps, base)
        _, star = duality.psi_conversions(ps)
        ys, zs = [], []
        for _ in range(100):
            ys.append(rng.normal(size=2))
            zs.append(rng.normal() * 2)
        worst = min(worst, star.partial_z(np.array(ys), np.array(zs)).min())
    return worst >= -1e-12, f"min psi*_z = {worst:.2e}"


# --- rotations suite --------------------------------------------------------


def _random_anchor(rng, dim=2):
    """(body, y0, xi): a random ball in R^dim, a boundary point and a unit tangent there."""
    body = bodies.ball(0.5 + 0.3 * rng.uniform(), dim=dim)
    if dim == 2:
        theta = rng.uniform(0, 2 * np.pi)
        y0 = body.boundary_param(theta)
        xi = body.boundary_tangent(theta)
    else:
        d = rng.normal(size=dim)
        d /= np.linalg.norm(d)
        y0 = body.interior_point + body.params["radius"] * d
        t = rng.normal(size=dim)
        t -= (t @ d) * d
        xi = t / np.linalg.norm(t)
    return body, y0, xi


def _random_field(rng, dim=2):
    body, y0, xi = _random_anchor(rng, dim)
    return rotations.make_field(y0, xi, body), body


def _fields(anchors):
    """One make_field call over (body, y0, xi) anchors of one dimension, a field (m,)."""
    body, y0, xi = zip(*anchors)
    return rotations.make_field(np.array(y0), np.array(xi), list(body))


def _by_dim(rng, count, draw):
    """count samples draw(rng, dim), dim 2 (p = 0.7) or 3, grouped by dim in draw order."""
    by_dim = {}
    for _ in range(count):
        dim = 2 if rng.uniform() < 0.7 else 3
        by_dim.setdefault(dim, []).append(draw(rng, dim))
    return by_dim


def check_tangency(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for anchors in _by_dim(rng, 100, _random_anchor).values():
        fld = _fields(anchors)
        w0 = np.sqrt(1 + symfun.rowdot(fld.y0, fld.y0))
        worst = max(
            worst,
            np.abs(rotations.field_eval(fld, fld.y0) - w0[:, None] * fld.xi).max(),
        )
    return worst <= 1e-12, f"max tangency defect {worst:.2e}"


def check_group_law(seed):
    rng = np.random.default_rng(seed)
    fld, _ = _random_field(rng, 2)
    ts, ss, ys = [], [], []
    for _ in range(1000):
        t, s = rng.uniform(0, fld.t_max / 2, 2)
        ts.append(t)
        ss.append(s)
        ys.append(rng.normal(size=2) * 0.5)
    t, s, y = np.array(ts), np.array(ss), np.array(ys)
    a = rotations.flow(fld, t + s, y)
    b = rotations.flow(fld, t, rotations.flow(fld, s, y))
    c = rotations.flow(fld, s, rotations.flow(fld, t, y))
    worst = max(np.abs(a - b).max(), np.abs(a - c).max())
    return worst <= 1e-10, f"max group-law defect {worst:.2e}"


def check_envelope(seed):
    rng = np.random.default_rng(seed)

    def draw(rng, dim):
        anchor = _random_anchor(rng, dim)
        return anchor, np.array([rng.normal(size=dim) * rng.uniform(0, 2) for _ in range(50)])

    worst_id, worst_bound = 0.0, -np.inf
    for samples in _by_dim(rng, 20, draw).values():
        anchors, y = zip(*samples)
        e = rotations.envelope_terms(_fields(anchors)[:, None], np.array(y))
        worst_id = max(worst_id, np.abs(e["lhs"] - e["identity"]).max())
        worst_bound = max(worst_bound, (e["lhs"] - e["bound"]).max())
    ok = worst_id <= 1e-12 and worst_bound <= 1e-12
    return ok, f"identity gap {worst_id:.2e}, bound excess {worst_bound:.2e}"


def check_flow_derivative(seed):
    rng = np.random.default_rng(seed)
    fld, _ = _random_field(rng, 2)
    ys = rng.normal(size=(30, 2)) * 0.5
    errs = []
    for dt in (1e-3, 5e-4):
        fd = (rotations.flow(fld, dt, ys) - rotations.flow(fld, -dt, ys)) / (2 * dt)
        errs.append(np.abs(fd - rotations.field_eval(fld, ys)).max())
    ratio = errs[0] / max(errs[1], 1e-300)
    return 3.0 <= ratio <= 5.0, f"O(dt^2) ratio {ratio:.2f}"


def check_degree_two(seed):
    rng = np.random.default_rng(seed)
    anchors, y, d = zip(*[(_random_anchor(rng, 2), rng.normal(size=2), rng.normal(size=2))
                          for _ in range(50)])
    h = 0.41
    points = np.array(y)[:, None] + np.arange(4)[:, None] * h * np.array(d)[:, None]
    vals = rotations.field_eval(_fields(anchors)[:, None], points)
    third = vals[:, 3] - 3 * vals[:, 2] + 3 * vals[:, 1] - vals[:, 0]
    worst = np.abs(third).max()
    return worst <= 1e-10, f"max third difference {worst:.2e}"


def check_unit_components(seed):
    rng = np.random.default_rng(seed)

    def draw(rng, dim):
        return _random_anchor(rng, dim), rng.normal(size=dim) * rng.uniform(0, 2)

    worst = 0.0
    for samples in _by_dim(rng, 50, draw).values():
        anchors, y = zip(*samples)
        comps = _fields(anchors).components(np.array(y))
        worst = max(worst, np.abs(symfun.rowdot(comps, comps) - 1.0).max())
    return worst <= 1e-13, f"max |a|^2 - 1 = {worst:.2e}"


def check_transport(seed):
    rng = np.random.default_rng(seed)
    fld, _ = _random_field(rng, 2)
    coeff = rng.normal(size=6)

    def hfun(y):
        return (
            coeff[0]
            + coeff[1] * y[0]
            + coeff[2] * y[1]
            + coeff[3] * y[0] * y[1]
            + coeff[4] * y[0] ** 2
            + coeff[5] * y[1] ** 2
        )

    y = rng.normal(size=2) * 0.3
    errs = []
    for dt in (1e-3, 5e-4):
        d1 = (hfun(rotations.flow(fld, dt, y)) - hfun(rotations.flow(fld, -dt, y))) / (
            2 * dt
        )
        t = rotations.field_eval(fld, y)
        grad = np.array(
            [
                coeff[1] + coeff[3] * y[1] + 2 * coeff[4] * y[0],
                coeff[2] + coeff[3] * y[0] + 2 * coeff[5] * y[1],
            ]
        )
        errs.append(abs(d1 - t @ grad))
    ratio = errs[0] / max(errs[1], 1e-300)
    return 3.0 <= ratio <= 5.0, f"O(dt^2) transport ratio {ratio:.2f}"


SUITES = {
    "identities": [
        ("newton_maclaurin_monotone", check_newton_maclaurin),
        ("operator_concavity", check_operator_concavity),
        ("duality_product_unity", check_duality_product),
        ("orthogonal_invariance", check_orthogonal_invariance),
        ("curvature_pack_b_identities", check_curvature_pack_identities),
        ("shape_operator_similarity", check_shape_operator_similarity),
        ("residual_rotation_invariance", check_rotation_invariance_residual),
        ("linearization_finite_difference", check_linearization_fd),
    ],
    "duality": [
        ("bstar_square_root", check_bstar_square_root),
        ("projection_roundtrip", check_projection_roundtrip),
        ("gauss_chart_consistency", check_gauss_chart_consistency),
        ("reciprocal_spectrum", check_reciprocal_spectrum),
        ("frame_identity_order", check_frame_identity),
        ("support_reconstruction", check_support_reconstruction),
        ("psi_star_monotonicity", check_psi_star_monotone),
    ],
    "rotations": [
        ("anchor_tangency", check_tangency),
        ("group_law", check_group_law),
        ("envelope_identity", check_envelope),
        ("flow_derivative_order", check_flow_derivative),
        ("degree_two_structure", check_degree_two),
        ("unit_frame_components", check_unit_components),
        ("transport_order", check_transport),
    ],
}


def run_verify(suite: str = "all", seed: int = 0) -> dict:
    """Run an invariant suite; failures are report content, not exceptions."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    report = {"suite": suite, "seed": seed, "checks": [], "all_passed": True}
    for name in names:
        for check_name, fn in SUITES[name]:
            try:
                passed, detail = fn(seed)
            except Exception as exc:  # noqa: BLE001 - failures are report content
                passed, detail = False, f"exception: {exc!r}"
            report["checks"].append(
                {"suite": name, "name": check_name, "passed": bool(passed),
                 "detail": detail}
            )
            report["all_passed"] = report["all_passed"] and bool(passed)
    return report
