import numpy as np
import pytest

from khgraph import bodies
from khgraph import grid as grid_module
from khgraph.errors import GridConstructionError
from khgraph.bodies import gauge_map
from khgraph.grid import GridJetInterpolant, _logical_patch, build_grid
from khgraph.meshfree import central_difference_jet, jet_weight_rows


BODIES = {
    "ball": lambda: bodies.ball(0.5),
    "off-center ball": lambda: bodies.ball(0.4, center=[0.2, -0.1]),
    "ellipse": lambda: bodies.ellipse((0.45, 0.3)),
    "rotated ellipse": lambda: bodies.ellipse((0.6, 0.35), angle=0.4),
    "superellipse": lambda: bodies.superellipse((0.5, 0.4), 4.0),
}


class TestDefiningFunctions:
    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_boundary_level_and_unit_gradient(self, name):
        body = BODIES[name]()
        thetas = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        worst_h, worst_g = 0.0, 0.0
        for t in thetas:
            p = body.boundary_param(t)
            worst_h = max(worst_h, abs(body.h(p)))
            worst_g = max(worst_g, abs(np.linalg.norm(body.grad_h(p)) - 1.0))
        assert worst_h <= 1e-10
        assert worst_g <= 1e-10

    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_positive_inside_uniformly_concave(self, name):
        body = BODIES[name]()
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = rng.uniform(0, 2 * np.pi)
            r = rng.uniform(0.05, 0.95)
            p = body.interior_point + r * body.gauge_radius(t) * np.array(
                [np.cos(t), np.sin(t)]
            )
            assert body.h(p) > 0
        theta_c = body.concavity_probe(n_samples=200, rng=1)
        assert theta_c > 1e-3

    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_interior_normal_direction(self, name):
        body = BODIES[name]()
        for t in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            p = body.boundary_param(t)
            nu = np.asarray(body.grad_h(p))
            # a small step along Dh must increase h (into the body)
            assert body.h(p + 1e-6 * nu) > body.h(p)

    def test_ball_closed_form(self):
        body = bodies.ball(0.5)
        p = np.array([0.1, 0.2])
        assert body.h(p) == pytest.approx((0.25 - 0.05) / 1.0, rel=1e-14)
        np.testing.assert_allclose(body.hess_h(p), -np.eye(2) / 0.5, atol=0)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_ball_sphere_samples_fixed(self, dim):
        # the seed-1234 normal directions, normalised, on every call
        body = bodies.ball(0.7, center=np.arange(dim) * 0.1, dim=dim)
        for m in (64, 5, 64):
            dirs = np.random.default_rng(1234).normal(size=(m, dim))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            samples = body.sample_boundary(m)
            assert np.array_equal(samples, body.interior_point + 0.7 * dirs)
            samples[:] = 0.0  # the caller's copy
        assert np.allclose(body.h(body.sample_boundary(64)), 0.0, atol=1e-15)

    def test_gradient_oracle_matches_fd(self):
        rng = np.random.default_rng(2)
        for name in ("ellipse", "superellipse"):
            body = BODIES[name]()
            for _ in range(10):
                t = rng.uniform(0, 2 * np.pi)
                r = rng.uniform(0.3, 0.9)
                p = body.interior_point + r * body.gauge_radius(t) * np.array(
                    [np.cos(t), np.sin(t)]
                )
                step = 1e-6
                fd = np.array(
                    [
                        (body.h(p + step * e) - body.h(p - step * e)) / (2 * step)
                        for e in np.eye(2)
                    ]
                )
                np.testing.assert_allclose(body.grad_h(p), fd, atol=1e-7)

    def test_superellipse_rejects_exponent_below_two(self):
        with pytest.raises(ValueError):
            bodies.superellipse((0.5, 0.4), 1.5)

    def test_gauge_boundary_consistency(self):
        # boundary_param(t) is the boundary point on the ray at polar angle t
        for name in sorted(BODIES):
            body = BODIES[name]()
            for t in np.linspace(0, 2 * np.pi, 12, endpoint=False):
                via_gauge = body.interior_point + body.gauge_radius(t) * np.array(
                    [np.cos(t), np.sin(t)]
                )
                assert abs(body.h(via_gauge)) <= 1e-10
                np.testing.assert_allclose(body.boundary_param(t), via_gauge, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_tangent_and_curvature_match_differences(self, name):
        body = BODIES[name]()
        t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        step = 1e-3
        x = [body.boundary_param(t + j * step) for j in (-2, -1, 0, 1, 2)]
        d1 = (x[0] - 8 * x[1] + 8 * x[3] - x[4]) / (12 * step)
        d2 = (-x[0] + 16 * x[1] - 30 * x[2] + 16 * x[3] - x[4]) / (12 * step**2)
        speed = np.linalg.norm(d1, axis=1)
        np.testing.assert_allclose(
            body.boundary_tangent(t), d1 / speed[:, None], rtol=0, atol=1e-7
        )
        kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
        np.testing.assert_allclose(body.boundary_curvature(t), kappa, rtol=0, atol=1e-7)

    def test_curvature_closed_forms(self):
        t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        for rho, center in ((0.5, None), (0.4, [0.2, -0.1])):
            kappa = bodies.ball(rho, center).boundary_curvature(t)
            np.testing.assert_allclose(kappa, 1.0 / rho, rtol=1e-14)
        a, b = 0.45, 0.3
        body = bodies.ellipse((a, b))
        x, y = body.boundary_param(t).T
        exact = 1.0 / (a * a * b * b * (x * x / a**4 + y * y / b**4) ** 1.5)
        np.testing.assert_allclose(body.boundary_curvature(t), exact, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(n for n in BODIES if "ball" not in n))
    def test_projection_ends_stationary(self, name):
        body = BODIES[name]()
        core = body.h.__self__  # the closest-point projection behind h
        rng = np.random.default_rng(3)
        p = gauge_map(body, rng.uniform(0.05, 0.95, 48), rng.uniform(0, 2 * np.pi, 48))
        x, t1, _ = core.frame(core.closest_theta(p))
        assert np.abs(((x - p) * t1).sum(axis=1)).max() <= 1e-14


class TestOracleContract:
    """Every oracle broadcasts over leading axes and agrees with its per-point calls."""

    @staticmethod
    def inside_points(body, m, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 2 * np.pi, m)
        r = rng.uniform(0.3, 0.9, m)
        rho = np.array([body.gauge_radius(ti) for ti in t])
        return body.interior_point + (r * rho)[:, None] * np.stack(
            [np.cos(t), np.sin(t)], axis=1
        )

    @pytest.mark.parametrize("name", sorted(BODIES))
    @pytest.mark.parametrize("lead", [(7,), (3, 4)])
    def test_point_oracles(self, name, lead):
        body = BODIES[name]()
        pts = self.inside_points(body, int(np.prod(lead)), seed=len(lead))
        batch = pts.reshape(lead + (2,))
        for oracle, tail in ((body.h, ()), (body.grad_h, (2,)), (body.hess_h, (2, 2))):
            out = np.asarray(oracle(batch))
            assert out.shape == lead + tail
            loop = np.stack([np.asarray(oracle(p)) for p in pts])
            np.testing.assert_allclose(out.reshape(loop.shape), loop, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(BODIES))
    @pytest.mark.parametrize("lead", [(7,), (3, 4)])
    def test_angle_oracles(self, name, lead):
        body = BODIES[name]()
        thetas = np.random.default_rng(5).uniform(0, 2 * np.pi, lead)
        for oracle, tail in (
            (body.boundary_param, (2,)),
            (body.boundary_tangent, (2,)),
            (body.gauge_radius, ()),
        ):
            out = np.asarray(oracle(thetas))
            assert out.shape == lead + tail
            loop = np.stack([np.asarray(oracle(t)) for t in thetas.ravel()])
            np.testing.assert_allclose(out.reshape(loop.shape), loop, rtol=0, atol=1e-12)


class TestGrid:
    def test_disk_counts_and_boundary_ring(self):
        g = build_grid(bodies.ball(1.0), 8, 16)
        assert g.n_nodes == 128
        r = np.linalg.norm(g.nodes[g.boundary_idx], axis=1)
        np.testing.assert_allclose(r, 1.0, atol=1e-14)

    def test_ellipse_boundary_on_level(self):
        body = bodies.ellipse((1.0, 0.6))
        g = build_grid(body, 12, 24)
        worst = max(abs(body.h(p)) for p in g.nodes[g.boundary_idx])
        assert worst <= 1e-12

    def test_stencils_exact_on_quadratics(self):
        for body, nr, nt in (
            (bodies.ball(0.5), 16, 32),
            (bodies.ellipse((0.45, 0.3)), 16, 32),
            (bodies.ball(0.5), 64, 128),
        ):
            g = build_grid(body, nr, nt)
            x, y = g.nodes[:, 0], g.nodes[:, 1]
            checks = [
                (x * x, {"dx": 2 * x, "dxx": 2.0, "dxy": 0.0, "dyy": 0.0}),
                (x * y, {"dx": y, "dy": x, "dxy": 1.0, "dxx": 0.0}),
                (y * y, {"dy": 2 * y, "dyy": 2.0, "dxx": 0.0, "dxy": 0.0}),
            ]
            for u, exact in checks:
                for name, target in exact.items():
                    assert np.abs(g.ops[name] @ u - target).max() <= 1e-11

    def test_quadratic_hessian_reproduced(self):
        g = build_grid(bodies.ball(0.5), 16, 32)
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        u = 0.8 * x * x - 0.3 * x * y + 0.6 * y * y
        h = g.hessians(u)[g.interior_idx]
        np.testing.assert_allclose(h[:, 0, 0], 1.6, atol=1e-11)
        np.testing.assert_allclose(h[:, 0, 1], -0.3, atol=1e-11)
        np.testing.assert_allclose(h[:, 1, 1], 1.2, atol=1e-11)

    def test_center_rings_second_order_on_quartic(self):
        # the innermost rings have their own windows; their truncation error
        # on a quartic must shrink at second order like everywhere else
        errs = {}
        for nr, nt in ((16, 32), (32, 64)):
            g = build_grid(bodies.ball(0.5), nr, nt)
            x, y = g.nodes[:, 0], g.nodes[:, 1]
            u = (x * x + y * y) ** 2
            for name, exact in (("dxx", 12 * x * x + 4 * y * y),
                                ("dyy", 4 * x * x + 12 * y * y)):
                err = np.abs(g.ops[name] @ u - exact).reshape(nr, nt)
                for ring in (1, 2):
                    errs[nr, name, ring] = err[ring - 1].max()
        for name in ("dxx", "dyy"):
            for ring in (1, 2):
                assert errs[16, name, ring] >= 3.0 * errs[32, name, ring]

    def test_quadrature_against_closed_areas(self):
        for body, area in (
            (bodies.ball(0.5), np.pi * 0.25),
            (bodies.ellipse((0.45, 0.3)), np.pi * 0.45 * 0.3),
        ):
            g = build_grid(body, 32, 64)
            assert g.quad_weights.sum() == pytest.approx(area, rel=1e-10)

    def test_smooth_integrand_quadrature_order(self):
        body = bodies.ball(1.0)
        exact = float(np.pi * (1 - 1 / np.e))  # integral of exp(-|y|^2)

        def integral(nr, nt):
            g = build_grid(body, nr, nt)
            f = np.exp(-(g.nodes**2).sum(axis=1))
            return float((g.quad_weights * f).sum())

        e1 = abs(integral(16, 32) - exact)
        e2 = abs(integral(32, 64) - exact)
        assert e2 < e1 / 3

    def test_too_small_grid_rejected(self):
        with pytest.raises(GridConstructionError):
            build_grid(bodies.ball(1.0), 4, 16)
        with pytest.raises(GridConstructionError):
            build_grid(bodies.ball(1.0), 8, 8)

    def test_jet_interpolant_reproduces_cubics(self):
        g = build_grid(bodies.ball(0.5), 16, 32)
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        u = x**3 - 2 * x * y * y + 0.5 * y**3 + x * y
        interp = GridJetInterpolant(g, u)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi)
            r = rng.uniform(0.1, 0.95) * 0.5
            q = r * np.array([np.cos(t), np.sin(t)])
            jet = interp(q)
            qx, qy = q
            assert jet.value == pytest.approx(
                qx**3 - 2 * qx * qy * qy + 0.5 * qy**3 + qx * qy, abs=1e-11
            )
            np.testing.assert_allclose(
                jet.gradient,
                [3 * qx**2 - 2 * qy**2 + qy, -4 * qx * qy + 1.5 * qy**2 + qx],
                atol=1e-10,
            )
            np.testing.assert_allclose(
                jet.hessian,
                [[6 * qx, -4 * qy + 1], [-4 * qy + 1, -4 * qx + 3 * qy]],
                atol=1e-9,
            )

    def test_boundary_normals_and_tangents(self):
        body = bodies.ellipse((0.45, 0.3))
        g = build_grid(body, 12, 24)
        for i, idx in enumerate(g.boundary_idx):
            nu = g.boundary_normals[i]
            tau = g.boundary_tangents[i]
            assert abs(nu @ nu - 1) < 1e-12
            assert abs(nu @ tau) < 1e-12
            assert body.h(g.nodes[idx] + 1e-6 * nu) > 0  # points inward


class TestBatchedStencils:
    def test_jet_weight_rows_batch_matches_single_patches(self):
        g = build_grid(bodies.ellipse((0.45, 0.3), angle=0.7), 16, 32)
        rings = [4, 8, 12]  # bulk rings: 5-ring, 5-ray windows of 25 points
        rays = np.array([[0, 7, 13, 30], [3, 9, 21, 31], [1, 2, 16, 25]])
        patch = np.stack([_logical_patch(j, r, g.n_r, g.n_theta, g.radii)
                          for j, r in zip(rings, rays)])
        idx = (np.array(rings)[:, None] - 1) * g.n_theta + rays
        points, centers = g.nodes[patch], g.nodes[idx]
        assert points.shape == (3, 4, 25, 2) and centers.shape == (3, 4, 2)
        w_val, w_grad, w_hess = jet_weight_rows(points, centers, 3)
        assert w_val.shape == (3, 4, 25)
        assert w_grad.shape == (3, 4, 2, 25)
        assert w_hess.shape == (3, 4, 2, 2, 25)

        def cubic(p):
            x, y = p[..., 0], p[..., 1]
            return 1 + x - 2 * y + x * x + 3 * x * y + x**3 - 2 * x * x * y + 0.5 * y**3

        for a in range(3):
            for b in range(4):
                single = jet_weight_rows(points[a, b], centers[a, b], 3)
                for batch_w, one_w in zip((w_val, w_grad, w_hess), single):
                    scale = np.abs(one_w).sum(axis=-1, keepdims=True)
                    assert (np.abs(batch_w[a, b] - one_w) <= 1e-15 * scale).all()
                f = cubic(points[a, b])
                x, y = centers[a, b]
                assert abs(w_val[a, b] @ f - cubic(centers[a, b])) <= 1e-10
                np.testing.assert_allclose(
                    w_grad[a, b] @ f,
                    [1 + 2 * x + 3 * y + 3 * x * x - 4 * x * y,
                     -2 + 3 * x - 2 * x * x + 1.5 * y * y],
                    rtol=0, atol=1e-10,
                )
                np.testing.assert_allclose(
                    w_hess[a, b] @ f,
                    [[2 + 6 * x - 4 * y, 3 - 4 * x], [3 - 4 * x, 3 * y]],
                    rtol=0, atol=1e-10,
                )

    @pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 128)])
    def test_logical_patch_rows_match_scalar_calls(self, n_r, n_theta):
        s = np.arange(1, n_r + 1) / n_r
        radii = s * (1.0 + 0.35 * (1.0 - s))  # the ring radii of build_grid
        rays = np.arange(n_theta)
        for j in (1, 2, n_r // 2, n_r - 1, n_r):
            rows = _logical_patch(j, rays, n_r, n_theta, radii)
            single = np.stack([_logical_patch(j, i, n_r, n_theta, radii) for i in rays])
            np.testing.assert_array_equal(rows, single)

    @pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 128)])
    def test_operators_share_one_pattern(self, n_r, n_theta):
        g = build_grid(bodies.ball(0.5), n_r, n_theta)
        for op in g.ops.values():
            np.testing.assert_array_equal(op.matrix.indptr, g.stencils.indptr)
            np.testing.assert_array_equal(op.matrix.indices, g.stencils.indices)
        # the batched application is the single-operator one, bit for bit
        u = np.random.default_rng(4).normal(size=g.n_nodes)
        d = {name: op @ u for name, op in g.ops.items()}
        assert np.array_equal(g.gradient(u), np.stack([d["dx"], d["dy"]], axis=1))
        hess = np.stack([np.stack([d["dxx"], d["dxy"]], axis=1),
                         np.stack([d["dxy"], d["dyy"]], axis=1)], axis=1)
        assert np.array_equal(g.hessians(u), hess)

    @pytest.mark.parametrize("n_r, n_theta", [(16, 32), (32, 64)])
    def test_apply_matches_scattered_sum(self, n_r, n_theta):
        # the CSR application sums each row in the order of a bincount over
        # the centred differences, so it reproduces that formula bit for bit
        g = build_grid(bodies.ellipse((0.45, 0.3), angle=0.3), n_r, n_theta)
        st = g.stencils
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        u = np.exp(x - 0.5 * y) + np.random.default_rng(5).normal(size=g.n_nodes)

        def scattered_sum(which):
            diff = u[st.indices] - u[st.rows]
            return np.stack([np.bincount(st.rows, weights=w * diff, minlength=u.size) + s * u
                             for w, s in zip(st.weights[which], st.rowsums[which])])

        for which in (slice(None), slice(0, 2), slice(2, 5), [0], [1], [2], [3], [4]):
            assert np.array_equal(st.apply(u, which), scattered_sum(which))
        assert np.array_equal(g.boundary_gradient(u),
                              scattered_sum(slice(0, 2)).T[g.boundary_idx])

    @staticmethod
    def per_ray_stencils(g):
        """Reference tables: every window of a ring fitted, row sums scattered in long double."""
        rays = np.arange(g.n_theta)
        indices, weights = [], []
        for j in range(1, g.n_r + 1):
            patch = _logical_patch(j, rays, g.n_r, g.n_theta, g.radii)
            centers = g.nodes[(j - 1) * g.n_theta + rays]
            _, w_grad, w_hess = jet_weight_rows(g.nodes[patch], centers, 3)
            indices.append(patch)
            weights.append(np.stack([w_grad[:, 0], w_grad[:, 1], w_hess[:, 0, 0],
                                     w_hess[:, 0, 1], w_hess[:, 1, 1]]).reshape(5, -1))
        widths = np.concatenate([np.full(g.n_theta, p.shape[1]) for p in indices])
        indptr = np.concatenate([[0], np.cumsum(widths)])
        weights = np.concatenate(weights, axis=1)
        sums = np.zeros((5, g.n_nodes), dtype=np.longdouble)
        np.add.at(sums, (slice(None), np.repeat(np.arange(g.n_nodes), widths)),
                  weights.astype(np.longdouble))
        return indptr, np.concatenate([p.ravel() for p in indices]), weights, sums.astype(float)

    @pytest.mark.parametrize("name", ["ball", "off-center ball"])
    @pytest.mark.parametrize("n_r, n_theta", [(16, 32), (32, 64)])
    def test_circular_stencils_match_per_ray_fit(self, name, n_r, n_theta):
        # a ball's windows on one ring are rotations of ray 0's; the turned
        # weights agree with fitting every window to rounding
        g = build_grid(BODIES[name](), n_r, n_theta)
        indptr, indices, weights, rowsums = self.per_ray_stencils(g)
        st = g.stencils
        np.testing.assert_array_equal(st.indptr, indptr)
        np.testing.assert_array_equal(st.indices, indices)
        scale = np.abs(weights).max(axis=1)
        assert (np.abs(st.weights - weights).max(axis=1) <= 1e-13 * scale).all()
        assert (np.abs(st.rowsums - rowsums).max(axis=1) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("body, n_r, n_theta", [
        (bodies.ellipse((0.45, 0.3), angle=0.3), 16, 32),
        (bodies.ellipse((0.45, 0.3), angle=0.3), 32, 64),
        (bodies.superellipse((0.5, 0.4), 4.0), 16, 32),
    ], ids=["ellipse-16x32", "ellipse-32x64", "superellipse-16x32"])
    def test_noncircular_stencils_are_the_per_ray_fit(self, body, n_r, n_theta):
        g = build_grid(body, n_r, n_theta)
        indptr, indices, weights, rowsums = self.per_ray_stencils(g)
        st = g.stencils
        for got, ref in zip((st.indptr, st.indices, st.weights, st.rowsums),
                            (indptr, indices, weights, rowsums)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("name, fits_per_ring", [("ball", 1), ("off-center ball", 1),
                                                     ("ellipse", 32)])
    def test_circular_grid_fits_one_window_per_ring(self, name, fits_per_ring, monkeypatch):
        patches = []

        def counting(points, center, degree):
            patches.append(np.prod(points.shape[:-2], dtype=int))
            return jet_weight_rows(points, center, degree)

        monkeypatch.setattr(grid_module, "jet_weight_rows", counting)
        build_grid(BODIES[name](), 16, 32)
        assert sum(patches) == 16 * fits_per_ring

    def test_grid_jet_batch_matches_single_queries(self):
        g = build_grid(bodies.superellipse((0.5, 0.4), 4.0), 16, 32)
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        interp = GridJetInterpolant(g, np.exp(x - 0.5 * y) + x**4 * y)
        rng = np.random.default_rng(11)
        # off-node gauge fractions: ring 1 (the widest inner window), a mid
        # ring, the one-sided band and slightly outside the boundary ring
        r = np.concatenate([[0.0], g.radii])
        bands = {1: (0.3 * r[1], 0.9 * r[1]), 8: (r[7], r[8]), 15: (r[14], r[15]),
                 16: (1.0, 1.02)}
        fracs = np.concatenate([rng.uniform(lo, hi, 6) for lo, hi in bands.values()])
        queries = gauge_map(g.body, fracs, rng.uniform(0, 2 * np.pi, fracs.size))
        rings, rays = g.locate(queries)
        assert set(rings.tolist()) == set(bands)
        assert rings.shape == rays.shape == (fracs.size,)
        batch = interp(queries)
        assert batch.value.shape == (fracs.size,)
        assert batch.hessian.shape == (fracs.size, 2, 2)
        assert np.array_equal(batch.point, queries)
        grid_batch = interp(queries.reshape(4, 6, 2))
        assert np.array_equal(grid_batch.point, queries.reshape(4, 6, 2))
        for i, q in enumerate(queries):
            assert g.locate(q) == (rings[i], rays[i])
            one = interp(q)
            assert one.value.shape == () and one.gradient.shape == (2,)
            assert np.array_equal(one.point, q)
            for b, b2, o in zip(batch, grid_batch, one):
                assert np.array_equal(b[i], o)
                assert np.array_equal(b2[i // 6, i % 6], o)


class TestCentralDifferenceJet:
    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(3, 3))
        a, g = m + m.T, rng.normal(size=3)
        p = rng.normal(size=3) * 0.3
        jet = central_difference_jet(lambda y: 0.4 + g @ y + 0.5 * y @ a @ y, p, 2.0**-6)
        assert jet.value == pytest.approx(0.4 + g @ p + 0.5 * p @ a @ p, abs=1e-15)
        np.testing.assert_allclose(jet.gradient, g + a @ p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(jet.hessian, a, rtol=0, atol=1e-10)

    def test_second_order_on_smooth_function(self):
        def f(y):
            return np.exp(0.3 * y[0] - 0.5 * y[1]) + np.sin(y[0] * y[1])

        p = np.array([0.4, -0.3])
        x, y = p
        e = np.exp(0.3 * x - 0.5 * y)
        c, s = np.cos(x * y), np.sin(x * y)
        grad = np.array([0.3 * e + y * c, -0.5 * e + x * c])
        hxy = -0.15 * e + c - x * y * s
        hess = np.array([[0.09 * e - y * y * s, hxy], [hxy, 0.25 * e - x * x * s]])
        errs = []
        for h in (0.02, 0.01):
            jet = central_difference_jet(f, p, h)
            errs.append([np.abs(jet.gradient - grad).max(),
                         np.abs(jet.hessian - hess).max()])
        ratios = np.divide(*errs)
        assert ((3.5 <= ratios) & (ratios <= 4.5)).all(), ratios
