import numpy as np
import pytest

from khgraph import duality, geometry
from khgraph.errors import OutOfImageError
from khgraph.geometry import Jets
from khgraph.meshfree import central_difference_jet
from khgraph.psi import (
    cap_constant_psi,
    constant_psi,
    exponential_psi,
    normal_poly_psi,
)

RHO = 0.5
RADIUS = float(np.sqrt(1 + RHO**2))


def cap_jets(x):
    """Jets of the spherical cap -sqrt(R^2 - |x|^2) at points x (..., n)."""
    x = np.asarray(x, dtype=float)
    g = np.sqrt(RADIUS**2 - (x * x).sum(axis=-1))
    gm = g[..., None, None]
    outer = x[..., :, None] * x[..., None, :]
    return Jets(x, -g, x / g[..., None], np.eye(x.shape[-1]) / gm + outer / gm**3)


def cap_dual_jets(y):
    y = np.asarray(y, dtype=float)
    w = np.sqrt(1 + y @ y)
    return Jets(
        y, RADIUS * w, RADIUS * y / w,
        RADIUS * (np.eye(y.size) / w - np.outer(y, y) / w**3),
    )


def random_convex_jet(rng, n=2):
    b = rng.normal(size=(n, n))
    h = b @ b.T + (0.4 + rng.uniform()) * np.eye(n)
    return Jets(rng.normal(size=n) * 0.4, rng.normal() * 0.5,
                rng.normal(size=n) * 0.6, h)


class TestProjection:
    def test_north_pole(self):
        np.testing.assert_allclose(
            duality.project(np.array([0.0, 0.0, 1.0])), [0.0, 0.0], atol=0
        )

    def test_inverse_by_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            y = rng.normal(size=int(rng.integers(2, 5))) * 2
            x = np.concatenate([-y, [1.0]]) / np.sqrt(1 + y @ y)
            np.testing.assert_allclose(duality.project(x), y, atol=1e-13)

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            y = rng.normal(size=n) * 3
            x = duality.unproject(y)
            assert abs(x @ x - 1.0) < 1e-14
            np.testing.assert_allclose(duality.project(x), y, atol=1e-12)

    def test_lower_hemisphere_rejected(self):
        with pytest.raises(ValueError):
            duality.project(np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            duality.project(np.array([0.6, 0.0, -0.8]))


    @pytest.mark.parametrize("shape", [(7, 3), (3, 4, 4)])
    def test_batch_matches_pointwise(self, shape):
        ys = np.random.default_rng(2).normal(size=shape) * 2
        xs = duality.unproject(ys)
        batch = duality.project(xs)
        assert batch.shape == shape
        for i in np.ndindex(shape[:-1]):
            assert np.array_equal(batch[i], duality.project(xs[i]))
        xs[1, ..., -1] *= -1.0
        with pytest.raises(ValueError):
            duality.project(xs)


class TestGaussImage:
    def test_paraboloid_identity_map(self):
        jet = Jets(np.array([0.3, -0.2]), 0.065, np.array([0.3, -0.2]), np.eye(2))
        np.testing.assert_allclose(duality.gauss_image(jet), jet.point, atol=0)

    def test_cap_closed_form(self):
        x = np.array([0.2, 0.1])
        expected = x / np.sqrt(RADIUS**2 - x @ x)
        np.testing.assert_allclose(
            duality.gauss_image(cap_jets(x)), expected, atol=1e-14
        )

    def test_projection_of_normal_equals_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            jet = random_convex_jet(rng, n)
            pk = geometry.curvature_pack(jet)
            np.testing.assert_allclose(
                duality.project(pk.normal), duality.gauss_image(jet), atol=1e-13
            )


class TestLegendre:
    def grid_points(self, radius, m=9):
        xs = np.linspace(-radius, radius, m)
        pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        return pts[(pts**2).sum(axis=1) < radius**2]

    def test_self_dual_quadratic(self):
        pts = self.grid_points(0.8)

        def jets(x):
            hess = np.broadcast_to(np.eye(2), x.shape + (2,))
            return Jets(x, 0.5 * (x * x).sum(axis=-1), x, hess)

        f = duality.SampledFunction(pts, 0.5 * (pts * pts).sum(axis=1), jets=jets)
        res = duality.legendre(f)
        np.testing.assert_allclose(
            res.values, 0.5 * (res.points**2).sum(axis=1), atol=1e-12
        )

    def test_cap_closed_form_with_exact_jets(self):
        pts = self.grid_points(0.45)
        f = duality.SampledFunction(pts, [cap_jets(p).value for p in pts],
                                    jets=cap_jets)
        res = duality.legendre(f)
        w = np.sqrt(1 + (res.points**2).sum(axis=1))
        np.testing.assert_allclose(res.values, RADIUS * w, atol=1e-12)
        # support value of the origin-centered sphere is the radius
        assert res.values[0] / w[0] == pytest.approx(RADIUS, abs=1e-12)

    def test_hessian_inversion_at_paired_points(self):
        pts = self.grid_points(0.45)
        f = duality.SampledFunction(pts, [cap_jets(p).value for p in pts],
                                    jets=cap_jets)
        res = duality.legendre(f)
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = rng.normal(size=2) * 0.3
            dj = res.jets(y)
            pj = cap_jets(dj.gradient)
            np.testing.assert_allclose(
                dj.hessian @ pj.hessian, np.eye(2), atol=1e-11
            )

    @pytest.mark.parametrize("oracle", ["exact", "sampled"])
    def test_dual_jets_batch_equals_one_point_calls(self, oracle):
        # one batched inversion answers a (3, 4) query grid exactly as the
        # twelve one-point calls do, and every jet sits at its query
        pts = self.grid_points(0.45, 13)
        values = cap_jets(pts).value
        f = duality.SampledFunction(pts, values, jets=cap_jets if oracle == "exact" else None)
        res = duality.legendre(f)
        ys = np.random.default_rng(8).uniform(-0.3, 0.3, (3, 4, 2))
        batch = res.jets(ys)
        assert batch.value.shape == (3, 4) and batch.hessian.shape == (3, 4, 2, 2)
        assert np.array_equal(batch.point, ys)
        for idx in np.ndindex(3, 4):
            one = res.jets(ys[idx])
            assert one.point.shape == (2,) and type(one.value) is np.float64
            for got, want in zip(one, batch):
                assert np.array_equal(got, want[idx])

    def test_out_of_image_error(self):
        # u = sqrt(1 + |x|^2) has gradient image strictly inside the unit
        # ball; a target outside it is unreachable and must error out
        pts = self.grid_points(0.5)
        f = duality.SampledFunction(pts, hyperboloid_jets(pts).value, jets=hyperboloid_jets)
        with pytest.raises(OutOfImageError):
            duality.legendre(f, targets=np.array([[2.0, 0.0]]), tol=1e-12)

    def test_involution_bound_and_order_on_sampled_cap(self):
        # sampled values only (jets estimated from the samples): the double
        # transform returns u within the contracted C h^2; the halving ratio
        # is >= 4 - slack because conjugation is a sup-norm isometry and the
        # envelope stationarity upgrades the transform to third order or
        # better, so the decay beats the contract rather than matching it
        probes = np.array(
            [[0.05, 0.02], [-0.12, 0.08], [0.1, -0.15], [0.0, 0.18], [-0.2, -0.05]]
        )
        errs, hs = [], []
        for m in (17, 33):
            pts = self.grid_points(0.46, m)
            f = duality.SampledFunction(pts, [cap_jets(p).value for p in pts])
            fstar = duality.legendre(f)
            # second transform sampled on the dual points, evaluated at probes
            fss = duality.legendre(
                duality.SampledFunction(fstar.points, fstar.values), targets=probes
            )
            exact = np.array([cap_jets(p).value for p in probes])
            errs.append(np.abs(fss.values - exact).max())
            hs.append(2 * 0.46 / (m - 1))
        assert errs[0] <= 1.0 * hs[0] ** 2 and errs[1] <= 1.0 * hs[1] ** 2
        assert errs[0] / errs[1] >= 3.5  # at least second order

    def test_hessian_inversion_second_order_on_sampled_cap(self):
        # D^2u*(Du(x)) . D^2u(x) = I at paired points, O(h^2) through the
        # cubic-fit jet oracle: halving ratio in the second-order window
        probes = np.array([[0.2, 0.1], [-0.25, 0.17], [0.18, -0.3]])
        errs = []
        for m in (17, 33):
            pts = self.grid_points(0.46, m)
            vals = [cap_jets(p).value for p in pts]
            f = duality.SampledFunction(
                pts, vals, jets=duality.JetInterpolant(pts, vals, degree=3)
            )
            res = duality.legendre(f)
            worst = 0.0
            for y in probes:
                dj = res.jets(y)
                exact_primal = cap_jets(dj.gradient)
                worst = max(
                    worst,
                    np.abs(dj.hessian @ exact_primal.hessian - np.eye(2)).max(),
                )
            errs.append(worst)
        assert 3.0 <= errs[0] / errs[1] <= 5.5


def hyperboloid_jets(x):
    """Batched jets of sqrt(1 + |x|^2), whose gradient image is the open unit ball."""
    w = np.sqrt(1 + (x * x).sum(axis=-1))[..., None]
    outer = x[..., :, None] * x[..., None, :]
    return Jets(x, w[..., 0], x / w, np.eye(2) / w[..., None] - outer / w[..., None] ** 3)


class TestInvertGradientMap:
    def test_batch_matches_one_sample_calls(self):
        # a cubic-fit grid oracle, as in primal recovery: targets are exact
        # gradient images of off-node points, seeds the located nodes
        from khgraph.bodies import gauge_map, superellipse
        from khgraph.grid import GridJetInterpolant, build_grid

        g = build_grid(superellipse((0.42, 0.34), 4.0), 16, 32)
        y = g.nodes
        u = RADIUS * np.sqrt(1 + (y * y).sum(axis=1)) + 0.05 * (y**4).sum(axis=1)
        oracle = GridJetInterpolant(g, u)
        rng = np.random.default_rng(12)
        fracs, thetas = rng.uniform(0.2, 1.0, 40), rng.uniform(0, 2 * np.pi, 40)
        probes = gauge_map(g.body, fracs, thetas)
        w = np.sqrt(1 + (probes * probes).sum(axis=1))[:, None]
        targets = RADIUS * probes / w + 0.2 * probes**3
        rings, rays = g.locate(probes)
        seeds = y[(rings - 1) * g.n_theta + rays]
        at, iters = duality.invert_gradient_map(oracle, targets, seeds, tol=1e-10)
        assert at.point.shape == (40, 2) and at.hessian.shape == (40, 2, 2)
        assert iters.max() >= 2  # the samples need different numbers of steps
        assert np.abs(at.gradient - targets).max() <= 1e-8
        for i in range(40):
            ai, ii = duality.invert_gradient_map(
                oracle, targets[i : i + 1], seeds[i : i + 1], tol=1e-10
            )
            assert ii[0] == iters[i]
            np.testing.assert_allclose(ai.point[0], at.point[i], rtol=0, atol=1e-14)
            for b, o in zip(at, ai):
                np.testing.assert_allclose(o[0], b[i], rtol=1e-14, atol=1e-14)

    def test_out_of_image_target_in_batch_is_named(self):
        targets = np.array(
            [[0.1, 0.2], [0.5, -0.3], [2.0, 0.0], [-0.4, 0.1], [0.0, 1.5]]
        )
        seeds = np.zeros_like(targets)
        with pytest.raises(OutOfImageError) as info:
            duality.invert_gradient_map(hyperboloid_jets, targets, seeds)
        np.testing.assert_array_equal(info.value.target, targets[2])
        # the reachable targets alone converge
        ok = [0, 1, 3]
        at, _ = duality.invert_gradient_map(hyperboloid_jets, targets[ok], seeds[ok])
        np.testing.assert_allclose(at.gradient, targets[ok], rtol=0, atol=1e-12)


class TestDualResidual:
    def test_exact_cap_dual(self):
        rng = np.random.default_rng(4)
        for k in (1, 2):
            ps = cap_constant_psi(RHO, k)
            for _ in range(5):
                y = rng.normal(size=2) * 0.3
                assert abs(duality.dual_residual(cap_dual_jets(y), k, ps)) <= 1e-12

    def test_primal_dual_reciprocal_pairing(self):
        # F_primal at x times F_dual at y = Du(x) equals one
        from khgraph import symfun

        rng = np.random.default_rng(5)
        for _ in range(50):
            jet = random_convex_jet(rng, 2)
            k = int(rng.integers(1, 3))
            pk = geometry.curvature_pack(jet)
            f_primal = symfun.eval_operator(
                symfun.SpectrumRequest(pk.curvature_matrix, k, "primal")
            ).value
            dual_jet = Jets(
                jet.gradient,
                jet.point @ jet.gradient - jet.value,
                jet.point,
                np.linalg.inv(jet.hessian),
            )
            pack = duality.dual_chart_pack(dual_jet)
            f_dual = symfun.eval_operator(
                symfun.SpectrumRequest(pack.dual_matrix, k, "dual")
            ).value
            assert f_primal * f_dual == pytest.approx(1.0, abs=1e-12)

    def test_dual_matrix_radii_via_inversion_oracle(self):
        pts = np.stack(
            np.meshgrid(np.linspace(-0.4, 0.4, 13), np.linspace(-0.4, 0.4, 13)),
            axis=-1,
        ).reshape(-1, 2)
        pts = pts[(pts**2).sum(axis=1) < 0.45**2]
        f = duality.SampledFunction(pts, [cap_jets(p).value for p in pts],
                                    jets=cap_jets)
        res = duality.legendre(f)
        rng = np.random.default_rng(6)
        for _ in range(10):
            y = rng.normal(size=2) * 0.3
            dj = res.jets(y)
            pack = duality.dual_chart_pack(dj)
            pk = geometry.curvature_pack(cap_jets(dj.gradient))
            np.testing.assert_allclose(
                pack.radii, np.sort(1.0 / pk.kappa), atol=1e-10
            )

    def test_residual_zero_sets_paired_on_cap_family(self):
        rng = np.random.default_rng(7)
        for k in (1, 2):
            ps = cap_constant_psi(RHO, k)
            for _ in range(5):
                x = rng.normal(size=2) * 0.25
                jet = cap_jets(x)
                primal = geometry.primal_residual(jet, k, ps)
                dual = duality.dual_residual(cap_dual_jets(jet.gradient), k, ps)
                assert abs(primal) <= 1e-12 and abs(dual) <= 1e-12


class TestChartMatrices:
    @pytest.mark.parametrize("shape", [(7, 2), (3, 4, 2)])
    def test_batch_matches_pointwise(self, shape):
        rng = np.random.default_rng(13)
        ys = rng.normal(size=shape) * 0.8
        m = rng.normal(size=shape + (2,))
        hs = m @ np.swapaxes(m, -1, -2)
        b = duality.bstar(ys)
        a = duality.argument_matrix(ys, hs)
        assert b.shape == a.shape == shape + (2,)
        for i in np.ndindex(shape[:-1]):
            np.testing.assert_allclose(b[i], duality.bstar(ys[i]), rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                a[i], duality.argument_matrix(ys[i], hs[i]), rtol=0, atol=1e-15
            )


    @pytest.mark.parametrize("shape", [(7, 2), (3, 4, 3)])
    def test_metric_and_bstar_inverse_batch_rows_equal_single_calls(self, shape):
        ys = np.random.default_rng(14).normal(size=shape)
        g = duality.chart_metric_inv(ys)
        b_inv = duality.bstar_inv(ys)
        assert g.shape == b_inv.shape == shape + (shape[-1],)
        for i in np.ndindex(shape[:-1]):
            assert np.array_equal(g[i], duality.chart_metric_inv(ys[i]))
            assert np.array_equal(b_inv[i], duality.bstar_inv(ys[i]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_christoffel_closed_form_matches_loop(self, n):
        y = np.random.default_rng(15 + n).normal(size=n)
        w2 = 1.0 + y @ y
        loop = np.zeros((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    loop[k, i, j] = -(y[i] * (k == j) + y[j] * (k == i)) / w2
        assert np.array_equal(duality.christoffel(y), loop)


class TestSphericalHessian:
    def test_sphere_support(self):
        rng = np.random.default_rng(8)
        c = 0.7
        for _ in range(10):
            y = rng.normal(size=2) * 0.8
            w = np.sqrt(1 + y @ y)
            jet = Jets(y, c * w, c * y / w,
                       c * (np.eye(2) / w - np.outer(y, y) / w**3))
            sd = duality.spherical_hessian(jet)
            np.testing.assert_allclose(sd.lambda_matrix, c * np.eye(2), atol=1e-13)
            assert sd.v == pytest.approx(c, abs=1e-14)
            np.testing.assert_allclose(sd.grad_v, 0.0, atol=1e-13)

    def test_frame_gram_identity(self):
        # e_i = w* b*_ik d_k is orthonormal in the projected sphere metric
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            y = rng.normal(size=n) * 1.5
            w = np.sqrt(1 + y @ y)
            b = duality.bstar(y)
            gtilde = duality.chart_metric_inv(y) / w**2
            gram = w**2 * (b @ gtilde @ b)
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-13)

    def test_matrix_formula_vs_covariant_fd_oracle(self):
        # Lemma-style identity: w* b* D^2 V b* = cov-Hess(V/w*) + (V/w*) I,
        # the right side assembled by finite differences with the chart
        # Christoffel symbols; O(h^2) convergence
        def vfun(y):
            return 0.8 * np.sqrt(1 + y @ y) + 0.25 * np.sin(y[0] - 0.4 * y[1])

        y0 = np.array([0.3, -0.2])
        n = 2
        errs = []
        for h in (2e-3, 1e-3):
            lam = duality.spherical_hessian(central_difference_jet(vfun, y0, h)).lambda_matrix

            w = np.sqrt(1 + y0 @ y0)
            vt = lambda y: vfun(y) / np.sqrt(1 + y @ y)  # noqa: E731
            jt = central_difference_jet(vt, y0, h)
            gam = duality.christoffel(y0)
            cov = jt.hessian - np.einsum("kij,k->ij", gam, jt.gradient)
            b = duality.bstar(y0)
            oracle = w**2 * (b @ cov @ b) + jt.value * np.eye(n)
            errs.append(np.abs(lam - oracle).max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_support_reconstruction(self):
        # |grad v|^2 + v^2 = |x|^2 + u^2 at Legendre-paired points
        rng = np.random.default_rng(10)
        for _ in range(100):
            jet = random_convex_jet(rng, 2)
            y = jet.gradient
            dual_jet = Jets(
                y, jet.point @ y - jet.value, jet.point, np.linalg.inv(jet.hessian)
            )
            sd = duality.spherical_hessian(dual_jet)
            lhs = sd.grad_v @ sd.grad_v + sd.v**2
            rhs = jet.point @ jet.point + jet.value**2
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestPsiConversions:
    def test_constant(self):
        tilde, star = duality.psi_conversions(constant_psi(2.0))
        assert star.evaluate(np.array([0.3, 0.1]), 1.7) == pytest.approx(0.5)
        assert tilde(np.array([0.0, 0.0, 1.0]), 0.3) == pytest.approx(0.5)

    def test_exponential_family_closed_form(self):
        # psi = exp(-eps z / p_{n+1}) psi0(p)  ==>  psi* = exp(eps z)/psi0
        rng = np.random.default_rng(11)
        eps = 0.37
        for base in (normal_poly_psi(2.0, linear=[0.1, -0.15, 0.2]), constant_psi(1.3)):
            _, star = duality.psi_conversions(exponential_psi(eps, base))
            for _ in range(100):
                y = rng.normal(size=2)
                z = rng.normal() * 2
                w = np.sqrt(1 + y @ y)
                q = np.concatenate([-y, [1.0]]) / w
                expected = np.exp(eps * z) / float(base.evaluate(0.0, q))
                assert star.evaluate(y, z) == pytest.approx(expected, rel=1e-13)

    def test_monotonicity_transfer(self):
        # psi_z <= 0 implies psi*_z >= 0 wherever the flag is set
        rng = np.random.default_rng(12)
        for eps in (0.0, 0.2, 1.0):
            ps = exponential_psi(eps, constant_psi(1.5))
            _, star = duality.psi_conversions(ps)
            for _ in range(50):
                y = rng.normal(size=2)
                z = rng.normal() * 2
                assert star.partial_z(y, z) >= -1e-12

    def test_partial_oracles_match_fd(self):
        rng = np.random.default_rng(13)
        base = normal_poly_psi(2.5, linear=[0.2, 0.1, -0.1])
        _, star = duality.psi_conversions(exponential_psi(0.4, base))
        for _ in range(20):
            y = rng.normal(size=2)
            z = rng.normal()
            t = 1e-6
            fd_z = (star.evaluate(y, z + t) - star.evaluate(y, z - t)) / (2 * t)
            assert fd_z == pytest.approx(float(star.partial_z(y, z)), rel=1e-6)
            grad = star.partial_y(y, z)
            for m in range(2):
                e = np.zeros(2)
                e[m] = t
                fd_m = (star.evaluate(y + e, z) - star.evaluate(y - e, z)) / (2 * t)
                assert fd_m == pytest.approx(float(grad[m]), rel=1e-6, abs=1e-9)
