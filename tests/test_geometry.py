import dataclasses

import numpy as np
import pytest

from khgraph import bodies, duality, geometry, symfun
from khgraph.errors import BoundaryMismatchError, ConeViolationError
from khgraph.geometry import Jets
from khgraph.psi import (
    cap_constant_psi,
    constant_psi,
    exponential_psi,
    normal_poly_psi,
)


def cap_jet(x, radius):
    x = np.asarray(x, dtype=float)
    g = np.sqrt(radius**2 - x @ x)
    return Jets(x, -g, x / g, np.eye(x.size) / g + np.outer(x, x) / g**3)


def random_convex_jet(rng, n=2, scale=0.5):
    b = rng.normal(size=(n, n))
    h = b @ b.T + (0.4 + rng.uniform()) * np.eye(n)
    return Jets(
        rng.normal(size=n) * scale,
        rng.normal() * scale,
        rng.normal(size=n) * scale,
        h,
    )


def stack(jets):
    """One Jets batch from 0-d jets of one dimension."""
    return Jets(*(np.stack(field) for field in zip(*jets)))


class TestJets:
    """The one jet type: shapes checked against the point, Hessians symmetric."""

    def test_zero_d_jet(self):
        jet = Jets([0.1, 0.2], 0.5, [0.3, 0.4], np.eye(2))
        assert jet.point.shape == (2,) and jet.dim == 2
        assert type(jet.value) is np.float64

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["0d", "5", "2x3"])
    def test_shape_mismatch_rejected(self, lead):
        point, value = np.zeros(lead + (2,)), np.zeros(lead)
        gradient, hessian = np.zeros(lead + (2,)), np.broadcast_to(np.eye(2), lead + (2, 2))
        Jets(point, value, gradient, hessian)
        bad = [
            (point, value, np.zeros(lead + (3,)), hessian),
            (point, value, gradient, np.broadcast_to(np.eye(3), lead + (3, 3))),
            (point, np.zeros(lead + (1,)), gradient, hessian),
            (np.zeros(lead + (3,)), value, gradient, hessian),
            (np.zeros(lead), value, gradient, hessian),
        ]
        for fields in bad:
            with pytest.raises(ValueError):
                Jets(*fields)

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["0d", "5", "2x3"])
    def test_asymmetric_hessian_rejected(self, lead):
        hessian = np.broadcast_to(np.eye(2), lead + (2, 2)).copy()
        hessian[(0,) * len(lead) + (0, 1)] = 1e-9
        with pytest.raises(ValueError):
            Jets(np.zeros(lead + (2,)), np.zeros(lead), np.zeros(lead + (2,)), hessian)

    def test_hessian_stored_symmetrised(self):
        hessian = np.array([[2.0, 0.5], [0.5 + 1e-15, 1.0]])
        jet = Jets(np.zeros(2), 0.0, np.zeros(2), hessian)
        assert np.array_equal(jet.hessian, jet.hessian.T)
        assert np.array_equal(jet.hessian, 0.5 * (hessian + hessian.T))

    def test_reshape_keeps_point(self):
        rng = np.random.default_rng(31)
        jets = stack([random_convex_jet(rng, 3) for _ in range(12)])
        grid = jets.reshape((3, 4))
        assert grid.point.shape == (3, 4, 3) and grid.value.shape == (3, 4)
        for field, flat in zip(grid, jets):
            assert np.array_equal(field.reshape(flat.shape), flat)
        one = stack([random_convex_jet(rng, 3)])
        assert np.array_equal(one.reshape(()).point, one.point[0])
        assert type(one.reshape(()).value) is np.float64


class TestCurvaturePack:
    def test_flat_gradient_point(self):
        jet = Jets(np.zeros(2), 0.0, np.zeros(2), np.eye(2))
        pk = geometry.curvature_pack(jet)
        assert pk.w == 1.0
        np.testing.assert_allclose(pk.g, np.eye(2), atol=0)
        np.testing.assert_allclose(pk.curvature_matrix, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(pk.kappa, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(pk.normal, [0, 0, 1.0], atol=0)

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_sphere_cap(self, radius):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=2)
            x *= rng.uniform(0, 0.6) * radius / np.linalg.norm(x)
            pk = geometry.curvature_pack(cap_jet(x, radius))
            np.testing.assert_allclose(pk.kappa, 1.0 / radius, rtol=1e-12)

    def test_shape_operator_oracle(self):
        # independent path: eigenvalues of h_ik g^kj for random convex jets
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            jet = random_convex_jet(rng, n)
            pk = geometry.curvature_pack(jet)
            shape = pk.second_form @ pk.g_inv
            kappa_oracle = np.sort(np.linalg.eigvals(shape).real)
            np.testing.assert_allclose(pk.kappa, kappa_oracle, atol=1e-10)

    def test_structural_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            jet = random_convex_jet(rng, n)
            pk = geometry.curvature_pack(jet)
            assert pk.w >= 1.0
            assert abs(pk.normal @ pk.normal - 1.0) < 1e-14
            assert pk.normal[-1] == pytest.approx(1.0 / pk.w, rel=1e-14)
            np.testing.assert_allclose(pk.b @ pk.b, pk.g_inv, atol=1e-12)
            np.testing.assert_allclose(pk.b @ pk.b_inv, np.eye(n), atol=1e-12)

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError):
            Jets(np.zeros(2), 0.0, np.zeros(2), np.array([[1.0, 0.3], [0.1, 1.0]]))


class TestPrimalResidual:
    def test_exact_cap_all_orders(self):
        rho = 0.5
        radius = np.sqrt(1 + rho**2)
        rng = np.random.default_rng(3)
        for k in (1, 2):
            ps = cap_constant_psi(rho, k)
            for _ in range(5):
                x = rng.normal(size=2)
                x *= rng.uniform(0, rho) / np.linalg.norm(x)
                res = geometry.primal_residual(cap_jet(x, radius), k, ps)
                assert abs(res) <= 1e-12

    def test_paraboloid_at_origin(self):
        jet = Jets(np.zeros(2), 0.0, np.zeros(2), np.eye(2))
        res = geometry.primal_residual(jet, 1, constant_psi(1.0))
        assert res == pytest.approx(1.0, abs=1e-14)  # sigma_1(1,1) - 1

    def test_independent_reimplementation_oracle(self):
        # straight evaluation with a different order of operations
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, n + 1))
            ps = normal_poly_psi(2.0, linear=0.1 * rng.normal(size=n + 1))
            jet = random_convex_jet(rng, n)
            w = np.sqrt(1 + jet.gradient @ jet.gradient)
            g = np.eye(n) + np.outer(jet.gradient, jet.gradient)
            shape = (jet.hessian / w) @ np.linalg.inv(g)
            kappa = np.sort(np.linalg.eigvals(shape).real)
            z = (jet.value - jet.point @ jet.gradient) / w
            normal = np.concatenate([-jet.gradient, [1.0]]) / w
            oracle = symfun.sigma_k(kappa, k) ** (1.0 / k) - float(
                ps.evaluate(z, normal)
            )
            res = geometry.primal_residual(jet, k, ps)
            assert res == pytest.approx(oracle, abs=1e-12)

    def test_cone_violation_propagates(self):
        jet = Jets(np.zeros(2), 0.0, np.zeros(2), np.diag([1.0, -0.2]))
        with pytest.raises(ConeViolationError):
            geometry.primal_residual(jet, 1, constant_psi(1.0))

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(5)
        ps = constant_psi(1.1)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n + 1))
            jet = random_convex_jet(rng, n)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            rot = Jets(q.T @ jet.point, jet.value, q.T @ jet.gradient,
                       q.T @ jet.hessian @ q)
            pk1 = geometry.curvature_pack(jet)
            pk2 = geometry.curvature_pack(rot)
            np.testing.assert_allclose(pk1.kappa, pk2.kappa, atol=1e-12)
            r1 = geometry.primal_residual(jet, k, ps)
            r2 = geometry.primal_residual(rot, k, ps)
            assert r1 == pytest.approx(r2, abs=1e-12)


class TestPrimalLinearization:
    def test_radial_point_diagonal(self):
        jet = Jets(np.zeros(2), 0.0, np.zeros(2), np.eye(2))
        gij, gs, psis = geometry.primal_linearization(jet, 2, constant_psi(1.0))
        assert abs(gij[0, 1]) <= 1e-12
        assert gij[0, 0] == pytest.approx(gij[1, 1], abs=1e-12)

    def test_constant_psi_gives_zero_psis(self):
        rng = np.random.default_rng(6)
        jet = random_convex_jet(rng, 2)
        _, _, psis = geometry.primal_linearization(jet, 1, constant_psi(2.0))
        np.testing.assert_allclose(psis, 0.0, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2])
    def test_finite_difference_oracle(self, k):
        rng = np.random.default_rng(7 + k)
        ps = exponential_psi(0.3, normal_poly_psi(2.5, linear=[0.2, -0.1, 0.15]))
        worst = 0.0
        for _ in range(100):
            jet = random_convex_jet(rng, 2)
            gij, gs, psis = geometry.primal_linearization(jet, k, ps)

            def gval(du, hess):
                w = np.sqrt(1 + du @ du)
                b = np.eye(2) - np.outer(du, du) / (w * (1 + w))
                return symfun.sigma_k(np.linalg.eigvalsh(b @ hess @ b / w), k)

            def psival(du):
                w = np.sqrt(1 + du @ du)
                z = (jet.value - jet.point @ du) / w
                return float(ps.evaluate(z, np.concatenate([-du, [1.0]]) / w))

            t = 1e-6
            scale_ij = max(np.abs(gij).max(), 1.0)
            for i in range(2):
                for j in range(2):
                    e = np.zeros((2, 2))
                    e[i, j] += t / 2
                    e[j, i] += t / 2
                    fd = (
                        gval(jet.gradient, jet.hessian + e)
                        - gval(jet.gradient, jet.hessian - e)
                    ) / (2 * t)
                    worst = max(worst, abs(fd - gij[i, j]) / scale_ij)
            scale_s = max(np.abs(gs).max(), 1.0)
            scale_p = max(np.abs(psis).max(), 1.0)
            for s in range(2):
                e = np.zeros(2)
                e[s] = t
                fd_g = (
                    gval(jet.gradient + e, jet.hessian)
                    - gval(jet.gradient - e, jet.hessian)
                ) / (2 * t)
                fd_p = (psival(jet.gradient + e) - psival(jet.gradient - e)) / (2 * t)
                worst = max(worst, abs(fd_g - gs[s]) / scale_s)
                worst = max(worst, abs(fd_p - psis[s]) / scale_p)
        assert worst <= 1e-6


class TestObliqueness:
    def test_symmetric_cap_unit_chi(self):
        # Omega = Omega* = B_rho, R^2 = 1 + rho^2: chi = 1 by symmetry
        rho = 0.5
        radius = np.sqrt(1 + rho**2)
        target = bodies.ball(rho)
        for theta in (0.0, 1.1, 2.7):
            x = rho * np.array([np.cos(theta), np.sin(theta)])
            nu = -x / rho
            chi_def, chi_formula = geometry.obliqueness_chi(
                cap_jet(x, radius), nu, target
            )
            assert chi_def == pytest.approx(1.0, abs=1e-12)
            assert chi_formula == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_tangential_probe(self):
        # a jet whose gradient image sits on the target boundary but whose
        # normal is swapped to a tangent: both routes report 0
        rho = 0.5
        radius = np.sqrt(1 + rho**2)
        target = bodies.ball(rho)
        x = np.array([rho, 0.0])
        nu_tangent = np.array([0.0, 1.0])
        jet = cap_jet(x, radius)
        chi_def, _ = geometry.obliqueness_chi(jet, nu_tangent, target)
        assert abs(chi_def) <= 1e-12

    def test_boundary_mismatch_error(self):
        target = bodies.ball(0.5)
        jet = Jets(np.zeros(2), 0.0, np.array([0.1, 0.0]), np.eye(2))
        with pytest.raises(BoundaryMismatchError):
            geometry.obliqueness_chi(jet, np.array([1.0, 0.0]), target)

    @pytest.mark.parametrize("shape", ["cap", "superellipse"])
    def test_batch_matches_single_jets(self, shape):
        rng = np.random.default_rng(13)
        thetas = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        if shape == "cap":
            rho = 0.5
            target = bodies.ball(rho)
            xs = target.boundary_param(thetas)
            jets = [cap_jet(x, np.sqrt(1 + rho**2)) for x in xs]
            nus = -xs / rho
        else:
            target = bodies.superellipse((0.42, 0.34), 4.0)
            du = target.boundary_param(thetas)
            jets = [Jets(np.zeros(2), 0.0, d, random_convex_jet(rng).hessian) for d in du]
            angles = thetas + np.pi + rng.uniform(-0.5, 0.5, thetas.size)
            nus = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        batch = stack(jets)
        chi_def, chi_formula = geometry.obliqueness_chi(batch, nus, target)
        assert chi_def.shape == chi_formula.shape == (24,)
        for i, jet in enumerate(jets):
            one_def, one_formula = geometry.obliqueness_chi(jet, nus[i], target)
            assert one_def == pytest.approx(chi_def[i], rel=1e-14, abs=1e-15)
            assert one_formula == pytest.approx(chi_formula[i], rel=1e-14, abs=1e-15)
        # leading axes broadcast; one point off the boundary fails the batch
        grid_def, _ = geometry.obliqueness_chi(
            batch.reshape((4, 6)), nus.reshape(4, 6, 2), target
        )
        np.testing.assert_array_equal(grid_def.ravel(), chi_def)
        off = batch.gradient.copy()
        off[5] *= 1.01
        with pytest.raises(BoundaryMismatchError):
            geometry.obliqueness_chi(dataclasses.replace(batch, gradient=off), nus, target)

    def test_formula_identity_off_symmetry(self):
        # chi_def^2 = u^{nu nu} u_{hh} holds for any defining level function
        # as long as the gradient image traces the boundary; build such a jet
        # from the ellipse-target solved-state structure in test_solver; here
        # check the cap against a re-centered ball target
        rho = 0.4
        radius = np.sqrt(1 + rho**2)
        target = bodies.ball(rho)
        x = rho * np.array([np.cos(0.3), np.sin(0.3)])
        nu = -x / rho
        chi_def, chi_formula = geometry.obliqueness_chi(cap_jet(x, radius), nu, target)
        assert chi_def == pytest.approx(chi_formula, rel=1e-10)


@pytest.mark.parametrize("lead", [(7,), (3, 4)], ids=["7", "3x4"])
@pytest.mark.parametrize("n", range(1, 7))
def test_batch_rows_equal_single_jets(n, lead):
    rng = np.random.default_rng(300 + n)
    jets = [random_convex_jet(rng, n) for _ in range(int(np.prod(lead)))]
    batch = stack(jets).reshape(lead)
    pack = geometry.curvature_pack(batch)
    dual = duality.dual_chart_pack(batch)
    psi = normal_poly_psi(3.0, linear=rng.uniform(-0.2, 0.2, n + 1))
    orders = sorted({1, (n + 1) // 2, n})
    residual = {k: geometry.primal_residual(batch, k, psi) for k in orders}
    support = geometry.support_value(batch)
    for i, idx in enumerate(np.ndindex(*lead)):
        one = geometry.curvature_pack(jets[i])
        for field in ("w", "g", "g_inv", "b", "b_inv", "normal", "second_form",
                      "curvature_matrix", "kappa"):
            assert np.array_equal(getattr(pack, field)[idx], getattr(one, field)), field
        one_dual = duality.dual_chart_pack(jets[i])
        assert np.array_equal(dual.dual_matrix[idx], one_dual.dual_matrix)
        assert np.array_equal(dual.radii[idx], one_dual.radii)
        assert support[idx] == geometry.support_value(jets[i])
        for k in orders:
            assert residual[k][idx] == geometry.primal_residual(jets[i], k, psi)


@pytest.mark.parametrize("n", range(2, 6))
def test_primal_residual_per_row_order(n):
    rng = np.random.default_rng(900 + n)
    jets = [random_convex_jet(rng, n) for _ in range(30)]
    batch = stack(jets)
    psi = normal_poly_psi(3.0, linear=rng.uniform(-0.2, 0.2, n + 1))
    k = rng.integers(1, n + 1, len(jets))
    k[:2] = (1, n)
    residual = geometry.primal_residual(batch, k, psi)
    for i, jet in enumerate(jets):
        assert residual[i] == geometry.primal_residual(jet, int(k[i]), psi)
    k[5] = n + 1
    with pytest.raises(ValueError):
        geometry.primal_residual(batch, k, psi)
