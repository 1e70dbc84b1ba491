import warnings

import numpy as np
import pytest

from khgraph import bodies, duality, rotations
from khgraph.errors import HemisphereExitError, PreconditionError
from khgraph.geometry import Jets
from khgraph.grid import build_grid
from khgraph.psi import cap_constant_psi

RHO = 0.5
RADIUS = float(np.sqrt(1 + RHO**2))


def disk_field(theta=0.7, radius=RHO):
    body = bodies.ball(radius)
    y0 = body.boundary_param(theta)
    xi = body.boundary_tangent(theta)
    return rotations.make_field(y0, xi, body), body


def ellipse_field(theta=0.83):
    body = bodies.ellipse((1.0, 0.6))
    y0 = body.boundary_param(theta)
    xi = body.boundary_tangent(theta)
    return rotations.make_field(y0, xi, body), body


def ball_field(rng, dim):
    """A field anchored at a random boundary point of a ball in R^dim."""
    body = bodies.ball(0.5 + 0.3 * rng.uniform(), dim=dim)
    d = rng.normal(size=dim)
    d /= np.linalg.norm(d)
    y0 = body.interior_point + body.params["radius"] * d
    t = rng.normal(size=dim)
    t -= (t @ d) * d
    return rotations.make_field(y0, t / np.linalg.norm(t), body), body


class TestMakeField:
    def test_origin_anchor_frame(self):
        # y0 = 0: x0 is the north pole, e1 the negated first axis, T(0) = xi
        body = bodies.ball(0.5, center=[0.15, 0.0])  # boundary passes origin? no:
        body = bodies.ball(0.5)
        # move the anchor to the origin of the chart by using a body whose
        # boundary passes through it
        body = bodies.ball(0.5, center=[0.5, 0.0])
        y0 = np.zeros(2)
        assert abs(body.h(y0)) < 1e-12
        xi = np.array([0.0, 1.0])  # tangent at the origin for this ball
        fld = rotations.make_field(y0, xi, body)
        np.testing.assert_allclose(fld.x0, [0.0, 0.0, 1.0], atol=0)
        np.testing.assert_allclose(fld.e1, [0.0, -1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(rotations.field_eval(fld, y0), xi, atol=1e-14)
        assert fld.speed == pytest.approx(1.0, abs=1e-14)

    def test_tangency_on_random_ellipse_anchors(self):
        rng = np.random.default_rng(0)
        body = bodies.ellipse((1.0, 0.6))
        for theta in rng.uniform(0, 2 * np.pi, 20):
            y0 = body.boundary_param(theta)
            xi = body.boundary_tangent(theta)
            fld = rotations.make_field(y0, xi, body)
            w0 = np.sqrt(1 + y0 @ y0)
            np.testing.assert_allclose(
                rotations.field_eval(fld, y0), w0 * xi, atol=1e-12
            )

    def test_frame_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = 2 if rng.uniform() < 0.5 else 3
            body = bodies.ball(0.4 + rng.uniform(), dim=dim)
            d = rng.normal(size=dim)
            d /= np.linalg.norm(d)
            y0 = body.params["radius"] * d
            t = rng.normal(size=dim)
            t -= (t @ d) * d
            xi = t / np.linalg.norm(t)
            fld = rotations.make_field(y0, xi, body)
            basis = np.vstack([fld.x0, fld.frame])
            np.testing.assert_allclose(
                basis @ basis.T, np.eye(dim + 1), atol=1e-13
            )

    def test_precondition_errors(self):
        body = bodies.ball(0.5)
        with pytest.raises(PreconditionError):
            rotations.make_field(np.array([0.1, 0.0]), np.array([0.0, 1.0]), body)
        y0 = body.boundary_param(0.3)
        with pytest.raises(PreconditionError):
            rotations.make_field(y0, y0 / np.linalg.norm(y0), body)  # not tangent
        with pytest.raises(PreconditionError):
            rotations.make_field(y0, 2.0 * body.boundary_tangent(0.3), body)

    @staticmethod
    def anchors(form, dim, m=40):
        """(body, y0 (m, dim), xi (m, dim)) with three zero-xi probes among them.

        'one-body' anchors lie on a (5, 2) ellipse, where most fields bisect
        for t_max below T_CAP; 'list' anchors each lie on their own ball,
        about a third of them a hair off a coordinate axis.
        """
        rng = np.random.default_rng(600 + dim)
        if form == "one-body":
            body = bodies.ellipse((5.0, 2.0))
            theta = rng.uniform(0, 2 * np.pi, m)
            y0, xi = body.boundary_param(theta), body.boundary_tangent(theta)
        else:
            body, y0, xi = [], [], []
            for _ in range(m):
                ball = bodies.ball(0.5 + 0.3 * rng.uniform(), dim=dim)
                d = rng.normal(size=dim)
                if rng.uniform() < 0.3:
                    d = np.eye(dim)[rng.integers(dim)] + 1e-4 * d
                d /= np.linalg.norm(d)
                t = rng.normal(size=dim)
                t -= (t @ d) * d
                body.append(ball)
                y0.append(ball.params["radius"] * d)
                xi.append(t / np.linalg.norm(t))
            y0, xi = np.array(y0), np.array(xi)
        xi[[0, m // 3, m - 1]] = 0.0
        return body, y0, xi

    @pytest.mark.parametrize("form,dim", [("one-body", 2), ("list", 2), ("list", 3)])
    def test_batch_rows_equal_one_anchor_calls(self, form, dim):
        body, y0, xi = self.anchors(form, dim)
        fld = rotations.make_field(y0, xi, body)
        m = len(y0)
        assert fld.frame.shape == (m, dim, dim + 1) and fld.t_max.shape == (m,)
        if form == "one-body":
            assert np.count_nonzero(fld.t_max < rotations.T_CAP) > m // 2
        rng = np.random.default_rng(700 + dim)
        y = rng.normal(size=(m, dim)) * 0.4
        t = rng.uniform(-0.1, 0.1, m)
        batch = (rotations.flow(fld, t, y), rotations.field_eval(fld, y), fld.components(y),
                 rotations.envelope_terms(fld, y))
        for i in range(m):
            one = rotations.make_field(y0[i], xi[i], body[i] if form == "list" else body)
            for name in ("y0", "xi", "x0", "frame", "speed", "t_max"):
                assert np.array_equal(getattr(fld[i], name), getattr(one, name)), (i, name)
            assert np.array_equal(batch[0][i], rotations.flow(one, t[i], y[i]))
            assert np.array_equal(batch[1][i], rotations.field_eval(one, y[i]))
            assert np.array_equal(batch[2][i], one.components(y[i]))
            for key, value in rotations.envelope_terms(one, y[i]).items():
                assert batch[3][key][i] == value, key
        assert np.all(fld.speed[[0, m // 3, m - 1]] == 0.0)

    def test_batch_field_broadcasts_over_points(self):
        body, y0, xi = self.anchors("list", 2, m=6)
        fld = rotations.make_field(y0.reshape(2, 3, 2), xi.reshape(2, 3, 2),
                                   body)
        assert fld.speed.shape == (2, 3)
        y = np.random.default_rng(13).normal(size=(2, 3, 5, 2)) * 0.5
        batch = rotations.field_eval(fld[..., None], y)
        assert batch.shape == (2, 3, 5, 2)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(batch[i, j], rotations.field_eval(fld[i, j], y[i, j]))

    def test_batch_precondition_names_first_bad_anchor(self):
        body = bodies.ball(0.5)
        theta = np.array([0.3, 1.1, 2.0, 2.9])
        y0, xi = body.boundary_param(theta), body.boundary_tangent(theta)
        xi[0] = 0.0
        y0[3] *= 1.1  # off the boundary
        xi[2] *= 2.0  # not unit
        xi[1] = y0[1] / np.linalg.norm(y0[1])  # not tangent
        for rows, first in (([0, 1, 2, 3], 1), ([0, 3, 2], 3), ([0, 2, 3], 2)):
            with pytest.raises(PreconditionError) as err:
                rotations.make_field(y0[rows], xi[rows], body)
            with pytest.raises(PreconditionError) as one:
                rotations.make_field(y0[first], xi[first], body)
            assert str(err.value) == str(one.value)
            assert err.value.defect == one.value.defect
        with pytest.raises(PreconditionError, match="off the boundary"):
            rotations.make_field(y0[[0, 3]], xi[[0, 3]], [body, body])

    def test_zero_xi_rows_emit_no_warning(self):
        body = bodies.ball(0.5)
        theta = np.linspace(0.0, 2 * np.pi, 5)
        xi = body.boundary_tangent(theta)
        xi[[1, 3]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = rotations.make_field(body.boundary_param(theta), xi, body)
            zero = rotations.make_field(body.boundary_param(theta[:2]), np.zeros((2, 2)), body)
        assert np.all(fld.speed[[1, 3]] == 0.0) and np.all(zero.speed == 0.0)
        assert np.all(zero.t_max == rotations.T_CAP)

    def test_frame_completion_is_observationally_irrelevant(self):
        # only span(x0, e1) enters T: rotating the complementary frame
        # vectors changes nothing
        fld, _ = disk_field()
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(1, 1)))  # n=2: one extra vector
        fld2 = rotations.RotationField(
            y0=fld.y0,
            xi=fld.xi,
            x0=fld.x0,
            frame=np.vstack([fld.e1, q[0, 0] * fld.frame[1:]]),
            speed=fld.speed,
            t_max=fld.t_max,
        )
        for y in rng.normal(size=(10, 2)):
            np.testing.assert_allclose(
                rotations.field_eval(fld, y), rotations.field_eval(fld2, y), atol=0
            )


class TestFlow:
    def test_identity_at_zero(self):
        fld, _ = ellipse_field()
        rng = np.random.default_rng(3)
        for y in rng.normal(size=(20, 2)):
            np.testing.assert_allclose(rotations.flow(fld, 0.0, y), y, atol=1e-13)

    def test_group_law(self):
        fld, _ = ellipse_field()
        rng = np.random.default_rng(4)
        ts, ss, ys = [], [], []
        for _ in range(1000):
            t, s = rng.uniform(0, fld.t_max / 2, 2)
            ts.append(t)
            ss.append(s)
            ys.append(rng.normal(size=2) * 0.5)
        t, s, y = np.array(ts), np.array(ss), np.array(ys)
        a = rotations.flow(fld, t + s, y)
        # sigma_t(sigma_s y) and sigma_s(sigma_t y), each stage in one call
        b, c = rotations.flow(fld, np.stack([t, s]), rotations.flow(fld, np.stack([s, t]), y))
        worst = max(np.abs(a - b).max(), np.abs(a - c).max())
        assert worst <= 1e-10

    def test_origin_anchor_trigonometric_oracle(self):
        # anchor at the chart origin: sigma_t(0) = tan(t) xi exactly
        body = bodies.ball(0.5, center=[0.5, 0.0])
        xi = np.array([0.0, 1.0])
        fld = rotations.make_field(np.zeros(2), xi, body)
        for t in (0.05, 0.1, 0.3):
            np.testing.assert_allclose(
                rotations.flow(fld, t, np.zeros(2)), np.tan(t) * xi, atol=1e-13
            )

    def test_hemisphere_exit(self):
        body = bodies.ball(0.5, center=[0.5, 0.0])
        fld = rotations.make_field(np.zeros(2), np.array([0.0, 1.0]), body)
        with pytest.raises(HemisphereExitError):
            rotations.flow(fld, 1.57, np.array([0.0, 50.0]))

    @pytest.mark.parametrize("lead", [(7,), (3, 4)], ids=["7", "3x4"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_batch_rows_equal_single_calls(self, n, lead):
        rng = np.random.default_rng(400 + n)
        fld, _ = ball_field(rng, n)
        t = rng.uniform(-fld.t_max, fld.t_max, lead)
        y = rng.normal(size=lead + (n,)) * 0.4
        batch = rotations.flow(fld, t, y)
        at_y0 = rotations.flow(fld, t, fld.y0)
        env = rotations.envelope_terms(fld, y)
        assert batch.shape == at_y0.shape == lead + (n,)
        for idx in np.ndindex(*lead):
            assert np.array_equal(batch[idx], rotations.flow(fld, t[idx], y[idx]))
            assert np.array_equal(at_y0[idx], rotations.flow(fld, t[idx], fld.y0))
            one = rotations.envelope_terms(fld, y[idx])
            for key, value in one.items():
                assert env[key][idx] == value, key

    def test_batch_exit_names_first_exiting_item(self):
        body = bodies.ball(0.5, center=[0.5, 0.0])
        fld = rotations.make_field(np.zeros(2), np.array([0.0, 1.0]), body)
        t = np.array([0.1, 0.2, 1.55, 0.3, 1.57])
        y = np.array([[0.0, 0.1], [0.0, 0.2], [0.0, 50.0], [0.0, 0.3], [0.0, 60.0]])
        with pytest.raises(HemisphereExitError) as err:
            rotations.flow(fld, t, y)
        assert err.value.t == 1.55
        with pytest.raises(HemisphereExitError) as one:
            rotations.flow(fld, 1.55, y[2])
        assert err.value.denominator == one.value.denominator

    def test_inverse_flow_by_negative_time(self):
        fld, _ = ellipse_field()
        rng = np.random.default_rng(5)
        for y in rng.normal(size=(20, 2)) * 0.5:
            yt = rotations.flow(fld, 0.2, y)
            np.testing.assert_allclose(rotations.flow(fld, -0.2, yt), y, atol=1e-12)


class TestFieldEval:
    @pytest.mark.parametrize("shape", [(7, 2), (3, 4, 2)])
    def test_batch_matches_pointwise(self, shape):
        fld, _ = ellipse_field()
        ys = np.random.default_rng(11).normal(size=shape) * 0.5
        batch = rotations.field_eval(fld, ys)
        assert batch.shape == shape
        loop = np.array([rotations.field_eval(fld, y) for y in ys.reshape(-1, 2)])
        np.testing.assert_allclose(batch.reshape(-1, 2), loop, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_r", [16, 32])
    def test_batch_bit_identical_on_grid_nodes(self, n_r):
        # one point and its row of a 1-d or 2-d batch agree in every bit
        fld, body = ellipse_field()
        y = build_grid(body, n_r, 2 * n_r).nodes
        batch = rotations.field_eval(fld, y)
        loop = np.array([rotations.field_eval(fld, p) for p in y])
        assert np.array_equal(batch, loop)
        stacked = rotations.field_eval(fld, y.reshape(n_r, -1, 2))
        assert np.array_equal(stacked.reshape(-1, 2), loop)

    def test_flow_finite_difference_oracle(self):
        fld, _ = ellipse_field()
        rng = np.random.default_rng(6)
        ys = rng.normal(size=(40, 2)) * 0.5
        errs = []
        for dt in (1e-3, 5e-4):
            worst = 0.0
            for y in ys:
                fd = (
                    rotations.flow(fld, dt, y) - rotations.flow(fld, -dt, y)
                ) / (2 * dt)
                worst = max(worst, np.abs(fd - rotations.field_eval(fld, y)).max())
            errs.append(worst)
        assert 3.0 <= errs[0] / errs[1] <= 5.0  # O(dt^2)

    def test_envelope_identity_and_bound(self):
        rng = np.random.default_rng(7)
        for mk in (disk_field, ellipse_field):
            fld, _ = mk(rng.uniform(0, 2 * np.pi))
            for _ in range(200):
                y = rng.normal(size=2) * rng.uniform(0, 2)
                e = rotations.envelope_terms(fld, y)
                assert abs(e["lhs"] - e["identity"]) <= 1e-12
                assert e["lhs"] <= e["bound"] + 1e-12

    def test_envelope_equality_at_disk_anchor(self):
        # centered-ball anchors have speed 1 and the bound is attained at y0
        fld, _ = disk_field(1.3)
        assert fld.speed == pytest.approx(1.0, abs=1e-13)
        e = rotations.envelope_terms(fld, fld.y0)
        assert e["lhs"] == pytest.approx(e["bound"], abs=1e-12)

    def test_unit_frame_components(self):
        rng = np.random.default_rng(8)
        fld, _ = ellipse_field()
        for _ in range(100):
            comps = fld.components(rng.normal(size=2) * 2)
            assert comps @ comps == pytest.approx(1.0, abs=1e-13)
        # ball anchors as the verify suite draws them, in 2-D and 3-D, half
        # of them a hair off a coordinate axis, where completing the frame
        # over the axes cancels almost all of its first candidate; the first
        # is the field of verify seed 1, which once gave 1.4e-13
        body = bodies.ball(0.6860961666964811)
        theta = 0.5 * np.pi + 1.1523e-4
        fields = [(rotations.make_field(body.boundary_param(theta),
                                        body.boundary_tangent(theta), body),
                   np.array([0.42034106, 1.23544021]))]
        for m in range(60):
            body = bodies.ball(0.5 + 0.3 * rng.uniform())
            theta = rng.uniform(0, 2 * np.pi)
            if m % 2:
                theta = 0.5 * np.pi * (m // 2 % 4) + 1e-4 * rng.normal()
            fld = rotations.make_field(body.boundary_param(theta),
                                       body.boundary_tangent(theta), body)
            fields.append((fld, rng.normal(size=2) * rng.uniform(0, 2)))
        for m in range(60):
            radius = 0.5 + 0.3 * rng.uniform()
            body = bodies.ball(radius, dim=3)
            d, t = rng.normal(size=3), rng.normal(size=3)
            if m % 2:
                d = np.eye(3)[m % 3] + 1e-4 * d
                t = np.eye(3)[(m + 1) % 3] + 1e-4 * t
            d /= np.linalg.norm(d)
            t -= (t @ d) * d
            fld = rotations.make_field(body.interior_point + radius * d,
                                       t / np.linalg.norm(t), body)
            fields.append((fld, rng.normal(size=3) * rng.uniform(0, 2)))
        for fld, y in fields:
            q = np.vstack([fld.x0, fld.frame])
            assert np.abs(q @ q.T - np.eye(y.size + 1)).max() <= 1e-14
            comps = fld.components(y)
            assert comps @ comps == pytest.approx(1.0, abs=1e-13)

    def test_degree_two_polynomial_structure(self):
        rng = np.random.default_rng(9)
        fld, _ = ellipse_field()
        for _ in range(100):
            y = rng.normal(size=2)
            d = rng.normal(size=2)
            h = 0.3 + rng.uniform()
            vals = np.stack(
                [rotations.field_eval(fld, y + m * h * d) for m in range(4)]
            )
            third = vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]
            assert np.abs(third).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polynomial_quadratic_tensor_matches_loop(self, n):
        fld, _ = ball_field(np.random.default_rng(500 + n), n)
        c, _, q = rotations.field_polynomial(fld)
        loop = np.zeros((n, n, n))
        for m in range(n):
            for j in range(n):
                for k in range(n):
                    loop[m, j, k] = 0.5 * ((m == j) * c[k] + (m == k) * c[j])
        assert np.array_equal(q, loop)

    def test_polynomial_coefficients_reproduce_field(self):
        fld, _ = ellipse_field()
        c, b, q = rotations.field_polynomial(fld)
        rng = np.random.default_rng(10)
        for y in rng.normal(size=(20, 2)):
            via_poly = c + b @ y + np.einsum("mjk,j,k->m", q, y, y)
            np.testing.assert_allclose(
                via_poly, rotations.field_eval(fld, y), atol=1e-13
            )

    def test_transport_of_observables(self):
        # d/dt h(sigma_t y)|_0 = T h and the second-derivative analogue
        fld, _ = disk_field()
        rng = np.random.default_rng(11)
        coeff = rng.normal(size=6)

        def hfun(y):
            return (
                coeff[0] + coeff[1] * y[0] + coeff[2] * y[1]
                + coeff[3] * y[0] * y[1] + coeff[4] * y[0] ** 2
                + coeff[5] * y[1] ** 2
            )

        def hgrad(y):
            return np.array(
                [
                    coeff[1] + coeff[3] * y[1] + 2 * coeff[4] * y[0],
                    coeff[2] + coeff[3] * y[0] + 2 * coeff[5] * y[1],
                ]
            )

        hhess = np.array([[2 * coeff[4], coeff[3]], [coeff[3], 2 * coeff[5]]])
        y = rng.normal(size=2) * 0.3
        jets = lambda q: Jets(q, hfun(q), hgrad(q), hhess)  # noqa: E731
        tu, ttu, _ = rotations.derivative_along(fld, jets, y)
        errs1, errs2 = [], []
        for dt in (1e-3, 5e-4):
            d1 = (
                hfun(rotations.flow(fld, dt, y))
                - hfun(rotations.flow(fld, -dt, y))
            ) / (2 * dt)
            d2 = (
                hfun(rotations.flow(fld, dt, y))
                - 2 * hfun(y)
                + hfun(rotations.flow(fld, -dt, y))
            ) / dt**2
            errs1.append(abs(d1 - tu))
            errs2.append(abs(d2 - ttu))
        assert 3.0 <= errs1[0] / errs1[1] <= 5.0
        assert 3.0 <= errs2[0] / max(errs2[1], 1e-14) <= 5.0


class TestDerivativeAlong:
    def test_constant_function(self):
        fld, _ = disk_field()
        jets = lambda y: Jets(y, 3.7, np.zeros(2), np.zeros((2, 2)))  # noqa: E731
        assert rotations.derivative_along(fld, jets, np.array([0.1, 0.2])) == (
            0.0, 0.0, 0.0,
        )

    def test_linear_function(self):
        # Hessian vanishes: TTu = (D_T T) . Du and D_TT u = 0
        fld, _ = disk_field()
        g = np.array([0.4, -1.1])
        jets = lambda y: Jets(y, g @ y, g, np.zeros((2, 2)))  # noqa: E731
        y = np.array([0.25, -0.1])
        tu, ttu, dttu = rotations.derivative_along(fld, jets, y)
        assert dttu == 0.0
        dt = rotations.field_jacobian(fld, y)
        t = rotations.field_eval(fld, y)
        assert ttu == pytest.approx((dt @ t) @ g, abs=1e-14)
        assert tu == pytest.approx(t @ g, abs=1e-14)

    def test_quadratic_symbolic_oracle(self):
        fld, _ = ellipse_field()
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 2))
        a = a + a.T
        bvec = rng.normal(size=2)

        def jets(y):
            return Jets(y, 0.5 * y @ a @ y + bvec @ y, a @ y + bvec, a)

        c, bm, _ = rotations.field_polynomial(fld)
        y = rng.normal(size=2) * 0.4
        t = c + bm @ y + (c @ y) * y
        dt = bm + (c @ y) * np.eye(2) + np.outer(y, c)
        grad = a @ y + bvec
        tu_sym = t @ grad
        ttu_sym = (dt @ t) @ grad + t @ a @ t
        dttu_sym = t @ a @ t
        tu, ttu, dttu = rotations.derivative_along(fld, jets, y)
        assert tu == pytest.approx(tu_sym, abs=1e-10)
        assert ttu == pytest.approx(ttu_sym, abs=1e-10)
        assert dttu == pytest.approx(dttu_sym, abs=1e-10)


class TestDifferentiatedEquation:
    def dual_jets_decentered(self, centre):
        def jets(y):
            y = np.asarray(y, float)
            w = np.sqrt(1 + y @ y)
            return Jets(
                y, RADIUS * w + centre @ y, RADIUS * y / w + centre,
                RADIUS * (np.eye(2) / w - np.outer(y, y) / w**3),
            )

        return jets

    def test_exact_cap_state_small_defect(self):
        fld, body = disk_field()
        ps = cap_constant_psi(RHO, 1)
        jets = self.dual_jets_decentered(np.array([0.17, -0.08]))
        defect = rotations.differentiated_equation_check(
            fld, jets, duality.DualPsi(ps), 1, np.array([0.12, -0.2]), h=1.0 / 128.0,
            body=body,
        )
        assert defect <= 1e-8

    def test_rotated_support_batch_matches_nodes(self):
        fld, body = disk_field()
        y = build_grid(body, 8, 16).nodes
        rng = np.random.default_rng(14)
        u, du = rng.normal(size=len(y)), rng.normal(size=y.shape)
        batch = rotations.rotated_support(fld, y, u, du)
        assert batch.shape == (len(y),)
        loop = [rotations.rotated_support(fld, y[i], u[i], du[i]) for i in range(len(y))]
        np.testing.assert_array_equal(batch, loop)

    def test_zero_field_zero_defect(self):
        _, body = disk_field()
        y0 = body.boundary_param(0.7)
        zero = rotations.make_field(y0, np.zeros(2), body)
        jets = self.dual_jets_decentered(np.zeros(2))
        defect = rotations.differentiated_equation_check(
            zero, jets, duality.DualPsi(cap_constant_psi(RHO, 1)), 1, np.array([0.1, 0.1]),
            h=1.0 / 128.0,
        )
        assert defect == 0.0

    def test_domain_exit_error(self):
        fld, body = disk_field()
        jets = self.dual_jets_decentered(np.zeros(2))
        near_edge = np.array([RHO - 1e-4, 0.0])
        with pytest.raises(PreconditionError):
            rotations.differentiated_equation_check(
                fld, jets, duality.DualPsi(cap_constant_psi(RHO, 1)), 1, near_edge,
                h=1.0 / 32.0, body=body,
            )
