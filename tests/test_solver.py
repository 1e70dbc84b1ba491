import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from khgraph import bodies, duality, rotations, solver, symfun
from khgraph.config import NEWTON_TOL
from khgraph.errors import (
    ConeViolationError,
    ContinuationError,
    LineSearchStallError,
    NonConvergenceError,
    SingularJacobianError,
)
from khgraph.grid import build_grid
from khgraph.psi import (
    cap_constant_psi,
    cap_manufactured_psi,
    constant_psi,
    exponential_psi,
    normal_poly_psi,
)
from khgraph.registry import cap_dual_exact, cap_exact_constant

RHO = 0.5
RADIUS = float(np.sqrt(1 + RHO**2))


@pytest.fixture(scope="module")
def cap_setup():
    omega = bodies.ball(RHO)
    grid = build_grid(bodies.ball(RHO), 16, 32)
    problem = solver.DualProblem(grid, omega, 1, cap_constant_psi(RHO, 1))
    return grid, omega, problem


def smooth_noise(nodes, amp, rng):
    x, y = nodes[:, 0], nodes[:, 1]
    c = rng.normal(size=8)
    return amp * (
        c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x * x + c[5] * y * y
        + c[6] * np.sin(3 * x + 2 * y) + c[7] * np.cos(2 * x - 3 * y)
    )


def random_chart_points(rng, m, reach=1.5):
    """m chart points y with |y| uniform in [0, reach)."""
    y = rng.normal(size=(m, 2))
    return y * (reach * rng.uniform(size=m) / np.linalg.norm(y, axis=1))[:, None]


class TestBatchedOperator:
    def test_matches_symfun_reference(self):
        # the oracle: the n-dimensional operator on the argument matrix
        # A = w* b* H b*, and the chain rule dF*/dH = w* b* F*'(A) b*
        rng = np.random.default_rng(0)
        b = rng.normal(size=(50, 2, 2))
        hess = b @ b.transpose(0, 2, 1) + 0.3 * np.eye(2)
        y = random_chart_points(rng, 50)
        for k in (1, 2):
            vals, rows = solver.dual_operator_batch(hess, y, k)
            assert rows.shape == (3, 50)
            for m in range(50):
                op = symfun.eval_operator(symfun.SpectrumRequest(
                    duality.argument_matrix(y[m], hess[m]), k, "dual"))
                bs = duality.bstar(y[m])
                dh = duality.wstar(y[m]) * (bs @ op.gradient @ bs)
                oracle = [dh[0, 0], dh[0, 1] + dh[1, 0], dh[1, 1]]
                assert vals[m] == pytest.approx(op.value, rel=1e-12)
                np.testing.assert_allclose(
                    rows[:, m], oracle, rtol=0, atol=1e-12 * np.abs(oracle).max()
                )

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "bad",
        [[[-2.0, 0.5], [0.5, -1.0]], [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
        ids=["negative-definite", "indefinite", "singular-psd"],
    )
    def test_cone_boundary_raises(self, k, bad):
        # tr > 0 and det > 0 together: a negative-definite matrix has
        # det > 0 and only its trace gives it away
        rng = np.random.default_rng(3)
        b = rng.normal(size=(8, 2, 2))
        hess = b @ b.transpose(0, 2, 1) + 0.3 * np.eye(2)
        hess[2] = bad
        hess[5] = 3.0 * np.asarray(bad)
        y = random_chart_points(rng, 8)
        assert np.all(np.linalg.norm(y, axis=1) > 0.0)
        with pytest.raises(ConeViolationError) as info:
            solver.dual_operator_batch(hess, y, k)
        np.testing.assert_array_equal(info.value.nodes, [2, 5])
        # the spectrum reported is that of the argument matrix, not of H
        expected = np.linalg.eigvalsh(duality.argument_matrix(y[2], np.asarray(bad)))
        np.testing.assert_allclose(info.value.eigenvalues, expected, rtol=1e-14, atol=1e-14)


class TestResidual:
    def test_exact_cap_second_order(self, cap_setup):
        grid, omega, problem = cap_setup
        res16 = problem.residual(cap_dual_exact(grid.nodes, RHO), 0.0)
        g32 = build_grid(bodies.ball(RHO), 32, 64)
        p32 = solver.DualProblem(g32, omega, 1, cap_constant_psi(RHO, 1))
        res32 = p32.residual(cap_dual_exact(g32.nodes, RHO), 0.0)
        assert np.abs(res32).max() < np.abs(res16).max() / 2.5
        # boundary rows inherit only the O(h^2) stencil-gradient error
        # (the continuum gradient maps the ring onto the ring exactly)
        assert np.abs(res16[grid.boundary_idx]).max() <= grid.spacing**2
        assert np.abs(res32[g32.boundary_idx]).max() <= g32.spacing**2

    def test_monotone_eps_term(self, cap_setup):
        # raising u* by a constant strictly lowers the interior residual
        grid, omega, problem = cap_setup
        u = cap_dual_exact(grid.nodes, RHO)
        r1 = problem.residual(u + 1.0, 0.3)[grid.interior_idx]
        r0 = problem.residual(u, 0.3)[grid.interior_idx]
        assert np.all(r1 < r0)

    def test_linearization_consistency(self, cap_setup):
        # residual of a perturbed exact state grows linearly in the size of
        # the perturbation, with slope given by the Jacobian
        grid, omega, problem = cap_setup
        rng = np.random.default_rng(1)
        u = cap_dual_exact(grid.nodes, RHO)
        d = smooth_noise(grid.nodes, 1.0, rng)
        base = problem.residual(u, 0.2)
        jac_d = problem.jacobian(u, 0.2) @ d
        for t in (1e-4, 1e-5):
            grown = problem.residual(u + t * d, 0.2)
            np.testing.assert_allclose(
                (grown - base) / t, jac_d, atol=2e3 * t
            )


class TestJacobian:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "target",
        [bodies.ball(RHO), bodies.ellipse([0.45, 0.3], angle=0.3)],
        ids=["ball", "ellipse"],
    )
    def test_finite_difference_sweep(self, target, k):
        grid = build_grid(target, 16, 32)
        omega = bodies.ball(RHO)
        problem = solver.DualProblem(grid, omega, k, cap_constant_psi(RHO, k))
        rng = np.random.default_rng(2)
        worst, states = 0.0, 0
        for _ in range(20):
            u = cap_dual_exact(grid.nodes, RHO) + smooth_noise(grid.nodes, 3e-2, rng)
            if problem.spd_margin(u) < solver.SPD_FLOOR:
                continue
            states += 1
            jac = problem.jacobian(u, 0.15)
            t = 1e-6
            for _ in range(3):
                d = smooth_noise(grid.nodes, 1.0, rng)
                d /= np.abs(d).max()
                fd = (
                    problem.residual(u + t * d, 0.15)
                    - problem.residual(u - t * d, 0.15)
                ) / (2 * t)
                worst = max(
                    worst,
                    np.abs(jac @ d - fd).max() / max(np.abs(fd).max(), 1.0),
                )
        assert states >= 10 and worst <= 1e-6

    def test_solve_and_check_at_exact_cap(self, cap_setup):
        grid, omega, problem = cap_setup
        import scipy.sparse.linalg as spla

        u = cap_dual_exact(grid.nodes, RHO)
        jac = problem.jacobian(u, 0.2).tocsc()
        rhs = problem.residual(u, 0.2)
        lu = spla.splu(jac)
        step = lu.solve(rhs)
        assert np.abs(jac @ step - rhs).max() <= 1e-10

    def test_rotational_equivariance_of_jacobian(self, cap_setup):
        # symmetric instance at a radial state: J commutes with the discrete
        # rotation permutation of the rays
        grid, omega, problem = cap_setup
        u = cap_dual_exact(grid.nodes, RHO)
        jac = problem.jacobian(u, 0.2)
        n = grid.n_nodes
        perm = np.empty(n, dtype=int)
        for ring in range(grid.n_r):
            for ray in range(grid.n_theta):
                perm[ring * grid.n_theta + ray] = ring * grid.n_theta + (
                    (ray + 1) % grid.n_theta
                )
        p = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
        gap = (p @ jac - jac @ p).toarray()
        assert np.abs(gap).max() <= 1e-10


class TestNewton:
    def test_exact_start_converges_immediately(self, cap_setup):
        grid, omega, problem = cap_setup
        # restarting from the discrete solution takes zero iterations and a
        # nearby start takes one, with no rejected steps either way
        u_sol, _, _ = solver.newton_solve(
            problem, cap_dual_exact(grid.nodes, RHO), 0.3
        )
        u, iters, hist = solver.newton_solve(problem, u_sol, 0.3)
        assert iters == 0 and len(hist) == 1
        u, iters, hist = solver.newton_solve(problem, u_sol + 1e-8, 0.3)
        assert iters <= 1

    def test_perturbed_start_quadratic_tail(self, cap_setup):
        grid, omega, problem = cap_setup
        rng = np.random.default_rng(3)
        u0 = cap_dual_exact(grid.nodes, RHO) + smooth_noise(grid.nodes, 1e-3, rng)
        u, iters, hist = solver.newton_solve(problem, u0, 0.1)
        assert iters <= 8
        assert hist[-1] <= solver.NEWTON_TOL
        # quadratic tail: successive residuals square (up to a constant)
        tail = [h for h in hist if 1e-13 < h < 1e-2]
        for a, b in zip(tail, tail[1:]):
            assert b <= 20 * a * a

    def test_infeasible_start_repairs_or_stalls_cleanly(self, cap_setup):
        grid, omega, problem = cap_setup
        # concave bump: node Hessians far from SPD
        x, y = grid.nodes[:, 0], grid.nodes[:, 1]
        u0 = -2.0 * (x * x + y * y)
        try:
            u, iters, hist = solver.newton_solve(problem, u0, 0.2)
            assert hist[-1] <= solver.NEWTON_TOL
            assert problem.spd_margin(u) >= solver.SPD_FLOOR
        except (LineSearchStallError, NonConvergenceError):
            pass  # a clean diagnostic error is an acceptable outcome

    def test_accepted_states_respect_spd_floor(self, cap_setup):
        grid, omega, problem = cap_setup
        rng = np.random.default_rng(4)
        u0 = cap_dual_exact(grid.nodes, RHO) + smooth_noise(grid.nodes, 5e-3, rng)
        u, _, _ = solver.newton_solve(problem, u0, 0.3)
        assert problem.spd_margin(u) >= solver.SPD_FLOOR


class TestLinearSolve:
    @pytest.fixture(scope="class")
    def cap32(self):
        grid = build_grid(bodies.ball(RHO), 32, 64)
        omega = bodies.ball(RHO)
        problem = solver.DualProblem(grid, omega, 1, constant_psi(1.0))
        return grid, problem, solver.initial_guess(grid, omega)

    def test_kept_factor_is_minimum_degree(self, cap32):
        # newton_solve keeps a minimum-degree (MMD_ATA) factor of the
        # Jacobian, which fills less than SuperLU's default COLAMD
        _, problem, u = cap32
        kept = solver.KeptFactor()
        with pytest.raises(NonConvergenceError):
            solver.newton_solve(problem, u, 0.4, max_iter=1, kept=kept)
        assert kept.factors == 1
        jac = problem.jacobian(u, 0.4).tocsc()
        fresh = spla.splu(jac, permc_spec="MMD_ATA")
        np.testing.assert_array_equal(kept.lu.perm_c, fresh.perm_c)
        assert kept.lu.nnz == fresh.nnz < spla.splu(jac).nnz

    def test_continuation_keeps_its_factor(self, cap32):
        # GMRES on the kept factor leaves the Newton iterations of every
        # level as exact Newton had them, with at most two factors in all
        grid, problem, _ = cap32
        state = solver.continuation_solve(grid, problem.omega, 1, constant_psi(1.0))
        assert [h["iterations"] for h in state.history] == [3, 3, 2]
        assert sum(h["factors"] for h in state.history) <= 2
        assert all(h["krylov_iterations"] >= h["iterations"] for h in state.history[1:])

    @pytest.mark.parametrize("source, factors", [("eps", 1), ("problem", 2)])
    def test_stale_factor_step_meets_forcing_term(self, cap32, source, factors):
        # a factor kept from another eps preconditions GMRES to the forcing
        # term; one from another problem (an ellipse target's grid) misses
        # within the cap, and the step comes from a fresh factor instead
        grid, problem, u = cap32
        u_sol, _, _ = solver.newton_solve(problem, u, 0.4)
        x, y = grid.nodes.T
        u = u_sol + 1e-3 * (x * x - 0.5 * x * y + np.sin(3.0 * y))
        if source == "eps":
            stale = problem.jacobian(u, 0.025)
        else:
            other_grid = build_grid(bodies.ellipse([0.45, 0.3]), grid.n_r, grid.n_theta)
            other = solver.DualProblem(other_grid, problem.omega, 1, constant_psi(1.0))
            stale = other.jacobian(solver.initial_guess(other_grid, problem.omega), 0.4)
        kept = solver.KeptFactor()
        kept.refactor(stale)
        res = problem.residual(u, 0.4)
        rn = np.abs(res).max()
        target = min(min(0.1, rn) * rn, NEWTON_TOL / 100)
        jac = problem.jacobian(u, 0.4)
        step = solver.newton_step(jac, res, kept, target)
        assert np.abs(jac @ step + res).max() <= target
        assert kept.factors == factors

    def test_newton_step_matches_default_factor(self, cap32):
        # one full Newton step from the cap guess, against a default SuperLU
        _, problem, u = cap32
        res = problem.residual(u, 0.4)
        step = spla.splu(problem.jacobian(u, 0.4).tocsc()).solve(-res)
        with pytest.raises(NonConvergenceError) as err:
            solver.newton_solve(problem, u, 0.4, max_iter=1)
        taken = err.value.iterate - u
        assert np.abs(taken - step).max() <= 1e-10 * np.abs(step).max()

    @staticmethod
    def zero_row_from(monkeypatch, grid, first):
        # zero one row of each Jacobian from the first-th call on; the
        # returned list grows by one entry per call
        real = solver.DualProblem.jacobian
        row = grid.flat_index(8, 5)
        calls = []

        def zero_row(self, u, eps):
            jac = real(self, u, eps)
            calls.append(None)
            if len(calls) >= first:
                jac.data[jac.indptr[row]:jac.indptr[row + 1]] = 0.0
            return jac

        monkeypatch.setattr(solver.DualProblem, "jacobian", zero_row)
        return calls

    def test_singular_jacobian_raises_cleanly(self, monkeypatch):
        # an exactly zero row is an exactly zero pivot: a SingularJacobianError
        # at once, and a ContinuationError from the continuation
        grid = build_grid(bodies.ball(RHO), 16, 32)
        omega = bodies.ball(RHO)
        self.zero_row_from(monkeypatch, grid, 1)
        problem = solver.DualProblem(grid, omega, 1, constant_psi(1.0))
        with pytest.raises(SingularJacobianError):
            solver.newton_solve(problem, solver.initial_guess(grid, omega), 0.4)
        with pytest.raises(ContinuationError):
            solver.continuation_solve(grid, omega, 1, constant_psi(1.0))

    def test_singular_after_kept_factor_raises(self, monkeypatch):
        # the row vanishes after the first factor is kept: GMRES cannot meet
        # the forcing term on that row, so the step is refactored, and the
        # fresh factor meets the zero pivot
        grid = build_grid(bodies.ball(RHO), 16, 32)
        omega = bodies.ball(RHO)
        calls = self.zero_row_from(monkeypatch, grid, 2)
        problem = solver.DualProblem(grid, omega, 1, constant_psi(1.0))
        with pytest.raises(SingularJacobianError):
            solver.newton_solve(problem, solver.initial_guess(grid, omega), 0.4)
        assert len(calls) == 2
        calls.clear()
        with pytest.raises(ContinuationError) as err:
            solver.continuation_solve(grid, omega, 1, constant_psi(1.0))
        assert len(calls) == 2
        assert isinstance(err.value.__cause__, SingularJacobianError)


class TestContinuation:
    @pytest.mark.parametrize("k", [1, 2])
    def test_cap_constant_recovered(self, k):
        grid = build_grid(bodies.ball(RHO), 24, 48)
        state = solver.continuation_solve(grid, bodies.ball(RHO), k, constant_psi(1.0))
        c = state.c_estimate
        assert c == pytest.approx(cap_exact_constant(RHO, k), rel=7e-3)

    def test_mean_monotone_and_eps_mean_bounded(self, cap_setup):
        grid, omega, _ = cap_setup
        state = solver.continuation_solve(grid, omega, 1, constant_psi(1.0))
        means = [h["mean_u"] for h in state.history]
        assert all(b > a for a, b in zip(means, means[1:]))  # log c > 0 here
        eps_means = [h["eps"] * h["mean_u"] for h in state.history]
        spread = max(eps_means) - min(eps_means)
        assert spread <= 0.2 * max(abs(v) for v in eps_means)

    def test_warm_start_beats_cold_start(self, cap_setup):
        grid, omega, problem = cap_setup
        schedule = [0.4, 0.2, 0.1]
        u = solver.initial_guess(grid, omega)
        for i, eps in enumerate(schedule):
            if i > 0:
                warm = np.abs(problem.residual(u, eps)).max()
                cold = np.abs(
                    problem.residual(solver.initial_guess(grid, omega), eps)
                ).max()
                assert warm <= cold
            u, _, _ = solver.newton_solve(problem, u, eps)

    def test_bad_schedule_rejected(self, cap_setup):
        grid, omega, _ = cap_setup
        for schedule in ([0.1, 0.2], []):
            with pytest.raises(ValueError):
                solver.continuation_solve(grid, omega, 1, constant_psi(1.0),
                                          eps_schedule=schedule)

    @pytest.mark.parametrize("eps", [(0.4, 0.2, 0.1), (0.4, 0.2, 0.1, 0.05, 0.025)])
    def test_extrapolant_exact_on_quadratics(self, eps):
        # the quadratic through the last three levels, (0.1, 0.05, 0.025) on
        # the five-level schedule, recovers g(0) of a quadratic g to rounding
        a, b, c = 0.7, -1.3, 2.9
        g = [a + b * e + c * e * e for e in eps]
        got = solver._extrapolate_to_zero(list(eps), g)
        assert abs(got - a) <= 16 * np.finfo(float).eps * max(map(abs, g))

    @pytest.mark.parametrize("schedule", [[0.4, 0.2], [0.4]])
    def test_short_schedules_extrapolate_as_before(self, cap_setup, schedule):
        # two levels keep the line through both, one level its own value
        grid, omega, _ = cap_setup
        state = solver.continuation_solve(grid, omega, 1, constant_psi(1.0),
                                          eps_schedule=schedule)
        g = [h["eps"] * h["mean_u"] for h in state.history]
        if len(g) == 2:
            (e1, e2), (g1, g2) = schedule, g
            expected = g2 - e2 * (g1 - g2) / (e1 - e2)
        else:
            expected = g[0]
        assert state.c_estimate == float(np.exp(expected))

    def test_eps_error_far_below_discretisation_error(self, cap_setup):
        # the quadratics through 0.4/0.2/0.1 (the default schedule) and
        # through 0.1/0.05/0.025 differ by under 1% of the 16x32 cap's
        # discretisation error of c (about 2e-3; the gap is below 1e-6)
        grid, omega, _ = cap_setup
        schedule = [0.4, 0.2, 0.1, 0.05, 0.025]
        state = solver.continuation_solve(grid, omega, 1, constant_psi(1.0),
                                          eps_schedule=schedule)
        g = [h["eps"] * h["mean_u"] for h in state.history]
        first = np.exp(solver._extrapolate_to_zero(schedule[:3], g[:3]))
        c = state.c_estimate
        exact = cap_exact_constant(RHO, 1)
        assert abs(first - c) / c < 0.01 * abs(c - exact) / exact

    def test_levels_start_from_prediction(self, cap_setup):
        # an unchanged warm start would begin each later level at residual
        # 0.19; the secant and the shift start them far closer
        grid, omega, _ = cap_setup
        state = solver.continuation_solve(grid, omega, 1, constant_psi(1.0))
        starts = [h["start_residual"] for h in state.history]
        assert sum(h["iterations"] for h in state.history) <= 13
        assert max(starts) <= 5e-2
        assert max(starts[2:]) <= 1e-3
        assert all(h["residual"] <= NEWTON_TOL for h in state.history)
        c = state.c_estimate
        assert c == pytest.approx(cap_exact_constant(RHO, 1), rel=7e-3)

    @pytest.mark.parametrize("base", [
        constant_psi(1.0),
        normal_poly_psi(1.0, linear=[0.1, -0.05, 0.08]),
        exponential_psi(0.2, constant_psi(2.0)),
    ], ids=["constant", "normal-only", "exponential"])
    def test_balancing_shift_is_exact(self, cap_setup, base):
        # psi* is log-linear in u*, so one shift zeroes the mean log of the
        # interior rows and leaves the boundary rows and Hessians unchanged
        grid, omega, _ = cap_setup
        problem = solver.DualProblem(grid, omega, 1, base)
        u = solver.initial_guess(grid, omega)
        eps = 0.1
        shifted = u + problem.balancing_shift(u, eps)
        fval, rhs = problem.interior_sides(shifted, eps)
        assert abs(np.mean(np.log(fval / rhs))) <= 1e-12
        bnd = problem.boundary
        np.testing.assert_allclose(problem.residual(shifted, eps)[bnd],
                                   problem.residual(u, eps)[bnd], atol=1e-12)
        assert problem.spd_margin(shifted) == pytest.approx(problem.spd_margin(u),
                                                            rel=1e-9)


class TestConvergenceOrder:
    def test_manufactured_cap_second_order(self):
        errs = {}
        for nr, nt in ((16, 32), (32, 64)):
            grid = build_grid(bodies.ball(RHO), nr, nt)
            problem = solver.DualProblem(
                grid, bodies.ball(RHO), 1, cap_manufactured_psi(RHO, 1, 0.5)
            )
            u, _, _ = solver.newton_solve(
                problem, solver.initial_guess(grid, bodies.ball(RHO)), 0.5
            )
            errs[nr] = np.abs(u - cap_dual_exact(grid.nodes, RHO)).max()
        assert 3.2 <= errs[16] / errs[32] <= 4.8


class TestRecoveryAndDiagnostics:
    @pytest.fixture(scope="class")
    def solved(self):
        grid = build_grid(bodies.ball(RHO), 24, 48)
        omega = bodies.ball(RHO)
        return grid, solver.continuation_solve(grid, omega, 1, constant_psi(1.0))

    def test_recovered_primal_matches_cap_up_to_constant(self, solved):
        grid, state = solved
        rec = solver.recover_primal(state)
        r = np.linalg.norm(rec.points, axis=1)
        exact = -np.sqrt(RADIUS**2 - r**2)
        shift = np.mean(rec.values - exact)
        assert np.abs(rec.values - exact - shift).max() <= 30 * grid.spacing**2

    def test_gauss_image_fidelity(self, solved):
        grid, state = solved
        rec = solver.recover_primal(state)
        assert rec.hausdorff <= 2 * grid.spacing
        assert rec.boundary_defect <= grid.spacing**2

    def test_round_trip_values(self, solved):
        # u -> u* -> u at node images reproduces the dual values; targets
        # stay on the mid-radius annulus where the scattered image cloud is
        # isotropic enough for the nearest-neighbor fits
        grid, state = solved
        from khgraph import duality

        rec = solver.recover_primal(state)
        sample = duality.SampledFunction(rec.points, rec.values)
        r = np.linalg.norm(grid.nodes, axis=1)
        pick = np.where((r > 0.15) & (r < 0.4) & ~grid.is_boundary)[0][::29]
        back = duality.legendre(sample, targets=grid.nodes[pick], stall_tol=1e-4)
        np.testing.assert_allclose(
            back.values, state.u_star[pick], atol=40 * grid.spacing**2
        )

    def test_cap_diagnostics_closed_forms(self, solved):
        grid, state = solved
        d = solver.diagnostics(state)
        assert d["chi_min"] == pytest.approx(1.0, abs=1e-6)
        assert d["chi_formula_min"] == pytest.approx(1.0, abs=1e-6)
        assert d["M"] == pytest.approx(RADIUS, abs=30 * grid.spacing**2)
        assert d["M_tilde"] == pytest.approx(1.25, abs=30 * grid.spacing**2)

    def test_m_dominates_mtilde_relation(self, solved):
        grid, state = solved
        d = solver.diagnostics(state)
        w2max = 1.0 + (grid.nodes[grid.boundary_idx] ** 2).sum(axis=1).max()
        assert d["M"] >= d["M_tilde"] / w2max - 1e-10


class TestEllipseTarget:
    @pytest.fixture(scope="class")
    def solved(self):
        target = bodies.ellipse((0.45, 0.3))
        omega = bodies.ball(RHO)
        grid = build_grid(target, 20, 40)
        return grid, solver.continuation_solve(grid, omega, 1, constant_psi(1.0))

    def test_convergence_and_positivity(self, solved):
        grid, state = solved
        assert state.history[-1]["residual"] <= solver.NEWTON_TOL
        d = solver.diagnostics(state)
        assert d["chi_min"] > 0
        assert d["chi_gap_max"] <= 1e-5

    def test_chi_two_routes_refine_together(self):
        target = bodies.ellipse((0.45, 0.3))
        omega = bodies.ball(RHO)
        gaps = []
        for nr, nt in ((12, 24), (24, 48)):
            grid = build_grid(target, nr, nt)
            state = solver.continuation_solve(grid, omega, 1, constant_psi(1.0))
            gaps.append(solver.diagnostics(state)["chi_gap_max"])
        assert gaps[1] < gaps[0] / 2

    def test_rotational_equivariance_of_solution(self):
        # rotate the target by a ray-lattice angle: the solved nodal values
        # are the ray-permuted originals (omega is a centered ball)
        omega = bodies.ball(RHO)
        nr, nt = 16, 32
        shift = 4
        alpha = 2 * np.pi * shift / nt
        g1 = build_grid(bodies.ellipse((0.45, 0.3)), nr, nt)
        g2 = build_grid(bodies.ellipse((0.45, 0.3), angle=alpha), nr, nt)
        s1 = solver.continuation_solve(g1, omega, 1, constant_psi(1.0))
        s2 = solver.continuation_solve(g2, omega, 1, constant_psi(1.0))
        u1 = s1.u_star.reshape(nr, nt)
        u2 = s2.u_star.reshape(nr, nt)
        np.testing.assert_allclose(
            np.roll(u1, shift, axis=1), u2, atol=50 * g1.spacing**2
        )


class TestDifferentiatedEquationOnStates:
    @pytest.fixture(scope="class")
    def solved(self):
        """(grid, state) of the cap at eps = 0.2 on 16x32 and 32x64, and the field."""
        omega = bodies.ball(RHO)
        fld = rotations.make_field(omega.boundary_param(0.7), omega.boundary_tangent(0.7), omega)
        runs = []
        for nr, nt in ((16, 32), (32, 64)):
            grid = build_grid(bodies.ball(RHO), nr, nt)
            runs.append((grid, solver.continuation_solve(
                grid, omega, 1, constant_psi(1.0), eps_schedule=[0.4, 0.2])))
        return runs, fld

    @staticmethod
    def probe(grid):
        """Nodes on rings N_r/4..3N_r/4 (stride N_r/8) by 8 rays, (rings, rays)."""
        rings = np.arange(grid.n_r // 4, 3 * grid.n_r // 4, max(1, grid.n_r // 8))
        return grid.flat_index(rings[:, None], np.arange(0, grid.n_theta, grid.n_theta // 8))

    def test_defect_second_order_under_grid_refinement(self, solved):
        runs, fld = solved
        defects = [
            solver.differentiated_equation_defect(state, fld, 0.2, self.probe(grid)).max()
            for grid, state in runs
        ]
        # pointwise rates are noisy (the phi field stacks two stencil
        # applications); the probe-set maximum must at least halve
        assert defects[1] < defects[0] / 2.0

    def test_node_array_is_one_node_calls(self, solved):
        runs, fld = solved
        grid, state = runs[0]
        nodes = np.concatenate([self.probe(grid).ravel(), grid.boundary_idx[::5]])
        batch = solver.differentiated_equation_defect(state, fld, 0.2, nodes)
        assert batch.shape == nodes.shape
        one = [solver.differentiated_equation_defect(state, fld, 0.2, int(n)) for n in nodes]
        assert batch.tolist() == one
