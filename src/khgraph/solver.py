"""Damped-Newton solver for the dual oblique boundary value problem.

Unknown is the Legendre dual u* on a body-fitted grid over the target domain
(the gradient image).  Interior rows impose

    F*( w* b* D^2u* b* ) = exp(eps u*) psi*_0(y),

boundary rows impose h_omega(Du*) = 0 with h_omega the defining function of
the source domain.  The dual side is solved because its argument matrix is
SPD exactly on convex states, the boundary condition is classically oblique
(strict obliqueness), and the exponential zeroth-order term is monotone
increasing in u*, which keeps the Newton linearization uniformly invertible
for eps > 0.  At eps = 0 the solution is unique only up to a constant, so the
continuation stops at a positive eps and extrapolates.
Between levels the solution moves by nearly a constant plus an O(eps) change
of shape, so each level starts from a prediction: a secant in eps through the
last two solutions, then the constant that balances exp(eps u*) against F* in
the mean.  That shift is exact, since a constant leaves D^2u* and Du*
unchanged and scales the exponential term by exp(eps s).
The grid is planar, so F* sees its argument only through det and tr, both
read in closed form off D^2u* (dual_operator_batch); symfun.eval_operator is
its oracle.
Newton is inexact: each step only has to meet the forcing term
|J s + F| <= max(min(0.1, |F|) |F|, tol/100) in the sup norm (forcing_term).
A continuation keeps one SuperLU factor (minimum degree on J^T J, SuperLU's
MMD_ATA, with partial pivoting) across its Newton iterations and eps levels,
and solves each system by GMRES preconditioned with it.  Only when GMRES
misses the forcing term within GMRES_MAX_ITER iterations is the current
Jacobian factored afresh, and its direct solve, the exact Newton step, taken.
Newton still ends a level only at |F| <= tol, so a converged answer agrees
with exact Newton's to within about tol, not to rounding.
DualProblem evaluates each distinct u* once: the line search's SPD margin and
residual and the next iteration's Jacobian share one application of the
Hessian stencils.

The constant reported by the continuation is the one of the un-powered
equation sigma_k(kappa) = c psi0^k: the recovered primal mean satisfies
k * eps * mean(u_eps) -> log c, which is extrapolated to eps = 0 by the
quadratic in eps through the last three levels.  Its eps error is then far
below the discretisation error, so the default schedule stops at eps = 0.1,
away from the small eps where the linearisation nears singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import duality, geometry, rotations
from .bodies import ConvexBody
from .config import DEFAULT_EPS_SCHEDULE, NEWTON_TOL, SPD_FLOOR
from .errors import (
    ConeViolationError,
    ContinuationError,
    LineSearchStallError,
    NonConvergenceError,
    SingularJacobianError,
)
from .grid import Grid, GridJetInterpolant
from .meshfree import nearest
from .psi import PsiSpec, exponential_psi

MAX_NEWTON_ITER = 200
ARMIJO = 1e-4
GMRES_MAX_ITER = 10


@dataclass
class SolverState:
    """A converged continuation, the one input of every post-solve reader.

    problem is the DualProblem solved (its grid, source body omega, k and
    psi_base), u_star the solution of the last eps level and history one
    record per level (continuation_solve lists the keys; history[-1] holds
    the final eps, residual and mean_u).  gradient (N, 2) and hessians
    (N, 2, 2) are u*'s stencil derivatives at the nodes, taken once.
    """

    problem: DualProblem
    u_star: np.ndarray
    history: list
    c_estimate: float
    gradient: np.ndarray
    hessians: np.ndarray

    @cached_property
    def argument_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (N, 2) of the dual argument matrix at every node."""
        nodes = self.problem.grid.nodes
        return np.linalg.eigvalsh(duality.argument_matrix(nodes, self.hessians))


# ---------------------------------------------------------------------------
# batched dual-operator evaluation (hot path; cross-checked against symfun)


def dual_operator_batch(hess: np.ndarray, y: np.ndarray, k: int):
    """(F*, dF*/dH) of the planar dual operator at Hessians hess (m, 2, 2) of u* at y (m, 2).

    The argument A = w* b* H b* enters (sigma_2/sigma_{2-k})^(1/k) only via
    det A = w*^4 det H and tr A = w* tr(G H), G = I + y y^T: F* is
    w*^3 det H / tr(G H) for k = 1 and w*^2 sqrt(det H) for k = 2.  The
    gradient is rows (3, m) against (H11, H12 + H21, H22), i.e. (dxx, dxy,
    dyy).  A is congruent to H, so SPD exactly when tr H > 0 and det H > 0;
    off the cone the error carries the first failing node's spectrum of A.
    The tests pin this against symfun.eval_operator(duality.argument_matrix).
    """
    a, b, c = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    det = a * c - b * b
    bad = np.flatnonzero(~((a + c > 0.0) & (det > 0.0)))
    if bad.size:
        a_bad = duality.argument_matrix(y[bad[0]], hess[bad[0]])
        raise ConeViolationError(np.linalg.eigvalsh(a_bad), nodes=bad)
    w2 = 1.0 + (y * y).sum(axis=1)
    ddet = np.stack([c, -2.0 * b, a])  # d det H against (H11, H12 + H21, H22)
    if k == 1:
        w3 = w2 * np.sqrt(w2)
        # tr(G H) = g . (H11, H12, H22), so g is also its gradient
        g = np.stack([1.0 + y[:, 0] ** 2, 2.0 * y[:, 0] * y[:, 1], 1.0 + y[:, 1] ** 2])
        tr = (g * np.stack([a, b, c])).sum(axis=0)
        value = w3 * det / tr
        return value, (w3 * ddet - value * g) / tr
    value = w2 * np.sqrt(det)
    return value, ddet * (0.5 * value / det)


# ---------------------------------------------------------------------------
# problem assembly


class DualProblem:
    """Grid-bound assembly of the dual residual and Jacobian.

    omega is the source body (its defining function drives the boundary
    rows); psi_base is the primal psi0 (constant or normal-only) that the
    continuation wraps exponentially.  The methods share one _Evaluation of
    the last u* they were given, so each distinct state applies the Hessian
    stencils once.
    """

    def __init__(self, grid: Grid, omega: ConvexBody, k: int, psi_base: PsiSpec):
        self.grid = grid
        self.omega = omega
        self.k = k
        self.psi_base = psi_base
        self.interior = grid.interior_idx
        self.boundary = grid.boundary_idx
        self._last: _Evaluation | None = None

    def _evaluation(self, u: np.ndarray) -> _Evaluation:
        """The u*-only pieces of the rows at u, shared while u keeps the last call's values."""
        u = np.asarray(u, dtype=float)
        if self._last is None or not np.array_equal(self._last.u, u):
            self._last = _Evaluation(self.grid, self.k, u)
        return self._last

    def dual_psi(self, eps: float) -> duality.DualPsi:
        return duality.DualPsi(exponential_psi(eps, self.psi_base))

    def spd_margin(self, u: np.ndarray) -> float:
        """Smallest eigenvalue of the node Hessian estimates."""
        return self._evaluation(u).margin

    def boundary_h(self, du: np.ndarray) -> np.ndarray:
        """omega's defining function at the boundary gradients: the boundary rows."""
        return self.omega.h(du)

    def interior_sides(self, u: np.ndarray, eps: float):
        """(F*(A), psi*(y, u*)) at the interior nodes; ConeViolationError off the cone."""
        fval, _ = self._evaluation(u).operator
        return fval, self.dual_psi(eps).evaluate(self.grid.nodes[self.interior], u[self.interior])

    def residual(self, u: np.ndarray, eps: float) -> np.ndarray:
        """Residual vector; raises ConeViolationError off the convex cone."""
        fval, rhs = self.interior_sides(u, eps)
        res = np.empty(self.grid.n_nodes)
        res[self.interior] = fval - rhs
        res[self.boundary] = self.boundary_h(self._evaluation(u).boundary_gradient)
        return res

    def balancing_shift(self, u: np.ndarray, eps: float) -> float:
        """Constant s with mean(log F*(A) - log psi*(y, u* + s)) = 0 over the interior.

        The dual right-hand side is log-linear in u*: psi*(y, u* + s) =
        exp(r s) psi*(y, u*) with r = psi*_z / psi* = eps for a constant or
        normal-only psi0 (for an exponential psi0, eps plus its own rate).  A
        constant leaves D^2u* and Du* unchanged, so the shift moves every
        interior row's log by exactly r s and no boundary row, no Hessian and
        no SPD margin.  u must be strictly convex.
        """
        fval, rhs = self.interior_sides(u, eps)
        yi, ui = self.grid.nodes[self.interior], u[self.interior]
        rate = self.dual_psi(eps).partial_z(yi, ui) / rhs
        return float(np.mean(np.log(fval / rhs) / rate))

    def jacobian(self, u: np.ndarray, eps: float) -> sp.csr_matrix:
        grid, st, at = self.grid, self.grid.stencils, self._evaluation(u)
        # each row's coefficient of each operator in OPS, summed on the shared
        # pattern: interior rows take dF*/dH against (dxx, dxy, dyy), boundary
        # rows beta . (dx, dy) with beta = Dh_omega(Du*)
        coef = np.zeros((5, grid.n_nodes))
        coef[2:, self.interior] = at.operator[1]
        coef[:2, self.boundary] = self.omega.grad_h(at.boundary_gradient).T
        data = sum(c[st.rows] * w for c, w in zip(coef, st.weights))
        data[st.diag[self.interior]] -= self.dual_psi(eps).partial_z(
            grid.nodes[self.interior], u[self.interior]
        )
        return sp.csr_matrix((data, st.indices, st.indptr), shape=(grid.n_nodes,) * 2)


class _Evaluation:
    """The pieces of the rows that depend on u* alone, at one state u*.

    The Hessian stencils are applied once, on construction; the SPD margin,
    (F*, dF*/dH) at the interior nodes and the boundary gradient follow on
    first use.  u is a copy, so an array the caller changes in place is a
    new state.  Every array handed out is read-only, as each reader shares
    it.  Off the cone, operator raises ConeViolationError on every read and
    is never stored.
    """

    def __init__(self, grid: Grid, k: int, u: np.ndarray):
        # no reference back to the DualProblem: a cycle would keep each
        # solve's grid alive until the cyclic collector runs
        self.grid = grid
        self.k = k
        self.u = _read_only(u.copy())
        self.hessians = _read_only(grid.hessians(u))

    @cached_property
    def margin(self) -> float:
        h = self.hessians
        tr = h[:, 0, 0] + h[:, 1, 1]
        disc = np.sqrt((h[:, 0, 0] - h[:, 1, 1]) ** 2 + 4.0 * h[:, 0, 1] ** 2)
        return float((0.5 * (tr - disc)).min())

    @cached_property
    def operator(self) -> tuple[np.ndarray, np.ndarray]:
        inner = self.grid.interior_idx
        fval, rows = dual_operator_batch(self.hessians[inner], self.grid.nodes[inner], self.k)
        return _read_only(fval), _read_only(rows)

    @cached_property
    def boundary_gradient(self) -> np.ndarray:
        return _read_only(self.grid.boundary_gradient(self.u))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def initial_guess(grid: Grid, omega: ConvexBody) -> np.ndarray:
    """Cap-profile start alpha * w_star + beta . y, least-squares fitted.

    alpha and beta are chosen so the gradient map of the guess carries
    about 16 boundary samples of the target domain near the boundary of
    omega.
    """
    stride = max(1, grid.n_theta // 16)
    yb = grid.nodes[grid.boundary_idx[::stride]]
    wb = duality.wstar(yb)
    # match by gauge angle: boundary point of omega on the same ray
    targets = omega.boundary_param(grid.thetas[::stride])
    design = np.concatenate(
        [(yb / wb[:, None]).reshape(-1, 1), np.tile(np.eye(2), (yb.shape[0], 1))],
        axis=1,
    )
    sol, *_ = np.linalg.lstsq(design, targets.reshape(-1), rcond=None)
    alpha = float(sol[0])
    beta = sol[1:3]
    if alpha <= 0.1:
        alpha, beta = 1.0, np.zeros(2)
    return alpha * duality.wstar(grid.nodes) + grid.nodes @ beta


def spd_repair(problem: DualProblem, u0: np.ndarray, spd_floor: float) -> np.ndarray:
    """Blend a start below the SPD floor toward the canonical convex profile.

    The cap profile alpha * w_star is uniformly convex, so some convex
    combination restores the SPD floor; bisection finds a small blend.
    """
    anchor = initial_guess(problem.grid, problem.omega)

    def margin(t):
        return problem.spd_margin((1.0 - t) * u0 + t * anchor)

    if margin(1.0) < spd_floor:
        raise LineSearchStallError(
            "infeasible start could not be repaired", history=[]
        )
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 2.0 * spd_floor:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * u0 + hi * anchor


@dataclass
class KeptFactor:
    """The SuperLU factor that Newton systems reuse, with counts of the work done.

    lu is None until the first factor.  factors counts the fresh factors
    taken and krylov_iterations the GMRES iterations run on kept ones.
    """

    lu: spla.SuperLU | None = None
    factors: int = 0
    krylov_iterations: int = 0

    def refactor(self, jac: sp.csr_matrix) -> None:
        """Factor jac in minimum-degree order on J^T J, with partial pivoting."""
        try:
            self.lu = spla.splu(jac.tocsc(), permc_spec="MMD_ATA")
        except RuntimeError as exc:  # SuperLU met an exactly zero pivot
            raise SingularJacobianError() from exc
        self.factors += 1


def gmres(jac: sp.csr_matrix, rhs: np.ndarray, precond, target: float, max_iter: int):
    """Right-preconditioned GMRES for jac x = rhs from x = 0, without restart.

    precond applies the preconditioner's inverse.  Each iteration forms x
    and stops once the true residual meets |jac x - rhs|_inf <= target.
    Returns (x, iterations), with x None when max_iter iterations miss the
    target (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).
    """
    beta = np.linalg.norm(rhs)
    basis = [rhs / beta]
    dirs = []  # preconditioned basis vectors: x is a combination of them
    hess = np.zeros((max_iter + 1, max_iter))
    for j in range(max_iter):
        dirs.append(precond(basis[j]))
        w = jac @ dirs[j]
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            hess[i, j] = v @ w
            w -= hess[i, j] * v
        hess[j + 1, j] = np.linalg.norm(w)
        if not np.isfinite(hess[j + 1, j]):
            break
        e1 = np.zeros(j + 2)
        e1[0] = beta
        y = np.linalg.lstsq(hess[: j + 2, : j + 1], e1, rcond=None)[0]
        x = np.column_stack(dirs) @ y
        if np.abs(jac @ x - rhs).max() <= target:
            return x, j + 1
        if hess[j + 1, j] == 0.0:  # the Krylov space is exhausted
            break
        basis.append(w / hess[j + 1, j])
    return None, j + 1


def newton_step(jac: sp.csr_matrix, res: np.ndarray, kept: KeptFactor, target: float):
    """The Newton step for jac step = -res, from the kept factor if it can.

    GMRES preconditioned by the kept factor gets GMRES_MAX_ITER iterations
    to meet |jac step + res|_inf <= target, and its step is taken only if it
    does.  A miss, or no kept factor, refactors at jac and takes the direct
    solve, the exact Newton step, without checking it against target: its
    residual is rounding alone (9e-12 at |res| = 1.09 on a 32x64 cap).
    """
    if kept.lu is not None:
        step, iters = gmres(jac, -res, kept.lu.solve, target, GMRES_MAX_ITER)
        kept.krylov_iterations += iters
        if step is not None:
            return step
    kept.refactor(jac)
    step = kept.lu.solve(-res)
    if not np.all(np.isfinite(step)):
        raise SingularJacobianError()
    return step


def forcing_term(rn: float, tol: float) -> float:
    """Target of |J s + F|_inf for a Newton system at residual sup norm rn.

    max(min(0.1, rn) rn, tol/100): eta = min(0.1, rn) keeps Newton's
    quadratic convergence (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
    19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996), and the
    tol/100 floor keeps the last systems of a level from being solved far
    below the tol that ends it.
    """
    return max(min(0.1, rn) * rn, tol / 100.0)


def newton_solve(
    problem: DualProblem,
    u0: np.ndarray,
    eps: float,
    tol: float = NEWTON_TOL,
    max_iter: int = MAX_NEWTON_ITER,
    spd_floor: float = SPD_FLOOR,
    kept: KeptFactor | None = None,
):
    """Inexact damped Newton with backtracking on the residual sup norm.

    Each Newton system is solved to the forcing term
    |J s + F|_inf <= max(min(0.1, |F|) |F|, tol/100), all sup norms
    (forcing_term).  Newton stops only at |F|_inf <= tol, so the converged
    answer agrees with exact Newton's to within about tol.  The solve reuses
    kept's factor (see newton_step); without one, the first iteration
    factors.  Trial steps that push any node Hessian below the SPD floor are
    rejected by the line search; cone violations during probing are caught
    and treated the same way.  An infeasible start is repaired by blending
    toward the convex cap profile (or raises a stall error cleanly).
    Returns (u, iterations, residual_history).
    """
    kept = KeptFactor() if kept is None else kept
    u = np.asarray(u0, dtype=float).copy()
    if problem.spd_margin(u) < spd_floor:
        u = spd_repair(problem, u, spd_floor)
    res = problem.residual(u, eps)
    rn = float(np.abs(res).max())
    hist = [rn]
    for it in range(max_iter):
        if rn <= tol:
            return u, it, hist
        step = newton_step(problem.jacobian(u, eps), res, kept, forcing_term(rn, tol))
        alpha = 1.0
        while True:
            u_try = u + alpha * step
            if problem.spd_margin(u_try) >= spd_floor:
                try:
                    res_try = problem.residual(u_try, eps)
                    rn_try = float(np.abs(res_try).max())
                    if rn_try <= (1.0 - ARMIJO * alpha) * rn:
                        break
                except ConeViolationError:
                    pass
            alpha *= 0.5
            if alpha < 1e-12:
                raise LineSearchStallError(
                    f"line search stalled at residual {rn:.3e}",
                    history=hist,
                    iterate=u,
                )
        u, res, rn = u_try, res_try, rn_try
        hist.append(rn)
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations (residual {rn:.3e})",
        history=hist,
        iterate=u,
    )


def primal_mean(grid: Grid, u: np.ndarray, du: np.ndarray, h: np.ndarray) -> float:
    """Mean of the recovered primal u over the source domain.

    Pulls the integral back through the gradient map: x = Du*(y) maps the
    grid onto omega with area element det D^2u*(y) dy, and u(x) = x.y - u*.
    du and h are u*'s nodal gradient and Hessians.
    """
    det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2
    u_primal = (du * grid.nodes).sum(axis=1) - u
    w = grid.quad_weights * det
    return float((u_primal * w).sum() / w.sum())


def continuation_solve(
    grid: Grid,
    omega: ConvexBody,
    k: int,
    psi_base: PsiSpec,
    eps_schedule=DEFAULT_EPS_SCHEDULE,
    tol: float = NEWTON_TOL,
    spd_floor: float = SPD_FLOOR,
) -> SolverState:
    """Solve along a decreasing eps schedule, predicting each level's start.

    Each level starts from a prediction (Allgower & Georg, *Introduction to
    Numerical Continuation Methods*, ch. 2).  Once two levels have converged,
    a secant in eps through their solutions is the guess, kept only while it
    stays above the SPD floor.  Then the balancing shift
    (DualProblem.balancing_shift) adds the constant that zeroes the mean log
    of the interior rows.  The shift is exact algebra, not a fit: the
    exponential continuation term makes psi* log-linear in u*, and a
    constant changes neither D^2u* nor Du*.  The solution moves between
    levels by nearly such a constant (k * eps * mean(u_eps) -> log c) plus
    an O(eps) change of shape, which the secant follows.  A first start
    below the SPD floor goes to newton_solve unshifted, to be repaired there.

    One KeptFactor serves every Newton system of every level, so a level
    factors only when GMRES on the kept factor misses its forcing term.

    Each history record holds the level's eps, Newton iterations, start and
    final residuals, primal mean, and the fresh factors and GMRES iterations
    its linear solves took.  c_estimate is exp of k * eps * mean(u_eps)
    extrapolated in eps to zero by the quadratic through the last three
    levels (the line through both levels of a two-level schedule, the value
    itself for one level).  Everything else in the state, mean_u included, is
    the last level's.
    The returned state keeps the last level's nodal gradient and Hessians,
    which its primal mean was computed from.  A failing level raises
    ContinuationError carrying the history records of the levels completed
    before it.
    """
    schedule = list(eps_schedule)
    if not schedule or any(e <= 0 for e in schedule) or any(
        schedule[i + 1] >= schedule[i] for i in range(len(schedule) - 1)
    ):
        raise ValueError("eps schedule must be non-empty, strictly decreasing and positive")
    problem = DualProblem(grid, omega, k, psi_base)
    kept = KeptFactor()
    u = initial_guess(grid, omega)
    history = []
    logc = []
    solved = []  # (eps, u) of the last two converged levels
    for eps in schedule:
        if len(solved) == 2:
            (e0, u0), (e1, u1) = solved
            guess = u1 + (eps - e1) / (e1 - e0) * (u1 - u0)
            if problem.spd_margin(guess) >= spd_floor:
                u = guess
        # a converged level and an accepted guess both sit above the floor
        if solved or problem.spd_margin(u) >= spd_floor:
            u = u + problem.balancing_shift(u, eps)
        factors, krylov = kept.factors, kept.krylov_iterations
        try:
            u, iters, hist = newton_solve(
                problem, u, eps, tol=tol, spd_floor=spd_floor, kept=kept
            )
        except (NonConvergenceError, LineSearchStallError, SingularJacobianError) as exc:
            raise ContinuationError(
                f"continuation failed at eps = {eps:g}: {exc}", history
            ) from exc
        solved = solved[-1:] + [(eps, u)]
        du, hess = grid.gradient(u), problem._evaluation(u).hessians
        mean_u = primal_mean(grid, u, du, hess)
        history.append({"eps": eps, "iterations": iters, "start_residual": hist[0],
                        "residual": hist[-1], "mean_u": mean_u,
                        "factors": kept.factors - factors,
                        "krylov_iterations": kept.krylov_iterations - krylov})
        logc.append(k * eps * mean_u)
    return SolverState(problem=problem, u_star=u, history=history,
                       c_estimate=float(np.exp(_extrapolate_to_zero(schedule, logc))),
                       gradient=du, hessians=hess)


def _extrapolate_to_zero(eps: list, g: list) -> float:
    """Value at eps = 0 of the polynomial through the last (up to) three (eps, g) pairs.

    Three or more levels take the quadratic (Lagrange) through the last
    three, two the line through both, one its own value.
    """
    if len(g) >= 3:
        e, g = eps[-3:], g[-3:]
        return sum(
            g[i] * np.prod([e[j] / (e[j] - e[i]) for j in range(3) if j != i])
            for i in range(3)
        )
    if len(g) == 2:
        (e1, e2), (g1, g2) = eps, g
        return g2 - e2 * (g1 - g2) / (e1 - e2)
    return g[-1]


@dataclass
class PrimalRecovery:
    points: np.ndarray  # samples of the source domain (gradient images)
    values: np.ndarray  # primal u there
    hausdorff: float  # distance between Du(boundary) and the target boundary
    boundary_defect: float  # max |h_target(Du(x))| over boundary samples


def recover_primal(state: SolverState) -> PrimalRecovery:
    """Invert the dual gradient map and report gradient-image fidelity.

    The node samples come for free (x = Du*(y), u(x) = x.y - u*); the
    boundary report re-samples the source boundary independently, at
    N_theta uniform angles, maps it through Du by Newton inversion of Du*,
    and measures how far the image lies from the target boundary.  The
    inversion is one batched invert_gradient_map call over all boundary
    samples, each seeded from the boundary node whose image is closest.
    """
    grid, u, du = state.problem.grid, state.u_star, state.gradient
    values = (du * grid.nodes).sum(axis=1) - u
    thetas = np.linspace(0.0, 2.0 * np.pi, grid.n_theta, endpoint=False)
    bnd_x = state.problem.omega.boundary_param(thetas)
    images = du[grid.boundary_idx]
    seeds = grid.nodes[grid.boundary_idx[nearest(images, bnd_x, 1)[:, 0]]]
    at, _ = duality.invert_gradient_map(GridJetInterpolant(grid, u), bnd_x, seeds, tol=1e-10)
    ys = at.point
    target = grid.body
    defect = float(np.abs(target.h(ys)).max())
    bnd_star = target.boundary_param(thetas)
    hausdorff = _hausdorff(ys, bnd_star)
    return PrimalRecovery(
        points=du,
        values=values,
        hausdorff=hausdorff,
        boundary_defect=defect,
    )


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def diagnostics(state: SolverState) -> dict:
    """chi_min (both routes), M, M_tilde of a converged state.

    M is the largest argument-matrix eigenvalue over the nodes.  The
    obliqueness of every boundary node comes from one batched
    geometry.obliqueness_chi call on the primal jets there.
    """
    grid, u, du, h = state.problem.grid, state.u_star, state.gradient, state.hessians
    m_big = float(state.argument_eigenvalues[:, -1].max())

    bidx = grid.boundary_idx
    x = du[bidx]  # points on the source boundary
    # interior unit normals of the source boundary at the points x = Du*
    nus = state.problem.omega.grad_h(x)
    nus /= np.linalg.norm(nus, axis=1)[:, None]
    # primal jets at x through the Legendre pairing: Du = y, D^2u = (D^2u*)^{-1}
    hess = np.linalg.inv(h[bidx])
    jets = geometry.Jets(
        point=x,
        value=(grid.nodes[bidx] * x).sum(axis=1) - u[bidx],
        gradient=grid.nodes[bidx],
        hessian=0.5 * (hess + hess.transpose(0, 2, 1)),
    )
    chi_def, chi_formula = geometry.obliqueness_chi(jets, nus, grid.body)
    tang = grid.boundary_tangents
    w2 = 1.0 + (grid.nodes[bidx] ** 2).sum(axis=1)
    d_nn = np.einsum("mi,mij,mj->m", tang, h[bidx], tang)
    m_tilde = float((w2 * d_nn).max())
    i_min = int(np.argmin(chi_def))
    return {
        "chi_min": float(chi_def.min()),
        "chi_min_angle": float(grid.thetas[i_min % grid.n_theta]),
        "chi_formula_min": float(chi_formula.min()),
        "chi_gap_max": float(np.abs(chi_def - chi_formula).max()),
        "M": m_big,
        "M_tilde": m_tilde,
    }


def differentiated_equation_defect(
    state: SolverState, fld: "rotations.RotationField", eps: float, nodes
) -> np.ndarray:
    """Grid-stencil version of the rotation-differentiated equation check.

    nodes is a node index or an integer array of them; the defects have its
    shape, and each is bit for bit the one-node call.  phi = w* T(u*/w*) is
    built from the state's own stencil gradient and differentiated by the
    same stencils, so the defect at an interior node is O(h^2) plus the
    solve tolerance, away from the outer band.  Where the windows change
    shape the defect spikes: the Hessian stencil applied to a field built
    from the stencil gradient turns the O(h^3) jump in the gradient's error
    into O(h).  At 16x32 ring N_r - 3, next to the one-sided boundary
    windows, reads 1.2e-2 against about 2.5e-3 mid-domain, so the order
    test probes rings N_r/4..3N_r/4.
    """
    problem, u, du = state.problem, state.u_star, state.gradient
    grid = problem.grid
    hess_phi = grid.hessians(rotations.rotated_support(fld, grid.nodes, u, du))[nodes]
    jet = geometry.Jets(grid.nodes[nodes], u[nodes], du[nodes], state.hessians[nodes])
    return rotations.equation_defect(fld, jet, hess_phi, problem.dual_psi(eps), problem.k)
