"""Hemisphere projection, support data, and the Legendre transform.

Three equivalent pictures of the same convex graph are wired together here:

* the projected chart y of the upper hemisphere, with y = P(N) = Du,
* the support function v = -<X, N> as a function on the sphere, carried in
  the chart as the function u* = w_star * v (w_star = sqrt(1 + |y|^2)),
* the Legendre transform u*(y) = x.y - u(x) with y = Du(x).

Sign convention: psi's first argument is the support value z = <X, N> on the
primal side; the dual right-hand side composes psi with u*/w_star, i.e. with
-<X, N> expressed through the Gauss chart.  That is the composition that
makes the dual zeroth-order term monotone increasing, and it is the one used
throughout (see psi_star_spec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import symfun
from .errors import OutOfImageError
from .geometry import Jets
from .meshfree import JetInterpolant, nearest
from .psi import PsiSpec


def project(x: np.ndarray) -> np.ndarray:
    """Central projection of upper-hemisphere points to the chart, y_i = -x_i/x_{n+1}.

    x (..., n+1) gives (..., n).
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(symfun.rowdot(x, x) - 1.0) > 1e-10):
        raise ValueError("projection input must be a unit vector")
    if np.any(x[..., -1] <= 0.0):
        raise ValueError("projection requires a point in the open upper hemisphere")
    return -x[..., :-1] / x[..., -1:]


def unproject(y: np.ndarray) -> np.ndarray:
    """Inverse projection x = (-y, 1)/sqrt(1 + |y|^2), y (..., n) to x (..., n+1)."""
    y = np.asarray(y, dtype=float)
    x = np.concatenate([-y, np.ones(y.shape[:-1] + (1,))], axis=-1)
    return x / wstar(y)[..., None]


def wstar(y) -> np.ndarray:
    """sqrt(1 + |y|^2), broadcasting over a leading axis."""
    y = np.asarray(y, dtype=float)
    return np.sqrt(1.0 + (y * y).sum(axis=-1))


def bstar(y: np.ndarray) -> np.ndarray:
    """b*_ij = delta_ij + y_i y_j/(1 + w_star), square root of I + y y^T.

    Broadcasts over leading axes: y (..., n) gives (..., n, n).
    """
    y = np.asarray(y, dtype=float)
    outer = y[..., :, None] * y[..., None, :]
    return np.eye(y.shape[-1]) + outer / (1.0 + wstar(y))[..., None, None]


def argument_matrix(y, hessian) -> np.ndarray:
    """The dual argument matrix w* b* H b*, symmetrised; y (..., n), H (..., n, n)."""
    b = bstar(y)
    a = wstar(y)[..., None, None] * (b @ hessian @ b)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def bstar_inv(y: np.ndarray) -> np.ndarray:
    """Inverse of b*, delta_ij - y_i y_j/(w_star (1 + w_star)); y (..., n) gives (..., n, n)."""
    y = np.asarray(y, dtype=float)
    w = np.sqrt(1.0 + symfun.rowdot(y, y))[..., None, None]
    return np.eye(y.shape[-1]) - y[..., :, None] * y[..., None, :] / (w * (1.0 + w))


def chart_metric_inv(y: np.ndarray) -> np.ndarray:
    """g^ij = delta_ij - y_i y_j / (1 + |y|^2); w_star^2 times the sphere metric.

    y (..., n) gives (..., n, n).
    """
    y = np.asarray(y, dtype=float)
    outer = y[..., :, None] * y[..., None, :]
    return np.eye(y.shape[-1]) - outer / (1.0 + symfun.rowdot(y, y))[..., None, None]


def christoffel(y: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the projected sphere metric in the chart.

    Gamma^k_ij = -(y_i delta_kj + y_j delta_ki)/(1 + |y|^2); returned with
    axes [k, i, j].  Used by the finite-difference covariant-Hessian oracle.
    """
    y = np.asarray(y, dtype=float).ravel()
    eye = np.eye(y.size)
    return -(y[:, None] * eye[:, None, :] + y * eye[:, :, None]) / (1.0 + y @ y)


@dataclass
class DualChartPack:
    """The argument matrix of F* at a dual jet and its spectrum."""

    dual_matrix: np.ndarray
    radii: np.ndarray  # ascending; curvature radii when the jet is a Legendre dual


def dual_chart_pack(jet_star: Jets) -> DualChartPack:
    """The pack of jets of u*, of any leading axes, at their points."""
    dual = argument_matrix(jet_star.point, jet_star.hessian)
    # eigh, not eigvalsh, as in geometry.curvature_pack
    return DualChartPack(dual_matrix=dual, radii=symfun.eigh(dual)[0])


def gauss_image(jet: Jets) -> np.ndarray:
    """The gradient map Du, which equals the projected Gauss map P(N)."""
    return jet.gradient.copy()


@dataclass
class SupportData:
    v: float
    grad_v: np.ndarray  # components in the orthonormal frame e_i = w* b*_ik d_k
    lambda_matrix: np.ndarray


def spherical_hessian(v_chart: Jets) -> SupportData:
    """Spherical Hessian from a chart jet of the function u* = w_star * v at one point.

    lambda_matrix is w* b* D^2(u*) b*, which by the frame identity equals
    grad^2 v + v delta in the orthonormal frame; its eigenvalues are the
    curvature radii when v is the support function.
    """
    y = v_chart.point
    w = float(wstar(y))
    b = bstar(y)
    lam = argument_matrix(y, v_chart.hessian)
    v = v_chart.value / w
    # d_k (V/w*) = V_k / w* - V y_k / w*^3, then rotate into the frame.
    dv_chart = v_chart.gradient / w - v_chart.value * y / w**3
    grad_v = w * (b @ dv_chart)
    return SupportData(v=v, grad_v=grad_v, lambda_matrix=lam)


@dataclass
class DualPsi:
    """The dual right-hand side psi*(y, z) = 1/psi(z/w*, (-y,1)/w*) with partials.

    Broadcasts over leading axes: y (..., n) and z (...) give values and
    z-partials of shape (...) and y-partials of shape (..., n); one point is
    the 0-d case.  If the primal psi is nonincreasing in z then psi* is
    nondecreasing (the monotonicity that makes the dual Newton linearization
    uniformly invertible).
    """

    base: PsiSpec

    def _pieces(self, y, z):
        """(w*, q = (-y, 1)/w*, v = z/w*): psi's arguments are (v, q)."""
        w = wstar(y)
        return w, unproject(y), np.asarray(z, dtype=float) / w

    def evaluate(self, y, z):
        _, q, v = self._pieces(y, z)
        return 1.0 / self.base.evaluate(v, q)

    def partial_z(self, y, z):
        w, q, v = self._pieces(y, z)
        f = self.base.evaluate(v, q)
        return -self.base.partial_z(v, q) / (w * f * f)

    def partial_y(self, y, z):
        y, z = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
        w, q, v = self._pieces(y, z)
        n = y.shape[-1]
        f = self.base.evaluate(v, q)
        fz = self.base.partial_z(v, q)
        fp = self.base.partial_p(v, q)
        w3 = w[..., None] ** 3
        # dv/dy_m = -z y_m / w^3 ; dq_i/dy_m = -delta_im/w + y_i y_m/w^3 ;
        # dq_{n+1}/dy_m = -y_m / w^3
        dv = -z[..., None] * y / w3
        term = fz[..., None] * dv
        term += -fp[..., :n] / w[..., None] + (
            (fp[..., :n] * y).sum(axis=-1)[..., None] * y
        ) / w3
        term += -fp[..., n][..., None] * y / w3
        return -term / (f * f)[..., None]


def psi_conversions(psi: PsiSpec):
    """(psi_tilde, psi_star) from a primal psi.

    psi_tilde(x, v) = 1/psi(v, x) is the sphere-model right-hand side
    (x a unit normal, v the support value); psi_star is the chart-model DualPsi.
    """

    def psi_tilde(x, v):
        return 1.0 / psi.evaluate(v, np.asarray(x, dtype=float))

    return psi_tilde, DualPsi(psi)


def dual_residual(jet_star: Jets, k: int, psi: PsiSpec) -> float:
    """F*(w* b* D^2u* b*) - psi*(y, u*) at a dual jet."""
    pack = dual_chart_pack(jet_star)
    op = symfun.eval_operator(symfun.SpectrumRequest(pack.dual_matrix, k, "dual"))
    _, star = psi_conversions(psi)
    return op.value - star.evaluate(jet_star.point, jet_star.value)


@dataclass
class SampledFunction:
    """A convex function known at sample points, with a jet oracle.

    jets maps points (..., n) to the function's Jets there.  By default it
    is a local quadratic least-squares fit of the sampled values: gradients
    are then second-order accurate, which is the accuracy class of every
    sampled-transform contract here (the solver's primal recovery asks the
    grid's cubic-fit oracle, grid.GridJetInterpolant, instead).
    """

    points: np.ndarray
    values: np.ndarray
    jets: Optional[Callable[[np.ndarray], Jets]] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.jets is None:
            self.jets = JetInterpolant(self.points, self.values, degree=2)


def invert_gradient_map(
    jets: Callable[[np.ndarray], Jets],
    targets: np.ndarray,
    seeds: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 60,
    stall_tol: float = 1e-8,
):
    """Solve Du(x_i) = targets_i for every i by damped Newton from seeds_i.

    Array-first: targets and seeds are (n, dim), and jets is an oracle
    mapping points (m, dim) to Jets (m,) there.  Returns the Jets (n,) at
    the solutions, whose .point is x, and the iterations (n,).  Every
    sample follows the rule it would follow alone and is frozen once done:
    a full Newton step halved down to 1e-8 until it meets the Armijo
    decrease (1e-4) of |Du - target|; converged at tol.  Each round asks the
    oracle only for the samples still iterating, so with an oracle that
    answers a batch as it answers each point alone, sample i's result does
    not depend on the rest of the batch.

    Estimated jet oracles are only piecewise smooth (the fitting patch
    switches between queries), so the iteration may stall at the oracle's
    roughness level; a stall below stall_tol counts as converged, anything
    larger fails that sample.  After the batch, OutOfImageError names the
    first failing target (lowest index).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    # own copies of the jets at the seeds, updated in place
    at = Jets(*map(np.array, jets(np.array(seeds, dtype=float, ndmin=2))))
    rn = np.linalg.norm(at.gradient - targets, axis=-1)
    iters = np.full(len(rn), max_iter)
    failed = np.zeros(len(rn), dtype=bool)
    active = np.arange(len(rn))
    for it in range(max_iter):
        done = rn[active] <= tol
        iters[active[done]] = it
        active = active[~done]
        if active.size == 0:
            break
        # a zero LU pivot (what makes np.linalg.solve raise) zeroes the determinant
        singular = np.linalg.det(at.hessian[active]) == 0.0
        failed[active[singular]] = True
        active = active[~singular]
        rhs = (targets - at.gradient)[active]
        step = np.linalg.solve(at.hessian[active], rhs[..., None])[..., 0]
        # backtracking in lockstep: every searching sample tries the same alpha
        searching = np.arange(active.size)
        alpha = 1.0
        while searching.size and alpha > 1e-8:
            idx = active[searching]
            trial = jets(at.point[idx] + alpha * step[searching])
            rn_new = np.linalg.norm(trial.gradient - targets[idx], axis=-1)
            ok = rn_new <= (1.0 - 1e-4 * alpha) * rn[idx]
            acc = idx[ok]
            rn[acc] = rn_new[ok]
            for field, new in zip(at, trial):
                field[acc] = new[ok]
            searching = searching[~ok]
            alpha *= 0.5
        stalled = active[searching]
        iters[stalled] = it
        failed[stalled[~(rn[stalled] <= stall_tol)]] = True
        active = np.delete(active, searching)
    # samples that ran out of iterations: near-converged counts
    failed[active[~(rn[active] <= max(tol * 10, stall_tol))]] = True
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise OutOfImageError(targets[i], rn[i])
    return at, iters


def legendre(
    f: SampledFunction,
    targets: Optional[np.ndarray] = None,
    tol: float = 1e-12,
    stall_tol: float = 1e-8,
) -> SampledFunction:
    """Legendre transform of a sampled strictly convex function.

    u*(y) = x(y).y - u(x(y)) with x(y) the Newton inverse of the gradient
    map, seeded from the sample whose gradient is nearest to y.  All targets
    go through one batched invert_gradient_map call, with their seeds from
    one meshfree.nearest search; a failing target raises OutOfImageError
    naming the first one.  Default targets are the gradient images of the
    sample points themselves, so the result is sampled on Du(domain).  The
    returned object carries exact dual jets through the inverse-Hessian
    relation D^2u*(y) = (D^2u(x(y)))^{-1}: a query batch (..., n) is one
    inversion of the same kind, and each of its rows is the one-point call.
    """
    grads = f.jets(f.points).gradient
    if targets is None:
        targets = grads.copy()
    targets = np.atleast_2d(np.asarray(targets, dtype=float))

    def transform(ys: np.ndarray):
        seeds = f.points[nearest(grads, ys, 1)[:, 0]]
        at, _ = invert_gradient_map(f.jets, ys, seeds, tol=tol, stall_tol=stall_tol)
        return at, (at.point * ys).sum(axis=-1) - at.value

    def dual_jets(ys: np.ndarray) -> Jets:
        ys = np.asarray(ys, dtype=float)
        lead, n = ys.shape[:-1], ys.shape[-1:]
        primal, value = transform(ys.reshape(-1, n[0]))
        return Jets(ys, value.reshape(lead), primal.point.reshape(lead + n),
                    np.linalg.inv(primal.hessian).reshape(lead + n + n))

    return SampledFunction(points=targets, values=transform(targets)[1], jets=dual_jets)
