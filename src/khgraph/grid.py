"""Body-fitted polar grid on a strictly convex planar domain.

Nodes sit on N_r rings of the Minkowski-gauge map about the interior point,
with N_theta rays; ring radii are algebraically clustered toward the boundary
(bounded stretch factor, so the outer ring gap stays proportional to 1/N_r;
a quadratically-thin boundary gap would push second-difference weights past
what float64 can differentiate exactly) and the outermost ring lies on the
boundary exactly.  Each node carries derivative stencils from a weighted
local cubic least-squares fit over a logical patch of 5 rings (clipped at
the center, one-sided over 8 rings at the boundary) and at least 5
consecutive rays; near the center the patch takes as many rays as it needs
to span about one ring gap across the rays (see _logical_patch).  That
makes first and second derivatives exact on cubics and second-order
accurate on smooth functions on every ring.  All windows of a ring have one
shape, and the stencils are written ring by ring into preallocated CSR
tables; each fit solves for the six jet functionals only, in long double
(see meshfree).  A grid is circular when every ring is a circle about the
interior point (the gauge radius is constant, as on every ball); its
windows on one ring are then rotations of one another, so only ray 0's
window of each ring is fitted, all rings of one window shape in one
batched jet_weight_rows call, and ray i takes ray 0's weights turned by
theta_i.  Any other grid fits every window of a ring in one batched call
per ring.  The five operators share one CSR pattern and apply as CSR
products on centred differences; the boundary ring, the last N_theta
rows, applies alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bodies import ConvexBody, gauge_map
from .config import MIN_GRID
from .errors import GridConstructionError
from .geometry import Jets
from .meshfree import jet_weight_rows, patch_jets

STENCIL_RAYS = 5  # fewest rays in a window
STENCIL_RINGS = 5
STENCIL_RINGS_ONESIDED = 8  # wider window tames one-sided weight norms
STENCIL_DEGREE = 3


OPS = ("dx", "dy", "dxx", "dxy", "dyy")


class Stencils:
    """The OPS operators on one CSR pattern, (5, nnz) weights, applied in centered form.

    Derivative weights annihilate constants, so the raw dot product
    sum_j w_ij u_j cancels O(|u|) down to O(h^k |D u|); doing the
    subtraction before multiplying, sum_j w_ij (u_j - u_i), keeps the
    rounding floor at eps * sum|w| * h * |Du| instead of eps * sum|w| * |u|.
    That factor is what lets second derivatives on boundary-clustered rings
    stay exact on quadratics to 1e-11 in float64.

    Each operator applies as one CSR matrix-vector product: an n x nnz
    matrix whose row i holds that row's weights against the centred
    differences diff = u[indices] - u[rows], summed in stored order.  A
    contiguous block of rows, such as the boundary ring, is applied alone
    through its slice of the pattern.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                 rowsums: np.ndarray):
        self.indptr, self.indices, self.weights = indptr, indices, weights
        # row sums (5, n) are the (tiny) defect of the stored weights on
        # constants; they are accumulated in extended precision so they do
        # not re-introduce the cancellation the centered application avoids
        self.rowsums = rowsums
        self.n = indptr.size - 1
        self.rows = np.repeat(np.arange(self.n), np.diff(indptr))
        self.diag = np.flatnonzero(indices == self.rows)  # every window holds its node
        self._blocks = {}  # (first row, end row) -> one CSR matrix per operator

    def apply(self, u: np.ndarray, which=slice(None), rows=slice(None)) -> np.ndarray:
        """The operators OPS[which] applied to u at the rows of the slice rows."""
        u = np.asarray(u, dtype=float)
        lo, hi, _ = rows.indices(self.n)
        a, b = self.indptr[lo], self.indptr[hi]
        diff = u[self.indices[a:b]] - u[self.rows[a:b]]
        mats = self._block(lo, hi)
        return np.stack([
            mats[i] @ diff + self.rowsums[i, lo:hi] * u[lo:hi]
            for i in np.arange(len(self.weights))[which]
        ])

    def _block(self, lo: int, hi: int) -> list:
        """Rows lo:hi of each operator: an (hi - lo) x (entries of those rows) CSR."""
        if (lo, hi) not in self._blocks:
            a, b = self.indptr[lo], self.indptr[hi]
            weights = self.weights[:, a:b]
            pattern = sp.csr_matrix((weights[0], np.arange(b - a), self.indptr[lo : hi + 1] - a),
                                    shape=(hi - lo, b - a))
            mats = [sp.csr_matrix((w, pattern.indices, pattern.indptr), shape=pattern.shape)
                    for w in weights]
            for mat, w in zip(mats, weights):
                mat.data = w  # csr_matrix copies a row of a larger array; share it
            self._blocks[lo, hi] = mats
        return self._blocks[lo, hi]


@dataclass
class StencilOp:
    """One operator of a Stencils: ``op @ u`` applies it, ``op.matrix`` is its CSR."""

    stencils: Stencils
    which: int

    @property
    def matrix(self) -> sp.csr_matrix:
        s, n = self.stencils, self.stencils.indptr.size - 1
        return sp.csr_matrix((s.weights[self.which], s.indices, s.indptr), shape=(n, n))

    def __matmul__(self, u):
        return self.stencils.apply(u, [self.which])[0]


@dataclass
class Grid:
    body: ConvexBody
    n_r: int
    n_theta: int
    radii: np.ndarray
    thetas: np.ndarray
    nodes: np.ndarray  # (N, 2)
    is_boundary: np.ndarray  # (N,)
    interior_idx: np.ndarray
    boundary_idx: np.ndarray
    stencils: Stencils  # dx, dy, dxx, dxy, dyy on one shared pattern
    ops: dict  # 'dx','dy','dxx','dxy','dyy' -> StencilOp, one row of stencils each
    quad_weights: np.ndarray  # integrates over the domain
    spacing: float  # max boundary-vicinity node distance, the 'h' of the grid
    boundary_normals: np.ndarray  # interior unit normals at boundary nodes
    boundary_tangents: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def flat_index(self, ring: int, ray: int) -> int:
        return (ring - 1) * self.n_theta + (ray % self.n_theta)

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Logical (ring, ray) of the node nearest to each physical point.

        Points (..., 2) give integer arrays of shape (...); one point is
        the 0-d case.
        """
        v = np.asarray(points, dtype=float) - self.body.interior_point
        theta = np.arctan2(v[..., 1], v[..., 0]) % (2.0 * np.pi)
        ray = np.rint(theta / (2.0 * np.pi / self.n_theta)).astype(int) % self.n_theta
        rho = self.body.gauge_radius(theta)
        frac = np.linalg.norm(v, axis=-1) / np.maximum(rho, 1e-300)
        ring = np.searchsorted(self.radii, frac) + 1
        return np.clip(ring, 1, self.n_r), ray

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.stencils.apply(u, slice(0, 2)).T

    def boundary_gradient(self, u: np.ndarray) -> np.ndarray:
        """gradient(u)[boundary_idx], from the boundary rows alone (the last N_theta)."""
        return self.stencils.apply(u, slice(0, 2), slice(self.boundary_idx[0], None)).T

    def hessians(self, u: np.ndarray) -> np.ndarray:
        h = self.stencils.apply(u, slice(2, 5))  # dxx, dxy, dyy
        return h[[0, 1, 1, 2]].T.reshape(-1, 2, 2)


def build_grid(body: ConvexBody, n_r: int, n_theta: int) -> Grid:
    """Construct the grid and validated stencil tables."""
    if body.dim != 2:
        raise GridConstructionError("grids are planar (n = 2) only")
    if n_r < MIN_GRID[0] or n_theta < MIN_GRID[1]:
        raise GridConstructionError("need N_r >= 8 and N_theta >= 16")
    # boundary-clustered radii with stretch ~2x inner-to-outer; r_{N_r} = 1
    s = np.arange(1, n_r + 1) / n_r
    radii = s * (1.0 + 0.35 * (1.0 - s))
    thetas = np.arange(n_theta) * 2.0 * np.pi / n_theta

    n_nodes = n_r * n_theta
    nodes = gauge_map(body, radii[:, None], thetas[None, :]).reshape(n_nodes, 2)
    rho = body.gauge_radius(thetas)
    circular = bool(np.all(rho == rho[0]))  # every ring a circle about the interior point
    # star-shapedness / boundary placement sanity
    bidx = np.arange((n_r - 1) * n_theta, n_nodes)
    level = float(np.abs(body.h(nodes[bidx])).max())
    if level > 1e-12 * max(1.0, body.bounding_radius):
        raise GridConstructionError(f"boundary node off the zero level: |h| = {level:.3e}")

    is_boundary = np.zeros(n_nodes, dtype=bool)
    is_boundary[bidx] = True

    stencils = _build_stencils(nodes, radii, thetas, circular)
    ops = {name: StencilOp(stencils, i) for i, name in enumerate(OPS)}
    _validate_stencils(nodes, stencils)

    quad = _quad_weights(radii, rho)

    # grid 'h': largest node separation near the boundary
    last = nodes[bidx]
    ray_gap = np.linalg.norm(last - np.roll(last, 1, axis=0), axis=1).max()
    prev = nodes[(n_r - 2) * n_theta : (n_r - 1) * n_theta]
    ring_gap = np.linalg.norm(last - prev, axis=1).max()
    spacing = float(max(ray_gap, ring_gap))

    normals = body.grad_h(last)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    tangents = np.stack([-normals[:, 1], normals[:, 0]], axis=1)

    return Grid(
        body=body,
        n_r=n_r,
        n_theta=n_theta,
        radii=radii,
        thetas=thetas,
        nodes=nodes,
        is_boundary=is_boundary,
        interior_idx=np.where(~is_boundary)[0],
        boundary_idx=bidx,
        stencils=stencils,
        ops=ops,
        quad_weights=quad,
        spacing=spacing,
        boundary_normals=normals,
        boundary_tangents=tangents,
    )


def _logical_patch(j: int, i, n_r: int, n_theta: int, radii: np.ndarray):
    """Node indices of the stencil window around logical position (ring j, ray i).

    A ray index i gives one window (m,); an array of rays of ring j gives
    rows (..., m), since every window of a ring has the same shape.  Points
    run ring by ring outward and by ascending ray within a ring.

    Rings j-2..j+2, clipped at the center; one-sided windows at the boundary
    widen to 8 rings so the second-difference weight norms stay small
    enough for float64 exactness on quadratics.  The window takes 2k+1
    consecutive rays, k = max(2, ceil(dr_j / (r_j dtheta))): the fewest rays
    whose arc on ring j spans one ring gap dr_j.  That is at most
    ceil(N_theta / 2 pi) (ring 1, where dr_1 = r_1; further out the gap is
    smaller than the radius), so 2k+1 < N_theta for N_theta >= 16.  Near
    the center the window's shape in units of the ring gap then stays about
    the same under refinement.  A fixed ray count makes the inner windows
    wedges ever thinner for their length (width/length ~ j/N_r); their
    cross-ray weights grow faster than 1/h^2, which costs the inner rings
    their order and lifts the residual's rounding floor there.  Rays are
    always consecutive: skipping rays to make patches isotropic would
    alias short azimuthal modes out of the rows and leave the assembled
    Jacobian with near-null oscillatory directions.
    """
    j_lo, j_hi, k = _window_shape(j, n_r, n_theta, radii)
    i = np.asarray(i)
    # ascending ray order within each ring keeps the fit's summation order,
    # and with it the weights to the last bit
    rays = np.sort((i[..., None] + np.arange(-k, k + 1)) % n_theta, axis=-1)
    ring_starts = (np.arange(j_lo, j_hi + 1) - 1) * n_theta
    return (ring_starts[:, None] + rays[..., None, :]).reshape(i.shape + (-1,))


def _window_shape(j: int, n_r: int, n_theta: int, radii: np.ndarray) -> tuple[int, int, int]:
    """(first ring, last ring, k) of ring j's windows; rays i-k..i+k (see _logical_patch)."""
    half = STENCIL_RINGS // 2
    if j + half > n_r:
        j_lo, j_hi = max(1, n_r - STENCIL_RINGS_ONESIDED + 1), n_r
    else:
        j_lo, j_hi = max(1, j - half), j + half
    gap = radii[j - 1] - (radii[j - 2] if j > 1 else 0.0)
    arc = 2.0 * np.pi * radii[j - 1] / n_theta
    return j_lo, j_hi, max(STENCIL_RAYS // 2, int(np.ceil(gap / arc)))


def _build_stencils(
    nodes: np.ndarray, radii: np.ndarray, thetas: np.ndarray, circular: bool
) -> Stencils:
    """The five derivative operators, written ring by ring into preallocated CSR tables.

    A circular grid fits ray 0's window of each ring, the rings of one
    window shape in one batched call, and turns those weights onto the
    other rays (_turn_window); any other grid fits every window of a ring
    in one batched call per ring.  Row sums accumulate each row's weights
    in stored order, in long double.
    """
    n_r, n_theta = radii.size, thetas.size
    rays = np.arange(n_theta)
    shapes = [_window_shape(j, n_r, n_theta, radii) for j in range(1, n_r + 1)]
    widths = [(j_hi - j_lo + 1) * (2 * k + 1) for j_lo, j_hi, k in shapes]
    # rows come in order and each window lists its nodes ascending, so the
    # windows laid end to end are the CSR indices as they stand
    indptr = np.concatenate([[0], np.cumsum(np.repeat(widths, n_theta))])
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    weights = np.empty((len(OPS), indptr[-1]))
    rowsums = np.empty((len(OPS), n_r * n_theta))
    fit_rays = rays[:1] if circular else rays
    batches = {}  # circular: the rings of one window shape; else one ring each
    for j, (j_lo, j_hi, k) in enumerate(shapes, start=1):
        batches.setdefault((j_hi - j_lo, k) if circular else j, []).append(j)
    for rings in batches.values():
        patch = np.stack([_logical_patch(j, fit_rays, n_r, n_theta, radii) for j in rings])
        centers = nodes[(np.array(rings)[:, None] - 1) * n_theta + fit_rays]
        _, w_grad, w_hess = jet_weight_rows(nodes[patch], centers, STENCIL_DEGREE)
        fitted = np.stack([w_grad[..., 0, :], w_grad[..., 1, :], w_hess[..., 0, 0, :],
                           w_hess[..., 0, 1, :], w_hess[..., 1, 1, :]])  # (5, rings, rays, m)
        for t, j in enumerate(rings):
            w = fitted[:, t]  # (5, rays, m)
            if circular:
                w = _turn_window(w[:, 0], shapes[j - 1][2], thetas)
            lo, hi = (j - 1) * n_theta, j * n_theta
            a, b = indptr[lo], indptr[hi]
            indices[a:b] = _logical_patch(j, rays, n_r, n_theta, radii).ravel()
            weights[:, a:b] = w.reshape(len(OPS), -1)
            rowsums[:, lo:hi] = np.cumsum(w.astype(np.longdouble), axis=-1)[..., -1]
    return Stencils(indptr, indices, weights, rowsums)


def _turn_window(w0: np.ndarray, k: int, thetas: np.ndarray) -> np.ndarray:
    """Every ray's weights (5, N_theta, m) on a circular ring, from ray 0's (5, m).

    Ray i's window is ray 0's turned by R = R(theta_i) about the interior
    point, so its gradient rows are R w and its Hessian rows R W R^T.  Within
    each ring of the window, ray 0's columns are reordered so that ray i's
    rays come ascending, as _logical_patch lists them.
    """
    n_theta, width = thetas.size, 2 * k + 1
    rays0 = np.sort(np.arange(-k, k + 1) % n_theta)
    order = np.argsort((rays0 + np.arange(n_theta)[:, None]) % n_theta, axis=1)
    blocks = np.arange(w0.shape[1] // width)[:, None] * width
    gx, gy, a, b, d = w0[:, (blocks + order[:, None, :]).reshape(n_theta, -1)]
    c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    return np.stack([c * gx - s * gy, s * gx + c * gy,
                     c * c * a - 2.0 * c * s * b + s * s * d,
                     c * s * (a - d) + (c * c - s * s) * b,
                     s * s * a + 2.0 * c * s * b + c * c * d])


def _validate_stencils(nodes: np.ndarray, stencils: Stencils) -> None:
    """Quadratics must differentiate exactly (to rounding) at every node."""
    x, y = nodes[:, 0], nodes[:, 1]
    zero, one = np.zeros_like(x), np.ones_like(x)
    scale = max(1.0, float(np.abs(nodes).max()))
    checks = [  # u and its exact (dx, dy, dxx, dxy, dyy)
        (x * x, (2 * x, zero, 2 * one, zero, zero)),
        (x * y, (y, x, zero, one, zero)),
        (y * y, (zero, 2 * y, zero, zero, 2 * one)),
    ]
    for u, exact in checks:
        errs = np.abs(stencils.apply(u) - np.stack(exact)).max(axis=1)
        for name, err in zip(OPS, errs):
            if err > 1e-11 * scale:
                raise GridConstructionError(
                    f"stencil {name} not exact on quadratics: err = {err:.3e}"
                )


class GridJetInterpolant:
    """Jets of grid data at arbitrary points via the logical stencil windows.

    Nearest-neighbor patch selection in Euclidean distance breaks down on the
    strongly anisotropic polar layout; selecting the same logical windows the
    derivative stencils use keeps the fits poised everywhere, including for
    queries slightly outside the boundary ring (mild extrapolation during
    gradient-map inversion).
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        self.values = np.asarray(values, dtype=float).ravel()
        if self.values.size != grid.n_nodes:
            raise ValueError("values length does not match the grid")

    def __call__(self, query: np.ndarray) -> Jets:
        """Jets at query points (..., 2); one query is the 0-d case.

        Queries are grouped by the ring they locate to; all windows of a
        ring have one shape, so each ring present takes one batched fit, and
        a batch answers every query exactly as it would alone.
        """
        query = np.asarray(query, dtype=float)
        q = query.reshape(-1, 2)
        g = self.grid
        rings, rays = g.locate(q)
        out = np.empty(len(q)), np.empty((len(q), 2)), np.empty((len(q), 2, 2))
        for j in np.unique(rings):
            sel = np.flatnonzero(rings == j)
            patch = _logical_patch(int(j), rays[sel], g.n_r, g.n_theta, g.radii)
            rows = jet_weight_rows(g.nodes[patch], q[sel], STENCIL_DEGREE)
            for dst, src in zip(out, patch_jets(rows, self.values[patch])):
                dst[sel] = src
        lead, n = query.shape[:-1], query.shape[-1:]
        value, grad, hess = out
        return Jets(query, value.reshape(lead), grad.reshape(lead + n), hess.reshape(lead + n + n))


def _quad_weights(radii: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Trapezoid-in-r (with the r=0 zero), uniform-in-theta quadrature weights.

    Integrates f over the body with gauge radii rho on the rays: the gauge
    map (r, theta) -> c + r rho(theta) d(theta) has area element
    r rho(theta)^2 dr dtheta.
    """
    gaps = np.diff(radii, prepend=0.0)
    w_rad = 0.5 * (gaps + np.append(gaps[1:], 0.0))
    dtheta = 2.0 * np.pi / rho.size
    return ((w_rad * radii)[:, None] * (rho**2)[None, :] * dtheta).ravel()
