"""Strictly convex bodies with uniformly concave defining functions.

A body carries a defining function h with h > 0 inside, h = 0 and |Dh| = 1 on
the boundary, and D^2 h bounded above by a negative multiple of the identity;
Dh is then the interior unit normal field on the boundary, and the boundary
curvature at x is -tau^T D^2h(x) tau for the unit tangent tau.

Every oracle broadcasts over leading axes, and a single point or angle is the
0-d case of the same code: h, grad_h and hess_h take points (..., n) and
return (...), (..., n) and (..., n, n); boundary_param and boundary_tangent
take angles (...) and return (..., 2); gauge_radius maps (...) to (...).
An angle theta is a polar angle about the interior point c: boundary_param(theta)
is the boundary point on the ray c + t (cos theta, sin theta), t > 0, at
distance gauge_radius(theta) from c.

Construction: balls use the closed form (rho^2 - |p-c|^2)/(2 rho), which is
globally smooth.  Ellipses and superellipses are sublevel sets G <= 1 of one
2-homogeneous gauge G, whose boundary frame (x, x', x'') along the polar
angle is in closed form; on them h = d - lambda d^2 / 2 is built on the
distance d to the boundary (closest-point projection by Newton on that
frame): on the boundary Dh = Dd is the unit interior normal, and the
-lambda/2 d^2 correction makes the normal direction uniformly concave.  d has
the usual kink on the medial set deep inside the body; h stays continuous and
concave there and nothing in the solver evaluates second derivatives near it.

The superellipse kind blends the quartic gauge with a small elliptic term so
the axis points keep strictly positive curvature (a pure exponent-q > 2
superellipse has flat points and would fail the concavity probe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridConstructionError
from .meshfree import nearest


def _direction(theta) -> np.ndarray:
    """Unit vectors (..., 2) at angles (...)."""
    t = np.asarray(theta, dtype=float)[..., None]
    return np.concatenate([np.cos(t), np.sin(t)], axis=-1)


def _angle_sampler(param):
    return lambda m: param(np.linspace(0.0, 2.0 * np.pi, m, endpoint=False))


@dataclass
class ConvexBody:
    """A strictly convex planar (or ball: any-dimensional) domain.

    h/grad_h/hess_h is the defining-function oracle on points (..., dim);
    boundary_param maps polar angles (...) about the interior point to the
    boundary points on their rays (..., 2), and boundary_tangent to the unit
    counter-clockwise tangents there; gauge_radius is the distance from the
    interior point to that boundary point; sample_boundary(m) returns
    (m, dim) boundary points.  All of them broadcast over leading axes.
    """

    kind: str
    dim: int
    interior_point: np.ndarray
    h: Callable[[np.ndarray], np.ndarray]
    grad_h: Callable[[np.ndarray], np.ndarray]
    hess_h: Callable[[np.ndarray], np.ndarray]
    boundary_param: Callable[[np.ndarray], np.ndarray]
    boundary_tangent: Callable[[np.ndarray], np.ndarray]
    gauge_radius: Callable[[np.ndarray], np.ndarray]
    sample_boundary: Callable[[int], np.ndarray]
    bounding_radius: float
    params: dict = field(default_factory=dict)

    def concavity_probe(self, n_samples: int = 200, rng=None) -> float:
        """theta_c > 0 such that D^2 h <= -theta_c I on the random probe sample."""
        rng = np.random.default_rng(rng)
        # alternating (theta, r^2) draws, in the order one sample at a time takes them
        draws = rng.uniform([0.0, 0.05] * n_samples, [2.0 * np.pi, 0.95] * n_samples)
        points = gauge_map(self, np.sqrt(draws[1::2]), draws[0::2])
        lam_max = np.linalg.eigvalsh(self.hess_h(points))[:, -1]
        return float(-lam_max.max())

    def boundary_curvature(self, theta):
        """Boundary curvature -tau^T D^2h tau at angles theta (|Dh| = 1 there)."""
        tau = self.boundary_tangent(theta)
        hess = self.hess_h(self.boundary_param(theta))
        return -np.einsum("...i,...ij,...j->...", tau, hess, tau)


def ball(radius: float, center=None, dim: int = 2) -> ConvexBody:
    """Ball of given radius; h = (rho^2 - |p-c|^2) / (2 rho) is globally smooth."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rho = float(radius)
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float).ravel()
    if c.size != dim:
        raise ValueError("center/dim mismatch")

    def h(p):
        p = np.asarray(p, dtype=float)
        return (rho * rho - ((p - c) ** 2).sum(axis=-1)) / (2.0 * rho)

    def grad_h(p):
        p = np.asarray(p, dtype=float)
        return -(p - c) / rho

    def hess_h(p):
        return np.broadcast_to(-np.eye(dim) / rho, np.shape(p)[:-1] + (dim, dim)).copy()

    def boundary_param(theta):
        if dim != 2:
            raise NotImplementedError("angle parameterization is planar only")
        return c + rho * _direction(theta)

    def boundary_tangent(theta):
        return _direction(theta)[..., ::-1] * [-1.0, 1.0]  # (-sin, cos)

    def sample_sphere(m):
        # boundary sampling for n != 2 uses deterministic sphere directions
        rng = np.random.default_rng(1234)
        dirs = rng.normal(size=(m, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return c + rho * dirs

    return ConvexBody(
        kind="ball",
        dim=dim,
        interior_point=c,
        h=h,
        grad_h=grad_h,
        hess_h=hess_h,
        boundary_param=boundary_param,
        boundary_tangent=boundary_tangent,
        gauge_radius=lambda theta: np.full(np.shape(theta), rho),
        sample_boundary=_angle_sampler(boundary_param) if dim == 2 else sample_sphere,
        bounding_radius=float(np.linalg.norm(c) + rho),
        params={"radius": rho, "center": c.tolist()},
    )


class _DistanceBody:
    """Closest-point machinery of the gauge bodies, on their boundary frame."""

    def __init__(self, boundary_frame, lam: float):
        # boundary point and its first two theta-derivatives, from one call
        self.frame = boundary_frame
        self.lam = float(lam)
        # the coarse scan that seeds each projection does not depend on the query
        self.scan_thetas = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
        self.scan_pts = boundary_frame(self.scan_thetas)[0]

    def closest_theta(self, p: np.ndarray) -> np.ndarray:
        """Polar angle of the boundary point closest to each point (..., 2), shape (...).

        Newton from the nearest scan sample; each point stops on its own when
        the second variation is not positive, its step is below 1e-15, or
        after 60 iterations.
        """
        p = np.asarray(p, dtype=float)
        q = p.reshape(-1, 2)
        theta = self.scan_thetas[nearest(self.scan_pts, q, 1)[:, 0]]
        live = np.arange(theta.size)
        for _ in range(60):
            x, t1, t2 = self.frame(theta[live])
            diff = x - q[live]
            g = (diff * t1).sum(axis=-1)
            hh = (t1 * t1).sum(axis=-1) + (diff * t2).sum(axis=-1)
            go = hh > 0.0
            live, step = live[go], -g[go] / hh[go]
            theta[live] += np.minimum(np.maximum(step, -0.5), 0.5)
            live = live[np.abs(step) >= 1e-15]
            if not live.size:
                break
        return theta.reshape(p.shape[:-1])

    def signed_pieces(self, p: np.ndarray):
        """(d, Dd, curvature at contact, tangent at contact) for inside points."""
        p = np.asarray(p, dtype=float)
        theta = self.closest_theta(p)
        x, t1, t2 = self.frame(theta)
        speed = np.linalg.norm(t1, axis=-1)
        tau = t1 / speed[..., None]
        # ccw parameterization: interior left
        nrm_in = np.stack([-tau[..., 1], tau[..., 0]], axis=-1)
        d = ((p - x) * nrm_in).sum(axis=-1)  # signed: positive inside
        cross = t1[..., 0] * t2[..., 1] - t1[..., 1] * t2[..., 0]
        kappa = cross / speed**3
        return d, nrm_in, kappa, tau

    def h(self, p) -> np.ndarray:
        d, _, _, _ = self.signed_pieces(p)
        return d - 0.5 * self.lam * d * d

    def grad_h(self, p) -> np.ndarray:
        d, nrm, _, _ = self.signed_pieces(p)
        return (1.0 - self.lam * d)[..., None] * nrm

    def hess_h(self, p) -> np.ndarray:
        d, nrm, kappa, tau = self.signed_pieces(p)
        denom = 1.0 - kappa * d
        dd2 = -(kappa / denom)[..., None, None] * np.einsum("...i,...j->...ij", tau, tau)
        return (1.0 - self.lam * d)[..., None, None] * dd2 - self.lam * np.einsum(
            "...i,...j->...ij", nrm, nrm
        )


def _gauge_body(kind, center, semi_axes, q, mu, angle, params) -> ConvexBody:
    """The body G <= 1 of the gauge G = (1-mu)(|v1|^q + |v2|^q)^(2/q) + mu |v|^2.

    v = Q^T (p - c) / (a, b), with Q the rotation by angle.  G is
    2-homogeneous, so the boundary point on the ray at polar angle theta is
    x = c + r d with r = G(d)^(-1/2).  G's theta-derivatives follow from
    d' = d_perp and d_perp' = -d, and with them r', r'' and the frame
    x' = r' d + r d_perp, x'' = (r'' - r) d + 2 r' d_perp, all in closed
    form.  The ellipse is q = 2 (G = |v|^2 for any mu), the superellipse
    angle = 0.
    """
    a, b = (float(s) for s in semi_axes)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("semi-axes must be positive")
    c = np.zeros(2) if center is None else np.asarray(center, dtype=float).ravel()
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    scale, turn = np.array([a, b]), np.array([-1.0 / a, 1.0 / b])

    def pair(x):
        return x[..., 0] + x[..., 1]

    def polar(theta):
        """d, r, r'/r and (r'' - r)/r at angles theta.

        Along d, v' = Q^T d_perp / (a, b) and v'' = -v.  With S the sum of
        |v_i|^q and P = (1-mu) S^(2/q): G'/2 = P A + mu v.v' and
        G''/2 + G = P ((2-q) A^2 + (q-1) B) + mu |v'|^2, where
        A = sum |v_i|^(q-2) v_i v_i' / S and B = sum |v_i|^(q-2) v_i'^2 / S.
        r = G^(-1/2) then gives r'/r = -G'/(2G) and
        (r'' - r)/r = 3 (r'/r)^2 - (G''/2 + G)/G.
        """
        d = _direction(theta)
        u = d @ rot  # Q^T d per point
        v = u / scale
        dv = u[..., ::-1] * turn
        w = np.abs(v) ** (q - 2.0) * dv
        s = pair(np.abs(v) ** q)
        p = (1.0 - mu) * s ** (2.0 / q)
        g = p + mu * pair(v * v)
        slope = pair(v * w) / s  # A
        r1 = -(p * slope + mu * pair(v * dv)) / g
        curv = p * ((2.0 - q) * slope * slope + (q - 1.0) * pair(dv * w) / s)  # G''/2 + G
        curv += mu * pair(dv * dv)
        return d, 1.0 / np.sqrt(g), r1, 3.0 * r1 * r1 - curv / g

    def frame(theta):
        d, r, r1, r2 = polar(theta)
        rd = r[..., None] * d
        rdp = rd[..., ::-1] * [-1.0, 1.0]  # r d_perp
        r1, r2 = r1[..., None], r2[..., None]
        return c + rd, r1 * rd + rdp, r2 * rd + 2.0 * r1 * rdp

    def gauge_radius(theta):
        return polar(theta)[1]

    # the inradius estimate fixes the concavity weight lambda
    with np.errstate(all="ignore"):
        radii = gauge_radius(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    if not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise ValueError(f"{kind} gauge is not finite and positive")
    core = _DistanceBody(frame, 1.0 / (1.6 * radii.min()))

    def param(theta):
        return frame(theta)[0]

    def boundary_tangent(theta):
        t1 = frame(theta)[1]
        return t1 / np.linalg.norm(t1, axis=-1, keepdims=True)

    return ConvexBody(
        kind=kind,
        dim=2,
        interior_point=c,
        h=core.h,
        grad_h=core.grad_h,
        hess_h=core.hess_h,
        boundary_param=param,
        boundary_tangent=boundary_tangent,
        gauge_radius=gauge_radius,
        sample_boundary=_angle_sampler(param),
        bounding_radius=float(np.linalg.norm(c) + max(a, b)),
        params={"semi_axes": [a, b], "center": c.tolist(), **params},
    )


def ellipse(semi_axes, center=None, angle: float = 0.0) -> ConvexBody:
    """Ellipse with given semi-axes, optionally rotated about its center (q = 2)."""
    return _gauge_body(
        "ellipse", center, semi_axes, 2.0, 0.0, float(angle), {"angle": float(angle)}
    )


def superellipse(
    semi_axes, exponent: float, center=None, blend: float = 0.1
) -> ConvexBody:
    """Blended superellipse: gauge^2 = (1-mu) [(x/a)^q + (y/b)^q]^(2/q) + mu [(x/a)^2 + (y/b)^2].

    For exponent q >= 2; the elliptic blend keeps the curvature strictly
    positive at the axis points, where the pure superellipse is flat.
    """
    qexp = float(exponent)
    if qexp < 2.0:
        raise ValueError("superellipse exponent must be >= 2")
    mu = float(blend)
    return _gauge_body(
        "superellipse", center, semi_axes, qexp, mu, 0.0, {"exponent": qexp, "blend": mu}
    )


def gauge_map(body: ConvexBody, r, theta) -> np.ndarray:
    """Points at gauge fractions r in directions theta (broadcast) from the interior point."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise GridConstructionError("negative gauge fraction")
    return body.interior_point + (r * body.gauge_radius(theta))[..., None] * _direction(
        theta
    )
