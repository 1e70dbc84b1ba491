"""Numeric positivity of the boundary barrier on its three boundary pieces.

The barrier lives in boundary-adapted coordinates at a boundary point: with
the inward normal as the vertical axis and the boundary locally the graph
x_n = rho(x'), it reads

    phi(x) = -rho(x') + x_n + delta |x'|^2 - K x_n^2,

with delta a sixth of the smallest boundary curvature.  On the boundary of
the collar {rho < x_n < rho + r^2, |x'| < r} it is bounded below piecewise by
delta/2 |x'|^2, r^2/2 and delta r^2/2 once r is small.  These are evaluation
helpers for the test suite only; the maximum-principle argument they support
is not mechanized.
"""

import numpy as np
import pytest

from khgraph import bodies


def boundary_frame(body, theta):
    x0 = body.boundary_param(theta)
    nu = np.asarray(body.grad_h(x0), dtype=float)
    nu /= np.linalg.norm(nu)
    tau = np.array([-nu[1], nu[0]])
    return x0, tau, nu


def boundary_graph(body, x0, tau, nu, t):
    """Height rho(t) of the boundary over the tangent line (inward positive).

    Broadcasts over t: every height is bisected at once, each with the
    steps it would take alone.
    """
    t = np.asarray(t, dtype=float)
    lo, hi = -0.5, 0.5
    f = lambda s: body.h(x0 + t[..., None] * tau + s[..., None] * nu)  # noqa: E731
    # boundary passes between the tangent line exterior and deep interior
    outside = f(np.zeros_like(t)) > 0
    a = np.where(outside, lo, 0.0)
    b = np.where(outside, 0.0, hi)
    for _ in range(80):
        mid = 0.5 * (a + b)
        above = f(mid) > 0
        a, b = np.where(above, a, mid), np.where(above, mid, b)
    while (below := f(b) < 0).any():
        b = np.where(below, 0.5 * (a + b), b)
    return 0.5 * (a + b)


@pytest.mark.parametrize(
    "body,theta",
    [
        (bodies.ball(0.5), 0.7),
        (bodies.ellipse((0.45, 0.3)), 0.3),
        (bodies.ellipse((0.45, 0.3)), 1.4),
    ],
)
def test_barrier_positive_on_collar_boundary(body, theta):
    x0, tau, nu = boundary_frame(body, theta)
    kappas = [body.boundary_curvature(t) for t in np.linspace(0, 2 * np.pi, 64)]
    delta = min(kappas) / 6.0
    big_k = 1.0
    r = 0.04

    ts = np.linspace(-r, r, 41)  # holds +-r, the side walls' t
    heights = dict(zip(ts.tolist(), boundary_graph(body, x0, tau, nu, ts)))

    def rho(t):
        return heights[float(t)]

    def phi(t, s):
        return -rho(t) + s + delta * t * t - big_k * s * s

    # piece 1: along the boundary graph itself
    for t in ts:
        assert phi(t, rho(t)) >= 0.5 * delta * t * t - 1e-12
    # piece 2: the interior lid x_n = rho + r^2
    for t in ts:
        assert phi(t, rho(t) + r * r) >= 0.5 * r * r
    # piece 3: the side walls |x'| = r
    for s in np.linspace(0, r * r, 21):
        for t in (-r, r):
            assert phi(t, rho(t) + s) >= 0.5 * delta * r * r


def test_barrier_concavity_direction(dummy=None):
    # -phi is convex in x' and x_n separately for the shipped constants
    body = bodies.ball(0.5)
    x0, tau, nu = boundary_frame(body, 0.2)
    delta = (1.0 / 0.5) / 6.0
    big_k = 1.0
    rho = lambda t: boundary_graph(body, x0, tau, nu, t)  # noqa: E731
    h = 1e-3
    # d2/dt2 (-phi) = rho'' - 2 delta >= 2 kappa/6 > 0 for the ball
    second = (rho(h) - 2 * rho(0.0) + rho(-h)) / h**2 - 2 * delta
    assert second > 0
