"""Prescribed-curvature right-hand sides psi(z, p) and the shipped families.

z is the support value <X, N> of the graph and p the upward unit normal, an
(n+1)-vector with positive last component.  The registry ships three families:

* constant c,
* normal-only psi0(p), a positive polynomial in the components of p (a
  trigonometric polynomial in the normal angles),
* the exponential continuation family exp(-eps * z / p_{n+1}) * psi0(p),
  which is the monotone perturbation driving the eps-continuation.

All oracles broadcast over leading axes: z (...) and p (..., n+1) give
(...) values and (..., n+1) p-partials; one point is the 0-d case, and each
batch row is bit for bit the one-point call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class PsiSpec:
    """A positive right-hand side psi(z, p) with its two partial derivatives.

    evaluate(z, p) must be positive on its declared domain; partial_z and
    partial_p are d psi/dz (shape (...)) and d psi/dp (shape (..., n+1)).
    Every shipped family satisfies psi_z <= 0, the structural condition
    making the dual problem monotone.
    """

    kind: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    partial_z: Callable[[np.ndarray, np.ndarray], np.ndarray]
    partial_p: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _zero_partial_z(z, p):
    """partial_z of the z-independent families."""
    return np.zeros(np.shape(z))


def constant_psi(value: float) -> PsiSpec:
    """psi == value > 0."""
    if value <= 0.0:
        raise ValueError("constant psi must be positive")
    c = float(value)

    def ev(z, p):
        return np.full(np.shape(z), c)

    def dp(z, p):
        return np.zeros(np.shape(p))

    return PsiSpec("constant", ev, _zero_partial_z, dp)


def normal_poly_psi(const: float, linear=None, quadratic=None) -> PsiSpec:
    """Normal-only psi0(p) = const + a.p + p^T B p, positive by construction.

    On the unit sphere this is a trigonometric polynomial of the normal
    angles.  Positivity is checked crudely (const must dominate the
    coefficient mass) so registry entries cannot go negative on the sphere.
    """
    a = None if linear is None else np.asarray(linear, dtype=float)
    b = None if quadratic is None else np.asarray(quadratic, dtype=float)
    if b is not None:
        b = 0.5 * (b + b.T)
    mass = (0.0 if a is None else float(np.abs(a).sum())) + (
        0.0 if b is None else float(np.abs(b).sum())
    )
    if const <= mass:
        raise ValueError("constant term must dominate |p|-coefficients for positivity")

    def ev(z, p):
        p = np.asarray(p, dtype=float)
        out = np.full(p.shape[:-1], float(const))
        if a is not None:
            # not p @ a: BLAS rounds one point and a batch row differently
            out = out + (p * a).sum(axis=-1)
        if b is not None:
            out = out + np.einsum("...i,ij,...j->...", p, b, p)
        return out

    def dp(z, p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape)
        if a is not None:
            out = out + a
        if b is not None:
            out = out + 2.0 * (p @ b)
        return out

    return PsiSpec("normal-only", ev, _zero_partial_z, dp)


def exponential_psi(eps: float, base: PsiSpec) -> PsiSpec:
    """Continuation family exp(-eps z / p_{n+1}) * psi0(p) around a normal-only base.

    For eps > 0 this satisfies both structural conditions: decreasing in z and
    blowing up / decaying as z -> -inf / +inf.
    """
    if eps < 0.0:
        raise ValueError("continuation parameter must be >= 0")
    e = float(eps)

    def ev(z, p):
        z = np.asarray(z, dtype=float)
        p = np.asarray(p, dtype=float)
        return np.exp(-e * z / p[..., -1]) * base.evaluate(z, p)

    def dz(z, p):
        z = np.asarray(z, dtype=float)
        p = np.asarray(p, dtype=float)
        f = np.exp(-e * z / p[..., -1])
        return f * (base.partial_z(z, p) - (e / p[..., -1]) * base.evaluate(z, p))

    def dp(z, p):
        z = np.asarray(z, dtype=float)
        p = np.asarray(p, dtype=float)
        f = np.exp(-e * z / p[..., -1])
        out = f[..., None] * base.partial_p(z, p)
        # d/dp_{n+1} of the exponent: +eps z / p_{n+1}^2
        out[..., -1] += f * base.evaluate(z, p) * e * z / p[..., -1] ** 2
        return out

    return PsiSpec("exponential", ev, dz, dp)


def cap_constant_psi(rho: float, k: int, n: int = 2) -> PsiSpec:
    """The constant psi for which the spherical cap over B_rho is exact.

    The cap of radius R = sqrt(1 + rho^2) has sigma_k^(1/k)(kappa) =
    binom(n,k)^(1/k) / R.
    """
    from math import comb

    r = float(np.sqrt(1.0 + rho * rho))
    return constant_psi(comb(n, k) ** (1.0 / k) / r)


def cap_manufactured_psi(rho: float, k: int, eps: float, n: int = 2) -> PsiSpec:
    """Normal-only psi0 making the centered cap exact at a fixed eps level.

    psi0(p) = (binom(n,k)^(1/k)/R) * exp(eps R / p_{n+1}): wrapped in the
    exponential continuation family at the same eps, the dual right-hand
    side at u* = R w_star collapses back to the cap constant, so the cap is
    an exact solution of the eps-perturbed problem.  Used by convergence
    -order tests, which need a nonsingular Jacobian and a closed form at the
    same time.
    """
    from math import comb

    r = float(np.sqrt(1.0 + rho * rho))
    c0 = comb(n, k) ** (1.0 / k) / r
    e = float(eps)

    def ev(z, p):
        p = np.asarray(p, dtype=float)
        return c0 * np.exp(e * r / p[..., -1])

    def dp(z, p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape)
        out[..., -1] = -c0 * np.exp(e * r / p[..., -1]) * e * r / p[..., -1] ** 2
        return out

    return PsiSpec("normal-only", ev, _zero_partial_z, dp)
