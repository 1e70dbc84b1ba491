"""Elementary symmetric functions of eigenvalues and the two curvature operators.

The primal operator is F(A) = sigma_k(lambda(A))^(1/k) and the dual operator is
F*(A) = (sigma_n / sigma_{n-k})^(1/k)(lambda(A)); on reciprocal spectra they are
exact reciprocals of each other, which is the algebraic backbone of the
Legendre duality used everywhere else in the package.

All functions here are pure and thread-safe.  The working range is small dense
symmetric matrices (n <= 8); eigenvalues come from a cyclic Jacobi iteration
rather than LAPACK so that the test suite can cross-check the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConeViolationError

# Relative spectral gap below which per-eigenvalue partial derivatives are
# merged (divided-difference limit for a symmetric spectral function).
DEGENERATE_GAP = 1e-8

_SYMMETRY_TOL = 1e-13


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """a symmetrised; ValueError unless square and symmetric to 1e-13 * max(1, |a|max)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def sigma_all(lam: np.ndarray) -> np.ndarray:
    """Elementary symmetric functions e_0..e_n along the last axis of lam.

    Prefix-polynomial recurrence: expand prod_i (1 + lam_i t) and read off the
    coefficients.  O(n^2), stable for mixed magnitudes.  Broadcasts over
    leading axes: lam (..., n) gives (..., n + 1).
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        e[..., 1 : i + 2] = e[..., 1 : i + 2] + lam[..., i : i + 1] * e[..., 0 : i + 1]
    return e


def sigma_k(lam: np.ndarray, k: int) -> float:
    """k-th elementary symmetric function of the entries of lam."""
    lam = np.asarray(lam, dtype=float).ravel()
    n = lam.size
    if not 1 <= k <= n:
        raise ValueError(f"order k = {k} out of range 1..{n}")
    return float(sigma_all(lam)[k])


def sigma_drop(lam: np.ndarray) -> np.ndarray:
    """e_0..e_{n-1} of lam with entry p removed, for every p (rows)."""
    lam = np.asarray(lam, dtype=float).ravel()
    n = lam.size
    out = np.empty((n, n))
    for p in range(n):
        out[p] = sigma_all(np.delete(lam, p))
    return out


def jacobi_eigh(a: np.ndarray):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, orthogonal matrix V with columns matching).
    Iterates full sweeps, at most 60, until the off-diagonal Frobenius norm
    drops below 1e-13 * ||A||_F.
    """
    a = require_symmetric(a)
    n = a.shape[0]
    v = np.eye(n)
    a = a.copy()
    norm = max(np.linalg.norm(a), 1e-300)
    for _ in range(60):
        # summed directly: ||A||^2 - ||diag A||^2 cancels below sqrt(eps) ||A||
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= 1e-13 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    lam = np.diag(a).copy()
    order = np.argsort(lam)
    return lam[order], v[:, order]


@dataclass
class SpectrumRequest:
    """Evaluation request for one of the two curvature operators.

    mode 'primal' evaluates sigma_k^(1/k); mode 'dual' evaluates
    (sigma_n/sigma_{n-k})^(1/k).  Both require the spectrum in the positive
    cone (strictly convex regime).
    """

    A: np.ndarray
    k: int
    mode: str = "primal"

    def __post_init__(self):
        self.A = require_symmetric(self.A)
        n = self.A.shape[0]
        if not 1 <= self.k <= n:
            raise ValueError(f"order k = {self.k} out of range 1..{n}")
        if self.mode not in ("primal", "dual"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class OperatorValue:
    value: float
    gradient: np.ndarray  # F^{ij} = dF/da_{ij}, independent-entry convention
    eigenvalues: np.ndarray  # ascending


def _spectral_partials(lam: np.ndarray, k: int, mode: str) -> tuple[float, np.ndarray]:
    """Operator value and per-eigenvalue partial derivatives d(phi)/d(lambda_p)."""
    n = lam.size
    e = sigma_all(lam)
    drops = sigma_drop(lam)
    if mode == "primal":
        sk = e[k]
        if sk <= 0.0:
            raise ConeViolationError(lam)
        value = sk ** (1.0 / k)
        # d sigma_k / d lambda_p = sigma_{k-1}(lambda with p removed)
        phi = (value / (k * sk)) * drops[:, k - 1]
        return value, phi
    sn, snk = e[n], e[n - k]
    if sn <= 0.0 or snk <= 0.0:
        raise ConeViolationError(lam)
    ratio = sn / snk
    value = ratio ** (1.0 / k)
    dsn = drops[:, n - 1]
    dsnk = drops[:, n - k - 1] if n - k >= 1 else np.zeros(n)
    phi = (value / k) * (dsn / sn - dsnk / snk)
    return value, phi


def _merge_degenerate(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Average partials over near-degenerate eigenvalue clusters.

    For a symmetric spectral function the first divided difference of phi
    tends to the common partial as the gap closes; averaging inside a cluster
    is that limit and keeps the matrix gradient stable when eigenvectors are
    ill-conditioned.
    """
    gap = DEGENERATE_GAP * max(np.abs(lam).max(), 1e-300)
    phi = phi.copy()
    start = 0
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[i] - lam[i - 1] > gap:
            if i - start > 1:
                phi[start:i] = phi[start:i].mean()
            start = i
    return phi


def eval_operator(req: SpectrumRequest) -> OperatorValue:
    """Evaluate F or F* with its matrix gradient by the spectral chain rule.

    The gradient is V diag(dphi/dlambda) V^T from the Jacobi decomposition;
    near-degenerate eigenvalue pairs take the divided-difference (cluster
    averaged) partials.  Raises ConeViolationError when the spectrum leaves
    the positive cone.
    """
    lam, v = jacobi_eigh(req.A)
    if lam[0] <= 0.0:
        raise ConeViolationError(lam)
    value, phi = _spectral_partials(lam, req.k, req.mode)
    phi = _merge_degenerate(lam, phi)
    grad = (v * phi) @ v.T
    grad = 0.5 * (grad + grad.T)
    return OperatorValue(value=value, gradient=grad, eigenvalues=lam)


def sigma_k_matrix_gradient(a: np.ndarray, k: int) -> np.ndarray:
    """d sigma_k(lambda(A)) / dA as the (k-1)-th Newton transformation.

    T_{k-1}(A) = sigma_{k-1} I - sigma_{k-2} A + ... +- A^{k-1}; a polynomial
    in A, so no eigen-decomposition and no degeneracy handling is needed.
    Used by the primal linearization and as an independent cross-check of the
    spectral route.
    """
    a = require_symmetric(a)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"order k = {k} out of range 1..{n}")
    # sigma_j from Newton's identities on power traces; keeps this eigen-free.
    powers = [np.eye(n)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ a)
    ptraces = [float(np.trace(p @ a)) for p in powers]  # tr A, tr A^2, ...
    sig = [1.0]
    for j in range(1, k):
        s = 0.0
        for i in range(1, j + 1):
            s += (-1) ** (i - 1) * sig[j - i] * ptraces[i - 1]
        sig.append(s / j)
    out = np.zeros_like(a)
    for j in range(k):
        out += (-1) ** j * sig[k - 1 - j] * powers[j]
    return out


def duality_product(kappa: np.ndarray, k: int) -> float:
    """F_primal(diag kappa) * F_dual(diag 1/kappa); identically 1 in exact arithmetic."""
    kappa = np.asarray(kappa, dtype=float).ravel()
    if np.any(kappa <= 0.0):
        raise ConeViolationError(np.sort(kappa))
    primal = eval_operator(SpectrumRequest(np.diag(kappa), k, "primal"))
    dual = eval_operator(SpectrumRequest(np.diag(1.0 / kappa), k, "dual"))
    return primal.value * dual.value


@dataclass
class ConeReport:
    """Report-only cone membership: positivity of the lambda_i and the sigma_j."""

    eigenvalues: np.ndarray
    sigmas: np.ndarray  # sigma_1..sigma_n
    lambda_min: float
    strictly_convex: bool  # lambda_min > 0
    on_boundary: bool  # some lambda_i == 0 within tolerance, none negative


def cone_check(lam: np.ndarray, tol: float = 1e-12) -> ConeReport:
    """Classify a spectrum against the positive cone (never raises)."""
    lam = np.sort(np.asarray(lam, dtype=float).ravel())
    sig = sigma_all(lam)[1:]
    lam_min = float(lam[0])
    scale = max(1.0, float(np.abs(lam).max()))
    return ConeReport(
        eigenvalues=lam,
        sigmas=sig,
        lambda_min=lam_min,
        strictly_convex=lam_min > tol * scale,
        on_boundary=abs(lam_min) <= tol * scale,
    )


def binomial(n: int, k: int) -> int:
    return comb(n, k)
