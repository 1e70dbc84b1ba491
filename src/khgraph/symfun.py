"""Elementary symmetric functions of eigenvalues and the two curvature operators.

The primal operator is F(A) = sigma_k(lambda(A))^(1/k) and the dual operator is
F*(A) = (sigma_n / sigma_{n-k})^(1/k)(lambda(A)); on reciprocal spectra they are
exact reciprocals of each other, which is the algebraic backbone of the
Legendre duality used everywhere else in the package.

All functions here are pure and thread-safe.  The working range is small dense
symmetric matrices (n <= 8); eigenpairs come from LAPACK through
np.linalg.eigh, whose gufunc factors each matrix on its own; eigh below gives
a matrix with a non-finite entry NaN eigenpairs instead.  The tests keep a
one-matrix cyclic Jacobi iteration as the LAPACK-independent oracle.

Broadcast contract: every kernel takes leading axes, matrices (..., n, n) and
spectra (..., n), and one matrix is the 0-d case of the same code.  Each batch
row is bit for bit the one-matrix call: eigh runs the same LAPACK call per
matrix, matrix products go through the same BLAS call per row, and the 1/k-th
powers use np.float_power, which calls libm's pow.  np.power on arrays takes a
vectorised pow (AVX-512 on x86) that is up to 1 ulp from libm's, so it would
move a value between a batch and a single call.
A cone violation anywhere in a batch raises ConeViolationError with the
spectrum of the lowest-index failing item.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConeViolationError

# Relative spectral gap below which per-eigenvalue partial derivatives are
# merged (divided-difference limit for a symmetric spectral function).
DEGENERATE_GAP = 1e-8

_SYMMETRY_TOL = 1e-13


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """a symmetrised; ValueError unless square and symmetric to 1e-13 * max(1, |a|max).

    a is (..., n, n); the tolerance is per matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    at = a.swapaxes(-1, -2)
    scale = np.maximum.reduce(np.abs(a), axis=(-2, -1), initial=1.0)
    asym = np.maximum.reduce(np.abs(a - at), axis=(-2, -1), initial=0.0)
    if np.count_nonzero(asym > _SYMMETRY_TOL * scale):
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (a + at)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis, a (..., m) and b (..., m) broadcast, by BLAS dot.

    A stacked (1, m) @ (m, 1) product calls, per row, the same dot as a @ b
    of two vectors, so a batch row is bit for bit the one-vector product (an
    elementwise sum or a matrix-vector product rounds differently).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _first(values: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The item of values (bad.shape + ...) at the lowest index where bad holds."""
    return values[np.unravel_index(np.argmax(bad), bad.shape)]


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


def sigma_k(lam: np.ndarray, k: int):
    """k-th elementary symmetric function along the last axis of lam (..., n)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"order k = {k} out of range 1..{n}")
    return sigma_all(lam)[..., k]


def sigma_drop(lam: np.ndarray) -> np.ndarray:
    """e_0..e_{n-1} of lam with entry p removed, for every p (rows).

    lam (..., n) gives (..., n, n): row p is sigma_all of the other entries,
    gathered in their order through one index table.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    j = np.arange(n - 1)
    rest = j + (j >= np.arange(n)[:, None])  # row p: 0..n-1 without p
    return sigma_all(lam[..., rest])


@dataclass
class SpectrumRequest:
    """Evaluation request for one of the two curvature operators.

    mode 'primal' evaluates sigma_k^(1/k); mode 'dual' evaluates
    (sigma_n/sigma_{n-k})^(1/k).  Both require the spectrum in the positive
    cone (strictly convex regime).  A is one matrix (n, n) or a batch
    (..., n, n) sharing the mode.  k is one int for every matrix or an
    integer array broadcasting against A's leading axes, one order per
    matrix; each row then is bit for bit the call with its own int k.
    """

    A: np.ndarray
    k: int | np.ndarray
    mode: str = "primal"

    def __post_init__(self):
        self.A = require_symmetric(self.A)
        n = self.A.shape[-1]
        k = np.asarray(self.k)
        if k.ndim:
            if not np.issubdtype(k.dtype, np.integer):
                raise ValueError(f"orders k must be integers, got dtype {k.dtype}")
            self.k = k = np.broadcast_to(k, self.A.shape[:-2])
        bad = ~((1 <= k) & (k <= n))
        if np.count_nonzero(bad):
            raise ValueError(f"order k = {k[bad][0]} out of range 1..{n}")
        if self.mode not in ("primal", "dual"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class OperatorValue:
    value: np.ndarray  # (...); a float for one matrix
    gradient: np.ndarray  # F^{ij} = dF/da_{ij}, independent-entry convention
    eigenvalues: np.ndarray  # ascending


def _column(a: np.ndarray, j) -> np.ndarray:
    """a[..., j] for an int j, or per item for j an integer array over a's leading axes."""
    if not np.ndim(j):
        return a[..., j]
    j = np.reshape(j, np.shape(j) + (1,) * (a.ndim - np.ndim(j)))
    return np.take_along_axis(a, j, axis=-1)[..., 0]


def _spectral_partials(lam: np.ndarray, k, mode: str):
    """Operator values (...) and per-eigenvalue partials d(phi)/d(lambda_p) (..., n).

    k is an int or an integer array (...), one order per spectrum.
    """
    n = lam.shape[-1]
    e = sigma_all(lam)
    drops = sigma_drop(lam)
    if mode == "primal":
        sk = _column(e, k)
        bad = sk <= 0.0
        if np.count_nonzero(bad):
            raise ConeViolationError(_first(lam, bad))
        value = np.float_power(sk, 1.0 / k)
        # d sigma_k / d lambda_p = sigma_{k-1}(lambda with p removed)
        phi = (value / (k * sk))[..., None] * _column(drops, k - 1)
        return value, phi
    sn, snk = e[..., n], _column(e, n - k)
    bad = (sn <= 0.0) | (snk <= 0.0)
    if np.count_nonzero(bad):
        raise ConeViolationError(_first(lam, bad))
    value = np.float_power(sn / snk, 1.0 / k)
    dsn = drops[..., n - 1]
    # sigma_{n-k-1} of n - 1 entries; none (zero) at k = n
    dsnk = np.where(np.expand_dims(np.less(k, n), -1), _column(drops, n - k - 1), 0.0)
    phi = (value / k)[..., None] * (dsn / sn[..., None] - dsnk / snk[..., None])
    return value, phi


def _merge_degenerate(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Average partials over near-degenerate eigenvalue clusters, per spectrum.

    For a symmetric spectral function the first divided difference of phi
    tends to the common partial as the gap closes; averaging inside a cluster
    is that limit and keeps the matrix gradient stable when eigenvectors are
    ill-conditioned.  lam, phi (..., n); only spectra with a cluster are
    visited.
    """
    n = lam.shape[-1]
    gap = DEGENERATE_GAP * np.maximum.reduce(np.abs(lam), axis=-1, initial=1e-300)
    close = ~(lam[..., 1:] - lam[..., :-1] > gap[..., None])
    if not np.count_nonzero(close):
        return phi
    phi = phi.copy()
    rows_lam, rows_phi = lam.reshape(-1, n), phi.reshape(-1, n)
    for r in np.flatnonzero(close.reshape(-1, n - 1).any(axis=-1)):
        row_lam, row_phi, row_gap = rows_lam[r], rows_phi[r], gap.reshape(-1)[r]
        start = 0
        for i in range(1, n + 1):
            if i == n or row_lam[i] - row_lam[i - 1] > row_gap:
                if i - start > 1:
                    row_phi[start:i] = row_phi[start:i].mean()
                start = i
    return phi


def eigh(a: np.ndarray):
    """(eigenvalues, eigenvectors) of np.linalg.eigh, NaN on non-finite matrices.

    LAPACK's eigh raises LinAlgError for the whole batch when one matrix of
    size 3 to 8 is all-NaN, so only the finite matrices go to it and the
    others get NaN eigenpairs.  An all-finite batch is the plain call.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigh(a)
    lam, v = np.full(a.shape[:-1], np.nan), np.full(a.shape, np.nan)
    lam[finite], v[finite] = np.linalg.eigh(a[finite])
    return lam, v


def eval_operator(req: SpectrumRequest) -> OperatorValue:
    """Evaluate F or F* with its matrix gradient by the spectral chain rule.

    The gradient is V diag(dphi/dlambda) V^T from LAPACK's per-matrix eigh
    (the guarded eigh above, so a non-finite matrix gives a NaN row);
    near-degenerate eigenvalue pairs take the divided-difference (cluster
    averaged) partials, so the gradient does not depend on the basis eigh
    picks inside a cluster.  Raises ConeViolationError when a spectrum leaves
    the positive cone.  Fields carry req.A's leading axes.
    """
    lam, v = eigh(req.A)
    bad = lam[..., 0] <= 0.0
    if np.count_nonzero(bad):
        raise ConeViolationError(_first(lam, bad))
    value, phi = _spectral_partials(lam, req.k, req.mode)
    phi = _merge_degenerate(lam, phi)
    grad = (v * phi[..., None, :]) @ v.swapaxes(-1, -2)
    grad = 0.5 * (grad + grad.swapaxes(-1, -2))
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


def duality_product(kappa: np.ndarray, k: int):
    """F_primal(diag kappa) * F_dual(diag 1/kappa); identically 1 in exact arithmetic.

    kappa (..., n) gives (...).
    """
    kappa = np.asarray(kappa, dtype=float)
    bad = np.any(kappa <= 0.0, axis=-1)
    if bad.any():
        raise ConeViolationError(np.sort(_first(kappa, bad)))
    eye = np.eye(kappa.shape[-1])
    primal = eval_operator(SpectrumRequest(kappa[..., None] * eye, k, "primal"))
    dual = eval_operator(SpectrumRequest((1.0 / kappa)[..., None] * eye, k, "dual"))
    return primal.value * dual.value
