"""Local polynomial least-squares jets for scattered and grid samples.

A query point gets a weighted degree-d polynomial fit over its nearby sample
points; value, gradient and Hessian of the fit at the query are the jet.  The
fit is exact on polynomials up to the chosen degree whenever the neighborhood
is poised, which is what the grid stencil validation asserts.  Degree 3 gives
second-order accurate Hessians on smooth data.

Patches on body-fitted polar grids are anisotropic (near the boundary a
window reaches about four times as far along the rings as across them), so
the fit runs in a whitened local frame: principal axes of the patch
scatter, each scaled to unit spread.

A jet needs only six functionals of the fit (value, two gradient and three
Hessian entries), so the normal system G c = A^T W^2 f is never solved for
all m columns: G is solved against those six functionals, already mapped
back to the original coordinates (d/d_delta = R S^-1 d/d_xi), and a
functional e's weight row is W^2 A G^-1 e.  G itself comes from one power
table xi_j^p, p <= 2d, as the weighted moments sum_k w_k^2 xi_k^(alpha+beta).
The solve is a partially pivoted elimination in 80-bit long double.  Its
rounding is load-bearing: a float64 QR of the weighted design leaves the
assembled Jacobian's rotation equivariance at 3.4e-10, over its 1e-10 bound.
Cheaper factorizations fail on the nearly cocircular scattered patches that
degree-2 fits meet in the recovered primal cloud, where the float64 normal
matrix is singular: a float64 inverse raises, and a long-double Cholesky
returns NaN.

The fit broadcasts over leading axes: jet_weight_rows takes a batch of
equal-sized patches (..., m, dim) with centers (..., dim) and gives each
patch the same extended-precision operations it would get alone, so a
batch reproduces the one-patch weights bit for bit.  A single patch is the
0-d case of the same code.  patch_jets contracts such rows with the
patches' sample values the same way, one patch at a time, so the jet
oracles built on them (JetInterpolant here, GridJetInterpolant on grids)
answer a batch of queries exactly as they answer each query alone: each is
a callable from query points (..., dim) to geometry.Jets (...).

nearest is the package's one nearest-sample search: it picks the
JetInterpolant patches and the Newton seeds of the Legendre transform, the
primal recovery and the bodies' closest-point projection.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import Jets


# entries of one chunk's query-to-sample distance table
_NEAREST_TABLE = 1 << 22


def nearest(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Indices (q, k) of the k samples (m, dim) nearest each query (q, dim), nearest first.

    Exact brute force over squared distances, in chunks of queries whose
    distance tables hold at most _NEAREST_TABLE entries.  k = 1 is argmin:
    of equally near samples it picks the first.
    """
    out = np.empty((len(queries), k), dtype=np.intp)
    step = max(1, _NEAREST_TABLE // len(points))
    for s in range(0, len(queries), step):
        dist2 = ((queries[s : s + step, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        if k == 1:
            out[s : s + step, 0] = np.argmin(dist2, axis=1)
        else:
            idx = np.argpartition(dist2, k - 1, axis=1)[:, :k]
            order = np.take_along_axis(dist2, idx, axis=1).argsort(axis=1, kind="stable")
            out[s : s + step] = np.take_along_axis(idx, order, axis=1)
    return out


def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """All exponent multi-indices with |alpha| <= degree, graded order."""
    exps = [np.zeros(dim, dtype=int)]
    frontier = [np.zeros(dim, dtype=int)]
    for _ in range(degree):
        nxt = []
        seen = set()
        for e in frontier:
            for j in range(dim):
                f = e.copy()
                f[j] += 1
                key = tuple(f)
                if key not in seen:
                    seen.add(key)
                    nxt.append(f)
        exps.extend(nxt)
        frontier = nxt
    return np.array(exps)


def jet_functionals(exps: np.ndarray, dim: int):
    """Indices of the coefficients giving (value, gradient, hessian) at the center."""
    idx_val = int(np.where((exps == 0).all(axis=1))[0][0])
    idx_grad = np.empty(dim, dtype=int)
    for j in range(dim):
        e = np.zeros(dim, dtype=int)
        e[j] = 1
        idx_grad[j] = int(np.where((exps == e).all(axis=1))[0][0])
    idx_hess = np.empty((dim, dim), dtype=int)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros(dim, dtype=int)
            e[i] += 1
            e[j] += 1
            idx_hess[i, j] = int(np.where((exps == e).all(axis=1))[0][0])
    return idx_val, idx_grad, idx_hess


@functools.lru_cache(maxsize=None)
def _moment_layout(dim: int, degree: int):
    """Index tables of the degree-d fit's normal matrix in moment form.

    Returns (exps, n_basis, gram_index, functionals): exps lists the
    exponents up to 2d in graded order, so its first n_basis rows are the
    basis monomials; gram_index[a, b] is the row of exps holding
    basis[a] + basis[b], so that the normal matrix of weighted monomials
    is moments[gram_index]; functionals is jet_functionals of the basis.
    """
    exps = monomial_exponents(dim, 2 * degree)
    n_basis = monomial_exponents(dim, degree).shape[0]
    row = {tuple(e): i for i, e in enumerate(exps)}
    gram_index = np.array([[row[tuple(a + b)] for b in exps[:n_basis]]
                           for a in exps[:n_basis]])
    return exps, n_basis, gram_index, jet_functionals(exps[:n_basis], dim)


def _solve_longdouble(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in extended precision.

    Solves each system of a batch, g (..., n, n) against rhs (..., n, m),
    with the operations it would get alone: the loops run over the n columns
    and rows, never over the systems.  The map back to original coordinates
    multiplies solve-level rounding by 1/h^2, so float64 least squares
    leaves ~1e-11 exactness defects on fine grids; 80-bit arithmetic on the
    tiny normal system removes them.
    """
    n, m = rhs.shape[-2:]
    ab = np.concatenate([g, rhs], axis=-1).astype(np.longdouble).reshape(-1, n, n + m)
    s = np.arange(ab.shape[0])
    for c in range(n):
        p = np.argmax(np.abs(ab[:, c:, c]), axis=1) + c
        ab[s, c], ab[s, p] = ab[s, p], ab[s, c]
        f = ab[:, c + 1 :, c, None] / ab[:, c, c, None, None]
        ab[:, c + 1 :, c:] -= f * ab[:, c, None, c:]
    out = np.zeros((ab.shape[0], n, m), dtype=np.longdouble)
    for r in range(n - 1, -1, -1):
        dot = (ab[:, r, None, r + 1 : n] @ out[:, r + 1 :])[:, 0]
        out[:, r] = (ab[:, r, n:] - dot) / ab[:, r, r, None]
    return out.reshape(rhs.shape)


def jet_weight_rows(points: np.ndarray, center: np.ndarray, degree: int):
    """Weight rows (w_val, w_grad, w_hess) mapping sample values to a jet.

    value = w_val @ f, gradient[a] = w_grad[a] @ f, hessian[a,b] =
    w_hess[a,b] @ f, exact whenever f is a polynomial of total degree <=
    degree on a poised patch.  Broadcasts over leading axes: points
    (..., m, dim) and centers (..., dim) give w_val (..., m), w_grad
    (..., dim, m) and w_hess (..., dim, dim, m), each patch fitted with
    the operations it would get alone; one patch is the 0-d case.
    """
    points = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)
    dim = points.shape[-1]
    delta = (points - center[..., None, :]).astype(np.longdouble)
    # whitened local frame fixes the conditioning of anisotropic patches;
    # the frame itself need not be exact, only applied consistently, so the
    # eigen-decomposition runs in float64 and everything downstream in
    # extended precision (final weights round once, at the end)
    cov = np.swapaxes(delta, -1, -2) @ delta / delta.shape[-2]
    evals, rot64 = np.linalg.eigh(cov.astype(float))
    floor = np.maximum(evals.max(axis=-1, keepdims=True), 1e-300) * 1e-10
    scales = np.sqrt(np.maximum(evals, floor).astype(np.longdouble))[..., None, :]
    rot = rot64.astype(np.longdouble)
    xi = (delta @ rot) / scales

    exps, n_basis, gram_index, (iv, ig, ih) = _moment_layout(dim, degree)
    # one power table xi_j^p, p <= 2d, gives every monomial up to degree 2d;
    # the first n_basis of them are the design matrix, transposed
    xi_t = np.moveaxis(xi, -1, 0)
    powers = np.empty((dim, 2 * degree + 1) + xi_t.shape[1:], dtype=np.longdouble)
    powers[:, 0] = 1.0
    for p in range(1, 2 * degree + 1):
        powers[:, p] = powers[:, p - 1] * xi_t
    mono = powers[0, exps[:, 0]]
    for j in range(1, dim):
        mono = mono * powers[j, exps[:, j]]
    mono = np.moveaxis(mono, 0, -2)  # (..., n_exps, m)
    dist2 = (xi * xi).sum(axis=-1)
    # least-squares weights wts^2 decay like |xi|^-4; a steeper |xi|^-8 gives
    # the outer rays of 5-ray grid windows so little weight that rounding in
    # the assembled Jacobian triples (its commutator with a ray rotation
    # on a 16x32 disk: 1.1e-10 against 3.6e-11)
    wts = 1.0 / (1.0 + dist2)
    w2 = wts * wts
    # the normal matrix sum_k w_k^2 xi_k^(alpha+beta), read off the moments
    moments = (mono @ w2[..., None])[..., 0]
    gram = moments[..., gram_index]

    # right-hand sides: the value, gradient and Hessian functionals in the
    # original coordinates, d/d_delta = R S^{-1} d/d_xi; the coefficient of
    # xi_i^2 is half the second derivative
    rs = rot / scales  # columns are R[:,i]/s_i
    upper = [(a, b) for a in range(dim) for b in range(a, dim)]
    rhs = np.zeros(rs.shape[:-2] + (n_basis, 1 + dim + len(upper)), dtype=np.longdouble)
    rhs[..., iv, 0] = 1.0
    for a in range(dim):
        rhs[..., ig, 1 + a] = rs[..., a, :]
    for f, (a, b) in enumerate(upper, start=1 + dim):
        for i in range(dim):
            rhs[..., ih[i, i], f] += 2.0 * rs[..., a, i] * rs[..., b, i]
            for j in range(i + 1, dim):
                rhs[..., ih[i, j], f] += rs[..., a, i] * rs[..., b, j] + rs[..., a, j] * rs[..., b, i]
    # the weight row of functional e is w^2 (A G^-1 e), G symmetric
    coef = _solve_longdouble(gram, rhs)
    rows = ((np.swapaxes(coef, -1, -2) @ mono[..., :n_basis, :]) * w2[..., None, :]).astype(float)

    w_val, w_grad = rows[..., 0, :], rows[..., 1 : 1 + dim, :]
    w_hess = np.empty(rows.shape[:-2] + (dim, dim, rows.shape[-1]))
    for f, (a, b) in enumerate(upper, start=1 + dim):
        w_hess[..., a, b, :] = w_hess[..., b, a, :] = rows[..., f, :]
    return w_val, w_grad, w_hess


def patch_jets(rows, f: np.ndarray):
    """(value (s,), gradient (s, dim), hessian (s, dim, dim)) of patch values f (s, m).

    rows is what jet_weight_rows returns for patches (s, m, dim); every
    contraction is a stacked matmul, one patch per item, so a patch's jet
    does not depend on the rest of the batch.
    """
    w_val, w_grad, w_hess = rows
    value = (w_val[:, None, :] @ f[:, :, None])[:, 0, 0]
    grad = (w_grad @ f[:, :, None])[..., 0]
    hess = (w_hess @ f[:, None, :, None])[..., 0]
    return value, grad, 0.5 * (hess + np.swapaxes(hess, -1, -2))


def central_difference_jet(f, point, h: float) -> Jets:
    """Jet of a scalar f at point by central differences of step h.

    Four-point cross differences off the diagonal; exact to rounding on
    quadratics, O(h^2) on smooth f.  f is asked at the point first.
    """
    point = np.asarray(point, dtype=float).ravel()
    n = point.size
    e = h * np.eye(n)
    f0 = f(point)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        fp, fm = f(point + e[i]), f(point - e[i])
        grad[i] = (fp - fm) / (2 * h)
        hess[i, i] = (fp - 2 * f0 + fm) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                f(point + e[i] + e[j])
                - f(point + e[i] - e[j])
                - f(point - e[i] + e[j])
                + f(point - e[i] - e[j])
            ) / (4 * h**2)
    return Jets(point, f0, grad, hess)


class JetInterpolant:
    """Scattered-data jets: value/gradient/Hessian estimates at query points."""

    def __init__(self, points, values, degree: int = 3):
        self.points = np.asarray(points, dtype=float)
        self.values = np.asarray(values, dtype=float).ravel()
        if self.points.shape[0] != self.values.size:
            raise ValueError("points/values length mismatch")
        self.dim = self.points.shape[1]
        self.degree = degree
        n_basis = monomial_exponents(self.dim, degree).shape[0]
        self.n_neighbors = min(self.points.shape[0], max(2 * n_basis, n_basis + 6))

    def __call__(self, query: np.ndarray) -> Jets:
        """Jets of the local fits at query points (..., dim); one point is the 0-d case.

        Each query is fitted over its n_neighbors nearest samples, all
        queries in one batched jet_weight_rows call.
        """
        query = np.asarray(query, dtype=float)
        q = query.reshape(-1, self.dim)
        idx = nearest(self.points, q, self.n_neighbors)
        value, grad, hess = patch_jets(jet_weight_rows(self.points[idx], q, self.degree),
                                       self.values[idx])
        lead, n = query.shape[:-1], query.shape[-1:]
        return Jets(query, value.reshape(lead), grad.reshape(lead + n), hess.reshape(lead + n + n))
