"""Pointwise graph-hypersurface tensors from a 2-jet of u.

Everything here is pointwise algebra on Jets (point, value, gradient and
Hessian, at one point or a batch), so grid and discretization concerns never
enter.  Conventions, with w = sqrt(1 + |Du|^2):

    g_ij   = delta_ij + u_i u_j          (induced metric)
    g^ij   = delta_ij - u_i u_j / w^2
    h_ij   = u_ij / w                    (second fundamental form)
    N      = (-Du, 1) / w                (upward unit normal)
    b^ij   = delta_ij - u_i u_j / (w (1 + w))   (square root of g^ij)
    b_ij   = delta_ij + u_i u_j / (1 + w)       (inverse of b^ij)
    a_ij   = (1/w) b^ik u_kl b^lj        (symmetric curvature matrix)

The principal curvatures are the eigenvalues of a_ij, equivalently of the
shape operator h_ik g^kj.  The support value is <X, N> = (u - x.Du)/w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symfun
from .errors import BoundaryMismatchError, ConeViolationError, PreconditionError
from .psi import PsiSpec


@dataclass
class Jets:
    """2-jets (u, Du, D^2u) at points; the one jet type every formula consumes.

    point (..., n), value (...), gradient (..., n), hessian (..., n, n); one
    point is the 0-d case, whose value is an np.float64.  Construction
    raises ValueError unless the shapes agree with the point's and every
    Hessian is symmetric (symfun.require_symmetric), and stores the Hessians
    symmetrised.  A jet oracle maps points (..., n) to the Jets there.
    Iterating a Jets gives its fields in order, so Jets(*jets) rebuilds it.
    """

    point: np.ndarray
    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.value = np.asarray(self.value, dtype=float)[()]
        self.gradient = np.asarray(self.gradient, dtype=float)
        self.hessian = np.asarray(self.hessian, dtype=float)
        lead, n = self.point.shape[:-1], self.point.shape[-1:]
        if (not n or np.shape(self.value) != lead or self.gradient.shape != lead + n
                or self.hessian.shape != lead + n + n):
            raise ValueError("jet shapes inconsistent with point dimension")
        self.hessian = symfun.require_symmetric(self.hessian)

    def __iter__(self):
        return iter((self.point, self.value, self.gradient, self.hessian))

    @property
    def dim(self) -> int:
        return self.point.shape[-1]

    def reshape(self, lead: tuple) -> "Jets":
        """The same jets with leading axes lead."""
        n = (self.dim,)
        return Jets(self.point.reshape(lead + n), np.reshape(self.value, lead),
                    self.gradient.reshape(lead + n), self.hessian.reshape(lead + n + n))


@dataclass
class CurvaturePack:
    """All pointwise hypersurface tensors of a graph at one point or a batch.

    Fields carry the jets' leading axes: w (...), matrices (..., n, n),
    normal (..., n+1), kappa (..., n); a 0-d jet gives w as an np.float64.
    """

    w: float
    g: np.ndarray
    g_inv: np.ndarray
    b: np.ndarray
    b_inv: np.ndarray
    normal: np.ndarray
    second_form: np.ndarray
    curvature_matrix: np.ndarray
    kappa: np.ndarray  # ascending


def curvature_pack(jet: Jets) -> CurvaturePack:
    """Assemble metric, normal, curvature matrix and principal curvatures.

    jet is Jets of any leading axes; only .gradient and .hessian are read.
    Each batch row is bit for bit the one-jet call.
    """
    du, hess = jet.gradient, jet.hessian
    eye = np.eye(du.shape[-1])
    w = np.sqrt(1.0 + symfun.rowdot(du, du))
    wm = w[..., None, None]
    outer = du[..., :, None] * du[..., None, :]
    b = eye - outer / (wm * (1.0 + wm))
    a = (b @ hess @ b) / wm
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    # eigh, the route of symfun.eval_operator; eigvalsh rounds differently for n > 2
    kappa = symfun.eigh(a)[0]
    normal = np.concatenate([-du, np.ones(du.shape[:-1] + (1,))], axis=-1) / w[..., None]
    return CurvaturePack(
        w=w,
        g=eye + outer,
        g_inv=eye - outer / (wm * wm),
        b=b,
        b_inv=eye + outer / (1.0 + wm),
        normal=normal,
        second_form=hess / wm,
        curvature_matrix=a,
        kappa=kappa,
    )


def support_value(jet: Jets):
    """<X, N> = (u - x.Du)/w at the jets' points, without forming the ambient position vector."""
    du = jet.gradient
    w = np.sqrt(1.0 + symfun.rowdot(du, du))
    return (jet.value - symfun.rowdot(jet.point, du)) / w


def primal_residual(jet: Jets, k, psi: PsiSpec):
    """F(a_ij) - psi(<X,N>, N) at the jets' points; raises on cone violations.

    k is one order or, for a batch, an integer array of one order per jet
    (see symfun.SpectrumRequest).
    """
    pack = curvature_pack(jet)
    op = symfun.eval_operator(
        symfun.SpectrumRequest(pack.curvature_matrix, k, "primal")
    )
    z = support_value(jet)
    return op.value - psi.evaluate(z, pack.normal)


def primal_linearization(jet: Jets, k: int, psi: PsiSpec):
    """Coefficients (G^ij, G^s, psi^s) of the linearized primal operator.

    G(Du, D^2u) = sigma_k(a_ij).  With S = d sigma_k / da (the Newton
    transformation of a) and M = D^2u:

        G^ij = (1/w) (b S b)_ij
        G^s  = -(u_s/w^2) tr(S a)
               - 2/(w(1+w)) * [ w (b S a Du) + (b a S Du) ]_s

    The second line is the contracted form of
    sum sigma_k^{ij} a_{it} (w u_t b^{sj} + u_j b^{ts}): the index pairing
    that reproduces the finite-difference oracle is exactly the two matrix
    products (b S a Du) and (b a S Du).  The zeroth term carries 1/w^2 (from
    differentiating the 1/w prefactor of a), not 1/w; both facts are pinned
    by the oracle in tests/test_geometry.py.

    psi^s is the chain rule of psi(z, p) through z = (u - x.Du)/w and
    p = (-Du, 1)/w with the point held fixed.
    """
    pack = curvature_pack(jet)
    if pack.kappa[0] <= 0.0:
        raise ConeViolationError(pack.kappa)
    du, x, n = jet.gradient, jet.point, jet.dim
    w, b, a = pack.w, pack.b, pack.curvature_matrix
    s_mat = symfun.sigma_k_matrix_gradient(a, k)
    gij = (b @ s_mat @ b) / w

    tr_sa = float(np.sum(s_mat * a))
    term = w * (b @ (s_mat @ (a @ du))) + b @ (a @ (s_mat @ du))
    gs = -(tr_sa / w**2) * du - (2.0 / (w * (1.0 + w))) * term

    z = support_value(jet)
    # dz/du_s = -x_s/w - (u - x.Du) u_s / w^3
    dz = -x / w - (jet.value - x @ du) * du / w**3
    # dp_i/du_s = -delta_is/w + u_i u_s / w^3 (i <= n); dp_{n+1}/du_s = -u_s/w^3
    dp = np.zeros((n + 1, n))
    dp[:n, :] = -np.eye(n) / w + np.outer(du, du) / w**3
    dp[n, :] = -du / w**3
    psis = float(psi.partial_z(z, pack.normal)) * dz + psi.partial_p(z, pack.normal) @ dp
    return gij, gs, psis


def obliqueness_chi(jet: Jets, nu: np.ndarray, target):
    """Obliqueness at boundary points, by definition and by the closed formula.

    chi_def = <Dh(Du), nu> with h the target domain's defining function and nu
    the interior unit normal of the source boundary; chi_formula =
    sqrt(u^{ij} nu_i nu_j * u_kl h_k h_l).  The two agree whenever the
    gradient image traces the target boundary, which is required up to 1e-8
    at every point.  Broadcasts over leading axes: Jets (...) with normals
    (..., n) give (chi_def, chi_formula) of shape (...).
    """
    nu = np.asarray(nu, dtype=float)
    du = jet.gradient
    level = float(np.abs(target.h(du)).max())
    if level > 1e-8:
        raise BoundaryMismatchError(level, 1e-8)
    dh = np.asarray(target.grad_h(du), dtype=float)
    chi_def = (dh * nu).sum(axis=-1)
    hess = jet.hessian
    try:
        hess_inv = np.linalg.inv(hess)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("jet hessian not invertible", 0.0, 0.0) from exc
    quad_nu = (nu[..., None, :] @ hess_inv @ nu[..., :, None])[..., 0, 0]
    quad_h = (dh[..., None, :] @ hess @ dh[..., :, None])[..., 0, 0]
    chi_formula = np.sqrt(np.maximum(0.0, quad_nu * quad_h))
    return chi_def, chi_formula
