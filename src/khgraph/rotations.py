"""One-parameter rotation groups of the ambient space and their chart fields.

A rotation of R^{n+1} acts on the unit sphere; conjugating with the hemisphere
projection P gives a one-parameter transformation group sigma_t of the chart,
whose generator T is a polynomial vector field of degree 2.  Fields are
anchored at a boundary point y0 with a prescribed unit tangent xi and satisfy

    T(y0) = sqrt(1 + |y0|^2) * xi        (exactly),

which fixes the rotation plane span(x0, e1) and the angular speed

    s = sqrt(1 - <y0, xi>^2 / (1 + |y0|^2)) <= 1.

The speed factor is 1 whenever y0 is orthogonal to xi (e.g. any boundary
point of a centered ball) and is what keeps the tangency identity exact for
anchors where the chart tangent is not sphere-orthogonal to the radial
direction.

Norm convention for the envelope bound: the identity

    T^T (I - y y^T/(1+|y|^2)) T = s^2 (1 + |y|^2) (a0^2 + a1^2) <= 1 + |y|^2

holds for every y (a_i are the components of P^{-1}(y) in the orthonormal
frame).  The plain Euclidean square of T satisfies no such identity; the
chart quadratic form above is the sphere metric scaled by 1 + |y|^2, and the
finite-difference flow oracle in the tests pins T itself, so nothing here
depends on the choice of norm.

The rotation-differentiated dual equation: differentiating
F*(w* b* D^2u* b*) = psi*(y, u*) along T gives, for phi = w* T(u*/w*)
(rotated_support),

    F*^ij (w* b* D^2 phi b*)_ij = T psi*_y + psi*_z T u*,

whose gap equation_defect measures at one point.  The two checks of it
differ only in how they get D^2 phi: differentiated_equation_check by
central differences over a jet oracle, solver.differentiated_equation_defect
by the grid stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symfun
from .duality import argument_matrix, chart_metric_inv, psi_conversions, unproject, wstar
from .errors import HemisphereExitError, PreconditionError
from .geometry import Jet2
from .meshfree import central_difference_jet

T_CAP = 0.5  # largest flow time a field is fitted to


@dataclass
class RotationField:
    """Rotation-generated chart vector field anchored at a boundary point."""

    y0: np.ndarray
    xi: np.ndarray
    x0: np.ndarray
    frame: np.ndarray  # rows: e_1 .. e_n, orthonormal completion of x0
    speed: float  # angular speed of the rotation family, in [0, 1]
    t_max: float

    @property
    def dim(self) -> int:
        return self.y0.size

    @property
    def e1(self) -> np.ndarray:
        return self.frame[0]

    def components(self, y: np.ndarray) -> np.ndarray:
        """(a_0, a_1, ..., a_n): components of P^{-1}(y) in the frame (x0, e_i).

        y (..., n) gives (..., n+1).
        """
        x = unproject(y)
        return np.concatenate([symfun.rowdot(x, self.x0)[..., None],
                               (self.frame @ x[..., None])[..., 0]], axis=-1)


def _complete_frame(x0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Deterministic Gram-Schmidt completion of {x0, e1} over coordinate axes.

    Each candidate is orthogonalised twice ("twice is enough"): one pass
    leaves it off orthogonal by rounding times the cancellation it suffered,
    which reached 1e-12 in |Q Q^T - I|; the second pass brings that back to
    rounding level.
    """
    n1 = x0.size
    basis = [x0, e1]
    for j in range(n1):
        cand = np.zeros(n1)
        cand[j] = 1.0
        for _ in range(2):
            for b in basis:
                cand = cand - (cand @ b) * b
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            basis.append(cand / nrm)
        if len(basis) == n1:
            break
    frame = np.stack(basis[1:])
    return frame


def make_field(y0, xi, body) -> RotationField:
    """Construct the rotation field anchored at y0 with tangent xi on the body.

    Preconditions: y0 on the boundary (|h| <= 1e-10), xi unit and tangent
    there (both within 1e-10).  A zero xi is accepted as the degenerate probe
    and yields the zero field (identity flow).
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    xi = np.asarray(xi, dtype=float).ravel()
    n = y0.size
    x0 = unproject(y0)
    w0 = np.sqrt(1.0 + y0 @ y0)

    xi_norm = float(np.linalg.norm(xi))
    if xi_norm == 0.0:
        # degenerate probe: zero field, identity flow
        frame = _complete_frame(x0, _any_orthonormal(x0))
        return RotationField(y0=y0, xi=xi, x0=x0, frame=frame, speed=0.0,
                             t_max=T_CAP)

    # written as "not <=" so that a NaN anchor or tangent fails them too
    level = abs(float(body.h(y0)))
    if not level <= 1e-10:
        raise PreconditionError("anchor off the boundary", level, 1e-10)
    if not abs(xi_norm - 1.0) <= 1e-10:
        raise PreconditionError("tangent not unit", abs(xi_norm - 1.0), 1e-10)
    dh = np.asarray(body.grad_h(y0), dtype=float)
    tang_defect = abs(float(dh @ xi)) / max(np.linalg.norm(dh), 1e-300)
    if not tang_defect <= 1e-10:
        raise PreconditionError("xi not tangent to the boundary", tang_defect, 1e-10)

    # dP^{-1}(xi) at y0; orthogonal to x0 by construction.
    d = -np.concatenate([xi, [0.0]]) / w0 - ((y0 @ xi) / w0**2) * x0
    dn = float(np.linalg.norm(d))
    speed = w0 * dn  # = sqrt(1 - <y0,xi>^2/(1+|y0|^2)) <= 1
    e1 = d / dn
    frame = _complete_frame(x0, e1)
    field = RotationField(y0=y0, xi=xi, x0=x0, frame=frame, speed=speed,
                          t_max=T_CAP)
    field.t_max = _fit_t_max(field, body)
    return field


def _any_orthonormal(x0: np.ndarray) -> np.ndarray:
    j = int(np.argmin(np.abs(x0)))
    cand = np.zeros(x0.size)
    cand[j] = 1.0
    cand -= (cand @ x0) * x0
    return cand / np.linalg.norm(cand)


def _fit_t_max(field: RotationField, body) -> float:
    """Largest t <= T_CAP keeping the rotated hemisphere height >= 0.1 on probes."""
    probes = np.atleast_2d(body.sample_boundary(64))
    probes = np.vstack([probes, np.asarray(body.interior_point, dtype=float)])
    xs = unproject(probes)

    def min_height(t):
        return _rotate(field, t, xs)[:, -1].min()

    if min_height(T_CAP) >= 0.1:
        return T_CAP
    lo, hi = 0.0, T_CAP
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if min_height(mid) >= 0.1:
            lo = mid
        else:
            hi = mid
    return lo


def _rotate(field: RotationField, t, x: np.ndarray) -> np.ndarray:
    """Apply the rotation family at times t (...) to ambient points x (..., n+1), broadcast."""
    phi = field.speed * np.asarray(t, dtype=float)[..., None]
    a = symfun.rowdot(x[..., None, :], np.array([field.x0, field.e1]))
    a0, a1 = a[..., :1], a[..., 1:]
    rest = x - a0 * field.x0 - a1 * field.e1
    c, s = np.cos(phi), np.sin(phi)
    return (a0 * c - a1 * s) * field.x0 + (a0 * s + a1 * c) * field.e1 + rest


def flow(field: RotationField, t, y: np.ndarray) -> np.ndarray:
    """sigma_t(y) = P(A_t(P^{-1}(y))) for t (...) and y (..., n), broadcast together.

    Raises HemisphereExitError for the first item (in C order) whose image
    leaves the hemisphere.
    """
    xt = _rotate(field, t, unproject(y))
    height = xt[..., -1]
    out = height < 1e-10
    if np.count_nonzero(out):
        first = np.unravel_index(np.argmax(out), out.shape)
        raise HemisphereExitError(np.broadcast_to(t, out.shape)[first], height[first])
    return -xt[..., :-1] / xt[..., -1:]


def _coeffs(field: RotationField):
    n = field.dim
    u0, d0 = field.x0[:n], field.x0[n]
    u1, d1 = field.e1[:n], field.e1[n]
    s = field.speed
    c = s * (d1 * u0 - d0 * u1)
    b = s * (np.outer(u1, u0) - np.outer(u0, u1))
    return c, b


def field_eval(field: RotationField, y: np.ndarray) -> np.ndarray:
    """T(y) for y (..., n), the generator of the flow, from its degree-2 closed form."""
    y = np.asarray(y, dtype=float)
    c, b = _coeffs(field)
    # elementwise sums, not y @ b.T: BLAS rounds one point and a batch row differently
    return c + (y[..., None, :] * b).sum(axis=-1) + (y * c).sum(axis=-1)[..., None] * y


def field_polynomial(field: RotationField):
    """Polynomial coefficients of T: T_m(y) = c_m + sum_j B_mj y_j + y_m (c.y).

    Returns (c, B, Q) with Q[m, j, k] the symmetric quadratic tensor; the
    quadratic part is rank-structured, Q[m,j,k] = (delta_mj c_k +
    delta_mk c_j)/2.
    """
    c, b = _coeffs(field)
    eye = np.eye(field.dim)
    q = 0.5 * (eye[:, :, None] * c + eye[:, None, :] * c[:, None])
    return c, b, q


def field_jacobian(field: RotationField, y: np.ndarray) -> np.ndarray:
    """DT(y): (DT)_mj = dT_m/dy_j, affine in y."""
    y = np.asarray(y, dtype=float).ravel()
    c, b = _coeffs(field)
    cy = c @ y
    return b + cy * np.eye(field.dim) + np.outer(y, c)


def envelope_terms(field: RotationField, y: np.ndarray) -> dict:
    """Chart-metric envelope identity pieces at y (..., n); each entry is (...).

    lhs = T^T (I - y y^T / (1+|y|^2)) T, identity = s^2 (1+|y|^2)(a0^2+a1^2),
    bound = 1+|y|^2.  lhs == identity holds exactly; lhs <= bound always.
    """
    y = np.asarray(y, dtype=float)
    t = field_eval(field, y)
    g = chart_metric_inv(y)
    comps = field.components(y)
    a0, a1 = comps[..., 0], comps[..., 1]
    w2 = 1.0 + symfun.rowdot(y, y)
    return {
        "lhs": (t[..., None, :] @ g @ t[..., :, None])[..., 0, 0],
        "identity": field.speed**2 * w2 * (a0 * a0 + a1 * a1),
        "bound": w2,
        "a0": a0,
        "a1": a1,
    }


def derivative_along(field: RotationField, jets, y: np.ndarray):
    """(T u, T^2 u, D_TT u) of a sampled function along the field at y.

    T^2 u expands through the polynomial coefficients of T; the connection
    correction uses DT applied to T componentwise, so that
    D_TT u = T^2 u - (D_T T) u.
    """
    y = np.asarray(y, dtype=float).ravel()
    jet = jets(y)
    t = field_eval(field, y)
    dt = field_jacobian(field, y)
    tu = float(t @ jet.gradient)
    dtt = dt @ t  # (D_T T)_j = sum_m T_m dT_j/dy_m
    d_tt_u = float(t @ jet.hessian @ t)
    ttu = float(dtt @ jet.gradient) + d_tt_u
    return tu, ttu, d_tt_u


def rotated_support(field: RotationField, y, u, du) -> np.ndarray:
    """phi = w* T(u*/w*) at points y (..., n), from u* (...) and Du* (..., n) there."""
    y = np.asarray(y, dtype=float)
    w = wstar(y)
    dv = du / w[..., None] - (u / w**3)[..., None] * y
    return w * (field_eval(field, y) * dv).sum(axis=-1)


def equation_defect(
    field: RotationField, jet: Jet2, hess_phi: np.ndarray, star, k: int
) -> float:
    """Gap of the rotation-differentiated dual equation at jet.point.

    jet is the 2-jet of u* at one point, hess_phi the Hessian of
    phi = rotated_support(...) there and star the dual right-hand side.
    """
    y = jet.point
    op = symfun.eval_operator(
        symfun.SpectrumRequest(argument_matrix(y, jet.hessian), k, "dual")
    )
    lhs = float(np.sum(op.gradient * argument_matrix(y, hess_phi)))
    tvec = field_eval(field, y)
    rhs = float(tvec @ star.partial_y(y, jet.value)) + float(
        star.partial_z(y, jet.value)
    ) * float(tvec @ jet.gradient)
    return abs(lhs - rhs)


def differentiated_equation_check(
    field: RotationField,
    jets,
    psi,
    k: int,
    point: np.ndarray,
    h: float = 1.0 / 128.0,
    body=None,
) -> float:
    """Defect of the rotation-differentiated dual equation at an interior point.

    The solved dual state enters through `jets` (y -> Jet2 of u*); D^2 phi is
    the central-difference Hessian of rotated_support, so on an exact
    solution the defect is O(h^2) plus the solve tolerance.  psi is a primal
    PsiSpec (converted here) or a ready dual-side object exposing
    partial_y/partial_z.  With a body, every difference probe is checked to
    lie in it before the jets are asked there (PreconditionError if not).
    """
    def phi(yq: np.ndarray) -> float:
        if body is not None:
            level = float(body.h(yq))
            if level < 0.0:
                raise PreconditionError(
                    "finite-difference probe leaves the domain", -level, 0.0
                )
        jet = jets(yq)
        return float(rotated_support(field, yq, jet.value, jet.gradient))

    phi_jet = central_difference_jet(phi, point, h)
    star = psi if hasattr(psi, "partial_y") else psi_conversions(psi)[1]
    return equation_defect(field, jets(phi_jet.point), phi_jet.hessian, star, k)
