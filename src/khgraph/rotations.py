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

Batch convention: make_field takes anchors y0, xi (..., n) with one body or
a list of one body per anchor, and its RotationField carries their leading
axes.  _rotate, flow, field_eval, components and envelope_terms broadcast
the field's axes against those of their points and times, and each item is
bit for bit the one-field, one-point call: dots go through symfun.rowdot
(the BLAS dot of one vector pair), vector norms are sqrt(rowdot(v, v)), and
squares of scalars that a one-field call holds as numpy scalars take libm's
pow through np.float_power, as the scalar ** does.  The only per-body work
is the body's oracles: h and grad_h at the anchors and sample_boundary(64)
for the t_max probes.  The remaining helpers (field_polynomial,
field_jacobian, derivative_along and the equation checks) take one field.

The rotation-differentiated dual equation: differentiating
F*(w* b* D^2u* b*) = psi*(y, u*) along T gives, for phi = w* T(u*/w*)
(rotated_support),

    F*^ij (w* b* D^2 phi b*)_ij = T psi*_y + psi*_z T u*,

whose gap equation_defect measures at an array of points.  The two checks
of it differ only in how they get D^2 phi: differentiated_equation_check by
central differences over a jet oracle at one point,
solver.differentiated_equation_defect by the grid stencils at an array of
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symfun
from .duality import DualPsi, argument_matrix, chart_metric_inv, unproject, wstar
from .errors import HemisphereExitError, PreconditionError
from .geometry import Jets
from .meshfree import central_difference_jet

T_CAP = 0.5  # largest flow time a field is fitted to


@dataclass
class RotationField:
    """Rotation-generated chart vector fields anchored at boundary points.

    A field carries leading axes F: y0 and xi (F..., n), x0 (F..., n+1),
    frame (F..., n, n+1), speed and t_max (F...); one field is the 0-d case.
    The kernels below broadcast F against the leading axes of their points
    by numpy's rules, so fld[:, None] pairs m fields with points (m, p, n).
    """

    y0: np.ndarray
    xi: np.ndarray
    x0: np.ndarray
    frame: np.ndarray  # rows: e_1 .. e_n, orthonormal completion of x0
    speed: np.ndarray  # angular speed of the rotation family, in [0, 1]
    t_max: np.ndarray

    @property
    def dim(self) -> int:
        return self.y0.shape[-1]

    @property
    def e1(self) -> np.ndarray:
        return self.frame[..., 0, :]

    def __getitem__(self, idx) -> "RotationField":
        """The fields at idx, an index over the leading axes (fld[3], fld[..., None])."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        vec, mat = idx + (slice(None),), idx + (slice(None),) * 2
        return RotationField(self.y0[vec], self.xi[vec], self.x0[vec], self.frame[mat],
                             np.asarray(self.speed)[idx], np.asarray(self.t_max)[idx])

    def components(self, y: np.ndarray) -> np.ndarray:
        """(a_0, a_1, ..., a_n): components of P^{-1}(y) in the frame (x0, e_i).

        y (..., n) gives (..., n+1).
        """
        x = unproject(y)
        return np.concatenate([symfun.rowdot(x, self.x0)[..., None],
                               (self.frame @ x[..., None])[..., 0]], axis=-1)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis by BLAS dot, as np.linalg.norm of one vector."""
    return np.sqrt(symfun.rowdot(v, v))


def _complete_frame(x0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Deterministic Gram-Schmidt completion of {x0, e1} over coordinate axes.

    x0, e1 (m, n+1) give frames (m, n, n+1), e1 first.  Each candidate is
    orthogonalised twice ("twice is enough"): one pass leaves it off
    orthogonal by rounding times the cancellation it suffered, which reached
    1e-12 in |Q Q^T - I|; the second pass brings that back to rounding level.
    A row keeps, in axis order, each candidate whose remainder has norm
    above 1e-8 until it holds n+1 vectors; a candidate sees the vectors its
    row kept, in the order kept, so each row is the one-row computation.
    """
    m, n1 = x0.shape
    basis, kept = [x0, e1], [np.ones(m, dtype=bool)] * 2
    count = np.full(m, 2)
    for j in range(n1):
        if np.all(count == n1):
            break
        cand = np.zeros((m, n1))
        cand[:, j] = 1.0
        for _ in range(2):
            for b, keep in zip(basis, kept):
                cand = np.where(keep[:, None], cand - symfun.rowdot(cand, b)[:, None] * b, cand)
        nrm = _norm(cand)
        take = (nrm > 1e-8) & (count < n1)
        basis.append(np.divide(cand, nrm[:, None], out=np.zeros_like(cand), where=take[:, None]))
        kept.append(take)
        count += take
    # per row, the kept candidates in axis order
    kept_axes = np.stack(kept[2:], axis=1)
    order = np.argsort(~kept_axes, axis=1, kind="stable")[:, :n1 - 2]
    cands = np.stack(basis[2:], axis=1)[np.arange(m)[:, None], order]
    return np.concatenate([e1[:, None], cands], axis=1)


def _any_orthonormal(x0: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to each row of x0 (m, n+1), off its smallest axis."""
    m = len(x0)
    cand = np.zeros(x0.shape)
    cand[np.arange(m), np.argmin(np.abs(x0), axis=-1)] = 1.0
    cand -= symfun.rowdot(cand, x0)[:, None] * x0
    return cand / _norm(cand)[:, None]


def _select(body, rows):
    """The bodies of the anchors at rows: the one body, or those of a per-anchor list."""
    return [body[r] for r in rows] if isinstance(body, list) else body


def _at_anchors(body, oracle: str, y: np.ndarray) -> np.ndarray:
    """body.oracle at anchors y (m, n): one call, or one per body of a per-anchor list."""
    if isinstance(body, list):
        return np.array([getattr(b, oracle)(p) for b, p in zip(body, y)], dtype=float)
    return np.asarray(getattr(body, oracle)(y), dtype=float)


def _check_anchors(y0, xi, xi_norm, body) -> None:
    """PreconditionError for the first anchor (in C order) off the boundary or with a bad tangent.

    y0, xi (m, n); body one ConvexBody or a list with one per anchor.  An
    anchor's checks run in order: on the boundary, xi unit, xi tangent.
    """
    if not len(y0):
        return
    # written as "not <=" so that a NaN anchor or tangent fails them too
    defects = [np.abs(_at_anchors(body, "h", y0)), np.abs(xi_norm - 1.0)]
    tang = np.zeros(len(y0))
    rows = np.flatnonzero((defects[0] <= 1e-10) & (defects[1] <= 1e-10))
    if rows.size:
        dh = _at_anchors(_select(body, rows), "grad_h", y0[rows])
        tang[rows] = np.abs(symfun.rowdot(dh, xi[rows])) / np.maximum(_norm(dh), 1e-300)
    defects.append(tang)
    bad = [~(d <= 1e-10) for d in defects]
    any_bad = bad[0] | bad[1] | bad[2]
    if not np.count_nonzero(any_bad):
        return
    first = int(np.argmax(any_bad))
    messages = ("anchor off the boundary", "tangent not unit", "xi not tangent to the boundary")
    check = next(i for i in range(3) if bad[i][first])
    raise PreconditionError(messages[check], defects[check][first], 1e-10)


def _probes(body) -> np.ndarray:
    """The 64 boundary samples and the interior point that t_max is fitted on, (65, n)."""
    probes = np.atleast_2d(body.sample_boundary(64))
    return np.vstack([probes, np.asarray(body.interior_point, dtype=float)])


def make_field(y0, xi, body) -> RotationField:
    """Construct the rotation fields anchored at y0 with tangents xi on the body.

    y0 and xi are (..., n); body is one ConvexBody for every anchor or a list
    with one per anchor in C order.  The field carries the anchors' leading
    axes, and each of its items is bit for bit the one-anchor call.
    Preconditions: each y0 on the boundary (|h| <= 1e-10), each xi unit and
    tangent there (both within 1e-10); PreconditionError names the first
    anchor in C order that fails one.  A zero xi is accepted as the
    degenerate probe and yields the zero field (identity flow).
    """
    y0 = np.asarray(y0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lead, n = y0.shape[:-1], y0.shape[-1]
    y0f, xif = y0.reshape(-1, n), xi.reshape(-1, n)
    x0 = unproject(y0f)
    w0 = np.sqrt(1.0 + symfun.rowdot(y0f, y0f))
    xi_norm = _norm(xif)
    live = xi_norm != 0.0
    rows = np.flatnonzero(live)
    bodies = _select(body, rows)
    _check_anchors(y0f[rows], xif[rows], xi_norm[rows], bodies)

    # dP^{-1}(xi) at y0; orthogonal to x0 by construction.  float_power: the
    # libm pow of a one-anchor scalar w0**2
    d = (-np.concatenate([xif, np.zeros((len(xif), 1))], axis=-1) / w0[:, None]
         - (symfun.rowdot(y0f, xif) / np.float_power(w0, 2))[:, None] * x0)
    dn = _norm(d)
    speed = np.where(live, w0 * dn, 0.0)  # = sqrt(1 - <y0,xi>^2/(1+|y0|^2)) <= 1
    e1 = np.divide(d, dn[:, None], out=np.zeros_like(d), where=live[:, None])
    if rows.size < len(live):
        # degenerate probe: zero field, identity flow
        e1[~live] = _any_orthonormal(x0[~live])
    field = RotationField(y0=y0f, xi=xif, x0=x0, frame=_complete_frame(x0, e1),
                          speed=speed, t_max=np.full(len(live), T_CAP))
    if rows.size:
        probes = (np.stack([_probes(b) for b in bodies]) if isinstance(body, list)
                  else _probes(body))
        field.t_max[rows] = _fit_t_max(field[rows], unproject(probes))
    return RotationField(
        y0=y0, xi=xi, x0=x0.reshape(lead + (n + 1,)),
        frame=field.frame.reshape(lead + (n, n + 1)),
        speed=speed.reshape(lead)[()], t_max=field.t_max.reshape(lead)[()])


def _fit_t_max(field: RotationField, xs: np.ndarray) -> np.ndarray:
    """Largest t <= T_CAP per field keeping the rotated hemisphere height >= 0.1 on probes.

    field has one leading axis (m,); xs are the probes on the sphere, (p, n+1)
    for all fields or (m, p, n+1) one set per field.  The fields that miss
    the height at T_CAP bisect in lockstep, 60 halvings each.
    """
    def holds(rows, t):
        x = xs if xs.ndim == 2 else xs[rows]
        return _rotate(field[rows, None], t[:, None], x)[..., -1].min(axis=-1) >= 0.1

    t_max = np.full(len(field.speed), T_CAP)
    rows = np.flatnonzero(~holds(np.arange(len(t_max)), t_max))
    if rows.size:
        lo, hi = np.zeros(rows.size), t_max[rows]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = holds(rows, mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        t_max[rows] = lo
    return t_max


def _rotate(field: RotationField, t, x: np.ndarray) -> np.ndarray:
    """Apply the rotation families at times t (...) to ambient points x (..., n+1).

    The field's axes, t's and x's leading axes broadcast together.
    """
    phi = (field.speed * np.asarray(t, dtype=float))[..., None]
    a = symfun.rowdot(x[..., None, :], np.stack([field.x0, field.e1], axis=-2))
    a0, a1 = a[..., :1], a[..., 1:]
    rest = x - a0 * field.x0 - a1 * field.e1
    c, s = np.cos(phi), np.sin(phi)
    return (a0 * c - a1 * s) * field.x0 + (a0 * s + a1 * c) * field.e1 + rest


def flow(field: RotationField, t, y: np.ndarray) -> np.ndarray:
    """sigma_t(y) = P(A_t(P^{-1}(y))) for t (...) and y (..., n), broadcast with the field's axes.

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
    """The constant c (F..., n) and linear part B (F..., n, n) of T."""
    n = field.dim
    u0, d0 = field.x0[..., :n], field.x0[..., n:]
    u1, d1 = field.e1[..., :n], field.e1[..., n:]
    s = np.asarray(field.speed)[..., None]
    c = s * (d1 * u0 - d0 * u1)
    b = s[..., None] * (u1[..., :, None] * u0[..., None, :] - u0[..., :, None] * u1[..., None, :])
    return c, b


def field_eval(field: RotationField, y: np.ndarray) -> np.ndarray:
    """T(y) for y (..., n), the generator of the flow, from its degree-2 closed form."""
    y = np.asarray(y, dtype=float)
    c, b = _coeffs(field)
    # elementwise sums, not y @ b.T: BLAS rounds one point and a batch row differently
    return c + (y[..., None, :] * b).sum(axis=-1) + (y * c).sum(axis=-1)[..., None] * y


def field_polynomial(field: RotationField):
    """Polynomial coefficients of one field's T: T_m(y) = c_m + sum_j B_mj y_j + y_m (c.y).

    Returns (c, B, Q) with Q[m, j, k] the symmetric quadratic tensor; the
    quadratic part is rank-structured, Q[m,j,k] = (delta_mj c_k +
    delta_mk c_j)/2.
    """
    c, b = _coeffs(field)
    eye = np.eye(field.dim)
    q = 0.5 * (eye[:, :, None] * c + eye[:, None, :] * c[:, None])
    return c, b, q


def field_jacobian(field: RotationField, y: np.ndarray) -> np.ndarray:
    """DT(y) of one field at one point: (DT)_mj = dT_m/dy_j, affine in y."""
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
    # float_power: the libm pow of a one-field scalar speed**2
    return {
        "lhs": (t[..., None, :] @ g @ t[..., :, None])[..., 0, 0],
        "identity": np.float_power(field.speed, 2) * w2 * (a0 * a0 + a1 * a1),
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
    # float_power: the libm pow of a one-point scalar w**3
    dv = du / w[..., None] - (u / np.float_power(w, 3))[..., None] * y
    return w * (field_eval(field, y) * dv).sum(axis=-1)


def equation_defect(
    field: RotationField, jet: Jets, hess_phi: np.ndarray, star: DualPsi, k: int
) -> np.ndarray:
    """Gaps (...) of the rotation-differentiated dual equation at jet.point (..., n).

    jet holds the 2-jets of u* at the points, hess_phi (..., n, n) the
    Hessians of phi = rotated_support(...) there and star is the dual
    right-hand side.  One point is the 0-d case, and each gap of a batch is
    bit for bit the one-point call.
    """
    y = jet.point
    op = symfun.eval_operator(
        symfun.SpectrumRequest(argument_matrix(y, jet.hessian), k, "dual")
    )
    lhs = (op.gradient * argument_matrix(y, hess_phi)).sum(axis=(-2, -1))
    tvec = field_eval(field, y)
    rhs = (symfun.rowdot(tvec, star.partial_y(y, jet.value))
           + star.partial_z(y, jet.value) * symfun.rowdot(tvec, jet.gradient))
    return np.abs(lhs - rhs)[()]


def differentiated_equation_check(
    field: RotationField,
    jets,
    star: DualPsi,
    k: int,
    point: np.ndarray,
    h: float = 1.0 / 128.0,
    body=None,
) -> float:
    """Defect of the rotation-differentiated dual equation at an interior point.

    The solved dual state enters through the jet oracle `jets` (y -> Jets of
    u*) and the dual right-hand side `star`; D^2 phi is the central-difference
    Hessian of rotated_support, so on an exact solution the defect is O(h^2)
    plus the solve tolerance.  With a body, every difference probe is checked
    to lie in it before the jets are asked there (PreconditionError if not).
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
    return equation_defect(field, jets(phi_jet.point), phi_jet.hessian, star, k)
