"""Exception types shared across the package.

Cone violations are recoverable: the Newton line search probes infeasible
iterates and must be able to catch and shrink, so they carry enough data to
act on (the offending eigenvalues / node indices).
"""

from __future__ import annotations

import numpy as np


class KHGraphError(Exception):
    """Base class for all package errors."""


class ConeViolationError(KHGraphError):
    """Eigenvalues left the admissible (positive) cone.

    Attributes:
        eigenvalues: the offending spectrum (sorted ascending).
        nodes: optional node indices, set when raised during grid assembly.
    """

    def __init__(self, eigenvalues, nodes=None, message=None):
        self.eigenvalues = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
        self.nodes = None if nodes is None else np.atleast_1d(np.asarray(nodes))
        if message is None:
            message = f"spectrum outside the positive cone: {self.eigenvalues}"
            if self.nodes is not None:
                message += f" at nodes {self.nodes.tolist()}"
        super().__init__(message)


class BoundaryMismatchError(KHGraphError):
    """Gradient image is not on the target boundary within tolerance."""

    def __init__(self, defect, tol, message=None):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            message
            or f"point is off the boundary level set: |h| = {self.defect:.3e} > {self.tol:.1e}"
        )


class OutOfImageError(KHGraphError):
    """Newton inversion of a gradient map failed to reach the requested point."""

    def __init__(self, target, residual, message=None):
        self.target = np.asarray(target, dtype=float)
        self.residual = float(residual)
        super().__init__(
            message
            or f"gradient map does not reach y = {self.target} (residual {self.residual:.3e})"
        )


class HemisphereExitError(KHGraphError):
    """A rotated point left the open upper hemisphere (projection undefined)."""

    def __init__(self, t, denominator):
        self.t = float(t)
        self.denominator = float(denominator)
        super().__init__(
            f"flow at t = {self.t:g} leaves the upper hemisphere "
            f"(height {self.denominator:.3e})"
        )


class PreconditionError(KHGraphError):
    """An operation precondition failed; carries the measured defect."""

    def __init__(self, what, defect, tol):
        self.what = what
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(f"{what}: defect {self.defect:.3e} exceeds {self.tol:.1e}")


class GridConstructionError(KHGraphError):
    """Grid construction failed (body not star-shaped, bad stencil, ...)."""


class SingularJacobianError(KHGraphError):
    """The sparse LU of the Newton Jacobian met an exactly zero pivot."""

    def __init__(self):
        super().__init__("Jacobian singular: its LU met an exactly zero pivot")


class NewtonError(KHGraphError):
    """Newton iteration failed; carries the residual history and last iterate."""

    def __init__(self, message, history, iterate=None):
        self.history = list(history)
        self.iterate = iterate
        super().__init__(message)


class LineSearchStallError(NewtonError):
    """Backtracking could not produce an acceptable step."""


class NonConvergenceError(NewtonError):
    """Iteration budget exhausted above tolerance."""


class ContinuationError(KHGraphError):
    """A continuation level failed; carries the levels completed so far.

    completed_levels holds one record per completed level, in order: a dict
    with its eps, Newton iterations, start and final residuals, primal
    mean_u, and the fresh factors and GMRES (krylov) iterations of its
    linear solves.
    """

    def __init__(self, message, completed_levels):
        self.completed_levels = completed_levels
        super().__init__(message)


class ConfigError(KHGraphError):
    """Invalid problem configuration; names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class StrictConvexityError(ConfigError):
    """Body parameters fail the uniform-concavity probe."""
