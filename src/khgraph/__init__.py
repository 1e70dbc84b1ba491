"""Strictly convex graphs with prescribed k-Hessian curvature and prescribed
gradient image: geometry kernels, Legendre duality, rotation fields, and the
dual oblique-boundary solver."""

from . import bodies, duality, geometry, psi, rotations, symfun

__all__ = [
    "bodies",
    "duality",
    "geometry",
    "psi",
    "rotations",
    "symfun",
]

__version__ = "0.1.0"
