"""Solve reports and grid dumps: canonical JSON and full-precision CSV."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

CSV_COLUMNS = ("y1", "y2", "u_star", "du1", "du2", "lambda_min", "lambda_max")


@dataclass
class SolveReport:
    """The answer of one solve; a failed solve has None (JSON null) for
    c_estimate, chi_min, M, M_tilde and mean_u, and only its completed levels
    in residual_history."""

    c_estimate: float | None
    residual_history: list  # [eps, iterations, residual] per level
    chi_min: float | None
    M: float | None
    M_tilde: float | None
    mean_u: float | None
    grid_dump_path: str
    wall_time: float
    convergence_flag: bool

    def to_json(self) -> str:
        """Canonical strict JSON: sorted keys, repr floats, trailing newline.

        parse(to_json()) followed by to_json() is byte-identical; a NaN or an
        infinity raises ValueError instead of writing a non-JSON token.
        """
        return json.dumps(asdict(self), sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        raw = json.loads(text)
        extra = set(raw) - set(REPORT_KEYS)
        if extra:
            raise ValueError(f"unknown report keys: {sorted(extra)}")
        missing = set(REPORT_KEYS) - set(raw)
        if missing:
            raise ValueError(f"missing report keys: {sorted(missing)}")
        return cls(**raw)


REPORT_KEYS = tuple(f.name for f in fields(SolveReport))


def write_grid_csv(path, nodes, u_star, gradients, radii) -> None:
    """Dump the solved grid with 17 significant digits (bit-faithful floats).

    radii holds the eigenvalues of the dual argument matrix per node (the
    curvature radii on converged states), sorted ascending.
    """
    table = np.column_stack([nodes[:, 0], nodes[:, 1], u_star, gradients[:, 0],
                             gradients[:, 1], radii[:, 0], radii[:, -1]])
    row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def read_grid_csv(path) -> dict:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}
