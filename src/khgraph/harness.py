"""End-to-end solve driver: config in, report JSON and grid CSV out."""

from __future__ import annotations

import json
import os
import time

from . import solver
from .config import ProblemConfig
from .errors import ContinuationError
from .grid import build_grid
from .report import SolveReport, write_grid_csv


def _residual_history(levels: list) -> list:
    return [[h["eps"], h["iterations"], h["residual"]] for h in levels]


def run_solve(cfg: ProblemConfig, out_dir: str) -> SolveReport:
    """Execute continuation, recovery and diagnostics; write artifacts.

    Raises ContinuationError (with partial history serialized next to the
    report) when a level fails; config errors surface before any work.  A
    returned report has converged: continuation_solve returns only once
    every level met newton_tol.
    """
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    grid = build_grid(cfg.omega_star, cfg.grid[0], cfg.grid[1])
    try:
        state = solver.continuation_solve(
            grid,
            cfg.omega,
            cfg.k,
            cfg.psi,
            eps_schedule=cfg.continuation,
            tol=cfg.tolerances["newton_tol"],
            spd_floor=cfg.tolerances["spd_floor"],
        )
    except ContinuationError as exc:
        report = SolveReport(
            c_estimate=None,
            residual_history=_residual_history(exc.completed_levels),
            chi_min=None,
            M=None,
            M_tilde=None,
            mean_u=None,
            grid_dump_path="",
            wall_time=time.perf_counter() - t0,
            convergence_flag=False,
        )
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(report.to_json())
        raise

    recovery = solver.recover_primal(state)
    diag = solver.diagnostics(state)

    csv_path = os.path.join(out_dir, "grid.csv")
    write_grid_csv(csv_path, grid.nodes, state.u_star, recovery.points,
                   state.argument_eigenvalues)

    report = SolveReport(
        c_estimate=state.c_estimate,
        residual_history=_residual_history(state.history),
        chi_min=diag["chi_min"],
        M=diag["M"],
        M_tilde=diag["M_tilde"],
        mean_u=state.history[-1]["mean_u"],
        grid_dump_path=csv_path,
        wall_time=time.perf_counter() - t0,
        convergence_flag=True,
    )
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    report_extras = {
        "hausdorff": recovery.hausdorff,
        "boundary_defect": recovery.boundary_defect,
        "chi_formula_min": diag["chi_formula_min"],
        "grid_spacing": grid.spacing,
    }
    with open(os.path.join(out_dir, "details.json"), "w") as fh:
        fh.write(json.dumps(report_extras, sort_keys=True, indent=2) + "\n")
    return report
