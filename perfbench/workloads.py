"""Workload inputs generated from a seed, the operation each one times, and its output checks.

Every workload is closed loop: one caller, and the next operation starts when
the previous one returns.  An operation repeats the same generated inputs, so
counts repeat exactly across the operations and runs of one seed.  Seed 0 is
the registry instance (at the grid size stated below); the program only ever
receives the generated config, as JSON text through ``parse_config``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import comb

import numpy as np

# acceptance criterion 1: the cap constant within 1% of its closed form
CAP_C_TOL = 0.01
# consecutive verify seeds per operation of verify-all
VERIFY_SEEDS = 2


@dataclass
class Outcome:
    """Result of one operation: what it attempted, what failed and why."""

    attempted: int = 0
    failed: int = 0
    # values compared bit for bit between repetitions of the operation
    fingerprint: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def cap_fine_configs(seed: int) -> list[dict]:
    rho = 0.5 if seed == 0 else float(_rng(seed, 1).uniform(0.4, 0.6))
    return [{
        "dimension": 2, "k": 1,
        "omega": {"kind": "ball", "radius": rho},
        "omega_star": {"kind": "ball", "radius": rho},
        "psi": {"kind": "constant", "value": 1.0},
        "grid": [32, 64],
    }]


def tiny_cap_configs(seed: int) -> list[dict]:
    raw = cap_fine_configs(seed)[0]
    raw.update(grid=[12, 24], continuation=[0.4, 0.2])
    return [raw]


def superellipse_configs(seed: int) -> list[dict]:
    axes, axes_star, linear = [0.5, 0.4], [0.42, 0.34], [0.1, -0.05, 0.08]
    if seed:
        rng = _rng(seed, 2)
        axes = [a * (1.0 + rng.uniform(-0.05, 0.05)) for a in axes]
        axes_star = [a * (1.0 + rng.uniform(-0.05, 0.05)) for a in axes_star]
        linear = [c + rng.uniform(-0.02, 0.02) for c in linear]
    return [{
        "dimension": 2, "k": 2,
        "omega": {"kind": "superellipse", "semi_axes": axes, "exponent": 4.0},
        "omega_star": {"kind": "superellipse", "semi_axes": axes_star, "exponent": 4.0},
        "psi": {"kind": "normal-only", "const": 1.0, "linear": linear},
        "grid": [16, 32],
    }]


def solve_configs(seed: int) -> list[dict]:
    return cap_fine_configs(seed) + superellipse_configs(seed)


def _ellipse(k: int, seed: int) -> dict:
    angle = 0.0 if seed == 0 else float(_rng(seed, 3).uniform(0.0, np.pi))
    return {
        "dimension": 2, "k": k,
        "omega": {"kind": "ball", "radius": 0.5},
        "omega_star": {"kind": "ellipse", "semi_axes": [0.45, 0.3], "angle": angle},
        "psi": {"kind": "constant", "value": 1.0},
        "grid": [32, 64],
    }


def ellipse_configs(seed: int) -> list[dict]:
    return [_ellipse(1, seed)]


def ellipse_k2_configs(seed: int) -> list[dict]:
    return [_ellipse(2, seed)]


def _newton_iterations(exc: BaseException) -> int | None:
    """Newton iterations of the failing level, the stalled one included.

    Read from the exception chain: the cause's residual history has one entry
    for the start and one per accepted step.
    """
    history = getattr(exc.__cause__, "history", None)
    return len(history) if history else None


def solve_op(parsed: list, out_dir: str) -> Outcome:
    """run_solve every config of the workload and check each report."""
    from khgraph import harness
    from khgraph.errors import ContinuationError, KHGraphError

    out = Outcome()
    for raw, cfg in parsed:
        out.attempted += 1
        try:
            rep = harness.run_solve(cfg, out_dir)
        except ContinuationError as exc:
            out.failed += 1
            out.fingerprint.append(str(exc))
            out.notes.append({
                "k": cfg.k,
                "error": type(exc).__name__,
                "cause": type(exc.__cause__).__name__,
                "message": str(exc),
                "newton_iterations": _newton_iterations(exc),
                "levels_completed": len(exc.completed_levels),
            })
            continue
        except KHGraphError as exc:
            out.failed += 1
            out.fingerprint.append(repr(exc))
            out.notes.append({"k": cfg.k, "error": type(exc).__name__, "message": str(exc)})
            continue
        out.fingerprint.append([rep.c_estimate, rep.residual_history])
        problems = []
        if not rep.convergence_flag:
            problems.append("convergence_flag false")
        if raw["omega"]["kind"] == "ball" and raw["omega_star"] == raw["omega"]:
            rho = raw["omega"]["radius"]
            exact = comb(2, cfg.k) / (1.0 + rho * rho) ** (cfg.k / 2)
            err = abs(rep.c_estimate - exact) / exact
            out.accuracy["c_rel_err"] = err
            if not err <= CAP_C_TOL:
                problems.append(f"c_rel_err {err:.3e} > {CAP_C_TOL}")
        else:
            with open(os.path.join(out_dir, "details.json")) as fh:
                details = json.load(fh)
            defect = details["boundary_defect"]
            # second order in the grid spacing, the bound tests/test_solver.py uses
            bound = details["grid_spacing"] ** 2
            out.accuracy["image_defect"] = max(out.accuracy.get("image_defect", 0.0), defect)
            if not rep.chi_min > 0.0:
                problems.append(f"chi_min {rep.chi_min:.3e} <= 0")
            if not defect <= bound:
                problems.append(f"image_defect {defect:.3e} > spacing^2 {bound:.3e}")
        if problems:
            out.failed += 1
            out.notes.append({"k": cfg.k, "failed_checks": problems})
    return out


def verify_op(seeds: list[int]) -> Outcome:
    """run_verify('all') over consecutive seeds; each check is one operation."""
    from khgraph import verify

    out = Outcome()
    for s in seeds:
        rep = verify.run_verify("all", s)
        out.attempted += len(rep["checks"])
        out.fingerprint.append([(c["name"], c["passed"], c["detail"]) for c in rep["checks"]])
        bad = [c for c in rep["checks"] if not c["passed"]]
        out.failed += len(bad)
        out.notes.extend({"verify_seed": s, "check": c["name"], "detail": c["detail"]} for c in bad)
    return out


# workload name -> (seed -> config dicts); verify-all runs verify_seeds instead
WORKLOADS = {
    "solve": solve_configs,
    "verify-all": None,
    # not in BENCHMARK.json, run by hand: one layer each (cap-fine: LU,
    # superellipse: body oracles, ellipse: balanced; ellipse-k2 fails at
    # eps = 0.4 after ~45 s)
    "cap-fine": cap_fine_configs,
    "superellipse": superellipse_configs,
    "ellipse": ellipse_configs,
    "ellipse-k2": ellipse_k2_configs,
    # not in BENCHMARK.json: the self-test's sub-second cap
    "tiny-cap": tiny_cap_configs,
}


def verify_seeds(seed: int) -> list[int]:
    return list(range(VERIFY_SEEDS * seed, VERIFY_SEEDS * seed + VERIFY_SEEDS))
