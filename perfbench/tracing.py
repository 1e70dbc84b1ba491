"""Spans around the public calls into each khgraph layer, recorded from outside.

Nothing in the program changes: ``Instrumentation.install`` replaces each
wrapped name where its caller looks it up (a module attribute or a method on
a class) and ``uninstall`` puts the originals back.  Untraced runs never
install the wrappers, so they time the program as shipped.

A span is ``[name, start, end, parent, run_id, attrs]``; spans stay in memory
and are written out once, when the benchmark ends.  A layer's self time is
its span's duration minus the durations of its direct children (calls are
sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import time

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "run", "attrs"), s))) + "\n")


def _wrap(tracer: Tracer, name: str, fn, attrs=None, error_attrs=None):
    """Record a span per call; ``attrs(args, result)`` adds counts at the boundary."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            extra = {"error": type(exc).__name__}
            if error_attrs is not None:
                extra.update(error_attrs(exc))
            tracer.close(idx, extra)
            raise
        tracer.close(idx, attrs(args, result) if attrs is not None else None)
        return result

    return wrapper


class _TimedLU:
    """SuperLU stand-in whose ``solve`` records a ``linsolve.solve`` span."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        idx = self._tracer.open("linsolve.solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __getattr__(self, item):
        return getattr(self._lu, item)


def _newton_error_attrs(exc):
    history = getattr(exc, "history", None)
    return {"iterations": len(history) - 1} if history else {}


class Instrumentation:
    """The wrapped boundaries of every layer, installed and removed as a set."""

    def __init__(self, tracer: Tracer):
        import scipy.sparse.linalg as spla

        from khgraph import (
            config, duality, geometry, grid, harness, meshfree, rotations, solver,
            symfun, verify,
        )

        t = tracer

        def splu(fn):
            # SuperLU's nnz counts the stored L+U entries (supernodal storage)
            timed = _wrap(t, "linsolve.factor", fn,
                          lambda a, lu: {"fill_nnz": int(lu.nnz), "jac_nnz": int(a[0].nnz)})

            @functools.wraps(fn)
            def factor(*args, **kwargs):
                return _TimedLU(timed(*args, **kwargs), t)

            return factor

        def stencil_nnz(args, g):
            return {"stencil_nnz": int(sum(op.matrix.nnz for op in g.ops.values()))}

        plain = lambda name: lambda fn: _wrap(t, name, fn)  # noqa: E731
        # (owner, attribute, wrapper factory): the owner is where the caller
        # looks the name up, e.g. harness imports build_grid by name and
        # newton_solve calls spla.splu through the scipy module.
        self._targets = [
            (config, "parse_config", plain("config.parse_config")),
            (harness, "run_solve", plain("harness.run_solve")),
            (harness, "build_grid", lambda fn: _wrap(t, "grid.build_grid", fn, stencil_nnz)),
            (grid, "jet_weight_rows", plain("meshfree.jet_weight_rows")),
            (meshfree, "jet_weight_rows", plain("meshfree.jet_weight_rows")),
            (solver.DualProblem, "boundary_h", lambda fn: _wrap(
                t, "bodies.boundary_h", fn, lambda a, r: {"points": len(a[1])})),
            (solver.DualProblem, "residual", plain("solver.residual")),
            (solver.DualProblem, "jacobian", plain("solver.jacobian")),
            (solver.DualProblem, "spd_margin", plain("solver.spd_margin")),
            (solver, "dual_operator_batch", plain("solver.dual_operator_batch")),
            (spla, "splu", splu),
            (solver, "continuation_solve", plain("newton.continuation_solve")),
            (solver, "newton_solve", lambda fn: _wrap(
                t, "newton.newton_solve", fn, lambda a, r: {"iterations": int(r[1])},
                _newton_error_attrs)),
            (solver, "spd_repair", plain("newton.spd_repair")),
            (solver, "recover_primal", plain("solver.recover_primal")),
            (solver, "diagnostics", plain("solver.diagnostics")),
            (duality, "invert_gradient_map", plain("duality.invert_gradient_map")),
            (verify, "run_verify", lambda fn: _wrap(
                t, "verify.run_verify", fn, lambda a, r: {"checks": len(r["checks"])})),
            (symfun, "eval_operator", plain("symfun.eval_operator")),
            (symfun, "sigma_all", plain("symfun.sigma_all")),
            (geometry, "curvature_pack", plain("geometry.curvature_pack")),
            (duality, "legendre", plain("duality.legendre")),
            (rotations, "make_field", plain("rotations.make_field")),
            (rotations, "flow", plain("rotations.flow")),
        ]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, factory in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one operation

COUNTED = (
    "meshfree.jet_weight_rows",
    "bodies.boundary_h",
    "solver.residual",
    "solver.jacobian",
    "solver.dual_operator_batch",
    "solver.spd_margin",
    "linsolve.factor",
    "duality.invert_gradient_map",
    "symfun.eval_operator",
    "symfun.sigma_all",
    "geometry.curvature_pack",
    "duality.legendre",
    "rotations.make_field",
    "rotations.flow",
)
TIMED_ONLY = (
    "grid.build_grid",
    "linsolve.solve",
    "solver.recover_primal",
    "solver.diagnostics",
)


def self_times(spans: list[list]) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_seconds(spans: list[list], run_id, name: str) -> float:
    own = self_times(spans)
    return sum(own[i] for i, s in enumerate(spans) if s[RUN] == run_id and s[NAME] == name)


def _line_search(spans: list[list], ids: list[int], newton_idx: int):
    """(trials, trial residuals, accepted steps, rejected seconds) of one newton_solve.

    Children of a Newton call run in program order: the start-up margin and
    residual, then per iteration jacobian, factor, solve and a run of trials
    (spd_margin, plus residual when the margin holds).  The last trial of an
    iteration is the accepted step, unless the call ended in a line-search
    stall, where every trial of its last iteration was rejected.
    """
    children = [i for i in ids if spans[i][PARENT] == newton_idx]
    stalled = (spans[newton_idx][ATTRS] or {}).get("error") == "LineSearchStallError"
    groups: list[list[list[int]]] = []
    in_trials = False
    for i in children:
        name = spans[i][NAME]
        if name == "linsolve.solve":
            groups.append([])
            in_trials = True
        elif name == "solver.jacobian":
            in_trials = False
        elif in_trials and name == "solver.spd_margin":
            groups[-1].append([i])
        elif in_trials and name == "solver.residual" and groups[-1]:
            groups[-1][-1].append(i)
    trials = trial_res = accepted = 0
    rejected_s = 0.0
    for g, group in enumerate(groups):
        last_accepted = bool(group) and not (stalled and g == len(groups) - 1)
        accepted += last_accepted
        for j, trial in enumerate(group):
            trials += 1
            trial_res += len(trial) - 1
            if not (last_accepted and j == len(group) - 1):
                rejected_s += sum(spans[i][END] - spans[i][START] for i in trial)
    return trials, trial_res, accepted, rejected_s


def layer_metrics(spans: list[list], run_id) -> dict:
    """Per-layer metrics (counts and self seconds) of the spans of one run id."""
    ids = [i for i, s in enumerate(spans) if s[RUN] == run_id]
    own = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for i in ids:
        name = spans[i][NAME]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + own[i]
    m: dict[str, float] = {}
    for name in COUNTED:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = secs.get(name, 0.0)
    for name in TIMED_ONLY:
        m[f"{name}.s"] = secs.get(name, 0.0)

    def attr_sum(name, key):
        return sum((spans[i][ATTRS] or {}).get(key, 0) for i in ids if spans[i][NAME] == name)

    m["grid.stencil_nnz"] = attr_sum("grid.build_grid", "stencil_nnz")
    m["bodies.boundary_h.points"] = attr_sum("bodies.boundary_h", "points")
    factors = calls.get("linsolve.factor", 0)
    m["linsolve.fill_nnz"] = attr_sum("linsolve.factor", "fill_nnz") / max(factors, 1)
    m["linsolve.jac_nnz"] = attr_sum("linsolve.factor", "jac_nnz") / max(factors, 1)
    iterations = attr_sum("newton.newton_solve", "iterations")
    m["linsolve.factors_per_iter"] = factors / iterations if iterations else 0.0
    m["newton.iterations"] = iterations
    m["newton.levels"] = calls.get("newton.newton_solve", 0)
    m["newton.self_s"] = sum(
        secs.get(n, 0.0)
        for n in ("newton.newton_solve", "newton.continuation_solve", "newton.spd_repair")
    )
    trials = trial_res = accepted = 0
    rejected_s = 0.0
    for i in ids:
        if spans[i][NAME] == "newton.newton_solve":
            a, b, c, d = _line_search(spans, ids, i)
            trials, trial_res, accepted, rejected_s = trials + a, trial_res + b, accepted + c, rejected_s + d
    m["linesearch.trials"] = trials
    m["linesearch.trial_residuals"] = trial_res
    m["linesearch.accept_ratio"] = accepted / trial_res if trial_res else 0.0
    m["linesearch.rejected_s"] = rejected_s
    m["harness.self_s"] = secs.get("harness.run_solve", 0.0)
    m["verify.checks"] = attr_sum("verify.run_verify", "checks")
    m["verify.self_s"] = secs.get("verify.run_verify", 0.0)
    m["trace.spans"] = len(ids)
    return m


def median_metrics(per_op: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
