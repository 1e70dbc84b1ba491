#!/usr/bin/env python3
"""Fast self-test of the benchmark (about 10 s): python3 perfbench/selftest.py

On a tiny cap (12x24, two eps levels, the ``tiny-cap`` workload) it checks
that

1. ``run.py`` emits exactly the metrics BENCHMARK.json lists, each with its
   unit, in both the untraced and the traced run;
2. span self times are non-negative and every span nests inside its parent;
3. a wrapped solve returns a bit-identical ``c_estimate`` and residual
   history to an unwrapped one, so the wrappers do not change the program.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_emitted_metrics(failures: list[str]) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tiny-cap", "--seed", "0",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            failures.append(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            failures.append(f"--trace {trace}: bad result header {result}")
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != want:
            failures.append(f"--trace {trace}: metrics/units differ from BENCHMARK.json "
                            f"{sorted(set(got.items()) ^ set(want.items()))}")
        bad = [k for k, v in result["metrics"].items()
               if not isinstance(v.get("value"), (int, float)) or v["value"] != v["value"]]
        if bad:
            failures.append(f"--trace {trace}: non-numeric values {bad}")


def check_spans_and_identity(failures: list[str]) -> None:
    from khgraph import config, harness
    from tracing import END, PARENT, START, Instrumentation, Tracer, self_times
    from workloads import WORKLOADS

    raw = WORKLOADS["tiny-cap"](0)[0]
    cfg = config.parse_config(json.dumps(raw))
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        plain = harness.run_solve(cfg, out)
        tracer = Tracer()
        instr = Instrumentation(tracer)
        instr.install()
        try:
            tracer.run_id = 0
            wrapped = harness.run_solve(cfg, out)
        finally:
            instr.uninstall()
    if (plain.c_estimate, plain.residual_history) != (wrapped.c_estimate, wrapped.residual_history):
        failures.append(f"wrapped solve differs: {plain.c_estimate!r} vs {wrapped.c_estimate!r}")
    if hasattr(harness.run_solve, "__wrapped__"):
        failures.append("uninstall left a wrapper in place")
    spans = tracer.spans
    names = {s[0] for s in spans}
    for needed in ("harness.run_solve", "grid.build_grid", "linsolve.factor", "linsolve.solve",
                   "newton.newton_solve", "solver.residual", "bodies.boundary_h"):
        if needed not in names:
            failures.append(f"no {needed} span recorded")
    for i, own in enumerate(self_times(spans)):
        s = spans[i]
        if own < 0.0:
            failures.append(f"span {i} {s[0]} has negative self time {own}")
        p = s[PARENT]
        if p >= 0 and not (spans[p][START] <= s[START] <= s[END] <= spans[p][END]):
            failures.append(f"span {i} {s[0]} is not inside its parent {spans[p][0]}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import cap_threads

    cap_threads()
    failures: list[str] = []
    check_spans_and_identity(failures)
    check_emitted_metrics(failures)
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
