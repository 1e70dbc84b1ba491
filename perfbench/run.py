#!/usr/bin/env python3
"""khgraph benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` next
to this directory (nothing needs installing).  The run sets up the workload,
then repeats its operation (closed loop: one caller, the next operation starts
when the previous one returns) while the next operation should still end
within ``--seconds`` (the first always runs), and checks every output.
Earlier stdout lines describe the environment and each operation; the last
line is the result, one JSON object:

* ``--trace 0``: the end-to-end metrics, timed with no wrappers installed;
* ``--trace 1``: the per-layer metrics.  The first operation runs untraced,
  the rest with a span around every wrapped layer call (see ``tracing.py``);
  ``trace.overhead`` compares the two.

BLAS/OpenMP pools are set to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
IMPORT_REPS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name in ("linsolve.factors_per_iter", "linesearch.accept_ratio", "trace.overhead") \
            or name.startswith("accuracy."):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    from tracing import layer_metrics

    return (["config.parse_config.s"] + list(layer_metrics([], None))
            + ["trace.overhead", "accuracy.c_rel_err", "accuracy.image_defect"])


def cap_threads() -> int:
    """One BLAS/OpenMP thread per pool (at most nproc); returns nproc.

    The matrices here are tiny (batched 2x2, 10x10 normal systems), and on a
    2-core box a second OpenBLAS thread busy-waits on the other core and makes
    verify-all about 40% slower and no steadier, so the benchmark measures the
    plain single-threaded program.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "khgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or commit
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
        "cpu": cpu,
    }


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import khgraph.config, khgraph.harness, khgraph.verify; print(time.perf_counter() - t)"
)


def import_seconds(reps: int) -> float:
    """Median time to import the package, each time in a fresh interpreter."""
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def set_up(configs, seed: int, tracer=None):
    """Import the package and parse the workload's configs.

    Returns (parsed configs, setup_s, instrumentation or None).  setup_s is the
    median fresh-interpreter import time plus the median time to parse every
    config of the workload, so work moved into either shows.
    """
    from khgraph import config

    import_s = import_seconds(IMPORT_REPS)
    instr = None
    if tracer is not None:
        from tracing import Instrumentation

        instr = Instrumentation(tracer)
        instr.install()
    raws = configs(seed) if configs else []
    times, parsed = [], []
    for r in range(SETUP_REPS):
        if tracer is not None:
            tracer.run_id = f"setup-{r}"
        t = time.perf_counter()
        parsed = [(raw, config.parse_config(json.dumps(raw))) for raw in raws]
        times.append(time.perf_counter() - t)
    if instr is not None:
        instr.uninstall()
    return parsed, import_s + statistics.median(times), instr


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, solve_op, verify_op, verify_seeds

    configs = WORKLOADS[workload_name]
    tracer = None
    if trace:
        from tracing import Tracer, layer_metrics, median_metrics, self_seconds

        tracer = Tracer()
    parsed, setup_s, instr = set_up(configs, seed, tracer)

    out_dir = OUT / f"{workload_name}-{seed}-{os.getpid()}"
    if configs:
        def op():
            return solve_op(parsed, str(out_dir))
    else:
        seeds = verify_seeds(seed)

        def op():
            return verify_op(seeds)

    walls, outcomes, traced = [], [], []
    t_start = time.perf_counter()
    try:
        while True:
            i = len(walls)
            traced_op = trace and i > 0
            if traced_op:
                tracer.run_id = i
                instr.install()
            t = time.perf_counter()
            try:
                outcome = op()
            finally:
                if traced_op:
                    instr.uninstall()
            walls.append(time.perf_counter() - t)
            outcomes.append(outcome)
            traced.append(traced_op)
            print(json.dumps({"op": i, "traced": traced_op, "wall_s": walls[-1],
                              "attempted": outcome.attempted, "failed": outcome.failed,
                              "accuracy": outcome.accuracy, "notes": outcome.notes}), flush=True)
            # start another operation only if it should end inside the window
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(walls) > seconds and len(walls) >= 1 + trace:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    # the same inputs must give bit-identical outputs on every repetition,
    # traced or not: a difference means nondeterminism or a wrapper leak
    reproducible = all(o.fingerprint == outcomes[0].fingerprint for o in outcomes)
    if not reproducible:
        print(json.dumps({"error": "operation outputs differ between repetitions"}), flush=True)

    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        spans = tracer.spans
        metrics = median_metrics([layer_metrics(spans, i) for i, on in enumerate(traced) if on])
        metrics["config.parse_config.s"] = statistics.median(
            self_seconds(spans, f"setup-{r}", "config.parse_config") for r in range(SETUP_REPS))
        untraced = statistics.median(w for w, on in zip(walls, traced) if not on)
        metrics["trace.overhead"] = statistics.median(w for w, on in zip(walls, traced) if on) / untraced - 1.0
        for key in ("c_rel_err", "image_defect"):
            metrics[f"accuracy.{key}"] = statistics.median(o.accuracy.get(key, 0.0) for o in outcomes)
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{workload_name}-{seed}.jsonl"))
    units = END_TO_END if not trace else {n: _unit(n) for n in per_layer_names()}
    return {
        "correct": failed == 0 and reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    nproc = cap_threads()  # before anything imports numpy
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "khgraph" / "__init__.py").is_file():
        print(f"khgraph sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(nproc)}), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(HERE)]
    sys.exit(main())
