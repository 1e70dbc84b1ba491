#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 0,0 --trace 1 --out perfbench/baseline-trace.json

Each run is ``run.py`` in its own process, one after another, with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric the summary
gives the values, their median and quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median, next to a third of the metric's bound;
for a traced run (``--trace 1``) it keeps the per-layer metrics of each seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    """(environment, result, wall seconds of each operation) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = json.loads(lines[0])["env"]
    ops = [json.loads(ln)["wall_s"] for ln in lines[1:-1] if ln.startswith('{"op"')]
    return env, json.loads(lines[-1]), ops


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "env": None,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            env, result, ops = run_once(workload, seed, bench["run_seconds"], args.trace)
            summary["env"] = summary["env"] or env
            runs.append({"seed": seed, "op_wall_s": ops, **result})
            print(json.dumps({"workload": workload, "seed": seed, "correct": result["correct"],
                              "attempted": result["attempted"], "failed": result["failed"],
                              **{k: v["value"] for k, v in result["metrics"].items()
                                 if args.trace == 0}}), flush=True)
        entry = {"runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed", "op_wall_s")}
                          for r in runs]}
        if args.trace == 0:
            entry["end_to_end"] = {}
            for name, bound in bounds.items():
                s = summarise([r["metrics"][name]["value"] for r in runs])
                s["bound"], s["bound_third"] = bound, bound / 3
                entry["end_to_end"][name] = s
                print(f"  {workload:13s} {name:12s} median {s['median']:.4g}  "
                      f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.3f}  "
                      f"(bound/3 {bound / 3:.3f})", flush=True)
        else:
            entry["per_layer"] = [{"seed": r["seed"], **{k: v["value"] for k, v in r["metrics"].items()}}
                                  for r in runs]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
