"""Command-line interface.

Subcommands:
    solve  --config <path> --out <dir>      run the continuation solver
    verify --suite <name> [--seed N]        run an invariant suite
    field  --y0 a,b --xi a,b --body <spec>  dump a rotation field as CSV
           [--out <csv>] [--t-samples N]

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bodies, rotations
from .config import parse_config
from .errors import ConfigError, ContinuationError, KHGraphError
from .registry import INSTANCES, get_instance
from .verify import SUITES, run_verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_INVARIANT = 4


_BODY_VALUES = {"ball": (1, 3), "ellipse": (2, 3), "superellipse": (2, 3)}
# the builder parameter an ellipse's or superellipse's optional third number sets
_BODY_OPTION = {"ellipse": "angle", "superellipse": "exponent"}


def _parse_body(spec: str) -> bodies.ConvexBody:
    """Body mini-format: 'ball:r[,cx,cy]' | 'ellipse:a,b[,angle]' | 'superellipse:a,b[,q]'."""
    kind, _, rest = spec.partition(":")
    if kind not in _BODY_VALUES:
        raise ConfigError("body", f"unknown body kind {kind!r}")
    vals = [float(v) for v in rest.split(",")] if rest else []
    if len(vals) not in _BODY_VALUES[kind]:
        counts = " or ".join(str(n) for n in _BODY_VALUES[kind])
        raise ConfigError("body", f"{kind} takes {counts} numbers, got {len(vals)}")
    if not np.isfinite(vals).all():
        raise ConfigError("body", f"non-finite number in {rest!r}")
    if kind == "ball":
        return bodies.ball(vals[0], vals[1:] or None)
    return getattr(bodies, kind)(vals[:2], **dict(zip([_BODY_OPTION[kind]], vals[2:])))


def _vec(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def cmd_solve(args) -> int:
    # the solver layer (scipy) loads only here, so verify and field never pay it
    from .harness import run_solve

    try:
        if args.instance:
            cfg = get_instance(args.instance)
        else:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
    except (OSError, KeyError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = run_solve(cfg, args.out)
    except ContinuationError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except KHGraphError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(report.to_json(), end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = run_verify(args.suite, seed=args.seed)
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK if report["all_passed"] else EXIT_INVARIANT


def cmd_field(args) -> int:
    try:
        if args.t_samples < 1:
            raise ConfigError("t-samples", f"must be at least 1, got {args.t_samples}")
        body = _parse_body(args.body)
        y0 = _vec(args.y0)
        xi = _vec(args.xi)
        for key, v in (("y0", y0), ("xi", xi)):
            if v.size != body.dim:
                raise ConfigError(key, f"needs {body.dim} numbers, got {v.size}")
        fld = rotations.make_field(y0, xi, body)
    except (ConfigError, KHGraphError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    c, b, q = rotations.field_polynomial(fld)
    lines = ["# rotation field: T_m(y) = c_m + sum_j B_mj y_j + y_m (c . y)"]
    lines.append("# constant: " + ", ".join(f"{v:.17g}" for v in c))
    for m in range(b.shape[0]):
        lines.append(
            f"# linear[{m}]: " + ", ".join(f"{v:.17g}" for v in b[m])
        )
    lines.append(f"# speed: {fld.speed:.17g}")
    lines.append(f"# t_max: {fld.t_max:.17g}")
    lines.append("t,y1,y2,T1,T2")
    ts = np.linspace(0.0, fld.t_max, args.t_samples)
    ys = rotations.flow(fld, ts, y0)
    tvs = rotations.field_eval(fld, ys)
    for t, yt, tv in zip(ts, ys, tvs):
        lines.append(
            ",".join(f"{v:.17g}" for v in (t, yt[0], yt[1], tv[0], tv[1]))
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="khgraph",
        description="Prescribed k-Hessian curvature graphs with gradient-image "
        "boundary data: dual solver and verification kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuation solver")
    group = p_solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to a JSON problem config")
    group.add_argument(
        "--instance", choices=sorted(INSTANCES), help="named registry instance"
    )
    p_solve.add_argument("--out", required=True, help="output directory")

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=[*SUITES, "all"],
    )
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized sweeps")

    p_field = sub.add_parser("field", help="dump a rotation field")
    p_field.add_argument("--y0", required=True, help="anchor, e.g. '0.5,0'")
    p_field.add_argument("--xi", required=True, help="unit tangent, e.g. '0,1'")
    p_field.add_argument("--body", required=True,
                         help="e.g. 'ball:0.5' or 'ellipse:1,0.6'")
    p_field.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_field.add_argument("--t-samples", type=int, default=33)

    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_field(args)


if __name__ == "__main__":
    sys.exit(main())
