"""Problem configuration: strict JSON schema, body/psi builders, defaults."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import bodies, psi
from .errors import ConfigError, StrictConvexityError

# the one home of the solver's defaults and limits; solver and grid import them
DEFAULT_GRID = (64, 128)
MIN_GRID = (8, 16)  # fewest rings and rays a grid may have
DEFAULT_EPS_SCHEDULE = (0.4, 0.2, 0.1)
NEWTON_TOL = 1e-10
SPD_FLOOR = 1e-8


def _number(v) -> bool:
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    return type(v) in (int, float) and math.isfinite(v)


def _list_of(n: int, item=_number):
    return lambda v: isinstance(v, list) and len(v) == n and all(map(item, v))


# the keys each kind allows, with the type check of each value
_BODY_KEYS = {
    "ball": {"radius": _number, "center": _list_of(2)},
    "ellipse": {"semi_axes": _list_of(2), "center": _list_of(2), "angle": _number},
    "superellipse": {"semi_axes": _list_of(2), "exponent": _number,
                     "center": _list_of(2), "blend": _number},
}
# linear and quadratic act on the unit normal in R^3
_PSI_KEYS = {
    "constant": {"value": _number},
    "normal-only": {"const": _number, "linear": _list_of(3),
                    "quadratic": _list_of(3, _list_of(3))},
    "exponential": {"eps": _number, "base": None},
}


@dataclass
class ProblemConfig:
    dimension: int
    k: int
    omega: bodies.ConvexBody
    omega_star: bodies.ConvexBody
    psi: psi.PsiSpec
    grid: tuple = DEFAULT_GRID
    continuation: list = field(default_factory=lambda: list(DEFAULT_EPS_SCHEDULE))
    tolerances: dict = field(
        default_factory=lambda: {"newton_tol": NEWTON_TOL, "spd_floor": SPD_FLOOR}
    )


def _check_keys(d: dict, checks: dict, where: str) -> None:
    """Reject unknown keys and values that fail their key's type check."""
    for key, value in d.items():
        if key not in checks:
            raise ConfigError(f"{where}.{key}", "unknown key")
        if checks[key] is not None and not checks[key](value):
            raise ConfigError(f"{where}.{key}", "value of the wrong type or shape")


def build_body(spec: dict, where: str) -> bodies.ConvexBody:
    if not isinstance(spec, dict):
        raise ConfigError(where, "body spec must be an object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _BODY_KEYS:
        raise ConfigError(f"{where}.kind", f"must be one of {tuple(_BODY_KEYS)}")
    _check_keys(spec, {"kind": None, **_BODY_KEYS[kind]}, where)
    if kind == "ball":
        if "radius" not in spec or spec["radius"] <= 0:
            raise ConfigError(f"{where}.radius", "positive radius required")
    elif not spec.get("semi_axes") or min(spec["semi_axes"]) <= 0:
        raise ConfigError(f"{where}.semi_axes", "two positive semi-axes required")
    # the keys are the builder's parameter names; an absent one takes its default
    params = {key: value for key, value in spec.items() if key != "kind"}
    try:
        body = getattr(bodies, kind)(**params)
    except ValueError as exc:  # an exponent below 2, or a gauge not finite and positive
        raise StrictConvexityError(where, str(exc)) from exc
    theta_c = body.concavity_probe(n_samples=60, rng=0)
    if not theta_c > 1e-8:  # a NaN probe fails too
        raise StrictConvexityError(
            where, f"defining function not uniformly concave (theta_c = {theta_c:.2e})"
        )
    return body


def build_psi(spec: dict, where: str) -> psi.PsiSpec:
    if not isinstance(spec, dict):
        raise ConfigError(where, "psi spec must be an object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _PSI_KEYS:
        raise ConfigError(f"{where}.kind", f"must be one of {tuple(_PSI_KEYS)}")
    _check_keys(spec, {"kind": None, **_PSI_KEYS[kind]}, where)
    if kind == "constant":
        value = spec.get("value")
        if value is None or value <= 0:
            raise ConfigError(f"{where}.value", "positive value required")
        return psi.constant_psi(value)
    if kind == "normal-only":
        const = spec.get("const")
        if const is None or const <= 0:
            raise ConfigError(f"{where}.const", "positive constant term required")
        try:
            return psi.normal_poly_psi(
                const, spec.get("linear"), spec.get("quadratic")
            )
        except ValueError as exc:
            raise ConfigError(where, str(exc)) from exc
    eps = spec.get("eps")
    if eps is None or eps < 0:
        raise ConfigError(f"{where}.eps", "nonnegative eps required")
    base = spec.get("base")
    if base is None:
        raise ConfigError(f"{where}.base", "exponential family needs a base psi")
    return psi.exponential_psi(eps, build_psi(base, f"{where}.base"))


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate a JSON problem configuration.

    Unknown keys and values of the wrong type are rejected anywhere in the
    document, and so is anything run_solve cannot take (dimension other than
    2, a grid below MIN_GRID).  The config carries the bodies and psi, built
    once here; each body's strict-convexity probe makes bad shapes fail early.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be an object")
    allowed = {
        "dimension",
        "k",
        "omega",
        "omega_star",
        "psi",
        "grid",
        "continuation",
        "tolerances",
    }
    _check_keys(raw, dict.fromkeys(allowed), "<top>")
    for key in ("dimension", "k", "omega", "omega_star", "psi"):
        if key not in raw:
            raise ConfigError(key, "required key missing")
    dimension = raw["dimension"]
    if type(dimension) is not int or dimension != 2:
        raise ConfigError("dimension", "the solver is planar: 2 required")
    k = raw["k"]
    if type(k) is not int or not 1 <= k <= dimension:
        raise ConfigError("k", f"integer in 1..{dimension} required")

    grid = raw.get("grid", list(DEFAULT_GRID))
    if (
        not isinstance(grid, (list, tuple))
        or len(grid) != 2
        or any(type(g) is not int or g < m for g, m in zip(grid, MIN_GRID))
    ):
        raise ConfigError("grid", f"expected [N_r, N_theta] integers >= {list(MIN_GRID)}")

    continuation = raw.get("continuation", list(DEFAULT_EPS_SCHEDULE))
    if (
        not isinstance(continuation, list)
        or not continuation
        or not all(map(_number, continuation))
        or any(e <= 0 for e in continuation)
        or any(
            continuation[i + 1] >= continuation[i]
            for i in range(len(continuation) - 1)
        )
    ):
        raise ConfigError("continuation", "strictly decreasing positive eps list")

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError("tolerances", "must be an object")
    _check_keys(tol_raw, {"newton_tol": _number, "spd_floor": _number}, "tolerances")
    tolerances = {
        "newton_tol": float(tol_raw.get("newton_tol", NEWTON_TOL)),
        "spd_floor": float(tol_raw.get("spd_floor", SPD_FLOOR)),
    }
    if tolerances["newton_tol"] <= 0 or tolerances["spd_floor"] <= 0:
        raise ConfigError("tolerances", "tolerances must be positive")

    # building the bodies and psi is their validation
    return ProblemConfig(
        dimension=dimension,
        k=k,
        omega=build_body(raw["omega"], "omega"),
        omega_star=build_body(raw["omega_star"], "omega_star"),
        psi=build_psi(raw["psi"], "psi"),
        grid=tuple(grid),
        continuation=list(continuation),
        tolerances=tolerances,
    )
