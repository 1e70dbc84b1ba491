"""Property test: a config one edit away from a valid one parses or raises ConfigError."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from khgraph.config import parse_config  # noqa: E402
from khgraph.errors import ConfigError  # noqa: E402

VALID = [
    {
        "dimension": 2, "k": 1,
        "omega": {"kind": "ball", "radius": 0.5, "center": [0.0, 0.1]},
        "omega_star": {"kind": "ellipse", "semi_axes": [0.45, 0.3], "angle": 0.3},
        "psi": {"kind": "exponential", "eps": 0.2,
                "base": {"kind": "constant", "value": 2.0}},
        "grid": [16, 32],
        "continuation": [0.4, 0.2],
        "tolerances": {"newton_tol": 1e-10, "spd_floor": 1e-8},
    },
    {
        "dimension": 2, "k": 2,
        "omega": {"kind": "superellipse", "semi_axes": [0.5, 0.4], "exponent": 4.0,
                  "blend": 0.1},
        "omega_star": {"kind": "superellipse", "semi_axes": [0.42, 0.34]},
        "psi": {"kind": "normal-only", "const": 1.0, "linear": [0.1, -0.05, 0.08],
                "quadratic": [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.0]]},
    },
]

# any JSON value, non-finite floats included (json.loads reads NaN/Infinity)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    """Every key of every object and every index of every list, as a path."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(doc, path, value, delete):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_configs(draw):
    base = draw(st.sampled_from(VALID))
    path = draw(st.sampled_from(list(_paths(base))))
    return _mutate(base, path, draw(JSON), draw(st.booleans()))


def test_valid_bases_parse():
    for raw in VALID:
        parse_config(json.dumps(raw))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_configs())
def test_single_key_mutation_parses_or_raises_config_error(raw):
    try:
        parse_config(json.dumps(raw))
    except ConfigError:
        pass
