"""The in-package config checker against jsonschema's Draft 2020-12 validator.

``cli.schema_errors`` implements the keywords ``CONFIG_SCHEMA`` uses, so
that the runtime needs no jsonschema.  Here jsonschema is the reference:
on mutations of a valid config that touches every section, both must
accept or reject the same configs, name the same error paths in the same
order and, except for the property counts, give the same messages.
"""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from oscillap.cli import CONFIG_SCHEMA, schema_errors  # noqa: E402

REFERENCE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

#: a valid config with every section and every optional key
VALID = {
    "nonlinearity": {"kind": "power_sin", "r": 1.0, "samples": [],
                     "direction": "zero"},
    "operator": {"plap": {"p": 2.0}},
    "geometry": {"N": 1, "R": 1.0},
    "scan": {"c_min": 0.5, "c_max": 30.0, "points": 12, "log_spacing": False,
             "lambda_star": [3.0, 5.0]},
    "shoot": {"c": 3.0, "lambda": 1.0},
    "minimize": {"K": 3, "lambda": 110.0, "grid_cells": 120, "grading": 2.0},
    "certify": {"diagram_csv": "diagram.csv"},
    "tolerances": {"tol_ode": 1e-8, "event_tol": 1e-10, "r_max": 50.0,
                   "tol_stat": 1e-8, "energy_residual": 1e-6,
                   "bound_slack": 1e-8},
    "zeros": 12,
    "seed": 0,
    "output": {"dir": "out"},
}


def _paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


PATHS = list(_paths(VALID))


def _get(node, path):
    for key in path:
        node = node[key]
    return node


OBJECT_PATHS = [p for p in PATHS if isinstance(_get(VALID, p), dict)]

# wrong types, booleans for numbers, integer-valued floats, containers and
# the operator kinds; ``_at_bounds`` adds each path's own boundary values
_values = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2, 2.0, 0.5, 1.5, -1, -1.0, 3.0,
                     12.0, math.inf, True, False, None, "zero", "infinity",
                     "up", "", [], [1.0, -1.0], [2.0, "a"], [True], {},
                     {"p": 2.0}, {"Lambda": 1}, {"x": 1}]),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
    st.lists(st.one_of(st.floats(-1.0, 2.0), st.integers(-1, 2),
                       st.booleans()), max_size=3),
)


def _at_bounds(path):
    """The values on and around the path's own enum and bounds."""
    schema = CONFIG_SCHEMA
    for key in path:
        schema = (schema["items"] if isinstance(key, int)
                  else schema["properties"][key])
    near = [v.upper() for v in schema.get("enum", [])] + ["zero", "infinity"]
    for bound in (schema.get("minimum"), schema.get("exclusiveMinimum")):
        if bound is not None:
            near += [bound, float(bound), bound - 1, bound + 0.5, bound + 1.0]
    return near


WRONG_TYPES = [True, False, None, 0, 3.0, "x", [], {}]
NEW_KEYS = ["typo", "plap", "pucci", "p", "Lambda", "kind", "N", "dir",
            "lambda_star"]
_mutation = st.one_of(
    st.sampled_from(PATHS[1:]).flatmap(lambda path: st.tuples(
        st.just("set"), st.just(path),
        st.one_of(_values, st.sampled_from(_at_bounds(path))))),
    st.tuples(st.just("delete"), st.sampled_from(PATHS[1:]), st.none()),
    st.tuples(st.just("add"), st.sampled_from(OBJECT_PATHS), st.tuples(
        st.sampled_from(NEW_KEYS), _values)),
)


def _mutate(config, mutations):
    """Apply each mutation whose target the earlier ones left in place."""
    config = copy.deepcopy(config)
    for op, path, value in mutations:
        key = value[0] if op == "add" else path[-1]
        try:
            parent = _get(config, path if op == "add" else path[:-1])
            if isinstance(key, int) != isinstance(parent, list):
                continue   # JSON objects have string keys only
            if op == "delete":
                del parent[key]
            else:
                parent[key] = value[1] if op == "add" else value
        except (KeyError, IndexError, TypeError):
            pass   # an earlier mutation removed or replaced the target
    return config


def _both(config):
    ours = sorted(schema_errors(config, CONFIG_SCHEMA), key=lambda e: e[0])
    ref = sorted(REFERENCE.iter_errors(config),
                 key=lambda e: list(e.absolute_path))
    return ours, ref


def _assert_agree(config):
    ours, ref = _both(config)
    assert [list(p) for p, _ in ours] == [list(e.absolute_path) for e in ref]
    for (_, message), e in zip(ours, ref):
        if e.validator not in ("minProperties", "maxProperties"):
            assert message == e.message


def test_valid_config_passes_both():
    assert _both(VALID) == ([], [])


def test_checker_agrees_on_every_single_change():
    # every path deleted, or set to its boundary values and to wrong types;
    # every object given each extra key, which also makes two operator kinds
    for path in PATHS[1:]:
        _assert_agree(_mutate(VALID, [("delete", path, None)]))
        for value in _at_bounds(path) + WRONG_TYPES:
            _assert_agree(_mutate(VALID, [("set", path, value)]))
    for path in OBJECT_PATHS:
        for key in NEW_KEYS:
            _assert_agree(_mutate(VALID, [("add", path,
                                           (key, {"Lambda": 1}))]))


@settings(max_examples=600, deadline=None)
@given(mutations=st.lists(_mutation, min_size=1, max_size=3))
def test_checker_agrees_with_jsonschema(mutations):
    _assert_agree(_mutate(VALID, mutations))


@settings(max_examples=100, deadline=None)
@given(root=_values)
def test_checker_agrees_on_non_object_roots(root):
    _assert_agree(root)
