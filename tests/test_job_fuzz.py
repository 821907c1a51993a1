"""Schema fuzz: a valid job document with one field, at any path, swapped
for a small arbitrary JSON value must come back as a result, an input
error (exit 2) or a typed refusal (exit 3), through parse, execute and
both renderings, and through `grady run` itself."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grady.cli as cli
from grady.jobs import (OPS, JobError, execute_job, parse_job,
                        render_result)

_FINE_XY = {"free_rank": 2, "torsion": [],
            "degrees": [[[1, 0], []], [[0, 1], []]]}

# Small valid documents that between them reach every top-level field,
# every option and both result formats.
_BASES = (
    {"ring": {"field": "F5", "vars": ["x"]},
     "grading": {"free_rank": 0, "torsion": [2], "degrees": [[[], [1]]]},
     "ideals": {"I": ["x - 1"]},
     "command": {"op": "oracle", "args": ["I"],
                 "options": {"degree_bound": 4, "format": "text"}}},
    {"ring": {"field": "Q", "vars": ["x", "y"]}, "grading": _FINE_XY,
     "ideals": {"N": ["x^4", "x^3*y"], "P": ["x", "y^2"]},
     "command": {"op": "gdecomp", "args": ["N"], "options": {}}},
    {"ring": {"field": "F7", "vars": ["x", "y", "t"]},
     "ideals": {"I": ["x^2*y - x*t", "x*y^2"], "J": ["x", "y - t"]},
     "command": {"op": "groebner", "args": ["I"],
                 "options": {"order": "lex", "format": "json"}}},
    {"ring": {"field": "Q", "vars": ["x", "y"]},
     "grading": {"free_rank": 1, "torsion": [],
                 "degrees": [[[1], []], [[1], []]]},
     "matrices": {"M": {"rows": 2, "cols": 2, "entries": ["x", "y", "y", "x"],
                        "row_degrees": [[[1], []], [[1], []]],
                        "col_degrees": [[[0], []], [[0], []]]}},
     "command": {"op": "fitting", "args": ["M", "1"], "options": {}}},
)

# Replacement strings come from a fixed pool, so no new polynomial text
# (and no large exponent) enters a document.
_WORDS = sorted(OPS) + [
    "", "x", "y", "t", "I", "J", "M", "N", "Q", "F2", "F5", "F6", "json",
    "text", "xml", "lex", "grevlex", "x - 1", "x*y", "1", "0", "-1"]
_KEYS = ["ring", "field", "vars", "grading", "free_rank", "torsion",
         "degrees", "ideals", "matrices", "rows", "cols", "entries",
         "row_degrees", "col_degrees", "command", "op", "args", "options",
         "order", "degree_bound", "format", "I"]
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6)
    | st.floats(-4, 4, width=16)
    | st.sampled_from([math.inf, -math.inf, math.nan])   # not JSON proper
    | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=5)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def _mutants(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_BASES))))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_VALUES)
    return json.dumps(doc)


def _grady_run(text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["run", "-"])
    return code, out.getvalue()


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(_mutants())
def test_one_swapped_field_never_escapes(text):
    try:
        job = parse_job(text)
    except JobError:
        pass
    else:
        result = execute_job(job)
        assert result.exit_code in (0, 2, 3), result.payload
        for fmt in ("json", "text"):
            render_result(result, fmt)
    code, out = _grady_run(text)
    assert code in (0, 2, 3), out
    assert "internal-error" not in out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _integer_slots(doc):
    """Paths of a document's integer slots: free ranks, torsion moduli,
    degree entries, matrix shapes and the fitting index argument."""
    keys = ("free_rank", "torsion", "degrees", "row_degrees", "col_degrees",
            "rows", "cols")
    return [p for p in _paths(doc)
            if type(_at(doc, p)) is int and any(k in keys for k in p)
            or p == ("command", "args", 1) and doc["command"]["op"] ==
            "fitting"]


_SLOTTED = [doc for doc in _BASES if _integer_slots(doc)]


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc)


@settings(max_examples=100, deadline=timedelta(seconds=5))
@given(st.data())
def test_non_integral_float_in_an_integer_slot_exits_two(data):
    """A float is an input error, never truncated to the integer below."""
    doc = data.draw(st.sampled_from(_SLOTTED))
    path = data.draw(st.sampled_from(_integer_slots(doc)))
    value = data.draw(st.floats(-8, 8).filter(lambda v: v != int(v)))
    code, out = _grady_run(_with(doc, path, value))
    assert code == 2 and "input-error" in out, out


@pytest.mark.parametrize("value", [2.0, True, False])
@pytest.mark.parametrize("base", range(len(_SLOTTED)))
def test_integral_floats_and_booleans_in_integer_slots_exit_two(base, value):
    doc = _SLOTTED[base]
    for path in _integer_slots(doc):
        code, out = _grady_run(_with(doc, path, value))
        assert code == 2, (path, out)

