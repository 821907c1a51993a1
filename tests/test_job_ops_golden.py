"""Every job op, and every argument error, renders exactly the committed
golden output in both formats.

Each case is a job document run through parse, execute and render; the
golden entry holds the exit code and the `json` and `text` renderings.

Regenerate the goldens (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_job_ops_golden.py
"""

import json
import re
from pathlib import Path

import pytest

from grady.jobs import OPS, execute_job, parse_job, render_result

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "job_ops.json"

_FINE_XY = {"free_rank": 2, "torsion": [],
            "degrees": [[[1, 0], []], [[0, 1], []]]}
_TORSION_X = {"free_rank": 0, "torsion": [2], "degrees": [[[], [1]]]}
_Z_XY = {"free_rank": 1, "torsion": [], "degrees": [[[1], []], [[1], []]]}
_MATRIX = {"rows": 2, "cols": 2, "entries": ["x", "y", "y", "x"],
           "row_degrees": [[[1], []], [[1], []]],
           "col_degrees": [[[0], []], [[0], []]]}


def _monomial(op, args=("N",)):
    return {"ring": {"field": "Q", "vars": ["x", "y"]}, "grading": _FINE_XY,
            "ideals": {"N": ["x^4", "x^3*y"], "P": ["x", "y^2"]},
            "command": {"op": op, "args": list(args)}}


def _general(op, args, field="F7", options=None):
    return {"ring": {"field": field, "vars": ["x", "y", "t"]},
            "ideals": {"I": ["x^2*y - x*t", "x*y^2"], "J": ["x", "y - t"]},
            "command": {"op": op, "args": list(args),
                        "options": options or {}}}


def _torsion(op, args=("I",), options=None):
    return {"ring": {"field": "F5", "vars": ["x"]}, "grading": _TORSION_X,
            "ideals": {"I": ["x - 1"], "U": ["x^4 - 1"]},
            "command": {"op": op, "args": list(args),
                        "options": options or {}}}


def _matrix(op, args):
    return {"ring": {"field": "Q", "vars": ["x", "y"]}, "grading": _Z_XY,
            "matrices": {"M": _MATRIX},
            "command": {"op": op, "args": list(args)}}


CASES = {
    # One well-formed document per op.
    "groebner": _general("groebner", ["I"], options={"order": "lex"}),
    "star": _torsion("star"),
    "is_g_ideal": _torsion("is_g_ideal", ["U"]),
    "grad": _monomial("grad"),
    "is_g_radical": _monomial("is_g_radical", ["P"]),
    "is_g_prime": _monomial("is_g_prime", ["P"]),
    "is_g_primary": _monomial("is_g_primary"),
    "gdecomp": _monomial("gdecomp"),
    "decompose": _torsion("decompose", ["U"]),
    "g_ass": _monomial("g_ass"),
    "g_min": _monomial("g_min"),
    "ass": _monomial("ass"),
    "min": _monomial("min"),
    "membership": _general("membership", ["I", "x^3*y - x^2*t + x*y^2*t"]),
    "radical_membership": _general("radical_membership", ["I", "x*y"]),
    "intersect": _general("intersect", ["I", "J"]),
    "colon": _general("colon", ["I", "J"]),
    "saturate": _general("saturate", ["I", "y"]),
    "eliminate": _general("eliminate", ["I", "t"], field="Q"),
    "fitting": _matrix("fitting", ["M", "1"]),
    "graded_check": _matrix("graded_check", ["M"]),
    "theorems": _monomial("theorems"),
    "oracle": _torsion("oracle", ["I"], {"degree_bound": 4}),
    "oracle-over-q": {**_torsion("oracle"),
                      "ring": {"field": "Q", "vars": ["x"]}},
    # Second shapes of ops whose payload depends on the argument kind.
    "colon-by-poly": _general("colon", ["I", "y"]),
    "saturate-by-ideal": _general("saturate", ["I", "J"]),
    "unsupported-class": _general("decompose", ["I"]),
    # Argument errors.
    "no-args-ideal": _monomial("star", []),
    "no-args-intersect": _general("intersect", ["I"]),
    "no-args-poly": _general("membership", ["I"]),
    "no-args-poly-or-ideal": _general("colon", ["I"]),
    "no-args-matrix": _matrix("fitting", []),
    "no-args-integer": _matrix("fitting", ["M"]),
    "no-args-eliminate": _general("eliminate", ["I"]),
    "unknown-ideal": _monomial("gdecomp", ["Q"]),
    "unknown-matrix": _matrix("graded_check", ["A"]),
    "unknown-variable": _general("eliminate", ["I", "z"]),
    "non-integer-fitting-index": _matrix("fitting", ["M", "one"]),
    "unparsable-polynomial": _general("membership", ["I", "x^^2"]),
    "unparsable-poly-or-ideal": _general("saturate", ["I", "x*"]),
    "non-string-ideal": _monomial("gdecomp", [["N"]]),
    "non-string-matrix": _matrix("graded_check", [{"M": 1}]),
    "non-string-polynomial": _general("membership", ["I", 3]),
    "non-string-poly-or-ideal": _general("colon", ["I", [1]]),
    "non-string-integer": _matrix("fitting", ["M", [1]]),
    "groebner-bad-order-and-missing-ideal":
        _general("groebner", [], options={"order": "deglex"}),
}


def _run(doc):
    result = execute_job(parse_job(json.dumps(doc, sort_keys=True)))
    return {"exit": result.exit_code,
            "json": render_result(result, "json"),
            "text": render_result(result, "text")}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_op_has_a_case():
    ops = {doc["command"]["op"] for doc in CASES.values()}
    assert ops == set(OPS)


def test_golden_covers_every_case():
    assert set(_load()) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_job_op_matches_golden(name):
    assert _run(CASES[name]) == _load()[name]


def test_readme_lists_every_op():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = readme.split("Operations:", 1)[1].split(".  Options:", 1)[0]
    assert set(re.findall(r"`(\w+)`", listing)) == set(OPS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {name: _run(doc) for name, doc in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True,
                                 ensure_ascii=False) + "\n",
                      encoding="utf-8")
