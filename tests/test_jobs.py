"""Job documents: parsing, execution, rendering, error taxonomy."""

import json

import pytest

import grady.cli as cli
from grady.jobs import (JobError, ResultDocument, execute_job, parse_job,
                        render_result, verify_document)


def _job(**overrides):
    doc = {
        "ring": {"field": "Q", "vars": ["x", "y"]},
        "grading": {"free_rank": 2, "torsion": [],
                    "degrees": [[[1, 0], []], [[0, 1], []]]},
        "ideals": {"q": ["x^4", "x^3*y", "x^2*y^2+x*y^3", "y^4"]},
        "command": {"op": "star", "args": ["q"], "options": {}},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_and_execute_star():
    job = parse_job(_job())
    doc = execute_job(job)
    assert doc.status == "ok" and doc.exit_code == 0
    assert doc.payload == {
        "generators": ["x^4", "x^3*y", "x^2*y^3", "y^4"]}
    assert doc.kind == "ideal"
    assert render_result(doc, "text") == "(x^4, x^3*y, x^2*y^3, y^4)"
    parsed = json.loads(doc.to_json())
    assert parsed["status"] == "ok"


def test_grading_defaults_to_trivial():
    job = parse_job(_job(grading=None))
    assert job.graded.group.is_trivial
    doc = execute_job(job)    # star under trivial grading returns q itself
    assert doc.status == "ok"


def test_torsion_residues_reduce():
    doc = {
        "ring": {"field": "F5", "vars": ["x"]},
        "grading": {"free_rank": 0, "torsion": [2],
                    "degrees": [[[], [3]]]},
        "ideals": {},
        "command": {"op": "groebner", "args": [], "options": {}},
    }
    doc["ideals"] = {"I": ["x"]}
    doc["command"]["args"] = ["I"]
    job = parse_job(json.dumps(doc))
    assert job.graded.degrees[0].torsion == (1,)    # 3 mod 2


@pytest.mark.parametrize("mutate, path_fragment", [
    (lambda d: d.__setitem__("extra", 1), "$.extra"),
    (lambda d: d["ring"].__setitem__("field", "F6"), "ring.field"),
    (lambda d: d["ring"].__setitem__("vars", ["x", "x"]), "ring.vars"),
    (lambda d: d["ring"].__setitem__("vars", ["2bad"]), "ring.vars[0]"),
    (lambda d: d["grading"].__setitem__("degrees", [[[1], []]]),
     "grading.degrees"),
    (lambda d: d["grading"]["degrees"].__setitem__(
        0, [[1, 2, 3], []]), "grading.degrees[0]"),
    (lambda d: d["command"].__setitem__("op", "explode"), "command.op"),
    (lambda d: d["command"]["options"].__setitem__("mystery", 1),
     "command.options.mystery"),
    (lambda d: d["ideals"].__setitem__("bad", ["x +* y"]), "ideals.bad[0]"),
    (lambda d: d["command"]["options"].__setitem__("split", "first"),
     "command.options.split"),
    # Well-formed JSON that once escaped as a traceback.
    pytest.param(lambda d: d["ring"].__setitem__("field", 5), "ring.field",
                 id="field-number"),
    pytest.param(lambda d: d["ring"].__setitem__("field", ["F5"]),
                 "ring.field", id="field-list"),
    pytest.param(lambda d: d["grading"].__setitem__("torsion", [[2]]),
                 "grading.torsion", id="torsion-list"),
    pytest.param(lambda d: d["grading"].__setitem__("torsion", [None]),
                 "grading.torsion", id="torsion-null"),
    pytest.param(lambda d: d.__setitem__("matrices", {"M": {
        "rows": 1, "cols": 1, "entries": ["x"],
        "row_degrees": [{"free": [1]}]}}), "matrices.M.row_degrees[0]",
        id="matrix-degree-object"),
    pytest.param(
        lambda d: d["command"]["options"].__setitem__("format", "xml"),
        "command.options.format", id="format-xml"),
])
def test_schema_errors_carry_paths(mutate, path_fragment):
    doc = json.loads(_job())
    mutate(doc)
    with pytest.raises(JobError) as err:
        parse_job(json.dumps(doc))
    assert err.value.path.startswith(path_fragment)


def test_invalid_json_is_a_job_error():
    with pytest.raises(JobError):
        parse_job("{nope")


def test_matrix_jobs():
    doc = {
        "ring": {"field": "Q", "vars": ["x", "y"]},
        "grading": {"free_rank": 1, "torsion": [],
                    "degrees": [[[1], []], [[1], []]]},
        "matrices": {"M": {"rows": 2, "cols": 2,
                           "entries": ["x", "y", "y", "x"],
                           "row_degrees": [[[1], []], [[1], []]],
                           "col_degrees": [[[0], []], [[0], []]]}},
        "command": {"op": "fitting", "args": ["M", "1"], "options": {}},
    }
    job = parse_job(json.dumps(doc))
    out = execute_job(job)
    assert out.payload == {"generators": ["x", "y"]}

    doc["command"] = {"op": "graded_check", "args": ["M"], "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.payload["status"] == "pass"
    text = render_result(out, "text")
    assert text.splitlines()[0] == "status: pass"


def test_matrix_entry_count_checked():
    doc = {
        "ring": {"field": "Q", "vars": ["x"]},
        "matrices": {"M": {"rows": 2, "cols": 2, "entries": ["x"]}},
        "command": {"op": "fitting", "args": ["M", "0"], "options": {}},
    }
    with pytest.raises(JobError) as err:
        parse_job(json.dumps(doc))
    assert err.value.path == "matrices.M.entries"


def test_exit_codes():
    # input error from a zero colon divisor
    doc = json.loads(_job())
    doc["command"] = {"op": "colon", "args": ["q", "0"], "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.status == "error" and out.exit_code == 2
    assert out.payload["reason"] == "input-error"

    # unsupported class from a non-monomial multivariate decomposition
    doc["ideals"] = {"I": ["x^2 + y^3"]}
    doc["command"] = {"op": "decompose", "args": ["I"], "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.status == "unsupported" and out.exit_code == 3
    assert out.payload["reason"] == "unsupported-class"

    # missing ideal name
    doc["command"] = {"op": "star", "args": ["nope"], "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.exit_code == 2


def test_bool_and_primes_ops():
    doc = json.loads(_job())
    doc["command"] = {"op": "membership", "args": ["q", "x^4 + y^4"],
                      "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.payload == {"value": True}
    assert render_result(out, "text") == "true"

    doc["ideals"] = {"I": ["x^4", "x^3*y"]}
    doc["command"] = {"op": "g_ass", "args": ["I"], "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.payload == {"primes": [["x"], ["x", "y"]]}
    assert render_result(out, "text") == "(x)\n(x, y)"


def test_gdecomp_text_uses_turnstile():
    doc = json.loads(_job())
    doc["ideals"] = {"I": ["x^4", "x^3*y"]}
    doc["command"] = {"op": "gdecomp", "args": ["I"], "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    text = render_result(out, "text")
    assert text == "(x^3) ⊣ (x)\n(x^4, y) ⊣ (x, y)"


def test_saturate_exponent_payload():
    doc = json.loads(_job())
    doc["ideals"] = {"I": ["x^2*y", "x*y^2"]}
    doc["command"] = {"op": "saturate", "args": ["I", "y"], "options": {}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.payload == {"generators": ["x"], "exponent": 2}

    doc["ideals"]["J"] = ["x", "y"]
    doc["command"]["args"] = ["I", "J"]
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.payload["exponent"] is None
    assert render_result(out, "text").endswith("exponent: None")


def test_eliminate_and_groebner_ops():
    doc = {
        "ring": {"field": "Q", "vars": ["t", "x", "y"]},
        "ideals": {"I": ["x - t^2", "y - t^3"]},
        "command": {"op": "eliminate", "args": ["I", "t"], "options": {}},
    }
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.payload == {"generators": ["x^3 - y^2"]}

    doc["command"] = {"op": "groebner", "args": ["I"],
                      "options": {"order": "lex"}}
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.status == "ok" and out.payload["generators"]


def test_oracle_op():
    doc = {
        "ring": {"field": "F5", "vars": ["x"]},
        "grading": {"free_rank": 0, "torsion": [2], "degrees": [[[], [1]]]},
        "ideals": {"I": ["x - 1"]},
        "command": {"op": "oracle", "args": ["I"],
                    "options": {"degree_bound": 6}},
    }
    out = execute_job(parse_job(json.dumps(doc)))
    assert out.payload["verdict"] == "pass"
    assert render_result(out, "text").startswith("verdict: pass")


@pytest.mark.parametrize("cmd", ["run", "verify"])
@pytest.mark.parametrize("bound", ["six", -1, True])
def test_bad_degree_bound_is_an_input_error(tmp_path, capsys, cmd, bound):
    doc = json.loads(_job())
    doc["ideals"] = {"I": ["x^4", "x^3*y"]}
    doc["command"] = {"op": "oracle", "args": ["I"],
                      "options": {"degree_bound": bound}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([cmd, str(path)]) == 2
    out, _ = capsys.readouterr()
    assert json.loads(out)["payload"]["detail"].startswith(
        "command.options.degree_bound:")


def test_verify_document_passes():
    doc = json.loads(_job())
    doc["ideals"] = {"I": ["x^4", "x^3*y"]}
    job = parse_job(json.dumps(doc))
    out = verify_document(job)
    assert out.status == "ok"
    assert out.payload["failed"] is False
    entry = out.payload["ideals"]["I"]
    assert entry["theorems"]["status"] == "pass"
    assert entry["oracle"]["verdict"] == "pass"
    text = render_result(out, "text")
    assert text.splitlines()[0] == "failed: no"


def test_verify_document_marks_unsupported():
    doc = json.loads(_job())    # q is not homogeneous -> out of class
    job = parse_job(json.dumps(doc))
    out = verify_document(job)
    assert out.payload["ideals"]["q"]["theorems"]["status"] in \
        ("unsupported", "error")
    assert out.payload["failed"] is False    # not run is not failed


def test_render_rejects_unknown_format():
    doc = ResultDocument("ok", {"generators": []}, 0.0, "ideal")
    with pytest.raises(ValueError):
        render_result(doc, "yaml")
    assert render_result(doc, "text") == "(0)"
