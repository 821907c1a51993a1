"""End-to-end command-line behavior."""

import hashlib
import io
import json

import pytest

import grady.cli as cli
from grady.jobs import ResultDocument


STAR_JOB = {
    "ring": {"field": "Q", "vars": ["x", "y"]},
    "grading": {"free_rank": 2, "torsion": [],
                "degrees": [[[1, 0], []], [[0, 1], []]]},
    "ideals": {"q": ["x^4", "x^3*y", "x^2*y^2+x*y^3", "y^4"]},
    "command": {"op": "star", "args": ["q"], "options": {}},
}


def _write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_run_star_job(tmp_path, capsys):
    code = cli.main(["run", _write_job(tmp_path, STAR_JOB)])
    out, err = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["generators"] == \
        ["x^4", "x^3*y", "x^2*y^3", "y^4"]
    assert "# elapsed_ms=" in err


def test_run_text_format(tmp_path, capsys):
    code = cli.main(["run", _write_job(tmp_path, STAR_JOB),
                     "--format", "text"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.strip() == "(x^4, x^3*y, x^2*y^3, y^4)"


def test_format_option_in_job_document(tmp_path, capsys):
    doc = json.loads(json.dumps(STAR_JOB))
    doc["command"]["options"]["format"] = "text"
    code = cli.main(["run", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    assert code == 0 and out.strip().startswith("(x^4")


def test_run_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(STAR_JOB)))
    code = cli.main(["run", "-"])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_missing_file(capsys):
    code = cli.main(["run", "/definitely/not/here.json"])
    _, err = capsys.readouterr()
    assert code == 2 and "cannot read" in err


def test_malformed_job(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    code = cli.main(["run", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["payload"]["reason"] == "input-error"


def test_unsupported_class_exit_code(tmp_path, capsys):
    doc = {
        "ring": {"field": "Q", "vars": ["x", "y"]},
        "ideals": {"I": ["x^2 + y^3"]},
        "command": {"op": "decompose", "args": ["I"], "options": {}},
    }
    code = cli.main(["run", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    assert code == 3
    assert json.loads(out)["status"] == "unsupported"


def test_oversized_oracle_space_exits_three(tmp_path, capsys, monkeypatch):
    import grady.oracle as oracle
    # A low budget keeps the test small even if the check regresses.
    monkeypatch.setattr(oracle, "MAX_SPACE_DIMENSION", 20)
    doc = json.loads(json.dumps(STAR_JOB))
    doc["ring"]["field"] = "F5"
    doc["ideals"] = {"I": ["x^2", "x*y"]}
    doc["command"] = {"op": "oracle", "args": ["I"],
                      "options": {"degree_bound": 5}}     # dimension 21
    code = cli.main(["run", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    assert code == 3
    result = json.loads(out)
    assert result["status"] == "unsupported"
    assert result["payload"]["reason"] == "budget"

    code = cli.main(["verify", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    oracle_entry = json.loads(out)["payload"]["ideals"]["I"]["oracle"]
    assert code == 0 and oracle_entry["verdict"] == "error"
    assert "budget" in oracle_entry["reason"]


def test_saturation_exponent_is_found_or_refused(tmp_path, capsys):
    from grady.groebner import MAX_SATURATION_EXPONENT
    doc = {"ring": {"field": "Q", "vars": ["x", "y"]},
           "ideals": {"I": ["x^70*y"]},
           "command": {"op": "saturate", "args": ["I", "x"], "options": {}}}
    code = cli.main(["run", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["payload"] == {"generators": ["y"],
                                          "exponent": 70}

    doc["ideals"]["I"] = [f"x^{MAX_SATURATION_EXPONENT + 1}*y"]
    code = cli.main(["run", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    result = json.loads(out)
    assert code == 3 and result["status"] == "unsupported"
    assert result["payload"]["reason"] == "budget"
    assert "saturation exponent" in result["payload"]["detail"]


def _decompose_doc(field, generator):
    return {"ring": {"field": field, "vars": ["x"]},
            "ideals": {"I": [generator]},
            "command": {"op": "decompose", "args": ["I"], "options": {}}}


def test_irreducible_quadratic_over_large_prime(tmp_path, capsys):
    # x^2 + 1 is irreducible over F_p for p = 3 mod 4
    path = _write_job(tmp_path, _decompose_doc("F2147483647", "x^2 + 1"))
    code = cli.main(["run", path])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["payload"]["components"] == [
        {"component": ["x^2 + 1"], "radical": ["x^2 + 1"],
         "status": "verified"}]

    code = cli.main(["verify", path])
    out, _ = capsys.readouterr()
    entry = json.loads(out)["payload"]["ideals"]["I"]
    assert code == 0
    assert entry["theorems"]["status"] == "pass"
    assert entry["oracle"]["verdict"] == "pass"


@pytest.mark.parametrize("field, digest", [
    ("F5", "02cb109f2dd957711007de481a19c68304ac4caac35bee5328bd247ddabe6e03"),
    ("Q", "5b8e5cd1b81c0c7f551c717f4de04da2edcd6c18123e73fef443f14159b84813"),
], ids=["F5", "Q"])
def test_high_degree_answer_is_unchanged(tmp_path, capsys, field, digest):
    """x^1000 - 1 stays within the factoring budget; its output is pinned
    byte for byte."""
    code = cli.main(["run", _write_job(tmp_path,
                                       _decompose_doc(field, "x^1000 - 1"))])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field, generator, detail", [
    ("F32003", "x^100 + x + 1", "squarefree part of degree 100 over F32003"),
    ("F5", "x^20000 - 1", "squarefree decomposition"),
    ("Q", "x^20000 - 1", "squarefree decomposition"),
    ("Q", "x^2 - 1000000000000000000000000000000", "rational root search"),
], ids=["high-degree", "huge-degree-fp", "huge-degree-q",
        "large-root-bound"])
def test_factoring_over_budget_exits_three(tmp_path, capsys, field,
                                           generator, detail):
    path = _write_job(tmp_path, _decompose_doc(field, generator))
    code = cli.main(["run", path])
    out, _ = capsys.readouterr()
    result = json.loads(out)
    assert code == 3 and result["status"] == "unsupported"
    assert result["payload"]["reason"] == "budget"
    assert detail in result["payload"]["detail"]

    code = cli.main(["verify", path])
    out, _ = capsys.readouterr()
    theorems = json.loads(out)["payload"]["ideals"]["I"]["theorems"]
    assert code == 0 and theorems["status"] == "unsupported"
    assert detail in theorems["detail"]


@pytest.mark.parametrize("op", ["g_ass", "g_min", "theorems"])
def test_assumed_component_mismatch_is_a_typed_refusal(tmp_path, capsys, op):
    doc = {"ring": {"field": "Q", "vars": ["x"]},
           "grading": {"free_rank": 0, "torsion": [3],
                       "degrees": [[[], [1]]]},
           "ideals": {"I": ["x^6 - 1"]},
           "command": {"op": op, "args": ["I"], "options": {}}}
    named = "assumed component (x^4 + x^2 + 1)"
    path = _write_job(tmp_path, doc)
    code = cli.main(["run", path])
    out, _ = capsys.readouterr()
    result = json.loads(out)
    if op == "theorems":
        checks = {c["name"]: c for c in result["payload"]["checks"]}
        check = checks["g-ass-equals-g-min-iff-classical"]
        assert code == 0 and result["payload"]["status"] == "unsupported"
        assert check["status"] == "unsupported" and named in check["detail"]
    else:
        assert code == 3 and result["status"] == "unsupported"
        assert result["payload"]["reason"] == "unsupported-class"
        assert named in result["payload"]["detail"]

    code = cli.main(["verify", path])
    out, _ = capsys.readouterr()
    theorems = json.loads(out)["payload"]["ideals"]["I"]["theorems"]
    checks = {c["name"]: c["status"] for c in theorems["checks"]}
    assert code == 0 and theorems["status"] == "unsupported"
    assert checks["g-ass-equals-g-min-iff-classical"] == "unsupported"


def test_verify_exit_zero(tmp_path, capsys):
    doc = json.loads(json.dumps(STAR_JOB))
    doc["ideals"] = {"I": ["x^4", "x^3*y"]}
    code = cli.main(["verify", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["payload"]["failed"] is False


def test_verify_exit_one_on_failure(tmp_path, capsys, monkeypatch):
    failing = ResultDocument("ok", {"ideals": {}, "failed": True}, 1.0,
                             "verify")
    monkeypatch.setattr(cli, "verify_document", lambda job: failing)
    code = cli.main(["verify", _write_job(tmp_path, STAR_JOB)])
    capsys.readouterr()
    assert code == 1


class _FakeResult:
    def __init__(self, index, passed):
        self.index = index
        self.name = f"check-{index}"
        self.passed = passed
        self.detail = "details"
        self.seconds = 0.01


def test_selftest_reporting(monkeypatch, capsys):
    import grady.selftest as selftest
    monkeypatch.setattr(selftest, "run_all",
                        lambda seed: [_FakeResult(1, True),
                                      _FakeResult(2, True)])
    assert cli.main(["selftest"]) == 0
    out, _ = capsys.readouterr()
    assert "criterion  1 [pass]" in out
    assert out.strip().endswith("all criteria passed")

    monkeypatch.setattr(selftest, "run_all",
                        lambda seed: [_FakeResult(1, False)])
    assert cli.main(["selftest"]) == 1
    out, _ = capsys.readouterr()
    assert "[FAIL]" in out
