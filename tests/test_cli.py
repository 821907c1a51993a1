"""End-to-end command-line behavior."""

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


@pytest.mark.parametrize("field, generator, detail", [
    ("F2147483647", "x^2 + 1", "factoring over F2147483647"),
    ("Q", "x^2 - 1000000000000000000000000000000", "rational root search"),
], ids=["large-prime", "large-root-bound"])
def test_factoring_over_budget_exits_three(tmp_path, capsys, field,
                                           generator, detail):
    doc = {"ring": {"field": field, "vars": ["x"]},
           "ideals": {"I": [generator]},
           "command": {"op": "decompose", "args": ["I"], "options": {}}}
    path = _write_job(tmp_path, doc)
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
