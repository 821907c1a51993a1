"""End-to-end command-line behavior."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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


@pytest.mark.parametrize("cmd", ["run", "verify"])
def test_unknown_format_option_is_an_input_error(tmp_path, capsys, cmd):
    doc = json.loads(json.dumps(STAR_JOB))
    doc["command"]["options"]["format"] = "xml"
    code = cli.main([cmd, _write_job(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    assert json.loads(out)["payload"]["detail"].startswith(
        "command.options.format:")


def test_run_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(STAR_JOB)))
    code = cli.main(["run", "-"])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_missing_file(capsys):
    code = cli.main(["run", "/definitely/not/here.json"])
    _, err = capsys.readouterr()
    assert code == 2 and "cannot read" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python reads integers of any length")
@pytest.mark.parametrize("cmd", ["run", "verify"])
def test_integer_over_the_digit_limit_is_an_input_error(tmp_path, capsys,
                                                        cmd):
    """json.loads refuses an integer literal over int()'s digit limit with
    a plain ValueError; that is invalid JSON, not a crash."""
    text = json.dumps(STAR_JOB).replace(
        '"options": {}', '"options": {"degree_bound": ' + "1" * 5000 + "}")
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    code = cli.main([cmd, str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    detail = json.loads(out)["payload"]["detail"]
    assert detail.startswith("$: invalid JSON: ") and "digits" in detail


@pytest.mark.parametrize("cmd", ["run", "verify"])
def test_job_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, cmd):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(STAR_JOB).replace("x^4", "x\xff").encode(
        "latin-1"))
    code = cli.main([cmd, str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and "cannot read job file" in err
    assert json.loads(out)["payload"]["reason"] == "input-error"


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


def _torsion_star_doc(modulus):
    return {"ring": {"field": "F5", "vars": ["x"]},
            "grading": {"free_rank": 0, "torsion": [modulus],
                        "degrees": [[[], [1]]]},
            "ideals": {"I": ["x - 1"]},
            "command": {"op": "star", "args": ["I"], "options": {}}}


def test_torsion_modulus_is_answered_or_refused(tmp_path, capsys):
    """star of (x - 1) graded by Z/m eliminates over s^m - 1: m = 1000 is
    answered, m = 20000 refused before the elimination starts."""
    from grady.grading import MAX_TORSION_MODULUS
    assert MAX_TORSION_MODULUS == 1000
    code = cli.main(["run", _write_job(tmp_path, _torsion_star_doc(1000))])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["payload"]["generators"] == ["x^1000 + 4"]

    start = time.perf_counter()
    code = cli.main(["run", _write_job(tmp_path, _torsion_star_doc(20000))])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    result = json.loads(out)
    assert code == 3 and result["status"] == "unsupported"
    assert result["payload"]["reason"] == "budget"
    assert "s^20000 - 1" in result["payload"]["detail"]
    assert "Traceback" not in err


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_answer_too_long_to_print_is_a_budget_refusal(tmp_path, capsys):
    """Each term is within the parser's digit budget, but the monic
    basis element's constant has a numerator Python refuses to print."""
    doc = {"ring": {"field": "Q", "vars": ["x"]},
           "ideals": {"I": ["1/7^4700*x + 1/11^3800*x + 1"]},
           "command": {"op": "groebner", "args": ["I"], "options": {}}}
    code = cli.main(["run", _write_job(tmp_path, doc)])
    out, _ = capsys.readouterr()
    assert code == 3
    assert json.loads(out)["payload"] == {
        "reason": "budget",
        "detail": "the answer has a coefficient too long to print"}


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


@pytest.mark.parametrize("op, code", [
    ("ass", 3), ("min", 3), ("g_ass", 3), ("g_min", 3), ("is_g_prime", 3),
    ("is_g_primary", 3), ("decompose", 0), ("gdecomp", 0), ("grad", 0),
    ("theorems", 0)])
def test_answers_resting_on_an_assumed_component_are_refused(
        tmp_path, capsys, op, code):
    """(x^2 + 1)(x^2 + 2) over Q keeps one assumed component.  The ops
    whose payload has no status would call it prime, so they refuse; the
    ones that carry the status still answer."""
    doc = {"ring": {"field": "Q", "vars": ["x"]},
           "grading": {"free_rank": 0, "torsion": [2],
                       "degrees": [[[], [1]]]},
           "ideals": {"I": ["x^4 + 3*x^2 + 2"]},
           "command": {"op": op, "args": ["I"], "options": {}}}
    assert cli.main(["run", _write_job(tmp_path, doc)]) == code
    out, err = capsys.readouterr()
    result = json.loads(out)
    assert "Traceback" not in err
    if code == 3:
        assert result["payload"]["reason"] == "unsupported-class"
        assert "assumed component (x^4 + 3*x^2 + 2)" in \
            result["payload"]["detail"]
    else:
        assert result["status"] == "ok"


@pytest.mark.parametrize("generator, position", [
    ("x^\u00b2", 2), ("\u00b2", 0), ("x^\u0661\u0662", 2)])
def test_non_ascii_digits_are_input_errors(tmp_path, capsys, generator,
                                           position):
    code = cli.main(["run", _write_job(tmp_path,
                                       _decompose_doc("Q", generator))])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    assert json.loads(out)["payload"]["detail"] == (
        f"ideals.I[0]: unexpected character {generator[position]!r} "
        f"(at position {position})")


@pytest.mark.parametrize("generator", ["(x+y)^100000", "(x+y+1)^3000"])
def test_power_over_budget_is_an_input_error(tmp_path, capsys, generator):
    doc = _decompose_doc("Q", generator)
    doc["ring"]["vars"] = ["x", "y"]
    start = time.perf_counter()
    code = cli.main(["run", _write_job(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    detail = json.loads(out)["payload"]["detail"]
    assert code == 2 and "Traceback" not in err
    assert detail.startswith("ideals.I[0]: ")
    assert "MAX_POWER_TERMS = 1500" in detail


_COLD_IMPORT = """
import json, sys
import grady.cli as cli
for path in sys.argv[1:]:
    assert cli.main(["run", path]) == 0, path
    assert "numpy" not in sys.modules, path
import grady
from grady import oracle_compare
assert "numpy" in sys.modules and oracle_compare is grady.oracle.oracle_compare
print(json.dumps(sorted(grady.__all__)), file=sys.stderr)
"""


def test_numpy_loads_only_with_the_oracle(tmp_path):
    """A cold `grady run` of a job that never reaches the oracle does not
    import numpy; the oracle's names still load on first access."""
    paths = []
    for op, gens in (("star", ["x^4", "x^3*y", "x^2*y^2+x*y^3", "y^4"]),
                     ("gdecomp", ["x^2*y", "y^3"]),
                     ("decompose", ["x^2*y", "y^3"])):
        doc = json.loads(json.dumps(STAR_JOB))
        doc["ideals"] = {"I": gens}
        doc["command"] = {"op": op, "args": ["I"]}
        paths.append(_write_job(tmp_path, doc, f"{op}.json"))
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT, *paths],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [
        "Decomposition", "GF", "GREVLEX", "GradedRing", "GradingGroup",
        "GroebnerBasis", "Hdeg", "Ideal", "Job", "JobError", "LEX",
        "OracleVerdict", "PolyParseError", "Polynomial", "PolynomialRing",
        "PresentationMatrix", "PrimaryComponent", "QQ", "ResourceLimitError",
        "ResultDocument", "RingMismatchError", "Subspace", "TermOrder",
        "TruncatedSpace", "UnsupportedClassError", "associated_primes",
        "buchberger", "classical_decomposition", "colon", "decomposition",
        "degree_of", "eliminate", "exact_quotient", "execute_job", "fitting",
        "fitting_ideal", "g_associated_primes", "g_associated_witness",
        "g_minimal_primes", "g_primary_decomposition", "g_radical",
        "graded_matrix_check", "grading", "groebner", "gtheory",
        "homogeneous_components", "ideal_power", "ideal_product",
        "ideal_sum", "intersect", "intersect_all", "is_g_ideal",
        "is_g_primary", "is_g_prime", "is_g_radical", "is_homogeneous",
        "jobs", "map_entries", "minimal_primes", "monomial_dimension",
        "monomial_primary_decomposition", "monomial_radical", "oracle",
        "oracle_compare", "parse_job", "parse_polynomial", "poly",
        "poset_component", "radical_ideal", "radical_membership",
        "render_result", "saturate", "saturate_ideal", "star",
        "truncated_star_basis", "univariate_primary_decomposition",
        "verify_document", "verify_theorem_suite"]


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
