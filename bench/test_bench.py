"""Tests of the benchmark itself (not of grady):

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=170)


def run_small(monkeypatch, capsys, name, pool, *args):
    """run.main in this process on the first `pool` inputs; returns the
    result line."""
    monkeypatch.setattr(WORKLOADS[name], "pool_size", pool)
    assert run.main(["--workload", name, *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_seed_determines_inputs(name):
    make = gen.GENERATORS[name]
    assert json.dumps(make(7, 60)) == json.dumps(make(7, 60))
    assert json.dumps(make(7, 60)) != json.dumps(make(8, 60))


def test_workload_names_match_spec():
    assert sorted(NAMES) == sorted(WORKLOADS) == sorted(gen.GENERATORS)


def test_job_documents_cover_every_op():
    from grady.jobs import OPS
    records = gen.jobs(0, 300)
    commands = [json.loads(r["doc"]).get("command", {}) for r in records]
    assert set(OPS) <= {c.get("op") for c in commands}
    assert {c.get("options", {}).get("format") for c in commands} \
        == {"json", "text"}
    assert {r["expect"] for r in records} == {0, 2, 3}


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_names_metrics(monkeypatch, capsys, name):
    # The default seed, so the outputs are also checked against the
    # committed digests (a smaller pool is a prefix of the full one).
    out = run_small(monkeypatch, capsys, name, 14, "--seed", "0",
                    "--seconds", "5", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert sorted(out["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_too_few_ops_for_p90_fail_the_run(monkeypatch, capsys):
    out = run_small(monkeypatch, capsys, "jobs", 14, "--seed", "3",
                    "--seconds", "0", "--trace", "0")
    assert not out["correct"] and out["failed"] == 1


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    out = run_small(monkeypatch, capsys, "jobs", 24, "--seed", "3",
                    "--seconds", "0.3", "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    assert sorted(out["metrics"]) == sorted(
        m["name"] for m in SPEC["per_layer"])
    assert out["metrics"]["jobs.parse_s"]["value"] > 0
    assert out["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_default_seed_digests_cover_every_workload():
    digests = json.loads((BENCH / "digests.json").read_text())
    assert sorted(digests) == sorted(NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", NAMES[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
