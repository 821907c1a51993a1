"""The demo job documents, run through the CLI, print exactly the
committed golden outputs.

Regenerate the goldens (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_demo_jobs.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import grady.cli as cli

ROOT = Path(__file__).resolve().parent.parent
JOBS = sorted((ROOT / "demos" / "jobs").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [(job, cmd) for job in JOBS for cmd in ("run", "verify")]


def _golden(job, cmd):
    return GOLDEN / f"{job.stem}.{cmd}.out"


@pytest.mark.parametrize("job,cmd", CASES,
                         ids=[f"{j.stem}-{c}" for j, c in CASES])
def test_demo_job_matches_golden(job, cmd, capsys):
    code = cli.main([cmd, str(job)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == _golden(job, cmd).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for job, cmd in CASES:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main([cmd, str(job)])
        if code != 0:
            sys.exit(f"{job.name} {cmd}: exit {code}")
        _golden(job, cmd).write_text(buf.getvalue(), encoding="utf-8")
