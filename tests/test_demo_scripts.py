"""The demo scripts print exactly the committed golden outputs.

Regenerate the goldens (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_demo_scripts.py
"""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(script):
    return GOLDEN / f"demo_{script.stem}.out"


def _run(script):
    buf = io.StringIO()
    with redirect_stdout(buf):
        runpy.run_path(str(script), run_name="__main__")
    return buf.getvalue()


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.stem for s in SCRIPTS])
def test_demo_script_matches_golden(script):
    assert _run(script) == _golden(script).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for script in SCRIPTS:
        _golden(script).write_text(_run(script), encoding="utf-8")
