"""The scripts' text reports and the solver golden's case list, against the
committed goldens under tests/golden.

Each script runs in a fresh interpreter, with and without src on
PYTHONPATH; either way it imports trigrade from this checkout, as the CI
step that rebuilds the goldens runs it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("script", ["verify_families", "solve_roundtrip"])
def test_script_report_matches_its_golden(script):
    """Run with src on PYTHONPATH, and with no PYTHONPATH at all: the script
    puts this checkout's src on its own path."""
    bare = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for env in (dict(bare, PYTHONPATH=str(ROOT / "src")), bare):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / f"{script}.txt").read_text()


def test_solver_golden_holds_the_rebuild_cases():
    spec = importlib.util.spec_from_file_location(
        "rebuild_solver_golden", ROOT / "scripts" / "rebuild_solver_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    golden = json.loads((GOLDEN / "solver_results.json").read_text())
    # through JSON, as the golden stores them
    assert json.loads(json.dumps(module.cases())) == [e["case"] for e in golden]
