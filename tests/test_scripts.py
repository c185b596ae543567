"""The experiment scripts run end to end, as in CI: no test imports them,
so a report field they read and the package no longer has shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "args", [[], ["2", "0.3333333333333333", "1", "200", "6"]], ids=["default", "locus"]
)
def test_equivalence_table_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "equivalence_table.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "verdict: stable" in run.stdout
