"""The walkthrough scripts under ``demos/`` run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize(
    "script",
    [
        "01_root_systems_and_weyl_chambers.py",
        "02_borel_weil_bott.py",
        "03_zero_locus_hodge_numbers.py",
        "04_classification_tables.py",
    ],
)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
