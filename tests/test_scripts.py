"""Smoke runs of the experiment scripts, so a stale library call shows up."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_differential_fuzz_script():
    out = run_script("differential_fuzz.py", "--seeds", "5", "--depth", "48")
    assert out.splitlines()[-1] == "5 seeds checked, 0 failures"


def test_precision_experiment_script():
    out = run_script("precision_experiment.py", "--count", "3")
    assert "profile defensive (density=0.85, n=3):" in out
    assert "profile no-checks (density=0.0, n=3):" in out
    assert out.count("per-program regressions : 0") == 2
    assert len(re.findall(r"SSA\+transform / SSA time: \d+\.\d\dx", out)) == 2
