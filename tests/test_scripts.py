"""Smoke test of the end-to-end reproduction script on a small range of d."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def test_run_experiments_up_to_d4():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--max-d", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["d=3:", "d=4:"]
    assert lines[-1] == "all bend counts exceed the lower bound"
