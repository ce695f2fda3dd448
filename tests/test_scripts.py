"""Smoke tests of the reproduction and bench-ladder scripts on a small range of d."""

import json
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


BENCH = SCRIPT.parent / "bench.py"


def test_bench_ladder_up_to_d4(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text('{"runs": {"other": {"rows": []}}}')
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--max-d", "4", "--label", "here", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"other", "here"}
    assert set(runs["here"]) == {"python", "machine", "rows"}
    rows = runs["here"]["rows"]
    assert [row["d"] for row in rows] == [3, 4]
    for row in rows:
        for cmd in ("gen", "verify", "sweep"):
            assert row[f"{cmd}_exit"] == 0 and row[f"{cmd}_s"] > 0
            # each command's own peak RSS: at least the interpreter's
            assert 5 < row[f"{cmd}_rss_mb"] < 500
        assert row["bends"] > row["lower_bound"] == 2 ** row["d"] // 4
        assert row["distinct_support_sets"] >= row["lower_bound"]
        assert row["walk_exit"] == 0 and row["walk_s"] >= 0
        # the exact path over [8/10, 1] has 2^d - 2 pieces
        assert row["pieces"] == 2 ** row["d"] - 2
