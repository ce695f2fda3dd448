#!/usr/bin/env python3
"""Time the command line over a ladder of dimensions and record it as JSON.

For each d from 3 to --max-d the script runs, each in a fresh
interpreter, `svmpath gen --d d --stretch auto`, `svmpath verify` of that
instance and `svmpath sweep` of it at the CLI defaults. It records each
command's wall time (interpreter start included) and peak resident set
size (`gen_rss_mb`, ...: the command's own, from `os.wait4`), the sweep's
bend count and distinct support sets, and the exit codes. It then walks the
exact path of that instance over [8/10, 1] in a fresh interpreter
(`sweep.path_pieces`) and records its piece count, `2^d - 2` on these
instances, and `walk_s`, the walk's own time without start-up or file
reading. A command that fails ends the ladder.

The result is stored under --label in the JSON file --out, next to the
entries other runs stored there under other labels, so two checkouts can be
recorded side by side:

    python scripts/bench.py --max-d 12 --src /path/to/other/src --label parent --out BENCH.json
    python scripts/bench.py --max-d 12 --label change --out BENCH.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# run as `python -c WALK INSTANCE`: one JSON line with the walk's piece count and seconds
WALK = """
import json, sys, time
from fractions import Fraction
from svmpath.instance_io import read_instance
from svmpath.sweep import path_pieces
instance = read_instance(sys.argv[1])
start = time.perf_counter()
pieces = path_pieces(instance, Fraction(8, 10), 1)
print(json.dumps({"pieces": len(pieces), "walk_s": round(time.perf_counter() - start, 3)}))
"""


def timed(args, src: Path, cwd: Path) -> tuple:
    """(exit code, wall seconds, peak RSS in MB, stdout) of `python *args` in a fresh interpreter.

    The interpreter has `src` on its path. Its output goes to temporary
    files, so the script can reap it with `os.wait4`, whose resource usage
    is the command's own.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if code:
        print(f"{' '.join(args)}: exit {code}: {stderr.strip()}", file=sys.stderr)
    # ru_maxrss is in KiB on Linux
    return code, wall, usage.ru_maxrss / 1024, stdout


def rung(d: int, src: Path, wd: Path) -> dict:
    """gen, verify, sweep and the exact walk at dimension d; stops at the first failing command."""
    row = {"d": d}
    inst, report = wd / f"d{d}.inst", wd / f"d{d}.json"
    steps = (
        ("gen", ["gen", "--d", str(d), "--stretch", "auto", "--out", str(inst)]),
        ("verify", ["verify", str(inst)]),
        ("sweep", ["sweep", str(inst), "--out", str(report)]),
    )
    for name, argv in steps:
        code, wall, rss, _ = timed(["-m", "svmpath.cli", *argv], src, wd)
        row[f"{name}_exit"] = code
        row[f"{name}_s"] = round(wall, 3)
        row[f"{name}_rss_mb"] = round(rss, 1)
        if code:
            return row
    doc = json.loads(report.read_text(encoding="utf-8"))
    row["bends"] = doc["bend_count"]
    row["distinct_support_sets"] = doc["distinct_support_sets"]
    row["lower_bound"] = doc["lower_bound"]
    code, _, _, out = timed(["-c", WALK, str(inst)], src, wd)
    row["walk_exit"] = code
    if not code:
        row.update(json.loads(out))
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=12)
    parser.add_argument("--src", default=str(SRC), help="package source directory to time")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.max_d < 3:
        parser.error("--max-d must be at least 3")

    src = Path(args.src).resolve()
    rows = []
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for d in range(3, args.max_d + 1):
            row = rung(d, src, Path(tmp))
            rows.append(row)
            print(json.dumps(row), flush=True)
            failed = any(row[k] for k in row if k.endswith("_exit"))
            if failed:
                break

    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
