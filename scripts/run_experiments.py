#!/usr/bin/env python3
"""Reproduce the exponential-path experiments end to end.

For each dimension d the script reads the stretch threshold 1/t* (printed
as L* = sqrt(1/t*) and the bit length of 1/t*) and the stretch factor L
chosen past it, certifies every constructed breakpoint as the unique optimum
of the instance at its mu in the one pass `svmpath verify` makes
(`kkt.certify_construction`), then runs the discrete grid sweep and reports
bend counts against the 2^d/4 lower bound. It also counts how many of the
2^d/4 certified support sets the grid sweep visits: the sweep may step over
a short piece, so this can read less than 2^d/4 (59 of 64 at d = 8 on the
default grid). Everything runs in exact
rational arithmetic; the full range up to d = 8 takes 0.7 s (2-core x86-64
VM, Python 3.11.7).

Usage:
    python scripts/run_experiments.py [--max-d 8] [--steps 512] [--refine 6]
                                      [--mu-lo 8/10] [--mu-hi 1] [--out-dir DIR]
"""

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from svmpath.construct import build_instance, choose_stretch, stretch_threshold
from svmpath.goldfarb import GoldfarbParams
from svmpath.instance_io import write_instance
from svmpath.kkt import certify_construction
from svmpath.qp import support_set
from svmpath.report_io import write_shadow_svg, write_sweep_report
from svmpath.sweep import sweep_refined


def run_dimension(d, args, out_dir):
    params = GoldfarbParams(d)
    t0 = time.time()
    threshold = stretch_threshold(params)
    s = choose_stretch(params)
    instance = build_instance(params, s)
    certified = {support_set(cert.pair) for cert, _weights in certify_construction(instance)}
    t1 = time.time()
    grid = sweep_refined(
        instance, Fraction(args.mu_lo), Fraction(args.mu_hi), args.steps, args.refine
    )
    t2 = time.time()

    if out_dir:
        write_instance(instance, out_dir / f"goldfarb_d{d}.inst")
        write_sweep_report(grid, out_dir / f"sweep_d{d}.json", {"d": d, "steps": args.steps})

    bound = 2 ** d // 4
    visited = len(certified & {support_set(record.pair) for record in grid.records})
    bits = max(threshold.numerator.bit_length(), threshold.denominator.bit_length())
    print(
        f"d={d}:  L={s.factor}  L*={math.sqrt(threshold):.1f}  1/t* bits={bits}  "
        f"certified sets visited={visited}/{bound}  "
        f"grid bends={grid.bend_count} (>{bound}: {grid.bend_count > bound})  "
        f"distinct sets={grid.distinct_support_sets}  "
        f"[certify {t1 - t0:.1f}s, sweep {t2 - t1:.1f}s]"
    )
    return grid.bend_count > bound


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=8)
    parser.add_argument("--steps", type=int, default=512)
    parser.add_argument("--refine", type=int, default=6)
    parser.add_argument("--mu-lo", default="8/10")
    parser.add_argument("--mu-hi", default="1")
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--shadow-svg", action="store_true",
                        help="also emit the d=8 shadow polygon figure")
    args = parser.parse_args()

    out_dir = None
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    print(f"grid: {args.steps} points on [{args.mu_lo}, {args.mu_hi}], refinement depth {args.refine}")
    ok = True
    for d in range(3, args.max_d + 1):
        ok &= run_dimension(d, args, out_dir)

    if args.shadow_svg:
        target = (out_dir or Path(".")) / "shadow_d8.svg"
        write_shadow_svg(GoldfarbParams(8), target)
        print(f"wrote {target}")

    print("all bend counts exceed the lower bound" if ok else "LOWER BOUND MISSED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
