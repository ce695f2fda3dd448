#!/usr/bin/env python3
"""Check that the tests can fail: run them against textual mutants of the package.

    python scripts/mutants.py

Each mutant replaces one snippet of one module under `src/svmpath/` that
must occur there exactly once. For each mutant the script copies `src/` into
a temporary directory, applies the mutant to the copy, and runs the test
files named with it (`python -m pytest -x -q`) with `PYTHONPATH` on that
copy. A failing run kills the mutant; a passing run means no test tells the
mutant from the package, and the mutant survives. The unmutated copy runs
first and must pass.

It prints one line per mutant and exits 0 when every mutant is killed, 1
naming each survivor, and 2 when the unmutated copy fails or a snippet is not
found exactly once (the source moved on: update the list). Standard library
only; each mutant takes one run of its test files, about 20 s for the walk's.

The solver reads a piece off the loop's answer, and a start's walk off its
last piece, through `Piece.optimum`, which answers None where the piece does
not cover mu: that `covers` test is the read-off's, and
`optimum-without-covers` removes it.

The calibration pass of `build_instance` (its running extremes and the
strictness check of `_weights`, which it shares with `support_decomposition`)
and the shadow ring pass (where it keeps each admissible support) have
mutants of their own, killed by `tests/test_construct.py` and
`tests/test_goldfarb.py`.

Four mutants guard what a fresh process loads and how it fails, which
only a test in a fresh interpreter can see: `cli-imports-qp` imports the
solver with the command line, `verify-imports-sweep` has `verify` import the
sweep again, `verify-imports-qp` has it import from the solver's module
`qp` again (the certificate that `qp` re-exports, so `verify` still
succeeds), and `strictness-not-a-failure` takes `StrictnessError` out of the
`VerificationFailure` base that `main` catches.

Every record binds its fields in `FrozenRecord.__init__`, by one zip when
each field comes by position: `record-binds-short` drops that branch's
length check, so a call short of a field would build a record without it;
the tests of the calls a record refuses kill it.

A certificate substitutes the candidate's coefficients and tests each
condition the piece of its working set would: five mutants drop or loosen
one each, and each is killed by the certificate test whose candidate fails
that condition alone. `certificate-without-stationarity` drops the equal
support gradients (a weight moved between two support points).
`certificate-bound-side-not-strict` accepts a point at 0 whose gradient
meets the multiplier (a copy of a support point).
`certificate-without-independence` drops the triangular check of the
support points (a copy labelled as one more facet; the `verify` test of a
support point moved onto another's axis is run too).
`certificate-left-side-dropped` accepts left's gradient meeting right's
(right moved onto left). `certificate-weight-above-mu` drops the weights'
bounds (mu lowered under the largest weight, the line points moved to keep
q). No module builds p:
the integer rows X0 and X1 of `_unstretched_pair` fix its weights, and
`pair-p-misbuilt` flips a sign in X0; only the test that sums the
certificate's coefficients times the points and compares them with the
Fraction construction's p and q in `tests/oracles.py` is run against it.

`strictness-not-strict` lets a zero weight pass `facet_strictness_check`, so
a point on two facets would count as strictly inside all but its own; the
strictness tests' points tight on another facet kill it.
`strictness-sum-dropped` drops the check's `sum(W) == den`, so a point off
the sigma-facet would pass; the tests comparing the check with the Fraction
oracle kill it. `exponent-accepted` lets `parse_rational` read exponent
notation, which the token tests refuse. `_read` refuses a token with `_` or
a non-ASCII character, which `Fraction` and `int` would read (`1_000`, and
digits of any script): `read-accepts-underscore` and `read-accepts-non-ascii`
drop one half each, and the rational and integer token tests kill them. The
instance parser refuses a header key its kind does not have and a key given
twice: `header-accepts-unknown-key` and `header-accepts-repeated-key` drop
one check each, and the instance file tests kill them.

A command refuses an input by raising `Refused`, which `main` alone prints as
it stands and maps to exit 2. `refusal-exits-1` maps it to exit 1, and
`refusal-prefixed` prints it behind `input error: `; the `d` cap tests, which
pin the exit code and the exact stderr line, kill both. `verify` regenerates
the instance inside the `try` that turns a `VerificationFailure` into its
JSON object; `verify-regenerates-outside` moves the regeneration before it,
so a header that does not regenerate ends on stderr again, and the `verify`
tests of a tampered point and of a header stretch too small kill it.

`gap-sign-flipped` leaves the gaps of the coefficients at mu in
`Piece._measure` unnegated. Only the duality-gap tests, which share no code
with the pieces, are run against it. They kill it by their walk's coverage
of [51/100, 1]: with the flip, the loop's answer at 51/100 lies on no piece,
so the walk is empty. The gap itself stays 0 on every piece the mutant still
accepts.

The one elimination lives in `qp` and takes integers only.
`step-without-det` drops the determinant from the loop's step, so each step
is det times too long; the walk's tests, which compare the loop with the
Fraction loop of `tests/oracles.py`, kill it. `elimination-takes-fractions`
drops the guard that refuses a non-integer entry, so a Fraction or float
system is no longer refused; the elimination's tests kill it.

The breakpoints are indexed by the admissible sign vectors, which are built
directly, each a head followed by (1, 1): `admissible-suffix-as-prefix` puts
the (1, 1) in front, which leaves their number and `d = 2` alone, and the
test comparing them with the filtered sign vectors of `tests/oracles.py`
kills it. `stretch-square-may-equal` lets `choose_stretch` stop at a factor
whose square equals the threshold, where a weight is 0; the test of a
factor at the threshold kills it. `refine-past-depth-zero` bisects once
more at depth 0, which the refinement test at depth 0 sees.
`json-labels-unsorted-by-str` sorts the JSON labels as lists, not by their
text as the CSV does; the test that both exports list a support alike kills
it.

Equivalent mutants, which no test can kill, stay off the list, with the
reason here. Swapping the ring support's two edges, `_support(fx, fy, ex,
ey, bx, by)`, gives the same support: n = |f|_1 (e_y, -e_x) + |e|_1 (f_y,
-f_x) is symmetric in e and f. `ring-support-misplaced` keys it to the next
vertex instead. Sorting the JSON labels by `repr` in place of `str` changes
nothing, as the two agree on lists and ints.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WALK_TESTS = ("tests/test_qp.py", "tests/test_sweep.py")
CONSTRUCT_TESTS = ("tests/test_construct.py",)
RING_TESTS = ("tests/test_goldfarb.py",)
FOOTPRINT_TESTS = (
    "tests/test_records.py::test_command_loads_only_its_own_modules",
    "tests/test_records.py::test_verify_loads_neither_sweep_nor_report_io",
)
FRESH_FAILURE_TESTS = (
    "tests/test_cli.py::TestGenRefuses::test_unit_stretch_without_the_solver_loaded",
)
CERTIFICATE = "tests/test_qp.py::TestCertificates::"
STATIONARITY_TESTS = (CERTIFICATE + "test_perturbed_weight_breaks_stationarity",)
BOUND_SIDE_TESTS = (CERTIFICATE + "test_duplicated_vertex_breaks_uniqueness",)
INDEPENDENCE_TESTS = (
    CERTIFICATE + "test_split_weight_leaves_no_piece",
    "tests/test_cli.py::TestVerify::test_uniqueness_failure_names_sigma_and_mu",
)
LEFT_SIDE_TESTS = (CERTIFICATE + "test_coincident_line_points_break_uniqueness",)
WEIGHT_BOUND_TESTS = (CERTIFICATE + "test_weight_above_mu_is_refused",)
POINT_TESTS = (CERTIFICATE + "test_optimum_points_are_the_constructed_pair",)
STRICTNESS_TESTS = ("tests/test_construct.py::TestFacetStrictness",)
GAP_TESTS = ("tests/test_qp.py::TestDualityGap",)
RECORD_TESTS = ("tests/test_records.py::TestConstruction::test_refuses_what_the_dataclass_refused",)
TOKEN_TESTS = ("tests/test_io.py::TestRationalTokens",)
DIGIT_TESTS = ("tests/test_io.py::TestRationalTokens", "tests/test_io.py::TestIntegerTokens")
HEADER_TESTS = ("tests/test_io.py::TestInstanceFiles",)
REFUSAL_TESTS = ("tests/test_cli.py::TestDimCap",)
REGENERATION_TESTS = (
    "tests/test_cli.py::TestVerify::test_tampered_coordinate_fails",
    "tests/test_cli.py::TestVerify::test_header_stretch_too_small",
)
ELIMINATION_TESTS = ("tests/test_qp.py::TestSolveLinearSystem",)
ADMISSIBLE_TESTS = ("tests/test_goldfarb.py::TestAdmissibleSignVectors",)
STRETCH_TESTS = ("tests/test_construct.py::TestChooseStretch",)
REFINE_TESTS = ("tests/test_sweep.py::TestRefine",)
LABEL_ORDER_TESTS = ("tests/test_io.py::TestReportWriter::test_csv_and_json_share_one_label_order",)

# (name, module under src/svmpath, snippet, replacement, test files)
MUTANTS = (
    (
        "optimum-without-covers",
        "qp.py",
        "if not self.covers(mu):\n            return None",
        "pass",
        WALK_TESTS,
    ),
    (
        "walk-above-hi-only",
        "qp.py",
        "piece.hi is not None and mu >= piece.hi",
        "piece.hi is not None and mu > piece.hi",
        WALK_TESTS,
    ),
    (
        "successor-need-not-abut",
        "qp.py",
        "(nxt.lo != self.hi or (nxt.hi is not None and nxt.hi <= self.hi))",
        "(nxt.hi is not None and nxt.hi <= self.hi)",
        WALK_TESTS,
    ),
    (
        "successor-single-point",
        "qp.py",
        "nxt.hi is not None and nxt.hi <= self.hi",
        "nxt.hi is not None and nxt.hi < self.hi",
        WALK_TESTS,
    ),
    (
        "covers-lo-closedness-flipped",
        "qp.py",
        "side < 0 or (side == 0 and not self.lo_closed)",
        "side < 0 or (side == 0 and self.lo_closed)",
        WALK_TESTS,
    ),
    (
        "covers-hi-closedness-flipped",
        "qp.py",
        "side > 0 or (side == 0 and self.hi_closed)",
        "side > 0 or (side == 0 and not self.hi_closed)",
        WALK_TESTS,
    ),
    (
        "calibration-mu-bar-running-minimum",
        "construct.py",
        "if max(A) * mu[1] > mu[0] * den:",
        "if max(A) * mu[1] < mu[0] * den:",
        CONSTRUCT_TESTS,
    ),
    (
        "calibration-q-extremes-swapped",
        "construct.py",
        "Qd * lo[1] < lo[0] * g:\n            lo = (Qd, g)\n        if hi is None or Qd * hi[1] > hi[0] * g:",
        "Qd * lo[1] > lo[0] * g:\n            lo = (Qd, g)\n        if hi is None or Qd * hi[1] < hi[0] * g:",
        CONSTRUCT_TESTS,
    ),
    (
        "weights-without-strictness",
        "construct.py",
        "if not facet_strictness_check((A, den)):\n"
        "        raise StrictnessError(f\"facet strictness fails for sigma={sigma} at L={s.factor}\")\n"
        "    return A, den",
        "return A, den",
        CONSTRUCT_TESTS,
    ),
    (
        "ring-support-misplaced",
        "goldfarb.py",
        "supports[name] = _support(ex, ey, fx, fy, bx, by)",
        "supports[sigma] = _support(ex, ey, fx, fy, bx, by)",
        RING_TESTS,
    ),
    (
        "ring-filter-inverted",
        "goldfarb.py",
        "if name[-2:] == (1, 1):",
        "if name[-2:] != (1, 1):",
        RING_TESTS,
    ),
    (
        "cli-imports-qp",
        "cli.py",
        "from .geometry import VerificationFailure\n",
        "from . import qp\nfrom .geometry import VerificationFailure\n",
        FOOTPRINT_TESTS,
    ),
    (
        "verify-imports-sweep",
        "cli.py",
        "    from .kkt import certify_construction\n",
        "    from .kkt import certify_construction\n    from .sweep import SweepMismatchError\n",
        FOOTPRINT_TESTS,
    ),
    (
        "verify-imports-qp",
        "cli.py",
        "    from .kkt import certify_construction\n",
        "    from .kkt import certify_construction\n    from .qp import build_kkt_certificate\n",
        FOOTPRINT_TESTS,
    ),
    (
        "strictness-not-a-failure",
        "construct.py",
        "class StrictnessError(VerificationFailure):",
        "class StrictnessError(Exception):",
        FRESH_FAILURE_TESTS,
    ),
    (
        "certificate-without-stationarity",
        "kkt.py",
        "if sum(A) != den or any(G[:free]):",
        "if sum(A) != den:",
        STATIONARITY_TESTS,
    ),
    (
        "certificate-bound-side-not-strict",
        "kkt.py",
        "all(g > 0 for g in G[free:-1])",
        "all(g >= 0 for g in G[free:-1])",
        BOUND_SIDE_TESTS,
    ),
    (
        "certificate-without-independence",
        "kkt.py",
        "if not all(k < len(row) and row[k] and not any(row[k + 1:]) for k, row in enumerate(rows)):",
        "if False:",
        INDEPENDENCE_TESTS,
    ),
    (
        "certificate-left-side-dropped",
        "kkt.py",
        " and G[-1] < 0):",
        "):",
        LEFT_SIDE_TESTS,
    ),
    (
        "certificate-weight-above-mu",
        "kkt.py",
        "inside = all(0 < a and a * e <= m * den for a in A)",
        "inside = True",
        WEIGHT_BOUND_TESTS,
    ),
    (
        "pair-p-misbuilt",
        "construct.py",
        "2 * g * S2 + H * V[-2]",
        "2 * g * S2 - H * V[-2]",
        POINT_TESTS,
    ),
    (
        "strictness-not-strict",
        "construct.py",
        "all(w > 0 for w in W)",
        "all(w >= 0 for w in W)",
        STRICTNESS_TESTS,
    ),
    (
        "gap-sign-flipped",
        "qp.py",
        "A += G0[:lo] + [-g for g in G0[lo:]]\n        B += G1[:lo] + [-g for g in G1[lo:]]",
        "A += G0\n        B += G1",
        GAP_TESTS,
    ),
    (
        "record-binds-short",
        "geometry.py",
        "if kwargs or len(args) != len(fields):",
        "if kwargs:",
        RECORD_TESTS,
    ),
    (
        "strictness-sum-dropped",
        "construct.py",
        "return sum(W) == den and all(w > 0 for w in W)",
        "return all(w > 0 for w in W)",
        STRICTNESS_TESTS,
    ),
    (
        "exponent-accepted",
        "instance_io.py",
        'if "e" in token or "E" in token:',
        "if False:",
        TOKEN_TESTS,
    ),
    (
        "read-accepts-underscore",
        "instance_io.py",
        'if "_" in token or not token.isascii():',
        "if not token.isascii():",
        DIGIT_TESTS,
    ),
    (
        "read-accepts-non-ascii",
        "instance_io.py",
        'if "_" in token or not token.isascii():',
        'if "_" in token:',
        DIGIT_TESTS,
    ),
    (
        "header-accepts-unknown-key",
        "instance_io.py",
        "if key not in HEADER_KEYS[kind]:",
        "if False:",
        HEADER_TESTS,
    ),
    (
        "header-accepts-repeated-key",
        "instance_io.py",
        "if tokens[0] in header:",
        "if False:",
        HEADER_TESTS,
    ),
    (
        "refusal-exits-1",
        "cli.py",
        "print(exc, file=sys.stderr)\n        return EXIT_INPUT",
        "print(exc, file=sys.stderr)\n        return EXIT_VERIFY",
        REFUSAL_TESTS,
    ),
    (
        "refusal-prefixed",
        "cli.py",
        "print(exc, file=sys.stderr)",
        'print(f"input error: {exc}", file=sys.stderr)',
        REFUSAL_TESTS,
    ),
    (
        "verify-regenerates-outside",
        "cli.py",
        "    try:\n"
        "        if regenerate(instance) != instance:\n"
        "            raise VerificationFailure(\"instance differs from its header parameters\")\n",
        "    if regenerate(instance) != instance:\n"
        "        raise VerificationFailure(\"instance differs from its header parameters\")\n"
        "    try:\n",
        REGENERATION_TESTS,
    ),
    (
        "step-without-det",
        "qp.py",
        "t = Fraction(c * y, det * den_w)",
        "t = Fraction(c * y, den_w)",
        WALK_TESTS,
    ),
    (
        "elimination-takes-fractions",
        "qp.py",
        '    if any(type(x) is not int for row in M for x in row):\n'
        '        raise TypeError("the elimination takes integer entries only")\n',
        "",
        ELIMINATION_TESTS,
    ),
    (
        "admissible-suffix-as-prefix",
        "goldfarb.py",
        "head + (1, 1) for head",
        "(1, 1) + head for head",
        ADMISSIBLE_TESTS,
    ),
    (
        "stretch-square-may-equal",
        "construct.py",
        "while factor * factor <= threshold:",
        "while factor * factor < threshold:",
        STRETCH_TESTS,
    ),
    (
        "refine-past-depth-zero",
        "sweep.py",
        "if depth <= 0 or",
        "if depth < 0 or",
        REFINE_TESTS,
    ),
    (
        "json-labels-unsorted-by-str",
        "report_io.py",
        "sorted((_label_json(l) for l in support_plus), key=str)",
        "sorted(_label_json(l) for l in support_plus)",
        LABEL_ORDER_TESTS,
    ),
)


def run_tests(src: Path, tests) -> bool:
    """Whether `tests` pass with the package imported from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def copy_src(into: Path) -> Path:
    copy = into / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def main() -> int:
    for name, module, snippet, _replacement, _tests in MUTANTS:
        count = (SRC / "svmpath" / module).read_text(encoding="utf-8").count(snippet)
        if count != 1:
            print(f"{name}: snippet found {count} times in {module}, not once", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        if not run_tests(copy_src(Path(tmp)), sorted({t for m in MUTANTS for t in m[4]})):
            print("the unmutated package fails its tests", file=sys.stderr)
            return 2

    survivors = []
    for name, module, snippet, replacement, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            path = src / "svmpath" / module
            path.write_text(
                path.read_text(encoding="utf-8").replace(snippet, replacement), encoding="utf-8"
            )
            killed = not run_tests(src, tests)
        print(f"{name}: {'killed' if killed else 'SURVIVED'}", flush=True)
        if not killed:
            survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
