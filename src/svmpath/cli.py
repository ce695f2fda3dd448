"""Command-line entry points.

Exit codes: 0 success, 1 verification failure, 2 input error. A command
fails by raising: `Refused` for an input it refuses before any work, an input
error (`InstanceFormatError`, `OSError`, `ValueError`), or a
`VerificationFailure`. `main` alone turns each into its exit code and one
stderr line. `verify` catches every `VerificationFailure` of its own,
regeneration's included, and prints it as one JSON object on stdout.

Importing this module loads only what `gen` and `gen-arc` use: `construct`,
`goldfarb`, `geometry` and `instance_io`. `verify` imports `kkt` when it
runs, and `json` only to report a failure: it writes each sigma's summary by
one `%`-template, byte for byte what `json.dumps` writes. `sweep` imports
`kkt`, `qp`, `sweep`, `report_io` and `json`, `shadow-svg` only `report_io`
and `json`. Two names of those modules stay names of this module,
as forwarders that import their module on first call: `sweep_refined` and
`write_sweep_report`. `sweep` calls them through this module's globals, so a
wrapper or test patch set on `cli` still sees each call.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .construct import (
    StretchFactor,
    admissible_constructions,  # perfbench/tracer.py reads it by name; no command calls it
    build_instance,
    choose_stretch,
    generate_2d_arc_instance,
)
from .geometry import VerificationFailure
from .goldfarb import GoldfarbParams
from .instance_io import (
    InstanceFormatError,
    parse_integer,
    parse_rational,
    rational_json,
    read_instance,
    regenerate,
    write_instance,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
MAX_DIM = 16  # of gen and verify; verify keeps no certificate: 6.7-7.2 s and 127 MB at d = 16


class Refused(Exception):
    """An input a command refuses before any work; `main` prints it as it stands."""


def _flag(flag: str, token: str, parse=parse_rational):
    """The flag's token read by `parse`; a bad token is an input error naming the flag."""
    try:
        return parse(token)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{flag}: {exc}") from None


def _params_from_args(d: int, args) -> GoldfarbParams:
    return GoldfarbParams(d, _flag("--eps", args.eps), _flag("--gamma", args.gamma))


def _refuse_unwritable(command: str, *outputs) -> None:
    """Raise Refused, naming the flag, if an output cannot be written.

    `outputs` are (flag, path) pairs, a None path meaning the flag was not
    given. Each command checks its outputs first, so a path that names a
    directory or lies in a missing directory stops it before any work.
    """
    for flag, path in outputs:
        if path is None:
            continue
        if Path(path).is_dir():
            raise Refused(f"{command}: {flag} {path} is a directory")
        if not Path(path).parent.is_dir():
            raise Refused(f"{command}: {flag} {path}: parent directory does not exist")


def _refuse_same_file(command: str, *paths) -> None:
    """Raise Refused, naming both, if two of the (name, path) pairs name one file.

    So no output overwrites the input or the other output; a None path was not given.
    """
    seen = {}
    for name, path in paths:
        if path is not None:
            other = seen.setdefault(Path(path).resolve(), name)
            if other != name:
                raise Refused(f"{command}: {other} and {name} are the same file {path}")


# Forwarders that load their module on first call; see the module docstring.
# perfbench/tracer.py reads the first two by name; no command calls them.
def build_kkt_certificate(instance, sigma, q_last, weights):
    from .kkt import build_kkt_certificate
    return build_kkt_certificate(instance, sigma, q_last, weights)


def sweep_constructed(instance, certificates):
    from .sweep import sweep_constructed
    return sweep_constructed(instance, certificates)


def sweep_refined(instance, mu_lo, mu_hi, steps, depth):
    from .sweep import sweep_refined
    return sweep_refined(instance, mu_lo, mu_hi, steps, depth)


def write_sweep_report(report, path, meta=None):
    from .report_io import write_sweep_report
    return write_sweep_report(report, path, meta)


def cmd_gen(args) -> int:
    _refuse_unwritable("gen", ("--out", args.out))
    d = _flag("--d", args.d, parse_integer)
    if d > MAX_DIM:
        raise Refused(f"gen: 2^(d-2) breakpoints; --d is capped at {MAX_DIM}")
    params = _params_from_args(d, args)
    if params.dim < 2:
        raise Refused("gen: need --d >= 2 to place the two-point class")
    if params.dim == 2:
        print("warning: d=2 yields a single breakpoint; the path bound is trivial", file=sys.stderr)
    if args.stretch == "auto":
        stretch_factor = choose_stretch(params)
    else:
        stretch_factor = StretchFactor(_flag("--stretch", args.stretch))
    instance = build_instance(params, stretch_factor)
    write_instance(instance, args.out)
    count = 2 ** params.dim // 4
    print(f"wrote {args.out}: n={instance.n_points} points, "
          f"{count} breakpoints, mu_bar={instance.calibration.mu_bar}")
    return EXIT_OK


def cmd_gen_arc(args) -> int:
    _refuse_unwritable("gen-arc", ("--out", args.out))
    instance = generate_2d_arc_instance(_flag("--n-plus", args.n_plus, parse_integer))
    write_instance(instance, args.out)
    print(f"wrote {args.out}: n={instance.n_points} points (2D arc demo)")
    return EXIT_OK


# one sigma's summary as `json.dumps` writes it, with each rational's numerator and denominator
_SUMMARY = (
    '{"sigma": "%s", "mu": {"num": "%d", "den": "%d"}, '
    '"facet_multiplier": {"num": "%d", "den": "%d"}, "objective": {"num": "%d", "den": "%d"}, '
    '"support": [%s], "max_weight": {"num": "%d", "den": "%d"}}'
)


def cmd_verify(args) -> int:
    from .kkt import certify_construction

    instance = read_instance(args.instance)
    if instance.params is None:
        raise Refused("verify: only constructed instances carry certificates")
    if instance.params.dim > MAX_DIM:
        raise Refused(f"verify: header d {instance.params.dim}; d is capped at {MAX_DIM}")

    # each sigma's summary as its JSON text: the joined texts are json.dumps of the whole
    texts = []
    try:
        if regenerate(instance) != instance:
            raise VerificationFailure("instance differs from its header parameters")
        for cert, (A, den) in certify_construction(instance):
            mu, facet, objective, top = (
                cert.mu, cert.facet_multiplier, cert.pair.objective, Fraction(max(A), den)
            )
            texts.append(_SUMMARY % (
                "".join("+" if s == 1 else "-" for s in cert.sigma),
                mu.numerator, mu.denominator,
                facet.numerator, facet.denominator,
                objective.numerator, objective.denominator,
                ", ".join(f"[{k}, {s}]" for k, s in enumerate(cert.sigma, start=1)),
                top.numerator, top.denominator,
            ))
    except VerificationFailure as exc:
        import json  # only a failing verify loads it

        print(json.dumps({"ok": False, "error": str(exc)}))
        return EXIT_VERIFY
    print(f'{{"ok": true, "certificates": {len(texts)}, "sigmas": [{", ".join(texts)}]}}')
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .qp import nu_from_mu
    from .report_io import sweep_report_csv

    counts = []
    for flag, token, least in (
        ("--steps", args.steps, 2),
        ("--refine", args.refine, 0),
        ("--precision", args.precision, 0),
    ):
        counts.append(_flag(flag, token, parse_integer))
        if counts[-1] < least:
            raise Refused(f"sweep: {flag} must be >= {least}, got {counts[-1]}")
    steps, refine, precision = counts
    if precision > 2 ** 31 - 1:  # the most digits `format` takes
        raise Refused(f"sweep: --precision must be <= {2 ** 31 - 1}, got {precision}")
    mu_lo, mu_hi = _flag("--mu-lo", args.mu_lo), _flag("--mu-hi", args.mu_hi)
    if not Fraction(1, 2) <= mu_lo < mu_hi <= 1:
        raise Refused(f"sweep: need 1/2 <= --mu-lo < --mu-hi <= 1, got --mu-lo {args.mu_lo} "
                      f"--mu-hi {args.mu_hi}")
    outputs = ("--out", args.out), ("--csv", args.csv)
    _refuse_same_file("sweep", ("instance", args.instance), *outputs)
    _refuse_unwritable("sweep", *outputs)
    instance = read_instance(args.instance)
    report = sweep_refined(instance, mu_lo, mu_hi, steps, refine)
    meta = {
        "instance": str(args.instance),
        "mu_lo": rational_json(mu_lo),
        "mu_hi": rational_json(mu_hi),
        "steps": steps,
        "refine_depth": refine,
    }
    write_sweep_report(report, args.out, meta)
    if args.csv:
        Path(args.csv).write_text(sweep_report_csv(report, precision), encoding="utf-8")
    n = instance.n_points
    print(
        f"bends={report.bend_count} (lower bound {report.lower_bound}), "
        f"distinct support sets={report.distinct_support_sets}, "
        f"nu range [{nu_from_mu(mu_hi, n)}, {nu_from_mu(mu_lo, n)}]"
    )
    return EXIT_OK


def cmd_shadow_svg(args) -> int:
    _refuse_unwritable("shadow-svg", ("--out", args.out))
    params = _params_from_args(_flag("--d", args.d, parse_integer), args)
    if params.dim > 12:
        raise Refused("shadow-svg: 2^d ring vertices; --d is capped at 12")
    from .report_io import write_shadow_svg

    write_shadow_svg(params, args.out)
    print(f"wrote {args.out}: {2 ** params.dim} vertices")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svmpath",
        description="Exact worst-case SVM regularization-path instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a constructed instance file")
    gen.add_argument("--d", required=True)
    gen.add_argument("--eps", default="1/3")
    gen.add_argument("--gamma", default="1/16")
    gen.add_argument("--stretch", default="20000", help="stretch factor, or 'auto'")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    arc = sub.add_parser("gen-arc", help="generate the 2D arc demo instance")
    arc.add_argument("--n-plus", default="20")
    arc.add_argument("--out", required=True)
    arc.set_defaults(func=cmd_gen_arc)

    verify = sub.add_parser("verify", help="re-derive and certify an instance file")
    verify.add_argument("instance")
    verify.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", help="sweep the regularization parameter")
    swp.add_argument("instance")
    swp.add_argument("--mu-lo", default="8/10")
    swp.add_argument("--mu-hi", default="1")
    swp.add_argument("--steps", default="512")
    swp.add_argument("--refine", default="6")
    swp.add_argument("--out", required=True)
    swp.add_argument("--csv", default=None, help="also write an approximate CSV view")
    swp.add_argument("--precision", default="12")
    swp.set_defaults(func=cmd_sweep)

    svg = sub.add_parser("shadow-svg", help="draw the 2D shadow polygon")
    svg.add_argument("--d", required=True)
    svg.add_argument("--eps", default="1/3")
    svg.add_argument("--gamma", default="1/16")
    svg.add_argument("--out", required=True)
    svg.set_defaults(func=cmd_shadow_svg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except Refused as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
