"""Line-oriented exact instance files.

UTF-8 text, '#' starts a comment, header lines are `key value`, and each point
row is a class label (+1 or -1) followed by d coordinates written as
numerator/denominator tokens. Each kind of instance has its own header keys
(`HEADER_KEYS`): any other key, or a key given twice, is refused with its
line, so a mislabelled two-token point row is never read as a header.
Serialization and parsing round-trip bit-exactly; constructed instances keep
their cube parameters, stretch factor and calibration in the header, and
point rows appear in canonical facet order so labels are positional.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .construct import (
    MINUS_LABELS,
    Calibration,
    StretchFactor,
    SvmInstance,
    build_instance,
    generate_2d_arc_instance,
)
from .geometry import Vec
from .goldfarb import GoldfarbParams, facet_order


class InstanceFormatError(Exception):
    """The instance file does not parse or is internally inconsistent."""


HEADER_KEYS = {
    "goldfarb": ("kind", "d", "eps", "gamma", "L", "mu_bar", "q_min", "q_max"),
    "arc": ("kind", "d", "n_plus"),
}


def format_rational(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(token: str) -> Fraction:
    """The exact rational of a token such as `3/4`, `-2` or `0.8`.

    Exponent notation is refused. `Fraction` reads `1e-3000000` too, as a
    3000001-digit denominator, and a sweep of an instance with that
    coordinate runs for minutes. So are digit separators and non-ASCII
    characters: `Fraction` reads `1_000` from Python 3.11 on, and digits of
    any script (`١٢` is 12), so the same file would read differently.
    """
    if "e" in token or "E" in token:
        raise InstanceFormatError(f"bad rational token {token!r}: no exponent notation")
    return _read(Fraction, "rational", token)


def parse_integer(token: str) -> int:
    """The integer of a token such as `12` or `-3`; `int` also reads `0_3` and `٣` (3) as 3."""
    return _read(int, "integer", token)


def _read(kind, name: str, token: str):
    """kind(token) of an ASCII token without '_', else an InstanceFormatError naming the token."""
    if "_" in token or not token.isascii():
        raise InstanceFormatError(f"bad {name} token {token!r}: ASCII digits only, no '_'")
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"bad {name} token {token!r}") from exc


def serialize_instance(instance: SvmInstance) -> str:
    lines = ["# svmpath instance file"]
    if instance.params is not None:
        p, s, c = instance.params, instance.stretch, instance.calibration
        lines += [
            "kind goldfarb",
            f"d {p.dim}",
            f"eps {format_rational(p.eps)}",
            f"gamma {format_rational(p.gamma)}",
            f"L {format_rational(s.factor)}",
            f"mu_bar {format_rational(c.mu_bar)}",
            f"q_min {format_rational(c.q_min)}",
            f"q_max {format_rational(c.q_max)}",
        ]
    else:
        lines += [
            "kind arc",
            f"d {instance.dim}",
            f"n_plus {len(instance.plus_points)}",
        ]
    for pt in instance.plus_points:
        lines.append("+1 " + " ".join(format_rational(c) for c in pt))
    for pt in instance.minus_points:
        lines.append("-1 " + " ".join(format_rational(c) for c in pt))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> SvmInstance:
    header, header_lines = {}, {}
    plus_rows = []
    minus_rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in ("+1", "-1"):
            target = plus_rows if tokens[0] == "+1" else minus_rows
            target.append(Vec(parse_rational(t) for t in tokens[1:]))
        elif len(tokens) == 2:
            if tokens[0] in header:
                raise InstanceFormatError(f"line {lineno}: header key {tokens[0]!r} given twice")
            header[tokens[0]] = tokens[1]
            header_lines[tokens[0]] = lineno
        else:
            raise InstanceFormatError(f"line {lineno}: cannot parse {raw!r}")

    kind = header.get("kind", "goldfarb")
    if kind not in HEADER_KEYS:
        raise InstanceFormatError(f"unknown instance kind {kind!r}")
    for key, lineno in header_lines.items():
        if key not in HEADER_KEYS[kind]:
            raise InstanceFormatError(f"line {lineno}: unknown header key {key!r} for kind {kind}")
    if "d" not in header:
        raise InstanceFormatError("missing 'd' header")
    dim = parse_integer(header["d"])
    if dim < 1:
        raise InstanceFormatError(f"header d {header['d']}: need d >= 1")
    for row in plus_rows + minus_rows:
        if len(row) != dim:
            raise InstanceFormatError(f"point row has {len(row)} coordinates, expected {dim}")
    if len(minus_rows) != 2:
        raise InstanceFormatError(f"expected exactly 2 points labeled -1, got {len(minus_rows)}")

    if kind == "arc":
        count = len(plus_rows)
        if "n_plus" in header and parse_integer(header["n_plus"]) != count:
            raise InstanceFormatError(f"header n_plus {header['n_plus']} but {count} points labeled +1")
        return SvmInstance(
            plus_points=tuple(plus_rows),
            plus_labels=tuple(range(len(plus_rows))),
            minus_points=tuple(minus_rows),
        )

    try:
        params = GoldfarbParams(
            dim, parse_rational(header["eps"]), parse_rational(header["gamma"])
        )
        stretch_factor = StretchFactor(parse_rational(header["L"]))
        mu_bar = parse_rational(header["mu_bar"])
        q_min = parse_rational(header["q_min"])
        q_max = parse_rational(header["q_max"])
    except KeyError as exc:
        raise InstanceFormatError(f"missing header key {exc}") from exc
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    if len(plus_rows) != 2 * dim:
        raise InstanceFormatError(f"expected {2 * dim} points labeled +1, got {len(plus_rows)}")
    try:
        calibration = Calibration(mu_bar, q_min, q_max, minus_rows[0], minus_rows[1])
    except ValueError as exc:
        raise InstanceFormatError(f"inconsistent calibration header: {exc}") from exc
    return SvmInstance(
        plus_points=tuple(plus_rows),
        plus_labels=facet_order(dim),
        minus_points=tuple(minus_rows),
        params=params,
        stretch=stretch_factor,
        calibration=calibration,
    )


def write_instance(instance: SvmInstance, path) -> None:
    Path(path).write_text(serialize_instance(instance), encoding="utf-8")


def read_instance(path) -> SvmInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def regenerate(instance: SvmInstance) -> SvmInstance:
    """Rebuild the instance from its own header data (tamper detection)."""
    if instance.params is not None:
        return build_instance(instance.params, instance.stretch)
    return generate_2d_arc_instance(len(instance.plus_points))
