"""Sweep report emission (exact JSON, approximate CSV) and shadow figures.

JSON reports keep every rational exact as {"num": ..., "den": ...} string
pairs. The CSV export is a convenience view with decimal approximations and is
explicitly marked as such, carrying its precision in every row.

`write_sweep_report` writes exactly the bytes of `json.dumps(doc, indent=2)`
and a newline, for a document of fixed shape. With `indent` set, the
standard library encodes in pure Python, one generator per container, which
took most of the time of writing a 737-record report. So each record is one
`%`-template with its rationals' numerators and denominators, and each
label list is laid out by a template too (`_laid_out`), with its strings
through the C string encoder of `json.encoder`. Only the other top-level
values, and a label of any other type, go through `json.dumps`, indented
deeper by adding spaces after each newline: `json.dumps` escapes a newline
in a string, so each newline it writes is layout. A sweep's records hold few
distinct support sets, so both exports sort and lay out each set's labels
once (`_per_support`): a record costs one template fill.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import TYPE_CHECKING

from .goldfarb import GoldfarbParams, shadow_polygon

_FLOAT_MIN = sys.float_info.min  # the least positive normal float

if TYPE_CHECKING:  # annotations only, so shadow-svg loads neither sweep nor qp
    from .sweep import SweepReport


def _label_json(label):
    return list(label) if isinstance(label, tuple) else label


def _per_support(report: SweepReport, layout) -> list:
    """`layout(support_plus, support_minus)` for each record, computed once per distinct support.

    Records hold few distinct support sets (32 among the 737 of the `d = 6`
    sweep at the CLI defaults), so each set's labels are sorted once, and
    records with one support share what `layout` made of it.
    """
    done, out = {}, []
    for r in report.records:
        support = r.support_plus, r.support_minus
        made = done.get(support)
        if made is None:
            made = done[support] = layout(*support)
        out.append(made)
    return out


def _dumped(value, depth: int) -> str:
    """`value` as `json.dumps(..., indent=2)` writes it `depth` levels deep in a document."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _laid_out(value, depth: int) -> str:
    """A label or a list of them as `_dumped` writes it, by template for ints, strings and lists.

    A list's items stand one level deeper, each on its own line, and its
    closing bracket on a line at its own depth; an empty one is `[]`. A
    string goes through the encoder `json.dumps` uses, and anything else
    (a bool, a float) through `_dumped`.
    """
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return _encode_str(value)
    if kind is not list and kind is not tuple:
        return _dumped(value, depth)
    if not value:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    items = ("," + inner).join([_laid_out(v, depth + 1) for v in value])
    return "[" + inner + items + "\n" + "  " * depth + "]"


def _json_labels(support_plus, support_minus) -> tuple:
    """Both label lists of a support, sorted and laid out at a record's depth."""
    plus = sorted((_label_json(l) for l in support_plus), key=str)
    return _laid_out(plus, 3), _laid_out(sorted(support_minus), 3)


_RECORD = """
    {
      "mu": {
        "num": "%d",
        "den": "%d"
      },
      "objective": {
        "num": "%d",
        "den": "%d"
      },
      "support_plus": %s,
      "support_minus": %s
    }"""

_RECORDS = object()  # stands for the records list among the document's values


def _records_text(report: SweepReport) -> str:
    records = ",".join(
        _RECORD % (r.mu.numerator, r.mu.denominator,
                   r.objective.numerator, r.objective.denominator, plus, minus)
        for r, (plus, minus) in zip(report.records, _per_support(report, _json_labels))
    )
    return "[" + records + "\n  ]" if records else "[]"


def write_sweep_report(report: SweepReport, path, meta: dict | None = None) -> None:
    """Write the report's document as `json.dumps(doc, indent=2)` does, and a newline.

    The document holds `exact`, the three counts and the records, updated by
    `meta` as `dict.update` does: a meta key that names one of them replaces
    its value in place. Keys must be strings (a TypeError otherwise), where
    `json.dumps` would write an int key as a string.
    """
    doc = {
        "exact": True,
        "bend_count": report.bend_count,
        "distinct_support_sets": report.distinct_support_sets,
        "lower_bound": report.lower_bound,
        "records": _RECORDS,
    }
    if meta:
        doc.update(meta)
    items = []
    for key, value in doc.items():
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        text = _records_text(report) if value is _RECORDS else _dumped(value, 1)
        items.append(json.dumps(key) + ": " + text)
    Path(path).write_text("{\n  " + ",\n  ".join(items) + "\n}\n", encoding="utf-8")


def _approx(x: Fraction, precision: int) -> str:
    """x as `format`'s 'g' writes its float; outside float's normal range, in decimal, to at most 17 digits.

    A nonzero x whose float would overflow, or would be 0 or subnormal and so
    keep fewer digits than a normal float, is rounded in `decimal` instead,
    from floor(|x| 10^k) of prec + 2 or more digits and a sticky digit for its
    remainder, which round as the exact quotient does, with no full-width division.
    """
    try:
        f = x.numerator / x.denominator
    except OverflowError:
        f = None
    if f is not None and (not x or abs(f) >= _FLOAT_MIN):
        return format(f, f".{precision}g")
    # rounded half to even, to no more digits than tell two floats apart
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
    context = Context(prec=max(1, min(precision, 17)), Emax=MAX_EMAX, Emin=MIN_EMIN)
    n, d = abs(x.numerator), x.denominator
    # |x| > 2^(e - 1), e the bit lengths' difference, and 10^k is 5^k shifted
    k = context.prec + 3 - int((n.bit_length() - d.bit_length() - 1) * 0.30103)
    q, r = divmod(n * 5**k << k, d) if k >= 0 else divmod(n, d * 5**-k << -k)
    digits = (10 * q + (r > 0)) * (-1 if x.numerator < 0 else 1)
    return format(Decimal(digits).scaleb(-k - 1, context).normalize(context), "e")


def _csv_labels(support_plus, support_minus) -> str:
    # str of the JSON form is the JSON export's sort key, so both list a support alike
    plus = " ".join(sorted(str(_label_json(l)) for l in support_plus)).replace(",", ";")
    return f"{plus},{' '.join(sorted(support_minus))}"


def sweep_report_csv(report: SweepReport, precision: int = 12) -> str:
    """Decimal view of a sweep report; values are approximate by construction."""
    lines = [
        "# approximate decimal export; exact values live in the JSON report",
        "mu,objective,support_plus,support_minus,precision",
    ]
    for r, labels in zip(report.records, _per_support(report, _csv_labels)):
        lines.append(
            f"{_approx(r.mu, precision)},{_approx(r.objective, precision)},{labels},{precision}"
        )
    return "\n".join(lines) + "\n"


SVG_SIZE, SVG_DIGITS = 800, 12  # side of the view box, significant digits of a coordinate


def shadow_svg(params: GoldfarbParams) -> str:
    """SVG 1.1 drawing of the shadow polygon, vertex count in the title.

    Drawn from the Gray-code shadow ring, den times the projections: the drawing
    is fitted to the view box, so it is the same under any positive scale.
    Coordinates are rendered as decimals with SVG_DIGITS significant digits;
    this is display only, the polygon itself is computed exactly.
    """
    ring = shadow_polygon(params)
    xs = [v[0] for v in ring]
    ys = [v[1] for v in ring]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y)
    margin = Fraction(1, 20)
    scale = Fraction(SVG_SIZE) / (span * (1 + 2 * margin))
    pts = []
    for v in ring:
        sx = (v[0] - lo_x + span * margin) * scale
        sy = (hi_y - v[1] + span * margin) * scale  # flip: SVG y grows downward
        pts.append(f"{_approx(sx, SVG_DIGITS)},{_approx(sy, SVG_DIGITS)}")
    title = f"shadow polygon, d={params.dim}: {len(ring)} vertices"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f"  <title>{title}</title>\n"
        f'  <polygon points="{" ".join(pts)}" '
        f'fill="none" stroke="black" stroke-width="1"/>\n'
        f"</svg>\n"
    )


def write_shadow_svg(params: GoldfarbParams, path) -> None:
    Path(path).write_text(shadow_svg(params), encoding="utf-8")
