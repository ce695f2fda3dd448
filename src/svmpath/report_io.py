"""Sweep report emission (exact JSON, approximate CSV) and shadow figures.

JSON reports keep every rational exact as {"num": ..., "den": ...} string
pairs. The CSV export is a convenience view with decimal approximations and is
explicitly marked as such, carrying its precision in every row.

`sweep_report_json` is the one definition of a report's fields, and
`write_sweep_report` writes exactly the bytes of `json.dumps(doc, indent=2)`
and a newline. It lays the text out itself: with `indent` set, the standard
library encodes in pure Python, one generator per container, which took
most of the time of writing a 737-record report. A sweep's records hold few
distinct support sets, so both exports sort each set's labels once
(`_per_support`), records share the resulting label lists, and the writer
lays out each shared list once per indent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .goldfarb import GoldfarbParams, shadow_polygon
from .sweep import SweepReport


def rational_json(x) -> dict:
    if type(x) is not Fraction:
        x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _label_json(label):
    if isinstance(label, tuple):
        return list(label)
    return label


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


def _json_labels(support_plus, support_minus) -> tuple:
    return sorted((_label_json(l) for l in support_plus), key=str), sorted(support_minus)


def sweep_report_json(report: SweepReport, meta: dict | None = None) -> dict:
    """The report as a JSON document; records with one support set share its label lists."""
    records = [
        {
            "mu": rational_json(r.mu),
            "objective": rational_json(r.objective),
            "support_plus": plus,
            "support_minus": minus,
        }
        for r, (plus, minus) in zip(report.records, _per_support(report, _json_labels))
    ]
    doc = {
        "exact": True,
        "bend_count": report.bend_count,
        "distinct_support_sets": report.distinct_support_sets,
        "lower_bound": report.lower_bound,
        "records": records,
    }
    if meta:
        doc.update(meta)
    return doc


def _indented(value, indent: str, out: list, laid: dict) -> None:
    """Append `value` as `json.dumps(value, indent=2)` writes it at `indent`, a newline and spaces.

    Dict keys must be strings (a TypeError otherwise). Strings and ints, the
    bulk of a report, are written inline by json's C string escape and
    `int.__repr__`, other scalars by `json.dumps`. Lists and dicts have a
    loop each: one shared loop over (key, item) pairs is a third slower.
    Lists are laid out by `_list_text`, once per identity and indent.
    """
    if isinstance(value, (list, tuple)):
        out.append(_list_text(value, indent, laid))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        head = "{" + inner
        for key, item in value.items():
            head += encode_basestring_ascii(key) + ": "
            kind = type(item)
            if kind is str:
                out.append(head + encode_basestring_ascii(item))
            elif kind is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _indented(item, inner, out, laid)
            head = "," + inner
        out.append(indent + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))


def _list_text(value, indent: str, laid: dict) -> str:
    """A list or tuple as `_indented` lays it out at `indent`, built once per (id, indent).

    `laid` maps (id, indent) to the text, so the label lists that records
    share are laid out once. One `laid` serves one document, whose lists all
    stay alive while it is written, so no two of them share an id.
    """
    if not value:
        return "[]"
    key = (id(value), indent)
    text = laid.get(key)
    if text is None:
        part = []
        inner = indent + "  "
        head = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                part.append(head + encode_basestring_ascii(item))
            elif kind is int:
                part.append(head + int.__repr__(item))
            else:
                part.append(head)
                _indented(item, inner, part, laid)
            head = "," + inner
        part.append(indent + "]")
        text = laid[key] = "".join(part)
    return text


def write_sweep_report(report: SweepReport, path, meta: dict | None = None) -> None:
    """Write `json.dumps(sweep_report_json(report, meta), indent=2)` and a newline, byte for byte."""
    out = []
    _indented(sweep_report_json(report, meta), "\n", out, {})
    out.append("\n")
    Path(path).write_text("".join(out), encoding="utf-8")


def _approx(x: Fraction, precision: int) -> str:
    return format(x.numerator / x.denominator, f".{precision}g")


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


def shadow_svg(params: GoldfarbParams, size: int = 800, digits: int = 12) -> str:
    """SVG 1.1 drawing of the shadow polygon, vertex count in the title.

    Drawn from the integer hull ring, den times the projections: the drawing
    is fitted to the view box, so it is the same under any positive scale.
    Coordinates are rendered as decimals with `digits` significant digits;
    this is display only, the polygon itself is computed exactly.
    """
    ring = shadow_polygon(params)
    xs = [v[0] for v in ring]
    ys = [v[1] for v in ring]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y)
    margin = Fraction(1, 20)
    scale = Fraction(size) / (span * (1 + 2 * margin))

    def fmt(x: Fraction) -> str:
        return format(x.numerator / x.denominator, f".{digits}g")

    pts = []
    for v in ring:
        sx = (v[0] - lo_x + span * margin) * scale
        sy = (hi_y - v[1] + span * margin) * scale  # flip: SVG y grows downward
        pts.append(f"{fmt(sx)},{fmt(sy)}")
    title = f"shadow polygon, d={params.dim}: {len(ring)} vertices"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f"  <title>{title}</title>\n"
        f'  <polygon points="{" ".join(pts)}" '
        f'fill="none" stroke="black" stroke-width="1"/>\n'
        f"</svg>\n"
    )


def write_shadow_svg(params: GoldfarbParams, path, **kwargs) -> None:
    Path(path).write_text(shadow_svg(params, **kwargs), encoding="utf-8")
