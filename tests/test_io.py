import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from conftest import DEFAULT_STRETCH, default_params
from oracles import rational_from_json, sweep_report_json
from svmpath.cli import main
from svmpath.construct import build_instance, generate_2d_arc_instance
from svmpath.goldfarb import GoldfarbParams
from svmpath.instance_io import (
    InstanceFormatError,
    format_rational,
    parse_instance,
    parse_integer,
    parse_rational,
    rational_json,
    read_instance,
    regenerate,
    serialize_instance,
    write_instance,
)
from svmpath.kkt import OptimalPair
from svmpath.report_io import (
    _approx,
    shadow_svg,
    sweep_report_csv,
    write_sweep_report,
)
from svmpath.sweep import SweepRecord, SweepReport, sweep_grid, sweep_refined


# a digit separator, and 12 in Arabic-Indic digits
NOT_ASCII_DIGITS = ["1_000", "\u0661\u0662"]


class TestRationalTokens:
    @pytest.mark.parametrize("x", [F(0), F(1), F(-3, 7), F(20000), F(10**40, 3)])
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_format_always_carries_denominator(self):
        assert format_rational(F(20000)) == "20000/1"

    def test_bad_token_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_rational("3/0")
        with pytest.raises(InstanceFormatError):
            parse_rational("abc")

    @pytest.mark.parametrize("token", ["1e-3000000", "1E5", "-2.5e3", "1e0"])
    def test_exponent_notation_refused(self, token):
        # Fraction accepts each of them, the first as a 3000001-digit denominator
        with pytest.raises(InstanceFormatError, match=f"bad rational token '{token}': no exponent"):
            parse_rational(token)

    def test_decimals_still_read(self):
        assert parse_rational("0.8") == F(4, 5) and parse_rational("-2") == -2
        assert parse_rational("3/4") == F(3, 4) and parse_rational(".5") == F(1, 2)

    @pytest.mark.parametrize("token", NOT_ASCII_DIGITS)
    def test_separators_and_other_digits_refused(self, token):
        # Fraction reads "1_000" as 1000 from Python 3.11 on, and any script's digits
        with pytest.raises(InstanceFormatError, match=f"bad rational token '{token}': ASCII digits only"):
            parse_rational(token)

    @pytest.mark.parametrize("token", NOT_ASCII_DIGITS)
    def test_refused_in_a_file_and_as_a_flag(self, tmp_path, capsys, instance3, token):
        lines = serialize_instance(instance3).splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("+1 "))
        tokens = lines[row].split()
        tokens[1] = token
        lines[row] = " ".join(tokens)
        with pytest.raises(InstanceFormatError, match=f"bad rational token '{token}'"):
            parse_instance("\n".join(lines))
        out = tmp_path / "d3.inst"
        assert main(["gen", "--d", "3", "--eps", token, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"--eps: bad rational token '{token}': ASCII digits only" in captured.err
        assert not out.exists()


class TestIntegerTokens:
    """The header d and the integer flags read ASCII digits only, as rational tokens do."""

    # 3 with a digit separator, and 3 in Arabic-Indic digits: int() reads both
    TOKENS = ["0_3", "\u0663"]

    def test_ascii_integers_read(self):
        assert parse_integer("12") == 12 and parse_integer("-3") == -3
        with pytest.raises(InstanceFormatError, match="bad integer token '3/4'"):
            parse_integer("3/4")

    @staticmethod
    def refused(argv, capsys, token) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"bad integer token '{token}': ASCII digits only" in captured.err
        return captured.err

    @pytest.mark.parametrize("token", TOKENS)
    def test_header_d_refused(self, tmp_path, capsys, instance3, token):
        text = serialize_instance(instance3)
        assert "\nd 3\n" in text
        path = tmp_path / "d3.inst"
        path.write_text(text.replace("\nd 3\n", f"\nd {token}\n"), encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=f"bad integer token '{token}'"):
            read_instance(path)
        self.refused(["verify", str(path)], capsys, token)

    @pytest.mark.parametrize("token", TOKENS)
    def test_gen_dim_refused(self, tmp_path, capsys, token):
        out = tmp_path / "d3.inst"
        assert "--d: " in self.refused(["gen", "--d", token, "--out", str(out)], capsys, token)
        assert not out.exists()
        assert main(["gen", "--d", "3", "--out", str(out)]) == 0
        assert read_instance(out).params.dim == 3

    @pytest.mark.parametrize("flag", ["--steps", "--refine", "--precision"])
    def test_sweep_counts_refused(self, tmp_path, capsys, instance3, flag):
        inst, report = tmp_path / "d3.inst", tmp_path / "r.json"
        write_instance(instance3, inst)
        argv = ["sweep", str(inst), flag, "5_12", "--out", str(report)]
        assert f"{flag}: " in self.refused(argv, capsys, "5_12")
        assert not report.exists()

    @pytest.mark.parametrize("command, flag", [("gen-arc", "--n-plus"), ("shadow-svg", "--d")])
    def test_other_flags_refused(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        assert f"{flag}: " in self.refused([command, flag, "\u0668", "--out", str(out)], capsys, "\u0668")
        assert not out.exists()


class TestInstanceFiles:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_constructed_round_trip_bit_exact(self, d):
        instance = build_instance(default_params(d), DEFAULT_STRETCH)
        assert parse_instance(serialize_instance(instance)) == instance

    def test_arc_round_trip_bit_exact(self):
        instance = generate_2d_arc_instance(20)
        assert parse_instance(serialize_instance(instance)) == instance

    def test_file_round_trip(self, tmp_path, instance3):
        path = tmp_path / "inst.txt"
        write_instance(instance3, path)
        assert read_instance(path) == instance3

    def test_comments_and_blank_lines_ignored(self, instance3):
        text = serialize_instance(instance3)
        noisy = "# leading comment\n\n" + text.replace("\nd ", "\n# note\nd ", 1)
        assert parse_instance(noisy) == instance3

    def test_regenerate_matches(self, instance3):
        assert regenerate(instance3) == instance3

    def test_tampered_coordinate_detected_by_regenerate(self, instance3):
        text = serialize_instance(instance3)
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("+1 "))
        tokens = lines[idx].split()
        tokens[1] = format_rational(parse_rational(tokens[1]) + F(1, 977))
        lines[idx] = " ".join(tokens)
        tampered = parse_instance("\n".join(lines))
        assert regenerate(tampered) != tampered

    def test_wrong_row_count_rejected(self, instance3):
        text = serialize_instance(instance3)
        lines = [l for l in text.splitlines() if not l.startswith("+1")][:-2]
        with pytest.raises(InstanceFormatError):
            parse_instance("\n".join(lines))

    def test_arc_n_plus_header_checked(self):
        text = serialize_instance(generate_2d_arc_instance(6))
        assert "n_plus 6" in text
        with pytest.raises(InstanceFormatError, match="n_plus 7 but 6 points"):
            parse_instance(text.replace("n_plus 6", "n_plus 7"))
        with pytest.raises(InstanceFormatError, match="bad integer token 'six'"):
            parse_instance(text.replace("n_plus 6", "n_plus six"))
        # the header is optional in a hand-written file
        assert parse_instance(text.replace("n_plus 6\n", "")) == generate_2d_arc_instance(6)

    def test_arc_n_plus_read_as_an_integer(self):
        # as the header d is: a leading zero reads, a separator does not
        text = serialize_instance(generate_2d_arc_instance(8))
        assert "\nd 2\n" in text and "\nn_plus 8\n" in text
        padded = text.replace("\nd 2\n", "\nd 02\n").replace("\nn_plus 8\n", "\nn_plus 08\n")
        assert parse_instance(padded) == generate_2d_arc_instance(8)
        with pytest.raises(InstanceFormatError, match="bad integer token '0_8'"):
            parse_instance(text.replace("\nn_plus 8\n", "\nn_plus 0_8\n"))

    @staticmethod
    def refused(tmp_path, capsys, text, message):
        """The file of `text` is refused by `parse_instance` and by `sweep` with exit 2."""
        with pytest.raises(InstanceFormatError, match=message):
            parse_instance(text)
        path, out = tmp_path / "bad.inst", tmp_path / "r.json"
        path.write_text(text, encoding="utf-8")
        assert main(["sweep", str(path), "--steps", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and re.search(message, captured.err)
        assert not out.exists()

    def test_mislabelled_arc_row_refused(self, tmp_path, capsys):
        # a d = 1 row labelled 1 for +1 has two tokens, as a header line has;
        # read as a header, the sweep would run on the other two plus points
        text = "kind arc\nd 1\n+1 3\n+1 5\n1 7\n-1 0\n-1 -1\n"
        self.refused(tmp_path, capsys, text, "line 5: unknown header key '1' for kind arc")

    @pytest.mark.parametrize("kind", ["goldfarb", "arc"])
    def test_unknown_header_key_refused(self, tmp_path, capsys, instance3, kind):
        instance = instance3 if kind == "goldfarb" else generate_2d_arc_instance(6)
        lines = serialize_instance(instance).splitlines()
        lines.insert(3, "mu_lo 3/4")
        message = rf"line 4: unknown header key 'mu_lo' for kind {kind}"
        self.refused(tmp_path, capsys, "\n".join(lines) + "\n", message)

    def test_other_kinds_keys_refused(self):
        # each kind's keys are the only ones it reads
        arc = serialize_instance(generate_2d_arc_instance(6))
        with pytest.raises(InstanceFormatError, match="unknown header key 'eps' for kind arc"):
            parse_instance(arc.replace("\nd 2\n", "\nd 2\neps 1/3\n"))
        goldfarb = serialize_instance(build_instance(default_params(3), DEFAULT_STRETCH))
        with pytest.raises(InstanceFormatError, match="unknown header key 'n_plus' for kind goldfarb"):
            parse_instance(goldfarb.replace("\nd 3\n", "\nd 3\nn_plus 6\n"))

    @pytest.mark.parametrize("key, value", [("d", "3"), ("eps", "1/3"), ("kind", "goldfarb")])
    def test_repeated_header_key_refused(self, tmp_path, capsys, instance3, key, value):
        lines = serialize_instance(instance3).splitlines()
        first = next(i for i, line in enumerate(lines) if line.split()[0] == key)
        lines.insert(first + 1, f"{key} {value}")
        message = rf"line {first + 2}: header key '{key}' given twice"
        self.refused(tmp_path, capsys, "\n".join(lines) + "\n", message)

    def test_missing_header_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("kind goldfarb\n+1 1/1\n-1 1/1\n-1 2/1\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("kind mystery\nd 1\n+1 1/1\n-1 1/1\n-1 2/1\n")


@pytest.fixture(scope="module")
def report():
    return sweep_grid(generate_2d_arc_instance(8), F(3, 4), F(1), 5)


class TestSweepReports:

    def test_json_rationals_exact(self, tmp_path, report):
        write_sweep_report(report, tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["exact"] is True
        for rec, rec_doc in zip(report.records, doc["records"]):
            assert rational_from_json(rec_doc["mu"]) == rec.mu
            assert rational_from_json(rec_doc["objective"]) == rec.objective

    def test_json_counts(self, tmp_path, report):
        write_sweep_report(report, tmp_path / "r.json", meta={"steps": 5})
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["bend_count"] == report.bend_count
        assert doc["steps"] == 5

    def test_csv_marked_approximate_with_precision(self, report):
        csv = sweep_report_csv(report, precision=9)
        lines = csv.splitlines()
        assert lines[0].startswith("# approximate")
        assert lines[1].split(",")[-1] == "precision"
        assert all(line.split(",")[-1] == "9" for line in lines[2:])

    @pytest.mark.parametrize("precision", [0, 1, 2, 12, 17, 30])
    def test_value_beyond_float_range_rounds_as_format_does(self, precision):
        # f 10^400 has the float f's decimal digits, its exponent 400 higher, and keeps
        # at most 17 of them; from 1e17 up, `format`'s 'g' writes f in exponent notation
        for f in (1e17, -2.5e17, 2.5e18, 3.5e18, 1e20 / 3, 1e23, 1.23456789125e208, -6.02214076e23):
            mantissa, exponent = format(f, f".{min(precision, 17)}g").split("e")
            assert _approx(F(f) * 10 ** 400, precision) == f"{mantissa}e+{int(exponent) + 400}"

    def test_rational_json_strings(self):
        doc = rational_json(F(-5, 7))
        assert doc == {"num": "-5", "den": "7"}


def _pair(objective: F) -> OptimalPair:
    return OptimalPair((F(1),), (F(1, 2), F(1, 2)), objective)


def _empty_support_report():
    records = (
        SweepRecord(F(1), frozenset(), frozenset({"left"}), _pair(F(0))),
        SweepRecord(F(3, 4), frozenset({(1, -1)}), frozenset(), _pair(F(-1, 3))),
    )
    return SweepReport(records, 1, 2, 0)


def _equal_support_report():
    # equal supports held by distinct frozensets, and a record with no label at all
    supports = [
        (frozenset({(1, -1), (2, 1)}), frozenset({"left", "right"})),
        (frozenset({(2, 1), (1, -1)}), frozenset({"right", "left"})),
        (frozenset(), frozenset()),
        (frozenset({(2, 1), (1, -1)}), frozenset({"left", "right"})),
    ]
    records = tuple(
        SweepRecord(F(4 - k, 4), plus, minus, _pair(F(-k, 3))) for k, (plus, minus) in enumerate(supports)
    )
    return SweepReport(records, 2, 2, 0)


# one list object at several depths of a document
SHARED = [[1, -1], "x", {"k": [2]}]


class TestReportWriter:
    """write_sweep_report writes json.dumps(oracles.sweep_report_json(...), indent=2) byte for byte."""

    REPORTS = {
        "arc_int_labels": lambda: sweep_grid(generate_2d_arc_instance(8), F(3, 4), F(1), 5),
        "tuple_labels": lambda: sweep_refined(
            build_instance(default_params(3), DEFAULT_STRETCH), F(9, 10), F(1), 24, 3
        ),
        "empty_support": _empty_support_report,
        "equal_supports": _equal_support_report,
        "no_records": lambda: SweepReport((), 0, 0, 0),
    }
    METAS = {
        "none": None,
        "empty": {},
        # scripts/run_experiments.py
        "experiments": {"d": 3, "steps": 24},
        # the CLI's, with a path that needs escaping
        "cli": {
            "instance": 'runs/d\u00e9 "3",[x].inst',
            "mu_lo": rational_json(F(9, 10)),
            "mu_hi": rational_json(F(1)),
            "steps": 24,
            "refine_depth": 3,
        },
        "other_values": {"ratio": 0.5, "flag": True, "none": None, "list": [], "nested": [[{}]]},
        "lists_and_dicts": {
            "shared": SHARED,
            "nested": {"again": SHARED, "deeper": [SHARED, {"x": SHARED}], "empty": {}},
            "pairs": [{"num": "1", "den": "2"}, ["a", 3, []]],
        },
        # the records list replaced: laid out as any other list
        "records_replaced": {"records": [SHARED, {"support_plus": SHARED}, [[1, -1]]]},
        "records_emptied": {"records": []},
        # a count replaced keeps its place ahead of the records, as dict.update does
        "bend_count_replaced": {"bend_count": "unset", "tail": 1},
    }

    @pytest.mark.parametrize("meta", list(METAS), ids=list(METAS))
    @pytest.mark.parametrize("kind", list(REPORTS), ids=list(REPORTS))
    def test_text_equals_json_dumps(self, tmp_path, kind, meta):
        report, meta = self.REPORTS[kind](), self.METAS[meta]
        path = tmp_path / "r.json"
        write_sweep_report(report, path, meta)
        expected = json.dumps(sweep_report_json(report, meta), indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_csv_and_json_share_one_label_order(self, tmp_path):
        # labels (1, 2) and (1, 23) sort one way as tuples and the other as
        # lists, by str: both exports sort by str of the list form
        pair = _empty_support_report().records[0].pair
        support = frozenset({(1, 2), (1, 23)})
        records = tuple(SweepRecord(F(k, 2), support, frozenset({"left"}), pair) for k in (2, 1))
        report = SweepReport(records, 0, 1, 0)
        rows = sweep_report_csv(report).splitlines()[2:]
        assert [row.split(",")[2] for row in rows] == ["[1; 23] [1; 2]"] * 2
        write_sweep_report(report, tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert [r["support_plus"] for r in doc["records"]] == [[[1, 23], [1, 2]]] * 2

    def test_non_string_key_refused(self, tmp_path, report):
        # json.dumps would write the key 1 as "1"; the writer refuses it
        # rather than write other bytes
        with pytest.raises(TypeError):
            write_sweep_report(report, tmp_path / "r.json", {1: "int key"})


class TestShadowSvg:
    @pytest.mark.parametrize("d,count", [(2, 4), (3, 8), (8, 256)])
    def test_vertex_count_in_polygon_and_title(self, d, count):
        svg = shadow_svg(GoldfarbParams(d))
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        title = root.find(f"{ns}title").text
        assert f"{count} vertices" in title
        polygon = root.find(f"{ns}polygon")
        assert len(polygon.attrib["points"].split()) == count

    def test_coordinates_are_decimal_display(self):
        # the exact corners 400/11 and 8400/11 on an 800 view box, cut to 12 digits
        root = ET.fromstring(shadow_svg(GoldfarbParams(2)))
        assert root.attrib["viewBox"] == "0 0 800 800"
        points = root.find("{http://www.w3.org/2000/svg}polygon").attrib["points"]
        assert "/" not in points
        assert points == (
            "36.3636363636,763.636363636 763.636363636,521.212121212 "
            "763.636363636,278.787878788 36.3636363636,36.3636363636"
        )
