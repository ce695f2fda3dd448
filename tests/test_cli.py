import hashlib
import json
from fractions import Fraction as F

import pytest

from conftest import fresh_cli, fresh_python
from svmpath import cli, construct, goldfarb, kkt, qp, report_io, sweep
from svmpath.cli import main
from svmpath.construct import (
    Calibration,
    CalibrationError,
    StretchFactor,
    StrictnessError,
    SvmInstance,
    line_point,
)
from svmpath.geometry import Vec, VerificationFailure
from svmpath.goldfarb import GoldfarbParams, ShadowPropertyError, facet_order
from svmpath.instance_io import (
    InstanceFormatError,
    format_rational,
    parse_rational,
    read_instance,
    serialize_instance,
    write_instance,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_failure(result, *names):
    """Exit 1 with a single stderr line that mentions every name given."""
    code, _, stderr = result
    assert code == 1
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    for name in names:
        assert name in stderr, (name, stderr)


class TestGen:
    def test_writes_instance_and_summary(self, tmp_path, capsys):
        out = tmp_path / "d3.inst"
        code, stdout, _ = run(["gen", "--d", "3", "--out", str(out)], capsys)
        assert code == 0
        assert "n=8" in stdout and "2 breakpoints" in stdout and "mu_bar=" in stdout
        instance = read_instance(out)
        assert instance.n_points == 8

    def test_gen_parse_round_trip(self, tmp_path, capsys):
        out = tmp_path / "d4.inst"
        assert run(["gen", "--d", "4", "--out", str(out)], capsys)[0] == 0
        instance = read_instance(out)
        assert serialize_instance(instance) == out.read_text()

    def test_d2_accepted_with_warning(self, tmp_path, capsys):
        out = tmp_path / "d2.inst"
        code, _, stderr = run(["gen", "--d", "2", "--out", str(out)], capsys)
        assert code == 0
        assert "warning" in stderr.lower()
        assert read_instance(out).n_points == 6

    def test_bad_parameters_report_violated_inequality(self, tmp_path, capsys):
        code, _, stderr = run(
            ["gen", "--d", "4", "--gamma", "1/12", "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "4*gamma < eps" in stderr

    def test_auto_stretch(self, tmp_path, capsys):
        out = tmp_path / "auto.inst"
        code, _, _ = run(["gen", "--d", "3", "--stretch", "auto", "--out", str(out)], capsys)
        assert code == 0
        assert read_instance(out).stretch.factor == 20000


class TestGenRefuses:
    # gen certifies the construction at the requested stretch or writes nothing
    def test_default_stretch_too_small_at_d9(self, tmp_path, capsys):
        out = tmp_path / "d9.inst"
        result = run(["gen", "--d", "9", "--out", str(out)], capsys)
        assert_one_line_failure(result, "facet strictness fails for sigma=", "L=20000")
        assert not out.exists()

    def test_unit_stretch(self, tmp_path, capsys):
        out = tmp_path / "d5.inst"
        result = run(["gen", "--d", "5", "--stretch", "1", "--out", str(out)], capsys)
        assert_one_line_failure(result, "sigma=", "L=1")
        assert not out.exists()

    def test_unit_stretch_without_the_solver_loaded(self, tmp_path):
        # main catches the one base class, so a process that never imported
        # qp or sweep reports the failure in one line, not a NameError
        out = tmp_path / "d5.inst"
        proc = fresh_cli("gen", "--d", "5", "--stretch", "1", "--out", str(out), loaded=["svmpath.qp"])
        assert proc.returncode == 1
        assert proc.stderr == (
            "verification failure: facet strictness fails for sigma=(-1, -1, -1, 1, 1) at L=1\n"
        )
        assert proc.stdout == "[]\n"
        assert not out.exists()

    def test_shadow_property_failure(self, tmp_path, capsys, monkeypatch):
        # a forged ring pass whose support of the first sigma has scale 0,
        # so the origin would not lie inside the shadow
        params = GoldfarbParams(3, F(3, 10), F(1, 21))
        den, supports = goldfarb._shadow_data(params)
        forged = {**supports, (-1, 1, 1): supports[-1, 1, 1][:2] + (0,)}
        monkeypatch.setattr(goldfarb, "_shadow_data", lambda params: (den, forged))
        out = tmp_path / "d3.inst"
        # parameters no other test uses, so no cached construction hides the failure
        result = run(
            ["gen", "--d", "3", "--eps", "3/10", "--gamma", "1/21", "--out", str(out)], capsys
        )
        assert_one_line_failure(result, "support scale must be positive", "sigma=(-1, 1, 1)")
        assert not out.exists()

    def test_calibration_failure(self, tmp_path, capsys, monkeypatch):
        # every sigma reads the first one's integers, so the calibration pass
        # finds all q positions equal
        unstretched = construct._unstretched_pair
        monkeypatch.setattr(
            construct, "_unstretched_pair", lambda params, sigma: unstretched(params, (-1, -1, 1, 1))
        )
        out = tmp_path / "d4.inst"
        result = run(["gen", "--d", "4", "--out", str(out)], capsys)
        assert_one_line_failure(result, "verification failure", "all q positions coincide")
        assert not out.exists()

    def test_no_stretch_factor_passes(self, tmp_path, capsys, monkeypatch):
        # one weight of one sigma made nonpositive at t = 1/L^2 = 0, so every
        # large stretch factor fails and `auto` has none to choose
        unstretched = construct._unstretched_pair

        def forced(params, sigma):
            *rest, (U, W, top) = unstretched(params, sigma)
            return (*rest, ((0,) + U[1:] if sigma == (1, -1, 1, 1) else U, W, top))

        monkeypatch.setattr(construct, "_unstretched_pair", forced)
        out = tmp_path / "d4.inst"
        result = run(["gen", "--d", "4", "--stretch", "auto", "--out", str(out)], capsys)
        assert_one_line_failure(result, "verification failure", "sigma=(1, -1, 1, 1)", "every large L")
        assert not out.exists()


class TestVerify:
    def test_fresh_instance_passes(self, tmp_path, capsys):
        out = tmp_path / "d4.inst"
        run(["gen", "--d", "4", "--out", str(out)], capsys)
        code, stdout, _ = run(["verify", str(out)], capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["ok"] is True
        assert doc["certificates"] == 4
        assert len(doc["sigmas"]) == 4

    @pytest.mark.parametrize("d", [2, 4, 7, 9])
    def test_joined_summaries_are_the_json_document(self, tmp_path, capsys, d):
        # each sigma's summary is one template filled with its JSON values; the
        # joined texts are byte for byte what json.dumps writes for the whole
        # document, with numerators of up to 47 digits at d = 9
        out = tmp_path / "d.inst"
        run(["gen", "--d", str(d), "--stretch", "auto", "--out", str(out)], capsys)
        code, stdout, _ = run(["verify", str(out)], capsys)
        assert code == 0
        assert stdout == json.dumps(json.loads(stdout)) + "\n"
        assert json.loads(stdout)["certificates"] == 2 ** d // 4

    def test_summary_template_writes_negative_rationals(self, tmp_path, capsys, monkeypatch):
        # no constructed instance has a negative mu, multiplier or weight, so
        # one forged certificate puts a sign before each of the template's numbers
        out = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(out)], capsys)
        pair = kkt.OptimalPair((), (), F(-7, 3))
        forged = kkt.KktCertificate((-1, 1, -1), F(-2, 5), pair, F(-123456789012345678901, 2))
        monkeypatch.setattr(kkt, "certify_construction", lambda instance: iter([(forged, ((-9, -4), 6))]))
        code, stdout, _ = run(["verify", str(out)], capsys)
        assert code == 0
        assert stdout == json.dumps(json.loads(stdout)) + "\n"
        assert json.loads(stdout)["sigmas"] == [{
            "sigma": "-+-",
            "mu": {"num": "-2", "den": "5"},
            "facet_multiplier": {"num": "-123456789012345678901", "den": "2"},
            "objective": {"num": "-7", "den": "3"},
            "support": [[1, -1], [2, 1], [3, -1]],
            "max_weight": {"num": "-2", "den": "3"},
        }]

    def test_streams_without_the_constructions(self, tmp_path, capsys):
        # each sigma is certified from its integer weights and dropped: the
        # cached tuple of every pair and decomposition is never built
        out = tmp_path / "d4.inst"
        run(["gen", "--d", "4", "--out", str(out)], capsys)
        construct.admissible_constructions.cache_clear()
        code, stdout, _ = run(["verify", str(out)], capsys)
        assert code == 0 and json.loads(stdout)["certificates"] == 4
        assert construct.admissible_constructions.cache_info().currsize == 0

    def test_tampered_coordinate_fails(self, tmp_path, capsys):
        out = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(out)], capsys)
        lines = out.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("+1 "))
        tokens = lines[idx].split()
        tokens[2] = format_rational(parse_rational(tokens[2]) + F(1, 991))
        lines[idx] = " ".join(tokens)
        out.write_text("\n".join(lines) + "\n")
        code, stdout, _ = run(["verify", str(out)], capsys)
        assert code == 1
        assert json.loads(stdout) == {"ok": False, "error": "instance differs from its header parameters"}
        assert stdout == json.dumps(json.loads(stdout)) + "\n"

    def test_header_stretch_too_small(self, tmp_path, capsys):
        out = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(out)], capsys)
        text = out.read_text()
        assert "\nL 20000/1\n" in text
        out.write_text(text.replace("\nL 20000/1\n", "\nL 1/1\n"))
        assert_one_line_failure(run(["verify", str(out)], capsys), "sigma=", "L=1")

    def test_uniqueness_failure_names_sigma_and_mu(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(out)], capsys)
        # the support point (2, +1) moved onto the x_1 axis, beside (1, -1):
        # dependent free points leave the working set without a piece. The
        # file is certified as it stands, not as its header regenerates it
        lines = out.read_text().splitlines()
        idx = [i for i, line in enumerate(lines) if line.startswith("+1 ")][facet_order(3).index((2, 1))]
        assert lines[idx] == "+1 10000/1 3/2 0/1"
        lines[idx] = "+1 10000/1 0/1 0/1"
        out.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "regenerate", lambda instance: instance)
        code, stdout, _ = run(["verify", str(out)], capsys)
        assert code == 1
        doc = json.loads(stdout)
        assert doc["ok"] is False
        assert "no piece on the working set of sigma=(-1, 1, 1) at mu=1" == doc["error"]
        assert stdout == json.dumps(doc) + "\n"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, stderr = run(["verify", str(tmp_path / "nope.inst")], capsys)
        assert code == 2
        assert "input error" in stderr

    def test_arc_instance_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "6", "--out", str(out)], capsys)
        code, _, _ = run(["verify", str(out)], capsys)
        assert code == 2


def refuse_construction(monkeypatch) -> None:
    """Make building, regenerating or certifying any constructed instance fail the test.

    These are the names `gen` and `verify` call: the command line's, and
    `kkt`'s one pass over the sigmas, which `verify` imports when it runs.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("the construction ran")

    for name in ("build_instance", "choose_stretch", "regenerate"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(kkt, "certify_construction", refuse)


def header_only_instance(d: int) -> str:
    """A well-formed constructed instance file with header d, its rows all zero."""
    calibration = Calibration(F(1, 2), F(0), F(1), line_point(d, 0), line_point(d, 2))
    instance = SvmInstance(
        tuple(Vec([0] * d) for _ in range(2 * d)), facet_order(d),
        (calibration.u_left, calibration.u_right),
        GoldfarbParams(d), StretchFactor(20000), calibration,
    )
    return serialize_instance(instance)


class TestDimCap:
    """gen and verify refuse a d above cli.MAX_DIM before any construction."""

    @pytest.mark.parametrize("d", [cli.MAX_DIM + 1, 40])
    def test_gen_refuses_above_the_cap(self, tmp_path, capsys, monkeypatch, d):
        refuse_construction(monkeypatch)
        out = tmp_path / "big.inst"
        code, stdout, stderr = run(["gen", "--d", str(d), "--stretch", "auto", "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and stderr.count("\n") == 1
        assert stderr == f"gen: 2^(d-2) breakpoints; --d is capped at {cli.MAX_DIM}\n"
        assert not out.exists()

    @pytest.mark.parametrize("d", [cli.MAX_DIM + 1, 40])
    def test_verify_refuses_a_header_above_the_cap(self, tmp_path, capsys, monkeypatch, d):
        inst = tmp_path / "big.inst"
        inst.write_text(header_only_instance(d))
        assert read_instance(inst).params.dim == d
        refuse_construction(monkeypatch)
        code, stdout, stderr = run(["verify", str(inst)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == f"verify: header d {d}; d is capped at {cli.MAX_DIM}\n"

    def test_the_cap_itself_is_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DIM", 3)
        inst = tmp_path / "d3.inst"
        assert run(["gen", "--d", "3", "--out", str(inst)], capsys)[0] == 0
        assert run(["verify", str(inst)], capsys)[0] == 0
        assert run(["gen", "--d", "4", "--out", str(tmp_path / "d4.inst")], capsys)[0] == 2
        inst.write_text(header_only_instance(4))
        assert run(["verify", str(inst)], capsys)[0] == 2


class TestSweepCommand:
    def test_small_sweep_writes_report(self, tmp_path, capsys):
        inst = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(inst)], capsys)
        report = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        code, stdout, _ = run(
            [
                "sweep", str(inst),
                "--mu-lo", "9/10", "--mu-hi", "1",
                "--steps", "24", "--refine", "3",
                "--out", str(report), "--csv", str(csv), "--precision", "10",
            ],
            capsys,
        )
        assert code == 0
        assert "bends=" in stdout and "nu range" in stdout
        doc = json.loads(report.read_text())
        assert doc["exact"] is True and doc["steps"] == 24
        assert csv.read_text().startswith("# approximate")

    def test_arc_demo_sweep(self, tmp_path, capsys):
        inst = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "8", "--out", str(inst)], capsys)
        report = tmp_path / "arc.json"
        code, stdout, _ = run(
            ["sweep", str(inst), "--mu-lo", "1/2", "--mu-hi", "1", "--steps", "32",
             "--refine", "4", "--out", str(report)],
            capsys,
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["lower_bound"] == 2 * (8 - 3)
        assert doc["bend_count"] >= doc["lower_bound"]

    def test_arc_n_plus_header_must_match_rows(self, tmp_path, capsys):
        inst = tmp_path / "arc.inst"
        rows = ["+1 0/1 1/1", "+1 1/1 2/1", "+1 2/1 1/1", "-1 0/1 -1/1", "-1 2/1 -1/1"]
        inst.write_text("\n".join(["kind arc", "d 2", "n_plus 9", *rows]) + "\n")
        code, _, stderr = run(["sweep", str(inst), "--out", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert stderr.count("\n") == 1 and "n_plus 9" in stderr and "3 points" in stderr

    @pytest.mark.parametrize("kind,d", [("arc", "0"), ("arc", "-1"), ("goldfarb", "0")])
    def test_header_d_below_one_is_input_error(self, tmp_path, capsys, kind, d):
        # rows of zero coordinates match d 0, so only the header check refuses it
        inst = tmp_path / "zero.inst"
        inst.write_text("\n".join([f"kind {kind}", f"d {d}", "+1", "+1", "-1", "-1"]) + "\n")
        report = tmp_path / "r.json"
        code, _, stderr = run(["sweep", str(inst), "--out", str(report)], capsys)
        assert code == 2
        assert stderr.count("\n") == 1 and f"header d {d}" in stderr
        assert not report.exists()

    def test_two_point_arc_lower_bound_is_zero(self, tmp_path, capsys):
        inst = tmp_path / "arc.inst"
        rows = ["+1 0/1 1/1", "+1 1/1 2/1", "-1 0/1 -1/1", "-1 2/1 -1/1"]
        inst.write_text("\n".join(["kind arc", "d 2", "n_plus 2", *rows]) + "\n")
        code, stdout, _ = run(
            ["sweep", str(inst), "--steps", "4", "--refine", "0", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 0
        assert "(lower bound 0)" in stdout

    def test_deep_refine_ends_without_traceback(self, tmp_path, capsys):
        # 1200 bisection levels, past the interpreter's recursion limit
        inst = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "8", "--out", str(inst)], capsys)
        report = tmp_path / "deep.json"
        code, stdout, stderr = run(
            ["sweep", str(inst), "--mu-lo", "51/100", "--steps", "2", "--refine", "1200",
             "--out", str(report)],
            capsys,
        )
        assert code == 0 and stderr == ""
        assert stdout.startswith("bends=13 ")
        assert json.loads(report.read_text())["refine_depth"] == 1200

    def test_solver_stall_names_mu(self, tmp_path, capsys, monkeypatch):
        def stall(qp_instance, start=None):
            raise qp.SolverStalledError("no optimum after 0 iterations")

        inst = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(inst)], capsys)
        monkeypatch.setattr(sweep, "solve_reduced_distance", stall)
        result = run(
            ["sweep", str(inst), "--mu-lo", "9/10", "--steps", "4", "--refine", "0",
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert_one_line_failure(result, "no optimum", "mu = 9/10")

    def test_negative_precision_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("swept before checking --precision")

        inst = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(inst)], capsys)
        monkeypatch.setattr(cli, "sweep_refined", refuse)
        report, csv = tmp_path / "r.json", tmp_path / "r.csv"
        code, _, stderr = run(
            ["sweep", str(inst), "--out", str(report), "--csv", str(csv), "--precision", "-1"],
            capsys,
        )
        assert code == 2
        assert stderr.count("\n") == 1 and "--precision" in stderr
        assert not report.exists() and not csv.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--refine", "-1"),
            ("--steps", "1"),
            ("--steps", "-3"),
            ("--mu-lo", "2/5"),
            ("--mu-lo", "1"),
            ("--mu-hi", "11/10"),
            ("--mu-hi", "3/4"),
        ],
    )
    def test_bad_count_refused_before_reading(self, tmp_path, capsys, monkeypatch, flag, value):
        def refuse(*args, **kwargs):
            raise AssertionError(f"read or swept before checking {flag}")

        inst = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "6", "--out", str(inst)], capsys)
        monkeypatch.setattr(cli, "read_instance", refuse)
        monkeypatch.setattr(cli, "sweep_refined", refuse)
        report = tmp_path / "r.json"
        code, _, stderr = run(["sweep", str(inst), "--out", str(report), flag, value], capsys)
        assert code == 2
        assert stderr.count("\n") == 1 and flag in stderr and value in stderr
        if flag.startswith("--mu"):
            # --mu-hi 3/4 falls below the default --mu-lo 8/10; both flags are named
            assert f"{flag} {value}" in stderr and "--mu-lo" in stderr and "--mu-hi" in stderr
        assert not report.exists()

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_refused_before_reading(self, tmp_path, capsys, monkeypatch, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("read or swept before checking the output paths")

        inst = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "6", "--out", str(inst)], capsys)
        monkeypatch.setattr(cli, "read_instance", refuse)
        monkeypatch.setattr(cli, "sweep_refined", refuse)
        for bad in (tmp_path / "nodir" / "r", tmp_path):
            paths = {"--out": tmp_path / "r.json", "--csv": tmp_path / "r.csv", flag: bad}
            code, _, stderr = run(
                ["sweep", str(inst), "--out", str(paths["--out"]), "--csv", str(paths["--csv"])],
                capsys,
            )
            assert code == 2
            assert stderr.count("\n") == 1 and f"{flag} {bad}" in stderr
            assert list(tmp_path.iterdir()) == [inst]

    def test_bad_range_is_input_error(self, tmp_path, capsys):
        inst = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(inst)], capsys)
        code, _, _ = run(
            ["sweep", str(inst), "--mu-lo", "1", "--mu-hi", "1/2",
             "--steps", "4", "--refine", "0", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2


def record_digest(report_path) -> tuple:
    """sha256 of the records (mu, objective, support_plus, support_minus), with both counts."""
    doc = json.loads(report_path.read_text())
    rows = [
        [str(F(int(r["mu"]["num"]), int(r["mu"]["den"]))),
         str(F(int(r["objective"]["num"]), int(r["objective"]["den"]))),
         r["support_plus"], r["support_minus"]]
        for r in doc["records"]
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return digest, doc["bend_count"], doc["distinct_support_sets"]


class TestPinnedSweeps:
    """Sweep records are exact, so a solver change must reproduce them bit for bit.

    The two small sweeps also pin the whole report file, so the report writer
    must reproduce `json.dumps(..., indent=2)` byte for byte. They run in
    tmp_path with relative paths, because the report records the instance
    path as given.
    """

    def test_constructed_d4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["gen", "--d", "4", "--stretch", "auto", "--out", "d4.inst"], capsys)[0] == 0
        code, _, _ = run(
            ["sweep", "d4.inst", "--steps", "64", "--refine", "3", "--out", "d4.json"], capsys
        )
        assert code == 0
        report = tmp_path / "d4.json"
        assert record_digest(report) == (
            "559f0cfdc12e9d80b500b31dc9d87adf3d11c9fdb9ece17aded4eb34902dfd4c", 9, 8
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "4dd712971d006d8dd3b2c028184d2a5b916757f2f394a883611bfd834007c1e7"
        )

    def test_arc_12(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["gen-arc", "--n-plus", "12", "--out", "arc12.inst"], capsys)[0] == 0
        code, _, _ = run(
            ["sweep", "arc12.inst", "--mu-lo", "51/100", "--steps", "64", "--out", "arc12.json"],
            capsys,
        )
        assert code == 0
        report = tmp_path / "arc12.json"
        assert record_digest(report) == (
            "85ede4d820e6b1a38fdbc4d251e0635166542e9b94235f67bd0719a5a5e730eb", 21, 22
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "3127bcf59082f6554da1b828c257b3c0988ee7970d7ce49a47bb43c0a24fbaca"
        )

    # the benchmark's seed-0 sweeps, at full scale
    def test_constructed_d6_defaults(self, tmp_path, capsys):
        inst, report = tmp_path / "d6.inst", tmp_path / "d6.json"
        assert run(["gen", "--d", "6", "--stretch", "auto", "--out", str(inst)], capsys)[0] == 0
        assert run(["sweep", str(inst), "--out", str(report)], capsys)[0] == 0
        assert record_digest(report) == (
            "78e6abe0a535aa45ce1b9ae15b10abefc86502167c05b384556af5da534ca0a6", 48, 32
        )

    def test_arc_60(self, tmp_path, capsys):
        inst, report = tmp_path / "arc.inst", tmp_path / "arc.json"
        assert run(["gen-arc", "--n-plus", "60", "--out", str(inst)], capsys)[0] == 0
        code, _, _ = run(["sweep", str(inst), "--mu-lo", "51/100", "--out", str(report)], capsys)
        assert code == 0
        assert record_digest(report) == (
            "e79c540ab20b036d587040d1da9d961ae7e9f1c7ad6cd8aaf577935ed424a655", 117, 118
        )


class TestPinnedInstances:
    """`gen --stretch auto` files are exact, so a construction change must reproduce them byte for byte."""

    @pytest.mark.parametrize(
        "d,digest",
        [
            (3, "8bef53bbc81f896ab7176d1c8b16a4f308bd58a559d6a236a667e803b61b8d1f"),
            (4, "88860f94ec6b585b40656e505918e011c0c69dc9d14be37bd31d3d639f7db218"),
            (5, "4a8a6674af49cfcd01e908549e7c310265d60a712f5cb4889a53ab7f5f207ad7"),
            (6, "bd611abe70e11c3465722fef95eb9817c17c3e62ca921bcce0cea813860f7979"),
            (7, "e0e951f28615634774f5637cebd6b33a7cce03c256b195d9985929daf3b09729"),
            (8, "867e5f26fc9a6b60d6fdae0f69b0476aa3708575f0e880dd01683d50fd4052ea"),
            (9, "057657423854d17ebd02437b68a8942ba2306aa3a1a8c3bbbde65d53a5758b42"),
            (10, "045c7cae92b3ade829108993954af90afb736832c7b22f9b9f3877c1353df088"),
            (11, "7c9727434b84d83ab86839ef67ebe96c4891c55547f7008c8483fa68460c8a1e"),
            (2, "4d88da27357fdfc7293ac16f79bd14c69c68f704ef06468f82327a82ced36703"),
            (12, "252d6ba2e91127c3b947843dfb290d3ff238236d4779cdced6a499c7457ed6b0"),
        ],
    )
    def test_auto_stretch(self, tmp_path, capsys, d, digest):
        inst = tmp_path / f"d{d}.inst"
        assert run(["gen", "--d", str(d), "--stretch", "auto", "--out", str(inst)], capsys)[0] == 0
        assert hashlib.sha256(inst.read_bytes()).hexdigest() == digest

    # the benchmark's eight other (eps, gamma) pairs (perfbench/run.py PAIRS) at d = 6
    @pytest.mark.parametrize(
        "eps,gamma,digest",
        [
            ("3/8", "1/16", "6dacb179a9a0d4f27c466513c5a2516e8dbab67cd01fd08870a0eab380c3742f"),
            ("1/3", "1/15", "31ae132ff5b2cc2e4ac9dca44d8983d0bcdded5a8f0cd287862b9a75ffecb52c"),
            ("1/3", "1/14", "713017392300442131d5c61ec9eebb1c5ace2f3a9f77eda8d973a003ece1b5f1"),
            ("5/16", "1/16", "206e74286a2ee00f0cb6d9dc32a5b2148f91cb5135650412cdf6f11e28db5787"),
            ("3/8", "1/15", "42b731acc34442efdc442372b689ef48f2962b67a4b997b591bddb32c70010ac"),
            ("2/5", "1/16", "2ebfd253c6beda938f38b026409346f58b7daee8a7f8c4100f9c40834f6c8be9"),
            ("2/5", "1/15", "3f75c9a03b2bd64f692ba86762e0a17f305160d01ae7e3c6011761977d845fa2"),
            ("5/14", "1/16", "dbd6eba1f27442386c6bc93a3c5d37caa6ba29f6e0c7f2dc96a0c5ce3c8b22d1"),
        ],
    )
    def test_auto_stretch_other_parameters(self, tmp_path, capsys, eps, gamma, digest):
        inst = tmp_path / "d6.inst"
        argv = ["gen", "--d", "6", "--eps", eps, "--gamma", gamma, "--stretch", "auto"]
        assert run(argv + ["--out", str(inst)], capsys)[0] == 0
        assert hashlib.sha256(inst.read_bytes()).hexdigest() == digest


class TestPinnedVerify:
    """`verify` output is exact, so a certificate change must reproduce it byte for byte."""

    @pytest.mark.parametrize(
        "eps,gamma,digest",
        [
            ("1/3", "1/16", "50132f618984f42fac67f1fd3be90378059c6a9fe890ed3482a74b00b98b42f2"),
            ("3/8", "1/16", "b3d752aab0671ca9a372722ca1ece99d5ef391265161cf37a58ce691195b0440"),
        ],
    )
    def test_d5(self, tmp_path, capsys, eps, gamma, digest):
        inst = tmp_path / "d5.inst"
        argv = ["gen", "--d", "5", "--eps", eps, "--gamma", gamma, "--stretch", "auto"]
        assert run(argv + ["--out", str(inst)], capsys)[0] == 0
        code, stdout, _ = run(["verify", str(inst)], capsys)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest


class TestShadowSvgCommand:
    @pytest.mark.parametrize("d,count", [(2, 4), (3, 8)])
    def test_writes_svg(self, tmp_path, capsys, d, count):
        out = tmp_path / "shadow.svg"
        code, stdout, _ = run(["shadow-svg", "--d", str(d), "--out", str(out)], capsys)
        assert code == 0
        assert f"{count} vertices" in stdout
        assert "<svg" in out.read_text()

    def test_dim_cap(self, tmp_path, capsys):
        code, _, stderr = run(["shadow-svg", "--d", "13", "--out", str(tmp_path / "x.svg")], capsys)
        assert code == 2
        assert stderr == "shadow-svg: 2^d ring vertices; --d is capped at 12\n"


class TestPinnedShadowSvg:
    """The drawing is computed exactly, so a shadow change must reproduce it byte for byte."""

    @pytest.mark.parametrize(
        "d,size,digest",
        [
            (3, 446, "c652695f61e57c33e7e0f38dc70e3e20516953fb329b2b72f42459fdf9d53b91"),
            (8, 7334, "736d9e668a6ad8afaef9689da6503961bfd8a2c4740ea07baf18e294a9214208"),
        ],
    )
    def test_bytes(self, tmp_path, capsys, d, size, digest):
        out = tmp_path / f"shadow{d}.svg"
        assert run(["shadow-svg", "--d", str(d), "--out", str(out)], capsys)[0] == 0
        data = out.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest


class TestOutputErrors:
    @pytest.mark.parametrize("command", ["gen", "verify", "sweep", "shadow-svg"])
    def test_directory_path_is_input_error(self, tmp_path, capsys, command):
        inst = tmp_path / "d3.inst"
        run(["gen", "--d", "3", "--out", str(inst)], capsys)
        argv = {
            "gen": ["gen", "--d", "3", "--out", str(tmp_path)],
            "verify": ["verify", str(tmp_path)],
            "sweep": ["sweep", str(inst), "--steps", "4", "--refine", "0", "--out", str(tmp_path)],
            "shadow-svg": ["shadow-svg", "--d", "3", "--out", str(tmp_path)],
        }[command]
        code, _, stderr = run(argv, capsys)
        assert code == 2
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert str(tmp_path) in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--d", "3", "--stretch", "auto"],
            ["gen", "--d", "3"],
            ["gen-arc"],
            ["shadow-svg", "--d", "3"],
        ],
        ids=["gen-auto", "gen", "gen-arc", "shadow-svg"],
    )
    def test_unwritable_output_refused_before_construction(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("constructed before checking --out")

        for name in ("choose_stretch", "build_instance", "generate_2d_arc_instance"):
            monkeypatch.setattr(cli, name, refuse)
        # shadow-svg imports report_io when it runs and reads the name there
        monkeypatch.setattr(report_io, "write_shadow_svg", refuse)
        for bad in (tmp_path / "nodir" / "out", tmp_path):
            code, stdout, stderr = run(argv + ["--out", str(bad)], capsys)
            assert code == 2 and stdout == ""
            assert stderr.count("\n") == 1 and f"{argv[0]}: --out {bad}" in stderr
            assert list(tmp_path.iterdir()) == []


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(["gen", "--d", "3"], capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "INST", "--mu-lo", "abc"], "--mu-lo"),
            (["sweep", "INST", "--mu-hi", "abc"], "--mu-hi"),
            (["gen", "--d", "3", "--eps", "abc"], "--eps"),
            (["gen", "--d", "3", "--gamma", "abc"], "--gamma"),
            (["gen", "--d", "3", "--stretch", "abc"], "--stretch"),
        ],
        ids=["mu-lo", "mu-hi", "eps", "gamma", "stretch"],
    )
    def test_bad_rational_names_its_flag(self, tmp_path, capsys, monkeypatch, argv, flag):
        def refuse(*args, **kwargs):
            raise AssertionError(f"worked before parsing {flag}")

        inst = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "6", "--out", str(inst)], capsys)
        for name in ("read_instance", "sweep_refined", "choose_stretch", "build_instance"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out"
        argv = [str(inst) if a == "INST" else a for a in argv]
        code, stdout, stderr = run(argv + ["--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert f"{flag}: bad rational token 'abc'" in stderr
        assert not out.exists()

    def test_exponent_flag_refused(self, tmp_path, capsys):
        inst = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "6", "--out", str(inst)], capsys)
        out = tmp_path / "out.json"
        code, stdout, stderr = run(["sweep", str(inst), "--mu-lo", "1e-9", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert "--mu-lo: bad rational token '1e-9': no exponent notation" in stderr
        assert not out.exists()

    def test_exponent_in_instance_file_refused(self, tmp_path, capsys):
        # with the coordinate read as a 3000001-digit denominator the sweep runs for minutes
        inst = tmp_path / "arc.inst"
        run(["gen-arc", "--n-plus", "6", "--out", str(inst)], capsys)
        lines = inst.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("+1 "))
        tokens = lines[row].split()
        tokens[1] = "1e-3000000"
        lines[row] = " ".join(tokens)
        inst.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        code, stdout, stderr = run(["sweep", str(inst), "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert "bad rational token '1e-3000000'" in stderr
        assert not out.exists()


HELP = {
    "svmpath": """\
usage: svmpath [-h] {gen,gen-arc,verify,sweep,shadow-svg} ...

Exact worst-case SVM regularization-path instances

positional arguments:
  {gen,gen-arc,verify,sweep,shadow-svg}
    gen                 generate a constructed instance file
    gen-arc             generate the 2D arc demo instance
    verify              re-derive and certify an instance file
    sweep               sweep the regularization parameter
    shadow-svg          draw the 2D shadow polygon

options:
  -h, --help            show this help message and exit
""",
    "gen": """\
usage: svmpath gen [-h] --d D [--eps EPS] [--gamma GAMMA] [--stretch STRETCH]
                   --out OUT

options:
  -h, --help         show this help message and exit
  --d D
  --eps EPS
  --gamma GAMMA
  --stretch STRETCH  stretch factor, or 'auto'
  --out OUT
""",
    "verify": """\
usage: svmpath verify [-h] instance

positional arguments:
  instance

options:
  -h, --help  show this help message and exit
""",
    "sweep": """\
usage: svmpath sweep [-h] [--mu-lo MU_LO] [--mu-hi MU_HI] [--steps STEPS]
                     [--refine REFINE] --out OUT [--csv CSV]
                     [--precision PRECISION]
                     instance

positional arguments:
  instance

options:
  -h, --help            show this help message and exit
  --mu-lo MU_LO
  --mu-hi MU_HI
  --steps STEPS
  --refine REFINE
  --out OUT
  --csv CSV             also write an approximate CSV view
  --precision PRECISION
""",
}


class TestMain:
    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_is_pinned(self, command):
        argv = ["--help"] if command == "svmpath" else [command, "--help"]
        proc = fresh_python("-m", "svmpath.cli", *argv, COLUMNS="80", NO_COLOR="1")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == HELP[command]

    @pytest.mark.parametrize(
        "error",
        [
            CalibrationError,
            StrictnessError,
            ShadowPropertyError,
            qp.SolverStalledError,
            kkt.CertificateError,
            sweep.SweepMismatchError,
        ],
        ids=lambda error: error.__name__,
    )
    def test_exit_1_errors_share_one_base(self, error):
        # main maps VerificationFailure to exit 1 and the three input errors to exit 2
        assert issubclass(error, VerificationFailure)
        assert not issubclass(error, (InstanceFormatError, OSError, ValueError))
