"""Value semantics of the package's immutable records, and what importing it costs.

Every record compares, hashes, prints, copies and refuses assignment as the
frozen dataclass of its fields did; the reprs pinned below are the ones that
dataclass printed. The oracles' `Polygon2` is built on the same
`FrozenRecord` and has its sample here too. A pair read off a piece, which
builds its coefficients on first read, does all of that as the pair of
every field given eagerly. Importing the package or its command
line loads neither `dataclasses` nor `inspect`; `gen` and `gen-arc` load neither
the solver, the sweep, the report writer nor `json`, `shadow-svg` neither
the solver nor the sweep, and `verify` neither the sweep nor the report writer.
"""

import copy
import json
import pickle
from fractions import Fraction as F

import pytest

from conftest import fresh_cli, fresh_python
from oracles import CubeVertex, Polygon2, pair_points, replace
from svmpath import construct
from svmpath.construct import (
    Calibration,
    ConstructedPair,
    StretchFactor,
    SupportDecomposition,
    SvmInstance,
    build_instance,
)
from svmpath.geometry import FrozenInstanceError, PointTable, Vec
from svmpath.goldfarb import DualVertex, GoldfarbParams
from svmpath.instance_io import write_instance
from svmpath.qp import KktCertificate, OptimalPair, Piece, ReducedHullQP
from svmpath.sweep import SweepRecord, SweepReport


@pytest.mark.parametrize("module", ["svmpath.cli", "svmpath"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = f"import sys, {module}; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


SOLVER = ("svmpath.qp", "svmpath.sweep")
REPORTS = ("svmpath.report_io", "json")


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["gen", "--d", "4", "--stretch", "auto"], SOLVER + REPORTS),
        (["gen-arc", "--n-plus", "6"], SOLVER + REPORTS),
        (["shadow-svg", "--d", "3"], SOLVER),
    ],
    ids=["gen", "gen-arc", "shadow-svg"],
)
def test_command_loads_only_its_own_modules(tmp_path, argv, unused):
    out = tmp_path / "out"
    proc = fresh_cli(*argv, "--out", str(out), loaded=unused)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"wrote {out}: ")
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_loads_neither_sweep_nor_report_io(tmp_path):
    # verify takes no --out, so it is not a case of the test above
    inst = tmp_path / "d4.inst"
    write_instance(build_instance(GoldfarbParams(4), StretchFactor(20000)), inst)
    proc = fresh_cli("verify", str(inst), loaded=("svmpath.sweep", "svmpath.report_io"))
    assert proc.returncode == 0, proc.stderr
    first, last = proc.stdout.splitlines()
    assert json.loads(first)["ok"] is True and json.loads(first)["certificates"] == 4
    assert last == "[]"


TABLE = PointTable([Vec([1, 0]), Vec([2, 1])], [Vec([0, F(1, 2)]), Vec([1, 1])])
PAIR = OptimalPair((F(1), F(0)), (F(1),), F(5, 4))
RECORD = SweepRecord(F(3, 4), frozenset({(1, -1)}), frozenset({"left"}), F(5, 4), PAIR)
# the piece of TABLE with plus point 0 and minus point 1 at mu, on [1/2, 5/7]
PIECE = Piece.build(TABLE, ((), (0, 3)))
PIECE_PAIR = OptimalPair((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)), F(25, 36))
PIECE_PAIR_REPR = (
    "OptimalPair(alpha_plus=(Fraction(2, 3), Fraction(1, 3)), "
    "alpha_minus=(Fraction(1, 3), Fraction(2, 3)), objective=Fraction(25, 36))"
)
CALIBRATION = Calibration(F(1, 2), F(-3), F(-1), Vec([0, 2, -3]), Vec([0, 2, 5]))

# name -> (record, its repr as the frozen dataclass printed it); <table>
# stands for the repr of TABLE, which has no fields to print
PAIR_REPR = (
    "OptimalPair(alpha_plus=(Fraction(1, 1), Fraction(0, 1)), alpha_minus=(Fraction(1, 1),), "
    "objective=Fraction(5, 4))"
)
RECORD_REPR = (
    "SweepRecord(mu=Fraction(3, 4), support_plus=frozenset({(1, -1)}), "
    f"support_minus=frozenset({{'left'}}), objective=Fraction(5, 4), pair={PAIR_REPR})"
)
CALIBRATION_REPR = (
    "Calibration(mu_bar=Fraction(1, 2), q_min=Fraction(-3, 1), q_max=Fraction(-1, 1), "
    "u_left=(Fraction(0, 1), Fraction(2, 1), Fraction(-3, 1)), "
    "u_right=(Fraction(0, 1), Fraction(2, 1), Fraction(5, 1)))"
)
SAMPLES = {
    "StretchFactor": (StretchFactor(F(3, 2)), "StretchFactor(factor=Fraction(3, 2))"),
    "ConstructedPair": (
        ConstructedPair((-1, 1, 1), Vec([0, 2, 3])),
        "ConstructedPair(sigma=(-1, 1, 1), q=(Fraction(0, 1), Fraction(2, 1), Fraction(3, 1)))",
    ),
    "SupportDecomposition": (
        SupportDecomposition((1, 1, 1), (F(1, 2), F(1, 3), F(1, 6)), F(1, 2)),
        "SupportDecomposition(sigma=(1, 1, 1), "
        "alphas=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), mu_sigma=Fraction(1, 2))",
    ),
    "Calibration": (CALIBRATION, CALIBRATION_REPR),
    "SvmInstance": (
        SvmInstance((Vec([1, 0]),), ((1, 1),), (Vec([0, 1]), Vec([0, -1]))),
        "SvmInstance(plus_points=((Fraction(1, 1), Fraction(0, 1)),), plus_labels=((1, 1),), "
        "minus_points=((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(-1, 1))), "
        "params=None, stretch=None, calibration=None)",
    ),
    "SvmInstance.full": (
        SvmInstance(
            (Vec([1, 0, 0]),), ((1, 1),), (Vec([0, 2, -3]), Vec([0, 2, 5])),
            GoldfarbParams(3), StretchFactor(2), CALIBRATION,
        ),
        "SvmInstance(plus_points=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)),), "
        "plus_labels=((1, 1),), minus_points=((Fraction(0, 1), Fraction(2, 1), Fraction(-3, 1)), "
        "(Fraction(0, 1), Fraction(2, 1), Fraction(5, 1))), "
        "params=GoldfarbParams(dim=3, eps=Fraction(1, 3), gamma=Fraction(1, 16)), "
        f"stretch=StretchFactor(factor=Fraction(2, 1)), calibration={CALIBRATION_REPR})",
    ),
    "Polygon2": (
        Polygon2(((0, 0), (1, 0), (0, 1))),
        "Polygon2(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(1, 1))))",
    ),
    "GoldfarbParams": (
        GoldfarbParams(3),
        "GoldfarbParams(dim=3, eps=Fraction(1, 3), gamma=Fraction(1, 16))",
    ),
    "CubeVertex": (
        CubeVertex((1, -1), Vec([1, F(-2, 3)])),
        "CubeVertex(sigma=(1, -1), coords=(Fraction(1, 1), Fraction(-2, 3)))",
    ),
    "DualVertex": (
        DualVertex(2, -1, Vec([F(1, 3), -1])),
        "DualVertex(k=2, s=-1, coords=(Fraction(1, 3), Fraction(-1, 1)))",
    ),
    "ReducedHullQP": (ReducedHullQP(TABLE, F(1, 2)), "ReducedHullQP(table=<table>, mu=Fraction(1, 2))"),
    "KktCertificate": (
        KktCertificate((1, 1, 1), F(3, 4), PAIR, F(-5, 2)),
        f"KktCertificate(sigma=(1, 1, 1), mu=Fraction(3, 4), pair={PAIR_REPR}, "
        "facet_multiplier=Fraction(-5, 2))",
    ),
    "SweepRecord": (RECORD, RECORD_REPR),
    "SweepReport": (
        SweepReport((RECORD,), 0, 1, 2),
        f"SweepReport(records=({RECORD_REPR},), bend_count=0, distinct_support_sets=1, "
        "lower_bound=2)",
    ),
    "OptimalPair": (PAIR, PAIR_REPR),
    # built afresh for each test, see FRESH
    "OptimalPair.piece": (None, PIECE_PAIR_REPR),
}
# samples built unread for each test: the pair of PIECE at mu = 2/3 holds
# the piece and mu, and builds its coefficients on a first read
PIECE_QP = ReducedHullQP(TABLE, F(2, 3))
FRESH = {"OptimalPair.piece": lambda: PIECE.optimum(PIECE_QP)}


def other_value(value):
    """A value that differs from the field value `value`."""
    return 0 if value is None else None


@pytest.fixture(params=list(SAMPLES))
def sample(request):
    record, expected = SAMPLES[request.param]
    fresh = FRESH.get(request.param)
    return (record if fresh is None else fresh()), expected


def unread(pair: OptimalPair) -> bool:
    """Whether a pair read off a piece has built none of its coefficients yet."""
    return pair.piece is not None and pair._alpha_plus is None


class TestValueSemantics:
    def test_repr_as_the_dataclass_printed_it(self, sample):
        record, expected = sample
        assert repr(record) == expected.replace("<table>", repr(TABLE))

    def test_equal_fields_equal_records_and_hashes(self, sample):
        record, _ = sample
        twin = replace(record)
        assert twin is not record
        assert twin == record and record == twin and not twin != record
        assert hash(twin) == hash(record) == hash(tuple(getattr(record, f) for f in record._fields))
        assert len({twin, record}) == 1

    def test_one_changed_field_unequal(self, sample):
        record, _ = sample
        for name in record._fields:
            value = other_value(getattr(record, name))
            changed = copy.copy(record)
            # OptimalPair keeps its coefficients in private slots behind properties
            slot = name if name in type(record).__slots__ else "_" + name
            object.__setattr__(changed, slot, value)
            assert changed != record and record != changed, name

    def test_unequal_to_other_classes(self, sample):
        record, _ = sample
        values = tuple(getattr(record, f) for f in record._fields)
        assert record.__eq__(values) is NotImplemented
        assert record != values and record != object()

    def test_another_class_with_the_same_fields_is_unequal(self):
        sigma, coords = (1, 1), Vec([0, 1])
        vertex, pair = CubeVertex(sigma, coords), ConstructedPair(sigma, coords)
        assert (vertex.sigma, vertex.coords) == (pair.sigma, pair.q)
        assert vertex.__eq__(pair) is NotImplemented
        assert vertex != pair and pair != vertex

    def test_assignment_and_deletion_raise(self, sample):
        record, expected = sample
        for name in record._fields + ("unknown",):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert repr(record) == expected.replace("<table>", repr(TABLE))

    def test_copies_and_pickles_rebuild_the_record(self, sample):
        record, _ = sample
        assert copy.copy(record) == record
        if not isinstance(record, ReducedHullQP):  # a point table compares by identity
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record


class TestPairReadOffAPiece:
    """The first read of a piece's pair, whatever it is, sees the eager pair of the same fields."""

    @staticmethod
    def fresh() -> OptimalPair:
        pair = FRESH["OptimalPair.piece"]()
        assert unread(pair) and pair.objective == F(25, 36)
        return pair

    @pytest.mark.parametrize(
        "read",
        [
            lambda pair: pair == PIECE_PAIR,
            lambda pair: PIECE_PAIR == pair,
            lambda pair: hash(pair) == hash(PIECE_PAIR),
            lambda pair: len({pair, PIECE_PAIR}) == 1,
            lambda pair: repr(pair) == PIECE_PAIR_REPR,
            lambda pair: copy.copy(pair) == PIECE_PAIR,
            lambda pair: copy.deepcopy(pair) == PIECE_PAIR,
            lambda pair: pickle.loads(pickle.dumps(pair)) == PIECE_PAIR,
            lambda pair: pair.alpha_plus + pair.alpha_minus == PIECE_PAIR.alpha_plus + PIECE_PAIR.alpha_minus,
            lambda pair: pair_points(PIECE_QP, pair) == (Vec([F(4, 3), F(1, 3)]), Vec([F(2, 3), F(5, 6)])),
        ],
        ids=["eq", "eq_reflected", "hash", "set", "repr", "copy", "deepcopy", "pickle", "alphas", "points"],
    )
    def test_first_read(self, read):
        pair = self.fresh()
        assert read(pair)
        assert not unread(pair)
        assert pair == PIECE_PAIR and repr(pair) == PIECE_PAIR_REPR
        # the pair keeps its piece and mu after every read
        assert pair.piece is PIECE and pair.mu == F(2, 3)

    def test_copies_are_eager(self):
        for clone in (copy.copy(self.fresh()), pickle.loads(pickle.dumps(self.fresh()))):
            assert clone.piece is None and clone == PIECE_PAIR

    def test_unread_pair_refuses_assignment(self):
        pair = self.fresh()
        for name in pair._fields:
            with pytest.raises(FrozenInstanceError):
                setattr(pair, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(pair, name)
        assert unread(pair)
        assert pair == PIECE_PAIR

    def test_coefficients_are_the_pieces(self):
        assert PIECE.coefficients(F(2, 3)) == (PIECE_PAIR.alpha_plus, PIECE_PAIR.alpha_minus)
        assert PIECE.support(F(2, 3)) == (frozenset({0, 1}), frozenset({0, 1}))


class TestConstruction:
    def test_positional_and_keyword(self, sample):
        record, _ = sample
        values = [getattr(record, f) for f in record._fields]
        by_keyword = type(record)(**{f: getattr(record, f) for f in record._fields})
        assert type(record)(*values) == by_keyword == record

    def test_defaults(self):
        params = GoldfarbParams(4)
        assert (params.dim, params.eps, params.gamma) == (4, F(1, 3), F(1, 16))
        assert GoldfarbParams(4, gamma=F(1, 20)) == GoldfarbParams(dim=4, eps=F(1, 3), gamma=F(1, 20))
        inst = SvmInstance((Vec([1]),), (0,), (Vec([0]),))
        assert (inst.params, inst.stretch, inst.calibration) == (None, None, None)
        assert OptimalPair(*PAIR._values()) == PAIR

    def test_normalisation(self):
        params = GoldfarbParams(3, "3/10", 0.0625)
        assert type(params.eps) is type(params.gamma) is F and params.gamma == F(1, 16)
        assert StretchFactor("3/2").factor == F(3, 2)
        assert Polygon2([[0, 0], [1, 0], [0, 1]]).vertices == SAMPLES["Polygon2"][0].vertices
        assert all(type(v) is Vec for v in Polygon2([[0, 0], [1, 0], [0, 1]]).vertices)
        qp = ReducedHullQP(TABLE, 1)
        assert type(qp.mu) is F and qp.plus_points is TABLE.plus_points

    def test_table_is_lazy_and_outside_the_fields(self, monkeypatch):
        built = []
        monkeypatch.setattr(construct, "PointTable", lambda *points: built.append(points) or TABLE)
        inst = SvmInstance((Vec([1, 0]),), ((1, 1),), (Vec([0, 1]), Vec([0, -1])))
        before = repr(inst), hash(inst)
        assert built == []
        table = inst.table
        assert inst.table is table is TABLE
        assert built == [(inst.plus_points, inst.minus_points)]
        assert (repr(inst), hash(inst)) == before
        monkeypatch.undo()
        assert replace(inst) == inst and replace(inst).table is not table
        with pytest.raises(AttributeError):
            inst.table = table

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: StretchFactor(0), "stretch factor must be positive"),
            (lambda: StretchFactor(F(-1, 2)), "stretch factor must be positive"),
            (
                lambda: Calibration(F(1), F(-3), F(-1), Vec([0, 2, -3]), Vec([0, 2, 5])),
                "mu_bar must lie in [1/2, 1)",
            ),
            (
                lambda: Calibration(F(1, 4), F(-3), F(-1), Vec([0, 2, -3]), Vec([0, 2, 5])),
                "mu_bar must lie in [1/2, 1)",
            ),
            (
                lambda: Calibration(F(1, 2), F(-1), F(-3), Vec([0, 2, -1]), Vec([0, 2, 5])),
                "q_min must not exceed q_max",
            ),
            (
                lambda: Calibration(F(1, 2), F(-3), F(-1), Vec([0, 2, -2]), Vec([0, 2, 5])),
                "u_left must sit at q_min",
            ),
            (lambda: GoldfarbParams(0), "dim must be a positive integer, got 0"),
            (lambda: GoldfarbParams(2.0), "dim must be a positive integer, got 2.0"),
            (
                lambda: GoldfarbParams(3, F(1, 3), 0),
                "parameter constraint violated: 0 < gamma (gamma = 0)",
            ),
            (
                lambda: GoldfarbParams(3, F(1, 3), F(1, 12)),
                "parameter constraint violated: 4*gamma < eps (4*gamma = 1/3, eps = 1/3)",
            ),
            (
                lambda: GoldfarbParams(3, F(1, 2), F(1, 16)),
                "parameter constraint violated: eps < 1/2 (eps = 1/2)",
            ),
            (lambda: Polygon2(((0, 0), (1, 0))), "polygon needs at least three vertices"),
            (
                lambda: Polygon2(((0, 0), (1, 0), (0, 0))),
                "polygon vertices must be pairwise distinct",
            ),
            (
                lambda: Polygon2(((0, 0), (0, 1), (1, 0))),
                "polygon must be strictly convex and counterclockwise",
            ),
            (
                lambda: ReducedHullQP(PointTable([Vec([1])], [Vec([0]), Vec([2])]), F(1, 2)),
                "mu = 1/2 outside [1/1, 1]; reduced hull empty or uncapped",
            ),
            (
                lambda: ReducedHullQP(TABLE, F(1, 3)),
                "mu = 1/3 outside [1/2, 1]; reduced hull empty or uncapped",
            ),
            (
                lambda: ReducedHullQP(TABLE, F(3, 2)),
                "mu = 3/2 outside [1/2, 1]; reduced hull empty or uncapped",
            ),
        ],
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="no fields"):
            replace(GoldfarbParams(3), depth=2)
        assert replace(GoldfarbParams(3), dim=5) == GoldfarbParams(5)
