from fractions import Fraction as F

import pytest

from conftest import DEFAULT_STRETCH, default_params
from oracles import coefficient_support, replace, sweep_refined_oracle
from test_qp import small_instances
from svmpath.construct import (
    MINUS_LABELS,
    SvmInstance,
    admissible_constructions,
    build_instance,
    choose_stretch,
    generate_2d_arc_instance,
    mu_of_q,
)
from svmpath.geometry import PointTable, Vec
from svmpath.goldfarb import GoldfarbParams
from svmpath.kkt import certify_construction
from svmpath.qp import Piece, ReducedHullQP, support_set
from svmpath import qp as qp_module
from svmpath import sweep as sweep_module
from svmpath.report_io import sweep_report_csv, write_sweep_report
from svmpath.sweep import (
    SweepMismatchError,
    grid_values,
    instance_lower_bound,
    path_pieces,
    sweep_constructed,
    sweep_grid,
    sweep_refined,
)


@pytest.fixture(scope="module")
def arc10():
    return generate_2d_arc_instance(10)


class TestGrid:
    def test_grid_points_are_exact(self):
        grid = grid_values(F(8, 10), F(1), 512)
        assert len(grid) == 512
        assert grid[0] == F(8, 10) and grid[-1] == 1
        assert all(isinstance(g, F) for g in grid)

    def test_trivial_two_step_sweep(self, arc10):
        # a slice at the bottom of the range keeps the support constant
        report = sweep_grid(arc10, F(11, 20), F(13, 20), 2)
        assert len(report.records) == 2
        assert report.bend_count == 0
        assert report.distinct_support_sets == 1

    def test_records_ordered_by_decreasing_mu(self, arc10):
        report = sweep_grid(arc10, F(3, 5), F(1), 9)
        mus = [r.mu for r in report.records]
        assert mus == sorted(mus, reverse=True)

    def test_objective_nonincreasing_in_mu(self, arc10):
        report = sweep_grid(arc10, F(1, 2), F(1), 17)
        objectives = [r.objective for r in report.records]  # decreasing mu order
        assert all(a <= b for a, b in zip(objectives, objectives[1:]))

    def test_invalid_ranges_rejected(self, arc10):
        with pytest.raises(ValueError):
            sweep_grid(arc10, F(1), F(1, 2), 4)
        with pytest.raises(ValueError):
            sweep_grid(arc10, F(8, 10), F(1), 1)

    def test_support_sets_are_labelled(self, instance3):
        report = sweep_grid(instance3, F(97, 100), F(1), 3)
        for rec in report.records:
            assert all(isinstance(l, tuple) and len(l) == 2 for l in rec.support_plus)
            assert rec.support_minus <= {"left", "right"}


class TestRefine:
    # a two-point grid refined between its ends: bisection of one interval

    def test_depth_zero_returns_endpoints_only(self, arc10):
        records = sweep_refined(arc10, F(3, 5), F(4, 5), 2, 0).records
        assert [r.mu for r in records] == [F(4, 5), F(3, 5)]

    def test_identical_endpoints_produce_nothing_new(self, arc10):
        records = sweep_refined(arc10, F(11, 20), F(13, 20), 2, 5).records
        assert len(records) == 2

    def test_straddled_breakpoint_found(self, instance3):
        # bisection around a known constructed breakpoint must find a change
        cons = admissible_constructions(default_params(3), DEFAULT_STRETCH)
        calib = instance3.calibration
        mus = sorted(mu_of_q(pair.q[-1], calib) for pair, _ in cons)
        target = mus[0]
        lo, hi = target - F(1, 50), target + F(1, 50)
        records = sweep_refined(instance3, lo, hi, 2, 3).records
        assert len(records) > 2
        supports = [r.support for r in records]
        assert any(a != b for a, b in zip(supports, supports[1:]))

    def test_bad_interval_rejected(self, arc10):
        with pytest.raises(ValueError):
            sweep_refined(arc10, F(4, 5), F(4, 5), 2, 3)

    def test_midpoints_solved_depth_first_lower_half_first(self, arc10):
        # the solve order sets each midpoint's warm start, where its walk begins
        lo, hi = sweep_grid(arc10, F(1, 2), F(1), 2).records[::-1]
        out = []
        sweep_module._refine(arc10, lo.mu, lo, hi.mu, hi, 6, out, {})
        by_mu = {r.mu: r for r in out}

        def preorder(a, b, depth):
            if depth <= 0 or a.support == b.support:
                return []
            mid = by_mu[(a.mu + b.mu) / 2]
            return [mid.mu] + preorder(a, mid, depth - 1) + preorder(mid, b, depth - 1)

        assert len(out) > 6
        assert [r.mu for r in out] == preorder(lo, hi, 6)


def certificates(instance) -> list:
    return [cert for cert, _weights in certify_construction(instance)]


class TestConstructedSweep:
    @pytest.mark.parametrize("d,expected", [(3, 2), (4, 4)])
    def test_distinct_support_count(self, d, expected):
        params = default_params(d)
        inst = build_instance(params, DEFAULT_STRETCH)
        report = sweep_constructed(inst, certificates(inst))
        assert report.distinct_support_sets == expected == 2 ** d // 4
        assert all(len(r.support_plus) == d for r in report.records)
        assert report.bend_count == expected - 1  # consecutive sets all differ

    def test_breakpoint_values_ordered_and_within_range(self, instance4, constructions4):
        calib = instance4.calibration
        pairs = sorted(constructions4, key=lambda c: c[0].q[-1])
        mus = [mu_of_q(p.q[-1], calib) for p, _ in pairs]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        assert all(calib.mu_bar <= m <= 1 for m in mus)
        report = sweep_constructed(instance4, certificates(instance4))
        assert [r.mu for r in report.records] == mus

    def test_tampered_pair_raises_named_mismatch(self, instance4):
        certs = certificates(instance4)
        same_mu = replace(certs[0], mu=certs[1].mu)
        with pytest.raises(SweepMismatchError, match="shares its mu") as info:
            sweep_constructed(instance4, [certs[1], same_mu] + certs[2:])
        assert info.value.sigma == certs[0].sigma
        same_support = replace(certs[0], pair=certs[1].pair)
        with pytest.raises(SweepMismatchError, match="shares its support set") as info:
            sweep_constructed(instance4, [certs[1], same_support] + certs[2:])
        assert info.value.sigma == certs[0].sigma

    def test_demo_instance_rejected(self, arc10):
        with pytest.raises(ValueError):
            sweep_constructed(arc10, [])


class TestRefinedSweep:
    def test_finds_more_bends_than_plain_grid(self, instance3):
        plain = sweep_grid(instance3, F(8, 10), F(1), 48)
        refined = sweep_refined(instance3, F(8, 10), F(1), 48, 5)
        assert refined.bend_count >= plain.bend_count
        assert refined.bend_count > instance_lower_bound(instance3) == 2

    def test_lower_bound_for_demo(self, arc10):
        assert instance_lower_bound(arc10) == 2 * (10 - 3)


class TestLazyPairs:
    def test_records_off_pieces_build_no_coefficients(self, instance4, tmp_path):
        # a record read off a piece takes its support from the piece, and the
        # reports read none of its pair's coefficients: the loop solves the
        # lowest grid point alone, the sweep reads its optimum off its piece
        # too, and every pair still holds its piece and mu
        report = sweep_refined(instance4, F(8, 10), F(1), 64, 3)
        write_sweep_report(report, tmp_path / "r.json", {"d": 4, "steps": 64})
        sweep_report_csv(report)
        assert all(rec.pair.piece is not None for rec in report.records)
        assert all(rec.pair._alpha_plus is None for rec in report.records)


def labelled(instance, support) -> tuple:
    plus, minus = support
    return (
        frozenset(instance.plus_labels[i] for i in plus),
        frozenset(MINUS_LABELS[i] for i in minus),
    )


class TestSupportsReadOffPieces:
    """A record's support, read off its piece, is that of its pair's coefficients."""

    @pytest.mark.parametrize(
        "make, mu_lo",
        [(lambda d=d: build_instance(default_params(d), DEFAULT_STRETCH), F(8, 10)) for d in (3, 4, 5, 6)]
        + [(lambda: generate_2d_arc_instance(8), F(51, 100))],
        ids=["d3", "d4", "d5", "d6", "arc8"],
    )
    def test_every_record(self, make, mu_lo):
        instance = make()
        report = sweep_refined(instance, mu_lo, F(1), 128, 4)
        off_pieces = {rec.mu for rec in report.records if rec.pair.piece is not None}
        assert len(off_pieces) >= len(report.records) - 2
        for rec in report.records:
            assert rec.support == labelled(instance, coefficient_support(rec.pair))
        # at mu = 1 the minus point not at mu has a free coefficient of 0 (on
        # the arc a plus point too); the record, read off its piece, leaves it out
        top = report.records[0]
        assert top.mu == 1 and top.mu in off_pieces
        piece = path_pieces(instance, mu_lo, F(1))[-1]
        pair = piece.optimum(ReducedHullQP.from_instance(instance, F(1)))
        n_plus = len(instance.plus_points)
        coefficients = pair.alpha_plus + pair.alpha_minus
        vanished = [i for i in piece.free if coefficients[i] == 0]
        assert [i for i in vanished if i >= n_plus]
        assert piece.support(F(1)) == support_set(pair) == coefficient_support(pair)
        assert len(top.support_minus) == 1
        assert top.support == labelled(instance, piece.support(F(1)))


class TestPiecesMatchTheLoop:
    """sweep_refined, which walks the path from its warm starts, against the loop-only oracle."""

    @pytest.fixture
    def tally(self, monkeypatch):
        """Loop runs (calls of `qp._initial_point`) and `Piece.build` calls from now on."""
        counts = {"loops": 0, "built": 0}
        initial, build = qp_module._initial_point, Piece.build.__func__

        def started(qp, classes, n, start):
            counts["loops"] += 1
            return initial(qp, classes, n, start)

        def built(cls, table, working):
            counts["built"] += 1
            return build(cls, table, working)

        monkeypatch.setattr(qp_module, "_initial_point", started)
        monkeypatch.setattr(Piece, "build", classmethod(built))
        return counts

    def check(self, instance, tally, steps, depth):
        walk = path_pieces(instance, F(1, 2), F(1))
        tally.update(loops=0, built=0)
        report = sweep_refined(instance, F(1, 2), F(1), steps, depth)
        loops, built = tally["loops"], tally["built"]
        oracle = sweep_refined_oracle(instance, F(1, 2), F(1), steps, depth)
        # every pair's coefficients, built on first read from a piece's
        # integers, are the loop's
        assert report == oracle
        # the loop solves the lowest grid point alone: at mu = 1/2 both minus
        # coefficients sit at mu, the capped reference with gap 0 is freed,
        # and the walk starts from the piece of that working set; every other
        # record is read off the successor chain, whose pieces are each built once
        assert loops == 1
        assert built == len(walk)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("eps, gamma", [(F(1, 3), F(1, 16)), (F(3, 8), F(1, 15))])
    def test_constructed(self, tally, d, eps, gamma):
        instance = build_instance(GoldfarbParams(d, eps, gamma), DEFAULT_STRETCH)
        self.check(instance, tally, 128, 6)

    @pytest.mark.parametrize("n_plus", [8, 12])
    def test_arc(self, tally, n_plus):
        self.check(generate_2d_arc_instance(n_plus), tally, 128, 6)

    def test_small_instances(self, tally):
        # the 68 of the solver's 200 tiny instances that a sweep over [1/2, 1]
        # accepts: two minus points and at least two plus points, in one to
        # three dimensions, 14 of them with a repeated point
        swept = records = loops = 0
        for qp in small_instances(200):
            if len(qp.minus_points) != 2 or len(qp.plus_points) < 2:
                continue
            instance = SvmInstance(qp.plus_points, tuple(range(len(qp.plus_points))), qp.minus_points)
            tally.update(loops=0)
            report = sweep_refined(instance, F(1, 2), F(1), 9, 3)
            loops += tally["loops"]
            assert report == sweep_refined_oracle(instance, F(1, 2), F(1), 9, 3)
            swept += 1
            records += len(report.records)
        assert swept == 68
        # repeated and dependent points stop walks, so the loop runs more often
        # than once per sweep: for 253 of the 756 records, against 68 for one each
        assert (records, loops) == (756, 253)

    def test_walk_restarts_above_a_tie(self, tally):
        # the walk from the lowest grid point ends at a tie at mu = 2/3; above
        # it the hulls meet (objective 0), the optimum is not unique, and every
        # record there runs the loop from its warm start
        instance = SvmInstance(
            (Vec((3, -1)), Vec((1, 1)), Vec((1, -3)), Vec((2, 2))),
            (0, 1, 2, 3),
            (Vec((-2, 2)), Vec((3, 1))),
        )
        report = sweep_refined(instance, F(1, 2), F(1), 32, 4)
        loops = tally["loops"]
        assert report == sweep_refined_oracle(instance, F(1, 2), F(1), 32, 4)
        solved = [r for r in report.records if r.mu > F(2, 3) or r.mu == F(1, 2)]
        assert loops == len(solved) == 24

    def test_zero_gap_point_set_runs_the_loop_once(self, tally):
        # a free plus coefficient identically zero on the piece that covers
        # [1/2, 1]: the loop's answer at 1/2 frees it, so every other record of
        # a sweep at the command line's defaults is read off that piece's chain
        table = PointTable([(-2, 1, 0), (3, 3, 0), (3, 3, 1)], [(3, -3, 0), (-1, -3, 0)])
        instance = SvmInstance(table.plus_points, (0, 1, 2), table.minus_points)
        report = sweep_refined(instance, F(1, 2), F(1), 512, 6)
        assert (len(report.records), tally["loops"]) == (518, 1)
        assert report == sweep_refined_oracle(instance, F(1, 2), F(1), 512, 6)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_2d_arc_instance(12),
            lambda: build_instance(default_params(4), DEFAULT_STRETCH),
        ],
        ids=["arc12", "d4"],
    )
    def test_forced_walk_stop(self, tally, monkeypatch, make):
        # the walk meets a working set without a piece halfway up, so the loop
        # answers there and the walk restarts above it
        instance = make()
        walked = path_pieces(instance, F(51, 100), F(1))
        middle = walked[len(walked) // 2]
        blocked = (middle.at_lo, middle.at_hi)
        build = Piece.build.__func__

        def stub(cls, table, working):
            return None if working == blocked else build(cls, table, working)

        monkeypatch.setattr(Piece, "build", classmethod(stub))
        stopped = path_pieces(instance, F(51, 100), F(1))
        assert [(p.at_lo, p.at_hi) for p in stopped] == [
            (p.at_lo, p.at_hi) for p in walked[: len(walked) // 2]
        ]
        tally.update(loops=0)
        report = sweep_refined(instance, F(1, 2), F(1), 128, 6)
        loops = tally["loops"]
        assert report == sweep_refined_oracle(instance, F(1, 2), F(1), 128, 6)
        # more loop solves than the lowest grid point of an unbroken walk: the
        # loop answers there and at records in and just above the blocked piece
        assert loops > 2


class TestChainFromOneHalf:
    """The walk from mu = 1/2, where both minus coefficients sit at the cap, covers [1/2, 1]."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_constructed(self, d):
        params = default_params(d)
        instance = build_instance(params, choose_stretch(params))
        pieces = path_pieces(instance, F(1, 2), F(1))
        assert (len(pieces), pieces[0].lo, pieces[-1].hi) == (2 ** d - 2, F(1, 2), F(1))
        assert pieces[0].covers(F(1, 2)) and pieces[-1].covers(F(1))
        for piece, nxt in zip(pieces, pieces[1:]):
            assert piece.hi == nxt.lo
        # interior supports, read off each piece once it is built
        supports = [piece.support((piece.lo + piece.hi) / 2) for piece in pieces]
        assert sum(a != b for a, b in zip(supports, supports[1:])) == 2 ** d - 4
        assert len(set(supports)) == 2 ** (d - 1) - 1
        # each certificate's pair is the optimum of the piece that covers its mu
        for cert, _weights in certify_construction(instance):
            qp = ReducedHullQP.from_instance(instance, cert.mu)
            (piece, *_) = [p for p in pieces if p.covers(cert.mu)]
            assert piece.optimum(qp) == cert.pair

    @pytest.mark.parametrize("n_plus", [20, 60])
    def test_arc_reaches_one(self, n_plus):
        pieces = path_pieces(generate_2d_arc_instance(n_plus), F(1, 2), F(1))
        assert pieces and pieces[0].lo <= F(1, 2) and pieces[-1].covers(F(1))
