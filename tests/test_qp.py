import cProfile
import hashlib
import pstats
import random
import re
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEFAULT_STRETCH, candidate, default_params
from oracles import (
    coefficient_support,
    constructed_p,
    construction_reference,
    dot,
    duality_gap,
    enumerate_min_objective,
    kkt_check_reference,
    loop_start,
    mu_from_nu,
    multiplier_ranges_reference,
    norm_sq,
    pair_points,
    piece_reference,
    relaxed_facet_multiplier,
    replace,
    solve_reduced_distance_oracle,
    unique_optimum_oracle,
    unique_optimum_reference,
    vec_add,
    vec_sub,
    working_set,
)
from svmpath import qp as qp_module
from svmpath.construct import (
    StretchFactor,
    StrictnessError,
    SvmInstance,
    build_instance,
    choose_stretch,
    generate_2d_arc_instance,
    line_point,
    mu_of_q,
)
from svmpath.geometry import PointTable, Vec
from svmpath.goldfarb import GoldfarbParams, admissible_sign_vectors
from svmpath.kkt import CertificateError, OptimalPair, build_kkt_certificate, certify_construction
from svmpath.qp import (
    AT_HI,
    AT_LO,
    Piece,
    ReducedHullQP,
    SingularMatrixError,
    nu_from_mu,
    solve_linear_system,
    solve_linear_system_general,
    solve_linear_systems,
    solve_reduced_distance,
    support_set,
)
from svmpath.sweep import grid_values, path_pieces, sweep_grid, sweep_refined


# sha256 of the walks' (at_lo, at_hi, lo, hi, events) over [51/100, 1]
CHAINS = {
    3: "b1636a25aca2254ce20eee0dd033877f78eca31392909cb23df9956c899df8ff",
    4: "dc7ff39729584120111a31caedec9a8e7c9917443135277a0094c8e036ff3c74",
    5: "2d7fb1f2f51d961418f03c7cd6f671751db006ad7edce994a86dca135246c66a",
    6: "8603338edb51ceee6add31b627004d6022f3facfc170bbd5516e292933825fd0",
    7: "745c5e7c960ba843224c7aa4bf07d4fe005a6a828a04b8fa3eee1358efa54473",
    8: "1bd85a15b9508a4e94ecc9d7cf5360f960c6d4b38527d3ad24268f23a0b9759c",
}
ARC60_CHAIN = "b90c15c5dd1ce516ee2184ea581fd58e0c9602d63121fcd986e3c2ba1b541371"


def working_set_of(pair, mu) -> tuple:
    """`working_set` of a solved pair's coefficients, plus class first."""
    return working_set(pair.alpha_plus + pair.alpha_minus, mu)


def small_instances(count=200, seed=20260808):
    """Deterministic tiny instances: <= 3 points per class, dim <= 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        n_plus, n_minus = rng.randint(1, 3), rng.randint(1, 3)
        mu = rng.choice([F(1, 2), F(2, 3), F(1)])
        if mu < F(1, n_plus) or mu < F(1, n_minus):
            continue
        plus = [
            Vec(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
            for _ in range(n_plus)
        ]
        minus = [
            Vec(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
            for _ in range(n_minus)
        ]
        out.append(ReducedHullQP(PointTable(plus, minus), mu))
    return out


small_int = st.integers(-8, 8)
small_rational = st.fractions(min_value=-8, max_value=8, max_denominator=12)

# The solver properties draw nested lists through st.data(). Shrinking and
# explaining a failure there ran for minutes, so a broken solver showed as a
# stalled run; they report the first failing system as drawn.
solver_settings = settings(phases=(Phase.explicit, Phase.reuse, Phase.generate))


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


def exact(solution):
    """The Fractions y / det of an elimination's (y, det), or None for None."""
    if solution is None:
        return None
    y, det = solution
    assert type(det) is int and det > 0
    assert all(type(v) is int for v in y)
    return tuple(F(v, det) for v in y)


class TestSolveLinearSystem:
    def test_identity(self):
        A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert solve_linear_system(A, (1, -4, 0)) == ([1, -4, 0], 1)

    def test_diagonal(self):
        assert exact(solve_linear_system([[2, 0], [0, 4]], (1, 1))) == (F(1, 2), F(1, 4))

    def test_rank_deficient_signals_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system([[1, 1], [1, 1]], (1, 0))

    def test_singular_error_names_first_column_without_pivot(self):
        with pytest.raises(SingularMatrixError, match="no pivot in column 1"):
            solve_linear_system([[1, 2, 0], [2, 4, 0], [0, 0, 1]], (1, 2, 3))

    def test_empty_system(self):
        assert solve_linear_system([], ()) == ([], 1)

    def test_row_swap_and_negative_determinant(self):
        # the pivot search swaps the rows, and the determinant that scales the
        # integer back-substitution is negative
        assert exact(solve_linear_system([[0, -3], [2, 1]], (1, 1))) == (F(2, 3), F(-1, 3))

    @pytest.mark.parametrize(
        "A, b",
        [([[F(1, 2), 0], [0, 1]], (1, 1)), ([[1, 0], [0, 1]], (F(1, 2), 1)), ([[1.0]], (1,))],
        ids=["fraction-matrix", "fraction-rhs", "float-matrix"],
    )
    def test_non_integer_entry_raises(self, A, b):
        # the elimination divides exactly only on integers: nothing is scaled
        for solve in (solve_linear_system, solve_linear_system_general):
            with pytest.raises(TypeError, match="integer entries only"):
                solve(A, b)
        with pytest.raises(TypeError, match="integer entries only"):
            solve_linear_systems(A, [b])

    @settings(solver_settings, max_examples=60)
    @given(st.integers(1, 5), st.data())
    def test_residual_is_exactly_zero(self, n, data):
        A = data.draw(square(n))
        b = data.draw(st.lists(small_int, min_size=n, max_size=n))
        try:
            y, det = solve_linear_system(A, b)
        except SingularMatrixError:
            return
        assert det > 0
        for row, rhs in zip(A, b):
            assert sum(a * v for a, v in zip(row, y)) == det * rhs

    @settings(solver_settings, max_examples=40)
    @given(st.integers(2, 4), st.data())
    def test_duplicated_row_is_singular(self, n, data):
        A = data.draw(square(n))
        A[-1] = list(A[0])
        with pytest.raises(SingularMatrixError):
            solve_linear_system(A, [0] * (n - 1) + [1])


class TestSolveLinearSystems:
    @settings(solver_settings, max_examples=60)
    @given(st.integers(1, 5), st.data())
    def test_every_column_solved_exactly(self, n, data):
        A = data.draw(square(n))
        columns = data.draw(st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=1, max_size=3))
        try:
            numerators, det = solve_linear_systems(A, columns)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                solve_linear_system(A, columns[0])
            return
        # integer solutions over one positive determinant
        assert type(det) is int and det > 0
        assert all(type(v) is int for y in numerators for v in y)
        assert len(numerators) == len(columns)
        for y, b in zip(numerators, columns):
            for row, rhs in zip(A, b):
                assert sum(a * v for a, v in zip(row, y)) == det * rhs

    def test_wrong_column_length_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_linear_systems([[1, 0], [0, 1]], [(1, 2), (1, 2, 3)])


class TestSolveGeneral:
    # the library's flat-subproblem solve against the Fraction RREF in tests/oracles.py

    def test_zero_column_row_swap_and_negative_pivot(self):
        # column 0 has no pivot, column 1 pivots on -2 after a row swap, and
        # column 2 repeats column 1 times -2: the solution is zero off column 1
        A = [[0, 0, 0], [0, -2, 4], [0, 1, -2]]
        assert exact(solve_linear_system_general(A, [0, 2, -1])) == (0, -1, 0)
        assert solve_linear_system_general(A, [1, 2, -1]) is None

    def test_inconsistent_returns_none(self):
        assert solve_linear_system_general([[1, 1], [1, 1]], [1, 0]) is None

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_linear_system_general([[1, 1]], [1])

    @settings(solver_settings, max_examples=60)
    @given(st.integers(1, 5), st.integers(0, 5), st.data())
    def test_matches_reference_particular_solution(self, n, rank, data):
        # A = U V has rank at most `rank`; zeroed rows of U force row swaps and
        # zeroed columns of A have no pivot. Each A is solved for a consistent
        # right-hand side A x and for a free one, mostly inconsistent.
        rank = min(rank, n)
        U = data.draw(st.lists(st.lists(small_int, min_size=rank, max_size=rank), min_size=n, max_size=n))
        V = data.draw(st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=rank, max_size=rank))
        for i in data.draw(st.sets(st.integers(0, n - 1))):
            U[i] = [0] * rank
        A = [[sum(u[k] * V[k][j] for k in range(rank)) for j in range(n)] for u in U]
        for j in data.draw(st.sets(st.integers(0, n - 1))):
            for row in A:
                row[j] = 0
        x = data.draw(st.lists(small_int, min_size=n, max_size=n))
        consistent = [sum(a * v for a, v in zip(row, x)) for row in A]
        for b in (consistent, data.draw(st.lists(small_int, min_size=n, max_size=n))):
            reference = oracles.solve_rref(A, b)
            got = exact(solve_linear_system_general(A, b))
            assert got == (None if reference is None else tuple(reference[0]))

    def test_underdetermined_particular_and_nullspace(self):
        # the rectangular solve with a nullspace basis is the oracle's alone
        sol = oracles.solve_rref([[1, 1]], [1])
        assert sol is not None
        particular, basis = sol
        assert sum(particular) == 1
        assert len(basis) == 1

    @settings(max_examples=40)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_solutions_satisfy_system(self, m, n, data):
        A = data.draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=m, max_size=m))
        b = data.draw(st.lists(small_rational, min_size=m, max_size=m))
        sol = oracles.solve_rref(A, b)
        if sol is None:
            return
        particular, basis = sol
        for vec in [particular] + [[p + nv for p, nv in zip(particular, nb)] for nb in basis]:
            for row, rhs in zip(A, b):
                assert sum((a * v for a, v in zip(row, vec)), F(0)) == rhs


class TestSolver:
    def test_single_point_classes(self):
        qp = ReducedHullQP(PointTable([Vec((1, 2))], [Vec((0, 0))]), F(1))
        sol = solve_reduced_distance(qp)
        assert sol.alpha_plus == (1,) and sol.alpha_minus == (1,)
        assert sol.objective == 5

    def test_parallel_segments(self):
        qp = ReducedHullQP(
            PointTable([Vec((0, 1)), Vec((2, 1))], [Vec((0, 0)), Vec((2, 0))]), F(1)
        )
        sol = solve_reduced_distance(qp)
        assert sol.objective == 1
        assert vec_sub(*pair_points(qp, sol)) == Vec((0, 1))

    def test_oracle_equivalence_on_deterministic_instances(self):
        for qp in small_instances(60):
            sol = solve_reduced_distance(qp)
            assert sol.objective == enumerate_min_objective(
                qp.plus_points, qp.minus_points, qp.mu
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 2),
        st.data(),
        st.sampled_from([F(1, 2), F(2, 3), F(1)]),
    )
    def test_oracle_equivalence_on_random_instances(self, dim, data, mu):
        coord = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        point = st.lists(coord, min_size=dim, max_size=dim).map(Vec)
        low = 1 if mu == 1 else 2  # class size must keep the reduced hull nonempty
        plus = data.draw(st.lists(point, min_size=low, max_size=3))
        minus = data.draw(st.lists(point, min_size=low, max_size=3))
        qp = ReducedHullQP(PointTable(plus, minus), mu)
        sol = solve_reduced_distance(qp)
        assert kkt_check_reference(qp, sol)
        assert sol.objective == enumerate_min_objective(plus, minus, mu)

    def test_objective_monotone_in_mu(self):
        inst = generate_2d_arc_instance(8)
        values = []
        for mu in (F(1, 2), F(3, 5), F(7, 10), F(4, 5), F(9, 10), F(1)):
            qp = ReducedHullQP.from_instance(inst, mu)
            values.append(solve_reduced_distance(qp).objective)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_mu_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ReducedHullQP(PointTable([Vec((0,)), Vec((1,))], [Vec((2,))]), F(1, 3))
        with pytest.raises(ValueError):
            ReducedHullQP(PointTable([Vec((0,))], [Vec((2,))]), F(3, 2))

    def test_warm_start_matches_cold_start(self):
        inst = generate_2d_arc_instance(10)
        cold_prev = solve_reduced_distance(ReducedHullQP.from_instance(inst, F(3, 4)))
        qp = ReducedHullQP.from_instance(inst, F(4, 5))
        cold = solve_reduced_distance(qp)
        warm = solve_reduced_distance(qp, start=cold_prev)
        assert warm.objective == cold.objective

    def test_constructed_breakpoints_reproduce_exactly(self, params4, instance4, constructions4):
        for pair, _ in constructions4:
            mu = mu_of_q(pair.q[-1], instance4.calibration)
            qp = ReducedHullQP.from_instance(instance4, mu)
            sol = solve_reduced_distance(qp)
            p = constructed_p(params4, pair.sigma, DEFAULT_STRETCH.factor)
            assert pair_points(qp, sol) == (p, pair.q)
            assert sol.objective == norm_sq(vec_sub(p, pair.q))


class TestSolverMatchesPointSpaceLoop:
    """The Gram-matrix core against the old point-space loop in tests/oracles.py.

    Both must return the same OptimalPair and make the same calls to each
    linear solver, so they take the same steps and pivots.
    """

    @pytest.fixture
    def both(self, monkeypatch):
        counts = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                counts[module.__name__, name] = counts.get((module.__name__, name), 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module in (qp_module, oracles):
            counted(module, "solve_linear_system")
            counted(module, "solve_linear_system_general")

        def solve(qp, start=None):
            if start is not None:
                start = loop_start(start)
            counts.clear()
            sol = solve_reduced_distance(qp, start=start)
            assert sol == solve_reduced_distance_oracle(qp, start=start)
            for name in ("solve_linear_system", "solve_linear_system_general"):
                assert counts.get(("svmpath.qp", name)) == counts.get(("oracles", name)), name
            return sol, counts.get(("svmpath.qp", "solve_linear_system_general"), 0)

        return solve

    def test_small_instances_cold_and_warm(self, both):
        mus = [F(1, 2), F(2, 3), F(1)]
        warm = 0
        for qp in small_instances(200):
            cold, _ = both(qp)
            k = mus.index(qp.mu)
            # the next smaller mu gives a start feasible here; for mu = 1/2 the
            # larger neighbour's start may not be, which tests the cold fallback
            other = mus[k - 1] if k else mus[1]
            if other < F(1, len(qp.plus_points)) or other < F(1, len(qp.minus_points)):
                continue
            start, _ = both(ReducedHullQP(qp.table, other))
            assert both(qp, start)[0].objective == cold.objective
            warm += other < qp.mu
        assert warm > 50

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_constructed_grid(self, both, d):
        instance = build_instance(default_params(d), DEFAULT_STRETCH)
        warm = None
        for mu in grid_values(F(8, 10), F(1), 16):
            qp = ReducedHullQP.from_instance(instance, mu)
            both(qp)
            warm, _ = both(qp, warm)

    def test_arc_hits_the_singular_fallback(self, both):
        instance = generate_2d_arc_instance(10)
        fallbacks = 0
        warm = None
        for mu in grid_values(F(51, 100), F(1), 64):
            qp = ReducedHullQP.from_instance(instance, mu)
            both(qp)
            warm, n_general = both(qp, warm)
            fallbacks += n_general
        assert fallbacks > 0


def base_slope(piece) -> tuple:
    """(base, slope): (x_F, lam_+, lam_-) at mu = 0 and its mu-coefficients, as Fractions.

    Read off the piece's integers: each free coefficient (A + mu B) / C, each
    class multiplier R0 / D0 + mu R1 / D1.
    """
    lams = piece._lams
    return (
        tuple([F(A, C) for A, _B, C in piece.alphas] + [F(R0, D0) for R0, D0, _R1, _D1 in lams]),
        tuple([F(B, C) for _A, B, C in piece.alphas] + [F(R1, D1) for _R0, _D0, R1, D1 in lams]),
    )


def piece_events(piece, qp) -> dict:
    """mu in [1/2, 1] -> kinds of the constraints the piece's optimum meets there.

    "free" where a free coefficient reaches 0 or mu; "lo" or "hi" where the
    gradient of a coefficient at 0 or at mu meets its class multiplier. The
    gradients come from Fraction points, and the multiplier of a class is the
    gradient of one of its free coefficients, not the piece's own lam.
    """
    signed = list(qp.plus_points) + [-v for v in qp.minus_points]
    n_plus = len(qp.plus_points)

    def gaps(mu):
        x = [F(0)] * len(signed)
        for h in piece.at_hi:
            x[h] = mu
        for i, b, s in zip(piece.free, *base_slope(piece)):
            x[i] = b + mu * s
        w = vec_add(*[s * a for a, s in zip(x, signed)])
        grads = [dot(s, w) for s in signed]
        lam = [grads[min(i for i in piece.free if (i >= n_plus) == c)] for c in (False, True)]
        return {k: grads[k] - lam[k >= n_plus] for k in piece.at_lo + piece.at_hi}

    roots = []
    base, slope = base_slope(piece)
    for b, s in zip(base[: len(piece.free)], slope):
        if s:
            roots.append((-b / s, "free"))
        if s != 1:
            roots.append((b / (1 - s), "free"))
    at_0, at_1 = gaps(F(0)), gaps(F(1))
    for k, g in at_0.items():
        if at_1[k] != g:
            roots.append((-g / (at_1[k] - g), "lo" if k in piece.at_lo else "hi"))
    events = {}
    for mu, kind in roots:
        if F(1, 2) <= mu <= 1:
            events.setdefault(mu, set()).add(kind)
    return events


class TestPiece:
    """Piece.optimum on each side of the piece's interval, against the loop."""

    @staticmethod
    def valid_pieces(instance, steps):
        """(mu, piece) for each working set of a grid sweep that has a piece."""
        out = {}
        for rec in sweep_grid(instance, F(1, 2), F(1), steps).records:
            working = working_set_of(rec.pair, rec.mu)
            if working not in out:
                qp = ReducedHullQP.from_instance(instance, rec.mu)
                piece = Piece.build(qp.table, working)
                out[working] = piece and (rec.mu, piece)
                if piece:
                    assert piece.optimum(qp) == rec.pair
        return [case for case in out.values() if case]

    @pytest.fixture(scope="class")
    def limits(self, instance4):
        """Each piece's nearest event below and above its record, with the next stop beyond.

        Both sides of every piece of a d=4 constructed sweep and of the 8-point
        arc, each as (instance, piece, record mu, event mu, kinds, beyond).
        """
        out = []
        for instance in (instance4, generate_2d_arc_instance(8)):
            for mu_r, piece in self.valid_pieces(instance, 32):
                events = piece_events(piece, ReducedHullQP.from_instance(instance, mu_r))
                stops = sorted(set(events) | {F(1, 2), F(1)})
                below = [m for m in stops if m < mu_r]
                above = [m for m in stops if m > mu_r]
                for side in (below[::-1], above):
                    if side and side[0] in events:
                        beyond = side[1] if len(side) > 1 else None
                        out.append((instance, piece, mu_r, side[0], events[side[0]], beyond))
        return out

    @staticmethod
    def at(instance, mu):
        return ReducedHullQP.from_instance(instance, mu)

    def test_free_coefficient_leaving_its_bounds_is_refused(self, limits):
        seen = 0
        for instance, piece, _mu_r, mu, kinds, beyond in limits:
            if kinds != {"free"}:
                continue
            # at the breakpoint the coefficient touches 0 or mu: still the optimum
            qp = self.at(instance, mu)
            assert piece.optimum(qp) == solve_reduced_distance(qp)
            if beyond is not None:
                assert piece.optimum(self.at(instance, (mu + beyond) / 2)) is None
                seen += 1
        assert seen >= 5

    def test_support_is_that_of_the_coefficients(self, limits):
        # inside each piece and at each end where a free bound binds; at an
        # end where a free coefficient reaches 0 the support leaves it out
        vanished = 0
        for instance, piece, mu_r, mu, kinds, _beyond in limits:
            for at in (mu_r, mu) if kinds == {"free"} else (mu_r,):
                pair = piece.optimum(self.at(instance, at))
                assert piece.support(at) == support_set(pair) == coefficient_support(pair)
                coefficients = pair.alpha_plus + pair.alpha_minus
                vanished += any(coefficients[i] == 0 for i in piece.free)
        assert vanished >= 2

    @pytest.mark.parametrize("kind", ["lo", "hi"])
    def test_breakpoint_where_a_bound_gradient_meets_its_multiplier_is_refused(
        self, limits, kind
    ):
        seen = 0
        for instance, piece, mu_r, mu, kinds, _beyond in limits:
            if kind not in kinds:
                continue
            assert piece.optimum(self.at(instance, mu)) is None
            inside = self.at(instance, (mu_r + mu) / 2)
            assert piece.optimum(inside) == solve_reduced_distance(inside)
            seen += 1
        assert seen >= 2

    @pytest.mark.parametrize(
        "make",
        [lambda d=d: build_instance(default_params(d), DEFAULT_STRETCH) for d in (3, 4, 5)]
        + [lambda n=n: generate_2d_arc_instance(n) for n in (8, 12)],
        ids=["d3", "d4", "d5", "arc8", "arc12"],
    )
    def test_interval_ends_are_the_nearest_events(self, make):
        # every piece of a walk over [51/100, 1] against the Fraction-point oracle
        instance = make()
        qp = self.at(instance, F(1))
        pieces = path_pieces(instance, F(51, 100), F(1))
        assert pieces[0].covers(F(51, 100)) and pieces[-1].covers(F(1))
        for piece, nxt in zip(pieces, pieces[1:]):
            assert piece.hi == nxt.lo and (piece.hi_closed or nxt.lo_closed)
            assert len(piece.events) == 1
        for piece in pieces:
            self.check_interval(piece, qp)
        # the walk pivots at events of all three kinds
        seen = {kind for piece in pieces[:-1] for kind in piece_events(piece, qp)[piece.hi]}
        assert seen == {"free", "lo", "hi"}

    def test_interval_ends_on_small_instances(self):
        # walks on the solver's tiny instances stop often, many at tied events
        swept = walked = ties = 0
        for small in small_instances(200):
            if len(small.plus_points) < 2 or len(small.minus_points) < 2:
                continue
            swept += 1
            instance = SvmInstance(small.plus_points, (), small.minus_points)
            qp = self.at(instance, F(1))
            for piece in path_pieces(instance, F(51, 100), F(1)):
                self.check_interval(piece, qp)
                walked += 1
                ties += len(piece.events) > 1
        # 230 pieces on 148 walks: 70 reach mu = 1, 37 end at a tie below it,
        # and 41 find no piece at 51/100; 48 pieces end at a tie
        assert swept == 148 and walked > swept and ties > 0

    @staticmethod
    def check_interval(piece, qp):
        events = piece_events(piece, qp)
        lo, hi = piece.lo, piece.hi
        assert lo is None or hi is None or lo < hi
        # no condition changes sign inside the interval
        assert not [mu for mu in events if (lo is None or lo < mu) and (hi is None or mu < hi)]
        # each end inside [1/2, 1] is an event; free-coefficient ends are closed
        for end, closed in ((lo, piece.lo_closed), (hi, piece.hi_closed)):
            if end is not None and F(1, 2) <= end <= 1:
                assert closed == (events[end] == {"free"})
        if hi is not None and hi <= 1:
            kinds = {
                "free" if state is not None else "lo" if k in piece.at_lo else "hi"
                for k, state in piece.events
            }
            assert kinds == events[hi]

    def test_tied_events_stop_the_walk(self):
        # at mu = 2/3 a plus coefficient reaches 0 while three bound gradients
        # meet their multipliers
        instance = SvmInstance(
            (Vec((3, -1)), Vec((1, 1)), Vec((1, -3)), Vec((2, 2))), (), (Vec((-2, 2)), Vec((3, 1)))
        )
        (piece,) = path_pieces(instance, F(51, 100), F(1))
        assert piece.hi == F(2, 3) and not piece.hi_closed
        events = sorted(piece.events, key=lambda event: event[0])
        assert events == [(0, None), (1, None), (2, AT_LO), (5, None)]
        assert piece.successor() is None

    def test_tie_at_the_lower_end_opens_it(self):
        # at mu = 1/2 a free coefficient reaches mu as a capped coefficient's
        # gradient meets its multiplier: the end is open
        instance = SvmInstance((Vec((3, -3)), Vec((1, 1))), (), (Vec((0, -2)), Vec((0, 0))))
        qp = self.at(instance, F(11, 20))
        piece = Piece.build(qp.table, working_set_of(solve_reduced_distance(qp), qp.mu))
        assert piece.lo == F(1, 2) and not piece.lo_closed
        assert piece_events(piece, qp)[piece.lo] == {"free", "hi"}
        self.check_interval(piece, qp)
        assert piece.optimum(self.at(instance, F(1, 2))) is None

    def test_dependent_free_differences_get_no_piece(self):
        qp = ReducedHullQP.from_instance(generate_2d_arc_instance(8), F(1, 2))
        # arc points 0, 1, 2 and both line points free: three differences in the plane
        assert Piece.build(qp.table, ((3, 4, 5, 6, 7), ())) is None
        # arc points 0, 1 and both line points: two independent differences
        assert Piece.build(qp.table, ((2, 3, 4, 5, 6, 7), ())) is not None

    def test_class_without_free_coefficient_gets_no_piece(self):
        qp = ReducedHullQP.from_instance(generate_2d_arc_instance(8), F(1, 2))
        assert Piece.build(qp.table, ((2, 3, 4, 5, 6, 7, 9), (8,))) is None
        assert Piece.build(qp.table, ((2, 3, 4, 5, 6, 7), (0, 1))) is None

    def test_other_point_set_refused(self, instance4):
        qp = ReducedHullQP.from_instance(generate_2d_arc_instance(8), F(1, 2))
        piece = Piece.build(qp.table, ((2, 3, 4, 5, 6, 7), ()))
        with pytest.raises(ValueError, match="another point set"):
            piece.optimum(ReducedHullQP.from_instance(instance4, F(1, 2)))
        # equal points in another table are another point set too
        with pytest.raises(ValueError, match="another point set"):
            piece.optimum(ReducedHullQP(PointTable(qp.plus_points, qp.minus_points), F(1, 2)))

    def test_lazy_pairs_equal_the_eager_reference(self, instance4):
        # the piece's pair builds its coefficients on first read, and the
        # piece's pair and the loop's compare, hash and print as the
        # reference solver's pair, whose coefficients are given eagerly
        cases = self.valid_pieces(instance4, 32)
        assert cases
        for mu, piece in cases:
            qp = self.at(instance4, mu)
            eager = solve_reduced_distance_oracle(qp)
            for fresh in (piece.optimum(qp), solve_reduced_distance(qp)):
                assert fresh == eager and eager == fresh and hash(fresh) == hash(eager)
            assert repr(piece.optimum(qp)) == repr(solve_reduced_distance(qp)) == repr(eager)
            assert len({piece.optimum(qp), solve_reduced_distance(qp), eager}) == 1
        lazy = piece.optimum(qp)
        with pytest.raises(AttributeError):
            lazy.alpha_plus = eager.alpha_plus
        with pytest.raises(AttributeError):
            lazy.objective = F(0)
        assert lazy != (lazy.alpha_plus, lazy.alpha_minus, lazy.objective)


class TestWalk:
    """A warm start read off a piece walks the successor chain before any loop runs."""

    @staticmethod
    def count_builds(monkeypatch, stub=None) -> list:
        """From now on, the working set of each Piece.build, built by `stub` if given."""
        calls, build = [], Piece.build.__func__

        def counted(cls, table, working):
            calls.append(working)
            return (stub or build)(cls, table, working)

        monkeypatch.setattr(Piece, "build", classmethod(counted))
        return calls

    def test_start_walks_up_several_pieces_without_the_loop(self, instance4, monkeypatch):
        pieces = path_pieces(instance4, F(51, 100), F(1))
        assert len(pieces) == 14
        first, target = pieces[0], pieces[4]
        start = first.optimum(ReducedHullQP.from_instance(instance4, F(51, 100)))
        mu = (target.lo + target.hi) / 2
        cold = solve_reduced_distance(ReducedHullQP.from_instance(instance4, mu))

        def refuse(*args):
            raise AssertionError("the loop ran")

        for name in ("solve_linear_system", "solve_linear_system_general", "_finish"):
            monkeypatch.setattr(qp_module, name, refuse)
        builds = self.count_builds(monkeypatch)
        pair = solve_reduced_distance(ReducedHullQP.from_instance(instance4, mu), start=start)
        # path_pieces built the chain, so the walk builds nothing
        assert builds == []
        assert pair.piece is target and pair.mu == mu
        assert pair == cold
        # at the upper end of a piece that is open there, the successor answers
        ends = [p for p in pieces[:-1] if not p.hi_closed]
        assert ends
        top = solve_reduced_distance(ReducedHullQP.from_instance(instance4, ends[0].hi), start=start)
        assert top.piece is pieces[pieces.index(ends[0]) + 1]

    def test_successor_is_built_once(self, instance4, monkeypatch):
        pieces = path_pieces(instance4, F(51, 100), F(1))
        working = [(p.at_lo, p.at_hi) for p in pieces[:2]]
        builds = self.count_builds(monkeypatch)
        fresh = Piece.build(instance4.table, working[0])
        nxt = fresh.successor()
        assert fresh.successor() is nxt and (nxt.at_lo, nxt.at_hi) == working[1]
        assert builds == working
        # a successor that is None is kept as well: here its working set gets no piece
        fresh = Piece.build(instance4.table, working[0])
        builds = self.count_builds(monkeypatch, stub=lambda cls, table, working: None)
        assert fresh.successor() is None and fresh.successor() is None
        assert builds == [working[1]]

    @pytest.mark.parametrize("where", ["single-point", "gap", "overlap"])
    def test_successor_that_does_not_abut_is_refused(self, instance4, monkeypatch, where):
        # the candidate's interval is the single point [hi, hi], which does not
        # reach above hi, or it reaches above hi but starts above it (a gap) or
        # below it (an overlap); the walk stops there
        pieces = path_pieces(instance4, F(51, 100), F(1))
        working = (pieces[0].at_lo, pieces[0].at_hi)
        build = Piece.build.__func__

        def moved(cls, table, working):
            piece = build(cls, table, working)
            assert piece.lo == hi < piece.hi
            if where == "single-point":
                piece.hi = hi
            else:
                piece.lo = (hi + piece.hi) / 2 if where == "gap" else pieces[0].lo
            return piece

        fresh = Piece.build(instance4.table, working)
        hi = fresh.hi
        assert hi is not None and len(fresh.events) == 1
        nxt = fresh.successor()
        assert (nxt.at_lo, nxt.at_hi, nxt.lo) == (pieces[1].at_lo, pieces[1].at_hi, hi)
        fresh = Piece.build(instance4.table, working)
        self.count_builds(monkeypatch, stub=moved)
        assert fresh.successor() is None

    @staticmethod
    def count_loops(monkeypatch) -> tuple:
        """From now on, the problem of each loop run (`_initial_point`), and each pair `_finish` builds."""
        starts, finished = [], []
        initial, finish = qp_module._initial_point, qp_module._finish

        def started(qp, *args):
            starts.append(qp)
            return initial(qp, *args)

        def counted(*args):
            finished.append(finish(*args))
            return finished[-1]

        monkeypatch.setattr(qp_module, "_initial_point", started)
        monkeypatch.setattr(qp_module, "_finish", counted)
        return starts, finished

    def test_start_off_another_point_set_runs_the_loop(self, instance4, monkeypatch):
        arc = generate_2d_arc_instance(8)
        # both have ten points, so the coefficients would fit as a warm start
        assert len(arc.table.nums) == len(instance4.table.nums)
        (arc_piece, *_) = path_pieces(arc, F(51, 100), F(1))
        start = arc_piece.optimum(ReducedHullQP.from_instance(arc, F(51, 100)))
        piece = path_pieces(instance4, F(51, 100), F(1))[3]
        mu = (piece.lo + piece.hi) / 2
        qp = ReducedHullQP.from_instance(instance4, mu)
        loops, _finished = self.count_loops(monkeypatch)
        pair = solve_reduced_distance(qp, start=start)
        # the loop ran, and its answer was read off a piece of the query's table
        assert len(loops) == 1 and pair.piece.table is instance4.table
        assert pair == solve_reduced_distance(qp) == solve_reduced_distance_oracle(qp)
        # a table of equal points is another point set too
        own = PointTable(instance4.plus_points, instance4.minus_points)
        start = piece.optimum(qp)
        loops.clear()
        pair = solve_reduced_distance(ReducedHullQP(own, mu), start=start)
        assert len(loops) == 1 and pair.piece.table is own and pair == start

    def test_loop_answer_carries_the_piece_that_covers_mu(self, monkeypatch):
        # cold solves on the tiny instances and at 51/100 and 1/2 on the constructions
        constructions = [build_instance(default_params(d), DEFAULT_STRETCH) for d in range(3, 9)]
        qps = small_instances(200) + [
            ReducedHullQP.from_instance(instance, mu)
            for mu in (F(51, 100), F(1, 2)) for instance in constructions
        ]
        loops, finished = self.count_loops(monkeypatch)
        builds = self.count_builds(monkeypatch)
        kinds, carried = set(), 0
        for qp in qps:
            for calls in (loops, finished, builds):
                calls.clear()
            answer = solve_reduced_distance(qp)
            assert answer == solve_reduced_distance_oracle(qp)
            assert answer.objective == norm_sq(vec_sub(*pair_points(qp, answer)))
            # a cold solve walks no chain: the one build is of the working set the
            # loop proved, which is strictly complementary at the answer
            (working,) = builds
            assert len(loops) == 1 and proves_strictly(qp, answer, working)
            piece = Piece.build(qp.table, working)
            kinds.add("none" if piece is None else "covers")
            # a piece exactly when that working set's normal equations are
            # nonsingular, and then it covers mu and its optimum is the answer;
            # only where none exists does `_finish` run
            assert (answer.piece is not None) == (piece is not None)
            if piece is None:
                assert len(finished) == 1 and answer is finished[0]
            else:
                assert piece.covers(qp.mu)
                assert (answer.piece.at_lo, answer.piece.at_hi) == working
                assert answer.piece.table is qp.table and answer.mu == qp.mu
                assert finished == []
                carried += 1
        assert kinds == {"none", "covers"}
        # 160 of the 212 answers carry a piece
        assert (len(qps), carried) == (212, 160)

    @pytest.mark.parametrize("mu", [F(1, 2), F(3, 4)])
    def test_zero_gap_coefficients_stay_free(self, monkeypatch, mu):
        # the point set of `TestPieceReadOff`'s identically zero coefficient: the
        # loop ends with plus point 2 bound at 0 with gap 0 (at 1/2 every
        # coefficient is bound, both classes' references at mu), so its answer
        # frees it and reads the optimum off the piece that covers [1/2, 1]
        table = PointTable([(-2, 1, 0), (3, 3, 0), (3, 3, 1)], [(3, -3, 0), (-1, -3, 0)])
        qp = ReducedHullQP(table, mu)
        _loops, finished = self.count_loops(monkeypatch)
        answer = solve_reduced_distance(qp)
        assert finished == [] and (answer.piece.at_lo, answer.piece.at_hi) == ((), (0, 4))
        assert (answer.piece.lo, answer.piece.hi) == (F(1, 2), F(1))
        assert answer == solve_reduced_distance_oracle(qp)


def proves_strictly(qp, pair, working) -> bool:
    """Whether `working` = (at_lo, at_hi) is the strictly complementary working set of the optimum `pair`.

    From the Fraction gradients of `multiplier_ranges_reference`: both tuples
    are sorted, in each class the free coefficients share one gradient lam, and
    each coefficient in at_lo is 0 with its gradient strictly above lam, each
    in at_hi mu with its gradient strictly below.
    """
    at_lo, at_hi = working
    if list(at_lo) != sorted(at_lo) or list(at_hi) != sorted(at_hi):
        return False
    x = pair.alpha_plus + pair.alpha_minus
    grads = [g for _signed, class_grads, _lo, _hi in multiplier_ranges_reference(qp, pair) for g in class_grads]
    n_plus = len(qp.plus_points)
    for cls in (range(n_plus), range(n_plus, len(x))):
        free = [k for k in cls if k not in at_lo and k not in at_hi]
        if not free or any(grads[k] != grads[free[0]] for k in free):
            return False
        lam = grads[free[0]]
        if any(x[k] != 0 or grads[k] <= lam for k in cls if k in at_lo):
            return False
        if any(x[k] != qp.mu or grads[k] >= lam for k in cls if k in at_hi):
            return False
    return True


def signed_vecs(table) -> list:
    return list(table.plus_points) + [-v for v in table.minus_points]


class TestPointTable:
    """The instance's point table against Fraction vector arithmetic."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_2d_arc_instance(60),
            lambda: build_instance(default_params(5), DEFAULT_STRETCH),
        ],
        ids=["arc60", "d5"],
    )
    def test_entries_are_fraction_dot_products(self, make):
        table = make().table
        signed = signed_vecs(table)
        n, n_plus = len(signed), len(table.plus_points)
        for k, s in enumerate(signed):
            assert Vec(table.nums[k]) * F(1, table.dens[k]) == s
        rng = random.Random(n)
        x = [F(rng.randint(0, 5), rng.randint(1, 7)) for _ in range(n)]
        W, den = table.cleared_sum(enumerate(x))
        w = vec_add(*[s * v for s, v in zip(signed, x)])
        assert Vec(F(c, den) for c in W) == w
        # every third point of each class free, the first of them its reference
        free_by_class = [list(range(0, n_plus, 3)), list(range(n_plus, n, 3))]
        directions, scales, diffs, normal, (rhs,) = qp_module._normal_equations(
            table, free_by_class, [W]
        )
        assert directions == [(i, free[0]) for free in free_by_class for i in free[1:]]
        vecs = [vec_sub(signed[i], signed[r]) for i, r in directions]
        for c, u, v in zip(scales, diffs, vecs):
            assert type(c) is int and c > 0 and all(type(e) is int for e in u)
            assert Vec(u) * F(1, c) == v
        # N = (u_a . u_b) and rhs = -u_a . W, with u_a = c_a (s_i - s_r) and W = den w
        assert all(type(e) is int for row in normal for e in row + rhs)
        assert normal == [[dot(a, b) * ca * cb for b, cb in zip(vecs, scales)] for a, ca in zip(vecs, scales)]
        assert rhs == [-dot(a, w) * c * den for a, c in zip(vecs, scales)]

    def test_built_once_and_outside_equality(self, instance4):
        assert instance4.table is instance4.table
        assert ReducedHullQP.from_instance(instance4, F(1)).table is instance4.table
        copy = replace(instance4)
        assert copy == instance4 and hash(copy) == hash(instance4)
        assert copy.table is not instance4.table

    def test_interleaved_instances_match_fresh_solves(self, instance4):
        """Solves and pieces of two instances alternate in one process.

        Each record must equal a solve on a freshly built table, and each
        piece's optimum that answer. The next solve of an instance starts
        from the pair read off its piece, where there is one.
        """
        instances = (instance4, generate_2d_arc_instance(10))
        warm = {}
        hits = 0
        for mu in grid_values(F(1, 2), F(1), 24):
            for inst in instances:
                qp = ReducedHullQP.from_instance(inst, mu)
                sol = solve_reduced_distance(qp, start=warm.get(id(inst)))
                own = PointTable(inst.plus_points, inst.minus_points)
                fresh = solve_reduced_distance(ReducedHullQP(own, mu))
                assert sol == fresh
                piece = Piece.build(qp.table, working_set_of(sol, mu))
                if piece is not None and piece.covers(mu):
                    sol = piece.optimum(qp)
                    assert sol == fresh
                    hits += 1
                warm[id(inst)] = sol
        assert hits > 0


class TestTableMatchesFractionReference:
    """The pieces' and certificates' table arithmetic against the Fraction-Vec references."""

    def test_small_instances(self):
        # where the piece of the solver output's working set covers mu, the
        # output passes the reference checks and the piece's multipliers lie
        # in the reference ranges
        verdicts = set()
        for qp in small_instances(200):
            sol = solve_reduced_distance(qp)
            assert kkt_check_reference(qp, sol)
            piece = Piece.build(qp.table, working_set_of(sol, qp.mu))
            covered = piece is not None and piece.covers(qp.mu)
            verdicts.add(covered)
            if not covered:
                continue
            assert unique_optimum_reference(qp, sol)
            m = len(piece.free)
            base, slope = base_slope(piece)
            for c, (_signed, _grads, lo, hi) in enumerate(multiplier_ranges_reference(qp, sol)):
                lam = 2 * (base[m + c] + qp.mu * slope[m + c])
                assert lo <= lam and (hi is None or lam <= hi)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_every_certificate(self, d):
        params = default_params(d)
        instance = build_instance(params, DEFAULT_STRETCH)
        for cert, _weights in certify_construction(instance):
            qp = ReducedHullQP.from_instance(instance, cert.mu)
            assert kkt_check_reference(qp, cert.pair)
            assert unique_optimum_reference(qp, cert.pair)
            (_signed, _grads, lo, hi), _minus = multiplier_ranges_reference(qp, cert.pair)
            assert lo == hi == -cert.facet_multiplier


def piece_objective(piece, mu) -> F:
    """||w||^2 at mu from the piece's integer objective coefficients (A + B mu + C mu^2) / D."""
    A, B, C, D = piece.objective
    return (A + B * mu + C * mu * mu) / D


def chain_digest(pieces) -> str:
    return hashlib.sha256(
        repr([(p.at_lo, p.at_hi, p.lo, p.hi, p.events) for p in pieces]).encode()
    ).hexdigest()


class TestPieceMatchesFractionReference:
    """Every field of `Piece.build`'s integer piece against `oracles.piece_reference`."""

    @staticmethod
    def check(table, working):
        piece, ref = Piece.build(table, working), piece_reference(table, working)
        assert (piece is None) == (ref is None)
        if piece is None:
            return None
        m = len(piece.free)
        assert piece.free == ref.free
        assert [(F(A, C), F(B, C)) for A, B, C in piece.alphas] == list(zip(ref.base[:m], ref.slope[:m]))
        assert base_slope(piece) == (ref.base, ref.slope)
        assert (piece.lo, piece.hi, piece.lo_closed, piece.hi_closed) == (
            ref.lo, ref.hi, ref.lo_closed, ref.hi_closed
        )
        assert piece.events == ref.events
        # the objective at the finite ends and between them, or one unit into a half-line
        if ref.lo is not None and ref.hi is not None:
            mus = [ref.lo, ref.hi, (ref.lo + ref.hi) / 2]
        elif ref.lo is not None:
            mus = [ref.lo, ref.lo + 1]
        elif ref.hi is not None:
            mus = [ref.hi, ref.hi - 1]
        else:
            mus = [F(1, 2)]
        n_plus = len(table.plus_points)
        for mu in mus:
            assert piece_objective(piece, mu) == norm_sq(vec_add(ref.w0, ref.w1 * mu))
            if mu > 0 and piece.covers(mu):
                x = {h: mu for h in piece.at_hi}
                x.update({i: b + s * mu for i, b, s in zip(ref.free, ref.base, ref.slope)})
                positive = [i for i, v in x.items() if v > 0]
                assert piece.support(mu) == (
                    frozenset(i for i in positive if i < n_plus),
                    frozenset(i - n_plus for i in positive if i >= n_plus),
                )
        return piece

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_walks(self, d):
        instance = build_instance(default_params(d), DEFAULT_STRETCH)
        pieces = path_pieces(instance, F(51, 100), F(1))
        assert pieces and pieces[-1].covers(F(1))
        for piece in pieces:
            assert self.check(instance.table, (piece.at_lo, piece.at_hi)) is not None
        assert len(pieces) == 2 ** d - 2 and chain_digest(pieces) == CHAINS[d]

    def test_arc_walk(self):
        instance = generate_2d_arc_instance(60)
        pieces = path_pieces(instance, F(51, 100), F(1))
        assert pieces and pieces[-1].covers(F(1))
        for piece in pieces:
            assert self.check(instance.table, (piece.at_lo, piece.at_hi)) is not None
        assert chain_digest(pieces) == ARC60_CHAIN

    def test_small_instances(self):
        # the working set of each solver output; where it has no piece, the
        # reference has none either
        verdicts = set()
        for qp in small_instances(200):
            sol = solve_reduced_distance(qp)
            verdicts.add(self.check(qp.table, working_set_of(sol, qp.mu)) is None)
        assert verdicts == {True, False}

    def test_every_working_set_of_small_instances(self):
        # each coefficient at 0, at mu or free: singular, empty and one-sided
        # pieces and those without a free coefficient in a class all occur
        kinds = set()
        for qp in small_instances(200)[:20]:
            n = len(qp.table.nums)
            for states in product((AT_LO, AT_HI, None), repeat=n):
                working = (
                    tuple(i for i, s in enumerate(states) if s == AT_LO),
                    tuple(i for i, s in enumerate(states) if s == AT_HI),
                )
                piece = self.check(qp.table, working)
                if piece is None:
                    kinds.add("none")
                elif piece.lo is not None and piece.hi is not None and piece.lo > piece.hi:
                    kinds.add("empty")
                elif piece.lo is None or piece.hi is None:
                    kinds.add("unbounded")
                else:
                    kinds.add("bounded")
        assert kinds == {"none", "empty", "unbounded", "bounded"}


class TestPieceFractions:
    @pytest.mark.parametrize(
        "make", [lambda: generate_2d_arc_instance(60), lambda: build_instance(default_params(6), DEFAULT_STRETCH)],
        ids=["arc60", "d6"],
    )
    def test_at_most_two_per_piece(self, make):
        # the interval's two ends are the only Fractions a build makes
        instance = make()
        table = instance.table
        working = [(p.at_lo, p.at_hi) for p in path_pieces(instance, F(51, 100), F(1))]
        profile = cProfile.Profile()
        profile.enable()
        for ws in working:
            Piece.build(table, ws)
        profile.disable()
        made = sum(
            calls
            for (path, _line, name), (calls, *_rest) in pstats.Stats(profile).stats.items()
            if name == "__new__" and path.endswith("fractions.py")
        )
        assert working and made <= 2 * len(working)


def vanishing_support(piece, mu) -> tuple:
    """The support of the piece's coefficients at mu, each coefficient tested."""
    plus, minus = piece.coefficients(mu)
    return (
        frozenset(i for i, a in enumerate(plus) if a > 0),
        frozenset(i for i, a in enumerate(minus) if a > 0),
    )


# the sweeps at the command line's defaults, (instance, mu_lo) by name
SWEPT = {
    **{f"d{d}": (lambda d=d: build_instance(default_params(d), DEFAULT_STRETCH), F(1, 2))
       for d in (3, 4, 5, 6)},
    "arc20": (lambda: generate_2d_arc_instance(20), F(1, 2)),
}


@pytest.fixture(scope="module", params=list(SWEPT))
def swept(request) -> tuple:
    """(records, pieces) of a sweep at 512 steps and depth 6, the pieces its pairs carry."""
    make, mu_lo = SWEPT[request.param]
    records = sweep_refined(make(), mu_lo, F(1), 512, 6).records
    pieces = {id(r.pair.piece): r.pair.piece for r in records if r.pair.piece is not None}
    return records, tuple(pieces.values())


class TestPieceReadOff:
    """What a record reads off its piece: the objective's coefficients and the support."""

    def test_objective_coefficients_in_lowest_terms(self, swept):
        _records, pieces = swept
        assert pieces
        for piece in pieces:
            A, B, C, D = piece.objective
            assert gcd(A, B, C, D) == 1 and D > 0

    def test_support_at_every_record_and_both_ends(self, swept):
        records, pieces = swept
        read_off = [r for r in records if r.pair.piece is not None]
        assert len(read_off) > len(records) // 2
        for r in read_off:
            assert support_set(r.pair) == vanishing_support(r.pair.piece, r.mu)
        ends = [(piece, end) for piece in pieces for end in (piece.lo, piece.hi) if end is not None]
        assert ends
        for piece, end in ends:
            assert piece.support(end) == vanishing_support(piece, end)

    def test_free_coefficient_identically_zero_stays_out_of_the_support(self):
        # the free plus point (3, 3, 1) sits one unit above the free (3, 3, 0),
        # and w stays in the plane z = 0: stationarity holds with its coefficient
        # 0 at every mu, so it is in no support, inside the interval or at an end
        table = PointTable([(-2, 1, 0), (3, 3, 0), (3, 3, 1)], [(3, -3, 0), (-1, -3, 0)])
        piece = Piece.build(table, ((), (0, 4)))
        assert (piece.lo, piece.hi, piece.free) == (F(1, 2), F(1), (1, 2, 3))
        assert piece.alphas[1][:2] == (0, 0)
        for mu in (F(1, 2), F(3, 4), F(9, 10), F(1)):
            loop = solve_reduced_distance(ReducedHullQP(table, mu))
            assert piece.support(mu) == vanishing_support(piece, mu) == support_set(loop)
            assert 2 not in piece.support(mu)[0]
            assert piece.optimum(ReducedHullQP(table, mu)).objective == loop.objective


class TestSupportSet:
    def test_strictly_positive_entries_only(self):
        pair = OptimalPair((F(1), F(0)), (F(1),), F(0))
        plus, minus = support_set(pair)
        assert plus == {0} and minus == {0}

    def test_breakpoint_support_is_facet_set(self, instance4, constructions4):
        for pair, _ in constructions4:
            mu = mu_of_q(pair.q[-1], instance4.calibration)
            sol = solve_reduced_distance(ReducedHullQP.from_instance(instance4, mu))
            plus, _ = support_set(sol)
            labels = {instance4.plus_labels[i] for i in plus}
            assert labels == {(k, pair.sigma[k - 1]) for k in range(1, 5)}
            assert len(labels) == 4

    def test_uncapped_arc_solution_is_nearest_vertex_pair(self):
        inst = generate_2d_arc_instance(12)
        sol = solve_reduced_distance(ReducedHullQP.from_instance(inst, F(1)))
        plus, minus = support_set(sol)
        # independent oracle: closest pair of points across classes
        best = min(
            (norm_sq(vec_sub(p, q)), i, j)
            for i, p in enumerate(inst.plus_points)
            for j, q in enumerate(inst.minus_points)
        )
        assert sol.objective == best[0]
        assert plus == {best[1]} and minus == {best[2]}


class TestKktCheckGeneral:
    def test_solver_output_always_passes(self):
        for qp in small_instances(40, seed=7):
            sol = solve_reduced_distance(qp)
            assert kkt_check_reference(qp, sol)

    def test_uniform_weights_fail_on_constructed_instance(self, instance4):
        qp = ReducedHullQP.from_instance(instance4, F(1))
        n_plus = len(instance4.plus_points)
        p = vec_add(*instance4.plus_points) * F(1, n_plus)
        q = vec_add(*instance4.minus_points) * F(1, 2)
        uniform = OptimalPair((F(1, n_plus),) * n_plus, (F(1, 2), F(1, 2)), norm_sq(vec_sub(p, q)))
        assert not kkt_check_reference(qp, uniform)
        assert uniform.objective > solve_reduced_distance(qp).objective

    def test_constructed_pair_with_decomposition_weights_passes(
        self, params4, instance4, constructions4
    ):
        for pair, decomp in constructions4:
            p = constructed_p(params4, pair.sigma, DEFAULT_STRETCH.factor)
            mu = mu_of_q(pair.q[-1], instance4.calibration)
            qp = ReducedHullQP.from_instance(instance4, mu)
            alpha_plus = [F(0)] * len(instance4.plus_points)
            for k in range(1, 5):
                idx = instance4.plus_labels.index((k, pair.sigma[k - 1]))
                alpha_plus[idx] = decomp.alphas[k - 1]
            # the matching line coefficients put the left reduced endpoint at q
            alpha_minus = (mu, 1 - mu)
            candidate = OptimalPair(tuple(alpha_plus), alpha_minus, norm_sq(vec_sub(p, pair.q)))
            assert pair_points(qp, candidate) == (p, pair.q)
            assert kkt_check_reference(qp, candidate)

    def test_infeasible_candidate_raises_with_violations(self):
        qp = ReducedHullQP(PointTable([Vec((0,)), Vec((2,))], [Vec((5,)), Vec((6,))]), F(1, 2))
        bad = OptimalPair((F(1), F(0)), (F(1), F(0)), F(25))
        with pytest.raises(ValueError, match="coefficient 0 = 1 outside"):
            kkt_check_reference(qp, bad)

    def test_single_flip_never_improves(self):
        for qp in small_instances(25, seed=99):
            sol = solve_reduced_distance(qp)
            p, q = pair_points(qp, sol)
            for cls_alphas, points, other in (
                (sol.alpha_plus, qp.plus_points, q),
                (sol.alpha_minus, qp.minus_points, p),
            ):
                n = len(cls_alphas)
                if n == 1:
                    continue
                for i in range(n):
                    flipped = qp.mu - cls_alphas[i]
                    rest = 1 - flipped
                    others_sum = 1 - cls_alphas[i]
                    if others_sum == 0:
                        continue
                    scale = rest / others_sum
                    candidate = [
                        flipped if j == i else cls_alphas[j] * scale for j in range(n)
                    ]
                    if any(not 0 <= c <= qp.mu for c in candidate):
                        continue
                    moved = vec_add(*[pt * c for c, pt in zip(candidate, points)])
                    assert norm_sq(vec_sub(moved, other)) >= sol.objective


SIGMAS4 = tuple(admissible_sign_vectors(4))


class TestCertificates:
    def test_valid_for_all_admissible_sigmas(self, params4, instance4, constructions4):
        for pair, decomp in constructions4:
            cert = build_kkt_certificate(instance4, *candidate(params4, pair.sigma))
            mu = mu_of_q(pair.q[-1], instance4.calibration)
            assert cert.sigma == pair.sigma and cert.mu == mu
            assert cert.pair.alpha_minus == (mu, 1 - mu)
            assert sorted(a for a in cert.pair.alpha_plus if a) == sorted(decomp.alphas)
            assert cert.facet_multiplier == relaxed_facet_multiplier(
                params4, pair.sigma, DEFAULT_STRETCH.factor
            ) > 0

    def test_one_pass_names_the_first_sigma_that_fails_strictness(self, params4):
        instance = build_instance(params4, DEFAULT_STRETCH)
        loose = replace(instance, stretch=StretchFactor(1))
        with pytest.raises(StrictnessError, match=r"sigma=\(-1, -1, 1, 1\) at L=1$"):
            next(certify_construction(loose))

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("eps, gamma", [(F(1, 3), F(1, 16)), (F(3, 8), F(1, 15))])
    def test_optimum_points_are_the_constructed_pair(self, d, eps, gamma):
        # the certificate compares coefficients only: the points they weight,
        # summed in Fractions, are the Fraction construction's p and q
        params = GoldfarbParams(d, eps, gamma)
        instance = build_instance(params, DEFAULT_STRETCH)
        for cert, _weights in certify_construction(instance):
            qp = ReducedHullQP.from_instance(instance, cert.mu)
            _p_shadow, q, _slack, ((p, _alphas),) = construction_reference(
                params, cert.sigma, (DEFAULT_STRETCH.factor,)
            )
            assert pair_points(qp, cert.pair) == (p, q)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("eps, gamma", [(F(1, 3), F(1, 16)), (F(3, 8), F(1, 15))])
    def test_equals_the_piece_of_its_working_set(self, d, eps, gamma):
        # the substitution accepts what the piece of the construction's
        # working set proves: that piece exists, covers mu, and its optimum
        # and plus multiplier are the certificate's
        instance = build_instance(GoldfarbParams(d, eps, gamma), DEFAULT_STRETCH)
        n_plus = len(instance.plus_points)
        for cert, _weights in certify_construction(instance):
            support = {instance.plus_labels.index((k, s)) for k, s in enumerate(cert.sigma, start=1)}
            at_lo = tuple(i for i in range(n_plus) if i not in support)
            piece = Piece.build(instance.table, (at_lo, (n_plus,)))
            assert piece is not None and piece.covers(cert.mu)
            optimum = piece.optimum(ReducedHullQP.from_instance(instance, cert.mu))
            assert optimum.alpha_plus == cert.pair.alpha_plus
            assert optimum.alpha_minus == cert.pair.alpha_minus
            assert optimum.objective == cert.pair.objective
            R0, D0, R1, D1 = piece._lams[0]
            assert -2 * (F(R0, D0) + cert.mu * F(R1, D1)) == cert.facet_multiplier

    def test_runs_no_elimination(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an elimination ran")

        instance = build_instance(default_params(5), DEFAULT_STRETCH)
        for name in ("solve_linear_system", "solve_linear_systems", "solve_linear_system_general"):
            monkeypatch.setattr(qp_module, name, refuse)
        monkeypatch.setattr(Piece, "build", classmethod(refuse))
        assert len(list(certify_construction(instance))) == 8

    def test_perturbed_weight_breaks_stationarity(self, params4, instance4):
        # half of one support weight moves to another: over 2 den the half
        # stays an integer, the sum stays 1 and the working set is the same,
        # but the piece's optimum keeps its weights
        sigma, q_last, (A, den) = candidate(params4, SIGMAS4[0])
        moved = [2 * A[0] + A[1], A[1]] + [2 * a for a in A[2:]]
        assert sum(moved) == 2 * den and F(moved[1], 2 * den) == F(A[1], den) / 2
        with pytest.raises(
            CertificateError,
            match=rf"differs from the optimum of its piece for sigma={re.escape(str(sigma))} at mu=",
        ):
            build_kkt_certificate(instance4, sigma, q_last, (moved, 2 * den))

    def test_other_sigmas_weights_rejected(self, params4, instance4):
        sigma, q_last, _weights = candidate(params4, SIGMAS4[0])
        *_, other = candidate(params4, SIGMAS4[1])
        with pytest.raises(CertificateError, match=rf"sigma={re.escape(str(sigma))} at mu="):
            build_kkt_certificate(instance4, sigma, q_last, other)

    def test_wrong_mu_rejected(self, params4, instance4):
        sigma, q_last, weights = candidate(params4, SIGMAS4[1])
        calib = instance4.calibration
        shifted = replace(instance4, calibration=replace(calib, mu_bar=(1 + calib.mu_bar) / 2))
        wrong_mu = mu_of_q(q_last, shifted.calibration)
        assert wrong_mu != mu_of_q(q_last, calib)
        with pytest.raises(CertificateError, match=rf"sigma=.* at mu={wrong_mu}"):
            build_kkt_certificate(shifted, sigma, q_last, weights)

    def test_closer_point_breaks_optimality(self, params4, instance4):
        # a plus point at q itself is feasible with weight 0 but beats the pair
        sigma, q_last, weights = candidate(params4, SIGMAS4[0])
        extra = replace(
            instance4,
            plus_points=instance4.plus_points + (line_point(4, q_last),),
            plus_labels=instance4.plus_labels + ("extra",),
        )
        # its gradient falls below the plus multiplier, so the piece covers no mu
        with pytest.raises(CertificateError, match="does not cover sigma="):
            build_kkt_certificate(extra, sigma, q_last, weights)

    def test_weight_above_mu_is_refused(self, params4, instance4):
        # the line points moved to q - 1 and q + 1 and mu_bar lowered to 1/2
        # keep sigma's q, and so w and every gradient, at mu = 1/2: the
        # candidate is stationary with its strict sides, but its largest
        # weight exceeds the cap
        calib = instance4.calibration
        sigma, q_last, (A, den) = next(
            c for c in (candidate(params4, sigma) for sigma in SIGMAS4) if c[1] == calib.q_max
        )
        assert 2 * max(A) > den
        moved = replace(
            instance4,
            minus_points=(line_point(4, q_last - 1), line_point(4, q_last + 1)),
            calibration=replace(calib, mu_bar=F(1, 2)),
        )
        with pytest.raises(CertificateError, match=r"does not cover sigma=.* at mu=1/2$"):
            build_kkt_certificate(moved, sigma, q_last, (A, den))

    def test_coincident_line_points_break_uniqueness(self, params4, instance4):
        # right moved onto left: at mu = 1, where right's weight is 0, the
        # candidate stays optimal, but right can take over part of left's
        # weight, so left's gradient is not strictly below right's
        calib = instance4.calibration
        sigma, q_last, weights = next(
            c for c in (candidate(params4, sigma) for sigma in SIGMAS4) if c[1] == calib.q_min
        )
        pair = build_kkt_certificate(instance4, sigma, q_last, weights).pair
        left = instance4.minus_points[0]
        twin = replace(instance4, minus_points=(left, left))
        qp = ReducedHullQP.from_instance(twin, F(1))
        assert kkt_check_reference(qp, pair) and not unique_optimum_reference(qp, pair)
        with pytest.raises(CertificateError, match=r"does not cover sigma=.* at mu=1$"):
            build_kkt_certificate(twin, sigma, q_last, weights)

    def test_duplicated_vertex_breaks_uniqueness(self, params4, instance4):
        # a copy of a support point can take over part of its weight
        sigma, q_last, weights = candidate(params4, SIGMAS4[0])
        idx = instance4.plus_labels.index((1, sigma[0]))
        twin = replace(
            instance4,
            plus_points=instance4.plus_points + (instance4.plus_points[idx],),
            plus_labels=instance4.plus_labels + ("twin",),
        )
        # at weight 0 its gradient equals the multiplier: it is not strictly bound
        with pytest.raises(CertificateError, match="does not cover sigma="):
            build_kkt_certificate(twin, sigma, q_last, weights)

    def test_split_weight_leaves_no_piece(self, params4, instance4):
        # a copy of a support point, labelled as a fifth facet, takes half of
        # its weight over 2 den: the optimum is unchanged, but the free points
        # are dependent
        sigma, q_last, (A, den) = candidate(params4, SIGMAS4[0])
        idx = instance4.plus_labels.index((1, sigma[0]))
        twin = replace(
            instance4,
            plus_points=instance4.plus_points + (instance4.plus_points[idx],),
            plus_labels=instance4.plus_labels + ((5, 1),),
        )
        split = [A[0]] + [2 * a for a in A[1:]] + [A[0]]
        assert sum(split) == 2 * den
        sigma += (1,)
        with pytest.raises(
            CertificateError, match=rf"no piece on the working set of sigma={re.escape(str(sigma))} at mu="
        ):
            build_kkt_certificate(twin, sigma, q_last, (split, 2 * den))


def walk_midpoints(instance) -> tuple:
    """(mu, optimum) at the middle of each piece of the walk from 51/100, clipped to [51/100, 1],
    and whether the walk covers all of [51/100, 1]."""
    mu_lo, mu_hi = F(51, 100), F(1)
    pieces = path_pieces(instance, mu_lo, mu_hi)
    out = []
    for piece in pieces:
        lo = mu_lo if piece.lo is None else max(piece.lo, mu_lo)
        hi = mu_hi if piece.hi is None else min(piece.hi, mu_hi)
        mu = (lo + hi) / 2
        out.append((mu, piece.optimum(ReducedHullQP.from_instance(instance, mu))))
    return out, bool(pieces) and pieces[0].covers(mu_lo) and pieces[-1].covers(mu_hi)


WALKED = {f"d{d}": (lambda d=d: build_instance(default_params(d), DEFAULT_STRETCH)) for d in range(3, 9)}
WALKED["arc20"] = lambda: generate_2d_arc_instance(20)


class TestDualityGap:
    """`oracles.duality_gap`, which shares no code with the pieces, on the walk and the certificates."""

    @pytest.mark.parametrize("name", list(WALKED))
    def test_zero_at_the_middle_of_every_piece_and_positive_one_piece_on(self, name):
        # a piece's optimum stays feasible at every larger mu, where the cap
        # only loosens; at the middle of the next piece it is no longer optimal
        instance = WALKED[name]()
        middles, covered = walk_midpoints(instance)
        for mu, pair in middles:
            assert duality_gap(instance, mu, pair.alpha_plus, pair.alpha_minus) == 0, mu
        assert covered and len(middles) > 1
        for (_mu, pair), (mu, _next) in zip(middles, middles[1:]):
            assert duality_gap(instance, mu, pair.alpha_plus, pair.alpha_minus) > 0, mu

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_zero_on_every_certificate(self, d):
        params = default_params(d)
        s = choose_stretch(params)
        instance = build_instance(params, s)
        for cert, _weights in certify_construction(instance):
            assert duality_gap(instance, cert.mu, cert.pair.alpha_plus, cert.pair.alpha_minus) == 0

    def test_zero_exactly_where_the_reference_kkt_check_passes(self):
        # the solver's optimum, and uniform weights, which are optimal on some
        # tiny instances only
        verdicts = set()
        for qp in small_instances(60, seed=11):
            sol = solve_reduced_distance(qp)
            assert duality_gap(qp, qp.mu, sol.alpha_plus, sol.alpha_minus) == 0
            n_plus, n_minus = len(qp.plus_points), len(qp.minus_points)
            uniform = OptimalPair((F(1, n_plus),) * n_plus, (F(1, n_minus),) * n_minus, F(0))
            gap = duality_gap(qp, qp.mu, uniform.alpha_plus, uniform.alpha_minus)
            assert gap >= 0 and (gap == 0) == kkt_check_reference(qp, uniform)
            verdicts.add(gap == 0)
        assert verdicts == {True, False}

    def test_infeasible_coefficients_refused(self, instance4):
        n_plus = len(instance4.plus_points)
        alpha_plus = (F(1),) + (F(0),) * (n_plus - 1)
        with pytest.raises(ValueError, match=r"^class \+ coefficients are not feasible at mu=1/2$"):
            duality_gap(instance4, F(1, 2), alpha_plus, (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError, match=r"^class - coefficients are not feasible at mu=1$"):
            duality_gap(instance4, F(1), alpha_plus, (F(1, 2), F(1, 3)))


FLAT_PLUS = [Vec((0, 1)), Vec((1, 1))]
FLAT_MINUS = [Vec((0, 0)), Vec((1, 0))]


class TestUniqueOptimum:
    def test_constructed_breakpoints_unique(self, instance4):
        for cert, _weights in certify_construction(instance4):
            qp = ReducedHullQP.from_instance(instance4, cert.mu)
            assert unique_optimum_reference(qp, cert.pair)
            assert unique_optimum_oracle(qp, cert.pair)

    @pytest.mark.parametrize(
        "plus,minus,alpha_plus,alpha_minus,mu",
        [
            # the two segments are parallel: every matching pair is optimal
            (FLAT_PLUS, FLAT_MINUS, (F(1), F(0)), (F(1), F(0)), F(1)),
            (FLAT_PLUS, FLAT_MINUS, (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), F(1)),
            # a far point at weight 0 listed first must not set the multiplier
            ([Vec((5, 5))] + FLAT_PLUS, FLAT_MINUS, (F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), F(1)),
            # near points at the cap listed first must not set the multipliers
            (
                [Vec((F(1, 2), F(1, 2)))] + FLAT_PLUS,
                [Vec((F(1, 2), F(1, 4)))] + FLAT_MINUS,
                (F(1, 2), F(1, 4), F(1, 4)),
                (F(1, 2), F(1, 4), F(1, 4)),
                F(1, 2),
            ),
        ],
        ids=["segment-ends", "segment-midpoints", "far-zero-point-first", "capped-points-first"],
    )
    def test_flat_face_not_unique(self, plus, minus, alpha_plus, alpha_minus, mu):
        qp = ReducedHullQP(PointTable(plus, minus), mu)
        p = vec_add(*[v * a for v, a in zip(qp.plus_points, alpha_plus)])
        q = vec_add(*[v * a for v, a in zip(qp.minus_points, alpha_minus)])
        candidate = OptimalPair(alpha_plus, alpha_minus, norm_sq(vec_sub(p, q)))
        assert kkt_check_reference(qp, candidate)
        assert solve_reduced_distance(qp).objective == candidate.objective
        assert not unique_optimum_oracle(qp, candidate)
        assert not unique_optimum_reference(qp, candidate)

    def test_agrees_with_oracle_on_small_instances(self):
        # wherever the piece of the solver output's working set covers mu, its
        # optimum is the solver's and Fourier-Motzkin finds it unique
        covered = not_unique = 0
        for qp in small_instances(200):
            sol = solve_reduced_distance(qp)
            piece = Piece.build(qp.table, working_set_of(sol, qp.mu))
            if piece is not None and piece.covers(qp.mu):
                assert piece.optimum(qp) == sol
                assert unique_optimum_oracle(qp, sol)
                covered += 1
            else:
                not_unique += not unique_optimum_oracle(qp, sol)
        # 36 solutions lie on a covering piece; 51 of the rest are not unique
        assert covered > 30 and not_unique > 0


class TestParameterConversion:
    def test_unit_value(self):
        assert nu_from_mu(F(2, 18), 18) == 1

    def test_example_values(self):
        assert nu_from_mu(F(1), 18) == F(1, 9)

    def test_round_trip(self):
        for mu in (F(1, 2), F(2, 3), F(17, 23), F(1)):
            assert mu_from_nu(nu_from_mu(mu, 10), 10) == mu

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            nu_from_mu(F(0), 4)
        with pytest.raises(ValueError):
            mu_from_nu(F(-1), 4)
