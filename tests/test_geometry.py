from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    DegenerateHullError,
    build_p_stretched_reference,
    convex_hull_2d,
    dot,
    hull_chain,
    membership,
    norm_sq,
    orient2d,
    unit,
    vec_add,
    vec_sub,
    zero,
)
from svmpath.construct import stretch
from svmpath.geometry import (
    SingularMatrixError,
    Vec,
    solve_linear_system,
    solve_linear_system_general,
    solve_linear_systems,
)

small_rational = st.fractions(min_value=-8, max_value=8, max_denominator=12)

# The solver properties draw nested lists of fractions through st.data().
# Shrinking and explaining a failure there ran for minutes, so a broken solver
# showed as a stalled run; they report the first failing system as drawn.
solver_settings = settings(phases=(Phase.explicit, Phase.reuse, Phase.generate))


def vec_strategy(dim):
    return st.lists(small_rational, min_size=dim, max_size=dim).map(Vec)


class TestSolveLinearSystem:
    def test_identity(self):
        A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert solve_linear_system(A, Vec((F(1, 2), F(-2), F(0)))) == Vec((F(1, 2), F(-2), F(0)))

    def test_diagonal(self):
        assert solve_linear_system([[2, 0], [0, 4]], (1, 1)) == Vec((F(1, 2), F(1, 4)))

    def test_rank_deficient_signals_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system([[1, 1], [1, 1]], (1, 0))

    def test_singular_error_names_first_column_without_pivot(self):
        with pytest.raises(SingularMatrixError, match="no pivot in column 1"):
            solve_linear_system([[1, 2, 0], [2, 4, 0], [0, 0, 1]], (1, 2, 3))

    def test_empty_system(self):
        assert solve_linear_system([], ()) == Vec(())

    def test_row_swap_and_negative_determinant(self):
        # the pivot search swaps the rows, and the determinant that scales the
        # integer back-substitution is negative
        assert solve_linear_system([[0, -3], [2, 1]], (1, 1)) == Vec((F(2, 3), F(-1, 3)))

    @settings(solver_settings, max_examples=60)
    @given(st.integers(1, 5), st.data())
    def test_residual_is_exactly_zero(self, n, data):
        A = data.draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n))
        b = data.draw(st.lists(small_rational, min_size=n, max_size=n))
        try:
            x = solve_linear_system(A, b)
        except SingularMatrixError:
            return
        for row, rhs in zip(A, b):
            assert sum((a * v for a, v in zip(row, x)), F(0)) == rhs

    @settings(solver_settings, max_examples=40)
    @given(st.integers(2, 4), st.data())
    def test_duplicated_row_is_singular(self, n, data):
        A = data.draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n))
        A[-1] = list(A[0])
        with pytest.raises(SingularMatrixError):
            solve_linear_system(A, [F(0)] * (n - 1) + [F(1)])


class TestSolveLinearSystems:
    @settings(solver_settings, max_examples=60)
    @given(st.integers(1, 5), st.data())
    def test_every_column_solved_exactly(self, n, data):
        A = data.draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n))
        columns = data.draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=1, max_size=3))
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
            x = [F(v, det) for v in y]
            for row, rhs in zip(A, b):
                assert sum((a * v for a, v in zip(row, x)), F(0)) == rhs

    def test_wrong_column_length_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_linear_systems([[1, 0], [0, 1]], [(1, 2), (1, 2, 3)])


class TestSolveGeneral:
    # the library's flat-subproblem solve against the Fraction RREF in tests/oracles.py

    def test_zero_column_row_swap_and_negative_pivot(self):
        # column 0 has no pivot, column 1 pivots on -2 after a row swap, and
        # column 2 repeats column 1 times -2: the solution is zero off column 1
        A = [[0, 0, 0], [0, -2, 4], [0, 1, -2]]
        assert solve_linear_system_general(A, [0, 2, -1]) == Vec((0, -1, 0))
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
        U = data.draw(st.lists(st.lists(small_rational, min_size=rank, max_size=rank), min_size=n, max_size=n))
        V = data.draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=rank, max_size=rank))
        for i in data.draw(st.sets(st.integers(0, n - 1))):
            U[i] = [F(0)] * rank
        A = [[sum((u[k] * V[k][j] for k in range(rank)), F(0)) for j in range(n)] for u in U]
        for j in data.draw(st.sets(st.integers(0, n - 1))):
            for row in A:
                row[j] = F(0)
        x = data.draw(st.lists(small_rational, min_size=n, max_size=n))
        consistent = [sum((a * v for a, v in zip(row, x)), F(0)) for row in A]
        for b in (consistent, data.draw(st.lists(small_rational, min_size=n, max_size=n))):
            reference = oracles.solve_rref(A, b)
            got = solve_linear_system_general(A, b)
            assert got == (None if reference is None else Vec(reference[0]))

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


class TestProjection:
    # the oracles' Fraction projection of q onto the stretched sigma-facet,
    # whose weights the library keeps: at ell = 1 it projects q onto a . x = 1

    def test_unit_normal(self):
        d = 5
        a = unit(d, d - 2)
        q = Vec((0, 0, 0, 2, 0))
        assert build_p_stretched_reference(q, a, 1) == Vec((0, 0, 0, 1, 0))

    def test_reprojection_is_identity(self):
        a = Vec((0, 0, 1, 1))
        p = build_p_stretched_reference(Vec((0, 0, 2, 0)), a, 1)
        assert build_p_stretched_reference(p, a, 1) == p

    def test_two_coordinate_normal(self):
        a = Vec((0, 0, 1, 1))
        q = Vec((0, 0, 2, 0))
        assert 1 - dot(a, q) == -1
        assert build_p_stretched_reference(q, a, 1) == Vec((0, 0, F(3, 2), F(-1, 2)))

    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroDivisionError):
            build_p_stretched_reference(Vec((1, 2)), zero(2), 1)

    @settings(max_examples=80)
    @given(st.integers(2, 5), st.data())
    def test_projection_properties(self, dim, data):
        ell = data.draw(st.fractions(min_value=F(1, 100), max_value=4, max_denominator=100))
        a = data.draw(vec_strategy(dim).filter(lambda v: any(stretch(v, ell))))
        q = data.draw(vec_strategy(dim))
        p = build_p_stretched_reference(q, a, ell)
        a_ell = stretch(a, ell)
        assert dot(a_ell, p) == 1
        # p - q is a multiple of a_ell: all 2x2 minors vanish
        diff = vec_sub(p, q)
        for i in range(dim):
            for j in range(i + 1, dim):
                assert diff[i] * a_ell[j] == diff[j] * a_ell[i]


class TestConvexHull:
    square = [Vec((0, 0)), Vec((2, 0)), Vec((2, 2)), Vec((0, 2))]

    def test_interior_point_dropped(self):
        hull = hull_chain(self.square + [Vec((1, 1))])
        assert len(hull) == 4
        assert Vec((1, 1)) not in hull

    def test_edge_midpoint_dropped(self):
        hull = hull_chain(self.square + [Vec((1, 0))])
        assert len(hull) == 4

    def test_collinear_input_rejected(self):
        with pytest.raises(DegenerateHullError):
            hull_chain([Vec((0, 0)), Vec((1, 1)), Vec((2, 2)), Vec((3, 3))])

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateHullError):
            hull_chain([Vec((0, 0)), Vec((1, 0)), Vec((1, 0))])

    def test_chain_keeps_integer_points(self):
        points = [(2, 2), (0, 0), (1, 1), (2, 0), (0, 2), (1, 0)]
        ring = hull_chain(points)
        assert ring == [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert all(type(c) is int for pt in ring for c in pt)
        assert convex_hull_2d(points).vertices == tuple(map(Vec, ring))

    @settings(max_examples=60)
    @given(st.lists(st.tuples(small_rational, small_rational), min_size=3, max_size=14))
    def test_hull_properties(self, points):
        points = [Vec(p) for p in points]
        try:
            vs = hull_chain(points)
        except DegenerateHullError:
            return
        n = len(vs)
        assert set(vs) <= set(points)
        for i in range(n):
            assert orient2d(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) > 0
        # every input point is inside or on the hull: nonnegative orientation
        # against every directed edge
        for p in points:
            assert all(orient2d(vs[i], vs[(i + 1) % n], p) >= 0 for i in range(n))


class TestContains:
    def test_membership_and_tightness(self):
        box = [
            (Vec((1, 0)), F(1)),
            (Vec((-1, 0)), F(1)),
            (Vec((0, 1)), F(1)),
            (Vec((0, -1)), F(1)),
        ]
        inside, tight = membership(box, Vec((0, 0)))
        assert inside and not any(tight)
        inside, tight = membership(box, Vec((1, 0)))
        assert inside and tight == (True, False, False, False)
        inside, _ = membership(box, Vec((2, 0)))
        assert not inside

    def test_dimension_mismatch(self):
        box = [(Vec((1, 0)), F(1))]
        with pytest.raises(ValueError):
            membership(box, Vec((1, 2, 3)))


class TestRationalNormalForm:
    @given(small_rational, small_rational)
    def test_arithmetic_stays_reduced(self, a, b):
        # Fraction keeps lowest terms and positive denominators by construction;
        # this pins the invariant the whole package relies on.
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            from math import gcd
            assert gcd(value.numerator, value.denominator) == 1

    def test_vector_ops_exact(self):
        v = Vec((F(1, 3), F(2, 5)))
        w = Vec((F(1, 6), F(3, 5)))
        assert dot(vec_add(v, w), vec_sub(v, w)) == norm_sq(v) - norm_sq(w)
        assert -v == v * -1 == Vec((F(-1, 3), F(-2, 5)))

    @pytest.mark.parametrize(
        "op",
        [
            lambda v, w: v + w,
            lambda v, w: sum((v, w), Vec((0, 0))),
            lambda v, w: sum((v, w)),
            lambda v, w: 2 * v,
            lambda v, w: F(2) * v,
        ],
        ids=["vec-plus-vec", "sum-from-zero-vec", "sum-from-int", "int-times-vec", "fraction-times-vec"],
    )
    def test_tuple_arithmetic_raises(self, op):
        # concatenation or repetition would be a wrong vector, not an error
        with pytest.raises(TypeError):
            op(Vec((1, 2)), Vec((3, 4)))
