from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from svmpath.geometry import Vec

small_rational = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def vec_strategy(dim):
    return st.lists(small_rational, min_size=dim, max_size=dim).map(Vec)


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
