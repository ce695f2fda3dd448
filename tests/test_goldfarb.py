import re
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from conftest import REFERENCE_PARAMS, default_params, spread
from oracles import (
    cube_vertex,
    cube_vertices,
    dot,
    facet_weights_reference,
    fraction_shadow,
    gray_rank,
    gray_sigma,
    is_extreme_point,
    membership,
    orient2d,
    project_shadow,
    shadow_certificate_oracle,
    shadow_certificate_reference,
    shadow_point,
    sign_vectors,
    solve_linear_system,
    three_vertex_certificate,
    unit,
    vec_add,
    zero,
)
from svmpath.construct import StretchFactor, support_decomposition
from svmpath.geometry import Vec, common_denominator
from svmpath.goldfarb import (
    GoldfarbParams,
    ShadowPropertyError,
    _check_convex_ring,
    _gray_ring,
    _integer_bands,
    _pair_normal_rhs,
    _shadow_data,
    _vertex,
    admissible_sign_vectors,
    dual_vertices,
    facet_order,
    facet_weights,
    shadow_certificate,
    shadow_polygon,
    vertex_row,
)


def inequalities(params) -> list:
    """The cube's (normal, rhs) pairs in canonical facet order."""
    return [_pair_normal_rhs(params, k, s) for k, s in facet_order(params.dim)]


def dual_vertex(params, k, s):
    return dual_vertices(params)[facet_order(params.dim).index((k, s))]


def certificate(params, sigma) -> Vec:
    """sigma's supporting point: the library's if sigma is admissible, else the three-vertex reference's.

    The library keeps the support of the admissible sigmas only.
    """
    if tuple(sigma[-2:]) == (1, 1):
        return shadow_point(params, sigma)
    return three_vertex_certificate(params, sigma)


class TestParams:
    def test_defaults_satisfy_constraint_chain(self):
        p = GoldfarbParams(8)
        assert 0 < 4 * p.gamma < p.eps < F(1, 2)

    @pytest.mark.parametrize(
        "eps,gamma",
        [(F(1, 3), F(1, 12)), (F(1, 2), F(1, 16)), (F(1, 3), F(0)), (F(1, 3), F(-1, 16))],
    )
    def test_violations_rejected(self, eps, gamma):
        with pytest.raises(ValueError):
            GoldfarbParams(4, eps, gamma)

    def test_non_integer_dim_rejected(self):
        with pytest.raises(ValueError):
            GoldfarbParams(0)

    def test_hash_is_the_field_tuples(self):
        # computed once at construction, it equals the hash of the field tuple
        cases = (GoldfarbParams(3), GoldfarbParams(7, F(3, 8)), GoldfarbParams(5, "2/5", "1/15"))
        for params in cases:
            assert hash(params) == hash((params.dim, params.eps, params.gamma))
        assert hash(GoldfarbParams(4, "1/3")) == hash(GoldfarbParams(4))


class TestAdmissibleSignVectors:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_the_filtered_sign_vectors_in_their_order(self, d):
        # built directly, they are the sign vectors ending (1, 1), in lexicographic order
        expected = [sigma for sigma in sign_vectors(d) if sigma[-2:] == (1, 1)]
        assert list(admissible_sign_vectors(d)) == expected

    @pytest.mark.parametrize("d", [0, 1])
    def test_dim_below_two_refused_at_the_call(self, d):
        with pytest.raises(ValueError, match=r"^admissible sign vectors need dim >= 2$"):
            admissible_sign_vectors(d)


class TestCubeInequalities:
    def test_one_dimensional_base_row(self):
        assert inequalities(GoldfarbParams(1)) == [(Vec((-1,)), 1), (Vec((1,)), 1)]

    def test_second_pair_right_inequality(self):
        normal, rhs = _pair_normal_rhs(GoldfarbParams(2), 2, 1)
        assert normal == Vec((F(1, 3), 1))
        assert rhs == F(2, 3)

    @pytest.mark.parametrize(
        "eps,gamma",
        [
            (F(1, 2) - F(1, 10**9), F(1, 10**12)),  # eps near 1/2, gamma near 0
            (F(1, 2) - F(1, 10**9), F(1, 8) - F(1, 10**9)),  # 4*gamma near eps near 1/2
            (F(1, 10**9), F(1, 10**10)),  # eps and gamma near 0
        ],
    )
    def test_every_rhs_exceeds_one_half_at_parameter_edges(self, eps, gamma):
        # the origin is strictly inside every facet, so each inequality
        # divides through by its rhs to give a dual vertex
        params = GoldfarbParams(6, eps, gamma)
        for (normal, rhs), w in zip(inequalities(params), dual_vertices(params), strict=True):
            assert rhs > F(1, 2)
            assert w.coords * rhs == normal

    def test_origin_strictly_interior_d8(self):
        inside, tight = membership(inequalities(default_params(8)), zero(8))
        assert inside and not any(tight)

    def test_vertex_on_exactly_d_indexed_facets(self):
        params = default_params(5)
        cube = inequalities(params)
        order = facet_order(5)
        for sigma in sign_vectors(5):
            v = cube_vertex(params, sigma)
            inside, tight = membership(cube, v.coords)
            assert inside
            tight_facets = {order[i] for i, t in enumerate(tight) if t}
            assert tight_facets == {(k, sigma[k - 1]) for k in range(1, 6)}

    def test_scaled_vertex_is_outside(self):
        params = default_params(4)
        cube = inequalities(params)
        for sigma in sign_vectors(4):
            doubled = cube_vertex(params, sigma).coords * 2
            assert not membership(cube, doubled)[0]


class TestCubeVertices:
    def test_one_dimensional(self):
        assert cube_vertex(GoldfarbParams(1), (1,)).coords == Vec((1,))

    def test_reference_vertex_form(self):
        # sigma = (-1, ..., -1, 1, -1) gives (-1, ..., -1, 1, -1 + 2 eps)
        for d in (3, 5, 8):
            params = default_params(d)
            sigma = tuple([-1] * (d - 2) + [1, -1])
            v = cube_vertex(params, sigma).coords
            expected = Vec([-1] * (d - 2) + [1, -1 + 2 * params.eps])
            assert v == expected

    def test_frozen_d3_vertex(self):
        v = cube_vertex(default_params(3), (1, 1, 1)).coords
        assert v == Vec((1, F(1, 3), F(43, 72)))

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_signs_match_sigma(self, d):
        params = default_params(d)
        for sigma in sign_vectors(d):
            V, _D = vertex_row(params, sigma)
            for coord, s in zip(V, sigma):
                assert (coord > 0) == (s == 1) and coord != 0

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_vertices_pairwise_distinct(self, d):
        params = default_params(d)
        coords = [Vec(V) * F(1, D) for V, D in (vertex_row(params, s) for s in sign_vectors(d))]
        assert len(set(coords)) == 2 ** d

    @pytest.mark.parametrize("d", range(1, 11))
    def test_integer_recursion_equals_fraction_recursion(self, d):
        # the integer row over its least denominator is the Fraction vertex
        params = GoldfarbParams(d, F(3, 8), F(1, 15))
        for sigma in sign_vectors(d):
            V, D = vertex_row(params, sigma)
            assert all(type(v) is int for v in V) and D > 0 and gcd(D, *V) == 1
            assert Vec(V) * F(1, D) == cube_vertex(params, sigma).coords

    def test_nonpositive_bound_raises(self):
        # eps = 9/10 breaks eps < 1/2, so validation is bypassed; x_1 = +1 then
        # gives z_2 = 1 - eps - eps < 0, and the support decomposition, whose
        # cone-form strictness check rests on z_k > 0, refuses to run. The ring
        # pass meets it at its second vertex, (+1, -1, -1)
        params = GoldfarbParams(3)
        object.__setattr__(params, "eps", F(9, 10))
        with pytest.raises(ValueError, match=r"z_2 = -4/5 <= 0 at sigma=\(1, -1, -1\)"):
            _shadow_data(params)
        with pytest.raises(ValueError, match=r"z_2 = -4/5 <= 0 at sigma=\(1, 1, 1\)"):
            vertex_row(params, (1, 1, 1))
        with pytest.raises(ValueError, match="z_2 = -4/5 <= 0"):
            cube_vertex(params, (1, 1, 1))
        with pytest.raises(ValueError, match="z_2"):
            support_decomposition((1, 1, 1), params, StretchFactor(1))


class TestDualVertices:
    def test_first_pair_is_plus_minus_e1(self):
        params = default_params(4)
        assert dual_vertex(params, 1, 1).coords == unit(4, 0)
        assert dual_vertex(params, 1, -1).coords == -unit(4, 0)

    def test_second_pair_right(self):
        params = default_params(4)
        assert dual_vertex(params, 2, 1).coords == Vec((F(1, 2), F(3, 2), 0, 0))

    def test_high_pair_support_and_values(self):
        params = default_params(6)
        w = dual_vertex(params, 4, 1).coords
        denom = 1 - params.eps + params.eps * params.gamma  # 11/16
        assert w == Vec((0, -params.eps * params.gamma / denom, params.eps / denom, 1 / denom, 0, 0))
        assert w[1] == F(-1, 33) and w[2] == F(16, 33) and w[3] == F(16, 11)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_incidence_pattern(self, d):
        # w_(k,s) . v_sigma == 1 iff sigma_k == s, and < 1 otherwise
        params = default_params(d)
        duals = dual_vertices(params)
        for v in cube_vertices(params):
            for w in duals:
                value = dot(w.coords, v.coords)
                if v.sigma[w.k - 1] == w.s:
                    assert value == 1
                else:
                    assert value < 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_duality_involution_on_memberships(self, d):
        # the cube equals {x : w . x <= 1 for all dual vertices w}, checked by
        # membership agreement on vertices and on scaled-out vertices
        params = default_params(d)
        cube = inequalities(params)
        duals = dual_vertices(params)

        def dual_side_contains(x):
            return all(dot(w.coords, x) <= 1 for w in duals)

        for v in cube_vertices(params):
            assert membership(cube, v.coords)[0] and dual_side_contains(v.coords)
            doubled = v.coords * 2
            assert not membership(cube, doubled)[0]
            assert not dual_side_contains(doubled)


    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_facet_weights_invert_the_dual_combination(self, d):
        # any weights over sigma's d facet duals come back from their combination,
        # as integers over one positive denominator and from the Fraction reference
        params = GoldfarbParams(d, F(3, 8), F(1, 15))
        alphas = tuple(F(k, k + 2) - F(1, 3) for k in range(1, d + 1))
        for sigma in sign_vectors(d):
            x = vec_add(
                *[dual_vertex(params, k, s).coords * a for k, s, a in zip(range(1, d + 1), sigma, alphas)]
            )
            den, (X,) = common_denominator([x])
            for scale in (1, 7):  # a denominator that is not the least one
                W, top = facet_weights(params, sigma, [scale * c for c in X])
                assert all(type(w) is int for w in W) and type(top) is int and top > 0
                assert tuple(F(w, scale * den * top) for w in W) == alphas
            assert facet_weights_reference(params, sigma, x) == alphas

    def test_facet_weights_reject_bad_shapes(self):
        params = default_params(3)
        with pytest.raises(ValueError, match="sigma"):
            facet_weights(params, (1, 0, 1), [0, 0, 0])
        with pytest.raises(ValueError, match="coordinates"):
            facet_weights(params, (1, 1, 1), [0, 0])


class TestShadow:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_all_projected_vertices_on_hull(self, d):
        assert len(shadow_polygon(default_params(d))) == 2 ** d

    def test_hull_vertices_via_extremeness_oracle(self):
        params = default_params(3)
        projected = [project_shadow(v.coords) for v in cube_vertices(params)]
        assert all(is_extreme_point(p, projected) for p in projected)
        assert len(shadow_polygon(params)) == 8

    def test_certificates_exhaustive_d4(self, params4):
        vertices = {v.sigma: v.coords for v in cube_vertices(params4)}
        for sigma in sign_vectors(4):
            point = certificate(params4, sigma)
            assert point[0] == 0 and point[1] == 0
            assert dot(point, vertices[sigma]) == 1
            for tau, other in vertices.items():
                if tau != sigma:
                    assert dot(point, other) < 1

    def test_certificate_lies_in_bounded_slab(self):
        # every supporting point in the shadow plane has second-to-last
        # coordinate at most 1
        for d in (3, 4, 6):
            for sigma in sign_vectors(d):
                assert certificate(default_params(d), sigma)[-2] <= 1

    def test_dual_cube_cross_section_bounded(self):
        # any point of the dual cube inside the shadow plane obeys the same
        # slab bound; the shadow certificates are exactly such points
        params = default_params(5)
        duals = dual_vertices(params)
        for sigma in sign_vectors(5):
            point = certificate(params, sigma)
            assert all(dot(point, v.coords) <= 1 for v in cube_vertices(params))
            assert point[-2] <= 1


def ring_point(params, sigma) -> tuple:
    """sigma's point on the integer ring, m^d (x_(d-1), x_d), from its own recursion."""
    X = _vertex(params, sigma)
    return _integer_bands(params)[0] * X[-2], X[-1]


class TestShadowHull:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_ring_walks_the_reflected_gray_code(self, d):
        # from (-1, ..., -1), step i flips the sign of the lowest set bit of i
        sigmas = [sigma for sigma, _pt in _gray_ring(default_params(d))]
        assert sigmas[0] == (-1,) * d and len(set(sigmas)) == 2 ** d
        for i in range(1, 2 ** d):
            flipped = [k for k in range(d) if sigmas[i][k] != sigmas[i - 1][k]]
            assert flipped == [(i & -i).bit_length() - 1]
        for i, sigma in enumerate(sigmas):
            assert gray_rank(sigma) == i and gray_sigma(i, d) == sigma

    @pytest.mark.parametrize("d", [2, 3, 6, 9])
    def test_ring_points_are_den_times_the_projections(self, d):
        params = default_params(d)
        den = _shadow_data(params)[0]
        assert den > 0
        for sigma, pt in _gray_ring(params):
            assert len(pt) == 2 and all(type(c) is int for c in pt)
            assert Vec(pt) == project_shadow(cube_vertex(params, sigma).coords) * den
            assert ring_point(params, sigma) == pt

    @pytest.mark.parametrize("eps,gamma", REFERENCE_PARAMS)
    @pytest.mark.parametrize("d", range(2, 11))
    def test_ring_and_certificates_equal_the_oracle(self, d, eps, gamma):
        # the Gray ring is the Fraction hull of the projections in its order,
        # point for point, and every admissible certificate is the one built
        # on that hull
        params = GoldfarbParams(d, eps, gamma)
        hull, pos = fraction_shadow(params)
        den = _shadow_data(params)[0]
        assert tuple(Vec(pt) * F(1, den) for pt in shadow_polygon(params)) == hull.vertices
        start = pos[(-1,) * d]
        ranks = [pos[sigma] for sigma, _pt in _gray_ring(params)]
        assert ranks == [(start + i) % 2 ** d for i in range(2 ** d)]
        for sigma in admissible_sign_vectors(d):
            assert shadow_point(params, sigma) == shadow_certificate_reference(params, sigma)


def forged_ring(points) -> list:
    """(sigma, point) pairs for a test ring, sigma the sign vector of each point's index."""
    return [(tuple(1 if i >> k & 1 else -1 for k in range(3)), pt) for i, pt in enumerate(points)]


class TestRingChecks:
    """Each check of the ring pass fails on a forged input, naming a sigma."""

    @pytest.mark.parametrize("eps,z2", [(F(9, 10), "-4/5"), (F(1, 2), "0")])
    def test_nonpositive_band_raises(self, eps, z2):
        # the forged band of pair 2 leaves z_2 = 1 - 2 eps at x_1 = +1, first
        # met at the ring's second vertex; a bound of exactly 0 fails as well
        params = GoldfarbParams(4)
        object.__setattr__(params, "eps", eps)
        with pytest.raises(ValueError, match=rf"z_2 = {z2} <= 0 at sigma=\(1, -1, -1, -1\)"):
            _shadow_data(params)

    def test_convex_counterclockwise_ring_passes(self):
        _check_convex_ring(forged_ring([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]))

    def test_collinear_turn_raises(self):
        # (1, 0), index 1, sits on the edge from (0, 0) to (2, 0)
        ring = forged_ring([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        message = r"does not turn left at sigma=\(1, -1, -1\)"
        with pytest.raises(ShadowPropertyError, match=message):
            _check_convex_ring(ring)

    def test_reflex_turn_raises(self):
        # (1, 1), index 2, is dented into the square
        ring = forged_ring([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)])
        message = r"does not turn left at sigma=\(-1, 1, -1\)"
        with pytest.raises(ShadowPropertyError, match=message):
            _check_convex_ring(ring)

    def test_clockwise_ring_raises(self):
        ring = forged_ring([(0, 0), (0, 2), (2, 2), (2, 0)])
        with pytest.raises(ShadowPropertyError, match=r"turn left at sigma=\(1, -1, -1\)"):
            _check_convex_ring(ring)

    def test_pentagram_raises(self):
        # a pentagon's vertices taken two apart turn left at every vertex but
        # wind around twice; the second pass of angle 0 is at index 4, (-8, -6)
        pentagon = [(10, 0), (3, 10), (-8, 6), (-8, -6), (3, -10)]
        star = [pentagon[2 * i % 5] for i in range(5)]
        assert all(orient2d(star[i - 2], star[i - 1], star[i]) > 0 for i in range(5))
        with pytest.raises(ShadowPropertyError, match=r"winds around twice, at sigma=\(-1, -1, 1\)"):
            _check_convex_ring(forged_ring(star))


def hull_neighbours(params, sigma) -> tuple:
    """The sigmas whose projected vertices precede and follow sigma's on the Fraction hull."""
    _hull, pos = fraction_shadow(params)
    ring = sorted(pos, key=pos.get)
    i = pos[sigma]
    return ring[i - 1], ring[(i + 1) % len(ring)]


def certificate_variants(params, sigma) -> dict:
    """sigma's certificate, and tampered ones aimed at each way the local test can fail.

    Scaling the certificate moves it off sigma's vertex either way; a hull
    edge at sigma's vertex gives a line tight at both of its ends; the next
    vertex's certificate, rescaled to be tight at sigma's vertex, passes above
    the next vertex.
    """
    d = params.dim
    prv_sigma, nxt_sigma = hull_neighbours(params, sigma)
    prv, pt, nxt = (
        project_shadow(cube_vertex(params, tau).coords) for tau in (prv_sigma, sigma, nxt_sigma)
    )
    point = certificate(params, sigma)
    beyond = project_shadow(certificate(params, nxt_sigma))
    assert dot(beyond, pt) > 0

    def embed(a):
        return Vec([0] * (d - 2) + list(a[-2:]))

    return {
        "valid": point,
        "below own vertex": embed(point * (1 - F(1, 10 ** 6))),
        "above own vertex": embed(point * (1 + F(1, 10 ** 6))),
        "tight at the previous vertex": embed(solve_linear_system([prv, pt], [1, 1])),
        "tight at the next vertex": embed(solve_linear_system([pt, nxt], [1, 1])),
        "above the next vertex": embed(beyond * (1 / dot(beyond, pt))),
    }


def integer_check_passes(params, sigma, point) -> bool:
    """Whether a . v == 1 at sigma's vertex and a . v < 1 at its two neighbours on the integer ring.

    The local test that `shadow_certificate`'s construction rests on: the
    ring is strictly convex and holds every projection, so it decides as the
    exhaustive oracle does. With a = (a1, a2) / den_a and a ring point
    V = den * v, a . v == 1 reads a1 * V1 + a2 * V2 == den * den_a.
    """
    d, den = params.dim, _shadow_data(params)[0]
    den_a, ((a1, a2),) = common_denominator([point[-2:]])
    one = den * den_a
    r = gray_rank(sigma)
    ring = [ring_point(params, gray_sigma(i % 2 ** d, d)) for i in (r - 1, r, r + 1)]
    prev_pt, pt, next_pt = ring
    return (
        a1 * pt[0] + a2 * pt[1] == one
        and a1 * prev_pt[0] + a2 * prev_pt[1] < one
        and a1 * next_pt[0] + a2 * next_pt[1] < one
    )


def refusal(sigma) -> str:
    """The pattern of `shadow_certificate`'s refusal of a sigma it keeps no support of."""
    return rf"^sigma={re.escape(str(sigma))} is not an admissible sign vector of length \d+$"


class TestShadowCertificateCheck:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_integer_check_equals_fraction_oracle(self, d):
        params = default_params(d)
        for sigma in spread(sign_vectors(d)):
            variants = certificate_variants(params, sigma)
            outcomes = {what: shadow_certificate_oracle(params, sigma, a) for what, a in variants.items()}
            assert outcomes == {
                "valid": True,
                "below own vertex": False,
                "above own vertex": False,
                "tight at the previous vertex": False,
                "tight at the next vertex": False,
                "above the next vertex": False,
            }
            for what, point in variants.items():
                assert integer_check_passes(params, sigma, point) == outcomes[what], (sigma, what)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_every_certificate_passes_the_exhaustive_oracle(self, d):
        params = default_params(d)
        for sigma in sign_vectors(d):
            assert shadow_certificate_oracle(params, sigma, certificate(params, sigma)), sigma

    @pytest.mark.parametrize("d", range(2, 11))
    def test_certificate_equals_the_three_vertex_computation(self, d):
        # an admissible sigma reads its integer support off the ring pass and
        # gives the reference's point; the library refuses any other, naming it
        params = default_params(d)
        for sigma in sign_vectors(d):
            if sigma[-2:] == (1, 1):
                assert shadow_point(params, sigma) == three_vertex_certificate(params, sigma)
            else:
                with pytest.raises(ValueError, match=refusal(sigma)):
                    shadow_certificate(params, sigma)

    @pytest.mark.parametrize("sigma", [(1, 1, 1), [1, 1, 1, 1, 1], (1, 1, 1, 0, 1), (2, 1, 1, 1)])
    def test_other_shapes_refused(self, params4, sigma):
        with pytest.raises(ValueError, match=refusal(tuple(sigma))):
            shadow_certificate(params4, sigma)

    @pytest.mark.parametrize("d", [2, 3, 6, 9])
    def test_integer_support_is_den_times_the_ring_support(self, d):
        # (N1, N2, S) = (m^d n_x, m^d n_y, n . pt) for the ring pass's support
        params = default_params(d)
        den, supports = _shadow_data(params)
        for sigma, (nx, ny, scale) in supports.items():
            N1, N2, S = shadow_certificate(params, sigma)
            assert all(type(c) is int for c in (N1, N2, S))
            assert (N1, N2, S) == (den * nx, den * ny, scale) and S > 0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_ring_pass_keeps_each_admissible_support_in_ring_order(self, d):
        params = default_params(d)
        den, supports = _shadow_data(params)
        ring = [sigma for sigma, _pt in _gray_ring(params)]
        assert list(supports) == [sigma for sigma in ring if sigma[-2:] == (1, 1)]
        assert sorted(supports) == sorted(admissible_sign_vectors(d))
        for sigma, (nx, ny, scale) in supports.items():
            vector = three_vertex_certificate(params, sigma)
            assert vector[-2:] == (F(den * nx, scale), F(den * ny, scale))

    @pytest.mark.parametrize("d", range(2, 10))
    def test_certificate_equals_fraction_construction(self, d):
        params = default_params(d)
        for sigma in sign_vectors(d):
            assert certificate(params, sigma) == shadow_certificate_reference(params, sigma)
