import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEFAULT_STRETCH, REFERENCE_PARAMS, default_params, spread
from oracles import (
    build_p_stretched_reference,
    calibrate,
    constructed_p,
    construction_reference,
    cube_vertex,
    cube_vertices,
    dot,
    facet_strictness_oracle,
    facet_weights_reference,
    hull_chain,
    norm_sq,
    point_weights,
    reduced_hull_segment,
    shadow_point,
    solve_linear_system,
    strictness_check,
    vec_add,
    vec_sub,
    zero,
)
from svmpath import construct
from svmpath.construct import (
    CalibrationError,
    Calibration,
    StretchFactor,
    StrictnessError,
    admissible_constructions,
    breakpoints,
    build_instance,
    build_pair,
    check_stretch,
    choose_stretch,
    facet_strictness_check,
    generate_2d_arc_instance,
    line_point,
    mu_of_q,
    stretch,
    stretch_threshold,
    support_decomposition,
)
from svmpath.geometry import Vec
from svmpath.goldfarb import (
    GoldfarbParams,
    admissible_sign_vectors,
    dual_vertices,
    facet_weights,
)

small_rational = st.fractions(min_value=-6, max_value=6, max_denominator=10)

# the unstretched shadow plane, the paper's stretch 20000, and no stretch at all
ORACLE_ELLS = (F(0), 1 / DEFAULT_STRETCH.factor, F(1))
PAPER_L = DEFAULT_STRETCH.factor


def affine_weights(params, sigma, factor) -> tuple:
    """`_unstretched_pair`'s facet weights of p at stretch factor L, passing or not, as Fractions.

    (U + t W) / (g (t S1 + S2) top) at t = 1/L^2: what `_weights` forms over
    one denominator before its strictness check.
    """
    (S1, S2, g, _), (U, W, top) = construct._unstretched_pair(params, tuple(sigma))
    t = 1 / F(factor) ** 2
    den = g * (t * S1 + S2) * top
    return tuple((u + t * w) / den for u, w in zip(U, W))


def facet_test_points(params, ell, sigma) -> dict:
    """The constructed p at ell, and perturbations aimed at each failing branch.

    u lies in the sigma-facet hyperplane and points toward the facet of the
    neighbour that flips sigma's first sign; walking from p along u first
    meets another facet at t, found by ray shooting over every facet.
    """
    pair = build_pair(params, sigma)
    p = build_p_stretched_reference(pair.q, cube_vertex(params, sigma).coords, ell)
    normals = {v.sigma: stretch(v.coords, ell) for v in cube_vertices(params)}
    own = normals[sigma]
    toward = normals[(-sigma[0],) + sigma[1:]]
    u = vec_sub(toward, own * (dot(toward, own) / norm_sq(own)))
    t = min(
        (1 - dot(n, p)) / dot(n, u) for tau, n in normals.items() if tau != sigma and dot(n, u) > 0
    )
    return {
        "constructed": p,
        "not tight on sigma": p * (1 - F(1, 10 ** 6)),
        "tight on another facet": vec_add(p, u * t),
        "outside another facet": vec_add(p, u * (2 * t)),
    }


class TestStretch:
    def test_factor_one_is_identity(self):
        x = Vec((F(1, 3), -2, 5, F(7, 2)))
        assert stretch(x, 1) == x

    def test_plane_points_are_fixed(self):
        x = Vec((0, 0, 0, 2, F(-5, 3)))
        for factor in (F(1, 7), 1, 20000):
            assert stretch(x, factor) == x

    def test_componentwise(self):
        assert stretch(Vec((1, 1, 1, 1)), 20000) == Vec((20000, 20000, 1, 1))

    @settings(max_examples=40)
    @given(
        st.lists(small_rational, min_size=3, max_size=6).map(Vec),
        st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100).filter(lambda f: f > 0),
    )
    def test_round_trip(self, x, factor):
        assert stretch(stretch(x, factor), 1 / factor) == x

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tightness_transfers_to_stretched_incidences(self, d):
        # w . v <= 1 is tight exactly when w(L) . v(1/L) <= 1 is
        params = default_params(d)
        L = F(17, 3)
        for w in dual_vertices(params):
            for v in cube_vertices(params):
                plain = dot(w.coords, v.coords)
                transformed = dot(stretch(w.coords, L), stretch(v.coords, 1 / L))
                assert (plain == 1) == (transformed == 1)
                assert (plain < 1) == (transformed < 1)


class TestBuildQ:
    def test_line_coordinate_and_negative_slack(self, params4):
        for sigma in admissible_sign_vectors(4):
            pair = build_pair(params4, sigma)
            _p_shadow, q, slack, _at = construction_reference(params4, sigma, ())
            assert pair.q == q
            assert pair.q[-2] == 2
            assert slack < 0
            assert all(c == 0 for c in pair.q[:-2])

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_exact_identities_at_auto_stretch(self, d):
        # build_pair fixes q[d-2] = 2, the reference's q, with slack
        # 1 - v(0) . q; p lies on the stretched facet v(ell) . p = 1, and its
        # weights are the library's, for every admissible sigma
        params = default_params(d)
        s = choose_stretch(params)
        for sigma in admissible_sign_vectors(d):
            pair = build_pair(params, sigma)
            _p_shadow, q, slack, ((p, alphas),) = construction_reference(params, sigma, (s.factor,))
            vertex = cube_vertex(params, sigma).coords
            assert pair.q == q and pair.q[d - 2] == 2
            assert slack == 1 - dot(stretch(vertex, 0), pair.q)
            assert dot(stretch(vertex, 1 / s.factor), p) == 1
            assert support_decomposition(sigma, params, s).alphas == alphas

    def test_frozen_d4_value(self, params4):
        sigma = (1, 1, 1, 1)
        pair = build_pair(params4, sigma)
        assert shadow_point(params4, sigma) == Vec((0, 0, F(2975, 5547), F(59, 43)))
        assert pair.q == Vec((0, 0, 2, F(1850552, 715563)))
        assert construction_reference(params4, sigma, ())[2] == F(-114031355, 77280804)

    def test_independent_formula_evaluation(self, params4):
        # recompute q from the raw projection formula, bypassing the closed form
        sigma = (-1, 1, 1, 1)
        cert = shadow_point(params4, sigma)
        v0 = stretch(cube_vertex(params4, sigma).coords, 0)
        slack = (cert[-2] - 2) * norm_sq(v0) / v0[-2]
        expected_q = vec_sub(cert, v0 * (slack / norm_sq(v0)))
        pair = build_pair(params4, sigma)
        assert pair.q == expected_q and construction_reference(params4, sigma, ())[2] == slack
        assert slack == 1 - dot(v0, pair.q)

    def test_wrong_sign_vector_rejected(self, params4):
        with pytest.raises(ValueError):
            build_pair(params4, (1, 1, -1, 1))


class TestBuildPStretched:
    def test_zero_inverse_factor_recovers_shadow_point(self, params4):
        # the Fraction projection at ell = 0, which no stretch factor reaches
        for sigma in admissible_sign_vectors(4):
            pair = build_pair(params4, sigma)
            vertex = cube_vertex(params4, sigma).coords
            assert build_p_stretched_reference(pair.q, vertex, 0) == shadow_point(params4, sigma)

    @settings(max_examples=25)
    @given(st.fractions(min_value=F(1, 997), max_value=F(1, 10), max_denominator=997))
    def test_tight_for_any_inverse_factor(self, params4, ell):
        # and the library's affine weights at L = 1/ell, passing or not, are p's
        sigma = (1, -1, 1, 1)
        p = constructed_p(params4, sigma, 1 / ell)
        vertex = cube_vertex(params4, sigma).coords
        assert dot(stretch(vertex, ell), p) == 1
        assert affine_weights(params4, sigma, 1 / ell) == facet_weights_reference(
            params4, sigma, stretch(p, ell)
        )

    def test_displacement_is_negative_multiple_of_stretched_vertex(self, constructions4, params4):
        ell = 1 / PAPER_L
        for pair, _ in constructions4:
            v_ell = stretch(cube_vertex(params4, pair.sigma).coords, ell)
            _p_shadow, q, slack, ((p, _alphas),) = construction_reference(params4, pair.sigma, (PAPER_L,))
            assert q == pair.q
            diff = vec_sub(p, pair.q)
            # diff == slack * v_ell / ||v_ell||^2 with slack < 0
            assert diff * norm_sq(v_ell) == v_ell * slack


class TestFacetStrictness:
    def test_unstretched_shadow_points_pass(self, params4):
        for sigma in admissible_sign_vectors(4):
            assert strictness_check(shadow_point(params4, sigma), params4, 0, sigma)

    def test_constructed_pairs_pass_exhaustively(self, constructions4, params4):
        for pair, _ in constructions4:
            p = constructed_p(params4, pair.sigma, PAPER_L)
            assert strictness_check(p, params4, 1 / PAPER_L, pair.sigma)

    @pytest.mark.parametrize("ell", ORACLE_ELLS)
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_integer_check_equals_fraction_oracle(self, d, ell):
        params = default_params(d)
        for sigma in spread(admissible_sign_vectors(d)):
            for what, p in facet_test_points(params, ell, sigma).items():
                assert strictness_check(p, params, ell, sigma) == facet_strictness_oracle(
                    p, params, ell, sigma
                ), (sigma, what)

    # two of the benchmark's (eps, gamma) pairs; the test above has the paper's
    @pytest.mark.parametrize("eps,gamma", [(F(3, 8), F(1, 16)), (F(2, 5), F(1, 15))])
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_cone_form_equals_fraction_oracle(self, d, eps, gamma):
        params = GoldfarbParams(d, eps, gamma)
        for ell in ORACLE_ELLS:
            for sigma in spread(admissible_sign_vectors(d)):
                for what, p in facet_test_points(params, ell, sigma).items():
                    assert strictness_check(p, params, ell, sigma) == facet_strictness_oracle(
                        p, params, ell, sigma
                    ), (ell, sigma, what)

    @pytest.mark.parametrize("L,passing", [(1, False), (20000, True)])
    def test_cone_form_equals_fraction_oracle_where_the_stretch_fails(self, L, passing):
        # d = 9 needs a larger stretch than 20000: there some constructed
        # points pass and others fail, and at L = 1 every one fails
        params, s = default_params(9), StretchFactor(L)
        outcomes = set()
        for sigma in list(admissible_sign_vectors(9))[::4]:
            p = constructed_p(params, sigma, s.factor)
            got = strictness_check(p, params, 1 / s.factor, sigma)
            assert got == facet_strictness_oracle(p, params, 1 / s.factor, sigma), sigma
            outcomes.add(got)
        assert outcomes == ({False, True} if passing else {False})

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_perturbations_fail_by_their_own_branch_only(self, d):
        # around a passing constructed point, each perturbation breaks exactly
        # one condition, so every branch of the check is shown to fire
        params = default_params(d)
        ell = 1 / DEFAULT_STRETCH.factor
        for sigma in spread(admissible_sign_vectors(d)):
            points = facet_test_points(params, ell, sigma)
            assert strictness_check(points["constructed"], params, ell, sigma)
            branches = {}
            for what, p in points.items():
                values = {v.sigma: dot(stretch(v.coords, ell), p) for v in cube_vertices(params)}
                others = max(v for tau, v in values.items() if tau != sigma)
                branches[what] = (values[sigma] == 1, others < 1, others <= 1)
                if what != "constructed":
                    assert not strictness_check(p, params, ell, sigma), (sigma, what)
            assert branches == {
                "constructed": (True, True, True),
                "not tight on sigma": (False, True, True),
                "tight on another facet": (True, False, True),
                "outside another facet": (True, False, False),
            }

    def test_wrong_length_point_rejected(self, params4):
        with pytest.raises(ValueError):
            strictness_check(Vec((0, 0, 1)), params4, 0, (1, 1, 1, 1))

    def test_point_on_two_facets_fails(self, params4):
        # the midpoint of two vertices sharing d-1 facets lies on both
        sigma = (1, 1, 1, 1)
        neighbor = (-1, 1, 1, 1)
        duals = dual_vertices(params4)
        shared = [w.coords for w in duals if w.s == sigma[w.k - 1] and w.k != 1]
        mid = vec_add(shared[0], shared[1]) * F(1, 2)
        assert not strictness_check(mid, params4, 0, sigma)
        del neighbor


class TestSupportDecomposition:
    def test_barycenter_gives_uniform_weights(self, params4):
        sigma = (1, 1, 1, 1)
        duals = dual_vertices(params4)
        cols = [
            stretch(duals[2 * (k - 1) + 1].coords, DEFAULT_STRETCH.factor) for k in range(1, 5)
        ]
        barycenter = zero(4)
        for c in cols:
            barycenter = vec_add(barycenter, c * F(1, 4))
        W, den = point_weights(barycenter, params4, 1 / DEFAULT_STRETCH.factor, sigma)
        assert facet_strictness_check((W, den))
        alphas = tuple(F(w, den) for w in W)
        assert alphas == (F(1, 4),) * 4
        assert max(alphas) == F(1, 4)

    def test_reconstruction_exact_and_weights_positive(self, constructions4, params4):
        duals = {(w.k, w.s): w for w in dual_vertices(params4)}
        for pair, decomp in constructions4:
            # the weights on the stretched sigma-facet vertices give back p exactly
            support = [
                stretch(duals[k, s].coords, DEFAULT_STRETCH.factor)
                for k, s in enumerate(pair.sigma, start=1)
            ]
            p = constructed_p(params4, pair.sigma, PAPER_L)
            assert vec_add(*[w * a for w, a in zip(support, decomp.alphas)]) == p
            assert sum(decomp.alphas) == 1
            assert all(a > 0 for a in decomp.alphas)
            assert decomp.mu_sigma == max(decomp.alphas) < 1

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_banded_weights_equal_the_dense_solve(self, d):
        params = default_params(d)
        duals = dual_vertices(params)
        for sigma in spread(admissible_sign_vectors(d)):
            p = constructed_p(params, sigma, PAPER_L)
            cols = [
                stretch(duals[2 * k + (1 if sigma[k] == 1 else 0)].coords, DEFAULT_STRETCH.factor)
                for k in range(d)
            ]
            dense = solve_linear_system([[c[i] for c in cols] for i in range(d)], p)
            W, den = point_weights(p, params, 1 / DEFAULT_STRETCH.factor, sigma)
            assert tuple(F(w, den) for w in W) == tuple(dense)
            assert support_decomposition(sigma, params, DEFAULT_STRETCH).alphas == tuple(dense)

    def test_failing_branches_name_sigma_and_stretch(self, params4):
        # weights summing to 2 (p off the sigma-facet), then a nonpositive weight
        sigma = (1, 1, 1, 1)
        p = constructed_p(params4, sigma, PAPER_L)
        W, den = point_weights(p * 2, params4, 1 / DEFAULT_STRETCH.factor, sigma)
        assert sum(W) == 2 * den and all(w > 0 for w in W)
        assert not facet_strictness_check((W, den))
        unit = StretchFactor(1)
        p = constructed_p(params4, sigma, unit.factor)
        assert sum(facet_weights_reference(params4, sigma, stretch(p, 1))) == 1
        assert not facet_strictness_check(point_weights(p, params4, 1, sigma))
        with pytest.raises(StrictnessError, match=r"^facet strictness fails for sigma=\(1, 1, 1, 1\) at L=1$"):
            support_decomposition(sigma, params4, unit)
        # d = 9 needs more than 20000, and the failure names the factor
        with pytest.raises(StrictnessError, match=r"^facet strictness fails for sigma=\([-, 1]+\) at L=20000$"):
            admissible_constructions(default_params(9), DEFAULT_STRETCH)

    def test_two_facet_solves_per_sigma_per_pass(self, monkeypatch):
        # the weights at every stretch are affine in 1/L^2, with both parts
        # from one banded solve each per sigma: each pass over the sigmas
        # solves each once, and the calibration solves its two ends only.
        # Nothing is cached, so a second pass solves again (the commands'
        # counts are tests/test_cli.py's TestOnePass)
        solved = []

        def counted(params, sigma, X):
            solved.append(sigma)
            return facet_weights(params, sigma, X)

        monkeypatch.setattr(construct, "facet_weights", counted)
        params, each = GoldfarbParams(5, F(3, 10), F(1, 23)), list(admissible_sign_vectors(5))
        passes = (
            lambda: list(breakpoints(params, DEFAULT_STRETCH)),
            lambda: check_stretch(params, DEFAULT_STRETCH),
            lambda: choose_stretch(params),
            lambda: choose_stretch(params),
        )
        for one_pass in passes:
            del solved[:]
            one_pass()
            assert solved == [sigma for sigma in each for _ in range(2)]
        del solved[:]
        build_instance(params, DEFAULT_STRETCH)
        assert solved == [each[0]] * 2 + [(-1, -1, 1, 1, 1)] * 2

    def test_weights_witness_reduced_hull_membership(self, constructions4, instance4):
        # every breakpoint point lies in the capped hull at its own mu value:
        # max weight <= mu_bar <= mu(q_sigma)
        calib = instance4.calibration
        for pair, decomp in constructions4:
            assert decomp.mu_sigma <= calib.mu_bar <= mu_of_q(pair.q[-1], calib)


class TestIntegerConstructionMatchesFractionReference:
    """build_pair and support_decomposition against `oracles.construction_reference`."""

    @pytest.mark.parametrize("eps,gamma", REFERENCE_PARAMS)
    @pytest.mark.parametrize("d", range(3, 11))
    def test_every_sigma_at_the_chosen_stretch_and_below(self, d, eps, gamma):
        params = GoldfarbParams(d, eps, gamma)
        chosen = choose_stretch(params).factor
        factors = (chosen, chosen / 2, chosen / 4)
        first_failure = dict.fromkeys(factors)
        for sigma in admissible_sign_vectors(d):
            _p_shadow, q, slack, at = construction_reference(params, sigma, factors)
            assert build_pair(params, sigma).q == q and slack < 0
            for factor, (p, alphas) in zip(factors, at):
                s = StretchFactor(factor)
                # the weights of p that the library forms, whether or not they pass
                assert affine_weights(params, sigma, factor) == facet_weights_reference(
                    params, sigma, stretch(p, 1 / factor)
                ), (sigma, factor)
                if alphas is None:
                    message = f"facet strictness fails for sigma={sigma} at L={factor}"
                    with pytest.raises(StrictnessError) as failed:
                        support_decomposition(sigma, params, s)
                    assert str(failed.value) == message
                    first_failure[factor] = first_failure[factor] or message
                else:
                    decomp = support_decomposition(sigma, params, s)
                    assert (decomp.alphas, decomp.mu_sigma) == (alphas, max(alphas)), sigma
        for factor, message in first_failure.items():
            s = StretchFactor(factor)
            if message is None:
                assert len(admissible_constructions(params, s)) == 2 ** (d - 2)
            else:
                with pytest.raises(StrictnessError) as failed:
                    admissible_constructions(params, s)
                assert str(failed.value) == message
        # the chosen factor passes, and the one it doubled past fails
        assert first_failure[chosen] is None
        assert chosen == 20000 or first_failure[chosen / 2] is not None


class TestCalibration:
    def test_mu_bar_floor(self, instance4):
        assert instance4.calibration.mu_bar >= F(1, 2)

    def test_right_point_span(self, instance4):
        c = instance4.calibration
        assert c.u_right[-1] - c.u_left[-1] == (c.q_max - c.q_min) / (1 - c.mu_bar)

    def test_frozen_d4_mu_bar_against_independent_solves(self, params4, constructions4, instance4):
        # independent route: raw linear solves per sigma, then the max
        duals = dual_vertices(params4)
        mus = []
        for pair, _ in constructions4:
            cols = [
                stretch(duals[2 * (k - 1) + (1 if pair.sigma[k - 1] == 1 else 0)].coords,
                        DEFAULT_STRETCH.factor)
                for k in range(1, 5)
            ]
            matrix = [[cols[j][i] for j in range(4)] for i in range(4)]
            alphas = solve_linear_system(matrix, constructed_p(params4, pair.sigma, PAPER_L))
            mus.append(max(alphas))
        expected = max(F(1, 2), max(mus))
        calib = instance4.calibration
        assert calib.mu_bar == expected == F(9615407277421, 10027093130432)
        assert calib.q_min == F(107, 126)
        assert calib.q_max == F(130597, 32004)

    def test_coincident_positions_rejected(self, constructions4):
        pair, decomp = constructions4[0]
        with pytest.raises(CalibrationError):
            calibrate([pair, pair], [decomp, decomp])

    def test_single_pair_keeps_points_distinct(self):
        # dim 2 has a single admissible sigma; the span falls back to one unit
        params = default_params(2)
        cons = admissible_constructions(params, DEFAULT_STRETCH)
        calib = build_instance(params, DEFAULT_STRETCH).calibration
        assert calib == calibrate([c[0] for c in cons], [c[1] for c in cons])
        assert calib.u_left != calib.u_right
        assert calib.u_right[-1] - calib.u_left[-1] == 1 / (1 - calib.mu_bar)
        assert mu_of_q(calib.q_min, calib) == 1

    @staticmethod
    def assert_calibration_is_the_reference(params, s):
        # the same calibration as the Fraction one of every pair and
        # decomposition, or the same first failure of the commands' pass
        try:
            cons = admissible_constructions(params, s)
        except StrictnessError as failed:
            with pytest.raises(StrictnessError) as also:
                check_stretch(params, s)
            assert str(also.value) == str(failed)
            return
        expected = calibrate([c[0] for c in cons], [c[1] for c in cons])
        assert build_instance(params, s).calibration == expected

    @pytest.mark.parametrize("eps,gamma", REFERENCE_PARAMS)
    @pytest.mark.parametrize("d", range(2, 11))
    def test_integer_pass_equals_the_fraction_reference(self, d, eps, gamma):
        # the two ends' calibration at the chosen stretch, at half of it and at 1
        params = GoldfarbParams(d, eps, gamma)
        chosen = choose_stretch(params).factor
        for factor in (chosen, chosen / 2, 1):
            self.assert_calibration_is_the_reference(params, StretchFactor(factor))

    def test_random_parameters_and_stretches_equal_the_fraction_reference(self):
        # a seeded sample inside 0 < 4 gamma < eps < 1/2, at the chosen stretch
        # and at an explicit factor up to twice it, which fails about a third of the time
        rng = random.Random(37)
        for _ in range(150):
            eps = F(rng.randint(1, 999), 2000)
            params = GoldfarbParams(rng.randint(3, 9), eps, eps * F(rng.randint(1, 999), 4000))
            chosen = choose_stretch(params).factor
            for factor in (chosen, F(rng.randint(1, 2 * int(chosen)), 10 ** rng.randint(0, 3))):
                self.assert_calibration_is_the_reference(params, StretchFactor(factor))

    def test_gen_builds_no_pair(self, monkeypatch):
        # the calibration reads the integers of its two sigmas only
        def refused(*args):
            raise AssertionError("build_instance built a Fraction pair")

        for name in ("admissible_constructions", "build_pair", "support_decomposition"):
            monkeypatch.setattr(construct, name, refused)
        params = GoldfarbParams(6, F(3, 10), F(1, 25))
        calib = build_instance(params, choose_stretch(params)).calibration
        assert F(1, 2) <= calib.mu_bar < 1 and calib.q_min < calib.q_max


class TestMuOfQ:
    def test_endpoints(self, instance4):
        c = instance4.calibration
        assert mu_of_q(c.q_min, c) == 1
        assert mu_of_q(c.q_max, c) == c.mu_bar

    def test_midpoint_interpolates(self, instance4):
        c = instance4.calibration
        assert mu_of_q((c.q_min + c.q_max) / 2, c) == (1 + c.mu_bar) / 2

    def test_strictly_decreasing(self, instance4):
        c = instance4.calibration
        span = c.q_max - c.q_min
        values = [mu_of_q(c.q_min + span * F(i, 8), c) for i in range(9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self, instance4):
        c = instance4.calibration
        with pytest.raises(ValueError):
            mu_of_q(c.q_max + 1, c)


class TestReducedHullSegment:
    def test_full_cap_is_whole_segment(self, instance4):
        c = instance4.calibration
        assert reduced_hull_segment(c.u_left, c.u_right, 1) == (c.u_left, c.u_right)

    def test_half_cap_degenerates_to_midpoint(self, instance4):
        c = instance4.calibration
        left, right = reduced_hull_segment(c.u_left, c.u_right, F(1, 2))
        assert left == right == vec_add(c.u_left, c.u_right) * F(1, 2)

    def test_breakpoint_cap_pins_left_endpoint_at_q(self, constructions4, instance4):
        c = instance4.calibration
        for pair, _ in constructions4:
            mu = mu_of_q(pair.q[-1], c)
            left, right = reduced_hull_segment(c.u_left, c.u_right, mu)
            assert left == pair.q
            assert right == vec_sub(vec_add(c.u_left, c.u_right), pair.q)

    def test_out_of_range_rejected(self, instance4):
        c = instance4.calibration
        with pytest.raises(ValueError):
            reduced_hull_segment(c.u_left, c.u_right, F(1, 4))


class TestInstance:
    def test_point_count(self, instance4):
        assert instance4.n_points == 2 * 4 + 2

    def test_plus_class_spans_stretched_dual_cube(self, instance4, params4):
        # membership in the stretched dual cube is exactly the system
        # v_tau(1/L) . x <= 1; all plus points satisfy it, each tight somewhere
        ell = 1 / DEFAULT_STRETCH.factor
        normals = [stretch(v.coords, ell) for v in cube_vertices(params4)]
        for pt in instance4.plus_points:
            values = [dot(n, pt) for n in normals]
            assert all(v <= 1 for v in values)
            assert any(v == 1 for v in values)

    def test_line_disjoint_from_stretched_dual_cube(self, instance4, params4):
        ell = 1 / DEFAULT_STRETCH.factor
        normals = [stretch(v.coords, ell) for v in cube_vertices(params4)]
        probes = [instance4.calibration.u_left, instance4.calibration.u_right] + [
            line_point(4, F(t)) for t in (-50, -1, 0, 3, 50)
        ]
        for x in probes:
            assert any(dot(n, x) > 1 for n in normals)

    def test_d8_instance_builds(self):
        inst = build_instance(default_params(8), DEFAULT_STRETCH)
        assert inst.n_points == 18

    def test_q_and_p_pairwise_distinct_d6(self):
        cons = admissible_constructions(default_params(6), DEFAULT_STRETCH)
        qs = [c[0].q for c in cons]
        ps = [constructed_p(default_params(6), c[0].sigma, PAPER_L) for c in cons]
        assert len(set(qs)) == len(qs) == 16
        assert len(set(ps)) == len(ps) == 16


class TestChooseStretch:
    def test_default_start_passes_unchanged_d4(self, params4):
        assert choose_stretch(params4).factor == 20000

    @pytest.mark.parametrize("eps,gamma", REFERENCE_PARAMS)
    @pytest.mark.parametrize("d", range(3, 11))
    def test_threshold_is_sharp(self, d, eps, gamma):
        # a factor passes exactly when its square exceeds 1/t*: every sigma
        # passes just above sqrt(1/t*), some sigma fails at or just below it
        params = GoldfarbParams(d, eps, gamma)
        threshold = stretch_threshold(params)
        scale = 2 ** 40
        root = isqrt(threshold.numerator * scale * scale // threshold.denominator)
        below, above = F(root, scale), F(root + 1, scale)
        assert below * below <= threshold < above * above
        for sigma in admissible_sign_vectors(d):
            assert min(support_decomposition(sigma, params, StretchFactor(above)).alphas) > 0
        with pytest.raises(StrictnessError):
            admissible_constructions(params, StretchFactor(below))
        # the chosen factor is the first doubling of 20000 past the threshold
        chosen = choose_stretch(params).factor
        assert chosen * chosen > threshold
        assert chosen == 20000 or (chosen / 2) ** 2 <= threshold

    def test_factor_at_the_threshold_is_doubled_past(self, monkeypatch):
        # L^2 == 1/t* leaves a weight at 0, so that factor fails
        monkeypatch.setattr(construct, "stretch_threshold", lambda params: F(20000 ** 2))
        assert choose_stretch(default_params(4)).factor == 40000

    def test_no_threshold_when_a_weight_does_not_stay_positive(self, monkeypatch):
        # a weight that is not positive at t = 1/L^2 -> 0 fails at every large L
        unstretched = construct._unstretched_pair

        def forced(params, sigma):
            *rest, (U, W, top) = unstretched(params, sigma)
            return (*rest, ((0,) + U[1:] if sigma == (-1, 1, 1, 1) else U, W, top))

        monkeypatch.setattr(construct, "_unstretched_pair", forced)
        message = r"^facet strictness fails for sigma=\(-1, 1, 1, 1\) at every large L$"
        with pytest.raises(StrictnessError, match=message):
            stretch_threshold(default_params(4))
        with pytest.raises(StrictnessError, match=message):
            choose_stretch(default_params(4))


class TestArcDemo:
    def test_sizes(self):
        inst = generate_2d_arc_instance(20)
        assert len(inst.plus_points) == 20
        assert len(inst.minus_points) == 2

    def test_points_in_convex_position(self):
        inst = generate_2d_arc_instance(20)
        assert len(hull_chain(inst.plus_points)) == 20

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_2d_arc_instance(2)
