"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is an exact rational equality or a strict integer inequality;
no tolerances appear anywhere. Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import time
from fractions import Fraction as F

import pytest

from oracles import (
    Polygon2,
    construction_reference,
    cube_vertices,
    dot,
    enumerate_min_objective,
    fraction_shadow,
    reduced_hull_segment,
    relaxed_facet_multiplier,
    vec_add,
    vec_sub,
)
from test_qp import small_instances
from svmpath.construct import (
    admissible_constructions,
    build_instance,
    choose_stretch,
    generate_2d_arc_instance,
    mu_of_q,
)
from svmpath.geometry import Vec
from svmpath.goldfarb import GoldfarbParams, _shadow_data, dual_vertices, shadow_polygon
from svmpath.qp import ReducedHullQP, certify_construction, solve_reduced_distance, support_set
from svmpath.sweep import path_pieces, sweep_constructed, sweep_refined

DIMS = range(3, 9)


def _params(d):
    return GoldfarbParams(d, F(1, 3), F(1, 16))


@pytest.fixture(scope="module")
def built():
    """Instances and constructions for d = 3..8 at the certified stretch factor."""
    out = {}
    for d in DIMS:
        params = _params(d)
        s = choose_stretch(params)
        out[d] = (params, s, build_instance(params, s), admissible_constructions(params, s))
    return out


def test_criterion_1_distinct_support_sets(built):
    elapsed_d8 = None
    for d in DIMS:
        params, s, instance, _cons = built[d]
        assert s.factor == 20000
        started = time.time()
        # the d=8 leg is timed end to end: stretch search, certificates, and a
        # cold exact solve at every breakpoint
        assert choose_stretch(params).factor == 20000
        certs = [cert for cert, _weights in certify_construction(instance)]
        report = sweep_constructed(instance, certs)
        for cert in certs:
            solved = solve_reduced_distance(ReducedHullQP.from_instance(instance, cert.mu))
            assert solved == cert.pair
        if d == 8:
            elapsed_d8 = time.time() - started
        assert report.distinct_support_sets == 2 ** d // 4
        assert all(len(r.support_plus) == d for r in report.records)
    assert elapsed_d8 < 120
    print(f"\nACCEPTANCE 1 PASS: 2^d/4 distinct support sets of size d for d=3..8 "
          f"at L=20000, each a proven unique optimum that a cold solve reproduces "
          f"(d=8 leg: {elapsed_d8:.1f}s)")


def test_criterion_2_grid_sweep_bend_counts(built):
    counts = {}
    for d in DIMS:
        _params_, _s, instance, _cons = built[d]
        report = sweep_refined(instance, F(8, 10), F(1), 512, 6)
        assert report.bend_count > 2 ** d // 4
        counts[d] = report.bend_count
    print(f"\nACCEPTANCE 2 PASS: bend counts {counts} all exceed 2^d/4")


def test_criterion_3_shadow_vertex_counts():
    for d in range(2, 13):
        ring = shadow_polygon(_params(d))
        den = _shadow_data(_params(d))[0]
        assert len(ring) == 2 ** d
        # the Fraction polygon of the ring's projections checks strict convexity,
        # and it is the oracle's hull of all 2^d projected vertices
        polygon = Polygon2(Vec(pt) * F(1, den) for pt in ring)
        assert len(polygon) == 2 ** d
        assert polygon == fraction_shadow(_params(d))[0]
    assert len(shadow_polygon(_params(8))) == 256
    print("\nACCEPTANCE 3 PASS: shadow polygon has exactly 2^d vertices for d=2..12, "
          "strictly convex, equal to the oracle hull")


def test_criterion_4_kkt_certificates(built):
    total = 0
    for d in DIMS:
        params, s, instance, cons = built[d]
        # optimal and unique, in one pass in the constructions' order
        certified = list(certify_construction(instance))
        assert len(certified) == len(cons) == 2 ** (d - 2)
        for (pair, decomp), (cert, (A, den)) in zip(cons, certified):
            assert tuple(F(a, den) for a in A) == decomp.alphas
            assert F(max(A), den) == decomp.mu_sigma
            assert cert.sigma == pair.sigma
            assert cert.mu == mu_of_q(pair.q[-1], instance.calibration)
            assert cert.facet_multiplier == relaxed_facet_multiplier(params, pair.sigma, s.factor) > 0
            total += 1
    print(f"\nACCEPTANCE 4 PASS: {total} exact unique-optimum certificates on the instance QP "
          f"across d=3..8")


def test_criterion_5_solver_oracle_equivalence():
    instances = small_instances(200)
    assert len(instances) == 200
    for qp in instances:
        solved = solve_reduced_distance(qp)
        expected = enumerate_min_objective(qp.plus_points, qp.minus_points, qp.mu)
        assert solved.objective == expected
    print("\nACCEPTANCE 5 PASS: solver matches exhaustive enumeration on 200 instances")


def test_criterion_6_construction_invariants(built):
    for d in DIMS:
        params, s, instance, cons = built[d]
        calib = instance.calibration

        for vertex in cube_vertices(params):
            for coord, sign in zip(vertex.coords, vertex.sigma):
                assert coord != 0 and (coord > 0) == (sign == 1)

        duals = dual_vertices(params)
        for vertex in cube_vertices(params):
            for w in duals:
                value = dot(w.coords, vertex.coords)
                assert (value == 1) == (vertex.sigma[w.k - 1] == w.s)
                assert value <= 1

        for pair, decomp in cons:
            _p_shadow, q, slack, ((p, _alphas),) = construction_reference(params, pair.sigma, (s.factor,))
            assert pair.q == q and pair.q[-2] == 2
            assert slack < 0
            assert sum(decomp.alphas) == 1
            assert all(a > 0 for a in decomp.alphas)
            # positive weights summing to 1, d >= 2 of them: none reaches 1
            assert decomp.mu_sigma == max(decomp.alphas) < 1
            rebuilt = instance.plus_points[0] * 0
            for k in range(1, d + 1):
                idx = instance.plus_labels.index((k, pair.sigma[k - 1]))
                rebuilt = vec_add(rebuilt, instance.plus_points[idx] * decomp.alphas[k - 1])
            assert rebuilt == p
            left, right = reduced_hull_segment(
                calib.u_left, calib.u_right, mu_of_q(pair.q[-1], calib)
            )
            assert left == pair.q
            assert right == vec_sub(vec_add(calib.u_left, calib.u_right), pair.q)

        assert mu_of_q(calib.q_min, calib) == 1
        assert mu_of_q(calib.q_max, calib) == calib.mu_bar
    print("\nACCEPTANCE 6 PASS: construction invariants exhaustive for d=3..8")


def test_criterion_7_arc_demo_change_count():
    instance = generate_2d_arc_instance(20)
    report = sweep_refined(instance, F(1, 2), F(1), 257, 8)
    assert report.bend_count >= 2 * (20 - 3) == 34
    print(f"\nACCEPTANCE 7 PASS: 2D demo records {report.bend_count} >= 34 support changes")


def test_criterion_8_certified_breakpoints_on_the_walked_path(built):
    pieces_by_d = {}
    elapsed_d8 = None
    for d in DIMS:
        _params_, _s, instance, _cons = built[d]
        started = time.time()
        pieces = path_pieces(instance, F(8, 10), F(1))
        if d == 8:
            elapsed_d8 = time.time() - started
        assert pieces[0].covers(F(8, 10)) and pieces[-1].covers(F(1))
        certs = [cert for cert, _weights in certify_construction(instance)]
        # down the path in decreasing mu: each certified pair is the optimum of
        # a piece at or below the previous one's
        position = len(pieces) - 1
        for cert in sorted(certs, key=lambda c: c.mu, reverse=True):
            while position >= 0 and not pieces[position].covers(cert.mu):
                position -= 1
            assert position >= 0, f"sigma={cert.sigma} at mu={cert.mu} is not on the path"
            qp = ReducedHullQP.from_instance(instance, cert.mu)
            assert pieces[position].optimum(qp) == cert.pair
        assert len({support_set(cert.pair) for cert in certs}) == 2 ** d // 4
        pieces_by_d[d] = len(pieces)
    print(f"\nACCEPTANCE 8 PASS: all 2^d/4 certified breakpoints lie on the path walked "
          f"over [8/10, 1], in decreasing mu, for d=3..8 (pieces {pieces_by_d}; "
          f"d=8 walk {elapsed_d8:.2f}s)")
