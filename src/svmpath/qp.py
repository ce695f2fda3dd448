"""Exact solver for the reduced-hull distance problem and its optimality checks.

The dual SVM minimizes ||p - q||^2 over p, q in the reduced convex hulls of
the two classes: per class the coefficients are nonnegative, sum to one, and
are individually capped by the regularization parameter mu. The solver is a
primal active-set method run entirely in rational arithmetic: it maintains a
working set of coefficients pinned at 0 or mu, solves each equality-constrained
subproblem exactly, and moves bounds in and out by exact multiplier signs with
lowest-index tie-breaking. It stops only at an iterate whose exact multiplier
signs satisfy the KKT conditions, never by tolerance; the solver does not run
the independent checker `kkt_check_general` on its result (the tests do).

A constructed breakpoint is certified without solving: `build_kkt_certificate`
checks the candidate built from the construction with `kkt_check_general` on
the instance QP at the breakpoint's mu, and `unique_optimum` proves that no
other coefficient vector is optimal there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .construct import ConstructedPair, SupportDecomposition, SvmInstance, mu_of_q
from .geometry import (
    SingularMatrixError,
    Vec,
    solve_linear_system,
    solve_linear_system_general,
)

AT_LO, AT_HI = 0, 1


class SolverStalledError(Exception):
    """Iteration cap exceeded; the solver never returns an unverified answer."""


class FeasibilityError(Exception):
    """Candidate violates the dual constraints; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CertificateError(Exception):
    """A breakpoint is not the unique optimum at its mu; names sigma and mu."""


@dataclass(frozen=True)
class ReducedHullQP:
    """Distance problem between the mu-reduced hulls of two point classes."""

    plus_points: tuple
    minus_points: tuple
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "plus_points", tuple(Vec(p) for p in self.plus_points))
        object.__setattr__(self, "minus_points", tuple(Vec(p) for p in self.minus_points))
        object.__setattr__(self, "mu", Fraction(self.mu))
        for cls in (self.plus_points, self.minus_points):
            if not cls:
                raise ValueError("each class needs at least one point")
            if not Fraction(1, len(cls)) <= self.mu <= 1:
                raise ValueError(
                    f"mu = {self.mu} outside [1/{len(cls)}, 1]; reduced hull empty or uncapped"
                )

    @classmethod
    def from_instance(cls, instance, mu) -> "ReducedHullQP":
        return cls(instance.plus_points, instance.minus_points, Fraction(mu))


@dataclass(frozen=True)
class OptimalPair:
    """Solved distance pair with its dual coefficients and exact objective."""

    p: Vec
    q: Vec
    alpha_plus: tuple
    alpha_minus: tuple
    objective: Fraction


@dataclass(frozen=True)
class KktCertificate:
    """A constructed pair proven the unique optimum of its instance at mu.

    `facet_multiplier` is minus the plus-class multiplier: the multiplier of
    the sigma-facet when p is read as the projection of q onto that facet.
    """

    sigma: tuple
    mu: Fraction
    pair: OptimalPair
    facet_multiplier: Fraction


def _signed_points(qp: ReducedHullQP):
    pts = list(qp.plus_points) + list(qp.minus_points)
    signed = list(qp.plus_points) + [-v for v in qp.minus_points]
    n_plus = len(qp.plus_points)
    classes = (tuple(range(n_plus)), tuple(range(n_plus, len(pts))))
    return pts, signed, n_plus, classes


def _initial_point(qp: ReducedHullQP, classes, n: int, start: Optional[OptimalPair]):
    mu = qp.mu
    if start is not None:
        x = list(start.alpha_plus) + list(start.alpha_minus)
        if (
            len(x) == n
            and all(0 <= v <= mu for v in x)
            and sum(x[: len(classes[0])]) == 1
            and sum(x[len(classes[0]) :]) == 1
        ):
            return [Fraction(v) for v in x]
    x = [Fraction(0)] * n
    for cls in classes:
        k = int(1 / mu)
        remainder = 1 - k * mu
        for i in cls[:k]:
            x[i] = mu
        if remainder > 0:
            x[cls[k]] = remainder
    return x


def solve_reduced_distance(qp: ReducedHullQP, start: Optional[OptimalPair] = None) -> OptimalPair:
    """Exact global optimum of the reduced-hull distance problem.

    `start` may carry coefficients from a neighbouring solve (warm start);
    they are used only when exactly feasible for this mu. The loop returns
    only when the subproblem step is zero and no bound multiplier has the
    wrong sign, decided exactly at that iterate: these are the KKT conditions.
    `kkt_check_general` is not called here.
    """
    pts, signed, n_plus, classes = _signed_points(qp)
    n, d = len(pts), len(pts[0])
    mu = qp.mu
    x = _initial_point(qp, classes, n, start)

    working = {}
    for i in range(n):
        if x[i] == 0:
            working[i] = AT_LO
        elif x[i] == mu:
            working[i] = AT_HI

    cap = 1000 + 60 * n
    for _ in range(cap):
        w = [Fraction(0)] * d
        for i in range(n):
            if x[i]:
                si = signed[i]
                for c in range(d):
                    w[c] += x[i] * si[c]

        directions = []
        for cls in classes:
            free = [i for i in cls if i not in working]
            ref = free[0] if free else None
            for i in free[1:]:
                directions.append((i, ref))

        step = None
        if directions:
            cols = [
                tuple(signed[i][c] - signed[r][c] for c in range(d)) for i, r in directions
            ]
            normal = [
                [sum((a * b for a, b in zip(ci, cj)), Fraction(0)) for cj in cols]
                for ci in cols
            ]
            rhs = [-sum((a * b for a, b in zip(ci, w)), Fraction(0)) for ci in cols]
            try:
                step = solve_linear_system(normal, rhs)
            except SingularMatrixError:
                # flat subproblem: normal equations stay consistent; take the
                # particular solution with free parameters at zero
                step = solve_linear_system_general(normal, rhs)[0]

        delta = [Fraction(0)] * n
        if step is not None:
            for (i, r), t in zip(directions, step):
                if t:
                    delta[i] += t
                    delta[r] -= t

        if any(delta):
            length = Fraction(1)
            blocker = None
            for i in range(n):
                dv = delta[i]
                if dv < 0 and x[i] + dv < 0:
                    limit = x[i] / -dv
                    if limit < length or (limit == length and blocker is not None and i < blocker[0]):
                        length, blocker = limit, (i, AT_LO)
                elif dv > 0 and x[i] + dv > mu:
                    limit = (mu - x[i]) / dv
                    if limit < length or (limit == length and blocker is not None and i < blocker[0]):
                        length, blocker = limit, (i, AT_HI)
            if length > 0:
                for i in range(n):
                    if delta[i]:
                        x[i] += length * delta[i]
            if blocker is not None:
                working[blocker[0]] = blocker[1]
            continue

        # subproblem optimum reached: check bound multipliers exactly
        grad = [2 * sum((a * b for a, b in zip(signed[i], w)), Fraction(0)) for i in range(n)]
        drop = None
        for cls in classes:
            free = [i for i in cls if i not in working]
            if free:
                lam = grad[free[0]]
            else:
                highs = [grad[i] for i in cls if working.get(i) == AT_HI]
                lam = max(highs) if highs else min(grad[i] for i in cls)
            for i in cls:
                if i in working:
                    slack = grad[i] - lam if working[i] == AT_LO else lam - grad[i]
                    if slack < 0 and (drop is None or i < drop):
                        drop = i
        if drop is None:
            return _finish(qp, pts, n_plus, x)
        del working[drop]

    raise SolverStalledError(f"no optimum after {cap} iterations")


def _finish(qp: ReducedHullQP, pts, n_plus: int, x) -> OptimalPair:
    d = len(pts[0])
    p = Vec.zero(d)
    q = Vec.zero(d)
    for i in range(n_plus):
        if x[i]:
            p = p + pts[i] * x[i]
    for i in range(n_plus, len(pts)):
        if x[i]:
            q = q + pts[i] * x[i]
    diff = p - q
    return OptimalPair(p, q, tuple(x[:n_plus]), tuple(x[n_plus:]), diff.norm_sq())


def support_set(pair: OptimalPair) -> tuple:
    """Indices with strictly positive coefficient, split by class."""
    plus = frozenset(i for i, a in enumerate(pair.alpha_plus) if a > 0)
    minus = frozenset(i for i, a in enumerate(pair.alpha_minus) if a > 0)
    return plus, minus


def kkt_check_general(qp: ReducedHullQP, candidate: OptimalPair) -> bool:
    """Necessary-and-sufficient optimality check for a feasible candidate.

    Verifies feasibility exactly (raising FeasibilityError with the violated
    constraints otherwise), then decides whether per-class multipliers exist:
    within each class every free coefficient must see the same gradient value
    lam, coefficients at 0 must see gradient >= lam, and coefficients at mu
    must see gradient <= lam.
    """
    mu = qp.mu
    violations = []
    for label, alphas, points, ref in (
        ("+", candidate.alpha_plus, qp.plus_points, candidate.p),
        ("-", candidate.alpha_minus, qp.minus_points, candidate.q),
    ):
        if len(alphas) != len(points):
            violations.append(f"class {label}: wrong coefficient count")
            continue
        if sum(alphas) != 1:
            violations.append(f"class {label}: coefficients sum to {sum(alphas)}")
        for i, a in enumerate(alphas):
            if not 0 <= a <= mu:
                violations.append(f"class {label}: coefficient {i} = {a} outside [0, {mu}]")
        combo = Vec.zero(len(points[0]))
        for a, pt in zip(alphas, points):
            combo = combo + pt * a
        if combo != ref:
            violations.append(f"class {label}: stored point is not the coefficient combination")
    if violations:
        raise FeasibilityError(violations)

    ranges = _multiplier_ranges(qp, candidate)
    return all(hi is None or lo <= hi for _signed, _grads, lo, hi in ranges)


@lru_cache(maxsize=1)
def _multiplier_ranges(qp: ReducedHullQP, candidate: OptimalPair) -> tuple:
    """Per class: signed points, gradients, and the range of the class multiplier.

    The gradient of coefficient i is 2 s_i . (p - q) with s_i the point, negated
    in the minus class. A class multiplier lam is valid iff every coefficient
    above 0 sees gradient <= lam and every coefficient below mu sees gradient
    >= lam, so the valid values form [lo, hi]: lo is the largest gradient
    over positive coefficients, hi the smallest over coefficients below mu
    (None when every coefficient sits at mu). KKT holds iff lo <= hi in each
    class; a free coefficient pins lo == hi.

    The ranges of the last (qp, candidate) are kept, so `build_kkt_certificate`
    computes them once for `kkt_check_general`, `unique_optimum` and the
    plus-class multiplier.
    """
    w = candidate.p - candidate.q
    out = []
    for sign, alphas, points in (
        (1, candidate.alpha_plus, qp.plus_points),
        (-1, candidate.alpha_minus, qp.minus_points),
    ):
        signed = tuple(pt * sign for pt in points)
        grads = tuple(2 * s.dot(w) for s in signed)
        lo = max(g for g, a in zip(grads, alphas) if a > 0)
        hi = min((g for g, a in zip(grads, alphas) if a < qp.mu), default=None)
        out.append((signed, grads, lo, hi))
    return tuple(out)


def unique_optimum(qp: ReducedHullQP, candidate: OptimalPair) -> bool:
    """Exact proof that an optimal candidate is the only optimum of qp.

    Call it only on a candidate that `kkt_check_general` accepts. Every optimum
    has the same w = p - q, hence the same gradients, and the candidate's
    multipliers hold for it too. So a coefficient whose gradient differs from
    its class multiplier lam has a nonzero bound multiplier and sits at the
    same bound in every optimum. Where the valid lam form an interval, lam is
    taken strictly inside it and no coefficient of that class can move. The
    rest, the points whose gradient equals lam, could only move along a
    direction that keeps every class sum and w; none exists iff their
    differences to one reference point per class are linearly independent,
    decided by a nonsingular Gram matrix. False means such a direction exists;
    it leads to another optimum unless a point it moves sits at a bound.
    """
    diffs = []
    for signed, grads, lo, hi in _multiplier_ranges(qp, candidate):
        if lo != hi:
            continue
        movable = [s for s, g in zip(signed, grads) if g == lo]
        diffs.extend(s - movable[0] for s in movable[1:])
    gram = [[a.dot(b) for b in diffs] for a in diffs]
    try:
        solve_linear_system(gram, [0] * len(diffs))
    except SingularMatrixError:
        return False
    return True


def build_kkt_certificate(
    instance: SvmInstance, pair: ConstructedPair, decomp: SupportDecomposition
) -> KktCertificate:
    """Prove the constructed pair the unique optimum of the instance at its mu.

    At mu = mu_of_q(q[-1]) the candidate puts the decomposition weights on
    the plus points labeled (k, sigma_k) and (mu, 1 - mu) on (left, right). It
    must be feasible and pass `kkt_check_general` and `unique_optimum` on the
    instance QP; otherwise CertificateError names sigma and mu.
    """
    mu = mu_of_q(pair.q[-1], instance.calibration)
    alpha_plus = [Fraction(0)] * len(instance.plus_points)
    for k, (s, a) in enumerate(zip(pair.sigma, decomp.alphas), start=1):
        alpha_plus[instance.plus_labels.index((k, s))] = a
    candidate = OptimalPair(
        pair.p, pair.q, tuple(alpha_plus), (mu, 1 - mu), (pair.p - pair.q).norm_sq()
    )
    qp = ReducedHullQP.from_instance(instance, mu)
    where = f"sigma={pair.sigma} at mu={mu}"
    try:
        optimal = kkt_check_general(qp, candidate)
    except FeasibilityError as exc:
        raise CertificateError(f"infeasible candidate for {where}: {exc}") from exc
    if not optimal:
        raise CertificateError(f"KKT conditions fail for {where}")
    if not unique_optimum(qp, candidate):
        raise CertificateError(f"optimum is not unique for {where}")
    _signed, _grads, lam_plus, _hi = _multiplier_ranges(qp, candidate)[0]
    return KktCertificate(tuple(pair.sigma), mu, candidate, -lam_plus)


def nu_from_mu(mu, n: int) -> Fraction:
    """Convert the hull cap mu to the primal regularization value 2 / (n mu)."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    return Fraction(2, 1) / (n * mu)


def mu_from_nu(nu, n: int) -> Fraction:
    """Inverse conversion; round-trips exactly with nu_from_mu."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    return Fraction(2, 1) / (n * nu)
