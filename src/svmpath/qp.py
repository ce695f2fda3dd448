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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .construct import ConstructedPair, stretch
from .geometry import (
    SingularMatrixError,
    Vec,
    solve_linear_system,
    solve_linear_system_general,
)
from .goldfarb import GoldfarbParams, cube_vertex

AT_LO, AT_HI = 0, 1


class SolverStalledError(Exception):
    """Iteration cap exceeded; the solver never returns an unverified answer."""


class FeasibilityError(Exception):
    """Candidate violates the dual constraints; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CertificateError(Exception):
    """An optimality certificate equation fails; names the broken equation."""


class UniquenessError(Exception):
    """A perturbed candidate ties the constructed optimum."""


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
    """Multipliers certifying a constructed pair against the facet system.

    `facet_multipliers` holds the single nonzero facet multiplier (all others
    are zero); `line_multipliers` is the multiplier vector of the line and ray
    constraints on q, whose last entry must be <= 0.
    """

    facet_multipliers: dict
    line_multipliers: Vec


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

    w = candidate.p - candidate.q
    for sign, alphas, points in (
        (1, candidate.alpha_plus, qp.plus_points),
        (-1, candidate.alpha_minus, qp.minus_points),
    ):
        grads = [2 * sign * pt.dot(w) for pt in points]
        free = [g for g, a in zip(grads, alphas) if 0 < a < mu]
        lows = [g for g, a in zip(grads, alphas) if a == 0]
        highs = [g for g, a in zip(grads, alphas) if a == mu]
        if free:
            lam = free[0]
            if any(g != lam for g in free[1:]):
                return False
            if any(g < lam for g in lows) or any(g > lam for g in highs):
                return False
        else:
            floor = max(highs) if highs else None
            ceil = min(lows) if lows else None
            if floor is not None and ceil is not None and floor > ceil:
                return False
    return True


def build_kkt_certificate(pair: ConstructedPair, params: GoldfarbParams, ell) -> KktCertificate:
    """Multipliers for a constructed pair, verified equation by equation.

    The single facet multiplier is -2 * slack / ||v_sigma(ell)||^2 > 0; the
    line multiplier vector is 2(p - q). Raises CertificateError naming the
    first equation that fails.
    """
    ell = Fraction(ell)
    if pair.sigma[-1] != 1:
        raise ValueError("certificate construction needs the last sign to be +1")
    v_ell = stretch(cube_vertex(params, pair.sigma).coords, ell)
    lam = -2 * pair.slack / v_ell.norm_sq()
    if lam <= 0:
        raise CertificateError(f"facet multiplier {lam} is not positive")
    line_multipliers = (pair.p - pair.q) * 2

    residual = (pair.p - pair.q) * 2 + v_ell * lam
    if any(residual):
        raise CertificateError(f"stationarity in p fails for sigma={pair.sigma}")
    if any((pair.q - pair.p) * 2 + line_multipliers):
        raise CertificateError(f"stationarity in q fails for sigma={pair.sigma}")
    if lam * (v_ell.dot(pair.p) - 1) != 0:
        raise CertificateError(f"facet complementary slackness fails for sigma={pair.sigma}")
    # ray complementary slackness: q is the ray endpoint itself
    if line_multipliers[-1] * (pair.q[-1] - pair.q[-1]) != 0:
        raise CertificateError(f"ray complementary slackness fails for sigma={pair.sigma}")
    if line_multipliers[-1] > 0:
        raise CertificateError(
            f"ray multiplier {line_multipliers[-1]} must be <= 0 for sigma={pair.sigma}"
        )
    return KktCertificate({tuple(pair.sigma): lam}, line_multipliers)


def _relaxed_objective(p: Vec, q: Vec) -> Fraction:
    return (p - q).norm_sq()


def verify_relaxed_uniqueness(
    pair: ConstructedPair, params: GoldfarbParams, ell, trials: int = 6
) -> bool:
    """Falsification test of uniqueness on the single-facet relaxation.

    Deterministic rational perturbations of the pair (q moved along the line,
    p moved within the facet hyperplane, and both re-projections) must each be
    infeasible or strictly worse. A tie raises UniquenessError.
    """
    ell = Fraction(ell)
    d = params.dim
    v_ell = stretch(cube_vertex(params, pair.sigma).coords, ell)
    base = _relaxed_objective(pair.p, pair.q)

    def check(p_cand: Vec, q_cand: Vec, what: str):
        # feasibility for the relaxed problem: the facet inequality on p and
        # the line/ray constraints on q
        if v_ell.dot(p_cand) > 1:
            return
        if any(q_cand[i] != 0 for i in range(d - 2)) or q_cand[d - 2] != 2:
            return
        if q_cand[-1] < pair.q[-1]:
            return
        value = _relaxed_objective(p_cand, q_cand)
        if value <= base and (p_cand, q_cand) != (pair.p, pair.q):
            raise UniquenessError(f"{what} ties or beats the constructed pair")

    check(pair.p, pair.q, "the pair itself")  # self-comparison stays allowed

    step = Fraction(1)
    for _ in range(trials):
        up = Vec(list(pair.q[:-1]) + [pair.q[-1] + step])
        check(pair.p, up, f"q raised by {step}")
        slack = 1 - v_ell.dot(up)
        reproj = up + v_ell * (slack / v_ell.norm_sq())
        check(reproj, up, f"q raised by {step}, p re-projected")
        down = Vec(list(pair.q[:-1]) + [pair.q[-1] - step])
        check(pair.p, down, f"q lowered by {step}")  # infeasible: filtered out
        step /= 2

    scale = Fraction(1, 8)
    for axis in range(d - 1):
        shift = Vec.unit(d, axis) - Vec.unit(d, d - 1) * (v_ell[axis] / v_ell[-1])
        for direction in (scale, -scale):
            check(pair.p + shift * direction, pair.q, f"p shifted along axis {axis}")
    return True


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
