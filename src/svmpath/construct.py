"""Stretched instances: breakpoint pairs, support decompositions, calibration.

For each admissible sign vector sigma (last two entries +1) the construction
produces a point q_sigma on the vertical line {x : x_1 = ... = x_{d-2} = 0,
x_{d-1} = 2} and its projection p_sigma onto the sigma-facet of the stretched
dual cube, held as its weights over that facet's d vertices. From the shadow
ring's integer support of sigma to q_sigma and those weights, every step is
in integers, and each command makes them once per sigma, in its one pass. Two
extra points on that line, calibrated off two sigmas, turn the family into a
single SVM instance whose path visits every pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Optional

from .geometry import FrozenRecord, PointTable, Vec, VerificationFailure
from .goldfarb import (
    GoldfarbParams,
    SignVec,
    admissible_sign_vectors,
    dual_vertices,
    facet_weights,
    shadow_certificate,
    vertex_row,
)


class CalibrationError(VerificationFailure):
    """q_min == q_max at two distinct pairs, contradicting their distinctness."""


class StrictnessError(VerificationFailure):
    """A constructed point is not strictly inside every facet but its own.

    Equivalently, it is not a positive convex combination of its facet's d vertices:
    L^2 is not above `stretch_threshold`, or no L is large enough (or a bug).
    """


class StretchFactor(FrozenRecord):
    """Multiplier applied to all coordinates except the last two."""

    __slots__ = _fields = ("factor",)

    def __init__(self, factor: Fraction):
        super().__init__(Fraction(factor))
        if self.factor <= 0:
            raise ValueError("stretch factor must be positive")


def stretch(x: Vec, factor) -> Vec:
    """Scale the first d-2 coordinates by `factor`, keep the last two."""
    f = Fraction(factor)
    d = len(x)
    return Vec([f * c for c in x[: d - 2]] + list(x[d - 2 :]))


def line_point(dim: int, last: Fraction) -> Vec:
    """The point (0, ..., 0, 2, last) on the construction line."""
    return Vec([Fraction(0)] * (dim - 2) + [Fraction(2), Fraction(last)])


class ConstructedPair(FrozenRecord):
    """One breakpoint of the path: sigma and q = (0, ..., 0, 2, q_d) on the construction line.

    Its p, the projection of q onto the stretched sigma-facet, is no field:
    its integer weights over the stretched facet duals (`_weights`) fix it,
    and they are what a certificate compares.
    """

    __slots__ = _fields = ("sigma", "q")


class SupportDecomposition(FrozenRecord):
    """Unique convex combination of p over the d facet vertices; all weights > 0."""

    __slots__ = _fields = ("sigma", "alphas", "mu_sigma")


class Calibration(FrozenRecord):
    """Placement data for the two-point class on the construction line."""

    __slots__ = _fields = ("mu_bar", "q_min", "q_max", "u_left", "u_right")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not Fraction(1, 2) <= self.mu_bar < 1:
            raise ValueError("mu_bar must lie in [1/2, 1)")
        if self.q_min > self.q_max:
            raise ValueError("q_min must not exceed q_max")
        if self.u_left[-1] != self.q_min:
            raise ValueError("u_left must sit at q_min")


class SvmInstance(FrozenRecord):
    """Two labeled point classes; class +1 spans the stretched dual cube.

    For constructed instances n = 2d + 2: the 2d stretched dual vertices
    labeled by their facet pair (k, s), plus two points on the line labeled
    'left' and 'right'. The 2D demo instance stores plain integer labels and
    no construction metadata.

    `table`, the instance's PointTable, is built on first use and is no
    field: equality, hashing, the repr and the file format never see it.
    """

    _fields = ("plus_points", "plus_labels", "minus_points", "params", "stretch", "calibration")
    __slots__ = _fields + ("_table",)

    def __init__(
        self,
        plus_points: tuple,
        plus_labels: tuple,
        minus_points: tuple,
        params: Optional[GoldfarbParams] = None,
        stretch: Optional[StretchFactor] = None,
        calibration: Optional[Calibration] = None,
    ):
        super().__init__(plus_points, plus_labels, minus_points, params, stretch, calibration)
        object.__setattr__(self, "_table", None)

    @property
    def dim(self) -> int:
        return len(self.plus_points[0])

    @property
    def n_points(self) -> int:
        return len(self.plus_points) + len(self.minus_points)

    @property
    def table(self) -> PointTable:
        if self._table is None:
            object.__setattr__(self, "_table", PointTable(self.plus_points, self.minus_points))
        return self._table


MINUS_LABELS = ("left", "right")


def _unstretched_pair(params: GoldfarbParams, sigma: SignVec) -> tuple:
    """((S1, S2, g, Qd), (U, W, top)): the part of a pair that no stretch changes.

    The shadow point a = (0, ..., 0, N1 / S, N2 / S) of `shadow_certificate`
    moves along v(0) = stretch(v_sigma, 0) to the line,
    q = a - v(0) slack / ||v(0)||^2 with q[-2] = 2, so q = (0, ..., 0, 2, q_d)
    for q_d = a_d - (a_(d-1) - 2) v_d / v_(d-1), and slack = 1 - v(0) . q
    = (a_(d-1) - 2) ||v(0)||^2 / v_(d-1). Here v = V / D is
    `vertex_row`'s integer row, S1 = sum of V_k^2 over k <= d-2 and
    S2 = V_(d-1)^2 + V_d^2. Over g = S V_(d-1), q_d = Qd / g for
    Qd = N2 V_(d-1) - (N1 - 2 S) V_d, and slack D = H / g; the three are then
    divided by their gcd, which leaves them canonical since g > 0.
    No sign needs a check: V_(d-1) > 0, as `shadow_certificate` refuses a
    sigma_(d-1) = -1 and `_vertex` a bound z_k <= 0, so g > 0; and H < 0, as
    a_(d-1) <= 1 / rhs_(d-1) < 2 for a in the polar of the cube, which holds
    (0, ..., 0, rhs_(d-1), 0), and every rhs exceeds 1/2.

    The facet weights of p are affine in t = 1/L^2: with X0 = (0, ..., 0,
    2 g S2 + H V_(d-1), Qd S2 + H V_d) and X1 = (H V_1, ..., H V_(d-2),
    2 g S1, Qd S1), g (t S1 + S2) stretch(p, 1/L) = X0 + t X1, whose
    `facet_weights` are (U + t W, top) for those (U, top) of X0 and W of X1.
    """
    N1, N2, S = shadow_certificate(params, sigma)
    V, D = vertex_row(params, sigma)
    g = S * V[-2]
    Qd = N2 * V[-2] - (N1 - 2 * S) * V[-1]
    H = g * (D - 2 * V[-2]) - Qd * V[-1]
    c = gcd(g, H, Qd)
    g, H, Qd = g // c, H // c, Qd // c
    S1, S2 = sum([v * v for v in V[:-2]]), V[-2] * V[-2] + V[-1] * V[-1]
    U, top = facet_weights(params, sigma, [0] * (len(V) - 2) + [2 * g * S2 + H * V[-2], Qd * S2 + H * V[-1]])
    W, _ = facet_weights(params, sigma, [H * v for v in V[:-2]] + [2 * g * S1, Qd * S1])
    return (S1, S2, g, Qd), (U, W, top)


# No command calls it; perfbench/tracer.py reads it by name and the tests compare with it.
def build_pair(params: GoldfarbParams, sigma: SignVec) -> ConstructedPair:
    """The breakpoint pair of one admissible sigma (`shadow_certificate` refuses any other): its q."""
    sigma = tuple(sigma)
    *_, g, Qd = _unstretched_pair(params, sigma)[0]
    return ConstructedPair(sigma, line_point(params.dim, Fraction(Qd, g)))


def facet_strictness_check(weights: tuple) -> bool:
    """True iff weights (W, den) put their point on its sigma-facet and strictly inside all others.

    Cone form of the exhaustive test over all 2^d vertices. Since
    stretch(v, ell) . p == v . stretch(p, ell), let alpha = W / den be the
    `facet_weights` of p' = stretch(p, ell). The sigma-facet duals satisfy
    w_(k, s) . v_tau = 1 when tau_k = s and 1 - 2 z_k(tau) / rhs_k otherwise,
    so p' . v_tau = sum(alpha) - 2 sum over the flipped k of
    alpha_k z_k(tau) / rhs_k. With every z_k(tau) > 0 (the shadow ring's
    Gray-code pass, `goldfarb._shadow_data`, checks each one and raises
    otherwise), positive weights summing to 1 make p tight at sigma
    and strict at every other tau; and if some alpha_k <= 0, the neighbour
    that flips only sign k has p' . v_tau >= sum(alpha). So the check is
    sum(alpha) == 1 and all(alpha > 0), in O(d): with den > 0, sum(W) == den
    and all(W > 0). `_weights` checks each sigma so, for `breakpoints`.
    """
    W, den = weights
    return sum(W) == den and all(w > 0 for w in W)


def _weights(pair: tuple, s: StretchFactor, sigma: Optional[SignVec] = None) -> tuple:
    """(A, den): the pair's weights at L = n / m, n^2 U + m^2 W over den = g (m^2 S1 + n^2 S2) top.

    `pair` is sigma's `_unstretched_pair`. Given sigma, StrictnessError names it unless they pass
    `facet_strictness_check`; `build_instance` reads sigma_hi's unchecked.
    """
    (S1, S2, g, _), (U, W, top) = pair
    nn, mm = s.factor.numerator ** 2, s.factor.denominator ** 2
    A = [nn * u + mm * w for u, w in zip(U, W)]
    den = g * (mm * S1 + nn * S2) * top
    if sigma is not None and not facet_strictness_check((A, den)):
        raise StrictnessError(f"facet strictness fails for sigma={sigma} at L={s.factor}")
    return A, den


# No command calls it; perfbench/tracer.py reads it by name and the tests compare with it.
def support_decomposition(sigma: SignVec, params: GoldfarbParams, s: StretchFactor) -> SupportDecomposition:
    """The weights alpha with sum_k alpha_k w_(k, sigma_k)(L) = p for sigma's constructed p.

    Unstretching both sides by 1/L gives the same weights over the
    unstretched duals, sum_k alpha_k w_(k, sigma_k) = stretch(p, 1/L): the
    integer `_weights`, made Fractions only once they pass. They are
    positive and sum to 1 exactly when p is strictly inside every facet but
    its own (`facet_strictness_check`). The largest, mu_sigma, is below 1.
    """
    sigma = tuple(sigma)
    A, den = _weights(_unstretched_pair(params, sigma), s, sigma)
    alphas = tuple([Fraction(a, den) for a in A])
    return SupportDecomposition(sigma, alphas, alphas[A.index(max(A))])


def mu_of_q(q_last: Fraction, calib: Calibration) -> Fraction:
    """Regularization value at which the pair with this q position is optimal.

    Linear in q_last: 1 at q_min, mu_bar at q_max, strictly decreasing.
    """
    q_last = Fraction(q_last)
    if not calib.q_min <= q_last <= calib.q_max:
        raise ValueError(f"q position {q_last} outside [{calib.q_min}, {calib.q_max}]")
    if q_last == calib.q_min:
        return Fraction(1)
    return 1 - (q_last - calib.q_min) * (1 - calib.mu_bar) / (calib.q_max - calib.q_min)


# No command calls it; perfbench/tracer.py reads it by name and the tests compare with it.
def admissible_constructions(params: GoldfarbParams, s: StretchFactor) -> tuple:
    """(pair, decomposition) for every admissible sigma, lexicographic order.

    Raises StrictnessError when L^2 <= `stretch_threshold`.
    """
    return tuple(
        (build_pair(params, sigma), support_decomposition(sigma, params, s))
        for sigma in admissible_sign_vectors(params.dim)
    )


def breakpoints(params: GoldfarbParams, s: StretchFactor) -> Iterator[tuple]:
    """(sigma, A, den, Qd, g) per admissible sigma, lexicographically: its `_weights` and q_d = Qd / g.

    The pass of `kkt.certify_construction` and `check_stretch`; it keeps no sigma. den, g > 0.
    """
    for sigma in admissible_sign_vectors(params.dim):
        (*_, g, Qd), _ = pair = _unstretched_pair(params, sigma)
        yield (sigma, *_weights(pair, s, sigma), Qd, g)


def check_stretch(params: GoldfarbParams, s: StretchFactor) -> None:
    """Raise StrictnessError, naming the lexicographically first sigma that fails at s, if any does."""
    for _ in breakpoints(params, s):
        pass


def build_instance(params: GoldfarbParams, s: StretchFactor) -> SvmInstance:
    """The full 2d + 2 point instance, calibrated off the two ends of the Gray code.

    q_min is q_d of sigma_lo = (-1, ..., -1, 1, 1), and q_max and mu_bar (its largest weight, or 1/2)
    are sigma_hi's, (-1, ..., -1, 1, 1, 1): their heads end the shadow ring's reflected Gray code.
    That these are the extremes over all sigmas is measured against the Fraction calibration, not
    proven; `verify` refuses a q_d outside [q_min, q_max], and each command checks strictness in its
    own pass. u_left sits at q_min, u_right at q_min + (q_max - q_min or 1 at dim 2) / (1 - mu_bar).
    """
    d, sigma_lo = params.dim, next(admissible_sign_vectors(params.dim))
    sigma_hi = sigma_lo[:-3] + (1, 1, 1)[-d:]  # sigma_lo at dim 2
    lo, hi = _unstretched_pair(params, sigma_lo), _unstretched_pair(params, sigma_hi)
    A, den = _weights(hi, s)
    if max(A) >= den:  # then mu_bar >= 1 and sigma_hi fails at s: name the first sigma that does
        check_stretch(params, s)
    q_min, q_max = (Fraction(Qd, g) for (*_, g, Qd), _ in (lo, hi))
    mu_bar = max(Fraction(1, 2), Fraction(max(A), den))
    if q_min == q_max and d > 2:
        raise CalibrationError("all q positions coincide across distinct pairs")
    span = (q_max - q_min) if q_max > q_min else Fraction(1)
    u_left, u_right = line_point(d, q_min), line_point(d, q_min + span / (1 - mu_bar))
    calib, duals = Calibration(mu_bar, q_min, q_max, u_left, u_right), dual_vertices(params)
    plus_points = tuple(stretch(w.coords, s.factor) for w in duals)
    return SvmInstance(plus_points, tuple((w.k, w.s) for w in duals), (u_left, u_right), params, s, calib)


def stretch_threshold(params: GoldfarbParams) -> Fraction:
    """1/t*: a stretch factor L passes exactly when L^2 > 1/t*.

    Sigma passes at t = 1/L^2 when each affine weight U_k + t W_k of
    `_unstretched_pair` is positive; they sum to g (t S1 + S2) top. If every
    U_k > 0, only a W_k < 0 bounds t, by 1/t > -W_k / U_k, so 1/t* is the
    largest such ratio over all sigma (0 if none), found by integer
    cross-multiplication. A U_k <= 0 fails at every large enough L: then
    StrictnessError names its sigma.
    """
    num, den = 0, 1
    for sigma in admissible_sign_vectors(params.dim):
        *_, (U, W, _) = _unstretched_pair(params, sigma)
        for u, w in zip(U, W):
            if u <= 0:
                raise StrictnessError(f"facet strictness fails for sigma={sigma} at every large L")
            if w < 0 and -w * den > num * u:
                num, den = -w, u
    return Fraction(num, den)


def choose_stretch(params: GoldfarbParams) -> StretchFactor:
    """The first 20000 * 2^k (20000 is the paper's stretch) whose square exceeds `stretch_threshold`.

    Every sigma passes there; at half of it, if above 20000, some sigma
    fails. Raises StrictnessError, naming a sigma, when every large factor fails.
    """
    factor, threshold = 20000, stretch_threshold(params)
    while factor * factor <= threshold:
        factor *= 2
    return StretchFactor(factor)


def generate_2d_arc_instance(n_plus: int) -> SvmInstance:
    """Two-dimensional demo: n_plus points on a circle arc plus two line points.

    The arc is the right-facing chain of the circle with center (-1, 0) and
    radius 2, sampled at rational tangent-half-angle parameters, so every
    coordinate is exact. The two opposite-class points sit on the vertical
    line x = 2: one near the arc's closest approach, one far below, so the
    shrinking reduced hull of the pair drags the optimal point across every
    arc face as the regularization parameter decreases.
    """
    if n_plus < 3:
        raise ValueError("need at least three arc points")
    t_lo, t_hi = Fraction(-3, 4), Fraction(-1, 24)
    pts = []
    for i in range(n_plus):
        t = t_lo + (t_hi - t_lo) * i / (n_plus - 1)
        one = 1 + t * t
        pts.append(Vec((-1 + 2 * (1 - t * t) / one, 4 * t / one)))
    minus = (Vec((Fraction(2), Fraction(-25))), Vec((Fraction(2), Fraction(-1, 4))))
    return SvmInstance(tuple(pts), tuple(range(n_plus)), minus)
