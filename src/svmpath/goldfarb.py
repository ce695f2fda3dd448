"""The perturbed cube, its polar-dual vertices, and its shadow ring.

The cube is the solution set of 2d inequalities arranged in opposite pairs
indexed by (k, s) for k = 1..d and s in {-1, +1}; each inequality divided by
its right-hand side is a dual vertex. The 2^d vertices are indexed by sign
vectors sigma in {-1, +1}^d. No table of them is built: an integer recursion
gives any one vertex in O(d). Projected to the last two coordinates, the
vertices lie on the shadow ring in reflected Gray-code order, which is what
the whole construction exploits. One pass along that order, cached per
parameter set, proves the ring strictly convex with every vertex on it, and
keeps the shadow support of each admissible sigma, off its two ring edges.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd
from typing import Iterable, Iterator, Optional

from .geometry import FrozenRecord, Vec, VerificationFailure, common_denominator

SignVec = tuple  # entries in {-1, +1}


class ShadowPropertyError(VerificationFailure):
    """The Gray-code ring of projected vertices is not strictly convex.

    Some vertex would then not be a vertex of the 2D shadow in ring order,
    which would falsify the shadow property for the given parameters, so it
    is surfaced loudly instead of being silently patched over.
    """


class GoldfarbParams(FrozenRecord):
    """Cube parameters; requires 0 < 4*gamma < eps < 1/2.

    The parameters key every per-parameter cache, so the hash of the field
    tuple is computed once, here, rather than per lookup: each lookup would
    rehash both Fractions.
    """

    _fields = ("dim", "eps", "gamma")
    __slots__ = _fields + ("_hash",)

    def __init__(self, dim: int, eps: Fraction = Fraction(1, 3), gamma: Fraction = Fraction(1, 16)):
        eps, gamma = Fraction(eps), Fraction(gamma)
        super().__init__(dim, eps, gamma)
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        if not 0 < gamma:
            raise ValueError(f"parameter constraint violated: 0 < gamma (gamma = {gamma})")
        if not 4 * gamma < eps:
            raise ValueError(
                f"parameter constraint violated: 4*gamma < eps "
                f"(4*gamma = {4 * gamma}, eps = {eps})"
            )
        if not eps < Fraction(1, 2):
            raise ValueError(f"parameter constraint violated: eps < 1/2 (eps = {eps})")
        object.__setattr__(self, "_hash", hash((dim, eps, gamma)))

    def __hash__(self):
        return self._hash


class DualVertex(FrozenRecord):
    """Vertex w of the dual cube; the inequality w . x <= 1 carves facet (k, s)."""

    __slots__ = _fields = ("k", "s", "coords")


def admissible_sign_vectors(dim: int) -> Iterator[SignVec]:
    """Each head over {-1, +1}^(dim-2), in lexicographic order, then (1, 1): the breakpoints' sigmas."""
    if dim < 2:
        raise ValueError("admissible sign vectors need dim >= 2")
    return (head + (1, 1) for head in product((-1, 1), repeat=dim - 2))


def facet_order(dim: int) -> tuple:
    """Canonical (k, s) ordering of the 2d facets: (1,-1), (1,+1), (2,-1), ..."""
    return tuple((k, s) for k in range(1, dim + 1) for s in (-1, 1))


@lru_cache(maxsize=None)
def _pair_bands(params: GoldfarbParams) -> tuple:
    """(a_k, b_k, rhs_k) for k = 1..d: the cube inequalities of pair k.

    Pair k bounds x_k by a recurrence in the two previous coordinates: its
    facet (k, s) reads s*x_k + a_k*x_{k-1} + b_k*x_{k-2} <= rhs_k. Pair 1
    is |x_1| <= 1, pair 2 has a_2 = eps and rhs_2 = 1 - eps, and every pair
    k >= 3 has a_k = eps, b_k = -eps*gamma and rhs_k = 1 - eps + eps*gamma.
    The two facets of a pair are reflections of each other in x_k. This is
    the one place the facet inequalities are written down.
    """
    eps, gamma = params.eps, params.gamma
    zero = Fraction(0)
    bands = [(zero, zero, Fraction(1)), (eps, zero, 1 - eps)]
    bands += [(eps, -eps * gamma, 1 - eps + eps * gamma)] * (params.dim - 2)
    return tuple(bands[: params.dim])


def _pair_normal_rhs(params: GoldfarbParams, k: int, s: int) -> tuple:
    """(normal, rhs) of the cube inequality normal . x <= rhs of facet (k, s)."""
    a, b, rhs = _pair_bands(params)[k - 1]
    normal = [Fraction(0)] * params.dim
    normal[k - 1] = Fraction(s)
    if k >= 2:
        normal[k - 2] = a
    if k >= 3:
        normal[k - 3] = b
    return Vec(normal), rhs


@lru_cache(maxsize=None)
def _integer_bands(params: GoldfarbParams) -> tuple:
    """(m, rows, m^d): row k-1 holds pair k's bands over their lcm m, (A_k, m B_k, m^(k-1) R_k).

    Two rows of zeros follow, for `facet_weights`.
    """
    m, rows = common_denominator(_pair_bands(params))
    rows = [(A, m * B, m ** k * R) for k, (A, B, R) in enumerate(rows)] + [(0, 0, 0)] * 2
    return m, rows, m ** params.dim


def facet_weights(params: GoldfarbParams, sigma: SignVec, X: list) -> tuple:
    """The weights alpha with sum_k alpha_k w_(k, sigma_k) == X over the dual vertices.

    X is an integer vector, and the weights are integers over one positive
    denominator, (W, m^d). The dual w_(k, s) = normal / rhs_k of facet (k, s)
    touches only the coordinates k-2..k, so the matrix with columns
    w_(k, sigma_k) is upper triangular with bandwidth 3 and diagonal
    sigma_k / rhs_k. With alpha_k = rhs_k * beta_k, row i reads
    X_i = sigma_i beta_i + a_(i+1) beta_(i+1) + b_(i+2) beta_(i+2), solved from
    the last row up in O(d) steps on the bands as integers A, B, R over their
    lcm m: beta_i = Y_i / m^(d-1-i) and
    Y_i = sigma_i (m^(d-1-i) X_i - A_(i+1) Y_(i+1) - m B_(i+2) Y_(i+2)).
    """
    d = params.dim
    if len(sigma) != d or any(s not in (-1, 1) for s in sigma):
        raise ValueError("sigma must be a length-dim vector over {-1, +1}")
    if len(X) != d:
        raise ValueError(f"point has {len(X)} coordinates, expected {d}")
    m, bands, top = _integer_bands(params)
    Y, power = [0] * (d + 2), 1
    for i in range(d - 1, -1, -1):
        rest = power * X[i] - bands[i + 1][0] * Y[i + 1] - bands[i + 2][1] * Y[i + 2]
        Y[i], power = (rest if sigma[i] == 1 else -rest), power * m
    return tuple([band[2] * y for band, y in zip(bands, Y[:d])]), top


@lru_cache(maxsize=None)
def dual_vertices(params: GoldfarbParams) -> tuple:
    """The 2d vertices of the dual cube, one per facet, in canonical order.

    Each is the cube inequality normal . x <= rhs of facet (k, s) divided
    through by its rhs, w = normal / rhs. Every rhs (1, 1 - eps or
    1 - eps + eps*gamma) exceeds 1/2, since GoldfarbParams enforces
    eps < 1/2 and gamma > 0.
    """
    out = []
    for k, s in facet_order(params.dim):
        normal, rhs = _pair_normal_rhs(params, k, s)
        out.append(DualVertex(k, s, normal * (1 / rhs)))
    return tuple(out)


def _vertex(params: GoldfarbParams, sigma, X: Optional[list] = None, start: int = 0) -> list:
    """X with X[k + 1] = m^k x_k of sigma's vertex, k = 1..d, keeping its first `start` ones.

    X has d + 2 entries, two zeros first. On the bands over their lcm m
    (`_integer_bands`), the bound recursion x_k = sigma_k z_k reads
    X_k = sigma_k Z_k for Z_k = m^k z_k = m^(k-1) R_k - A_k X_(k-1) - m B_k X_(k-2),
    so a vertex's first k coordinates depend only on its first k signs.
    Raises ValueError, naming sigma, at a bound z_k <= 0: valid parameters
    give none, but every incidence argument (each vertex on exactly d facets,
    `construct.facet_strictness_check`'s cone form) rests on z_k > 0.
    """
    m, rows, _ = _integer_bands(params)
    X = X or [0] * (params.dim + 2)
    for k in range(start, params.dim):
        A, mB, R = rows[k]
        Z = R - A * X[k + 1] - mB * X[k]
        if Z <= 0:
            raise ValueError(
                f"cube bound z_{k + 1} = {Fraction(Z, m ** (k + 1))} <= 0 at sigma={tuple(sigma)}: "
                f"eps = {params.eps}, gamma = {params.gamma} give no cube"
            )
        X[k + 2] = Z if sigma[k] == 1 else -Z
    return X


def vertex_row(params: GoldfarbParams, sigma: SignVec) -> tuple:
    """(V, D): sigma's cube vertex as an integer row V over its least denominator D, in O(d)."""
    d, (m, _, top) = params.dim, _integer_bands(params)
    V = [x * m ** (d - k) for k, x in enumerate(_vertex(params, sigma)[2:], 1)]
    c = gcd(top, *V)
    return [v // c for v in V], top // c


def _gray_ring(params: GoldfarbParams) -> Iterator[tuple]:
    """(sigma, m^d (x_(d-1), x_d)) for the 2^d vertices in reflected Gray-code order.

    From (-1, ..., -1), step i flips sign j + 1 for j the lowest set bit of
    i, so step i reaches the sigma whose +1 signs are the set bits of the
    Gray code i ^ (i >> 1), sign k as bit k - 1, and recomputes the vertex
    from that coordinate on: O(d) integers are kept.
    """
    d, m = params.dim, _integer_bands(params)[0]
    sigma = [-1] * d
    X = _vertex(params, sigma)
    yield tuple(sigma), (m * X[-2], X[-1])
    for i in range(1, 1 << d):
        j = (i & -i).bit_length() - 1
        sigma[j] = -sigma[j]
        _vertex(params, sigma, X, j)
        yield tuple(sigma), (m * X[-2], X[-1])


def _upper(dx, dy) -> bool:
    """Whether direction (dx, dy) has angle in [0, pi)."""
    return dy > 0 or (dy == 0 and dx > 0)


def _support(ex, ey, fx, fy, bx, by) -> tuple:
    """(n_x, n_y, n . b) at ring point b with edges e into and f out of it, for the integer
    n = |f|_1 (e_y, -e_x) + |e|_1 (f_y, -f_x): the outward normals over their 1-norms, times both."""
    le, lf = abs(ex) + abs(ey), abs(fx) + abs(fy)
    nx, ny = lf * ey + le * fy, -lf * ex - le * fx
    return nx, ny, nx * bx + ny * by


def _check_convex_ring(ring: Iterable) -> dict:
    """Raise ShadowPropertyError, naming a sigma, unless the closed ring is strictly convex.

    `ring` yields (sigma, point) pairs of exact 2D points, in order. Each
    consecutive triple must turn strictly left, so the edge direction turns
    by less than pi at each vertex and by a positive multiple of 2 pi in all;
    it passes angle 0 once per full turn, and a second pass raises. Turning
    strictly left by 2 pi in all, the ring is strictly convex and
    counterclockwise: its points are distinct, each a vertex of their hull.
    Returns the `_support` of each sigma ending (+1, +1), in ring order.
    """
    it = iter(ring)
    first = [next(it), next(it)]
    (_, (ax, ay)), (name, (bx, by)) = first
    ex, ey, winds, supports = bx - ax, by - ay, 0, {}
    for sigma, (cx, cy) in chain(it, first):
        fx, fy = cx - bx, cy - by
        if ex * fy - ey * fx <= 0:
            raise ShadowPropertyError(f"the shadow ring does not turn left at sigma={name}")
        if _upper(fx, fy) and not _upper(ex, ey):
            winds += 1
            if winds > 1:
                raise ShadowPropertyError(f"the shadow ring winds around twice, at sigma={name}")
        if name[-2:] == (1, 1):
            supports[name] = _support(ex, ey, fx, fy, bx, by)
        name, bx, by, ex, ey = sigma, cx, cy, fx, fy
    return supports


@lru_cache(maxsize=None)
def _shadow_data(params: GoldfarbParams) -> tuple:
    """(m^d, supports): the ring's denominator, and the admissible supports of one Gray-code pass.

    The pass (`_gray_ring`) checks every bound z_k > 0, and
    `_check_convex_ring` its points as they come. So all 2^d projected
    vertices are the vertices of the 2D shadow, counterclockwise in Gray-code
    order. The pass keeps O(d) integers, and three per admissible sigma.
    """
    if params.dim < 2:
        raise ValueError("shadow projection needs dim >= 2")
    return _integer_bands(params)[2], _check_convex_ring(_gray_ring(params))


def shadow_polygon(params: GoldfarbParams) -> tuple:
    """The proven ring for drawing: m^d times the projections, 2^d integer pairs.

    Counterclockwise from its lexicographically least point, where a
    monotone-chain hull starts.
    """
    _shadow_data(params)
    ring = [pt for _sigma, pt in _gray_ring(params)]
    i = ring.index(min(ring))
    return tuple(ring[i:] + ring[:i])


def shadow_certificate(params: GoldfarbParams, sigma: SignVec) -> tuple:
    """(N1, N2, S), S > 0: the strictly supporting point a = (0, ..., 0, N1 / S, N2 / S) at v_sigma.

    a . v_sigma = 1 and a . v_tau < 1 at every other vertex. All but its last
    two entries are zero, so a is at once a point of the dual cube and the
    normal of a line touching the shadow at the projection of v_sigma only.
    At that ring point pt, `_shadow_data`'s pass sums the outward normals of
    the two incident edges, each rescaled by its 1-norm, to the integer
    `_support` n; then a = m^d n / (n . pt), as the ring is m^d times the
    projections. `_shadow_data` proves the ring strictly convex, so a is
    tight at v_sigma and below 1 at both ring neighbours, and so at every
    other vertex, in the cone they span. Only an admissible sigma has its
    support kept; any other raises ValueError, naming it.

    S = n . pt > 0 needs no check: every rhs_k > 0 puts the origin strictly
    inside the cube and so inside its shadow, strictly left of each edge of the
    counterclockwise ring, where each edge's outward normal is positive on its
    points; n sums two of them with positive weights.
    """
    den, supports = _shadow_data(params)
    sigma = tuple(sigma)
    support = supports.get(sigma)
    if support is None:
        raise ValueError(f"sigma={sigma} is not an admissible sign vector of length {params.dim}")
    nx, ny, scale = support
    return den * nx, den * ny, scale
