"""The perturbed cube, its vertices, the polar-dual vertices, and shadow points.

The cube is the solution set of 2d inequalities arranged in opposite pairs
indexed by (k, s) for k = 1..d and s in {-1, +1}; each inequality divided by
its right-hand side is a dual vertex. The 2^d vertices are indexed by sign
vectors sigma in {-1, +1}^d; the recursion below computes them directly, once
per parameter set. Projecting to the last two coordinates keeps all 2^d
vertices on the hull boundary, which is what the whole construction exploits.
The shadow is kept as one ring of integer points, den times the projections,
and each shadow certificate is read off its two neighbours on that ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator

from .geometry import FrozenRecord, Vec, common_denominator, hull_chain

SignVec = tuple  # entries in {-1, +1}


class ShadowPropertyError(Exception):
    """A projected vertex is not a hull vertex of the 2D shadow.

    This would falsify the shadow property for the given parameters, so it is
    surfaced loudly instead of being silently patched over.
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
        _set = object.__setattr__
        _set(self, "dim", dim)
        _set(self, "eps", eps)
        _set(self, "gamma", gamma)
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
        _set(self, "_hash", hash((dim, eps, gamma)))

    def __hash__(self):
        return self._hash


class CubeVertex(FrozenRecord):
    __slots__ = _fields = ("sigma", "coords")

    def __init__(self, sigma: SignVec, coords: Vec):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "coords", coords)


class DualVertex(FrozenRecord):
    """Vertex w of the dual cube; the inequality w . x <= 1 carves facet (k, s)."""

    __slots__ = _fields = ("k", "s", "coords")

    def __init__(self, k: int, s: int, coords: Vec):
        _set = object.__setattr__
        _set(self, "k", k)
        _set(self, "s", s)
        _set(self, "coords", coords)


class ShadowCertificate(FrozenRecord):
    """A supporting point/normal a with a . v_sigma = 1 and a . v_tau < 1 otherwise.

    The vector lives in the plane spanned by the last two coordinates (all
    earlier entries are exactly zero), so it is simultaneously a point of the
    dual cube and the normal of a line strictly supporting the shadow polygon
    at the projection of v_sigma.
    """

    __slots__ = _fields = ("sigma", "vector")

    def __init__(self, sigma: SignVec, vector: Vec):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "vector", vector)


def sign_vectors(dim: int) -> Iterator[SignVec]:
    """All of {-1, +1}^dim in lexicographic order (-1 before +1)."""
    return product((-1, 1), repeat=dim)


def admissible_sign_vectors(dim: int) -> Iterator[SignVec]:
    """Sign vectors whose last two entries are +1; these index the breakpoints."""
    if dim < 2:
        raise ValueError("admissible sign vectors need dim >= 2")
    for sigma in sign_vectors(dim):
        if sigma[-2] == 1 and sigma[-1] == 1:
            yield sigma


def facet_order(dim: int) -> tuple:
    """Canonical (k, s) ordering of the 2d facets: (1,-1), (1,+1), (2,-1), ..."""
    return tuple((k, s) for k in range(1, dim + 1) for s in (-1, 1))


def sign_index(sigma: SignVec) -> int:
    """Position of sigma in `sign_vectors` order: its signs read as bits, -1 as 0."""
    return int("".join("1" if s == 1 else "0" for s in sigma), 2)


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


def _bound(params: GoldfarbParams, x: list) -> Fraction:
    """z_k = |x_k| at every vertex whose first k-1 coordinates are x, k = len(x) + 1.

    z_k = rhs_k - a_k*x_{k-1} - b_k*x_{k-2}, the slack pair k leaves for x_k.
    Raises ValueError when z_k <= 0. Valid parameters never give one, but
    every incidence argument (each vertex on exactly d facets, the cone form
    of `construct.facet_strictness_check`) rests on z_k > 0, so it is
    checked here rather than assumed.
    """
    k = len(x) + 1
    a, b, z = _pair_bands(params)[k - 1]
    if k >= 2:
        z -= a * x[k - 2]
    if k >= 3:
        z -= b * x[k - 3]
    if z <= 0:
        raise ValueError(
            f"cube bound z_{k} = {z} <= 0: eps = {params.eps}, gamma = {params.gamma} give no cube"
        )
    return z


@lru_cache(maxsize=None)
def _integer_bands(params: GoldfarbParams) -> tuple:
    """(m, rows, m^d): rows (A_k, m B_k, m^k R_k), the bands over their lcm m, and two of 0."""
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
def cube_vertices(params: GoldfarbParams) -> tuple:
    """All 2^d vertices in `sign_vectors` order, built once per parameter set.

    The vertex of sigma sits at position `sign_index(sigma)`, and its
    coordinates follow the bound recursion x_k = sigma_k * z_k. Its first k
    coordinates depend only on sigma's first k signs, so the recursion runs
    on a prefix tree: level k extends every sign prefix
    of length k-1 once, by -z_k and then by +z_k, which keeps `sign_vectors`
    order and takes 2^d - 1 bound steps for the whole cube. Raises
    ValueError at the first bound z_k <= 0.
    """
    level = [((), [])]
    for _ in range(params.dim):
        grown = []
        for sigma, x in level:
            z = _bound(params, x)
            grown.append((sigma + (-1,), x + [-z]))
            grown.append((sigma + (1,), x + [z]))
        level = grown
    return tuple(CubeVertex(sigma, Vec(x)) for sigma, x in level)


@lru_cache(maxsize=None)
def shadow_table(params: GoldfarbParams) -> tuple:
    """(den, rows): the 2^d projected vertices as integer pairs over one common denominator.

    Row i is den * (v_tau[-2], v_tau[-1]) for the i-th sign vector tau of
    `sign_vectors`, so the hull ring and the certificates are built on
    integers instead of Fractions.
    """
    return common_denominator(v.coords[-2:] for v in cube_vertices(params))


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


@lru_cache(maxsize=None)
def _shadow_data(params: GoldfarbParams):
    """(ring, hull position by sigma): the 2D shadow.

    The ring is the hull of the integer rows of `shadow_table`, den times
    the projections, in counterclockwise order: sorting and orientation
    signs do not change under the positive scale den, so the monotone chain
    visits the projections in the same order as on the Fractions, and the
    ring is strictly convex. It is the package's one shadow polygon. Sigmas
    whose projected vertex is not a hull vertex have no position.
    """
    if params.dim < 2:
        raise ValueError("shadow projection needs dim >= 2")
    _den, rows = shadow_table(params)
    owner = {}
    for v, pt in zip(cube_vertices(params), rows):
        if pt in owner:
            raise ShadowPropertyError(f"two vertices share the shadow point {v.coords[-2:]}")
        owner[pt] = v.sigma
    points = tuple(hull_chain(owner))
    return points, {owner[pt]: i for i, pt in enumerate(points)}


def shadow_polygon(params: GoldfarbParams) -> tuple:
    """The hull ring: den times the projections as integer pairs, 2^d of them for valid params."""
    return _shadow_data(params)[0]


def shadow_certificate(params: GoldfarbParams, sigma: SignVec) -> ShadowCertificate:
    """Strictly supporting inequality a . x <= 1 at the projection of v_sigma.

    Construction: at the hull vertex, sum the outward normals of the two
    incident edges, each rescaled by its 1-norm, then scale the embedded
    direction so a . v_sigma = 1. Summing two edge normals gives a direction
    whose supporting line touches the hull at that vertex only.

    The normals come from the integer ring, den times the projections: den
    cancels in each normal over its 1-norm and in a = den n / (n . pt). The
    ring is strictly convex, so a is tight at v_sigma and below 1 at both ring
    neighbours, and so at every other vertex, which lies in the cone they span.
    """
    points, pos = _shadow_data(params)
    sigma = tuple(sigma)
    if sigma not in pos:
        raise ShadowPropertyError(f"projected vertex for sigma={sigma} is not a hull vertex")
    i = pos[sigma]
    prev_pt, pt, next_pt = points[i - 1], points[i], points[(i + 1) % len(points)]
    normals = []
    for a, b in ((prev_pt, pt), (pt, next_pt)):
        dx, dy = b[0] - a[0], b[1] - a[1]
        outward = Vec((dy, -dx))  # CCW boundary keeps the interior on the left
        normals.append(outward * Fraction(1, abs(dy) + abs(dx)))
    n = normals[0] + normals[1]
    scale = n.dot(pt)
    if scale <= 0:
        raise ShadowPropertyError("support scale must be positive (origin interior)")
    den = shadow_table(params)[0]
    vector = Vec([Fraction(0)] * (params.dim - 2) + [n[0] * den / scale, n[1] * den / scale])
    return ShadowCertificate(sigma, vector)
