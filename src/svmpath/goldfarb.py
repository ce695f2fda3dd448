"""The perturbed cube, its vertices, the polar-dual vertices, and shadow points.

The cube is the solution set of 2d inequalities arranged in opposite pairs
indexed by (k, s) for k = 1..d and s in {-1, +1}; each inequality divided by
its right-hand side is a dual vertex. The 2^d vertices are indexed by sign
vectors sigma in {-1, +1}^d; the recursion below computes them directly, once
per parameter set. Projecting to the last two coordinates keeps all 2^d
vertices on the hull boundary, which is what the whole construction exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator

from .geometry import Polygon2, Vec, common_denominator, convex_hull_2d

SignVec = tuple  # entries in {-1, +1}


class ShadowPropertyError(Exception):
    """A projected vertex is not a hull vertex of the 2D shadow.

    This would falsify the shadow property for the given parameters, so it is
    surfaced loudly instead of being silently patched over.
    """


@dataclass(frozen=True)
class GoldfarbParams:
    """Cube parameters; requires 0 < 4*gamma < eps < 1/2."""

    dim: int
    eps: Fraction = Fraction(1, 3)
    gamma: Fraction = Fraction(1, 16)

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not 0 < self.gamma:
            raise ValueError(f"parameter constraint violated: 0 < gamma (gamma = {self.gamma})")
        if not 4 * self.gamma < self.eps:
            raise ValueError(
                f"parameter constraint violated: 4*gamma < eps "
                f"(4*gamma = {4 * self.gamma}, eps = {self.eps})"
            )
        if not self.eps < Fraction(1, 2):
            raise ValueError(f"parameter constraint violated: eps < 1/2 (eps = {self.eps})")


@dataclass(frozen=True)
class CubeVertex:
    sigma: SignVec
    coords: Vec


@dataclass(frozen=True)
class DualVertex:
    """Vertex w of the dual cube; the inequality w . x <= 1 carves facet (k, s)."""

    k: int
    s: int
    coords: Vec


@dataclass(frozen=True)
class ShadowCertificate:
    """A supporting point/normal a with a . v_sigma = 1 and a . v_tau < 1 otherwise.

    The vector lives in the plane spanned by the last two coordinates (all
    earlier entries are exactly zero), so it is simultaneously a point of the
    dual cube and the normal of a line strictly supporting the shadow polygon
    at the projection of v_sigma.
    """

    sigma: SignVec
    vector: Vec


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


def _pair_normal_rhs(params: GoldfarbParams, k: int, s: int) -> tuple:
    """(normal, rhs) of the cube inequality normal . x <= rhs of facet (k, s).

    Pair k bounds x_k by a recurrence in the two previous coordinates; the
    right inequality of pair k >= 3 reads
    x_k + eps*x_{k-1} - eps*gamma*x_{k-2} <= 1 - eps + eps*gamma,
    and the left inequality is its reflection in x_k.
    """
    d, eps, gamma = params.dim, params.eps, params.gamma
    normal = [Fraction(0)] * d
    normal[k - 1] = Fraction(s)
    if k == 1:
        rhs = Fraction(1)
    elif k == 2:
        normal[0] = eps
        rhs = 1 - eps
    else:
        normal[k - 2] = eps
        normal[k - 3] = -eps * gamma
        rhs = 1 - eps + eps * gamma
    return Vec(normal), rhs


def cube_vertex(params: GoldfarbParams, sigma: SignVec) -> CubeVertex:
    """Vertex indexed by sigma, via the bound recursion with x_k = sigma_k * z_k."""
    d, eps, gamma = params.dim, params.eps, params.gamma
    if len(sigma) != d or any(s not in (-1, 1) for s in sigma):
        raise ValueError("sigma must be a length-dim vector over {-1, +1}")
    x = []
    for k in range(1, d + 1):
        if k == 1:
            z = Fraction(1)
        elif k == 2:
            z = 1 - eps - eps * x[0]
        else:
            z = 1 - eps + eps * gamma - eps * (x[k - 2] - gamma * x[k - 3])
        x.append(sigma[k - 1] * z)
    return CubeVertex(tuple(sigma), Vec(x))


@lru_cache(maxsize=None)
def cube_vertices(params: GoldfarbParams) -> tuple:
    """All 2^d vertices in `sign_vectors` order, built once per parameter set.

    The vertex of sigma sits at position `sign_index(sigma)`.
    """
    return tuple(cube_vertex(params, sigma) for sigma in sign_vectors(params.dim))


@lru_cache(maxsize=None)
def cube_vertex_table(params: GoldfarbParams) -> tuple:
    """(den, rows): all 2^d vertices as integer rows over one common denominator.

    Row i is den * v_tau for the i-th sign vector tau of `sign_vectors`, so
    the incidence checks compare integer dot products with a fixed multiple
    of den instead of Fraction dot products.
    """
    return common_denominator(v.coords for v in cube_vertices(params))


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


def project_shadow(x: Vec) -> Vec:
    """Projection onto the plane of the last two coordinates."""
    return Vec(x[-2:])


@lru_cache(maxsize=None)
def _shadow_data(params: GoldfarbParams):
    """(hull polygon, hull position by sigma, sigma by hull position).

    Sigmas whose projected vertex is not a hull vertex have no position.
    """
    if params.dim < 2:
        raise ValueError("shadow projection needs dim >= 2")
    owner = {}
    for v in cube_vertices(params):
        pt = project_shadow(v.coords)
        if pt in owner:
            raise ShadowPropertyError(f"two vertices share the shadow point {pt}")
        owner[pt] = v.sigma
    hull = convex_hull_2d(owner.keys())
    ring = tuple(owner[pt] for pt in hull.vertices)
    return hull, {sigma: i for i, sigma in enumerate(ring)}, ring


def shadow_polygon(params: GoldfarbParams) -> Polygon2:
    """Hull of the projected cube vertices; has 2^d vertices for valid params."""
    return _shadow_data(params)[0]


def shadow_certificate(params: GoldfarbParams, sigma: SignVec) -> ShadowCertificate:
    """Strictly supporting inequality a . x <= 1 at the projection of v_sigma.

    Construction: at the hull vertex, sum the outward normals of the two
    incident edges, each rescaled by its rational 1-norm, then scale the
    embedded direction so a . v_sigma = 1. Summing two edge normals gives a
    direction whose supporting line touches the hull at that vertex only.
    """
    hull, pos, _ring = _shadow_data(params)
    sigma = tuple(sigma)
    if sigma not in pos:
        raise ShadowPropertyError(f"projected vertex for sigma={sigma} is not a hull vertex")
    i = pos[sigma]
    vs = hull.vertices
    prev_pt, pt, next_pt = vs[i - 1], vs[i], vs[(i + 1) % len(vs)]
    normals = []
    for a, b in ((prev_pt, pt), (pt, next_pt)):
        dx, dy = b[0] - a[0], b[1] - a[1]
        outward = Vec((dy, -dx))  # CCW boundary keeps the interior on the left
        normals.append(outward * (1 / (abs(dy) + abs(dx))))
    n = normals[0] + normals[1]
    scale = n.dot(pt)
    if scale <= 0:
        raise ShadowPropertyError("support scale must be positive (origin interior)")
    d = params.dim
    vector = Vec([Fraction(0)] * (d - 2) + [n[0] / scale, n[1] / scale])
    cert = ShadowCertificate(sigma, vector)
    _check_certificate(cert, params)
    return cert


def _check_certificate(cert: ShadowCertificate, params: GoldfarbParams) -> None:
    """Raise unless a . v_sigma == 1 and a . v_tau < 1 for every other tau.

    It is enough to test v_sigma and the two vertices whose projections are
    the hull neighbours prev and next of sigma's projection pt. The hull is
    strictly convex (Polygon2) and holds all 2^d projections, which are
    distinct (`_shadow_data`), and every hull point is
    x = pt + s (prev - pt) + t (next - pt) with s, t >= 0. So once
    a . pt == 1 and a . prev, a . next < 1, a . x < 1 at every other x.

    Only the last two coordinates of a are nonzero, so the products run over
    the last two columns of the integer vertex table: with a = (a1, a2) / den_a
    the test a . v == 1 reads a1 * V[-2] + a2 * V[-1] == den * den_a.
    """
    _hull, pos, ring = _shadow_data(params)
    den, rows = cube_vertex_table(params)
    den_a, ((a1, a2),) = common_denominator([cert.vector[-2:]])
    one = den * den_a

    def value(tau):
        row = rows[sign_index(tau)]
        return a1 * row[-2] + a2 * row[-1]

    i = pos[cert.sigma]
    if value(cert.sigma) != one:
        raise ShadowPropertyError("certificate is not tight at its own vertex")
    for tau in (ring[i - 1], ring[(i + 1) % len(ring)]):
        if value(tau) >= one:
            raise ShadowPropertyError(
                f"certificate for {cert.sigma} fails strictness at {tau}"
            )
