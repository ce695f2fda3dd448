"""Independent oracles and test-only helpers for the test suite.

These deliberately avoid the library's solution paths: the distance oracle
enumerates every bound pattern of the dual and minimizes each subproblem from
scratch, uniqueness of an optimum is decided by Fourier-Motzkin over the
directions of its optimal face, hull extremeness is decided by exhaustive
triangle membership, the two facet-incidence checks rebuild every cube vertex
as Fractions instead of reading the library's facet weights or its integer
Gray-code ring, and the facet multiplier of a breakpoint comes from the
single-facet relaxation rather than the instance QP. The reference solver rebuilds its normal
equations and gradients from Fraction point coordinates on every iteration,
and the reference KKT check, multiplier ranges and uniqueness test take
Fraction vector dot products, instead of reading the instance's point table
(its integer points). `pair_points` sums the points p and q that a solved
pair's coefficients weight, which the library never builds. Every linear
system here, regular or flat, and every nullspace basis is solved by the
Fraction reduced row echelon form below, not by the library's fraction-free
elimination. The
reference sweep takes every record from the solver's loop, without the
chain of affine pieces the library sweep walks, and the piece reference
solves a piece's normal equations on Fraction differences and scans its
interval in Fractions, where the library's piece works in integers. The shadow references build
each cube vertex on its own (`cube_vertex`), all 2^d of them as a table
(`cube_vertices`), and the shadow as the Fraction `Polygon2` of their
projections' monotone-chain hull (`hull_chain`), whose constructor checks
strict convexity, where the library walks one integer ring in Gray-code
order and keeps none of it; the certificate reference takes its edge
normals on that Fraction polygon, and the three-vertex reference
(`three_vertex_certificate`) recomputes sigma's two ring neighbours, for any
sigma, where the library reads an admissible sigma's integer support off the
ring pass. The construction references build the shadow point, q, the slack,
p and the facet weights in Fraction vectors, where the library keeps q and
the weights only, in integers over one denominator, and the calibration reference (`calibrate`)
reads the extremes off those Fraction pairs and decompositions, where the
library takes them in one integer pass. The sweep report reference builds the
report's document as a dict for `json.dumps`, where the library writes each
record from a text template. The duality gap (`duality_gap`) decides whether
feasible coefficients are optimal from the capped-simplex extremes of each
class along w = p - q, with no working set or multiplier, where the library
proves an optimum by its piece. All are exact.

The last functions are helpers that only tests need: the library's
strictness check of a point, the inverse parameter conversion, the two-point
reduced hull, the JSON rational reader, a record copy with some fields
changed, the zero and unit vectors, the componentwise sum and difference, dot
product and squared norm of Fraction vectors, which `Vec` leaves out since no
command runs them, and the support of a pair's coefficients.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace

from svmpath.construct import (
    Calibration,
    CalibrationError,
    facet_strictness_check,
    line_point,
    stretch,
)
from svmpath.geometry import FrozenRecord, Vec, common_denominator
from svmpath.goldfarb import (
    ShadowPropertyError,
    _integer_bands,
    _pair_bands,
    _vertex,
    facet_weights,
    shadow_certificate,
)
from svmpath.kkt import OptimalPair
from svmpath.qp import (
    AT_HI,
    AT_LO,
    ReducedHullQP,
    SingularMatrixError,
    SolverStalledError,
    solve_reduced_distance,
)
from svmpath.sweep import _record, _report, grid_values, instance_lower_bound


def fourier_motzkin_feasible(ineqs) -> bool:
    """Exact feasibility of {s : coeffs . s <= rhs for each (coeffs, rhs)}."""
    if not ineqs:
        return True
    n_vars = len(ineqs[0][0])
    current = [(list(c), Fraction(r)) for c, r in ineqs]
    for v in range(n_vars):
        lows, highs, rest = [], [], []
        for c, r in current:
            if c[v] > 0:
                highs.append(([x / c[v] for x in c], r / c[v]))
            elif c[v] < 0:
                lows.append(([x / -c[v] for x in c], r / -c[v]))
            else:
                rest.append((c, r))
        current = rest
        for cl, rl in lows:
            for ch, rh in highs:
                merged = [a + b for a, b in zip(cl, ch)]
                merged[v] = Fraction(0)
                current.append((merged, rl + rh))
    return all(r >= 0 for _c, r in current)


def solve_rref(A, b):
    """Rational RREF solve of a possibly rectangular/singular system.

    Returns (particular, nullspace_basis) with free variables set to zero in
    the particular solution, or None when the system is inconsistent.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(A, b, strict=True)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(M[i][n] != 0 for i in range(r, m)):
        return None
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = M[i][n]
    basis = []
    for free_col in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free_col] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -M[i][free_col]
        basis.append(v)
    return particular, basis


def solve_linear_system(A, b) -> Vec:
    """The unique solution of a square system by the RREF above; SingularMatrixError if none."""
    sol = solve_rref(A, b)
    if sol is None or sol[1]:
        raise SingularMatrixError("no unique solution")
    return Vec(sol[0])


# the library's name for a flat solve, under which the tests count the oracle's calls
solve_linear_system_general = solve_rref


def enumerate_min_objective(plus_points, minus_points, mu) -> Fraction:
    """Global minimum of the reduced-hull distance by bound-pattern enumeration.

    Every variable is assigned lower bound, upper bound, or free; each pattern
    yields an equality-constrained least-squares problem solved exactly. A
    pattern counts only if some minimizer of its subproblem lies inside the
    box, decided by Fourier-Motzkin over the minimizer set.
    """
    pts = [Vec(p) for p in plus_points] + [Vec(p) for p in minus_points]
    n_plus, n = len(plus_points), len(plus_points) + len(minus_points)
    signed = [p if i < n_plus else -p for i, p in enumerate(pts)]
    classes = [list(range(n_plus)), list(range(n_plus, n))]
    mu = Fraction(mu)
    d = len(pts[0])
    LO, HI, FREE = 0, 1, 2
    best = None
    for pattern in product((LO, HI, FREE), repeat=n):
        x0 = [Fraction(0)] * n
        directions = []
        feasible = True
        for cls in classes:
            for i in cls:
                if pattern[i] == HI:
                    x0[i] = mu
            fixed = sum(x0[i] for i in cls if pattern[i] != FREE)
            free = [i for i in cls if pattern[i] == FREE]
            remainder = 1 - fixed
            if not free:
                if remainder != 0:
                    feasible = False
                    break
                continue
            if remainder < 0:
                feasible = False
                break
            x0[free[0]] = remainder
            for i in free[1:]:
                directions.append((i, free[0]))
        if not feasible:
            continue

        w0 = [sum((x0[i] * signed[i][c] for i in range(n) if x0[i]), Fraction(0)) for c in range(d)]
        if directions:
            cols = [
                tuple(signed[i][c] - signed[r][c] for c in range(d)) for i, r in directions
            ]
            normal = [[sum((a * b for a, b in zip(ci, cj)), Fraction(0)) for cj in cols] for ci in cols]
            rhs = [-sum((a * b for a, b in zip(ci, w0)), Fraction(0)) for ci in cols]
            t, basis = solve_rref(normal, rhs)  # always consistent
        else:
            t, basis = [], []

        x = list(x0)
        for (i, r), tv in zip(directions, t):
            x[i] += tv
            x[r] -= tv

        free_all = [i for i in range(n) if pattern[i] == FREE]
        span = {i: [Fraction(0)] * len(basis) for i in free_all}
        for k, null_vec in enumerate(basis):
            for (i, r), comp in zip(directions, null_vec):
                span[i][k] += comp
                span[r][k] -= comp

        if basis:
            ineqs = []
            for i in free_all:
                ineqs.append(([-c for c in span[i]], x[i]))      # x_i + span.s >= 0
                ineqs.append((list(span[i]), mu - x[i]))          # x_i + span.s <= mu
            if not fourier_motzkin_feasible(ineqs):
                continue
        else:
            if any(not 0 <= x[i] <= mu for i in free_all):
                continue

        w = [sum((x[i] * signed[i][c] for i in range(n) if x[i]), Fraction(0)) for c in range(d)]
        value = sum((c * c for c in w), Fraction(0))
        if best is None or value < best:
            best = value
    return best


def _signed_points(qp):
    pts = list(qp.plus_points) + list(qp.minus_points)
    signed = list(qp.plus_points) + [-v for v in qp.minus_points]
    n_plus = len(qp.plus_points)
    classes = (tuple(range(n_plus)), tuple(range(n_plus, len(pts))))
    return pts, signed, n_plus, classes


def _initial_point(qp, classes, n: int, start):
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


def loop_start(pair: OptimalPair) -> OptimalPair:
    """The pair's coefficients alone: a warm start with no piece, so the loop runs from them."""
    return OptimalPair(pair.alpha_plus, pair.alpha_minus, pair.objective)


def pair_points(qp, pair) -> tuple:
    """(p, q): each class's Fraction coefficients times its Fraction points, summed.

    The library keeps a pair's coefficients only; this is the point pair
    they weight, p = sum alpha_plus_i x_i and q = sum alpha_minus_j y_j.
    """
    return tuple(
        vec_add(zero(len(points[0])), *[pt * a for pt, a in zip(points, alphas, strict=True)])
        for alphas, points in (
            (pair.alpha_plus, qp.plus_points),
            (pair.alpha_minus, qp.minus_points),
        )
    )


def solve_reduced_distance_oracle(qp, start=None) -> OptimalPair:
    """Reference for qp.solve_reduced_distance: the point-space active-set loop.

    It rebuilds the normal equations from d-dimensional Fraction columns and
    every gradient from Fraction products on each iteration; the library's
    core reads a cached Gram matrix and integer dot products instead, and
    must reach the same iterates, pivots and tie-breaks.

    `start` may carry coefficients from a neighbouring solve (warm start);
    they are used only when exactly feasible for this mu. The loop returns
    only when the subproblem step is zero and no bound multiplier has the
    wrong sign, decided exactly at that iterate: these are the KKT conditions.
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
            return _finish(qp, n_plus, x)
        del working[drop]

    raise SolverStalledError(f"no optimum after {cap} iterations")


def _finish(qp, n_plus: int, x) -> OptimalPair:
    """The pair at coefficients x, its objective ||p - q||^2 summed by `pair_points`."""
    coefficients = tuple(x[:n_plus]), tuple(x[n_plus:])
    p, q = pair_points(qp, OptimalPair(*coefficients, None))
    return OptimalPair(*coefficients, norm_sq(vec_sub(p, q)))



def sweep_refined_oracle(instance, mu_lo, mu_hi, steps: int, depth: int):
    """Reference for sweep.sweep_refined: every record from the active-set loop.

    The grid ascends in mu, each solve warm-started from its predecessor, and
    each bisection midpoint warm-starts from its lower neighbour, but every
    warm start is only its coefficients, with no piece to walk from, so every
    record is the loop's `solve_reduced_distance(qp, start=warm)`.
    """
    labels = {}

    def solve(mu, warm):
        qp = ReducedHullQP.from_instance(instance, mu)
        if warm is not None:
            warm = loop_start(warm)
        return _record(instance, mu, solve_reduced_distance(qp, start=warm), labels)

    grid = []
    for mu in grid_values(Fraction(mu_lo), Fraction(mu_hi), steps):
        grid.append(solve(mu, grid[-1].pair if grid else None))
    extra = []

    def refine(a, b, depth):
        if depth <= 0 or a.support == b.support:
            return
        mid = solve((a.mu + b.mu) / 2, a.pair)
        extra.append(mid)
        refine(a, mid, depth - 1)
        refine(mid, b, depth - 1)

    for a, b in zip(grid, grid[1:]):
        refine(a, b, depth)
    return _report(grid + extra, instance_lower_bound(instance))


def orient2d(o, a, b):
    """Signed area cross product; > 0 iff o->a->b turns counterclockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_in_triangle(p, a, b, c) -> bool:
    """Exact closed-triangle membership via three orientation signs."""
    d1 = orient2d(a, b, p)
    d2 = orient2d(b, c, p)
    d3 = orient2d(c, a, p)
    if orient2d(a, b, c) == 0:
        return False
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def point_on_segment(p, a, b) -> bool:
    if orient2d(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def is_extreme_point(p, others) -> bool:
    """p is a hull vertex of {p} + others iff no simplex of others covers it."""
    others = [o for o in others if o != p]
    if any(point_on_segment(p, a, b) for a, b in combinations(others, 2)):
        return False
    return not any(
        point_in_triangle(p, a, b, c) for a, b, c in combinations(others, 3)
    )


class CubeVertex(FrozenRecord):
    __slots__ = _fields = ("sigma", "coords")


def sign_vectors(dim: int):
    """All of {-1, +1}^dim in lexicographic order (-1 before +1).

    Filtered to those ending (1, 1), the library's `admissible_sign_vectors`,
    which builds only those.
    """
    return product((-1, 1), repeat=dim)


def cube_bound(params, x) -> Fraction:
    """z_k = |x_k| at every vertex whose first k-1 coordinates are x, k = len(x) + 1.

    z_k = rhs_k - a_k*x_{k-1} - b_k*x_{k-2} on the Fraction bands, the slack
    pair k leaves for x_k. Raises ValueError when z_k <= 0.
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


def cube_vertex(params, sigma) -> CubeVertex:
    """Vertex indexed by sigma, via the bound recursion with x_k = sigma_k * z_k, on Fractions.

    One sigma at a time, where the library's integer recursion
    (`goldfarb.vertex_row`) clears the bands to integers first.
    """
    if len(sigma) != params.dim or any(s not in (-1, 1) for s in sigma):
        raise ValueError("sigma must be a length-dim vector over {-1, +1}")
    x = []
    for s in sigma:
        x.append(s * cube_bound(params, x))
    return CubeVertex(tuple(sigma), Vec(x))


@lru_cache(maxsize=None)
def cube_vertices(params) -> tuple:
    """All 2^d vertices in `sign_vectors` order, each by `cube_vertex`."""
    return tuple(cube_vertex(params, tau) for tau in sign_vectors(params.dim))


def project_shadow(x) -> Vec:
    """Projection onto the plane of the last two coordinates."""
    return Vec(x[-2:])


class Polygon2(FrozenRecord):
    """Strictly convex polygon of Fraction vertices in counterclockwise order.

    The reference for the library's integer Gray-code shadow ring
    (`goldfarb.shadow_polygon`): the constructor checks strict convexity on
    the Fractions themselves.
    """

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: tuple):
        vs = tuple(Vec(v) for v in vertices)
        super().__init__(vs)
        if len(vs) < 3:
            raise ValueError("polygon needs at least three vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("polygon vertices must be pairwise distinct")
        n = len(vs)
        for i in range(n):
            if orient2d(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) <= 0:
                raise ValueError("polygon must be strictly convex and counterclockwise")

    def __len__(self):
        return len(self.vertices)


class DegenerateHullError(Exception):
    """Hull input is collinear or has fewer than three distinct points."""


def hull_chain(points) -> list:
    """The strictly convex counterclockwise hull of `points` as a list of them.

    Monotone chain with exact orientation signs, on points of any exact type,
    starting at the lexicographically least point. Interior points and
    points in the relative interior of hull edges are dropped. The hull is
    returned as the input points themselves, so integer points stay
    integers. Raises DegenerateHullError when all points are collinear or
    fewer than three are distinct.
    """
    pts = sorted(set(map(tuple, points)))
    if pts and len(pts[0]) != 2:
        raise ValueError("hull_chain expects 2D points")
    if len(pts) < 3:
        raise DegenerateHullError("need at least three distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and orient2d(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHullError("all points are collinear")
    return hull


def convex_hull_2d(points) -> Polygon2:
    """Counterclockwise Fraction hull by the monotone chain, checked by Polygon2.

    Interior points and points in the relative interior of hull edges are
    dropped. Raises DegenerateHullError when all points are collinear or
    fewer than three are distinct.
    """
    return Polygon2(tuple(hull_chain(map(Vec, points))))


@lru_cache(maxsize=None)
def fraction_shadow(params) -> tuple:
    """(Polygon2 hull of the projected vertices, hull position by sigma), on Fractions."""
    owner = {project_shadow(vertex): tau for tau, vertex in fraction_vertices(params)}
    hull = convex_hull_2d(owner)
    return hull, {owner[pt]: i for i, pt in enumerate(hull.vertices)}


def shadow_certificate_reference(params, sigma) -> Vec:
    """Reference for goldfarb.shadow_certificate's point, built on the Fraction hull.

    At sigma's vertex pt of the Polygon2 hull, the outward normals of the two
    incident edges, each divided by its 1-norm, are summed to n; the
    supporting point is n / (n . pt) in the last two coordinates, 0 elsewhere.
    Any sigma has one.
    """
    hull, pos = fraction_shadow(params)
    vs = hull.vertices
    i = pos[tuple(sigma)]
    prev_pt, pt, next_pt = vs[i - 1], vs[i], vs[(i + 1) % len(vs)]
    n = zero(2)
    for a, b in ((prev_pt, pt), (pt, next_pt)):
        dx, dy = b[0] - a[0], b[1] - a[1]
        n = vec_add(n, Vec((dy, -dx)) * (1 / (abs(dy) + abs(dx))))
    scale = dot(n, pt)
    return Vec([0] * (params.dim - 2) + [n[0] / scale, n[1] / scale])


def gray_rank(sigma) -> int:
    """sigma's position on the shadow ring: the inverse Gray code of its signs, sign k as bit k-1."""
    g = rank = sum([1 << k for k, s in enumerate(sigma) if s == 1])
    while g := g >> 1:
        rank ^= g
    return rank


def gray_sigma(rank: int, dim: int) -> tuple:
    """The sign vector at ring position `rank`: bit k-1 of rank's Gray code is sign k."""
    g = rank ^ rank >> 1
    return tuple([1 if g >> k & 1 else -1 for k in range(dim)])


def shadow_point(params, sigma) -> Vec:
    """The library's supporting point of an admissible sigma, (0, ..., 0, N1 / S, N2 / S) as Fractions."""
    N1, N2, S = shadow_certificate(params, sigma)
    return Vec([Fraction(0)] * (params.dim - 2) + [Fraction(N1, S), Fraction(N2, S)])


def three_vertex_certificate(params, sigma) -> Vec:
    """Reference for goldfarb.shadow_certificate's point that recomputes sigma's ring neighbours.

    Any sigma has one; the library keeps the support of admissible sigmas
    only, off its ring pass. The ring points at Gray ranks r - 1, r and r + 1
    around sigma's rank r come from three `_vertex` recursions; the support
    n = |f|_1 (e_y, -e_x) + |e|_1 (f_y, -f_x) of the edges e into and f out
    of sigma's point pt is then scaled to a = m^d n / (n . pt).
    """
    (m, _, den), d, sigma = _integer_bands(params), params.dim, tuple(sigma)
    r, n = gray_rank(sigma), 1 << d
    prv, cur, nxt = [_vertex(params, gray_sigma(i % n, d)) for i in (r - 1, r, r + 1)]
    bx, by = m * cur[-2], cur[-1]
    ex, ey, fx, fy = bx - m * prv[-2], by - prv[-1], m * nxt[-2] - bx, nxt[-1] - by
    le, lf = abs(ex) + abs(ey), abs(fx) + abs(fy)
    nx, ny = lf * ey + le * fy, -lf * ex - le * fx
    scale = nx * bx + ny * by
    if scale <= 0:
        raise ShadowPropertyError(f"support scale must be positive (origin interior) at sigma={sigma}")
    return Vec([Fraction(0)] * (d - 2) + [Fraction(den * nx, scale), Fraction(den * ny, scale)])


@lru_cache(maxsize=None)
def fraction_vertices(params) -> tuple:
    """(tau, v_tau) for every tau, each vertex rebuilt by the per-sigma recursion."""
    return tuple((v.sigma, v.coords) for v in cube_vertices(params))


def facet_strictness_oracle(p, params, ell, sigma) -> bool:
    """Reference for construct.facet_strictness_check, one Fraction dot per vertex."""
    ell = Fraction(ell)
    sigma = tuple(sigma)
    for tau, vertex in fraction_vertices(params):
        value = dot(stretch(vertex, ell), p)
        if tau == sigma:
            if value != 1:
                return False
        elif value >= 1:
            return False
    return True


def shadow_certificate_oracle(params, sigma, point) -> bool:
    """Whether a supporting point of sigma is tight at sigma's projected vertex and
    strictly below 1 at every other projected vertex, one Fraction dot each."""
    n2, sigma = project_shadow(point), tuple(sigma)
    for tau, vertex in fraction_vertices(params):
        value = dot(n2, project_shadow(vertex))
        if tau == sigma:
            if value != 1:
                return False
        elif value >= 1:
            return False
    return True


def membership(inequalities, x) -> tuple:
    """(inside, tight) for a point against (normal, rhs) pairs read as normal . x <= rhs:
    whether all of them hold, and which hold with equality."""
    if any(len(normal) != len(x) for normal, _rhs in inequalities):
        raise ValueError("point dimension mismatch")
    values = [(dot(normal, x), rhs) for normal, rhs in inequalities]
    return all(v <= rhs for v, rhs in values), tuple(v == rhs for v, rhs in values)


def unique_optimum_oracle(qp, candidate) -> bool:
    """Whether an optimal candidate is the only optimum of qp.

    The optimal face is {x feasible : sum x_i s_i = p - q}, with s_i the points
    and the minus class negated. It is the single point x iff no nonzero
    direction keeps w and both class sums and stays feasible at the bounds x
    sits on. Such directions are combinations N t of a nullspace basis; for
    each coordinate and sign, Fourier-Motzkin decides whether one moves that
    coordinate by at least 1.
    """
    x = list(candidate.alpha_plus) + list(candidate.alpha_minus)
    n_plus, n = len(candidate.alpha_plus), len(x)
    signed = list(qp.plus_points) + [-v for v in qp.minus_points]
    rows = [[s[c] for s in signed] for c in range(len(signed[0]))]
    rows.append([1 if i < n_plus else 0 for i in range(n)])
    rows.append([0 if i < n_plus else 1 for i in range(n)])
    _, basis = solve_rref(rows, [0] * len(rows))
    if not basis:
        return True
    moves = [[vec[i] for vec in basis] for i in range(n)]  # direction_i = moves[i] . t
    at_bounds = []
    for i in range(n):
        if x[i] == 0:
            at_bounds.append(([-c for c in moves[i]], Fraction(0)))
        elif x[i] == qp.mu:
            at_bounds.append((list(moves[i]), Fraction(0)))
    for i in range(n):
        for sign in (1, -1):
            if fourier_motzkin_feasible(at_bounds + [([-sign * c for c in moves[i]], Fraction(-1))]):
                return False
    return True


def build_q_reference(cert_point, vertex) -> tuple:
    """(q, slack): the shadow point moved back along v(0) onto the line, in Fraction vectors.

    q = p_shadow - slack * v(0) / ||v(0)||^2, with the slack chosen in closed
    form so that q[d-2] = 2; slack = 1 - v(0) . q < 0, since the shadow point
    has second-to-last coordinate at most 1 while q has 2. The library reads
    q and the slack off the last two coordinates instead.
    """
    d = len(vertex)
    v0 = stretch(vertex, 0)
    if vertex[d - 2] <= 0:
        raise ValueError("vertex must have positive second-to-last coordinate")
    nsq = norm_sq(v0)
    slack = (cert_point[d - 2] - 2) * nsq / v0[d - 2]
    q = vec_sub(cert_point, v0 * (slack / nsq))
    if slack >= 0:
        raise ValueError("slack must be negative")
    return q, slack


def build_p_stretched_reference(q, vertex, ell) -> Vec:
    """Project q onto the stretched facet hyperplane v(ell) . x = 1, in Fraction vectors."""
    ell = Fraction(ell)
    v_ell = stretch(vertex, ell)
    slack = 1 - dot(v_ell, q)
    return vec_add(q, v_ell * (slack / norm_sq(v_ell)))


def facet_weights_reference(params, sigma, x) -> tuple:
    """Fraction weights alpha with sum_k alpha_k w_(k, sigma_k) == x for a Fraction point x.

    The same banded back-substitution as `goldfarb.facet_weights`, on the
    Fraction bands of `goldfarb._pair_bands`, where the library runs on
    integers over one denominator.
    """
    d = params.dim
    bands = _pair_bands(params)
    beta = [Fraction(0)] * d
    for i in range(d - 1, -1, -1):
        rest = x[i]
        if i + 1 < d:
            rest -= bands[i + 1][0] * beta[i + 1]
        if i + 2 < d:
            rest -= bands[i + 2][1] * beta[i + 2]
        beta[i] = rest if sigma[i] == 1 else -rest
    return tuple(band[2] * b for band, b in zip(bands, beta))


def construction_reference(params, sigma, factors) -> tuple:
    """(p_shadow, q, slack, [(p, alphas) per stretch factor L]) of sigma, in Fraction vectors.

    The shadow point is the library's certificate (`shadow_point`; the shadow
    tests compare it with `shadow_certificate_reference`) and the vertex
    `cube_vertex`'s; alphas is None where the weights fail the strictness
    predicate, sum(alpha) == 1 and all(alpha > 0). The library builds no p
    and no slack: it keeps q and the weights, in integers.
    """
    p_shadow = shadow_point(params, sigma)
    vertex = cube_vertex(params, sigma).coords
    q, slack = build_q_reference(p_shadow, vertex)
    at = []
    for factor in factors:
        ell = 1 / Fraction(factor)
        p = build_p_stretched_reference(q, vertex, ell)
        alphas = facet_weights_reference(params, sigma, stretch(p, ell))
        at.append((p, alphas if sum(alphas) == 1 and all(a > 0 for a in alphas) else None))
    return p_shadow, q, slack, at


def calibrate(pairs, decomps) -> Calibration:
    """Reference for build_instance's calibration, read off Fraction pairs and decompositions.

    mu_bar is the largest decomposition weight, or 1/2 if larger; u_left sits
    at the least q position, u_right at q_min + (q_max - q_min) / (1 - mu_bar).
    With a single pair (dim 2) the span degenerates to zero, so a unit
    numerator stands in for q_max - q_min to keep the two points distinct.
    """
    pairs, decomps = list(pairs), list(decomps)
    if not pairs:
        raise ValueError("calibration needs at least one pair")
    mu_bar = max(Fraction(1, 2), max(dc.mu_sigma for dc in decomps))
    q_last = [pr.q[-1] for pr in pairs]
    q_min, q_max = min(q_last), max(q_last)
    if q_min == q_max and len(pairs) > 1:
        raise CalibrationError("all q positions coincide across distinct pairs")
    dim = len(pairs[0].q)
    span = (q_max - q_min) if q_max > q_min else Fraction(1)
    return Calibration(
        mu_bar, q_min, q_max, line_point(dim, q_min), line_point(dim, q_min + span / (1 - mu_bar))
    )


def constructed_p(params, sigma, factor) -> Vec:
    """sigma's p at stretch factor L: `construction_reference`'s projection of q, in Fractions."""
    return construction_reference(params, sigma, (factor,))[3][0][0]


def relaxed_facet_multiplier(params, sigma, factor) -> Fraction:
    """Multiplier of the sigma-facet in the single-facet relaxation of a breakpoint.

    The relaxation keeps only the sigma-facet v . p <= 1 on p and the line on
    q, for `construction_reference`'s p and q at stretch factor L. Its
    multiplier is -2 slack / ||v||^2 with v the stretched facet normal;
    the asserts are the relaxation's stationarity in p and its complementary
    slackness.
    """
    _p_shadow, q, slack, ((p, _alphas),) = construction_reference(params, sigma, (factor,))
    v_ell = stretch(cube_vertex(params, sigma).coords, 1 / Fraction(factor))
    lam = -2 * slack / norm_sq(v_ell)
    assert not any(vec_add(vec_sub(p, q) * 2, v_ell * lam))
    assert dot(v_ell, p) == 1
    return lam


def capped_support_value(values, mu, largest: bool) -> Fraction:
    """min (or max) of sum alpha_i values_i over 0 <= alpha_i <= mu, sum alpha_i = 1.

    The capped simplex's extreme: fill the smallest (largest) values with mu
    each, in order, until the mass 1 is spent; len(values) mu >= 1 is assumed.
    """
    total, left = Fraction(0), Fraction(1)
    for v in sorted(values, reverse=largest):
        take = min(mu, left)
        total, left = total + take * v, left - take
    return total


def duality_gap(instance, mu, alpha_plus, alpha_minus) -> Fraction:
    """||w||^2 - (h_+(w) - h_-(w)) >= 0 for w = p - q of feasible coefficients at mu.

    h_+(w) is the least w . x over the plus class's reduced hull at mu (the
    capped simplex of its points) and h_-(w) the largest over the minus
    class's. Since w . p >= h_+(w) and w . q <= h_-(w), the gap is the sum of
    the two nonnegative shortfalls, and it is half the Frank-Wolfe gap of
    the objective ||p - q||^2 at these coefficients: 0 exactly when p
    minimizes w over its hull and q maximizes it over its own, the
    optimality condition of the distance QP (Bennett & Bredensteiner, ICML
    2000). It uses no working set, multiplier or elimination, so it shares
    no code with `qp.Piece`. It decides optimality only, not uniqueness.
    Raises ValueError, naming the class, for infeasible coefficients.
    """
    mu = Fraction(mu)
    classes = (("+", alpha_plus, instance.plus_points), ("-", alpha_minus, instance.minus_points))
    for label, alphas, points in classes:
        if len(alphas) != len(points) or sum(alphas) != 1 or not all(0 <= a <= mu for a in alphas):
            raise ValueError(f"class {label} coefficients are not feasible at mu={mu}")
    w = vec_sub(*pair_points(instance, SimpleNamespace(alpha_plus=alpha_plus, alpha_minus=alpha_minus)))
    h_plus = capped_support_value([dot(w, x) for x in instance.plus_points], mu, largest=False)
    h_minus = capped_support_value([dot(w, y) for y in instance.minus_points], mu, largest=True)
    return norm_sq(w) - (h_plus - h_minus)


def kkt_check_reference(qp, candidate) -> bool:
    """Necessary-and-sufficient optimality check for a feasible candidate.

    Verifies feasibility exactly, raising ValueError with the violated
    constraints otherwise: the coefficient counts, sums and bounds. Then
    decides whether per-class multipliers exist: within each class every free
    coefficient must see the same gradient lam, coefficients at 0 must see
    gradient >= lam, and coefficients at mu gradient <= lam.
    """
    violations = []
    for label, alphas, points in (
        ("+", candidate.alpha_plus, qp.plus_points),
        ("-", candidate.alpha_minus, qp.minus_points),
    ):
        if len(alphas) != len(points):
            violations.append(f"class {label}: wrong coefficient count")
            continue
        if sum(alphas) != 1:
            violations.append(f"class {label}: coefficients sum to {sum(alphas)}")
        for i, a in enumerate(alphas):
            if not 0 <= a <= qp.mu:
                violations.append(f"class {label}: coefficient {i} = {a} outside [0, {qp.mu}]")
    if violations:
        raise ValueError("; ".join(violations))
    ranges = multiplier_ranges_reference(qp, candidate)
    return all(hi is None or lo <= hi for _signed, _grads, lo, hi in ranges)


def multiplier_ranges_reference(qp, candidate) -> tuple:
    """Gradients from Fraction vector dot products, and the multiplier ranges they allow.

    Per class: signed points, gradients, and the range of the class multiplier.
    The gradient of coefficient i is 2 s_i . (p - q) with s_i the point, negated
    in the minus class. A class multiplier lam is valid iff every coefficient
    above 0 sees gradient <= lam and every coefficient below mu sees gradient
    >= lam, so the valid values form [lo, hi]: lo is the largest gradient
    over positive coefficients, hi the smallest over coefficients below mu
    (None when every coefficient sits at mu). KKT holds iff lo <= hi in each
    class; a free coefficient pins lo == hi.
    """
    w = vec_sub(*pair_points(qp, candidate))
    out = []
    for sign, alphas, points in (
        (1, candidate.alpha_plus, qp.plus_points),
        (-1, candidate.alpha_minus, qp.minus_points),
    ):
        signed = tuple(pt * sign for pt in points)
        grads = tuple(2 * dot(s, w) for s in signed)
        lo = max(g for g, a in zip(grads, alphas) if a > 0)
        hi = min((g for g, a in zip(grads, alphas) if a < qp.mu), default=None)
        out.append((signed, grads, lo, hi))
    return tuple(out)


def unique_optimum_reference(qp, candidate) -> bool:
    """Whether an optimal candidate is the only optimum: a Gram matrix of Fraction differences.

    Call it only on a candidate that `kkt_check_reference` accepts. Every optimum
    has the same w = p - q, hence the same gradients, and the candidate's
    multipliers hold for it too. So a coefficient whose gradient differs from
    its class multiplier lam has a nonzero bound multiplier and sits at the
    same bound in every optimum. Where the valid lam form an interval, lam is
    taken strictly inside it and no coefficient of that class can move. The
    rest, the points whose gradient equals lam, could only move along a
    direction that keeps every class sum and w; none exists iff their
    differences to one reference point per class are linearly independent,
    decided by a nonsingular Gram matrix.
    """
    diffs = []
    for signed, grads, lo, hi in multiplier_ranges_reference(qp, candidate):
        if lo != hi:
            continue
        movable = [s for s, g in zip(signed, grads) if g == lo]
        diffs.extend(vec_sub(s, movable[0]) for s in movable[1:])
    gram = [[dot(a, b) for b in diffs] for a in diffs]
    try:
        solve_linear_system(gram, [0] * len(diffs))
    except SingularMatrixError:
        return False
    return True


def piece_reference(table, working):
    """Reference for `qp.Piece.build`: the piece of `working` in Fraction vector arithmetic, or None.

    The same equations as the library's piece, kept in Fractions: the first
    free coefficient of each class is its reference r, each other free i
    moves by t_i along s_i - s_r, and the Gram matrix of the Fraction
    differences gives t = t0 + mu t1 by the RREF solve above. The conditions
    x_i >= 0, mu - x_i >= 0 (closed) and each bound coefficient's gradient gap
    to its class multiplier s_r . w (open, on its side) are Fraction affine
    functions a + b mu, scanned for the interval as the library does.
    Returns None where a class has no free coefficient or the Gram matrix is
    singular, else a namespace of `free`, `base` and `slope` ((x_F, lam_+,
    lam_-) at mu = 0 and its mu-coefficients), `lo`, `hi`, `lo_closed`,
    `hi_closed`, `events`, and w = w0 + mu w1.
    """
    at_lo, at_hi = working
    signed = list(table.plus_points) + [-v for v in table.minus_points]
    n, n_plus, dim = len(signed), len(table.plus_points), len(signed[0])
    bound = set(at_lo) | set(at_hi)
    free = tuple(i for i in range(n) if i not in bound)
    classes = ([i for i in free if i < n_plus], [i for i in free if i >= n_plus])
    if not all(classes):
        return None
    refs = [members[0] for members in classes]
    capped = [sum(h < n_plus for h in at_hi), sum(h >= n_plus for h in at_hi)]
    c0 = vec_add(signed[refs[0]], signed[refs[1]])
    c1 = vec_add(zero(dim), *[signed[h] for h in at_hi])
    for r, c in zip(refs, capped):
        c1 = vec_sub(c1, signed[r] * c)
    directions = [(i, members[0]) for members in classes for i in members[1:]]
    diffs = [vec_sub(signed[i], signed[r]) for i, r in directions]
    gram = [[dot(a, b) for b in diffs] for a in diffs]
    try:
        t0 = solve_linear_system(gram, [-dot(u, c0) for u in diffs])
        t1 = solve_linear_system(gram, [-dot(u, c1) for u in diffs])
    except SingularMatrixError:
        return None
    x0 = {i: t for (i, _r), t in zip(directions, t0)}
    x1 = {i: t for (i, _r), t in zip(directions, t1)}
    for members, r, c in zip(classes, refs, capped):
        x0[r] = 1 - sum((x0[i] for i in members[1:]), Fraction(0))
        x1[r] = -c - sum((x1[i] for i in members[1:]), Fraction(0))
    w0 = vec_add(zero(dim), *[signed[i] * x0[i] for i in free])
    w1 = vec_add(zero(dim), *[signed[i] * x1[i] for i in free], *[signed[h] for h in at_hi])
    lams = [(dot(signed[r], w0), dot(signed[r], w1)) for r in refs]
    conditions = []
    for i in free:
        conditions.append((x0[i], x1[i], True, (i, AT_LO)))
        conditions.append((-x0[i], 1 - x1[i], True, (i, AT_HI)))
    for indices, sign in ((at_lo, 1), (at_hi, -1)):
        for k in indices:
            l0, l1 = lams[k >= n_plus]
            gap0, gap1 = dot(signed[k], w0) - l0, dot(signed[k], w1) - l1
            conditions.append((sign * gap0, sign * gap1, False, (k, None)))
    lo = hi = None
    lo_closed = hi_closed = True
    events = []
    for a, b, closed, event in conditions:
        if b > 0:
            if lo is None or -a / b > lo:
                lo, lo_closed = -a / b, closed
            elif -a / b == lo:
                lo_closed = lo_closed and closed
        elif b < 0:
            if hi is None or a / -b < hi:
                hi, hi_closed, events = a / -b, closed, [event]
            elif a / -b == hi:
                hi_closed = hi_closed and closed
                events.append(event)
        elif a < 0 or (a == 0 and not closed):
            lo, hi, lo_closed, hi_closed, events = Fraction(1), Fraction(0), True, True, []
            break
    return SimpleNamespace(
        free=free,
        base=tuple([x0[i] for i in free] + [l0 for l0, _l1 in lams]),
        slope=tuple([x1[i] for i in free] + [l1 for _l0, l1 in lams]),
        lo=lo,
        hi=hi,
        lo_closed=lo_closed,
        hi_closed=hi_closed,
        events=tuple(events),
        w0=w0,
        w1=w1,
    )


def sweep_report_json(report, meta=None) -> dict:
    """The reference document of a sweep report: `json.dumps(doc, indent=2)` is the report's text.

    Each record's labels are sorted on their own, where the library sorts and
    lays out each distinct support once and writes each record from a template.
    """

    def rational(x):
        return {"num": str(x.numerator), "den": str(x.denominator)}

    def label(l):
        return list(l) if isinstance(l, tuple) else l

    doc = {
        "exact": True,
        "bend_count": report.bend_count,
        "distinct_support_sets": report.distinct_support_sets,
        "lower_bound": report.lower_bound,
        "records": [
            {
                "mu": rational(r.mu),
                "objective": rational(r.objective),
                "support_plus": sorted((label(l) for l in r.support_plus), key=str),
                "support_minus": sorted(r.support_minus),
            }
            for r in report.records
        ],
    }
    if meta:
        doc.update(meta)
    return doc

def point_weights(p, params, ell, sigma) -> tuple:
    """(W, den): the integer `facet_weights` of stretch(p, ell) over sigma's facet duals.

    `construct.support_decomposition` forms the same weights for the
    constructed p only; this solves for any point p and any ell.
    """
    den, (X,) = common_denominator([stretch(p, ell)])
    W, top = facet_weights(params, tuple(sigma), X)
    return W, den * top


def strictness_check(p, params, ell, sigma) -> bool:
    """The library's cone-form check of p on the sigma-facet stretched by 1/ell.

    `construct.support_decomposition` applies `facet_strictness_check` to the
    facet weights of the constructed p; this applies it to `point_weights`,
    so the oracle above can be compared with it at any point.
    """
    return facet_strictness_check(point_weights(p, params, ell, sigma))


def mu_from_nu(nu, n: int) -> Fraction:
    """Inverse of qp.nu_from_mu; round-trips exactly with it."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    return Fraction(2, 1) / (n * nu)


def reduced_hull_segment(u_left, u_right, mu) -> tuple:
    """Reduced hull of a two-point class: the capped-coefficient segment.

    [mu*u_left + (1-mu)*u_right, mu*u_right + (1-mu)*u_left]; the full segment
    at mu = 1, its midpoint at mu = 1/2.
    """
    mu = Fraction(mu)
    if not Fraction(1, 2) <= mu <= 1:
        raise ValueError(f"mu {mu} outside [1/2, 1]")
    left = vec_add(u_left * mu, u_right * (1 - mu))
    right = vec_add(u_right * mu, u_left * (1 - mu))
    return left, right


def rational_from_json(obj) -> Fraction:
    """The Fraction of an instance_io.rational_json object."""
    return Fraction(int(obj["num"]), int(obj["den"]))


def replace(record, **changes):
    """A copy of an immutable record with the given fields changed.

    The record's class is called with every field by keyword, so its
    normalisation and validation run again, as in `dataclasses.replace`.
    """
    unknown = set(changes) - set(record._fields)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    return type(record)(**{name: changes.get(name, getattr(record, name)) for name in record._fields})


def zero(dim: int) -> Vec:
    return Vec([Fraction(0)] * dim)


def unit(dim: int, axis: int) -> Vec:
    return Vec(Fraction(1) if i == axis else Fraction(0) for i in range(dim))


def vec_add(first, *rest) -> Vec:
    """The componentwise sum of equal-length vectors; `+` on a Vec concatenates, as on a tuple."""
    return Vec([sum(column, Fraction(0)) for column in zip(first, *rest, strict=True)])


def vec_sub(a, b) -> Vec:
    return Vec([x - y for x, y in zip(a, b, strict=True)])


def dot(a, b) -> Fraction:
    """The exact inner product, one Fraction product per coordinate."""
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def norm_sq(v) -> Fraction:
    return dot(v, v)


def coefficient_support(pair) -> tuple:
    """Indices with a positive coefficient, split by class, read off the pair's coefficients.

    `qp.support_set` reads a pair read off a piece off that piece instead.
    """
    return (
        frozenset(i for i, a in enumerate(pair.alpha_plus) if a > 0),
        frozenset(i for i, a in enumerate(pair.alpha_minus) if a > 0),
    )
