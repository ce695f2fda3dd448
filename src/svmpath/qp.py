"""Exact solver for the reduced-hull distance problem and the pieces of its path.

The dual SVM minimizes ||p - q||^2 over p, q in the reduced convex hulls of
the two classes: per class the coefficients are nonnegative, sum to one, and
are individually capped by the regularization parameter mu. The solver is a
primal active-set method run entirely in rational arithmetic: it maintains a
working set of coefficients pinned at 0 or mu, solves each equality-constrained
subproblem exactly, and moves bounds in and out by exact multiplier signs with
lowest-index tie-breaking. It stops only at an iterate whose exact multiplier
signs satisfy the KKT conditions, never by tolerance.

The solver, the pieces and `kkt`'s certificates read one `PointTable` per point
set, which the problem carries: `ReducedHullQP` is the table and mu, and an
`SvmInstance` builds its table on first use, so every QP of one instance
shares it. The table holds the signed points s (the minus class negated) as
integer numerators over per-point denominators. The loop and `Piece` build
a subproblem's normal equations in integers in one place
(`_normal_equations`) and solve them by the package's one fraction-free
elimination, which lives here and takes integers only (`solve_linear_systems`);
a flat subproblem of the loop takes the solution that is zero off the pivot
columns. The multiplier test reads the signs of `kkt._gaps`, s_k . w - s_r . w
for w = p - q and r the class's reference times a positive factor, as the
pieces and the certificate do: every step, pivot and tie-break is the one the
exact gradients 2 s_k . w give.

Along a sweep most solves need no loop. With the working set fixed (the
coefficients at 0, those at mu, and the free rest) the subproblem's normal
equations, the loop's, have a right-hand side affine in mu, so on that
stretch of the path the optimum is affine in mu: a `Piece`. A piece answers
only where its free coefficients lie in [0, mu] and every bound coefficient's
gradient is strictly on its side of the class multiplier. Each of these
conditions is affine in mu, so the piece computes once, in integers on the
table, the exact interval where all of them hold, and the conditions that end
it: its events. There its pair satisfies the KKT conditions, and it is the
only optimum: every optimum has the same w = p - q, so the strict gradients
hold the bound coefficients at their bounds in all of them, and the
nonsingular normal equations leave the free ones no other solution. The loop
returns an optimum, so it would return the same coefficients, and the same
pair. A piece keeps its coefficients as integers, and its objective as
lowest-terms integers reduced once, when it is built: at a given mu its
objective is one Fraction of a few small products, and each free alpha one
Fraction, built on first read. A pair read off a piece keeps its piece, and
`support_set` reads its support off the piece (`Piece.support`): strictly
inside the interval the support built with the piece, and at an end the
coefficients at mu and the free ones whose numerator does not vanish. So a
record read off the piece its warm start was read off costs one interval
test, one Fraction and one comparison of mu with the ends. A pair is its
coefficients and its objective: the points p and q they weight are not
built, since no command reads them.

At its upper event a piece pivots one coefficient and builds its
`successor` once, so the pieces of a point set form one chain, the exact
path, walked from piece to piece as SVMpath walks its breakpoints (Hastie,
Rosset, Tibshirani & Zhu, JMLR 5, 2004). Every walk starts in the solver:
where the loop answers, `solve_reduced_distance` reads its optimum off the
piece of the working set its gaps prove, which covers mu wherever it exists.
The only hint the solver takes is its warm start: the piece a start was read
off answers where it covers mu, and otherwise the solver walks the chain from
it (`Piece.walk`); where the chain stops the loop runs from the start's
coefficients.

The piece's conditions are also the one optimality certificate, which
`kkt` holds with the pair (`OptimalPair`) and the helpers the loop and the
pieces share with it: `_gaps` and `_finish`. `verify` loads `kkt` and not
this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .geometry import FrozenRecord, PointTable, VerificationFailure
from .kkt import (
    OptimalPair,
    _finish,
    _gaps,
    build_kkt_certificate,  # perfbench/tracer.py reads it by name; nothing here calls it
)

AT_LO, AT_HI = 0, 1
# a piece's successor before its first `successor()` call
_UNWALKED = object()
_set = object.__setattr__


class SolverStalledError(VerificationFailure):
    """Iteration cap exceeded; the solver never returns an unverified answer."""


class ReducedHullQP(FrozenRecord):
    """Distance problem between the mu-reduced hulls of a point table's two classes."""

    __slots__ = _fields = ("table", "mu")

    def __init__(self, table: PointTable, mu: Fraction):
        if type(mu) is not Fraction:
            mu = Fraction(mu)
        # both fields by position: bound here, without `FrozenRecord`'s generic binding
        _set(self, "table", table)
        _set(self, "mu", mu)
        m, e = mu.numerator, mu.denominator
        for cls in (table.plus_points, table.minus_points):
            # 1/n <= m/e <= 1 over integers, e > 0
            if not (e <= len(cls) * m and m <= e):
                raise ValueError(
                    f"mu = {mu} outside [1/{len(cls)}, 1]; reduced hull empty or uncapped"
                )

    @property
    def plus_points(self) -> tuple:
        return self.table.plus_points

    @property
    def minus_points(self) -> tuple:
        return self.table.minus_points

    @classmethod
    def from_instance(cls, instance, mu) -> "ReducedHullQP":
        return cls(instance.table, mu)


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
            return [v if type(v) is Fraction else Fraction(v) for v in x]
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

    A `start` read off a piece of this point set answers from that piece
    where it covers mu. Otherwise it walks first (`Piece.walk`): from its
    piece, while this mu lies at or above a piece's upper end and outside it,
    to that piece's `successor`. The first piece that covers mu answers, only
    with the unique optimum (see `Piece.optimum`), which is the pair the loop
    would return from any start. A start read off another point set's piece
    does not walk.

    Otherwise the loop runs. `start` may carry coefficients from a
    neighbouring solve (warm start); they are used only when exactly
    feasible for this mu. Each iteration moves the free coefficients of a
    class against its first free one, along the directions e_i - e_r, by the
    integer normal equations (`_normal_equations`) of w = p - q cleared to
    integers. Every s_k . w is one integer dot product over a positive
    denominator.

    The loop returns only at the KKT conditions: a zero step and no bound
    multiplier of the wrong sign, by the signs of `_gaps` against each class's
    reference, its first free coefficient or else its capped one with the
    largest s_h . w; the lowest index of a wrong sign is freed. The answer
    binds only the coefficients whose gap is strictly on its side, so its
    piece covers mu wherever its normal equations are nonsingular, and the
    optimum read off it is where the next solve's walk starts. Elsewhere
    `_finish` sums the objective of a pair with no piece.
    """
    table, mu = qp.table, qp.mu
    if start is not None and start.piece is not None and start.piece.table is table:
        # most starts lie on the piece that covers mu: no walk is built for them
        pair = start.piece.optimum(qp)
        if pair is None:
            for piece in start.piece.walk(mu):
                pass
            pair = piece.optimum(qp)
        if pair is not None:
            return pair
    n, n_plus = len(table.nums), len(qp.plus_points)
    classes = (tuple(range(n_plus)), tuple(range(n_plus, n)))
    x = _initial_point(qp, classes, n, start)

    working = {}
    for i in range(n):
        if x[i] == 0:
            working[i] = AT_LO
        elif x[i] == mu:
            working[i] = AT_HI

    cap = 1000 + 60 * n
    for _ in range(cap):
        W, den_w = table.cleared_sum(enumerate(x))
        free_by_class = [[i for i in cls if i not in working] for cls in classes]
        directions, scales, _diffs, normal, (rhs,) = _normal_equations(table, free_by_class, [W])

        # only free coefficients move
        delta = {}
        if directions:
            try:
                step, det = solve_linear_system(normal, rhs)
            except SingularMatrixError:
                # flat subproblem: normal equations stay consistent; take the
                # solution with free parameters at zero
                step, det = solve_linear_system_general(normal, rhs)
            delta = dict.fromkeys([k for pair in directions for k in pair], Fraction(0))
            for (i, r), c, y in zip(directions, scales, step):
                if y:
                    # the step along s_i - s_r, with y / det = den_w t / c
                    t = Fraction(c * y, det * den_w)
                    delta[i] += t
                    delta[r] -= t

        if any(delta.values()):
            length = Fraction(1)
            blocker = None
            for i, dv in delta.items():
                if dv < 0 and x[i] + dv < 0:
                    limit = x[i] / -dv
                    if limit < length or (limit == length and blocker is not None and i < blocker[0]):
                        length, blocker = limit, (i, AT_LO)
                elif dv > 0 and x[i] + dv > mu:
                    limit = (mu - x[i]) / dv
                    if limit < length or (limit == length and blocker is not None and i < blocker[0]):
                        length, blocker = limit, (i, AT_HI)
            if length > 0:
                for i, dv in delta.items():
                    if dv:
                        x[i] += length * dv
            if blocker is not None:
                working[blocker[0]] = blocker[1]
            continue

        # subproblem optimum reached: the bound gaps against each class's reference;
        # each step keeps a class sum at 1, so a class with none free has one at mu
        refs = [
            free[0] if free else max([h for h in cls if working[h] == AT_HI],
                                     key=lambda h: Fraction(sum(map(mul, table.nums[h], W)), table.dens[h]))
            for cls, free in zip(classes, free_by_class)
        ]
        bound = sorted(working)
        (_R,), (G,) = _gaps(table, refs, bound, (W,))
        # > 0 where the bound holds strictly, < 0 where its multiplier has the wrong sign
        sides = [g if working[k] == AT_LO else -g for k, g in zip(bound, G)]
        drop = next((k for k, side in zip(bound, sides) if side < 0), None)
        if drop is None:
            strict = [k for k, side in zip(bound, sides) if side > 0]
            at_lo, at_hi = (tuple(k for k in strict if working[k] == s) for s in (AT_LO, AT_HI))
            piece = Piece.build(table, (at_lo, at_hi))
            return _finish(table, x, W, den_w) if piece is None else piece.optimum(qp)
        del working[drop]

    raise SolverStalledError(f"no optimum after {cap} iterations")


def _normal_equations(table: PointTable, free_by_class, sums) -> tuple:
    """(directions, scales, diffs, N, right-hand sides) of the integer stationarity equations.

    In each class of `free_by_class` the first free coefficient is the
    reference r, and every other free i moves along e_i - e_r: the directions
    (i, r). Direction a has the scale c = lcm(dens[i], dens[r]) and the
    integer difference u = (c / dens[i]) nums[i] - (c / dens[r]) nums[r] =
    c (s_i - s_r). N is the Gram matrix of the u, and each integer S in `sums`
    gives the right-hand side -U S: moving w = S / den by t_a along each
    s_i - s_r, stationarity u_a . w = 0 reads N y = -U S for t_a = c_a y_a / den.
    """
    nums, dens = table.nums, table.dens
    directions = [(i, free[0]) for free in free_by_class for i in free[1:]]
    scales, diffs = [lcm(dens[i], dens[r]) for i, r in directions], []
    for (i, r), c in zip(directions, scales):
        fi, fr = c // dens[i], c // dens[r]
        diffs.append([fi * a - fr * b for a, b in zip(nums[i], nums[r])])
    normal = [[0] * len(diffs) for _ in diffs]
    for a, u in enumerate(diffs):
        for b in range(a, len(diffs)):
            normal[a][b] = normal[b][a] = sum(map(mul, u, diffs[b]))
    rhs = [[-sum(map(mul, u, S)) for u in diffs] for S in sums]
    return directions, scales, diffs, normal, rhs


class SingularMatrixError(Exception):
    """The linear system has no unique solution."""


def solve_linear_system(A: Sequence[Sequence], b: Sequence) -> tuple:
    """(y, det): the exact solution y / det of a square integer system Ax = b, det > 0.

    Raises SingularMatrixError instead of ever returning an inexact or arbitrary vector.
    """
    (y,), det = solve_linear_systems(A, [b])
    return y, det


def solve_linear_systems(A: Sequence[Sequence], columns: Sequence[Sequence]) -> tuple:
    """(Y, det): the exact solutions of Ax = b for each b in `columns`, over one denominator.

    One elimination serves every column, as in `solve_linear_system`: Y[k][j]
    / det is entry j of the solution for columns[k], with the integer det > 0.
    Raises SingularMatrixError naming the first column without a pivot.
    """
    M, pivots = _echelon(A, columns)
    n = len(A)
    if len(pivots) < n:
        col = next(c for c in range(n) if c not in pivots)
        raise SingularMatrixError(f"no pivot in column {col}")
    return _back_substitute(M, pivots, range(n, n + len(columns)))


def solve_linear_system_general(A: Sequence[Sequence], b: Sequence) -> Optional[tuple]:
    """(y, det) with y / det a solution of a square, possibly singular integer system Ax = b.

    None when it has none. The elimination of `solve_linear_system`, skipping
    each column without a pivot: the solution is zero in those columns. It
    depends only on the pivot columns, the first columns independent of those
    before them, so it is the particular solution of the reduced row echelon
    form with its free variables at zero.
    """
    M, pivots = _echelon(A, [b])
    n = len(A)
    if any(M[r][n] for r in range(len(pivots), n)):
        return None
    (y,), det = _back_substitute(M, pivots, [n])
    return y, det


def _echelon(A: Sequence[Sequence], columns: Sequence[Sequence]) -> tuple:
    """(M, pivots): the fraction-free echelon form of the square integer A beside `columns`.

    Bareiss elimination (Math. Comp. 22, 1968) with row swaps on [A | columns].
    Pivot r stands in row r and column pivots[r]; a column with no nonzero
    entry below the pivots found so far gets none and is skipped. Each entry
    is a minor of [A | columns], so every division is exact. Raises TypeError
    for an entry that is not an int: the division would not be exact.
    """
    n = len(A)
    if any(len(row) != n for row in A) or any(len(b) != n for b in columns):
        raise ValueError("system must be square")
    M = [[*row, *rhs] for row, rhs in zip(A, zip(*columns), strict=True)]
    if any(type(x) is not int for row in M for x in row):
        raise TypeError("the elimination takes integer entries only")
    width, pivots, prev = n + len(columns), [], 1
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if M[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
        mc, pv = M[r], M[r][col]
        for i in range(r + 1, n):
            mi, f = M[i], M[i][col]
            for c in range(col, width):
                mi[c] = (pv * mi[c] - f * mc[c]) // prev
        prev = pv
        pivots.append(col)
    return M, pivots


def _back_substitute(M: list, pivots: list, columns: Iterable) -> tuple:
    """(Y, det): for each column k of an `_echelon` form, y with y / det its solution.

    Each y is zero off the pivot columns. Back-substitutes y = det * x over
    the pivot rows, with det > 0 the last pivot's absolute value, the
    determinant of the pivot rows and columns up to sign. y is an integer
    vector by Cramer's rule on them, so every division is exact.
    """
    n = len(M)
    det = abs(M[len(pivots) - 1][pivots[-1]]) if pivots else 1
    out = []
    for k in columns:
        y = [0] * n
        for r in range(len(pivots) - 1, -1, -1):
            row, p = M[r], pivots[r]
            s = det * row[k] - sum(row[c] * y[c] for c in range(p + 1, n))
            y[p] = s // row[p]
        out.append(y)
    return tuple(out), det


class Piece:
    """The optimum on one working set of a point set, affine in mu, with its exact interval.

    With the coefficients in `at_lo` at 0 and those in `at_hi` at mu, the
    free coefficients solve the loop's normal equations. In each class the
    first free coefficient is the reference r, and every other free i moves
    along e_i - e_r by t_i, the reference taking what the class sum leaves:
    x_r = 1 - mu |H_c| - sum t_i, with H_c the capped coefficients of class
    c. Then
    w = p - q = c0 + mu c1 + sum t_i (s_i - s_r) with c0 = s_r+ + s_r- and
    c1 = sum_H s_h - |H_+| s_r+ - |H_-| s_r-, and stationarity, s_i . w equal
    to s_r . w for every free i, reads

        G t = (s_r - s_i) . c0 + mu (s_r - s_i) . c1,

    with G the Gram matrix of the differences s_i - s_r of the directions
    (i, r). Built in integers (`_normal_equations`), one fraction-free
    elimination solves it for both right-hand sides over one determinant det:
    each free coefficient (`alphas`) and w are integers over det e0 plus mu
    times integers over det e1, for c0 = C0 / e0 and c1 = C1 / e1. Each class
    multiplier lam is its reference's gradient s_r . w, kept as integers over
    dens[r] det e0 plus mu times integers over dens[r] det e1 (`_lams`).

    Then every gradient s_k . w and every gap between a bound coefficient's
    gradient and its class multiplier are affine in mu too, so each condition
    of `optimum` holds on one side of one root. Their intersection is the
    piece's interval [lo, hi] (None for an infinite end): a free coefficient's
    bounds 0 <= x_i <= mu are closed, a gradient's strict side of its
    multiplier is open, and an end is closed (`lo_closed`, `hi_closed`) when
    only free bounds bind there. `events` lists the conditions that bind at
    hi, as (index, new state): a free coefficient reaching 0 or mu becomes
    AT_LO or AT_HI, a bound coefficient whose gradient meets its multiplier
    becomes free (None). The objective (quadratic) is kept as lowest-terms
    integers (A, B, C, D), reduced once here: at mu = m / e it is
    (A e^2 + B m e + C m^2) / (D e^2), with D > 0 (`optimum`).
    """

    __slots__ = (
        "table", "at_lo", "at_hi", "free", "alphas", "_lams",
        "lo", "hi", "lo_closed", "hi_closed", "events", "objective", "_ends", "_support",
        "_successor",
    )

    @classmethod
    def build(cls, table: PointTable, working: tuple) -> Optional["Piece"]:
        """The piece of `working` = (at_lo, at_hi) on a point table, or None.

        There is none when a class has no free coefficient or the normal
        equations are singular, that is when the differences of the free
        points to their class's reference are linearly dependent.
        """
        at_lo, at_hi = working
        n, n_plus = len(table.nums), len(table.plus_points)
        bound = set(at_lo) | set(at_hi)
        free = tuple(i for i in range(n) if i not in bound)
        classes = ([i for i in free if i < n_plus], [i for i in free if i >= n_plus])
        if not all(classes):
            return None
        refs = [members[0] for members in classes]
        capped = [sum(h < n_plus for h in at_hi), sum(h >= n_plus for h in at_hi)]
        # c0 and c1 of w = c0 + mu c1 + sum t_i (s_i - s_r), cleared to integers
        C0, e0 = table.cleared_sum([(r, 1) for r in refs])
        C1, e1 = table.cleared_sum(
            [(h, 1) for h in at_hi] + [(r, -c) for r, c in zip(refs, capped)]
        )
        directions, scales, diffs, normal, rhs = _normal_equations(table, classes, [C0, C1])
        try:
            (Y0, Y1), det = solve_linear_systems(normal, rhs)
        except SingularMatrixError:
            return None
        # x_i = t_i = c (Y0_i / (det e0) + mu Y1_i / (det e1)) = P_i / (det e0) + mu Q_i / (det e1)
        den0, den1 = det * e0, det * e1
        P = {i: c * y for (i, _r), c, y in zip(directions, scales, Y0)}
        Q = {i: c * y for (i, _r), c, y in zip(directions, scales, Y1)}
        for members, r, h in zip(classes, refs, capped):
            P[r] = den0 - sum([P[i] for i in members[1:]])
            Q[r] = -h * den1 - sum([Q[i] for i in members[1:]])
        # w = W0 / den0 + mu W1 / den1 with W = det C + sum y_a u_a
        cols = [[u[j] for u in diffs] for j in range(len(C0))]
        W0 = [det * c + sum(map(mul, Y0, col)) for c, col in zip(C0, cols)]
        W1 = [det * c + sum(map(mul, Y1, col)) for c, col in zip(C1, cols)]
        piece = cls()
        piece.table, piece.at_lo, piece.at_hi, piece.free = table, tuple(at_lo), tuple(at_hi), free
        # the support strictly inside the interval (see `support`): the coefficients
        # at mu and the free ones not identically zero, split by class
        kept = [*at_hi, *[i for i in free if P[i] or Q[i]]]
        piece._support = (
            frozenset([i for i in kept if i < n_plus]),
            frozenset([i - n_plus for i in kept if i >= n_plus]),
        )
        piece._measure(refs, P, Q, W0, W1, det, e0, e1)
        piece._successor = _UNWALKED
        return piece

    def _measure(self, refs: list, P: dict, Q: dict, W0: list, W1: list, det, e0, e1) -> None:
        """Set the coefficients, the interval, its upper events, the multipliers and the objective.

        From `build`: x_i = P[i] / (det e0) + mu Q[i] / (det e1) and
        w = W0 / (det e0) + mu W1 / (det e1). In nu = mu e0 / e1, a positive
        multiple of mu, both are over det e0, so each condition is
        a + b nu >= 0 (closed) or > 0 (open) with integers a and b.
        """
        table, free = self.table, self.free
        den0, den1 = det * e0, det * e1
        # x_i = (P e1 + Q e0 mu) / (det e0 e1)
        self.alphas = tuple([(P[i] * e1, Q[i] * e0, den0 * e1) for i in free])
        # lam = s_r . w = R0 / (dens[r] den0) + mu R1 / (dens[r] den1), and the gap
        # s_k . w - lam times the positive dens[k] dens[r] den0 is G0 + nu G1 (`_gaps`)
        bound = (*self.at_lo, *self.at_hi)
        (R0, R1), (G0, G1) = _gaps(table, refs, bound, (W0, W1))
        self._lams = tuple([
            (r0, table.dens[r] * den0, r1, table.dens[r] * den1) for r, r0, r1 in zip(refs, R0, R1)
        ])
        # the conditions a + b nu, in order: per free coefficient x_i >= 0 and
        # mu - x_i = (-P + (det e1 - Q) nu) / (det e0) >= 0, both closed, then
        # the open gaps of the coefficients at 0 and, negated, of those at mu
        A = [a for i in free for a in (P[i], -P[i])]
        B = [b for i in free for b in (Q[i], den1 - Q[i])]
        closed, lo = len(A), len(self.at_lo)
        A += G0[:lo] + [-g for g in G0[lo:]]
        B += G1[:lo] + [-g for g in G1[lo:]]
        lo_n = lo_d = hi_n = hi_d = 0  # nu as numerator over positive denominator; 0 if none
        lo_closed, hi_closed, events = True, True, []
        for j, b in enumerate(B):
            if b > 0:  # nu >= -a / b
                a = -A[j]
                if not lo_d or a * lo_d > lo_n * b:
                    lo_n, lo_d, lo_closed = a, b, j < closed
                elif a * lo_d == lo_n * b:
                    lo_closed = lo_closed and j < closed
            elif b < 0:  # nu <= a / -b
                a, b = A[j], -b
                if not hi_d or a * hi_d < hi_n * b:
                    hi_n, hi_d, hi_closed, events = a, b, j < closed, [j]
                elif a * hi_d == hi_n * b:
                    hi_closed = hi_closed and j < closed
                    events.append(j)
            elif A[j] < 0 or (not A[j] and j >= closed):
                # fails at every mu: the empty interval [1, 0], nu = e0 / e1 at mu = 1
                lo_n, lo_d, hi_n, hi_d, lo_closed, hi_closed, events = e0, e1, 0, 1, True, True, []
                break
        # mu = nu e1 / e0
        self.lo = Fraction(lo_n * e1, lo_d * e0) if lo_d else None
        self.hi = Fraction(hi_n * e1, hi_d * e0) if hi_d else None
        # an event (index, new state): a free coefficient becomes AT_LO or AT_HI, a bound one free
        self.events = tuple([
            (free[j // 2], (AT_LO, AT_HI)[j % 2]) if j < closed else (bound[j - closed], None)
            for j in events
        ])
        # the ends in lowest terms as integer pairs, which `covers` compares
        self._ends = tuple(
            None if end is None else (end.numerator, end.denominator) for end in (self.lo, self.hi)
        )
        self.lo_closed, self.hi_closed = lo_closed, hi_closed
        # ||w||^2 = (a den1^2 + b den0 den1 mu + c den0^2 mu^2) / (den0 den1)^2, which at
        # mu = m / e is (A e^2 + B m e + C m^2) / (D e^2): reduced once, here
        a, b, c = sum(map(mul, W0, W0)), 2 * sum(map(mul, W0, W1)), sum(map(mul, W1, W1))
        A, B, C, D = a * den1 * den1, b * den0 * den1, c * den0 * den0, (den0 * den1) ** 2
        g = gcd(A, B, C, D)
        self.objective = (A // g, B // g, C // g, D // g)

    def covers(self, mu) -> bool:
        """Whether mu lies in the piece's interval, where `optimum` answers."""
        # by integer cross-multiplication: every Fraction comparison first
        # checks its operand's type against the numbers ABCs
        m, e = mu.numerator, mu.denominator
        lo, hi = self._ends
        if lo is not None:
            side = m * lo[1] - lo[0] * e  # the sign of mu - lo
            if side < 0 or (side == 0 and not self.lo_closed):
                return False
        if hi is None:
            return True
        side = hi[0] * e - m * hi[1]  # the sign of hi - mu
        return side > 0 or (side == 0 and self.hi_closed)

    def optimum(self, qp: ReducedHullQP) -> Optional[OptimalPair]:
        """The unique optimum of qp if it lies on this piece, else None.

        Accepted only where qp.mu lies in the interval: every free
        coefficient in [0, mu], and every bound coefficient's gradient s_k . w
        strictly on its side of its class multiplier. There the pair is the
        unique optimum, the one the loop returns (see the module docstring).

        The objective is one Fraction, built here from the piece's
        lowest-terms coefficients (A, B, C, D) and mu = m / e: (A e^2 + B m e
        + C m^2) / (D e^2). The pair's coefficients (`coefficients`) are built
        only when first read; a sweep reads the support off the piece
        (`support`) instead.
        """
        if qp.table is not self.table:
            raise ValueError("piece belongs to another point set")
        mu = qp.mu
        if not self.covers(mu):
            return None
        m, e = mu.numerator, mu.denominator
        A, B, C, D = self.objective
        objective = Fraction((A * e + B * m) * e + C * m * m, D * e * e)
        return OptimalPair(None, None, objective, piece=self, mu=mu)

    def coefficients(self, mu: Fraction) -> tuple:
        """(alpha_plus, alpha_minus) of the piece's pair at a mu it covers.

        Each free coefficient is one Fraction of integer numerators.
        """
        table = self.table
        x = [Fraction(0)] * len(table.nums)
        for h in self.at_hi:
            x[h] = mu
        m, e = mu.numerator, mu.denominator
        # x_i = (A + B mu) / C = (A e + B m) / (C e)
        for i, (A, B, C) in zip(self.free, self.alphas):
            x[i] = Fraction(A * e + B * m, C * e)
        n_plus = len(table.plus_points)
        return tuple(x[:n_plus]), tuple(x[n_plus:])

    def support(self, mu: Fraction) -> tuple:
        """`support_set` of the piece's pair at a mu it covers, without building the pair.

        Every coefficient at mu is positive. The free ones lie in [0, mu] over
        the positive C e, so a free one is zero exactly where its numerator
        A e + B m vanishes. That numerator is affine in mu and >= 0 on the
        interval, so it vanishes at a point strictly inside the interval only
        if it vanishes on all of it, A = B = 0. The support strictly inside
        the interval, without the free coefficients that are identically
        zero, is built once, with the piece, and answers every mu there. At an
        end a free coefficient can vanish alone, where its AT_LO condition
        binds, such as right's at mu = 1 on the construction's working set, so
        there each numerator is tested.
        """
        m, e = mu.numerator, mu.denominator
        lo, hi = self._ends
        if (lo is None or m * lo[1] != lo[0] * e) and (hi is None or hi[0] * e != m * hi[1]):
            return self._support
        vanished = [i for i, (A, B, _C) in zip(self.free, self.alphas) if not A * e + B * m]
        if not vanished:
            return self._support
        plus, minus = self._support
        n_plus = len(self.table.plus_points)
        return (
            plus.difference([i for i in vanished if i < n_plus]),
            minus.difference([i - n_plus for i in vanished if i >= n_plus]),
        )

    def walk(self, mu) -> Iterator["Piece"]:
        """This piece, then its successors while mu lies at or above a piece's hi and outside it.

        The last piece yielded covers mu, unless the chain stops first
        (`successor` gives None) or mu lies outside a piece and below its hi.
        """
        piece = self
        while piece is not None:
            yield piece
            advance = not piece.covers(mu) and piece.hi is not None and mu >= piece.hi
            piece = piece.successor() if advance else None

    def successor(self) -> Optional["Piece"]:
        """The piece that follows this one past hi, or None where a walk must stop.

        At hi a single event pivots the working set: a free coefficient that
        reaches 0 or mu becomes bound there, a bound one whose gradient meets
        its multiplier becomes free. None when hi is infinite, several
        conditions bind at hi (a tie), the new working set has no piece, or
        its interval does not start at hi and reach above it. Built on the
        first call and kept, so the pieces of a point set form one chain
        that every walk over it shares.
        """
        if self._successor is not _UNWALKED:
            return self._successor
        nxt = None
        if self.hi is not None and len(self.events) == 1:
            ((k, state),) = self.events
            at_lo = [i for i in self.at_lo if i != k]
            at_hi = [i for i in self.at_hi if i != k]
            if state is not None:
                (at_lo if state == AT_LO else at_hi).append(k)
            nxt = Piece.build(self.table, (tuple(sorted(at_lo)), tuple(sorted(at_hi))))
            if nxt is not None and (nxt.lo != self.hi or (nxt.hi is not None and nxt.hi <= self.hi)):
                nxt = None
        self._successor = nxt
        return nxt


def support_set(pair: OptimalPair) -> tuple:
    """Indices with strictly positive coefficient, split by class.

    A pair read off a piece reads it off the piece (`Piece.support`), without
    building its coefficients.
    """
    if pair.piece is not None:
        return pair.piece.support(pair.mu)
    # a rational's sign is its numerator's: no Fraction comparison per coefficient
    plus = frozenset(i for i, a in enumerate(pair.alpha_plus) if a.numerator > 0)
    minus = frozenset(i for i, a in enumerate(pair.alpha_minus) if a.numerator > 0)
    return plus, minus


def nu_from_mu(mu, n: int) -> Fraction:
    """Convert the hull cap mu to the primal regularization value 2 / (n mu)."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    return Fraction(2, 1) / (n * mu)

