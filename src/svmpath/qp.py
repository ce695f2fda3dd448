"""Exact solver for the reduced-hull distance problem and its optimality certificate.

The dual SVM minimizes ||p - q||^2 over p, q in the reduced convex hulls of
the two classes: per class the coefficients are nonnegative, sum to one, and
are individually capped by the regularization parameter mu. The solver is a
primal active-set method run entirely in rational arithmetic: it maintains a
working set of coefficients pinned at 0 or mu, solves each equality-constrained
subproblem exactly, and moves bounds in and out by exact multiplier signs with
lowest-index tie-breaking. It stops only at an iterate whose exact multiplier
signs satisfy the KKT conditions, never by tolerance.

The solver, the pieces and the certificates read one `PointTable` per point
set, which the problem carries: `ReducedHullQP` is the table and mu, and an
`SvmInstance` builds its table on first use, so every QP of one instance
shares it. The table holds the signed points s (the minus class negated) as
integer numerators over per-point denominators, and their Gram matrix G.
Each entry of a subproblem's normal equations is a sum of four entries of G
(`difference_gram`) rather than a d-term dot product of Fraction vectors.
The loop and `Piece` build these equations in one place and solve them by
the one fraction-free elimination of `geometry`; a flat subproblem of the
loop takes the solution that is zero off the pivot columns.
Each gradient s_k . w, with w = p - q, is one integer dot product over a
positive denominator (`signed_dot`), read there by the loop and `Piece`. The
multiplier test compares s_k . w, half the true gradient 2 s_k . w. A
positive factor changes no sign and no comparison, so every step, pivot and
tie-break is the one the exact gradients give.

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
pair. A piece keeps its coefficients as integers, so at a given mu the
objective is one Fraction of integer numerators, and so is each free alpha,
built only when the pair's coefficients are first read. A pair read off a
piece keeps its piece, and `support_set` reads its support off the piece
(`Piece.support`): the coefficients at mu and the free ones whose numerator
does not vanish. A pair's p and q have one definition, whichever solve gave
the pair: its coefficients times the points of the table, summed only when
first read, which a sweep never does.

At its upper event a piece pivots one coefficient and builds its
`successor` once, so the pieces of a point set form one chain, the exact
path, walked from piece to piece as SVMpath walks its breakpoints (Hastie,
Rosset, Tibshirani & Zhu, JMLR 5, 2004). The only hint the solver takes is
its warm start: `solve_reduced_distance` walks the chain from the piece a
start was read off, and where the chain stops the loop runs from the start's
coefficients.

The piece is also the one optimality certificate. A constructed breakpoint
is certified without running the loop: `build_kkt_certificate` builds the
piece of the construction's working set and accepts the candidate built from
the construction only when that piece covers the breakpoint's mu and its
optimum there is the candidate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .construct import ConstructedPair, SupportDecomposition, SvmInstance, mu_of_q
from .geometry import (
    FrozenRecord,
    PointTable,
    SingularMatrixError,
    Vec,
    solve_linear_system,
    solve_linear_system_general,
    solve_linear_systems,
)

AT_LO, AT_HI = 0, 1
# a piece's successor before its first `successor()` call
_UNWALKED = object()


class SolverStalledError(Exception):
    """Iteration cap exceeded; the solver never returns an unverified answer."""


class CertificateError(Exception):
    """A breakpoint is not the unique optimum at its mu; names sigma and mu."""


class ReducedHullQP(FrozenRecord):
    """Distance problem between the mu-reduced hulls of a point table's two classes."""

    __slots__ = _fields = ("table", "mu")

    def __init__(self, table: PointTable, mu: Fraction):
        if type(mu) is not Fraction:
            mu = Fraction(mu)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "mu", mu)
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


class OptimalPair(FrozenRecord):
    """Solved distance pair with its dual coefficients and exact objective.

    p = sum alpha_plus_i x_i and q = sum alpha_minus_j y_j over the points of
    the two classes. A solved pair builds the fields a sweep does not read
    on their first read. The loop's pair carries its point table and sums
    p and q from its coefficients. A pair read off a piece keeps that
    `piece` and `mu`: it first reads its coefficients off the piece at mu
    (`Piece.coefficients`), then sums p and q as the loop's pair does, and
    keeps both after every read, so a warm start walks on from its piece
    and `support_set` reads the support off it. None of these is a field:
    the pair compares, hashes, prints, copies and pickles as the pair with
    every field given, and a copy is that eager pair, with no piece.
    """

    _fields = ("p", "q", "alpha_plus", "alpha_minus", "objective")
    __slots__ = ("_p", "_q", "_alpha_plus", "_alpha_minus", "objective", "_table", "piece", "mu")

    def __init__(self, p: Vec, q: Vec, alpha_plus: tuple, alpha_minus: tuple, objective: Fraction,
                 table: Optional[PointTable] = None, piece: Optional["Piece"] = None, mu=None):
        _set = object.__setattr__
        _set(self, "_p", p)
        _set(self, "_q", q)
        _set(self, "_alpha_plus", alpha_plus)
        _set(self, "_alpha_minus", alpha_minus)
        _set(self, "objective", objective)
        _set(self, "_table", table)
        _set(self, "piece", piece)
        _set(self, "mu", mu)

    def _coefficients(self) -> tuple:
        if self._alpha_plus is None and self.piece is not None:
            alpha_plus, alpha_minus = self.piece.coefficients(self.mu)
            object.__setattr__(self, "_alpha_plus", alpha_plus)
            object.__setattr__(self, "_alpha_minus", alpha_minus)
        return self._alpha_plus, self._alpha_minus

    def _points(self) -> tuple:
        table = self._table
        if table is not None:
            alpha_plus, alpha_minus = self._coefficients()
            P, den_p = table.cleared_sum(enumerate(alpha_plus))
            # the table's minus points are negated
            Q, den_q = table.cleared_sum(enumerate(alpha_minus, len(alpha_plus)))
            object.__setattr__(self, "_p", Vec([Fraction(c, den_p) for c in P]))
            object.__setattr__(self, "_q", Vec([Fraction(-c, den_q) for c in Q]))
            object.__setattr__(self, "_table", None)
        return self._p, self._q

    p = property(lambda self: self._points()[0])
    q = property(lambda self: self._points()[1])
    alpha_plus = property(lambda self: self._coefficients()[0])
    alpha_minus = property(lambda self: self._coefficients()[1])


class KktCertificate(FrozenRecord):
    """A constructed pair proven the unique optimum of its instance at mu.

    `facet_multiplier` is -2 lam_+, with lam_+ the piece's plus-class
    multiplier s_r . w (half the objective's gradient): the multiplier of the
    sigma-facet when p is read as the projection of q onto that facet.
    """

    __slots__ = _fields = ("sigma", "mu", "pair", "facet_multiplier")

    def __init__(self, sigma: tuple, mu: Fraction, pair: OptimalPair, facet_multiplier: Fraction):
        _set = object.__setattr__
        _set(self, "sigma", sigma)
        _set(self, "mu", mu)
        _set(self, "pair", pair)
        _set(self, "facet_multiplier", facet_multiplier)


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

    A `start` read off a piece of this point set walks first: from its piece,
    while this mu lies at or above a piece's upper end and outside it, to
    that piece's `successor`. The first piece that covers mu answers, only
    with the unique optimum (see `Piece.optimum`), which is the pair the loop
    would return from any start. A start read off another point set's piece
    does not walk.

    Otherwise the loop runs. `start` may carry coefficients from a
    neighbouring solve (warm start); they are used only when exactly
    feasible for this mu. Each iteration
    moves the free coefficients of a class against its first free one, along
    the directions e_i - e_r. The normal equations of that step are the
    table's `difference_gram` of the directions, with right-hand side
    s_r . w - s_i . w for w = p - q, computed only for the points that move.
    Every s_k . w is the table's exact `signed_dot` of the point with w
    cleared to integers.

    The loop returns only when the step is zero and no bound multiplier has
    the wrong sign, decided exactly at that iterate: these are the KKT
    conditions. The multiplier test reads the gradients s_k . w, half the
    objective's 2 s_k . w; a positive factor changes no comparison, so the
    class multiplier, every sign and the lowest-index tie-break are those of
    the true gradients.
    """
    table, mu = qp.table, qp.mu
    piece = None if start is None else start.piece
    if piece is not None and piece.table is not table:
        piece = None
    while piece is not None and not piece.covers(mu):
        piece = piece.successor() if piece.hi is not None and mu >= piece.hi else None
    if piece is not None:
        return piece.optimum(qp)
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
        directions, normal, (rhs,) = _normal_equations(table, free_by_class, [(W, den_w)])

        # only free coefficients move
        delta = {}
        if directions:
            try:
                step = solve_linear_system(normal, rhs)
            except SingularMatrixError:
                # flat subproblem: normal equations stay consistent; take the
                # solution with free parameters at zero
                step = solve_linear_system_general(normal, rhs)
            delta = dict.fromkeys([k for pair in directions for k in pair], Fraction(0))
            for (i, r), t in zip(directions, step):
                if t:
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

        # subproblem optimum reached: check bound multipliers exactly
        grad = [Fraction(*table.signed_dot(k, W, den_w)) for k in range(n)]
        drop = None
        for cls, free in zip(classes, free_by_class):
            if free:
                lam = grad[free[0]]
            else:
                highs = [grad[i] for i in cls if working.get(i) == AT_HI]
                lam = max(highs) if highs else min(grad[i] for i in cls)
            for i in cls:
                if i in working:
                    wrong = grad[i] < lam if working[i] == AT_LO else lam < grad[i]
                    if wrong and (drop is None or i < drop):
                        drop = i
        if drop is None:
            return _finish(table, x)
        del working[drop]

    raise SolverStalledError(f"no optimum after {cap} iterations")


def _normal_equations(table: PointTable, free_by_class, sums) -> tuple:
    """(directions, D, right-hand sides) of the stationarity equations D t = rhs.

    In each class of `free_by_class` the first free coefficient is the
    reference r, and every other free i moves along e_i - e_r: the directions
    (i, r). D is their `difference_gram`. Each (S, den) in `sums` is a
    cleared sum w = S / den and gives one right-hand side, s_r . w - s_i . w
    per direction, from the table's `signed_dot` of the points that move.
    """
    directions = [(i, free[0]) for free in free_by_class for i in free[1:]]
    moved = {k for pair in directions for k in pair}
    rhs = []
    for S, den in sums:
        g = {k: Fraction(*table.signed_dot(k, S, den)) for k in moved}
        rhs.append([g[r] - g[i] for i, r in directions])
    return directions, table.difference_gram(directions), rhs


def _finish(table: PointTable, x) -> OptimalPair:
    """The pair at coefficients x with ||p - q||^2 from the integer points; p, q on first read."""
    n_plus = len(table.plus_points)
    W, den_w = table.cleared_sum(enumerate(x))
    objective = Fraction(sum(c * c for c in W), den_w * den_w)
    return OptimalPair(None, None, tuple(x[:n_plus]), tuple(x[n_plus:]), objective, table=table)


def working_set(pair: OptimalPair, mu) -> tuple:
    """(indices at 0, indices at mu) of the pair's coefficients, plus class first."""
    at_lo, at_hi = [], []
    for i, a in enumerate(pair.alpha_plus + pair.alpha_minus):
        if not a:
            at_lo.append(i)
        elif a == mu:
            at_hi.append(i)
    return tuple(at_lo), tuple(at_hi)


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

        D t = (s_r - s_i) . c0 + mu (s_r - s_i) . c1,

    with D the `difference_gram` of the directions (i, r). One elimination
    solves both right-hand sides. Each class multiplier lam is its
    reference's gradient s_r . w, so `base + mu * slope` gives
    (x_F, lam_+, lam_-) at every mu.

    Then w, every gradient s_k . w and every gap between a bound
    coefficient's gradient and its class multiplier are affine in mu too, so
    each condition of `optimum` holds on one side of one root. Their
    intersection is the piece's interval [lo, hi] (None for an infinite end):
    a free coefficient's bounds 0 <= x_i <= mu are closed, a gradient's strict
    side of its multiplier is open, and an end is closed (`lo_closed`,
    `hi_closed`) when only free bounds bind there. `events` lists the
    conditions that bind at hi, as (index, new state): a free coefficient
    reaching 0 or mu becomes AT_LO or AT_HI, a bound coefficient whose
    gradient meets its multiplier becomes free (None). The free coefficients
    (affine) and the objective (quadratic) are kept as integer coefficients
    of mu; the pair's p and q are its coefficients times the table's points,
    as for every `OptimalPair`.
    """

    __slots__ = (
        "table", "at_lo", "at_hi", "free", "base", "slope",
        "lo", "hi", "lo_closed", "hi_closed", "events", "alphas", "objective", "_ends", "_support",
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
        directions, normal, rhs = _normal_equations(table, classes, [(C0, e0), (C1, e1)])
        try:
            t0, t1 = solve_linear_systems(normal, rhs)
        except SingularMatrixError:
            return None
        x0 = {i: t for (i, _r), t in zip(directions, t0)}
        x1 = {i: t for (i, _r), t in zip(directions, t1)}
        for members, r, c in zip(classes, refs, capped):
            x0[r] = 1 - sum((x0[i] for i in members[1:]), Fraction(0))
            x1[r] = -c - sum((x1[i] for i in members[1:]), Fraction(0))
        base, slope = [x0[i] for i in free], [x1[i] for i in free]
        W0, d0 = table.cleared_sum(zip(free, base))
        W1, d1 = table.cleared_sum([*zip(free, slope), *((h, 1) for h in at_hi)])
        base += [Fraction(*table.signed_dot(r, W0, d0)) for r in refs]
        slope += [Fraction(*table.signed_dot(r, W1, d1)) for r in refs]
        piece = cls()
        piece.table, piece.at_lo, piece.at_hi = table, tuple(at_lo), tuple(at_hi)
        piece.free, piece.base, piece.slope = free, tuple(base), tuple(slope)
        # the support wherever no free coefficient vanishes, split by class
        piece._support = (
            frozenset([i for i in (*at_hi, *free) if i < n_plus]),
            frozenset([i - n_plus for i in (*at_hi, *free) if i >= n_plus]),
        )
        piece._measure(W0, d0, W1, d1)
        piece._successor = _UNWALKED
        return piece

    def _measure(self, S0: list, den0: int, S1: list, den1: int) -> None:
        """Set the interval, its upper events, and the coefficients of x and the objective.

        w(mu) = (S0 / den0) + mu (S1 / den1) is the signed points' sum cleared
        to integers, as `build` computed it.
        """
        table, free, base, slope = self.table, self.free, self.base, self.slope
        n_plus, m = len(table.plus_points), len(free)
        # each condition is a + b mu >= 0 (closed) or > 0 (open), a and b integers
        conditions = []
        alphas = []
        for i, b, s in zip(free, base, slope):
            bn, bd, sn, sd = b.numerator, b.denominator, s.numerator, s.denominator
            # x_i = b + s mu = (bn sd + sn bd mu) / (bd sd)
            alphas.append((bn * sd, sn * bd, bd * sd))
            conditions.append((bn * sd, sn * bd, True, (i, AT_LO)))
            # mu - x_i = -b + (1 - s) mu, with 1 - s = (sd - sn) / sd
            conditions.append((-bn * sd, (sd - sn) * bd, True, (i, AT_HI)))
        self.alphas = tuple(alphas)
        # with lam = l0 + mu l1 and N = nums[k] . S, the gap s_k . w - lam times
        # dens[k] is (N0 / den0 - dens[k] l0) + mu (N1 / den1 - dens[k] l1);
        # times the positive den0 den1 and both denominators of lam it is a + b mu,
        # a = N0 A0 - dens[k] B0 and b = N1 A1 - dens[k] B1 with per-class integers
        lams = []
        for c in (0, 1):
            l0, l1 = base[m + c], slope[m + c]
            dd = l0.denominator * l1.denominator
            lams.append((
                dd * den1, l0.numerator * l1.denominator * den0 * den1,
                dd * den0, l1.numerator * l0.denominator * den0 * den1,
            ))
        nums, dens = table.nums, table.dens
        for indices, sign in ((self.at_lo, 1), (self.at_hi, -1)):
            for k in indices:
                A0, B0, A1, B1 = lams[k >= n_plus]
                row, dk = nums[k], dens[k]
                a = sum([x * y for x, y in zip(row, S0)]) * A0 - dk * B0
                b = sum([x * y for x, y in zip(row, S1)]) * A1 - dk * B1
                conditions.append((sign * a, sign * b, False, (k, None)))
        lo = hi = None  # (numerator, positive denominator)
        lo_closed = hi_closed = True
        events = []
        for a, b, closed, event in conditions:
            if b > 0:  # mu >= -a / b
                if lo is None or -a * lo[1] > lo[0] * b:
                    lo, lo_closed = (-a, b), closed
                elif -a * lo[1] == lo[0] * b:
                    lo_closed = lo_closed and closed
            elif b < 0:  # mu <= a / -b
                if hi is None or a * hi[1] < hi[0] * -b:
                    hi, hi_closed, events = (a, -b), closed, [event]
                elif a * hi[1] == hi[0] * -b:
                    hi_closed = hi_closed and closed
                    events.append(event)
            elif a < 0 or (a == 0 and not closed):
                # fails at every mu: the empty interval [1, 0]
                lo, hi, lo_closed, hi_closed, events = (1, 1), (0, 1), True, True, []
                break
        self.lo = None if lo is None else Fraction(*lo)
        self.hi = None if hi is None else Fraction(*hi)
        # the ends in lowest terms as integer pairs, which `covers` compares
        self._ends = tuple(
            None if end is None else (end.numerator, end.denominator) for end in (self.lo, self.hi)
        )
        self.lo_closed, self.hi_closed, self.events = lo_closed, hi_closed, tuple(events)
        # ||w||^2 = (a den1^2 + b den0 den1 mu + c den0^2 mu^2) / (den0 den1)^2
        self.objective = (
            sum(c * c for c in S0),
            2 * sum(c * e for c, e in zip(S0, S1)),
            sum(e * e for e in S1),
            den0,
            den1,
        )

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

        Accepted only when every free coefficient lies in [0, mu], every
        coefficient at 0 has a gradient s_k . w strictly above its class
        multiplier and every coefficient at mu one strictly below it, which is
        where qp.mu lies in the interval. These are the KKT conditions, so the
        pair is optimal; the strict gradients pin every bound coefficient in
        any optimum, and the nonsingular normal equations leave the free ones
        no direction that keeps w and the class sums. So it is the only
        optimum, the one the loop returns.

        The objective is one Fraction of integer numerators, computed here.
        The pair's coefficients (`coefficients`) and then its p and q are
        built only when first read; a sweep reads the support off the piece
        (`support`) instead.
        """
        if qp.table is not self.table:
            raise ValueError("piece belongs to another point set")
        mu = qp.mu
        if not self.covers(mu):
            return None
        m, e = mu.numerator, mu.denominator
        a, b, c, d0, d1 = self.objective
        objective = Fraction(
            (a * d1 * d1 * e + b * d0 * d1 * m) * e + c * d0 * d0 * m * m, (d0 * d1 * e) ** 2
        )
        return OptimalPair(None, None, None, None, objective, table=self.table, piece=self, mu=mu)

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
        A e + B m vanishes: at an end of the interval where its AT_LO condition
        binds, such as right's at mu = 1 on the construction's working set, or
        on the whole piece when A = B = 0. The support where none vanishes is
        built once, with the piece.
        """
        m, e = mu.numerator, mu.denominator
        vanished = [i for i, (A, B, _C) in zip(self.free, self.alphas) if not A * e + B * m]
        if not vanished:
            return self._support
        plus, minus = self._support
        n_plus = len(self.table.plus_points)
        return (
            plus.difference([i for i in vanished if i < n_plus]),
            minus.difference([i - n_plus for i in vanished if i >= n_plus]),
        )

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


def build_kkt_certificate(
    instance: SvmInstance, pair: ConstructedPair, decomp: SupportDecomposition
) -> KktCertificate:
    """Prove the constructed pair the unique optimum of the instance at its mu.

    At mu = mu_of_q(q[-1]) the candidate puts the decomposition weights on
    the plus points labeled (k, sigma_k) and (mu, 1 - mu) on (left, right).
    Its piece is that of the construction's working set: the other plus
    points at 0, left at mu, and the support points and right free. Right
    stays free even at mu = 1, where its weight is 0, so that the minus class
    keeps a free coefficient. The candidate is certified when the piece
    exists, covers mu, and its optimum there, the unique optimum of the
    instance QP (`Piece.optimum`), is the candidate. Otherwise
    CertificateError names sigma and mu.
    """
    mu = mu_of_q(pair.q[-1], instance.calibration)
    n_plus = len(instance.plus_points)
    alpha_plus = [Fraction(0)] * n_plus
    for k, (s, a) in enumerate(zip(pair.sigma, decomp.alphas), start=1):
        alpha_plus[instance.plus_labels.index((k, s))] = a
    candidate = (pair.p, pair.q, tuple(alpha_plus), (mu, 1 - mu))
    where = f"sigma={pair.sigma} at mu={mu}"
    at_lo = tuple(i for i, a in enumerate(alpha_plus) if not a)
    piece = Piece.build(instance.table, (at_lo, (n_plus,)))
    if piece is None:
        raise CertificateError(f"no piece on the working set of {where}")
    if not piece.covers(mu):
        raise CertificateError(f"piece of the working set does not cover {where}")
    optimum = piece.optimum(ReducedHullQP.from_instance(instance, mu))
    if (optimum.p, optimum.q, optimum.alpha_plus, optimum.alpha_minus) != candidate:
        raise CertificateError(f"candidate differs from the optimum of its piece for {where}")
    m = len(piece.free)
    lam_plus = piece.base[m] + mu * piece.slope[m]
    return KktCertificate(tuple(pair.sigma), mu, optimum, -2 * lam_plus)


def nu_from_mu(mu, n: int) -> Fraction:
    """Convert the hull cap mu to the primal regularization value 2 / (n mu)."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    return Fraction(2, 1) / (n * mu)

