"""Regularization sweeps: solve at discrete mu values and count support changes.

A bend is recorded exactly when the support set strictly changes between two
consecutive solved values, which is the experimental proxy used throughout.
Grid points are exact rationals, so every solve along a sweep stays exact.

Records are read off the exact path. Between two events the working set stays
fixed and the optimum is a `qp.Piece`, affine in mu on an exact interval, and
at its upper event each piece gives the next (`qp.Piece.successor`): the
chain of pieces is the path. Each record warm-starts from its lower
neighbour, a grid point from the one below it and a bisection midpoint from
its lower end, and the solver walks (`qp.solve_reduced_distance`): a warm
start read off a piece walks the chain up to the piece that covers the
record's mu, and a piece answers only with the unique optimum. The chain
stops at a tied event, at a working set without a piece, or where the next
interval does not start at the event; there the loop runs from the same warm
start, so at a non-unique optimum the record is still the loop's. Where the
loop answers, the solver reads its optimum off the piece of its working set,
if that piece covers mu, and the next record walks on from there. Either way
each record is the one the loop alone gives.

A record read off a piece costs the pieces its walk passes, the interval
test, its objective and its support (`qp.support_set`, which reads it off the
piece); the pair builds its coefficients only when read, which a sweep does
only to warm-start the loop. Each distinct index support is labeled once per
grid and once per refinement, and the records that share a labeling share its
frozensets.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .construct import MINUS_LABELS, SvmInstance
from .geometry import FrozenRecord, VerificationFailure
from .qp import (
    OptimalPair,
    ReducedHullQP,
    SolverStalledError,
    solve_reduced_distance,
    support_set,
)


class SweepMismatchError(VerificationFailure):
    """Two certified breakpoints share a mu or a support set."""

    def __init__(self, sigma, detail: str):
        self.sigma = tuple(sigma)
        super().__init__(f"sigma={self.sigma}: {detail}")


class SweepRecord(FrozenRecord):
    """One solved value: mu, labeled support sets, objective, and the pair."""

    __slots__ = _fields = ("mu", "support_plus", "support_minus", "objective", "pair")

    def __init__(
        self, mu: Fraction, support_plus: frozenset, support_minus: frozenset,
        objective: Fraction, pair: OptimalPair,
    ):
        _set = object.__setattr__
        _set(self, "mu", mu)
        _set(self, "support_plus", support_plus)
        _set(self, "support_minus", support_minus)
        _set(self, "objective", objective)
        _set(self, "pair", pair)

    @property
    def support(self) -> tuple:
        return self.support_plus, self.support_minus


class SweepReport(FrozenRecord):
    """Records ordered by decreasing mu with bend and distinct-set counts."""

    __slots__ = _fields = ("records", "bend_count", "distinct_support_sets", "lower_bound")

    def __init__(
        self, records: tuple, bend_count: int, distinct_support_sets: int, lower_bound: int
    ):
        _set = object.__setattr__
        _set(self, "records", records)
        _set(self, "bend_count", bend_count)
        _set(self, "distinct_support_sets", distinct_support_sets)
        _set(self, "lower_bound", lower_bound)


def _solve_record(
    instance: SvmInstance, mu: Fraction, warm: Optional[OptimalPair], labels: dict
) -> SweepRecord:
    """The record at mu, solved from `warm`; `labels` keeps each index support's labels."""
    qp = ReducedHullQP.from_instance(instance, mu)
    try:
        pair = solve_reduced_distance(qp, start=warm)
    except SolverStalledError as exc:
        raise SolverStalledError(f"at mu = {mu}: {exc}") from exc
    return _record(instance, qp.mu, pair, labels)


def _record(instance: SvmInstance, mu: Fraction, pair: OptimalPair, labels: dict) -> SweepRecord:
    """The record of `pair` at mu; `labels` keeps each index support's labels."""
    support = support_set(pair)
    if support not in labels:
        plus, minus = support
        labels[support] = (
            frozenset([instance.plus_labels[i] for i in plus]),
            frozenset([MINUS_LABELS[i] for i in minus]),
        )
    plus, minus = labels[support]
    return SweepRecord(mu, plus, minus, pair.objective, pair)


def path_pieces(instance: SvmInstance, mu_lo, mu_hi) -> tuple:
    """The pieces of one walk from the solver's optimum at mu_lo up to mu_hi, in increasing mu.

    They cover [mu_lo, mu_hi] unless the walk stopped (see `qp.Piece.successor`),
    and are empty when the optimum at mu_lo lies on no piece of its working set.
    """
    piece = solve_reduced_distance(ReducedHullQP.from_instance(instance, mu_lo)).piece
    return () if piece is None else tuple(piece.walk(Fraction(mu_hi)))


def _report(records: Iterable[SweepRecord], lower_bound: int) -> SweepReport:
    records = list(records)
    # sorted on the integers D mu, D the lcm of the denominators: the order of
    # the mus without a Fraction comparison per step
    D = lcm(*[r.mu.denominator for r in records])
    ordered = tuple(
        sorted(records, key=lambda r: r.mu.numerator * (D // r.mu.denominator), reverse=True)
    )
    bends = sum(
        1 for a, b in zip(ordered, ordered[1:]) if a.support != b.support
    )
    distinct = len({r.support for r in ordered})
    return SweepReport(ordered, bends, distinct, lower_bound)


def instance_lower_bound(instance: SvmInstance) -> int:
    """Bend lower bound: 2^d / 4 for constructed instances, max(0, 2(n_+ - 3)) for the demo."""
    if instance.params is not None:
        return 2 ** instance.params.dim // 4
    return max(0, 2 * (len(instance.plus_points) - 3))


def grid_values(mu_lo: Fraction, mu_hi: Fraction, steps: int) -> list:
    """mu_lo + (mu_hi - mu_lo) i / (steps - 1) for i in range(steps), one Fraction each."""
    span = mu_hi - mu_lo
    a, b, c, d, s = mu_lo.numerator, mu_lo.denominator, span.numerator, span.denominator, steps - 1
    # a / b + c i / (d s) = (a d s + c b i) / (b d s)
    return [Fraction(a * d * s + c * b * i, b * d * s) for i in range(steps)]


def sweep_grid(instance: SvmInstance, mu_lo, mu_hi, steps: int) -> SweepReport:
    """Solve on a uniform rational grid of `steps` points over [mu_lo, mu_hi].

    The sweep ascends in mu so each solve warm-starts from its predecessor:
    its coefficients stay feasible when the cap grows, and its piece walks
    on up the path.
    """
    mu_lo, mu_hi = Fraction(mu_lo), Fraction(mu_hi)
    if not Fraction(1, 2) <= mu_lo < mu_hi <= 1:
        raise ValueError("need 1/2 <= mu_lo < mu_hi <= 1")
    if steps < 2:
        raise ValueError("need at least two grid points")
    records, labels = [], {}
    warm = None
    for mu in grid_values(mu_lo, mu_hi, steps):
        rec = _solve_record(instance, mu, warm, labels)
        warm = rec.pair
        records.append(rec)
    return _report(records, instance_lower_bound(instance))


def _refine(instance, mu_a, rec_a, mu_b, rec_b, depth, out, labels) -> None:
    """Bisect [mu_a, mu_b] while its ends differ in support, `depth` levels deep.

    Midpoints are solved depth first, the lower half before the upper, each
    warm-started from its lower end, and appended to `out`. An explicit
    stack, not recursion, so any depth ends without a RecursionError.
    """
    stack = [(mu_a, rec_a, mu_b, rec_b, depth)]
    while stack:
        mu_a, rec_a, mu_b, rec_b, depth = stack.pop()
        if depth <= 0 or rec_a.support == rec_b.support:
            continue
        mid = (mu_a + mu_b) / 2
        rec = _solve_record(instance, mid, rec_a.pair, labels)
        out.append(rec)
        stack.append((mid, rec, mu_b, rec_b, depth - 1))
        stack.append((mu_a, rec_a, mid, rec, depth - 1))


def sweep_refined(instance: SvmInstance, mu_lo, mu_hi, steps: int, depth: int) -> SweepReport:
    """Grid sweep plus recursive bisection between differing neighbours.

    Each midpoint warm-starts from its lower neighbour, so it walks on up the
    path from that neighbour's piece.
    """
    base = sweep_grid(instance, mu_lo, mu_hi, steps)
    records = list(base.records)
    extra, labels = [], {}
    ascending = list(reversed(records))
    for rec_a, rec_b in zip(ascending, ascending[1:]):
        _refine(instance, rec_a.mu, rec_a, rec_b.mu, rec_b, depth, extra, labels)
    return _report(records + extra, base.lower_bound)


def sweep_constructed(instance: SvmInstance, certificates: Sequence) -> SweepReport:
    """Order certified breakpoint optima by decreasing mu, without solving.

    Each KktCertificate proves its pair the unique optimum at its mu, so its
    record is exact. Two certificates that share a mu or a support set
    contradict each other; SweepMismatchError then names both sigmas. Both
    checks follow from the certificates: two unique optima at one mu are one
    pair, and distinct sigmas have distinct plus supports. So `verify` does
    not run it; the tests do, on every certificate of d = 3..8.
    """
    if instance.calibration is None:
        raise ValueError("constructed sweep needs a calibrated instance")
    records, labels = [], {}
    by_mu, by_support = {}, {}
    for cert in certificates:
        rec = _record(instance, cert.mu, cert.pair, labels)
        if rec.mu in by_mu:
            raise SweepMismatchError(cert.sigma, f"shares its mu with sigma={by_mu[rec.mu]}")
        if rec.support in by_support:
            raise SweepMismatchError(
                cert.sigma, f"shares its support set with sigma={by_support[rec.support]}"
            )
        by_mu[rec.mu] = by_support[rec.support] = cert.sigma
        records.append(rec)
    return _report(records, instance_lower_bound(instance))
