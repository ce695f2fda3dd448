"""Regularization sweeps: solve at discrete mu values and count support changes.

A bend is recorded exactly when the support set strictly changes between two
consecutive solved values, which is the experimental proxy used throughout.
Grid points are exact rationals, so every solve along a sweep stays exact.

Between two bends the working set stays fixed and the optimum is affine in
mu, so most records come from a `qp.Piece`: the piece of the previous grid
record, or of either neighbour of a bisection midpoint, built once per working
set. A piece answers only with the unique optimum; where none does, which is
where the support changes, the active-set loop runs from the same warm start
as without pieces. Either way each record is the one the loop alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .construct import MINUS_LABELS, SvmInstance
from .qp import (
    OptimalPair,
    Piece,
    ReducedHullQP,
    SolverStalledError,
    solve_reduced_distance,
    support_set,
    working_set,
)


class SweepMismatchError(Exception):
    """Two certified breakpoints share a mu or a support set."""

    def __init__(self, sigma, detail: str):
        self.sigma = tuple(sigma)
        super().__init__(f"sigma={self.sigma}: {detail}")


@dataclass(frozen=True)
class SweepRecord:
    """One solved value: mu, labeled support sets, objective, and the pair."""

    mu: Fraction
    support_plus: frozenset
    support_minus: frozenset
    objective: Fraction
    pair: OptimalPair

    @property
    def support(self) -> tuple:
        return self.support_plus, self.support_minus


@dataclass(frozen=True)
class SweepReport:
    """Records ordered by decreasing mu with bend and distinct-set counts."""

    records: tuple
    bend_count: int
    distinct_support_sets: int
    lower_bound: int


def _solve_record(
    instance: SvmInstance, mu: Fraction, warm: Optional[OptimalPair], pieces: tuple
) -> SweepRecord:
    qp = ReducedHullQP.from_instance(instance, mu)
    try:
        pair = solve_reduced_distance(qp, start=warm, pieces=pieces)
    except SolverStalledError as exc:
        raise SolverStalledError(f"at mu = {mu}: {exc}") from exc
    return _record(instance, mu, pair)


def _pieces_of(instance: SvmInstance, records, pieces: dict) -> tuple:
    """The pieces of the records' working sets, each built on first sight.

    `pieces` maps a working set to its Piece, or to None where it has none.
    """
    out = []
    for rec in records:
        working = working_set(rec.pair, rec.mu)
        if working not in pieces:
            pieces[working] = Piece.build(ReducedHullQP.from_instance(instance, rec.mu), working)
        if pieces[working] is not None:
            out.append(pieces[working])
    return tuple(out)


def _record(instance: SvmInstance, mu: Fraction, pair: OptimalPair) -> SweepRecord:
    plus_idx, minus_idx = support_set(pair)
    return SweepRecord(
        mu=Fraction(mu),
        support_plus=frozenset(instance.plus_labels[i] for i in plus_idx),
        support_minus=frozenset(MINUS_LABELS[i] for i in minus_idx),
        objective=pair.objective,
        pair=pair,
    )


def _report(records: Iterable[SweepRecord], lower_bound: int) -> SweepReport:
    ordered = tuple(sorted(records, key=lambda r: r.mu, reverse=True))
    bends = sum(
        1 for a, b in zip(ordered, ordered[1:]) if a.support != b.support
    )
    distinct = len({r.support for r in ordered})
    return SweepReport(ordered, bends, distinct, lower_bound)


def instance_lower_bound(instance: SvmInstance) -> int:
    """Bend lower bound: 2^d / 4 for constructed instances, 2(n_+ - 3) for the demo."""
    if instance.params is not None:
        return 2 ** instance.params.dim // 4
    return 2 * (len(instance.plus_points) - 3)


def grid_values(mu_lo: Fraction, mu_hi: Fraction, steps: int) -> list:
    return [mu_lo + (mu_hi - mu_lo) * i / (steps - 1) for i in range(steps)]


def sweep_grid(
    instance: SvmInstance, mu_lo, mu_hi, steps: int, pieces: Optional[dict] = None
) -> SweepReport:
    """Solve on a uniform rational grid of `steps` points over [mu_lo, mu_hi].

    The sweep ascends in mu so each solve warm-starts from its predecessor
    (coefficients stay feasible when the cap grows) and first tries the
    predecessor's piece. `pieces` is the working-set dict of `_pieces_of`,
    shared with the refinement.
    """
    mu_lo, mu_hi = Fraction(mu_lo), Fraction(mu_hi)
    if not Fraction(1, 2) <= mu_lo < mu_hi <= 1:
        raise ValueError("need 1/2 <= mu_lo < mu_hi <= 1")
    if steps < 2:
        raise ValueError("need at least two grid points")
    pieces = {} if pieces is None else pieces
    records = []
    warm, near = None, ()
    for mu in grid_values(mu_lo, mu_hi, steps):
        rec = _solve_record(instance, mu, warm, near)
        warm, near = rec.pair, _pieces_of(instance, [rec], pieces)
        records.append(rec)
    return _report(records, instance_lower_bound(instance))


def _refine(instance, mu_a, rec_a, mu_b, rec_b, depth, out, pieces) -> None:
    if depth <= 0 or rec_a.support == rec_b.support:
        return
    mid = (mu_a + mu_b) / 2
    rec = _solve_record(instance, mid, rec_a.pair, _pieces_of(instance, [rec_a, rec_b], pieces))
    out.append(rec)
    _refine(instance, mu_a, rec_a, mid, rec, depth - 1, out, pieces)
    _refine(instance, mid, rec, mu_b, rec_b, depth - 1, out, pieces)


def sweep_refined(instance: SvmInstance, mu_lo, mu_hi, steps: int, depth: int) -> SweepReport:
    """Grid sweep plus recursive bisection between differing neighbours.

    Each midpoint warm-starts from its lower neighbour and first tries the
    pieces of both neighbours; one working-set dict serves the whole call.
    """
    pieces = {}
    base = sweep_grid(instance, mu_lo, mu_hi, steps, pieces)
    records = list(base.records)
    extra = []
    ascending = list(reversed(records))
    for rec_a, rec_b in zip(ascending, ascending[1:]):
        _refine(instance, rec_a.mu, rec_a, rec_b.mu, rec_b, depth, extra, pieces)
    return _report(records + extra, base.lower_bound)


def sweep_constructed(instance: SvmInstance, certificates: Sequence) -> SweepReport:
    """Order certified breakpoint optima by decreasing mu, without solving.

    Each KktCertificate proves its pair the unique optimum at its mu, so its
    record is exact. Two certificates that share a mu or a support set
    contradict each other; SweepMismatchError then names both sigmas.
    """
    if instance.calibration is None:
        raise ValueError("constructed sweep needs a calibrated instance")
    records = []
    by_mu, by_support = {}, {}
    for cert in certificates:
        rec = _record(instance, cert.mu, cert.pair)
        if rec.mu in by_mu:
            raise SweepMismatchError(cert.sigma, f"shares its mu with sigma={by_mu[rec.mu]}")
        if rec.support in by_support:
            raise SweepMismatchError(
                cert.sigma, f"shares its support set with sigma={by_support[rec.support]}"
            )
        by_mu[rec.mu] = by_support[rec.support] = cert.sigma
        records.append(rec)
    return _report(records, instance_lower_bound(instance))
