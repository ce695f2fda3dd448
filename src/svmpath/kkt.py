"""Optimality conditions of the reduced-hull distance problem: the pair and its certificate.

A pair is the dual coefficients of the two classes and its exact objective
||p - q||^2 (`OptimalPair`). The solver of `qp` returns one, and so does a
`qp.Piece` where it covers mu. This module holds what a pair and a piece's
conditions share: the gap helper `_gaps`, which states the KKT conditions as
integer dot products on a `PointTable`, and `_finish`, which builds a pair
from its coefficients and their integer sum w = p - q.

The piece's conditions are also the one optimality certificate. A
constructed breakpoint brings its coefficients, so `build_kkt_certificate`
substitutes them, with no loop and no elimination: it tests what
`Piece.optimum` accepts on the construction's working set, with `_gaps`, and
the free points' triangular zero pattern for their independence.
`certify_construction` certifies every breakpoint of a constructed instance
in one pass that keeps nothing from one sigma to the next. `verify` loads
this module and not the solver.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Iterator, Optional

from .construct import SvmInstance, _unstretched_pair, _weights, mu_of_q
from .geometry import FrozenRecord, PointTable, VerificationFailure
from .goldfarb import admissible_sign_vectors

if TYPE_CHECKING:  # annotations only, so verify does not load the solver
    from .qp import Piece


class CertificateError(VerificationFailure):
    """A breakpoint is not the unique optimum at its mu; names sigma and mu."""


class OptimalPair(FrozenRecord):
    """Solved distance pair: its dual coefficients and exact objective.

    The coefficients weight the points of the two classes, p = sum
    alpha_plus_i x_i and q = sum alpha_minus_j y_j, which no command builds.
    A pair read off a piece keeps that `piece` and `mu`: it reads its
    coefficients off the piece at mu (`Piece.coefficients`) on their first
    read and keeps them, so a warm start walks on from its piece and
    `support_set` reads the support off it without them. Neither is a field:
    the pair compares, hashes, prints, copies and pickles as the pair with
    every field given, and a copy is that eager pair, with no piece.
    """

    _fields = ("alpha_plus", "alpha_minus", "objective")
    __slots__ = ("_alpha_plus", "_alpha_minus", "objective", "piece", "mu")

    def __init__(self, alpha_plus: Optional[tuple], alpha_minus: Optional[tuple], objective: Fraction,
                 *, piece: Optional[Piece] = None, mu=None):
        _set = object.__setattr__
        _set(self, "_alpha_plus", alpha_plus)
        _set(self, "_alpha_minus", alpha_minus)
        _set(self, "objective", objective)
        _set(self, "piece", piece)
        _set(self, "mu", mu)

    def _coefficients(self) -> tuple:
        if self._alpha_plus is None and self.piece is not None:
            alpha_plus, alpha_minus = self.piece.coefficients(self.mu)
            object.__setattr__(self, "_alpha_plus", alpha_plus)
            object.__setattr__(self, "_alpha_minus", alpha_minus)
        return self._alpha_plus, self._alpha_minus

    alpha_plus = property(lambda self: self._coefficients()[0])
    alpha_minus = property(lambda self: self._coefficients()[1])


class KktCertificate(FrozenRecord):
    """A constructed pair proven the unique optimum of its instance at mu.

    `facet_multiplier` is -2 lam_+, with lam_+ the plus-class multiplier
    s_r . w (half the objective's gradient): the multiplier of the
    sigma-facet when p is read as the projection of q onto that facet.
    """

    __slots__ = _fields = ("sigma", "mu", "pair", "facet_multiplier")


def _gaps(table: PointTable, refs, indices, sums) -> tuple:
    """(R, G) per S in `sums`: nums[r] . S for each class's reference r in `refs` = (r+, r-), and
    dens[r] (nums[k] . S) - dens[k] (nums[r] . S) for each k in `indices`, r its class's. For
    w = S / den, these are s_r . w and s_k . w - s_r . w times dens[r] den and dens[k] dens[r] den.
    """
    nums, dens, n_plus = table.nums, table.dens, len(table.plus_points)
    (rp, rm), R, G = refs, [], []
    for S in sums:
        Rp, Rm = sum(map(mul, nums[rp], S)), sum(map(mul, nums[rm], S))
        R.append((Rp, Rm))
        # the class chosen inline, with no tuple per index: the inner loop of every piece build
        G.append([dens[rm] * sum(map(mul, nums[k], S)) - dens[k] * Rm if k >= n_plus
                  else dens[rp] * sum(map(mul, nums[k], S)) - dens[k] * Rp for k in indices])
    return R, G


def _finish(table: PointTable, x, W, den_w) -> OptimalPair:
    """The pair at coefficients x, with ||p - q||^2 from their integer sum w = W / den_w."""
    n_plus, objective = len(table.plus_points), Fraction(sum(map(mul, W, W)), den_w * den_w)
    return OptimalPair(tuple(x[:n_plus]), tuple(x[n_plus:]), objective)


def build_kkt_certificate(
    instance: SvmInstance, sigma: tuple, q_last: Fraction, weights: tuple
) -> KktCertificate:
    """Prove sigma's constructed pair the unique optimum of the instance at its mu.

    The candidate puts the `construct._weights` A_k / den on the plus points
    labeled (k, sigma_k) and (mu, 1 - mu) on (left, right), mu = mu_of_q(q_last).
    Substituted into one integer w = p - q, its gaps (`_gaps`) must pass what
    `Piece.optimum` accepts on the construction's working set: the weights sum
    to den and lie in (0, mu]; each support gradient equals the first's, lam_+;
    every point at 0 has its gradient strictly above its class multiplier, and
    left, at mu, strictly below right's. Right is free even at weight 0 (mu = 1),
    and 1 - mu <= mu as mu >= mu_bar >= 1/2. For uniqueness the support points
    must be independent: the one labeled k is nonzero at coordinate k and zero
    after it, as columns an upper-triangular matrix with a nonzero diagonal,
    which `goldfarb.facet_weights` solves. These O(d^2) zero tests on the
    instance's own points keep the check sound on any instance. A failure
    raises CertificateError naming sigma and mu: "no piece" for dependent
    points, "differs" for the sum or stationarity, "does not cover" for a
    bound or a strict side.
    """
    A, den = weights
    mu = mu_of_q(q_last, instance.calibration)
    table, left = instance.table, len(instance.plus_points)
    index = {label: i for i, label in enumerate(instance.plus_labels)}
    support = [index[(k, s)] for k, s in enumerate(sigma, start=1)]
    where = f"sigma={sigma} at mu={mu}"
    rows = [table.nums[i] for i in support]
    if not all(k < len(row) and row[k] and not any(row[k + 1:]) for k, row in enumerate(rows)):
        raise CertificateError(f"no piece on the working set of {where}")
    x = [Fraction(0)] * len(table.nums)
    for i, a in zip(support, A):
        x[i] = Fraction(a, den)
    x[left], x[left + 1] = mu, 1 - mu
    W, den_w = table.cleared_sum(enumerate(x))
    # the points at 0; right is free even at weight 0
    at_lo = [i for i, v in enumerate(x) if not v and i != left + 1]
    (R,), (G,) = _gaps(table, (support[0], left + 1), support[1:] + at_lo + [left], (W,))
    free, m, e = len(support) - 1, mu.numerator, mu.denominator
    if sum(A) != den or any(G[:free]):
        raise CertificateError(f"candidate differs from the optimum of its piece for {where}")
    inside = all(0 < a and a * e <= m * den for a in A)
    if not (inside and all(g > 0 for g in G[free:-1]) and G[-1] < 0):
        raise CertificateError(f"piece of the working set does not cover {where}")
    # -2 lam_+, with lam_+ = R+ / (dens[r] den_w)
    facet_multiplier = Fraction(-2 * R[0], table.dens[support[0]] * den_w)
    return KktCertificate(tuple(sigma), mu, _finish(table, x, W, den_w), facet_multiplier)


def certify_construction(instance: SvmInstance) -> Iterator[tuple]:
    """(certificate, weights (A, den)) of each admissible sigma of a constructed instance.

    One pass in lexicographic order, as `construct.build_instance` calibrates:
    each sigma's candidate is read off `_weights`, which raises
    StrictnessError naming the sigma, and q_d = Qd / g of `_unstretched_pair`,
    and certified by `build_kkt_certificate`. Nothing is kept between sigmas,
    so a caller that drops each certificate holds one at a time.
    """
    params, s = instance.params, instance.stretch
    for sigma in admissible_sign_vectors(params.dim):
        weights = _weights(params, sigma, s)
        *_, g, Qd = _unstretched_pair(params, sigma)[0]
        yield build_kkt_certificate(instance, sigma, Fraction(Qd, g), weights), weights
