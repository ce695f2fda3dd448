"""Exact rational vectors, point tables and the package's immutable records.

Nothing here ever rounds, and every comparison is exact. A `Vec` holds
`fractions.Fraction`s, and a `PointTable` integer numerators over per-point
denominators. No linear system is solved here: the one elimination is the
solver's (`qp.solve_linear_systems`), so the commands that never solve one
do not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


class VerificationFailure(Exception):
    """A construction, certificate or sweep check failed: the command exits 1."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of an immutable record."""


_set = object.__setattr__


class FrozenRecord:
    """Immutable record whose equality, hash and repr read the fields named in `_fields`.

    A record compares, hashes, prints and refuses assignment as a frozen
    dataclass of the same fields would: `==` holds only between records of
    one class with equal fields, the hash is that of the field tuple, the repr
    is `Name(field=value, ...)`, and any assignment or deletion raises
    FrozenInstanceError. Copies and pickles rebuild a record from its fields.

    The constructor binds the fields by position or keyword as the generated
    `__init__` did, with a TypeError naming the class for a missing, surplus,
    repeated or unknown field. A subclass declares `__slots__` and `_fields`,
    and normalises, defaults or validates around one `super().__init__` call.

    The package's records are written by hand rather than as dataclasses. The
    decorator compiles each class's generated methods at every import, and
    `dataclasses` imports `inspect`: about a fifth of each command's start-up.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # the package passes every field by position: one zip, no keyword handling
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """Every field's value in `_fields` order, from a call's positional and keyword arguments."""
        cls, fields, rest = self.__class__.__qualname__, self._fields, self._fields[len(args):]
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} fields but {len(args)} were given")
        for name in kwargs:
            if name not in rest:
                problem = "multiple values for" if name in fields else "an unexpected"
                raise TypeError(f"{cls}() got {problem} field {name!r}")
        missing = [name for name in rest if name not in kwargs]
        if missing:
            raise TypeError(f"{cls}() missing field(s): {', '.join(missing)}")
        return args + tuple([kwargs[name] for name in rest])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Vec(tuple):
    """Immutable vector of exact rationals: negation and scaling by a rational on the right.

    That is all the arithmetic the package does on points: it sums and dots
    the integer point tables instead. `+` and `r * v` raise TypeError rather
    than concatenate or repeat the coordinates; componentwise sums and dot
    products live with the references in tests/oracles.py.
    """

    # None marks an operation as not available: without these, tuple's
    # concatenation and repetition would answer in their place
    __add__ = __radd__ = __rmul__ = None

    def __new__(cls, coords: Iterable) -> "Vec":
        # a list: tuple() of a generator resizes a tuple, which CPython then keeps
        # on its tuple free lists, one per call
        return super().__new__(cls, [c if type(c) is Fraction else Fraction(c) for c in coords])

    def __neg__(self):
        return Vec(-a for a in self)

    def __mul__(self, factor):
        f = factor if type(factor) is Fraction else Fraction(factor)
        return Vec(f * a for a in self)


def common_denominator(rows: Iterable[Sequence]) -> tuple:
    """(den, integer rows) with rows[i][j] == ints[i][j] / den exactly.

    `den` is the least common multiple of every entry's denominator, shared by
    all rows, so comparing dot products against multiples of `den` stays exact.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)


class PointTable:
    """The signed points of a two-class point set, cleared to integers.

    The signed points s are the plus points followed by the minus points
    negated, so sum_k x_k s_k = p - q for coefficients x. Each s_k equals
    Vec(nums[k]) * Fraction(1, dens[k]) exactly, with integer nums[k] over the
    point's own least denominator. One denominator shared by every point would
    carry all of their factors (901 bits on the 60-point arc) into each
    product.
    """

    __slots__ = ("plus_points", "minus_points", "nums", "dens")

    def __init__(self, plus_points: Iterable, minus_points: Iterable):
        self.plus_points = tuple(p if type(p) is Vec else Vec(p) for p in plus_points)
        self.minus_points = tuple(p if type(p) is Vec else Vec(p) for p in minus_points)
        if not self.plus_points or not self.minus_points:
            raise ValueError("each class needs at least one point")
        dens, nums = [], []
        for s in self.plus_points + tuple(-v for v in self.minus_points):
            den, (row,) = common_denominator([s])
            dens.append(den)
            nums.append(row)
        self.nums, self.dens = tuple(nums), tuple(dens)

    def cleared_sum(self, terms: Iterable) -> tuple:
        """(S, den) with sum of v s_k over (k, v) in terms == Vec(S) * Fraction(1, den), S integer."""
        nums, dens = self.nums, self.dens
        active = [(v.numerator, v.denominator * dens[k], nums[k]) for k, v in terms if v]
        # star-args from a list: from a generator, CPython parks one argument
        # tuple per call on its tuple free lists, 0.3 MB over one sweep
        den = lcm(*[vd for _vn, vd, _row in active])
        S = [0] * len(nums[0])
        for vn, vd, row in active:
            f = vn * (den // vd)
            for c, a in enumerate(row):
                S[c] += f * a
        return S, den
