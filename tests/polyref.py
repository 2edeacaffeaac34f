"""Reference Fraction arithmetic on ``modtriples.Poly``, for tests only.

The engine's ``Poly`` is a read-only view: all of its arithmetic runs on
integer coefficient lists.  The tests check the engine against plain
Fraction arithmetic instead, kept here: ``Poly`` below is a subclass
with the operators, ``monic``, division and the small constructors, and
``squarefree_part`` is the monic product of the distinct irreducible
factors.  Engine results are plain ``modtriples.Poly``s; ``ref`` turns
one into this class before it takes part in arithmetic.  Instances of
both classes compare and hash alike.  Points and maps are built from
integer coefficient sequences; ``point_of`` and ``map_of`` build them
from Fraction polynomials, and ``Poly(point.ints)``, ``Poly(f.nz)`` and
``Poly(f.dz)`` read them back.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from modtriples import ClosedPoint, DegenerateInput, RationalMap
from modtriples import Poly as ViewPoly
from modtriples.ratpoly import _monic_from_ints, _trim, _zmul, _zpow, _zyun


class Poly(ViewPoly):
    """A ``modtriples.Poly`` with Fraction arithmetic."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._raw(tuple(_trim(out)))

    def __neg__(self) -> "Poly":
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._raw(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly._raw(tuple(_trim(out)))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly._raw(())
        return Poly._raw(tuple(cc * c for cc in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        return Poly(_zpow(list(self.coeffs), n))

    def __call__(self, value: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DegenerateInput("zero polynomial has no monic form")
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return self.scale(1 / lc)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact euclidean division over Q."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return Poly(()), self
        rem = list(self.coeffs)
        div = other.coeffs
        dlen = len(div)
        inv_lc = 1 / div[-1]
        quo = [Fraction(0)] * (len(rem) - dlen + 1)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + dlen - 1] * inv_lc
            if c:
                quo[i] = c
                for j in range(dlen):
                    rem[i + j] -= c * div[j]
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return other.divmod(self)[1].is_zero


def ref(p: ViewPoly) -> Poly:
    """The same polynomial as a reference ``Poly``."""
    return Poly._raw(p.coeffs)


def squarefree_part(p: Poly) -> Poly:
    """The monic product of the distinct irreducible factors of a nonzero p."""
    if p.is_zero:
        raise DegenerateInput("zero polynomial")
    if p.is_constant:
        return Poly.one()
    _, f = p.int_primitive()
    return _monic_from_ints(functools.reduce(_zmul, [part for _, part in _zyun(f)]))


def point_of(p: ViewPoly) -> ClosedPoint:
    """``ClosedPoint.finite`` of the primitive integer form of a nonconstant p."""
    return ClosedPoint.finite(p.int_primitive()[1])


def map_of(num: ViewPoly, den: ViewPoly = Poly.one()) -> RationalMap:
    """``RationalMap.from_ints`` of num/den, both cleared of denominators by one factor."""
    lcm = math.lcm(*(c.denominator for c in num.coeffs + den.coeffs))
    return RationalMap.from_ints([int(c * lcm) for c in num.coeffs], [int(c * lcm) for c in den.coeffs])
