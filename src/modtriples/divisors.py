"""Closed points, divisors and rational self-maps of the projective line.

Closed points of P^1 over Q are irreducible polynomials, stored as
primitive integer forms, plus a single point at infinity; divisors are
finitely supported integer combinations of closed points (Weil = Cartier
on the smooth curve).
Rational maps are pairs of coprime integer-primitive polynomials, or
constants at rational points.

Pullbacks are computed through the homogenized degree form so that the
point at infinity needs no chart swap: for a finite point with minimal
polynomial p, the fiber polynomial of f = num/den is den^deg(p) *
p(num/den) and the missing degree sits at infinity.  Each (map, point)
pair has one cached fiber record over Z[x]: the fiber form, then its
squarefree part and its points, each computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Iterator, Optional

from .errors import DegenerateInput, NotEffective
from .ratpoly import (
    Poly,
    _factor_fiber,
    _monic_from_ints,
    _trim,
    _zadd,
    _zdiv_exact,
    _zgcd,
    _zhomog,
    _zmul,
    _zprimitive,
    _zresultant,
    _zsub,
    _zyun,
    is_irreducible,
)


class ClosedPoint:
    """A closed point of P^1_Q: an irreducible polynomial, or infinity.

    A finite point is stored as ``ints``, the primitive integer multiple of
    its minimal polynomial with a positive leading coefficient (ascending);
    ``minimal_poly`` is a monic Poly view of it.  The hash and the sort key
    are those of the monic form, computed once, at construction.
    """

    __slots__ = ("ints", "_hash", "_key")

    def __init__(self, ints: Optional[Iterable[int]]):
        # trusted: an irreducible primitive integer form with a positive leading coefficient
        monic = None
        if ints is not None:
            ints = tuple(ints)
            lc = ints[-1]
            monic = ints if lc == 1 else tuple(c // lc if c % lc == 0 else Fraction(c, lc) for c in ints)
        object.__setattr__(self, "ints", ints)
        # equal to the hash of ("pt", minimal_poly): an integral Fraction hashes as its int
        object.__setattr__(self, "_hash", hash(("pt", monic)))
        object.__setattr__(self, "_key", (0,) if monic is None else (1, len(monic), monic[::-1]))

    def __setattr__(self, name, value):
        raise AttributeError("ClosedPoint is immutable")

    @classmethod
    def infinity(cls) -> "ClosedPoint":
        return INFINITY

    @classmethod
    def finite(cls, poly: Poly) -> "ClosedPoint":
        """The point of an irreducible polynomial; DegenerateInput otherwise."""
        if poly.is_constant:
            raise DegenerateInput("a closed point needs a nonconstant polynomial")
        if not is_irreducible(poly):
            raise DegenerateInput("point polynomial is reducible")
        return cls(poly.int_primitive()[1])

    @classmethod
    def rational(cls, value) -> "ClosedPoint":
        """The degree-1 point x = value."""
        value = Fraction(value)
        return cls((-value.numerator, value.denominator))

    @property
    def minimal_poly(self) -> Optional[Poly]:
        return None if self.ints is None else _monic_from_ints(self.ints)

    @property
    def is_infinity(self) -> bool:
        return self.ints is None

    @property
    def degree(self) -> int:
        return 1 if self.ints is None else len(self.ints) - 1

    def rational_value(self) -> Fraction:
        """The value of a finite degree-1 point."""
        if self.is_infinity or self.degree != 1:
            raise DegenerateInput("point is not a finite rational point")
        return Fraction(-self.ints[0], self.ints[1])

    def sort_key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, ClosedPoint) and self._hash == other._hash and self.ints == other.ints

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        from .formats import point_to_text

        return f"ClosedPoint({point_to_text(self)})"


INFINITY = ClosedPoint(None)


def _point_order(entry: tuple[ClosedPoint, int]) -> tuple:
    return entry[0]._key


class Divisor:
    """Finitely supported integer-valued function on closed points.

    ``entries`` lists the (point, multiplicity) pairs with nonzero
    multiplicity in point order; a point -> multiplicity dict beside it
    makes ``multiplicity`` O(1).
    """

    __slots__ = ("entries", "_mult")

    def __init__(self, entries: Iterable[tuple[ClosedPoint, int]] = ()):
        acc: dict[ClosedPoint, int] = {}
        for point, mult in entries:
            mult = int(mult)
            if mult:
                acc[point] = acc.get(point, 0) + mult
        self._set(acc)

    def _set(self, acc: dict[ClosedPoint, int]) -> None:
        entries = tuple(sorted(((p, m) for p, m in acc.items() if m), key=_point_order))
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_mult", dict(entries))

    @classmethod
    def _from_dict(cls, acc: dict[ClosedPoint, int]) -> "Divisor":
        # trusted: integer multiplicities; zeros are dropped here
        self = object.__new__(cls)
        self._set(acc)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    @classmethod
    def zero(cls) -> "Divisor":
        return cls(())

    @classmethod
    def of(cls, *pairs) -> "Divisor":
        """Divisor.of((point, mult), ...) or Divisor.of(point) for a single [P]."""
        if len(pairs) == 1 and isinstance(pairs[0], ClosedPoint):
            return cls(((pairs[0], 1),))
        return cls(pairs)

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def multiplicity(self, point: ClosedPoint) -> int:
        return self._mult.get(point, 0)

    def support(self) -> frozenset[ClosedPoint]:
        # built point by point in point order: a set's iteration order
        # depends on how its table grew
        return frozenset(p for p, _ in self.entries)

    @property
    def degree(self) -> int:
        return sum(m * p.degree for p, m in self.entries)

    @property
    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.entries)

    def reduced(self) -> "Divisor":
        """Sum of the support points with multiplicity one."""
        return Divisor((p, 1) for p, _ in self.entries)

    def drop(self, points: frozenset[ClosedPoint]) -> "Divisor":
        return Divisor((p, m) for p, m in self.entries if p not in points)

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other: "Divisor", sign: int) -> "Divisor":
        acc = dict(self._mult)
        for p, m in other._mult.items():
            acc[p] = acc.get(p, 0) + sign * m
        return Divisor._from_dict(acc)

    def __add__(self, other: "Divisor") -> "Divisor":
        return self._combine(other, 1)

    def __neg__(self) -> "Divisor":
        return Divisor._from_dict({p: -m for p, m in self._mult.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self._combine(other, -1)

    def __mul__(self, k: int) -> "Divisor":
        return Divisor((p, k * m) for p, m in self.entries)

    __rmul__ = __mul__

    def __le__(self, other: "Divisor") -> bool:
        # other - self is effective: compare on self's support, then the rest of other's
        mine, theirs = self._mult, other._mult
        return all(theirs.get(p, 0) >= m for p, m in mine.items()) and all(
            m > 0 or p in mine for p, m in theirs.items()
        )

    def __iter__(self) -> Iterator[tuple[ClosedPoint, int]]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        from .formats import divisor_to_text

        return f"Divisor({divisor_to_text(self)!r})"


class CurveSpace:
    """The proper line, or the line minus a finite reduced boundary."""

    __slots__ = ("boundary",)

    def __init__(self, boundary: Iterable[ClosedPoint] = ()):
        object.__setattr__(self, "boundary", frozenset(boundary))

    def __setattr__(self, name, value):
        raise AttributeError("CurveSpace is immutable")

    @classmethod
    def proper(cls) -> "CurveSpace":
        return cls(())

    @classmethod
    def open(cls, boundary: Iterable[ClosedPoint]) -> "CurveSpace":
        boundary = frozenset(boundary)
        if not boundary:
            raise DegenerateInput("an open curve space needs a nonempty boundary")
        return cls(boundary)

    @property
    def is_proper(self) -> bool:
        return not self.boundary

    def minus(self, points: Iterable[ClosedPoint]) -> "CurveSpace":
        return CurveSpace(self.boundary | frozenset(points))

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveSpace) and self.boundary == other.boundary

    def __hash__(self) -> int:
        return hash(("space", self.boundary))

    def __repr__(self) -> str:
        if self.is_proper:
            return "CurveSpace(proper)"
        pts = sorted(self.boundary, key=lambda p: p.sort_key())
        return f"CurveSpace(open minus {pts!r})"


class RationalMap:
    """A self-map of the line: coprime num/den, or a constant rational point.

    Nonconstant maps are finite surjective of degree max(deg num, deg den);
    they are stored as integer coefficient tuples ``nz`` and ``dz``
    (ascending; coprime, joint content 1, positive denominator leading
    coefficient) so equality is syntactic.  ``num`` and ``den`` are Poly
    views of them.  Constant maps carry a degree-1 point.  The hash is
    computed once, at construction.
    """

    __slots__ = ("nz", "dz", "const", "_hash")

    def __init__(self, nz: Optional[tuple[int, ...]], dz: Optional[tuple[int, ...]],
                 const: Optional[ClosedPoint]):
        object.__setattr__(self, "nz", nz)
        object.__setattr__(self, "dz", dz)
        object.__setattr__(self, "const", const)
        # equal to the hash of ("map", num, den, const): an integral Poly hashes as its ints
        object.__setattr__(self, "_hash", hash(("map", nz, dz, const)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMap is immutable")

    @classmethod
    def constant(cls, point: ClosedPoint) -> "RationalMap":
        if not point.is_infinity and point.degree != 1:
            raise DegenerateInput("constant maps carry rational points only")
        return cls(None, None, point)

    @classmethod
    def from_fraction(cls, num: Poly, den: Poly) -> "RationalMap":
        if den.is_zero:
            if num.is_zero:
                raise DegenerateInput("0/0 is not a map")
            return cls.constant(INFINITY)
        if num.is_zero:
            return cls.constant(ClosedPoint.rational(0))
        cn, zn = num.int_primitive()
        cd, zd = den.int_primitive()
        return cls._from_ints(cn / cd, zn, zd)

    @classmethod
    def _from_ints(cls, ratio: Fraction, zn: list[int], zd: list[int]) -> "RationalMap":
        # ratio * zn / zd for nonzero integer forms zn, zd
        pn, pd = _zprimitive(zn), _zprimitive(zd)
        ratio *= Fraction(zn[-1] // pn[-1], zd[-1] // pd[-1])
        g = _zgcd(pn, pd)
        if len(g) > 1:
            pn, pd = _zdiv_exact(pn, g), _zdiv_exact(pd, g)
        if len(pn) == 1 and len(pd) == 1:
            return cls.constant(ClosedPoint.rational(ratio))
        # joint scaling: keep both integral with coprime contents
        a, b = ratio.numerator, ratio.denominator
        return cls(tuple(v * a for v in pn), tuple(v * b for v in pd), None)

    @classmethod
    def identity(cls) -> "RationalMap":
        return cls((0, 1), (1,), None)

    @classmethod
    def polynomial(cls, p: Poly) -> "RationalMap":
        return cls.from_fraction(p, Poly.one())

    # -- queries ---------------------------------------------------------

    @property
    def num(self) -> Optional[Poly]:
        return None if self.nz is None else Poly.from_int_coeffs(self.nz)

    @property
    def den(self) -> Optional[Poly]:
        return None if self.dz is None else Poly.from_int_coeffs(self.dz)

    @property
    def is_constant(self) -> bool:
        return self.const is not None

    @property
    def value(self) -> ClosedPoint:
        if self.const is None:
            raise DegenerateInput("nonconstant map has no constant value")
        return self.const

    @property
    def degree(self) -> int:
        if self.is_constant:
            return 0
        return max(len(self.nz), len(self.dz)) - 1

    @property
    def is_identity(self) -> bool:
        return self.nz == (0, 1) and self.dz == (1,)

    def sort_key(self) -> tuple:
        # Poly.sort_key of the views, which order integral coefficients as ints
        if self.is_constant:
            return (0,) + self.const.sort_key()
        return (1, (len(self.nz), self.nz[::-1]), (len(self.dz), self.dz[::-1]))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, RationalMap)
            and self._hash == other._hash
            and self.nz == other.nz
            and self.dz == other.dz
            and self.const == other.const
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        from .formats import map_to_text

        return f"RationalMap({map_to_text(self)})"

    # -- evaluation --------------------------------------------------------

    def value_at(self, point: ClosedPoint) -> ClosedPoint:
        """Image of a rational point (degree-1 or infinity)."""
        if self.is_constant:
            return self.const
        nz, dz = self.nz, self.dz
        if point.is_infinity:
            if len(nz) > len(dz):
                return INFINITY
            if len(nz) < len(dz):
                return ClosedPoint.rational(0)
            return ClosedPoint.rational(Fraction(nz[-1], dz[-1]))
        c = point.rational_value()
        dv = _evaluate(dz, c)
        if not dv:
            return INFINITY
        return ClosedPoint.rational(_evaluate(nz, c) / dv)

    def inverse(self) -> "RationalMap":
        """Inverse of a degree-1 map (a Moebius transformation)."""
        if self.is_constant or self.degree != 1:
            raise DegenerateInput("only degree-1 maps are invertible")
        (b, a), (d, c) = (self.nz + (0,))[:2], (self.dz + (0,))[:2]
        return RationalMap._from_ints(Fraction(1), _trim([-b, d]), _trim([a, -c]))


def _evaluate(z: tuple[int, ...], c: Fraction) -> Fraction:
    return reduce(lambda acc, v: acc * c + v, reversed(z), Fraction(0))


def compose_maps(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """outer after inner."""
    if outer.is_constant:
        return outer
    if inner.is_constant:
        return RationalMap.constant(outer.value_at(inner.value))
    if inner.is_identity:
        return outer
    if outer.is_identity:
        return inner
    # outer's homogenized forms at (inner.num, inner.den); neither vanishes,
    # since inner is nonconstant and so its image is infinite
    d, nz, dz = outer.degree, inner.nz, inner.dz
    return RationalMap._from_ints(
        Fraction(1), _zhomog(outer.nz, nz, dz, d), _zhomog(outer.dz, nz, dz, d)
    )


def multiply_maps(f: RationalMap, g: RationalMap) -> RationalMap:
    """Product of f and g as rational functions."""
    if f.is_constant or g.is_constant:
        raise DegenerateInput("products are formed from nonconstant maps here")
    return RationalMap._from_ints(Fraction(1), _zmul(f.nz, g.nz), _zmul(f.dz, g.dz))


# ---------------------------------------------------------------------------
# fibers: the homogenized composite behind every pullback
# ---------------------------------------------------------------------------


class _Fiber:
    """The fiber of a nonconstant map over a point: ``ints``, the primitive integer fiber
    form (ascending, positive leading coefficient), and ``k``, the deficit at infinity.
    Its squarefree part and points are filled in on first use by one run of Yun, whose
    parts a ramified fiber keeps until its points are built; a Moebius map needs none."""

    __slots__ = ("ints", "k", "_sqf", "_parts", "_points")

    def __init__(self, ints: tuple[int, ...], k: int, moebius: bool):
        self.ints, self.k, self._parts = ints, k, None
        self._sqf = ints if moebius or len(ints) == 1 else None
        self._points = () if len(ints) == 1 else None

    def squarefree(self) -> tuple[int, ...]:
        if self._sqf is None:
            parts = _zyun(self.ints)
            if len(parts) == 1 and parts[0][0] == 1:
                self._sqf = self.ints
            else:
                self._sqf, self._parts = tuple(reduce(_zmul, [p for _, p in parts])), parts
        return self._sqf

    def points(self, f: RationalMap, point: ClosedPoint) -> tuple[tuple[ClosedPoint, int], ...]:
        if self._points is None:
            if f.degree == 1:
                self._points = ((ClosedPoint(self.ints), 1),)
            else:
                sqf = self.squarefree()  # Yun, unless the squarefree part is known
                parts = self._parts or [(1, sqf)]
                # over infinity or a rational point the fiber form is its own fiber
                fiber = None if point.degree == 1 else (point.ints, f.nz, f.dz)
                self._points = tuple((ClosedPoint(q), m) for q, m in _factor_fiber(parts, fiber))
                self._parts = None
        return self._points


def fiber_data(f: RationalMap, point: ClosedPoint) -> tuple[Poly, int]:
    """(g, k): the divisor f*[point] equals div0(g) + k*[infinity].

    g is the dehomogenized fiber form (den^deg(P) * p(num/den) for a
    finite point with minimal polynomial p, den itself for infinity, up
    to a harmless constant), and k the degree deficit absorbed at
    infinity.
    """
    fiber = _fiber_cached(f, point)
    return Poly.from_int_coeffs(fiber.ints), fiber.k


@lru_cache(maxsize=65536)
def _fiber_cached(f: RationalMap, point: ClosedPoint) -> _Fiber:
    if f.is_constant:  # an exception is not cached: no record
        raise DegenerateInput("no fibers under a constant map")
    d = f.degree
    if point.is_infinity:
        return _Fiber(tuple(_zprimitive(f.dz)), d + 1 - len(f.dz), d == 1)
    # the point's integer form at (num, den): a constant factor is harmless
    e = point.degree
    acc = _zhomog(point.ints, f.nz, f.dz, e)
    if not acc:
        raise ArithmeticError("fiber form vanished; num/den were not coprime")
    return _Fiber(tuple(_zprimitive(acc)), d * e - (len(acc) - 1), d == 1)


def pullback_divisor(f: RationalMap, divisor: Divisor) -> Divisor:
    """f*D, additive in D; degree multiplies by deg(f)."""
    if f.is_constant:
        raise DegenerateInput("pullback needs a nonconstant map")
    acc: list[tuple[ClosedPoint, int]] = []
    for point, mult in divisor:
        fiber = _fiber_cached(f, point)
        if fiber.k:
            acc.append((INFINITY, mult * fiber.k))
        acc.extend((q, mult * m) for q, m in fiber.points(f, point))
    return Divisor(acc)


def point_image(f: RationalMap, point: ClosedPoint) -> ClosedPoint:
    """The closed point f(P).

    For a finite point with minimal polynomial p this is the unique
    irreducible factor of the eliminant Res_t(p(t), y*den(t) - num(t)),
    computed by evaluation and interpolation in y.
    """
    if f.is_constant:
        return f.const
    if point.is_infinity or point.degree == 1:
        return f.value_at(point)
    pz, nz, dz = point.ints, f.nz, f.dz
    if _zdiv_exact(dz, pz) is not None:
        return INFINITY
    # avoid the single sample where the t-degree of y*den - num drops;
    # p's integer form scales every sample by one constant
    bad: Optional[Fraction] = None
    if len(dz) > len(nz):
        bad = Fraction(0)
    elif len(dz) == len(nz):
        bad = Fraction(nz[-1], dz[-1])
    ys = [y for y in range(1, point.degree + 3) if y != bad][: point.degree + 1]
    eliminant = _interpolate(ys, [_zresultant(pz, _zsub([y * v for v in dz], nz)) for y in ys])
    parts = _factor_fiber(_zyun(_zprimitive(eliminant)))
    if len(parts) != 1:
        raise ArithmeticError("eliminant of an irreducible point split")
    return ClosedPoint(parts[0][0])


def _interpolate(xs: list[int], ys: list[Fraction]) -> list[int]:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]), from
    Newton's divided differences; the eliminant's samples give integer coefficients."""
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = Fraction(coef[i] - coef[i - 1], xs[i] - xs[i - j])
    acc = [coef[-1]]
    for i in range(len(xs) - 2, -1, -1):  # Horner on the Newton form
        acc = _zadd(_zmul(acc, [-xs[i], 1]), [coef[i]])
    return [c.numerator for c in acc]


def pushforward_divisor(f: RationalMap, divisor: Divisor) -> Divisor:
    """f_*D: a prime point P maps to (deg P / deg f(P)) * [f(P)]."""
    if f.is_constant:
        raise DegenerateInput("pushforward needs a nonconstant map")
    acc = []
    for point, mult in divisor:
        image = point_image(f, point)
        res_deg, rem = divmod(point.degree, image.degree)
        if rem:
            raise ArithmeticError("residue degree was not integral")
        acc.append((image, mult * res_deg))
    return Divisor(acc)


def principal_divisor(f: RationalMap) -> Divisor:
    """div(f) = zeros minus poles; degree zero."""
    if f.is_constant:
        raise DegenerateInput("constant maps have no principal divisor")
    acc: list[tuple[ClosedPoint, int]] = [(INFINITY, len(f.dz) - len(f.nz))]
    for z, sign in ((f.nz, 1), (f.dz, -1)):
        if len(z) > 1:
            acc.extend((ClosedPoint(q), sign * m) for q, m in _factor_fiber(_zyun(_zprimitive(z))))
    return Divisor(acc)


def min_divisor(d1: Divisor, d2: Divisor) -> Divisor:
    """Pointwise minimum of two effective divisors.

    This is the scheme intersection of the two divisors on the curve:
    the unique largest E below both, and the supports of d1-E and d2-E
    are disjoint by construction.
    """
    if not d1.is_effective or not d2.is_effective:
        raise NotEffective("min_divisor needs effective divisors")
    acc = []
    for point, mult in d1:
        other = d2.multiplicity(point)
        if other:
            acc.append((point, min(mult, other)))
    return Divisor(acc)


@dataclass(frozen=True)
class OrderReport:
    """Comparison data for a divisor pair."""

    effective_1: bool
    le: bool
    eq: bool
    support_1: frozenset[ClosedPoint]
    reduced_1: Divisor


def divisor_order(d1: Divisor, d2: Divisor) -> OrderReport:
    return OrderReport(
        effective_1=d1.is_effective,
        le=d1 <= d2,
        eq=d1 == d2,
        support_1=d1.support(),
        reduced_1=d1.reduced(),
    )


def canonical_split(d: Divisor) -> tuple[Divisor, Divisor]:
    """D = plus - minus with effective halves of disjoint support."""
    plus = Divisor((p, m) for p, m in d if m > 0)
    minus = Divisor((p, -m) for p, m in d if m < 0)
    return plus, minus


# ---------------------------------------------------------------------------
# loci: reduced preimage sets, represented by squarefree polynomials
# ---------------------------------------------------------------------------


class LocusKind(Enum):
    FINITE = "finite"
    ALL = "all"
    COFINITE = "cofinite"


@dataclass(frozen=True)
class Locus:
    """A Galois-stable set of closed points of the line.

    FINITE loci carry a primitive squarefree integer polynomial with a
    positive leading coefficient (roots = the finite points; ascending
    coefficients) and a flag for infinity.  ALL is the whole line;
    COFINITE only ever appears as the left side of an inclusion test,
    where "infinite" is all that matters.
    """

    kind: LocusKind
    poly: tuple[int, ...] = (1,)
    has_infinity: bool = False

    @classmethod
    def empty(cls) -> "Locus":
        return cls(LocusKind.FINITE)

    @classmethod
    def everything(cls) -> "Locus":
        return cls(LocusKind.ALL)

    @property
    def is_empty(self) -> bool:
        return self.kind is LocusKind.FINITE and len(self.poly) == 1 and not self.has_infinity


# Products and quotients of primitive polynomials with positive leading
# coefficients are again such (Gauss's lemma), so the locus algebra below
# needs no normalization, and a primitive a divides an integral b over Q
# exactly when it divides it over Z.


def points_locus(points: Iterable[ClosedPoint]) -> Locus:
    acc = [1]
    inf = False
    for p in points:
        if p.is_infinity:
            inf = True
        else:
            acc = _zmul(acc, p.ints)
    return Locus(LocusKind.FINITE, tuple(acc), inf)


def preimage_locus(f: RationalMap, points: Iterable[ClosedPoint]) -> Locus:
    """{n : f(n) in points}, as a locus on the source line."""
    pts = list(points)
    if f.is_constant:
        return Locus.everything() if f.const in pts else Locus.empty()
    acc = [1]
    inf = False
    for p in pts:
        fiber = _fiber_cached(f, p)
        if fiber.k > 0:
            inf = True
        if len(fiber.ints) > 1:
            acc = _zmul(acc, fiber.squarefree())
    # fibers of distinct points are disjoint, so the product is squarefree
    return Locus(LocusKind.FINITE, tuple(acc), inf)


def locus_subtract(a: Locus, b: Locus) -> Locus:
    if b.kind is LocusKind.ALL:
        return Locus.empty()
    if a.kind is LocusKind.ALL:
        return Locus(LocusKind.COFINITE) if not b.is_empty else a
    if a.kind is LocusKind.COFINITE:
        return a
    if b.kind is LocusKind.COFINITE:
        # conservative: unused in the checks we run
        raise DegenerateInput("cannot subtract a cofinite locus")
    poly = a.poly
    if len(poly) > 1 and len(b.poly) > 1:
        g = _zgcd(poly, b.poly)
        if len(g) > 1:
            poly = tuple(_zdiv_exact(poly, g))
    return Locus(LocusKind.FINITE, poly, a.has_infinity and not b.has_infinity)


def locus_union(a: Locus, b: Locus) -> Locus:
    if a.kind is not LocusKind.FINITE or b.kind is not LocusKind.FINITE:
        return Locus.everything()
    poly = a.poly
    other = b.poly
    if len(poly) == 1:
        poly = other
    elif len(other) > 1:
        poly = tuple(_zmul(poly, _zdiv_exact(other, _zgcd(poly, other))))
    return Locus(LocusKind.FINITE, poly, a.has_infinity or b.has_infinity)


def locus_subset(a: Locus, b: Locus) -> bool:
    if a.kind is LocusKind.FINITE and a.is_empty:
        return True
    if b.kind is LocusKind.ALL:
        return True
    if a.kind in (LocusKind.ALL, LocusKind.COFINITE):
        return False  # infinite sets never fit in a finite locus
    if b.kind is LocusKind.COFINITE:
        raise DegenerateInput("cannot test inclusion in a cofinite locus")
    if a.has_infinity and not b.has_infinity:
        return False
    return _zdiv_exact(b.poly, a.poly) is not None


# ---------------------------------------------------------------------------
# divisor comparisons without factorization: gcd-free bases of fiber forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberTerm:
    """A summand c * div0(g) coming from pulling a point back along a map.

    Provenance (map, point) is kept because fibers of distinct points
    under the same map are coprime for free; fibers under the identity
    are the point minimal polynomials and flagged irreducible.  Both
    facts save nearly all gcd work when comparing pullback divisors.
    """

    poly: tuple[int, ...]  # primitive integer coefficients
    coeff: int
    map: RationalMap
    point: ClosedPoint
    irreducible: bool = False


def _coprime_by_provenance(a: FiberTerm, b: FiberTerm) -> bool:
    return a.map == b.map and a.point != b.point


class PullbackComparison:
    """Accumulates signed pullback terms and decides effectivity.

    Positive verdict means: the accumulated divisor is effective away
    from the escape locus (domain points marked as removed from the
    open model).  Exact, and never factors anything: it refines the
    fiber forms into a gcd-free basis instead.
    """

    def __init__(self):
        self._terms: list[FiberTerm] = []
        self._escapes: list[FiberTerm] = []
        self._inf_coeff = 0
        self._inf_escaped = False

    def add_pullback(self, f: RationalMap, divisor: Divisor, sign: int) -> None:
        irr = f.is_identity
        for point, mult in divisor:
            fiber = _fiber_cached(f, point)
            self._inf_coeff += sign * mult * fiber.k
            if len(fiber.ints) > 1:
                self._terms.append(FiberTerm(fiber.ints, sign * mult, f, point, irr))

    def add_escape_map(self, f: RationalMap, points: Iterable[ClosedPoint]) -> None:
        irr = f.is_identity
        for point in points:
            fiber = _fiber_cached(f, point)
            if fiber.k > 0:
                self._inf_escaped = True
            if len(fiber.ints) > 1:
                self._escapes.append(FiberTerm(fiber.ints, 0, f, point, irr))

    def effective(self) -> bool:
        merged: dict[tuple[RationalMap, ClosedPoint], FiberTerm] = {}
        for t in self._terms:
            k = (t.map, t.point)
            if k in merged:
                prev = merged[k]
                merged[k] = FiberTerm(
                    prev.poly, prev.coeff + t.coeff, t.map, t.point, prev.irreducible
                )
            else:
                merged[k] = t
        terms = [t for t in merged.values() if t.coeff]
        if terms:
            basis = _gcd_free_basis(terms + self._escapes)
            for beta, carriers in basis:
                if any(t.coeff == 0 and _exponent_of(beta, t.poly) for t in carriers):
                    continue  # this piece of the line was removed from the model
                total = sum(
                    t.coeff * _exponent_of(beta, t.poly) for t in carriers if t.coeff
                )
                if total < 0:
                    return False
        if not self._inf_escaped and self._inf_coeff < 0:
            return False
        return True


def _gcd_free_basis(items: list[FiberTerm]) -> list[tuple[list[int], list[FiberTerm]]]:
    """Pairwise coprime integer polynomials covering all item factors.

    Returns (basis_poly, carriers) pairs; carriers over-approximate the
    items the basis element can divide.  Items known coprime by
    provenance (same map, distinct points) are never gcd-ed against
    each other, and known-irreducible pieces reduce the gcd to a single
    divisibility test.
    """
    basis: list[tuple[list[int], list[FiberTerm], bool]] = []
    queue = [(list(t.poly), [t], t.irreducible) for t in items]
    while queue:
        q, carriers, q_irr = queue.pop()
        if len(q) <= 1:
            continue
        placed = False
        for idx, (b, b_carriers, b_irr) in enumerate(basis):
            if _all_coprime_by_provenance(carriers, b_carriers):
                continue
            g = _pair_gcd(q, q_irr, b, b_irr)
            if len(g) <= 1:
                continue
            del basis[idx]
            rest_b = _zprimitive(_zdiv_exact(b, g))
            rest_q = _zprimitive(_zdiv_exact(q, g))
            if len(rest_b) > 1:
                queue.append((rest_b, b_carriers, False))
            queue.append((g, _merge_carriers(b_carriers, carriers), q_irr or b_irr))
            if len(rest_q) > 1:
                queue.append((rest_q, carriers, False))
            placed = True
            break
        if not placed:
            basis.append((q, carriers, q_irr))
    return [(b, carriers) for b, carriers, _ in basis]


def _pair_gcd(q: list[int], q_irr: bool, b: list[int], b_irr: bool) -> list[int]:
    if q_irr and b_irr:
        return q if q == b else [1]
    if q_irr:
        return q if _zdiv_exact(b, q) is not None else [1]
    if b_irr:
        return b if _zdiv_exact(q, b) is not None else [1]
    return _zgcd(q, b)


def _merge_carriers(xs: list[FiberTerm], ys: list[FiberTerm]) -> list[FiberTerm]:
    out = list(xs)
    for t in ys:
        if t not in out:
            out.append(t)
    return out


def _all_coprime_by_provenance(xs: list[FiberTerm], ys: list[FiberTerm]) -> bool:
    return all(_coprime_by_provenance(a, b) for a in xs for b in ys)


def _exponent_of(beta: list[int], poly: tuple[int, ...]) -> int:
    count = 0
    cur = poly
    while True:
        nxt = _zdiv_exact(cur, beta)
        if nxt is None:
            return count
        count += 1
        cur = _zprimitive(nxt)
