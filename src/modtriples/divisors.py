"""Closed points, divisors and rational self-maps of the projective line.

Closed points of P^1 over Q are irreducible polynomials, stored as
primitive integer forms, plus a single point at infinity; divisors are
finitely supported integer combinations of closed points (Weil = Cartier
on the smooth curve).
Rational maps are pairs of coprime integer-primitive polynomials, or
constants at rational points.  Points and maps are built from, and read
as, integer coefficient sequences (ascending): ``ClosedPoint.finite``,
``RationalMap.from_ints``, ``ints``, ``nz`` and ``dz``.

Pullbacks are computed through the homogenized degree form so that the
point at infinity needs no chart swap: for a finite point with minimal
polynomial p, the fiber polynomial of f = num/den is den^deg(p) *
p(num/den) and the missing degree sits at infinity.  Each (map, point)
pair has one cached fiber record over Z[x]: the fiber form and the deficit
at infinity, then, on first use, its points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Iterator, Optional

from .errors import DegenerateInput, NotEffective
from .ratpoly import (
    _factor_fiber,
    _trim,
    _zadd,
    _zdiv_exact,
    _zgcd,
    _zhomog,
    _zirreducible,
    _zmul,
    _zprimitive,
    _zresultant,
    _zsub,
    _zyun,
)

# The largest degree of a fiber form, deg f * deg P, and of a composite map, so
# that input inside the parser's caps cannot ask for an unbounded product.
MAX_FIBER_DEGREE = 1024


class ClosedPoint:
    """A closed point of P^1_Q: an irreducible polynomial, or infinity.

    A finite point is stored as ``ints``, the primitive integer multiple of
    its minimal polynomial with a positive leading coefficient (ascending).
    The hash and the sort key are those of the monic form, computed once,
    at construction.
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
        # the hash of ("pt", monic coefficients): an integral Fraction hashes as its int
        object.__setattr__(self, "_hash", hash(("pt", monic)))
        object.__setattr__(self, "_key", (0,) if monic is None else (1, len(monic), monic[::-1]))

    def __setattr__(self, name, value):
        raise AttributeError("ClosedPoint is immutable")

    @classmethod
    def finite(cls, coeffs: Iterable[int]) -> "ClosedPoint":
        """The point of an irreducible integer polynomial (ascending coefficients), stored
        primitive with a positive leading coefficient; DegenerateInput on a constant or a
        reducible one."""
        ints = _zprimitive(_trim(list(coeffs)))
        if len(ints) < 2:
            raise DegenerateInput("a closed point needs a nonconstant polynomial")
        if not _zirreducible(ints):
            raise DegenerateInput("point polynomial is reducible")
        return cls(ints)

    @classmethod
    def rational(cls, value) -> "ClosedPoint":
        """The degree-1 point x = value."""
        value = Fraction(value)
        return cls((-value.numerator, value.denominator))

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
    coefficient) so equality is syntactic.  Constant maps carry a degree-1
    point.  The hash is computed once, at construction.
    """

    __slots__ = ("nz", "dz", "const", "_hash")

    def __init__(self, nz: Optional[tuple[int, ...]], dz: Optional[tuple[int, ...]],
                 const: Optional[ClosedPoint]):
        object.__setattr__(self, "nz", nz)
        object.__setattr__(self, "dz", dz)
        object.__setattr__(self, "const", const)
        # equal to the hash of ("map", Poly(nz), Poly(dz), const): an integral Poly hashes as its ints
        object.__setattr__(self, "_hash", hash(("map", nz, dz, const)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMap is immutable")

    @classmethod
    def constant(cls, point: ClosedPoint) -> "RationalMap":
        if not point.is_infinity and point.degree != 1:
            raise DegenerateInput("constant maps carry rational points only")
        return cls(None, None, point)

    @classmethod
    def from_ints(cls, num: Iterable[int], den: Iterable[int] = (1,)) -> "RationalMap":
        """The map num/den of two integer polynomials (ascending coefficients), in lowest
        terms; a constant map where num/den is constant, DegenerateInput on 0/0."""
        zn, zd = _trim(list(num)), _trim(list(den))
        if not zd:
            if not zn:
                raise DegenerateInput("0/0 is not a map")
            return cls.constant(INFINITY)
        if not zn:
            return cls.constant(ClosedPoint.rational(0))
        pn, pd = _zprimitive(zn), _zprimitive(zd)
        ratio = Fraction(zn[-1] // pn[-1], zd[-1] // pd[-1])
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

    # -- queries ---------------------------------------------------------

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
        # Poly.sort_key of Poly(nz) and Poly(dz), which orders integral coefficients as ints
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
        return RationalMap.from_ints([-b, d], [a, -c])


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
    if outer.degree * inner.degree > MAX_FIBER_DEGREE:
        raise DegenerateInput(
            f"composite of degree {outer.degree * inner.degree} above the cap {MAX_FIBER_DEGREE}")
    # outer's homogenized forms at (inner.nz, inner.dz); neither vanishes,
    # since inner is nonconstant and so its image is infinite
    d, nz, dz = outer.degree, inner.nz, inner.dz
    return RationalMap.from_ints(_zhomog(outer.nz, nz, dz, d), _zhomog(outer.dz, nz, dz, d))


def multiply_maps(f: RationalMap, g: RationalMap) -> RationalMap:
    """Product of f and g as rational functions."""
    if f.is_constant or g.is_constant:
        raise DegenerateInput("products are formed from nonconstant maps here")
    return RationalMap.from_ints(_zmul(f.nz, g.nz), _zmul(f.dz, g.dz))


# ---------------------------------------------------------------------------
# fibers: the homogenized composite behind every pullback
# ---------------------------------------------------------------------------


class _Fiber:
    """The fiber of a nonconstant map over a point: ``ints``, the primitive integer fiber
    form (ascending, positive leading coefficient), and ``k``, the deficit at infinity.
    Its points are filled in on first use, by one run of Yun and the factoring kernel;
    under a Moebius map the fiber form is its one point, and under the identity that point
    is the point the fiber lies over."""

    __slots__ = ("ints", "k", "_points")

    def __init__(self, ints: tuple[int, ...], k: int):
        self.ints, self.k = ints, k
        self._points = () if len(ints) == 1 else None

    def points(self, f: RationalMap, point: ClosedPoint) -> tuple[tuple[ClosedPoint, int], ...]:
        if self._points is None:
            if f.degree == 1:
                self._points = ((point if f.is_identity else ClosedPoint(self.ints), 1),)
            else:
                # over infinity or a rational point the fiber form is its own fiber
                fiber = None if point.degree == 1 else (point.ints, f.nz, f.dz)
                self._points = tuple((ClosedPoint(q), m) for q, m in _factor_fiber(_zyun(self.ints), fiber))
        return self._points

    def known(self, f: RationalMap) -> Optional[list[tuple[tuple[int, ...], int]]]:
        """The (primitive form, multiplicity) pairs of a nonempty fiber's points when they
        are known without factoring: under a degree-one map the fiber form is its one
        point, and a record that holds its points gives them; None otherwise."""
        if f.degree == 1:
            return [(self.ints, 1)]
        return None if self._points is None else [(q.ints, m) for q, m in self._points]


def fiber_data(f: RationalMap, point: ClosedPoint) -> tuple[tuple[int, ...], int]:
    """(g, k): the divisor f*[point] equals div0(g) + k*[infinity].

    g is the dehomogenized fiber form as a primitive integer coefficient
    tuple, ascending, with a positive leading coefficient (den^deg(P) *
    p(num/den) for a finite point with minimal polynomial p, den itself
    for infinity, up to a constant), and k the degree deficit absorbed at
    infinity.
    """
    fiber = _fiber_cached(f, point)
    return fiber.ints, fiber.k


@lru_cache(maxsize=65536)
def _fiber_cached(f: RationalMap, point: ClosedPoint) -> _Fiber:
    if f.is_constant:  # an exception is not cached: no record
        raise DegenerateInput("no fibers under a constant map")
    d = f.degree
    if d * point.degree > MAX_FIBER_DEGREE:  # checked before the fiber form is built
        raise DegenerateInput(f"fiber of degree {d * point.degree} above the cap {MAX_FIBER_DEGREE}")
    if point.is_infinity:
        return _Fiber(tuple(_zprimitive(f.dz)), d + 1 - len(f.dz))
    if f.is_identity:
        return _Fiber(point.ints, 0)
    # the point's integer form at (num, den): a constant factor is harmless
    e = point.degree
    acc = _zhomog(point.ints, f.nz, f.dz, e)
    if not acc:
        raise ArithmeticError("fiber form vanished; num/den were not coprime")
    return _Fiber(tuple(_zprimitive(acc)), d * e - (len(acc) - 1))


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
# loci: reduced preimage sets, as the fiber records that make them up
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Locus:
    """A finite Galois-stable set of closed points of the line.

    ``fibers`` holds the nonempty finite fibers whose points make up the
    set, as (map, point, fiber record) triples, and ``has_infinity``
    flags the point at infinity.  ``Locus()`` is the empty locus.
    """

    fibers: tuple[tuple[RationalMap, ClosedPoint, _Fiber], ...] = ()
    has_infinity: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.fibers and not self.has_infinity


def points_locus(points: Iterable[ClosedPoint]) -> Locus:
    return preimage_locus(RationalMap.identity(), points)


def preimage_locus(f: RationalMap, points: Iterable[ClosedPoint]) -> Locus:
    """{n : f(n) in points}, as a locus on the source line; f must be nonconstant.
    It records the fiber of f over each point, as the fiber cache holds it."""
    if f.is_constant:
        raise DegenerateInput("preimage locus needs a nonconstant map")
    fibers = []
    inf = False
    for p in points:
        fiber = _fiber_cached(f, p)
        inf = inf or fiber.k > 0
        if len(fiber.ints) > 1:
            fibers.append((f, p, fiber))
    return Locus(tuple(fibers), inf)


def locus_subset(a: Locus, *covers: Locus) -> bool:
    """a lies in the union of the covers, and infinity must lie in some cover.

    The finite part is one ``PullbackComparison``: each fiber of a weighs
    -1 and the covers' fibers escape, so the sum is effective away from
    the escapes exactly when every point of a lies in some cover."""
    if a.has_infinity and not any(c.has_infinity for c in covers):
        return False
    cmp = PullbackComparison()
    for f, p, fiber in a.fibers:
        cmp._entry(f, p, fiber)[0] -= 1
    for c in covers:
        for f, p, fiber in c.fibers:
            cmp._entry(f, p, fiber)[2] = True
    return cmp.effective()


# ---------------------------------------------------------------------------
# divisor comparisons without factorization: known fiber points, then gcd-free bases
# ---------------------------------------------------------------------------


class PullbackComparison:
    """Accumulates signed pullback terms and decides effectivity.

    One entry per fiber, keyed by (map, point): coefficient, slope in an
    unknown level n, an escape flag and the fiber record.  Positive verdict
    means: the divisor is effective away from the escaped fibers (domain
    points removed from the open model), whatever terms they carry.
    Exact, and never factors anything: a fiber whose points are known (its
    map has degree one, or its record holds its points) is read as those
    points, and only the fiber forms left unfactored are refined into a
    gcd-free basis.  ``add_growth`` terms are scaled by n >= 0, and
    ``least_level`` solves for the least n that is effective.
    """

    def __init__(self):
        # (map, point) -> [coefficient, slope, escaped, fiber record]
        self._fibers: dict[tuple[RationalMap, ClosedPoint], list] = {}
        self._inf_coeff = 0
        self._inf_slope = 0
        self._inf_escaped = False

    def add_pullback(self, f: RationalMap, divisor: Divisor, sign: int) -> None:
        self._add(f, divisor, sign, 0)

    def add_growth(self, f: RationalMap, divisor: Divisor) -> None:
        """Add n * f*(divisor) for the level n that ``least_level`` solves for."""
        self._add(f, divisor, 0, 1)

    def _add(self, f: RationalMap, divisor: Divisor, sign: int, slope: int) -> None:
        for point, mult in divisor:
            fiber = _fiber_cached(f, point)
            self._inf_coeff += sign * mult * fiber.k
            self._inf_slope += slope * mult * fiber.k
            if len(fiber.ints) > 1:
                entry = self._entry(f, point, fiber)
                entry[0] += sign * mult
                entry[1] += slope * mult

    def add_escape_map(self, f: RationalMap, points: Iterable[ClosedPoint]) -> None:
        for point in points:
            fiber = _fiber_cached(f, point)
            if fiber.k > 0:
                self._inf_escaped = True
            if len(fiber.ints) > 1:
                self._entry(f, point, fiber)[2] = True

    def _entry(self, f: RationalMap, point: ClosedPoint, fiber: _Fiber) -> list:
        return self._fibers.setdefault((f, point), [0, 0, False, fiber])

    def effective(self) -> bool:
        return self.least_level() == 0

    def least_level(self) -> Optional[int]:
        """Least n >= 0 making the accumulated divisor effective, or None.

        Each known point, each gcd-free basis piece of the rest, and
        infinity, carries c + n * e with e >= 0 (growth terms are
        effective), so n must reach ceil(-c/e) wherever c < 0, and no n
        exists where c < 0 and e = 0.
        """
        level = 0
        if any(c or e for c, e, _, _ in self._fibers.values()):
            # point form -> [coefficient, slope, escaped]
            known: dict[tuple[int, ...], list] = {}
            unknown = []
            for key, (c, e, escaped, rec) in self._fibers.items():
                if not (c or e or escaped):
                    continue
                points = rec.known(key[0])
                if points is None:
                    unknown.append((key, c, e, escaped, rec.ints))
                    continue
                for q, m in points:
                    entry = known.setdefault(q, [0, 0, False])
                    entry[0] += c * m
                    entry[1] += e * m
                    entry[2] = entry[2] or escaped
            # the known points inside an unfactored form take its terms and its escape; a form
            # that only escapes keeps a point escaped already, whose basis piece gets no terms
            rest: dict[tuple, list[int]] = {}
            for key, c, e, escaped, form in unknown:
                for q, entry in known.items():
                    if not (c or e) and entry[2]:
                        continue
                    x, form = _divide_out(form, q)
                    if x:
                        entry[0] += c * x
                        entry[1] += e * x
                        entry[2] = entry[2] or escaped
                if len(form) > 1:
                    rest[key] = form
            pieces = list(known.values())
            for beta, carriers in _gcd_free_basis(list(rest.items())):
                c = e = 0
                escaped = False
                for key in carriers:
                    coeff, slope, esc, _ = self._fibers[key]
                    x = _divide_out(rest[key], beta)[0]
                    c += coeff * x
                    e += slope * x
                    escaped = escaped or (esc and x > 0)
                pieces.append((c, e, escaped))
            for c, e, escaped in pieces:
                if c < 0 and not escaped:  # an escaped piece was removed from the model
                    if not e:
                        return None
                    level = max(level, -(c // e))
        if not self._inf_escaped and self._inf_coeff < 0:
            if not self._inf_slope:
                return None
            level = max(level, -(self._inf_coeff // self._inf_slope))
        return level


def _gcd_free_basis(fibers: list[tuple[tuple, list[int]]]) -> list[tuple[list[int], list[tuple]]]:
    """Pairwise coprime integer polynomials covering all factors of the fiber forms.

    Takes (key, form) pairs, keyed by (map, point), and returns
    (basis_poly, carriers) pairs; carriers over-approximate the keys
    whose forms the basis element can divide.  Fibers of one map over
    distinct points are coprime, so they are never gcd-ed against each
    other.
    """
    basis: list[tuple[list[int], list]] = []
    queue = [(list(form), [key]) for key, form in fibers]
    while queue:
        q, carriers = queue.pop()
        if len(q) <= 1:
            continue
        for idx, (b, b_carriers) in enumerate(basis):
            if all(fa == fb and pa != pb for fa, pa in carriers for fb, pb in b_carriers):
                continue
            g = _zgcd(q, b)
            if len(g) <= 1:
                continue
            del basis[idx]
            rest_b = _zprimitive(_zdiv_exact(b, g))
            rest_q = _zprimitive(_zdiv_exact(q, g))
            if len(rest_b) > 1:
                queue.append((rest_b, b_carriers))
            queue.append((g, b_carriers + [k for k in carriers if k not in b_carriers]))
            if len(rest_q) > 1:
                queue.append((rest_q, carriers))
            break
        else:
            basis.append((q, carriers))
    return basis


def _divide_out(poly: list[int], beta: list[int]) -> tuple[int, list[int]]:
    """(x, rest): beta^x is the highest power of beta dividing poly, and rest = poly / beta^x.
    Both are primitive with positive leading coefficients, and so is each quotient (Gauss)."""
    count = 0
    while (nxt := _zdiv_exact(poly, beta)) is not None:
        count, poly = count + 1, nxt
    return count, poly
