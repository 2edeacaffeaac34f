"""Divisor calculus on the line: pullback, pushforward, minimum, splitting."""

import math
import random
import time
from fractions import Fraction
from typing import Iterator

import pytest

from modtriples import (
    INFINITY,
    ClosedPoint,
    CurveSpace,
    DegenerateInput,
    Divisor,
    ModulusTriple,
    NotEffective,
    RationalMap,
    canonical_split,
    compose_maps,
    divisor_order,
    min_divisor,
    multiply_maps,
    point_image,
    principal_divisor,
    pullback_divisor,
    pushforward_divisor,
)
from modtriples.divisors import (
    Locus,
    PullbackComparison,
    _fiber_cached,
    fiber_data,
    locus_subset,
    points_locus,
    preimage_locus,
)
from modtriples import divisors, ratpoly, suites
from modtriples.cycles import Component, Cycle, compose, position_classify
from modtriples.ratpoly import factor, poly_gcd
from polyref import Poly, map_of, point_of, ref, squarefree_part

X = Poly.x()
ONE = Poly.one()
P0 = ClosedPoint.rational(0)
P1 = ClosedPoint.rational(1)
PM1 = ClosedPoint.rational(-1)
P2 = ClosedPoint.rational(2)
SQRT2 = ClosedPoint.finite((-2, 0, 1))
SQ = RationalMap.from_ints((0, 0, 1))
rmap = map_of


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


# the earlier locus algebra over Q, on (monic polynomial, has infinity) pairs
def ref_subtract(a, b):
    return a[0] // poly_gcd(a[0], b[0]), a[1] and not b[1]


def ref_union(a, b):
    return (a[0] * (b[0] // poly_gcd(a[0], b[0]))).monic(), a[1] or b[1]


def ref_subset(a, b) -> bool:
    return a[0].divides(b[0]) and (b[1] or not a[1])


def random_point_polys(rng: random.Random, count: int, degrees=(1, 4)) -> list[Poly]:
    """Irreducible integer polynomials with leading coefficients of either sign up to 6."""
    out = []
    while len(out) < count:
        lead = rng.choice([-1, 1]) * rng.randint(1, 6)
        p = Poly([rng.randint(-9, 9) for _ in range(rng.randint(*degrees))] + [lead])
        if ratpoly.is_irreducible(p):
            out.append(p)
    return out


class TestClosedPoint:
    def test_reducible_rejected(self):
        with pytest.raises(DegenerateInput):
            ClosedPoint.finite((-1, 0, 1))

    def test_monic_normalization(self):
        assert ClosedPoint.finite((-6, 2)) == ClosedPoint.finite([6, -2, 0]) == ClosedPoint.rational(3)

    def test_degrees(self):
        assert INFINITY.degree == 1
        assert SQRT2.degree == 2

    @pytest.mark.parametrize("coeffs", [(), (0, 0), (5,), (-3, 0)])
    def test_constant_rejected(self, coeffs):
        with pytest.raises(DegenerateInput, match="nonconstant"):
            ClosedPoint.finite(coeffs)

    def test_constructors_take_integer_sequences_only(self):
        # a Poly is not iterable, so handing one to an integer constructor fails at once
        for build in (lambda: ClosedPoint.finite(Poly((-2, 0, 1))), lambda: RationalMap.from_ints(Poly((0, 1)), [1]),
                      lambda: ClosedPoint.finite([Fraction(1, 2), 1]), lambda: RationalMap.from_ints([0.5, 1])):
            with pytest.raises(TypeError):
                build()
        assert RationalMap.from_ints([0, 2, 0], [4, 0]) == RationalMap.from_ints((0, 1), (2,)) == rmap(X.scale(Fraction(1, 2)))
        assert RationalMap.from_ints([0, 0]) == RationalMap.constant(P0)
        assert RationalMap.from_ints([3], []) == RationalMap.constant(INFINITY)
        with pytest.raises(DegenerateInput):
            RationalMap.from_ints([], [0])


class TestPrincipal:
    def test_coordinate(self):
        assert principal_divisor(RationalMap.identity()) == Divisor([(P0, 1), (INFINITY, -1)])

    def test_zeros_and_poles(self):
        f = rmap(X**2 + ONE, X)
        expected = Divisor([(ClosedPoint.finite((1, 0, 1)), 1), (P0, -1), (INFINITY, -1)])
        assert principal_divisor(f) == expected

    def test_factored_numerator(self):
        assert principal_divisor(rmap(X**2 - ONE)) == Divisor(
            [(P1, 1), (PM1, 1), (INFINITY, -2)]
        )

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInput):
            principal_divisor(RationalMap.constant(P0))

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(30):
            f = rmap(Poly([rng.randint(-6, 6) for _ in range(3)]), Poly([rng.randint(-6, 6), 1]))
            g = rmap(Poly([rng.randint(-6, 6) for _ in range(2)]), ONE)
            if f.is_constant or g.is_constant:
                continue
            prod = multiply_maps(f, g)
            if prod.is_constant:
                continue
            assert principal_divisor(prod) == principal_divisor(f) + principal_divisor(g)


class TestPullback:
    def test_ramified_origin(self):
        assert pullback_divisor(SQ, Divisor.of(P0)) == Divisor([(P0, 2)])

    def test_split_fiber(self):
        assert pullback_divisor(SQ, Divisor.of(P1)) == Divisor([(P1, 1), (PM1, 1)])

    def test_infinity(self):
        assert pullback_divisor(SQ, Divisor.of(INFINITY)) == Divisor([(INFINITY, 2)])

    def test_degree_identity(self):
        rng = random.Random(9)
        pool = Divisor([(P0, 2), (INFINITY, 1), (ClosedPoint.finite((1, 0, 1)), 3)])
        for _ in range(60):
            f = rmap(
                Poly([rng.randint(-10, 10) for _ in range(rng.randint(2, 5))]),
                Poly([rng.randint(-10, 10) for _ in range(rng.randint(1, 5))]),
            )
            if f.is_constant:
                continue
            assert pullback_divisor(f, pool).degree == f.degree * pool.degree


class TestPointImage:
    def test_rational_square(self):
        assert point_image(SQ, P2) == ClosedPoint.rational(4)

    def test_eliminant_collapse(self):
        assert point_image(SQ, SQRT2) == P2

    def test_constant_map(self):
        assert point_image(RationalMap.constant(INFINITY), ClosedPoint.rational(5)) == INFINITY

    def test_pole(self):
        inv = rmap(ONE, X)
        assert point_image(inv, P0) == INFINITY
        assert point_image(inv, INFINITY) == P0

    def test_functorial(self):
        rng = random.Random(3)
        probe = ClosedPoint.finite((-3, 0, 1))
        for _ in range(40):
            f = rmap(
                Poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 4))]),
                Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]),
            )
            g = rmap(
                Poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 4))]),
                Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]),
            )
            if f.is_constant or g.is_constant:
                continue
            comp = compose_maps(g, f)
            assert point_image(g, point_image(f, probe)) == point_image(comp, probe)

    @staticmethod
    def lagrange(xs: list[int], ys: list[Fraction]) -> Poly:
        """The interpolant through the samples, by Lagrange's formula in Fraction Polys."""
        acc = Poly.zero()
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            term, denom = ONE, Fraction(1)
            for j, xj in enumerate(xs):
                if i != j:
                    term = term * Poly((-xj, 1))
                    denom *= xi - xj
            acc = acc + term.scale(yi / denom)
        return acc

    @pytest.mark.parametrize("seed", range(3))
    def test_image_properties(self, seed, monkeypatch):
        rng = random.Random(seed)
        interpolated, interpolate = [], divisors._interpolate

        def recording(xs, ys):
            out = interpolate(xs, ys)
            interpolated.append((xs, ys, out))
            return out

        monkeypatch.setattr(divisors, "_interpolate", recording)
        points = [point_of(q) for q in random_point_polys(rng, 12, degrees=(2, 4))]
        assert any(p.ints[-1] > 1 for p in points)
        checked = 0
        while checked < 40:
            d = rng.randint(1, 4)
            num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, d + 1))])
            den = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, d + 1))])
            if num.is_zero and den.is_zero:
                continue
            f = rmap(num, den)
            if f.is_constant:
                continue
            point = rng.choice(points)
            image = point_image(f, point)
            assert point.degree % image.degree == 0
            assert point in pullback_divisor(f, Divisor.of(image)).support()
            checked += 1
        assert len(interpolated) >= 30
        for xs, ys, out in interpolated:
            assert all(type(v) is int for v in out)
            assert Poly(out) == self.lagrange(xs, ys)


class TestPushforward:
    def test_residue_degree_one(self):
        assert pushforward_divisor(SQ, Divisor.of(P1)) == Divisor.of(P1)

    def test_residue_degree_two(self):
        assert pushforward_divisor(SQ, Divisor.of(SQRT2)) == Divisor([(P2, 2)])

    def test_projection_formula(self):
        rng = random.Random(17)
        base = Divisor([(P1, 1), (INFINITY, 2)])
        for _ in range(40):
            f = rmap(
                Poly([rng.randint(-8, 8) for _ in range(rng.randint(2, 5))]),
                Poly([rng.randint(-8, 8) for _ in range(rng.randint(1, 4))]),
            )
            if f.is_constant:
                continue
            assert pushforward_divisor(f, pullback_divisor(f, base)) == f.degree * base


class TestMinAndSplit:
    def test_pointwise(self):
        d1 = Divisor([(P0, 2), (P1, 1)])
        d2 = Divisor([(P0, 1), (INFINITY, 3)])
        assert min_divisor(d1, d2) == Divisor.of(P0)

    def test_zero_absorbs(self):
        assert min_divisor(Divisor([(P0, 5)]), Divisor.zero()).is_zero

    def test_same_support(self):
        assert min_divisor(Divisor([(P0, 2)]), Divisor([(P0, 3)])) == Divisor([(P0, 2)])

    def test_non_effective_rejected(self):
        with pytest.raises(NotEffective):
            min_divisor(Divisor([(P0, -1)]), Divisor.zero())

    def test_split(self):
        plus, minus = canonical_split(Divisor([(P0, 1), (INFINITY, -1)]))
        assert plus == Divisor.of(P0) and minus == Divisor.of(INFINITY)
        plus, minus = canonical_split(Divisor.zero())
        assert plus.is_zero and minus.is_zero
        plus, minus = canonical_split(Divisor([(P0, 2), (P0, -3)]))
        assert plus.is_zero and minus == Divisor.of(P0)


class TestOrderReport:
    def test_le(self):
        rep = divisor_order(Divisor.of(P0), Divisor([(P0, 2), (P1, 1)]))
        assert rep.le and rep.effective_1 and not rep.eq

    def test_not_effective(self):
        rep = divisor_order(Divisor([(P0, 1), (P1, -1)]), Divisor.zero())
        assert not rep.effective_1

    def test_reduced(self):
        rep = divisor_order(Divisor([(P0, 3), (INFINITY, 2)]), Divisor.zero())
        assert rep.reduced_1 == Divisor([(P0, 1), (INFINITY, 1)])
        assert rep.support_1 == frozenset([P0, INFINITY])


class TestCachedHashes:
    """Cached hashes and the point index must not change what is equal."""

    def test_equal_polys_hash_alike(self):
        coeffs = (Fraction(-2), Fraction(0), Fraction(1))
        made = [
            Poly((-2, 0, 1)),
            Poly._raw(coeffs),
            X * X - Poly.constant(2),
            (X - ONE) * (X + ONE) - ONE,
            (X**2).scale(3).monic() - Poly.constant(2),
        ]
        for p in made:
            assert p == made[0] and made[0] == p
            assert hash(p) == hash(made[0]) == hash(coeffs)
            assert hash(p) == hash(p.coeffs)  # stable once cached
        assert Poly((1, 1)) != Poly((1, 2)) and Poly((1,)) != Poly((1, 1))

    def test_point_hash_and_key(self):
        rng = random.Random(17)
        made = [point_of(q) for q in random_point_polys(rng, 150)]
        assert sum(p.ints[-1] > 1 for p in made) >= 100  # mostly non-monic integer forms
        for p in [SQRT2, P0, ClosedPoint.finite((-6, 2))] + made:
            assert hash(p) == hash(("pt", Poly(p.ints).monic()))
            assert p.sort_key() == (1,) + Poly(p.ints).monic().sort_key()
        assert hash(INFINITY) == hash(("pt", None)) and INFINITY.sort_key() == (0,)
        assert ClosedPoint.finite((-4, 0, 2)) == SQRT2

    def test_divisor_independent_of_entry_order(self):
        rng = random.Random(11)
        pool = [INFINITY, P0, P1, PM1, P2, SQRT2, ClosedPoint.finite((1, 0, 1))]
        for _ in range(50):
            pairs = [(rng.choice(pool), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))]
            # entries that cancel leave no trace
            cancel = [(rng.choice(pool), 4), (rng.choice(pool), -4)]
            cancel.append((cancel[0][0], -4))
            cancel.append((cancel[1][0], 4))
            base = Divisor(pairs)
            for _ in range(3):
                shuffled = pairs + cancel
                rng.shuffle(shuffled)
                other = Divisor(shuffled)
                assert other.entries == base.entries
                assert other == base and hash(other) == hash(base)

    def test_multiplicity_matches_scan(self):
        rng = random.Random(12)
        pool = [INFINITY, P0, P1, PM1, P2, SQRT2, ClosedPoint.finite((1, 0, 1))]
        for _ in range(50):
            d = Divisor((rng.choice(pool[:5]), rng.randint(-3, 3)) for _ in range(6))
            for point in pool:  # the last two are never in the support
                scan = next((m for p, m in d.entries if p == point), 0)
                assert d.multiplicity(point) == scan

    def test_arithmetic_matches_pointwise(self):
        rng = random.Random(13)
        pool = [INFINITY, P0, P1, PM1, P2, SQRT2]

        def rand_div():
            return Divisor((rng.choice(pool), rng.randint(-2, 3)) for _ in range(rng.randint(0, 5)))

        for _ in range(100):
            a, b = rand_div(), rand_div()
            for result, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
                expected = Divisor((p, op(a.multiplicity(p), b.multiplicity(p))) for p in pool)
                assert result == expected
            assert -a == Divisor((p, -m) for p, m in a.entries)
            assert (a <= b) == all(a.multiplicity(p) <= b.multiplicity(p) for p in pool)
            assert (a + -a).is_zero

    @pytest.mark.parametrize("name", ["ints", "_hash", "_key", "extra"])
    def test_point_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(SQRT2, name, None)

    @pytest.mark.parametrize("name", ["entries", "_mult", "extra"])
    def test_divisor_immutable(self, name):
        d = Divisor([(P0, 1)])
        with pytest.raises(AttributeError):
            setattr(d, name, None)
        assert d.entries == ((P0, 1),) and d.multiplicity(P0) == 1


class TestMapRepresentation:
    """Maps keep integer tuples and points their integer form; Polys built from
    them give the same sort keys, hashes and maps."""

    @staticmethod
    def seeded_maps() -> list[RationalMap]:
        rng = random.Random(71)
        maps = [
            RationalMap.identity(),
            rmap(X.scale(2), Poly.constant(2)),  # x/1 after normalization
            rmap(-X, -ONE),
            rmap(X.scale(Fraction(1, 3)), ONE),
            rmap(X, Poly.constant(-1)),
            rmap(ONE, X),
        ]
        maps += [RationalMap.constant(p) for p in (INFINITY, P0, P1, ClosedPoint.rational(Fraction(-5, 7)))]
        for _ in range(40):
            a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
            if a * d != b * c:  # a Moebius map
                maps.append(rmap(Poly((b, a)), Poly((d, c))))
        maps += [TestIntegerLoci.random_map(rng) for _ in range(40)]
        for _ in range(60):
            maps.append(compose_maps(rng.choice(maps), rng.choice(maps)))
        return maps

    def test_views_keys_and_hashes(self):
        maps = self.seeded_maps()
        for f in maps:
            if f.is_constant:
                assert f.nz is None and f.dz is None
                assert f.sort_key() == (0,) + f.const.sort_key()
                assert hash(f) == hash(("map", None, None, f.const))
                continue
            num, den = Poly(f.nz), Poly(f.dz)
            assert f.sort_key() == (1, num.sort_key(), den.sort_key())
            assert hash(f) == hash(("map", num, den, None))
            assert RationalMap.from_ints(f.nz, f.dz) == rmap(num, den) == f
            assert f.is_identity == (num == X and den == ONE)
            assert all(isinstance(v, int) for v in f.nz + f.dz)
        assert sum(f.is_identity for f in maps) >= 3
        assert sum(not f.is_constant and f.degree == 1 for f in maps) >= 30

    def test_point_integer_form(self):
        rng = random.Random(19)
        polys = random_point_polys(rng, 150)
        for point in TestIntegerLoci.POOL[1:] + [point_of(q) for q in polys]:
            ints = point.ints
            assert ints == tuple(Poly(ints).monic().int_primitive()[1])
            assert point.ints is ints  # stored, not recomputed
            assert all(type(v) is int for v in ints) and ints[-1] > 0 and math.gcd(*ints) == 1
            assert ClosedPoint(ints) == point and hash(ClosedPoint(ints)) == hash(point)
        for q in polys:
            ints = q.int_primitive()[1]
            point = point_of(q)
            assert point == ClosedPoint(ints) == ClosedPoint.finite([-2 * v for v in ints] + [0])
            assert Poly(point.ints).monic() == q.monic() and point.degree == len(ints) - 1
            if point.degree == 1:
                assert point == ClosedPoint.rational(point.rational_value())


class TestIntegerLoci:
    """The Z[x] locus algebra and map composition against Fraction references.

    References are monic Fraction polynomials built with Poly arithmetic:
    the product of the squarefree parts of the fibers, and gcd, exact
    division and divisibility over Q.  A locus is read through the same
    product, taken in the test over the fiber forms it records.
    """

    POOL = [
        INFINITY,
        P0,
        P1,
        PM1,
        P2,
        ClosedPoint.rational(Fraction(1, 2)),
        ClosedPoint.rational(Fraction(-3, 4)),
        SQRT2,
        ClosedPoint.finite((1, 0, 1)),
        ClosedPoint.finite((1, 1, 1)),
        ClosedPoint.finite((-2, 0, 0, 1)),
        ClosedPoint.finite((-5, 0, 3)),
    ]

    # fibers with parts of two or more multiplicities, e.g. x^2 (x - 1) over 0
    RAMIFIED = [
        rmap(X**2 * (X - ONE)),
        rmap((X - ONE) ** 2 * (X + ONE), X + Poly.constant(3)),
        rmap(X**3, X - ONE),
        rmap((X**2 + ONE) ** 2, X**3),
    ]

    @staticmethod
    def random_map(rng: random.Random) -> RationalMap:
        # degree <= 3, height <= 10; now and then constant or the identity
        roll = rng.random()
        if roll < 0.05:
            return RationalMap.identity()
        if roll < 0.1:
            return RationalMap.constant(rng.choice([INFINITY, P0, P1, P2]))
        while True:
            num = Poly([rng.randint(-10, 10) for _ in range(rng.randint(1, 4))])
            den = Poly([rng.randint(-10, 10) for _ in range(rng.randint(1, 4))])
            if not (num.is_zero and den.is_zero):
                return rmap(num, den)

    def random_points(self, rng: random.Random) -> list[ClosedPoint]:
        return rng.sample(self.POOL, rng.randint(0, 4))

    @staticmethod
    def monic(locus: Locus) -> Poly:
        """The full locus polynomial, the product of the squarefree parts of the fiber forms
        the locus records, as a monic Fraction Poly, after checking the form of each record.
        It reads the records' forms only, so it factors nothing."""
        full = ONE
        assert type(locus.fibers) is tuple
        for f, p, rec in locus.fibers:
            coeffs = rec.ints
            assert type(coeffs) is tuple and all(type(c) is int for c in coeffs)
            assert len(coeffs) > 1 and coeffs[-1] > 0 and math.gcd(*coeffs) == 1
            assert isinstance(f, RationalMap) and not f.is_constant and isinstance(p, ClosedPoint)
            full = full * squarefree_part(Poly(coeffs))
        return full.monic()

    @staticmethod
    def point_set(locus: Locus) -> set[ClosedPoint]:
        """The closed points of the locus, read off its factored fibers."""
        points = {q for f, p, rec in locus.fibers for q, _ in rec.points(f, p)}
        return points | ({INFINITY} if locus.has_infinity else set())

    @staticmethod
    def reference_preimage(f: RationalMap, points: list[ClosedPoint]) -> tuple[Poly, bool]:
        poly, inf = ONE, False
        for p in points:
            g, k = fiber_data(f, p)
            inf = inf or k > 0
            poly = poly * squarefree_part(Poly(g))
        return poly.monic(), inf

    def random_spec(self, rng: random.Random) -> tuple:
        """(map, points) for a preimage locus, or (None, points) for the points' own."""
        f = self.random_map(rng)
        if f.is_constant or rng.random() < 0.2:
            return None, self.random_points(rng)
        return f, self.random_points(rng)

    @staticmethod
    def build(spec) -> Locus:
        f, pts = spec
        return points_locus(pts) if f is None else preimage_locus(f, pts)

    @staticmethod
    def cache_states(rng: random.Random, keys: list) -> Iterator[str]:
        """Yields with the fiber cache cold (cleared), warm (the fiber of every
        (map, point) key factored), then half-warm (a seeded half of them factored)."""
        _fiber_cached.cache_clear()
        yield "cold"
        for f, p in keys:
            pullback_divisor(f, Divisor.of(p))
        yield "warm"
        _fiber_cached.cache_clear()
        for f, p in keys:
            if rng.random() < 0.5:
                pullback_divisor(f, Divisor.of(p))
        yield "half-warm"

    @classmethod
    def three_states(cls, rng: random.Random, specs: list) -> Iterator[list[Locus]]:
        """The loci of the specs built cold, warm and half-warm."""
        keys = [(f, p) for f, pts in specs if f is not None for p in pts]
        for _ in cls.cache_states(rng, keys):
            yield [cls.build(spec) for spec in specs]

    def test_preimage_matches_fraction_product(self):
        rng = random.Random(61)
        checked = 0
        for i in range(300):
            f = self.RAMIFIED[i] if i < len(self.RAMIFIED) else self.random_map(rng)
            pts = self.POOL if i < len(self.RAMIFIED) else self.random_points(rng)
            if f.is_constant:
                with pytest.raises(DegenerateInput):
                    preimage_locus(f, pts)
                continue
            loc = preimage_locus(f, pts)
            poly, inf = self.reference_preimage(f, pts)
            assert (self.monic(loc), loc.has_infinity) == (poly, inf)
            # the points of the locus are those of the reference product
            expected = {point_of(q) for q, _ in factor(poly)} | ({INFINITY} if inf else set())
            assert self.point_set(loc) == expected
            # and as sets: a rational t lies in the locus iff f(t) is one of the points
            assert loc.has_infinity == (f.value_at(INFINITY) in pts)
            for t in range(-4, 5):
                hit = f.value_at(ClosedPoint.rational(t)) in pts
                assert (self.monic(loc)(Fraction(t)) == 0) == hit
            checked += 1
        assert checked >= 200

    def test_points_locus_is_product_of_minimal_polys(self):
        rng = random.Random(62)
        for _ in range(100):
            pts = self.random_points(rng)
            loc = points_locus(pts)
            expected = ONE
            for p in pts:
                if not p.is_infinity:
                    expected = expected * Poly(p.ints).monic()
            assert self.monic(loc) == expected
            assert loc.has_infinity == (INFINITY in pts)
            assert loc.is_empty == (not pts)
            assert self.point_set(loc) == set(pts)

    def test_algebra_matches_fraction_gcds(self):
        # each triple of loci is built cold, warm and half-warm, so that the points
        # known one by one differ, and every build must meet one reference
        rng, warm_rng = random.Random(63), random.Random(64)
        empty = Locus()
        for _ in range(300):
            specs = [self.random_spec(rng) for _ in range(3)]
            reference = None
            for a, b, c in self.three_states(warm_rng, specs):
                pa, pb, pc = (self.monic(x) for x in (a, b, c))
                if reference is None:
                    # the division tests need squarefree full locus polynomials
                    for p in (pa, pb, pc):
                        assert poly_gcd(p, derivative(p)) == ONE
                    # a in b u c: nothing of a is left after taking out b, then c
                    rest = pa // poly_gcd(pa, pb)
                    rest = rest // poly_gcd(rest, pc)
                    at_infinity = b.has_infinity or c.has_infinity or not a.has_infinity
                    subset = pa.divides(pb) and (b.has_infinity or not a.has_infinity)
                    reference = (pa, pb, pc, rest.is_constant and at_infinity, subset)
                assert (pa, pb, pc) == reference[:3]
                in_union, subset = reference[3:]
                assert locus_subset(a, b, c) == in_union
                assert locus_subset(a, c, b) == locus_subset(a, b, c)
                assert locus_subset(a, b) == subset
                # the laws the position checks rely on, with a - b and a u b as covers
                diff_points = [point_of(q) for q, _ in factor(pa // poly_gcd(pa, pb))]
                diff = points_locus(diff_points + ([INFINITY] if a.has_infinity and not b.has_infinity else []))
                assert locus_subset(a, a, b) and locus_subset(b, a, b)
                assert locus_subset(diff, a) and locus_subset(a, diff, b)
                assert locus_subset(empty, a) and locus_subset(empty)
                assert locus_subset(a, b, empty) == subset and locus_subset(a, a, empty)
                assert locus_subset(a) == a.is_empty

    @classmethod
    def reference_positions(cls, alpha) -> list[tuple[bool, bool]]:
        """(very good, excellent) of each component with a nonconstant second leg, by the
        earlier formula: subtract what may escape, then one subset test."""
        s, t = alpha.source, alpha.target
        pre = cls.reference_preimage
        out = []
        for comp in alpha.components:
            if comp.b.is_constant:
                continue
            hit_t = pre(comp.b, list(t.minus.support()))
            over_s_minus = pre(comp.a, list(s.minus.support()))
            escape = pre(comp.a, list(s.total.boundary))
            outside = ref_union(pre(comp.a, list(s.bad_set())), pre(comp.b, list(t.bad_set())))
            out.append((
                ref_subset(ref_subtract(hit_t, outside), over_s_minus),
                ref_subset(ref_subtract(hit_t, escape), over_s_minus),
            ))
        return out

    @classmethod
    def reference_minus_transfer(cls, comp, s, t) -> bool:
        """suites.minus_transfer_holds with the earlier subtract-then-subset locus step."""
        if comp.b.is_constant:
            if comp.b.value in t.minus.support() or not t.in_interior(comp.b.value):
                return True
        cmp = PullbackComparison()
        cmp.add_pullback(comp.a, s.minus, -1)
        cmp.add_escape_map(comp.a, s.bad_set())
        hit_minus = off_t = (ONE, False)
        if not comp.b.is_constant:
            cmp.add_pullback(comp.b, t.minus, +1)
            cmp.add_escape_map(comp.b, t.bad_set())
            hit_minus = cls.reference_preimage(comp.b, list(t.minus.support()))
            off_t = cls.reference_preimage(comp.b, list(t.bad_set()))
        if not cmp.effective():
            return False
        lhs = ref_subtract(
            cls.reference_preimage(comp.a, list(s.minus.support())),
            ref_union(cls.reference_preimage(comp.a, list(s.bad_set())), off_t),
        )
        return ref_subset(lhs, hit_minus)

    def test_positions_and_transfer_match_subtract_then_subset(self):
        # each verdict is read cold, warm and half-warm, since the loci behind it
        # hold the points their fibers know
        rng, warm_rng = random.Random(64), random.Random(65)
        cfg = suites.SuiteConfig(seed=64, samples=1, degree_bound=3)
        pool = suites.point_pool()
        cycles = []
        for _ in range(40):
            alpha, beta = suites.admissible_pair(rng, cfg)
            cycles += [alpha, beta, compose(alpha, beta)]
            trip = suites._never_very_good(rng, cfg, pool)
            if trip is not None:
                cycles += [trip[0], trip[1], compose(*trip)]

        def random_ends() -> tuple[ModulusTriple, ModulusTriple]:
            # now and then a removed boundary point of the source that |T-| holds too,
            # so that a component (a, a) escapes through it
            s, t = suites.random_triple(rng, pool), suites.random_triple(rng, pool)
            rest = [p for p in pool if p not in s.plus.support() | s.minus.support()]
            if rest and rng.random() < 0.5:
                p = rng.choice(rest)
                s = ModulusTriple(CurveSpace.open([p]), s.plus, s.minus)
                t = ModulusTriple.proper(t.plus, t.minus + Divisor([(p, 1)]))
            return s, t

        seen = set()
        for cycle in cycles:
            # the cycle's own ends, and random ones, under which the laws fail
            diagonal = [Component(c.a, c.a, 1) for c in cycle.components]
            for s, t, comps in (
                (cycle.source, cycle.target, cycle.components),
                (*random_ends(), list(cycle.components) + diagonal),
            ):
                moved = Cycle(s, t, comps)
                positions = self.reference_positions(moved)
                transfers = [self.reference_minus_transfer(comp, s, t) for comp in comps]
                keys = [(h, p) for comp in comps for h, end in ((comp.a, s), (comp.b, t)) if not h.is_constant
                        for p in sorted(end.plus.support() | end.minus.support() | end.total.boundary,
                                        key=lambda p: p.sort_key())]
                for _ in self.cache_states(warm_rng, keys):
                    verdicts = [v for v in position_classify(moved) if not v.component.b.is_constant]
                    got = [(v.very_good, v.excellent) for v in verdicts]
                    assert got == positions
                    assert [suites.minus_transfer_holds(comp, s, t) for comp in comps] == transfers
                seen.update(("position",) + g for g in positions)
                seen.update(("transfer", holds) for holds in transfers)
        assert seen >= {
            ("position", False, False), ("position", True, False), ("position", True, True),
            ("transfer", False), ("transfer", True),
        }

    def test_compose_matches_fraction_evaluation(self):
        rng = random.Random(65)
        samples = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 7)]
        checked = 0
        for _ in range(200):
            f, g = self.random_map(rng), self.random_map(rng)
            comp = compose_maps(g, f)
            if f.is_constant or g.is_constant:
                if g.is_constant:
                    assert comp == g
                else:
                    assert comp == RationalMap.constant(g.value_at(f.value))
                continue
            assert comp.degree == f.degree * g.degree
            # normal form: integral, coprime, joint content 1, positive den lc
            num, den = Poly(comp.nz), Poly(comp.dz)
            assert all(c.denominator == 1 for c in num.coeffs + den.coeffs)
            assert poly_gcd(num, den) == ONE
            assert math.gcd(*(int(c) for c in num.coeffs + den.coeffs)) == 1
            assert den.leading > 0
            # the outer map's homogenized forms at the inner pair, over Q
            d = g.degree
            fn, fd, gn, gd = (Poly(z) for z in (f.nz, f.dz, g.nz, g.dz))
            ref_num = ref_den = Poly.zero()
            for i in range(d + 1):
                term = fn**i * fd ** (d - i)
                ref_num = ref_num + term.scale(gn[i])
                ref_den = ref_den + term.scale(gd[i])
            assert comp == rmap(ref_num, ref_den)
            points = 0
            for t in samples:
                ft_den = fd(t)
                if not ft_den:
                    continue
                ft = fn(t) / ft_den
                gt_den = gd(ft)
                if not gt_den or not den(t):
                    continue
                assert num(t) / den(t) == gn(ft) / gt_den
                points += 1
                if points == 5:
                    break
            assert points == 5
            checked += 1
        assert checked >= 120

    def test_from_ints_cancels_common_factors(self):
        rng = random.Random(66)
        checked = 0
        for _ in range(100):
            f = self.random_map(rng)
            common = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
            if f.is_constant or common.is_zero:
                continue
            scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4, 9]))
            sign = rng.choice([1, -1])
            num, den = Poly(f.nz), Poly(f.dz)
            g = rmap((num * common).scale(scale * sign), (den * common).scale(scale))
            assert g == rmap(num.scale(sign), den)
            assert g.dz[-1] > 0 and poly_gcd(Poly(g.nz), Poly(g.dz)) == ONE
            checked += 1
        assert checked >= 60


class TestFiberFactoring:
    """pullback_divisor, which certifies a fiber over a point of degree >= 2
    at the simple roots of the point mod p and skips factoring under degree-1
    maps, against factor() of the same fiber form."""

    SQRTM1 = ClosedPoint.finite((1, 0, 1))
    PINNED = [
        # reducible: x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
        (SQ, ClosedPoint.finite((4, 0, 1)), 2),
        (rmap(Poly((1, -2, -8)), Poly.constant(5)), SQRTM1, 2),
        # ramified: (3x^2 + 4)(3x^2 + 1)^2, and (x^2 - 2)^2, a single Yun part
        (rmap(X**3 + X), ClosedPoint.finite((4, 0, 27)), 2),
        (rmap(X**2 + Poly.constant(2), X.scale(2)), SQRT2, 1),
        # num and den share a root mod 5: a Moebius map, also over its value
        # at infinity, and a cubic whose den vanishes mod 5 and whose
        # fiber is lifted
        (rmap(X + Poly.constant(3), X - Poly.constant(2)), SQRTM1, 1),
        (rmap(X + Poly.constant(3), X - Poly.constant(2)), P1, 1),
        (rmap(Poly((-4, -1, 1, 3)), Poly.constant(5)), ClosedPoint.finite((5, -3, 3)), 1),
        # irreducible: x^4 + 1, and (4x^2 + 3x + 3)/2 over x^2 + 1, both
        # closed at the roots of x^2 + 1 mod 5 without a lift
        (SQ, SQRTM1, 1),
        (rmap(Poly((3, 3, 4)), Poly.constant(2)), SQRTM1, 1),
    ]

    @staticmethod
    def pool() -> list[ClosedPoint]:
        """Points of degree 1 to 6: infinity, rational and low-degree points,
        and the points of a few pullbacks."""
        base = [INFINITY, P0, P1, PM1, P2, ClosedPoint.rational(Fraction(-3, 4)), SQRT2,
                ClosedPoint.finite((1, 0, 1)), ClosedPoint.finite((1, 1, 1)),
                ClosedPoint.finite((-5, 0, 3)), ClosedPoint.finite((-2, 0, 0, 1))]
        pulled = set()
        for f, pt in [(rmap(X**2 + X), SQRT2), (rmap(X**5 - X - ONE), P0),
                      (rmap(X**3 - X + ONE, X), ClosedPoint.finite((1, 0, 1))),
                      (rmap(X**2 - Poly.constant(3), X + ONE), ClosedPoint.finite((-2, 0, 0, 1)))]:
            pulled |= pullback_divisor(f, Divisor.of(pt)).support()
        assert {p.degree for p in pulled} >= {4, 5, 6}
        return base + sorted(pulled, key=ClosedPoint.sort_key)

    @staticmethod
    def by_factor(f: RationalMap, point: ClosedPoint) -> Divisor:
        g, k = fiber_data(f, point)
        acc = [(INFINITY, k)] if k else []
        if len(g) > 1:
            acc += [(point_of(q), m) for q, m in factor(Poly(g))]
        return Divisor(acc)

    def test_pinned_fibers(self):
        for f, point, parts in self.PINNED:
            pulled = pullback_divisor(f, Divisor.of(point))
            assert pulled == self.by_factor(f, point)
            assert len(pulled.support()) == parts

    @staticmethod
    def branch_points(f: RationalMap) -> list[ClosedPoint]:
        """Images of degree >= 2 of the critical points of f: fibers over them ramify."""
        def deriv(p):
            return Poly([i * c for i, c in enumerate(p.coeffs)][1:])

        num, den = Poly(f.nz), Poly(f.dz)
        wronskian = deriv(num) * den - num * deriv(den)
        if wronskian.is_constant:
            return []
        images = {point_image(f, point_of(q)) for q, _ in factor(wronskian)}
        return sorted((p for p in images if p.degree > 1), key=ClosedPoint.sort_key)

    def test_matches_factor_on_random_pairs(self):
        rng = random.Random(71)
        pool = self.pool()
        seen = {"moebius": 0, "unramified": 0, "reducible": 0, "ramified": 0}
        for i in range(250):
            while True:
                num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
                den = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
                if (num or den) and not (f := rmap(num, den)).is_constant:
                    break
            # every fifth point a branch point, and every fifth the image of
            # a pool point, whose fiber contains that point and so splits
            point = rng.choice((i % 5 == 0 and self.branch_points(f)) or pool)
            if i % 5 == 1:
                point = point_image(f, point)
            pulled = pullback_divisor(f, Divisor.of(point))
            assert pulled == self.by_factor(f, point)
            if f.degree == 1:
                seen["moebius"] += 1
            elif point.degree > 1:
                mults = {m for _, m in pulled}
                seen["ramified" if mults != {1} else "unramified"] += 1
                seen["reducible"] += mults == {1} and len(pulled.support()) > 1
        assert seen["moebius"] >= 30 and seen["unramified"] >= 90, seen
        assert seen["reducible"] >= 15 and seen["ramified"] >= 30, seen

    def test_lifts_only_what_the_certificate_leaves_open(self, monkeypatch):
        # x^4 + 1 splits mod every prime, so the degree patterns of the whole
        # polynomial never close; at the roots 2 and 3 of x^2 + 1 mod 5 the
        # patterns x^2 - 2 and x^2 - 3 are irreducible, which rules out
        # K-degree 1, and ClosedPoint.finite checks that x^4 + 1 is irreducible.
        # x^4 + 4 over x^2 + 4 is x^2 - 2i = (x - 1 - i)(x + 1 + i) over K = Q(i):
        # every pattern keeps K-degree 1, so only a lift can split it.
        cases = [(SQ, self.SQRTM1, False), (SQ, ClosedPoint.finite((4, 0, 1)), True)]
        lifts = []
        recombine = ratpoly._recombine
        monkeypatch.setattr(ratpoly, "_recombine", lambda *args: lifts.append(1) or recombine(*args))
        for f, point, lifted in cases:
            expected = self.by_factor(f, point)  # factor() lifts x^4 + 1 as a plain polynomial
            assert len(expected.support()) == (2 if lifted else 1)
            lifts.clear()
            _fiber_cached.cache_clear()  # a fiber's points are built once per session
            assert pullback_divisor(f, Divisor.of(point)) == expected
            assert bool(lifts) == lifted

    def test_fiber_over_a_point_without_small_roots_is_bounded(self, monkeypatch):
        # x^256 + 1 has roots mod p only for p = 1 mod 512, the first being 7681, so the
        # root search ends at its cap.  The fiber x^512 + 1 under x^2 is then read at 3,
        # where x^256 + 1 has two factors of degree 128 and x^512 + 1 two of degree 256:
        # a factor of K-degree 1 would put degree 128 over each, so there is none.
        point = ClosedPoint([1] + [0] * 255 + [1])  # trusted, as validating it lifts x^256 + 1
        lifts = []
        recombine = ratpoly._recombine
        monkeypatch.setattr(ratpoly, "_recombine", lambda *args: lifts.append(1) or recombine(*args))
        _fiber_cached.cache_clear()
        started = time.perf_counter()
        pulled = pullback_divisor(SQ, Divisor.of(point))
        assert time.perf_counter() - started < 2.0
        assert pulled == Divisor.of(ClosedPoint([1] + [0] * 511 + [1])) and not lifts


class TestFiberRecords:
    """The cached fiber record of each (map, point) pair serves pullback_divisor,
    preimage_locus and PullbackComparison alike, whichever consumer fills it
    first, and hands out nothing a caller could change."""

    CONSTANT = RationalMap.constant(P1)

    def test_identity_fiber_is_the_point(self):
        # the identity's fiber over a finite point is the point's own form with k = 0, the
        # form the substitution den^e * q(num/den) gives, and its one point is that point
        identity = RationalMap.identity()
        points = [P0, P2, SQRT2, *map(point_of, random_point_polys(random.Random(7), 12, (3, 6)))]
        assert any(p.ints[-1] != 1 for p in points)
        for point in points:
            _fiber_cached.cache_clear()
            cold = _fiber_cached(identity, point)
            for rec in (cold, _fiber_cached(identity, point)):  # built, then cached
                assert rec is cold
                assert (rec.ints, rec.k) == (point.ints, 0)
                assert list(rec.ints) == ratpoly._zprimitive(ratpoly._zhomog(point.ints, [0, 1], [1], point.degree))
                assert rec.points(identity, point) == ((point, 1),)
                assert rec.points(identity, point)[0][0] is point
                assert rec.known(identity) == [(point.ints, 1)]
            assert pullback_divisor(identity, Divisor.of((point, 3))) == Divisor.of((point, 3))
        _fiber_cached.cache_clear()
        rec = _fiber_cached(identity, INFINITY)  # over infinity the fiber is all deficit
        assert (rec.ints, rec.k, rec.points(identity, INFINITY)) == ((1,), 1, ())

    @staticmethod
    def answers(f, point, g, other, order):
        """The three consumers' answers for f over point, asked in the given
        order; the comparison is of f*[point] against g*[other], and the locus
        is read as its full product, which does not depend on what is known."""
        out = {}
        for name in order:
            if name == "pullback":
                out[name] = pullback_divisor(f, Divisor.of(point))
            elif name == "locus":
                loc = preimage_locus(f, [point, other])
                out[name] = (TestIntegerLoci.monic(loc), loc.has_infinity)
            else:
                cmp = PullbackComparison()
                cmp.add_pullback(f, Divisor.of(point), +1)
                cmp.add_pullback(g, Divisor.of(other), -1)
                out[name] = cmp.effective()
        return out

    def test_cold_and_warm_caches_agree(self):
        rng = random.Random(91)
        pool = TestFiberFactoring.pool()
        orders = [("pullback", "locus", "comparison"), ("locus", "comparison", "pullback")]
        seen = {"pairs": 0, "ramified": 0, "effective": 0}
        while seen["pairs"] < 200:
            f, g = (TestIntegerLoci.random_map(rng) for _ in range(2))
            if f.is_constant or g.is_constant:
                continue
            point, other = rng.choice(pool), rng.choice(pool)
            if seen["pairs"] % 4 == 0:  # a branch point, so the fiber ramifies
                point = rng.choice(TestFiberFactoring.branch_points(f) or pool)
            if seen["pairs"] % 3 == 0:  # f*[point] against itself under another key
                g, other = f, point
            order = orders[seen["pairs"] % 2]
            _fiber_cached.cache_clear()
            cold = self.answers(f, point, g, other, order)
            assert self.answers(f, point, g, other, order[::-1]) == cold
            assert cold["pullback"] == TestFiberFactoring.by_factor(f, point)
            pulled_g = pullback_divisor(g, Divisor.of(other))
            assert cold["comparison"] == (cold["pullback"] - pulled_g).is_effective
            for h, pt in ((f, point), (f, other), (g, other)):
                rec = _fiber_cached(h, pt)
                # every value the record hands out is immutable
                assert all(type(v) is tuple for v in (rec.ints, rec.points(h, pt)))
            seen["pairs"] += 1
            seen["ramified"] += any(m > 1 for _, m in cold["pullback"])
            seen["effective"] += cold["comparison"]
        assert seen["ramified"] >= 30 and 20 <= seen["effective"] <= 180, seen
        assert _fiber_cached.cache_info().hits > 0

    @staticmethod
    def comparison(pulls, growth=(), escapes=()) -> PullbackComparison:
        cmp = PullbackComparison()
        for h, d, sign in pulls:
            cmp.add_pullback(h, d, sign)
        for h, d in growth:
            cmp.add_growth(h, d)
        for h, pts in escapes:
            cmp.add_escape_map(h, pts)
        return cmp

    @staticmethod
    def reference(spec, fibers) -> tuple:
        """(effective, least level) read off the factored pullbacks: the pull terms
        alone are effective, and the least level away from the escaped points."""
        pulls, growth, escapes = spec
        pulled = sum((fibers[h, p] * (sign * m) for h, d, sign in pulls for p, m in d), Divisor.zero())
        grown = sum((fibers[h, p] * m for h, d in growth for p, m in d), Divisor.zero())
        gone = set().union(*(fibers[h, p].support() for h, pts in escapes for p in pts))
        bounds = [
            -(c // e) if e else None
            for c, e in ((pulled.multiplicity(p), grown.multiplicity(p)) for p in pulled.support() - gone)
            if c < 0
        ]
        return pulled.is_effective, None if None in bounds else max([0, *bounds])

    def three_ways(self, rng, spec):
        """The spec's answers with no fiber factored (the cache cleared), with every
        fiber factored, and with a seeded half factored first, each against the
        reference.  Returns the factored fibers, the reference, and the keys whose
        points the comparison knew in the cold and in the half-warm run."""
        pulls, growth, escapes = spec
        keys = list(dict.fromkeys([(h, p) for h, d, *_ in (*pulls, *growth) for p, _ in d]
                                  + [(h, p) for h, pts in escapes for p in pts]))

        def answers():
            return self.comparison(pulls).effective(), self.comparison(pulls, growth, escapes).least_level()

        _fiber_cached.cache_clear()
        cold = answers()
        # the comparison factored nothing
        assert all(_fiber_cached(h, p)._points is None for h, p in keys
                   if h.degree > 1 and len(_fiber_cached(h, p).ints) > 1)
        fibers = {(h, p): pullback_divisor(h, Divisor.of(p)) for h, p in keys}
        expected = self.reference(spec, fibers)
        assert cold == expected
        assert answers() == expected
        _fiber_cached.cache_clear()
        warmed = [(h, p) for h, p in keys if rng.random() < 0.5]
        for h, p in warmed:
            pullback_divisor(h, Divisor.of(p))
        assert answers() == expected
        moebius = {k for k in keys if k[0].degree == 1}
        return fibers, expected, (moebius, moebius | set(warmed))

    @staticmethod
    def known_meets_unknown(spec, fibers, known) -> set[str]:
        """How a point the comparison knows meets a live fiber form it does not:
        with multiplicity >= 2 in the form of another map, or inside an escaped form."""
        pulls, growth, escapes = spec
        coeff: dict = {}
        for h, d, sign in pulls:
            for p, m in d:
                coeff[h, p] = coeff.get((h, p), 0) + sign * m
        escaped = {(h, p) for h, pts in escapes for p in pts}
        live = {k for k, c in coeff.items() if c} | {(h, p) for h, d in growth for p, _ in d} | escaped
        cases = set()
        for k1 in live & known:
            for k2 in live - known:
                for q, _ in fibers[k1]:
                    mult = 0 if q.is_infinity else fibers[k2].multiplicity(q)
                    if mult >= 2 and k1[0] != k2[0]:
                        cases.add("exponent >= 2")
                    if mult and k2 in escaped:
                        cases.add("escaped over known")
        return cases

    def test_comparison_across_legs(self):
        # g = f + 1 pulls [P + 1] back to f*[P]: fibers of distinct points under
        # distinct maps share factors, while the same map on both legs merges terms.
        # The same legs then take escape maps, now and then under a term's own
        # (map, point) key, and growth terms along g over points of d2, and
        # least_level must give the level read off the factored pullbacks away
        # from the escaped points, whichever fibers were factored before
        rng, warm_rng = random.Random(93), random.Random(94)
        shift = rmap(X + ONE)
        seen = {"same map": 0, "shifted": 0, "effective": 0, "shared key": 0}
        levels = {"none": 0, "zero": 0, "positive": 0}
        for _ in range(240):
            f = TestIntegerLoci.random_map(rng)
            if f.is_constant:
                continue
            same = rng.random() < 0.4
            g = f if same else compose_maps(shift, f)
            points = rng.sample(TestIntegerLoci.POOL, rng.randint(1, 3))
            d1 = Divisor((p, rng.randint(1, 3)) for p in points)
            d2 = Divisor((p if same else point_image(shift, p), rng.randint(1, 3)) for p in points)
            escapes = [(rng.choice([f, g, RationalMap.identity()]), rng.sample(TestIntegerLoci.POOL, 1))
                       for _ in range(rng.randint(0, 1))]
            if rng.random() < 0.3:  # an escape under the key of an f*d1 term
                escapes.append((f, [rng.choice(points)]))
                seen["shared key"] += 1
            covered = rng.sample(sorted(d2.support(), key=lambda p: p.sort_key()), rng.randint(0, len(points)))
            growth = [(g, Divisor((p, rng.randint(1, 2)) for p in covered))]
            if rng.random() < 0.3:  # growth under the identity: a point minimal polynomial
                growth.append((RationalMap.identity(), Divisor.of(rng.choice(TestIntegerLoci.POOL))))
            _, (effective, expected), _ = self.three_ways(warm_rng, ([(f, d1, +1), (g, d2, -1)], growth, escapes))
            seen["same map" if same else "shifted"] += 1
            seen["effective"] += effective
            levels["none" if expected is None else "zero" if expected == 0 else "positive"] += 1
        assert min(seen.values()) >= 15, seen
        assert min(levels.values()) >= 25, levels

    MOEBIUS = [rmap(X.scale(2) + ONE, X - Poly.constant(3)), rmap(ONE, X), rmap(Poly.constant(-3) - X),
               rmap(X.scale(3) - ONE, X + ONE)]

    def test_known_points_inside_unfactored_fibers(self):
        # F = q^m (x + a) + b pulls [b] back to m[R] + [-a], with q the minimal
        # polynomial of R; R is known to the comparison as the fiber of the identity
        # or of a Moebius map mu over mu(R), while F's fiber over b stays a form until
        # its record is factored.  Terms over R weigh against m times F's, now and then
        # with F's fiber escaped or a growth term, and the three runs must agree
        rng, warm_rng = random.Random(95), random.Random(96)
        points = [p for p in TestIntegerLoci.POOL if not p.is_infinity]
        seen = {"exponent >= 2": 0, "escaped over known": 0, "moebius": 0}
        levels = {"none": 0, "zero": 0, "positive": 0}
        for _ in range(100):
            r, m, a, b = rng.choice(points), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            big_f = rmap(Poly(r.ints) ** m * (X + Poly.constant(a)) + Poly.constant(b))
            mu = rng.choice([RationalMap.identity(), *self.MOEBIUS])
            over_b, over_r = Divisor.of(ClosedPoint.rational(b)), Divisor.of(point_image(mu, r))
            sign = rng.choice([1, -1])
            pulls = [(big_f, over_b * rng.randint(1, 2), sign), (mu, over_r * rng.randint(1, 2 * m + 1), -sign)]
            growth = rng.choice([[], [(big_f, over_b)], [(mu, over_r)], [(big_f, over_b), (mu, over_r)]])
            escapes = [(big_f, [ClosedPoint.rational(b)])] if rng.random() < 0.35 else []
            spec = (pulls, growth, escapes)
            fibers, (_, expected), known = self.three_ways(warm_rng, spec)
            cases = set().union(*(self.known_meets_unknown(spec, fibers, k) for k in known))
            for case in cases:
                seen[case] += 1
            seen["moebius"] += not mu.is_identity
            levels["none" if expected is None else "zero" if expected == 0 else "positive"] += 1
        assert min(seen.values()) >= 15, seen
        assert min(levels.values()) >= 15, levels

    @staticmethod
    def subset_cases(a: Locus, covers: list[Locus]) -> set[str]:
        """The routes by which the comparison behind a ⊆ ∪ covers meets a's fibers: a
        known point of a inside a cover's unfactored form, a cover's known point divided
        out of a form of a, and a form of a that keeps a factor past the known points,
        which the gcd-free basis takes.  Read with Fraction arithmetic on the fiber
        records as they stand, each known or not by ``_Fiber.known``, as the comparison
        reads it."""
        def split(loci):
            points, forms = set(), []
            for loc in loci:
                for f, _, rec in loc.fibers:
                    known = rec.known(f)
                    if known is None:
                        forms.append(ref(squarefree_part(Poly(rec.ints))))
                    else:
                        points.update(q for q, _ in known)
            return points, forms

        (a_points, a_forms), (points, forms) = split([a]), split(covers)
        cases = set()
        if any(q not in points and any(Poly(q).divides(g) for g in forms) for q in a_points):
            cases.add("known point in a cover form")
        for rest in a_forms:
            divided = False
            for q in points:
                if Poly(q).divides(rest):
                    divided, rest = True, rest // Poly(q)
            if divided:
                cases.add("cover point in a form of a")
                if not rest.is_constant:
                    cases.add("cover points and forms")
        return cases

    def test_subset_across_cache_states(self):
        # F = q^m (x + a) + b pulls b back to R, the root of q, and to -a, and
        # G = (x + a)(x + e) + c pulls c back to -a and -e: both stay forms until
        # their records are factored.  R is known as the fiber of the identity or of
        # a Moebius map mu over mu(R), and -a as a point.  Each inclusion among these
        # loci, now and then with a random locus beside them, is decided cold, warm
        # and half-warm against the sets of the factored pullbacks
        rng, warm_rng = random.Random(97), random.Random(98)
        finite = [p for p in TestIntegerLoci.POOL if not p.is_infinity]
        seen = {"known point in a cover form": 0, "cover point in a form of a": 0, "cover points and forms": 0,
                "moebius": 0}
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            r, m = rng.choice(finite), rng.randint(1, 2)
            a, b, c, e = (rng.randint(-3, 3) for _ in range(4))
            big_f = rmap(Poly(r.ints) ** m * (X + Poly.constant(a)) + Poly.constant(b))
            g = rmap((X + Poly.constant(a)) * (X + Poly.constant(e)) + Poly.constant(c))
            mu = rng.choice([RationalMap.identity(), *self.MOEBIUS])
            over_r = (mu, [point_image(mu, r)])
            over_b, over_c = (big_f, [ClosedPoint.rational(b)]), (g, [ClosedPoint.rational(c)])
            minus_a = (None, [ClosedPoint.rational(-a)])
            a_spec, covers = rng.choice([
                (over_r, [over_b]), (over_r, [over_c, minus_a]), (over_b, [over_r, minus_a]),
                (over_b, [over_r, over_c]), (over_b, [over_r]), (over_b, [over_c]),
            ])
            if rng.random() < 0.3:
                covers = covers + [TestIntegerLoci().random_spec(rng)]
            rng.shuffle(covers)
            specs = [a_spec, *covers]
            # each verdict and its routes are read before the reference factors the fibers
            runs = [(locus_subset(*built), self.subset_cases(built[0], built[1:]))
                    for built in TestIntegerLoci.three_states(warm_rng, specs)]
            expected = self.reference_subset(specs)
            for verdict, cases in runs:
                assert verdict == expected
                if expected:
                    for case in cases:
                        seen[case] += 1
            seen["moebius"] += not mu.is_identity and mu in (a_spec[0], *(h for h, _ in covers))
            verdicts[expected] += 1
        assert min(seen.values()) >= 15, seen
        assert min(verdicts.values()) >= 15, verdicts

    @staticmethod
    def reference_subset(specs) -> bool:
        """The first spec's locus lies in the union of the others', on factored pullbacks."""
        sets = [set(pts) if h is None else pullback_divisor(h, Divisor((p, 1) for p in pts)).support()
                for h, pts in specs]
        return sets[0] <= set().union(*sets[1:])

    def test_subset_with_shared_keys(self):
        # a and a cover record the fiber of one map over the same point, so the comparison
        # holds that fiber in one entry that weighs -1 and escapes; each ramified map of
        # TestIntegerLoci ramifies over 0, whose fiber stays a form until its record is
        # factored.  a also takes fibers of its own, which a second cover, under the
        # same map or another, may take; x ⊆ x must hold for every locus, and each
        # verdict is read cold, warm and half-warm against the factored pullbacks
        rng, warm_rng = random.Random(99), random.Random(100)
        others = [p for p in TestIntegerLoci.POOL if p != P0]
        seen = {"shared ramified form": 0, "shared known points": 0}
        verdicts = {True: 0, False: 0}
        for _ in range(80):
            f = rng.choice(TestIntegerLoci.RAMIFIED)
            picked = rng.sample(others, rng.randint(0, 5))
            cut1, cut2 = sorted(rng.randint(0, len(picked)) for _ in range(2))
            shared, own, cover_own = [P0, *picked[:cut1]], picked[cut1:cut2], picked[cut2:]
            specs = [(f, shared + own), (f, shared + cover_own)]
            roll = rng.random()
            if roll < 0.3 and own:  # the same map over some of a's own points
                specs.append((f, rng.sample(own, rng.randint(1, len(own)))))
            elif roll < 0.5:
                specs.append(TestIntegerLoci().random_spec(rng))
            runs = []
            for built in TestIntegerLoci.three_states(warm_rng, specs):
                a = built[0]
                unknown = any(p == P0 and rec.known(h) is None for h, p, rec in a.fibers)
                runs.append((locus_subset(*built), locus_subset(a, a), locus_subset(a, *built[1:], a)))
                seen["shared ramified form" if unknown else "shared known points"] += 1
            expected = self.reference_subset(specs)
            assert runs == [(expected, True, True)] * 3
            assert any(m > 1 for _, m in pullback_divisor(f, Divisor.of(P0)))
            verdicts[expected] += 1
        assert min(seen.values()) >= 15, seen
        assert min(verdicts.values()) >= 15, verdicts

    def test_fiber_data_rejects_constant_maps(self):
        with pytest.raises(DegenerateInput):
            fiber_data(self.CONSTANT, SQRT2)

    def test_pullback_rejects_constant_maps(self):
        with pytest.raises(DegenerateInput):
            pullback_divisor(self.CONSTANT, Divisor.of(SQRT2))

    def test_add_pullback_rejects_constant_maps(self):
        cmp = PullbackComparison()
        with pytest.raises(DegenerateInput):
            cmp.add_pullback(self.CONSTANT, Divisor.of(SQRT2), +1)

    def test_add_escape_map_rejects_constant_maps(self):
        _fiber_cached.cache_clear()
        cmp = PullbackComparison()
        with pytest.raises(DegenerateInput):
            cmp.add_escape_map(self.CONSTANT, [SQRT2, INFINITY])
        assert _fiber_cached.cache_info().currsize == 0  # no record was built
