"""Divisor calculus on the line: pullback, pushforward, minimum, splitting."""

import math
import random
from fractions import Fraction

import pytest

from modtriples import (
    INFINITY,
    ClosedPoint,
    DegenerateInput,
    Divisor,
    NotEffective,
    Poly,
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
    LocusKind,
    PullbackComparison,
    _fiber_cached,
    fiber_data,
    locus_subset,
    locus_subtract,
    locus_union,
    points_locus,
    preimage_locus,
)
from modtriples import divisors, ratpoly
from modtriples.ratpoly import factor, poly_gcd, squarefree_part

X = Poly.x()
ONE = Poly.one()
P0 = ClosedPoint.rational(0)
P1 = ClosedPoint.rational(1)
PM1 = ClosedPoint.rational(-1)
P2 = ClosedPoint.rational(2)
SQRT2 = ClosedPoint.finite(X**2 - Poly.constant(2))
SQ = RationalMap.polynomial(X**2)


def rmap(num, den=ONE) -> RationalMap:
    return RationalMap.from_fraction(num, den)


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
            ClosedPoint.finite(X**2 - ONE)

    def test_monic_normalization(self):
        assert ClosedPoint.finite(X.scale(2) - Poly.constant(6)) == ClosedPoint.rational(3)

    def test_degrees(self):
        assert INFINITY.degree == 1
        assert SQRT2.degree == 2


class TestPrincipal:
    def test_coordinate(self):
        assert principal_divisor(RationalMap.identity()) == Divisor([(P0, 1), (INFINITY, -1)])

    def test_zeros_and_poles(self):
        f = rmap(X**2 + ONE, X)
        expected = Divisor([(ClosedPoint.finite(X**2 + ONE), 1), (P0, -1), (INFINITY, -1)])
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
        pool = Divisor([(P0, 2), (INFINITY, 1), (ClosedPoint.finite(X**2 + ONE), 3)])
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
        probe = ClosedPoint.finite(X**2 - Poly.constant(3))
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
        points = [ClosedPoint.finite(q) for q in random_point_polys(rng, 12, degrees=(2, 4))]
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
            Poly.from_int_coeffs([-2, 0, 1]),
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
        made = [ClosedPoint.finite(q) for q in random_point_polys(rng, 150)]
        assert sum(p.ints[-1] > 1 for p in made) >= 100  # mostly non-monic integer forms
        for p in [SQRT2, P0, ClosedPoint.finite(X.scale(2) - Poly.constant(6))] + made:
            assert hash(p) == hash(("pt", p.minimal_poly))
            assert p.sort_key() == (1,) + p.minimal_poly.sort_key()
        assert hash(INFINITY) == hash(("pt", None)) and INFINITY.sort_key() == (0,)
        assert ClosedPoint.finite(X**2 - Poly.constant(2)) == SQRT2

    def test_divisor_independent_of_entry_order(self):
        rng = random.Random(11)
        pool = [INFINITY, P0, P1, PM1, P2, SQRT2, ClosedPoint.finite(X**2 + ONE)]
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
        pool = [INFINITY, P0, P1, PM1, P2, SQRT2, ClosedPoint.finite(X**2 + ONE)]
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

    @pytest.mark.parametrize("name", ["minimal_poly", "_hash", "_key", "extra"])
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
    """Maps keep integer tuples and points their integer form; the Poly views
    give the same sort keys, hashes and maps."""

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
                assert f.num is None and f.den is None
                assert f.sort_key() == (0,) + f.const.sort_key()
                assert hash(f) == hash(("map", None, None, f.const))
                continue
            assert f.sort_key() == (1, f.num.sort_key(), f.den.sort_key())
            assert hash(f) == hash(("map", f.num, f.den, None))
            assert RationalMap.from_fraction(f.num, f.den) == f
            assert f.is_identity == (f.num == X and f.den == ONE)
            assert all(isinstance(v, int) for v in f.nz + f.dz)
        assert sum(f.is_identity for f in maps) >= 3
        assert sum(not f.is_constant and f.degree == 1 for f in maps) >= 30

    def test_point_integer_form(self):
        rng = random.Random(19)
        polys = random_point_polys(rng, 150)
        for point in TestIntegerLoci.POOL[1:] + [ClosedPoint.finite(q) for q in polys]:
            ints = point.ints
            assert ints == tuple(point.minimal_poly.int_primitive()[1])
            assert point.ints is ints  # stored, not recomputed
            assert all(type(v) is int for v in ints) and ints[-1] > 0 and math.gcd(*ints) == 1
            assert ClosedPoint(ints) == point and hash(ClosedPoint(ints)) == hash(point)
        for q in polys:
            ints = q.int_primitive()[1]
            point = ClosedPoint.finite(q)
            assert point == ClosedPoint(ints) == ClosedPoint.finite(q.scale(Fraction(-2, 3)))
            assert point.minimal_poly == q.monic() and point.degree == len(ints) - 1
            if point.degree == 1:
                assert point == ClosedPoint.rational(point.rational_value())


class TestIntegerLoci:
    """The Z[x] locus algebra and map composition against Fraction references.

    References are monic Fraction polynomials built with Poly arithmetic:
    the product of the squarefree parts of the fibers, and gcd, exact
    division and divisibility over Q.
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
        ClosedPoint.finite(X**2 + ONE),
        ClosedPoint.finite(X**2 + X + ONE),
        ClosedPoint.finite(X**3 - Poly.constant(2)),
        ClosedPoint.finite((X**2).scale(3) - Poly.constant(5)),
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
        """The locus polynomial as a monic Fraction Poly, after checking its form."""
        coeffs = locus.poly
        assert all(isinstance(c, int) for c in coeffs)
        assert coeffs[-1] > 0 and math.gcd(*coeffs) == 1
        return Poly(coeffs).monic()

    @staticmethod
    def reference_preimage(f: RationalMap, points: list[ClosedPoint]) -> tuple[Poly, bool]:
        poly, inf = ONE, False
        for p in points:
            g, k = fiber_data(f, p)
            inf = inf or k > 0
            poly = poly * squarefree_part(g)
        return poly.monic(), inf

    def random_locus(self, rng: random.Random) -> Locus:
        f = self.random_map(rng)
        if f.is_constant or rng.random() < 0.2:
            return points_locus(self.random_points(rng))
        return preimage_locus(f, self.random_points(rng))

    def test_preimage_matches_fraction_product(self):
        rng = random.Random(61)
        checked = 0
        for i in range(300):
            f = self.RAMIFIED[i] if i < len(self.RAMIFIED) else self.random_map(rng)
            pts = self.POOL if i < len(self.RAMIFIED) else self.random_points(rng)
            loc = preimage_locus(f, pts)
            if f.is_constant:
                assert loc == (Locus.everything() if f.const in pts else Locus.empty())
                continue
            poly, inf = self.reference_preimage(f, pts)
            assert loc.kind is LocusKind.FINITE
            assert (self.monic(loc), loc.has_infinity) == (poly, inf)
            # and as sets: a rational t lies in the locus iff f(t) is one of the points
            assert loc.has_infinity == (f.value_at(INFINITY) in pts)
            for t in range(-4, 5):
                hit = f.value_at(ClosedPoint.rational(t)) in pts
                assert (Poly(loc.poly)(Fraction(t)) == 0) == hit
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
                    expected = expected * p.minimal_poly
            assert self.monic(loc) == expected
            assert loc.has_infinity == (INFINITY in pts)
            assert loc.is_empty == (not pts)

    def test_algebra_matches_fraction_gcds(self):
        rng = random.Random(63)
        for _ in range(300):
            a, b = self.random_locus(rng), self.random_locus(rng)
            if a.kind is not LocusKind.FINITE or b.kind is not LocusKind.FINITE:
                continue
            pa, pb = self.monic(a), self.monic(b)
            g = poly_gcd(pa, pb)
            subset = pa.divides(pb) and (b.has_infinity or not a.has_infinity)
            assert locus_subset(a, b) == subset
            diff = locus_subtract(a, b)
            assert self.monic(diff) == (pa // g).monic()
            assert diff.has_infinity == (a.has_infinity and not b.has_infinity)
            union = locus_union(a, b)
            assert self.monic(union) == (pa * (pb // g)).monic()
            assert union.has_infinity == (a.has_infinity or b.has_infinity)
            # the laws the position checks rely on
            assert locus_subset(a, union) and locus_subset(b, union)
            assert locus_subset(diff, a) and locus_subset(a, locus_union(diff, b))

    def test_algebra_with_infinite_loci(self):
        rng = random.Random(64)
        everything, empty = Locus.everything(), Locus.empty()
        for _ in range(50):
            a = self.random_locus(rng)
            assert locus_subset(empty, a) and locus_subset(a, everything)
            assert locus_union(a, everything) == everything
            assert locus_subtract(a, everything) == empty
            assert locus_subtract(a, empty) == a and locus_union(a, empty) == a
            if a.kind is LocusKind.FINITE:
                assert not locus_subset(everything, a)
                assert not locus_subset(locus_subtract(everything, a), a)

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
            num, den = comp.num, comp.den
            assert all(c.denominator == 1 for c in num.coeffs + den.coeffs)
            assert poly_gcd(num, den) == ONE
            assert math.gcd(*(int(c) for c in num.coeffs + den.coeffs)) == 1
            assert den.leading > 0
            # the outer map's homogenized forms at the inner pair, over Q
            d = g.degree
            ref_num = ref_den = Poly.zero()
            for i in range(d + 1):
                term = f.num**i * f.den ** (d - i)
                ref_num = ref_num + term.scale(g.num[i])
                ref_den = ref_den + term.scale(g.den[i])
            assert comp == rmap(ref_num, ref_den)
            points = 0
            for t in samples:
                ft_den = f.den(t)
                if not ft_den:
                    continue
                ft = f.num(t) / ft_den
                gt_den = g.den(ft)
                if not gt_den or not den(t):
                    continue
                assert num(t) / den(t) == g.num(ft) / gt_den
                points += 1
                if points == 5:
                    break
            assert points == 5
            checked += 1
        assert checked >= 120

    def test_from_fraction_cancels_common_factors(self):
        rng = random.Random(66)
        checked = 0
        for _ in range(100):
            f = self.random_map(rng)
            common = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
            if f.is_constant or common.is_zero:
                continue
            scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4, 9]))
            sign = rng.choice([1, -1])
            g = rmap((f.num * common).scale(scale * sign), (f.den * common).scale(scale))
            assert g == rmap(f.num.scale(sign), f.den)
            assert g.den.leading > 0 and poly_gcd(g.num, g.den) == ONE
            checked += 1
        assert checked >= 60


class TestFiberFactoring:
    """pullback_divisor, which certifies a fiber over a point of degree >= 2
    one residue factor at a time and skips factoring under degree-1 maps,
    against factor() of the same fiber form."""

    SQRTM1 = ClosedPoint.finite(X**2 + ONE)
    PINNED = [
        # reducible: x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
        (SQ, ClosedPoint.finite(X**2 + Poly.constant(4)), 2),
        (rmap(Poly((1, -2, -8)), Poly.constant(5)), SQRTM1, 2),
        # ramified: (3x^2 + 4)(3x^2 + 1)^2, and (x^2 - 2)^2, a single Yun part
        (rmap(X**3 + X), ClosedPoint.finite((X**2).scale(27) + Poly.constant(4)), 2),
        (rmap(X**2 + Poly.constant(2), X.scale(2)), SQRT2, 1),
        # num and den share a root mod 5: a Moebius map, also over its value
        # at infinity, and a cubic whose den vanishes mod 5 and whose
        # fiber is lifted
        (rmap(X + Poly.constant(3), X - Poly.constant(2)), SQRTM1, 1),
        (rmap(X + Poly.constant(3), X - Poly.constant(2)), P1, 1),
        (rmap(Poly((-4, -1, 1, 3)), Poly.constant(5)), ClosedPoint.finite(Poly((5, -3, 3))), 1),
        # irreducible: x^4 + 1, closed one residue factor at a time, and a
        # fiber that no prime closes, so lifting proves it
        (SQ, SQRTM1, 1),
        (rmap(Poly((3, 3, 4)), Poly.constant(2)), SQRTM1, 1),
    ]

    @staticmethod
    def pool() -> list[ClosedPoint]:
        """Points of degree 1 to 6: infinity, rational and low-degree points,
        and the points of a few pullbacks."""
        base = [INFINITY, P0, P1, PM1, P2, ClosedPoint.rational(Fraction(-3, 4)), SQRT2,
                ClosedPoint.finite(X**2 + ONE), ClosedPoint.finite(X**2 + X + ONE),
                ClosedPoint.finite((X**2).scale(3) - Poly.constant(5)),
                ClosedPoint.finite(X**3 - Poly.constant(2))]
        pulled = set()
        for f, pt in [(rmap(X**2 + X), SQRT2), (rmap(X**5 - X - ONE), P0),
                      (rmap(X**3 - X + ONE, X), ClosedPoint.finite(X**2 + ONE)),
                      (rmap(X**2 - Poly.constant(3), X + ONE), ClosedPoint.finite(X**3 - Poly.constant(2)))]:
            pulled |= pullback_divisor(f, Divisor.of(pt)).support()
        assert {p.degree for p in pulled} >= {4, 5, 6}
        return base + sorted(pulled, key=ClosedPoint.sort_key)

    @staticmethod
    def by_factor(f: RationalMap, point: ClosedPoint) -> Divisor:
        g, k = fiber_data(f, point)
        acc = [(INFINITY, k)] if k else []
        if not g.is_constant:
            acc += [(ClosedPoint.finite(q), m) for q, m in factor(g)]
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

        wronskian = deriv(f.num) * f.den - f.num * deriv(f.den)
        if wronskian.is_constant:
            return []
        images = {point_image(f, ClosedPoint.finite(q)) for q, _ in factor(wronskian)}
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
        # polynomial never close; over x^2 + 1 = (x - 2)(x + 2) mod 5 the
        # residue fiber x^2 - 2 is irreducible, which rules out K-degree 1.
        # Both fibers are irreducible, as ClosedPoint.finite checks.
        cases = [(SQ, False), (rmap(Poly((3, 3, 4)), Poly.constant(2)), True)]
        expected = [Divisor.of(ClosedPoint.finite(fiber_data(f, self.SQRTM1)[0])) for f, _ in cases]
        lifts = []
        recombine = ratpoly._recombine
        monkeypatch.setattr(ratpoly, "_recombine", lambda *args: lifts.append(1) or recombine(*args))
        for (f, lifted), divisor in zip(cases, expected):
            lifts.clear()
            _fiber_cached.cache_clear()  # a fiber's points are built once per session
            assert pullback_divisor(f, Divisor.of(self.SQRTM1)) == divisor
            assert bool(lifts) == lifted


class TestFiberRecords:
    """The cached fiber record of each (map, point) pair serves pullback_divisor,
    preimage_locus and PullbackComparison alike, whichever consumer fills it
    first, and hands out nothing a caller could change."""

    CONSTANT = RationalMap.constant(P1)

    @staticmethod
    def answers(f, point, g, other, order):
        """The three consumers' answers for f over point, asked in the given
        order; the comparison is of f*[point] against g*[other]."""
        out = {}
        for name in order:
            if name == "pullback":
                out[name] = pullback_divisor(f, Divisor.of(point))
            elif name == "locus":
                out[name] = preimage_locus(f, [point, other])
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
                # every value the record hands out is immutable, and the Yun
                # parts are gone once the points exist
                assert all(type(v) is tuple for v in (rec.ints, rec.squarefree(), rec.points(h, pt)))
                assert rec._parts is None
            assert type(cold["locus"].poly) is tuple
            seen["pairs"] += 1
            seen["ramified"] += any(m > 1 for _, m in cold["pullback"])
            seen["effective"] += cold["comparison"]
        assert seen["ramified"] >= 30 and 20 <= seen["effective"] <= 180, seen
        assert _fiber_cached.cache_info().hits > 0

    def test_comparison_across_legs(self):
        # g = f + 1 pulls [P + 1] back to f*[P]: fibers of distinct points under
        # distinct maps share factors, while the same map on both legs merges terms
        rng = random.Random(93)
        shift = rmap(X + ONE)
        seen = {"same map": 0, "shifted": 0, "effective": 0}
        for _ in range(120):
            f = TestIntegerLoci.random_map(rng)
            if f.is_constant:
                continue
            same = rng.random() < 0.4
            g = f if same else compose_maps(shift, f)
            points = rng.sample(TestIntegerLoci.POOL, rng.randint(1, 3))
            d1 = Divisor((p, rng.randint(1, 3)) for p in points)
            d2 = Divisor((p if same else point_image(shift, p), rng.randint(1, 3)) for p in points)
            cmp = PullbackComparison()
            cmp.add_pullback(f, d1, +1)
            cmp.add_pullback(g, d2, -1)
            expected = (pullback_divisor(f, d1) - pullback_divisor(g, d2)).is_effective
            assert cmp.effective() == expected
            seen["same map" if same else "shifted"] += 1
            seen["effective"] += expected
        assert min(seen.values()) >= 15, seen

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
