"""Divisor calculus on the line: pullback, pushforward, minimum, splitting."""

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
        for p in (SQRT2, P0, ClosedPoint.finite(X.scale(2) - Poly.constant(6))):
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
