"""Kernel tests: gcd, squarefree decomposition, factorization, resultants."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modtriples import (
    ClosedPoint,
    DegenerateInput,
    Poly,
    factor,
    is_irreducible,
    poly_gcd,
    resultant,
    squarefree_decomposition,
)
from modtriples import oracles
from modtriples.oracles import OracleBudgetExceeded, verify_irreducible
from modtriples.ratpoly import _pddf, _pdivmod, _pgcd, _pmonic, _ppowmod, _zderiv, _zhomog, _zsub, squarefree_part

X = Poly.x()
ONE = Poly.one()


def c(v) -> Poly:
    return Poly.constant(v)


def odd_primorial(limit: int) -> int:
    """The product of the odd primes below limit."""
    return math.prod(n for n in range(3, limit, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2)))


def eisenstein(q: int, d: int, rng: random.Random) -> Poly:
    """A monic degree-d polynomial, irreducible by Eisenstein's criterion at q."""
    low = [q * rng.randint(-3, 3) for _ in range(d)]
    low[0] = q * rng.choice([u for u in range(-4, 5) if u % q])
    return Poly(low + [1])


small_polys = st.builds(
    Poly,
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=7),
)


class TestPower:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 16])
    def test_matches_repeated_product(self, n):
        base = X * X - c(3) * X + c(Fraction(1, 2))
        expected = ONE
        for _ in range(n):
            expected = expected * base
        assert base**n == expected


class TestGcd:
    def test_shared_root(self):
        assert poly_gcd(X**2 - ONE, X - ONE) == X - ONE

    def test_coprime_linears(self):
        assert poly_gcd(X, X + ONE) == ONE

    def test_euclidean_example(self):
        # by hand: x^4-1 = (x^2+1)(x^2-1), so the gcd with x^2-1 is x^2-1
        assert poly_gcd(X**4 - ONE, X**2 - ONE) == X**2 - ONE

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            poly_gcd(Poly.zero(), Poly.zero())

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_divides_both_and_scales(self, a, b, extra):
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        assert g.divides(a) and g.divides(b)
        if not extra.is_zero and not (a * extra).is_zero:
            scaled = poly_gcd(a * extra, b * extra)
            if not b.is_zero or not a.is_zero:
                assert scaled == (g * extra).monic()


class TestSquarefree:
    def test_cube_minus_square(self):
        assert squarefree_decomposition(X**3 - X**2) == [(1, X - ONE), (2, X)]

    def test_already_squarefree(self):
        assert squarefree_decomposition(X**2 + ONE) == [(1, X**2 + ONE)]

    def test_two_double_roots(self):
        p = (X - ONE) ** 2 * (X + c(2)) ** 2
        assert squarefree_decomposition(p) == [(2, (X - ONE) * (X + c(2)))]

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            squarefree_decomposition(Poly.zero())

    @given(small_polys)
    @settings(max_examples=80, deadline=None)
    def test_parts_pairwise_coprime(self, p):
        if p.is_zero or p.is_constant:
            return
        parts = squarefree_decomposition(p)
        mults = [m for m, _ in parts]
        assert mults == sorted(set(mults))
        for i, (_, a) in enumerate(parts):
            for _, b in parts[i + 1 :]:
                assert poly_gcd(a, b) == ONE
        rebuilt = Poly.constant(p.leading)
        for m, part in parts:
            rebuilt = rebuilt * part**m
        assert rebuilt == p


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, by dividing x^n - 1 by the others."""
    out = X**n - ONE
    for d in range(1, n):
        if n % d == 0:
            out = out // cyclotomic(d)
    return out


def product(parts) -> Poly:
    out = ONE
    for q in parts:
        out = out * q
    return out


class TestYun:
    """Exact parts of squarefree_decomposition, factor and squarefree_part on
    inputs whose factorization is known by construction."""

    @staticmethod
    def check(p: Poly, unit: Fraction, parts: dict) -> None:
        """parts maps each monic irreducible factor of p to its multiplicity."""
        by_mult: dict = {}
        for q, m in parts.items():
            by_mult.setdefault(m, []).append(q)
        expected = [(m, product(sorted(qs, key=Poly.sort_key))) for m, qs in sorted(by_mult.items())]
        assert squarefree_decomposition(p) == expected
        out = factor(p)
        assert out.unit == unit
        assert out.factors == tuple(sorted(parts.items(), key=lambda item: item[0].sort_key()))
        assert squarefree_part(p) == product(parts)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_products(self, seed):
        rng = random.Random(seed)
        unit = Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.choice([1, 2, 9, 10]))
        # multiplicities with gaps, e.g. 1, 3 and 5 but no 2 or 4
        mults = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        parts: dict = {}
        for q_prime in (2, 3, 5, 7, 11):
            q = eisenstein(q_prime, rng.randint(1, 6), rng)
            if q not in parts:
                parts[q] = rng.choice(mults)
        p = c(unit)
        for q, m in parts.items():
            p = p * q**m
        self.check(p, unit, parts)

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (6, 1), (12, 3), (17, 2), (24, 2), (30, 1), (30, 2)])
    def test_cyclotomic_powers(self, n, k):
        parts = {cyclotomic(d): k for d in range(1, n + 1) if n % d == 0}
        self.check((X**n - ONE) ** k, Fraction(1), parts)

    def test_degree_above_100(self):
        rng = random.Random(101)
        parts = {eisenstein(q, d, rng): m for q, d, m in ((2, 6, 5), (3, 6, 4), (5, 5, 3), (7, 4, 5), (11, 5, 3))}
        p = c(Fraction(-3, 4))
        for q, m in parts.items():
            p = p * q**m
        assert p.degree > 100
        self.check(p, Fraction(-3, 4), parts)

    def test_degree_120_cyclotomic_fourth_power(self):
        p = (X**30 - ONE) ** 4
        assert p.degree == 120
        self.check(p, Fraction(1), {cyclotomic(d): 4 for d in (1, 2, 3, 5, 6, 10, 15, 30)})


class TestFactor:
    def test_rational_roots(self):
        out = factor(X**2 - ONE)
        assert out.unit == 1
        assert out.factors == ((X - ONE, 1), (X + ONE, 1))

    def test_irreducible_quadratic(self):
        out = factor(X**2 + ONE)
        assert out.factors == ((X**2 + ONE, 1),)

    def test_sophie_germain_shape(self):
        # the two quadratics multiply back to x^4 + 4
        out = factor(X**4 + c(4))
        assert out.expand() == X**4 + c(4)
        assert out.factors == (
            (Poly((2, -2, 1)), 1),
            (Poly((2, 2, 1)), 1),
        )

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            factor(Poly.zero())

    def test_unit_and_multiplicity(self):
        p = (X - ONE) ** 2 * (X**2 + ONE)
        out = factor(p.scale(Fraction(3, 2)))
        assert out.unit == Fraction(3, 2)
        assert out.factors == ((X - ONE, 2), (X**2 + ONE, 1))

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_multiply_back(self, a, b):
        prod = a * b
        if prod.is_zero:
            return
        out = factor(prod)
        assert out.expand() == prod

    def test_swinnerton_dyer_octic(self):
        # irreducible, yet it splits into factors of degree <= 2 mod every
        # prime, so no degree pattern proves it: lifting and recombination do
        sd = Poly((576, 0, -960, 0, 352, 0, -40, 0, 1))
        ints = [int(v) for v in sd.coeffs]
        for p in (7, 11, 13, 17, 19):  # 2, 3 and 5 divide the discriminant
            assert max(d for d, _ in _pddf(_pmonic(ints, p), p)) <= 2
        assert factor(sd).factors == ((sd, 1),)

    def test_equal_degree_split(self):
        quadratics = [X**2 + c(k) for k in (1, 2, 3, 5, 7, 11)]
        prod = ONE
        for q in quadratics:
            prod = prod * q
        out = factor(prod)
        assert out.factors == tuple((q, 1) for q in sorted(quadratics, key=Poly.sort_key))

    @pytest.mark.parametrize(
        "shape",
        [((40, 1),), ((40, 1), (3, 2)), ((17, 1), (11, 2), (6, 3)), ((1, 3), (2, 2), (24, 1), (9, 1))],
    )
    def test_eisenstein_products(self, shape):
        rng = random.Random(sum(d * m for d, m in shape))
        parts = [(eisenstein(q, d, rng), m) for q, (d, m) in zip((2, 3, 5, 7), shape)]
        prod = c(Fraction(-5, 3))
        for q, m in parts:
            prod = prod * q**m
        out = factor(prod)
        assert out.unit == Fraction(-5, 3)
        assert out.factors == tuple(sorted(parts, key=lambda item: item[0].sort_key()))

    @pytest.mark.parametrize("degree,tail", [(2, 1), (4, -1)])
    def test_no_small_prime_of_good_reduction(self, degree, tail):
        # every odd prime below 20000 divides the leading coefficient
        n = odd_primorial(20000)
        out = factor(Poly([tail] + [0] * (degree - 1) + [n]))
        assert out.unit == n
        assert out.factors == ((Poly([Fraction(tail, n)] + [0] * (degree - 1) + [1]), 1),)

    def test_quadratics_against_rational_roots(self):
        # a quadratic splits over Q exactly when it has a root r/s with r | c and s | a
        rng = random.Random(81)
        split = 0
        for i in range(400):
            if i % 2:
                a, b = rng.randint(1, 12), rng.randint(-12, 12) or 1
                cc, d = rng.randint(-12, 12) or 1, rng.randint(-12, 12) or 1
                p = Poly((b, a)) * Poly((d, cc))
            else:
                p = Poly((rng.randint(-30, 30) or 1, rng.randint(-30, 30), rng.randint(1, 30)))
            a0, a2 = int(p.coeffs[0]), int(p.coeffs[2])
            roots = {Fraction(sgn * r, s) for r in range(1, abs(a0) + 1) if a0 % r == 0
                     for s in range(1, abs(a2) + 1) if a2 % s == 0 for sgn in (1, -1)}
            roots = {t for t in roots if p(t) == 0}
            out = factor(p)
            assert out.expand() == p
            assert is_irreducible(p) == (not roots)
            if roots:
                split += 1
                assert {-q.coeffs[0] for q, _ in out} == roots
                assert all(q.degree == 1 for q, _ in out)
            else:
                assert out.factors == ((p.monic(), 1),)
        assert split >= 200

    def test_outputs_certified_irreducible(self):
        samples = [
            X**4 + c(4),
            X**6 - ONE,
            (X**2 + ONE) * (X**3 - c(2)),
            X**5 - X - ONE,
            X**4 + ONE,
        ]
        for p in samples:
            for q, _ in factor(p):
                assert verify_irreducible(q)


def _plain_ddf(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorization on unpacked lists: gcd(f, x^(p^d) - x)."""
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _ppowmod(h, p, f, p)
        g = _pgcd(f, _zsub(h, [0, 1]), p)
        if len(g) > 1:
            out.append((d, g))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


class TestPackedDdf:
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 101, 65537])
    def test_matches_plain_ddf(self, p):
        # residues near p - 1 fill the packed slots the most
        rng = random.Random(p)
        checked = 0
        while checked < 12:
            n = rng.randint(2, 48)
            f = [rng.choice((rng.randrange(p), p - 1)) for _ in range(n)] + [1]
            if len(_pgcd(f, _zderiv(f), p)) != 1:
                continue
            assert _pddf(f, p) == _plain_ddf(f, p)
            checked += 1

    @pytest.mark.parametrize(
        "p,f",
        [
            (17, [16] * 8 + [9, 3, 15, 3, 16, 1]),
            (17, [16] * 8 + [8] + [16] * 4 + [1]),
            (31, [30, 10, 4, 30, 30, 11, 12, 8, 1]),
        ],
    )
    def test_full_slots(self, p, f):
        # packed sums here exceed a quarter of the slot bound 2^w > 2np^2
        assert _pddf(f, p) == _plain_ddf(f, p)


class TestIsIrreducible:
    """is_irreducible decides from the integer form without factor: the
    independent oracle (degree <= 6) and factor (degree <= 12) are the
    references."""

    @staticmethod
    def by_factor(p: Poly) -> bool:
        if p.is_constant:
            return False
        parts = factor(p).factors
        return len(parts) == 1 and parts[0][1] == 1

    def check(self, p: Poly) -> bool:
        """Compare with the references; False if the oracle refused."""
        got = is_irreducible(p)
        assert got == self.by_factor(p), p
        if p.degree <= 6:
            try:
                assert got == verify_irreducible(p), p
            except OracleBudgetExceeded:  # a factor search too large to enumerate
                return False
        return True

    @pytest.mark.parametrize(
        "p,expected",
        [
            (Poly.zero(), False),
            (c(5), False),
            (c(Fraction(-2, 3)), False),
            (X, True),
            (X.scale(Fraction(3, 4)) - c(Fraction(1, 7)), True),
            (X**2 - c(4), False),  # square discriminant
            (X**2 - c(2), True),  # non-square discriminant
            (X**2 + X + ONE, True),  # negative discriminant
            (X**2 - c(2) * X + ONE, False),  # zero discriminant, a double root
            ((X**2).scale(Fraction(1, 2)) - c(2), False),  # 1/2*x^2 - 2
            (X**2 - c(Fraction(1, 4)), False),
            (c(3) * X**2 + ONE, True),
            (X**2 + X.scale(Fraction(1, 3)) + c(Fraction(5, 2)), True),
            ((X**2 + ONE) ** 2, False),
            ((X - ONE) ** 3, False),
            ((X**3 - c(2)) * (X - ONE) ** 2, False),
            (X**3 - c(2), True),
            (X**4 + c(4), False),
            # x^4 + 1 splits into quadratics mod every prime, so the degree
            # patterns never certify it and the lifting fallback decides
            (X**4 + ONE, True),
            (Poly((576, 0, -960, 0, 352, 0, -40, 0, 1)), True),  # Swinnerton-Dyer
            (Poly((576, 0, -960, 0, 352, 0, -40, 0, 1)) * (X**2 - c(3)), False),
        ],
    )
    def test_fixed_inputs(self, p, expected):
        assert is_irreducible(p) == expected
        assert self.check(p)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_against_references(self, seed):
        rng = random.Random(seed)

        def random_poly(degree: int) -> Poly:
            coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2, 5])]
            return Poly(coeffs).scale(Fraction(rng.choice([-5, -1, 1, 3]), rng.choice([1, 2, 7])))

        verdicts, oracle_checked = set(), 0
        for _ in range(25):
            if rng.random() < 0.5:
                p = random_poly(rng.randint(1, 12))
            else:  # reducible by construction, sometimes not squarefree
                a = random_poly(rng.randint(1, 4))
                p = a * (a if rng.random() < 0.3 else random_poly(rng.randint(1, 8)))
            if self.check(p) and p.degree <= 6:
                oracle_checked += 1
            verdicts.add(is_irreducible(p))
        assert verdicts == {True, False}
        assert oracle_checked >= 8


    def test_oracle_imports_only_poly_from_the_kernel(self):
        # the oracle certifies the kernel, so it must not run on the kernel's routines
        tree = ast.parse(Path(oracles.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any("ratpoly" in alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and "ratpoly" in (node.module or ""):
                imported |= {alias.name for alias in node.names}
        assert imported == {"Poly"}


class TestIntegerForm:
    @pytest.mark.parametrize("seed", range(4))
    def test_sort_key_orders_like_fractions(self, seed):
        rng = random.Random(seed)
        polys = []
        for _ in range(300):
            degree = rng.randint(1, 4)
            coeffs = [
                Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(degree)
            ] + [Fraction(1)]
            polys.append(Poly(coeffs))
        # the trusted constructor takes the integer form, reducible or not
        points = [ClosedPoint(p.int_primitive()[1]) for p in polys]
        assert [q.minimal_poly for q in points] == polys

        def fraction_key(p: Poly) -> tuple:
            return (len(p.coeffs), tuple(reversed(p.coeffs)))

        assert sorted(polys, key=Poly.sort_key) == sorted(polys, key=fraction_key)
        assert sorted(points, key=ClosedPoint.sort_key) == sorted(
            points, key=lambda q: (1,) + fraction_key(q.minimal_poly)
        )
        for p in polys:
            assert p.sort_key() == fraction_key(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_int_primitive_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        primes = [1_000_003, 998_244_353, 2**61 - 1, 10**9 + 7, 3, 2**31 - 1]
        for _ in range(40):
            coeffs = [
                Fraction(rng.randint(-(10**20), 10**20), rng.choice(primes) ** rng.randint(0, 3))
                for _ in range(rng.randint(1, 6))
            ]
            p = Poly(coeffs)
            if p.is_zero:
                continue
            lcm = 1
            for q in p.coeffs:
                lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
            scaled = [q * lcm for q in p.coeffs]
            assert all(v.denominator == 1 for v in scaled)
            g = math.gcd(*(int(v) for v in scaled)) * (1 if scaled[-1] > 0 else -1)
            content, ints = p.int_primitive()
            assert ints == [int(v) // g for v in scaled]
            assert content == Fraction(g, lcm)
            assert Poly(ints).scale(content) == p


class TestHomogenizedSubstitution:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fraction_sum(self, seed):
        rng = random.Random(seed)

        def nonzero_poly(length: int) -> list[int]:
            return [rng.randint(-6, 6) for _ in range(length - 1)] + [rng.choice([-3, -1, 1, 2, 5])]

        seen = {"short": 0, "zero coefficient": 0, "d = 0": 0}
        for _ in range(80):
            d = rng.randint(0, 5)
            c = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(rng.randint(0, d))]
            c.append(rng.choice([-4, -1, 1, 3]))
            num, den = nonzero_poly(rng.randint(1, 4)), nonzero_poly(rng.randint(1, 4))
            ref = Poly.zero()
            for i, ci in enumerate(c):
                powers = [Poly(num)] * i + [Poly(den)] * (d - i)
                ref = ref + math.prod(powers, start=ONE).scale(ci)
            out = _zhomog(c, num, den, d)
            assert not out or out[-1]  # trimmed
            assert Poly(out) == ref
            seen["short"] += len(c) <= d
            seen["zero coefficient"] += 0 in c
            seen["d = 0"] += d == 0
        assert min(seen.values()) >= 5, seen


class TestResultant:
    def test_evaluation(self):
        assert resultant(X**2 + ONE, X - c(2)) == 5

    def test_common_factor(self):
        assert resultant(X - ONE, X - ONE) == 0

    def test_product_formula_linears(self):
        assert resultant(X - ONE, X - c(3)) == -2

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_against_sylvester(self, a, b):
        if a.is_zero or b.is_zero:
            return
        assert resultant(a, b) == _sylvester(a, b)

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_swap_sign(self, a, b):
        if a.is_zero or b.is_zero or a.is_constant or b.is_constant:
            return
        m, n = int(a.degree), int(b.degree)
        assert resultant(a, b) == (-1) ** (m * n) * resultant(b, a)


def _sylvester(a: Poly, b: Poly) -> Fraction:
    m, n = int(a.degree), int(b.degree)
    if m == 0:
        return a.leading**n
    if n == 0:
        return b.leading**m
    size = m + n
    ac = list(reversed(a.coeffs))
    bc = list(reversed(b.coeffs))
    rows = [
        [Fraction(0)] * i + ac + [Fraction(0)] * (size - m - 1 - i) for i in range(n)
    ] + [
        [Fraction(0)] * i + bc + [Fraction(0)] * (size - n - 1 - i) for i in range(m)
    ]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                scale = rows[r][col] * inv
                rows[r] = [rows[r][k] - scale * rows[col][k] for k in range(size)]
    return det
