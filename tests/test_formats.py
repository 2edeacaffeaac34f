"""Text grammar and JSON codecs: round trips and rejection diagnostics."""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from modtriples import (
    INFINITY,
    ClosedPoint,
    DegenerateInput,
    Divisor,
    ModulusTriple,
    ParseError,
    RationalMap,
    divisors,
    formats,
)
from modtriples.formats import (
    MAX_DEGREE,
    MAX_HEIGHT_BITS,
    MAX_NESTING,
    cycle_from_json,
    cycle_to_json,
    divisor_to_text,
    map_from_json,
    map_to_json,
    parse_divisor,
    parse_input,
    parse_point,
    parse_poly,
    point_to_text,
    poly_to_text,
    triple_from_json,
    triple_to_json,
)
from modtriples.suites import point_pool
from polyref import Poly, map_of, point_of, ref

X = Poly.x()


def primorial_point() -> str:
    """P((N1)*(N2)*(N3)*x^2 + 1), where N1*N2*N3 is the product of the odd
    primes below 20000, split so that each literal has under 4300 digits."""
    primes = [n for n in range(3, 20000, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
    k = len(primes) // 3
    groups = (primes[:k], primes[k : 2 * k], primes[2 * k :])
    return "P(" + "*".join(f"({math.prod(g)})" for g in groups) + "*x^2 + 1)"


class TestPolyText:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("x^2 - 1", (-1, 0, 1)),
            ("(1/2)*x^3 + 2*x", (0, 2, 0, Fraction(1, 2))),
            ("0", ()),
            ("-x + 3", (3, -1)),
            ("2/3", (Fraction(2, 3),)),
        ],
    )
    def test_parse(self, text, coeffs):
        assert parse_poly(text) == Poly(coeffs)

    def test_round_trip(self):
        for text in ["x^4 + 4", "x^2 - 1/2*x + 3", "-2*x^5 + x", "7"]:
            p = parse_poly(text)
            assert parse_poly(poly_to_text(p)) == p

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x^2 + @")
        assert err.value.column == 7

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x x")


def random_expression(rng: random.Random, depth: int):
    """Random polynomial text in the parser's grammar, with a function that
    evaluates the same expression tree directly in Fractions."""

    def space() -> str:
        return rng.choice(["", "", " "])

    def atom(depth: int):
        kind = rng.choice(["x", "int", "frac", "paren"] if depth else ["x", "int", "frac"])
        if kind == "x":
            return "x", lambda v: v
        if kind == "int":
            n = rng.randint(0, 12)
            return str(n), lambda v: Fraction(n)
        if kind == "frac":
            num, den = rng.randint(0, 9), rng.randint(1, 9)
            return f"{num}/{den}", lambda v: Fraction(num, den)
        text, f = expr(depth - 1)
        return f"({space()}{text}{space()})", f

    def power(depth: int):
        text, f = atom(depth)
        if rng.random() < 0.3:
            k = rng.randint(0, 4)
            return f"{text}{space()}^{space()}{k}", lambda v: f(v) ** k
        return text, f

    def term(depth: int):
        text, f = power(depth)
        for _ in range(rng.randint(0, 2)):
            rtext, g = power(depth)
            text, f = f"{text}{space()}*{space()}{rtext}", (lambda a, b: lambda v: a(v) * b(v))(f, g)
        return text, f

    def expr(depth: int):
        sign = rng.choice(["", "", "-", "+"])
        text, f = term(depth)
        text = f"{sign}{space()}{text}" if sign else text
        if sign == "-":
            f = (lambda a: lambda v: -a(v))(f)
        for _ in range(rng.randint(0, 3)):
            op = rng.choice("+-")
            rtext, g = term(depth)
            text = f"{text}{space()}{op}{space()}{rtext}"
            f = (lambda a, b, s: lambda v: a(v) + s * b(v))(f, g, 1 if op == "+" else -1)
        return text, f

    return expr(depth)


class TestPolyTextDifferential:
    POINTS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(-7, 5))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_evaluation(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            text, value = random_expression(rng, depth=rng.randint(0, 2))
            p = ref(parse_poly(text))
            for v in self.POINTS:
                assert p(v) == value(v), (text, v)


class TestPolyTextCaps:
    def test_nesting_at_the_cap(self):
        depth = MAX_NESTING
        assert parse_poly("(" * depth + "x" + ")" * depth) == X
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly("(" * (depth + 1) + "x" + ")" * (depth + 1))

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_poly("(" * 3000 + "x" + ")" * 3000)

    def test_error_stops_the_reading(self):
        # tokens are read one at a time, so the nesting cap stops a long text early
        started = time.perf_counter()
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly("(" * 1_000_000)
        assert time.perf_counter() - started < 0.3

    def test_exponent_at_the_cap(self):
        assert parse_poly(f"x^{MAX_DEGREE}").degree == MAX_DEGREE
        with pytest.raises(ParseError, match="exponent"):
            parse_poly(f"x^{MAX_DEGREE + 1}")
        with pytest.raises(ParseError, match="exponent"):
            parse_poly("x^100000000")
        with pytest.raises(ParseError, match="exponent"):
            parse_poly("2^100000000")

    def test_power_and_product_degree(self):
        half = MAX_DEGREE // 2
        assert parse_poly(f"(x^2 + 1)^{half}").degree == MAX_DEGREE
        assert parse_poly(f"x^{half} * x^{half}").degree == MAX_DEGREE
        with pytest.raises(ParseError, match="power of degree"):
            parse_poly(f"(x^2 + 1)^{half + 1}")
        with pytest.raises(ParseError, match="product of degree"):
            parse_poly(f"x^{half} * x^{half} * x")

    def test_power_height(self):
        assert parse_poly("2^100") == Poly.constant(2**100)
        with pytest.raises(ParseError, match="bits"):
            parse_poly(f"(2^{MAX_DEGREE})^{MAX_DEGREE}")

    def test_overlong_integer(self):
        with pytest.raises(ParseError, match="too long"):
            parse_poly("1" * 5000)


class TestPointText:
    def test_shorthand(self):
        assert parse_point("P(3)") == parse_point("P(x-3)")
        assert parse_point("P(-2)") == ClosedPoint.rational(-2)

    def test_infinity(self):
        assert parse_point("P(inf)") is INFINITY or parse_point("P(inf)") == INFINITY

    def test_reducible_rejected(self):
        with pytest.raises(DegenerateInput):
            parse_point("P(x^2-1)")

    def test_round_trip(self):
        for p in [INFINITY, ClosedPoint.rational(5), ClosedPoint.finite((1, 0, 1))]:
            assert parse_point(point_to_text(p)) == p

    def test_height_at_the_cap(self):
        # the cap holds on the monic form: 1/top*x + top - 2 has coefficients
        # within it, but x + top*(top - 2) does not
        top = 2**MAX_HEIGHT_BITS - 1
        for text in [f"P({top})", f"P(x - {top})", f"P({top}*x + 1)", f"P(x^2 + 1/{top})", f"P(1/{top}*x + 1)"]:
            point = parse_point(text)
            assert parse_point(point_to_text(point)) == point
        over = 2**MAX_HEIGHT_BITS
        for text in [f"P({over})", f"P(x - {over})", f"P({over}*x + 1)", f"P(x^2 + 1/{over})",
                     f"P(1/{top}*x + {top - 2})"]:
            with pytest.raises(ParseError, match="bits"):
                parse_point(text)

    def test_primorial_height_is_a_parse_error(self):
        # the monic form x^2 + 1/N has a denominator of about 28600 bits
        with pytest.raises(ParseError, match="bits"):
            parse_point(primorial_point())


class TestDivisorText:
    def test_signed_sum(self):
        d = parse_divisor("2*P(inf) + 1*P(x-1) - 3*P(0)")
        assert d.multiplicity(INFINITY) == 2
        assert d.multiplicity(ClosedPoint.rational(1)) == 1
        assert d.multiplicity(ClosedPoint.rational(0)) == -3

    def test_zero(self):
        assert parse_divisor("0").is_zero and parse_divisor("").is_zero and parse_divisor("  ").is_zero
        assert divisor_to_text(Divisor.zero()) == "0"

    def test_bare_point(self):
        assert parse_divisor("P(inf)") == Divisor.of(INFINITY)

    def test_cancellation(self):
        assert parse_divisor("1*P(0) - 1*P(0)").is_zero

    @pytest.mark.parametrize("text", ["2 * P(1)", "2* P(1)", "2 *P(1)", " 2  *  P(1) "])
    def test_spaces_around_the_multiplicity_star(self, text):
        assert parse_divisor(text) == parse_divisor("2*P(1)")
        assert parse_divisor(f"P(0) - {text}") == parse_divisor("P(0) - 2*P(1)")

    def test_star_outside_a_multiple(self):
        assert parse_divisor("P(2*x)") == Divisor.of(ClosedPoint.rational(0))
        with pytest.raises(ParseError, match="point literal must look like P") as err:
            parse_divisor("(2)*P(1)")
        assert err.value.column == 1
        with pytest.raises(ParseError, match="point literal must look like P"):
            parse_divisor("2*x")

    @pytest.mark.parametrize(
        "text", ["-", "+ + +", "P(1) +", "3*P(1) - ", "P(0) - + ", "- - P(1)", "--P(1)", "P(1) + - P(2)"]
    )
    def test_sign_without_a_term(self, text):
        with pytest.raises(ParseError, match="a sign must be followed by a term"):
            parse_divisor(text)

    @pytest.mark.parametrize(
        "text", ["P(\u0663)", "\u0663*P(1)", "1_0*P(1)", "P(1)P(2)", "P(inf) P(1)", "P (1)", "P(x^\u00b2)"]
    )
    def test_outside_the_grammar(self, text):
        # integers are ASCII digits only, terms need a sign between them, and P( is one token
        with pytest.raises(ParseError) as err:
            parse_divisor(text)
        assert "too long" not in str(err.value)

    def test_error_column_counts_from_the_whole_literal(self):
        with pytest.raises(ParseError) as err:
            parse_divisor("P(0) + P(x^2 + @)")
        assert err.value.column == 16

    def test_round_trip(self):
        d = Divisor(
            [
                (INFINITY, -2),
                (ClosedPoint.rational(0), 3),
                (ClosedPoint.finite((-2, 0, 1)), 1),
            ]
        )
        assert parse_divisor(divisor_to_text(d)) == d


def random_divisor_text(rng: random.Random) -> tuple[str, Divisor]:
    """Random divisor text over the suites' point pool in every accepted
    spelling, with the divisor it denotes."""
    pool = point_pool()

    def space() -> str:
        return rng.choice(["", " ", "  "])

    def point_text(p: ClosedPoint) -> str:
        if p.is_infinity:
            return rng.choice(["P(inf)", f"P({space()}inf{space()})"])
        forms = [point_to_text(p)]
        if p.degree == 1:  # the shorthand P(c)
            forms.append(f"P({p.rational_value()})")
        k = rng.choice([-3, -2, -1, 2, 5])  # a non-monic polynomial of the same point
        forms.append(f"P({space()}{poly_to_text(Poly([k * c for c in p.ints]))}{space()})")
        text = rng.choice(forms)
        return text.replace(" ", "") if rng.random() < 0.3 else text

    entries, parts = [], []
    for i in range(rng.randint(1, 5)):
        p, m = rng.choice(pool), rng.choice([-12, -3, -2, -1, 1, 2, 3, 40])
        entries.append((p, m))
        body = point_text(p)
        if abs(m) != 1 or rng.random() < 0.5:
            body = f"{abs(m)}{space()}*{space()}{body}"
        if m < 0:
            sign = "-"
        else:
            sign = "+" if i or rng.random() < 0.3 else ""  # a leading + is optional
        parts.append(f"{sign}{space()}{body}" if sign else body)
    return space() + space().join(parts) + space(), Divisor(entries)


class TestDivisorSpellings:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_spelling_parses_back(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            text, divisor = random_divisor_text(rng)
            assert parse_divisor(text) == divisor, text
            assert parse_divisor(divisor_to_text(divisor)) == divisor


class TestJson:
    def test_triple(self):
        data = {"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "0"}
        t = triple_from_json(data)
        assert t == ModulusTriple.proper(Divisor.of(INFINITY), Divisor.zero())
        assert triple_from_json(triple_to_json(t)) == t

    def test_open_total(self):
        data = {
            "total": {"kind": "open", "boundary": ["P(inf)", "P(1)"]},
            "plus": "2*P(0)",
            "minus": "0",
        }
        t = triple_from_json(data)
        assert not t.total.is_proper and len(t.total.boundary) == 2
        assert triple_from_json(triple_to_json(t)) == t

    def test_map_forms(self):
        f = map_from_json({"num": "x^2", "den": "x - 1"})
        assert not f.is_constant and f.degree == 2
        c = map_from_json({"const": "P(0)"})
        assert c.is_constant
        for m in (f, c):
            assert map_from_json(map_to_json(m)) == m
        # exactly one of the two forms
        for both in ({"const": "P(0)", "num": "x^2", "den": "1"}, {"const": "P(0)", "num": "x"},
                     {"const": "P(0)", "den": "1"}):
            with pytest.raises(ParseError, match="not both"):
                map_from_json(both)

    def test_cycle(self):
        data = {
            "source": {"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "0"},
            "target": {"total": {"kind": "proper"}, "plus": "0", "minus": "1*P(inf)"},
            "components": [{"a": {"num": "x"}, "b": {"num": "x"}, "mult": 1}],
        }
        cycle = cycle_from_json(data)
        assert cycle_from_json(cycle_to_json(cycle)) == cycle

    @pytest.mark.parametrize("mult", [0, -1, "abc", "2", 1.5, 2.0, True, None])
    def test_cycle_rejects_bad_multiplicity(self, mult):
        data = {
            "source": {"plus": "1*P(inf)"},
            "target": {"minus": "1*P(inf)"},
            "components": [{"a": {"num": "x"}, "b": {"num": "x"}, "mult": mult}],
        }
        with pytest.raises(ParseError, match="multiplicity"):
            cycle_from_json(data)

    @pytest.mark.parametrize("item", [[], "x", {"a": {"num": "x"}}])
    def test_cycle_rejects_malformed_component(self, item):
        with pytest.raises(ParseError, match="component"):
            cycle_from_json({"components": [item]})

    @pytest.mark.parametrize(
        "text,kind",
        [
            ('{"components": 5}', "cycle"),
            ('{"num": 5}', "map"),
            ('{"const": ["P(0)"]}', "map"),
            ('{"plus": 3}', "triple"),
            ('{"total": {"kind": "open", "boundary": 5}}', "triple"),
            ('{"Y": null}', "iy"),
            ('["P(0)"]', "pair"),
            ('{"plus": "1*P(inf)"}', "triples"),
        ],
    )
    def test_wrong_json_types_are_parse_errors(self, text, kind):
        with pytest.raises(ParseError):
            parse_input(text, kind)

    def test_parse_input_dispatch(self):
        t = parse_input('{"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "0"}', "triple")
        assert t == ModulusTriple.proper(Divisor.of(INFINITY), Divisor.zero())
        d = parse_input("2*P(0)", "divisor")
        assert d == Divisor([(ClosedPoint.rational(0), 2)])
        with pytest.raises(ParseError):
            parse_input("{", "triple")
        with pytest.raises(ParseError):
            parse_input("{}", "nonsense")
        with pytest.raises(ParseError, match="nested"):
            parse_input("[" * 100000 + "]" * 100000, "triple")

    def test_semantic_rejection(self):
        with pytest.raises(DegenerateInput):
            parse_input('{"plus": "1*P(x^2-1)"}', "triple")


def spell(rng: random.Random, coeffs) -> str:
    """A random spelling of sum(coeffs[k] * x^k) for rational coeffs: terms in random
    order with random signs in front, each coefficient an integer or an a/b literal, not
    always reduced, on either side of its power of x, which is sometimes a product."""
    terms = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if not c:
            continue
        m = rng.choice([1, 1, 2, 3])
        num, den = abs(c.numerator), c.denominator
        lit = str(num) if den == 1 and m == 1 else f"{num * m}/{den * m}"
        j = rng.randint(1, k - 1) if k > 1 and rng.random() < 0.3 else 0
        mono = {0: "", 1: "x"}.get(k, f"x^{k}") if not j else f"x^{j}*x^{k - j}"
        body = lit if not mono else rng.choice([f"{lit}*{mono}", f"({lit})*{mono}", f"{mono}*{lit}"])
        if body.startswith(("1*", "(1)*")) and rng.random() < 0.5:
            body = mono
        terms.append(("-" if c < 0 else "+") + rng.choice(["", " "]) + body)
    rng.shuffle(terms)
    text = " ".join(terms) or "0"
    return text[1:] if text.startswith("+") and rng.random() < 0.5 else text


def monic_within_cap(p: Poly) -> bool:
    return all(max(c.numerator.bit_length(), c.denominator.bit_length()) <= MAX_HEIGHT_BITS
               for c in p.monic().coeffs)


class TestIntegerParsePath:
    """Points and maps are parsed straight to integer forms; the Fraction arithmetic of
    polyref is the reference."""

    @staticmethod
    def assert_point(point: ClosedPoint, p: Poly):
        monic = p.monic()
        d = math.lcm(*[c.denominator for c in monic.coeffs])  # clears the monic form primitively
        assert point.ints == tuple(int(c * d) for c in monic.coeffs)
        assert hash(point) == hash(("pt", monic))
        assert point.sort_key() == (1,) + monic.sort_key()
        assert point == point_of(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_points_match_the_fraction_reference(self, seed):
        rng = random.Random(seed)
        pool = [p for p in point_pool() if not p.is_infinity]
        for _ in range(120):
            p = Poly(rng.choice(pool).ints).monic()
            k = Fraction(rng.choice([-3, -2, -1, 1, 2, 5, 7]), rng.choice([1, 1, 2, 3, 4]))
            q = p.scale(k)  # a non-monic multiple of the same point
            self.assert_point(parse_point(f"P({spell(rng, q.coeffs)})"), q)
            if p.degree == 1:  # the shorthand P(c)
                c = -p[0]
                self.assert_point(parse_point(f"P({spell(rng, [c])})"), p)

    @pytest.mark.parametrize("seed", range(4))
    def test_maps_match_the_fraction_reference(self, seed):
        rng = random.Random(seed)

        def rand_poly(degree: int) -> Poly:
            return Poly([Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(degree + 1)])

        for _ in range(80):
            num, den = rand_poly(rng.randint(0, 3)), rand_poly(rng.randint(0, 2))
            if rng.random() < 0.3:  # a common factor to cancel
                g = rand_poly(1)
                num, den = num * g, den * g
            if num.is_zero and den.is_zero:
                continue
            data = {"num": spell(rng, num.coeffs)}
            if rng.random() < 0.8 or den != Poly.one():
                data["den"] = spell(rng, den.coeffs)
            f, expected = map_from_json(data), map_of(num, den)
            assert (f.nz, f.dz, f.const) == (expected.nz, expected.dz, expected.const)
            assert hash(f) == hash(expected)
            if not f.is_constant:
                assert Poly(f.nz) * den == Poly(f.dz) * num
                assert f.dz[-1] > 0 and math.gcd(*f.nz, *f.dz) == 1
        with pytest.raises(DegenerateInput):
            map_from_json({"num": "0", "den": "x - x"})

    TOP, OVER = 2**MAX_HEIGHT_BITS - 1, 2**MAX_HEIGHT_BITS  # exactly the cap, and one bit over

    @pytest.mark.parametrize(
        "coeffs,ok",
        [
            # leading coefficient 1
            ((TOP, 1), True),
            ((OVER, 1), False),
            ((Fraction(1, TOP), 0, 1), True),
            ((Fraction(1, OVER), 0, 1), False),
            # leading coefficient not 1: the cap holds on the monic form
            ((TOP, 2), True),
            ((OVER + 1, 2), False),
            ((3 * TOP, 3), True),
            ((1, TOP), True),
            ((1, OVER), False),
            ((TOP - 2, Fraction(1, TOP)), False),
            # the shorthand P(c) is x - c
            ((TOP,), True),
            ((-TOP,), True),
            ((OVER,), False),
            ((Fraction(1, TOP),), True),
            ((Fraction(1, OVER),), False),
            ((Fraction(TOP, 2),), True),
            ((Fraction(OVER + 1, 2),), False),
        ],
    )
    def test_height_cap_matches_the_fraction_reference(self, coeffs, ok):
        p = Poly(coeffs) if len(coeffs) > 1 else Poly((-Fraction(coeffs[0]), 1))
        assert monic_within_cap(p) == ok
        text = f"P({spell(random.Random(len(coeffs)), coeffs)})"
        if ok:
            self.assert_point(parse_point(text), p)
        else:
            with pytest.raises(ParseError, match="bits"):
                parse_point(text)


class TestPointTable:
    """Each distinct point is validated once per parse_input call, and only within it."""

    @pytest.fixture
    def validated(self, monkeypatch) -> list:
        seen, validate = [], divisors._zirreducible

        def counting(f):
            seen.append(tuple(f))
            return validate(f)

        monkeypatch.setattr(divisors, "_zirreducible", counting)
        return seen

    CYCLE = json.dumps({
        "source": {"total": {"kind": "open", "boundary": ["P(x^2 + 1)"]}, "plus": "1*P(x)", "minus": "0"},
        "target": {"plus": "1*P(-x^2 - 1) + 2*P(2*x^2 + 2)", "minus": "3*P(1/3*x^2 + 1/3) + 1*P(x^2+1)"},
        "components": [{"a": {"num": "x"}, "b": {"const": "P(0)"}, "mult": 1}],
    })

    def test_a_repeated_point_is_validated_once(self, validated):
        parse_input(self.CYCLE, "cycle")
        assert validated.count((1, 0, 1)) == 1  # named five times
        assert validated.count((0, 1)) == 1  # P(x) and P(0)
        assert len(validated) == 2

    def test_no_table_crosses_calls(self, validated):
        first, second = parse_input(self.CYCLE, "cycle"), parse_input(self.CYCLE, "cycle")
        assert first == second
        assert validated.count((1, 0, 1)) == 2
        assert formats._REQUEST_POINTS.get() is None

    def test_a_reducible_point_named_twice_is_rejected(self, validated):
        for _ in range(2):
            with pytest.raises(DegenerateInput, match="reducible"):
                parse_input('{"plus": "1*P(x^2 - 1) + 2*P(x^2 - 1)"}', "triple")
        assert validated == [(-1, 0, 1)] * 2

    @pytest.mark.parametrize(
        "text,degree", [("P(x^255 + x + 1)", 255), ("P(x^128 + x + 1)", None), ("P(x^256 + 1)", 256)]
    )
    def test_validation_near_the_degree_cap_is_bounded(self, text, degree):
        # x^2 + x + 1 divides x^128 + x + 1, since 128 = 2 mod 3; x^256 + 1 is irreducible,
        # with two factors of degree 128 mod 3 for Cantor-Zassenhaus to split
        started = time.perf_counter()
        if degree:
            assert parse_point(text).degree == degree
        else:
            with pytest.raises(DegenerateInput):
                parse_point(text)
        assert time.perf_counter() - started < 2.0
