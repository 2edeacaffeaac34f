"""Text grammar and JSON codecs: round trips and rejection diagnostics."""

import math
import random
from fractions import Fraction

import pytest

from modtriples import INFINITY, ClosedPoint, DegenerateInput, Divisor, ModulusTriple, ParseError
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
from polyref import Poly, ref

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
        for p in [INFINITY, ClosedPoint.rational(5), ClosedPoint.finite(X**2 + Poly.one())]:
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
        assert parse_divisor("0").is_zero
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
        with pytest.raises(ParseError, match=r"bad multiplicity '\(2\)'"):
            parse_divisor("(2)*P(1)")
        with pytest.raises(ParseError, match="point literal must look like P"):
            parse_divisor("2*x")

    def test_round_trip(self):
        d = Divisor(
            [
                (INFINITY, -2),
                (ClosedPoint.rational(0), 3),
                (ClosedPoint.finite(X**2 - Poly.constant(2)), 1),
            ]
        )
        assert parse_divisor(divisor_to_text(d)) == d


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
