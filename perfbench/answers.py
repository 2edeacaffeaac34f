"""Check the engine's answers against the ones known from construction.

The checks read the emitted JSON with their own small parser and
evaluate maps with ``fractions.Fraction``, so a defect in the engine's
formats layer cannot hide a wrong answer.
"""

from __future__ import annotations

import re
from fractions import Fraction

INF = "inf"  # the value of a map at a pole
SAMPLES = [Fraction(v) for v in (2, 3, 5, 7, -2, -5, 11, -13)] + [Fraction(1, 3), Fraction(-3, 7)]

_TERM = re.compile(r"^(?:(\d+)(?:/(\d+))?)?\*?(x(?:\^(\d+))?)?$")


def parse_poly(text: str) -> dict[int, Fraction]:
    """Coefficients by degree of a polynomial in emitted form, e.g. ``-x^2 + 1/2*x - 3``."""
    coeffs: dict[int, Fraction] = {}
    text = text.strip()
    if text == "0":
        return coeffs
    sign = 1
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        if token[0] in "+-":
            sign = -1 if token[0] == "-" else 1
            token = token[1:]
        match = _TERM.match(token)
        if not match or not token:
            raise ValueError(f"not a polynomial term: {token!r}")
        num, den, xpart, power = match.groups()
        coeff = Fraction(int(num or 1), int(den or 1))
        degree = 0 if not xpart else int(power or 1)
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * coeff
        sign = 1
    return {k: v for k, v in coeffs.items() if v}


def _eval(coeffs: dict[int, Fraction], v: Fraction) -> Fraction:
    return sum((c * v**k for k, c in coeffs.items()), Fraction(0))


def point_value(text: str):
    """The value of a rational point literal in emitted form: ``P(inf)`` or ``P(x - 3)``."""
    inner = text.strip()[2:-1]
    if inner == "inf":
        return INF
    coeffs = parse_poly(inner)
    if set(coeffs) - {0, 1} or coeffs.get(1) != 1:
        raise ValueError(f"not a rational point: {text!r}")
    return -coeffs.get(0, Fraction(0))


def eval_map(data: dict, v):
    """A map in JSON form, evaluated at a rational value or at infinity."""
    if "const" in data:
        return point_value(data["const"])
    num = parse_poly(data["num"])
    den = parse_poly(data.get("den", "1"))
    if v == INF:
        dn, dd = max(num, default=0), max(den, default=0)
        if dn != dd:
            return INF if dn > dd else Fraction(0)
        return num[dn] / den[dd]
    d = _eval(den, v)
    return INF if d == 0 else _eval(num, v) / d


def _is_identity(data: dict) -> bool:
    return "const" not in data and all(eval_map(data, t) == t for t in SAMPLES)


def divisor_mults(text: str) -> dict[str, int]:
    """An emitted divisor as {point text: multiplicity}."""
    out: dict[str, int] = {}
    if text.strip() == "0":
        return out
    depth, start, sign = 0, 0, 1
    terms = []
    for i, ch in enumerate(text + " +"):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and ch in "+-" and text[start:i].strip():
            terms.append((sign, text[start:i].strip()))
            sign, start = (1 if ch == "+" else -1), i + 1
        elif depth == 0 and ch in "+-":
            sign, start = (1 if ch == "+" else -1), i + 1
    for sign, term in terms:
        mult, _, point = term.partition("*")
        out[point] = out.get(point, 0) + sign * int(mult)
    return out


def _compose_ok(expect: dict, result: dict) -> bool:
    if result["source"] != expect["source"] or result["target"] != expect["target"]:
        return False
    if len(result["components"]) != 1:
        return False
    comp = result["components"][0]
    if comp["mult"] != expect["mult"]:
        return False
    a, b = expect["legs"]
    outer = expect["outer"]

    def b_exp(t):
        inner = eval_map(b, t)
        return eval_map(outer, inner)

    big_a, big_b = comp["a"], comp["b"]
    for t in SAMPLES:
        if "const" in big_b:
            ok = b_exp(t) == point_value(big_b["const"])
        elif _is_identity(big_a):
            ok = eval_map(big_b, eval_map(a, t)) == b_exp(t)
        elif _is_identity(big_b):
            ok = eval_map(big_a, b_exp(t)) == eval_map(a, t)
        else:
            ok = eval_map(big_a, t) == eval_map(a, t) and eval_map(big_b, t) == b_exp(t)
        if not ok:
            return False
    return True


def _separate_ok(expect: dict, result: dict) -> bool:
    triple = result["triple"]
    boundary = triple["total"].get("boundary", [])
    return (
        divisor_mults(triple["plus"]) == expect["plus"]
        and divisor_mults(triple["minus"]) == expect["minus"]
        and divisor_mults(result["fundamental"]) == expect["fundamental"]
        and sorted(boundary) == sorted(expect["boundary"])
    )


def expected_exit(request: dict) -> int:
    expect = request["expect"]
    if "exit" in expect:
        return expect["exit"]
    return 1 if expect.get("verdict") == "no" else 0


def check(request: dict, record: dict | None, exit_code: int | None = None, output: str = "") -> bool:
    """True when the answer matches the construction.

    ``record`` is the answer record (the CLI's ``records[0]``, or the
    in-process equivalent); ``exit_code`` is checked when given.
    """
    if exit_code is not None and exit_code != expected_exit(request):
        return False
    if "Traceback" in output:
        return False
    expect = request["expect"]
    if "exit" in expect:
        return True
    if record is None:
        return False
    try:
        if "verdict" in expect and record["verdict"] != expect["verdict"]:
            return False
        if "components" in expect and record["components"] != expect["components"]:
            return False
        if "level" in expect:
            return record["level"] == expect["level"]
        if "class" in expect:
            return record["class"] == expect["class"]
        if "fundamental" in expect:
            return _separate_ok(expect, record["result"])
        if "legs" in expect:
            return _compose_ok(expect, record["result"])
    except (KeyError, ValueError, TypeError, ZeroDivisionError):
        return False
    return True
