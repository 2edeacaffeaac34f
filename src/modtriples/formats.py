"""Text and JSON formats for every object type.

Polynomial text: variable x, integer and a/b rational literals, and
the operators + - * ^ with parentheses, e.g. ``x^2 - 1`` or
``(1/2)*x^3 + 2*x``.  Emission is always canonical descending-degree
form, and parse(print(obj)) is the identity on every object.

Point literals: ``P(inf)``, ``P(x^2+1)``, and the shorthand ``P(3)``
for ``P(x-3)``.  Divisor literals are signed sums of multiples of
point literals, ``0`` for the zero divisor.

JSON schemas (all rationals travel as strings):
  triple   {"total": {"kind": "proper"} | {"kind": "open", "boundary": [...]},
            "plus": "<divisor>", "minus": "<divisor>"}
  map      {"num": "<poly>", "den": "<poly>"} or {"const": "<point>"}
  cycle    {"source": <triple>, "target": <triple>,
            "components": [{"a": <map>, "b": <map>, "mult": 1}, ...]}
  pair     {"total": <total>, "infinity": "<divisor>"}
  iy       {"Y": "<divisor>", "Z": "<divisor>"}
  mlog     {"boundary": "<divisor>", "modulus": "<divisor>"}
  ne       {"infinity": "<divisor>"}
  space    {"kind": "proper"} | {"kind": "open", "boundary": [...]}
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Callable

from .cycles import Component, Cycle
from .divisors import INFINITY, ClosedPoint, CurveSpace, Divisor, RationalMap
from .errors import ParseError
from .functors import IYObject, MlogObject, NePair
from .ratpoly import Poly, _zadd, _zmul, _zpow, _zsub
from .triples import ModulusPair, ModulusTriple, TripleSum

# ---------------------------------------------------------------------------
# polynomial text
# ---------------------------------------------------------------------------

# Caps that keep the cost of parsing hostile text bounded: the size of
# every power and product is checked before it is computed.
MAX_NESTING = 100  # parentheses inside one polynomial literal
MAX_DEGREE = 256  # exponent of a power, and degree of a power or product
# exponent times the coefficient bit size of a power's base, and the bit
# size of each numerator and denominator of a point's monic minimal polynomial
MAX_HEIGHT_BITS = 10_000


def _string(value: Any) -> str:
    # text fields arrive from JSON, where they may hold any JSON type
    if not isinstance(value, str):
        raise ParseError(f"expected a string, not {type(value).__name__}")
    return value


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, column=self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> None:
        if self.peek() != expected:
            raise self.error(f"expected {expected!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # longer than the interpreter's digit limit
            raise self.error("integer literal too long") from exc

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# The parser works on ascending coefficient lists, trimmed like Poly's
# (zero is []): ints, and Fractions only where an a/b literal enters.
# One Poly is built at the end.


def _parse_expr(tk: _Tokens) -> list:
    negate = False
    if tk.peek() == "-":
        tk.take("-")
        negate = True
    elif tk.peek() == "+":
        tk.take("+")
    acc = _parse_term(tk)
    if negate:
        acc = [-c for c in acc]
    while tk.peek() in ("+", "-"):
        op = tk.peek()
        tk.take(op)
        term = _parse_term(tk)
        acc = _zadd(acc, term) if op == "+" else _zsub(acc, term)
    return acc


def _parse_term(tk: _Tokens) -> list:
    acc = _parse_power(tk)
    while tk.peek() == "*":
        tk.take("*")
        rhs = _parse_power(tk)
        if acc and rhs and len(acc) + len(rhs) - 2 > MAX_DEGREE:
            raise tk.error(f"product of degree above {MAX_DEGREE}")
        acc = _zmul(acc, rhs)
    return acc


def _parse_power(tk: _Tokens) -> list:
    base = _parse_atom(tk)
    if tk.peek() == "^":
        tk.take("^")
        exp = tk.integer()
        if exp > MAX_DEGREE:
            raise tk.error(f"exponent above {MAX_DEGREE}")
        if max(len(base) - 1, 0) * exp > MAX_DEGREE:
            raise tk.error(f"power of degree above {MAX_DEGREE}")
        # ints have numerator and denominator too
        bits = max((c.numerator.bit_length() + c.denominator.bit_length() for c in base), default=0)
        if bits * exp > MAX_HEIGHT_BITS:
            raise tk.error(f"power with coefficients above {MAX_HEIGHT_BITS} bits")
        return _zpow(base, exp)
    return base


def _parse_atom(tk: _Tokens) -> list:
    ch = tk.peek()
    if ch == "(":
        tk.take("(")
        tk.depth += 1
        if tk.depth > MAX_NESTING:
            raise tk.error(f"parentheses nested deeper than {MAX_NESTING}")
        inner = _parse_expr(tk)
        tk.take(")")
        tk.depth -= 1
        return inner
    if ch == "x":
        tk.take("x")
        return [0, 1]
    if ch.isdigit():
        num = tk.integer()
        if tk.peek() == "/":
            tk.take("/")
            den = tk.integer()
            if den == 0:
                raise tk.error("zero denominator")
            return [Fraction(num, den)] if num else []
        return [num] if num else []
    raise tk.error("expected a number, x, or a parenthesized expression")


def parse_poly(text: str) -> Poly:
    tk = _Tokens(_string(text))
    coeffs = _parse_expr(tk)
    if not tk.at_end():
        raise tk.error("trailing input after polynomial")
    return Poly(coeffs)


def _coeffs_to_text(coeffs, lc: int = 1) -> str:
    """Canonical text of sum(coeffs[k] / lc * x^k), descending: ints or Fractions
    over a positive integer lc."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        num, den = abs(c.numerator), c.denominator * lc
        g = math.gcd(num, den)
        num, den = num // g, den // g
        mag = str(num) if den == 1 else f"{num}/{den}"
        if k == 0:
            body = mag
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            body = xpow if mag == "1" else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def poly_to_text(p: Poly) -> str:
    return _coeffs_to_text(p.coeffs)


# ---------------------------------------------------------------------------
# points and divisors
# ---------------------------------------------------------------------------


def parse_point(text: str) -> ClosedPoint:
    text = _string(text).strip()
    if not (text.startswith("P(") and text.endswith(")")):
        raise ParseError(f"point literal must look like P(...): {text!r}")
    inner = text[2:-1].strip()
    if inner == "inf":
        return INFINITY
    poly = parse_poly(inner)
    # shorthand: P(c) is the rational point x = c
    cs = (-poly[0], 1) if poly.is_constant else poly.coeffs
    lc = cs[-1]
    # the monic form's height, checked before the irreducibility test; the cap
    # also keeps every accepted point printable under the int-to-str limit
    for c in cs if lc == 1 else [c / lc for c in cs]:
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_HEIGHT_BITS:
            raise ParseError(f"point polynomial with coefficients above {MAX_HEIGHT_BITS} bits")
    if poly.is_constant:
        return ClosedPoint.rational(poly[0])
    return ClosedPoint.finite(poly)


def point_to_text(p: ClosedPoint) -> str:
    if p.is_infinity:
        return "P(inf)"
    return f"P({_coeffs_to_text(p.ints, p.ints[-1])})"


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    terms = []
    depth = 0
    sign = 1
    start = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", column=i + 1)
        elif depth == 0 and ch in "+-" and start is not None:
            terms.append((sign, text[start:i]))
            sign = 1 if ch == "+" else -1
            start = None
            continue
        if start is None and not ch.isspace():
            if ch == "+" and depth == 0:
                continue
            if ch == "-" and depth == 0:
                sign = -sign
                continue
            start = i
    if start is not None:
        terms.append((sign, text[start:]))
    if depth:
        raise ParseError("unbalanced parentheses")
    return terms


def parse_divisor(text: str) -> Divisor:
    text = _string(text).strip()
    if text == "0" or not text:
        return Divisor.zero()
    entries = []
    for sign, chunk in _split_signed_terms(text):
        chunk = chunk.strip()
        mult = 1
        mult_text, star, rest = chunk.partition("*")
        if star and rest.lstrip().startswith("P("):  # a multiple n*P(...), spaces allowed around *
            try:
                mult = int(mult_text.strip())
            except ValueError as exc:
                raise ParseError(f"bad multiplicity {mult_text!r}") from exc
            chunk = rest.strip()
        entries.append((parse_point(chunk), sign * mult))
    return Divisor(entries)


def divisor_to_text(d: Divisor) -> str:
    if d.is_zero:
        return "0"
    parts = []
    for point, mult in d:
        body = f"{abs(mult)}*{point_to_text(point)}"
        if not parts:
            parts.append(body if mult > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if mult > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


def map_from_json(data: Any) -> RationalMap:
    if not isinstance(data, dict):
        raise ParseError("a map is a JSON object")
    if "const" in data:
        return RationalMap.constant(parse_point(data["const"]))
    if "num" not in data:
        raise ParseError("a map needs either 'num' or 'const'")
    num = parse_poly(data["num"])
    den = parse_poly(data.get("den", "1"))
    return RationalMap.from_fraction(num, den)


def map_to_json(f: RationalMap) -> dict:
    if f.is_constant:
        return {"const": point_to_text(f.value)}
    return {"num": _coeffs_to_text(f.nz), "den": _coeffs_to_text(f.dz)}


def map_to_text(f: RationalMap) -> str:
    if f.is_constant:
        return f"const {point_to_text(f.value)}"
    if f.dz == (1,):
        return _coeffs_to_text(f.nz)
    return f"({_coeffs_to_text(f.nz)})/({_coeffs_to_text(f.dz)})"


# ---------------------------------------------------------------------------
# spaces, triples, pairs, sums
# ---------------------------------------------------------------------------


def space_from_json(data: Any) -> CurveSpace:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("a total space is {'kind': 'proper'|'open', ...}")
    if data["kind"] == "proper":
        return CurveSpace.proper()
    if data["kind"] == "open":
        texts = data.get("boundary", [])
        if not isinstance(texts, list) or not texts:
            raise ParseError("an open total space needs a nonempty boundary list")
        boundary = [parse_point(t) for t in texts]
        return CurveSpace.open(boundary)
    raise ParseError(f"unknown total space kind {data['kind']!r}")


def space_to_json(space: CurveSpace) -> dict:
    if space.is_proper:
        return {"kind": "proper"}
    pts = sorted(space.boundary, key=lambda p: p.sort_key())
    return {"kind": "open", "boundary": [point_to_text(p) for p in pts]}


def triple_from_json(data: Any) -> ModulusTriple:
    if not isinstance(data, dict):
        raise ParseError("a triple is a JSON object")
    total = space_from_json(data.get("total", {"kind": "proper"}))
    plus = parse_divisor(data.get("plus", "0"))
    minus = parse_divisor(data.get("minus", "0"))
    return ModulusTriple(total, plus, minus)


def triple_to_json(t: ModulusTriple) -> dict:
    return {
        "total": space_to_json(t.total),
        "plus": divisor_to_text(t.plus),
        "minus": divisor_to_text(t.minus),
    }


def triple_to_text(t: ModulusTriple) -> str:
    total = "P1" if t.total.is_proper else "P1 minus boundary"
    return f"({total}, {divisor_to_text(t.plus)}, {divisor_to_text(t.minus)})"


def pair_from_json(data: Any) -> ModulusPair:
    if not isinstance(data, dict):
        raise ParseError("a pair is a JSON object")
    total = space_from_json(data.get("total", {"kind": "proper"}))
    return ModulusPair(total, parse_divisor(data.get("infinity", "0")))


def pair_to_json(pair: ModulusPair) -> dict:
    return {"total": space_to_json(pair.total), "infinity": divisor_to_text(pair.infinity)}


def triple_sum_from_json(data: Any) -> TripleSum:
    if not isinstance(data, list):
        raise ParseError("a triple sum is a JSON list of triples")
    return TripleSum(tuple(triple_from_json(item) for item in data))


def triple_sum_to_json(ts: TripleSum) -> list:
    return [triple_to_json(t) for t in ts.summands]


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def cycle_from_json(data: Any) -> Cycle:
    if not isinstance(data, dict):
        raise ParseError("a cycle is a JSON object")
    source = triple_from_json(data.get("source", {}))
    target = triple_from_json(data.get("target", {}))
    items = data.get("components", [])
    if not isinstance(items, list):
        raise ParseError("a cycle's components are a JSON list")
    comps = []
    for item in items:
        if not isinstance(item, dict) or "a" not in item or "b" not in item:
            raise ParseError("a component is a JSON object with maps 'a' and 'b'")
        mult = item.get("mult", 1)
        # bool is an int subclass, but true is not a multiplicity
        if type(mult) is not int or mult < 1:
            raise ParseError(f"component multiplicity must be a positive integer, not {mult!r}")
        comps.append(Component(map_from_json(item["a"]), map_from_json(item["b"]), mult))
    return Cycle(source, target, comps)


def cycle_to_json(cycle: Cycle) -> dict:
    return {
        "source": triple_to_json(cycle.source),
        "target": triple_to_json(cycle.target),
        "components": [
            {"a": map_to_json(c.a), "b": map_to_json(c.b), "mult": c.mult}
            for c in cycle.components
        ],
    }


# ---------------------------------------------------------------------------
# bridge objects
# ---------------------------------------------------------------------------


def iy_from_json(data: Any) -> IYObject:
    if not isinstance(data, dict):
        raise ParseError("a two-divisor object is a JSON object")
    return IYObject(y=parse_divisor(data.get("Y", "0")), z=parse_divisor(data.get("Z", "0")))


def iy_to_json(o: IYObject) -> dict:
    return {"Y": divisor_to_text(o.y), "Z": divisor_to_text(o.z)}


def mlog_from_json(data: Any) -> MlogObject:
    if not isinstance(data, dict):
        raise ParseError("a boundary/modulus object is a JSON object")
    return MlogObject(
        boundary_div=parse_divisor(data.get("boundary", "0")),
        modulus_div=parse_divisor(data.get("modulus", "0")),
    )


def mlog_to_json(o: MlogObject) -> dict:
    return {"boundary": divisor_to_text(o.boundary_div), "modulus": divisor_to_text(o.modulus_div)}


def ne_from_json(data: Any) -> NePair:
    if not isinstance(data, dict):
        raise ParseError("a signed pair is a JSON object")
    return NePair(infinity=parse_divisor(data.get("infinity", "0")))


def ne_to_json(x: NePair) -> dict:
    return {"infinity": divisor_to_text(x.infinity)}


# ---------------------------------------------------------------------------
# entry point used by the CLI
# ---------------------------------------------------------------------------

_JSON_KINDS: dict[str, Callable[[Any], Any]] = {
    "triple": triple_from_json,
    "triples": triple_sum_from_json,
    "cycle": cycle_from_json,
    "map": map_from_json,
    "space": space_from_json,
    "pair": pair_from_json,
    "iy": iy_from_json,
    "mlog": mlog_from_json,
    "ne": ne_from_json,
}

_TEXT_KINDS: dict[str, Callable[[str], Any]] = {
    "divisor": parse_divisor,
    "point": parse_point,
    "poly": parse_poly,
}


def parse_input(text: str, kind: str):
    """Parse inline text (or JSON text) into a typed object."""
    if kind in _TEXT_KINDS:
        return _TEXT_KINDS[kind](text)
    if kind not in _JSON_KINDS:
        raise ParseError(f"unknown object kind {kind!r}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    return _JSON_KINDS[kind](data)
