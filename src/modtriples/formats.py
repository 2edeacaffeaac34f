"""Text and JSON formats for every object type.

Polynomial text: variable x, integer (ASCII digits) and a/b rational
literals, and the operators + - * ^ with parentheses, e.g. ``x^2 - 1``
or ``(1/2)*x^3 + 2*x``.  Emission is always canonical descending-degree
form, and parse(print(obj)) is the identity on every object.

Points and divisors are read by three more rules over the same tokens:
  divisor := [sign] term {sign term}   (blank text or "0" is the zero divisor)
  term    := [INT "*"] point
  point   := "P(" ("inf" | poly) ")"   (the shorthand P(3) is P(x-3))
so ``2*P(inf) - P(x^2+1)``; each term takes one sign, and ``P(`` is one token.

JSON schemas (all rationals travel as strings):
  triple   {"total": {"kind": "proper"} | {"kind": "open", "boundary": [...]},
            "plus": "<divisor>", "minus": "<divisor>"}
  map      exactly one of {"num": "<poly>", "den": "<poly>"} ("den" defaults
           to "1") and {"const": "<point>"}
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
import re
from contextvars import ContextVar
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable

from .cycles import Component, Cycle
from .divisors import INFINITY, ClosedPoint, CurveSpace, Divisor, RationalMap
from .errors import ParseError
from .ratpoly import Poly, _zadd, _zmul, _zpow, _zprimitive, _zsub
from .triples import ModulusPair, ModulusTriple, TripleSum

if TYPE_CHECKING:
    from .functors import IYObject, MlogObject, NePair

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


# The points proved irreducible so far in one parse_input call, by primitive integer
# form, so that a request which names a point twice validates it once; set for the
# call and reset after it, so no request sees another's.
_REQUEST_POINTS: ContextVar[dict | None] = ContextVar("_REQUEST_POINTS", default=None)

# One token is an ASCII integer, the point opener "P(", "inf", or any other
# character that is not whitespace; whitespace only separates tokens.
_TOKEN = re.compile(r"[0-9]+|P\(|inf|\S")


def _is_int(token: str) -> bool:
    # only [0-9]+ makes an ASCII digit token; a lone "²" or "٣" is not an integer
    return token.isascii() and token.isdigit()


class _Tokens:
    """The text split by one pass of _TOKEN into (offset, token) pairs, read one at a
    time, so a hostile text costs no more than the tokens read before its first error;
    columns count from the start of the text.  ``points`` is the table of validated
    points of the request, or of this text alone outside parse_input."""

    def __init__(self, text: str):
        self.text = text
        self.matches = _TOKEN.finditer(text)
        self.depth = 0
        points = _REQUEST_POINTS.get()
        self.points = {} if points is None else points
        self.advance()

    def advance(self) -> None:
        m = next(self.matches, None)
        self.offset, self.token = (m.start(), m.group()) if m else (len(self.text), "")

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=1, column=self.offset + 1)

    def take(self, expected: str) -> None:
        if self.token != expected:
            raise self.error(f"expected {expected!r}")
        self.advance()

    def integer(self) -> int:
        if not _is_int(self.token):
            raise self.error("expected an integer")
        try:
            value = int(self.token)
        except ValueError as exc:  # longer than the interpreter's digit limit
            raise self.error("integer literal too long") from exc
        self.advance()
        return value


def _parse_whole(text: str, rule: Callable[[_Tokens], Any], what: str):
    tk = _Tokens(_string(text))
    out = rule(tk)
    if tk.token:
        raise tk.error(f"trailing input after {what}")
    return out


# The parser works on ascending coefficient lists, trimmed like Poly's
# (zero is []): ints, and Fractions only where an a/b literal enters.
# Points and maps take their integer forms from the list (_clear);
# parse_poly builds one Poly at the end.


def _parse_expr(tk: _Tokens) -> list:
    sign = tk.token
    if sign in ("+", "-"):
        tk.take(sign)
    acc = _parse_term(tk)
    if sign == "-":
        acc = [-c for c in acc]
    while tk.token in ("+", "-"):
        op = tk.token
        tk.take(op)
        term = _parse_term(tk)
        acc = _zadd(acc, term) if op == "+" else _zsub(acc, term)
    return acc


def _parse_term(tk: _Tokens) -> list:
    acc = _parse_power(tk)
    while tk.token == "*":
        tk.take("*")
        rhs = _parse_power(tk)
        if acc and rhs and len(acc) + len(rhs) - 2 > MAX_DEGREE:
            raise tk.error(f"product of degree above {MAX_DEGREE}")
        if len(rhs) == 1:
            acc, rhs = rhs, acc
        # a constant factor is one scaling, which passes zeros by (a Fraction times 0 is a new one)
        acc = [acc[0] * c if c else 0 for c in rhs] if len(acc) == 1 else _zmul(acc, rhs)
    return acc


def _parse_power(tk: _Tokens) -> list:
    base = _parse_atom(tk)
    if tk.token == "^":
        tk.take("^")
        exp = tk.integer()
        if exp > MAX_DEGREE:
            raise tk.error(f"exponent above {MAX_DEGREE}")
        if base == [0, 1]:
            return [0] * exp + [1]
        if max(len(base) - 1, 0) * exp > MAX_DEGREE:
            raise tk.error(f"power of degree above {MAX_DEGREE}")
        # ints have numerator and denominator too
        bits = max((c.numerator.bit_length() + c.denominator.bit_length() for c in base), default=0)
        if bits * exp > MAX_HEIGHT_BITS:
            raise tk.error(f"power with coefficients above {MAX_HEIGHT_BITS} bits")
        return _zpow(base, exp)
    return base


def _parse_atom(tk: _Tokens) -> list:
    ch = tk.token
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
    if _is_int(ch):
        num = tk.integer()
        if tk.token == "/":
            tk.take("/")
            den = tk.integer()
            if den == 0:
                raise tk.error("zero denominator")
            return [Fraction(num, den)] if num else []
        return [num] if num else []
    raise tk.error("expected a number, x, or a parenthesized expression")


def parse_poly(text: str) -> Poly:
    return Poly(_parse_whole(text, _parse_expr, "polynomial"))


def _clear(cs: list) -> tuple[int, list[int]]:
    """(d, ints) with cs = ints / d, d the least common denominator of cs."""
    d = math.lcm(*[c.denominator for c in cs])
    return d, [c.numerator * (d // c.denominator) for c in cs]


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


def _parse_point(tk: _Tokens) -> ClosedPoint:
    if tk.token != "P(":
        raise tk.error("point literal must look like P(...)")
    tk.take("P(")
    if tk.token == "inf":
        tk.take("inf")
        tk.take(")")
        return INFINITY
    cs = _parse_expr(tk)
    tk.take(")")
    # shorthand: P(c) is the rational point x = c
    if len(cs) <= 1:
        cs = [-cs[0] if cs else 0, 1]
    f = tuple(_zprimitive(_clear(cs)[1]))
    # the monic form's height, checked before the irreducibility test: c/lc in lowest
    # terms has the larger part max(|c|, lc) / gcd(c, lc); the cap also keeps every
    # accepted point printable under the int-to-str limit
    lc = f[-1]
    for c in f:
        if (max(abs(c), lc) // math.gcd(c, lc)).bit_length() > MAX_HEIGHT_BITS:
            raise ParseError(f"point polynomial with coefficients above {MAX_HEIGHT_BITS} bits")
    point = tk.points.get(f)
    if point is None:
        point = tk.points[f] = ClosedPoint.finite(f)
    return point


def parse_point(text: str) -> ClosedPoint:
    return _parse_whole(text, _parse_point, "point")


def point_to_text(p: ClosedPoint) -> str:
    if p.is_infinity:
        return "P(inf)"
    return f"P({_coeffs_to_text(p.ints, p.ints[-1])})"


def _parse_divisor(tk: _Tokens) -> Divisor:
    # divisor := [sign] term {sign term}; term := [INT "*"] point
    entries = []
    while not entries or tk.token in ("+", "-"):
        sign = tk.token
        if sign in ("+", "-"):
            tk.take(sign)
            if tk.token in ("", "+", "-"):
                raise tk.error("a sign must be followed by a term")
        mult = 1
        if _is_int(tk.token):
            mult = tk.integer()
            tk.take("*")
        entries.append((_parse_point(tk), -mult if sign == "-" else mult))
    return Divisor(entries)


def parse_divisor(text: str) -> Divisor:
    if _string(text).strip() in ("", "0"):  # blank text and "0" are the zero divisor
        return Divisor.zero()
    return _parse_whole(text, _parse_divisor, "divisor")


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
        if "num" in data or "den" in data:
            raise ParseError("a map has either 'const' or 'num' and 'den', not both")
        return RationalMap.constant(parse_point(data["const"]))
    if "num" not in data:
        raise ParseError("a map needs either 'num' or 'const'")
    dn, zn = _clear(_parse_whole(data["num"], _parse_expr, "polynomial"))
    dd, zd = _clear(_parse_whole(data.get("den", "1"), _parse_expr, "polynomial"))
    # (zn / dn) / (zd / dd)
    return RationalMap.from_ints([v * dd for v in zn], [v * dn for v in zd])


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
    from .functors import IYObject  # imported here, so that loading formats leaves functors unloaded

    return IYObject(y=parse_divisor(data.get("Y", "0")), z=parse_divisor(data.get("Z", "0")))


def iy_to_json(o: IYObject) -> dict:
    return {"Y": divisor_to_text(o.y), "Z": divisor_to_text(o.z)}


def mlog_from_json(data: Any) -> MlogObject:
    if not isinstance(data, dict):
        raise ParseError("a boundary/modulus object is a JSON object")
    from .functors import MlogObject

    return MlogObject(
        boundary_div=parse_divisor(data.get("boundary", "0")),
        modulus_div=parse_divisor(data.get("modulus", "0")),
    )


def mlog_to_json(o: MlogObject) -> dict:
    return {"boundary": divisor_to_text(o.boundary_div), "modulus": divisor_to_text(o.modulus_div)}


def ne_from_json(data: Any) -> NePair:
    if not isinstance(data, dict):
        raise ParseError("a signed pair is a JSON object")
    from .functors import NePair

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
    """Parse inline text (or JSON text) into a typed object; each distinct
    point in it is proved irreducible once."""
    request = _REQUEST_POINTS.set({})
    try:
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
    finally:
        _REQUEST_POINTS.reset(request)
