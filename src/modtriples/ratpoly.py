"""Exact univariate polynomial arithmetic over the rationals.

This is the computational substrate for every divisor operation: gcd,
squarefree decomposition, irreducible factorization and resultants, all
exact.  Rational numbers are ``fractions.Fraction`` (always in lowest
terms, positive denominator), aliased as ``Rat``.

Factorization follows the classic route: squarefree decomposition
(Yun, run over Z[x] on primitive integer coefficient lists, since it
needs only gcds and exact quotients); distinct-degree factorization
modulo a few small primes of good reduction, whose degree patterns
often prove irreducibility outright (Musser); Cantor-Zassenhaus
equal-degree splitting at the prime with the fewest factors; quadratic
Hensel lifting; and factor recombination, exponential in the worst
case, which is fine at desk scale (degrees stay small and inputs are
not adversarial).

A pullback fiber f = den^e * q(num/den) over a point q of degree e is,
up to a constant, the norm from K = Q(θ), q(θ) = 0, of num - θ*den, so
a factor of f over Q has some K-degree m (Capelli's lemma, Schinzel,
Polynomials with Special Regard to Reducibility, 2000, §2.1, in Trager's
norm form, SYMSAC 1976) and puts m * deg(Q_j) of its degree into the
fiber G_j over each irreducible factor Q_j of q mod p: the degree patterns
are read per Q_j, and a plain polynomial is the trivial fiber q = x.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DegenerateInput

Rat = Fraction

NEG_INFINITY = float("-inf")  # degree of the zero polynomial


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


class Poly:
    """A dense univariate polynomial with Fraction coefficients.

    Coefficients are stored ascending; the highest stored index is
    nonzero unless the polynomial is zero (empty tuple).  Instances are
    immutable and hashable, so they can live in divisor supports; the
    hash, ``hash(coeffs)``, is computed on first use and kept.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        _trim(cs)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, coeffs: tuple) -> "Poly":
        # trusted: coefficients are Fractions and already trimmed
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._raw(tuple(_trim(out)))

    def __neg__(self) -> "Poly":
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._raw(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly._raw(tuple(_trim(out)))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly._raw(())
        return Poly._raw(tuple(cc * c for cc in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        return Poly(_zpow(list(self.coeffs), n))

    def __call__(self, value: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DegenerateInput("zero polynomial has no monic form")
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return self.scale(1 / lc)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact euclidean division over Q."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return Poly(()), self
        rem = list(self.coeffs)
        div = other.coeffs
        dlen = len(div)
        inv_lc = 1 / div[-1]
        quo = [Fraction(0)] * (len(rem) - dlen + 1)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + dlen - 1] * inv_lc
            if c:
                quo[i] = c
                for j in range(dlen):
                    rem[i + j] -= c * div[j]
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return other.divmod(self)[1].is_zero

    # -- integer form --------------------------------------------------

    def int_primitive(self) -> tuple[Fraction, list[int]]:
        """Write self = content * P with P primitive in Z[x], lc(P) > 0.

        Returns (content, coefficient list of P).  Zero maps to (0, []).
        """
        if self.is_zero:
            return Fraction(0), []
        denom_lcm = 1
        for c in self.coeffs:
            denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
        ints = [c.numerator * (denom_lcm // c.denominator) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        if ints[-1] < 0:
            g = -g
        ints = [v // g for v in ints]
        return Fraction(g, denom_lcm), ints

    @classmethod
    def from_int_coeffs(cls, ints: Iterable[int]) -> "Poly":
        return cls._raw(tuple(_trim([Fraction(v) for v in ints])))

    # -- comparison / display -------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Poly):
            return False
        try:  # hashes that are already cached settle most inequalities
            if self._hash != other._hash:
                return False
        except AttributeError:
            pass
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.coeffs)
            object.__setattr__(self, "_hash", h)
            return h

    def sort_key(self) -> tuple:
        # degree first, then coefficients from the top down; integral ones
        # as ints, which order like the Fractions they equal but compare
        # without Fraction's Python-level operators
        return (
            len(self.coeffs),
            tuple(c.numerator if c.denominator == 1 else c for c in reversed(self.coeffs)),
        )

    def __repr__(self) -> str:
        from .formats import poly_to_text  # local import avoids a cycle

        return f"Poly({poly_to_text(self)!r})"


# ---------------------------------------------------------------------------
# integer-coefficient helpers (dense lists of python ints, ascending); the
# sums and products below also serve lists that mix in Fractions
# ---------------------------------------------------------------------------


def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _zadd(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _zsub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _zpow(a: list[int], n: int) -> list[int]:
    result = [1]
    while n:
        if n & 1:
            result = _zmul(result, a)
        n >>= 1
        if n:  # the square after the top bit would go unused
            a = _zmul(a, a)
    return result


def _zhomog(c: list[int], num: list[int], den: list[int], d: int) -> list[int]:
    """The homogenized substitution sum(c[i] * num^i * den^(d - i)) for len(c) <= d + 1,
    by Horner's rule from the top coefficient."""
    acc: list[int] = []
    den_pow = [1]
    for i in range(d, -1, -1):
        if acc:
            acc = _zmul(acc, num)
        if i < len(c) and c[i]:
            acc = _zadd(acc, [c[i] * v for v in den_pow])
        if i:
            den_pow = _zmul(den_pow, den)
    return acc


def _zcontent(a: list[int]) -> int:
    g = 0
    for v in a:
        g = math.gcd(g, v)
    return g


def _zprimitive(a: list[int]) -> list[int]:
    g = _zcontent(a)
    if g == 0:
        return []
    if a[-1] < 0:
        g = -g
    return [v // g for v in a]


def _zdiv_exact(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a // b in Z[x] if the division is exact, else None."""
    if not b:
        return None
    if not a:
        return []
    if len(a) < len(b):
        return None
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(quo) - 1, -1, -1):
        num = rem[i + len(b) - 1]
        if num % lead:
            return None
        c = num // lead
        quo[i] = c
        if c:
            for j in range(len(b)):
                rem[i + j] -= c * b[j]
    return quo if not any(rem) else None


def _zprem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b."""
    rem = list(a)
    lb = b[-1]
    steps = len(a) - len(b) + 1
    while len(rem) >= len(b) and rem:
        lead = rem[-1]
        rem = [c * lb for c in rem]
        shift = len(rem) - len(b)
        for j in range(len(b)):
            rem[shift + j] -= lead * b[j]
        _trim(rem)
        steps -= 1
    if steps > 0:
        scale = lb**steps
        rem = [c * scale for c in rem]
    return rem


_FILTER_PRIMES = (999999937, 999999893)


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[x] via the subresultant remainder sequence.

    A modular coprimality filter handles the common case first: if the
    reductions mod a large prime are coprime, so are the inputs.
    """
    a, b = _zprimitive(a), _zprimitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        for p in _FILTER_PRIMES:
            if a[-1] % p and b[-1] % p:
                if len(_pgcd(a, b, p)) == 1:
                    return [1]
                break
    g, h = 1, 1
    while True:
        delta = len(a) - len(b)
        rem = _zprem(a, b)
        if not rem:
            return _zprimitive(b)
        if len(rem) == 1:
            return [1]
        a, b = b, [c // (g * h**delta) for c in rem]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1) if delta > 1 else g
    # unreachable


def _zderiv(a: list[int]) -> list[int]:
    return _trim([i * c for i, c in enumerate(a)][1:])


def _zyun(f: list[int]) -> list[tuple[int, list[int]]]:
    """Yun's squarefree decomposition of a primitive f of degree >= 1.

    Returns (multiplicity, part) pairs with increasing multiplicities and
    f = ±prod(part^multiplicity); the parts are primitive, squarefree,
    pairwise coprime and have positive leading coefficients.  Every step
    divides b and d by the same polynomial, so the ratio d / b that drives
    the algorithm ignores integer contents, and every quotient is exact in
    Z[x] because the gcds are primitive (Gauss's lemma).
    """
    df = _zderiv(f)
    a = _zgcd(f, df)
    b = _zdiv_exact(f, a)
    d = _zsub(_zdiv_exact(df, a), _zderiv(b))
    out = []
    mult = 1
    while len(b) > 1:
        g = _zgcd(b, d)
        if len(g) > 1:
            out.append((mult, g))
        b = _zdiv_exact(b, g)
        d = _zsub(_zdiv_exact(d, g), _zderiv(b))
        mult += 1
    return out


def _monic_from_ints(a: list[int]) -> Poly:
    """The monic rational multiple of a nonzero integer polynomial."""
    lc = a[-1]
    return Poly._raw(tuple(Fraction(c, lc) for c in a))


# ---------------------------------------------------------------------------
# arithmetic mod m: sums and products are the _z* helpers followed by
# _pmod.  m is a prime p or, for Hensel lifting, a power p^k; division
# then needs a unit leading coefficient, which every divisor here has.
# ---------------------------------------------------------------------------


def _pmod(a: list[int], p: int) -> list[int]:
    return _trim([c % p for c in a])


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError
    rem = [c % p for c in a]
    _trim(rem)
    if len(rem) < len(b):
        return [], rem
    inv = pow(b[-1], -1, p)
    quo = [0] * (len(rem) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        quo[i] = c
        if c:
            for j in range(len(b)):
                rem[i + j] = (rem[i + j] - c * b[j]) % p
    return _trim(quo), _trim(rem)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod a prime p."""
    a, b = _pmod(a, p), _pmod(b, p)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p)


def _pmonic(a: list[int], p: int) -> list[int]:
    a = _pmod(a, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_zmul(result, base), mod, p)[1]
        e >>= 1
        if e:
            base = _pdivmod(_zmul(base, base), mod, p)[1]
    return result


def _pbezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b = 1 mod p, for coprime a, b."""
    r0, r1 = _pmod(a, p), _pmod(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pmod(_zsub(s0, _zmul(q, s1)), p)
        t0, t1 = t1, _pmod(_zsub(t0, _zmul(q, t1)), p)
    if len(r0) != 1:
        raise ArithmeticError("inputs not coprime mod p")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _pddf(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorization of a monic squarefree f mod p.

    Returns pairs (d, g), g the monic product of the irreducible factors
    of degree d.  Products mod f run on residues packed into big ints, w
    bits a coefficient: the rows x^i mod f (i < 2n - 1) reduce a
    product, and the Frobenius rows x^(i*p) mod f make h -> h^p one
    vector-matrix product.  A gcd costs O(n^2) list operations and a
    packed product O(n), so the values h - x for n // 16 + 1 consecutive
    degrees share one gcd with f.
    """
    n = len(f) - 1
    w = (2 * n * p * p).bit_length()  # a slot holds a sum of 2n products
    mask = (1 << w) - 1

    def pack(a: list[int]) -> int:
        v = 0
        for c in reversed(a):
            v = (v << w) | c
        return v

    def unpack(v: int, m: int = n) -> list[int]:
        out = []
        for _ in range(m):
            out.append((v & mask) % p)
            v >>= w
        return out

    reduce_rows = [1 << (w * i) for i in range(n)]
    top = [-c % p for c in f[:-1]]  # x^n mod f, then x^(n+1) mod f, ...
    for _ in range(n - 1):
        reduce_rows.append(pack(top))
        top = [(c - top[-1] * fc) % p for c, fc in zip([0] + top[:-1], f)]

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        prod = unpack(pack(a) * pack(b), 2 * n - 1)
        return unpack(sum(c * r for c, r in zip(prod, reduce_rows)))

    xp = _ppowmod([0, 1], p, f, p)
    frobenius = [1, pack(xp)]
    row = xp
    for _ in range(n - 2):
        row = mulmod(row, xp)
        frobenius.append(pack(row))
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        block = []
        for _ in range(min(n // 16 + 1, (len(f) - 1) // 2 - d)):
            h = unpack(sum(c * r for c, r in zip(h, frobenius)))
            block.append(_pmod(_zsub(h, [0, 1]), p))
        g = _pgcd(f, functools.reduce(mulmod, block), p)
        for i, hx in enumerate(block, 1):
            d += 1
            # g holds f's factors of degrees d to the block's last: then only d
            gd = g if i == len(block) or len(g) == 1 else _pgcd(g, hx, p)
            if len(gd) > 1:
                out.append((d, gd))
                g = _pdivmod(g, gd, p)[0]
                f = _pdivmod(f, gd, p)[0]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _pedf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Split a monic g mod an odd prime p, all of whose irreducible factors
    have degree d, into those factors (Cantor-Zassenhaus)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        s = _pgcd(g, _zsub(_ppowmod(a, e, g, p), [1]), p)
        if 0 < len(s) - 1 < n:
            return _pedf(s, d, p, rng) + _pedf(_pdivmod(g, s, p)[0], d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (von zur Gathen & Gerhard, Modern Computer Algebra, 15.10/15.17)
# ---------------------------------------------------------------------------


def _hensel_step(f, g, h, s, t, m):
    m2 = m * m
    e = _pmod(_zsub(f, _zmul(g, h)), m2)
    q, r = _pdivmod(_zmul(s, e), h, m2)
    g1 = _pmod(_zadd(g, _zadd(_zmul(t, e), _zmul(q, g))), m2)
    h1 = _pmod(_zadd(h, r), m2)
    b = _pmod(_zsub(_zadd(_zmul(s, g1), _zmul(t, h1)), [1]), m2)
    c, d = _pdivmod(_zmul(s, b), h1, m2)
    s1 = _pmod(_zsub(s, d), m2)
    t1 = _pmod(_zsub(t, _zadd(_zmul(t, b), _zmul(c, g1))), m2)
    return g1, h1, s1, t1


def _hensel_lift_pair(f, g, h, p, target):
    """Lift f = g*h from mod p to mod p^k >= target; h stays monic."""
    s, t = _pbezout(g, h, p)
    # degree bounds deg s < deg h, deg t < deg g are required by the step
    s = _pdivmod(s, h, p)[1]
    t, t_rem = _pdivmod(_zsub([1], _zmul(s, g)), h, p)
    if t_rem:
        raise ArithmeticError("Bezout normalization failed")
    m = p
    while m < target:
        f_red = _pmod(f, m * m)
        g, h, s, t = _hensel_step(f_red, g, h, s, t, m)
        m = m * m
    return _pmod(g, target), _pmod(h, target)


def _hensel_lift_list(f: list[int], parts: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Lift f = lc(f) * prod(parts) mod p to mod target, returning monic lifts."""
    if len(parts) == 1:
        return [_pmonic(f, target)]
    k = len(parts) // 2
    g = [f[-1] % p]
    for q in parts[:k]:
        g = _pmod(_zmul(g, q), p)
    h = [1]
    for q in parts[k:]:
        h = _pmod(_zmul(h, q), p)
    g_lift, h_lift = _hensel_lift_pair(_pmod(f, target), g, h, p, target)
    return _hensel_lift_list(g_lift, parts[:k], p, target) + _hensel_lift_list(
        h_lift, parts[k:], p, target
    )


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _primes() -> Iterator[int]:
    """The odd primes, without end: a prime of good reduction for f exists
    because the bad ones divide lc(f) * disc(f), which is nonzero."""
    n = 1
    while True:
        n += 2
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n


def _residue_fibers(f: list[int], q: list[int], num: list[int], den: list[int], p: int) -> list | None:
    """(deg Q_j, DDF of G_j = den^deg(Q_j) * Q_j(num/den) mod p) over the factors Q_j of
    q mod p; None unless lc(f) and lc(q) survive, num and den stay coprime and q and each
    G_j stay squarefree, so f is too.  A linear q leaves f its own residue fiber."""
    if not (f[-1] % p and q[-1] % p):
        return None
    if len(q) == 2:
        fibers = [(1, f)]
    elif len(_pgcd(num, den, p)) != 1 or len(_pgcd(q, _zderiv(q), p)) != 1:
        return None
    else:
        fibers = []
        for c, b in _pddf(_pmonic(q, p), p):
            for r in _pedf(b, c, p, random.Random(p)):
                fibers.append((c, _pmod(_zhomog(r, num, den, c), p)))
    out = []
    for c, g in fibers:
        if len(_pgcd(g, _zderiv(g), p)) != 1:
            return None
        out.append((c, _pddf(_pmonic(g, p), p)))
    return out


def _factor_squarefree_int(f: list[int], q: list[int], num: list[int], den: list[int]) -> list[list[int]]:
    """Irreducible factors (primitive, positive lc) of a primitive squarefree fiber form
    f = c * den^e * q(num/den), q primitive irreducible of degree e, num and den coprime of
    degree deg(f) / e.  Any squarefree f is its own trivial fiber q = x, num = f, den = 1.
    A quadratic f is settled by its discriminant."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    if n == 2:
        return _split_quadratic(f)
    open_m = set(range(1, n // (len(q) - 1)))
    good = ((p, fibers) for p in _primes()
            if (fibers := _residue_fibers(f, q, num, den, p)) is not None)
    scanned = []
    for p, fibers in itertools.islice(good, 4):
        for c, ddf in fibers:
            sums = {0}
            for d, g in ddf:
                for _ in range((len(g) - 1) // d):
                    sums |= {s + d for s in sums}
            # a factor of K-degree m puts m * c of its degree into this G_j
            open_m = {m for m in open_m if m * c in sums}
        if not open_m:
            return [f]
        scanned.append((sum((len(g) - 1) // d for _, ddf in fibers for d, g in ddf), p, fibers))
    _, p, fibers = min(scanned)  # the fewest factors to lift
    rng = random.Random(p)
    parts = [r for _, ddf in fibers for d, g in ddf for r in _pedf(g, d, p, rng)]
    # lift to a modulus beyond twice the Mignotte factor bound
    norm2 = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 ** (n + 1) * norm2 * abs(f[-1])
    target = p
    while target <= 2 * bound:
        target *= p
    lifted = _hensel_lift_list(f, parts, p, target)
    return _recombine(f, lifted, target)


def _split_quadratic(f: list[int]) -> list[list[int]]:
    """The factors (primitive, positive lc) of a primitive c + b*x + a*x^2: itself unless
    b^2 - 4ac is a square s^2, else a*x^2 + b*x + c = (2a*x + b - s)(2a*x + b + s) / 4a."""
    c, b, a = f
    disc = b * b - 4 * a * c
    s = math.isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return [f]
    return [_zprimitive([b - s, 2 * a]), _zprimitive([b + s, 2 * a])]


def _recombine(f: list[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    found: list[list[int]] = []
    active = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(active):
        restart = False
        for combo in itertools.combinations(active, size):
            # cheap test on the constant coefficient first
            tail = f[-1]
            for i in combo:
                tail = tail * lifted[i][0] % modulus
            tail = _sym(tail, modulus)
            if f[0] and tail and (f[0] * f[-1]) % tail != 0:
                continue
            cand = [f[-1] % modulus]
            for i in combo:
                cand = _pmod(_zmul(cand, lifted[i]), modulus)
            cand = _zprimitive([_sym(c, modulus) for c in cand])
            quo = _zdiv_exact(f, cand)
            if quo is not None:
                found.append(cand)
                f = _zprimitive(quo)
                active = [i for i in active if i not in combo]
                restart = True
                break
        if not restart:
            size += 1
    if len(f) > 1:
        found.append(f)
    return found


# ---------------------------------------------------------------------------
# public kernel operations
# ---------------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over Q."""
    if a.is_zero and b.is_zero:
        raise DegenerateInput("gcd of two zero polynomials")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    _, za = a.int_primitive()
    _, zb = b.int_primitive()
    return _monic_from_ints(_zgcd(za, zb))


def squarefree_decomposition(p: Poly) -> list[tuple[int, Poly]]:
    """Yun decomposition p = unit * prod(part^mult), parts monic squarefree.

    Multiplicities are strictly increasing and the parts are pairwise
    coprime.  A nonzero constant decomposes into the empty list.
    """
    if p.is_zero:
        raise DegenerateInput("cannot decompose the zero polynomial")
    if p.is_constant:
        return []
    _, f = p.int_primitive()
    return [(mult, _monic_from_ints(part)) for mult, part in _zyun(f)]


def squarefree_part(p: Poly) -> Poly:
    """The monic product of the distinct irreducible factors of a nonzero p."""
    if p.is_zero:
        raise DegenerateInput("zero polynomial")
    if p.is_constant:
        return Poly.one()
    _, f = p.int_primitive()
    return _monic_from_ints(functools.reduce(_zmul, [part for _, part in _zyun(f)]))


@dataclass(frozen=True)
class FactoredPoly:
    """Canonical factorization unit * prod(factor^multiplicity).

    Factors are monic irreducible over Q, pairwise distinct, sorted by
    (degree, lexicographic coefficients from the top down).
    """

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        acc = Poly.constant(self.unit)
        for q, m in self.factors:
            acc = acc * q**m
        return acc

    def __iter__(self):
        return iter(self.factors)


def factor(p: Poly) -> FactoredPoly:
    """Factor p into monic irreducibles over Q.

    Raises DegenerateInput on the zero polynomial.  The recombination
    identity ``factored.expand() == p`` holds exactly.
    """
    if p.is_zero:
        raise DegenerateInput("cannot factor the zero polynomial")
    unit = p.leading
    if p.is_constant:
        return FactoredPoly(unit=unit, factors=())
    _, f = p.int_primitive()
    collected = [(_monic_from_ints(z), m) for z, m in _factor_fiber(_zyun(f))]
    collected.sort(key=lambda item: item[0].sort_key())
    return FactoredPoly(unit=Fraction(unit), factors=tuple(collected))


def _factor_fiber(parts: list[tuple[int, list[int]]], fiber: tuple | None = None) -> list[tuple[list[int], int]]:
    """(irreducible factor, multiplicity) pairs of a nonconstant form given by its ``_zyun``
    parts; each factor primitive with a positive leading coefficient.  An unramified form
    (one part, multiplicity 1) with a ``fiber`` (q, num, den) is certified as
    ``_factor_squarefree_int`` takes it; anything else is factored one part at a time as
    trivial fibers."""
    if fiber and len(parts) == 1 and parts[0][0] == 1:
        return [(z, 1) for z in _factor_squarefree_int(parts[0][1], *fiber)]
    return [(z, m) for m, part in parts for z in _factor_squarefree_int(part, [0, 1], part, [1])]


def is_irreducible(p: Poly) -> bool:
    """True if p is irreducible over Q (degree >= 1).

    Decided on the primitive integer form without a full factorization:
    a quadratic c + b*x + a*x^2 is irreducible exactly when b^2 - 4ac is
    not a square, and from degree 3 a squarefree f goes straight to the
    factoring kernel, whose degree patterns usually certify it unlifted.
    """
    n = len(p.coeffs) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    _, f = p.int_primitive()
    if n == 2:
        return len(_split_quadratic(f)) == 1
    if _zgcd(f, _zderiv(f)) != [1]:
        return False
    return len(_factor_squarefree_int(f, [0, 1], f, [1])) == 1


def resultant(a: Poly, b: Poly) -> Fraction:
    """Res(a, b) = lc(a)^deg(b) * prod b(alpha) over the roots of a.

    Computed by the subresultant pseudo-remainder sequence; zero exactly
    when the inputs share a factor.
    """
    if a.is_zero or b.is_zero:
        return Fraction(0)
    if a.is_constant and b.is_constant:
        return Fraction(1)
    if a.is_constant:
        return a.leading ** (len(b.coeffs) - 1)
    if b.is_constant:
        return b.leading ** (len(a.coeffs) - 1)
    ca, za = a.int_primitive()
    cb, zb = b.int_primitive()
    scale = ca ** (len(zb) - 1) * cb ** (len(za) - 1)
    return scale * _zresultant(za, zb)


def _zresultant(a: list[int], b: list[int]) -> Fraction:
    sign = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        a, b = b, a
    g, h = 1, 1
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        rem = _zprem(a, b)
        if not rem:
            return Fraction(0)
        divisor = g * h**delta
        a, b = b, [c // divisor for c in rem]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
        if len(b) == 1:
            break
    da = len(a) - 1
    value = Fraction(b[0] ** da, h ** (da - 1)) if da >= 1 else Fraction(b[0])
    return sign * value
