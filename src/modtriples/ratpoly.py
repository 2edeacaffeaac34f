"""Exact univariate polynomial arithmetic over the rationals.

This is the computational substrate for every divisor operation: gcd,
squarefree decomposition, irreducible factorization and resultants, all
exact.  Rational numbers are ``fractions.Fraction`` (always in lowest
terms, positive denominator).

Factorization follows the classic route: squarefree decomposition
(Yun, run over Z[x] on primitive integer coefficient lists, since it
needs only gcds and exact quotients); factor degrees modulo a few small
primes of good reduction (roots, then a DDF only where they leave it
open), whose patterns often prove irreducibility outright (Musser); DDF
and Cantor-Zassenhaus splitting at the prime with the fewest factors,
both computing mod (f, p) in one packed residue ring; quadratic Hensel
lifting; and factor recombination, which raises DegenerateInput past a
budget of MAX_RECOMBINATION_SUBSETS subsets.  Irreducibility alone is
first tried by Eisenstein's criterion at the primes below 100, with no
factoring.

A pullback fiber f = den^e * q(num/den) over a point q of degree e is,
up to a constant, the norm from K = Q(θ), q(θ) = 0, of num - θ*den, so
a factor of f over Q has some K-degree m (Capelli's lemma, Schinzel,
Polynomials with Special Regard to Reducibility, 2000, §2.1, in Trager's
norm form, SYMSAC 1976).  The degree patterns are read at the degree-one
primes of K: a simple root r of q mod p lifts to an embedding K -> Q_p
(Hensel), under which a factor of K-degree m reduces to a degree-m divisor
of num - r*den mod p (Gauss's lemma over Z_p); then at the factor degrees
of f itself (``_patterns``).  A plain polynomial is the trivial fiber q = x.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DegenerateInput, Immutable, Record

NEG_INFINITY = float("-inf")  # degree of the zero polynomial
MAX_RECOMBINATION_SUBSETS = 100_000  # factor subsets that recombination tries before DegenerateInput


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


class Poly(Immutable):
    """A dense univariate polynomial with Fraction coefficients, read-only.

    Poly is the type of the public polynomial API only; arithmetic runs on
    integer coefficient lists (the ``_z*`` helpers below), and points and
    maps are built from such lists.  Coefficients are stored ascending; the
    highest stored index is nonzero unless the polynomial is zero (empty
    tuple).  Instances are immutable and hashable, with the hash of their
    coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        _trim(cs)
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, coeffs: tuple) -> "Poly":
        # trusted: coefficients are Fractions and already trimmed
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

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

    __iter__ = None  # p[k] reads 0 past the top: list(p) and ``c in p`` raise instead of never ending

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

    # -- comparison / display -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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
    if len(a) > 1 and len(b) > 1:
        for p in _FILTER_PRIMES:
            if a[-1] % p and b[-1] % p:
                if len(_pgcd(a, b, p)) == 1:
                    return [1]
                break
    return _zprimitive(_zsubresultant(a, b)[1])


def _zsubresultant(a: list[int], b: list[int]) -> tuple[list[int], list[int], int, int]:
    """The subresultant pseudo-remainder sequence of nonzero a and b, the longer first,
    run until a remainder vanishes or is constant.  Returns (a, b, h, sign): b is the
    last nonzero remainder, a constant exactly when the inputs are coprime, a the one
    before it, h the sequence's scale and sign the product of (-1)^(deg a * deg b) over
    its swaps and steps; the last three give the resultant."""
    g = h = sign = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        a, b = b, a
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        rem = _zprem(a, b)
        if not rem:
            return a, b, h, sign
        a, b = b, [c // (g * h**delta) for c in rem]
        g = a[-1]
        if delta:
            h = g if delta == 1 else g**delta // h ** (delta - 1)
        if len(b) == 1:
            return a, b, h, sign


def _zderiv(a: list[int]) -> list[int]:
    return _trim([i * c for i, c in enumerate(a)][1:])


def _zyun(f: list[int]) -> list[tuple[int, list[int]]]:
    """Yun's squarefree decomposition of a primitive f, deg f >= 1 and lc(f) > 0.

    Returns (multiplicity, part) pairs with increasing multiplicities and
    f = prod(part^multiplicity); the parts are primitive, squarefree,
    pairwise coprime and have positive leading coefficients.  Every step
    divides b and d by the same polynomial, so the ratio d / b that drives
    the algorithm ignores integer contents, and every quotient is exact in
    Z[x] because the gcds are primitive (Gauss's lemma).
    """
    df, p = _zderiv(f), _FILTER_PRIMES[0]
    # squarefree mod a p not dividing lc(f) means squarefree over Q: a common
    # factor of f and f' over Z keeps its degree mod p
    if f[-1] % p and len(_pgcd(f, df, p)) == 1:
        return [(1, f)]
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
    """Monic gcd mod a prime p, by remainders alone: each step reduces the dividend
    in place, builds no quotient and drops the top slots it zeroes unwritten."""
    a, b = _pmod(a, p), _pmod(b, p)
    while b:
        top = len(b) - 1
        inv = pow(b[-1], -1, p)
        for i in range(len(a) - 1, top - 1, -1):
            c = a[i] * inv % p
            if c:
                off = i - top
                for j in range(top):
                    a[off + j] = (a[off + j] - c * b[j]) % p
        del a[top:]
        a, b = b, _trim(a)
    return _pmonic(a, p)


def _pmonic(a: list[int], p: int) -> list[int]:
    a = _pmod(a, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pbezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b = 1 mod p, for coprime a, b; deg s < deg b and deg t < deg a."""
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


class _Ring:
    """Residues mod (f, p), for a monic f of degree n >= 2 and a prime p: lists of at most
    n coefficients in [0, p), packed into big ints w bits a coefficient, so that one big-int
    product multiplies two residues and the rows x^i mod f (i < 2n - 1) reduce it."""

    def __init__(self, f: list[int], p: int):
        n = self.n = len(f) - 1
        self.p, self.w = p, (2 * n * p * p).bit_length()  # a slot holds a sum of 2n products
        self.rows = [1 << (self.w * i) for i in range(n)]
        top = [-c % p for c in f[:-1]]  # x^n mod f, then x^(n+1) mod f, ...
        for _ in range(n - 1):
            self.rows.append(self.pack(top))
            top = [(c - top[-1] * fc) % p for c, fc in zip([0] + top[:-1], f)]

    def pack(self, a: list[int]) -> int:
        v, w = 0, self.w
        for c in reversed(a):
            v = (v << w) | c
        return v

    def unpack(self, v: int, m: int | None = None) -> list[int]:
        """The first m slots of v (n by default), each reduced mod p."""
        w, p = self.w, self.p
        mask = (1 << w) - 1
        out = []
        for _ in range(self.n if m is None else m):
            out.append((v & mask) % p)
            v >>= w
        return out

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        prod = self.unpack(self.pack(a) * self.pack(b), 2 * self.n - 1)
        return self.unpack(sum(c * r for c, r in zip(prod, self.rows)))

    def pow(self, a: list[int], e: int) -> list[int]:
        result = a  # e >= 1, read from its top bit down
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


def _pddf(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorization of a monic squarefree f mod p, deg f >= 2.

    Returns pairs (d, g), g the monic product of the irreducible factors
    of degree d.  Products mod f run in one ``_Ring``, whose packed
    Frobenius rows x^(i*p) mod f make h -> h^p one vector-matrix product.
    A gcd costs O(n^2) list operations and a packed product O(n), so the
    values h - x for n // 16 + 1 consecutive degrees share one gcd with f.
    """
    ring = _Ring(f, p)
    row = xp = ring.pow([0, 1], p)
    frobenius = [1, ring.pack(xp)]
    for _ in range(ring.n - 2):
        row = ring.mul(row, xp)
        frobenius.append(ring.pack(row))
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        block = []
        for _ in range(min(ring.n // 16 + 1, (len(f) - 1) // 2 - d)):
            h = ring.unpack(sum(c * r for c, r in zip(h, frobenius)))
            block.append(_pmod(_zsub(h, [0, 1]), p))
        g = _pgcd(f, functools.reduce(ring.mul, block), p)
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
    ring, e = _Ring(g, p), (p**d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        s = _pgcd(g, _zsub(ring.pow(a, e), [1]), p)
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
    s, t = _pbezout(g, h, p)  # Euclid's cofactors meet the step's degree bounds (MCA, Lemma 3.15)
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


def _patterns(f: list[int], q: list[int], num: list[int], den: list[int]) -> Iterator[tuple[int, list[int], set[int]]]:
    """(p, factor degrees of a squarefree g mod p, degrees c) such that a factor of the fiber
    form f of K-degree m reduces to a divisor of g of degree m*c for each c.  For a q of degree
    e >= 2 first g = num - r*den and c = 1 at each simple root r of q mod p, p not dividing
    lc(q), where g keeps its degree: up to the fourth prime that gives a pattern, or the 32nd
    odd prime, since a point may have no root mod any small prime (x^256 + 1 has none below
    7681).  Then g = f at four primes of good reduction, with c = e (the whole factor) and,
    where q mod p keeps its degree and is squarefree, the degree of each prime of K over p."""
    e, k = len(q) - 1, max(len(num), len(den)) - 1
    if e > 1:
        dq, found, last = _zderiv(q), 0, 0
        for p in itertools.islice(_primes(), 32):
            if found == 4:
                break
            if not q[-1] % p:
                continue
            for r in range(p):
                if _peval(q, r, p) or not _peval(dq, r, p):
                    continue
                g = _zsub(num, [r * c for c in den])
                if len(g) == k + 1 and g[-1] % p and len(_pgcd(g, _zderiv(g), p)) == 1:
                    last = p
                    yield p, _pdegrees(_pmonic(g, p), p), {1}
            found += last == p
    good = (p for p in _primes() if f[-1] % p and len(_pgcd(f, _zderiv(f), p)) == 1)
    for p in itertools.islice(good, 4):
        degrees = {e}
        if e > 1 and q[-1] % p and len(_pgcd(q, _zderiv(q), p)) == 1:
            degrees |= set(_pdegrees(_pmonic(q, p), p))
        yield p, _pdegrees(_pmonic(f, p), p), degrees


def _pdegrees(g: list[int], p: int) -> list[int]:
    """The factor degrees of a monic squarefree g mod p, ascending: a rest without roots
    among 0..p-1 is irreducible at degree 2 or 3, and only a larger one needs the DDF."""
    n = len(g) - 1
    roots = sum(1 for r in range(p) if not _peval(g, r, p))
    if n - roots > 3:
        return [d for d, h in _pddf(g, p) for _ in range((len(h) - 1) // d)]
    return [1] * roots + [n - roots] * (n > roots)


def _peval(a: list[int], r: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * r + c) % p
    return v


def _factor_squarefree_int(f: list[int], q: list[int], num: list[int], den: list[int]) -> list[list[int]]:
    """Irreducible factors (primitive, positive lc) of a primitive squarefree fiber form
    f = c * den^e * q(num/den), q primitive irreducible of degree e, num and den coprime of
    degree deg(f) / e.  f is irreducible once no K-degree m < deg(f) / e survives every
    pattern (``_patterns``); else it is lifted at the one of its four primes of good
    reduction with the fewest factors, whose DDF is computed there.  Any squarefree f is its
    own trivial fiber q = x, num = f, den = 1.  A quadratic f is settled by its discriminant."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    if n == 2:
        return _split_quadratic(f)
    open_m = set(range(1, n // (len(q) - 1)))
    scanned = []
    for p, pattern, degrees in _patterns(f, q, num, den):
        sums = {0}
        for d in pattern:
            sums |= {s + d for s in sums}
        for c in degrees:
            open_m = {m for m in open_m if m * c in sums}
        if not open_m:
            return [f]
        scanned.append((len(pattern), p))
    _, p = min(scanned[-4:])  # the patterns of f, primes ascending
    rng = random.Random(p)
    parts = [r for d, g in _pddf(_pmonic(f, p), p) for r in _pedf(g, d, p, rng)]
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
    tried = 0
    active = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(active):
        restart = False
        for combo in itertools.combinations(active, size):
            tried += 1
            if tried > MAX_RECOMBINATION_SUBSETS:
                raise DegenerateInput(f"factor recombination above {MAX_RECOMBINATION_SUBSETS} subsets")
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
    return _monic_from_ints(_zgcd(a.int_primitive()[1], b.int_primitive()[1]))


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


class FactoredPoly(Record):
    """Canonical factorization unit * prod(factor^multiplicity).

    Factors are monic irreducible over Q, pairwise distinct, sorted by
    (degree, lexicographic coefficients from the top down).
    """

    __slots__ = ("unit", "factors")

    def expand(self) -> Poly:
        acc = [self.unit]
        for q, m in self.factors:
            acc = _zmul(acc, _zpow(q.coeffs, m))
        return Poly(acc)

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


_EISENSTEIN_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))


def is_irreducible(p: Poly) -> bool:
    """True if p is irreducible over Q (degree >= 1)."""
    return len(p.coeffs) > 1 and _zirreducible(p.int_primitive()[1])


def _zirreducible(f: list[int]) -> bool:
    """True if a primitive f of degree >= 1 is irreducible over Q: the one
    irreducibility test behind ``is_irreducible`` and every closed point.

    Decided without a full factorization: a quadratic c + b*x + a*x^2 is
    irreducible exactly when b^2 - 4ac is not a square.  From degree 3,
    Eisenstein's criterion at a prime below 100 certifies f from one
    content gcd; when it fails, a squarefree f goes to the factoring
    kernel, whose degree patterns usually certify it unlifted.
    """
    n = len(f) - 1
    if n == 1:
        return True
    if n == 2:
        return len(_split_quadratic(f)) == 1
    g = math.gcd(*f[:-1])  # f is primitive, so no prime dividing g divides lc(f)
    if g != 1 and any(g % q == 0 and f[0] % (q * q) for q in _EISENSTEIN_PRIMES):
        return True
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
    a, b, h, sign = _zsubresultant(a, b)
    if len(b) > 1:
        return Fraction(0)
    da = len(a) - 1
    return sign * (Fraction(b[0] ** da, h ** (da - 1)) if da >= 1 else Fraction(b[0]))
