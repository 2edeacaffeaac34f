"""Independent brute-force oracles used by the property suites.

These deliberately avoid the main code paths they certify: the
divisor oracles enumerate every common lower bound, and the
irreducibility oracle works from rational roots, naive trial-division
factor patterns over small prime fields, and bounded integer factor
enumeration.  Nothing here touches the Hensel machinery: of the kernel
only ``Poly`` is used, and division mod p and over Z is done here by
schoolbook.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from .divisors import Divisor
from .errors import DegenerateInput
from .ratpoly import Poly


# ---------------------------------------------------------------------------
# common lower bounds of divisor pairs
# ---------------------------------------------------------------------------


def common_lower_bounds(d1: Divisor, d2: Divisor) -> Iterator[Divisor]:
    """Every effective E below both divisors (both must be effective)."""
    shared = sorted(d1.support() & d2.support(), key=lambda p: p.sort_key())
    caps = [min(d1.multiplicity(p), d2.multiplicity(p)) for p in shared]
    for choice in itertools.product(*(range(c + 1) for c in caps)):
        yield Divisor((p, m) for p, m in zip(shared, choice))


def disjoint_after_subtracting(d1: Divisor, d2: Divisor, e: Divisor) -> bool:
    return not ((d1 - e).support() & (d2 - e).support())


# ---------------------------------------------------------------------------
# irreducibility over Q, for degrees up to six
# ---------------------------------------------------------------------------

_ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class OracleBudgetExceeded(DegenerateInput):
    """The bounded factor enumeration would be too large to run."""


def _divisors_of(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def rational_roots(ints: list[int]) -> list:
    """All rational roots of an integer polynomial (exact).

    A candidate num/den in lowest terms is a root exactly when
    den^n * f(num/den), a sum of integers, is zero; a candidate not in
    lowest terms was met as its reduced form at a smaller numerator."""
    from fractions import Fraction

    if not ints:
        raise DegenerateInput("zero polynomial")
    roots = []
    shift = 0
    while ints[shift] == 0:
        shift += 1
    if shift:
        roots.append(Fraction(0))
        ints = ints[shift:]
    top = ints[::-1]
    for num in _divisors_of(ints[0]):
        for den in _divisors_of(ints[-1]):
            if math.gcd(num, den) != 1:
                continue
            for sign in (1, -1):
                acc, scale = 0, 1
                for c in top:  # Horner on the homogenized form
                    acc = acc * sign * num + c * scale
                    scale *= den
                if acc == 0:
                    roots.append(Fraction(sign * num, den))
    return roots


def _reduce_mod_p(a: list[int], p: int) -> list[int]:
    out = [c % p for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _divmod_mod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Schoolbook quotient and remainder of a by a nonzero b mod p."""
    rem, b = _reduce_mod_p(a, p), _reduce_mod_p(b, p)
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        c = quo[shift] = rem[-1] * inv % p
        for j, bc in enumerate(b):
            rem[shift + j] -= c * bc
        rem = _reduce_mod_p(rem, p)
    return quo, rem


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd mod p by Euclid's algorithm, up to a unit."""
    a, b = _reduce_mod_p(a, p), _reduce_mod_p(b, p)
    while b:
        a, b = b, _divmod_mod_p(a, b, p)[1]
    return a


def _divides_over_z(b: list[int], a: list[int]) -> bool:
    """Whether b divides a in Z[x], by schoolbook division."""
    rem = list(a)
    while len(rem) >= len(b):
        c, r = divmod(rem[-1], b[-1])
        if r:
            return False
        shift = len(rem) - len(b)
        for j, bc in enumerate(b):
            rem[shift + j] -= c * bc
        while rem and not rem[-1]:
            rem.pop()
    return not rem


def _naive_factor_degrees_mod_p(f: list[int], p: int) -> Optional[list[int]]:
    """Degree multiset of the irreducible factors of f mod p, by trial division.

    Returns None if p is a prime of bad reduction (leading coefficient
    drops or the reduction is not squarefree).
    """
    if f[-1] % p == 0:
        return None
    inv = pow(f[-1], -1, p)
    g = [c * inv % p for c in f]
    deriv = _reduce_mod_p([i * c for i, c in enumerate(g)][1:], p)
    if not deriv or len(_gcd_mod_p(g, deriv, p)) != 1:
        return None
    degrees = []
    d = 1
    # exhausting lower degrees first keeps reducible candidates harmless
    while 2 * d <= len(g) - 1:
        progressed = True
        while progressed and 2 * d <= len(g) - 1:
            progressed = False
            for cand_tail in itertools.product(range(p), repeat=d):
                cand = list(cand_tail) + [1]
                quo, rem = _divmod_mod_p(g, cand, p)
                if not rem:
                    degrees.append(d)
                    g = quo
                    progressed = True
                    break
        d += 1
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return sorted(degrees)


def _possible_factor_degrees(degrees: list[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    total = sum(degrees)
    return {s for s in sums if 0 < s < total}


def _enumerate_factor(ints: list[int], d: int, budget: int) -> Optional[list[int]]:
    """Search for an integer factor of exact degree d; None if there is none."""
    norm2 = math.isqrt(sum(c * c for c in ints)) + 1
    bound = (1 << d) * norm2
    lead_choices = _divisors_of(ints[-1])
    tail_choices = [s * t for t in _divisors_of(ints[0]) for s in (1, -1)]
    middle = d - 1
    cost = len(lead_choices) * len(tail_choices) * (2 * bound + 1) ** middle
    if cost > budget:
        raise OracleBudgetExceeded(f"enumeration of {cost} candidates refused")
    for lead in lead_choices:
        for tail in tail_choices:
            for mids in itertools.product(range(-bound, bound + 1), repeat=middle):
                cand = [tail, *mids, lead]
                if _divides_over_z(cand, ints):
                    return cand
    return None


def verify_irreducible(p: Poly, budget: int = 4_000_000) -> bool:
    """Decide irreducibility over Q for degree at most six, independently.

    Strategy: rational roots rule on linear factors; degrees two and
    three need nothing else; above that, factor degree patterns modulo
    several small primes (factored by naive trial division) usually
    certify, and bounded integer factor enumeration settles the rest.
    """
    if p.is_zero or p.is_constant:
        return False
    deg = int(p.degree)
    if deg > 6:
        raise DegenerateInput("oracle only handles degree up to six")
    _, ints = p.int_primitive()
    if rational_roots(ints):
        return deg == 1
    if deg <= 3:
        return True
    candidates = set(range(2, deg // 2 + 1))
    for prime in _ORACLE_PRIMES:
        pattern = _naive_factor_degrees_mod_p(ints, prime)
        if pattern is None:
            continue
        possible = _possible_factor_degrees(pattern)
        candidates &= {d for d in possible if 2 <= d <= deg // 2}
        if not candidates:
            return True
    for d in sorted(candidates):
        if _enumerate_factor(ints, d, budget) is not None:
            return False
    return True
