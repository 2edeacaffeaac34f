"""Cross-validation of the refinement-based checkers against naive routes.

The production admissibility and position checkers never factor
anything; these tests recompute the same verdicts through honest
irreducible factorization of every pullback and compare.
"""

import random

from modtriples import (
    Divisor,
    ModulusTriple,
    RationalMap,
    modulus_condition,
    point_image,
    pullback_divisor,
)
from modtriples.cycles import Component, Cycle, _left_proper, position_classify
from modtriples.suites import point_pool, random_effective, random_map, rational_pool

SAMPLES = 120


def naive_modulus_condition(a: RationalMap, b: RationalMap, s: ModulusTriple, t: ModulusTriple) -> bool:
    if b.is_constant:
        c = b.value
        if c in t.minus.support():
            return True
        if c in t.plus.support():
            return False
        b_plus = b_minus = Divisor.zero()
    else:
        b_plus = pullback_divisor(b, t.plus)
        b_minus = pullback_divisor(b, t.minus)
    lhs = pullback_divisor(a, s.plus) + b_minus
    rhs = pullback_divisor(a, s.minus) + b_plus
    escaped = set()
    for q in s.total.boundary:
        escaped |= pullback_divisor(a, Divisor.of(q)).support()
    if not b.is_constant:
        for q in t.total.boundary:
            escaped |= pullback_divisor(b, Divisor.of(q)).support()
    return all(mult >= 0 for point, mult in lhs - rhs if point not in escaped)


def naive_left_proper(comp: Component, source: ModulusTriple, target: ModulusTriple) -> bool:
    if target.total.is_proper:
        return True
    if comp.b.is_constant:
        return comp.b.value not in target.total.boundary
    for q in target.total.boundary:
        for n, _ in pullback_divisor(comp.b, Divisor.of(q)):
            if point_image(comp.a, n) not in source.total.boundary:
                return False
    return True


def naive_positions(comp: Component, s: ModulusTriple, t: ModulusTriple):
    if comp.b.is_constant:
        hit = None if comp.b.value in t.minus.support() else set()
        bad = hit is None and t.in_interior(comp.b.value)
    else:
        bad = False
        hit = set()
        for q in t.minus.support():
            hit |= pullback_divisor(comp.b, Divisor.of(q)).support()
    over_minus = set()
    for q in s.minus.support():
        over_minus |= pullback_divisor(comp.a, Divisor.of(q)).support()
    escape = set()
    for q in s.total.boundary:
        escape |= pullback_divisor(comp.a, Divisor.of(q)).support()
    if hit is None:  # the whole line maps into |T-| (never on the boundary)
        excellent = False
        very_good = not t.in_interior(comp.b.value)  # vacuous when V is empty
    else:
        excellent = all(n in over_minus for n in hit - escape)
        off_interior = set(escape)
        for q in s.plus.support():
            off_interior |= pullback_divisor(comp.a, Divisor.of(q)).support()
        if comp.b.is_constant:
            interior_hit = hit
        else:
            blocked = set()
            for q in t.bad_set():
                blocked |= pullback_divisor(comp.b, Divisor.of(q)).support()
            interior_hit = hit - blocked
        very_good = all(n in over_minus for n in interior_hit - off_interior)
    return bad, very_good, excellent


def _random_instance(rng):
    pool = point_pool()
    maybe_open = rng.random() < 0.4

    def triple():
        plus = random_effective(rng, pool)
        minus = random_effective(rng, pool)
        if maybe_open and rng.random() < 0.5:
            from modtriples import CurveSpace

            taken = plus.support() | minus.support()
            free = [p for p in pool if p not in taken]
            if free:
                return ModulusTriple(
                    CurveSpace.open(free[: rng.randint(1, len(free))]), plus, minus
                )
        return ModulusTriple.proper(plus, minus)

    s, t = triple(), triple()
    a = random_map(rng, 3, 8)
    if rng.random() < 0.25:
        b = RationalMap.constant(rng.choice(rational_pool()))
    else:
        b = random_map(rng, 3, 8)
    return s, t, a, b


def test_modulus_condition_matches_naive_route():
    rng = random.Random(314)
    for _ in range(SAMPLES):
        s, t, a, b = _random_instance(rng)
        assert modulus_condition(a, b, s, t) == naive_modulus_condition(a, b, s, t), (s, t, a, b)


def test_left_properness_matches_naive_route():
    rng = random.Random(2718)
    for _ in range(SAMPLES):
        s, t, a, b = _random_instance(rng)
        comp = Component(a, b, 1)
        assert _left_proper(comp, s, t) == naive_left_proper(comp, s, t), (s, t, a, b)


def test_positions_match_naive_route():
    rng = random.Random(1618)
    for _ in range(SAMPLES):
        s, t, a, b = _random_instance(rng)
        comp = Component(a, b, 1)
        verdict = position_classify(Cycle(s, t, [comp]))[0]
        bad, very_good, excellent = naive_positions(comp, s, t)
        assert (verdict.bad, verdict.very_good, verdict.excellent) == (
            bad,
            very_good,
            excellent,
        ), (s, t, a, b)
