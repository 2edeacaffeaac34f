"""Functors, bridges and adjunction transports."""

import random
from fractions import Fraction

import pytest

import modtriples.functors as functors
from modtriples import (
    INFINITY,
    CertificationError,
    ClosedPoint,
    CompObject,
    Component,
    CurveSpace,
    Cycle,
    Divisor,
    IYObject,
    MlogObject,
    ModulusPair,
    ModulusTriple,
    NePair,
    NotAdmissible,
    NotDisjoint,
    NotExcellent,
    NotMinClass,
    NotManClass,
    RationalMap,
    classify,
    compactification_stage,
    extend_correspondence,
    g_adjunction_member,
    g_shrink,
    graph_cycle,
    is_admissible,
    is_comp_object,
    is_iy_morphism,
    is_mlog_morphism,
    iy_to_triple,
    lambda_adjunction_member,
    lambda_embed,
    mcor_embed,
    minimal_compactification_level,
    mlog_to_triple,
    ne_embed,
    ne_hom_member,
    omega_forget,
    p_left,
    phi_embed,
    phi_left_transport,
    phi_right_transport,
    pullback_divisor,
    q_right,
    separation_adjoint,
    triple_to_iy,
    triple_to_mlog,
    tsm_member,
)
from modtriples.divisors import PullbackComparison, compose_maps
from modtriples.suites import point_pool, random_effective, random_map, random_triple
from modtriples.triples import TripleSum
from polyref import Poly, map_of

P0 = ClosedPoint.rational(0)
P1 = ClosedPoint.rational(1)
DINF = Divisor.of(INFINITY)
D0 = Divisor.of(P0)
D1 = Divisor.of(P1)
ZERO = Divisor.zero()
ID = RationalMap.identity()
SQ = RationalMap.from_ints((0, 0, 1))
BOX = ModulusTriple.proper(DINF, ZERO)
PROPER = CurveSpace.proper()


class TestLambda:
    def test_unit(self):
        t = lambda_embed(PROPER)
        assert t == ModulusTriple.proper(ZERO, ZERO)
        assert omega_forget(t) == PROPER

    def test_every_candidate_is_member(self):
        target = ModulusTriple.proper(ZERO, D0)
        cand = graph_cycle(SQ, lambda_embed(PROPER), target)
        assert lambda_adjunction_member(cand) is True

    def test_interior_violation_is_not_an_adjunction_failure(self):
        from modtriples import NotInteriorPreserving

        with pytest.raises(NotInteriorPreserving):
            graph_cycle(ID, lambda_embed(PROPER), BOX)


class TestPhi:
    def test_p_keeps_pairs(self):
        t1 = ModulusTriple.proper(DINF, D0)
        t2 = ModulusTriple.proper(DINF, ZERO)
        assert p_left(TripleSum.of(t1, t2)).summands == (t2,)

    def test_q_forgets_minus(self):
        assert q_right(ModulusTriple.proper(D0, DINF)) == ModulusPair(PROPER, D0)
        with pytest.raises(NotDisjoint):
            q_right(ModulusTriple.proper(D0, 2 * D0))

    def test_right_transport_example(self):
        pair = ModulusPair(PROPER, 2 * DINF)
        t = ModulusTriple.proper(DINF, D0)
        cand = graph_cycle(SQ, phi_embed(pair), t)
        chk = phi_right_transport(pair, t, cand)
        assert chk.left and chk.right and chk.agrees

    def test_left_transport_without_a_minus_part(self):
        # with T- = 0, p(T) is T as a pair, so both sides read the same admissibility
        t = ModulusTriple.proper(DINF, ZERO)
        pair = ModulusPair(PROPER, DINF)
        for b, member in ((ID, True), (SQ, False)):
            chk = phi_left_transport(t, pair, Cycle(t, phi_embed(pair), [Component(ID, b, 1)]))
            assert chk.left is chk.right is member and chk.agrees

    def test_left_transport_empty_hom(self):
        t = ModulusTriple.proper(DINF, D0)
        pair = ModulusPair(PROPER, D1)
        cand = Cycle(t, phi_embed(pair), [Component(ID, SQ, 1)])
        chk = phi_left_transport(t, pair, cand)
        assert chk.agrees and not chk.right


class TestSeparationAdjoint:
    def test_formula(self):
        assert separation_adjoint(ModulusTriple.proper(2 * D0, D0)) == ModulusTriple.proper(
            D0, ZERO
        )

    def test_membership_equivalent(self):
        rng = random.Random(6)
        pool = [P0, P1, INFINITY]
        target = ModulusTriple.proper(D0, DINF)
        for _ in range(60):
            src = ModulusTriple.proper(
                Divisor((p, rng.randint(1, 3)) for p in rng.sample(pool, rng.randint(0, 3))),
                Divisor((p, rng.randint(1, 3)) for p in rng.sample(pool, rng.randint(0, 3))),
            )
            cand = Cycle(src, target, [Component(ID, SQ, 1)])
            assert bool(is_admissible(cand)) == bool(
                is_admissible(cand.with_ends(separation_adjoint(src), target))
            )

    def test_extension_requires_admissible(self):
        src = ModulusTriple.proper(ZERO, 2 * DINF)
        cand = Cycle(src, BOX, [Component(ID, ID, 1)])
        with pytest.raises(NotAdmissible):
            extend_correspondence(cand)

    def test_extension_requires_disjoint_target(self):
        src = ModulusTriple.proper(D0, D0)
        overlapping = ModulusTriple.proper(D0, 2 * D0)
        cand = Cycle(src, overlapping, [Component(ID, ID, 1)])
        with pytest.raises(NotDisjoint):
            extend_correspondence(cand)

    def test_disjoint_source_is_identity(self):
        src = ModulusTriple.proper(D0, DINF)
        cand = graph_cycle(ID, src, ModulusTriple.proper(D0, DINF))
        assert extend_correspondence(cand) == cand


class TestShrink:
    def test_formula(self):
        assert g_shrink(ModulusTriple.proper(DINF, D0)) == ModulusTriple(
            CurveSpace.open([P0]), DINF, ZERO
        )
        assert g_shrink(BOX) == BOX

    def test_refuses_very_good_but_not_excellent(self):
        boxdual = ModulusTriple.proper(ZERO, DINF)
        cand = graph_cycle(ID, BOX, boxdual)
        with pytest.raises(NotExcellent):
            g_adjunction_member(ModulusPair(PROPER, DINF), boxdual, cand)

    def test_agreement_on_excellent_constants(self):
        t = ModulusTriple.proper(DINF, D0)
        pair = ModulusPair(PROPER, 2 * DINF)
        cand = Cycle(phi_embed(pair), t, [Component(ID, RationalMap.constant(P1), 1)])
        chk = g_adjunction_member(pair, t, cand)
        assert chk.agrees


class TestIYBridge:
    def test_round_trip_examples(self):
        o = IYObject(y=D0, z=2 * DINF)
        t = iy_to_triple(o)
        assert t == ModulusTriple.proper(2 * DINF, D0 + DINF)
        assert triple_to_iy(t) == o

    def test_round_trips_random(self):
        rng = random.Random(13)
        pool = [P0, P1, ClosedPoint.rational(-1), INFINITY]
        for _ in range(200):
            y = Divisor((p, rng.randint(1, 3)) for p in rng.sample(pool, rng.randint(0, 2)))
            rest = [p for p in pool if p not in y.support()]
            z = Divisor((p, rng.randint(1, 3)) for p in rng.sample(rest, rng.randint(0, 2)))
            o = IYObject(y=y, z=z)
            assert triple_to_iy(iy_to_triple(o)) == o

    def test_class_guard(self):
        with pytest.raises(NotMinClass):
            triple_to_iy(ModulusTriple.proper(D0, 2 * D0))

    def test_worked_morphism(self):
        o1 = IYObject(y=D0, z=2 * DINF)
        o2 = IYObject(y=D0, z=DINF)
        assert is_iy_morphism(SQ, o1, o2) is True
        assert tsm_member(SQ, iy_to_triple(o1), iy_to_triple(o2)) is True

    def test_constant_into_y(self):
        o1 = IYObject(y=ZERO, z=D0)
        o2 = IYObject(y=D1, z=DINF)
        assert is_iy_morphism(RationalMap.constant(P1), o1, o2) is True
        assert is_iy_morphism(RationalMap.constant(INFINITY), o1, o2) is False


class TestMlogBridge:
    def test_round_trip_example(self):
        mo = MlogObject(boundary_div=DINF, modulus_div=2 * D0)
        t = mlog_to_triple(mo)
        assert t == ModulusTriple.proper(DINF, 2 * D0 + DINF)
        assert triple_to_mlog(t) == mo

    def test_class_guard(self):
        with pytest.raises(NotManClass):
            triple_to_mlog(ModulusTriple.proper(2 * D0, ZERO))

    def test_modulus_growth_fails(self):
        big = MlogObject(boundary_div=DINF, modulus_div=2 * D0)
        small = MlogObject(boundary_div=DINF, modulus_div=D0)
        assert is_mlog_morphism(ID, big, small) is False
        assert is_mlog_morphism(ID, small, big) is True

    def test_constant_into_modulus(self):
        o1 = MlogObject(boundary_div=DINF, modulus_div=ZERO)
        o2 = MlogObject(boundary_div=DINF, modulus_div=D0)
        assert is_mlog_morphism(RationalMap.constant(P0), o1, o2) is True


class TestNeBridge:
    def test_embedding_example(self):
        x = NePair(infinity=D0 - DINF)
        out = ne_embed(x)
        assert out == ModulusTriple.proper(D0 + DINF, 2 * DINF)
        assert classify(out).saturated

    def test_effective_pairs_embed_plainly(self):
        assert ne_embed(NePair(infinity=2 * D0)) == ModulusTriple.proper(2 * D0, ZERO)
        assert mcor_embed(ModulusPair(PROPER, 2 * D0)) == NePair(infinity=2 * D0)

    def test_support_pullback(self):
        d = D0 - DINF
        assert pullback_divisor(SQ, d).support() == frozenset([P0, INFINITY])

    def test_hom_with_a_collapsed_second_leg(self):
        # a constant second leg must avoid |Y-infinity|, and then asks only a*(X-infinity) >= 0
        y = NePair(infinity=D1 - D0)
        for value, x, member in ((P0, NePair(infinity=DINF), False), (P1, NePair(infinity=DINF), False),
                                 (INFINITY, NePair(infinity=DINF), True), (INFINITY, NePair(infinity=-DINF), False)):
            cand = Cycle(ne_embed(x), ne_embed(y), [Component(ID, RationalMap.constant(value), 1)])
            assert ne_hom_member(cand, x, y) is member

    def test_hom_agreement(self):
        y = NePair(infinity=D1 - D0)
        x = NePair(infinity=pullback_divisor(SQ, y.infinity))
        cand = Cycle(ne_embed(x), ne_embed(y), [Component(ID, SQ, 1)])
        assert ne_hom_member(cand, x, y) is True
        assert bool(is_admissible(cand)) is True
        smaller = NePair(infinity=x.infinity - Divisor.of(P1))
        cand2 = Cycle(ne_embed(smaller), ne_embed(y), [Component(ID, SQ, 1)])
        assert ne_hom_member(cand2, smaller, y) is False
        assert bool(is_admissible(cand2)) is False


class TestCompactification:
    def test_linear_level(self):
        base = ModulusTriple(CurveSpace.open([INFINITY]), ZERO, ZERO)
        alpha = graph_cycle(ID, base, BOX)
        assert minimal_compactification_level(base, BOX, alpha) == 1

    def test_quadratic_level(self):
        base = ModulusTriple(CurveSpace.open([INFINITY]), ZERO, ZERO)
        alpha = graph_cycle(SQ, base, BOX)
        assert minimal_compactification_level(base, BOX, alpha) == 2

    def test_constant_needs_only_the_boundary(self):
        base = ModulusTriple(CurveSpace.open([INFINITY]), ZERO, ZERO)
        alpha = Cycle(base, BOX, [Component(ID, RationalMap.constant(P0), 1)])
        assert minimal_compactification_level(base, BOX, alpha) == 1

    def test_inadmissible_rejected(self):
        base = ModulusTriple(CurveSpace.open([P1]), ZERO, 2 * DINF)
        alpha = Cycle(base, BOX, [Component(ID, ID, 1)])
        with pytest.raises(NotAdmissible):
            minimal_compactification_level(base, BOX, alpha)

    def test_stage_objects(self):
        base = ModulusTriple(CurveSpace.open([INFINITY]), D0, ZERO)
        stage = compactification_stage(base, 3)
        assert is_comp_object(CompObject(base=base, completion=stage, witness_c=3 * DINF))
        assert not is_comp_object(
            CompObject(base=base, completion=stage, witness_c=3 * DINF + D0)
        )
        assert not is_comp_object(
            CompObject(base=base, completion=compactification_stage(base, 2), witness_c=3 * DINF)
        )


# ---------------------------------------------------------------------------
# the closed-form level against a plain linear scan
# ---------------------------------------------------------------------------


def linear_level(t, s, alpha, cap):
    """The stage-by-stage scan the closed-form level must agree with."""
    for n in range(1, cap + 1):
        if is_admissible(alpha.with_ends(compactification_stage(t, n), s)):
            return n
    raise CertificationError("no stage below the cap")


def known_level_case(rng, k, m):
    """f = c + (x - r)^k / d with deg d = k and d(r) != 0, from an open
    source with boundary {r}: f pulls m*P(c) back to k*m*P(r), so the
    level is max(1, k*m).  The extra plus point and target minus point
    do not touch the boundary."""
    r, c, extra, t_minus = (Fraction(v) for v in rng.sample(range(-6, 7), 4))
    while True:
        d = Poly([rng.randint(-5, 5) for _ in range(k)] + [rng.choice((-3, -2, -1, 1, 2, 3))])
        if d(r):
            break
    root_power = Poly((-r, 1)) ** k
    f = map_of(d.scale(c) + root_power, d)
    base = ModulusTriple(
        CurveSpace.open([ClosedPoint.rational(r)]),
        Divisor.of((ClosedPoint.rational(extra), rng.randint(0, 2))),
        ZERO,
    )
    target = ModulusTriple.proper(
        Divisor.of((ClosedPoint.rational(c), m)),
        Divisor.of((ClosedPoint.rational(t_minus), rng.randint(0, 2))),
    )
    return base, target, Cycle(base, target, [Component(ID, f, 1)])


def pullback_case(rng):
    """The compactify suite's construction, with the target plus scaled up
    and the boundary drawn from the pulled-back plus support, so that the
    levels spread beyond the small pool multiplicities."""
    pool = point_pool()
    target = random_triple(rng, pool)
    target = ModulusTriple.proper(rng.randint(1, 12) * target.plus, target.minus)
    f = random_map(rng, 3, 5)
    pb_plus = pullback_divisor(f, target.plus)
    pb_minus = pullback_divisor(f, target.minus)
    support = sorted(pb_plus.support(), key=lambda p: p.sort_key()) or pool
    boundary = rng.sample(support, min(len(support), rng.randint(1, 2)))
    bset = frozenset(boundary)
    base = ModulusTriple(CurveSpace.open(boundary), pb_plus.drop(bset), pb_minus.drop(bset))
    return base, target, Cycle(base, target, [Component(ID, f, 1)])


def multi_component_case(rng):
    """One to three components over one open base, each with an a leg of
    degree 2 or 3.  A nonconstant b leg is f∘a, so b*T = a*(f*T); the base
    carries every f*T+ off a boundary drawn from their support.  A constant
    b leg lands inside T-, inside T+ only, or in neither.  A random base
    minus divisor sometimes breaks the open-triple precheck."""
    pool = point_pool()
    target = random_triple(rng, pool)
    target = ModulusTriple.proper(rng.randint(1, 6) * target.plus, target.minus)
    legs, kinds, pulled = [], set(), []
    for _ in range(rng.randint(1, 3)):
        a = next(m for m in iter(lambda: random_map(rng, 3, 4), None) if m.degree >= 2)
        if rng.random() < 0.3:
            rational = [p for p in pool if p.is_infinity or p.degree == 1]
            kind, value = rng.choice([
                ("minus", [p for p in rational if p in target.minus.support()]),
                ("plus only", [p for p in rational if p in target.plus.support() - target.minus.support()]),
                ("neither", [p for p in rational if p not in target.bad_set() | target.minus.support()]),
            ])
            if value:
                kinds.add(kind)
                legs.append(Component(a, RationalMap.constant(rng.choice(value)), rng.randint(1, 2)))
                continue
        f = random_map(rng, 2, 4)
        pulled.append(pullback_divisor(f, target.plus))
        legs.append(Component(a, compose_maps(f, a), rng.randint(1, 2)))
    support = sorted(set().union(*(d.support() for d in pulled)), key=lambda p: p.sort_key()) or pool
    bset = frozenset(rng.sample(support, min(len(support), rng.randint(1, 2))))
    plus = sum((d.drop(bset) for d in pulled), ZERO)
    minus = ZERO
    if rng.random() < 0.2:
        minus = random_effective(rng, [p for p in pool if p not in bset], max_points=1)
    base = ModulusTriple(CurveSpace.open(sorted(bset, key=lambda p: p.sort_key())), plus, minus)
    return base, target, Cycle(base, target, legs), kinds


class TestLevelSearch:
    POWERS = [v for j in range(1, 12) for v in (2**j - 1, 2**j, 2**j + 1)]

    @pytest.mark.parametrize(
        "level", sorted({1, 3, 5, 6, 100, 999, 1000, 2999, 3000, 10_000, 10_001, 123_456, *POWERS})
    )
    def test_known_levels(self, level):
        k = next(k for k in (3, 2, 1) if level % k == 0)
        base, target, alpha = known_level_case(random.Random(level), k, level // k)
        assert minimal_compactification_level(base, target, alpha) == level

    @pytest.mark.parametrize("level", [1, 2, 3, 64, 65, 1000, 2047, 2048, 2049])
    def test_probe_count_is_logarithmic(self, level, monkeypatch):
        # no stage is probed, and admissibility from the open triple is read off
        # the stage-0 comparison: no admissibility check at all
        base, target, alpha = known_level_case(random.Random(level), 1, level)
        calls = []
        real = functors.is_admissible
        monkeypatch.setattr(functors, "is_admissible", lambda c: calls.append(c) or real(c))
        assert minimal_compactification_level(base, target, alpha) == level
        assert calls == []

    def test_agrees_with_linear_scan(self):
        cases = multi = non_identity = above_cap = 0
        constants = set()
        for seed in range(90):
            rng = random.Random(seed)
            if seed % 3 == 1:
                k = rng.randint(1, 4)
                base, target, alpha = known_level_case(rng, k, rng.randint(1, 64 // k))
            elif seed % 3 == 2:
                base, target, alpha = pullback_case(rng)
            else:
                base, target, alpha, kinds = multi_component_case(rng)
                constants |= kinds
            if not is_admissible(alpha):
                with pytest.raises(NotAdmissible):
                    minimal_compactification_level(base, target, alpha)
                continue
            cap = 64 if seed % 4 else rng.randint(1, 64)
            level = minimal_compactification_level(base, target, alpha)
            try:
                expected = linear_level(base, target, alpha, cap)
            except CertificationError:
                # the scan passed its cap: the level lies above it, its stage
                # admits the candidate and the stage below does not
                assert level > cap
                assert is_admissible(alpha.with_ends(compactification_stage(base, level), target))
                assert not is_admissible(alpha.with_ends(compactification_stage(base, level - 1), target))
                above_cap += 1
                continue
            assert level == expected
            cases += 1
            multi += len(alpha.components) > 1
            non_identity += any(not comp.a.is_identity for comp in alpha.components)
        assert cases >= 50 and multi >= 5 and non_identity >= 10 and above_cap >= 3
        assert constants == {"minus", "plus only", "neither"}

    def test_piece_that_no_level_covers(self):
        # a negative piece away from the growth divisor has e = 0: no level exists
        for negative in (D1, DINF):
            cmp = PullbackComparison()
            cmp.add_pullback(SQ, negative, -1)
            cmp.add_growth(SQ, D0)
            assert cmp.least_level() is None and not cmp.effective()
        cmp = PullbackComparison()
        cmp.add_pullback(SQ, 3 * D1 + DINF, -1)
        cmp.add_growth(SQ, 2 * D1)
        cmp.add_growth(ID, 2 * DINF)
        assert cmp.least_level() == 2  # x^2 - 1 carries -3 + 2n, infinity -2 + 2n
