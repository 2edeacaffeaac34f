"""Modulus triple structure: interiors, duals, separation, the condition."""

import random

import pytest

from modtriples import (
    INFINITY,
    ClosedPoint,
    CurveSpace,
    Divisor,
    ModulusTriple,
    NotEffective,
    NotFiniteOverSource,
    RationalMap,
    classify,
    dual,
    interior,
    modulus_condition,
    modulus_condition_point,
    point_image,
    pullback_triple,
    separation,
    shift_morphism,
)
from modtriples.cycles import is_admissible
from modtriples.triples import component_comparison

P0 = ClosedPoint.rational(0)
P1 = ClosedPoint.rational(1)
DINF = Divisor.of(INFINITY)
D0 = Divisor.of(P0)
D1 = Divisor.of(P1)
ZERO = Divisor.zero()
ID = RationalMap.identity()
SQ = RationalMap.from_ints((0, 0, 1))

BOX = ModulusTriple.proper(DINF, ZERO)
BOXDUAL = ModulusTriple.proper(ZERO, DINF)


def random_triple(rng, pool):
    pick = lambda: Divisor((p, rng.randint(1, 3)) for p in rng.sample(pool, rng.randint(0, 3)))
    return ModulusTriple.proper(pick(), pick())


POOL = [P0, P1, ClosedPoint.rational(-1), ClosedPoint.finite((1, 0, 1)), INFINITY]


class TestStructure:
    def test_effectiveness_enforced(self):
        with pytest.raises(NotEffective):
            ModulusTriple.proper(Divisor([(P0, -1)]), ZERO)

    def test_boundary_disjointness_enforced(self):
        with pytest.raises(Exception):
            ModulusTriple(CurveSpace.open([P0]), D0, ZERO)

    def test_interior(self):
        assert interior(BOX) == CurveSpace([INFINITY])
        assert interior(BOXDUAL) == CurveSpace.proper()
        t = ModulusTriple(CurveSpace.open([P1]), D0, ZERO)
        assert interior(t) == CurveSpace([P0, P1])

    def test_dual_involution(self):
        rng = random.Random(0)
        for _ in range(100):
            t = random_triple(rng, POOL)
            assert dual(dual(t)) == t
        assert dual(BOX) == BOXDUAL
        sym = ModulusTriple.proper(D0, D0)
        assert dual(sym) == sym


class TestSeparation:
    def test_pointwise_min(self):
        t = ModulusTriple.proper(Divisor([(P0, 2), (P1, 1)]), D0)
        sep, fund = separation(t)
        assert sep == ModulusTriple.proper(Divisor([(P0, 1), (P1, 1)]), ZERO)
        assert fund == D0

    def test_disjoint_unchanged(self):
        t = ModulusTriple.proper(D0, DINF)
        sep, fund = separation(t)
        assert sep == t and fund.is_zero

    def test_full_cancellation(self):
        sep, fund = separation(ModulusTriple.proper(D0, D0))
        assert sep == ModulusTriple.proper(ZERO, ZERO) and fund == D0


class TestClassify:
    def test_modulus_pair(self):
        flags = classify(BOX)
        assert flags.disjoint and flags.saturated and flags.modulus_pair and flags.proper

    def test_mixed_example(self):
        flags = classify(ModulusTriple.proper(D0, D0 + D1))
        assert not flags.saturated
        assert flags.min_class
        assert not flags.disjoint

    def test_double_minus(self):
        flags = classify(ModulusTriple.proper(D0, 2 * D0))
        assert not flags.disjoint and not flags.min_class

    def test_coadmissible(self):
        assert classify(ModulusTriple.proper(ZERO, D0)).coadmissible


class TestModulusCondition:
    def test_unit_interval_to_dual(self):
        assert modulus_condition(ID, ID, BOX, BOXDUAL) is True

    def test_doubled_to_plain(self):
        assert modulus_condition(ID, ID, ModulusTriple.proper(2 * DINF, DINF), BOX) is True

    def test_square_fails(self):
        assert modulus_condition(ID, SQ, BOX, BOX) is False

    def test_constant_source_leg_rejected(self):
        with pytest.raises(NotFiniteOverSource):
            modulus_condition(RationalMap.constant(P0), ID, BOX, BOX)

    def test_constant_branch(self):
        target = ModulusTriple.proper(ZERO, D0)
        assert modulus_condition(ID, RationalMap.constant(P0), BOX, target) is True
        blocked = ModulusTriple.proper(D0, ZERO)
        assert modulus_condition(ID, RationalMap.constant(P0), BOX, blocked) is False

    def test_comparison_of_a_constant_leg(self):
        const = RationalMap.constant(P0)
        # b in |T+| but not |T-|: no comparison, the condition fails whatever a does
        assert component_comparison(ID, const, BOXDUAL, ModulusTriple.proper(D0, ZERO)) is None
        # b in |T-|: the empty comparison, which holds even against a source whose
        # own terms, -a*S- here, would fail
        source = ModulusTriple.proper(ZERO, DINF)
        assert modulus_condition(ID, ID, source, ModulusTriple.proper(ZERO, ZERO)) is False
        cmp = component_comparison(ID, const, source, ModulusTriple.proper(D0, D0))
        assert cmp is not None and cmp.effective()
        with pytest.raises(NotFiniteOverSource):
            component_comparison(const, ID, BOX, BOX)

    def test_escapes_of_an_open_target(self):
        # b = x sends 0 out of P^1 - {0}, so 0 is an escape and the -a*S- term there does
        # not count; the component is not proper over the source, so only this branch of
        # the comparison sees that escape
        source = ModulusTriple.proper(ZERO, D0)
        target = ModulusTriple(CurveSpace.open([P0]), ZERO, ZERO)
        assert modulus_condition(ID, ID, source, target) is True
        assert modulus_condition(ID, ID, source, ModulusTriple.proper(ZERO, ZERO)) is False

    def test_invariant_under_reparametrization(self):
        # precomposition with any nonconstant self-map preserves the verdict
        from modtriples import compose_maps
        from modtriples.suites import random_map, random_triple as rt, point_pool

        rng = random.Random(77)
        pool = point_pool()
        for _ in range(60):
            s = rt(rng, pool)
            t = rt(rng, pool)
            a = random_map(rng, 3, 8)
            b = random_map(rng, 3, 8)
            h = random_map(rng, 2, 6)
            plain = modulus_condition(a, b, s, t)
            pulled = modulus_condition(compose_maps(a, h), compose_maps(b, h), s, t)
            assert plain == pulled

    def test_monotone_in_source_plus(self):
        rng = random.Random(4)
        for _ in range(60):
            s = random_triple(rng, POOL)
            t = random_triple(rng, POOL)
            before = modulus_condition(ID, SQ, s, t)
            grown = ModulusTriple.proper(s.plus + Divisor.of(P1), s.minus)
            after = modulus_condition(ID, SQ, grown, t)
            assert not (before and not after)


class TestPointCondition:
    def test_equal_divisors(self):
        assert modulus_condition_point(P0, ModulusTriple.proper(D0, D0)) is True

    def test_blocking_minus(self):
        assert modulus_condition_point(P1, ModulusTriple.proper(D0, D1)) is False

    def test_residual_after_locus(self):
        assert modulus_condition_point(INFINITY, ModulusTriple.proper(DINF, 2 * DINF)) is False


class TestPullbackTriple:
    def test_scaling(self):
        assert pullback_triple(SQ, ModulusTriple.proper(DINF, D0)) == ModulusTriple.proper(
            2 * DINF, 2 * D0
        )

    def test_identity(self):
        t = ModulusTriple.proper(D0, DINF)
        assert pullback_triple(ID, t) == t

    def test_splitting(self):
        t = ModulusTriple.proper(D1, ZERO)
        out = pullback_triple(SQ, t)
        assert out == ModulusTriple.proper(
            Divisor([(P1, 1), (ClosedPoint.rational(-1), 1)]), ZERO
        )

    def test_locus_commutes(self):
        rng = random.Random(8)
        from modtriples import fundamental_locus, pullback_divisor

        for _ in range(50):
            t = random_triple(rng, POOL)
            out = pullback_triple(SQ, t)
            assert fundamental_locus(out) == pullback_divisor(SQ, fundamental_locus(t))

    def test_point_condition_transfers(self):
        rng = random.Random(12)
        for _ in range(80):
            t = random_triple(rng, POOL)
            u = pullback_triple(SQ, t)
            w = rng.choice(POOL + [p for p, _ in u.plus + u.minus])
            image = point_image(SQ, w)
            assert modulus_condition_point(w, u) == modulus_condition_point(image, t)


class TestShift:
    def test_iso_when_inside_plus(self):
        morphism = shift_morphism(BOX, DINF)
        assert morphism.is_iso
        assert morphism.source == ModulusTriple.proper(2 * DINF, DINF)
        assert is_admissible(morphism.cycle)
        assert morphism.reverse_cycle is not None
        assert is_admissible(morphism.reverse_cycle)

    def test_not_iso_outside(self):
        assert shift_morphism(BOX, D0).is_iso is False

    def test_zero_shift(self):
        morphism = shift_morphism(BOX, ZERO)
        assert morphism.is_iso and morphism.source == BOX

    def test_non_effective_rejected(self):
        with pytest.raises(NotEffective):
            shift_morphism(BOX, Divisor([(P0, -1)]))
