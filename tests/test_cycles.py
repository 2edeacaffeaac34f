"""Correspondences: admissibility, composition, positions, reduction."""

import pytest

from modtriples import (
    INFINITY,
    ClosedPoint,
    Component,
    CurveSpace,
    Cycle,
    DegenerateInput,
    Divisor,
    ModulusTriple,
    NotFiniteOverSource,
    NotInteriorPreserving,
    RationalMap,
    TypeMismatch,
    UnsupportedComposition,
    compose,
    graph_cycle,
    is_admissible,
    morphism_flags,
    position_classify,
    pullback_triple,
    reduce_cycle,
    shift_morphism,
    transpose_cycle,
)

P0 = ClosedPoint.rational(0)
P1 = ClosedPoint.rational(1)
DINF = Divisor.of(INFINITY)
D0 = Divisor.of(P0)
ZERO = Divisor.zero()
ID = RationalMap.identity()
SQ = RationalMap.from_ints((0, 0, 1))
CUBE = RationalMap.from_ints((0, 0, 0, 1))

BOX = ModulusTriple.proper(DINF, ZERO)
BOXDUAL = ModulusTriple.proper(ZERO, DINF)
FREE = ModulusTriple.proper(ZERO, ZERO)


class TestGraph:
    def test_identity_graph(self):
        cycle = graph_cycle(ID, BOX, BOXDUAL)
        assert len(cycle.components) == 1
        assert cycle.components[0].a.is_identity and cycle.components[0].b.is_identity

    def test_square_into_halved(self):
        src = ModulusTriple.proper(2 * DINF, ZERO)
        cycle = graph_cycle(SQ, src, BOX)
        assert is_admissible(cycle)

    def test_inversion_swaps_poles(self):
        inv = RationalMap.from_ints((1,), (0, 1))
        cycle = graph_cycle(inv, ModulusTriple.proper(D0, ZERO), BOX)
        assert is_admissible(cycle)

    def test_interior_violation(self):
        with pytest.raises(NotInteriorPreserving):
            graph_cycle(ID, FREE, BOX)
        with pytest.raises(NotInteriorPreserving):
            graph_cycle(RationalMap.constant(INFINITY), FREE, BOX)


class TestTranspose:
    def test_square_root_correspondence(self):
        target = ModulusTriple.proper(2 * DINF, ZERO)
        tr = transpose_cycle(graph_cycle(SQ, BOX, target))
        assert tr.source == target and tr.target == BOX
        comp = tr.components[0]
        assert comp.a == SQ and comp.b.is_identity

    def test_involution(self):
        cycle = graph_cycle(SQ, BOX, ModulusTriple.proper(2 * DINF, ZERO))
        assert transpose_cycle(transpose_cycle(cycle)) == cycle

    def test_constant_leg_rejected(self):
        cycle = Cycle(FREE, BOXDUAL, [Component(ID, RationalMap.constant(INFINITY), 1)])
        with pytest.raises(NotFiniteOverSource):
            transpose_cycle(cycle)


class TestCanonicalForm:
    def test_repeated_components_merge(self):
        # a repeated pair, also one presented through a Moebius reparametrization, adds its multiplicity
        shift = RationalMap.from_ints((1, 1))
        twisted = Component(shift, RationalMap.from_ints((1, 2, 1)), 2)
        cycle = Cycle(BOX, BOX, [Component(ID, SQ, 1), Component(ID, CUBE, 1), twisted, Component(ID, SQ, 4)])
        assert cycle.components == Cycle(BOX, BOX, [Component(ID, CUBE, 1), Component(ID, SQ, 7)]).components
        assert [(c.b, c.mult) for c in cycle.components] == [(SQ, 7), (CUBE, 1)]

    def test_moebius_reparametrization_merges(self):
        # (x+1, f(x+1)) and (x, f(x)) present the same graph component
        shift = RationalMap.from_ints((1, 1))
        twisted = Component(shift, RationalMap.from_ints((1, 2, 1)), 1)
        plain = Component(ID, SQ, 1)
        assert twisted == plain

    def test_second_leg_normalization(self):
        shift = RationalMap.from_ints((1, 1))
        twisted = Component(RationalMap.from_ints((1, 2, 1)), shift, 1)
        assert twisted.b.is_identity and twisted.a == SQ

    @pytest.mark.parametrize("mult", [0, -2])
    def test_nonpositive_multiplicity_is_degenerate(self, mult):
        with pytest.raises(DegenerateInput):
            Component(ID, SQ, mult)


class TestAdmissible:
    def test_unit_identity(self):
        assert is_admissible(graph_cycle(ID, BOX, BOXDUAL))

    def test_growth_fails(self):
        assert not is_admissible(graph_cycle(ID, BOX, ModulusTriple.proper(2 * DINF, ZERO)))

    def test_constant_into_minus(self):
        target = ModulusTriple.proper(ZERO, D0)
        cycle = Cycle(BOX, target, [Component(ID, RationalMap.constant(P0), 1)])
        assert is_admissible(cycle)

    def test_open_total_left_properness(self):
        open_src = ModulusTriple(CurveSpace.open([INFINITY]), ZERO, ZERO)
        # identity escapes through infinity on both sides at once
        ok = Cycle(open_src, ModulusTriple(CurveSpace.open([INFINITY]), ZERO, ZERO),
                   [Component(ID, ID, 1)])
        assert is_admissible(ok)
        # but a proper source cannot escape into a smaller target
        bad = Cycle(FREE, ModulusTriple(CurveSpace.open([INFINITY]), ZERO, ZERO),
                    [Component(ID, ID, 1)])
        assert not is_admissible(bad)

    def test_zero_cycle(self):
        assert is_admissible(Cycle(BOX, BOXDUAL))


class TestCompose:
    def test_graphs_compose_as_maps(self):
        g1 = graph_cycle(SQ, FREE, FREE)
        g2 = graph_cycle(CUBE, FREE, FREE)
        assert compose(g1, g2) == graph_cycle(RationalMap.from_ints((0, 0, 0, 0, 0, 0, 1)), FREE, FREE)

    def test_pinned_composite(self):
        shift = shift_morphism(BOX, DINF)
        identity = graph_cycle(ID, BOX, BOXDUAL)
        composite = compose(shift.cycle, identity)
        assert composite.source == ModulusTriple.proper(2 * DINF, DINF)
        assert composite.target == BOXDUAL
        assert is_admissible(composite)

    def test_middle_mismatch(self):
        with pytest.raises(TypeMismatch):
            compose(graph_cycle(SQ, FREE, FREE), graph_cycle(ID, BOX, BOXDUAL))

    def test_unsupported_pairing(self):
        tr = transpose_cycle(graph_cycle(SQ, FREE, FREE))
        with pytest.raises(UnsupportedComposition) as err:
            compose(graph_cycle(ID, FREE, FREE), tr)
        assert err.value.right.a == SQ

    def test_multiplicities_multiply(self):
        two = Cycle(FREE, FREE, [Component(ID, SQ, 2)])
        three = Cycle(FREE, FREE, [Component(ID, CUBE, 3)])
        out = compose(two, three)
        assert out.components[0].mult == 6

    def test_zero_factor(self):
        zero = Cycle(FREE, FREE)
        assert compose(zero, graph_cycle(SQ, FREE, FREE)).is_zero

    def test_collapsed_right_factor(self):
        target = ModulusTriple.proper(ZERO, D0)
        collapse = Cycle(FREE, target, [Component(ID, RationalMap.constant(P0), 1)])
        out = compose(graph_cycle(SQ, FREE, FREE), collapse)
        assert out.components[0].b == RationalMap.constant(P0)


class TestFlags:
    def test_identity_all_flags(self):
        flags = morphism_flags(graph_cycle(ID, BOX, BOX))
        assert flags.dominant and flags.minimal and flags.finite and flags.sigma_fin

    def test_shift_not_minimal(self):
        shift = shift_morphism(BOX, DINF)
        flags = morphism_flags(shift.cycle)
        assert not flags.minimal and not flags.sigma_fin
        assert flags.dominant and flags.finite

    def test_pullback_pair_minimal(self):
        src = pullback_triple(SQ, BOX)
        flags = morphism_flags(graph_cycle(SQ, src, BOX))
        assert flags.minimal and not flags.sigma_fin

    def test_constant_not_dominant(self):
        cycle = Cycle(BOX, ModulusTriple.proper(ZERO, D0),
                      [Component(ID, RationalMap.constant(P0), 1)])
        flags = morphism_flags(cycle)
        assert not flags.dominant and not flags.finite_over_target
        assert flags.finite

    def test_finite_over_target_from_an_open_source(self):
        # the components over the removed source point 0 must lie over the removed target boundary
        source = ModulusTriple(CurveSpace.open([P0]), ZERO, ZERO)
        open_target = ModulusTriple(CurveSpace.open([P0]), ZERO, ZERO)
        shift = RationalMap.from_ints((1, 1))
        for target, b, over_target in ((open_target, SQ, True), (FREE, SQ, False), (open_target, shift, False)):
            flags = morphism_flags(Cycle(source, target, [Component(ID, b, 1)]))
            assert flags.dominant and flags.finite_over_target is over_target

    def test_finite_readings_differ_on_open_totals(self):
        open_target = ModulusTriple(CurveSpace.open([INFINITY]), ZERO, ZERO)
        cycle = Cycle(FREE, open_target, [Component(ID, RationalMap.constant(P0), 1)])
        flags = morphism_flags(cycle)
        assert flags.finite  # a constant stays away from the removed boundary
        assert not flags.finite_over_target


class TestPositions:
    def test_pinned_identity_positions(self):
        verdicts = position_classify(graph_cycle(ID, BOX, BOXDUAL))
        assert verdicts[0].very_good and not verdicts[0].excellent and not verdicts[0].bad

    def test_composite_excellent(self):
        shift = shift_morphism(BOX, DINF)
        composite = compose(shift.cycle, graph_cycle(ID, BOX, BOXDUAL))
        verdict = position_classify(composite)[0]
        assert verdict.excellent and verdict.very_good

    def test_bad_constant(self):
        target = ModulusTriple.proper(ZERO, D0)
        cycle = Cycle(BOX, target, [Component(ID, RationalMap.constant(P0), 1)])
        verdict = position_classify(cycle)[0]
        assert verdict.bad and not verdict.very_good and not verdict.excellent

    def test_collapsed_leg_in_each_placement(self):
        # (target, c, bad, very good, excellent); the source never matters
        placements = [
            (ModulusTriple.proper(ZERO, D0), P0, True, False, False),  # in |T-|, interior
            (ModulusTriple.proper(D0, D0), P0, False, True, False),  # in |T-| and |T+|
            (ModulusTriple.proper(ZERO, D0), P1, False, True, True),  # outside |T-|
            (ModulusTriple(CurveSpace.open([P1]), ZERO, D0), P1, False, True, True),  # removed
        ]
        sources = [BOX, ModulusTriple(CurveSpace.open([INFINITY]), ZERO, D0)]
        for target, c, bad, very_good, excellent in placements:
            for source in sources:
                cycle = Cycle(source, target, [Component(SQ, RationalMap.constant(c), 1)])
                verdict = position_classify(cycle)[0]
                assert (verdict.bad, verdict.very_good, verdict.excellent) == (
                    bad, very_good, excellent), (target, c, source)

    def test_excellent_implies_very_good(self):
        import random

        rng = random.Random(21)
        pool = [P0, P1, INFINITY]
        for _ in range(100):
            src = ModulusTriple.proper(
                Divisor((p, rng.randint(1, 2)) for p in rng.sample(pool, rng.randint(0, 2))),
                Divisor((p, rng.randint(1, 2)) for p in rng.sample(pool, rng.randint(0, 2))),
            )
            tgt = ModulusTriple.proper(
                Divisor((p, rng.randint(1, 2)) for p in rng.sample(pool, rng.randint(0, 2))),
                Divisor((p, rng.randint(1, 2)) for p in rng.sample(pool, rng.randint(0, 2))),
            )
            cycle = Cycle(src, tgt, [Component(ID, SQ, 1)])
            verdict = position_classify(cycle)[0]
            assert verdict.very_good or not verdict.excellent


class TestReduce:
    def test_drops_bad(self):
        target = ModulusTriple.proper(ZERO, D0)
        mixed = Cycle(FREE, target, [
            Component(ID, RationalMap.constant(P0), 1),
            Component(ID, SQ, 1),
        ])
        out = reduce_cycle(mixed)
        assert len(out.components) == 1 and out.components[0].b == SQ

    def test_bad_only_to_zero(self):
        target = ModulusTriple.proper(ZERO, D0)
        bad = Cycle(FREE, target, [Component(ID, RationalMap.constant(P0), 2)])
        assert reduce_cycle(bad).is_zero

    def test_idempotent(self):
        target = ModulusTriple.proper(ZERO, D0)
        mixed = Cycle(FREE, target, [
            Component(ID, RationalMap.constant(P0), 1),
            Component(ID, SQ, 1),
        ])
        once = reduce_cycle(mixed)
        assert reduce_cycle(once) == once
