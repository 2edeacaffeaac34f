"""Object-level functors, bridges, and adjunction membership transports.

Adjunction claims are certified extensionally: for a given candidate
correspondence both hom memberships are evaluated and returned side by
side, and the property suites assert they agree.  Pro-adjoints are
realized per instance by the stage witnessing the colimit formula (on
curves the compactification chain is a single parameter, the multiple
of the reduced boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import Cycle, all_excellent, graph_cycle, is_admissible
from .divisors import (
    CurveSpace,
    Divisor,
    RationalMap,
    canonical_split,
    pullback_divisor,
)
from .errors import (
    CertificationError,
    DegenerateInput,
    NotAdmissible,
    NotDisjoint,
    NotEffective,
    NotExcellent,
    NotInteriorPreserving,
    NotManClass,
    NotMinClass,
)
from .triples import ModulusPair, ModulusTriple, TripleSum, classify, component_comparison, separation


@dataclass(frozen=True)
class TransportCheck:
    """Both sides of a hom-membership equivalence for one candidate."""

    left: bool
    right: bool

    @property
    def agrees(self) -> bool:
        return self.left == self.right


def tsm_member(f: RationalMap, source: ModulusTriple, target: ModulusTriple) -> bool:
    """Is f a morphism here: interior-preserving with an admissible graph."""
    try:
        cycle = graph_cycle(f, source, target)
    except NotInteriorPreserving:
        return False
    return bool(is_admissible(cycle))


# ---------------------------------------------------------------------------
# the embedding of plain curve spaces (empty modulus)
# ---------------------------------------------------------------------------


def lambda_embed(space: CurveSpace) -> ModulusTriple:
    """Attach empty divisors."""
    return ModulusTriple(space, Divisor.zero(), Divisor.zero())


def omega_forget(t: ModulusTriple) -> CurveSpace:
    """The underlying interior."""
    from .triples import interior

    return interior(t)


def lambda_adjunction_member(candidate: Cycle) -> bool:
    """Membership transport for the empty-modulus embedding.

    The source must carry empty divisors.  Every finite correspondence
    out of such a source is admissible, so this returns True on every
    well-formed candidate; the property suites assert exactly that.
    """
    if not (candidate.source.plus.is_zero and candidate.source.minus.is_zero):
        raise DegenerateInput("source does not carry empty divisors")
    return bool(is_admissible(candidate))


# ---------------------------------------------------------------------------
# modulus pairs inside disjoint triples: the embedding and its two adjoints
# ---------------------------------------------------------------------------


def phi_embed(pair: ModulusPair) -> ModulusTriple:
    return pair.as_triple()


def p_left(ts: TripleSum) -> TripleSum:
    """Left adjoint on objects: keep the summands with empty minus."""
    return TripleSum(tuple(t for t in ts.summands if t.minus.is_zero))


def q_right(t: ModulusTriple) -> ModulusPair:
    """Right adjoint on objects: forget the minus divisor."""
    if not classify(t).disjoint:
        raise NotDisjoint("the right adjoint needs a disjoint triple")
    return ModulusPair(t.total, t.plus)


def phi_left_transport(t: ModulusTriple, pair: ModulusPair, candidate: Cycle) -> TransportCheck:
    """Hom(p(T), M) against Hom(T, phi M) on one candidate from T.

    When T has a nonzero minus divisor, p(T) is the zero object and the
    pair side is empty; the triple side is then empty as well, which is
    what the suites verify.
    """
    if not classify(t).disjoint:
        raise NotDisjoint("the adjunction lives over disjoint triples")
    target = phi_embed(pair)
    right = bool(is_admissible(candidate.with_ends(t, target)))
    if t.minus.is_zero:
        left = right  # p(T) = T as a pair, so the checks coincide
    else:
        left = candidate.is_zero  # hom out of the zero object
    return TransportCheck(left=left, right=right)


def phi_right_transport(pair: ModulusPair, t: ModulusTriple, candidate: Cycle) -> TransportCheck:
    """Hom(M, q(T)) against Hom(phi M, T) on one candidate from phi M."""
    if not classify(t).disjoint:
        raise NotDisjoint("the adjunction lives over disjoint triples")
    source = phi_embed(pair)
    left = bool(is_admissible(candidate.with_ends(source, phi_embed(q_right(t)))))
    right = bool(is_admissible(candidate.with_ends(source, t)))
    return TransportCheck(left=left, right=right)


# ---------------------------------------------------------------------------
# the separation adjoint
# ---------------------------------------------------------------------------


def separation_adjoint(t: ModulusTriple) -> ModulusTriple:
    """Separation as a left adjoint stage; on curves defined everywhere."""
    return separation(t)[0]


def extend_correspondence(alpha: Cycle) -> Cycle:
    """Extend a cycle T -> S (S disjoint) over the separation of T.

    The parametrized components are unchanged; they are re-certified
    against (T', S), which must succeed because the defining inequality
    only shifts by the pullback of the fundamental locus on both sides.
    """
    if not classify(alpha.target).disjoint:
        raise NotDisjoint("extension needs a disjoint target")
    if not is_admissible(alpha):
        raise NotAdmissible("can only extend admissible correspondences")
    extended = alpha.with_ends(separation_adjoint(alpha.source), alpha.target)
    if not is_admissible(extended):
        raise CertificationError("separated extension failed its re-certification")
    return extended


# ---------------------------------------------------------------------------
# shrinking away the minus divisor (right adjoint on excellent position)
# ---------------------------------------------------------------------------


def g_shrink(t: ModulusTriple) -> ModulusTriple:
    """Move |minus| into the boundary and zero the minus divisor."""
    removed = t.minus.support()
    if not removed:
        return t
    return ModulusTriple(
        t.total.minus(removed),
        t.plus.drop(removed),
        Divisor.zero(),
    )


def g_adjunction_member(
    pair: ModulusPair, t: ModulusTriple, candidate: Cycle
) -> TransportCheck:
    """Hom(M, g(T)) against excellent-position Hom(psi M, T) per candidate.

    Candidates must be in excellent position; the ones that are not are
    refused, because restriction does not even land in the shrunken
    model for them.
    """
    source = phi_embed(pair)
    sided = candidate.with_ends(source, t)
    if not all_excellent(sided):
        raise NotExcellent("candidate is not in excellent position")
    right = bool(is_admissible(sided))
    left = bool(is_admissible(candidate.with_ends(source, g_shrink(t))))
    return TransportCheck(left=left, right=right)


# ---------------------------------------------------------------------------
# bridge to two-divisor objects (disjoint supports)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IYObject:
    """Proper line with two effective divisors of disjoint support."""

    y: Divisor
    z: Divisor

    def __post_init__(self):
        if not self.y.is_effective or not self.z.is_effective:
            raise NotEffective("bridge objects carry effective divisors")
        if self.y.support() & self.z.support():
            raise DegenerateInput("the two divisors must have disjoint supports")


def iy_to_triple(o: IYObject) -> ModulusTriple:
    return ModulusTriple.proper(o.z, o.y + o.z.reduced())


def triple_to_iy(t: ModulusTriple) -> IYObject:
    if not t.total.is_proper:
        raise DegenerateInput("the bridge needs a proper total space")
    if not classify(t).min_class:
        raise NotMinClass("triple is outside the bridged class")
    return IYObject(y=t.minus - t.plus.reduced(), z=t.plus)


def is_iy_morphism(f: RationalMap, o1: IYObject, o2: IYObject) -> bool:
    """Morphism predicate of the two-divisor quiver.

    A constant landing in |Y'| passes with no further condition.
    Otherwise: the map respects the complements of the Z loci, Y is
    bounded by the pullback of Y', and the non-reduced part of Z
    dominates the pullback of the non-reduced part of Z'.
    """
    if f.is_constant:
        c = f.value
        if c in o2.y.support():
            return True
        if c in o2.z.support():
            return False
        return o1.y.is_zero
    from .divisors import locus_subset, points_locus, preimage_locus

    hits_z2 = preimage_locus(f, o2.z.support())
    if not locus_subset(hits_z2, points_locus(o1.z.support())):
        return False
    if not (o1.y <= pullback_divisor(f, o2.y)):
        return False
    return pullback_divisor(f, o2.z - o2.z.reduced()) <= o1.z - o1.z.reduced()


# ---------------------------------------------------------------------------
# bridge to boundary/modulus data (reduced boundary, free modulus)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlogObject:
    """Proper line with a reduced boundary divisor and a modulus divisor."""

    boundary_div: Divisor
    modulus_div: Divisor

    def __post_init__(self):
        if not self.boundary_div.is_effective or not self.modulus_div.is_effective:
            raise NotEffective("bridge objects carry effective divisors")
        if self.boundary_div != self.boundary_div.reduced():
            raise DegenerateInput("the boundary divisor must be reduced")


def mlog_to_triple(o: MlogObject) -> ModulusTriple:
    return ModulusTriple.proper(o.boundary_div, o.modulus_div + o.boundary_div)


def triple_to_mlog(t: ModulusTriple) -> MlogObject:
    if not t.total.is_proper:
        raise DegenerateInput("the bridge needs a proper total space")
    if not classify(t).man_class:
        raise NotManClass("triple is outside the bridged class")
    return MlogObject(boundary_div=t.plus, modulus_div=t.minus - t.plus)


def is_mlog_morphism(f: RationalMap, o1: MlogObject, o2: MlogObject) -> bool:
    """Admissibility for boundary/modulus data.

    The boundary pullback must stay inside the source boundary; a map
    landing inside the modulus divisor needs nothing else; otherwise
    the pullback of the modulus divisor dominates the source one.
    """
    if f.is_constant:
        c = f.value
        if c in o2.boundary_div.support():
            return False
        if c in o2.modulus_div.support():
            return True
        return o1.modulus_div.is_zero
    from .divisors import locus_subset, points_locus, preimage_locus

    hits_boundary = preimage_locus(f, o2.boundary_div.support())
    if not locus_subset(hits_boundary, points_locus(o1.boundary_div.support())):
        return False
    return o1.modulus_div <= pullback_divisor(f, o2.modulus_div)


# ---------------------------------------------------------------------------
# pairs with a signed divisor at infinity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NePair:
    """The proper line with a divisor at infinity of arbitrary sign."""

    infinity: Divisor


def ne_embed(x: NePair) -> ModulusTriple:
    """Embed as the triple (plus + minus, 2 minus) after the canonical split.

    The image is saturated and keeps the same interior: the blow-up
    along the denominator ideal on a smooth curve is an isomorphism,
    with the negative part as exceptional divisor.
    """
    d_plus, d_minus = canonical_split(x.infinity)
    return ModulusTriple.proper(d_plus + d_minus, 2 * d_minus)


def mcor_embed(pair: ModulusPair) -> NePair:
    """Effective pairs are pairs with a sign-free divisor."""
    if not pair.total.is_proper:
        raise DegenerateInput("only proper pairs embed here")
    return NePair(infinity=pair.infinity)


def ne_hom_member(candidate: Cycle, x: NePair, y: NePair) -> bool:
    """Hom membership for pairs with signed divisors.

    Per component: the source leg is proper (automatic on the proper
    line) and a*(X-infinity) >= b*(Y-infinity) as signed divisors on
    the domain line; a collapsed second leg must avoid |Y-infinity| and
    then contributes nothing.
    """
    for comp in candidate.components:
        if comp.b.is_constant:
            if comp.b.value in y.infinity.support():
                return False
            pulled_target = Divisor.zero()
        else:
            pulled_target = pullback_divisor(comp.b, y.infinity)
        pulled_source = pullback_divisor(comp.a, x.infinity)
        if not (pulled_target <= pulled_source):
            return False
    return True


# ---------------------------------------------------------------------------
# compactification stages and the minimal level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompObject:
    """A compactification stage of an open-total triple."""

    base: ModulusTriple
    completion: ModulusTriple
    witness_c: Divisor


def is_comp_object(co: CompObject) -> bool:
    """Validate the stage invariants.

    The completion must be proper, its plus divisor splits as the base
    plus divisor plus an effective witness supported exactly on the
    boundary, and its minus divisor restricts to the base one.
    """
    if co.base.total.is_proper or not co.completion.total.is_proper:
        return False
    boundary = co.base.total.boundary
    if not co.witness_c.is_effective or co.witness_c.support() != boundary:
        return False
    if co.completion.plus != co.base.plus + co.witness_c:
        return False
    return co.completion.minus.drop(boundary) == co.base.minus


def compactification_stage(t: ModulusTriple, n: int) -> ModulusTriple:
    """The stage with n times the reduced boundary added to plus."""
    if t.total.is_proper:
        raise DegenerateInput("only open totals have compactification stages")
    if n < 1:
        raise DegenerateInput("stages start at one: the witness must cover the boundary")
    b_red = Divisor((p, 1) for p in t.total.boundary)
    return ModulusTriple.proper(t.plus + n * b_red, t.minus)


def minimal_compactification_level(
    t: ModulusTriple, s: ModulusTriple, alpha: Cycle, max_level: int = 10000
) -> int:
    """Least n >= 1 with alpha admissible from the n-th stage of t.

    The stages add n times the reduced boundary B_red to the plus
    divisor; the chain is cofinal among compactifications on the curve.
    Stages and target are proper, so left properness holds, nothing
    escapes, and stage n admits a component (a, b) exactly when
    D0 + n*a*(B_red) >= 0, where D0 is the component's comparison
    against stage 0, (proper line, S+, S-).  Each gcd-free basis piece
    of the fiber forms, and infinity, carries c + n*e with e >= 0, so
    the level is max(1, ceil(-c/e)) over every component and every
    piece with c < 0: a closed form, no stage is probed.  The membership
    rules for a constant b do not depend on n.  CertificationError
    means no stage up to max_level is admissible.
    """
    if t.total.is_proper:
        raise DegenerateInput("the source must have an open total space")
    if not s.total.is_proper:
        raise DegenerateInput("the target must be proper")
    if not is_admissible(alpha.with_ends(t, s)):
        raise NotAdmissible("candidate is not admissible from the open triple")
    b_red = Divisor((p, 1) for p in t.total.boundary)
    stage0 = ModulusTriple.proper(t.plus, t.minus)  # proper, so nothing escapes
    levels = [1]
    for comp in alpha.components:
        # the precheck passed, so no component is a constant b in |T+| outside |T-|
        cmp = component_comparison(comp.a, comp.b, stage0, s)
        cmp.add_growth(comp.a, b_red)
        levels.append(cmp.least_level())
    if None in levels or max(levels) > max_level:
        raise CertificationError("no stage admitted the correspondence below the search cap")
    return max(levels)
