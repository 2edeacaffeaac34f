"""Modulus triples on the curve backend.

A triple is a total space (the proper line, or the line minus a finite
boundary) together with two effective divisors: a pole-like part that
is removed from the interior and a zero-like part.  Divisors are always
stored on the proper model; the boundary of an open total is carried
separately, so compactification is pure divisor bookkeeping.

The central operation is the modulus condition checker.  On curves the
blow-up along the fundamental locus is an isomorphism, so the condition
is decided as a divisor inequality on the normalization of the
correspondence component, with membership conventions for the legs
that collapse to a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .divisors import (
    ClosedPoint,
    CurveSpace,
    Divisor,
    PullbackComparison,
    RationalMap,
    min_divisor,
    pullback_divisor,
)
from .errors import DegenerateInput, NotEffective, NotFiniteOverSource


class ModulusTriple:
    """Total curve space plus two effective divisors (plus, minus)."""

    __slots__ = ("total", "plus", "minus")

    def __init__(self, total: CurveSpace, plus: Divisor, minus: Divisor):
        if not plus.is_effective or not minus.is_effective:
            raise NotEffective("triple divisors must be effective")
        if not total.is_proper:
            touched = (plus.support() | minus.support()) & total.boundary
            if touched:
                raise DegenerateInput("divisor support meets the removed boundary")
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, name, value):
        raise AttributeError("ModulusTriple is immutable")

    @classmethod
    def proper(cls, plus: Divisor, minus: Divisor) -> "ModulusTriple":
        return cls(CurveSpace.proper(), plus, minus)

    def bad_set(self) -> frozenset[ClosedPoint]:
        """Points outside the interior: removed boundary plus |plus|."""
        return self.total.boundary | self.plus.support()

    def in_interior(self, point: ClosedPoint) -> bool:
        return point not in self.bad_set()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModulusTriple)
            and self.total == other.total
            and self.plus == other.plus
            and self.minus == other.minus
        )

    def __hash__(self) -> int:
        return hash(("triple", self.total, self.plus, self.minus))

    def __repr__(self) -> str:
        from .formats import triple_to_text

        return f"ModulusTriple({triple_to_text(self)})"


@dataclass(frozen=True)
class ModulusPair:
    """A total space with a single effective divisor at infinity."""

    total: CurveSpace
    infinity: Divisor

    def __post_init__(self):
        if not self.infinity.is_effective:
            raise NotEffective("a modulus pair carries an effective divisor")
        if not self.total.is_proper and (self.infinity.support() & self.total.boundary):
            raise DegenerateInput("divisor support meets the removed boundary")

    def as_triple(self) -> ModulusTriple:
        return ModulusTriple(self.total, self.infinity, Divisor.zero())


@dataclass(frozen=True)
class TripleSum:
    """Formal finite direct sum of triples (order-sensitive)."""

    summands: tuple[ModulusTriple, ...]

    @classmethod
    def of(cls, *triples: ModulusTriple) -> "TripleSum":
        return cls(tuple(triples))

    @property
    def is_zero(self) -> bool:
        return not self.summands


@dataclass(frozen=True)
class ProductData:
    """Source and target of a correspondence, standing in for their product.

    The product triple on the surface is never materialized: every
    check pulls its divisors back to the component's domain line.
    """

    source: ModulusTriple
    target: ModulusTriple


@dataclass(frozen=True)
class CheckedMap:
    """A map from the line into a product of totals, given by two legs.

    ``a`` lands in the source total and ``b`` in the target total.
    """

    a: RationalMap
    b: RationalMap


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def interior(t: ModulusTriple) -> CurveSpace:
    """The total space minus the support of the plus divisor."""
    return CurveSpace(t.total.boundary | t.plus.support())


def dual(t: ModulusTriple) -> ModulusTriple:
    """Swap the two divisors.  An involution; interiors generally differ."""
    return ModulusTriple(t.total, t.minus, t.plus)


def fundamental_locus(t: ModulusTriple) -> Divisor:
    """The scheme intersection of the two divisors: their pointwise minimum."""
    return min_divisor(t.plus, t.minus)


def separation(t: ModulusTriple) -> tuple[ModulusTriple, Divisor]:
    """Subtract the fundamental locus from both divisors.

    On the curve the blow-up along the fundamental locus is an
    isomorphism, so this is the whole separation.  The result has
    disjoint divisors and the operation is idempotent on disjoint
    input.  Returns (separated triple, fundamental locus).
    """
    f = fundamental_locus(t)
    return ModulusTriple(t.total, t.plus - f, t.minus - f), f


@dataclass(frozen=True)
class TripleClass:
    """Classification flags for a triple."""

    disjoint: bool
    saturated: bool
    min_class: bool
    man_class: bool
    proper: bool
    coadmissible: bool
    modulus_pair: bool


def classify(t: ModulusTriple) -> TripleClass:
    plus_supp = t.plus.support()
    minus_supp = t.minus.support()
    disjoint = not (plus_supp & minus_supp)
    # saturated: the support of plus - minus is all of |plus|
    diff = t.plus - t.minus
    saturated = diff.support() == plus_supp
    # the reduced plus part must be the fundamental locus, and |plus|
    # must avoid what is left of minus after removing it
    reduced = t.plus.reduced()
    fund = fundamental_locus(t)
    min_class = reduced == fund and not (plus_supp & (t.minus - reduced).support())
    man_class = t.plus == reduced and (t.minus - t.plus).is_effective
    return TripleClass(
        disjoint=disjoint,
        saturated=saturated,
        min_class=min_class,
        man_class=man_class,
        proper=t.total.is_proper,
        coadmissible=t.plus.is_zero,
        modulus_pair=t.minus.is_zero,
    )


def pullback_triple(f: RationalMap, t: ModulusTriple) -> ModulusTriple:
    """The induced triple (proper line, f*plus, f*minus).

    Pullback commutes with the fundamental locus, because it scales
    multiplicities pointwise.
    """
    if f.is_constant:
        raise DegenerateInput("pullback of a triple needs a nonconstant map")
    if not t.total.is_proper:
        raise DegenerateInput("pullback of a triple needs a proper total space")
    return ModulusTriple.proper(pullback_divisor(f, t.plus), pullback_divisor(f, t.minus))


# ---------------------------------------------------------------------------
# the modulus condition
# ---------------------------------------------------------------------------


def modulus_condition(m: CheckedMap, data: ProductData) -> bool:
    """Decide the modulus condition of a component against source x target.

    For a component with legs (a, b) the condition is the divisor
    inequality a*S+ + b*T- >= a*S- + b*T+ on the domain line, checked
    away from the points that leave the open models.  A leg that
    collapses to a point contributes by membership: a value inside the
    relevant support makes its side infinitely large.  In particular a
    constant b inside |T-| always passes (the projective branch), and a
    constant b inside |T+| but not |T-| always fails.
    """
    s, t = data.source, data.target
    if m.a.is_constant:
        raise NotFiniteOverSource("the source leg of a line component must be nonconstant")
    cmp = PullbackComparison()
    cmp.add_pullback(m.a, s.plus, +1)
    cmp.add_pullback(m.a, s.minus, -1)
    if m.b.is_constant:
        c = m.b.value
        if c in t.minus.support():
            return True
        if c in t.plus.support():
            return False
    else:
        cmp.add_pullback(m.b, t.minus, +1)
        cmp.add_pullback(m.b, t.plus, -1)
        if not t.total.is_proper:
            cmp.add_escape_map(m.b, t.total.boundary)
    if not s.total.is_proper:
        cmp.add_escape_map(m.a, s.total.boundary)
    return cmp.effective()


def modulus_condition_point(w: ClosedPoint, t: ModulusTriple) -> bool:
    """The point condition: w avoids what is left of minus past the locus."""
    residue = t.minus - fundamental_locus(t)
    return w not in residue.support()


# ---------------------------------------------------------------------------
# the shift morphism family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftMorphism:
    """The identity-supported morphism (total, plus+D, minus+D) -> triple.

    Always admissible; an isomorphism exactly when |D| is inside
    |plus|, in which case the reverse identity is admissible too and is
    carried along.
    """

    source: ModulusTriple
    target: ModulusTriple
    shift: Divisor
    cycle: "object"
    is_iso: bool
    reverse_cycle: Optional["object"]


def shift_morphism(t: ModulusTriple, d: Divisor) -> ShiftMorphism:
    from .cycles import graph_cycle, is_admissible
    from .errors import CertificationError

    if not d.is_effective:
        raise NotEffective("shift divisors must be effective")
    if not t.total.is_proper and (d.support() & t.total.boundary):
        raise DegenerateInput("shift divisor meets the removed boundary")
    shifted = ModulusTriple(t.total, t.plus + d, t.minus + d)
    forward = graph_cycle(RationalMap.identity(), shifted, t)
    if not is_admissible(forward):
        raise CertificationError("shift morphism failed its certification")
    is_iso = d.support() <= t.plus.support()
    reverse = None
    if is_iso:
        reverse = graph_cycle(RationalMap.identity(), t, shifted)
        if not is_admissible(reverse):
            raise CertificationError("shift isomorphism failed its reverse certification")
    return ShiftMorphism(
        source=shifted, target=t, shift=d, cycle=forward, is_iso=is_iso, reverse_cycle=reverse
    )
