"""Finite correspondences between modulus triples as parametrized cycles.

A component is a pair of rational maps (a, b) from a parametrizing
copy of the line: the domain line plays the role of the normalized
closure, a projects to the source total and must be nonconstant
(finiteness over the source), b projects to the target total and may
collapse to a rational point.  Components whose parametrization is not
birational onto its image are kept with pushforward semantics; checks
remain faithful because the condition can be read off any proper
surjective parametrization.

Pairs are stored in a canonical form: whenever one leg has degree one,
the component is reparametrized by that leg's inverse, so graphs always
appear as (x, f) and transposed graphs as (f, x).  Equality of cycles
is canonical-form syntactic equality.
"""

from __future__ import annotations

from typing import Iterable

from .divisors import (
    RationalMap,
    compose_maps,
    locus_subset,
    points_locus,
    preimage_locus,
    pullback_divisor,
)
from .errors import (
    CertificationError,
    DegenerateInput,
    Immutable,
    NotAdmissible,
    NotFiniteOverSource,
    NotInteriorPreserving,
    Record,
    TypeMismatch,
    UnsupportedComposition,
    _setslot,
)
from .triples import ModulusTriple, modulus_condition


class Component(Immutable):
    """One parametrized component with a positive multiplicity."""

    __slots__ = ("a", "b", "mult")

    def __init__(self, a: RationalMap, b: RationalMap, mult: int, _canonical: bool = False):
        if a.is_constant:
            raise NotFiniteOverSource("component projection to the source is constant")
        if mult < 1:
            raise DegenerateInput("component multiplicity must be positive")
        if not _canonical:
            a, b = _canonical_pair(a, b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mult", int(mult))

    def pair_key(self) -> tuple:
        return (self.a.sort_key(), self.b.sort_key())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Component)
            and self.a == other.a
            and self.b == other.b
            and self.mult == other.mult
        )

    def __hash__(self) -> int:
        return hash(("component", self.a, self.b, self.mult))

    def __repr__(self) -> str:
        from .formats import map_to_text

        return f"Component(a={map_to_text(self.a)}, b={map_to_text(self.b)}, mult={self.mult})"


def _canonical_pair(a: RationalMap, b: RationalMap) -> tuple[RationalMap, RationalMap]:
    # normalize away degree-one reparametrizations of the domain line
    if a.degree == 1:
        if a.is_identity:
            return a, b
        h = a.inverse()
        return RationalMap.identity(), compose_maps(b, h)
    if not b.is_constant and b.degree == 1:
        h = b.inverse()
        return compose_maps(a, h), RationalMap.identity()
    return a, b


class Cycle(Immutable):
    """Formal nonnegative combination of components between two triples."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: ModulusTriple,
        target: ModulusTriple,
        components: Iterable[Component] = (),
    ):
        merged: dict[tuple, Component] = {}
        for comp in components:
            key = comp.pair_key()
            if key in merged:
                prev = merged[key]
                merged[key] = Component(prev.a, prev.b, prev.mult + comp.mult, _canonical=True)
            else:
                merged[key] = comp
        ordered = tuple(merged[k] for k in sorted(merged))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", ordered)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def with_ends(self, source: ModulusTriple, target: ModulusTriple) -> "Cycle":
        """The same components read between different triples."""
        return Cycle(source, target, self.components)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cycle)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(("cycle", self.source, self.target, self.components))

    def __repr__(self) -> str:
        return f"Cycle({len(self.components)} components)"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def graph_cycle(f: RationalMap, source: ModulusTriple, target: ModulusTriple) -> Cycle:
    """The graph of a map f that sends the source interior into the target's.

    The graph lives on the proper model, so the resulting morphism is
    of the ambient-extended kind (its scheme map is defined on the
    whole proper line).
    """
    bad_t = target.bad_set()
    if f.is_constant:
        if f.value in bad_t:
            raise NotInteriorPreserving("constant value lies outside the target interior")
    else:
        hit = preimage_locus(f, bad_t)
        allowed = points_locus(source.bad_set())
        if not locus_subset(hit, allowed):
            raise NotInteriorPreserving("map pulls the removed locus into the interior")
    return Cycle(source, target, [Component(RationalMap.identity(), f, 1)])


def transpose_cycle(alpha: Cycle) -> Cycle:
    """Swap the two legs and the two ends.

    Only representability is asserted: the transpose of an admissible
    cycle need not be admissible.
    """
    flipped = []
    for comp in alpha.components:
        if comp.b.is_constant:
            raise NotFiniteOverSource("transpose of a component with a collapsed leg")
        flipped.append(Component(comp.b, comp.a, comp.mult))
    return Cycle(alpha.target, alpha.source, flipped)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


class ComponentVerdict(Record):
    __slots__ = ("component", "proper_over_source", "modulus")

    def __init__(self, component: Component, proper_over_source: bool, modulus: bool):
        _setslot(self, "component", component)
        _setslot(self, "proper_over_source", proper_over_source)
        _setslot(self, "modulus", modulus)


class AdmissibilityReport(Record):
    __slots__ = ("ok", "verdicts")

    def __init__(self, ok: bool, verdicts: tuple[ComponentVerdict, ...]):
        _setslot(self, "ok", ok)
        _setslot(self, "verdicts", verdicts)

    def __bool__(self) -> bool:
        return self.ok


def _left_proper(comp: Component, source: ModulusTriple, target: ModulusTriple) -> bool:
    # escape through the removed target boundary must happen over the
    # removed source boundary; automatic when both totals are proper
    if target.total.is_proper:
        return True
    if comp.b.is_constant:
        return comp.b.value not in target.total.boundary
    hit = preimage_locus(comp.b, target.total.boundary)
    allowed = preimage_locus(comp.a, source.total.boundary)
    return locus_subset(hit, allowed)


def is_admissible(alpha: Cycle) -> AdmissibilityReport:
    """Check the modulus condition and left properness, per component."""
    verdicts = []
    ok = True
    for comp in alpha.components:
        proper = _left_proper(comp, alpha.source, alpha.target)
        modulus = modulus_condition(comp.a, comp.b, alpha.source, alpha.target)
        verdicts.append(ComponentVerdict(comp, proper, modulus))
        ok = ok and proper and modulus
    return AdmissibilityReport(ok, tuple(verdicts))


# ---------------------------------------------------------------------------
# morphism classification
# ---------------------------------------------------------------------------


class MorphismFlags(Record):
    __slots__ = ("dominant", "minimal", "finite", "finite_over_target", "sigma_fin")


def morphism_flags(alpha: Cycle) -> MorphismFlags:
    """Flags for the distinguished morphism classes.

    ``finite`` reads finiteness of the component closures over the
    source total.  The literal reading over the target total is kept
    alongside as ``finite_over_target`` for comparison; the two differ
    for open totals and for collapsed second legs.
    """
    dominant = bool(alpha.components) and all(
        not comp.b.is_constant for comp in alpha.components
    )
    finite = all(_left_proper(c, alpha.source, alpha.target) for c in alpha.components)
    finite_over_target = dominant and all(
        _right_proper(c, alpha.source, alpha.target) for c in alpha.components
    )
    minimal = False
    if len(alpha.components) == 1:
        comp = alpha.components[0]
        if comp.a.is_identity and comp.mult == 1 and not comp.b.is_constant:
            extends = locus_subset(
                preimage_locus(comp.b, alpha.target.total.boundary),
                points_locus(alpha.source.total.boundary),
            )
            minimal = (
                extends
                and pullback_divisor(comp.b, alpha.target.plus) == alpha.source.plus
                and pullback_divisor(comp.b, alpha.target.minus) == alpha.source.minus
            )
    sigma_fin = (
        minimal
        and alpha.components[0].b.is_identity
        and alpha.source.total == alpha.target.total
    )
    return MorphismFlags(
        dominant=dominant,
        minimal=minimal,
        finite=finite,
        finite_over_target=finite_over_target,
        sigma_fin=sigma_fin,
    )


def _right_proper(comp: Component, source: ModulusTriple, target: ModulusTriple) -> bool:
    # comp.b is nonconstant: morphism_flags asks only of dominant cycles
    if source.total.is_proper:
        return True
    hit = preimage_locus(comp.a, source.total.boundary)
    allowed = preimage_locus(comp.b, target.total.boundary)
    return locus_subset(hit, allowed)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def compose(alpha: Cycle, beta: Cycle) -> Cycle:
    """beta after alpha, on the supported fragment.

    Supported pairings: the beta component is a graph after canonical
    reparametrization (its first leg has degree one).  Everything else
    raises UnsupportedComposition naming the pair.  Inputs must be
    admissible and the composite is re-certified; a certification
    failure raises instead of returning silently.
    """
    if alpha.target != beta.source:
        raise TypeMismatch("middle triples do not match")
    if not is_admissible(alpha):
        raise NotAdmissible("left factor is not admissible")
    if not is_admissible(beta):
        raise NotAdmissible("right factor is not admissible")
    out = []
    for ca in alpha.components:
        for cb in beta.components:
            if not cb.a.is_identity:
                raise UnsupportedComposition(ca, cb)
            out.append(Component(ca.a, compose_maps(cb.b, ca.b), ca.mult * cb.mult))
    result = Cycle(alpha.source, beta.target, out)
    if not is_admissible(result):
        raise CertificationError("composite failed its admissibility re-certification")
    return result


# ---------------------------------------------------------------------------
# position classes
# ---------------------------------------------------------------------------


class PositionVerdict(Record):
    __slots__ = ("component", "bad", "very_good", "excellent")

    def __init__(self, component: Component, bad: bool, very_good: bool, excellent: bool):
        _setslot(self, "component", component)
        _setslot(self, "bad", bad)
        _setslot(self, "very_good", very_good)
        _setslot(self, "excellent", excellent)


def position_classify(alpha: Cycle) -> tuple[PositionVerdict, ...]:
    """Classify every component as bad / very good / excellent.

    bad: the second leg collapses into |T-| inside the target interior.
    excellent: every closure point sent into |T-| already lies over
    |S-|.  very good: the same restricted to the interior part of the
    component; excellent implies very good.  All sets are read inside
    the open models, so boundary escapes never count.

    A leg collapsed to c sends the whole (infinite) closure to c, which
    no finite preimage of |S-| holds, so it is read in closed form:
    bad = c in |T-| and in T's interior, very good = not bad and
    excellent = c not in |T-| (|T-| never meets a removed boundary).
    """
    s, t = alpha.source, alpha.target
    out = []
    for comp in alpha.components:
        if comp.b.is_constant:
            c = comp.b.value
            in_minus = c in t.minus.support()
            bad = in_minus and t.in_interior(c)
            very_good, excellent = not bad, not in_minus
        else:
            bad = False
            hit_t = preimage_locus(comp.b, t.minus.support())
            over_s_minus = preimage_locus(comp.a, s.minus.support())
            escape = preimage_locus(comp.a, s.total.boundary)
            excellent = locus_subset(hit_t, escape, over_s_minus)
            bad_a, bad_b = preimage_locus(comp.a, s.bad_set()), preimage_locus(comp.b, t.bad_set())
            very_good = locus_subset(hit_t, bad_a, bad_b, over_s_minus)
        out.append(
            PositionVerdict(component=comp, bad=bad, very_good=very_good, excellent=excellent)
        )
    return tuple(out)


def all_very_good(alpha: Cycle) -> bool:
    return all(v.very_good for v in position_classify(alpha))


def all_excellent(alpha: Cycle) -> bool:
    return all(v.excellent for v in position_classify(alpha))


def reduce_cycle(alpha: Cycle) -> Cycle:
    """Drop the bad components; idempotent, compatible with composition."""
    verdicts = position_classify(alpha)
    return Cycle(
        alpha.source,
        alpha.target,
        [v.component for v in verdicts if not v.bad],
    )
