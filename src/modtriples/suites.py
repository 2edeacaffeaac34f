"""Seeded randomized property suites with machine-readable reports.

Every suite draws from its own generator seeded by (seed, suite name),
so reports are deterministic for a given configuration and independent
of which other suites run.  Each check appends one record; failures
carry the full reproduction inputs in canonical text form.

Admissible instances are produced by targeted constructions (pullback
seeded minimal pairs, shift perturbations, pushforward-dominated
transposes) with rejection sampling on top, so no suite starves.
Maps and points are drawn as integer coefficient lists; ``Poly`` appears
only in the kernel suite, which tests the public polynomial API.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from . import oracles
from .cycles import (
    Component,
    Cycle,
    all_very_good,
    compose,
    graph_cycle,
    is_admissible,
    position_classify,
    reduce_cycle,
)
from .divisors import (
    INFINITY,
    ClosedPoint,
    CurveSpace,
    Divisor,
    PullbackComparison,
    RationalMap,
    min_divisor,
    point_image,
    preimage_locus,
    pullback_divisor,
    pushforward_divisor,
)
from .errors import NotExcellent, ParseError, Record, SymbolicError, _setslot
from .formats import (
    MAX_DEGREE,
    cycle_from_json,
    cycle_to_json,
    divisor_to_text,
    iy_from_json,
    iy_to_json,
    map_from_json,
    map_to_json,
    mlog_from_json,
    mlog_to_json,
    ne_from_json,
    ne_to_json,
    pair_from_json,
    pair_to_json,
    parse_divisor,
    point_to_text,
    poly_to_text,
    space_from_json,
    space_to_json,
    triple_from_json,
    triple_to_json,
)
from .functors import (
    CompObject,
    IYObject,
    MlogObject,
    NePair,
    compactification_stage,
    extend_correspondence,
    g_adjunction_member,
    is_comp_object,
    is_iy_morphism,
    is_mlog_morphism,
    iy_to_triple,
    lambda_adjunction_member,
    lambda_embed,
    minimal_compactification_level,
    mlog_to_triple,
    ne_embed,
    ne_hom_member,
    phi_left_transport,
    phi_right_transport,
    separation_adjoint,
    triple_to_iy,
    triple_to_mlog,
    tsm_member,
)
from .ratpoly import Poly, _zmul, factor
from .triples import (
    ModulusPair,
    ModulusTriple,
    classify,
    dual,
    modulus_condition_point,
    pullback_triple,
    separation,
    shift_morphism,
)


class SuiteConfig(Record):
    """Configuration for a suite run; unknown suite names are rejected here."""

    __slots__ = ("seed", "samples", "degree_bound", "height_bound", "suites")

    def __init__(self, seed=0, samples=100, degree_bound=4, height_bound=10, suites=("all",)):
        if not (0 <= seed < 2**64):
            raise ParseError("seed must fit in 64 unsigned bits")
        if height_bound >= 2**64:  # coefficients this large cost without bound to print
            raise ParseError("height bound must fit in 64 unsigned bits")
        if samples < 1 or degree_bound < 1 or height_bound < 1:
            raise ParseError("samples and bounds must be at least one")
        if degree_bound > MAX_DEGREE:  # the degree cap of a parsed map
            raise ParseError(f"degree bound above {MAX_DEGREE}")
        _setslot(self, "seed", seed)
        _setslot(self, "samples", samples)
        _setslot(self, "degree_bound", degree_bound)
        _setslot(self, "height_bound", height_bound)
        _setslot(self, "suites", suites)
        for name in self.resolved_suites():
            if name not in SUITES:
                raise ParseError(f"unknown suite identifier {name!r}")

    def resolved_suites(self) -> tuple[str, ...]:
        if "all" in self.suites:
            return tuple(SUITES)
        return tuple(self.suites)


class Report(Record):
    """Per-check records plus summary counts; deterministic up to elapsed_s.  Mutable."""

    __slots__ = ("config", "records", "elapsed_s")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, config: SuiteConfig, records: Optional[list[dict]] = None, elapsed_s: float = 0.0):
        self.config = config
        self.records = [] if records is None else records
        self.elapsed_s = elapsed_s

    @property
    def passed(self) -> bool:
        return all(r["verdict"] == "pass" for r in self.records)

    def summary(self) -> dict:
        failed = sum(1 for r in self.records if r["verdict"] == "fail")
        return {"total": len(self.records), "passed": len(self.records) - failed, "failed": failed}

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "seed": self.config.seed,
            "samples": self.config.samples,
            "degree_bound": self.config.degree_bound,
            "height_bound": self.config.height_bound,
            "suites": list(self.config.resolved_suites()),
            "records": self.records,
            "summary": self.summary(),
            "elapsed_s": self.elapsed_s,
        }


class Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.records: list[dict] = []
        self._n = 0

    def check(self, ok: bool, inputs: dict, counterexample: Optional[dict] = None) -> bool:
        record = {
            "id": f"{self.suite}[{self._n}]",
            "inputs": inputs,
            "verdict": "pass" if ok else "fail",
            "counterexample": None if ok else (counterexample or inputs),
        }
        self._n += 1
        self.records.append(record)
        return ok


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


_POINT_POOL = (
    ClosedPoint.rational(0),
    ClosedPoint.rational(1),
    ClosedPoint.rational(-1),
    ClosedPoint.rational(2),
    ClosedPoint.finite((1, 0, 1)),
    ClosedPoint.finite((-2, 0, 1)),
    INFINITY,
)


def point_pool() -> list[ClosedPoint]:
    return list(_POINT_POOL)


def rational_pool() -> list[ClosedPoint]:
    return [p for p in point_pool() if p.is_infinity or p.degree == 1]


def random_effective(
    rng: random.Random,
    pool: list[ClosedPoint],
    max_points: int = 3,
    max_mult: int = 3,
    allow_empty: bool = True,
) -> Divisor:
    low = 0 if allow_empty else 1
    k = rng.randint(low, max_points)
    pts = rng.sample(pool, min(k, len(pool)))
    return Divisor((p, rng.randint(1, max_mult)) for p in pts)


def random_signed(rng: random.Random, pool: list[ClosedPoint], max_points: int = 3) -> Divisor:
    k = rng.randint(0, max_points)
    pts = rng.sample(pool, min(k, len(pool)))
    return Divisor((p, rng.choice([-3, -2, -1, 1, 2, 3])) for p in pts)


def random_poly(rng: random.Random, degree: int, height: int) -> list[int]:
    """Integer coefficients, ascending, of a polynomial of the given degree."""
    coeffs = [rng.randint(-height, height) for _ in range(degree)]
    lead = rng.randint(1, height) * rng.choice([1, -1])
    return coeffs + [lead]


def random_map(rng: random.Random, degree_bound: int, height: int) -> RationalMap:
    for _ in range(64):
        d = rng.randint(1, degree_bound)
        if rng.random() < 0.7:
            num = random_poly(rng, d, height)
            den = random_poly(rng, rng.randint(0, d), height)
        else:
            num = random_poly(rng, rng.randint(0, d), height)
            den = random_poly(rng, d, height)
        f = RationalMap.from_ints(num, den)
        if not f.is_constant and f.degree == d:
            return f
    raise AssertionError("map generation starved")


def random_triple(
    rng: random.Random, pool: list[ClosedPoint], overlap: bool = True
) -> ModulusTriple:
    plus = random_effective(rng, pool)
    minus = random_effective(rng, pool)
    if not overlap:
        minus = minus.drop(plus.support())
    return ModulusTriple.proper(plus, minus)


def random_disjoint_triple(rng: random.Random, pool: list[ClosedPoint]) -> ModulusTriple:
    return random_triple(rng, pool, overlap=False)


def perturb_source(rng: random.Random, t: ModulusTriple, pool: list[ClosedPoint]) -> ModulusTriple:
    """Admissibility-preserving tweaks of a pullback-minimal source."""
    plus, minus = t.plus, t.minus
    if rng.random() < 0.5:
        plus = plus + random_effective(rng, pool, max_points=2)
    if rng.random() < 0.3:
        shift = random_effective(rng, pool, max_points=1)
        plus, minus = plus + shift, minus + shift
    return ModulusTriple.proper(plus, minus)


def admissible_graph_chain(
    rng: random.Random, cfg: SuiteConfig, length: int, pool: list[ClosedPoint]
) -> list[Cycle]:
    """A chain of composable admissible graph cycles, built back to front."""
    target = random_triple(rng, pool)
    chain: list[Cycle] = []
    for _ in range(length):
        f = random_map(rng, cfg.degree_bound, cfg.height_bound)
        source = perturb_source(rng, pullback_triple(f, target), pool)
        chain.append(graph_cycle(f, source, target))
        target = source
    chain.reverse()
    return chain


def constant_cycle(rng: random.Random, target: ModulusTriple) -> Optional[Cycle]:
    """An admissible cycle whose second leg collapses into the target interior."""
    options = [p for p in rational_pool() if target.in_interior(p)]
    if not options:
        return None
    c = rng.choice(options)
    if c not in target.minus.support():
        # force the plain-inequality branch to hold: no negative source part
        source = ModulusTriple.proper(random_effective(rng, point_pool()), Divisor.zero())
    else:
        source = random_triple(rng, point_pool())
    cycle = Cycle(source, target, [Component(RationalMap.identity(), RationalMap.constant(c), 1)])
    return cycle if is_admissible(cycle) else None


def transpose_style_cycle(
    rng: random.Random, cfg: SuiteConfig, target: ModulusTriple
) -> Optional[Cycle]:
    """An admissible cycle (h, x) built from a pushforward-dominated source."""
    h = random_map(rng, min(cfg.degree_bound, 3), cfg.height_bound)
    try:
        source_plus = pushforward_divisor(h, target.plus)
    except SymbolicError:
        return None
    source = ModulusTriple.proper(source_plus, Divisor.zero())
    cycle = Cycle(source, target, [Component(h, RationalMap.identity(), 1)])
    return cycle if is_admissible(cycle) else None


def admissible_pair(rng: random.Random, cfg: SuiteConfig) -> tuple[Cycle, Cycle]:
    """A composable pair (alpha, beta) of admissible cycles, beta a graph."""
    pool = point_pool()
    beta, = admissible_graph_chain(rng, cfg, 1, pool)
    middle = beta.source
    roll = rng.random()
    if roll < 0.2:
        alpha = constant_cycle(rng, middle)
        if alpha is not None:
            return alpha, beta
    elif roll < 0.4:
        alpha = transpose_style_cycle(rng, cfg, middle)
        if alpha is not None:
            return alpha, beta
    f = random_map(rng, cfg.degree_bound, cfg.height_bound)
    source = perturb_source(rng, pullback_triple(f, middle), pool)
    return graph_cycle(f, source, middle), beta


# ---------------------------------------------------------------------------
# goes-style checks shared by two suites
# ---------------------------------------------------------------------------


def minus_transfer_holds(comp: Component, s: ModulusTriple, t: ModulusTriple) -> bool:
    """Divisor inequality b*T- >= a*S- away from the escapes a^-1(bad S) and b^-1(bad T).

    The interior set inclusion comes with it: at a point over |S-| that does not
    escape, b*T- >= a*S- > 0, so the point lies over |T-|, and infinity likewise;
    under a constant b no point over |S-| is left outside the escapes.
    """
    if comp.b.is_constant:
        if comp.b.value in t.minus.support():
            return True  # hypothesis excludes components landing inside |T-|
        if not t.in_interior(comp.b.value):
            return True  # no interior part at all
    cmp = PullbackComparison()
    cmp.add_pullback(comp.a, s.minus, -1)
    cmp.add_escape_map(comp.a, s.bad_set())
    if not comp.b.is_constant:
        cmp.add_pullback(comp.b, t.minus, +1)
        cmp.add_escape_map(comp.b, t.bad_set())
    return cmp.effective()


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def suite_key_lem(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Minimum-divisor characterization against the enumeration oracle."""
    pool = point_pool()[:6]
    for _ in range(cfg.samples):
        d1 = Divisor((p, rng.randint(0, 3)) for p in pool)
        d2 = Divisor((p, rng.randint(0, 3)) for p in pool)
        computed = min_divisor(d1, d2)
        ok = True
        witness = None
        for e in oracles.common_lower_bounds(d1, d2):
            forward = e == computed
            backward = oracles.disjoint_after_subtracting(d1, d2, e)
            if forward != backward:
                ok = False
                witness = {"E": divisor_to_text(e)}
                break
        rec.check(
            ok,
            {"D1": divisor_to_text(d1), "D2": divisor_to_text(d2)},
            witness,
        )


def suite_separation(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Separation output is disjoint, idempotent, and commutes with duals."""
    pool = point_pool()
    for _ in range(cfg.samples):
        t = random_triple(rng, pool)
        sep, fund = separation(t)
        again, fund2 = separation(sep)
        swapped, fund3 = separation(dual(t))
        ok = (
            classify(sep).disjoint
            and again == sep
            and fund2.is_zero
            and swapped == dual(sep)
            and fund3 == fund
        )
        rec.check(ok, {"triple": triple_to_json(t)})


def suite_kernel(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Factorization of known products, cross-checked by the oracle."""
    height = min(cfg.height_bound, 20)
    irreducibles: list[Poly] = []
    attempts = 0
    while len(irreducibles) < 12 and attempts < 600:
        attempts += 1
        p = Poly(random_poly(rng, rng.randint(1, 3), height))
        try:
            if oracles.verify_irreducible(p):
                irreducibles.append(Poly([c / p.leading for c in p.coeffs]))
        except oracles.OracleBudgetExceeded:
            continue
    for _ in range(cfg.samples):
        parts = [rng.choice(irreducibles) for _ in range(rng.randint(2, 3))]
        coeffs = [rng.choice([1, -1]) * rng.randint(1, height)]
        for q in parts:
            coeffs = _zmul(coeffs, q.coeffs)
        prod = Poly(coeffs)
        factored = factor(prod)
        expected: dict[Poly, int] = {}
        for q in parts:
            expected[q] = expected.get(q, 0) + 1
        ok = factored.expand() == prod
        ok = ok and dict(factored.factors) == expected
        ok = ok and all(oracles.verify_irreducible(q) for q, _ in factored)
        rec.check(ok, {"product": poly_to_text(prod)})


def suite_composition(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Composites of admissible cycles are admissible (the supported fragment)."""
    for _ in range(cfg.samples):
        alpha, beta = admissible_pair(rng, cfg)
        inputs = {"alpha": cycle_to_json(alpha), "beta": cycle_to_json(beta)}
        try:
            gamma = compose(alpha, beta)
            ok = bool(is_admissible(gamma))
        except SymbolicError as exc:
            ok = False
            inputs["error"] = str(exc)
        rec.check(ok, inputs)


def suite_associativity(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Exact associativity on chains of three graph cycles."""
    pool = point_pool()
    for _ in range(cfg.samples):
        f_cycle, g_cycle, h_cycle = admissible_graph_chain(rng, cfg, 3, pool)
        left = compose(compose(f_cycle, g_cycle), h_cycle)
        right = compose(f_cycle, compose(g_cycle, h_cycle))
        rec.check(
            left == right,
            {
                "f": cycle_to_json(f_cycle),
                "g": cycle_to_json(g_cycle),
                "h": cycle_to_json(h_cycle),
            },
        )


def suite_minus_transfer(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """The minus divisor transfers along admissible components."""
    for _ in range(cfg.samples):
        alpha, beta = admissible_pair(rng, cfg)
        gamma = compose(alpha, beta)
        ok = True
        bad_input = None
        for cycle in (alpha, beta, gamma):
            for comp in cycle.components:
                if not minus_transfer_holds(comp, cycle.source, cycle.target):
                    ok = False
                    bad_input = cycle_to_json(cycle)
        rec.check(ok, {"alpha": cycle_to_json(alpha), "beta": cycle_to_json(beta)}, bad_input)


def suite_fixtures(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Pinned regression verdicts for the projective-line unit objects."""
    inf = Divisor.of(INFINITY)
    zero = Divisor.zero()
    box = ModulusTriple.proper(inf, zero)
    boxdual = ModulusTriple.proper(zero, inf)
    identity = graph_cycle(RationalMap.identity(), box, boxdual)
    pos = position_classify(identity)[0]
    rec.check(bool(is_admissible(identity)), {"case": "identity box to dual admissible"})
    rec.check(pos.very_good, {"case": "identity box to dual very good"})
    rec.check(not pos.excellent, {"case": "identity box to dual not excellent"})
    shift = shift_morphism(box, inf)
    rec.check(shift.is_iso, {"case": "doubling shift is an isomorphism"})
    rec.check(bool(is_admissible(shift.cycle)), {"case": "shift cycle admissible"})
    composite = compose(shift.cycle, identity)
    cpos = position_classify(composite)[0]
    rec.check(cpos.excellent, {"case": "composite in excellent position"})
    refused = False
    try:
        g_adjunction_member(ModulusPair(CurveSpace.proper(), inf), boxdual, identity)
    except NotExcellent:
        refused = True
    rec.check(refused, {"case": "shrink transport refuses the non-excellent identity"})


def suite_bridges(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Bridge round trips and morphism-predicate agreement, both directions."""
    pool = point_pool()
    for _ in range(cfg.samples):
        # two-divisor objects
        y = random_effective(rng, pool)
        z = random_effective(rng, [p for p in pool if p not in y.support()], allow_empty=True)
        o = IYObject(y=y, z=z)
        ok = triple_to_iy(iy_to_triple(o)) == o
        t = iy_to_triple(o)
        ok = ok and iy_to_triple(triple_to_iy(t)) == t
        # boundary/modulus objects
        boundary = random_effective(rng, pool, max_mult=1)
        modulus = random_effective(rng, pool)
        mo = MlogObject(boundary_div=boundary, modulus_div=modulus)
        ok = ok and triple_to_mlog(mlog_to_triple(mo)) == mo
        mt = mlog_to_triple(mo)
        ok = ok and mlog_to_triple(triple_to_mlog(mt)) == mt
        rec.check(ok, {"iy": iy_to_json(o), "mlog": mlog_to_json(mo)})

        f, o1, o2 = _iy_morphism_sample(rng, cfg, pool)
        agree = is_iy_morphism(f, o1, o2) == tsm_member(f, iy_to_triple(o1), iy_to_triple(o2))
        rec.check(
            agree,
            {"map": map_to_json(f), "from": iy_to_json(o1), "to": iy_to_json(o2)},
        )

        f2, m1, m2 = _mlog_morphism_sample(rng, cfg, pool)
        agree2 = is_mlog_morphism(f2, m1, m2) == tsm_member(
            f2, mlog_to_triple(m1), mlog_to_triple(m2)
        )
        rec.check(
            agree2,
            {"map": map_to_json(f2), "from": mlog_to_json(m1), "to": mlog_to_json(m2)},
        )


def _iy_morphism_sample(rng, cfg, pool):
    y2 = random_effective(rng, pool)
    z2 = random_effective(rng, [p for p in pool if p not in y2.support()])
    o2 = IYObject(y=y2, z=z2)
    if rng.random() < 0.3:
        f: RationalMap = RationalMap.constant(rng.choice(rational_pool()))
        o1 = IYObject(y=random_effective(rng, pool), z=Divisor.zero())
        return f, o1, o2
    f = random_map(rng, cfg.degree_bound, cfg.height_bound)
    if rng.random() < 0.5:
        y1 = pullback_divisor(f, y2)
        z1 = pullback_divisor(f, z2 - z2.reduced()) + pullback_divisor(f, z2).reduced()
        if rng.random() < 0.4 and not y1.is_zero:
            point = rng.choice(sorted(y1.support(), key=lambda p: p.sort_key()))
            y1 = y1 + Divisor.of(point)  # still fine: Y1 <= f*Y2 fails now
        o1 = IYObject(y=y1, z=z1)  # |f*Y2| and |f*Z2| are disjoint, as |Y2| and |Z2| are
    else:
        y1 = random_effective(rng, pool)
        z1 = random_effective(rng, [p for p in pool if p not in y1.support()])
        o1 = IYObject(y=y1, z=z1)
    return f, o1, o2


def _mlog_morphism_sample(rng, cfg, pool):
    b2 = random_effective(rng, pool, max_mult=1)
    d2 = random_effective(rng, pool)
    o2 = MlogObject(boundary_div=b2, modulus_div=d2)
    if rng.random() < 0.3:
        return RationalMap.constant(rng.choice(rational_pool())), MlogObject(
            boundary_div=random_effective(rng, pool, max_mult=1),
            modulus_div=random_effective(rng, pool),
        ), o2
    f = random_map(rng, cfg.degree_bound, cfg.height_bound)
    if rng.random() < 0.5:
        b1 = pullback_divisor(f, b2).reduced()
        d1 = pullback_divisor(f, d2)
        if rng.random() < 0.4:
            d1 = d1 + random_effective(rng, pool, max_points=1)
        o1 = MlogObject(boundary_div=b1, modulus_div=d1)
    else:
        o1 = MlogObject(
            boundary_div=random_effective(rng, pool, max_mult=1),
            modulus_div=random_effective(rng, pool),
        )
    return f, o1, o2


def suite_saturation(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Signed-pair embedding: saturated image, hom agreement, support pullback."""
    pool = point_pool()
    for _ in range(cfg.samples):
        x = NePair(infinity=random_signed(rng, pool))
        embedded = ne_embed(x)
        rec.check(classify(embedded).saturated, {"pair": ne_to_json(x)})

        f = random_map(rng, cfg.degree_bound, cfg.height_bound)
        y = NePair(infinity=random_signed(rng, pool))
        pulled = pullback_divisor(f, y.infinity)
        if rng.random() < 0.5 or pulled.is_zero:
            x2 = NePair(infinity=pulled + random_effective(rng, pool, max_points=1))
        else:
            worst = max(pulled, key=lambda pm: (abs(pm[1]), pm[0].sort_key()))
            tweak = Divisor.of(worst[0]) * (1 if worst[1] > 0 else -1)
            x2 = NePair(infinity=pulled - tweak)
        candidate = Cycle(
            ne_embed(x2), ne_embed(y), [Component(RationalMap.identity(), f, 1)]
        )
        agree = ne_hom_member(candidate, x2, y) == bool(is_admissible(candidate))
        rec.check(
            agree,
            {"map": map_to_json(f), "from": ne_to_json(x2), "to": ne_to_json(y)},
        )

        d = random_signed(rng, pool)
        g = random_map(rng, cfg.degree_bound, cfg.height_bound)
        if d.is_zero:
            rec.check(True, {"case": "support pullback, zero divisor"})
        else:
            left = pullback_divisor(g, d).support()
            right = pullback_divisor(g, d.reduced()).support()
            rec.check(
                left == right,
                {"map": map_to_json(g), "divisor": divisor_to_text(d)},
            )


def suite_compactify(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Minimal compactification level: minimality and monotone stabilization."""
    pool = point_pool()
    for _ in range(cfg.samples):
        boundary = rng.sample(pool, rng.randint(1, 2))
        target = random_triple(rng, pool)
        expected = None
        if rng.random() < 0.25:
            options = [p for p in rational_pool() if target.in_interior(p)]
            options = [p for p in options if p not in target.minus.support()]
            if not options:
                continue
            comp = Component(
                RationalMap.identity(), RationalMap.constant(rng.choice(options)), 1
            )
            plus = random_effective(rng, [p for p in pool if p not in boundary])
            base = ModulusTriple(CurveSpace.open(boundary), plus, Divisor.zero())
            expected = 1
        else:
            f = random_map(rng, cfg.degree_bound, cfg.height_bound)
            comp = Component(RationalMap.identity(), f, 1)
            pb_plus = pullback_divisor(f, target.plus)
            pb_minus = pullback_divisor(f, target.minus)
            junk = random_effective(rng, [p for p in pool if p not in boundary], max_points=1)
            bset = frozenset(boundary)
            base = ModulusTriple(
                CurveSpace.open(boundary), pb_plus.drop(bset) + junk, pb_minus.drop(bset)
            )
            expected = max(
                [1]
                + [
                    pb_plus.multiplicity(p) - pb_minus.multiplicity(p)
                    for p in boundary
                ]
            )
        alpha = Cycle(base, target, [comp])
        level = minimal_compactification_level(base, target, alpha)
        ok = level >= 1 and (expected is None or level == expected)
        ok = ok and bool(is_admissible(alpha.with_ends(compactification_stage(base, level), target)))
        if level > 1:
            ok = ok and not is_admissible(
                alpha.with_ends(compactification_stage(base, level - 1), target)
            )
        for extra in (1, 2):
            ok = ok and bool(
                is_admissible(alpha.with_ends(compactification_stage(base, level + extra), target))
            )
        stage = compactification_stage(base, level)
        witness = Divisor((p, level) for p in boundary)
        ok = ok and is_comp_object(CompObject(base=base, completion=stage, witness_c=witness))
        rec.check(
            ok,
            {
                "base": triple_to_json(base),
                "target": triple_to_json(target),
                "cycle": cycle_to_json(alpha),
                "level": level,
            },
        )


def suite_adjunctions(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Per-candidate membership agreement for every adjunction transport."""
    pool = point_pool()
    empty_hom_budget = max(1, cfg.samples // 4)
    for i in range(cfg.samples):
        # free embedding: everything out of an empty-modulus source is a member
        target = random_triple(rng, pool)
        lam = lambda_embed(CurveSpace.proper())
        cand = constant_cycle(rng, target)
        if cand is not None:
            cand = cand.with_ends(lam, target)
            rec.check(
                lambda_adjunction_member(cand),
                {"kind": "free-embedding", "cycle": cycle_to_json(cand)},
            )
        if target.plus.is_zero:
            f = random_map(rng, cfg.degree_bound, cfg.height_bound)
            cand2 = graph_cycle(f, lam, target)
            rec.check(
                lambda_adjunction_member(cand2),
                {"kind": "free-embedding-graph", "cycle": cycle_to_json(cand2)},
            )

        # pair embedding, right adjoint
        t = random_disjoint_triple(rng, pool)
        m_pair = ModulusPair(CurveSpace.proper(), random_effective(rng, pool))
        cand3 = _pair_candidate(rng, cfg, phi_source=m_pair, target=t)
        chk = phi_right_transport(m_pair, t, cand3)
        rec.check(
            chk.agrees,
            {"kind": "pair-right", "pair": pair_to_json(m_pair), "triple": triple_to_json(t),
             "cycle": cycle_to_json(cand3)},
            {"left": chk.left, "right": chk.right},
        )

        # pair embedding, left adjoint: the empty-hom side
        if i < empty_hom_budget:
            t_neg = _disjoint_with_minus(rng, pool)
            cand4 = _pair_candidate(
                rng, cfg, phi_source=ModulusPair(t_neg.total, t_neg.plus),
                target=m_pair.as_triple(),
            ).with_ends(t_neg, m_pair.as_triple())
            chk4 = phi_left_transport(t_neg, m_pair, cand4)
            rec.check(
                chk4.agrees and not chk4.right,
                {"kind": "pair-left-empty", "triple": triple_to_json(t_neg),
                 "cycle": cycle_to_json(cand4)},
                {"left": chk4.left, "right": chk4.right},
            )

        # separation adjoint: membership is stable under removing the locus
        s_dis = random_disjoint_triple(rng, pool)
        t_over, cand5 = _separation_instance(rng, cfg, pool, s_dis)
        before = bool(is_admissible(cand5))
        after = bool(is_admissible(cand5.with_ends(separation_adjoint(t_over), s_dis)))
        ok5 = before == after
        if before:
            ok5 = ok5 and extend_correspondence(cand5).source == separation_adjoint(t_over)
        rec.check(
            ok5,
            {"kind": "separation", "triple": triple_to_json(t_over),
             "target": triple_to_json(s_dis), "cycle": cycle_to_json(cand5)},
        )

        # interior shrink, on excellent candidates only
        t6 = random_triple(rng, pool)
        pair6 = ModulusPair(CurveSpace.proper(), random_effective(rng, pool))
        cand6 = _excellent_candidate(rng, cfg, pair6, t6)
        if cand6 is not None:
            try:
                chk6 = g_adjunction_member(pair6, t6, cand6)
                rec.check(
                    chk6.agrees,
                    {"kind": "shrink", "pair": pair_to_json(pair6),
                     "triple": triple_to_json(t6), "cycle": cycle_to_json(cand6)},
                    {"left": chk6.left, "right": chk6.right},
                )
            except NotExcellent:
                rec.check(False, {"kind": "shrink", "cycle": cycle_to_json(cand6)},
                          {"error": "generator produced a non-excellent candidate"})


def _pair_candidate(rng, cfg, phi_source: ModulusPair, target: ModulusTriple) -> Cycle:
    source = phi_source.as_triple()
    if rng.random() < 0.3:
        cand = constant_cycle(rng, target)
        if cand is not None:
            return cand.with_ends(source, target)
    f = random_map(rng, cfg.degree_bound, cfg.height_bound)
    return Cycle(source, target, [Component(RationalMap.identity(), f, 1)])


def _disjoint_with_minus(rng, pool) -> ModulusTriple:
    t = random_disjoint_triple(rng, pool)
    if not t.minus.is_zero:
        return t
    extra = random_effective(rng, [p for p in pool if p not in t.plus.support()],
                             max_points=2, allow_empty=False)
    return ModulusTriple.proper(t.plus, extra)


def _separation_instance(
    rng, cfg, pool, target: ModulusTriple
) -> tuple[ModulusTriple, Cycle]:
    """An overlapping source together with a candidate into a disjoint target."""
    f = random_map(rng, cfg.degree_bound, cfg.height_bound)
    if rng.random() < 0.5:
        # targeted: a minimal pullback plus shared junk through the locus
        base = pullback_triple(f, target)
        junk = random_effective(rng, pool, max_points=2)
        source = ModulusTriple.proper(base.plus + junk, base.minus + junk)
    else:
        source = random_triple(rng, pool)
    return source, Cycle(source, target, [Component(RationalMap.identity(), f, 1)])


def _excellent_candidate(rng, cfg, pair: ModulusPair, target: ModulusTriple) -> Optional[Cycle]:
    source = pair.as_triple()
    if target.minus.is_zero:
        f = random_map(rng, cfg.degree_bound, cfg.height_bound)
        return Cycle(source, target, [Component(RationalMap.identity(), f, 1)])
    options = [
        p for p in rational_pool()
        if target.in_interior(p) and p not in target.minus.support()
    ]
    if not options:
        return None
    c = rng.choice(options)
    return Cycle(
        source, target, [Component(RationalMap.identity(), RationalMap.constant(c), 1)]
    )


def suite_proper_image(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Point condition agreement under pullback along a finite map."""
    pool = point_pool()
    for _ in range(cfg.samples):
        f = random_map(rng, cfg.degree_bound, cfg.height_bound)
        t = random_triple(rng, pool)
        u = pullback_triple(f, t)
        candidates = list(pool) + [p for p, _ in (u.plus + u.minus)]
        w = rng.choice(candidates)
        image = point_image(f, w)
        fund_t = min_divisor(t.plus, t.minus)
        if image in fund_t.support():
            rec.check(True, {"case": "skipped: image inside the fundamental locus"})
            continue
        agree = modulus_condition_point(w, u) == modulus_condition_point(image, t)
        rec.check(
            agree,
            {"map": map_to_json(f), "triple": triple_to_json(t), "point": point_to_text(w)},
        )


def suite_equal_modulus(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """With equal divisors at the source, membership means missing |S+|."""
    pool = point_pool()
    for _ in range(cfg.samples):
        d = random_effective(rng, pool)
        t = ModulusTriple.proper(d, d)
        s = random_disjoint_triple(rng, pool)
        if rng.random() < 0.4:
            b: RationalMap = RationalMap.constant(rng.choice(rational_pool()))
        else:
            b = random_map(rng, cfg.degree_bound, cfg.height_bound)
        cycle = Cycle(t, s, [Component(RationalMap.identity(), b, 1)])
        if b.is_constant:
            literal = b.value not in s.plus.support()
        else:
            literal = preimage_locus(b, s.plus.support()).is_empty
        agree = bool(is_admissible(cycle)) == literal
        rec.check(
            agree,
            {"triple": triple_to_json(t), "target": triple_to_json(s),
             "cycle": cycle_to_json(cycle)},
        )


def suite_positions(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """Position classes under composition: closure, absorption, reduction."""
    pool = point_pool()
    for _ in range(cfg.samples):
        # very good pairs compose to very good
        alpha, beta = admissible_pair(rng, cfg)
        if all_very_good(alpha) and all_very_good(beta):
            gamma = compose(alpha, beta)
            rec.check(
                all_very_good(gamma),
                {"case": "very-good-closure", "alpha": cycle_to_json(alpha),
                 "beta": cycle_to_json(beta)},
            )
        else:
            rec.check(True, {"case": "very-good-closure skipped (pair not very good)"})

        # bad components absorb through composition
        beta2, = admissible_graph_chain(rng, cfg, 1, pool)
        bad = _bad_cycle(rng, beta2.source)
        if bad is not None:
            mixed = Cycle(
                bad.source, bad.target, list(bad.components)
                + list(_spread_cycle(rng, cfg, bad.source, bad.target))
            )
            composed = compose(bad, beta2)
            ok = all(v.bad for v in position_classify(composed))
            left = reduce_cycle(compose(mixed, beta2))
            right = reduce_cycle(compose(reduce_cycle(mixed), beta2))
            ok = ok and left == right
            ok = ok and reduce_cycle(reduce_cycle(mixed)) == reduce_cycle(mixed)
            rec.check(ok, {"case": "bad-absorption", "bad": cycle_to_json(bad),
                           "beta": cycle_to_json(beta2)})
        else:
            rec.check(True, {"case": "bad-absorption skipped (no interior minus point)"})

        # cycles with no very good component never compose into one
        trip = _never_very_good(rng, cfg, pool)
        if trip is not None:
            alpha3, beta3 = trip
            gamma3 = compose(alpha3, beta3)
            ok3 = all(not v.very_good for v in position_classify(gamma3))
            rec.check(ok3, {"case": "not-very-good-absorbs", "alpha": cycle_to_json(alpha3),
                            "beta": cycle_to_json(beta3)})
        else:
            rec.check(True, {"case": "not-very-good skipped"})


def _bad_cycle(rng, target: ModulusTriple) -> Optional[Cycle]:
    options = [
        p for p in rational_pool()
        if p in target.minus.support() and target.in_interior(p)
    ]
    if not options:
        return None
    c = rng.choice(options)
    source = ModulusTriple.proper(random_effective(rng, point_pool()), Divisor.zero())
    cycle = Cycle(source, target, [Component(RationalMap.identity(), RationalMap.constant(c), 1)])
    return cycle if is_admissible(cycle) else None


def _spread_cycle(rng, cfg, source: ModulusTriple, target: ModulusTriple):
    f = random_map(rng, cfg.degree_bound, cfg.height_bound)
    comp = Component(RationalMap.identity(), f, 1)
    cycle = Cycle(source, target, [comp])
    if is_admissible(cycle) and not position_classify(cycle)[0].bad:
        return [comp]
    return []


def _never_very_good(rng, cfg, pool):
    minus = random_effective(rng, pool, allow_empty=False)
    middle = ModulusTriple.proper(Divisor.zero(), minus)
    f = random_map(rng, cfg.degree_bound, cfg.height_bound)
    alpha = Cycle(
        ModulusTriple.proper(Divisor.zero(), Divisor.zero()),
        middle,
        [Component(RationalMap.identity(), f, 1)],
    )
    if not is_admissible(alpha) or any(v.very_good for v in position_classify(alpha)):
        return None
    g = random_map(rng, cfg.degree_bound, cfg.height_bound)
    try:
        pushed = pushforward_divisor(g, minus)
    except SymbolicError:
        return None
    target = ModulusTriple.proper(Divisor.zero(), pushed)
    beta = Cycle(middle, target, [Component(RationalMap.identity(), g, 1)])
    if not is_admissible(beta):
        return None
    return alpha, beta


def suite_roundtrip(rng: random.Random, cfg: SuiteConfig, rec: Recorder) -> None:
    """parse(print(object)) is the identity on every object type."""
    pool = point_pool()
    for _ in range(cfg.samples):
        d = random_signed(rng, pool)
        ok = parse_divisor(divisor_to_text(d)) == d
        t = random_triple(rng, pool)
        if rng.random() < 0.3:
            boundary = [p for p in pool if p not in t.plus.support() | t.minus.support()]
            if boundary:
                t = ModulusTriple(CurveSpace.open(boundary[:1]), t.plus, t.minus)
        ok = ok and triple_from_json(triple_to_json(t)) == t
        f = random_map(rng, cfg.degree_bound, cfg.height_bound)
        ok = ok and map_from_json(map_to_json(f)) == f
        c = RationalMap.constant(rng.choice(rational_pool()))
        ok = ok and map_from_json(map_to_json(c)) == c
        cycle = Cycle(
            random_triple(rng, pool), random_triple(rng, pool),
            [Component(RationalMap.identity(), f, rng.randint(1, 3))],
        )
        ok = ok and cycle_from_json(cycle_to_json(cycle)) == cycle
        y = random_effective(rng, pool)
        o = IYObject(y=y, z=random_effective(rng, [p for p in pool if p not in y.support()]))
        ok = ok and iy_from_json(iy_to_json(o)) == o
        mo = MlogObject(
            boundary_div=random_effective(rng, pool, max_mult=1),
            modulus_div=random_effective(rng, pool),
        )
        ok = ok and mlog_from_json(mlog_to_json(mo)) == mo
        ne = NePair(infinity=random_signed(rng, pool))
        ok = ok and ne_from_json(ne_to_json(ne)) == ne
        pair = ModulusPair(CurveSpace.proper(), random_effective(rng, pool))
        ok = ok and pair_from_json(pair_to_json(pair)) == pair
        space = t.total
        ok = ok and space_from_json(space_to_json(space)) == space
        rec.check(ok, {"divisor": divisor_to_text(d), "triple": triple_to_json(t)})


SUITES: dict[str, Callable[[random.Random, SuiteConfig, Recorder], None]] = {
    "key-lem": suite_key_lem,
    "separation": suite_separation,
    "kernel": suite_kernel,
    "composition": suite_composition,
    "associativity": suite_associativity,
    "minus-transfer": suite_minus_transfer,
    "fixtures": suite_fixtures,
    "bridges": suite_bridges,
    "saturation": suite_saturation,
    "compactify": suite_compactify,
    "adjunctions": suite_adjunctions,
    "proper-image": suite_proper_image,
    "equal-modulus": suite_equal_modulus,
    "positions": suite_positions,
    "roundtrip": suite_roundtrip,
}


def run_suite(config: SuiteConfig) -> Report:
    """Run the configured suites deterministically from the seed."""
    started = time.perf_counter()
    report = Report(config=config)
    for name in config.resolved_suites():
        rng = random.Random(f"{config.seed}:{name}")
        recorder = Recorder(name)
        SUITES[name](rng, config, recorder)
        report.records.extend(recorder.records)
    report.elapsed_s = round(time.perf_counter() - started, 6)
    return report
