"""Seeded inputs for every workload, each with the answer known from how it was built.

Nothing here asks the engine for a verdict.  The engine's generators
(``pullback_triple``, ``admissible_pair``) build some inputs, and the
expected answer then follows from the construction:

* a graph from a pullback-minimal source, or from one of its
  perturbations (more plus, or the same divisor added to both parts),
  is admissible and in excellent position;
* a source with zero plus part mapped by a nonconstant graph into a
  target whose plus part is nonzero and disjoint from its minus part is
  not admissible: at the points over the target's plus part the right
  side is positive and the left side is zero;
* a component collapsing onto a point of the target's minus part inside
  its interior is bad, and neither very good nor excellent;
* ``f = c + (x - r)^k / d`` with ``deg d = k`` and ``d(r) != 0`` pulls
  ``m*P(c)`` back to exactly ``k*m*P(r)``, so from an open source with
  boundary ``{r}`` the least compactification level is ``max(1, k*m)``;
* class flags and separation follow from the multiplicity tables.

Everything is drawn from ``random.Random`` seeded with a string, so the
corpus is byte-identical across processes and hash seeds.
"""

from __future__ import annotations

import json
import math
import random

from modtriples import graph_cycle, pullback_triple, suites
from modtriples.formats import cycle_to_json

# Associativity takes one request in seven: its per-sample cost is so
# heavy-tailed that at one in four it set the chain mix's 90th percentile,
# which then moved by a quarter from seed to seed.
SUITE_CHAINS = ("associativity", "composition", "minus-transfer", "positions",
                "composition", "minus-transfer", "positions")
SUITE_LIGHT = (
    "key-lem", "separation", "kernel", "bridges", "saturation",
    "compactify", "adjunctions", "proper-image", "equal-modulus", "roundtrip",
)
# Associativity composes three maps, so its fiber degrees grow as the cube of
# the degree bound: at bound 4 single samples reach 2.5 s and the top 5% of
# samples take 40% of the time, which no 25 s run averages out.
CHAIN_DEGREE_BOUND = {"associativity": 3}
CHAIN_SAMPLES = 1
LIGHT_SAMPLES = 5
HEIGHT_BOUND = 10

MAX_LEVEL = 2000
GOLDEN = (5**0.5 - 1) / 2

# Closed points with known irreducible minimal polynomials: degree one,
# x^2 + 1 and friends, and Eisenstein polynomials up to degree 8.  Each
# entry: (canonical text the engine emits, input spellings).
POINTS = (
    ("P(inf)", ("P(inf)",)),
    ("P(x)", ("P(0)", "P(x)", "P(3*x)")),
    ("P(x - 1)", ("P(1)", "P(x-1)", "P(2*x - 2)")),
    ("P(x + 1)", ("P(-1)", "P(x+1)")),
    ("P(x - 2)", ("P(2)", "P(x - 2)")),
    ("P(x + 3)", ("P(-3)", "P(x+3)")),
    ("P(x - 1/2)", ("P(1/2)", "P(2*x - 1)")),
    ("P(x^2 + 1)", ("P(x^2+1)", "P(2*x^2 + 2)")),
    ("P(x^2 - 2)", ("P(x^2-2)", "P(x^2 - 2)")),
    ("P(x^2 + x + 1)", ("P(x^2+x+1)", "P((x+1)^2 - x)")),
    ("P(x^3 - 2)", ("P(x^3-2)", "P(x*x*x - 2)")),
    ("P(x^4 + 2)", ("P(x^4+2)",)),
    ("P(x^5 - 3*x + 3)", ("P(x^5 - 3*x + 3)",)),
    ("P(x^6 + 2*x + 2)", ("P(x^6+2*x+2)", "P(1/2*x^6 + x + 1)")),
    ("P(x^7 - 5)", ("P(x^7 - 5)",)),
    ("P(x^8 + 3*x^2 + 3)", ("P(x^8 + 3*x^2 + 3)",)),
)
RATIONAL_VALUES = {"P(x)": 0, "P(x - 1)": 1, "P(x + 1)": -1, "P(x - 2)": 2, "P(x + 3)": -3}

# Decide kinds in one stratum ("block"), besides its min-compactify requests.
BLOCK = (
    "admissible-minimal", "admissible-perturbed", "admissible-negative",
    "position-excellent", "position-bad", "compose", "check-class", "apply-separate",
)
VERB = {
    "admissible-minimal": "check-admissible", "admissible-perturbed": "check-admissible",
    "admissible-negative": "check-admissible", "position-excellent": "check-position",
    "position-bad": "check-position", "compose": "compose", "min-compactify": "min-compactify",
    "check-class": "check-class", "apply-separate": "apply-separate",
}
MALFORMED = (
    "truncated-json", "reducible-point", "unbalanced-parens", "zero-denominator",
    "unknown-kind", "boundary-support", "negative-plus", "compose-mismatch",
    "compactify-proper", "compactify-not-admissible",
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# suite requests
# ---------------------------------------------------------------------------


def suite_requests(workload: str, seed: int, count: int) -> list[dict]:
    """Round-robin over the workload's suite list, each request with its own seed."""
    rng = rng_for(workload, seed)
    names = SUITE_CHAINS if workload == "suite-chains" else SUITE_LIGHT
    samples = CHAIN_SAMPLES if workload == "suite-chains" else LIGHT_SAMPLES
    out = []
    for i in range(count):
        name = names[i % len(names)]
        out.append({
            "kind": "suite",
            "suite": name,
            "seed": rng.randrange(2**32),
            "samples": samples,
            "degree_bound": CHAIN_DEGREE_BOUND.get(name, 4),
            "height_bound": HEIGHT_BOUND,
        })
    return out


# ---------------------------------------------------------------------------
# polynomial text with integer coefficients, lowest degree first
# ---------------------------------------------------------------------------


def poly_text(coeffs: list[int]) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = abs(c)
        xpow = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(mag) if not xpow else (xpow if mag == 1 else f"{mag}*{xpow}")
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) or "0"


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _padd(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _peval(a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _random_int_poly(rng: random.Random, degree: int, height: int) -> list[int]:
    coeffs = [rng.randint(-height, height) for _ in range(degree)]
    return coeffs + [rng.choice([-1, 1]) * rng.randint(1, height)]


# ---------------------------------------------------------------------------
# divisors over the fixed point pool
# ---------------------------------------------------------------------------


def _spell(rng: random.Random, canonical: str) -> str:
    for text, spellings in POINTS:
        if text == canonical:
            return rng.choice(spellings)
    raise KeyError(canonical)


def _random_mults(rng: random.Random, pool: list[str], max_points: int, max_mult: int) -> dict:
    k = rng.randint(0, min(max_points, len(pool)))
    return {p: rng.randint(1, max_mult) for p in rng.sample(pool, k)}


def divisor_text(rng: random.Random, mults: dict) -> str:
    if not mults:
        return "0"
    items = list(mults.items())
    rng.shuffle(items)
    return " + ".join(f"{m}*{_spell(rng, p)}" for p, m in items)


def _triple_json(rng, plus: dict, minus: dict, boundary: tuple = ()) -> dict:
    total = {"kind": "proper"}
    if boundary:
        total = {"kind": "open", "boundary": [_spell(rng, p) for p in boundary]}
    return {"total": total, "plus": divisor_text(rng, plus), "minus": divisor_text(rng, minus)}


def class_flags(plus: dict, minus: dict, proper: bool) -> dict:
    """The classification of (total, plus, minus), read off the tables."""
    pts = set(plus) | set(minus)
    reduced = {p: 1 for p in plus}
    fund = {p: min(plus[p], minus[p]) for p in plus if p in minus}
    residue = {p: minus.get(p, 0) - reduced.get(p, 0) for p in pts}
    return {
        "disjoint": not (set(plus) & set(minus)),
        "saturated": {p for p in pts if plus.get(p, 0) != minus.get(p, 0)} == set(plus),
        "min_class": reduced == fund and not any(residue[p] for p in plus),
        "man_class": all(m == 1 for m in plus.values())
        and all(minus.get(p, 0) >= plus.get(p, 0) for p in pts),
        "proper": proper,
        "coadmissible": not plus,
        "modulus_pair": not minus,
    }


# ---------------------------------------------------------------------------
# decide requests
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cfg = suites.SuiteConfig(degree_bound=4, height_bound=HEIGHT_BOUND)
        self.pool = suites.point_pool()
        self.names = [p for p, _ in POINTS]

    def _minimal_graph(self, perturb: bool):
        target = suites.random_triple(self.rng, self.pool)
        f = suites.random_map(self.rng, self.cfg.degree_bound, self.cfg.height_bound)
        source = pullback_triple(f, target)
        if perturb:
            source = suites.perturb_source(self.rng, source, self.pool)
        return graph_cycle(f, source, target)

    def admissible(self, perturb: bool) -> dict:
        cycle = self._minimal_graph(perturb)
        return {"inputs": {"cycle": _dump(cycle_to_json(cycle))}, "expect": {"verdict": "yes"}}

    def admissible_negative(self) -> dict:
        rng = self.rng
        plus_pool = rng.sample(self.names, rng.randint(1, 3))
        rest = [p for p in self.names if p not in plus_pool]
        t_plus = {p: rng.randint(1, 3) for p in plus_pool}
        t_minus = _random_mults(rng, rest, 2, 3)
        s_minus = _random_mults(rng, self.names, 2, 3)
        deg = rng.randint(1, 4)
        num = _random_int_poly(rng, deg, HEIGHT_BOUND)
        den = _random_int_poly(rng, rng.randint(0, deg - 1), HEIGHT_BOUND)
        cycle = {
            "source": _triple_json(rng, {}, s_minus),
            "target": _triple_json(rng, t_plus, t_minus),
            "components": [{"a": {"num": "x"}, "b": {"num": poly_text(num), "den": poly_text(den)},
                            "mult": 1}],
        }
        return {"inputs": {"cycle": _dump(cycle)}, "expect": {"verdict": "no"}}

    def position_excellent(self) -> dict:
        cycle = self._minimal_graph(perturb=self.rng.random() < 0.5)
        return {"inputs": {"cycle": _dump(cycle_to_json(cycle))},
                "expect": {"verdict": "yes", "components": [
                    {"bad": False, "very_good": True, "excellent": True}]}}

    def position_bad(self) -> dict:
        rng = self.rng
        c = rng.choice(sorted(RATIONAL_VALUES))
        others = [p for p in self.names if p != c]
        t_plus = _random_mults(rng, others, 2, 3)
        t_minus = {c: rng.randint(1, 3)}
        t_minus.update(_random_mults(rng, [p for p in others if p not in t_plus], 1, 2))
        cycle = {
            "source": _triple_json(rng, _random_mults(rng, self.names, 2, 3),
                                   _random_mults(rng, self.names, 2, 3)),
            "target": _triple_json(rng, t_plus, t_minus),
            "components": [{"a": {"num": "x"}, "b": {"const": _spell(rng, c)}, "mult": 1}],
        }
        return {"inputs": {"cycle": _dump(cycle)},
                "expect": {"verdict": "no", "components": [
                    {"bad": True, "very_good": False, "excellent": False}]}}

    def compose(self) -> dict:
        alpha, beta = suites.admissible_pair(self.rng, self.cfg)
        a, b = cycle_to_json(alpha), cycle_to_json(beta)
        return {"inputs": {"first": _dump(a), "second": _dump(b)},
                "expect": {"source": a["source"], "target": b["target"],
                           "legs": [a["components"][0]["a"], a["components"][0]["b"]],
                           "outer": b["components"][0]["b"],
                           "mult": a["components"][0]["mult"] * b["components"][0]["mult"]}}

    def min_compactify(self, level: int, k: int) -> dict:
        rng = self.rng
        r, c, shifted, junk, t_minus = rng.sample(sorted(RATIONAL_VALUES), 5)
        m = max(1, round(level / k))
        rv, cv = RATIONAL_VALUES[r], RATIONAL_VALUES[c]
        while True:
            d = _random_int_poly(rng, k, HEIGHT_BOUND)
            if _peval(d, rv):
                break
        root_power = [1]  # (x - r)^k
        for _ in range(k):
            root_power = _pmul(root_power, [-rv, 1])
        num = _padd([cv * v for v in d], root_power)
        # One shifted point, one extra plus point and one target minus point,
        # all rational: every stage then costs about the same for a given
        # k, so the level and k set the cost of a request.
        shift = rng.randint(1, 2)
        plus = {shifted: shift + rng.randint(0, 1), junk: rng.randint(1, 3)}
        cycle = {
            "source": _triple_json(rng, plus, {shifted: shift}, boundary=(r,)),
            "target": _triple_json(rng, {c: m}, {t_minus: rng.randint(1, 3)}),
            "components": [{"a": {"num": "x"}, "b": {"num": poly_text(num), "den": poly_text(d)},
                            "mult": 1}],
        }
        return {"inputs": {"cycle": _dump(cycle)}, "expect": {"level": max(1, k * m)}}

    def _tables(self):
        rng = self.rng
        plus = _random_mults(rng, self.names, 3, 3)
        minus = _random_mults(rng, self.names, 3, 3)
        free = [p for p in self.names if p not in plus and p not in minus]
        boundary = tuple(rng.sample(free, 1)) if free and rng.random() < 0.3 else ()
        return plus, minus, boundary

    def check_class(self) -> dict:
        plus, minus, boundary = self._tables()
        triple = _triple_json(self.rng, plus, minus, boundary)
        return {"inputs": {"triple": _dump(triple)},
                "expect": {"class": class_flags(plus, minus, not boundary)}}

    def apply_separate(self) -> dict:
        plus, minus, boundary = self._tables()
        triple = _triple_json(self.rng, plus, minus, boundary)
        fund = {p: min(plus[p], minus[p]) for p in plus if p in minus}
        return {"inputs": {"triple": _dump(triple)},
                "expect": {"plus": {p: m - fund.get(p, 0) for p, m in plus.items() if m > fund.get(p, 0)},
                           "minus": {p: m - fund.get(p, 0) for p, m in minus.items() if m > fund.get(p, 0)},
                           "fundamental": fund, "boundary": list(boundary)}}

    def build(self, kind: str, level: int = 0, k: int = 0) -> dict:
        if kind == "admissible-minimal":
            req = self.admissible(perturb=False)
        elif kind == "admissible-perturbed":
            req = self.admissible(perturb=True)
        elif kind == "admissible-negative":
            req = self.admissible_negative()
        elif kind == "position-excellent":
            req = self.position_excellent()
        elif kind == "position-bad":
            req = self.position_bad()
        elif kind == "compose":
            req = self.compose()
        elif kind == "min-compactify":
            req = self.min_compactify(level, k)
        elif kind == "check-class":
            req = self.check_class()
        else:
            req = self.apply_separate()
        return {"kind": kind, "verb": VERB[kind], **req}

    def malformed(self, kind: str) -> dict:
        rng = self.rng
        if kind == "truncated-json":
            text = self.admissible_negative()["inputs"]["cycle"]
            return {"verb": "check-admissible", "inputs": {"cycle": text[: rng.randrange(1, len(text) - 1)]}}
        if kind == "reducible-point":
            a, b = rng.sample(range(-9, 10), 2)
            poly = poly_text(_pmul([-a, 1], [-b, 1]))
            return {"verb": "check-class",
                    "inputs": {"triple": _dump({"plus": f"1*P({poly})", "minus": "0"})}}
        if kind == "unbalanced-parens":
            return {"verb": "check-class",
                    "inputs": {"triple": _dump({"plus": "2*P(x^2+1", "minus": "0"})}}
        if kind == "zero-denominator":
            return {"verb": "check-class",
                    "inputs": {"triple": _dump({"plus": f"1*P({rng.randint(1, 9)}/0)", "minus": "0"})}}
        if kind == "unknown-kind":
            return {"verb": "check-class",
                    "inputs": {"triple": _dump({"total": {"kind": "affine"}, "plus": "0"})}}
        if kind == "boundary-support":
            return {"verb": "check-class", "inputs": {"triple": _dump(
                {"total": {"kind": "open", "boundary": ["P(0)"]}, "plus": "1*P(x)", "minus": "0"})}}
        if kind == "negative-plus":
            return {"verb": "check-class",
                    "inputs": {"triple": _dump({"plus": "-1*P(inf)", "minus": "0"})}}
        if kind == "compose-mismatch":
            first = self.admissible_negative()["inputs"]["cycle"]
            return {"verb": "compose", "inputs": {"first": first, "second": first}}
        if kind == "compactify-proper":
            return {"verb": "min-compactify",
                    "inputs": {"cycle": self.admissible(perturb=False)["inputs"]["cycle"]}}
        # f*P(0) is the finite point x^2 + c, which the open source keeps,
        # so the candidate is not admissible even before compactifying
        cycle = {
            "source": {"total": {"kind": "open", "boundary": ["P(inf)"]}, "plus": "0", "minus": "0"},
            "target": {"total": {"kind": "proper"}, "plus": "1*P(0)", "minus": "0"},
            "components": [{"a": {"num": "x"}, "b": {"num": f"x^2 + {rng.randint(1, 9)}"}, "mult": 1}],
        }
        return {"verb": "min-compactify", "inputs": {"cycle": _dump(cycle)}}


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True)


def _strata(rng: random.Random, n: int, log_levels: bool) -> list[tuple[int, int]]:
    """n (level, map degree) pairs: levels in [1, MAX_LEVEL], one per
    stratum, uniform or log-uniform, with map degrees 1-4 taking turns over
    the strata.

    They come in golden-ratio order, so that every prefix spreads over the
    whole range of levels: a run can stop partway through a pass.
    """
    def level(u: float) -> int:
        value = math.exp(math.log(MAX_LEVEL) * u) if log_levels else 1 + (MAX_LEVEL - 1) * u
        return max(1, min(MAX_LEVEL, round(value)))

    strata = [(level((i + rng.random()) / n), 1 + i % 4) for i in range(n)]
    return [strata[i] for i in sorted(range(n), key=lambda i: (i * GOLDEN) % 1.0)]


def decide_requests(workload: str, seed: int, blocks: int, compactify_per_block: int,
                    log_levels: bool, malformed_per_block: int = 0) -> list[dict]:
    """Blocks of one request per decide kind, min-compactify requests and
    malformed CLI inputs, shuffled within each block.

    The compactify levels are stratified over all blocks, so their cost,
    which grows with the level, varies little between seeds or between
    prefixes of the list.
    """
    rng = rng_for(workload, seed)
    builder = _Builder(rng)
    strata = _strata(rng, blocks * compactify_per_block, log_levels)
    out = []
    for b in range(blocks):
        block = [builder.build(kind) for kind in BLOCK]
        for level, k in strata[b * compactify_per_block:(b + 1) * compactify_per_block]:
            block.append(builder.build("min-compactify", level, k))
        for _ in range(malformed_per_block):
            bad = builder.malformed(rng.choice(MALFORMED))
            block.append({"kind": "malformed", **bad, "expect": {"exit": 2}})
        rng.shuffle(block)
        out.extend(block)
    return out


def known_defect_requests() -> list[dict]:
    """Malformed inputs that the exit-code contract says end in 2, but that
    end in 1 with a traceback at the seed commit; run apart and reported."""
    box = {"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "0"}
    zero_mult = {"source": box, "target": box,
                 "components": [{"a": {"num": "x"}, "b": {"num": "x"}, "mult": 0}]}
    deep = "(" * 3000 + "x" + ")" * 3000
    return [
        {"kind": "known-defect", "name": "zero-multiplicity", "verb": "check-admissible",
         "inputs": {"cycle": _dump(zero_mult)}, "expect": {"exit": 2}},
        {"kind": "known-defect", "name": "deep-nesting", "verb": "check-class",
         "inputs": {"triple": _dump({"plus": f"1*P({deep})", "minus": "0"})}, "expect": {"exit": 2}},
    ]
