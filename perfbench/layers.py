"""The traced functions of each engine layer and the per-layer metrics derived from them.

Every metric name starts with its layer: ``ratpoly.factor.deg_ge32.self_s``.
``.calls`` counts spans and ``.self_s`` sums their self time in seconds.
"""

from __future__ import annotations

FUNCTIONS = {
    "ratpoly": ("factor", "is_irreducible", "poly_gcd", "squarefree_decomposition", "resultant"),
    "divisors": ("fiber_data", "pullback_divisor", "pushforward_divisor", "point_image",
                 "min_divisor", "preimage_locus", "PullbackComparison.effective",
                 "ClosedPoint.finite", "Divisor.__init__"),
    "triples": ("pullback_triple", "modulus_condition", "separation"),
    "cycles": ("is_admissible", "compose", "position_classify", "reduce_cycle"),
    "functors": ("minimal_compactification_level", "tsm_member", "is_iy_morphism",
                 "is_mlog_morphism", "ne_hom_member"),
    "formats": ("cycle_from_json", "triple_from_json", "parse_divisor", "parse_point",
                "parse_poly", "cycle_to_json", "divisor_to_text"),
    "suites": ("run_suite", "point_pool"),
    "oracles": ("disjoint_after_subtracting", "verify_irreducible"),
    "cli": ("main",),
}
FACTOR_BUCKETS = ("deg_lt8", "deg_8to31", "deg_ge32")


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.replace('__init__', 'init')}"


def _factor_bucket(args) -> str:
    degree = int(args[0].degree)
    return "deg_lt8" if degree < 8 else ("deg_8to31" if degree < 32 else "deg_ge32")


def _factor_observe(tracer, args, result) -> None:
    degree = int(args[0].degree)
    tracer.count(f"factor.degree.{degree}")
    if degree >= 8:
        tracer.count("factor.deg_ge8")
        tracer.count("factor.deg_ge8.irreducible", len(result.factors) == 1)


def targets() -> list[tuple]:
    """(span name, module, attribute path, bucket, observe) for Tracer.install."""
    out = []
    for layer, paths in FUNCTIONS.items():
        for path in paths:
            bucket = observe = None
            if (layer, path) == ("ratpoly", "factor"):
                bucket, observe = _factor_bucket, _factor_observe
            out.append((span_name(layer, path), f"modtriples.{layer}", path, bucket, observe))
    return out


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for layer, paths in FUNCTIONS.items():
        for path in paths:
            base = span_name(layer, path)
            if layer == "suites" and path == "run_suite":
                specs.append((f"{base}.self_s", "s", "lower"))
                continue
            specs += [(f"{base}.calls", "count", "lower"), (f"{base}.self_s", "s", "lower")]
            if (layer, path) == ("ratpoly", "factor"):
                for b in FACTOR_BUCKETS:
                    specs += [(f"{base}.{b}.calls", "count", "lower"), (f"{base}.{b}.self_s", "s", "lower")]
                specs.append((f"{base}.irreducible_ratio", "ratio", "higher"))
        if layer == "divisors":
            specs.append(("divisors.fiber_cache.hit_ratio", "ratio", "higher"))
        if layer == "cycles":
            specs.append(("cycles.is_admissible.per_compose", "ratio", "lower"))
        if layer == "functors":
            specs.append(("functors.min_compactify.stages_per_call", "ratio", "lower"))
        if layer == "suites":
            specs.append(("suites.effective_ratio", "ratio", "higher"))
        if layer == "cli":
            specs += [("cli.interpreter_s", "s", "lower"), ("cli.import_s", "s", "lower")]
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(tracer, extra: dict) -> dict[str, float]:
    """Per-layer metric values from a finished traced pass.

    ``extra`` supplies what spans cannot: the fiber-cache counters, the
    suite records, the CLI start-up probes and the tracing overhead.
    """
    totals = tracer.totals()
    values: dict[str, float] = {}
    for layer, paths in FUNCTIONS.items():
        for path in paths:
            base = span_name(layer, path)
            if (layer, path) == ("ratpoly", "factor"):
                parts = [totals.get(f"{base}.{b}", (0, 0.0)) for b in FACTOR_BUCKETS]
                for b, (calls, self_s) in zip(FACTOR_BUCKETS, parts):
                    values[f"{base}.{b}.calls"] = calls
                    values[f"{base}.{b}.self_s"] = self_s
                calls, self_s = sum(p[0] for p in parts), sum(p[1] for p in parts)
            else:
                calls, self_s = totals.get(base, (0, 0.0))
            if not (layer == "suites" and path == "run_suite"):
                values[f"{base}.calls"] = calls
            values[f"{base}.self_s"] = self_s
    counters = tracer.counters
    values["ratpoly.factor.irreducible_ratio"] = _ratio(
        counters.get("factor.deg_ge8.irreducible", 0), counters.get("factor.deg_ge8", 0))
    hits, misses = extra["fiber_cache"]
    values["divisors.fiber_cache.hit_ratio"] = _ratio(hits, hits + misses)
    values["cycles.is_admissible.per_compose"] = _ratio(
        tracer.calls_under("cycles.is_admissible", "cycles.compose"), totals.get("cycles.compose", (0,))[0])
    values["functors.min_compactify.stages_per_call"] = _ratio(
        tracer.calls_under("cycles.is_admissible", "functors.minimal_compactification_level"),
        totals.get("functors.minimal_compactification_level", (0,))[0])
    values["suites.effective_ratio"] = _ratio(*extra["suite_records"])
    values["cli.interpreter_s"] = extra["interpreter_s"]
    values["cli.import_s"] = extra["import_s"]
    values["trace.overhead_frac"] = extra["overhead_frac"]
    return {name: values[name] for name, _, _ in metric_specs()}


def factor_histogram(tracer) -> dict[int, int]:
    """Calls to ``factor`` by input degree."""
    prefix = "factor.degree."
    return dict(sorted((int(k[len(prefix):]), v) for k, v in tracer.counters.items() if k.startswith(prefix)))
