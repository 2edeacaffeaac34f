"""Command-line interface.

Verbs: ``check`` (admissible, position, class, iy, mlog, ne-hom,
sigma-fin, minimal), ``apply`` (dual, separate, kappa, kappa-inv,
mlog-kappa, mlog-kappa-inv, ne-embed, g, p, q, s, lambda,
pullback-triple, shift), ``compose``, ``min-compactify`` and ``suite``.

Exit codes: 0 affirmative or success, 1 negative verdict, 2 error or
unsupported input.  ``--json`` prints the machine-readable report; file
arguments accept ``-`` for standard input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import formats
from .cycles import compose, is_admissible, morphism_flags, position_classify
from .errors import SymbolicError
from .functors import (
    g_shrink,
    is_iy_morphism,
    is_mlog_morphism,
    iy_to_triple,
    lambda_embed,
    minimal_compactification_level,
    mlog_to_triple,
    ne_embed,
    ne_hom_member,
    p_left,
    q_right,
    separation_adjoint,
    triple_to_iy,
    triple_to_mlog,
)
from .suites import SuiteConfig, run_suite
from .triples import classify, dual, pullback_triple, separation, shift_morphism


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load(path: str, kind: str):
    return formats.parse_input(_read(path), kind)


def _report(identifier: str, inputs: dict, verdict: str, payload: dict, started: float) -> dict:
    return {
        "schema": 1,
        "records": [
            {
                "id": identifier,
                "inputs": inputs,
                "verdict": verdict,
                "counterexample": None,
                **payload,
            }
        ],
        "summary": {
            "total": 1,
            "passed": 1 if verdict != "fail" else 0,
            "failed": 0 if verdict != "fail" else 1,
        },
        "elapsed_s": round(time.perf_counter() - started, 6),
    }


def _emit(args, report: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(human)


def _cycle_with_overrides(args):
    cycle = _load(args.cycle, "cycle")
    source = _load(args.source, "triple") if getattr(args, "source", None) else cycle.source
    target = _load(args.target, "triple") if getattr(args, "target", None) else cycle.target
    return cycle.with_ends(source, target)


# ---------------------------------------------------------------------------
# check verbs
# ---------------------------------------------------------------------------


def _check_admissible(args, started) -> int:
    cycle = _cycle_with_overrides(args)
    report = is_admissible(cycle)
    verdict = "yes" if report.ok else "no"
    payload = {
        "components": [
            {"proper_over_source": v.proper_over_source, "modulus": v.modulus}
            for v in report.verdicts
        ]
    }
    _emit(args, _report("check admissible", formats.cycle_to_json(cycle), verdict, payload, started),
          f"admissible: {verdict}")
    return 0 if report.ok else 1


def _check_position(args, started) -> int:
    cycle = _cycle_with_overrides(args)
    verdicts = position_classify(cycle)
    payload = {
        "components": [
            {"bad": v.bad, "very_good": v.very_good, "excellent": v.excellent}
            for v in verdicts
        ]
    }
    good = all(not v.bad for v in verdicts)
    _emit(args, _report("check position", formats.cycle_to_json(cycle),
                        "yes" if good else "no", payload, started),
          "\n".join(
              f"component {i}: bad={v.bad} very_good={v.very_good} excellent={v.excellent}"
              for i, v in enumerate(verdicts)
          ) or "zero cycle")
    return 0 if good else 1


def _check_class(args, started) -> int:
    triple = _load(args.triple, "triple")
    flags = classify(triple)
    payload = {"class": {
        "disjoint": flags.disjoint, "saturated": flags.saturated,
        "min_class": flags.min_class, "man_class": flags.man_class,
        "proper": flags.proper, "coadmissible": flags.coadmissible,
        "modulus_pair": flags.modulus_pair,
    }}
    _emit(args, _report("check class", formats.triple_to_json(triple), "ok", payload, started),
          " ".join(f"{k}={v}" for k, v in payload["class"].items()))
    return 0


def _check_iy(args, started) -> int:
    f = _load(args.map, "map")
    o1 = _load(args.from_obj, "iy")
    o2 = _load(args.to_obj, "iy")
    ok = is_iy_morphism(f, o1, o2)
    _emit(args, _report("check iy", {"map": formats.map_to_json(f)},
                        "yes" if ok else "no", {}, started),
          f"morphism: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _check_mlog(args, started) -> int:
    f = _load(args.map, "map")
    o1 = _load(args.from_obj, "mlog")
    o2 = _load(args.to_obj, "mlog")
    ok = is_mlog_morphism(f, o1, o2)
    _emit(args, _report("check mlog", {"map": formats.map_to_json(f)},
                        "yes" if ok else "no", {}, started),
          f"morphism: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _check_ne_hom(args, started) -> int:
    cycle = _load(args.cycle, "cycle")
    x = _load(args.from_obj, "ne")
    y = _load(args.to_obj, "ne")
    ok = ne_hom_member(cycle, x, y)
    _emit(args, _report("check ne-hom", formats.cycle_to_json(cycle),
                        "yes" if ok else "no", {}, started),
          f"member: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _check_flag(args, started, flag: str) -> int:
    cycle = _cycle_with_overrides(args)
    flags = morphism_flags(cycle)
    ok = getattr(flags, flag)
    payload = {"flags": {
        "dominant": flags.dominant, "minimal": flags.minimal, "finite": flags.finite,
        "finite_over_target": flags.finite_over_target, "sigma_fin": flags.sigma_fin,
    }}
    _emit(args, _report(f"check {flag}", formats.cycle_to_json(cycle),
                        "yes" if ok else "no", payload, started),
          f"{flag}: {'yes' if ok else 'no'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# apply verbs
# ---------------------------------------------------------------------------


def _apply(args, started) -> int:
    verb = args.operation
    if verb == "dual":
        out = formats.triple_to_json(dual(_load(args.triple, "triple")))
    elif verb == "separate":
        sep, fund = separation(_load(args.triple, "triple"))
        out = {"triple": formats.triple_to_json(sep), "fundamental": formats.divisor_to_text(fund)}
    elif verb == "kappa":
        out = formats.triple_to_json(iy_to_triple(_load(args.iy, "iy")))
    elif verb == "kappa-inv":
        out = formats.iy_to_json(triple_to_iy(_load(args.triple, "triple")))
    elif verb == "mlog-kappa":
        out = formats.triple_to_json(mlog_to_triple(_load(args.mlog, "mlog")))
    elif verb == "mlog-kappa-inv":
        out = formats.mlog_to_json(triple_to_mlog(_load(args.triple, "triple")))
    elif verb == "ne-embed":
        out = formats.triple_to_json(ne_embed(_load(args.ne, "ne")))
    elif verb == "g":
        out = formats.triple_to_json(g_shrink(_load(args.triple, "triple")))
    elif verb == "p":
        out = formats.triple_sum_to_json(p_left(_load(args.triples, "triples")))
    elif verb == "q":
        out = formats.pair_to_json(q_right(_load(args.triple, "triple")))
    elif verb == "s":
        out = formats.triple_to_json(separation_adjoint(_load(args.triple, "triple")))
    elif verb == "lambda":
        out = formats.triple_to_json(lambda_embed(_load(args.space, "space")))
    elif verb == "pullback-triple":
        out = formats.triple_to_json(
            pullback_triple(_load(args.map, "map"), _load(args.triple, "triple"))
        )
    elif verb == "shift":
        morphism = shift_morphism(
            _load(args.triple, "triple"), formats.parse_divisor(args.divisor)
        )
        out = {
            "source": formats.triple_to_json(morphism.source),
            "target": formats.triple_to_json(morphism.target),
            "is_iso": morphism.is_iso,
            "cycle": formats.cycle_to_json(morphism.cycle),
        }
    else:  # pragma: no cover - argparse restricts the choices
        raise SymbolicError(f"unknown apply operation {verb!r}")
    if getattr(args, "json", False):
        _emit(args, _report(f"apply {verb}", {}, "ok", {"result": out}, started), "")
    else:
        print(json.dumps(out, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# compose, min-compactify, suite
# ---------------------------------------------------------------------------


def _compose(args, started) -> int:
    first = _load(args.first, "cycle")
    second = _load(args.second, "cycle")
    result = compose(first, second)
    out = formats.cycle_to_json(result)
    if getattr(args, "json", False):
        _emit(args, _report("compose", {}, "ok", {"result": out}, started), "")
    else:
        print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _min_compactify(args, started) -> int:
    cycle = _cycle_with_overrides(args)
    level = minimal_compactification_level(cycle.source, cycle.target, cycle)
    _emit(args, _report("min-compactify", formats.cycle_to_json(cycle), "ok",
                        {"level": level}, started),
          f"n = {level}")
    return 0


def _suite(args, started) -> int:
    names = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    config = SuiteConfig(
        seed=args.seed,
        samples=args.samples,
        degree_bound=args.degree_bound,
        height_bound=args.height_bound,
        suites=names or ("all",),
    )
    report = run_suite(config)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        summary = report.summary()
        print(f"checks: {summary['total']}  passed: {summary['passed']}  "
              f"failed: {summary['failed']}  ({report.elapsed_s:.2f}s)")
        for record in report.records:
            if record["verdict"] == "fail":
                print(f"FAIL {record['id']}: {json.dumps(record['counterexample'], sort_keys=True)}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit the machine-readable report")


@functools.cache  # parsing leaves the tree unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modtriples", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a predicate")
    check_sub = check.add_subparsers(dest="predicate", required=True)
    for name in ("admissible", "position", "sigma-fin", "minimal"):
        p = check_sub.add_parser(name)
        p.add_argument("--cycle", required=True)
        p.add_argument("--source")
        p.add_argument("--target")
        _add_json(p)
    p = check_sub.add_parser("class")
    p.add_argument("--triple", required=True)
    _add_json(p)
    for name, kind in (("iy", "map"), ("mlog", "map"), ("ne-hom", "cycle")):
        p = check_sub.add_parser(name)
        p.add_argument("--map" if kind == "map" else "--cycle", required=True)
        p.add_argument("--from", dest="from_obj", required=True)
        p.add_argument("--to", dest="to_obj", required=True)
        _add_json(p)

    apply_p = sub.add_parser("apply", help="apply a functor or construction")
    apply_sub = apply_p.add_subparsers(dest="operation", required=True)
    needs_triple = ("dual", "separate", "kappa-inv", "mlog-kappa-inv", "g", "q", "s")
    for name in needs_triple:
        p = apply_sub.add_parser(name)
        p.add_argument("--triple", required=True)
        _add_json(p)
    p = apply_sub.add_parser("kappa")
    p.add_argument("--iy", required=True)
    _add_json(p)
    p = apply_sub.add_parser("mlog-kappa")
    p.add_argument("--mlog", required=True)
    _add_json(p)
    p = apply_sub.add_parser("ne-embed")
    p.add_argument("--ne", required=True)
    _add_json(p)
    p = apply_sub.add_parser("p")
    p.add_argument("--triples", required=True)
    _add_json(p)
    p = apply_sub.add_parser("lambda")
    p.add_argument("--space", required=True)
    _add_json(p)
    p = apply_sub.add_parser("pullback-triple")
    p.add_argument("--map", required=True)
    p.add_argument("--triple", required=True)
    _add_json(p)
    p = apply_sub.add_parser("shift")
    p.add_argument("--triple", required=True)
    p.add_argument("--divisor", required=True, help="inline effective divisor text")
    _add_json(p)

    p = sub.add_parser("compose", help="compose two cycles")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    _add_json(p)

    p = sub.add_parser("min-compactify", help="least compactification level")
    p.add_argument("--cycle", required=True)
    p.add_argument("--source")
    p.add_argument("--target")
    _add_json(p)

    p = sub.add_parser("suite", help="run randomized property suites")
    p.add_argument("--suites", default="all", help="comma-separated suite names or 'all'")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree-bound", type=int, default=4)
    p.add_argument("--height-bound", type=int, default=10)
    _add_json(p)

    return parser


_CHECKS = {
    "admissible": _check_admissible,
    "position": _check_position,
    "class": _check_class,
    "iy": _check_iy,
    "mlog": _check_mlog,
    "ne-hom": _check_ne_hom,
    "sigma-fin": lambda args, started: _check_flag(args, started, "sigma_fin"),
    "minimal": lambda args, started: _check_flag(args, started, "minimal"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "check":
            return _CHECKS[args.predicate](args, started)
        if args.command == "apply":
            return _apply(args, started)
        if args.command == "compose":
            return _compose(args, started)
        if args.command == "min-compactify":
            return _min_compactify(args, started)
        if args.command == "suite":
            return _suite(args, started)
    except SymbolicError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(args, "json", False):
            print(json.dumps({"schema": 1, "records": [], "summary": None, **error},
                             sort_keys=True, indent=2))
        else:
            print(f"error: {error['error']}: {error['message']}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    raise SystemExit(main())
