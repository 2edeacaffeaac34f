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
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from . import formats
from .cycles import compose, is_admissible, morphism_flags, position_classify
from .errors import SymbolicError
from .triples import classify, dual, pullback_triple, separation, shift_morphism


def _read(flag: str, path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    if not path:  # Path("") is the working directory
        raise OSError(f"the path given to {flag} is empty")
    return Path(path).read_text(encoding="utf-8")


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


# ---------------------------------------------------------------------------
# verb handlers: each takes its verb's inputs in flag order and returns
# (report inputs, verdict, payload, human text); the verdict "no" exits 1
# ---------------------------------------------------------------------------


def _functors():
    """The functors module, imported on the first call of a verb that needs it."""
    from . import functors

    return functors


def _yes(ok: bool) -> str:
    return "yes" if ok else "no"


def _words(flags: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in flags.items())


def _admissible(cycle):
    report = is_admissible(cycle)
    components = [{"proper_over_source": v.proper_over_source, "modulus": v.modulus} for v in report.verdicts]
    verdict = _yes(report.ok)
    return formats.cycle_to_json(cycle), verdict, {"components": components}, f"admissible: {verdict}"


def _position(cycle):
    components = [{"bad": v.bad, "very_good": v.very_good, "excellent": v.excellent}
                  for v in position_classify(cycle)]
    human = "\n".join(f"component {i}: {_words(c)}" for i, c in enumerate(components)) or "zero cycle"
    good = not any(c["bad"] for c in components)
    return formats.cycle_to_json(cycle), _yes(good), {"components": components}, human


def _class(triple):
    flags = dataclasses.asdict(classify(triple))
    return formats.triple_to_json(triple), "ok", {"class": flags}, _words(flags)


def _flag(cycle, name: str):
    flags = dataclasses.asdict(morphism_flags(cycle))
    return formats.cycle_to_json(cycle), _yes(flags[name]), {"flags": flags}, f"{name}: {_yes(flags[name])}"


def _morphism(f, ok: bool):
    return {"map": formats.map_to_json(f)}, _yes(ok), {}, f"morphism: {_yes(ok)}"


def _member(cycle, ok: bool):
    return formats.cycle_to_json(cycle), _yes(ok), {}, f"member: {_yes(ok)}"


def _result(out):
    return {}, "ok", {"result": out}, json.dumps(out, sort_keys=True, indent=2)


def _separate(triple):
    sep, fund = separation(triple)
    return _result({"triple": formats.triple_to_json(sep), "fundamental": formats.divisor_to_text(fund)})


def _shift(triple, divisor):
    morphism = shift_morphism(triple, divisor)
    return _result({
        "source": formats.triple_to_json(morphism.source),
        "target": formats.triple_to_json(morphism.target),
        "is_iso": morphism.is_iso,
        "cycle": formats.cycle_to_json(morphism.cycle),
    })


def _min_compactify(cycle):
    level = _functors().minimal_compactification_level(cycle.source, cycle.target, cycle)
    return formats.cycle_to_json(cycle), "ok", {"level": level}, f"n = {level}"


# ---------------------------------------------------------------------------
# the verb table: every verb but suite, with its inputs and its handler
# ---------------------------------------------------------------------------

# Inputs in load order: "flag" reads the file given to --flag as an object of kind
# "flag", "flag=kind" as one of that kind, and a trailing "?" makes the flag optional.
# A divisor is inline text, not a file.  _ENDS is a cycle whose ends --source and
# --target override when given.
_ENDS = "cycle source=triple? target=triple?"

# Handlers call engine functions by name at call time, so a function rebound by name
# (as perfbench's tracer does) is the one run.  The functor verbs reach functors only
# through _functors(), and suite imports suites in _suite, so the other verbs load neither.
_VERBS = {
    "check admissible": (_ENDS, _admissible),
    "check position": (_ENDS, _position),
    "check sigma-fin": (_ENDS, lambda c: _flag(c, "sigma_fin")),
    "check minimal": (_ENDS, lambda c: _flag(c, "minimal")),
    "check class": ("triple", _class),
    "check iy": ("map from=iy to=iy", lambda f, x, y: _morphism(f, _functors().is_iy_morphism(f, x, y))),
    "check mlog": ("map from=mlog to=mlog", lambda f, x, y: _morphism(f, _functors().is_mlog_morphism(f, x, y))),
    "check ne-hom": ("cycle from=ne to=ne", lambda c, x, y: _member(c, _functors().ne_hom_member(c, x, y))),
    "apply dual": ("triple", lambda t: _result(formats.triple_to_json(dual(t)))),
    "apply separate": ("triple", _separate),
    "apply kappa-inv": ("triple", lambda t: _result(formats.iy_to_json(_functors().triple_to_iy(t)))),
    "apply mlog-kappa-inv": ("triple", lambda t: _result(formats.mlog_to_json(_functors().triple_to_mlog(t)))),
    "apply g": ("triple", lambda t: _result(formats.triple_to_json(_functors().g_shrink(t)))),
    "apply q": ("triple", lambda t: _result(formats.pair_to_json(_functors().q_right(t)))),
    "apply s": ("triple", lambda t: _result(formats.triple_to_json(_functors().separation_adjoint(t)))),
    "apply kappa": ("iy", lambda o: _result(formats.triple_to_json(_functors().iy_to_triple(o)))),
    "apply mlog-kappa": ("mlog", lambda o: _result(formats.triple_to_json(_functors().mlog_to_triple(o)))),
    "apply ne-embed": ("ne", lambda x: _result(formats.triple_to_json(_functors().ne_embed(x)))),
    "apply p": ("triples", lambda ts: _result(formats.triple_sum_to_json(_functors().p_left(ts)))),
    "apply lambda": ("space", lambda x: _result(formats.triple_to_json(_functors().lambda_embed(x)))),
    "apply pullback-triple": ("map triple", lambda f, t: _result(formats.triple_to_json(pullback_triple(f, t)))),
    "apply shift": ("triple divisor", _shift),
    "compose": ("first=cycle second=cycle", lambda c1, c2: _result(formats.cycle_to_json(compose(c1, c2)))),
    "min-compactify": (_ENDS, _min_compactify),
}
_HELP = {"check": "decide a predicate", "apply": "apply a functor or construction",
         "compose": "compose two cycles", "min-compactify": "least compactification level"}


def _options(spec: str):
    """(flag, dest, kind, required) for each input of a verb, in load order."""
    for token in spec.split():
        name, _, kind = token.rstrip("?").partition("=")
        # "from" is a keyword, so --from and --to keep their values under from_obj and to_obj
        dest = f"{name}_obj" if name in ("from", "to") else name
        yield f"--{name}", dest, kind or name, not token.endswith("?")


def _inputs(args, spec: str) -> list:
    values = []
    for flag, dest, kind, _ in _options(spec):
        value = getattr(args, dest)  # None only when an optional flag is left out; "" is read as a path
        values.append(formats.parse_input(value if kind == "divisor" else _read(flag, value), kind)
                      if value is not None else None)
    if spec == _ENDS:
        cycle, source, target = values
        return [cycle.with_ends(source or cycle.source, target or cycle.target)]
    return values


def _suite(args, started) -> int:
    from .suites import SuiteConfig, run_suite

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
    groups = {}
    for key, (spec, _) in _VERBS.items():
        group, _, verb = key.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=_HELP[group]).add_subparsers(
                dest="predicate" if group == "check" else "operation", required=True)
        p = groups[group].add_parser(verb) if group else sub.add_parser(verb, help=_HELP[verb])
        for flag, dest, kind, required in _options(spec):
            p.add_argument(flag, dest=dest, required=required,
                           help="inline effective divisor text" if kind == "divisor" else None)
        _add_json(p)
        p.set_defaults(verb=key)

    p = sub.add_parser("suite", help="run randomized property suites")
    p.add_argument("--suites", default="all", help="comma-separated suite names or 'all'")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree-bound", type=int, default=4)
    p.add_argument("--height-bound", type=int, default=10)
    _add_json(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "suite":
            return _suite(args, started)
        spec, handler = _VERBS[args.verb]
        inputs, verdict, payload, human = handler(*_inputs(args, spec))
        report = _report(args.verb, inputs, verdict, payload, started)
        print(json.dumps(report, sort_keys=True, indent=2) if args.json else human)
        return 1 if verdict == "no" else 0
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


if __name__ == "__main__":
    raise SystemExit(main())
