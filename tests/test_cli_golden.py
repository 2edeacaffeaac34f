"""Golden CLI reports: every check, apply, compose and min-compactify verb.

Each case pins the exit code and the ``--json`` report, minus ``elapsed_s``,
on fixed inputs written in non-canonical form: a non-monic point
(``P(2*x^2 - 3)`` prints as ``P(x^2 - 3/2)``), non-integral rational points
and maps with nonconstant denominators.  The expected reports live in
``golden/cli_reports.json``.  The text contract lives in
``golden/cli_text.json``: each case's exit code, stdout and stderr without
``--json``, and each verb's options (option strings, dest, required) as
``build_parser`` declares them; ``--help`` text is not pinned, because
argparse formats it differently across Python versions.
``PYTHONPATH=src python tests/test_cli_golden.py`` rewrites both files from
the current code.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from modtriples.cli import build_parser, main

GOLDEN = Path(__file__).with_name("golden") / "cli_reports.json"
GOLDEN_TEXT = GOLDEN.with_name("cli_text.json")


def _triple(plus: str, minus: str, boundary: list | None = None) -> dict:
    total = {"kind": "proper"} if boundary is None else {"kind": "open", "boundary": boundary}
    return {"total": total, "plus": plus, "minus": minus}


def _cycle(source: dict, target: dict, a: dict, b: dict, mult: int = 1) -> dict:
    return {"source": source, "target": target, "components": [{"a": a, "b": b, "mult": mult}]}


ID = {"num": "x"}
F = {"num": "2*x^2 + 1", "den": "3*x - 2"}
# T <- M <- S along graphs of f2 = (x^2 + 1)/(2x - 3) and f1 = (3x - 1)/(2x):
# M = f2*T and S = f1*M, so both graph cycles are admissible and compose
T = _triple("1*P(2*x^2 - 3) + 1*P(inf)", "1*P(3*x + 1)")
M = _triple("1*P(inf) + 1*P(2*x - 3) + 1*P(2*x^4 - 8*x^2 + 36*x - 25)", "1*P(x) + 1*P(3*x + 2)")
S = _triple(
    "1*P(inf) + 1*P(x) + 1*P(169*x^4 - 156*x^3 + 38*x^2 - 12*x + 1)",
    "1*P(3*x - 1) + 1*P(13*x - 3)",
)
OVERLAP = _triple("2*P(2*x^2 - 3) + 1*P(0)", "1*P(2*x^2 - 3) + 1*P(-1/3)")

FILES = {
    "graph1.json": _cycle(S, M, ID, {"num": "3*x - 1", "den": "2*x"}),
    "graph2.json": _cycle(M, T, ID, {"num": "x^2 + 1", "den": "2*x - 3"}),
    "cycle.json": _cycle(_triple("0", "0"), _triple("1*P(2*x^2 - 3)", "1*P(inf)"), ID, F, mult=2),
    "open.json": _cycle(_triple("0", "0", ["P(inf)", "P(3*x - 2)"]), _triple("1*P(inf)", "0"), ID, F),
    "src.json": T,
    "overlap.json": OVERLAP,
    "min.json": _triple("1*P(inf) + 1*P(5*x + 2)", "1*P(inf) + 1*P(5*x + 2) + 1*P(2*x^2 - 3)"),
    "man.json": _triple("1*P(inf) + 1*P(2*x^2 - 3)", "3*P(inf) + 1*P(2*x^2 - 3)"),
    "disjoint.json": _triple("1*P(2*x^2 - 3)", "1*P(3*x + 1) + 1*P(inf)"),
    "map.json": F,
    "iy1.json": {"Y": "1*P(2*x^2 - 3)", "Z": "1*P(-2/5) + 1*P(inf)"},
    "iy2.json": {"Y": "0", "Z": "1*P(inf)"},
    "mlog1.json": {"boundary": "1*P(2*x^2 - 3) + 1*P(inf)", "modulus": "2*P(inf)"},
    "mlog2.json": {"boundary": "1*P(inf)", "modulus": "1*P(inf)"},
    "ne1.json": {"infinity": "1*P(2*x^2 - 3) - 1*P(5/2)"},
    "ne2.json": {"infinity": "1*P(inf)"},
    "triples.json": [_triple("1*P(2*x^2 - 3)", "1*P(7/3)"), _triple("1*P(inf)", "0")],
    "space.json": {"kind": "open", "boundary": ["P(2*x^2 - 3)", "P(-1/4)"]},
}

CASES = {
    "check admissible yes": ["check", "admissible", "--cycle", "graph1.json"],
    "check admissible no": ["check", "admissible", "--cycle", "cycle.json"],
    "check position": ["check", "position", "--cycle", "graph2.json"],
    "check class": ["check", "class", "--triple", "overlap.json"],
    "check iy": ["check", "iy", "--map", "map.json", "--from", "iy1.json", "--to", "iy2.json"],
    "check mlog": ["check", "mlog", "--map", "map.json", "--from", "mlog1.json", "--to", "mlog2.json"],
    "check ne-hom": ["check", "ne-hom", "--cycle", "cycle.json", "--from", "ne1.json", "--to", "ne2.json"],
    "check sigma-fin": ["check", "sigma-fin", "--cycle", "cycle.json"],
    "check minimal": ["check", "minimal", "--cycle", "cycle.json", "--source", "src.json"],
    "apply dual": ["apply", "dual", "--triple", "overlap.json"],
    "apply separate": ["apply", "separate", "--triple", "overlap.json"],
    "apply kappa": ["apply", "kappa", "--iy", "iy1.json"],
    "apply kappa-inv": ["apply", "kappa-inv", "--triple", "min.json"],
    "apply mlog-kappa": ["apply", "mlog-kappa", "--mlog", "mlog1.json"],
    "apply mlog-kappa-inv": ["apply", "mlog-kappa-inv", "--triple", "man.json"],
    "apply ne-embed": ["apply", "ne-embed", "--ne", "ne1.json"],
    "apply g": ["apply", "g", "--triple", "overlap.json"],
    "apply p": ["apply", "p", "--triples", "triples.json"],
    "apply q": ["apply", "q", "--triple", "disjoint.json"],
    "apply s": ["apply", "s", "--triple", "overlap.json"],
    "apply lambda": ["apply", "lambda", "--space", "space.json"],
    "apply pullback-triple": ["apply", "pullback-triple", "--map", "map.json", "--triple", "src.json"],
    "apply shift": ["apply", "shift", "--triple", "src.json", "--divisor", "1*P(2*x^2 - 3) + 1*P(-1/3)"],
    "compose": ["compose", "--first", "graph1.json", "--second", "graph2.json"],
    "min-compactify": ["min-compactify", "--cycle", "open.json"],
}


def _argv(name: str, directory: Path) -> list[str]:
    """The arguments of one case, with its input files written to ``directory``."""
    for file, data in FILES.items():
        (directory / file).write_text(json.dumps(data), encoding="utf-8")
    return [str(directory / arg) if arg in FILES else arg for arg in CASES[name]]


def run_case(name: str, directory: Path) -> dict:
    """Exit code and JSON report of one case, with its input files in ``directory``."""
    argv = _argv(name, directory)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    report = json.loads(out.getvalue())
    report.pop("elapsed_s", None)
    return {"exit": code, "report": report}


def run_text_case(name: str, directory: Path) -> dict:
    """Exit code, stdout and stderr of one case without ``--json``."""
    argv = _argv(name, directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def verb_options() -> dict:
    """Each verb's options in declaration order: [option strings, dest, required]."""
    options = {}
    for command, sub in _subcommands(build_parser()).items():
        verbs = _subcommands(sub).items() if command in ("check", "apply") else [("", sub)]
        for verb, parser in verbs:
            key = f"{command} {verb}".strip()
            options[key] = [[a.option_strings, a.dest, a.required] for a in parser._actions]
    return options


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(name, tmp_path) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_text(name, tmp_path):
    golden = json.loads(GOLDEN_TEXT.read_text(encoding="utf-8"))
    assert run_text_case(name, tmp_path) == golden["cases"][name]


def test_golden_options():
    golden = json.loads(GOLDEN_TEXT.read_text(encoding="utf-8"))
    assert verb_options() == golden["options"]


@pytest.mark.parametrize("name", ["check class", "apply shift"])
def test_dash_reads_standard_input(name, tmp_path, monkeypatch):
    argv = _argv(name, tmp_path)
    flag = argv.index("--triple") + 1
    text = Path(argv[flag]).read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    argv[flag] = "-"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    golden = json.loads(GOLDEN_TEXT.read_text(encoding="utf-8"))["cases"][name]
    assert {"exit": code, "stdout": out.getvalue()} == {"exit": golden["exit"], "stdout": golden["stdout"]}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_golden_covers_every_verb():
    verbs = set()
    for command, sub in _subcommands(build_parser()).items():
        if command in ("check", "apply"):
            verbs |= {f"{command} {name}" for name in _subcommands(sub)}
        elif command != "suite":
            verbs.add(command)
    covered = {" ".join(argv[:2] if argv[0] in ("check", "apply") else argv[:1]) for argv in CASES.values()}
    assert covered == verbs
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == set(CASES)
    assert {golden[name]["exit"] for name in CASES} == {0, 1}
    text = json.dumps(golden)
    # the non-monic and non-integral inputs come back in canonical form
    assert "P(x^2 - 3/2)" in text and "P(x + 2/5)" in text and '"den": "3*x - 2"' in text


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
        text = {"cases": {name: run_text_case(name, Path(tmp)) for name in sorted(CASES)},
                "options": verb_options()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    GOLDEN_TEXT.write_text(json.dumps(text, sort_keys=True, indent=2) + "\n", encoding="utf-8")
