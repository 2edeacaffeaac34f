"""Structural fuzz of the CLI: mutated golden inputs keep the exit-code contract.

Each mutant takes one golden case (``test_cli_golden``) and changes one of its
inputs: a value swapped for another JSON type or for a short hostile string, or
a key dropped or added.  ``main`` runs in-process and must return 0, 1 or 2,
argparse's ``SystemExit(2)`` counting as 2; no other exception may escape it.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from modtriples.cli import main
from test_cli_golden import CASES, FILES

MUTANTS = 500
VALUES = (None, True, False, 0, -1, 7, 2**70, 1.5, -0.0, float("nan"), 1e308, [], {}, [0], {"x": 1})
HOSTILE = (
    "", " ", "x", "P(", "P()", "P(inf", "P(x^2 - 2", "1*P(0) +", "P(1/0)", "0*P(0)", "-1*P(x)",
    "P(x^-1)", "x^99999", "P(x^300 + x + 1)", "P(2^99999)", "(" * 120 + "x" + ")" * 120,
    "9" * 400, "\x00", "NaN", "P(x)P(x)", "1*P(x^2 + 1) + 1*P(x^2 + 1)", "π",
)
KEYS = ("num", "den", "kind", "boundary", "plus", "minus", "total", "mult", "components", "a", "b", "Y", "zzz")


def _slots(root: list) -> list:
    """(container, key) for every value nested in ``root``, ``root[0]`` included."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            out.append((node, key))
            stack.append(value)
    return out


def mutate(rng: random.Random, doc):
    """One structural mutant of a JSON document."""
    root = [copy.deepcopy(doc)]
    slots = _slots(root)
    dicts = [node[key] for node, key in slots if isinstance(node[key], dict)]
    op = rng.randrange(3)
    if op == 0 and dicts:
        rng.choice(dicts)[rng.choice(KEYS)] = rng.choice(VALUES + HOSTILE)
    elif op == 1 and any(dicts):
        target = rng.choice([d for d in dicts if d])
        del target[rng.choice(sorted(target))]
    else:
        node, key = rng.choice(slots)
        node[key] = rng.choice(VALUES if rng.random() < 0.5 else HOSTILE)
    return root[0]


def test_mutants_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(0)
    for name, data in FILES.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    mutant = tmp_path / "mutant.json"
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(MUTANTS):
        names = CASES[rng.choice(sorted(CASES))]
        i = rng.choice([i for i, arg in enumerate(names) if arg in FILES or names[i - 1] == "--divisor"])
        argv = [str(tmp_path / arg) if arg in FILES else arg for arg in names]
        if names[i] in FILES:
            text = json.dumps(mutate(rng, FILES[names[i]]))
            mutant.write_text(text, encoding="utf-8")
            argv[i] = str(mutant)
        else:
            text = argv[i] = rng.choice(HOSTILE)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv + ["--json"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__} escaped main: {argv} with {text!r}")
        assert code in codes, (argv, text)
        codes[code] += 1
    assert all(codes.values()), codes  # the mutants reach every verdict, not only the parser
