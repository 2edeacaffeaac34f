"""CLI behavior: verdicts, exit codes, report determinism."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modtriples
from modtriples.cli import main
from modtriples.suites import SuiteConfig, run_suite

BOX = '{"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "0"}'
BOXDUAL = '{"total": {"kind": "proper"}, "plus": "0", "minus": "1*P(inf)"}'
ID_CYCLE = (
    '{"source": %s, "target": %s,'
    ' "components": [{"a": {"num": "x"}, "b": {"num": "x"}, "mult": 1}]}' % (BOX, BOXDUAL)
)

# (N1)*(N2)*(N3)*x^2 + 1, where N1*N2*N3 is the product of the odd primes
# below 20000: no small prime is of good reduction, and the monic form's
# denominator is far past the height cap
_PRIMES = [n for n in range(3, 20000, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
_K = len(_PRIMES) // 3
PRIMORIAL_POLY = "*".join(
    f"({math.prod(g)})" for g in (_PRIMES[:_K], _PRIMES[_K : 2 * _K], _PRIMES[2 * _K :])
) + "*x^2 + 1"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestExitCodes:
    def test_affirmative(self, files, capsys):
        cycle = files("id.json", ID_CYCLE)
        assert main(["check", "admissible", "--cycle", cycle]) == 0
        assert "admissible: yes" in capsys.readouterr().out

    def test_negative(self, files, capsys):
        bad = ID_CYCLE.replace('"plus": "0", "minus": "1*P(inf)"', '"plus": "2*P(inf)", "minus": "0"')
        cycle = files("bad.json", bad)
        assert main(["check", "admissible", "--cycle", cycle]) == 1
        assert "admissible: no" in capsys.readouterr().out

    def test_error(self, files, capsys):
        broken = files("broken.json", '{"total": {"kind": "proper"}, "plus": "1*P(x^2-1)"}')
        assert main(["check", "class", "--triple", broken]) == 2
        assert "DegenerateInput" in capsys.readouterr().err

    def test_unsupported_composition(self, files, capsys):
        free = '{"total": {"kind": "proper"}, "plus": "0", "minus": "0"}'
        ident = files(
            "ident.json",
            '{"source": %s, "target": %s,'
            ' "components": [{"a": {"num": "x"}, "b": {"num": "x"}, "mult": 1}]}' % (free, free),
        )
        trans = files(
            "trans.json",
            '{"source": %s, "target": %s,'
            ' "components": [{"a": {"num": "x^2"}, "b": {"num": "x"}, "mult": 1}]}' % (free, free),
        )
        assert main(["compose", "--first", ident, "--second", trans]) == 2
        assert "UnsupportedComposition" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert main(["suite", "--suites", "nope", "--samples", "1"]) == 2

    @pytest.mark.parametrize("bound", [257, 100000])
    def test_degree_bound_above_the_map_cap(self, capsys, bound):
        # random maps obey the degree cap of a parsed map; above it a run would not end
        started = time.perf_counter()
        assert main(["suite", "--degree-bound", str(bound), "--suites", "composition", "--samples", "1"]) == 2
        assert time.perf_counter() - started < 1.0
        assert "ParseError: degree bound above 256" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [2**64, 10**1000])
    def test_height_bound_above_64_bits(self, capsys, bound):
        # a bound of 10^1000 ran 7 s and crashed printing a coefficient
        started = time.perf_counter()
        assert main(["suite", "--height-bound", str(bound), "--suites", "all", "--samples", "1"]) == 2
        assert time.perf_counter() - started < 1.0
        assert "ParseError: height bound must fit in 64 unsigned bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--seed", "-1"], "seed must fit in 64 unsigned bits"),
            (["--samples", "0"], "samples and bounds must be at least one"),
            (["--degree-bound", "300"], "degree bound above 256"),
            (["--suites", "nope"], "unknown suite identifier 'nope'"),
        ],
    )
    def test_bad_suite_flag_names_no_line(self, capsys, flags, message):
        # a command-line value is no input text, so the error names no line of one
        assert main(["suite", "--samples", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert f"ParseError: {message}\n" in err and "(line" not in err

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (["check", "class", "--triple"],
             '{"total": {"kind": "proper"},\n "plus": "1*P(inf)",\n "minus": 5\n}',
             "expected a string, not int"),
            (["check", "admissible", "--cycle"],
             '{"source": %s,\n "target": %s,\n "components": [{"a": {"num": "x"},\n   "b": 7}]}' % (BOX, BOX),
             "a map is a JSON object"),
        ],
        ids=["triple", "cycle"],
    )
    def test_schema_error_names_no_line(self, files, capsys, argv, text, message):
        # the offending value sits on line 3 or 4 of the document, but a schema error is
        # found in the parsed document, which keeps no lines, so it names none
        assert text.count("\n") >= 3
        assert main([*argv, files("doc.json", text)]) == 2
        err = capsys.readouterr().err
        assert f"ParseError: {message}\n" in err and "(line" not in err

    def test_literal_error_names_its_column(self, files, capsys):
        # a literal is one line of text, so its errors keep their place in it
        doc = files("doc.json", '{"total": {"kind": "proper"},\n "plus": "1*P(x^2 -",\n "minus": "0"\n}')
        assert main(["check", "class", "--triple", doc]) == 2
        assert "(line 1, column " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "modtriples: error: the following arguments are required: command"),
            (["check", "admissible"], "admissible: error: the following arguments are required: --cycle"),
            (["suite", "--samples", "abc"], "suite: error: argument --samples: invalid int value: 'abc'"),
            (["check", "bogus"], "check: error: argument predicate: invalid choice: 'bogus'"),
            (["compose", "--first", "a", "--second", "b", "-z"], "modtriples: error: unrecognized arguments: -z"),
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        # the parser is built once per process, so a repeated call must fail alike
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: modtriples") and message in err


def run_cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, as a user would, with extra
    environment variables from env."""
    env = dict(os.environ, PYTHONPATH=str(Path(modtriples.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-m", "modtriples.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestMalformedInputExitsTwo:
    """Bad input is an error (exit 2) with a diagnostic, never a traceback."""

    @pytest.mark.parametrize("mult", ["0", "-1", '"abc"', "1.5", "true", '"2"'])
    def test_bad_multiplicity(self, files, mult):
        cycle = files("m.json", ID_CYCLE.replace('"mult": 1', f'"mult": {mult}'))
        out = run_cli("check", "admissible", "--cycle", cycle)
        assert out.returncode == 2
        assert "ParseError" in out.stderr
        assert "Traceback" not in out.stdout + out.stderr

    @pytest.mark.parametrize(
        "point",
        [
            "(" * 3000 + "x" + ")" * 3000,
            "x^100000000 + 1",
            "(x + 1)^200 * (x + 1)^200",
            "((7^256)^256)^256 * x + 1",
            "1" * 5000 + " + x",
            PRIMORIAL_POLY,
        ],
        ids=["deep-nesting", "huge-exponent", "huge-product", "huge-height", "long-integer", "primorial-height"],
    )
    def test_bounded_polynomial_literal(self, files, point):
        triple = files("t.json", json.dumps({"plus": f"1*P({point})", "minus": "0"}))
        out = run_cli("check", "class", "--triple", triple)
        assert out.returncode == 2
        assert "ParseError" in out.stderr
        assert "Traceback" not in out.stdout + out.stderr

    def test_ambiguous_map(self, files):
        # 'const' beside 'num' or 'den' names two maps at once: an error, not the constant map
        ambiguous = '{"const": "P(0)", "num": "x^2", "den": "1"}'
        cycle = files("m.json", ID_CYCLE.replace('"b": {"num": "x"}', f'"b": {ambiguous}'))
        out = run_cli("check", "admissible", "--cycle", cycle)
        assert out.returncode == 2
        assert "ParseError" in out.stderr
        assert "Traceback" not in out.stdout + out.stderr

    def test_deeply_nested_json(self, files):
        cycle = files("deep.json", "[" * 100000 + "]" * 100000)
        out = run_cli("check", "admissible", "--cycle", cycle)
        assert out.returncode == 2
        assert "Traceback" not in out.stdout + out.stderr

    def test_sign_without_a_term(self, files):
        triple = files("t.json", json.dumps({"plus": "P(1) +", "minus": "-"}))
        out = run_cli("check", "class", "--triple", triple)
        assert out.returncode == 2
        assert "ParseError: a sign must be followed by a term" in out.stderr
        assert "Traceback" not in out.stdout + out.stderr

    def test_fiber_degree_cap(self, files, capsys):
        # b = x^d + 2x + 5 pulls P(x^d - 2) back to a fiber of degree d^2, and two graph
        # cycles of degree d compose to degree d^2: above MAX_FIBER_DEGREE is an error
        def cycle(name: str, d: int, target_plus: str) -> str:
            return files(f"{name}{d}.json", json.dumps({
                "source": {"plus": "0", "minus": "0"},
                "target": {"plus": target_plus, "minus": "0"},
                "components": [{"a": {"num": "x"}, "b": {"num": f"x^{d} + 2*x + 5"}, "mult": 1}],
            }))

        assert main(["check", "position", "--cycle", cycle("position", 32, "1*P(x^32 - 2)")]) == 0
        graph = cycle("graph", 64, "0")
        for argv in (["check", "position", "--cycle", cycle("position", 64, "1*P(x^64 - 2)")],
                     ["compose", "--first", graph, "--second", graph]):
            capsys.readouterr()
            started = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - started < 2.0
            assert "of degree 4096 above the cap 1024" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--source", "--target"])
    def test_empty_end_override_is_read(self, files, capsys, flag):
        cycle = files("id.json", ID_CYCLE)
        assert main(["check", "admissible", "--cycle", cycle, flag, ""]) == 2
        assert capsys.readouterr().err == f"error: the path given to {flag} is empty\n"

    def test_empty_path_names_its_flag(self, capsys):
        assert main(["check", "admissible", "--cycle", ""]) == 2
        assert capsys.readouterr().err == "error: the path given to --cycle is empty\n"


SQ_CYCLE = (
    '{"source": {"total": {"kind": "open", "boundary": ["P(inf)"]}, "plus": "0", "minus": "0"},'
    ' "target": %s,'
    ' "components": [{"a": {"num": "x"}, "b": {"num": "x^2"}, "mult": 1}]}' % BOX
)
OPEN_TRIPLE = (
    '{"total": {"kind": "open", "boundary": ["P(x^2+1)", "P(inf)"]},'
    ' "plus": "2*P(x^2 - 2) + 1*P(1/2)", "minus": "1*P(0)"}'
)
# JSON punctuation, polynomial and point syntax, letters of the keys,
# and a few characters no input should contain
FUZZ_ALPHABET = '{}[]":,. 0123456789-+*/^()xPinf' + "kdopermultnumab" + "\\'\x00é"


class TestFuzzedJson:
    """Character-level mutations of valid inputs, run in-process: every
    outcome is an exit code of 0, 1 or 2, never an escaping exception."""


    @staticmethod
    def mutate(text: str, rng: random.Random) -> str:
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i:]
            elif op == 1:
                text = text[:i] + text[i + 1 :]
            else:
                text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i + 1 :]
        return text

    @pytest.mark.parametrize(
        "command,valid",
        [
            (("check", "admissible", "--cycle"), ID_CYCLE),
            (("min-compactify", "--cycle"), SQ_CYCLE),
            (("check", "class", "--triple"), BOX),
            (("apply", "separate", "--triple"), OPEN_TRIPLE),
        ],
        ids=["admissible", "min-compactify", "class", "separate"],
    )
    def test_mutations_exit_cleanly(self, files, capsys, command, valid):
        rng = random.Random(" ".join(command))
        for trial in range(100):
            text = self.mutate(valid, rng)
            path = files("fuzz.json", text)
            code = main([*command, path])
            out = capsys.readouterr()
            assert code in (0, 1, 2), (trial, text)
            assert "Traceback" not in out.out + out.err, (trial, text)


class TestCommands:
    def test_separate(self, files, capsys):
        triple = files("t.json", '{"total": {"kind": "proper"}, "plus": "2*P(0)", "minus": "1*P(0)"}')
        assert main(["apply", "separate", "--triple", triple]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["triple"]["plus"] == "1*P(x)"
        assert out["triple"]["minus"] == "0"
        assert out["fundamental"] == "1*P(x)"

    def test_shift(self, files, capsys):
        triple = files("box.json", BOX)
        assert main(["apply", "shift", "--triple", triple, "--divisor", "1*P(inf)"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_iso"] is True
        assert out["source"]["plus"] == "2*P(inf)"

    def test_min_compactify(self, files, capsys):
        cycle = files(
            "sq.json",
            '{"source": {"total": {"kind": "open", "boundary": ["P(inf)"]},'
            ' "plus": "0", "minus": "0"},'
            ' "target": %s,'
            ' "components": [{"a": {"num": "x"}, "b": {"num": "x^2"}, "mult": 1}]}' % BOX,
        )
        assert main(["min-compactify", "--cycle", cycle]) == 0
        assert "n = 2" in capsys.readouterr().out

    def test_kappa_round(self, files, capsys):
        iy = files("o.json", '{"Y": "1*P(0)", "Z": "2*P(inf)"}')
        assert main(["apply", "kappa", "--iy", iy]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["plus"] == "2*P(inf)"
        back = files("t.json", json.dumps(out))
        assert main(["apply", "kappa-inv", "--triple", back]) == 0
        assert json.loads(capsys.readouterr().out) == {"Y": "1*P(x)", "Z": "2*P(inf)"}

    def test_p_on_one_triple_object(self, files, capsys):
        # apply p reads a JSON list of triples: a single triple object is a schema error
        triple = files("t.json", '{"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "0"}')
        assert main(["apply", "p", "--triples", triple]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_p_and_q(self, files, capsys):
        triples = files(
            "ts.json",
            '[{"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "1*P(0)"},'
            ' {"total": {"kind": "proper"}, "plus": "1*P(inf)", "minus": "0"}]',
        )
        assert main(["apply", "p", "--triples", triples]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 1 and out[0]["minus"] == "0"
        triple = files("q.json", '{"total": {"kind": "proper"}, "plus": "1*P(0)", "minus": "1*P(inf)"}')
        assert main(["apply", "q", "--triple", triple]) == 0
        assert json.loads(capsys.readouterr().out)["infinity"] == "1*P(x)"

    def test_suite_verdict(self, capsys):
        assert main(["suite", "--suites", "fixtures", "--samples", "1", "--seed", "3"]) == 0
        assert "failed: 0" in capsys.readouterr().out


COLD_MODULES = ["modtriples", "modtriples.cli", "modtriples.cycles", "modtriples.divisors",
                "modtriples.errors", "modtriples.formats", "modtriples.ratpoly", "modtriples.triples"]
_LOADED = """
import json, sys
from modtriples.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "modtriples")]))
"""


def loaded_after(*argv: str) -> tuple:
    """(exit code of main(argv), or None when argv is empty; the modtriples modules then
    loaded), in a fresh interpreter, so this process's imports cannot hide a load."""
    env = dict(os.environ, PYTHONPATH=str(Path(modtriples.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    return tuple(json.loads(out.stdout.splitlines()[-1]))


class TestColdStart:
    """A verb loads the engine modules it needs and no others."""

    def test_import_loads_the_decision_layers_only(self):
        assert loaded_after() == (None, COLD_MODULES)

    def test_check_admissible(self, files):
        assert loaded_after("check", "admissible", "--cycle", files("id.json", ID_CYCLE)) == (0, COLD_MODULES)

    def test_min_compactify_loads_functors(self, files):
        code, modules = loaded_after("min-compactify", "--cycle", files("sq.json", SQ_CYCLE))
        assert code == 0 and modules == sorted([*COLD_MODULES, "modtriples.functors"])

    def test_suite_loads_suites(self):
        code, modules = loaded_after("suite", "--suites", "fixtures", "--samples", "1", "--seed", "3")
        assert code == 0 and {"modtriples.suites", "modtriples.oracles", "modtriples.functors"} <= set(modules)


class TestDeterminism:
    def test_reports_identical_modulo_elapsed(self):
        cfg = SuiteConfig(seed=42, samples=5, suites=("key-lem", "roundtrip", "separation"))
        first = run_suite(cfg).to_json()
        second = run_suite(cfg).to_json()
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_cli_json_deterministic(self, capsys):
        argv = ["suite", "--suites", "key-lem", "--samples", "3", "--seed", "11", "--json"]
        assert main(argv) == 0
        out1 = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        out2 = json.loads(capsys.readouterr().out)
        out1.pop("elapsed_s")
        out2.pop("elapsed_s")
        assert out1 == out2
        assert out1["schema"] == 1

    def test_reports_identical_across_hash_seeds(self):
        # randomized factoring draws only from its own seeded generator
        argv = ("suite", "--suites", "composition,positions,key-lem", "--samples", "3", "--seed", "1", "--json")
        reports = []
        for hash_seed in ("0", "1", "2"):
            out = run_cli(*argv, PYTHONHASHSEED=hash_seed)
            assert out.returncode == 0, out.stderr
            report = json.loads(out.stdout)
            report.pop("elapsed_s")
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]
