"""Self-tests of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py

* the constructions behind every expected answer hold on a small corpus;
* set-up writes byte-identical inputs under different hash seeds;
* the tracer's self-time arithmetic, and that every wrapped object is
  its original again after a traced run;
* ``BENCHMARK.json`` declares exactly the workloads and metrics the runs print.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import answers  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CANONICAL = {spelling: text for text, spellings in corpus.POINTS for spelling in spellings}


def _mults(divisor: str) -> dict[str, int]:
    """An input divisor over the point pool, by canonical point text."""
    out: dict[str, int] = {}
    for point, mult in answers.divisor_mults(divisor).items():
        out[CANONICAL[point]] = out.get(CANONICAL[point], 0) + mult
    return out


def _small_corpus(workload: str, seed: int) -> list[dict]:
    if workload == "cli-cold":
        return corpus.decide_requests(workload, seed, 2, 1, log_levels=True, malformed_per_block=3)
    return corpus.decide_requests(workload, seed, 3, 2, log_levels=False)


class Constructions(unittest.TestCase):
    """Each expected answer follows from how its input was built, and the engine agrees."""

    def setUp(self):
        self.requests = _small_corpus("decide-json", 5) + _small_corpus("decide-json", 6)

    def test_negative_admissible_shape(self):
        for req in (r for r in self.requests if r["kind"] == "admissible-negative"):
            cycle = json.loads(req["inputs"]["cycle"])
            t_plus, t_minus = _mults(cycle["target"]["plus"]), _mults(cycle["target"]["minus"])
            self.assertEqual(cycle["source"]["plus"], "0")
            self.assertTrue(t_plus)
            self.assertFalse(set(t_plus) & set(t_minus))
            b = cycle["components"][0]["b"]
            num, den = answers.parse_poly(b["num"]), answers.parse_poly(b["den"])
            self.assertGreater(max(num), max(den, default=0))  # nonconstant, pole at infinity

    def test_compactify_formula(self):
        for req in (r for r in self.requests if r["kind"] == "min-compactify"):
            cycle = json.loads(req["inputs"]["cycle"])
            (r,) = [CANONICAL[p] for p in cycle["source"]["total"]["boundary"]]
            ((c, m),) = _mults(cycle["target"]["plus"]).items()
            self.assertNotIn(c, _mults(cycle["target"]["minus"]))
            rv, cv = corpus.RATIONAL_VALUES[r], corpus.RATIONAL_VALUES[c]
            b = cycle["components"][0]["b"]
            num, den = answers.parse_poly(b["num"]), answers.parse_poly(b["den"])
            k = max(den)
            # num - c*den == (x - r)^k, and den(r) != 0
            shift = {d: num.get(d, 0) - cv * den.get(d, 0) for d in set(num) | set(den)}
            for t in answers.SAMPLES:
                self.assertEqual(sum(v * t**d for d, v in shift.items()), (t - rv) ** k)
            self.assertNotEqual(sum(v * Fraction(rv) ** d for d, v in den.items()), 0)
            self.assertEqual(req["expect"]["level"], max(1, k * m))

    def test_bad_position_shape(self):
        for req in (r for r in self.requests if r["kind"] == "position-bad"):
            cycle = json.loads(req["inputs"]["cycle"])
            c = CANONICAL[cycle["components"][0]["b"]["const"]]
            self.assertIn(c, _mults(cycle["target"]["minus"]))
            self.assertNotIn(c, _mults(cycle["target"]["plus"]))

    def test_class_flags_on_known_triples(self):
        box = corpus.class_flags({"P(inf)": 1}, {}, True)
        self.assertTrue(box["disjoint"] and box["saturated"] and box["modulus_pair"])
        self.assertFalse(box["coadmissible"])
        man = corpus.class_flags({"P(x)": 1}, {"P(x)": 2}, True)
        self.assertTrue(man["man_class"] and not man["min_class"] and not man["disjoint"])
        self.assertTrue(corpus.class_flags({"P(x)": 1}, {"P(x)": 1}, True)["min_class"])
        self.assertFalse(corpus.class_flags({"P(x)": 2}, {"P(x)": 2}, False)["saturated"])

    def test_engine_agrees_in_process(self):
        runner = workloads.DecideRunner()
        for req in self.requests:
            with self.subTest(kind=req["kind"]):
                self.assertTrue(runner.check(req, runner.execute(req)))

    def test_engine_agrees_through_cli(self):
        requests = _small_corpus("cli-cold", 7)
        with tempfile.TemporaryDirectory() as tmp:
            workloads.write_inputs(requests, Path(tmp))
            runner = workloads.InProcessCliRunner(Path(tmp))
            for req in requests:
                with self.subTest(kind=req["kind"]):
                    self.assertTrue(runner.check(req, runner.execute(req)))
        self.assertTrue(any(r["kind"] == "malformed" for r in requests))

    def test_checker_rejects_wrong_answers(self):
        req = next(r for r in self.requests if r["kind"] == "min-compactify")
        record = {"verdict": "ok", "level": req["expect"]["level"] + 1}
        self.assertFalse(answers.check(req, record))
        neg = next(r for r in self.requests if r["kind"] == "admissible-negative")
        self.assertFalse(answers.check(neg, {"verdict": "yes"}, 0))
        self.assertFalse(answers.check(neg, {"verdict": "no"}, 2))

    def test_suite_request_without_records_fails(self):
        runner = workloads.SuiteRunner()
        req = corpus.suite_requests("suite-light", 1, 1)[0]
        self.assertFalse(runner.check(req, []))
        self.assertFalse(runner.check(req, [{"verdict": "fail", "inputs": {}}]))
        self.assertTrue(runner.check(req, [{"verdict": "pass", "inputs": {}}]))


class Determinism(unittest.TestCase):
    def test_setup_identical_across_hash_seeds(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                outputs = []
                for hash_seed in ("1", "2"):
                    out = Path(tmp) / hash_seed
                    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
                    subprocess.run([sys.executable, str(HERE / "run.py"), "--generate", "--workload",
                                    workload, "--seed", "3", "--seconds", "2", "--out", str(out)],
                                   env=env, check=True, cwd=ROOT)
                    outputs.append({p.relative_to(out): p.read_bytes()
                                    for p in sorted(out.rglob("*")) if p.is_file()})
                self.assertEqual(outputs[0], outputs[1])


class Declaration(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         layers.metric_specs())
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"setup_s", "requests_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


class TracerArithmetic(unittest.TestCase):
    def _synthetic(self) -> Tracer:
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
        t = Tracer()
        for name, parent, start, end in (("a", -1, 0, 10), ("b", 0, 1, 4), ("c", 1, 2, 3), ("d", 0, 5, 9)):
            t.name.append(t.name_id(name))
            t.parent.append(parent)
            t.request.append(0)
            t.start.append(start)
            t.end.append(end)
        return t

    def test_self_time(self):
        self.assertEqual(self._synthetic().self_times(), [3, 2, 1, 4])

    def test_totals_and_nesting(self):
        t = self._synthetic()
        t.name.append(t.name_id("c"))
        t.parent.append(3)
        t.request.append(0)
        t.start.append(6)
        t.end.append(8)
        totals = t.totals()
        self.assertEqual(totals["c"], (2, 3))
        self.assertEqual(totals["d"], (1, 2))
        self.assertEqual(t.calls_under("c", "b"), 1)
        self.assertEqual(t.calls_under("c", "a"), 2)
        self.assertEqual(t.calls_under("a", "c"), 0)

    def test_wrapped_calls_nest(self):
        t = Tracer()

        def inner(x):
            return x + 1

        wrapped_inner = t.wrap("inner", inner)
        outer = t.wrap("outer", lambda x: wrapped_inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual(list(t.parent), [-1, 0])
        self.assertEqual(t.names, ["inner", "outer"])


class TracerRestores(unittest.TestCase):
    def _references(self) -> dict:
        """Every place a traced object lives: (owner id, key) -> object."""
        import importlib

        refs = {}
        originals = set()
        for _, module, path, _, _ in layers.targets():
            owner = importlib.import_module(module)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                refs[(id(cls), meth)] = cls.__dict__[meth]
            else:
                originals.add(id(getattr(owner, path)))
        for name, module in list(sys.modules.items()):
            if not name.startswith("modtriples"):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    refs[(id(module), attr)] = value
                elif type(value) is dict:
                    for key, item in value.items():
                        if id(item) in originals:
                            refs[(id(value), key)] = item
        return refs

    def test_every_wrapped_object_is_original_after_traced_run(self):
        import modtriples.cli  # noqa: F401  (load every module before looking)
        from modtriples import formats, ratpoly

        before = self._references()
        factor = ratpoly.factor
        tracer = Tracer()
        tracer.install(layers.targets())
        try:
            self.assertIsNot(ratpoly.factor, factor)
            self.assertIsNot(formats._JSON_KINDS["cycle"], before[(id(formats._JSON_KINDS), "cycle")])
            runner = workloads.DecideRunner()
            for req in _small_corpus("decide-json", 9)[:9]:
                self.assertTrue(runner.check(req, runner.execute(req)))
            suites = workloads.SuiteRunner()
            req = corpus.suite_requests("suite-light", 1, 1)[0]
            self.assertTrue(suites.check(req, suites.execute(req)))
        finally:
            tracer.restore()
        after = self._references()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value)
        self.assertIs(ratpoly.factor, factor)
        totals = tracer.totals()
        self.assertGreater(totals["suites.run_suite"][0], 0)
        self.assertGreater(totals["formats.cycle_from_json"][0], 0)


if __name__ == "__main__":
    unittest.main()
