"""How each workload generates its requests and executes one of them.

A request is one ``run_suite`` call, one decided JSON input, or one CLI
invocation.  ``execute`` is the timed part; ``check`` compares its
result with the answer known from construction and is never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import answers
import corpus

WORKLOADS = ("suite-chains", "suite-light", "decide-json", "cli-cold")
# decide-json: two requests in ten compactify, so p90 falls near their median
# level, whose cost the stratified uniform levels fix, rather than on the edge
# between them and compose.
DECIDE_BLOCKS = 40
DECIDE_COMPACTIFY = 2
# cli-cold: about 120 invocations of ~0.2 s each in a 25 s run.
CLI_BLOCKS = 15
CLI_COMPACTIFY = 1
CLI_TIMEOUT_S = 60

CLI_VERBS = {
    "check-admissible": ("check", "admissible", "--cycle"),
    "check-position": ("check", "position", "--cycle"),
    "check-class": ("check", "class", "--triple"),
    "apply-separate": ("apply", "separate", "--triple"),
    "min-compactify": ("min-compactify", "--cycle"),
}


def generate(workload: str, seed: int, seconds: int) -> list[dict]:
    if workload in ("suite-chains", "suite-light"):
        from modtriples.suites import SuiteConfig

        requests = corpus.suite_requests(workload, seed, 60 * seconds)
        for r in requests:  # the engine validates every request before the run
            SuiteConfig(seed=r["seed"], samples=r["samples"], degree_bound=r["degree_bound"],
                        height_bound=r["height_bound"], suites=(r["suite"],))
        return requests
    if workload == "decide-json":
        return corpus.decide_requests(workload, seed, DECIDE_BLOCKS, DECIDE_COMPACTIFY, log_levels=False)
    return corpus.decide_requests(workload, seed, CLI_BLOCKS, CLI_COMPACTIFY, log_levels=True,
                                  malformed_per_block=1) + \
        corpus.known_defect_requests()


def write_inputs(requests: list[dict], directory: Path) -> None:
    """One file per request input, named in the request's ``files``."""
    (directory / "inputs").mkdir(parents=True, exist_ok=True)
    for i, req in enumerate(requests):
        req["files"] = {}
        for name, text in req["inputs"].items():
            rel = f"inputs/{i:05d}-{name}.json"
            (directory / rel).write_text(text, encoding="utf-8")
            req["files"][name] = rel


def cli_argv(req: dict, base: Path) -> list[str]:
    files = {k: str(base / v) for k, v in req["files"].items()}
    if req["verb"] == "compose":
        return ["compose", "--first", files["first"], "--second", files["second"], "--json"]
    *words, flag = CLI_VERBS[req["verb"]]
    return [*words, flag, files[flag[2:]], "--json"]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class SuiteRunner:
    def __init__(self):
        from modtriples import suites

        self.suites = suites  # looked up per call, so the traced run sees its wrappers
        self.records = self.skipped = 0

    def execute(self, req: dict):
        cfg = self.suites.SuiteConfig(seed=req["seed"], samples=req["samples"],
                                      degree_bound=req["degree_bound"],
                                      height_bound=req["height_bound"], suites=(req["suite"],))
        return self.suites.run_suite(cfg).records

    def check(self, req: dict, records) -> bool:
        """At least one record, and every record passed; also counts records,
        and those logged as skipped.

        The record count is not checked against ``samples``: the compactify
        suite drops samples that find no interior point without recording
        them.  A request that recorded nothing has certified nothing.
        """
        self.records += len(records)
        self.skipped += sum("skipped" in str(r["inputs"].get("case", "")) for r in records)
        return bool(records) and all(r["verdict"] == "pass" for r in records)


class DecideRunner:
    """Parse with ``formats``, answer through the public API, emit JSON."""

    def __init__(self):
        import modtriples as mt
        from modtriples import formats

        self.mt, self.formats = mt, formats

    def execute(self, req: dict) -> str:
        mt, fmt = self.mt, self.formats
        verb, inputs = req["verb"], req["inputs"]
        if verb == "compose":
            first = fmt.parse_input(inputs["first"], "cycle")
            second = fmt.parse_input(inputs["second"], "cycle")
            record = {"verdict": "ok", "result": fmt.cycle_to_json(mt.compose(first, second))}
        elif verb in ("check-class", "apply-separate"):
            triple = fmt.parse_input(inputs["triple"], "triple")
            if verb == "check-class":
                flags = mt.classify(triple)
                record = {"verdict": "ok", "inputs": fmt.triple_to_json(triple), "class": {
                    k: getattr(flags, k) for k in ("disjoint", "saturated", "min_class", "man_class",
                                                   "proper", "coadmissible", "modulus_pair")}}
            else:
                sep, fund = mt.separation(triple)
                record = {"verdict": "ok", "result": {
                    "triple": fmt.triple_to_json(sep), "fundamental": fmt.divisor_to_text(fund)}}
        else:
            cycle = fmt.parse_input(inputs["cycle"], "cycle")
            record = {"inputs": fmt.cycle_to_json(cycle)}
            if verb == "check-admissible":
                report = mt.is_admissible(cycle)
                record["verdict"] = "yes" if report.ok else "no"
                record["components"] = [{"proper_over_source": v.proper_over_source, "modulus": v.modulus}
                                        for v in report.verdicts]
            elif verb == "check-position":
                verdicts = mt.position_classify(cycle)
                record["verdict"] = "no" if any(v.bad for v in verdicts) else "yes"
                record["components"] = [{"bad": v.bad, "very_good": v.very_good, "excellent": v.excellent}
                                        for v in verdicts]
            else:
                record["verdict"] = "ok"
                record["level"] = mt.minimal_compactification_level(cycle.source, cycle.target, cycle)
        return json.dumps(record, sort_keys=True)

    @staticmethod
    def check(req: dict, text: str) -> bool:
        return answers.check(req, json.loads(text))


def _cli_record(code: int, out: str):
    if code not in (0, 1):
        return None
    try:
        return json.loads(out)["records"][0]
    except (ValueError, KeyError, IndexError):
        return None


class CliRunner:
    """One ``python -m modtriples.cli`` child per request; stdout and stderr merged."""

    def __init__(self, root: Path, base: Path):
        self.base = base
        self.cwd = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0

    def execute(self, req: dict):
        argv = [sys.executable, "-m", "modtriples.cli", *cli_argv(req, self.base)]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                 cwd=self.cwd, env=self.env)
        watchdog = threading.Timer(CLI_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            out = child.stdout.read()
        finally:
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return child.returncode, out.decode("utf-8", "replace")

    @staticmethod
    def check(req: dict, result) -> bool:
        code, out = result
        return answers.check(req, _cli_record(code, out), code, out)


class InProcessCliRunner:
    """``modtriples.cli.main`` called in this process, for the traced run."""

    def __init__(self, base: Path):
        from modtriples import cli

        self.cli, self.base = cli, base

    def execute(self, req: dict):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.cli.main(cli_argv(req, self.base))
        return code, buf.getvalue()

    check = staticmethod(CliRunner.check)


def runner_for(workload: str, root: Path, base: Path, traced: bool):
    if workload in ("suite-chains", "suite-light"):
        return SuiteRunner()
    if workload == "decide-json":
        return DecideRunner()
    return InProcessCliRunner(base) if traced else CliRunner(root, base)
