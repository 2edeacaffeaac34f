"""The modtriples benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload decide-json --seed 1 --seconds 25 --trace 0

Closed loop, one client: the next request starts when the previous one
has finished.  Set-up runs in separate interpreters (five, with
different hash seeds, which must write byte-identical inputs), so the
timed phase never inherits a cache that generation warmed.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the same requests untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5
STARTUP_PROBES = 5
# The fiber cache is emptied every SESSION requests, as if each session ran
# in a fresh process.  Peak memory then measures one session and does not
# grow with the number of requests a faster or slower run gets through.
SESSION = 200


def _child_env(hash_seed: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def generate_into(workload: str, seed: int, seconds: int, directory: Path) -> None:
    """The set-up child: build the requests and write them (and CLI input files).

    Prints the seconds from the start of generation to the last file
    written; interpreter start and the engine import are not set-up of the
    workload (``cli.interpreter_s`` and ``cli.import_s`` measure them).
    """
    import workloads

    started = time.perf_counter()
    requests = workloads.generate(workload, seed, seconds)
    if workload == "cli-cold":
        workloads.write_inputs(requests, directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "corpus.json").write_text(json.dumps(requests, sort_keys=True), encoding="utf-8")
    print(time.perf_counter() - started)


def setup(workload: str, seed: int, seconds: int, work: Path, reps: int) -> tuple[list[dict], list[float], bool]:
    """Run set-up ``reps`` times in fresh interpreters; return requests, times, determinism."""
    times, texts = [], []
    for rep in range(reps):
        directory = work / f"rep{rep}"
        argv = [sys.executable, str(HERE / "run.py"), "--generate", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--out", str(directory)]
        out = subprocess.run(argv, cwd=ROOT, env=_child_env(str(rep)), check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out))
        texts.append((directory / "corpus.json").read_bytes())
    return json.loads(texts[-1]), times, len(set(texts)) == 1


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Loop:
    """Requests issued one after another, with their failures, latencies and cache use."""

    requests: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    busy: float = 0.0
    fiber_hits: int = 0
    fiber_misses: int = 0

    def end_session(self) -> None:
        """Count the fiber cache's hits and misses, then empty it."""
        from modtriples.divisors import _fiber_cached

        info = _fiber_cached.cache_info()
        self.fiber_hits += info.hits
        self.fiber_misses += info.misses
        _fiber_cached.cache_clear()

    def run(self, runner, requests: list[dict], start: int = 0, stop: int | None = None,
            seconds: float | None = None, tracer=None) -> int:
        """Issue requests ``start``, ``start + 1``, ... (cycling through the list)
        until index ``stop`` or until the busy time reaches ``seconds``.

        Each pass over the list, and each session of SESSION requests,
        starts with an empty fiber cache.  Every answer is checked right
        after its request, outside the timed part.  Returns the next index.
        """
        clock = time.perf_counter
        i = start
        while (stop is None or i < stop) and (seconds is None or self.busy < seconds):
            if i % len(requests) == 0 or i % SESSION == 0:
                self.end_session()
            req = requests[i % len(requests)]
            if tracer is not None:
                tracer.request_id = i
            started = clock()
            try:
                result = runner.execute(req)
            except Exception:  # a crash is a wrong answer
                result = None
            elapsed = clock() - started
            self.busy += elapsed
            self.latencies.append(elapsed)
            self.failed += result is None or not runner.check(req, result)
            self.requests += 1
            i += 1
        self.end_session()
        return i


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def properties(workload: str, requests: list[dict], loop: Loop) -> dict:
    """Workload properties that claims cite, over the requests actually run."""
    ran = [requests[i % len(requests)] for i in range(loop.requests)]
    props: dict = {"requests": len(ran)}
    busy: dict = {}
    for req, elapsed in zip(ran, loop.latencies):
        key = req.get("suite", req["kind"])
        busy[key] = busy.get(key, 0.0) + elapsed
    props["busy_share_by_kind"] = {k: v / loop.busy for k, v in sorted(busy.items())}
    if workload != "cli-cold":
        props["fiber_cache_hit_ratio"] = loop.fiber_hits / max(1, loop.fiber_hits + loop.fiber_misses)
    if workload in ("decide-json", "cli-cold"):
        import answers

        props["negative_share"] = sum(answers.expected_exit(r) == 1 for r in ran) / len(ran)
        props["malformed_share"] = sum(r["kind"] == "malformed" for r in ran) / len(ran)
        levels = sorted(r["expect"]["level"] for r in ran if r["kind"] == "min-compactify")
        if len(levels) >= 2:
            q = statistics.quantiles(levels, n=4)
            props["compactify_levels"] = {"min": levels[0], "q1": q[0], "median": q[1],
                                          "q3": q[2], "max": levels[-1], "mean": statistics.mean(levels)}
    return props


def _probe_startup() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of ``import modtriples.cli`` inside one."""
    env = _child_env("0")
    bare, imports = [], []
    code = "import time; t = time.perf_counter(); import modtriples.cli; print(time.perf_counter() - t)"
    for _ in range(STARTUP_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        bare.append(time.perf_counter() - started)
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return statistics.median(bare), statistics.median(imports)


def known_defects(requests: list[dict], work: Path) -> list[dict]:
    """Run the known exit-code defects apart from the workload and report them."""
    import workloads

    runner = workloads.CliRunner(ROOT, work)
    out = []
    for req in requests:
        code, text = runner.execute(req)
        out.append({"name": req["name"], "exit": code, "expected_exit": req["expect"]["exit"],
                    "traceback": "Traceback" in text})
    return out


def emit(head: dict, metrics: dict[str, tuple[float, str]], attempted: int, failed: int) -> None:
    """Readable lines, then the result as one JSON line."""
    for key, value in head.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    print(f"fail_frac: {failed / attempted:.6g} (failed {failed} of {attempted} requests)")
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))


def run_untraced(workload, seed, seconds, work) -> None:
    import workloads

    requests, setup_times, deterministic = setup(workload, seed, seconds, work, SETUP_REPS)
    defects = [r for r in requests if r["kind"] == "known-defect"]
    requests = [r for r in requests if r["kind"] != "known-defect"]
    runner = workloads.runner_for(workload, ROOT, work / f"rep{SETUP_REPS - 1}", traced=False)
    loop = Loop()
    loop.run(runner, requests, seconds=seconds)
    if workload == "cli-cold":
        peak_kb = runner.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = loop.failed + (not deterministic)
    head = {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
            "closed_loop_clients": 1, "setup_reps_s": [round(t, 6) for t in setup_times],
            "deterministic_setup": deterministic, "properties": properties(workload, requests, loop)}
    if defects:
        head["known_defects"] = known_defects(defects, work / f"rep{SETUP_REPS - 1}")
    q = statistics.quantiles(loop.latencies, n=10)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (loop.requests / loop.busy, "1/s"),
        "latency_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "latency_p90_ms": (q[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    emit(head, metrics, loop.requests, failed)


def run_traced(workload, seed, seconds, work) -> None:
    import layers
    import workloads
    from tracer import Tracer

    requests, _, deterministic = setup(workload, seed, seconds, work, 1)
    requests = [r for r in requests if r["kind"] != "known-defect"]
    runner = workloads.runner_for(workload, ROOT, work / "rep0", traced=True)
    # Untraced and traced passes alternate session by session over the same
    # requests, so a slow phase of the machine hits both alike.
    plain, traced, tracer = Loop(), Loop(), Tracer()
    start = 0
    while plain.busy < seconds / 2:
        stop = plain.run(runner, requests, start, start + SESSION, seconds / 2)
        tracer.install(layers.targets())
        try:
            traced.run(runner, requests, start, stop, tracer=tracer)
        finally:
            tracer.restore()
        start = stop
    failed = plain.failed + traced.failed + (not deterministic)
    records, skipped = getattr(runner, "records", 0), getattr(runner, "skipped", 0)
    interpreter_s, import_s = _probe_startup()
    extra = {
        "fiber_cache": (traced.fiber_hits, traced.fiber_misses),
        "suite_records": (records - skipped, records),
        "interpreter_s": interpreter_s,
        "import_s": import_s,
        "overhead_frac": traced.busy / plain.busy - 1,
    }
    values = layers.derive(tracer, extra)
    tracer.write(OUT / f"spans-{workload}-{seed}")
    units = {name: unit for name, unit, _ in layers.metric_specs()}
    props = properties(workload, requests, traced)
    props["factor_calls_by_degree"] = layers.factor_histogram(tracer)
    props["spans"] = len(tracer.name)
    head = {"workload": workload, "seed": seed, "seconds": seconds, "trace": 1,
            "traced_requests": traced.requests, "properties": props}
    metrics = {name: (values[name], units[name]) for name in values}
    emit(head, metrics, plain.requests + traced.requests, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modtriples" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.generate:
        generate_into(args.workload, args.seed, args.seconds, Path(args.out))
        return 0
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            run_traced(args.workload, args.seed, args.seconds, work)
        else:
            run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
