"""Run the benchmark twice over ten seeds per workload and summarise it as one JSON file.

    python3 perfbench/sweep.py --out perfbench/out/sweep.json

Each of the two passes runs seeds 1-10 of every workload declared in
``BENCHMARK.json``, for its ``run_seconds``, interleaved: seed 1 of every
workload, then seed 2, and so on.  A slow phase of the machine then lands
on one seed of several workloads rather than on several seeds of one.
For each pass and workload the file holds every run's last line, and the
median, quartiles and spread (quartile distance over median) of each
end-to-end metric.  It also holds, per workload and metric, how much worse
the second pass's median is than the first's, as a share of the first.
Last comes one traced run of seed 1 per workload, and the machine: CPU
count, CPU model and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
PASSES = 2
TRACED_SEED = 1


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        if key in ("properties", "known_defects", "setup_reps_s"):
            result[key] = json.loads(value)
    result["seed"] = seed
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med}
    return out


def worsening(first: dict, second: dict, better: dict) -> dict:
    """How much worse each median of the second pass is, as a share of the first's."""
    out = {}
    for name, lower_is_better in better.items():
        a, b = first[name]["median"], second[name]["median"]
        out[name] = (b - a) / a if lower_is_better else (a - b) / a
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    report = {"machine": machine(), "seconds": seconds, "passes": []}
    for number in range(PASSES):
        runs = {w: [] for w in names}
        for seed in SEEDS:
            for workload in names:
                runs[workload].append(run_once(workload, seed, seconds, 0))
                print(number, workload, seed,
                      {k: round(v["value"], 4) for k, v in runs[workload][-1]["metrics"].items()},
                      file=sys.stderr, flush=True)
        report["passes"].append({w: {"summary": summarise(r), "runs": r} for w, r in runs.items()})
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    first, second = report["passes"][0], report["passes"][-1]
    report["worsening"] = {w: worsening(first[w]["summary"], second[w]["summary"], better) for w in names}
    report["traced"] = {w: run_once(w, TRACED_SEED, seconds, 1) for w in names}
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
