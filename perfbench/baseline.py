"""Record the benchmark's baseline in ``perfbench/baseline.json``.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py

Runs every workload at the default seed and at seed 2, end to end and
traced, with the run length from BENCHMARK.json. The traced run at the
default seed is made twice, and the counts that must repeat exactly per
seed are compared between the two.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (jobs.DEFAULT_SEED, 2)
REPEATED_COUNTS = ("outage.mc_events", "link_model.rows",
                   "throughput.evals_per_root",
                   "special_functions.inv_evals_per_call")


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    result = json.loads(lines[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "env": env}


def main() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    runs, repeats = [], {}
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                runs.append(run(workload, seed, trace, seconds))
        again = run(workload, jobs.DEFAULT_SEED, 1, seconds)
        first = next(r for r in runs if r["workload"] == workload
                     and r["seed"] == jobs.DEFAULT_SEED and r["trace"] == 1)
        repeats[workload] = {name: first["metrics"][name]
                             == again["metrics"][name]
                             for name in REPEATED_COUNTS}
    env = runs[0]["env"]
    for r in runs:
        del r["env"]
    with open(os.path.join(HERE, "baseline.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"run_seconds": seconds, "env": env,
                   "counts_repeat_exactly": repeats, "runs": runs},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
