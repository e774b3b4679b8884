"""Benchmark of ``multiconn`` CLI jobs: one command per workload and seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_outage --seed 1 --seconds 15 \\
        --trace 0

Workloads (job mixes and reasons are listed in BENCHMARK.json):
``mc_outage``, ``exact_solve``, ``trace_cdf`` and ``analytic_sweep``.

The seed drives ``jobs.py``, which writes argv lists and trace CSVs; the
program receives only those. ``worker.py`` runs the jobs in one process as
a closed loop with one caller, in whole passes over the job list until
``--seconds`` have elapsed (so a run may last up to one pass longer). Set-up
time is the median over seven fresh worker processes of the time from
process start to ``import multiconn.cli`` plus one warm-up job done.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from one untraced and one traced
pass of the same jobs, plus import times from ``python -X importtime``.
Earlier lines print every metric by name and unit, ``failed_frac`` and an
environment record. Every output is checked (see ``check.py``); a job that
exits nonzero, raises, or fails the check counts in ``failed``.

Results and span files are also written to ``.perfbench/out/``; trace
files and job outputs live in ``.perfbench/work/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
import jobs as jobgen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
STATE_DIR = ".perfbench"

NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {var: str(NPROC) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
# The whole run, set-up included, must end well inside 180 s.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _prepare(workdir: str, workload: str, seed: int, trace: bool,
             seconds: float):
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    os.makedirs(os.path.join(STATE_DIR, "out"), exist_ok=True)
    job_list = jobgen.generate(workload, seed, workdir)
    spec = {"warmup": jobgen.WARMUP[workload], "jobs": job_list,
            "trace": trace, "seconds": seconds, "outdir": outdir,
            "result_path": os.path.join(workdir, "result.json"),
            "spans_path": os.path.join(STATE_DIR, "out",
                                       f"spans-{workload}-s{seed}.json")}
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    return spec, spec_path


def _worker(spec_path: str, setup_only: bool, deadline: float) -> float:
    """Run one worker process to completion; return its set-up seconds."""
    cmd = [sys.executable, WORKER, spec_path]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode} "
                         f"(set-up line {line.strip()!r})")
    return ready


@contextlib.contextmanager
def execute(workload: str, seed: int, seconds: float, trace: bool,
            setup_samples: int):
    """Generate and run one run; yield (spec, result, set-up samples).

    The work directory, with the trace files and job outputs, is removed
    when the block exits.
    """
    workdir = os.path.join(STATE_DIR, "work", f"{workload}-s{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        deadline = time.monotonic() + RUN_DEADLINE_S
        spec, spec_path = _prepare(workdir, workload, seed, trace, seconds)
        samples = [_worker(spec_path, True, deadline)
                   for _ in range(setup_samples - 1)]
        samples.append(_worker(spec_path, False, deadline))
        with open(spec["result_path"], encoding="utf-8") as handle:
            result = json.load(handle)
        yield spec, result, samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def single_pass(workload: str):
    """One untimed pass at the default seed: (jobs, outputs)."""
    with execute(workload, jobgen.DEFAULT_SEED, 0.0, False, 1) as (spec, _, _):
        outputs = [_read(spec["outdir"], i) for i in range(len(spec["jobs"]))]
    return spec["jobs"], outputs


def _read(outdir: str, idx: int) -> str:
    with open(os.path.join(outdir, f"{idx:03d}.out"), encoding="utf-8") as h:
        return h.read()


def evaluate(spec: dict, result: dict, refs: dict) -> dict:
    """Check every job output; count points, failures and identical CSVs."""
    job_list = spec["jobs"]
    first = {r[0]: r for r in result["records"] if r[1] == 0}
    good, pts, identical, problems = {}, {}, 0, []
    for idx, job in enumerate(job_list):
        text = _read(spec["outdir"], idx)
        rec = first[idx]
        found, same = check.check(job, text, refs.get(job["key"]))
        if rec[3] != 0:
            found = [f"exit {rec[3]}: {rec[6]}"] + found
        identical += same
        good[idx] = not found
        if found:
            problems.append(f"job {job['key']} {' '.join(job['argv'])}: "
                            f"{'; '.join(found[:3])}")
        try:
            pts[idx] = check.points(check.parse(job, text))
        except ValueError:
            pts[idx] = 0
    failed = sum(1 for r in result["records"]
                 if not good[r[0]] or r[3] != 0 or r[4] != first[r[0]][4])
    return {"points": pts, "failed": failed, "identical": identical,
            "problems": problems, "attempted": len(result["records"])}


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict, stats: dict, samples) -> dict:
    records = result["records"]
    times = [r[2] for r in records]
    return {
        "setup_s": statistics.median(samples),
        "points_per_s": sum(stats["points"][r[0]] for r in records)
        / sum(times),
        "job_p50_ms": 1e3 * statistics.median(times),
        "job_p90_ms": 1e3 * _nearest_rank(times, 0.9),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }


def _parse_importtime(stderr: str) -> tuple[int, int]:
    """(multiconn, scipy) microseconds from ``-X importtime`` output.

    multiconn: cumulative time of the top-level ``multiconn*`` imports.
    scipy: cumulative time of each scipy import not nested in another, so
    what scipy pulls in with it is counted once.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        self_us, cum_us, name = parts
        if self_us.strip().isdigit():  # skips the column header
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            entries.append((depth, name.strip(), int(cum_us)))
    ours = sum(cum for depth, name, cum in entries
               if depth == 0 and name.split(".")[0] == "multiconn")
    scipy = 0
    # Output is post-order (children before parents); walk it backwards so
    # every entry is seen after its enclosing imports.
    stack: list[tuple[int, bool]] = []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy += cum
        stack.append((depth, inside or is_scipy))
    return ours, scipy


def import_times() -> dict:
    """Median import cost of ``multiconn.cli`` and of scipy inside it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import multiconn.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        samples.append(_parse_importtime(proc.stderr))
    return {"import.multiconn_s": statistics.median(s[0] for s in samples)
            / 1e6,
            "import.scipy_s": statistics.median(s[1] for s in samples) / 1e6}


def per_layer(spec: dict, result: dict, stats: dict) -> dict:
    with open(spec["spans_path"], encoding="utf-8") as handle:
        metrics = tracing.layer_metrics(json.load(handle))
    traced = [r for r in result["records"] if r[1] == 1]
    untraced = [r for r in result["records"] if r[1] == 0]
    metrics.update(import_times())
    metrics["cli.bytes_out"] = sum(r[5] for r in traced)
    metrics["cli.csv_identical"] = stats["identical"]
    metrics["trace.overhead_frac"] = (sum(r[2] for r in traced)
                                      / sum(r[2] for r in untraced) - 1.0)
    return metrics


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            def read(name):
                with open(os.path.join(base, entry, name)) as handle:
                    return handle.read().strip()
            if read("type") in ("Unified", "Data"):
                sizes[f"L{read('level')}"] = read("size")
    except OSError:
        pass
    return sizes


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    data = handle.read()
                digest.update(data)
                lines += data.count(b"\n")
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": NPROC, "cpu_model": model, "cache": _cache_sizes(),
            "python": platform.python_version(), **versions,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "thread_caps": THREAD_CAPS}


def _units(trace: bool) -> dict:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=jobgen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "multiconn", "cli.py")):
        print("perfbench: no src/multiconn here; run from the root of a "
              "multiconn checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    units = _units(bool(args.trace))
    try:
        with execute(args.workload, args.seed, args.seconds,
                     bool(args.trace), SETUP_SAMPLES) as (spec, result,
                                                          samples):
            stats = evaluate(spec, result,
                             check.load_references(args.workload))
        if args.trace:
            metrics = per_layer(spec, result, stats)
        else:
            metrics = end_to_end(result, stats, samples)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [n for n in units if n not in metrics]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1

    for problem in stats["problems"]:
        print(f"FAIL {problem}")
    env = environment()
    failed_frac = stats["failed"] / stats["attempted"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['passes']} jobs_per_pass={len(spec['jobs'])} "
          f"attempted={stats['attempted']}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac = {failed_frac:.6g} ratio")
    print("env " + json.dumps(env, sort_keys=True))
    report = {"correct": stats["failed"] == 0,
              "attempted": stats["attempted"], "failed": stats["failed"],
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in units}}
    with open(os.path.join(STATE_DIR, "out", f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as handle:
        json.dump(dict(report, seed=args.seed, workload=args.workload,
                       passes=result["passes"], failed_frac=failed_frac,
                       env=env), handle, indent=1, sort_keys=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
