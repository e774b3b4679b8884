"""Seeded job generator for the four benchmark workloads.

A job is one ``multiconn`` CLI invocation, given as an argv list. The
generator knows only the documented CLI surface (flags, CSV column naming,
trace file format); it never imports the program. Every parameter is drawn
from ``random.Random(f"{workload}:{seed}")``, so the same seed always gives
the same jobs and the same trace files.

Parameters are drawn by stratified (Latin-hypercube) sampling: each job
takes one stratum of every range. Which job gets which stratum, and the
categorical choices (combiner, link count, job type), are fixed by the
workload's design and do not depend on the seed. The seed moves each value
within the middle quarter of its stratum (a tenth for trace sizes) and draws
the values that do not set a job's cost: Monte-Carlo seeds, distances,
outage-target pairs and trace contents. Every seed thus gets nearly the same
job sizes, which keeps a pass's cost and the latency percentiles steady
from seed to seed; without this, the percentiles moved by up to 60% between
seeds.

Preset and ``selftest`` jobs use fixed argv at every seed.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("mc_outage", "exact_solve", "trace_cdf", "analytic_sweep")

#: Seed whose outputs are stored as references in ``reference/``.
DEFAULT_SEED = 1

TRACE_HEADER = ["measurement_id", "bs_id", "avg_snr_db"]

# One warm-up job per workload; it is part of ``setup_s`` and not measured.
WARMUP = {
    "mc_outage": ["outage", "--method", "mc", "--mc-samples", "10000",
                  "--snr-db-range", "0:10:2"],
    "exact_solve": ["outage", "--method", "exact", "--n-links", "2",
                    "--snr-db-range", "0:10:2"],
    "trace_cdf": ["cdf", "--synth-measurements", "100", "--synth-bs", "4",
                  "--rate", "1"],
    "analytic_sweep": ["gain", "--rate-range", "0.5:2:2"],
}

# Root-finder rate tolerance of ``throughput --method exact`` (bisection
# xtol, in source samples per symbol); exact-root cells may move by this much
# times the bandwidth without the route having changed.
_ROOT_RATE_TOL = 2e-6
_BANDWIDTH = 20e6


def _strata(rng: random.Random, k: int, label: str,
            jitter: float = 0.25) -> list[float]:
    """k uniforms on [0, 1), one per stratum of width 1/k.

    Job i's stratum is fixed by ``label``; the seed moves the value within
    the middle ``jitter`` share of it.
    """
    order = list(range(k))
    random.Random(f"{label}:{k}").shuffle(order)
    return [(p + 0.5 + jitter * (rng.random() - 0.5)) / k for p in order]


def _balanced(values, k: int, label: str) -> list:
    """k picks from ``values``, counts differing by at most one, in an
    order fixed by ``label``."""
    picks = [values[i % len(values)] for i in range(k)]
    random.Random(f"{label}:{k}").shuffle(picks)
    return picks


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _num(x: float) -> str:
    """Short decimal text for an argv value."""
    return repr(round(x, 3))


def _p_text(p: float) -> str:
    # CLI gain columns name outage targets with '{p:.0e}'.
    return f"{p:.0e}"


def _job(argv, command, header=None, rows=None, **extra) -> dict:
    job = {"argv": [str(a) for a in argv], "command": command,
           "header": header, "rows": rows}
    job.update(extra)
    return job


def _fixed(key: str, argv, command) -> dict:
    # Header and row count of fixed jobs come from their stored reference.
    return _job(argv, command, key=key)


def _outage_header(plan) -> list[str]:
    header = ["snr_db"]
    for combiner, n, method in plan:
        header.append(f"{combiner}_n{n}_{method}")
        if method == "mc":
            header.append(f"{combiner}_n{n}_{method}_ci")
    return header + ["flags"]


def _plan_n(combiner: str, n: int) -> int:
    # SCo is the single-link baseline whatever the link count.
    return 1 if combiner == "sco" else n


# --------------------------------------------------------------- mc_outage

def _mc_outage(rng: random.Random) -> list[dict]:
    k = 120
    combiners = _balanced(["jd", "sc", "mrc", "sco"], k, "mc.combiner")
    links = _balanced(list(range(2, 9)), k, "mc.links")
    u_samples = _strata(rng, k, "mc.samples")
    u_rate, u_start, u_span = (_strata(rng, k, f"mc.{d}")
                               for d in ("rate", "start", "span"))
    jobs = []
    for i in range(k):
        c, n = combiners[i], links[i]
        samples = int(round(_log_uniform(1e4, 2e6, u_samples[i])))
        # The grid shrinks as the per-point sample count grows, so the
        # largest jobs stay near 2 x 2e6 rows.
        pts = round(10 - 8 * u_samples[i])
        rate = round(0.5 + 7.5 * u_rate[i], 2)
        start = round(3 * rate - 5 + 15 * u_start[i])
        stop = start + round(10 + 20 * u_span[i])
        argv = ["outage", "--method", "mc", "--combiner", c,
                "--n-links", n, "--rate", _num(rate),
                "--snr-db-range", f"{start}:{stop}:{pts}",
                "--mc-samples", samples, "--seed", rng.randrange(10**6)]
        jobs.append(_job(argv, "outage",
                         header=_outage_header([(c, _plan_n(c, n), "mc")]),
                         rows=pts))
    rng.shuffle(jobs)
    jobs.append(_fixed("fig2a", ["outage", "--preset", "fig2a"], "outage"))
    jobs.append(_fixed("selftest", ["selftest"], "selftest"))
    return jobs


# ------------------------------------------------------------- exact_solve

def _exact_solve(rng: random.Random) -> list[dict]:
    jobs = []

    def outage_jobs(label, count, combiner, links, max_rate, max_pts,
                    distances=None):
        # Rate, SNR and grid size all set the quadrature cost.
        u_rate, u_start, u_span, u_pts = (
            _strata(rng, count, f"{label}.{d}")
            for d in ("rate", "start", "span", "pts"))
        ns = _balanced(links, count, f"{label}.links")
        for i in range(count):
            n = ns[i]
            rate = round(0.5 + (max_rate - 0.5) * u_rate[i], 2)
            pts = 2 + int(u_pts[i] * (max_pts - 1))
            start = round(-5 + 25 * u_start[i])
            stop = start + round(10 + 20 * u_span[i])
            argv = ["outage", "--method", "exact", "--combiner", combiner,
                    "--n-links", n, "--rate", _num(rate),
                    "--snr-db-range", f"{start}:{stop}:{pts}"]
            if distances:
                argv += ["--distances", distances(n)]
            jobs.append(_job(argv, "outage", header=_outage_header(
                [(combiner, n, "exact")]), rows=pts))

    def near_equal(n):
        # Relative SNR gaps of ~1e-6..1e-5: between the equal and distinct
        # tolerances, so MRC takes the degenerate-spacing convolution.
        step = 10 ** rng.uniform(-6.5, -5.5)
        return ",".join(repr(1.0 + j * step) for j in range(n))

    def spread(n):
        return ",".join(_num(1.0 + 0.4 * j + 0.1 * rng.random())
                        for j in range(n))

    outage_jobs("jd2", 16, "jd", [2], 4.0, 10)
    outage_jobs("jd3", 16, "jd", [3], 4.0, 10)
    outage_jobs("jd4", 14, "jd", [4], 4.0, 6)
    # Closed forms take well under a millisecond; few enough of them that
    # the median job is a quadrature or root-finding job of 1-8 ms.
    outage_jobs("sc", 6, "sc", list(range(2, 9)), 8.0, 10)
    outage_jobs("mrc", 3, "mrc", list(range(2, 9)), 8.0, 10)
    outage_jobs("mrcd", 3, "mrc", list(range(2, 9)), 8.0, 10,
                distances=spread)
    outage_jobs("mrcx", 12, "mrc", [2, 3, 4], 4.0, 6, distances=near_equal)

    def throughput_jobs(label, count, combiners, links, max_pts,
                        snr_db=(10.0, 22.0), jitter=0.25):
        u_start, u_span, u_pts = (
            _strata(rng, count, f"{label}.{d}", jitter=jitter)
            for d in ("start", "span", "pts"))
        u_out = _strata(rng, count, f"{label}.outage", jitter=jitter)
        cs = _balanced(combiners, count, f"{label}.combiner")
        ns = _balanced(links, count, f"{label}.links")
        for i in range(count):
            c, n = cs[i], ns[i]
            p_out = float(_p_text(_log_uniform(1e-4, 1e-2, u_out[i])))
            pts = 2 + int(u_pts[i] * (max_pts - 1))
            start = round(snr_db[0] + (snr_db[1] - snr_db[0]) * u_start[i],
                          1)
            stop = round(min(30.0, start + 2 + 8 * u_span[i]), 1)
            argv = ["throughput", "--method", "exact", "--combiner", c,
                    "--n-links", n, "--outage", _p_text(p_out),
                    "--snr-db-range", f"{start}:{stop}:{pts}"]
            jobs.append(_job(
                argv, "throughput",
                header=["snr_db", f"{c}_n{_plan_n(c, n)}_exact_bps", "flags"],
                rows=pts,
                root_tol_bps=_ROOT_RATE_TOL * _BANDWIDTH * (1 - p_out)))

    throughput_jobs("tjd2", 20, ["jd"], [2], 6)
    # Exact JD throughput at N = 3 is the costliest job type (about 0.2 s
    # per point at 10 dB). Its 14 jobs are the top 14 of the pass, so p90
    # falls among them, on jobs of one type and tightly held SNRs.
    throughput_jobs("tjd3", 14, ["jd"], [3], 2, snr_db=(10.0, 18.0),
                    jitter=0.2)
    throughput_jobs("tscmrc", 10, ["sc", "mrc"], list(range(2, 9)), 6)
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------- trace_cdf

def write_trace(path: str, rng: random.Random, m: int, n_bs: int,
                missing: float) -> dict[int, int]:
    """Write one trace CSV; return {links per measurement: count}.

    SNRs are quantised to 0.25 dB so equal values (and the bs-id tie-break)
    occur. A share ``missing`` of (measurement, BS) rows is dropped, and
    one measurement in 25 keeps only one to three links, so CDFs over more
    links skip some measurements.
    """
    offsets = [rng.gauss(0.0, 4.0) for _ in range(n_bs)]
    links_hist: dict[int, int] = {}
    mid = rng.randrange(1000)
    lines = ["# synthetic field trial, generated by perfbench",
             ",".join(TRACE_HEADER)]
    for _ in range(m):
        mid += 1 + rng.randrange(3)
        bss = [b for b in range(n_bs) if rng.random() >= missing]
        if rng.random() < 0.04:
            bss = bss[:1 + rng.randrange(3)]
        if not bss:
            bss = [rng.randrange(n_bs)]
        rng.shuffle(bss)
        for b in bss:
            snr = round((21.0 + offsets[b] + rng.gauss(0.0, 5.0)) * 4) / 4
            lines.append(f"{mid},BS{b:02d},{snr!r}")
        links_hist[len(bss)] = links_hist.get(len(bss), 0) + 1
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return links_hist


def _trace_cdf(rng: random.Random, workdir: str) -> list[dict]:
    n_traces, k = 14, 84
    jobs = []
    # Trace size sets the cost (grouping scans every record per
    # measurement, so it grows as M^2 x BS): sizes barely move with the seed.
    dims = ("m", "bs", "missing")
    u_m, u_bs, u_miss = (_strata(rng, n_traces, f"trace.{d}", jitter=0.1)
                         for d in dims)
    # Six cdf jobs per trace, except: the costliest trace gets twelve and
    # the next two get three each. p90 of a pass then falls among the jobs
    # on the costliest trace instead of on the step between two traces,
    # where it jumped by 20% with timing noise.
    centre = [_strata(random.Random(0), n_traces, f"trace.{d}", jitter=0.0)
              for d in dims]
    cost = [_log_uniform(100, 2000, centre[0][t]) ** 2
            * _log_uniform(4, 32, centre[1][t]) * (1 - 0.15 * centre[2][t])
            for t in range(n_traces)]
    by_cost = sorted(range(n_traces), key=cost.__getitem__, reverse=True)
    per_trace = [6] * n_traces
    per_trace[by_cost[0]] = 12
    per_trace[by_cost[1]] = per_trace[by_cost[2]] = 3
    metrics = _balanced(["outage", "throughput"], k, "cdf.metric")
    combiners = _balanced(["jd", "sc", "mrc", "sco"], k, "cdf.combiner")
    links = _balanced([1, 2, 3, 4], k, "cdf.links")
    u_param = _strata(rng, k, "cdf.param")
    first = 0
    for t in range(n_traces):
        m = round(_log_uniform(100, 2000, u_m[t]))
        n_bs = round(_log_uniform(4, 32, u_bs[t]))
        path = os.path.join(workdir, f"trace_{t:02d}.csv")
        hist = write_trace(path, rng, m, n_bs, 0.15 * u_miss[t])
        first += per_trace[t]
        for j in range(first - per_trace[t], first):
            metric, c = metrics[j], combiners[j]
            n_eff = _plan_n(c, links[j])
            skipped = sum(cnt for n_links, cnt in hist.items()
                          if n_links < n_eff)
            if metric == "outage":
                metric_args = ["--rate", _num(0.5 + 3.5 * u_param[j])]
            else:
                p = _p_text(_log_uniform(1e-5, 1e-2, u_param[j]))
                metric_args = ["--outage", p]
            argv = ["cdf", "--trace", path, "--combiner", c,
                    "--n-links", links[j]] + metric_args
            jobs.append(_job(argv, "cdf", rows=m - skipped,
                             blocks=[[metric, c, n_eff, skipped]]))
    u_m, u_bs = (_strata(rng, n_traces, f"synth.{d}", jitter=0.1)
                 for d in ("m", "bs"))
    u_mean = _strata(rng, n_traces, "synth.mean")
    for t in range(n_traces):
        m = round(_log_uniform(50, 500, u_m[t]))
        n_bs = round(_log_uniform(4, 16, u_bs[t]))
        out = os.path.join(workdir, f"synth_{t:02d}.csv")
        argv = ["synth-trace", "--measurements", m, "--bs", n_bs,
                "--seed", rng.randrange(10**6),
                "--mean-db", _num(15 + 10 * u_mean[t]), "--out", out]
        jobs.append(_job(argv, "synth-trace", header=TRACE_HEADER,
                         rows=m * n_bs, out_file=out))
    rng.shuffle(jobs)
    jobs.append(_fixed("fig5c", ["cdf", "--preset", "fig5c"], "cdf"))
    jobs.append(_fixed("fig5d", ["cdf", "--preset", "fig5d"], "cdf"))
    return jobs


# ---------------------------------------------------------- analytic_sweep

def _analytic_sweep(rng: random.Random) -> list[dict]:
    jobs = []

    # gain: 45 jobs over the three kinds, N = 2..8, grids of 10..2000 points.
    k = 45
    kinds = _balanced(["mco-sco", "jd-sc", "jd-mrc"], k, "gain.kind")
    links = _balanced(list(range(2, 9)), k, "gain.links")
    targets = _balanced([1, 2], k, "gain.targets")
    u_steps = _strata(rng, k, "gain.steps")
    u_lo, u_hi = (_strata(rng, k, f"gain.{d}") for d in ("lo", "hi"))
    for i in range(k):
        kind, n = kinds[i], links[i]
        steps = round(_log_uniform(10, 2000, u_steps[i]))
        lo, hi = round(0.5 + 1.5 * u_lo[i], 2), round(10 + 15 * u_hi[i], 2)
        argv = ["gain", "--kind", kind, "--n-links", n,
                "--rate-range", f"{lo}:{hi}:{steps}"]
        name = f"{kind.replace('-', '_')}_n{n}"
        if kind == "mco-sco":
            ps = rng.sample([1e-2, 1e-3, 1e-4, 1e-5, 1e-6], targets[i])
            for p in ps:
                argv += ["--outage", _p_text(p)]
            header = ["rate"] + [f"{name}_p{_p_text(p)}_db" for p in ps]
        else:
            header = ["rate", f"{name}_db"]
        jobs.append(_job(argv, "gain", header=header, rows=steps))

    # dmt --empirical: 15 jobs; their table shapes are part of the design.
    shapes = random.Random("dmt.shapes")
    for _ in range(15):
        combiners = shapes.sample(["jd", "sc", "mrc"], 1 + shapes.randrange(3))
        ns = sorted(shapes.sample(range(1, 9), 1 + shapes.randrange(2)))
        steps = 2 + shapes.randrange(20)
        lo = 60 + rng.randrange(21)
        argv = ["dmt", "--empirical", "--steps", steps,
                "--snr-db-range", f"{lo}:{lo + 10 + rng.randrange(11)}:"
                                  f"{2 + rng.randrange(4)}"]
        for c in combiners:
            argv += ["--combiner", c]
        for n in ns:
            argv += ["--n-links", n]
        jobs.append(_job(argv, "dmt",
                         header=["combiner", "n_links", "r", "d_analytic",
                                 "d_empirical"],
                         rows=len(combiners) * len(ns) * steps))

    def sweep_jobs(count, command, method_sets):
        u_steps = _strata(rng, count, f"{command}.steps")
        u_start, u_p = (_strata(rng, count, f"{command}.{d}")
                        for d in ("start", "p"))
        picks = _balanced(method_sets, count, f"{command}.methods")
        ns = _balanced(list(range(2, 9)), count, f"{command}.links")
        for i in range(count):
            combiners, methods = picks[i]
            n = ns[i]
            steps = round(_log_uniform(10, 500, u_steps[i]))
            start = round(-5 + 25 * u_start[i])
            argv = [command, "--n-links", n,
                    "--snr-db-range", f"{start}:{start + 40}:{steps}"]
            for c in combiners:
                argv += ["--combiner", c]
            for m in methods:
                argv += ["--method", m]
            if command == "outage":
                argv += ["--rate", _num(0.5 + 7.5 * u_p[i])]
            else:
                argv += ["--outage", _p_text(_log_uniform(1e-5, 1e-2,
                                                          u_p[i]))]
            plan = []
            for c in combiners:
                for m in methods:
                    if (c, _plan_n(c, n), m) not in plan:
                        plan.append((c, _plan_n(c, n), m))
            if command == "outage":
                header = _outage_header(plan)
            else:
                header = (["snr_db"] + [f"{c}_n{pn}_{m}_bps"
                                        for c, pn, m in plan] + ["flags"])
            jobs.append(_job(argv, command, header=header, rows=steps))

    sweep_jobs(25, "throughput", [
        (["jd"], ["asymptotic", "paper-approx"]),
        (["jd"], ["paper-approx"]),
        (["sc", "mrc"], ["asymptotic"]),
        (["jd", "sco"], ["asymptotic"]),
        (["mrc"], ["asymptotic"]),
    ])
    sweep_jobs(35, "outage", [
        (["jd"], ["asymptotic", "bound"]),
        (["mrc"], ["asymptotic", "bound"]),
        (["sc", "sco"], ["asymptotic"]),
        (["jd", "mrc"], ["bound"]),
        (["jd", "sc", "mrc", "sco"], ["asymptotic"]),
    ])
    rng.shuffle(jobs)
    jobs.append(_fixed("fig2b", ["throughput", "--preset", "fig2b"],
                       "throughput"))
    jobs.append(_fixed("fig3a", ["gain", "--preset", "fig3a"], "gain"))
    jobs.append(_fixed("fig3b", ["gain", "--preset", "fig3b"], "gain"))
    return jobs


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Return the job list of one pass; write its trace files to workdir.

    Each job is a dict with ``argv``, ``command``, ``key`` (stable name used
    to look up a stored reference), expected ``header`` and ``rows`` where
    the generator can state them, and route-specific fields used by the
    output check.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc_outage":
        jobs = _mc_outage(rng)
    elif workload == "exact_solve":
        jobs = _exact_solve(rng)
    elif workload == "trace_cdf":
        jobs = _trace_cdf(rng, workdir)
    else:
        jobs = _analytic_sweep(rng)
    for i, job in enumerate(jobs):
        job.setdefault("key", f"s{seed}-{i:03d}")
    return jobs
