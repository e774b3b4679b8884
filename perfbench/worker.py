"""Benchmark worker: the one process that runs a workload's jobs.

Usage (started by run.py from the root of a checkout)::

    python3 perfbench/worker.py SPEC_JSON [--setup-only]

The worker imports ``multiconn.cli`` from ``src/``, runs the warm-up job and
prints ``ready``; the time from process start to that line is one set-up
sample. With ``--setup-only`` it then exits. Otherwise it runs the jobs as a
closed loop with one caller, calling ``multiconn.cli.main(argv)`` in-process
and starting each job only after the previous one returned:

* untraced (``trace`` false): whole passes over the job list until
  ``seconds`` have elapsed;
* traced: one untraced pass, then the same pass with every public function
  wrapped in spans; the spans are written to ``spans_path``.

Job outputs of the first pass are written to ``outdir``; later passes keep
only their SHA-256. Results go to ``result_path`` as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _import_cli():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import multiconn
    from multiconn import cli
    if not os.path.abspath(multiconn.__file__).startswith(src + os.sep):
        raise SystemExit(f"multiconn imported from {multiconn.__file__}, "
                         f"not from {src}")
    return cli


# One capture buffer per stream, reused by every job: click caches a wrapper
# per stream object for the life of the process, so a fresh buffer per job
# would keep every job's output alive.
_STDOUT, _STDERR = io.StringIO(), io.StringIO()


def run_job(cli, argv, out_file=None):
    """Run one job; return (seconds, exit code or None, output, error)."""
    for buf in (_STDOUT, _STDERR):
        buf.seek(0)
        buf.truncate()
    stdout, stderr = _STDOUT, _STDERR
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raised job is a failed job, not a crash
            code, error = None, repr(exc)
        elapsed = time.perf_counter() - start
    text = stdout.getvalue()
    if out_file is not None and code == 0:
        with open(out_file, encoding="utf-8") as handle:
            text = handle.read()
    if code != 0 and error is None:
        error = stderr.getvalue().strip()[-500:]
    return elapsed, code, text, error


def run_pass(cli, jobs, pass_no, outdir, records, tracer=None):
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        elapsed, code, text, error = run_job(cli, job["argv"],
                                             job.get("out_file"))
        if pass_no == 0:
            with open(os.path.join(outdir, f"{idx:03d}.out"), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
        records.append([idx, pass_no, elapsed, code,
                        hashlib.sha256(text.encode("utf-8")).hexdigest(),
                        len(text.encode("utf-8")), error])


def main(argv):
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    cli = _import_cli()
    _, code, _, error = run_job(cli, spec["warmup"])
    if code != 0:
        raise SystemExit(f"warm-up job failed: {error}")
    print("ready", flush=True)
    if "--setup-only" in argv:
        return
    jobs = spec["jobs"]
    records = []
    start = time.perf_counter()
    if spec["trace"]:
        import tracing
        run_pass(cli, jobs, 0, spec["outdir"], records)
        tracer = tracing.Tracer()
        tracer.install()
        run_pass(cli, jobs, 1, spec["outdir"], records, tracer)
        tracer.dump(spec["spans_path"])
        passes = 2
    else:
        passes = 0
        while True:
            run_pass(cli, jobs, passes, spec["outdir"], records)
            passes += 1
            if time.perf_counter() - start >= spec["seconds"]:
                break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump({"records": records, "passes": passes,
                   "peak_rss_kib": peak_kib}, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
