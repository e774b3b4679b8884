"""Output check for benchmark jobs, and the stored references it uses.

Every job's output is parsed into blocks (a CSV table, or one table per
``cdf`` block) and checked on every seed for:

* the expected header and row count;
* probability cells in [0, 1];
* CDF values nondecreasing, with probabilities k/M;
* non-finite cells only where the ``flags`` column says ``undefined``.

Jobs whose key has a stored reference (all jobs at the default seed, fixed
preset and selftest jobs at every seed) are also compared with it. A
byte-identical output passes. Otherwise every value must match within the
tolerance of its route: 1e-6 relative for deterministic routes, the reported
``_ci`` half-width for Monte-Carlo cells, and the root finder's rate
tolerance for exact-root throughput cells.

Run as a script to record the references of one workload at the default
seed: ``python3 perfbench/check.py --record mc_outage``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

_REL_TOL = 1e-6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse(job: dict, text: str) -> list[dict]:
    """Split a job's output into blocks of {meta, header, rows}."""
    lines = text.splitlines()
    if job["command"] == "selftest":
        return [{"meta": None, "header": None, "rows": lines}]
    if job["command"] != "cdf":
        if not lines:
            raise ValueError("empty output")
        return [{"meta": None, "header": lines[0].split(","),
                 "rows": [line.split(",") for line in lines[1:]]}]
    blocks = []
    for line in lines:
        if line.startswith("# "):
            meta = dict(item.split("=", 1) for item in line[2:].split())
            blocks.append({"meta": meta, "header": None, "rows": []})
        elif not blocks:
            raise ValueError("cdf output does not start with a '# ' line")
        elif blocks[-1]["header"] is None:
            blocks[-1]["header"] = line.split(",")
        else:
            blocks[-1]["rows"].append(line.split(","))
    return blocks


def points(blocks: list[dict]) -> int:
    """CSV data rows emitted: sweep points, DMT rows, CDF or trace rows."""
    return sum(len(b["rows"]) for b in blocks if b["header"] is not None)


def _float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"non-numeric cell {cell!r}") from None


def _check_table(job: dict, block: dict) -> list[str]:
    problems = []
    header, rows = block["header"], block["rows"]
    has_flags = header[-1] == "flags"
    text_cols = {"flags", "combiner", "bs_id"}
    for r, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {r}: {len(row)} cells for "
                            f"{len(header)} columns")
            continue
        flags = set(row[-1].split(";")) if has_flags else set()
        for name, cell in zip(header, row):
            if name in text_cols:
                continue
            value = _float(cell)
            if not math.isfinite(value):
                base = name[:-4] if name.endswith("_bps") else name
                if f"{base}:undefined" not in flags:
                    problems.append(f"row {r}: {name}={cell} is not finite "
                                    f"and not flagged undefined")
                continue
            if (job["command"] == "outage" and name != "snr_db"
                    and not 0.0 <= value <= 1.0):
                problems.append(f"row {r}: {name}={cell} outside [0, 1]")
    return problems


def _check_cdf(block: dict) -> list[str]:
    problems = []
    if block["header"] != ["value", "probability"]:
        return [f"cdf header {block['header']}"]
    rows = block["rows"]
    values = [_float(row[0]) for row in rows]
    probs = [_float(row[1]) for row in rows]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite cdf value")
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("cdf values decrease")
    m = len(rows)
    if any(abs(p - (k + 1) / m) > 1e-12 for k, p in enumerate(probs)):
        problems.append("cdf probabilities are not k/M")
    if block["meta"].get("metric") == "outage" and any(
            not 0.0 <= v <= 1.0 for v in values):
        problems.append("outage cdf value outside [0, 1]")
    return problems


def invariants(job: dict, blocks: list[dict]) -> list[str]:
    """Checks that hold on every seed, reference or not."""
    if job["command"] == "selftest":
        lines = blocks[0]["rows"]
        ok = (lines and lines[-1] == "selftest: all checks passed"
              and all(line.startswith("PASS ") for line in lines[:-1]))
        return [] if ok else ["selftest did not pass every check"]
    problems = []
    if job["command"] == "cdf":
        if job.get("blocks") is not None:
            got = [[b["meta"].get("metric"), b["meta"].get("combiner"),
                    int(b["meta"].get("n", -1)),
                    int(b["meta"].get("skipped", -1))] for b in blocks]
            if got != job["blocks"]:
                problems.append(f"cdf blocks {got} != {job['blocks']}")
        for block in blocks:
            problems += _check_cdf(block)
    else:
        problems += _check_table(job, blocks[0])
    if job.get("header") is not None and blocks[0]["header"] != job["header"]:
        problems.append(f"header {blocks[0]['header']} != {job['header']}")
    if job.get("rows") is not None:
        got = sum(len(b["rows"]) for b in blocks)
        if got != job["rows"]:
            problems.append(f"{got} rows, expected {job['rows']}")
    return problems


def _tolerance(job: dict, name: str, a: float, b: float) -> float:
    tol = _REL_TOL * max(abs(a), abs(b))
    if name.endswith("_exact_bps"):
        return max(tol, job["root_tol_bps"])
    # Absolute floors where values can sit near zero: the empirical DMT
    # slope is a finite difference, and gains in dB can cross 0.
    if name == "d_empirical":
        return tol + 1e-6
    if name.endswith("_db") and name != "snr_db":
        return tol + 1e-9
    return tol


def compare(job: dict, blocks: list[dict], ref: dict) -> list[str]:
    """Value-by-value comparison with a stored reference's blocks."""
    ref_blocks = ref["blocks"]
    if len(blocks) != len(ref_blocks):
        return [f"{len(blocks)} blocks, reference has {len(ref_blocks)}"]
    if job["command"] == "selftest":
        # Check names must match; the measured detail in parentheses may
        # change its digits.
        names = [[line.split(" (")[0] for line in b["rows"]]
                 for b in (blocks[0], ref_blocks[0])]
        return [] if names[0] == names[1] else ["selftest checks differ"]
    problems = []
    for block, want in zip(blocks, ref_blocks):
        if block["meta"] != want["meta"] or block["header"] != want["header"]:
            problems.append(f"block {want['meta']} {want['header']} differs")
            continue
        if len(block["rows"]) != len(want["rows"]):
            problems.append(f"{len(block['rows'])} rows, reference has "
                            f"{len(want['rows'])}")
            continue
        header = block["header"]
        for r, (row, ref_row) in enumerate(zip(block["rows"], want["rows"])):
            cells = dict(zip(header, row))
            ref_cells = dict(zip(header, ref_row))
            for name in header:
                got, exp = cells.get(name), ref_cells.get(name)
                if got == exp:
                    continue
                try:
                    a, b = float(got), float(exp)
                except (TypeError, ValueError):
                    problems.append(f"row {r} {name}: {got!r} != {exp!r}")
                    continue
                if math.isnan(a) and math.isnan(b):
                    continue
                if name.endswith("_mc"):
                    tol = max(float(cells[name + "_ci"]),
                              float(ref_cells[name + "_ci"]))
                elif name.endswith("_mc_ci"):
                    tol = max(a, b)
                else:
                    tol = _tolerance(job, name, a, b)
                if not abs(a - b) <= tol:
                    problems.append(f"row {r} {name}: {got} vs reference "
                                    f"{exp}")
            if len(problems) > 5:
                return problems
    return problems


def check(job: dict, text: str, ref: dict | None) -> tuple[list[str], bool]:
    """Return (problems, byte_identical_to_reference)."""
    try:
        blocks = parse(job, text)
        problems = invariants(job, blocks)
    except ValueError as exc:
        return [str(exc)], False
    if ref is None:
        return problems, False
    if ref["argv"] != job["argv"]:
        raise RuntimeError(f"reference {job['key']} was recorded for argv "
                           f"{ref['argv']}, job has {job['argv']}; "
                           "re-record the references")
    if sha256(text) == ref["sha256"]:
        return problems, True
    return problems + compare(job, blocks, ref), False


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_references(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


def record(workload: str) -> None:
    """Run one pass at the default seed and store every output."""
    import run  # the benchmark entry point in this directory

    jobs, outputs = run.single_pass(workload)
    refs = {}
    for job, text in zip(jobs, outputs):
        problems, _ = check(job, text, None)
        if problems:
            raise SystemExit(f"{job['key']} {job['argv']}: {problems}")
        refs[job["key"]] = {"argv": job["argv"], "sha256": sha256(text),
                            "blocks": parse(job, text)}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with gzip.open(reference_path(workload), "wt", encoding="utf-8",
                   compresslevel=9) as handle:
        json.dump({"workload": workload, "jobs": refs}, handle,
                  separators=(",", ":"))
    print(f"recorded {len(refs)} references for {workload}")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        raise SystemExit("usage: python3 perfbench/check.py --record "
                         "<workload>")
    record(sys.argv[2])
