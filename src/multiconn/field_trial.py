"""Measurement-trace ingestion and empirical outage/throughput CDFs.

A trace is a CSV of per-(measurement, base station) average SNRs in dB.
For each measurement the N strongest links are kept, per-combiner outage or
achievable throughput is evaluated analytically, and the distribution over
measurements is reported as an empirical CDF.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .combiners import Combiner
from .exceptions import DomainError, TraceError
from .link_model import db_to_linear
from .outage import outage_asymptotic, outage_exact_closed
from .throughput import achievable_rate_asymptotic, throughput_from_rate

TRACE_HEADER = ("measurement_id", "bs_id", "avg_snr_db")
CDF_HEADER = ("value", "probability")


@dataclass(frozen=True)
class TraceRecord:
    measurement_id: int
    bs_id: str
    avg_snr_db: float


class SnrTrace:
    """Average SNRs in dB per (measurement, base station), as three columns
    in file order. The constructor ranks every measurement once: descending
    SNR, then ascending ``bs_id`` by code point (``-0.0`` ties ``0.0``).
    """

    def __init__(self, measurement_id, bs_id, avg_snr_db):
        try:
            mid = np.array(measurement_id, dtype=np.int64)
        except OverflowError as exc:
            raise TraceError(f"measurement id outside int64: {exc}") from exc
        bs = np.array(bs_id, dtype=str)
        snr = np.array(avg_snr_db, dtype=np.float64)
        if not (mid.ndim == bs.ndim == snr.ndim == 1
                and mid.size == bs.size == snr.size):
            raise TraceError("trace columns must be 1-D and of equal length")
        if not mid.size:
            raise TraceError("trace contains no measurements")
        bad = np.flatnonzero(~np.isfinite(snr))
        if bad.size:
            raise TraceError(f"row {bad[0]}: non-finite avg_snr_db "
                             f"{float(snr[bad[0]])!r}")
        codes = np.unique(bs, return_inverse=True)[1]
        pairs = np.lexsort((codes, mid))
        dup = (np.diff(mid[pairs]) == 0) & (np.diff(codes[pairs]) == 0)
        if dup.any():
            i = pairs[dup.argmax()]
            raise TraceError("duplicate (measurement, bs) pair "
                             f"{(int(mid[i]), str(bs[i]))}")
        mid.flags.writeable = bs.flags.writeable = snr.flags.writeable = False
        self.measurement_id, self.bs_id, self.avg_snr_db = mid, bs, snr
        order = np.lexsort((codes, -snr, mid))
        ranked_mid = mid[order]
        starts = np.flatnonzero(np.r_[True, ranked_mid[1:] != ranked_mid[:-1]])
        self._ids = ranked_mid[starts]
        self._bounds = np.append(starts, mid.size)
        self._ranked_snr = snr[order]

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "SnrTrace":
        records = tuple(records)
        return cls([r.measurement_id for r in records],
                   [r.bs_id for r in records],
                   [r.avg_snr_db for r in records])

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """The rows as records, in file order (built on first access)."""
        return tuple(map(TraceRecord, self.measurement_id.tolist(),
                         self.bs_id.tolist(), self.avg_snr_db.tolist()))

    def __eq__(self, other):
        return isinstance(other, SnrTrace) and self.records == other.records

    def measurement_ids(self) -> list[int]:
        return self._ids.tolist()

    def entries_for(self, measurement_id: int) -> list[TraceRecord]:
        """The rows of one measurement, in file order."""
        rows = np.flatnonzero(self.measurement_id == measurement_id)
        return [self.records[i] for i in rows.tolist()]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted sample values with probabilities k/M for k = 1..M."""

    values: np.ndarray
    probabilities: np.ndarray
    skipped_measurements: int = 0

    @classmethod
    def from_samples(cls, samples: Sequence[float],
                     skipped: int = 0) -> "EmpiricalCdf":
        values = np.sort(np.asarray(samples, dtype=float))
        if values.size == 0:
            raise TraceError("no samples left to build a CDF from")
        probs = np.arange(1, values.size + 1) / values.size
        return cls(values=values, probabilities=probs,
                   skipped_measurements=skipped)


def load_trace(path) -> SnrTrace:
    """Parse a trace CSV (header measurement_id,bs_id,avg_snr_db; '#'
    comment lines ignored); every SNR must be finite."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    kept = [i for i, line in enumerate(lines)
            if (text := line.lstrip()) and not text.startswith("#")]
    if not kept:
        raise TraceError(f"{path}: empty trace file")
    reader = csv.reader(map(lines.__getitem__, kept))
    header = next(reader)
    if tuple(h.strip() for h in header) != TRACE_HEADER:
        raise TraceError(
            f"{path}:{kept[0] + 1}: expected header "
            f"{','.join(TRACE_HEADER)}, got {lines[kept[0]].strip()!r}")
    ids, bs_ids, snrs = [], [], []
    try:
        for row in reader:
            if reader.line_num != len(ids) + 2:
                raise ValueError("quoted field runs past the end of the line")
            if len(row) != 3:
                raise ValueError(f"expected 3 fields, got {len(row)}")
            mid, snr = int(row[0]), float(row[2])
            if not math.isfinite(snr):
                raise ValueError(f"non-finite avg_snr_db {row[2].strip()!r}")
            ids.append(mid)
            bs_ids.append(row[1].strip())
            snrs.append(snr)
    except (ValueError, csv.Error) as exc:
        # Data row k is on kept line k + 1 (kept line 0 is the header).
        raise TraceError(f"{path}:{kept[len(ids) + 1] + 1}: {exc}") from exc
    if not ids:
        raise TraceError(f"{path}: trace has a header but no data rows")
    return SnrTrace(ids, bs_ids, snrs)


def write_trace(trace: SnrTrace, handle) -> None:
    """Write a trace as CSV with LF line endings, rows in file order."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    writer.writerows(zip(trace.measurement_id.tolist(), trace.bs_id.tolist(),
                         map(repr, trace.avg_snr_db.tolist())))


def save_trace(trace: SnrTrace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_trace(trace, handle)


def save_cdf(cdf: EmpiricalCdf, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_cdf(cdf, handle)


def write_cdf(cdf: EmpiricalCdf, handle) -> None:
    writer = csv.writer(handle)
    writer.writerow(CDF_HEADER)
    for value, prob in zip(cdf.values, cdf.probabilities):
        writer.writerow([repr(float(value)), repr(float(prob))])


def strongest_links(trace: SnrTrace, measurement_id: int,
                    n: int) -> list[float]:
    """The n largest average SNRs of one measurement, linear, descending.

    Ties are broken by ascending base-station id for determinism.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    g = int(np.searchsorted(trace._ids, measurement_id))
    found = g < trace._ids.size and trace._ids[g] == measurement_id
    lo, hi = trace._bounds[g:g + 2] if found else (0, 0)
    ranked = trace._ranked_snr[lo:hi]
    if ranked.size < n:
        raise TraceError(
            f"measurement {measurement_id} has {ranked.size} links, "
            f"need {n}")
    return [db_to_linear(x) for x in ranked[:n].tolist()]


def _strongest_rows(trace: SnrTrace, n: int,
                    combiner: Combiner) -> tuple[list[list[float]], int]:
    """``strongest_links`` for every measurement with at least n links, in
    id order (SCo keeps only the strongest), and the count skipped."""
    if n < 1:
        raise DomainError("n must be >= 1")
    sizes = np.diff(trace._bounds)
    starts = trace._bounds[:-1][sizes >= n]
    # Capped so that an n above every group size selects nothing instead
    # of allocating an n-wide index.
    width = min(1 if combiner is Combiner.SCO else n, int(sizes.max()))
    top = trace._ranked_snr[starts[:, None] + np.arange(width)]
    rows = [[db_to_linear(x) for x in row] for row in top.tolist()]
    return rows, sizes.size - starts.size


def empirical_outage_cdf(trace: SnrTrace, n: int, r_c: float,
                         combiner) -> EmpiricalCdf:
    """Per-measurement outage on the n strongest links, as a CDF."""
    combiner = Combiner.parse(combiner)
    if r_c <= 0:
        raise DomainError("r_c must be positive")
    rows, skipped = _strongest_rows(trace, n, combiner)
    # JD uses its asymptote (clamped), matching the batch methodology; the
    # other combiners have exact closed forms.
    row_outage = (outage_asymptotic if combiner is Combiner.JD
                  else outage_exact_closed)
    return EmpiricalCdf.from_samples(
        [row_outage(combiner, snrs, r_c).value for snrs in rows],
        skipped=skipped)


def empirical_throughput_cdf(trace: SnrTrace, n: int, p_out: float,
                             bandwidth: float, combiner) -> EmpiricalCdf:
    """Per-measurement asymptotic throughput at a target outage, as a CDF."""
    combiner = Combiner.parse(combiner)
    if not 0.0 < p_out < 1.0:
        raise DomainError("p_out must lie in (0, 1)")
    if bandwidth <= 0:
        raise DomainError("bandwidth must be positive")
    rows, skipped = _strongest_rows(trace, n, combiner)
    return EmpiricalCdf.from_samples(
        [throughput_from_rate(
            bandwidth, achievable_rate_asymptotic(combiner, snrs, p_out),
            p_out) for snrs in rows], skipped=skipped)


@dataclass(frozen=True)
class SnrModelParams:
    """Synthetic-trace generator parameters (all in dB).

    ``mean_db`` is the network-wide average; each base station gets a fixed
    offset with spread ``bs_spread_db``; each measurement adds independent
    shadowing with spread ``shadowing_db``. Defaults give several strong
    links per measurement, mimicking a dense urban deployment.
    """

    mean_db: float = 21.0
    bs_spread_db: float = 4.0
    shadowing_db: float = 5.0


def synthesize_trace(n_measurements: int, n_bs: int,
                     snr_model_params: Optional[SnrModelParams] = None,
                     seed: int = 0) -> SnrTrace:
    """Deterministic synthetic trace with log-normal SNR spread."""
    if n_measurements < 1 or n_bs < 1:
        raise DomainError("n_measurements and n_bs must be >= 1")
    params = snr_model_params or SnrModelParams()
    rng = np.random.default_rng(seed)
    bs_offsets = rng.normal(0.0, params.bs_spread_db, size=n_bs)
    # One draw fills row after row, the same stream as a draw per row.
    shadowing = rng.normal(0.0, params.shadowing_db,
                           size=(n_measurements, n_bs))
    return SnrTrace(np.repeat(np.arange(n_measurements), n_bs),
                    np.tile([f"BS{b:02d}" for b in range(n_bs)],
                            n_measurements),
                    (params.mean_db + bs_offsets + shadowing).ravel())
