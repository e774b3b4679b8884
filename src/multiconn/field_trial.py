"""Measurement-trace ingestion and empirical outage/throughput CDFs.

A trace is a CSV of per-(measurement, base station) average SNRs in dB.
For each measurement the N strongest links are kept, per-combiner outage or
achievable throughput is evaluated analytically, and the distribution over
measurements is reported as an empirical CDF.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .combiners import Combiner
from .exceptions import (TraceError, _require_count, _require_finite,
                         _require_nonnegative, _require_positive,
                         _require_probability)
from .link_model import db_to_linear
from .outage import _asymptote, _outage_rows
from .special_functions import coding_constant
from .throughput import _rate_inverse, throughput_asymptotic

TRACE_HEADER = ("measurement_id", "bs_id", "avg_snr_db")
CDF_HEADER = ("value", "probability")


class SnrTrace:
    """Average SNRs in dB per (measurement, base station), as three
    read-only columns in file order (copies of the sequences or arrays
    given). The constructor ranks every measurement once: descending SNR,
    then ascending ``bs_id`` by code point (``-0.0`` ties ``0.0``), by one
    sort of an int64 key per row built from integer ranks.
    """

    def __init__(self, measurement_id, bs_id, avg_snr_db):
        try:
            mid = np.array(measurement_id, dtype=np.int64)
        except OverflowError as exc:
            raise TraceError(f"measurement id outside int64: {exc}") from exc
        bs_list = (bs_id.tolist() if isinstance(bs_id, np.ndarray)
                   else list(bs_id))
        snr = np.array(avg_snr_db, dtype=np.float64)
        if not (mid.ndim == snr.ndim == 1
                and mid.size == len(bs_list) == snr.size):
            raise TraceError("trace columns must be 1-D and of equal length")
        if not mid.size:
            raise TraceError("trace contains no measurements")
        bad = np.flatnonzero(~np.isfinite(snr))
        if bad.size:
            raise TraceError(f"row {bad[0]}: non-finite avg_snr_db "
                             f"{float(snr[bad[0]])!r}")
        # Factorize bs_id through a dict over its distinct values (few base
        # stations, many rows); numpy converts and orders only those.
        distinct = list(set(bs_list))
        names, rank = np.unique(np.array(distinct, dtype=str),
                                return_inverse=True)
        code_of = dict(zip(distinct, rank.tolist()))
        codes = np.fromiter(map(code_of.__getitem__, bs_list), np.intp,
                            len(bs_list))
        bs = names[codes]
        mrank = np.unique(mid, return_inverse=True)[1]
        levels, lrank = np.unique(snr, return_inverse=True)
        pair = _pair_key(mrank, codes, names.size)
        pairs = np.sort(pair)
        dup = pairs[1:] == pairs[:-1]
        if dup.any():
            i = (pair == pairs[dup.argmax()]).argmax()
            raise TraceError("duplicate (measurement, bs) pair "
                             f"{(int(mid[i]), str(bs[i]))}")
        mid.flags.writeable = bs.flags.writeable = snr.flags.writeable = False
        self.measurement_id, self.bs_id, self.avg_snr_db = mid, bs, snr
        # By measurement, then strongest first, then bs_id.
        order = np.argsort(_pair_key(
            _pair_key(mrank, levels.size - 1 - lrank, levels.size),
            codes, names.size))
        self._bounds = np.r_[0, np.bincount(mrank).cumsum()]
        self._ranked_snr = snr[order]

    @property
    def records(self) -> np.recarray:
        """The rows in file order, as a new record array (``TRACE_HEADER``)."""
        return np.rec.fromarrays(
            (self.measurement_id, self.bs_id, self.avg_snr_db),
            names=TRACE_HEADER)

    def __eq__(self, other):
        return isinstance(other, SnrTrace) and all(
            np.array_equal(a, b) for a, b in zip(
                (self.measurement_id, self.bs_id, self.avg_snr_db),
                (other.measurement_id, other.bs_id, other.avg_snr_db)))


def _pair_key(major: np.ndarray, minor: np.ndarray, size: int):
    """An int64 per row ordering the rows by (major, minor), for integers
    major >= 0 and 0 <= minor < size; a major that would wrap the key past
    int64 is ranked first (a rank is below the row count)."""
    if (int(major.max()) + 1) * size > 2**63:
        major = np.unique(major, return_inverse=True)[1]
    return major * size + minor


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


# A line that is neither blank nor a comment: its first non-whitespace
# character is not '#'. Lines end at "\n" (CRLF is made LF first).
_DATA_LINE = re.compile(r"^[^\S\n]*[^\s#].*", re.MULTILINE)


def _bulk_columns(text: str):
    """The columns of a trace text as numpy's C reader (np.loadtxt, numpy
    >= 2.4; older numpy reads a non-int64 id as a float) parses them: ids
    and SNRs as int64 and float64 arrays, bs_id as stripped str; None
    where only the csv loop may read it: a quote, a lone CR, a \\x1c-\\x1f
    (numpy strips it around a number), a line over csv.field_size_limit(),
    no data row, a header other than TRACE_HEADER, a row np.loadtxt rejects
    or a non-finite SNR. bs_id is an object field (a str one reads '' or
    truncates); comments=None, as the loop rejects an inline '#' comment."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = _DATA_LINE.findall(text)
    # A field is no longer than its line.
    if (len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit()
            or tuple(map(str.strip, lines[0].split(","))) != TRACE_HEADER
            or any(c in text for c in '"\r\x1c\x1d\x1e\x1f')):
        return None
    try:
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, dtype=[
            ("measurement_id", np.int64), ("bs_id", object),
            ("avg_snr_db", np.float64)], ndmin=1)
    except ValueError:
        return None
    del lines  # peak memory: the table holds the same fields
    snrs = table["avg_snr_db"]
    if not np.isfinite(snrs).all():
        return None
    return (table["measurement_id"], list(map(str.strip, table["bs_id"])),
            snrs)


def load_trace(path) -> SnrTrace:
    """Parse a trace CSV (header measurement_id,bs_id,avg_snr_db; '#'
    comment lines ignored); every SNR must be finite.

    numpy's C reader parses the file; a file with quoted fields or a fault
    is read line by line by the csv module, whose error names the line."""
    return SnrTrace(*_read_columns(path))


def _read_columns(path):
    # The text is freed before SnrTrace sorts the columns (peak memory).
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    return _bulk_columns(text) or _csv_columns(text, path)


def _csv_columns(text: str, path):
    # One csv row per line, with the line number of the first bad row.
    lines = io.StringIO(text, newline="").readlines()
    kept = [i for i, line in enumerate(lines)
            if (rest := line.lstrip()) and not rest.startswith("#")]
    if not kept:
        raise TraceError(f"{path}: empty trace file")
    reader = csv.reader(map(lines.__getitem__, kept))
    try:
        header = next(reader)
    except csv.Error as exc:
        raise TraceError(f"{path}:{kept[0] + 1}: {exc}") from exc
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
    return ids, bs_ids, snrs


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
    """Write a CDF as CSV with CRLF line endings, in one write."""
    handle.write(",".join(CDF_HEADER) + "\r\n" + "".join([
        f"{value!r},{prob!r}\r\n" for value, prob in zip(
            cdf.values.tolist(), cdf.probabilities.tolist())]))


def _strongest_rows(trace: SnrTrace, n: int,
                    combiner: Combiner) -> tuple[np.ndarray, int]:
    """The n strongest links of every measurement with at least n links,
    ranked as the constructor does and linear, in id order, as one
    (rows, width) array (SCo keeps only the strongest), and the count
    skipped. TraceError if no row is left, DomainError if a linear SNR
    underflows to 0."""
    _require_count("n", n, 1)
    sizes = np.diff(trace._bounds)
    starts = trace._bounds[:-1][sizes >= n]
    if not starts.size:
        raise TraceError("no samples left to build a CDF from")
    top = trace._ranked_snr[starts[:, None]
                            + np.arange(1 if combiner is Combiner.SCO else n)]
    # Each distinct dB level converted once; traces repeat quantised levels.
    levels, at = np.unique(top, return_inverse=True)
    rows = np.array([db_to_linear(x) for x in levels.tolist()])
    return rows[at.reshape(top.shape)], sizes.size - starts.size


def empirical_outage_cdf(trace: SnrTrace, n: int, r_c: float,
                         combiner) -> EmpiricalCdf:
    """Per-measurement outage on the n strongest links, as a CDF.

    Each value is bitwise that of ``outage_asymptotic`` (JD) or
    ``outage_exact_closed`` on the measurement's n strongest links: JD rows
    are one array of asymptotes, the other combiners' rows one call of
    ``_outage_rows``."""
    combiner = Combiner.parse(combiner)
    _require_positive("r_c", r_c)
    rows, skipped = _strongest_rows(trace, n, combiner)
    if combiner is Combiner.JD:
        # JD uses its asymptote, clamped to 1 (an overflow to inf too).
        with np.errstate(over="ignore"):
            values = np.minimum(_asymptote(combiner, rows.shape[1], r_c,
                                           rows.prod(axis=1)), 1.0)
    else:
        coding_constant(1, r_c)  # DomainError where A_1 overflows
        values = _outage_rows(combiner, rows)(range(len(rows)), r_c)
    return EmpiricalCdf.from_samples(values, skipped=skipped)


def empirical_throughput_cdf(trace: SnrTrace, n: int, p_out: float,
                             bandwidth: float, combiner) -> EmpiricalCdf:
    """Per-measurement asymptotic throughput at a target outage, as a CDF.

    Each value is bitwise that of ``throughput_asymptotic`` on the
    measurement's strongest links. All rows are inverted at once; a row
    that the inverse cannot take is recomputed by that function, which
    raises its error at the first row where it raises."""
    combiner = Combiner.parse(combiner)
    _require_probability("p_out", p_out)
    _require_positive("bandwidth", bandwidth)
    rows, skipped = _strongest_rows(trace, n, combiner)
    try:
        with np.errstate(over="ignore"):
            values = bandwidth * _rate_inverse(combiner, rows.shape[1])(
                p_out * rows.prod(axis=1)) * (1.0 - p_out)
    except OverflowError:  # n! leaves the float range
        values = np.full(len(rows), math.nan)
    for i in np.flatnonzero(~((values >= 0) & (values < math.inf))).tolist():
        values[i] = throughput_asymptotic(combiner, rows[i].tolist(), p_out,
                                          bandwidth).throughput
    return EmpiricalCdf.from_samples(values, skipped=skipped)


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
    """Deterministic synthetic trace with log-normal SNR spread. DomainError
    for a non-finite mean or a negative seed or spread, TraceError where an
    SNR is not finite."""
    _require_count("n_measurements", n_measurements, 1)
    _require_count("n_bs", n_bs, 1)
    _require_count("seed", seed, 0)
    params = snr_model_params or SnrModelParams()
    _require_finite("mean_db", params.mean_db)
    # abs: numpy rejects a spread of -0.0.
    spreads = [abs(_require_nonnegative(name, getattr(params, name)))
               for name in ("bs_spread_db", "shadowing_db")]
    rng = np.random.default_rng(seed)
    bs_offsets = rng.normal(0.0, spreads[0], size=n_bs)
    # One draw fills row after row, the same stream as a draw per row.
    shadowing = rng.normal(0.0, spreads[1], size=(n_measurements, n_bs))
    with np.errstate(over="ignore", invalid="ignore"):
        snr_db = (params.mean_db + bs_offsets + shadowing).ravel()
    return SnrTrace(np.repeat(np.arange(n_measurements), n_bs),
                    np.tile([f"BS{b:02d}" for b in range(n_bs)],
                            n_measurements), snr_db)
