import csv
import io
import math
import random
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multiconn import field_trial
from multiconn.exceptions import DomainError, TraceError
from multiconn.combiners import Combiner
from multiconn.field_trial import (CDF_HEADER, TRACE_HEADER, EmpiricalCdf,
                                   SnrModelParams,
                                   SnrTrace, _strongest_rows,
                                   empirical_outage_cdf,
                                   empirical_throughput_cdf, load_trace,
                                   save_cdf, save_trace, synthesize_trace,
                                   write_cdf)
from multiconn.link_model import db_to_linear
from multiconn.outage import outage_asymptotic, outage_exact_closed
from multiconn.throughput import (achievable_rate_asymptotic,
                                  throughput_from_rate)


def _trace(rows):
    """A trace of (measurement_id, bs_id, avg_snr_db) rows, from columns."""
    return SnrTrace(*map(list, zip(*rows)))


SMALL_ROWS = [
    (0, "BS00", 20.0), (0, "BS01", 25.0), (0, "BS02", 15.0),
    (1, "BS00", 30.0), (1, "BS01", 10.0), (1, "BS02", 18.0),
]
SMALL_TRACE = _trace(SMALL_ROWS)


class TestTraceContainer:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(TraceError):
            _trace([(0, "BS00", 20.0), (0, "BS00", 21.0)])

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            SnrTrace([], [], [])

    def test_measurement_ids_sorted(self):
        # CDF rows come in ascending measurement-id order, whatever the
        # order of the rows in the file.
        trace = _trace([(7, "BS00", 10.0), (-3, "BS00", 20.0),
                        (2, "BS00", 30.0)])
        rows, skipped = _strongest_rows(trace, 1, Combiner.SC)
        assert rows[:, 0].tolist() == [db_to_linear(x) for x in (20.0, 30.0,
                                                                 10.0)]
        assert skipped == 0

    def test_ranking_at_the_int64_edges(self):
        # Ids at both int64 edges, their rows interleaved out of file order;
        # -0.0 ties 0.0, so bs_id orders them and each keeps its sign.
        lo, hi = -2**63, 2**63 - 1
        trace = _trace([(hi, "b", 1.0), (lo, "b", -0.0), (0, "c", 3.0),
                        (hi, "a", 4.0), (lo, "c", 0.0), (0, "a", -1.0),
                        (lo, "a", 0.0)])
        assert trace._bounds.tolist() == [0, 3, 5, 7]
        assert list(map(float.hex, trace._ranked_snr.tolist())) == list(map(
            float.hex, [0.0, -0.0, 0.0, 3.0, -1.0, 4.0, 1.0]))
        rows, skipped = _strongest_rows(trace, 3, Combiner.SC)
        assert rows.tolist() == [[1.0, 1.0, 1.0]]
        assert skipped == 2

    def test_duplicate_named_by_its_least_pair(self):
        # Of several duplicate pairs, the least (id, bs_id) is named.
        with pytest.raises(TraceError) as err:
            SnrTrace([5, 5, 3, 9, 3, 9], ["BS00", "BS00", "BS01", "b",
                                          "BS01", "b"], [1.0] * 6)
        assert str(err.value) == (
            "duplicate (measurement, bs) pair (3, 'BS01')")

    @pytest.mark.parametrize("major, size", [
        ([2**62 - 1, 0, 2**62 - 1, 5], 2),  # the largest key is 2**63 - 1
        ([2**62, 0, 2**62, 5], 2),  # one more would wrap: ranked first
        ([2**63 - 1, 2**40, 3, 2**63 - 1], 7)])
    def test_pair_key_never_wraps(self, major, size):
        major = np.array(major, dtype=np.int64)
        minor = np.array([1, 0, 0, 0])
        key = field_trial._pair_key(major, minor, size)
        assert key.dtype == np.int64 and (key >= 0).all()
        assert np.unique(key).size == key.size
        assert np.argsort(key).tolist() == np.lexsort((minor, major)).tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_snr_rejected(self, bad):
        with pytest.raises(TraceError, match="row 1: non-finite"):
            SnrTrace([0, 0], ["BS00", "BS01"], [20.0, bad])
        with pytest.raises(TraceError, match="non-finite"):
            _trace([(0, "BS00", bad)])

    def test_columns_must_match(self):
        with pytest.raises(TraceError, match="equal length"):
            SnrTrace([0, 1], ["BS00"], [20.0, 21.0])

    def test_measurement_id_beyond_int64_rejected(self):
        with pytest.raises(TraceError, match="int64"):
            _trace([(2**63, "BS00", 20.0)])

    def test_records_view(self):
        records = SMALL_TRACE.records
        assert records.dtype.names == TRACE_HEADER
        assert len(records) == 6
        assert records.tolist() == SMALL_ROWS
        assert list(map(type, records[-1].tolist())) == [int, str, float]
        assert records[1:3].tolist() == SMALL_ROWS[1:3]
        assert [tuple(r) for r in records] == SMALL_ROWS
        assert records.bs_id.tolist() == [row[1] for row in SMALL_ROWS]
        with pytest.raises(IndexError):
            records[6]
        # A new array per call: writing to one leaves the trace as it was.
        records.avg_snr_db[0] = 99.0
        assert SMALL_TRACE.records.tolist() == SMALL_ROWS

    def test_equality_compares_every_column(self):
        base = [(0, "BS00", 20.0), (0, "BS01", 0.0)]
        assert _trace(base) == _trace([(0, "BS00", 20.0), (0, "BS01", -0.0)])
        for other in ([(1, "BS00", 20.0), (1, "BS01", 0.0)],
                      [(0, "BS00", 20.0), (0, "BS02", 0.0)],
                      [(0, "BS00", 20.5), (0, "BS01", 0.0)],
                      base[:1]):
            assert _trace(base) != _trace(other)
        assert _trace(base) != base


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(SMALL_TRACE, path)
        loaded = load_trace(path)
        assert loaded == SMALL_TRACE

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# field trial dump\n\n"
                        "measurement_id,bs_id,avg_snr_db\n"
                        "0,BS00,20.0\n"
                        "# interlude\n"
                        "0,BS01,25.0\n")
        assert len(load_trace(path).records) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "absent.csv")

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n1,BS00,20.0\n")
        with pytest.raises(TraceError, match="expected header"):
            load_trace(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("measurement_id,bs_id,avg_snr_db\n"
                        "0,BS00,20.0\n"
                        "not-an-int,BS01,25.0\n")
        with pytest.raises(TraceError, match=":3"):
            load_trace(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("measurement_id,bs_id,avg_snr_db\n0,BS00\n")
        with pytest.raises(TraceError, match="3 fields"):
            load_trace(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("measurement_id,bs_id,avg_snr_db\n")
        with pytest.raises(TraceError):
            load_trace(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_snr_reports_line_number(self, tmp_path, bad):
        path = tmp_path / "trace.csv"
        path.write_text("# dump\nmeasurement_id,bs_id,avg_snr_db\n"
                        f"0,BS00,20.0\n\n0,BS01,{bad}\n")
        with pytest.raises(TraceError, match=f":5: non-finite .*{bad}"):
            load_trace(path)

    def test_crlf_and_lf_load_alike(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(SMALL_TRACE, path)
        lf = path.read_bytes()
        assert b"\r" not in lf
        path.write_bytes(lf.replace(b"\n", b"\r\n"))
        assert load_trace(path) == SMALL_TRACE

    def test_quoted_field_across_lines_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text('measurement_id,bs_id,avg_snr_db\n'
                        '0,BS00,20.0\n"1\n",BS01,25.0\n')
        with pytest.raises(TraceError, match=":3: quoted field"):
            load_trace(path)

    def test_csv_error_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("measurement_id,bs_id,avg_snr_db\n0,BS00,20.0\n"
                        f"0,{'B' * 200_000},25.0\n")
        with pytest.raises(TraceError, match=":3: field larger"):
            load_trace(path)

    def test_quoted_fields_load(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text('measurement_id,bs_id,avg_snr_db\n'
                        '0,"BS,01",20.0\n"1", BS02 ,"2.5"\n')
        assert field_trial._bulk_columns(path.read_text()) is None
        assert load_trace(path).records.tolist() == [(0, "BS,01", 20.0),
                                                     (1, "BS02", 2.5)]

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"measurement_id,bs_id,avg_snr_db\n0,\xff,1.0\n")
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(path)


class TestStrongestLinks:
    def test_descending_linear_values(self):
        rows, _ = _strongest_rows(SMALL_TRACE, 2, Combiner.SC)
        assert rows.tolist() == [[db_to_linear(25.0), db_to_linear(20.0)],
                                 [db_to_linear(30.0), db_to_linear(18.0)]]

    def test_tie_broken_by_bs_id(self):
        trace = _trace([(0, "BS01", 20.0), (0, "BS00", 20.0),
                        (0, "BS02", 10.0)])
        rows, _ = _strongest_rows(trace, 2, Combiner.SC)
        assert rows.tolist() == [[db_to_linear(20.0)] * 2]

    def test_too_few_links(self):
        with pytest.raises(TraceError):
            _strongest_rows(SMALL_TRACE, 4, Combiner.SC)
        trace = _trace(SMALL_ROWS[:5])
        rows, skipped = _strongest_rows(trace, 3, Combiner.SC)
        assert (len(rows), skipped) == (1, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            _strongest_rows(SMALL_TRACE, 0, Combiner.SC)


class TestEmpiricalCdf:
    def test_sorted_with_uniform_steps(self):
        cdf = EmpiricalCdf.from_samples([0.3, 0.1, 0.2, 0.4])
        assert list(cdf.values) == [0.1, 0.2, 0.3, 0.4]
        assert list(cdf.probabilities) == [0.25, 0.5, 0.75, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            EmpiricalCdf.from_samples([])

    def test_save_format(self, tmp_path):
        path = tmp_path / "cdf.csv"
        save_cdf(EmpiricalCdf.from_samples([0.25, 0.5]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CDF_HEADER)
        assert lines[1] == "0.25,0.5"
        assert lines[2] == "0.5,1.0"


class TestOutageCdf:
    def test_values_match_direct_evaluation(self):
        cdf = empirical_outage_cdf(SMALL_TRACE, 2, 1.0, "sc")
        expected = sorted(
            outage_exact_closed("sc", _ref_strongest(SMALL_ROWS, mid, 2),
                                1.0).value
            for mid in (0, 1))
        assert list(cdf.values) == pytest.approx(expected, rel=1e-14)

    def test_joint_decoding_uses_asymptote(self):
        cdf = empirical_outage_cdf(SMALL_TRACE, 2, 1.0, "jd")
        expected = sorted(
            outage_asymptotic("jd", _ref_strongest(SMALL_ROWS, mid, 2),
                              1.0).value
            for mid in (0, 1))
        assert list(cdf.values) == pytest.approx(expected, rel=1e-14)

    def test_ragged_measurement_skipped(self):
        trace = _trace([(0, "BS00", 20.0), (0, "BS01", 25.0),
                        (1, "BS00", 30.0)])
        cdf = empirical_outage_cdf(trace, 2, 1.0, "sc")
        assert cdf.skipped_measurements == 1
        assert len(cdf.values) == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            empirical_outage_cdf(SMALL_TRACE, 2, 0.0, "sc")

    def test_sco_reads_only_the_strongest_link(self):
        # The weaker link underflows to 0.0 linear, which SC would reject.
        trace = _trace([(0, "BS00", 20.0), (0, "BS01", -3500.0)])
        strongest = [db_to_linear(20.0)]
        assert empirical_outage_cdf(trace, 2, 1.0, "sco").values.tolist() == [
            outage_exact_closed("sco", strongest, 1.0).value]
        assert empirical_throughput_cdf(
            trace, 2, 1e-3, 1e6, "sco").values.tolist() == [
            throughput_from_rate(
                1e6, achievable_rate_asymptotic("sco", strongest, 1e-3), 1e-3)]

    @pytest.mark.parametrize("combiner", ["jd", "sc", "mrc"])
    def test_underflowed_snrs_raise_domain_error(self, combiner):
        # -3000 dB is 1e-300 linear, so the product of three underflows;
        # -3500 dB underflows on its own.
        for db in ([-3000.0, -3000.0, -2990.0], [20.0, 10.0, -3500.0]):
            trace = _trace([(0, f"BS{i}", x) for i, x in enumerate(db)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if combiner == "jd" or db[2] == -3500.0:
                    with pytest.raises(DomainError):
                        empirical_outage_cdf(trace, 3, 1.0, combiner)
                if db[2] == -3500.0:
                    with pytest.raises(DomainError):
                        empirical_throughput_cdf(trace, 3, 1e-3, 1e6,
                                                 combiner)

    def test_n_above_every_measurement(self):
        with pytest.raises(TraceError, match="no samples"):
            empirical_outage_cdf(SMALL_TRACE, 10**12, 1.0, "sc")
        with pytest.raises(DomainError):
            empirical_outage_cdf(SMALL_TRACE, 0, 1.0, "sc")


class TestThroughputCdf:
    def test_values_match_direct_evaluation(self):
        bandwidth, p = 20e6, 1e-3
        cdf = empirical_throughput_cdf(SMALL_TRACE, 2, p, bandwidth, "mrc")
        expected = sorted(
            bandwidth * (1 - p) * achievable_rate_asymptotic(
                "mrc", _ref_strongest(SMALL_ROWS, mid, 2), p)
            for mid in (0, 1))
        assert list(cdf.values) == pytest.approx(expected, rel=1e-14)

    def test_single_link_baseline_reads_strongest(self):
        cdf = empirical_throughput_cdf(SMALL_TRACE, 1, 1e-3, 20e6, "sco")
        expected = sorted(
            20e6 * 0.999 * math.log2(1e-3 * _ref_strongest(
                SMALL_ROWS, mid, 1)[0] + 1.0)
            for mid in (0, 1))
        assert list(cdf.values) == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            empirical_throughput_cdf(SMALL_TRACE, 2, 0.0, 20e6, "sc")
        with pytest.raises(DomainError):
            empirical_throughput_cdf(SMALL_TRACE, 2, 1e-3, 0.0, "sc")


class TestSynthesizedTrace:
    def test_shape_and_determinism(self):
        a = synthesize_trace(10, 4, seed=5)
        b = synthesize_trace(10, 4, seed=5)
        assert a == b
        assert len(a.records) == 40
        assert np.unique(a.measurement_id).tolist() == list(range(10))
        assert synthesize_trace(10, 4, seed=6) != a

    def test_matches_one_draw_per_measurement(self):
        params = SnrModelParams()
        rng = np.random.default_rng(11)
        offsets = rng.normal(0.0, params.bs_spread_db, size=5)
        rows = []
        for mid in range(30):
            shadowing = rng.normal(0.0, params.shadowing_db, size=5)
            rows += [(mid, f"BS{b:02d}",
                      float(params.mean_db + offsets[b] + shadowing[b]))
                     for b in range(5)]
        assert synthesize_trace(30, 5, seed=11).records.tolist() == rows

    def test_params_shift_the_mean(self):
        params = SnrModelParams(mean_db=50.0, bs_spread_db=0.5,
                                shadowing_db=0.5)
        trace = synthesize_trace(200, 4, snr_model_params=params, seed=1)
        mean = np.mean(trace.records.avg_snr_db)
        assert mean == pytest.approx(50.0, abs=1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            synthesize_trace(0, 4)
        with pytest.raises(DomainError):
            synthesize_trace(4, 0)

    def test_per_row_combiner_ordering(self):
        # Sanity version of the full-pipeline ordering property.
        trace = synthesize_trace(100, 8, seed=7)
        rows = list(zip(trace.measurement_id.tolist(), trace.bs_id.tolist(),
                        trace.avg_snr_db.tolist()))
        for mid in range(100):
            snrs = _ref_strongest(rows, mid, 2)
            p_jd = outage_asymptotic("jd", snrs, 1.0).value
            p_mrc = outage_exact_closed("mrc", snrs, 1.0).value
            p_sc = outage_exact_closed("sc", snrs, 1.0).value
            assert p_jd <= p_mrc <= p_sc


# Brute-force reference for the trace layer: scan every row, then rank with
# Python's sorted (descending SNR, then ascending bs_id by code point).
def _ref_entries(rows, mid):
    return [row for row in rows if row[0] == mid]


def _ref_strongest(rows, mid, n):
    ranked = sorted(_ref_entries(rows, mid), key=lambda r: (-r[2], r[1]))
    if len(ranked) < n:
        return None
    return [db_to_linear(snr) for _, _, snr in ranked[:n]]


def _ref_cdf(rows, n, row_value):
    values, skipped = [], 0
    for mid in sorted({row[0] for row in rows}):
        snrs = _ref_strongest(rows, mid, n)
        if snrs is None:
            skipped += 1
        else:
            values.append(row_value(snrs))
    return sorted(values), skipped


# Per-row values as the CDFs define them: JD outage uses its asymptote and
# SCo uses only the strongest link.
def _ref_outage(combiner, snrs):
    if combiner == "jd":
        return outage_asymptotic(combiner, snrs, 1.5).value
    return outage_exact_closed(
        combiner, snrs[:1] if combiner == "sco" else snrs, 1.5).value


def _ref_throughput(combiner, snrs):
    rate = achievable_rate_asymptotic(
        combiner, snrs[:1] if combiner == "sco" else snrs, 1e-2)
    return throughput_from_rate(1e6, rate, 1e-2)


def _assert_cdf_matches(compute, rows, n, row_value):
    values, skipped = _ref_cdf(rows, n, row_value)
    if not values:
        with pytest.raises(TraceError):
            compute()
        return
    cdf = compute()
    assert cdf.values.tolist() == values
    assert cdf.probabilities.tolist() == [
        k / len(values) for k in range(1, len(values) + 1)]
    assert cdf.skipped_measurements == skipped


_SNR_DB = st.one_of(st.integers(-160, 160).map(lambda k: k * 0.25),
                    st.sampled_from([0.0, -0.0]))


@st.composite
def _trace_rows(draw):
    # Non-contiguous ids, ids/BS pairs left out at random (missing links),
    # quantised SNRs (ties), and rows in shuffled order.
    pairs = draw(st.lists(
        st.tuples(st.sampled_from([-7, 0, 3, 4, 19, 2**40, -2**63,
                                   2**63 - 1]),
                  st.sampled_from(["BS00", "BS01", "BS10", "BS2", "b", "Ä",
                                   "a,b", 'q"x'])),
        min_size=1, max_size=30, unique=True))
    return draw(st.permutations([(m, b, draw(_SNR_DB)) for m, b in pairs]))


class TestTraceProperties:
    @settings(max_examples=150, deadline=None)
    @given(rows=_trace_rows())
    def test_grouping_and_ranking_match_brute_force(self, rows):
        trace = _trace(rows)
        assert len(trace.records) == len(rows)
        assert trace.records.tolist() == rows
        ids = sorted({row[0] for row in rows})
        for n in range(1, 5):
            expected = [snrs for snrs in (_ref_strongest(rows, mid, n)
                                          for mid in ids) if snrs is not None]
            if not expected:
                with pytest.raises(TraceError):
                    _strongest_rows(trace, n, Combiner.SC)
                continue
            got, skipped = _strongest_rows(trace, n, Combiner.SC)
            assert got.tolist() == expected
            assert skipped == len(ids) - len(expected)

    @settings(max_examples=100, deadline=None)
    @given(rows=_trace_rows())
    def test_cdfs_match_brute_force(self, rows):
        trace = _trace(rows)
        for n in (1, 2, 3):
            for combiner in ("jd", "sc", "sco"):
                _assert_cdf_matches(
                    lambda: empirical_outage_cdf(trace, n, 1.5, combiner),
                    rows, n, partial(_ref_outage, combiner))
            for combiner in ("jd", "sc", "mrc", "sco"):
                _assert_cdf_matches(
                    lambda: empirical_throughput_cdf(trace, n, 1e-2, 1e6,
                                                     combiner),
                    rows, n, partial(_ref_throughput, combiner))

    @settings(max_examples=100, deadline=None)
    @given(rows=_trace_rows(), data=st.data())
    def test_duplicate_pair_rejected_anywhere(self, rows, data):
        mid, bs, _ = data.draw(st.sampled_from(rows))
        at = data.draw(st.integers(0, len(rows)))
        with pytest.raises(TraceError, match="duplicate"):
            _trace(rows[:at] + [(mid, bs, data.draw(_SNR_DB))] + rows[at:])

    @settings(max_examples=50, deadline=None)
    @given(rows=_trace_rows())
    def test_round_trip(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        trace = _trace(rows)
        save_trace(trace, path)
        assert load_trace(path) == trace


# The csv loop that read every trace file before the bulk reader: one csv
# row per kept line, and a TraceError that names the line of a bad row.
def _ref_load_columns(path):
    with open(path, newline="", encoding="utf-8") as handle:
        lines = handle.readlines()
    kept = [i for i, line in enumerate(lines)
            if line.lstrip() and not line.lstrip().startswith("#")]
    if not kept:
        raise TraceError(f"{path}: empty trace file")
    reader = csv.reader(lines[i] for i in kept)
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
        raise TraceError(f"{path}:{kept[len(ids) + 1] + 1}: {exc}") from exc
    if not ids:
        raise TraceError(f"{path}: trace has a header but no data rows")
    return ids, bs_ids, snrs


def _column_bits(ids, bs_ids, snrs):
    return ([(type(i), i) for i in ids], [(type(b), b) for b in bs_ids],
            [float.hex(x) for x in snrs])


def _array_column_bits(ids, bs_ids, snrs):
    # The bulk reader's id and SNR columns are int64 and float64 arrays.
    assert (ids.dtype, snrs.dtype) == (np.int64, np.float64)
    return _column_bits(ids.tolist(), bs_ids, snrs.tolist())


def _outcome(load):
    # A loaded trace as its column bits, or a TraceError as its message.
    try:
        trace = load()
    except TraceError as exc:
        return str(exc)
    return _column_bits(trace.measurement_id.tolist(), trace.bs_id.tolist(),
                        trace.avg_snr_db.tolist())


_OVER_LONG = "B" * (csv.field_size_limit() + 1)
_CLEAN_LINE = st.tuples(
    st.one_of(st.integers(-3, 3).map(str),
              st.sampled_from([" 2", "+1 ", "1_0", "-0", "١"])),
    st.sampled_from(["BS00", "BS01", " BS02 ", "Ä", "", "b\x00", "a b"]),
    st.one_of(st.floats(-200, 200).map(repr),
              st.sampled_from(["-0.0", " 1e1", "+2.5", "1_0.5", "1E-3 ",
                               ".5", "7", "٣.5"]))).map(",".join)
_SKIPPED_LINE = st.sampled_from(["# comment", "  # indented, comment", "#",
                                 "", " \t ", "\x0c", "\x85"])
_ODD_LINE = st.sampled_from([
    "0,BS00", "0,BS00,1.0,2", "0,,", "x,BS00,1.0", "1e3,BS00,1.0",
    "0x1,BS00,1.0", "9" * 25 + ",BS00,1.0", "0,BS00,nan", "0,BS00, inf",
    "0,BS00,-Infinity", "0,BS00,1e400", "0,BS00,x", '0,"a,b",1.0',
    '"0",BS00,"2.5"', '0,"q""x",1.0', '"1\n",BS00,1.0', '0,"open,1.0',
    f"0,{_OVER_LONG},1.0", "0,BS00,1.0\x00"])
_HEADER = st.sampled_from(["measurement_id,bs_id,avg_snr_db"] * 10 + [
    " measurement_id , bs_id,avg_snr_db\t", '"measurement_id",bs_id,avg_snr_db',
    "measurement_id,bs_id", "a,b,c", f"{_OVER_LONG},bs_id,avg_snr_db"])


@st.composite
def _trace_texts(draw):
    # Comments and blank lines, a header (or not), then mostly well-formed
    # rows with comments, blank lines and malformed rows among them. Lines end in LF,
    # in CRLF, or each in one of LF, CRLF and a lone CR; the last line may
    # have no end.
    lines = (draw(st.lists(_SKIPPED_LINE, max_size=2)) + [draw(_HEADER)]
             + draw(st.lists(st.one_of(*[_CLEAN_LINE] * 6, _SKIPPED_LINE,
                                       _ODD_LINE), min_size=1, max_size=6)))
    style = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    ends = [style] * len(lines) if style != "mixed" else draw(st.lists(
        st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
        max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestBulkReader:
    @settings(max_examples=400, deadline=None)
    @given(text=_trace_texts())
    # A lone CR ends the comment line, so the csv loop reads row 1.
    @example(text="measurement_id,bs_id,avg_snr_db\n0,BS00,1.0\n"
                  "# note\r1,BS01,2.0\n")
    # The loop rejects an inline comment; a bs_id is never cut to a width;
    # ids at both int64 edges load, and one past them goes to the loop.
    @example(text="measurement_id,bs_id,avg_snr_db\n0,BS00,1.0 # note\n")
    @example(text=f"measurement_id,bs_id,avg_snr_db\n0,{'B' * 40},1.0\n")
    @example(text="measurement_id,bs_id,avg_snr_db\n"
                  "9223372036854775807,BS00,1.0\n")
    @example(text="measurement_id,bs_id,avg_snr_db\n"
                  "-9223372036854775808,BS00,1.0\n")
    @example(text="measurement_id,bs_id,avg_snr_db\n"
                  "9223372036854775808,BS00,1.0\n")
    # numpy strips \x1c-\x1f around a number; int and float reject them.
    @example(text="measurement_id,bs_id,avg_snr_db\n0\x1c,BS00,1.0\n")
    def test_agrees_with_the_csv_loop(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        bulk = field_trial._bulk_columns(text)
        try:
            ref = _ref_load_columns(path)
        except TraceError as exc:
            # The bulk reader never accepts a file the loop rejects, and
            # load_trace raises the loop's message, line number included.
            assert bulk is None
            assert _outcome(lambda: load_trace(path)) == str(exc)
            return
        if bulk is not None:
            assert _array_column_bits(*bulk) == _column_bits(*ref)
        assert (_outcome(lambda: load_trace(path))
                == _outcome(lambda: SnrTrace(*ref)))

    def test_reads_the_benchmark_style_file_in_bulk(self, tmp_path):
        text = ("# synthetic\r\nmeasurement_id,bs_id,avg_snr_db\r\n"
                "3,BS01,20.25\r\n\r\n  # note\r\n3,BS00,-4.0\r\n")
        assert _array_column_bits(*field_trial._bulk_columns(text)) == (
            _column_bits([3, 3], ["BS01", "BS00"], [20.25, -4.0]))


def _rows_for_every_n(seed):
    # SNRs on a 0.25 dB grid over 25 dB, distinct within a measurement
    # except in the all-equal ones, so that MRC takes its equal or distinct
    # closed form at every N (every gap exceeds 1e-4 of the largest SNR);
    # measurement 40 ties at the top, which sends MRC at N = 3 to the
    # convolution route. Measurements have 1 to 10 links.
    rng = random.Random(seed)
    grid = [k * 0.25 for k in range(101)]
    rows = [(40, "BS00", 20.0), (40, "BS01", 20.0), (40, "BS02", 15.0)]
    for mid in range(40):
        k = rng.randint(1, 10)
        snrs = rng.sample(grid, k) if mid % 8 else [rng.choice(grid)] * k
        rows += [(mid, f"BS{b:02d}", x)
                 for b, x in zip(rng.sample(range(12), k), snrs)]
    return rows


class TestCdfRowsForEveryN:
    @pytest.mark.parametrize("combiner", ["jd", "sc", "mrc", "sco"])
    def test_rows_equal_the_scalar_functions(self, combiner):
        rows = _rows_for_every_n(3)
        trace = _trace(rows)
        for n in range(1, 9):
            _assert_cdf_matches(
                lambda: empirical_outage_cdf(trace, n, 1.5, combiner),
                rows, n, partial(_ref_outage, combiner))
            _assert_cdf_matches(
                lambda: empirical_throughput_cdf(trace, n, 1e-2, 1e6,
                                                 combiner),
                rows, n, partial(_ref_throughput, combiner))

    @pytest.mark.parametrize("combiner", ["sc", "sco"])
    @pytest.mark.parametrize("r_c", [1.5, 1000.0])
    def test_column_products_equal_the_closed_form(self, combiner, r_c):
        # N = 1-16, with the weakest SNR that db_to_linear accepts in every
        # third measurement; at R_c = 1000, a1/G overflows below -72 dB.
        rng = random.Random(7)
        grid = [k * 0.25 for k in range(-400, 240)]
        rows, seen = [], []
        for mid in range(64):
            snrs = rng.sample(grid, 1 + mid % 16)
            if mid % 3 == 0:
                snrs[0] = -3236.0
            rows += [(mid, f"BS{b:02d}", x) for b, x in enumerate(snrs)]
        trace = _trace(rows)
        assert db_to_linear(-3236.0) == 5e-324
        for n in range(1, 17):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cdf = empirical_outage_cdf(trace, n, r_c, combiner)
            values, skipped = _ref_cdf(rows, n, lambda snrs: (
                outage_exact_closed(combiner, snrs[:1] if combiner == "sco"
                                    else snrs, r_c).value))
            assert list(map(float.hex, cdf.values.tolist())) == list(map(
                float.hex, values))
            assert cdf.skipped_measurements == skipped
            seen += values
        # a1/G overflows to inf for 5e-324 at both rates: a factor of 1.
        assert 1.0 in seen

    def test_write_cdf_bytes_match_csv_writer(self):
        cdf = empirical_throughput_cdf(_trace(_rows_for_every_n(4)), 2, 1e-2,
                                       1e6, "mrc")
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(CDF_HEADER)
        for value, prob in zip(cdf.values, cdf.probabilities):
            writer.writerow([repr(float(value)), repr(float(prob))])
        got = io.StringIO()
        write_cdf(cdf, got)
        assert got.getvalue() == expected.getvalue()
