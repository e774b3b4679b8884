import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiconn.exceptions import DomainError, TraceError
from multiconn.field_trial import (CDF_HEADER, EmpiricalCdf, SnrModelParams,
                                   SnrTrace, TraceRecord,
                                   empirical_outage_cdf,
                                   empirical_throughput_cdf, load_trace,
                                   save_cdf, save_trace, strongest_links,
                                   synthesize_trace)
from multiconn.link_model import db_to_linear
from multiconn.outage import outage_asymptotic, outage_exact_closed
from multiconn.throughput import (achievable_rate_asymptotic,
                                  throughput_from_rate)


def _trace(rows):
    return SnrTrace.from_records(TraceRecord(*row) for row in rows)


SMALL_TRACE = _trace([
    (0, "BS00", 20.0), (0, "BS01", 25.0), (0, "BS02", 15.0),
    (1, "BS00", 30.0), (1, "BS01", 10.0), (1, "BS02", 18.0),
])


class TestTraceContainer:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(TraceError):
            _trace([(0, "BS00", 20.0), (0, "BS00", 21.0)])

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            SnrTrace.from_records(())

    def test_measurement_ids_sorted(self):
        assert SMALL_TRACE.measurement_ids() == [0, 1]

    def test_entries_for(self):
        entries = SMALL_TRACE.entries_for(1)
        assert [e.bs_id for e in entries] == ["BS00", "BS01", "BS02"]

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

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"measurement_id,bs_id,avg_snr_db\n0,\xff,1.0\n")
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(path)


class TestStrongestLinks:
    def test_descending_linear_values(self):
        snrs = strongest_links(SMALL_TRACE, 0, 2)
        assert snrs == pytest.approx([db_to_linear(25.0), db_to_linear(20.0)])

    def test_tie_broken_by_bs_id(self):
        trace = _trace([(0, "BS01", 20.0), (0, "BS00", 20.0),
                        (0, "BS02", 10.0)])
        assert strongest_links(trace, 0, 2) == pytest.approx(
            [db_to_linear(20.0)] * 2)

    def test_too_few_links(self):
        with pytest.raises(TraceError):
            strongest_links(SMALL_TRACE, 0, 4)

    def test_validation(self):
        with pytest.raises(DomainError):
            strongest_links(SMALL_TRACE, 0, 0)


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
            outage_exact_closed("sc", strongest_links(SMALL_TRACE, mid, 2),
                                1.0).value
            for mid in (0, 1))
        assert list(cdf.values) == pytest.approx(expected, rel=1e-14)

    def test_joint_decoding_uses_asymptote(self):
        cdf = empirical_outage_cdf(SMALL_TRACE, 2, 1.0, "jd")
        expected = sorted(
            outage_asymptotic("jd", strongest_links(SMALL_TRACE, mid, 2),
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
                "mrc", strongest_links(SMALL_TRACE, mid, 2), p)
            for mid in (0, 1))
        assert list(cdf.values) == pytest.approx(expected, rel=1e-14)

    def test_single_link_baseline_reads_strongest(self):
        cdf = empirical_throughput_cdf(SMALL_TRACE, 1, 1e-3, 20e6, "sco")
        expected = sorted(
            20e6 * 0.999 * math.log2(1e-3 * strongest_links(
                SMALL_TRACE, mid, 1)[0] + 1.0)
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
        assert a.measurement_ids() == list(range(10))
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
        assert synthesize_trace(30, 5, seed=11).records == tuple(
            TraceRecord(*row) for row in rows)

    def test_params_shift_the_mean(self):
        params = SnrModelParams(mean_db=50.0, bs_spread_db=0.5,
                                shadowing_db=0.5)
        trace = synthesize_trace(200, 4, snr_model_params=params, seed=1)
        mean = np.mean([r.avg_snr_db for r in trace.records])
        assert mean == pytest.approx(50.0, abs=1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            synthesize_trace(0, 4)
        with pytest.raises(DomainError):
            synthesize_trace(4, 0)

    def test_per_row_combiner_ordering(self):
        # Sanity version of the full-pipeline ordering property.
        trace = synthesize_trace(100, 8, seed=7)
        for mid in trace.measurement_ids():
            snrs = strongest_links(trace, mid, 2)
            p_jd = outage_asymptotic("jd", snrs, 1.0).value
            p_mrc = outage_exact_closed("mrc", snrs, 1.0).value
            p_sc = outage_exact_closed("sc", snrs, 1.0).value
            assert p_jd <= p_mrc <= p_sc


# Brute-force reference for the trace layer: scan every row, then rank with
# Python's sorted (descending SNR, then ascending bs_id by code point).
def _ref_entries(rows, mid):
    return [TraceRecord(*row) for row in rows if row[0] == mid]


def _ref_strongest(rows, mid, n):
    ranked = sorted(_ref_entries(rows, mid),
                    key=lambda r: (-r.avg_snr_db, r.bs_id))
    if len(ranked) < n:
        return None
    return [db_to_linear(r.avg_snr_db) for r in ranked[:n]]


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
        st.tuples(st.sampled_from([-7, 0, 3, 4, 19, 2**40]),
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
        assert trace.records == tuple(TraceRecord(*row) for row in rows)
        ids = sorted({row[0] for row in rows})
        assert trace.measurement_ids() == ids
        assert trace.entries_for(5) == []
        for mid in ids:
            assert trace.entries_for(mid) == _ref_entries(rows, mid)
            for n in range(1, 5):
                expected = _ref_strongest(rows, mid, n)
                if expected is None:
                    with pytest.raises(TraceError):
                        strongest_links(trace, mid, n)
                else:
                    assert strongest_links(trace, mid, n) == expected

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
