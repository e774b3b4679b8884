import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multiconn import cli, special_functions
from multiconn import outage as outage_mod
from multiconn import throughput as throughput_mod
from multiconn.field_trial import load_trace, save_trace, synthesize_trace
from multiconn.exceptions import QuadratureError
from multiconn.link_model import db_to_linear, equal_power_topology
from multiconn.selftest import run_selftest
from multiconn.throughput import throughput_asymptotic


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestOutageCommand:
    def test_basic_sweep(self, capsys):
        code, out = _run(capsys, "outage", "--n-links", "2", "--combiner",
                         "jd", "--method", "asymptotic", "--rate", "1",
                         "--snr-db-range", "0:40:5")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["snr_db", "jd_n2_asymptotic", "flags"]
        assert len(rows) == 5
        assert float(rows[0][0]) == 0.0
        # Outage decreases along the SNR grid.
        values = [float(r[1]) for r in rows]
        assert values == sorted(values, reverse=True)

    def test_mc_column_carries_ci(self, capsys):
        code, out = _run(capsys, "outage", "--n-links", "2", "--combiner",
                         "sc", "--method", "mc", "--mc-samples", "2000",
                         "--snr-db-range", "0:10:2", "--rate", "1")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["snr_db", "sc_n2_mc", "sc_n2_mc_ci", "flags"]
        assert float(rows[0][2]) > 0

    def test_saturated_flag_surfaces(self, capsys):
        code, out = _run(capsys, "outage", "--n-links", "2", "--combiner",
                         "sco", "--method", "asymptotic", "--rate", "4",
                         "--snr-db-range", "0:40:3")
        assert code == 0
        _, rows = _rows(out)
        assert "saturated" in rows[0][-1]

    def test_file_output_and_gnuplot(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _ = _run(capsys, "outage", "--combiner", "jd", "--method",
                       "asymptotic", "--out", str(out_path), "--gnuplot")
        assert code == 0
        assert out_path.exists()
        companion = out_path.with_suffix(".gp")
        assert companion.exists()
        assert out_path.name in companion.read_text()

    def test_sco_column_with_distances(self, capsys):
        # The SCo column is link 1 alone with the whole transmit power.
        code, out = _run(capsys, "outage", "--combiner", "jd", "--combiner",
                         "sco", "--method", "exact", "--n-links", "2",
                         "--distances", "2,1", "--rate", "1",
                         "--snr-db-range", "10:20:3")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["snr_db", "jd_n2_exact", "sco_n1_exact", "flags"]
        for row in rows:
            p_t = db_to_linear(float(row[0]))
            assert row[2] == repr(outage_mod.outage_exact_closed(
                "sco", [p_t * 2 ** -2.0], 1.0).value)

    def test_duplicate_entries_kept_once(self, capsys):
        code, out = _run(capsys, "outage", "--combiner", "sc", "--combiner",
                         "sc", "--method", "asymptotic", "--method",
                         "asymptotic", "--snr-db-range", "0:10:2")
        assert code == 0
        assert _rows(out)[0] == ["snr_db", "sc_n2_asymptotic", "flags"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["outage", "--combiner", "jd", "--method", "mc",
                "--mc-samples", "2000", "--seed", "5",
                "--snr-db-range", "0:20:3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestValidationExits:
    @pytest.mark.parametrize("argv", [
        ("outage", "--snr-db-range", "40:0:5"),
        ("outage", "--snr-db-range", "0:40"),
        ("outage", "--n-links", "0"),
        ("outage", "--rate", "-1"),
        ("outage", "--combiner", "sc", "--method", "bound"),
        ("outage", "--preset", "nope"),
        ("outage", "--combiner", "jd", "--method", "exact",
         "--n-links", "6"),
        ("outage", "--n-links", "2", "--distances", "1.0"),
        ("throughput", "--combiner", "sc", "--method", "paper-approx"),
        ("throughput", "--outage", "2.0"),
        ("gain", "--n-links", "1"),
        ("gain", "--outage", "0"),
        ("gain", "--rate-range", "0:25:5"),
        ("dmt", "--steps", "1"),
        ("cdf",),
        ("cdf", "--rate", "1", "--outage", "1e-3"),
        ("cdf", "--rate", "1", "--synth-measurements", "0"),
        ("cdf", "--preset", "fig5c", "--synth-bs", "0"),
        ("outage", "--snr-db-range", ""),
        ("outage", "--method", "mc", "--rate", "nan"),
        ("outage", "--method", "mc", "--rate", "inf"),
        ("outage", "--method", "mc", "--distances", "1,2", "--eta", "nan"),
        ("outage", "--method", "mc", "--distances", "1,nan"),
        ("outage", "--method", "mc", "--snr-db-range", "0:4000:3"),
        ("outage", "--method", "exact", "--rate", "nan"),
        ("outage", "--method", "exact", "--rate", "inf"),
        ("outage", "--method", "exact", "--combiner", "sc", "--rate", "nan"),
        ("outage", "--method", "asymptotic", "--rate", "nan"),
        ("outage", "--method", "asymptotic", "--rate", "inf"),
        ("outage", "--method", "bound", "--rate", "nan"),
        ("outage", "--method", "bound", "--combiner", "mrc", "--rate", "inf"),
        ("gain", "--rate-range", "0.5:2000:3"),
        ("outage", "--method", "asymptotic", "--n-links", "3",
         "--snr-db-range", "-3000:-2990:2"),
        ("cdf", "--outage", "1e-3", "--bandwidth-hz", "nan"),
        ("gain", "--n-links", "2", "--distances", "nan,1"),
        ("gain", "--n-links", "2", "--distances", "inf,1"),
        ("outage", "--method", "asymptotic", "--combiner", "sc",
         "--n-links", "2", "--rate", "600"),
        ("dmt", "--empirical", "--snr-db-range", "-3000:-2990:2"),
        ("dmt", "--empirical", "--snr-db-range", "2990:3000:2"),
        ("outage", "--method", "exact", "--snr-db-range", "3070:3080:2",
         "--rate", "2000"),
        ("throughput", "--method", "exact", "--combiner", "jd",
         "--n-links", "5"),
        ("cdf", "--outage", "1e-3", "--bandwidth-hz", "inf"),
        ("throughput", "--seed", "1"),
        ("outage", "--bandwidth-hz", "1e6"),
        ("outage", "--n-links", "2", "--distances", "a,b"),
        ("outage", "--snr-db-range", "0:inf:3"),
        ("outage", "--n-links", "2", "--distances", "1e-300,1",
         "--snr-db-range", "0:10:2"),
        ("throughput", "--n-links", "2", "--distances", "1e-300,1",
         "--snr-db-range", "0:10:2"),
        ("gain", "--n-links", "2", "--distances", "1e-300,1",
         "--rate-range", "1:2:2"),
        ("outage", "--combiner", "sco", "--n-links", "3",
         "--distances", "1,2"),
        ("synth-trace", "--mean-db", "nan"),
        ("synth-trace", "--mean-db", "inf"),
        ("cdf", "--rate", "1", "--synth-measurements", "3", "--synth-bs", "2",
         "--n-links", "3"),
    ])
    def test_exit_code_2(self, capsys, argv):
        assert cli.main(list(argv)) == 2

    def test_jd_rate_overflow_warns_nothing(self, capsys):
        # A_1(2000) = 2^2000 - 1 overflows; numpy used to warn and exit 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["outage", "--method", "exact", "--snr-db-range",
                             "3070:3080:2", "--rate", "2000"]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_trace_with_underflowed_snr_product_exits_2(self, tmp_path,
                                                          capsys):
        path = tmp_path / "trace.csv"
        path.write_text("measurement_id,bs_id,avg_snr_db\n"
                        "0,BS00,-3000\n0,BS01,-3000\n0,BS02,-2990\n")
        assert cli.main(["cdf", "--trace", str(path), "--combiner", "jd",
                         "--n-links", "3", "--rate", "1"]) == 2
        assert "underflows" in capsys.readouterr().err

    def test_missing_trace_is_io_error(self, capsys):
        assert cli.main(["cdf", "--trace", "/nonexistent/trace.csv",
                         "--rate", "1"]) == 4

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_snr_is_io_error(self, tmp_path, capsys, snr):
        path = tmp_path / "trace.csv"
        path.write_text("measurement_id,bs_id,avg_snr_db\n"
                        f"0,BS00,20.0\n0,BS01,{snr}\n")
        assert cli.main(["cdf", "--trace", str(path), "--rate", "1"]) == 4
        assert f"{path}:3: non-finite" in capsys.readouterr().err


def _mostly(valid, invalid):
    # A valid value nine times in ten, so that most argv reach exit 0.
    return st.integers(0, 9).flatmap(lambda k: valid if k else invalid)


def _option(draw, name, values):
    # The option with one drawn value, or nothing.
    value = draw(st.one_of(st.none(), values))
    return [] if value is None else [name, str(value)]


def _repeated(draw, name, values):
    return [arg for value in draw(st.lists(values, max_size=3))
            for arg in (name, str(value))]


# Every size stays small: one linspace or synthetic trace of a large drawn
# count would allocate gigabytes.
@st.composite
def _range(draw, low, high):
    start = draw(_mostly(st.floats(low, high),
                         st.sampled_from([-3000.0, 3070.0, math.nan])))
    stop = start + draw(_mostly(st.sampled_from([5.0, 30.0]),
                                st.sampled_from([-1.0, 0.0, math.inf])))
    steps = draw(_mostly(st.integers(2, 8), st.integers(0, 1)))
    return draw(_mostly(st.just(f"{start!r}:{stop!r}:{steps}"),
                        st.sampled_from(["", "0:40", "a:b:2"])))


_N_LINKS = _mostly(st.sampled_from([1, 2, 3]), st.sampled_from([0, 5]))
_DISTANCES = _mostly(st.sampled_from(["2,1", "1,1.5,2.5", "3"]),
                     st.sampled_from(["1e-300,1", "1e-150,1", "1e300,1",
                                      "nan,1", "1,0", "a,b"]))
_ETA = _mostly(st.sampled_from([2.0, 3.5]), st.sampled_from([0.0, math.nan]))
_PROBABILITY = _mostly(st.sampled_from([1e-3, 1.2e-3, 1e-5, 1e-2]),
                       st.sampled_from([0.0, 1.0, math.nan]))
_COMBINER = st.sampled_from(["jd", "sc", "mrc", "sco"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["outage", "throughput", "gain", "cdf"]))
    argv = [command]
    if command == "gain":
        # gain needs two links or more.
        argv += (_repeated(draw, "--n-links", _N_LINKS.map(lambda n: n + 1))
                 + _repeated(draw, "--kind", st.sampled_from(cli._GAIN_KINDS))
                 + _repeated(draw, "--outage", _PROBABILITY)
                 + ["--rate-range", draw(_range(1e-3, 20.0))])
    else:
        argv += (_repeated(draw, "--n-links", _N_LINKS)
                 + _repeated(draw, "--combiner", _COMBINER))
    if command in ("outage", "throughput"):
        methods = (cli._OUTAGE_METHODS if command == "outage"
                   else cli._THROUGHPUT_METHODS)
        argv += (_repeated(draw, "--method", st.sampled_from(methods))
                 + ["--snr-db-range", draw(_range(-30.0, 80.0))])
    if command == "outage":
        argv += (_option(draw, "--rate", _mostly(
                     st.floats(0.05, 8.0), st.sampled_from([600.0, 0.0])))
                 + ["--mc-samples", str(draw(_mostly(
                     st.integers(1000, 5000), st.sampled_from([-1, 999]))))]
                 + _option(draw, "--seed", st.integers(-2**70, 2**70)))
    if command == "throughput":
        argv += _option(draw, "--outage", _PROBABILITY)
    if command == "cdf":
        metric = draw(_mostly(st.sampled_from([["--rate", "1.5"],
                                               ["--outage", "1e-3"]]),
                              st.sampled_from([[], ["--rate", "1", "--outage",
                                                    "1e-3"]])))
        argv += (metric + ["--synth-measurements", str(draw(_mostly(
                     st.integers(1, 50), st.integers(-1, 0))))]
                 + _option(draw, "--synth-bs", _mostly(st.integers(1, 8),
                                                       st.just(0)))
                 + draw(_mostly(st.just([]), st.just(
                     ["--trace", "no-such-trace.csv"]))))
    elif draw(st.integers(0, 3)) == 0:
        argv += (_option(draw, "--distances", _DISTANCES)
                 + _option(draw, "--eta", _ETA))
    if command in ("throughput", "cdf"):
        argv += _option(draw, "--bandwidth-hz", _mostly(
            st.just(1e6), st.sampled_from([0.0, math.inf])))
    preset = draw(_mostly(st.none(), st.sampled_from(
        ["nope", "fig2a", "fig2b", "fig3a", "fig5c"])))
    return argv + ([] if preset is None else ["--preset", preset])


def _csv_blocks(text):
    # The CSV tables of an output: one per '# ' section of a cdf output.
    blocks = [[]]
    for line in text.splitlines():
        if line.startswith("# "):
            blocks.append([])
        else:
            blocks[-1].append(line)
    return [list(csv.reader(lines)) for lines in blocks if lines]


class TestExitCodes:
    # Any argv of the sweep and CDF commands exits 0, 2, 3 or 4, raises
    # nothing, warns nothing (numpy's RuntimeWarnings are errors here), and
    # on success writes rows as wide as their header.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argv())
    @example(argv=["outage", "--n-links", "2", "--distances", "1e-300,1",
                   "--snr-db-range", "0:10:2"])
    @example(argv=["throughput", "--n-links", "2", "--distances",
                   "1e-300,1", "--snr-db-range", "0:10:2"])
    # About one Monte-Carlo draw in 40 of link 1 overflows at 80 dB.
    @example(argv=["outage", "--method", "mc", "--n-links", "2",
                   "--distances", "1e-150,1", "--snr-db-range", "70:80:2",
                   "--mc-samples", "5000"])
    # At 0 dB both means are 5e307, so MRC sums overflow.
    @example(argv=["outage", "--method", "mc", "--combiner", "mrc",
                   "--n-links", "2", "--distances", "1e-154,1e-154",
                   "--snr-db-range", "0:10:2", "--mc-samples", "1000"])
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        if code == 0:
            blocks = _csv_blocks(out.getvalue())
            assert blocks
            for header, *rows in blocks:
                assert all(len(row) == len(header) for row in rows)


def _capture(argv):
    # Exit code, stdout and stderr of one run, numpy warnings as errors.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sweep_spy(column=None, cells=None):
    # cli._sweep with every column function replaced by ``column`` (None:
    # kept), recording each per-point cell's (i, j) in ``cells``.
    sweep = cli._sweep

    def spy(axis, grid, point, plan, suffixes, cell, columns, *rest, **kw):
        def counted(links, i, j, entry):
            cells.append((i, j))
            return cell(links, i, j, entry)
        sweep(axis, grid, point, plan, suffixes,
              cell if cells is None else counted, column or columns, *rest,
              **kw)
    return mock.patch.object(cli, "_sweep", spy)


def _per_point(argv):
    # The per-point route: every cell through the scalar public functions
    # (outage_asymptotic, outage_jd_lower_bound_tse, throughput_asymptotic,
    # snr_gain_mco_sco, snr_gain_jd_vs) on each point's topology.
    with _sweep_spy(column=lambda entry: None):
        return _capture(argv)


@st.composite
def _column_argv(draw):
    # Sweeps whose columns have kernels (exact outage cells interleaved),
    # with grids reaching -30 and 80 dB, equal and unequal distances, rates
    # where A_1^N or A_N overflows and Newton targets near 1e308.
    command = draw(st.sampled_from(["outage", "throughput", "gain"]))
    low = 2 if command == "gain" else 1
    argv = [command]
    if draw(st.booleans()):
        n = draw(st.integers(max(low, 1), 4))
        spec = draw(st.one_of(
            st.sampled_from(["1", "2.5", "1e-60"]).map(
                lambda d: ",".join([d] * n)),
            st.lists(st.sampled_from(["0.5", "1", "3", "40", "1e-80",
                                      "1e-300"]), min_size=n, max_size=n)
            .map(",".join)))
        argv += ["--n-links", str(n), "--distances", spec,
                 "--eta", draw(st.sampled_from(["2", "3.5", "0", "nan"]))]
    else:
        argv += _repeated(draw, "--n-links", st.integers(low, 4))
    if command == "gain":
        argv += (_repeated(draw, "--kind", st.sampled_from(cli._GAIN_KINDS))
                 + _repeated(draw, "--outage", st.sampled_from(
                     ["1e-3", "1e-6", "0.3"]))
                 + ["--rate-range", draw(st.sampled_from([
                     "1e-3:30:8", "0.5:25:5", "-1:2:4", "590:600:3",
                     "1015:1030:4"]))])
        return argv
    start = draw(st.one_of(st.sampled_from([-30.0, 75.0]),
                           st.floats(-30.0, 75.0)))
    stop = draw(st.sampled_from([5.0, 20.0, 80.0 - start, 110.0]))
    argv += (_repeated(draw, "--combiner", _COMBINER)
             + ["--snr-db-range",
                f"{start!r}:{start + max(stop, 1.0)!r}:"
                f"{draw(st.integers(2, 8))}"])
    if command == "outage":
        argv += (_repeated(draw, "--method", st.sampled_from(
                     ["asymptotic", "bound", "exact"]))
                 + ["--rate", repr(draw(st.one_of(
                     st.floats(0.05, 8.0),
                     st.sampled_from([600.0, 0.0, 1e-9, 1100.0]))))])
    else:
        # Exact roots only for SC, MRC and SCo: a JD root per example is
        # too slow here.
        if "jd" not in argv and "--combiner" in argv:
            methods = ["asymptotic", "paper-approx", "exact"]
        else:
            methods = ["asymptotic", "paper-approx"]
        argv += (_repeated(draw, "--method", st.sampled_from(methods))
                 + ["--outage", repr(draw(st.one_of(
                     st.floats(1e-12, 0.9),
                     st.sampled_from([1e-3, 1e-5, 0.3]))))])
    return argv


class TestColumnsMatchPerPoint:
    # Every cell of a column kernel has the bits of the scalar public
    # function at its grid point, its saturated and undefined flags sit on
    # the same cells, and the exit code and error message are the ones the
    # per-point route gives.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_column_argv())
    @example(argv=["throughput", "--n-links", "2", "--distances",
                   "1e-80,1e-80", "--snr-db-range", "-30:80:8", "--outage",
                   "0.3", "--method", "asymptotic"])
    @example(argv=["gain", "--kind", "jd-mrc", "--n-links", "3",
                   "--rate-range", "1015:1030:4"])
    @example(argv=["outage", "--combiner", "sc", "--combiner", "jd",
                   "--n-links", "2", "--rate", "600.0"])
    def test_same_output_as_per_point(self, argv):
        assert _capture(argv) == _per_point(argv)

    def test_kernel_columns_take_no_cell_per_point(self):
        cells = []
        with _sweep_spy(cells=cells):
            for argv in (["outage", "--combiner", "jd", "--combiner", "sc",
                          "--combiner", "mrc", "--combiner", "sco",
                          "--n-links", "3"],
                         ["outage", "--combiner", "jd", "--combiner", "mrc",
                          "--method", "bound", "--method", "asymptotic"],
                         ["throughput", "--method", "asymptotic", "--method",
                          "paper-approx", "--snr-db-range", "40:60:7"],
                         ["outage", "--method", "exact", "--combiner", "sc",
                          "--combiner", "mrc", "--combiner", "sco",
                          "--n-links", "2", "--n-links", "3"],
                         ["throughput", "--method", "exact", "--combiner",
                          "sc", "--combiner", "mrc", "--combiner", "sco",
                          "--n-links", "2", "--n-links", "3",
                          "--snr-db-range", "0:40:5"],
                         ["gain", "--kind", "mco-sco", "--kind", "jd-sc",
                          "--kind", "jd-mrc", "--n-links", "3"]):
                assert _capture(argv)[0] == 0
        assert cells == []

    def test_newton_convergence_error_exits_3_in_both_routes(
            self, monkeypatch):
        monkeypatch.setattr(special_functions, "_INVERSE_MAX_ITER", 1)
        argv = ["throughput", "--snr-db-range", "20:30:3"]
        code, out, err = _capture(argv)
        assert code == 3 and "did not converge" in err
        assert (code, out, err) == _per_point(argv)


class TestJdExactColumns:
    # Exact outage and throughput are sweep columns: every cell has the
    # bits of outage_jd_quadrature, outage_exact_closed or
    # achievable_rate_exact at its point, and a point that raises takes the
    # per-point route.
    @pytest.mark.parametrize("argv", [
        ["--n-links", "2", "--snr-db-range", "-10:40:11", "--rate", "2.5"],
        ["--n-links", "2", "--distances", "1,1000", "--snr-db-range",
         "0:30:7", "--rate", "1"],
        ["--n-links", "3", "--distances", "1,1.7,30", "--snr-db-range",
         "-5:35:9", "--rate", "3.3"],
        ["--n-links", "4", "--snr-db-range", "5:25:3", "--rate", "1.4"],
        ["--n-links", "2", "--n-links", "3", "--combiner", "jd",
         "--combiner", "sc", "--snr-db-range", "0:20:4", "--rate", "0.7"]])
    def test_outage_cells_match_per_point(self, argv):
        argv = ["outage", "--method", "exact"] + argv
        code, out, err = _capture(argv)
        assert code == 0 and err == ""
        assert (code, out, err) == _per_point(argv)

    def test_outage_with_small_blocks(self, monkeypatch):
        monkeypatch.setattr(outage_mod, "_BLOCK_NODES", 5)
        argv = ["outage", "--method", "exact", "--n-links", "3",
                "--snr-db-range", "0:30:4", "--rate", "2"]
        assert _capture(argv)[0] == 0
        assert _capture(argv) == _per_point(argv)

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_throughput_cells_match_per_point(self, n):
        # The lowest points cannot reach 1e-3 within the rate bracket: they
        # are undefined, flagged by the per-point route.
        argv = ["throughput", "--method", "exact", "--n-links", n,
                "--snr-db-range", "-100:20:6", "--outage", "1e-3"]
        code, out, err = _capture(argv)
        assert code == 0
        _, rows = _rows(out)
        undefined = [row[1:] == ["nan", f"jd_n{n}_exact:undefined"]
                     for row in rows]
        assert undefined[0] and not undefined[-1]
        assert undefined == sorted(undefined, reverse=True)
        assert (code, out, err) == _per_point(argv)

    def test_quadrature_error_of_a_middle_point(self, monkeypatch):
        # With 64 innermost nodes per estimate at most, the roots at 50 and
        # 55 dB converge and the one at 60 dB raises: exit 3 with its
        # message.
        monkeypatch.setattr(outage_mod, "_MAX_NODES", 64)
        argv = ["throughput", "--method", "exact", "--n-links", "2",
                "--distances", "1,3", "--snr-db-range", "50:70:5",
                "--outage", "1e-3"]
        for snr_db in (50.0, 55.0):
            throughput_mod.achievable_rate_exact("jd", equal_power_topology(
                db_to_linear(snr_db), [1.0, 3.0], 2.0, 20e6), 1e-3)
        topology = equal_power_topology(db_to_linear(60.0), [1.0, 3.0], 2.0,
                                        20e6)
        with pytest.raises(QuadratureError) as raised:
            throughput_mod.achievable_rate_exact("jd", topology, 1e-3)
        code, out, err = _capture(argv)
        assert (code, out) == (3, "")
        assert err == f"numeric failure: {raised.value}\n"
        assert (code, out, err) == _per_point(argv)

    def test_columns_call_no_per_point_function(self, monkeypatch):
        # A silent fallback to the per-point route would call these.
        def refuse(*args, **kwargs):
            raise AssertionError("per-point call in a clean sweep")
        monkeypatch.setattr(outage_mod, "outage_jd_quadrature", refuse)
        monkeypatch.setattr(outage_mod, "outage_exact_closed", refuse)
        monkeypatch.setattr(throughput_mod, "achievable_rate_exact", refuse)
        every = ["--combiner", "jd", "--combiner", "sc", "--combiner", "mrc",
                 "--combiner", "sco"]
        for argv in (["outage", "--method", "exact", "--n-links", "2",
                      "--n-links", "3", "--n-links", "4",
                      "--snr-db-range", "0:30:3", "--rate", "2"] + every,
                     ["throughput", "--method", "exact", "--n-links", "2",
                      "--n-links", "3", "--snr-db-range", "10:22:3"]
                     + every):
            code, out, err = _capture(argv)
            assert code == 0 and err == "", err


class TestThroughputCommand:
    def test_preset_has_undefined_low_snr_cells(self, capsys):
        code, out = _run(capsys, "throughput", "--preset", "fig2b",
                         "--snr-db-range", "10:20:2")
        assert code == 0
        header, rows = _rows(out)
        assert header[0] == "snr_db"
        assert any("undefined" in r[-1] for r in rows)
        assert any(v == "nan" for r in rows for v in r[1:-1])

    def test_sco_column_with_distances(self, capsys):
        code, out = _run(capsys, "throughput", "--combiner", "sco",
                         "--n-links", "3", "--distances", "3,1,2",
                         "--outage", "1e-3", "--snr-db-range", "20:30:2")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["snr_db", "sco_n1_asymptotic_bps", "flags"]
        for row in rows:
            p_t = db_to_linear(float(row[0]))
            assert row[1] == repr(throughput_asymptotic(
                "sco", [p_t * 3 ** -2.0], 1e-3, 20e6).throughput)

    def test_exact_root_failures(self, capsys, monkeypatch):
        # An unattainable target leaves an undefined cell; a root that does
        # not converge exits 3.
        argv = ["throughput", "--method", "exact", "--combiner", "sc",
                "--snr-db-range", "-100:20:2", "--outage", "1e-3"]
        code, out = _run(capsys, *argv)
        assert code == 0
        _, rows = _rows(out)
        assert rows[0][1:] == ["nan", "sc_n2_exact:undefined"]
        assert float(rows[1][1]) > 0 and rows[1][2] == ""
        monkeypatch.setattr(throughput_mod, "_MAX_ROOT_ITERATIONS", 1)
        code, _, err = _capture(argv)
        assert code == 3 and "numeric failure" in err
        assert "did not converge" in err

    def test_exact_tracks_asymptotic_at_high_snr(self, capsys):
        code, out = _run(capsys, "throughput", "--combiner", "mrc",
                         "--method", "exact", "--method", "asymptotic",
                         "--outage", "1e-3", "--snr-db-range", "55:60:2")
        assert code == 0
        _, rows = _rows(out)
        exact, asym = float(rows[-1][1]), float(rows[-1][2])
        assert exact == pytest.approx(asym, rel=0.05)


class TestWeakLink:
    # Link 1 at distance 1e10 has an average SNR near 1e-20: JD decodes
    # what link 2 alone carries, as SC does; exact JD used to read 0.
    def test_exact_jd_outage(self, capsys):
        code, out = _run(capsys, "outage", "--method", "exact", "--method",
                         "mc", "--combiner", "jd", "--combiner", "sc",
                         "--n-links", "2", "--distances", "1e10,1",
                         "--snr-db-range", "0:10:2", "--rate", "0.5",
                         "--mc-samples", "100000")
        assert code == 0
        header, rows = _rows(out)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            exact = float(row[col["jd_n2_exact"]])
            mc, ci = float(row[col["jd_n2_mc"]]), float(row[col["jd_n2_mc_ci"]])
            assert exact == pytest.approx(float(row[col["sc_n2_exact"]]),
                                          rel=1e-9)
            assert abs(exact - mc) <= 3 * ci

    def test_exact_jd_throughput(self, capsys):
        code, out = _run(capsys, "throughput", "--method", "exact",
                         "--combiner", "jd", "--combiner", "sc",
                         "--n-links", "2", "--distances", "1e10,1",
                         "--snr-db-range", "10:20:2", "--outage", "1e-2")
        assert code == 0
        header, rows = _rows(out)
        assert header[1:3] == ["jd_n2_exact_bps", "sc_n2_exact_bps"]
        for row in rows:
            assert row[3] == ""
            assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-6)


class TestGainCommand:
    def test_fig3b_identity(self, capsys):
        code, out = _run(capsys, "gain", "--preset", "fig3b")
        assert code == 0
        header, rows = _rows(out)
        for n in (2, 3, 4):
            sc_col = header.index(f"jd_sc_n{n}_db")
            mrc_col = header.index(f"jd_mrc_n{n}_db")
            expected = 10.0 * math.log10(math.factorial(n)) / n
            for row in rows:
                gap = float(row[sc_col]) - float(row[mrc_col])
                assert gap == pytest.approx(expected, abs=1e-9)

    def test_duplicate_entries_kept_once(self, capsys):
        code, out = _run(capsys, "gain", "--kind", "jd-sc", "--kind", "jd-sc",
                         "--rate-range", "1:2:2")
        assert code == 0
        assert _rows(out)[0] == ["rate", "jd_sc_n2_db"]
        code, out = _run(capsys, "gain", "--outage", "1e-3", "--outage",
                         "1e-3", "--rate-range", "1:2:2")
        assert code == 0
        assert _rows(out)[0] == ["rate", "mco_sco_n2_p1e-03_db"]

    def test_colliding_column_names_exit_2(self, capsys):
        assert cli.main(["gain", "--outage", "1e-3", "--outage", "1.2e-3",
                         "--rate-range", "1:2:2"]) == 2
        assert "mco_sco_n2_p1e-03" in capsys.readouterr().err

    def test_gnuplot_plots_every_column(self, tmp_path, capsys):
        out_path = tmp_path / "gain.csv"
        code, _ = _run(capsys, "gain", "--kind", "jd-sc", "--kind", "jd-mrc",
                       "--rate-range", "1:2:2", "--out", str(out_path),
                       "--gnuplot")
        assert code == 0
        script = out_path.with_suffix(".gp").read_text()
        assert "using 1:2 " in script and "using 1:3 " in script

    def test_fig3a_columns(self, capsys):
        code, out = _run(capsys, "gain", "--preset", "fig3a")
        assert code == 0
        header, rows = _rows(out)
        assert "mco_sco_n2_p1e-03_db" in header
        assert "mco_sco_n4_p1e-05_db" in header
        assert len(rows) == 50


class TestDmtCommand:
    def test_table_values(self, capsys):
        code, out = _run(capsys, "dmt", "--combiner", "jd", "--n-links", "2",
                         "--steps", "3")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["combiner", "n_links", "r", "d_analytic"]
        assert [(r[2], r[3]) for r in rows] == [
            ("0.0", "2.0"), ("1.0", "1.0"), ("2.0", "0.0")]

    def test_empirical_column(self, capsys):
        code, out = _run(capsys, "dmt", "--combiner", "sc", "--n-links", "3",
                         "--steps", "3", "--empirical")
        assert code == 0
        header, rows = _rows(out)
        assert header[-1] == "d_empirical"
        for row in rows:
            assert float(row[-1]) == pytest.approx(float(row[-2]), abs=0.1)


class TestCdfCommand:
    def test_stdout_mode_has_section_markers(self, capsys):
        code, out = _run(capsys, "cdf", "--synth-measurements", "20",
                         "--synth-bs", "4", "--combiner", "sc",
                         "--n-links", "2", "--rate", "1")
        assert code == 0
        assert out.startswith("# metric=outage combiner=sc n=2")
        assert "value,probability" in out

    def test_file_mode_writes_one_file_per_combo(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        code, _ = _run(capsys, "cdf", "--synth-measurements", "20",
                       "--synth-bs", "4", "--combiner", "sc", "--combiner",
                       "mrc", "--n-links", "2", "--n-links", "3",
                       "--rate", "1", "--out", str(prefix))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["run_outage_mrc_n2.csv", "run_outage_mrc_n3.csv",
                         "run_outage_sc_n2.csv", "run_outage_sc_n3.csv"]

    def test_preset_honours_bandwidth(self, capsys):
        argv = ("cdf", "--preset", "fig5d", "--combiner", "sco",
                "--synth-measurements", "20")
        _, wide = _run(capsys, *argv)
        _, narrow = _run(capsys, *argv, "--bandwidth-hz", "1e6")
        # Line 0 is the section marker, line 1 the CSV header.
        first = [float(out.splitlines()[2].split(",")[0])
                 for out in (wide, narrow)]
        assert first[1] == pytest.approx(first[0] / 20)

    def test_single_link_baseline_collapses_to_n1(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        code, _ = _run(capsys, "cdf", "--synth-measurements", "20",
                       "--synth-bs", "4", "--combiner", "sco", "--n-links",
                       "2", "--rate", "1", "--out", str(prefix))
        assert code == 0
        assert (tmp_path / "run_outage_sco_n1.csv").exists()

    def test_links_beyond_synth_bs(self, tmp_path, capsys):
        # A synthetic trace of 2 base stations cannot give 3 links (exit 2,
        # it exited 4), but SCo reads only the strongest. A trace file
        # short of links is still an I/O error.
        argv = ("cdf", "--rate", "1", "--synth-measurements", "3",
                "--synth-bs", "2", "--n-links", "3")
        assert cli.main(list(argv)) == 2
        assert "exceeds --synth-bs 2" in capsys.readouterr().err
        assert _run(capsys, *argv, "--combiner", "sco")[0] == 0
        path = tmp_path / "trace.csv"
        save_trace(synthesize_trace(3, 2), path)
        assert _run(capsys, "cdf", "--rate", "1", "--trace", str(path),
                    "--n-links", "3")[0] == 4


class TestSynthTraceCommand:
    def test_output_loads_as_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        code, _ = _run(capsys, "synth-trace", "--measurements", "15", "--bs",
                       "5", "--seed", "2", "--out", str(path))
        assert code == 0
        trace = load_trace(path)
        assert len(trace.records) == 75

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli.main(["synth-trace", "--measurements", "10", "--bs",
                             "4", "--seed", "3", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_and_save_trace_match_out_file(self, tmp_path, capsys):
        argv = ["synth-trace", "--measurements", "6", "--bs", "3",
                "--seed", "4"]
        path = tmp_path / "cli.csv"
        code, _ = _run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes().startswith(
            b"measurement_id,bs_id,avg_snr_db\n0,BS00,")
        assert b"\r" not in path.read_bytes()
        code, stdout = _run(capsys, *argv)
        assert stdout.encode() == path.read_bytes()
        saved = tmp_path / "saved.csv"
        save_trace(synthesize_trace(6, 3, seed=4), saved)
        assert saved.read_bytes() == path.read_bytes()


class TestSelftest:
    def test_passes_on_pristine_build(self, capsys):
        assert run_selftest(mc_samples=100_000) is True
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_detects_perturbed_asymptote(self, capsys, monkeypatch):
        # A 10% error in the asymptote must trip the tightness check.
        original = outage_mod.outage_asymptotic

        def perturbed(combiner, avg_snrs, r_c):
            est = original(combiner, avg_snrs, r_c)
            return type(est)(value=est.value * 1.1, method=est.method,
                             saturated=est.saturated)

        monkeypatch.setattr(outage_mod, "outage_asymptotic", perturbed)
        assert run_selftest(mc_samples=100_000) is False
        assert "FAIL" in capsys.readouterr().out

    def test_cli_exit_codes(self, capsys, monkeypatch):
        assert cli.main(["selftest", "--mc-samples", "100000"]) == 0
        monkeypatch.setattr(
            outage_mod, "outage_asymptotic",
            lambda combiner, avg_snrs, r_c: outage_mod.OutageEstimate(
                value=1e-12, method="asymptotic"))
        assert cli.main(["selftest", "--mc-samples", "100000"]) == 3


def test_runtime_needs_no_scipy():
    # A fresh interpreter runs the exact JD routes and the selftest, then
    # lists every scipy module that got imported.
    script = """
import sys
from multiconn import cli
assert cli.main(["outage", "--method", "exact", "--combiner", "jd",
                 "--n-links", "3", "--snr-db-range", "0:10:2"]) == 0
assert cli.main(["throughput", "--method", "exact", "--combiner", "jd",
                 "--n-links", "2", "--snr-db-range", "10:12:2"]) == 0
assert cli.main(["selftest", "--mc-samples", "100000"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
