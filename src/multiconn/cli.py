"""Command-line surface: sweeps, DMT tables, trace CDFs, and the selftest.

All values cross this boundary in dB and SI units; conversion to the linear
internal representation happens here. Output is CSV with a fixed column
order, so re-running a command with the same flags and seed is
byte-identical.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import field_trial, selftest
from . import outage as outage_mod
from .combiners import Combiner
from .exceptions import (BracketError, ConvergenceError, DomainError,
                         QuadratureError, TraceError,
                         UnsupportedLinkCountError, _require_count,
                         _require_finite, _require_positive,
                         _require_probability)
from .gains_dmt import (GainQuery, _jd_gain, _mco_sco_gain, dmt,
                        dmt_empirical, snr_gain_jd_vs, snr_gain_mco_sco)
from .link_model import db_to_linear, equal_power_topology
from .special_functions import LN2, _coding_constants, _each, coding_constant
from .throughput import (_rate_inverse, _rate_rows, throughput_asymptotic,
                         throughput_exact)

_COMBINER_CHOICES = [c.value for c in Combiner]
_OUTAGE_METHODS = ["exact", "asymptotic", "bound", "mc"]
_THROUGHPUT_METHODS = ["exact", "asymptotic", "paper-approx"]
_GAIN_KINDS = ["mco-sco", "jd-sc", "jd-mrc"]


def _parse_range(spec: str) -> list[float]:
    try:
        start_s, stop_s, steps_s = spec.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise DomainError(f"range must be start:stop:steps, got {spec!r}")
    _require_finite("range start", start)
    _require_finite("range stop", stop)
    if not start < stop:
        raise DomainError(f"range start must be below stop in {spec!r}")
    _require_count("range steps", steps, 2)
    return [float(x) for x in np.linspace(start, stop, steps)]


def _parse_distances(spec, n_links) -> list[float]:
    """The per-link distances, one per link of every count in ``n_links``
    (unit distances if ``spec`` is None); a count n takes the first n."""
    if spec is None:
        return [1.0] * max(n_links)
    try:
        values = [float(x) for x in spec.split(",")]
    except ValueError:
        raise DomainError(f"--distances must be numbers, got {spec!r}")
    for d in values:
        _require_positive("distance", d)
    for n in n_links:
        if n != len(values):
            raise DomainError(
                f"--distances has {len(values)} entries but --n-links "
                f"includes {n}")
    return values


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _plan_n(combiner: Combiner, n: int) -> int:
    # SCo is the single-link baseline regardless of the sweep's link counts.
    return 1 if combiner is Combiner.SCO else n


# The (method, combiner) pairs that have no formula.
_UNDEFINED = {("bound", Combiner.SC), ("bound", Combiner.SCO),
              ("paper-approx", Combiner.SC), ("paper-approx", Combiner.MRC),
              ("paper-approx", Combiner.SCO)}


def _entries(combiners, n_links, methods):
    """The (combiner, link count, method) entries of an SNR sweep, in order."""
    for n in n_links:
        _require_count("--n-links", n, 1)
        for name in combiners:
            combiner = Combiner.parse(name)
            for method in methods:
                if (method, combiner) in _UNDEFINED:
                    raise DomainError(f"method {method!r} is not defined "
                                      f"for {combiner.value}")
                yield combiner, _plan_n(combiner, n), method


def _column(combiner, n, method) -> str:
    return f"{combiner.value}_n{n}_{method}"


def _plan(entries, name) -> dict:
    """The entries by ``name(*entry)``, in order, each kept once;
    DomainError where two different entries get the same name."""
    plan = {}
    for entry in entries:
        key = name(*entry)
        if plan.setdefault(key, entry) != entry:
            raise DomainError(f"two different columns are named {key!r}")
    return plan


def _links(plan, n_links, spec, eta, bandwidth, grid):
    """The per-link average SNRs of a sweep over the total SNR in dB, for
    each of the plan's link counts: ``point(x)`` gives each count its
    equal-power topology and SNRs at one point; ``columns()`` gives each
    count its links' SNRs over the whole grid, as ``Link.average_snr``
    computes them, and the points where ``point`` may raise. --distances
    must match --n-links and every plan count but SCo's 1, which is link 1
    alone with the whole transmit power."""
    distances = _parse_distances(spec, set(n_links) | {
        n for c, n, _ in plan.values() if c is not Combiner.SCO})
    counts = {n for _, n, _ in plan.values()}

    def point(snr_db):
        total = db_to_linear(snr_db)
        links = {}
        for n in counts:
            topo = equal_power_topology(total, distances[:n], eta, bandwidth)
            links[n] = topo, [link.average_snr for link in topo.links]
        return links

    @functools.cache
    def columns():
        # Where a point raises, eta is invalid or a power or SNR is nan,
        # inf or 0.
        total = _each(math.pow, 10.0, np.array(grid) / 10.0)
        losses = _each(math.pow, np.array(distances), -eta).tolist()
        snrs = {n: [total / n * loss for loss in losses[:n]] for n in counts}
        bad = np.full(len(grid), not 0 < eta < math.inf)
        for column in [total, *(c for cs in snrs.values() for c in cs)]:
            bad |= ~((column > 0) & (column < math.inf))
        return snrs, bad
    return point, columns


def _sweep(axis, grid, point, plan, suffixes, cell, column, out, gnuplot,
           flags=True) -> None:
    """Write the CSV of a sweep: per grid point x (the i-th), x and then
    the j-th plan entry's values, one column per suffix of
    ``suffixes(*entry)``; then, unless ``flags`` is false, a column of each
    entry's flags as ``name:flag``.

    ``column(entry)`` gives an entry's values over the whole grid, the
    rows where they may differ from the per-point values, and the rows
    flagged ``saturated`` (or None): ``(values, bad, saturated)``. It is
    None for an entry evaluated per point. Such an entry's cells, the bad
    cells and all cells of a column that raises DomainError or
    ArithmeticError are ``cell(point(x), i, j, entry)``, a tuple of values
    and one of flags, taken in grid order: the first error they raise is
    the per-point route's."""
    header, texts, notes, todo = [axis], [], [], []
    with np.errstate(all="ignore"):
        for j, (key, entry) in enumerate(plan.items()):
            header += [key + suffix for suffix in suffixes(*entry)]
            try:
                computed = column(entry)
            except (DomainError, ArithmeticError):
                computed = None
            if computed is None:
                texts.append([[""] * len(grid) for _ in suffixes(*entry)])
                notes.append([""] * len(grid))
                todo += [(i, j) for i in range(len(grid))]
                continue
            values, bad, saturated = computed
            texts.append([list(map(repr, values.tolist()))])
            notes.append([""] * len(grid) if saturated is None else np.where(
                saturated, f";{key}:saturated", "").tolist())
            todo += [(i, j) for i in np.flatnonzero(bad).tolist()]
    entries, at = list(plan.items()), None
    for i, j in sorted(todo):
        if at != i:
            links, at = point(grid[i]), i
        values, entry_flags = cell(links, i, j, entries[j][1])
        for text, value in zip(texts[j], values):
            text[i] = repr(float(value))
        notes[j][i] = "".join(f";{entries[j][0]}:{f}" for f in entry_flags)
    columns = [list(map(repr, grid))] + [text for entry_texts in texts
                                         for text in entry_texts]
    if flags:
        columns.append([note[1:] for note in map("".join, zip(*notes))])
    _emit(_csv_text(header + ["flags"] * flags, zip(*columns)), out)
    if gnuplot and out:
        plots = ", ".join(f"'{Path(out).name}' using 1:{k} with lines"
                          for k in range(2, len(header) + 1))
        Path(out).with_suffix(".gp").write_text(
            "set datafile separator ','\nset key autotitle columnhead\n"
            f"set logscale y\nplot {plots}\npause -1\n", encoding="utf-8")


# Figure-reproduction presets: pinned parameters, modest default fidelity.
_PRESETS = {
    "fig2a": dict(
        command="outage", n_links=(2, 3, 5), rate=0.5,
        plan=[(Combiner.JD, n, m) for n in (2, 3, 5)
              for m in ("mc", "asymptotic", "bound")]
        + [(Combiner.SCO, 1, "exact"), (Combiner.SCO, 1, "asymptotic")],
        snr_db_range="0:40:21", mc_samples=100_000, seed=7),
    "fig2b": dict(
        command="throughput", n_links=(2, 3, 5), p_out=1e-3,
        bandwidth_hz=20e6,
        plan=[(Combiner.JD, n, m) for n in (2, 3, 5)
              for m in ("asymptotic", "paper-approx")]
        + [(Combiner.SCO, 1, "asymptotic")],
        snr_db_range="10:60:26"),
    "fig3a": dict(
        command="gain", kinds=("mco-sco",), n_links=(2, 3, 4),
        p_outs=(1e-3, 1e-5), rate_range="0.5:25:50"),
    "fig3b": dict(
        command="gain", kinds=("jd-sc", "jd-mrc"), n_links=(2, 3, 4),
        p_outs=(1e-3,), rate_range="0.5:25:50"),
    "fig5c": dict(
        command="cdf", metric="outage", n_links=(2, 3), rate=1.0,
        combiners=("jd", "sc", "mrc", "sco"),
        synth_measurements=1000, synth_bs=16, seed=7),
    "fig5d": dict(
        command="cdf", metric="throughput", n_links=(2, 3), p_out=1e-5,
        bandwidth_hz=20e6, combiners=("jd", "sc", "mrc", "sco"),
        synth_measurements=1000, synth_bs=16, seed=7),
}


# Per-subcommand defaults for options the user left out; a preset's values
# take precedence over these.
_DEFAULTS = {
    "outage": dict(n_links=(2,), combiners=("jd",), methods=("asymptotic",),
                   rate=1.0, snr_db_range="0:40:21", mc_samples=1_000_000,
                   seed=0),
    "throughput": dict(n_links=(2,), combiners=("jd",),
                       methods=("asymptotic",), p_out=1e-3,
                       snr_db_range="10:60:26", bandwidth_hz=20e6),
    "gain": dict(kinds=("mco-sco",), n_links=(2,), p_outs=(1e-3,),
                 rate_range="0.5:25:50"),
    "cdf": dict(n_links=(2,), combiners=("jd",), seed=0,
                synth_measurements=1000, synth_bs=16, bandwidth_hz=20e6),
}


def _settings(command, name, **given) -> list:
    """The given option values in order, each left-out one (None or an
    empty multiple option) taken from the preset, else from the defaults."""
    base = dict(_DEFAULTS[command])
    if name is not None:
        if name not in _PRESETS:
            raise DomainError(f"unknown preset {name!r}; choose from "
                              f"{sorted(_PRESETS)}")
        if _PRESETS[name]["command"] != command:
            raise DomainError(f"preset {name!r} belongs to the "
                              f"'{_PRESETS[name]['command']}' subcommand")
        base.update(_PRESETS[name])
    return [base.get(key) if value is None or value == () else value
            for key, value in given.items()]


@click.group()
def cli():
    """Outage, throughput, SNR-gain, and DMT calculator for
    multi-connectivity over parallel Rayleigh fading links."""


@cli.command("outage")
@click.option("--preset", default=None, help="Figure preset (fig2a).")
@click.option("--n-links", "n_links", multiple=True, type=int)
@click.option("--rate", type=float, default=None,
              help="Spectral efficiency R_c.")
@click.option("--combiner", "combiners", multiple=True,
              type=click.Choice(_COMBINER_CHOICES))
@click.option("--method", "methods", multiple=True,
              type=click.Choice(_OUTAGE_METHODS))
@click.option("--snr-db-range", default=None, help="start:stop:steps in dB.")
@click.option("--distances", default=None,
              help="Comma-separated per-link distances in meters.")
@click.option("--eta", type=float, default=2.0)
@click.option("--mc-samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@click.option("--gnuplot", is_flag=True)
def outage_cmd(preset, n_links, rate, combiners, methods, snr_db_range,
               distances, eta, mc_samples, seed, out, gnuplot):
    """Sweep outage probability over total transmit SNR."""
    (plan, n_links, combiners, methods, rate, snr_db_range, mc_samples,
     seed) = _settings("outage", preset, plan=None, n_links=n_links,
                       combiners=combiners, methods=methods, rate=rate,
                       snr_db_range=snr_db_range, mc_samples=mc_samples,
                       seed=seed)
    plan = _plan(plan or _entries(combiners, n_links, methods), _column)
    grid = _parse_range(snr_db_range)
    # Outage reads no bandwidth (1 Hz).
    point, columns = _links(plan, n_links, distances, eta, 1.0, grid)

    def cell(links, i, j, entry):
        combiner, n, method = entry
        topo, gammas = links[n]
        if method == "mc":
            est = outage_mod.outage_monte_carlo(
                combiner, topo, rate, sample_count=mc_samples,
                seed=seed + 1009 * i + j)
            return (est.value, est.ci_half_width), est.flags
        if method == "exact" and combiner is Combiner.JD:
            est = outage_mod.outage_jd_quadrature(gammas, rate)
        elif method == "exact":
            est = outage_mod.outage_exact_closed(combiner, gammas, rate)
        elif method == "bound" and combiner is Combiner.JD:
            if max(gammas) - min(gammas) > 1e-12 * max(gammas):
                raise DomainError(
                    "the JD lower bound requires equal per-link SNRs")
            est = outage_mod.outage_jd_lower_bound_tse(gammas[0], n, rate)
        else:
            est = outage_mod.outage_asymptotic(combiner, gammas, rate)
        return (est.value,), est.flags

    def column(entry):
        combiner, n, method = entry
        if method == "mc":
            return None
        snrs, bad = columns()
        gammas = snrs[n]
        if method == "bound" and combiner is Combiner.JD:
            top = np.max(gammas, axis=0)
            bad = bad | (top - np.min(gammas, axis=0) > 1e-12 * top)
            return outage_mod._jd_lower_bound(
                coding_constant(1, rate / n), gammas[0], n), bad, None
        # DomainError where the rate is not positive or a product is 0.
        _require_positive("r_c", rate)
        if method == "exact":
            math.expm1(rate * LN2)  # OverflowError where A_1 overflows
            value, rows = np.full(len(grid), math.nan), np.flatnonzero(~bad)
            value[rows] = outage_mod._outage_rows(
                combiner, np.column_stack(gammas))(rows.tolist(), rate)
            return value, np.isnan(value), None
        value = outage_mod._asymptote(combiner, n, rate, math.prod(gammas))
        return np.minimum(value, 1.0), bad, value > 1.0

    _sweep("snr_db", grid, point, plan,
           lambda c, n, m: ("", "_ci") if m == "mc" else ("",), cell, column,
           out, gnuplot)


@cli.command("throughput")
@click.option("--preset", default=None, help="Figure preset (fig2b).")
@click.option("--n-links", "n_links", multiple=True, type=int)
@click.option("--outage", "p_out", type=float, default=None,
              help="Target outage probability.")
@click.option("--combiner", "combiners", multiple=True,
              type=click.Choice(_COMBINER_CHOICES))
@click.option("--method", "methods", multiple=True,
              type=click.Choice(_THROUGHPUT_METHODS))
@click.option("--snr-db-range", default=None)
@click.option("--distances", default=None)
@click.option("--eta", type=float, default=2.0)
@click.option("--bandwidth-hz", type=float, default=None)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@click.option("--gnuplot", is_flag=True)
def throughput_cmd(preset, n_links, p_out, combiners, methods, snr_db_range,
                   distances, eta, bandwidth_hz, out, gnuplot):
    """Sweep throughput at a target outage over total transmit SNR."""
    (plan, n_links, combiners, methods, p_out, snr_db_range,
     bandwidth_hz) = _settings(
        "throughput", preset, plan=None, n_links=n_links, combiners=combiners,
        methods=methods, p_out=p_out, snr_db_range=snr_db_range,
        bandwidth_hz=bandwidth_hz)
    plan = _plan(plan or _entries(combiners, n_links, methods), _column)
    _require_positive("--bandwidth-hz", bandwidth_hz)
    _require_probability("--outage", p_out)
    grid = _parse_range(snr_db_range)
    point, columns = _links(plan, n_links, distances, eta, bandwidth_hz, grid)

    def cell(links, i, j, entry):
        combiner, n, method = entry
        topo, gammas = links[n]
        try:
            if method == "exact":
                result = throughput_exact(combiner, topo, p_out)
            else:
                result = throughput_asymptotic(
                    combiner, gammas, p_out, bandwidth_hz,
                    mode="paper" if method == "paper-approx" else "refined")
        except (DomainError, BracketError):
            # Low-SNR points where an asymptotic inverse is undefined
            # still get a cell, flagged instead of dropped.
            return (math.nan,), ("undefined",)
        return (result.throughput,), ()

    def column(entry):
        combiner, n, method = entry
        snrs, bad = columns()
        if method == "exact":
            rate = np.full(len(grid), math.nan)
            rate[~bad] = _rate_rows(combiner, np.column_stack(snrs[n])[~bad],
                                    p_out)
        else:
            rate = _rate_inverse(
                combiner, n,
                "paper" if method == "paper-approx" else "refined")(
                p_out * math.prod(snrs[n]))
        value = bandwidth_hz * rate * (1.0 - p_out)
        return value, bad | ~((value >= 0) & (value < math.inf)), None

    _sweep("snr_db", grid, point, plan, lambda *entry: ("_bps",), cell,
           column, out, gnuplot)


@cli.command("gain")
@click.option("--preset", default=None, help="Figure preset (fig3a, fig3b).")
@click.option("--kind", "kinds", multiple=True, type=click.Choice(_GAIN_KINDS))
@click.option("--n-links", "n_links", multiple=True, type=int)
@click.option("--outage", "p_outs", multiple=True, type=float)
@click.option("--rate-range", default=None, help="start:stop:steps.")
@click.option("--distances", default=None)
@click.option("--eta", type=float, default=2.0)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@click.option("--gnuplot", is_flag=True)
def gain_cmd(preset, kinds, n_links, p_outs, rate_range, distances, eta,
             out, gnuplot):
    """Sweep SNR gains (in dB) over spectral efficiency."""
    kinds, n_links, p_outs, rate_range = _settings(
        "gain", preset, kinds=kinds, n_links=n_links, p_outs=p_outs,
        rate_range=rate_range)
    for p in p_outs:
        _require_probability("--outage", p)
    for n in n_links:
        _require_count("--n-links", n, 2)
    plan = _plan(((kind, n, p) for kind in kinds for n in n_links
                  for p in (p_outs if kind == "mco-sco" else (None,))),
                 lambda kind, n, p: f"{kind.replace('-', '_')}_n{n}"
                 + ("" if p is None else f"_p{p:.0e}"))
    grid = _parse_range(rate_range)
    dists = _parse_distances(distances, set(n_links))

    def cell(r_c, i, j, entry):
        kind, n, p = entry
        if kind == "mco-sco":
            gain = snr_gain_mco_sco(GainQuery(
                n_links=n, r_c=r_c, p_out=p, distances=tuple(dists[:n]),
                eta=eta))
        else:
            gain = snr_gain_jd_vs(
                Combiner.SC if kind == "jd-sc" else Combiner.MRC, n, r_c)
        return (10.0 * math.log10(gain),), ()

    rates = np.array(grid)
    constants = functools.cache(lambda n: _coding_constants(n, rates))

    def column(entry):
        kind, n, p = entry
        if kind == "mco-sco":
            _require_positive("eta", eta)
            gain = _mco_sco_gain(n, constants(1), constants(n), p,
                                 tuple(d ** -eta for d in dists[:n]))
        else:
            gain = _jd_gain(Combiner.SC if kind == "jd-sc" else Combiner.MRC,
                            n, constants(1), constants(n))
        bad = ~(rates > 0) | ~((gain > 0) & (gain < math.inf))
        return 10.0 * _each(math.log10, gain), bad, None

    _sweep("rate", grid, lambda r_c: r_c, plan, lambda *entry: ("_db",), cell,
           column, out, gnuplot, flags=False)


@cli.command("dmt")
@click.option("--combiner", "combiners", multiple=True,
              type=click.Choice(["jd", "sc", "mrc"]))
@click.option("--n-links", "n_links", multiple=True, type=int)
@click.option("--steps", type=int, default=11)
@click.option("--empirical", is_flag=True,
              help="Add an empirical diversity-gain column.")
@click.option("--snr-db-range", default="80:100:5",
              help="Grid for the empirical estimate.")
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def dmt_cmd(combiners, n_links, steps, empirical, snr_db_range, out):
    """Tabulate the diversity-multiplexing tradeoff."""
    combiners = combiners or ("jd", "sc", "mrc")
    n_links = n_links or (2,)
    _require_count("--steps", steps, 2)
    grid_db = _parse_range(snr_db_range) if empirical else None

    header = ["combiner", "n_links", "r", "d_analytic"]
    if empirical:
        header.append("d_empirical")
    rows = []
    for name in combiners:
        combiner = Combiner.parse(name)
        for n in n_links:
            r_max = float(n) if combiner is Combiner.JD else 1.0
            for r in np.linspace(0.0, r_max, steps).tolist():
                point = dmt(combiner, r, n)
                row = [combiner.value, str(n), repr(r),
                       repr(point.diversity_gain)]
                if empirical:
                    row.append(repr(dmt_empirical(combiner, r, n, grid_db)))
                rows.append(row)

    _emit(_csv_text(header, rows), out)


@cli.command("cdf")
@click.option("--preset", default=None, help="Figure preset (fig5c, fig5d).")
@click.option("--trace", "trace_path", default=None,
              type=click.Path(dir_okay=False))
@click.option("--synth-measurements", type=int, default=None)
@click.option("--synth-bs", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--n-links", "n_links", multiple=True, type=int)
@click.option("--combiner", "combiners", multiple=True,
              type=click.Choice(_COMBINER_CHOICES))
@click.option("--rate", type=float, default=None,
              help="Spectral efficiency for outage CDFs.")
@click.option("--outage", "p_out", type=float, default=None,
              help="Target outage for throughput CDFs.")
@click.option("--bandwidth-hz", type=float, default=None)
@click.option("--out", default=None,
              help="Output path prefix; one CSV per (combiner, N).")
def cdf_cmd(preset, trace_path, synth_measurements, synth_bs, seed, n_links,
            combiners, rate, p_out, bandwidth_hz, out):
    """Empirical outage or throughput CDFs from a measured or synthetic
    trace."""
    (synth_measurements, synth_bs, seed, n_links, combiners, rate, p_out,
     bandwidth_hz) = _settings(
        "cdf", preset, synth_measurements=synth_measurements,
        synth_bs=synth_bs, seed=seed, n_links=n_links, combiners=combiners,
        rate=rate, p_out=p_out, bandwidth_hz=bandwidth_hz)
    if (rate is None) == (p_out is None):
        raise DomainError("pass exactly one of --rate (outage CDF) or "
                          "--outage (throughput CDF)")

    if trace_path:
        trace = field_trial.load_trace(trace_path)
    else:
        # A synthetic measurement has --synth-bs links; more is a bad value.
        top = max(_plan_n(Combiner.parse(c), max(n_links)) for c in combiners)
        if top > synth_bs:
            raise DomainError(f"--n-links {top} exceeds --synth-bs {synth_bs}")
        trace = field_trial.synthesize_trace(synth_measurements, synth_bs,
                                             seed=seed)

    metric = "outage" if p_out is None else "throughput"
    for name in combiners:
        combiner = Combiner.parse(name)
        for n in n_links:
            n_eff = _plan_n(combiner, n)
            if metric == "outage":
                cdf = field_trial.empirical_outage_cdf(trace, n_eff, rate,
                                                       combiner)
            else:
                cdf = field_trial.empirical_throughput_cdf(
                    trace, n_eff, p_out, bandwidth_hz, combiner)
            buf = io.StringIO()
            field_trial.write_cdf(cdf, buf)
            if out:
                path = Path(f"{out}_{metric}_{combiner.value}_n{n_eff}.csv")
                path.write_text(buf.getvalue(), encoding="utf-8")
                if cdf.skipped_measurements:
                    click.echo(f"# skipped {cdf.skipped_measurements} "
                               f"measurements for {combiner.value} "
                               f"n={n_eff}", err=True)
            else:
                click.echo(f"# metric={metric} combiner={combiner.value} "
                           f"n={n_eff} skipped={cdf.skipped_measurements}")
                click.echo(buf.getvalue(), nl=False)


@cli.command("synth-trace")
@click.option("--measurements", type=int, default=1000)
@click.option("--bs", "n_bs", type=int, default=16)
@click.option("--seed", type=int, default=0)
@click.option("--mean-db", type=float, default=21.0)
@click.option("--bs-spread-db", type=float, default=4.0)
@click.option("--shadowing-db", type=float, default=5.0)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def synth_trace_cmd(measurements, n_bs, seed, mean_db, bs_spread_db,
                    shadowing_db, out):
    """Generate a deterministic synthetic SNR trace CSV."""
    params = field_trial.SnrModelParams(mean_db=mean_db,
                                        bs_spread_db=bs_spread_db,
                                        shadowing_db=shadowing_db)
    trace = field_trial.synthesize_trace(measurements, n_bs,
                                         snr_model_params=params, seed=seed)
    buf = io.StringIO()
    field_trial.write_trace(trace, buf)
    _emit(buf.getvalue(), out)


@cli.command("selftest")
@click.option("--mc-samples", type=int, default=1_000_000)
@click.option("--seed", type=int, default=20)
def selftest_cmd(mc_samples, seed):
    """Run the oracle-equivalence suite; nonzero exit on any failure."""
    ok = selftest.run_selftest(mc_samples=mc_samples, seed=seed)
    if not ok:
        raise QuadratureError("selftest failed")
    click.echo("selftest: all checks passed")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:  # a UsageError exits 2
        exc.show(file=sys.stderr)
        return exc.exit_code or 1
    except (DomainError, UnsupportedLinkCountError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        return 2
    except (ConvergenceError, QuadratureError, BracketError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except (TraceError, OSError) as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return 4


if __name__ == "__main__":
    sys.exit(main())
