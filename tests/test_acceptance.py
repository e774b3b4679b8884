"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL verdict line (run with ``-s`` to see
them all) and then asserts. Tolerances are fixed here on purpose: a failing
line means the stated property does not hold at the stated tolerance, not
that the tolerance should move. The paper's high-SNR and high-rate laws are
checked against their first-order expansion or an exact reference at the
stated operating point, with the tolerances left fixed.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from multiconn import cli
from multiconn.field_trial import (EmpiricalCdf, empirical_outage_cdf,
                                   synthesize_trace, write_cdf)
from multiconn.gains_dmt import GainQuery, dmt, dmt_empirical, snr_gain_jd_vs, \
    snr_gain_mco_sco
from multiconn.link_model import Link, Topology, db_to_linear, \
    equal_power_topology
from multiconn.outage import (outage_asymptotic, outage_exact_closed,
                              outage_jd_lower_bound_tse, outage_jd_quadrature,
                              outage_monte_carlo)
from multiconn.special_functions import coding_constant, \
    coding_constant_inverse, lambert_w_upper_branch
from multiconn.throughput import throughput_asymptotic

import io


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{num:2d}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def _coding_constant_reference(n, r_c):
    # Independent route: nested unit-weight quadrature with the innermost
    # level in closed form.
    def level(i, remaining):
        if i == n - 1:
            return 2.0 ** remaining - 1.0
        value, _ = quad(lambda g: level(i + 1, remaining - math.log2(1.0 + g)),
                        0.0, 2.0 ** remaining - 1.0,
                        epsabs=0.0, epsrel=1e-9, limit=200)
        return value

    return level(0, r_c)


def _jd_outage_reference(snrs, r_c):
    # Independent route: nested quadrature over the per-link rates
    # x_i = log2(1 + gamma_i), innermost level in closed form.
    ln2 = math.log(2.0)

    def level(i, remaining):
        mean = snrs[i]
        if i == len(snrs) - 1:
            return -math.expm1(-math.expm1(remaining * ln2) / mean)

        def integrand(x):
            density = ln2 * 2.0 ** x / mean * math.exp(-math.expm1(x * ln2)
                                                       / mean)
            return density * level(i + 1, remaining - x)

        value, _ = quad(integrand, 0.0, remaining,
                        epsabs=0.0, epsrel=1e-9, limit=200)
        return value

    return level(0, r_c)


def _topology(means):
    return Topology(links=tuple(Link(m, 1.0, 2.0) for m in means),
                    bandwidth=20e6)


def test_01_coding_constant_oracle_equivalence():
    worst = 0.0
    for n in (2, 3, 4):
        for r_c in (0.25, 0.5, 1.0, 2.0, 4.0):
            reference = _coding_constant_reference(n, r_c)
            rel = abs(coding_constant(n, r_c) - reference) / reference
            worst = max(worst, rel)
    _verdict(1, "coding-constant series vs quadrature", worst < 1e-6,
             f"worst rel {worst:.2e}")


def test_02_five_link_anchor_point():
    # The asymptote A_N(R_c) / prod(gamma_i) is an upper bound on the exact
    # outage that is tight only at high SNR (62% above exact at 5 dB total).
    n, r_c = 5, 0.5
    total = db_to_linear(5.0)
    snrs = [total / n] * n
    asym = outage_asymptotic("jd", snrs, r_c).value
    anchor_ok = 0.5e-3 <= asym <= 2e-3
    check_snrs, check_rate = [2.0, 3.0, 5.0, 7.0], 1.0
    check = outage_jd_quadrature(check_snrs, check_rate).value
    check_rel = abs(_jd_outage_reference(check_snrs, check_rate) - check) / check
    exact = _jd_outage_reference(snrs, r_c)
    mc = outage_monte_carlo("jd", _topology(snrs), r_c,
                            sample_count=10_000_000, seed=101)
    rel = abs(mc.value - exact) / exact
    ok = anchor_ok and exact <= asym and check_rel < 1e-6 and rel < 0.15
    _verdict(2, "five-link 5 dB anchor", ok,
             f"asym {asym:.3e} (target 1e-3 x2), exact {exact:.3e}, "
             f"mc {mc.value:.3e}, mc-vs-exact rel gap {rel:.3f} (limit 0.15), "
             f"N=4 reference vs quadrature rel {check_rel:.1e}")


def test_03_bound_ordering():
    rng = np.random.default_rng(42)
    ok = True
    detail = ""
    for _ in range(50):
        n = int(rng.integers(2, 4))
        r_c = float(rng.uniform(0.25, 3.0))
        gbar = float(10.0 ** rng.uniform(0.3, 2.3))
        lower = outage_jd_lower_bound_tse(gbar, n, r_c).value
        exact = outage_jd_quadrature([gbar] * n, r_c).value
        if not (lower <= exact * (1 + 1e-6) + 1e-15 and exact <= 1.0):
            ok, detail = False, f"lower bound violated at n={n} rc={r_c:.3f}"
            break
        snrs = sorted(float(10.0 ** rng.uniform(0.3, 2.3)) for _ in range(n))
        if any(b / a - 1 < 1e-3 for a, b in zip(snrs, snrs[1:])):
            continue
        mc = outage_monte_carlo("mrc", _topology(snrs), r_c,
                                sample_count=200_000, seed=7)
        bound = outage_asymptotic("mrc", snrs, r_c).value
        if mc.value > bound + 3 * mc.ci_half_width:
            ok, detail = False, f"simplex bound violated at snrs={snrs}"
            break
    _verdict(3, "lower/upper bound ordering on random grid", ok, detail)


def test_04_closed_forms_vs_sampling():
    rng = np.random.default_rng(43)
    samples = 10_000_000
    ok = True
    detail = ""
    for point in range(20):
        n = int(rng.integers(2, 4))
        r_c = float(rng.uniform(0.5, 2.0))
        equal = [float(10.0 ** rng.uniform(0.3, 2.0))] * n
        distinct = [float(10.0 ** rng.uniform(0.3, 2.0)) for _ in range(n)]
        while any(abs(a - b) / max(distinct) < 1e-3
                  for i, a in enumerate(distinct) for b in distinct[i + 1:]):
            distinct = [float(10.0 ** rng.uniform(0.3, 2.0))
                        for _ in range(n)]
        cases = [("sc", distinct), ("mrc", equal), ("mrc", distinct),
                 ("sco", distinct)]
        for combiner, snrs in cases:
            closed = outage_exact_closed(combiner, snrs, r_c).value
            mc = outage_monte_carlo(combiner, _topology(snrs), r_c,
                                    sample_count=samples,
                                    seed=1000 + point)
            if abs(mc.value - closed) > 3 * mc.ci_half_width:
                ok = False
                detail = (f"{combiner} at snrs={snrs} rc={r_c:.3f}: "
                          f"closed {closed:.3e} mc {mc.value:.3e}")
                break
        if not ok:
            break
    _verdict(4, "closed forms vs 1e7-sample Monte-Carlo", ok, detail)


def test_05_throughput_step_per_3db():
    # ln A_N(R) ~ R ln2 + (N-1) ln(R ln2) - ln (N-1)!, so a 3 dB step gives
    # dR ~ N log2(10^0.3) / (1 + (N-1)/(R ln2)), tending to N per 3 dB.
    bandwidth, p_out = 20e6, 1e-3

    def step(n, snr_db):
        results = [throughput_asymptotic("jd", [db_to_linear(db) / n] * n,
                                         p_out, bandwidth)
                   for db in (snr_db, snr_db + 3.0)]
        mean_rate = sum(r.achieved_rate for r in results) / 2.0
        corrected = (bandwidth * (1.0 - p_out) * n * math.log2(10.0 ** 0.3)
                     / (1.0 + (n - 1) / (mean_rate * math.log(2.0))))
        return results[1].throughput - results[0].throughput, corrected

    worst = 0.0
    limit_ok = True
    details = []
    for n in (2, 3, 5):
        steps = [step(n, db) for db in (60.0, 90.0, 120.0)]
        increase, corrected = steps[0]
        worst = max(worst, abs(increase - corrected) / corrected)
        deviations = [abs(inc - n * bandwidth) / (n * bandwidth)
                      for inc, _ in steps]
        limit_ok = limit_ok and deviations[0] > deviations[1] > deviations[2]
        details.append(f"N={n}: {increase / 1e6:.2f} Mbit/s vs corrected "
                       f"{corrected / 1e6:.2f}, off N*20 by "
                       + "/".join(f"{d:.3f}" for d in deviations)
                       + " at 60/90/120 dB")
    _verdict(5, "throughput gains N*20 Mbit/s per 3 dB", worst < 0.05
             and limit_ok,
             "; ".join(details) + f"; worst rel vs corrected step "
             f"{worst:.4f} (limit 0.05), N*20 approached {limit_ok}")


def test_06_gain_shift_between_outage_targets():
    worst = 0.0
    for n in (2, 3, 4):
        g3 = snr_gain_mco_sco(GainQuery(n_links=n, r_c=4.0, p_out=1e-3))
        g5 = snr_gain_mco_sco(GainQuery(n_links=n, r_c=4.0, p_out=1e-5))
        shift_db = 10.0 * math.log10(g5 / g3)
        worst = max(worst, abs(shift_db - 20.0 * (n - 1) / n))
    _verdict(6, "20(N-1)/N dB shift between outage targets", worst < 1e-6,
             f"worst deviation {worst:.2e} dB")


def test_07_gain_slopes():
    # d ln A_N/dR ~ ln2 + (N-1)/R, so the rate slope of the gain in dB is
    # 10 log10(2) (N-1)/N (1 - 1/(R ln2)), tending to 10 log10(2) (N-1)/N.
    worst_rate = 0.0
    worst_outage = 0.0
    limit_ok = True
    for n in (2, 3, 4):
        def gain_db(r_c, p_out):
            return 10.0 * math.log10(snr_gain_mco_sco(
                GainQuery(n_links=n, r_c=r_c, p_out=p_out)))

        def rate_slope(r_c, h=0.5):
            return (gain_db(r_c + h, 1e-3) - gain_db(r_c - h, 1e-3)) / (2 * h)

        target_rate = 10.0 * math.log10(2.0) * (n - 1) / n
        corrected_rate = target_rate * (1.0 - 1.0 / (25.0 * math.log(2.0)))
        worst_rate = max(worst_rate, abs(rate_slope(25.0) - corrected_rate)
                         / corrected_rate)
        deviations = [abs(rate_slope(r_c) - target_rate) / target_rate
                      for r_c in (25.0, 50.0, 100.0)]
        limit_ok = limit_ok and deviations[0] > deviations[1] > deviations[2]

        p = 1e-3
        hp = p * 1e-3
        fd_p = (gain_db(25.0, p + hp) - gain_db(25.0, p - hp)) / (2 * hp)
        target_p = -4.3 * (n - 1) / n / p
        worst_outage = max(worst_outage, abs(fd_p - target_p) / abs(target_p))
    ok = worst_rate < 0.05 and limit_ok and worst_outage < 0.01
    _verdict(7, "gain slope in rate (5%) and outage (1%)", ok,
             f"rate slope worst rel vs corrected slope {worst_rate:.4f} "
             f"(limit 0.05), uncorrected gap shrinks over R_c 25/50/100 "
             f"{limit_ok}, outage slope worst rel {worst_outage:.5g} "
             f"(limit 0.01)")


def test_08_joint_decoding_superiority():
    rng = np.random.default_rng(44)
    ok = True
    detail = ""
    for _ in range(200):
        n = int(rng.integers(2, 7))
        r_c = float(rng.uniform(1e-6, 25.0))
        if not snr_gain_jd_vs("mrc", n, r_c) > 1.0:
            ok, detail = False, f"JD-vs-MRC <= 1 at n={n} rc={r_c}"
            break
        if not snr_gain_jd_vs("sc", n, r_c) > math.factorial(n) ** (1.0 / n):
            ok, detail = False, f"JD-vs-SC <= (N!)^(1/N) at n={n} rc={r_c}"
            break
    if ok:
        vanish = max(snr_gain_jd_vs("mrc", n, 1e-3) for n in (2, 3, 4, 5, 6))
        ok = vanish < 1.01
        detail = f"JD-vs-MRC at rc=1e-3 max {vanish:.5f} (limit 1.01)"
    _verdict(8, "JD superiority inequalities on random grid", ok, detail)


def test_09_dmt_convergence():
    grid = [80.0, 90.0, 100.0]
    worst = 0.0
    for combiner, r_max in (("jd", None), ("sc", 1.0), ("mrc", 1.0)):
        for n in (2, 3):
            top = float(n) if r_max is None else r_max
            for r in (0.0, top / 2.0, top):
                analytic = dmt(combiner, r, n).diversity_gain
                estimate = dmt_empirical(combiner, r, n, grid)
                worst = max(worst, abs(estimate - analytic))
    _verdict(9, "empirical DMT matches analytic tradeoff", worst < 0.1,
             f"worst deviation {worst:.3f} (limit 0.1)")


def test_10_inverse_fidelity():
    # A_N(R) ~ 2^R (R ln2)^(N-1) / (N-1)! = y solves to R = (N-1)/ln2 W(zeta);
    # mode="paper" further takes W(zeta) ~ ln(zeta) - ln(ln(zeta)).
    worst_rt = 0.0
    for n in (2, 3, 5):
        for y in (1e-3, 1.0, 1e3, 1e9):
            r_c = coding_constant_inverse(n, y)
            worst_rt = max(worst_rt, abs(coding_constant(n, r_c) - y) / y)
    n, y = 3, 1e6
    zeta = (math.factorial(n - 1) * y) ** (1.0 / (n - 1)) / (n - 1)
    w_form = (n - 1) / math.log(2.0) * lambert_w_upper_branch(zeta)
    refined = coding_constant_inverse(n, y)
    approx = coding_constant_inverse(n, y, mode="paper")
    w_rel = abs(w_form - refined) / refined
    ok = worst_rt < 1e-8 and w_rel < 0.02 and approx <= w_form <= refined
    _verdict(10, "inverse round trip and closed approximation", ok,
             f"round-trip worst rel {worst_rt:.2e} (limit 1e-8), "
             f"W-form root {w_form:.4f} vs refined {refined:.4f} rel "
             f"{w_rel:.4f} (limit 0.02), paper {approx:.4f} <= W-form <= "
             f"refined {approx <= w_form <= refined}")


def test_11_field_trial_pipeline():
    trace = synthesize_trace(1000, 16, seed=7)
    # Each measurement's links ranked by brute force: descending SNR, then
    # ascending bs_id.
    links = {}
    for mid, bs, snr in zip(trace.measurement_id.tolist(),
                            trace.bs_id.tolist(), trace.avg_snr_db.tolist()):
        links.setdefault(mid, []).append((-snr, bs))
    violations = 0
    for mid in sorted(links):
        ranked = sorted(links[mid])
        for n in (2, 3):
            snrs = [db_to_linear(-snr) for snr, _ in ranked[:n]]
            p_jd = outage_asymptotic("jd", snrs, 1.0).value
            p_mrc = outage_exact_closed("mrc", snrs, 1.0).value
            p_sc = outage_exact_closed("sc", snrs, 1.0).value
            if not p_jd <= p_mrc <= p_sc:
                violations += 1
    cdf_ok = True
    stable = True
    for n in (2, 3):
        for combiner in ("jd", "sc", "mrc"):
            cdf = empirical_outage_cdf(trace, n, 1.0, combiner)
            if not (np.all(np.diff(cdf.values) >= 0)
                    and np.all(np.diff(cdf.probabilities) > 0)
                    and cdf.probabilities[-1] == 1.0
                    and np.all(cdf.values >= 0)):
                cdf_ok = False
            first, second = io.StringIO(), io.StringIO()
            write_cdf(cdf, first)
            write_cdf(empirical_outage_cdf(
                synthesize_trace(1000, 16, seed=7), n, 1.0, combiner), second)
            if first.getvalue() != second.getvalue():
                stable = False
    ok = violations == 0 and cdf_ok and stable
    _verdict(11, "trace pipeline ordering and stability", ok,
             f"{violations} ordering violations of 2000 rows, "
             f"cdf valid {cdf_ok}, byte-stable {stable}")


def test_12_preset_determinism(tmp_path):
    presets = ["fig2a", "fig2b", "fig3a", "fig3b", "fig5c", "fig5d"]
    commands = {"fig2a": "outage", "fig2b": "throughput", "fig3a": "gain",
                "fig3b": "gain", "fig5c": "cdf", "fig5d": "cdf"}
    ok = True
    detail = ""
    for preset in presets:
        outputs = []
        for run in ("first", "second"):
            run_dir = tmp_path / f"{preset}_{run}"
            run_dir.mkdir()
            out = run_dir / "result"
            code = cli.main([commands[preset], "--preset", preset,
                             "--out", str(out)])
            if code != 0:
                ok, detail = False, f"{preset} exited {code}"
                break
            outputs.append(sorted((p.name, p.read_bytes())
                                  for p in run_dir.iterdir()))
        if not ok:
            break
        if outputs[0] != outputs[1]:
            ok, detail = False, f"{preset} output differs between runs"
            break
        if not outputs[0]:
            ok, detail = False, f"{preset} produced no files"
            break
    _verdict(12, "presets are byte-deterministic", ok, detail)
