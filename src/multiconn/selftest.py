"""Built-in oracle-equivalence checks runnable from the CLI.

Each check compares two independent evaluation routes (series vs quadrature,
quadrature vs sampling, closed form vs sampling) on a small fixed grid and
prints one PASS/FAIL line. Intended as a fast post-install sanity gate, not
a replacement for the test suite.
"""

from __future__ import annotations

from . import outage as outage_mod
from .combiners import Combiner
from .link_model import Topology, Link
from .special_functions import coding_constant, coding_constant_inverse


def _coding_constant_quadrature(n: int, r_c: float) -> float:
    # A_N as the high-SNR limit of exact JD outage: G^N * P_JD(G, ..., G)
    # differs from A_N by a relative O(A_1 / G).
    gbar = 1e12
    return outage_mod.outage_jd_quadrature([gbar] * n, r_c).value * gbar ** n


def _check(name: str, ok: bool, detail: str = "") -> bool:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def run_selftest(mc_samples: int = 1_000_000, seed: int = 20) -> bool:
    """Run all checks; returns True iff every check passed."""
    all_ok = True

    for n, r_c in ((2, 0.5), (3, 2.0)):
        series = coding_constant(n, r_c)
        oracle = _coding_constant_quadrature(n, r_c)
        rel = abs(series - oracle) / oracle
        all_ok &= _check(f"coding-constant series vs quadrature n={n} rc={r_c}",
                         rel < 1e-6, f"rel {rel:.2e}")

    # Asymptote tightness: at an asymptotic outage of 1e-5 the quadrature
    # value must sit just below the asymptote.
    n, r_c = 2, 0.5
    gbar = (coding_constant(n, r_c) / 1e-5) ** (1.0 / n)
    asym = outage_mod.outage_asymptotic(Combiner.JD, [gbar] * n, r_c).value
    exact = outage_mod.outage_jd_quadrature([gbar] * n, r_c).value
    ratio = exact / asym
    all_ok &= _check("jd quadrature vs asymptote ratio",
                     0.93 < ratio < 1.02, f"ratio {ratio:.4f}")

    # Sampling vs deterministic routes at a moderate outage level.
    topology = Topology(links=(Link(8.0, 1.0, 2.0), Link(8.0, 1.0, 2.0)),
                        bandwidth=20e6)
    mc = outage_mod.outage_monte_carlo(Combiner.JD, topology, r_c,
                                       sample_count=mc_samples, seed=seed)
    quad_val = outage_mod.outage_jd_quadrature([8.0, 8.0], r_c).value
    all_ok &= _check("jd monte-carlo vs quadrature",
                     abs(mc.value - quad_val) <= 3 * mc.ci_half_width,
                     f"mc {mc.value:.3e} quad {quad_val:.3e}")

    mixed = Topology(links=(Link(5.0, 1.0, 2.0), Link(9.0, 1.0, 2.0)),
                     bandwidth=20e6)
    for combiner in (Combiner.SC, Combiner.MRC, Combiner.SCO):
        mc = outage_mod.outage_monte_carlo(combiner, mixed, 1.0,
                                           sample_count=mc_samples, seed=seed)
        closed = outage_mod.outage_exact_closed(combiner, [5.0, 9.0], 1.0).value
        all_ok &= _check(f"{combiner.value} monte-carlo vs closed form",
                         abs(mc.value - closed) <= 3 * mc.ci_half_width,
                         f"mc {mc.value:.3e} closed {closed:.3e}")

    for n, y in ((2, 1e-2), (4, 1e4)):
        rate = coding_constant_inverse(n, y)
        rel = abs(coding_constant(n, rate) - y) / y
        all_ok &= _check(f"inverse round trip n={n} y={y:g}",
                         rel < 1e-8, f"rel {rel:.2e}")

    p_jd = outage_mod.outage_jd_quadrature([5.0, 9.0], 1.0).value
    p_mrc = outage_mod.outage_exact_closed(Combiner.MRC, [5.0, 9.0], 1.0).value
    p_sc = outage_mod.outage_exact_closed(Combiner.SC, [5.0, 9.0], 1.0).value
    p_sco = outage_mod.outage_exact_closed(Combiner.SCO, [5.0, 9.0], 1.0).value
    all_ok &= _check("combiner outage ordering",
                     p_jd <= p_mrc <= p_sc <= p_sco,
                     f"{p_jd:.3e} <= {p_mrc:.3e} <= {p_sc:.3e} <= {p_sco:.3e}")

    return all_ok
