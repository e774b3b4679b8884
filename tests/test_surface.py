"""The settable values of the package, listed by introspection.

A settable value is a keyword parameter with a default of a public function
of any ``multiconn`` module, or an option (flags included) of the CLI. The
lists below are the whole surface: adding or removing a value fails here by
name, and its count is the length of the two lists.
"""

import importlib
import inspect
import pkgutil

import click

import multiconn
from multiconn import cli

LIBRARY_KEYWORDS = [
    "cli.main(argv=)",
    "field_trial.synthesize_trace(seed=)",
    "field_trial.synthesize_trace(snr_model_params=)",
    "gains_dmt.gain_slope_wrt_outage(rounded=)",
    "gains_dmt.gain_slope_wrt_rate(rounded=)",
    "link_model.iter_snr_chunks(reduce=)",
    "outage.outage_monte_carlo(sample_count=)",
    "outage.outage_monte_carlo(seed=)",
    "selftest.run_selftest(mc_samples=)",
    "selftest.run_selftest(seed=)",
    "special_functions.coding_constant_inverse(mode=)",
    "throughput.achievable_rate_asymptotic(mode=)",
    "throughput.throughput_asymptotic(mode=)",
]

CLI_OPTIONS = [
    "cdf --bandwidth-hz", "cdf --combiner", "cdf --n-links", "cdf --out",
    "cdf --outage", "cdf --preset", "cdf --rate", "cdf --seed",
    "cdf --synth-bs", "cdf --synth-measurements", "cdf --trace",
    "dmt --combiner", "dmt --empirical", "dmt --n-links", "dmt --out",
    "dmt --snr-db-range", "dmt --steps",
    "gain --distances", "gain --eta", "gain --gnuplot", "gain --kind",
    "gain --n-links", "gain --out", "gain --outage", "gain --preset",
    "gain --rate-range",
    "outage --combiner", "outage --distances", "outage --eta",
    "outage --gnuplot", "outage --mc-samples", "outage --method",
    "outage --n-links", "outage --out", "outage --preset", "outage --rate",
    "outage --seed", "outage --snr-db-range",
    "selftest --mc-samples", "selftest --seed",
    "synth-trace --bs", "synth-trace --bs-spread-db", "synth-trace --mean-db",
    "synth-trace --measurements", "synth-trace --out", "synth-trace --seed",
    "synth-trace --shadowing-db",
    "throughput --bandwidth-hz", "throughput --combiner",
    "throughput --distances", "throughput --eta", "throughput --gnuplot",
    "throughput --method", "throughput --n-links", "throughput --out",
    "throughput --outage", "throughput --preset", "throughput --snr-db-range",
]


def _library_keywords():
    found = []
    for info in pkgutil.iter_modules(multiconn.__path__):
        module = importlib.import_module(f"{multiconn.__name__}.{info.name}")
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or func.__module__ != module.__name__:
                continue
            found += [f"{info.name}.{name}({p.name}=)"
                      for p in inspect.signature(func).parameters.values()
                      if p.default is not p.empty]
    return sorted(found)


def _cli_options():
    commands = [("", cli.cli)] + sorted(cli.cli.commands.items())
    return sorted(f"{name} {max(param.opts, key=len)}".lstrip()
                  for name, command in commands for param in command.params
                  if isinstance(param, click.Option))


def test_library_keywords():
    assert _library_keywords() == LIBRARY_KEYWORDS


def test_cli_options():
    assert _cli_options() == CLI_OPTIONS
