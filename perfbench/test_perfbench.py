"""Tests of the benchmark's own code: python3 -m pytest perfbench -q.

They run no workload; the program is used only by the tracing test.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import check  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_seeded(workload, tmp_path):
    a = jobs.generate(workload, 7, str(tmp_path))
    b = jobs.generate(workload, 7, str(tmp_path))
    c = jobs.generate(workload, 8, str(tmp_path))
    assert a == b
    assert a != c
    assert len(a) >= 100
    fixed = [j for j in a if not j["key"].startswith("s7-")]
    assert fixed == [j for j in c if not j["key"].startswith("s8-")]


def test_trace_files_repeat(tmp_path):
    for d in ("a", "b"):
        os.makedirs(tmp_path / d)
        jobs.generate("trace_cdf", 3, str(tmp_path / d))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names and names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def _outage_job():
    return {"command": "outage", "key": "k", "argv": ["outage"],
            "header": ["snr_db", "jd_n2_mc", "jd_n2_mc_ci", "flags"],
            "rows": 2}


def test_check_accepts_identical_and_tolerated_output():
    job = _outage_job()
    text = ("snr_db,jd_n2_mc,jd_n2_mc_ci,flags\n"
            "0.0,0.5,0.01,\n10.0,0.1,0.005,\n")
    ref = {"argv": job["argv"], "sha256": check.sha256(text),
           "blocks": check.parse(job, text)}
    assert check.check(job, text, ref) == ([], True)
    moved = text.replace("0.1,0.005", "0.104,0.005")
    assert check.check(job, moved, ref) == ([], False)


def test_check_rejects_out_of_tolerance_and_invariants():
    job = _outage_job()
    text = ("snr_db,jd_n2_mc,jd_n2_mc_ci,flags\n"
            "0.0,0.5,0.01,\n10.0,0.1,0.005,\n")
    ref = {"argv": job["argv"], "sha256": check.sha256(text),
           "blocks": check.parse(job, text)}
    problems, _ = check.check(job, text.replace("0.1,", "0.2,"), ref)
    assert problems
    problems, _ = check.check(job, text.replace("0.5,", "1.5,"), None)
    assert any("outside [0, 1]" in p for p in problems)
    problems, _ = check.check(job, text + "20.0,0.0,0.0,\n", None)
    assert any("rows" in p for p in problems)


def test_check_nonfinite_needs_undefined_flag():
    job = {"command": "throughput", "key": "k", "argv": [],
           "header": None, "rows": None}
    ok = "snr_db,jd_n2_asymptotic_bps,flags\n0.0,nan,jd_n2_asymptotic:undefined\n"
    assert check.check(job, ok, None) == ([], False)
    bad = "snr_db,jd_n2_asymptotic_bps,flags\n0.0,nan,\n"
    assert check.check(job, bad, None)[0]


def test_check_cdf_order():
    job = {"command": "cdf", "key": "k", "argv": [], "header": None,
           "rows": 2, "blocks": [["outage", "jd", 2, 0]]}
    good = ("# metric=outage combiner=jd n=2 skipped=0\nvalue,probability\n"
            "0.1,0.5\n0.2,1.0\n")
    assert check.check(job, good, None) == ([], False)
    bad = good.replace("0.1,0.5\n0.2,1.0", "0.2,0.5\n0.1,1.0")
    assert "cdf values decrease" in check.check(job, bad, None)[0]


def test_layer_metrics_self_time_and_probes():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from multiconn import outage, special_functions, throughput
    from multiconn.link_model import equal_power_topology

    tracer = tracing.Tracer()
    originals = (special_functions.coding_constant, outage.iter_snr_chunks)
    try:
        assert tracer.install() > 0
        assert special_functions.coding_constant is not originals[0]
        assert outage.iter_snr_chunks is not originals[1]
        topo = equal_power_topology(100.0, [1.0, 1.0], 2.0, 20e6)
        est = outage.outage_monte_carlo("jd", topo, 1.0,
                                        sample_count=70_000, seed=3)
        throughput.achievable_rate_asymptotic("jd", [50.0, 80.0], 1e-3)
        path = os.path.join(HERE, ".test_spans.json")
        tracer.dump(path)
        with open(path) as handle:
            doc = json.load(handle)
        os.remove(path)
    finally:
        for name in list(sys.modules):
            if name.startswith("multiconn"):
                del sys.modules[name]
    m = tracing.layer_metrics(doc)
    assert m["outage.mc_calls"] == 1
    assert m["link_model.chunks"] == 2
    assert m["link_model.rows"] == m["outage.mc_rows"] == 70_000
    assert m["outage.mc_events"] == round(est.value * 70_000)
    assert 0 < m["outage.mc_self_s"] < m["link_model.sample_s"] + 1.0
    assert m["special_functions.inv_calls"] == 1
    assert m["special_functions.inv_evals_per_call"] >= 1


def test_importtime_parse_counts_nested_scipy_once():
    import run

    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:        50 |         50 |           email.header",
        "import time:        20 |         70 |         scipy._lib",
        "import time:        30 |        100 |       scipy",
        "import time:        40 |        140 |     scipy.integrate",
        "import time:        10 |        150 |   multiconn.outage",
        "import time:         5 |        155 |   multiconn",
        "import time:         7 |        162 | multiconn.cli",
    ])
    assert run._parse_importtime(stderr) == (162, 140)
