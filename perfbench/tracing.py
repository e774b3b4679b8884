"""Spans around the program's public functions, and per-layer metrics.

The tracer wraps every public function of every ``multiconn`` module and
installs the wrapper in each namespace that binds the function, so calls
through another module's import (``cli.throughput_exact``) and internal
calls through module globals (``special_functions.coding_constant``) are
both seen. Generator functions get a span per item produced.

Spans (name, start, end, parent, job id, probe values) are kept in memory
and written once, as JSON, when the traced pass ends. Per-layer metrics are
computed from that file alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict


def _mc_probe(args, kwargs, result, pre):
    n = result.sample_count
    return {"rows": n, "events": round(result.value * n)}


def _records_probe(args, kwargs, result, pre):
    return {"rows": len(result.records)}


def _cdf_probe(args, kwargs, result, pre):
    skipped = result.skipped_measurements
    return {"measurements": int(result.values.size) + skipped,
            "skipped": skipped}


def _handle_pos(args, kwargs):
    handle = args[1] if len(args) > 1 else kwargs.get("handle")
    return handle, handle.tell()


def _write_probe(args, kwargs, result, pre):
    handle, before = pre
    return {"bytes": handle.tell() - before}


# Values read at a function boundary: name -> (pre-call hook, probe).
_PROBES = {
    "outage.outage_monte_carlo": (None, _mc_probe),
    "field_trial.load_trace": (None, _records_probe),
    "field_trial.empirical_outage_cdf": (None, _cdf_probe),
    "field_trial.empirical_throughput_cdf": (None, _cdf_probe),
    "field_trial.write_cdf": (_handle_pos, _write_probe),
}

_CHUNKS = "link_model.iter_snr_chunks"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job_id: list[int] = []
        self.extra: dict[int, dict] = {}
        self.job = -1
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int) -> int:
        stack = self._stack()
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.job_id.append(self.job)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func):
        nid = self._name(name)
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                it = func(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    shape = getattr(item, "shape", ())
                    if len(shape) == 2:
                        self.extra[idx] = {"rows": shape[0],
                                           "links": shape[1]}
                    yield item
            return gen_wrapper

        pre_hook, probe = _PROBES.get(name, (None, None))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            pre = pre_hook(args, kwargs) if pre_hook else None
            idx = self._open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if probe:
                self.extra[idx] = probe(args, kwargs, result, pre)
            return result
        return wrapper

    def install(self, package: str = "multiconn") -> int:
        """Wrap the package's public functions everywhere they are bound.

        Returns the number of functions wrapped.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    # Keyed by id: the wrapper keeps the original alive.
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        return len(wrappers)

    def dump(self, path: str) -> None:
        doc = {"names": self.names,
               "spans": {"name": self.name_id, "start": self.start,
                         "end": self.end, "parent": self.parent,
                         "job": self.job_id},
               "extra": {str(k): v for k, v in self.extra.items()}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer counts and times from a dumped span file.

    ``*_s`` is inclusive time, ``*_self_s`` is time minus child spans.
    """
    spans = doc["spans"]
    names = [doc["names"][i] for i in spans["name"]]
    parent = spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    extra = {int(k): v for k, v in doc["extra"].items()}
    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def calls(*fns):
        return sum(len(by_name[f]) for f in fns)

    def total(*fns):
        return sum(dur[i] for f in fns for i in by_name[f])

    def self_time(*fns):
        return sum(dur[i] - child[i] for f in fns for i in by_name[f])

    def probe_sum(key, *fns):
        return sum(extra.get(i, {}).get(key, 0) for f in fns
                   for i in by_name[f])

    def nested(inner, outer):
        outer_set = set(by_name[outer])
        return sum(1 for f in inner for i in by_name[f]
                   if parent[i] in outer_set)

    def ratio(a, b):
        return a / b if b else 0.0

    def top_level(member):
        # Spans whose name passes ``member``, and the time of those not
        # nested in another of them.
        own = [i for i, n in enumerate(names) if member(n)]
        own_set = set(own)
        return own, sum(dur[i] for i in own if parent[i] not in own_set)

    chunks = [i for i in by_name[_CHUNKS] if i in extra]
    gd_spans, gd_s = top_level(lambda n: n.startswith("gains_dmt."))
    writes = ("field_trial.write_cdf", "field_trial.save_cdf",
              "field_trial.save_trace")
    _, write_s = top_level(lambda n: n in writes)
    objectives = ("outage.outage_jd_quadrature", "outage.outage_exact_closed")
    roots = calls("throughput.achievable_rate_exact")
    invs = calls("special_functions.coding_constant_inverse")
    quad = [dur[i] for i in by_name["outage.outage_jd_quadrature"]]
    return {
        "cli.jobs": calls("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "link_model.chunks": len(chunks),
        "link_model.rows": sum(extra[i]["rows"] for i in chunks),
        "link_model.sample_s": total(_CHUNKS),
        "link_model.bytes_computed": sum(
            extra[i]["rows"] * extra[i]["links"] * 8 * 2 for i in chunks),
        "outage.mc_calls": calls("outage.outage_monte_carlo"),
        "outage.mc_self_s": self_time("outage.outage_monte_carlo"),
        "outage.mc_rows": probe_sum("rows", "outage.outage_monte_carlo"),
        "outage.mc_events": probe_sum("events", "outage.outage_monte_carlo"),
        "outage.quad_calls": len(quad),
        "outage.quad_s": sum(quad),
        "outage.quad_max_ms": 1e3 * max(quad, default=0.0),
        "outage.closed_calls": calls("outage.outage_exact_closed"),
        "outage.closed_s": total("outage.outage_exact_closed"),
        "outage.asym_calls": calls("outage.outage_asymptotic"),
        "outage.asym_s": total("outage.outage_asymptotic"),
        "throughput.root_calls": roots,
        "throughput.root_self_s": self_time("throughput.achievable_rate_exact"),
        "throughput.evals_per_root": ratio(
            nested(objectives, "throughput.achievable_rate_exact"), roots),
        "throughput.asym_calls": calls("throughput.achievable_rate_asymptotic"),
        "throughput.asym_s": total("throughput.achievable_rate_asymptotic"),
        "special_functions.cc_calls": calls("special_functions.coding_constant"),
        "special_functions.cc_s": total("special_functions.coding_constant"),
        "special_functions.inv_calls": invs,
        "special_functions.inv_s": total(
            "special_functions.coding_constant_inverse"),
        "special_functions.inv_evals_per_call": ratio(
            nested(["special_functions.coding_constant"],
                   "special_functions.coding_constant_inverse"), invs),
        "gains_dmt.calls": len(gd_spans),
        "gains_dmt.s": gd_s,
        "field_trial.load_s": total("field_trial.load_trace"),
        "field_trial.load_rows": probe_sum("rows", "field_trial.load_trace"),
        "field_trial.group_calls": calls("field_trial.strongest_links"),
        "field_trial.group_s": total("field_trial.strongest_links"),
        "field_trial.cdf_self_s": self_time(
            "field_trial.empirical_outage_cdf",
            "field_trial.empirical_throughput_cdf"),
        "field_trial.measurements": probe_sum(
            "measurements", "field_trial.empirical_outage_cdf",
            "field_trial.empirical_throughput_cdf"),
        "field_trial.skipped": probe_sum(
            "skipped", "field_trial.empirical_outage_cdf",
            "field_trial.empirical_throughput_cdf"),
        "field_trial.write_s": write_s,
        "field_trial.write_bytes": probe_sum("bytes", "field_trial.write_cdf"),
        "field_trial.synth_s": total("field_trial.synthesize_trace"),
    }
