"""Span tracing of rffgraph's public functions, installed from outside the package.

`Tracer.install` replaces each target function with a wrapper that records a
span (name, start, end, parent span, run id) in memory.  A module-level
function is replaced under every name that binds it in an `rffgraph` module,
so call sites that look it up through another module (`experiment.generate`,
`estimator.sample_frequencies`, `io.*`) are traced as well.  A target that a
later version of the package no longer has is skipped and reports zero calls.

`summarize` derives self time (a span's duration minus the part its direct
child spans cover) and the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# (layer, module, attribute).  A dotted attribute is a method of a class.
TARGETS = [
    ("cli", "cli", "main"),
    ("experiment", "experiment", "cmd_generate"),
    ("experiment", "experiment", "cmd_estimate"),
    ("experiment", "experiment", "cmd_metrics"),
    ("experiment", "experiment", "cmd_bench"),
    ("experiment", "experiment", "replay"),
    ("generator", "generator", "generate"),
    ("kernels", "kernels", "sample_frequencies"),
    ("estimator", "estimator", "OnlineEstimator.step"),
    ("estimator", "estimator", "OnlineEstimator.run"),
    ("estimator", "estimator", "OnlineEstimator.pseudo_adjacency"),
    ("estimator", "estimator", "online_step"),
    ("estimator", "estimator", "build_feature_vector"),
    ("io", "io", "write_data_csv"),
    ("io", "io", "read_data_csv"),
    ("io", "io", "write_topology_jsonl"),
    ("io", "io", "read_topology_jsonl"),
    ("io", "io", "write_estimates_csv"),
    ("io", "io", "read_estimates_csv"),
    ("io", "io", "write_predictions_csv"),
    ("io", "io", "read_predictions_csv"),
    ("io", "io", "write_metric_csv"),
    ("io", "io", "write_checkpoint"),
    ("io", "io", "read_checkpoint"),
    ("io", "io", "checkpoint_extra"),
    ("metrics", "metrics", "pmd_pfa"),
    ("metrics", "metrics", "mse_curve"),
]

# Counted but not spanned: a span per call would split the self time of the
# two estimator functions that call it.
COUNTED = [("estimator", "estimator", "group_norms")]

ROOT_SPAN = "bench.round"


def _bound(fn, args, kwargs):
    """Arguments of a call by parameter name, or None if they do not bind."""
    try:
        b = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    b.apply_defaults()
    return b.arguments


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _run_extra(fn, args, kwargs, result):
    trace = getattr(result, "group_norms", None)
    return {"bytes": int(getattr(trace, "nbytes", 0))}


def _estimates_extra(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if a is None:
        return {}
    try:
        rows = len(range(a["t_start"], a["group_norms"].shape[0], a["emit_every"]))
    except (KeyError, AttributeError, TypeError, ValueError):
        rows = 0
    return {"rows": rows, "bytes": _size(a.get("path"))}


def _checkpoint_extra(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {} if a is None else {"bytes": _size(a.get("path"))}


# Facts about a call that the per-layer metrics need; computed after the
# span's end time is taken.
EXTRAS = {
    "estimator.OnlineEstimator.run": _run_extra,
    "io.write_estimates_csv": _estimates_extra,
    "io.write_checkpoint": _checkpoint_extra,
}


class Tracer:
    """In-memory span recorder.  Spans are tuples
    (name, start_ns, end_ns, parent_index, run_id, extra)."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._restore = []
        self.run_id = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRAS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id, None)
            if extra_fn is not None:
                spans[idx] = spans[idx][:5] + (extra_fn(fn, args, kwargs, result),)
            return result
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, layer, module, attr, make):
        mod = sys.modules.get(f"rffgraph.{module}")
        if mod is None:
            return
        owner_name, _, meth = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            fn = None if owner is None else owner.__dict__.get(meth)
            if not callable(fn):
                return
            self._restore.append((owner, meth, fn))
            setattr(owner, meth, make(f"{layer}.{attr}", fn))
            return
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return
        wrapper = make(f"{layer}.{attr}", fn)
        for name, m in list(sys.modules.items()):
            if (name == "rffgraph" or name.startswith("rffgraph.")) and getattr(m, attr, None) is fn:
                self._restore.append((m, attr, fn))
                setattr(m, attr, wrapper)

    def install(self, run_id):
        """Wrap every target; spans recorded until `uninstall` carry run_id."""
        self.run_id = run_id
        for layer, module, attr in TARGETS:
            self._patch(layer, module, attr, self._wrap)
        for layer, module, attr in COUNTED:
            self._patch(layer, module, attr, self._counter)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        self.run_id = None

    def root(self, run_id, fn):
        """Run fn() inside the root span of traced round run_id."""
        self.install(run_id)
        try:
            return self._wrap(ROOT_SPAN, fn)()
        finally:
            self.uninstall()

    def write(self, path):
        """Write the spans as JSON lines and the call counters as the last line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, run, extra in self.spans:
                rec = {"name": name, "start_ns": t0, "end_ns": t1, "parent": parent, "run": run}
                if extra:
                    rec["extra"] = extra
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def read_spans(path):
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append(rec)
    return spans, counts


def aggregate(spans):
    """Per span name: calls, total duration, total self time (seconds), extras summed."""
    covered = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for s, cov in zip(spans, covered):
        dur = s["end_ns"] - s["start_ns"]
        a = out.setdefault(s["name"], {"calls": 0, "dur_s": 0.0, "self_s": 0.0, "extra": {}})
        a["calls"] += 1
        a["dur_s"] += dur * 1e-9
        a["self_s"] += (dur - cov) * 1e-9
        for k, v in (s.get("extra") or {}).items():
            a["extra"][k] = a["extra"].get(k, 0) + v
    return out


def summarize(spans, counts, rounds, runs_per_round):
    """Per-layer metrics from the spans of `rounds` traced rounds.

    Times in seconds are per round, times in microseconds per call.
    Returns (metrics, layer_self_s) where layer_self_s maps each layer,
    and "bench" for time outside every layer, to its self time per round.
    """
    agg = aggregate(spans)
    empty = {"calls": 0, "dur_s": 0.0, "self_s": 0.0, "extra": {}}
    get = lambda name: agg.get(name, empty)

    def per_call_us(a, field="dur_s"):
        return a[field] / a["calls"] * 1e6 if a["calls"] else 0.0

    def per_round(x):
        return x / rounds if rounds else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    step = get("estimator.OnlineEstimator.step")
    run = get("estimator.OnlineEstimator.run")
    pa = get("estimator.OnlineEstimator.pseudo_adjacency")
    est_csv = get("io.write_estimates_csv")
    ckpt = get("io.write_checkpoint")
    gen = get("generator.generate")
    layer_self = {}
    for name, a in agg.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + per_round(a["self_s"])

    m = {
        "estimator.lift_us": per_call_us(get("estimator.build_feature_vector")),
        "estimator.update_us": per_call_us(get("estimator.online_step"), "self_s"),
        "estimator.pseudo_adjacency_us": per_call_us(pa),
        "estimator.group_norms_per_sample": ratio(counts.get("estimator.group_norms", 0), step["calls"]),
        "estimator.step_self_us": per_call_us(step, "self_s"),
        "estimator.run_self_s": per_round(run["self_s"]),
        "estimator.trace_bytes": ratio(run["extra"].get("bytes", 0), run["calls"]),
        "estimator.pseudo_adjacency_per_row": ratio(pa["calls"], est_csv["extra"].get("rows", 0)),
        "kernels.sample_frequencies_us": per_call_us(get("kernels.sample_frequencies")),
        "generator.generate_calls_per_run": ratio(gen["calls"], rounds * runs_per_round),
        "generator.generate_s": per_round(gen["dur_s"]),
    }
    io_metrics = {
        "io.write_estimates_s": ["write_estimates_csv"],
        "io.read_estimates_s": ["read_estimates_csv"],
        "io.write_predictions_s": ["write_predictions_csv"],
        "io.read_predictions_s": ["read_predictions_csv"],
        "io.write_data_s": ["write_data_csv"],
        "io.read_data_s": ["read_data_csv"],
        "io.write_topology_s": ["write_topology_jsonl"],
        "io.read_topology_s": ["read_topology_jsonl"],
        "io.write_checkpoint_s": ["write_checkpoint"],
        # checkpoint_extra parses the whole checkpoint file a second time
        "io.read_checkpoint_s": ["read_checkpoint", "checkpoint_extra"],
    }
    for metric, fns in io_metrics.items():
        m[metric] = per_round(sum(get(f"io.{fn}")["dur_s"] for fn in fns))
    m["io.estimates_bytes"] = per_round(est_csv["extra"].get("bytes", 0))
    m["io.checkpoint_bytes"] = per_round(ckpt["extra"].get("bytes", 0))
    m["metrics.pmd_pfa_s"] = per_round(get("metrics.pmd_pfa")["dur_s"])
    m["metrics.mse_curve_s"] = per_round(get("metrics.mse_curve")["dur_s"])
    m["experiment.self_s"] = layer_self.get("experiment", 0.0)
    m["cli.self_s"] = layer_self.get("cli", 0.0)
    return m, layer_self
