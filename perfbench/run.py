"""rffgraph benchmark: three workloads through the CLI and library entry points.

Usage (from the root of the repository):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process for S seconds of whole rounds;
set-up time is taken from separate fresh processes; the outputs are then
checked against the independent checks in checks.py.  The run prints every
metric by name with its unit, the operations attempted and failed, and, as
its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from spans around the
package's public functions.  With --workload all the three workloads run one
after another and the metric names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from checks import check_rounds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
WORKER_SLACK_S = 100  # beyond --seconds: imports, the last round, hashing


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q):
    """Nearest-rank percentile."""
    return sorted(xs)[max(0, math.ceil(q * len(xs) / 100) - 1)]


def measure_setup(config):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return _median(times)


def run_worker(work, name, seconds, trace, spans_file):
    spec = work / "spec.json"
    spec.write_text(json.dumps({"workload": name, "work_dir": str(work), "seconds": seconds,
                                "trace": bool(trace), "spans_file": str(spans_file)}))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)], stdout=sys.stderr,
                   timeout=seconds + WORKER_SLACK_S, check=True)
    return json.loads((work / "results.json").read_text())


def run_checks(wl, work, rounds):
    try:
        results = wl.check(work, rounds[0])
    except (OSError, ValueError, KeyError, IndexError) as e:
        results = [(f"{wl.name}: outputs readable", False, f"{type(e).__name__}: {e}")]
    results.append(check_rounds(rounds))
    return results


def timed_rounds(rounds):
    """Round 0 warms caches and lazy set-up: its outputs are checked, its times
    are not reported."""
    return rounds[1:]


def end_to_end(wl, work, rounds, results, setup_s):
    cfg = json.loads((work / "config.json").read_text())
    rounds = timed_rounds(rounds)
    est = _median([r["estimator_s"] for r in rounds])
    metrics = {
        "setup_s": setup_s,
        "wall_s": _median([r["wall_s"] for r in rounds]),
        "estimate_s": _median([r["stages"]["estimate_s"] for r in rounds]),
        "samples_per_s": wl.samples_per_round(cfg) / est if est else 0.0,
        "peak_rss_mb": results["peak_rss_mb"],
    }
    # Figures that apply to this workload only: printed, not gated.
    extra = {}
    for stage in rounds[0]["stages"]:
        if stage != "estimate_s":
            extra[stage] = (_median([r["stages"][stage] for r in rounds]), "s")
    if wl.writes_files:
        extra["output_bytes"] = (rounds[0]["output_bytes"], "bytes")
    lat = [x for r in rounds for x in r.get("latencies_us", [])]
    if lat:
        extra["step_latency_p50_us"] = (_percentile(lat, 50), f"us (n={len(lat)})")
        extra["step_latency_p95_us"] = (_percentile(lat, 95), f"us (n={len(lat)})")
    return metrics, extra


def per_layer(wl, rounds, spans_file):
    spans, counts = tracing.read_spans(spans_file)
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in timed_rounds(rounds) if not r["traced"]]
    metrics, layer_self = tracing.summarize(spans, counts, len(traced), wl.runs)
    metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                   - _median([r["wall_s"] for r in untraced]))
    roots = [s["end_ns"] - s["start_ns"] for s in spans if s["name"] == tracing.ROOT_SPAN]
    root_s = sum(roots) / len(roots) * 1e-9 if roots else 0.0
    parts = ", ".join(f"{k} {v:.4f}" for k, v in sorted(layer_self.items()))
    note = (f"mean traced round {root_s:.4f} s = self time per round in s: {parts} "
            f"(bench = outside every layer; {len(spans)} spans in {len(traced)} traced rounds)")
    return metrics, note


def run_workload(wl, seed, seconds, trace, units):
    """One workload: prints its figures, returns (correct, attempted, failed, metrics)."""
    name = wl.name
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    spans_file = WORK_ROOT / f"spans-{name}-seed{seed}.jsonl"
    try:
        wl.prepare(work, seed)
        setup_s = None if trace else measure_setup(work / "config.json")
        results = run_worker(work, name, seconds, trace, spans_file)
        rounds = results["rounds"]
        check_results = run_checks(wl, work, rounds)
        print(f"== {name}  seed {seed}  {len(rounds)} rounds  trace {'on' if trace else 'off'}")
        if trace:
            metrics, note = per_layer(wl, rounds, spans_file)
            extra = {}
        else:
            metrics, extra = end_to_end(wl, work, rounds, results, setup_s)
            note = None
        for k, v in metrics.items():
            print(f"  {k:<36} {v:>14.6g} {units.get(k, '')}")
        for k, (v, unit) in extra.items():
            print(f"  {k:<36} {v:>14.6g} {unit}   (this workload only)")
        if note:
            print(f"  {note}")
        for cname, ok, detail in check_results:
            print(f"  check {'PASS' if ok else 'FAIL'}  {cname}: {detail}")
        if not trace:
            try:
                ref = wl.reference_figures(work)
            except (OSError, ValueError, IndexError) as e:
                ref = {"unavailable": str(e)}
            if ref:
                print("  reference figures (shares, not metrics): "
                      + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                                  for k, v in ref.items()))
        attempted = sum(r["ops"] for r in rounds) + len(check_results)
        failed = sum(r["failed"] for r in rounds) + sum(not ok for _, ok, _ in check_results)
        print(f"  operations: attempted {attempted}, failed {failed}")
        correct = all(ok for _, ok, _ in check_results)
        return correct, attempted, failed, {k: {"value": v, "unit": units.get(k, "")}
                                            for k, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rffgraph" / "__init__.py").is_file():
        print(f"rffgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    if not BENCHMARK_FILE.is_file():
        print(f"{BENCHMARK_FILE} not found", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_FILE.read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names) or args.seed < 0 or args.seconds < 1:
        parser.error(f"workload must be one of {list(WORKLOADS)} or all; seed >= 0; seconds >= 1")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    broken = False
    for name in names:
        try:
            correct, attempted, failed, metrics = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                                               args.trace, units)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError):
            traceback.print_exc()
            print(f"== {name}: the benchmark could not run this workload", file=sys.stderr)
            broken = True
            continue
        total["correct"] &= correct
        total["attempted"] += attempted
        total["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    if broken:
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
