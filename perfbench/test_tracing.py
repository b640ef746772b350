"""The tracer accounts for a traced round and tolerates missing targets.

Run with:  python3 -m pytest -q perfbench/test_tracing.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from rffgraph import cli, estimator, experiment, io  # noqa: E402


def _traced_estimate(tmp_path, monkeypatch, targets=None):
    cfg = workloads.experiment_config(N=3, P=2, D=5, T=40, runs=1, base_seed=5, rff_seed=7,
                                      edge_probability=0.3, switch_interval=0, noise_std=0.1)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    monkeypatch.setenv(workloads.ENV_OUTPUT_DIR, str(tmp_path / "out"))
    if targets is not None:
        monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    rc = tracer.root(1, lambda: cli.main(["estimate", str(tmp_path / "config.json")]))
    assert rc == 0
    spans_file = tmp_path / "spans.jsonl"
    tracer.write(spans_file)
    return tracing.read_spans(spans_file)


def test_self_times_account_for_the_round(tmp_path, monkeypatch):
    spans, counts = _traced_estimate(tmp_path, monkeypatch)
    metrics, layer_self = tracing.summarize(spans, counts, rounds=1, runs_per_round=1)
    root = [s for s in spans if s["name"] == tracing.ROOT_SPAN]
    assert len(root) == 1 and all(s["run"] == 1 for s in spans)
    assert abs(sum(layer_self.values()) - (root[0]["end_ns"] - root[0]["start_ns"]) * 1e-9) < 1e-6
    names = {s["name"] for s in spans}
    assert {"cli.main", "experiment.cmd_estimate", "generator.generate",
            "estimator.OnlineEstimator.run", "io.write_estimates_csv"} <= names
    assert metrics["generator.generate_calls_per_run"] == 1
    assert metrics["estimator.trace_bytes"] == 40 * 3 * 3 * 2 * 8
    assert metrics["estimator.pseudo_adjacency_per_row"] == 40 / 38
    assert metrics["estimator.group_norms_per_sample"] == (2 * 38 + 2) / 40


def test_uninstall_restores_every_function(tmp_path, monkeypatch):
    before = (cli.main, experiment.generate, estimator.OnlineEstimator.step,
              estimator.group_norms, io.write_estimates_csv)
    _traced_estimate(tmp_path, monkeypatch)
    assert before == (cli.main, experiment.generate, estimator.OnlineEstimator.step,
                      estimator.group_norms, io.write_estimates_csv)


def test_missing_target_reports_zero_calls(tmp_path, monkeypatch):
    targets = tracing.TARGETS + [("io", "io", "no_such_function"),
                                 ("estimator", "estimator", "OnlineEstimator.no_such_method")]
    spans, counts = _traced_estimate(tmp_path, monkeypatch, targets)
    assert not any("no_such" in s["name"] for s in spans)
    # as if write_estimates_csv had been renamed: its metrics read 0
    targets = [t for t in tracing.TARGETS if t[2] != "write_estimates_csv"]
    spans, counts = _traced_estimate(tmp_path, monkeypatch, targets)
    metrics, _ = tracing.summarize(spans, counts, rounds=1, runs_per_round=1)
    assert metrics["io.write_estimates_s"] == 0.0
    assert metrics["io.estimates_bytes"] == 0.0
    assert metrics["estimator.pseudo_adjacency_per_row"] == 0.0
