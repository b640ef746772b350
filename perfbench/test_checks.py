"""The benchmark's checks pass on genuine outputs and fail on corrupted ones.

Run with:  python3 -m pytest -q perfbench/test_checks.py
Each workload's check runs on a tiny version of that workload's outputs.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from rffgraph import EstimatorConfig, OnlineEstimator, cli, experiment, generate  # noqa: E402


def _write_config(work, **kw):
    cfg = workloads.experiment_config(N=3, P=2, D=5, base_seed=5, rff_seed=7,
                                      edge_probability=0.3, **kw)
    (work / "config.json").write_text(json.dumps(cfg))
    return str(work / "config.json")


def _bump_cell(path, col=1):
    """Add 1e-6 to column `col` of the last data row whose entry there is finite."""
    lines = path.read_text().splitlines()
    for i in range(len(lines) - 1, 0, -1):
        cells = lines[i].split(",")
        if np.isfinite(float(cells[col])):
            cells[col] = repr(float(cells[col]) + 1e-6)
            lines[i] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def _all_pass(results):
    return all(ok for _, ok, _ in results)


def test_reference_matches_estimator():
    cfg = EstimatorConfig(N=3, P=2, D=5, rff_seed=3)
    values = np.random.default_rng(0).standard_normal((3, 40))
    series = OnlineEstimator(cfg).run(values)
    est = OnlineEstimator(cfg)
    preds, adj = checks.reference_stream(values, est.maps.frequencies, 1 / cfg.gamma, cfg.lam)
    assert checks.agree(series.predictions, preds)[0]
    assert checks.agree(series.group_norms, adj)[0]
    adj[-1, 0, 1, 0] *= 1 + 1e-8
    assert not checks.agree(series.group_norms, adj)[0]


@pytest.fixture
def switching(tmp_path, monkeypatch):
    conf = _write_config(tmp_path, T=60, runs=2, switch_interval=20, noise_std=0.3)
    monkeypatch.setenv(workloads.ENV_OUTPUT_DIR, str(tmp_path / "first"))
    for stage in ("generate", "estimate", "metrics"):
        assert cli.main([stage, conf]) == 0
    return tmp_path


def test_switching_checks_pass(switching):
    results = workloads.SwitchingPipeline().check(switching, None)
    assert len(results) == 7 and _all_pass(results)


@pytest.mark.parametrize("name", ["run000_estimates.csv", "run001_predictions.csv",
                                  "pmd.csv", "pfa.csv", "mse.csv"])
def test_switching_checks_catch_corruption(switching, name):
    _bump_cell(switching / "first" / name)
    assert not _all_pass(workloads.SwitchingPipeline().check(switching, None))


@pytest.fixture
def wide(tmp_path):
    _write_config(tmp_path, T=30, runs=1, switch_interval=10, noise_std=0.3)
    cfg = experiment.load_experiment(tmp_path / "config.json")
    np.save(tmp_path / "series.npy", generate(cfg.generator_for_run(0)).values)
    wl = workloads.WideStream()
    wl.worker_setup(tmp_path)
    (tmp_path / "first").mkdir()
    rec = wl.run_round(tmp_path, tmp_path / "first")
    assert rec["failed"] == 0
    return tmp_path


def test_wide_checks_pass(wide):
    assert _all_pass(workloads.WideStream().check(wide, None))


@pytest.mark.parametrize("name", ["predictions.npy", "pseudo_adjacency.npy"])
def test_wide_checks_catch_corruption(wide, name):
    arr = np.load(wide / "first" / name)
    arr[..., -1] += 1e-6
    np.save(wide / "first" / name, arr)
    assert not _all_pass(workloads.WideStream().check(wide, None))


@pytest.fixture
def drift(tmp_path, monkeypatch):
    _write_config(tmp_path, T=60, runs=2, switch_interval=0, drift=True, noise_std=0.01)
    monkeypatch.setenv(workloads.ENV_OUTPUT_DIR, str(tmp_path / "first"))
    wl = workloads.DriftResume()
    wl.LIMIT, wl.EMIT_EVERY = 31, 4
    rec = wl.run_round(tmp_path, tmp_path / "first")
    assert rec["failed"] == 0
    return tmp_path, wl, rec


def test_drift_checks_pass(drift):
    work, wl, rec = drift
    results = wl.check(work, rec)
    assert _all_pass(results)
    assert any(name.startswith("replay") for name, _, _ in results)


@pytest.mark.parametrize("name", ["run000_estimates.csv", "run001_estimates_resumed.csv",
                                  "run000_predictions_resumed.csv"])
def test_drift_checks_catch_corruption(drift, name):
    work, wl, rec = drift
    _bump_cell(work / "first" / name)
    assert not _all_pass(wl.check(work, rec))


def test_replay_check_catches_changed_bytes(drift):
    work, wl, rec = drift
    out = work / "first"
    _bump_cell(out / "run001_estimates_resumed.csv")  # a file the replay rewrites
    before = checks.hash_dir(out)
    ok, _, stdout = workloads.cli_call(["replay", str(out / "estimate_manifest.json")])
    written = [Path(p).name for p in stdout.split()]
    assert ok and not checks.check_replay(before, written, checks.hash_dir(out))[1]
    assert not checks.check_replay(before, [], before)[1]


def test_rounds_check_catches_a_differing_round():
    rounds = [{"hashes": {"a": "1"}}, {"hashes": {"a": "1"}}]
    assert checks.check_rounds(rounds)[1]
    rounds.append({"hashes": {"a": "2"}})
    assert not checks.check_rounds(rounds)[1]
