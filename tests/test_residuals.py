"""The residuals trace: `estimate` writes each run's prediction errors, and
`metrics` scores the MSE from them alone.

Every row of runNNN_residuals{,_resumed}.npy is the row of the data CSV
`generate` wrote (scaled by the checkpoint's record when the run
standardized) minus the row of the predictions CSV, bit for bit.  So
`metrics` reads no data CSV, predictions CSV or checkpoint, and a missing or
damaged residuals file is a data error that names it.  A fresh estimate
deletes the resume files an earlier one left, so `metrics` never mixes
them in.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import experiment, io
from rffgraph.cli import main as cli_main

from whole_files import predictions, residuals, scaled_as_checkpointed

N, P, RUNS = 3, 2, 2
PRODUCTS = ("pmd.csv", "pfa.csv", "mse.csv", "report.json")


def _config(path, T, lam=0.1, regime=None, output_dir="out"):
    path.write_text(json.dumps({
        "runs": RUNS, "base_seed": 3, "output_dir": str(output_dir),
        "generator": {"N": N, "P": P, "T": T, "edge_probability": 0.3, "noise_std": 0.1,
                      **(regime or {"switch_interval": 40})},
        "estimator": {"N": N, "P": P, "D": 4, "lambda": lam, "gamma": 100.0,
                      "kernel_variance": 0.1, "rff_seed": 5},
        "metrics": {"delta": 0.05, "mse_window": 20}}))
    return str(path)


def _estimate(cfg, out, argv, cut=None):
    """estimate with argv; with a cut, estimate --limit cut and resume every run."""
    assert cli_main(["estimate", cfg] + argv + ([] if cut is None else ["--limit", str(cut)])) == 0
    if cut is not None:
        for r in range(RUNS):
            assert cli_main(["estimate", cfg, "--from-checkpoint",
                             str(out / f"run{r:03d}_checkpoint.json")] + argv) == 0


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(regime=st.sampled_from([{"switch_interval": 40}, {"drift": True}]),
       standardize=st.booleans(), K=st.sampled_from([1, 3]),
       cut=st.none() | st.integers(P + 1, 79))
def test_every_residual_row_is_the_data_row_minus_the_predictions_row(tmp_path_factory, regime,
                                                                      standardize, K, cut):
    d = tmp_path_factory.mktemp("residuals")
    out = d / "out"
    cfg = _config(d / "exp.json", 80, regime=regime, output_dir=out)
    assert cli_main(["generate", cfg]) == 0
    _estimate(cfg, out, ["--emit-every", str(K)] + (["--standardize"] if standardize else []),
              cut)
    for r in range(RUNS):
        pre = f"run{r:03d}"
        data = io.read_data_csv(out / f"{pre}_data.csv")
        checkpoint = out / f"{pre}_checkpoint.json"
        assert json.loads(checkpoint.read_text())["extra"]["standardize"] == standardize
        if standardize:
            data = scaled_as_checkpointed(data, checkpoint)
        for part in [""] if cut is None else ["", "_resumed"]:
            t, preds = predictions(out / f"{pre}_predictions{part}.csv", N)
            t_err, err = residuals(out / f"{pre}_residuals{part}.npy", N)
            assert np.array_equal(t_err, t)
            assert _bits(err) == _bits(data[:, t] - preds)


FLOWS = {
    "uncut": ([], None),
    "cut and resumed": (["--emit-every", "7"], 61),
    "standardized": (["--standardize"], None),
}


@pytest.mark.parametrize("flow", list(FLOWS))
def test_metrics_reads_only_the_traces_estimate_wrote(tmp_path, flow):
    out = tmp_path / "out"
    cfg = _config(tmp_path / "exp.json", 120, output_dir=out)
    assert cli_main(["generate", cfg]) == 0
    _estimate(cfg, out, *FLOWS[flow])
    assert cli_main(["metrics", cfg]) == 0
    scored = {name: (out / name).read_bytes() for name in PRODUCTS}
    for pattern in ("*_data.csv", "*_predictions*.csv", "*_checkpoint*.json"):
        for path in out.glob(pattern):
            path.unlink()
    assert cli_main(["metrics", cfg]) == 0
    assert {name: (out / name).read_bytes() for name in PRODUCTS} == scored


def _truncate(path):
    path.write_bytes(path.read_bytes()[:64])  # inside the header


def _narrow(path):
    np.save(path, np.load(path)[:, :-1])


def _replace_by_a_directory(path):
    path.unlink()
    path.mkdir()


# what each damage does to run001_residuals.npy
DAMAGE = {
    "missing": lambda path: path.unlink(),
    "wrong width": _narrow,
    "truncated": _truncate,
    "directory": _replace_by_a_directory,
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_a_bad_residuals_trace_is_a_data_error_naming_it(tmp_path, capsys, damage):
    # an output directory written before the trace existed has none
    out = tmp_path / "out"
    cfg = _config(tmp_path / "exp.json", 60, output_dir=out)
    for command in ("generate", "estimate"):
        assert cli_main([command, cfg]) == 0
    path = out / "run001_residuals.npy"
    DAMAGE[damage](path)
    capsys.readouterr()
    assert cli_main(["metrics", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and "re-run estimate" in err


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("sequence", ["uncut", "cut with another lambda"])
def test_a_fresh_estimate_deletes_the_resumes_an_earlier_one_left(tmp_path, monkeypatch,
                                                                   sequence):
    # the output directory comes from the environment, so that the
    # manifests of two directories are alike
    first = later = _config(tmp_path / "first.json", 300)
    argv = []
    if sequence == "cut with another lambda":
        later = _config(tmp_path / "later.json", 300, lam=5.0)
        argv = ["--limit", "100"]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(reused))
    assert cli_main(["generate", first]) == 0
    _estimate(first, reused, [], cut=100)
    assert (reused / "run001_estimates_resumed.npy").exists()
    assert cli_main(["estimate", later] + argv) == 0
    assert cli_main(["metrics", later]) == 0
    monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(fresh))
    assert cli_main(["generate", first]) == 0
    assert cli_main(["estimate", later] + argv) == 0
    assert cli_main(["metrics", later]) == 0
    assert _files(reused) == _files(fresh)
