import json
import os

import numpy as np
import pytest

from rffgraph import (
    DataError,
    ConfigError,
    EstimatorConfig,
    GeneratorConfig,
    OnlineEstimator,
    generate,
)
from rffgraph import io
from rffgraph import experiment
from rffgraph import metrics
from rffgraph.cli import main as cli_main

from whole_files import estimates, estimates_csv, predictions


BASE = {
    "runs": 2,
    "base_seed": 3,
    "output_dir": "out",
    "generator": {"N": 3, "P": 2, "T": 120, "edge_probability": 0.3,
                  "switch_interval": 50, "noise_std": 0.1},
    "estimator": {"N": 3, "P": 2, "D": 8, "lambda": 0.1, "gamma": 100.0,
                  "kernel_variance": 0.1, "rff_seed": 5},
    "metrics": {"delta": 0.05, "mse_window": 20},
}


def _write_cfg(tmp_path, obj, name="exp.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _cfg_with(tmp_path, **updates):
    obj = json.loads(json.dumps(BASE))
    obj.update(updates)
    obj["output_dir"] = str(tmp_path / "out")
    return _write_cfg(tmp_path, obj)


# --- file round trips ---------------------------------------------------------

def test_data_csv_round_trip(tmp_path):
    values = np.random.default_rng(0).normal(size=(3, 40))
    path = tmp_path / "d.csv"
    io.write_data_csv(path, values)
    back = io.read_data_csv(path)
    assert np.array_equal(back, values)
    header = path.read_text().splitlines()[0]
    assert header == "t,node_1,node_2,node_3"


def test_data_csv_read_errors(tmp_path):
    with pytest.raises(DataError):
        io.read_data_csv(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("x,node_1\n0,1.0\n")
    with pytest.raises(DataError):
        io.read_data_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,node_1\n0,1.0,2.0\n")
    with pytest.raises(DataError):
        io.read_data_csv(ragged)


def test_topology_jsonl_round_trip(tmp_path):
    ts = generate(GeneratorConfig(N=3, P=2, T=90, edge_probability=0.4,
                                  switch_interval=30, noise_std=0.1, seed=9))
    path = tmp_path / "topo.jsonl"
    io.write_topology_jsonl(path, ts)
    topo = io.read_topology(path, with_coeffs=True)
    coeffs, active = topo.coeffs_at(np.arange(90)), topo.active_at(np.arange(90))
    assert np.array_equal(coeffs[2:], ts.coeffs[2:])
    assert np.array_equal(active[2:], ts.active[2:])
    # change-only encoding: static stretches share one record
    n_lines = len(path.read_text().splitlines())
    assert n_lines == 1 + (90 - 2) // 30


def test_estimates_csv_round_trip(tmp_path):
    norms = np.abs(np.random.default_rng(1).normal(size=(30, 3, 3, 2)))
    path = tmp_path / "est.csv"
    io.write_estimates_csv(path, norms, t_start=2, emit_every=4)
    tvals, back = estimates_csv(path, 3, 2)
    assert np.array_equal(tvals, np.arange(2, 30, 4))
    assert np.array_equal(back, norms[tvals])
    header = path.read_text().splitlines()[0].split(",")
    assert header[1] == "b_1_1_1" and header[-1] == "b_3_3_2"


def test_predictions_csv_round_trip(tmp_path):
    preds = np.random.default_rng(2).normal(size=(2, 25))
    path = tmp_path / "p.csv"
    io.write_predictions_csv(path, preds, t_start=3)
    tvals, back = predictions(path)
    assert np.array_equal(tvals, np.arange(3, 25))
    assert np.array_equal(back, preds[:, 3:])


def test_checkpoint_round_trip_and_bit_exact_resume(tmp_path):
    values = generate(GeneratorConfig(N=2, P=1, T=80, edge_probability=0.5,
                                      noise_std=0.2, seed=5)).values
    cfg = EstimatorConfig(N=2, P=1, D=4, lam=0.05, gamma=50.0, rff_seed=2)
    full = OnlineEstimator(cfg).run(values)

    est = OnlineEstimator(cfg)
    for t in range(40):
        est.step(values[:, t])
    ck = tmp_path / "ck.json"
    io.write_checkpoint(ck, est, extra={"next_t": 40})
    resumed = io.read_checkpoint(ck)
    assert np.array_equal(resumed.state.alpha, est.state.alpha)
    for t in range(40, 80):
        resumed.step(values[:, t])
    assert np.array_equal(resumed.state.alpha, full.state.alpha)


def test_checkpoint_rejects_arrays_that_do_not_fit_its_config(tmp_path):
    cfg = EstimatorConfig(N=2, P=2, D=3, rff_seed=1)
    est = OnlineEstimator(cfg)
    for x in np.random.default_rng(0).normal(size=(5, 2)):
        est.step(x)
    ck = tmp_path / "ck.json"
    io.write_checkpoint(ck, est, extra={"run": 0, "next_t": 5})
    good = json.loads(ck.read_text())
    bad_alpha = np.zeros((2, 2, 2, 4)).tolist()
    nan_alpha = np.array(good["alpha"])
    nan_alpha[1, 0, 1, 2] = np.nan
    for key, value in (("alpha", bad_alpha), ("alpha", nan_alpha.tolist()),
                       ("alpha", [[0.0], [0.0, 1.0]]),
                       ("history", [[0.0, 1.0, 2.0]] * 2), ("history", [[np.inf, 0.0]] * 2),
                       ("warm", 3)):
        obj = dict(good, **{key: value})
        ck.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_checkpoint(ck)
    # the same defect ends in exit code 3 at the CLI
    obj = json.loads(json.dumps(BASE))
    obj.update(runs=1, output_dir=str(tmp_path / "out"))
    obj["estimator"].update(N=2, D=3)
    obj["generator"].update(N=2)
    ck.write_text(json.dumps(dict(good, alpha=bad_alpha)))
    cfg_path = _write_cfg(tmp_path, obj)
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 3


@pytest.mark.parametrize("key", ["t", "warm"])
def test_checkpoint_counters_reject_booleans(tmp_path, capsys, key):
    cfg_path, ck = _cut_run(tmp_path)
    obj = json.loads(ck.read_text())
    obj[key] = True
    ck.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="t must be a nonnegative integer|warm-up count"):
        io.read_checkpoint(ck)
    capsys.readouterr()
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 3
    assert ck.name in capsys.readouterr().err


def test_checkpoint_written_during_warm_up_resumes_warm_up(tmp_path):
    values = np.random.default_rng(3).normal(size=(2, 30))
    cfg = EstimatorConfig(N=2, P=3, D=4, lam=0.05, gamma=50.0, rff_seed=2)
    full = OnlineEstimator(cfg).run(values)
    ck = tmp_path / "ck.json"
    for cut in range(1, cfg.P + 1):
        est = OnlineEstimator(cfg)
        for t in range(cut):
            est.step(values[:, t])
        io.write_checkpoint(ck, est)
        resumed = io.read_checkpoint(ck)
        assert resumed.warm == cut and resumed.warmed_up == (cut == cfg.P)
        for t in range(cut, 30):
            resumed.step(values[:, t])
        assert np.array_equal(resumed.state.alpha, full.state.alpha)
    # a checkpoint without the count keeps the old reading: a history means warmed up
    obj = json.loads(ck.read_text())
    del obj["warm"]
    ck.write_text(json.dumps(obj))
    assert io.read_checkpoint(ck).warmed_up


# --- config parsing -----------------------------------------------------------

def test_unknown_keys_rejected(tmp_path):
    for mutate in (
        lambda o: o.update(surprise=1),
        lambda o: o["generator"].update(surprise=1),
        lambda o: o["estimator"].update(surprise=1),
        lambda o: o["metrics"].update(surprise=1),
    ):
        obj = json.loads(json.dumps(BASE))
        mutate(obj)
        with pytest.raises(ConfigError, match="unknown key|surprise"):
            experiment.parse_experiment(obj)


def test_config_requires_estimator_and_source():
    with pytest.raises(ConfigError):
        experiment.parse_experiment({"estimator": BASE["estimator"]})
    obj = json.loads(json.dumps(BASE))
    del obj["estimator"]
    with pytest.raises(ConfigError):
        experiment.parse_experiment(obj)
    obj = json.loads(json.dumps(BASE))
    obj["data_csv"] = "x.csv"
    with pytest.raises(ConfigError, match="mutually exclusive"):
        experiment.parse_experiment(obj)


def test_config_rejects_explicit_generator_seed():
    obj = json.loads(json.dumps(BASE))
    obj["generator"]["seed"] = 4
    with pytest.raises(ConfigError, match="base_seed"):
        experiment.parse_experiment(obj)


def test_config_rejects_shape_mismatch():
    obj = json.loads(json.dumps(BASE))
    obj["estimator"]["N"] = 4
    with pytest.raises(ConfigError, match="does not match"):
        experiment.parse_experiment(obj)


def test_per_run_seed_derivation():
    cfg = experiment.parse_experiment(json.loads(json.dumps(BASE)))
    assert cfg.generator_for_run(0).seed == 3
    assert cfg.generator_for_run(4).seed == 7
    assert cfg.estimator_for_run(2).rff_seed == 7
    assert cfg.run_seeds()[1] == {"run": 1, "data_seed": 4, "rff_seed": 6}


# --- pipeline and CLI ----------------------------------------------------------

def test_full_pipeline_products(tmp_path):
    cfg_path = _cfg_with(tmp_path)
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)]) == 0
    assert cli_main(["metrics", str(cfg_path)]) == 0
    out = tmp_path / "out"
    for name in ("run000_data.csv", "run000_topology.jsonl", "run001_data.csv",
                 "run000_estimates.csv", "run000_predictions.csv",
                 "run000_checkpoint.json", "pmd.csv", "pfa.csv", "mse.csv",
                 "report.json", "generate_manifest.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["run_seeds"][0]["data_seed"] == 3
    assert len(report["curves"]["pmd"]) == len(report["curves"]["t_detection"])


def test_metrics_report_serializes_undefined_as_null(tmp_path):
    obj = json.loads(json.dumps(BASE))
    obj["runs"] = 1
    obj["generator"].update(edge_probability=0.0, switch_interval=0)
    obj["output_dir"] = str(tmp_path / "out")
    cfg_path = _write_cfg(tmp_path, obj)
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)]) == 0
    assert cli_main(["metrics", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(v is None for v in report["curves"]["pmd"])  # no true edges
    pmd_rows = (tmp_path / "out" / "pmd.csv").read_text().splitlines()[1:]
    assert all(row.endswith(",nan") for row in pmd_rows)


def test_emit_every_thins_estimates(tmp_path):
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["estimate", str(cfg_path), "--emit-every", "10"]) == 0
    tvals, _ = estimates(tmp_path / "out" / "run000_estimates.npy", 3, 2)
    assert np.array_equal(tvals, np.arange(2, 120, 10))


def test_standardize_flag(tmp_path):
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["estimate", str(cfg_path), "--standardize"]) == 0
    manifest = json.loads((tmp_path / "out" / "estimate_manifest.json").read_text())
    assert manifest["experiment"]["standardize"] is True
    ck = json.loads((tmp_path / "out" / "run000_checkpoint.json").read_text())
    values = generate(GeneratorConfig(N=3, P=2, T=120, edge_probability=0.3,
                                      switch_interval=50, noise_std=0.1, seed=3)).values
    assert np.allclose(ck["extra"]["mean"], values.mean(axis=1))


def test_cli_exit_codes(tmp_path):
    # config error: invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli_main(["generate", str(bad)]) == 2
    # config error: unknown key
    obj = json.loads(json.dumps(BASE))
    obj["unknown"] = 1
    assert cli_main(["generate", str(_write_cfg(tmp_path, obj, "u.json"))]) == 2
    # data error: metrics before estimate
    cfg_path = _cfg_with(tmp_path)
    assert cli_main(["metrics", str(cfg_path)]) == 3
    # data error: estimate against a missing csv
    obj = json.loads(json.dumps(BASE))
    del obj["generator"]
    obj["data_csv"] = str(tmp_path / "nope.csv")
    obj["output_dir"] = str(tmp_path / "out")
    assert cli_main(["estimate", str(_write_cfg(tmp_path, obj, "m.json"))]) == 3
    # numeric divergence: absurdly large step
    obj = json.loads(json.dumps(BASE))
    obj["runs"] = 1
    obj["estimator"]["gamma"] = 1e-9
    obj["estimator"]["lambda"] = 0.0
    obj["output_dir"] = str(tmp_path / "out")
    assert cli_main(["estimate", str(_write_cfg(tmp_path, obj, "d.json"))]) == 4


def test_generate_rejects_a_topology_with_no_edge_to_switch(tmp_path, capsys):
    obj = json.loads(json.dumps(BASE))
    obj.update(runs=1, output_dir=str(tmp_path / "out"))
    obj["generator"].update(edge_probability=0.0, switch_interval=10)
    cfg_path = _write_cfg(tmp_path, obj)
    assert cli_main(["generate", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed 3:") and "no edge can switch" in err


def test_limit_and_resume_via_cli(tmp_path):
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["estimate", str(cfg_path)]) == 0
    full_est = (tmp_path / "out" / "run000_estimates.csv").read_bytes()

    out2 = tmp_path / "out2"
    env_cfg = _cfg_with(tmp_path, runs=1)
    os.environ[experiment.ENV_OUTPUT_DIR] = str(out2)
    try:
        assert cli_main(["estimate", str(env_cfg), "--limit", "60"]) == 0
        assert cli_main(["estimate", str(env_cfg), "--from-checkpoint",
                         str(out2 / "run000_checkpoint.json")]) == 0
    finally:
        del os.environ[experiment.ENV_OUTPUT_DIR]
    t_res, res = estimates(out2 / "run000_estimates_resumed.npy", 3, 2)
    t_full, full = estimates(tmp_path / "out" / "run000_estimates.npy", 3, 2)
    sel = np.isin(t_full, t_res)
    assert np.array_equal(full[sel], res)
    assert full_est == (tmp_path / "out" / "run000_estimates.csv").read_bytes()


def test_resume_continues_the_thinning_grid(tmp_path):
    obj = json.loads(json.dumps(BASE))
    obj.update(runs=1, output_dir=str(tmp_path / "full"))
    full_cfg = _write_cfg(tmp_path, obj, "full.json")
    obj["output_dir"] = str(tmp_path / "cut")
    cut_cfg = _write_cfg(tmp_path, obj, "cut.json")
    thin = ["--emit-every", "7"]
    assert cli_main(["estimate", str(full_cfg)] + thin) == 0
    assert cli_main(["estimate", str(cut_cfg), "--limit", "60"] + thin) == 0
    assert cli_main(["estimate", str(cut_cfg), "--from-checkpoint",
                     str(tmp_path / "cut" / "run000_checkpoint.json")] + thin) == 0
    full = (tmp_path / "full" / "run000_estimates.csv").read_text().splitlines()
    cut = (tmp_path / "cut" / "run000_estimates.csv").read_text().splitlines()
    resumed = (tmp_path / "cut" / "run000_estimates_resumed.csv").read_text().splitlines()
    assert resumed[0] == full[0]
    assert resumed[1].startswith("65,")  # the first t >= 60 on the grid 2, 9, 16, ...
    assert set(resumed[1:]) <= set(full[1:])
    assert cut[1:] + resumed[1:] == full[1:]


def test_bench_outputs_and_errors(tmp_path):
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["bench", str(cfg_path), "--T", "60"]) == 0
    rows = (tmp_path / "out" / "bench.csv").read_text().splitlines()
    assert rows[0] == "t,seconds"
    assert len(rows) - 1 == 58  # T minus warm-up
    assert cli_main(["bench", str(cfg_path), "--T", "60", "--reference"]) == 0
    assert (tmp_path / "out" / "bench_reference.csv").exists()
    # horizon shorter than warm-up is a data error
    assert cli_main(["bench", str(cfg_path), "--T", "2"]) == 3


def test_replay_is_byte_identical(tmp_path):
    cfg_path = _cfg_with(tmp_path)
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)]) == 0
    assert cli_main(["metrics", str(cfg_path)]) == 0
    out = tmp_path / "out"
    originals = {p.name: p.read_bytes() for p in out.iterdir()}

    replay_dir = tmp_path / "replayed"
    os.environ[experiment.ENV_OUTPUT_DIR] = str(replay_dir)
    try:
        for manifest in ("generate_manifest.json", "estimate_manifest.json",
                         "metrics_manifest.json"):
            assert cli_main(["replay", str(out / manifest)]) == 0
    finally:
        del os.environ[experiment.ENV_OUTPUT_DIR]
    for name, blob in originals.items():
        if "manifest" in name:
            continue
        assert (replay_dir / name).read_bytes() == blob, name


def test_env_var_overrides_output_dir(tmp_path):
    cfg_path = _cfg_with(tmp_path, runs=1)
    target = tmp_path / "elsewhere"
    os.environ[experiment.ENV_OUTPUT_DIR] = str(target)
    try:
        assert cli_main(["generate", str(cfg_path)]) == 0
    finally:
        del os.environ[experiment.ENV_OUTPUT_DIR]
    assert (target / "run000_data.csv").exists()
    assert not (tmp_path / "out").exists()


# --- shipped presets ------------------------------------------------------------

PRESETS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _load_preset(name):
    with open(os.path.join(PRESETS, name)) as fh:
        return json.load(fh)


def test_presets_validate():
    for name in ("switching.json", "drift.json", "standardized.json"):
        cfg = experiment.parse_experiment(_load_preset(name))
        assert cfg.runs >= 1


def test_switching_preset_runs_end_to_end(tmp_path):
    obj = _load_preset("switching.json")
    obj.update(runs=2, output_dir=str(tmp_path / "out"))
    obj["generator"]["T"] = 300
    cfg_path = _write_cfg(tmp_path, obj)
    for command in ("generate", "estimate", "metrics"):
        assert cli_main([command, str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_drift_preset_runs_reduced(tmp_path):
    obj = _load_preset("drift.json")
    obj.update(runs=1, output_dir=str(tmp_path / "out"))
    obj["generator"]["T"] = 200
    cfg_path = _write_cfg(tmp_path, obj)
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)]) == 0


def test_standardized_preset_accepts_all_feature_counts(tmp_path):
    for D in (10, 50, 100):
        obj = _load_preset("standardized.json")
        obj["estimator"]["D"] = D
        obj["generator"]["T"] = 150
        obj["output_dir"] = str(tmp_path / f"out{D}")
        cfg_path = _write_cfg(tmp_path, obj, f"std{D}.json")
        assert cli_main(["estimate", str(cfg_path)]) == 0


# --- malformed input files end in DataError (exit code 3) ---------------------

def _csv_cfg(tmp_path, csv_path, P=2):
    obj = json.loads(json.dumps(BASE))
    del obj["generator"]
    obj.update(runs=1, data_csv=str(csv_path), output_dir=str(tmp_path / "out"))
    obj["estimator"].update(N=2, P=P)
    return _write_cfg(tmp_path, obj, "csv.json")


@pytest.mark.parametrize("cell", ["", "abc", "nan", "inf", "-inf"])
def test_bad_data_csv_cell_is_a_data_error_naming_the_line(tmp_path, cell, recwarn):
    path = tmp_path / "d.csv"
    rows = [f"{t},{0.1 * t},{-0.2 * t}" for t in range(10)]
    rows[6] = f"6,{cell},1.0"
    path.write_text("t,node_1,node_2\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r"d\.csv, line 8"):
        io.read_data_csv(path)
    assert cli_main(["estimate", str(_csv_cfg(tmp_path, path))]) == 3
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("T", [1, 2])
def test_estimate_on_a_data_csv_no_longer_than_p_is_a_data_error(tmp_path, T):
    path = tmp_path / "d.csv"
    io.write_data_csv(path, np.ones((2, T)))
    assert cli_main(["estimate", str(_csv_cfg(tmp_path, path, P=2))]) == 3


def _cut_run(tmp_path):
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["estimate", str(cfg_path), "--limit", "60"]) == 0
    return cfg_path, tmp_path / "out" / "run000_checkpoint.json"


def test_checkpoint_that_is_not_json_is_a_data_error(tmp_path):
    cfg_path, ck = _cut_run(tmp_path)
    ck.write_text('{"config": ')
    with pytest.raises(DataError, match="not valid JSON"):
        io.read_checkpoint(ck)
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 3


@pytest.mark.parametrize("key", ["config", "alpha", "t", "next_t"])
def test_checkpoint_missing_a_field_is_a_data_error(tmp_path, key):
    cfg_path, ck = _cut_run(tmp_path)
    obj = json.loads(ck.read_text())
    del (obj["extra"] if key == "next_t" else obj)[key]
    ck.write_text(json.dumps(obj))
    if key != "next_t":
        with pytest.raises(DataError, match=key):
            io.read_checkpoint(ck)
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 3


@pytest.mark.parametrize("defect", ["ragged", "fractional time"])
def test_malformed_predictions_row_is_a_data_error(tmp_path, defect):
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)]) == 0
    pred = tmp_path / "out" / "run000_predictions.csv"
    lines = pred.read_text().splitlines()
    if defect == "ragged":
        lines[5] = lines[5].rsplit(",", 1)[0]
    else:
        lines[5] = lines[5].replace(",", ".5,", 1)
    pred.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 6" if defect == "ragged" else "integers"):
        predictions(pred)
    assert cli_main(["metrics", str(cfg_path)]) == 3


def test_emit_every_zero_is_a_config_error(tmp_path):
    assert cli_main(["estimate", str(_cfg_with(tmp_path)), "--emit-every", "0"]) == 2


@pytest.mark.parametrize("key, value", [
    ("mean", None), ("std", None), ("mean", [[0.0], [1.0, 2.0], [3.0]]), ("std", [1.0]),
    ("mean", [0.0, float("nan"), 0.0]), ("std", [1.0, float("inf"), 1.0]),
    ("std", [1.0, 0.0, 1.0]), ("run", "0"), ("run", True), ("next_t", True),
], ids=["mean missing", "std missing", "mean ragged", "std wrong length", "mean nan", "std inf",
        "std zero", "run not an integer", "run a boolean", "next_t a boolean"])
def test_malformed_checkpoint_extra_is_a_data_error_naming_the_field(tmp_path, capsys, key,
                                                                    value):
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["estimate", str(cfg_path), "--standardize", "--limit", "60"]) == 0
    ck = tmp_path / "out" / "run000_checkpoint.json"
    obj = json.loads(ck.read_text())
    if value is None:
        del obj["extra"][key]
    else:
        obj["extra"][key] = value
    ck.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 3
    assert f"extra.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--standardize"], []],
                         ids=["standardized cut", "unstandardized cut"])
def test_checkpoint_standardize_must_be_a_boolean(tmp_path, capsys, argv):
    # "no" is truthy: it resumed a standardized cut unscaled, and sent an
    # unstandardized one looking for the mean it never saved
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path), "--limit", "60"] + argv) == 0
    ck = tmp_path / "out" / "run000_checkpoint.json"
    obj = json.loads(ck.read_text())
    obj["extra"]["standardize"] = "no"
    ck.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 3
    err = capsys.readouterr().err
    assert "extra.standardize must be true or false, got 'no'" in err
    assert cli_main(["metrics", str(cfg_path)]) == 3
    assert "extra.standardize" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("D", 5.0), ("rff_seed", -1), ("per_slot_maps", "no"), ("N", True), ("lambda", "0.1"),
    ("N", None),
], ids=["D a float", "rff_seed negative", "per_slot_maps a string", "N a boolean",
        "lambda a string", "N missing"])
def test_checkpoint_config_is_checked_like_the_estimator_section(tmp_path, capsys, key, value):
    cfg_path, ck = _cut_run(tmp_path)
    obj = json.loads(ck.read_text())
    if value is None:
        del obj["config"][key]
    else:
        obj["config"][key] = value
    ck.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and ck.name in err
    assert key in err.split(ck.name, 1)[1]


def test_a_data_csv_is_read_once_per_command(tmp_path, monkeypatch):
    path = tmp_path / "series.csv"
    io.write_data_csv(path, generate(GeneratorConfig(N=2, P=2, T=80, edge_probability=0.5,
                                                     noise_std=0.2, seed=1)).values)
    obj = json.loads(_csv_cfg(tmp_path, path).read_text())
    cfg_path = _write_cfg(tmp_path, dict(obj, runs=5), "csv.json")
    read = io.read_data_csv
    reads = []

    def counting_read(p):
        reads.append(p)
        return read(p)

    monkeypatch.setattr(io, "read_data_csv", counting_read)
    assert cli_main(["estimate", str(cfg_path)]) == 0
    assert len(reads) == 1
    assert (tmp_path / "out" / "run004_estimates.csv").exists()


def test_resume_parses_the_checkpoint_once(tmp_path, monkeypatch):
    cfg_path, ck = _cut_run(tmp_path)
    parsed = []
    load = json.load

    def counting_load(fh, *args, **kwargs):
        parsed.append(os.path.basename(fh.name))
        return load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counting_load)
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 0
    assert parsed.count(ck.name) == 1


def test_every_resume_stays_replayable(tmp_path):
    cfg_path = _cfg_with(tmp_path)
    out = tmp_path / "out"
    thin = ["--emit-every", "3"]
    assert cli_main(["estimate", str(cfg_path), "--limit", "60"] + thin) == 0
    for r in range(2):
        assert cli_main(["estimate", str(cfg_path), "--from-checkpoint",
                         str(out / f"run{r:03d}_checkpoint.json")] + thin) == 0
    latest = (out / "estimate_manifest.json").read_bytes()
    assert latest == (out / "run001_estimate_resumed_manifest.json").read_bytes()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for r in range(2):
        manifest = out / f"run{r:03d}_estimate_resumed_manifest.json"
        assert json.loads(manifest.read_text())["options"]["from_checkpoint"].endswith(
            f"run{r:03d}_checkpoint.json")
        written = experiment.replay(manifest)
        assert {p.name for p in written} == {
            f"run{r:03d}_{name}" for name in ("estimates_resumed.csv", "predictions_resumed.csv",
                                              "checkpoint_resumed.json",
                                              "estimate_resumed_manifest.json")
        } | {"estimate_manifest.json"}
        for p in written:
            # estimate_manifest.json names the latest estimate command: this replay
            expected = manifest.name if p.name == "estimate_manifest.json" else p.name
            assert p.read_bytes() == before[expected]


@pytest.mark.parametrize("cut", [3, 4, 5, 6, 31, 60, 118, 119])
def test_cli_cut_and_resume_equals_the_uncut_run(tmp_path, cut):
    # P = 2 and T = 120: cut 3 is the first the CLI allows, cuts 3-5 cover
    # every phase of the --emit-every 3 grid, and 119 leaves one sample
    obj = json.loads(json.dumps(BASE))
    thin = ["--emit-every", "3"]
    runs = {}
    for name, limit in (("full", None), ("cut", cut)):
        obj["output_dir"] = str(tmp_path / name)
        cfg_path = _write_cfg(tmp_path, obj, f"{name}.json")
        argv = ["estimate", str(cfg_path)] + thin
        assert cli_main(argv + ([] if limit is None else ["--limit", str(limit)])) == 0
        runs[name] = cfg_path
    cut_dir, full_dir = tmp_path / "cut", tmp_path / "full"
    for r in range(BASE["runs"]):
        assert cli_main(["estimate", str(runs["cut"]), "--from-checkpoint",
                         str(cut_dir / f"run{r:03d}_checkpoint.json")] + thin) == 0
        for kind in ("estimates", "predictions"):
            full = (full_dir / f"run{r:03d}_{kind}.csv").read_text().splitlines()
            head = (cut_dir / f"run{r:03d}_{kind}.csv").read_text().splitlines()
            rest = (cut_dir / f"run{r:03d}_{kind}_resumed.csv").read_text().splitlines()
            assert head[0] == rest[0] == full[0]
            assert head[1:] + rest[1:] == full[1:]


@pytest.mark.parametrize("cut", [1, 2])
def test_cli_cut_inside_the_warm_up_is_a_data_error(tmp_path, capsys, cut):
    # the CLI cannot cut before the first prediction; library-level
    # checkpoints inside the warm-up are covered in test_fused_step.py
    cfg_path = _cfg_with(tmp_path, runs=1)
    assert cli_main(["estimate", str(cfg_path), "--limit", str(cut)]) == 3
    assert "warm-up length P=2" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("generator", "noise_std"), ("generator", "kernel_variance"), ("generator", "beta_variance"),
    ("estimator", "lambda"), ("estimator", "gamma"), ("estimator", "kernel_variance"),
    ("metrics", "delta"),
])
@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_config_value_is_a_config_error(tmp_path, capsys, section, key, literal):
    obj = json.loads(json.dumps(BASE))
    obj[section][key] = {"NaN": float("nan"), "Infinity": float("inf")}[literal]
    cfg_path = _cfg_with(tmp_path, **{section: obj[section]})
    assert f'"{key}": {literal}' in cfg_path.read_text()  # the JSON literal itself
    assert cli_main(["estimate", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_cut_run_stays_replayable_after_resumes(tmp_path):
    cfg_path = _cfg_with(tmp_path)
    out = tmp_path / "out"
    thin = ["--emit-every", "3"]
    assert cli_main(["estimate", str(cfg_path), "--limit", "60"] + thin) == 0
    cut = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cut["estimate_initial_manifest.json"] == cut["estimate_manifest.json"]
    for r in range(2):
        assert cli_main(["estimate", str(cfg_path), "--from-checkpoint",
                         str(out / f"run{r:03d}_checkpoint.json")] + thin) == 0
    # the resumes overwrote estimate_manifest.json, not the initial copy
    assert (out / "estimate_manifest.json").read_bytes() != cut["estimate_manifest.json"]
    assert cli_main(["replay", str(out / "estimate_initial_manifest.json")]) == 0
    for name, blob in cut.items():
        assert (out / name).read_bytes() == blob, name


def test_divergence_names_the_node_through_the_cli(tmp_path, capsys):
    obj = json.loads(json.dumps(BASE))
    obj["estimator"]["gamma"] = 1e-9
    cfg_path = _cfg_with(tmp_path, runs=1, estimator=obj["estimator"])
    assert cli_main(["estimate", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert "numeric divergence: estimator diverged at iteration " in err
    assert "has the largest group norm" in err and "its last residual was" in err


def _metric_values(path):
    return np.array([float(row.split(",")[1]) for row in path.read_text().splitlines()[1:]])


@pytest.mark.parametrize("standardize, argv", [
    (False, ["--standardize"]), (True, ["--limit", "60"]),
], ids=["estimate --standardize", "estimate --limit of a standardized config"])
def test_metrics_scales_the_data_as_its_estimate_did(tmp_path, standardize, argv):
    cfg_path = _cfg_with(tmp_path, standardize=standardize)
    out = tmp_path / "out"
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)] + argv) == 0
    assert cli_main(["metrics", str(cfg_path)]) == 0
    cfg = experiment.load_experiment(cfg_path)
    runs = []
    for r in range(cfg.runs):
        extra = json.loads((out / f"run{r:03d}_checkpoint.json").read_text())["extra"]
        mean, std = np.array(extra["mean"]), np.array(extra["std"])
        t, preds = predictions(out / f"run{r:03d}_predictions.csv")
        values = generate(cfg.generator_for_run(r)).values[:, t]
        runs.append(((values - mean[:, None]) / std[:, None], preds))
    assert np.array_equal(_metric_values(out / "mse.csv"), metrics.mse_curve(runs=runs))


def test_metrics_reads_the_series_generate_wrote(tmp_path, monkeypatch):
    cfg_path = _cfg_with(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path), "--emit-every", "3"]) == 0
    calls = []
    monkeypatch.setattr(experiment, "generate", lambda *a, **k: calls.append(a))
    assert cli_main(["metrics", str(cfg_path)]) == 0
    assert calls == []
    names = ("pmd.csv", "pfa.csv", "mse.csv", "report.json")
    read = {name: (out / name).read_bytes() for name in names}
    # the same metrics on each run's series regenerated from the config
    cfg = experiment.load_experiment(cfg_path)
    regenerated = []

    def regenerate(path):  # metrics reads the data CSV through io.data_blocks
        regenerated.append(path.name)
        values = generate(cfg.generator_for_run(int(path.name[3:6]))).values
        return len(values), [values]

    monkeypatch.setattr(io, "data_blocks", regenerate)
    assert cli_main(["metrics", str(cfg_path)]) == 0
    assert regenerated == ["run000_data.csv", "run001_data.csv"]
    assert {name: (out / name).read_bytes() for name in names} == read


def test_metrics_without_a_data_csv_is_a_data_error_naming_it(tmp_path, capsys):
    cfg_path = _cfg_with(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)]) == 0
    (out / "run001_data.csv").unlink()
    capsys.readouterr()
    assert cli_main(["metrics", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"data error: data file not found: {out / 'run001_data.csv'}\n"


@pytest.mark.parametrize("reference", [False, True], ids=["estimator", "reference"])
def test_bench_on_a_data_csv_with_other_nodes_is_a_data_error(tmp_path, capsys, reference):
    path = tmp_path / "d.csv"
    io.write_data_csv(path, np.random.default_rng(0).normal(size=(3, 40)))
    argv = ["bench", str(_csv_cfg(tmp_path, path))] + (["--reference"] if reference else [])
    assert cli_main(argv) == 3
    assert "data has 3 nodes but the estimator expects 2" in capsys.readouterr().err


def test_bench_horizon_cuts_a_data_csv_and_extends_a_generated_series(tmp_path):
    path = tmp_path / "d.csv"
    io.write_data_csv(path, np.random.default_rng(0).normal(size=(2, 40)))
    csv_cfg = _csv_cfg(tmp_path, path)
    assert cli_main(["bench", str(csv_cfg), "--T", "41"]) == 3
    assert cli_main(["bench", str(csv_cfg), "--T", "30"]) == 0
    assert len((tmp_path / "out" / "bench.csv").read_text().splitlines()) - 1 == 30 - 2
    # the generator config's T is 120
    assert cli_main(["bench", str(_cfg_with(tmp_path, runs=1)), "--T", "150"]) == 0
    assert len((tmp_path / "out" / "bench.csv").read_text().splitlines()) - 1 == 150 - 2


@pytest.mark.parametrize("section, key, value", [
    ("estimator", "D", 2.0), ("generator", "M", 2.5), ("generator", "T", 60.0),
    ("estimator", "rff_seed", -1), (None, "base_seed", -4), (None, "standardize", "no"),
    ("estimator", "per_slot_maps", "yes"), (None, "runs", True),
])
def test_integer_and_boolean_config_fields_are_type_checked(tmp_path, capsys, section, key,
                                                           value):
    obj = json.loads(json.dumps(BASE))
    (obj if section is None else obj[section])[key] = value
    obj["output_dir"] = str(tmp_path / "out")
    assert cli_main(["estimate", str(_write_cfg(tmp_path, obj))]) == 2
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ('{"t": 2, "coeffs": [1', "not valid JSON"),
    ('[2, [1.0], [true]]', "JSON object"),
    ('{"coeffs": [1.0], "active": [true]}', "lacks ['t']"),
    ('{"t": 2, "active": [true]}', "lacks ['coeffs']"),
    ('{"t": 2, "coeffs": [1.0]}', "lacks ['active']"),
    ('{"t": "2", "coeffs": [1.0], "active": [true]}', "nonnegative integer"),
    ('{"t": 2, "coeffs": [[1.0], [1.0, 2.0]], "active": [true]}', "numeric arrays"),
    ('{"t": 2, "coeffs": [1.0, 2.0], "active": [true]}', "!= active shape"),
], ids=["truncated", "not an object", "no t", "no coeffs", "no active", "t a string",
        "ragged coeffs", "shapes differ"])
def test_malformed_topology_line_is_a_data_error_naming_the_line(tmp_path, capsys, line,
                                                                 message):
    cfg_path = _cfg_with(tmp_path, runs=1)
    for command in ("generate", "estimate"):
        assert cli_main([command, str(cfg_path)]) == 0
    topo = tmp_path / "out" / "run000_topology.jsonl"
    first = topo.read_text().splitlines()[0]
    topo.write_text(first + "\n" + line + "\n")
    capsys.readouterr()
    assert cli_main(["metrics", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "run000_topology.jsonl, line 2" in err
    assert message in err


@pytest.mark.parametrize("section, key, value", [
    (None, "generator", 5), (None, "metrics", []), (None, "estimator", "x"),
    ("estimator", "lambda", True), ("estimator", "gamma", "x"), ("metrics", "delta", True),
    ("generator", "noise_std", "x"), ("estimator", "schedule", 3), (None, "output_dir", 5),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_config_values_of_the_wrong_json_type_are_config_errors(tmp_path, capsys, section, key,
                                                               value):
    obj = json.loads(json.dumps(BASE))
    obj["output_dir"] = str(tmp_path / "out")
    (obj if section is None else obj[section])[key] = value
    assert cli_main(["estimate", str(_write_cfg(tmp_path, obj))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{key} must be" in err or f"{key} section must be a JSON object" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest, key, value", [
    ("estimate", "limit", "x"), ("estimate", "limit", 60.0), ("estimate", "limit", True),
    ("estimate", "from_checkpoint", 5), ("bench", "T", "60"), ("bench", "reference", "yes"),
    ("bench", "reference", None), ("estimate", None, []),
])
def test_replayed_options_of_the_wrong_type_are_config_errors(tmp_path, capsys, manifest, key,
                                                             value):
    cfg_path = _cfg_with(tmp_path, runs=1)
    argv = ["--limit", "60"] if manifest == "estimate" else ["--T", "30"]
    assert cli_main([manifest, str(cfg_path)] + argv) == 0
    path = tmp_path / "out" / f"{manifest}_manifest.json"
    obj = json.loads(path.read_text())
    if key is None:
        obj["options"] = value
    else:
        obj["options"][key] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["replay", str(path)]) == 2
    assert f"{key or 'options'} must be" in capsys.readouterr().err


def test_limit_with_from_checkpoint_is_a_config_error(tmp_path, capsys):
    cfg_path = _cfg_with(tmp_path, runs=1)
    out = tmp_path / "out"
    assert cli_main(["estimate", str(cfg_path), "--limit", "60"]) == 0
    ckpt = str(out / "run000_checkpoint.json")
    manifest = out / "estimate_manifest.json"
    obj = json.loads(manifest.read_text())
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert cli_main(["estimate", str(cfg_path), "--limit", "10", "--from-checkpoint", ckpt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--limit" in err and "--from-checkpoint" in err
    # the same pair, replayed from the cut's manifest, which records limit 60
    obj["options"]["from_checkpoint"] = ckpt
    manifest.write_text(json.dumps(obj))
    assert cli_main(["replay", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--limit" in err and "--from-checkpoint" in err
    before[manifest.name] = manifest.read_bytes()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("manifest, options, unknown", [
    ("estimate", {"limt": 5}, "limt"),
    ("estimate", {"limit": 60, "from_checkpoint": None, "T": 30}, "T"),
    ("metrics", {"limit": 60}, "limit"),
], ids=["misspelt key", "bench key in an estimate manifest", "any key in a metrics manifest"])
def test_replayed_options_the_command_does_not_take_are_config_errors(tmp_path, capsys,
                                                                      manifest, options,
                                                                      unknown):
    cfg_path = _cfg_with(tmp_path, runs=1)
    out = tmp_path / "out"
    assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path), "--limit", "60"]) == 0
    assert cli_main(["metrics", str(cfg_path)]) == 0
    path = out / f"{manifest}_manifest.json"
    obj = json.loads(path.read_text())
    obj["options"] = options
    path.write_text(json.dumps(obj))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert cli_main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key(s) in ") and repr(unknown) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
