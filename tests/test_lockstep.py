"""Lockstep runs: every run of a batch gets the bits it gets alone.

`generate` and `OnlineEstimator` given a list of R configs step their R
runs as one array, and the commands `generate` and a fresh `estimate` step
a config's runs in batches bounded in bytes.  A run's series, topology
trace, predictions, dense trace, final coefficients, lag window,
checkpoint bytes and the step after the run must equal those of the same
run stepped alone, whatever runs are beside it and however the batch is
cut: into several batches per command, and into blocks of nodes within a
batch.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rffgraph import (
    ConfigError,
    DivergenceError,
    EstimatorConfig,
    GeneratorConfig,
    OnlineEstimator,
    estimator,
    generate,
    experiment,
    generator,
    io,
)
from rffgraph.cli import main as cli_main

RUNS = [1, 2, 3, 7]


def _outcome(fn):
    """fn()'s result, or the (type name, message) of its ConfigError or DivergenceError."""
    try:
        return fn()
    except (ConfigError, DivergenceError) as e:
        return type(e).__name__, str(e)


# --- the generator ----------------------------------------------------------------

REGIMES = {
    "switching": dict(switch_interval=17, noise_std=0.3),
    "drift": dict(drift=True, noise_std=0.05),
    "drift single": dict(drift=True, drift_scope="single", noise_std=0.05),
    # seeds 10 and 11 of this regime diverge, at t = 3 and t = 95
    "diverging": dict(N=3, P=1, T=121, edge_probability=0.3, switch_interval=20,
                      noise_std=1.0, beta_variance=1e11, kernel_variance=0.1),
}


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("R", RUNS)
@pytest.mark.parametrize("seed", range(3))
def test_generating_runs_in_lockstep_gives_each_run_its_series(regime, R, seed):
    rng = np.random.default_rng(100 * R + seed)
    N, P = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    shape = dict(N=N, P=P, T=P + int(rng.integers(30, 90)), edge_probability=0.4)
    cfg = GeneratorConfig(seed=int(rng.integers(0, 14)), **{**shape, **REGIMES[regime]})
    stop = [None, cfg.P + 1, cfg.T // 2][seed]
    cfgs = [replace(cfg, seed=cfg.seed + i) for i in range(R)]
    batch = _outcome(lambda: generate(cfgs, stop=stop))
    alone = [_outcome(lambda c=c: generate(c, stop=stop)) for c in cfgs]
    if isinstance(batch, tuple):  # the error of one of the runs alone
        assert batch in alone
        return
    assert len(batch) == R
    for ts, one in zip(batch, alone):
        assert np.array_equal(ts.values, one.values, equal_nan=True)
        for key in ("starts", "which", "coeffs", "active"):
            assert np.array_equal(getattr(ts.topology, key), getattr(one.topology, key)), key
        assert ts.config == one.config


def test_a_lockstep_generation_error_is_that_of_its_run_alone():
    cfg = GeneratorConfig(seed=9, **REGIMES["diverging"])
    with pytest.raises(DivergenceError) as info:
        generate([replace(cfg, seed=s) for s in (9, 10, 11)])
    assert info.value.run == 1
    assert str(info.value) == "generation diverged at t=3: |y| > 1e+06"


# --- the estimator ----------------------------------------------------------------

def _checkpoint_bytes(tmp_path, est, name):
    path = tmp_path / name
    io.write_checkpoint(path, est, extra={"run": 0})
    return path.read_bytes()


@pytest.mark.parametrize("split", [False, True], ids=["whole batch", "blocks of nodes"])
@pytest.mark.parametrize("per_slot_maps", [False, True], ids=["shared maps", "per-slot maps"])
@pytest.mark.parametrize("R", RUNS)
def test_a_lockstep_estimator_steps_each_run_as_alone(tmp_path, monkeypatch, R, per_slot_maps,
                                                      split):
    rng = np.random.default_rng(10 * R + 2 * per_slot_maps + split)
    N, P, D = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
    cfg = EstimatorConfig(N, P, D, lam=0.05, gamma=float(rng.uniform(2.0, 50.0)),
                          rff_seed=int(rng.integers(0, 1000)), per_slot_maps=per_slot_maps)
    T, emit_every = P + int(rng.integers(2, 40)), int(rng.integers(1, 5))
    values = rng.standard_normal((R, N, T))
    cfgs = [replace(cfg, rff_seed=cfg.rff_seed + i) for i in range(R)]
    alone = []
    for c, v in zip(cfgs, values):
        one = OnlineEstimator(c)
        alone.append((one, one.run(v, emit_every=emit_every)))
    if split:  # blocks of about half a run's nodes, so the batch is cut into runs and nodes
        monkeypatch.setattr(estimator, "BLOCK_BYTES", 8 * P * N * 2 * D * max(1, N // 2))
    batch = OnlineEstimator(cfgs)
    series = batch.run(values, emit_every=emit_every)
    assert series.predictions.shape == (R, N, T)
    assert series.group_norms.shape == (R, T, N, N, P)
    nxt = rng.standard_normal((R, N))
    for i, (run, (one, trace)) in enumerate(zip(batch.split(), alone)):
        assert np.array_equal(series.predictions[i], trace.predictions, equal_nan=True)
        assert np.array_equal(series.group_norms[i], trace.group_norms)
        assert np.array_equal(series.state.alpha[i], one.state.alpha)
        assert run.state.t == one.state.t == series.state.t
        assert np.array_equal(run.history, one.history) and run.warm == one.warm
        assert _checkpoint_bytes(tmp_path, run, "a.json") == \
            _checkpoint_bytes(tmp_path, one, "b.json")
        # the split run steps on as the run alone does
        out, ref = run.step(nxt[i]), one.step(nxt[i])
        assert np.array_equal(out[0], ref[0]) and np.array_equal(out[1], ref[1])
        assert np.array_equal(run.state.alpha, one.state.alpha)
        assert np.array_equal(run.pseudo_adjacency(), one.pseudo_adjacency())


def test_a_lockstep_divergence_is_that_of_its_run_alone():
    cfg = EstimatorConfig(3, 2, 4, gamma=10.0, rff_seed=4)
    values = np.random.default_rng(5).standard_normal((2, 3, 30))
    values[1] *= 1e20
    with pytest.raises(DivergenceError) as alone:
        OnlineEstimator(replace(cfg, rff_seed=5)).run(values[1])
    assert alone.value.run is None
    OnlineEstimator(cfg).run(values[0])  # run 0 alone does not diverge
    with pytest.raises(DivergenceError) as batch:
        OnlineEstimator([cfg, replace(cfg, rff_seed=5)]).run(values)
    assert batch.value.run == 1 and str(batch.value) == str(alone.value)


# --- the commands -----------------------------------------------------------------

def _config(tmp_path, R, regime):
    gen = {"N": 3, "P": 2, "T": 70, "edge_probability": 0.3, "noise_std": 0.1,
           **({"drift": True} if regime == "drift" else {"switch_interval": 25})}
    obj = {"runs": R, "base_seed": 20, "output_dir": "out", "generator": gen,
           "estimator": {"N": 3, "P": 2, "D": 4, "lambda": 0.1, "gamma": 50.0,
                         "kernel_variance": 0.1, "rff_seed": 7,
                         "per_slot_maps": regime == "per-slot maps"}}
    if regime == "data_csv":  # one file, so that both manifests record one path
        data = tmp_path.parent / "data.csv"
        if not data.exists():
            io.write_data_csv(data, np.random.default_rng(R).standard_normal((3, 70)))
        del obj["generator"]
        obj["data_csv"] = str(data)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    return path


def _run_commands(tmp_path, monkeypatch, R, regime, argv, batch):
    """Run generate (unless the regime reads a CSV) and estimate with argv in
    a fresh directory, the runs stepped in lockstep batches of `batch` runs
    (1: each run alone); returns every output file's bytes by name."""
    work = tmp_path / f"batch{batch}"
    work.mkdir()
    cfg_path = _config(work, R, regime)
    out = work / "out"
    monkeypatch.setenv("RFFGRAPH_OUTPUT_DIR", str(out))
    # byte bounds that fit exactly `batch` runs of this shape: alpha is
    # (3, 2, 3, 8) and the generator's scratch (3, 3, 2, 10)
    monkeypatch.setattr(estimator, "BLOCK_BYTES", batch * 8 * 3 * 2 * 3 * 8)
    monkeypatch.setattr(generator, "BLOCK_BYTES", batch * 8 * 3 * 3 * 2 * 10)
    if regime != "data_csv":
        assert cli_main(["generate", str(cfg_path)]) == 0
    assert cli_main(["estimate", str(cfg_path)] + argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [[], ["--standardize"], ["--emit-every", "3"],
                                  ["--limit", "40"]], ids=str)
@pytest.mark.parametrize("regime", ["switching", "drift", "data_csv", "per-slot maps"])
@pytest.mark.parametrize("R", RUNS)
def test_a_command_writes_each_run_as_it_writes_the_run_alone(tmp_path, monkeypatch, R, regime,
                                                             argv):
    # batches of 3 runs: 7 runs span three batches, the last of one run
    lockstep = _run_commands(tmp_path, monkeypatch, R, regime, argv, batch=3)
    alone = _run_commands(tmp_path, monkeypatch, R, regime, argv, batch=1)
    assert sorted(lockstep) == sorted(alone)
    assert sum(name.endswith("_checkpoint.json") for name in lockstep) == R
    for name, blob in alone.items():
        assert lockstep[name] == blob, name


def test_the_batch_sizes_are_bounded_in_bytes():
    # alpha of N=5, P=2, D=50 is 40 kB: six runs fit 256 KiB; at N=10 one does
    assert estimator.lockstep_runs(EstimatorConfig(5, 2, 50)) == 6
    assert estimator.lockstep_runs(EstimatorConfig(10, 2, 50)) == 1
    assert estimator.lockstep_runs(EstimatorConfig(20, 2, 50)) == 1
    # the generator's scratch of N=5, P=2, M=10 is 4 kB, of N=200 3.2 MB
    assert generator.lockstep_runs(GeneratorConfig(5, 2, 10)) == 65
    assert generator.lockstep_runs(GeneratorConfig(200, 2, 10)) == 1


def _switching(T, **generator_kw):
    """configs/switching.json with T samples per run."""
    obj = json.loads((Path(__file__).parents[1] / "configs" / "switching.json").read_text())
    obj["generator"].update(T=T, **generator_kw)
    return experiment.parse_experiment(obj)


@pytest.mark.parametrize("command", ["generate", "estimate"])
@pytest.mark.parametrize("drift", [False, True], ids=["switching", "drift"])
def test_the_batch_size_falls_as_the_runs_grow_longer(command, drift):
    gen = dict(drift=True, switch_interval=0) if drift else {}
    sizes = [experiment._lockstep_size(_switching(T, **gen), T, command)
             for T in (100, 3000, 30_000, 300_000, 3_000_000)]
    assert sizes == sorted(sizes, reverse=True) and sizes[-1] == 1 and sizes[0] > 1
    # what a run holds per sample: its series, noise and stacked copy, and
    # the trace and predictions of an estimate or the rows of a drift
    per_sample = 3 * 5 + (5 + 5 * 5 * 2 if command == "estimate" else 5 * 5 * 2 * drift)
    for T, size in zip((100, 3000, 30_000, 300_000), sizes):  # a run alone may hold more
        assert size == 1 or size * 8 * T * per_sample <= experiment.BATCH_BYTES
    # the shipped configs' shape: six estimate runs, as alpha's bound allows;
    # a T of 1e5 steps every estimate run alone, as a run's trace is 40 MB
    assert experiment._lockstep_size(_switching(3000), 3000, "estimate") == 6
    assert experiment._lockstep_size(_switching(100_000), 100_000, "estimate") == 1


# --- a divergence in a batch --------------------------------------------------------

def _diverging_config(tmp_path, **estimator_kw):
    gen = {key: value for key, value in REGIMES["diverging"].items()}
    obj = {"runs": 2, "base_seed": 9, "output_dir": str(tmp_path / "out"), "generator": gen,
           "estimator": {"N": 3, "P": 1, "D": 4, "rff_seed": 5, **estimator_kw}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("command", ["generate", "estimate"])
def test_a_run_that_diverges_fails_the_command_before_any_run_is_written(tmp_path, capsys,
                                                                         command):
    # run 0 (seed 9) generates; run 1 (seed 10) diverges at t = 3
    cfg_path = _diverging_config(tmp_path)
    assert cli_main([command, str(cfg_path)]) == 4
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []
    assert capsys.readouterr().err == \
        "numeric divergence: run001: generation diverged at t=3: |y| > 1e+06\n"


def test_an_estimator_divergence_names_its_run_and_writes_no_run(tmp_path, capsys):
    cfg_path = _diverging_config(tmp_path, gamma=1e-9)
    cfg = json.loads(cfg_path.read_text())
    cfg["base_seed"] = 0  # seeds 0 and 1 generate; every run's estimate diverges
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["estimate", str(cfg_path)]) == 4
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("numeric divergence: run000: estimator diverged at iteration ")


def test_a_lockstep_batch_takes_configs_that_differ_in_their_seeds_only():
    gen = GeneratorConfig(3, 1, 30, seed=4)
    with pytest.raises(ValueError, match="differ in their seeds only"):
        generate([gen, replace(gen, seed=5, noise_std=0.5)])
    est = EstimatorConfig(3, 1, 4, rff_seed=4)
    with pytest.raises(ValueError, match="differ in their rff_seed only"):
        OnlineEstimator([est, replace(est, rff_seed=5, gamma=3.0)])


def test_the_runs_of_a_data_csv_batch_share_one_view_of_the_series(tmp_path):
    data = tmp_path / "data.csv"
    io.write_data_csv(data, np.random.default_rng(0).standard_normal((3, 40)))
    obj = {"runs": 4, "data_csv": str(data), "estimator": {"N": 3, "P": 2, "D": 4}}
    for standardize in (False, True):
        cfg = experiment.parse_experiment({**obj, "standardize": standardize})
        T, series = experiment._run_series(cfg, standardize=standardize)
        values = series(range(4))
        assert T == 40 and values.shape == (4, 3, 40) and values.strides[0] == 0
