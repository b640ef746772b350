"""A cut estimate generates only the samples it uses.

`generate(cfg, stop=L)` must equal `generate(cfg)` cut to its first L
samples bit for bit, with every config check made against the config's T.
`estimate --limit L` generates each run through sample L only: a series
whose first divergence falls at t <= L fails the cut as the full series
does, and a later one is reported by the resume that reaches it.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import ConfigError, DivergenceError, GeneratorConfig, generate, init_topology
from rffgraph import experiment, generator
from rffgraph.cli import main as cli_main

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

shapes = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(2, 40))
seeds = st.integers(0, 2**32 - 1)


def _switchable(cfg):
    """cfg with the first seed from its own whose topology has an edge to switch."""
    while init_topology(cfg).n_active() in (0, cfg.N * cfg.N * cfg.P):
        cfg = replace(cfg, seed=cfg.seed + 1)
    return cfg


def _assert_cut_equals_full(cfg, stop):
    full, cut = generate(cfg), generate(cfg, stop=stop)
    n = min(stop, cfg.T)
    assert cut.config == cfg
    for got, want in ((cut.values, full.values[:, :n]), (cut.coeffs, full.coeffs[:n]),
                      (cut.active, full.active[:n])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@SETTINGS
@given(shapes, st.integers(1, 45), st.sampled_from([0.1, 0.0, 1.0]), seeds)
def test_a_cut_static_series_equals_the_full_one_cut(shape, cut, noise_std, seed):
    N, P, extra = shape
    cfg = GeneratorConfig(N=N, P=P, T=P + extra, edge_probability=0.4, noise_std=noise_std,
                          seed=seed)
    _assert_cut_equals_full(cfg, P + cut)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before a switch", "at a switch",
                                                    "after a switch"])
@SETTINGS
@given(shapes, st.integers(1, 12), st.integers(1, 4), seeds)
def test_a_cut_switching_series_equals_the_full_one_cut(offset, shape, interval, k, seed):
    # switches fall after samples P + j*interval - 1; cut j switches in, +-1
    N, P, extra = shape
    if N * N * P == 1:  # one slot cannot switch
        N = 2
    cfg = _switchable(GeneratorConfig(N=N, P=P, T=P + extra + interval, edge_probability=0.4,
                                      switch_interval=interval, noise_std=0.3, seed=seed))
    stop = max(P + k * interval + offset, P + 1)
    _assert_cut_equals_full(cfg, stop)


@pytest.mark.parametrize("scope", ["all", "single"])
@SETTINGS
@given(shapes, st.integers(1, 45), seeds)
def test_a_cut_drifting_series_equals_the_full_one_cut(scope, shape, cut, seed):
    N, P, extra = shape
    cfg = GeneratorConfig(N=N, P=P, T=P + extra, edge_probability=0.5, drift=True,
                          drift_scope=scope, noise_std=0.1, seed=seed)
    _assert_cut_equals_full(cfg, P + cut)


def test_a_cut_keeps_the_checks_of_the_config_T():
    # no edge to switch: the first switch falls after the cut, but within T
    cfg = GeneratorConfig(N=2, P=1, T=60, edge_probability=0.0, switch_interval=50, seed=3)
    for stop in (2, 10, 60, 100):
        with pytest.raises(ConfigError, match="no edge can switch every 50 samples"):
            generate(cfg, stop=stop)
    with pytest.raises(ValueError, match="stop must exceed P=1"):
        generate(replace(cfg, switch_interval=0), stop=1)


def test_a_non_finite_last_sample_of_a_cut_is_returned():
    # every modeled sample is NaN; the full series raises on sample P + 1
    cfg = GeneratorConfig(N=2, P=2, T=20, noise_std=float("nan"), edge_probability=0.5, seed=4)
    with pytest.raises(DivergenceError, match="non-finite history"):
        generate(cfg)
    assert np.isnan(generate(cfg, stop=3).values[:, 2]).all()
    with pytest.raises(DivergenceError, match="non-finite history"):
        generate(cfg, stop=4)


# --- the cut estimate -----------------------------------------------------------

def _write_cfg(tmp_path, runs=2, base_seed=3, **generator_kw):
    gen = {"N": 3, "P": 2, "T": 120, "edge_probability": 0.3, "switch_interval": 50,
           "noise_std": 0.1, **generator_kw}
    obj = {"runs": runs, "base_seed": base_seed, "output_dir": str(tmp_path / "out"),
           "generator": gen,
           "estimator": {"N": gen["N"], "P": gen["P"], "D": 4, "lambda": 0.1,
                         "gamma": 1000.0, "kernel_variance": 0.1, "rff_seed": 5}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("limit", [3, 40, 50, 51, 119, 120, 500])
def test_the_cut_recurrence_runs_through_sample_limit_only(tmp_path, monkeypatch, limit):
    cfg_path = _write_cfg(tmp_path)
    recur, samples = generator._recur, []

    def counting_recur(centers, weights, variance, values, coeffs, noise, start):
        samples[-1] += noise.shape[-2]  # the samples of one run, of every run of a batch
        return recur(centers, weights, variance, values, coeffs, noise, start)

    gen, widths = experiment.generate, []

    def recording_generate(cfg, stop=None):
        batch = isinstance(cfg, list)  # the configs of a lockstep batch
        samples.append((cfg[0] if batch else cfg).P)  # the warm-up draws
        out = gen(cfg, stop=stop)
        widths.extend(ts.values.shape[1] for ts in (out if batch else [out]))
        return out

    monkeypatch.setattr(generator, "_recur", counting_recur)
    monkeypatch.setattr(experiment, "generate", recording_generate)
    assert cli_main(["estimate", str(cfg_path), "--limit", str(limit)]) == 0
    # the two runs are generated in one lockstep call
    assert samples == [min(limit + 1, 120)]
    assert widths == [min(limit + 1, 120)] * 2


def test_an_edgeless_switching_seed_fails_a_cut_before_the_first_switch(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, runs=1, edge_probability=0.0, switch_interval=50)
    assert cli_main(["estimate", str(cfg_path), "--limit", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed 3: the initial topology has 0 of 18 slots "
                          "active, so no edge can switch every 50 samples")
    assert not (tmp_path / "out" / "run000_estimates.csv").exists()


# this series first diverges at t = 95 (see test_generator_loop.py)
DIVERGING = dict(N=3, P=1, T=121, edge_probability=0.3, switch_interval=20, noise_std=1.0,
                 beta_variance=1e11, kernel_variance=0.1)
DIVERGED = "numeric divergence: generation diverged at t=95: |y| > 1e+06\n"


@pytest.mark.parametrize("limit", [95, 96, 120])
def test_a_divergence_at_or_before_the_cut_fails_the_cut(tmp_path, capsys, limit):
    cfg_path = _write_cfg(tmp_path, runs=1, base_seed=11, **DIVERGING)
    assert cli_main(["estimate", str(cfg_path)]) == 4
    assert capsys.readouterr().err == DIVERGED
    assert cli_main(["estimate", str(cfg_path), "--limit", str(limit)]) == 4
    assert capsys.readouterr().err == DIVERGED


@pytest.mark.parametrize("limit", [60, 94])
def test_a_divergence_after_the_cut_fails_the_resume(tmp_path, capsys, limit):
    cfg_path = _write_cfg(tmp_path, runs=1, base_seed=11, **DIVERGING)
    assert cli_main(["estimate", str(cfg_path), "--limit", str(limit)]) == 0
    capsys.readouterr()
    ck = tmp_path / "out" / "run000_checkpoint.json"
    assert cli_main(["estimate", str(cfg_path), "--from-checkpoint", str(ck)]) == 4
    assert capsys.readouterr().err == DIVERGED


def test_a_non_finite_sample_before_the_cut_raises_as_in_the_full_series(tmp_path):
    # a config file cannot hold a NaN noise, so the experiment is edited in Python;
    # the cut at P + 1 uses samples 0..P and sample P is NaN
    cfg = experiment.load_experiment(_write_cfg(tmp_path, runs=1))
    cfg = replace(cfg, generator=replace(cfg.generator, noise_std=float("nan")))
    for stop in (3, 4, 60):
        _, series = experiment._run_series(cfg, stop=stop)
        with pytest.raises(DivergenceError, match="non-finite history"):
            series(range(1))
