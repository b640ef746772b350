"""The one config codec: `io.config_dict` writes a config dataclass's JSON
form and `io.config_from_dict` reads it back.

Config files, the `resolved` echo in manifests, checkpoint configs and
replayed options all go through this pair, so its key names and key order
are the file formats themselves.  An experiment config is one
`ExperimentConfig`: its echo parses back to it, every `replace` of it is
checked as a file is, and the CLI's overrides are such a `replace`.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import ConfigError, DetectionConfig, EstimatorConfig, GeneratorConfig
from rffgraph import OnlineEstimator, experiment, io
from rffgraph.cli import main as cli_main

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

# the key lists manifests and checkpoints have always written
TOP_KEYS = ["runs", "base_seed", "output_dir", "generator", "data_csv", "estimator", "metrics",
            "emit_every", "standardize"]
GENERATOR_KEYS = ["N", "P", "T", "edge_probability", "switch_interval", "drift", "drift_scope",
                  "noise_std", "kernel_variance", "beta_variance", "M"]
ESTIMATOR_KEYS = ["N", "P", "D", "lambda", "gamma", "kernel_variance", "rff_seed", "schedule",
                  "per_slot_maps"]
METRICS_KEYS = ["delta", "exclude_self_loops", "mse_window"]

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)

estimator_configs = st.builds(
    EstimatorConfig, N=st.integers(1, 50), P=st.integers(1, 5), D=st.integers(1, 500),
    lam=nonnegative, gamma=positive | st.integers(1, 10**6), kernel_variance=positive,
    rff_seed=seeds, schedule=st.sampled_from(["constant", "sqrt_decay"]),
    per_slot_maps=st.booleans())

detection_configs = st.builds(DetectionConfig, delta=positive, exclude_self_loops=st.booleans())


@st.composite
def generator_configs(draw):
    P = draw(st.integers(1, 5))
    drift = draw(st.booleans())
    return GeneratorConfig(
        N=draw(st.integers(1, 50)), P=P, T=draw(st.integers(P + 1, 10**5)),
        edge_probability=draw(st.floats(0.0, 1.0)),
        switch_interval=0 if drift else draw(st.integers(0, 10**4)), drift=drift,
        drift_scope=draw(st.sampled_from(["all", "single"])), noise_std=draw(nonnegative),
        kernel_variance=draw(positive), beta_variance=draw(positive), M=draw(st.integers(1, 50)),
        seed=draw(seeds))


def _through_json(cls, obj, skip=()):
    """obj written by config_dict, sent through JSON text, and read back."""
    return io.config_from_dict(cls, json.loads(json.dumps(io.config_dict(obj, skip=skip))),
                               "section")


@SETTINGS
@given(estimator_configs)
def test_estimator_config_round_trips(cfg):
    assert list(io.config_dict(cfg)) == ESTIMATOR_KEYS
    assert _through_json(EstimatorConfig, cfg) == cfg


@SETTINGS
@given(generator_configs())
def test_generator_config_round_trips_without_its_seed(cfg):
    assert list(io.config_dict(cfg, skip=("seed",))) == GENERATOR_KEYS
    assert _through_json(GeneratorConfig, cfg, skip=("seed",)) == replace(cfg, seed=0)


@SETTINGS
@given(detection_configs)
def test_detection_config_round_trips(cfg):
    assert _through_json(DetectionConfig, cfg) == cfg


def test_checkpoint_config_keys_are_the_estimator_keys(tmp_path):
    est = OnlineEstimator(EstimatorConfig(N=2, P=1, D=3))
    io.write_checkpoint(tmp_path / "ck.json", est)
    assert list(json.loads((tmp_path / "ck.json").read_text())["config"]) == ESTIMATOR_KEYS


def test_shipped_configs_parse_and_their_echo_parses_to_the_same_config():
    assert [p.name for p in CONFIGS] == ["drift.json", "standardized.json", "switching.json"]
    for path in CONFIGS:
        cfg = experiment.load_experiment(path)
        echo = cfg.resolved
        assert list(echo) == TOP_KEYS
        assert list(echo["generator"]) == GENERATOR_KEYS
        assert list(echo["estimator"]) == ESTIMATOR_KEYS
        assert list(echo["metrics"]) == METRICS_KEYS
        # the echo goes into manifests as JSON text, and the CLI's
        # --standardize / --emit-every overrides re-parse it
        again = experiment.parse_experiment(json.loads(json.dumps(echo)))
        assert again == cfg
        assert again.resolved == echo


@st.composite
def experiment_dicts(draw):
    """A config file's JSON object: a generator or a data_csv, every section,
    each optional top-level key present or not, the keys in any order."""
    est = draw(estimator_configs)
    if draw(st.booleans()):
        gen = draw(generator_configs())
        est = replace(est, N=gen.N, P=gen.P)
        obj = {"generator": io.config_dict(gen, skip=("seed",))}
    else:
        obj = {"data_csv": draw(st.from_regex(r"(/data/)?[a-z]{1,8}\.csv", fullmatch=True))}
    obj["estimator"] = io.config_dict(est)
    optional = {
        "runs": st.integers(1, 100), "base_seed": seeds,
        "output_dir": st.from_regex(r"[a-z]{1,8}(/[a-z]{1,8})?", fullmatch=True),
        "metrics": st.builds(lambda det, window: {**io.config_dict(det), "mse_window": window},
                             detection_configs, st.integers(1, 10**4)),
        "emit_every": st.integers(1, 50), "standardize": st.booleans()}
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        obj[key] = draw(optional[key])
    return dict(draw(st.permutations(list(obj.items()))))


@SETTINGS
@given(experiment_dicts())
def test_an_experiment_echo_parses_back_to_its_config_in_file_order(obj):
    cfg = experiment.parse_experiment(obj)
    echo = json.loads(json.dumps(cfg.resolved))
    assert list(echo) == TOP_KEYS
    assert experiment.parse_experiment(echo) == cfg


@SETTINGS
@given(experiment_dicts())
def test_every_replace_of_an_experiment_checks_the_sections_against_each_other(obj):
    cfg = experiment.parse_experiment(obj)
    est = cfg.estimator
    gen = cfg.generator or GeneratorConfig(N=est.N, P=est.P, T=est.P + 1)
    for changes in ({"emit_every": 0}, {"runs": 0}, {"estimator": None},
                    {"generator": gen, "data_csv": "x.csv"},
                    {"generator": None, "data_csv": None},
                    {"generator": gen, "data_csv": None, "estimator": replace(est, N=est.N + 1)},
                    {"generator": gen, "data_csv": None, "estimator": replace(est, P=est.P + 1)}):
        with pytest.raises(ConfigError):
            replace(cfg, **changes)


@SETTINGS
@given(experiment_dicts(), st.integers(1, 50))
def test_the_cli_overrides_echo_as_a_file_that_carries_them(obj, K):
    """estimate --emit-every K --standardize writes the manifest of a config
    file with those two values.  Only the manifest is written: estimate is
    replaced, as a tracer would, by a writer of its manifest."""
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "cmd_estimate", lambda cfg, **options: [
            experiment._write_manifest(cfg, "estimate", options)])
        manifests = []
        for name, overrides, argv in (
                ("cli", {}, ["--emit-every", str(K), "--standardize"]),
                ("file", {"emit_every": K, "standardize": True}, [])):
            path, out = Path(d) / f"{name}.json", Path(d) / name
            path.write_text(json.dumps({**obj, **overrides}))
            mp.setenv(experiment.ENV_OUTPUT_DIR, str(out))
            assert cli_main(["estimate", str(path), *argv]) == 0
            manifests.append((out / "estimate_manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
