"""The one config codec: `io.config_dict` writes a config dataclass's JSON
form and `io.config_from_dict` reads it back.

Config files, the `resolved` echo in manifests, checkpoint configs and
replayed options all go through this pair, so its key names and key order
are the file formats themselves.
"""

import json
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import DetectionConfig, EstimatorConfig, GeneratorConfig, OnlineEstimator
from rffgraph import experiment, io

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
