"""Experiment configs and the generate / estimate / metrics / bench pipeline.

A single JSON config drives every stage.  Each stage writes its outputs
plus a manifest holding the fully resolved config; `replay` re-executes a
manifest and, because every random draw is seeded and no timestamps are
written, regenerates the numeric outputs byte for byte.

Per-run seed derivation: run r (0-based) generates data with seed
base_seed + r and draws its feature maps with seed rff_seed + r.

Every stage gets run r's series from `_run_series`, which regenerates it
from the config or reads `data_csv` once per command.  A fresh and a
resumed estimate share one run body, `_estimate_run`.  `execute` is the one
command dispatch: the CLI and `replay` both run commands through it.

The JSON form of the config sections and of a command's options (keys,
their order, and type rules) lives in `io.config_dict` and
`io.config_from_dict`; this module declares the file's top level, its
metrics section and the options as dataclasses for that codec.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import io
from .exceptions import ConfigError, DataError
from .estimator import (
    EstimatorConfig,
    GrowingDictionaryEstimator,
    OnlineEstimator,
)
from .generator import GeneratorConfig, generate
from .metrics import DetectionConfig, mse_curve, pmd_pfa

ENV_OUTPUT_DIR = "RFFGRAPH_OUTPUT_DIR"

@dataclass(frozen=True)
class _ConfigFile:
    """The top level of a config file; each section is read into its own dataclass."""

    runs: int = 1
    base_seed: int = 0
    output_dir: str = "out"
    generator: dict | None = None
    data_csv: str | None = None
    estimator: dict | None = None
    metrics: dict = field(default_factory=dict)
    emit_every: int = 1
    standardize: bool = False

    def __post_init__(self):
        for key in ("runs", "emit_every"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be a positive integer, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class _Metrics(DetectionConfig):
    """The metrics section: the detection threshold and the MSE window."""

    mse_window: int = 100

    def __post_init__(self):
        super().__post_init__()
        if self.mse_window < 1:
            raise ConfigError(f"mse_window must be a positive integer, got {self.mse_window!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment: data source, estimator, metrics, run count."""

    runs: int
    base_seed: int
    output_dir: Path
    generator: GeneratorConfig | None  # template; per-run seed filled in
    data_csv: str | None
    estimator: EstimatorConfig  # template; per-run rff_seed filled in
    detection: DetectionConfig
    mse_window: int
    emit_every: int
    standardize: bool
    resolved: dict  # JSON echo written into manifests

    def generator_for_run(self, r: int) -> GeneratorConfig:
        if self.generator is None:
            raise ConfigError("config has no generator section")
        return replace(self.generator, seed=self.base_seed + r)

    def estimator_for_run(self, r: int) -> EstimatorConfig:
        return replace(self.estimator, rff_seed=self.estimator.rff_seed + r)

    def run_seeds(self):
        return [{"run": r, "data_seed": self.base_seed + r,
                 "rff_seed": self.estimator.rff_seed + r} for r in range(self.runs)]


def parse_experiment(obj: dict, config_dir: Path | None = None) -> ExperimentConfig:
    """Validate a parsed JSON experiment dict; unknown keys are rejected."""
    top = io.config_from_dict(_ConfigFile, obj, "experiment config")
    gen = None
    if top.generator is not None:
        gen = io.config_from_dict(GeneratorConfig, top.generator, "generator section")
        if "seed" in top.generator:
            raise ConfigError("generator seed is derived from base_seed; remove 'seed'")
        # GeneratorConfig lets a NaN noise through to generate()'s divergence
        # path; a config file has no use for non-finite values
        for key in ("noise_std", "kernel_variance", "beta_variance"):
            if not math.isfinite(getattr(gen, key)):
                raise ConfigError(f"generator {key} must be finite, got {getattr(gen, key)}")

    data_csv = top.data_csv
    if gen is None and data_csv is None:
        raise ConfigError("config needs a generator section or a data_csv path")
    if gen is not None and data_csv is not None:
        raise ConfigError("generator and data_csv are mutually exclusive")
    if data_csv is not None and config_dir is not None and not Path(data_csv).is_absolute():
        data_csv = str((config_dir / data_csv).resolve())

    if top.estimator is None:
        raise ConfigError("config needs an estimator section")
    est = io.config_from_dict(EstimatorConfig, top.estimator, "estimator section")
    met = io.config_from_dict(_Metrics, top.metrics, "metrics section")

    if gen is not None and gen.N != est.N:
        raise ConfigError(f"generator N={gen.N} does not match estimator N={est.N}")
    if gen is not None and gen.P != est.P:
        raise ConfigError(f"generator P={gen.P} does not match estimator P={est.P}")

    resolved = {
        **io.config_dict(top),
        "generator": None if gen is None else io.config_dict(gen, skip=("seed",)),
        "data_csv": data_csv,
        "estimator": io.config_dict(est),
        "metrics": io.config_dict(met),
    }
    return ExperimentConfig(runs=top.runs, base_seed=top.base_seed,
                            output_dir=Path(os.environ.get(ENV_OUTPUT_DIR) or top.output_dir),
                            generator=gen, data_csv=data_csv, estimator=est, detection=met,
                            mse_window=met.mse_window, emit_every=top.emit_every,
                            standardize=top.standardize, resolved=resolved)


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return parse_experiment(obj, config_dir=path.parent)


def _write_manifest(cfg: ExperimentConfig, command: str, options: dict | None = None,
                    name: str | None = None):
    path = cfg.output_dir / f"{name or command}_manifest.json"
    with open(path, "w") as fh:
        json.dump({"command": command, "options": io.jsonable(options or {}),
                   "experiment": io.jsonable(cfg.resolved),
                   "run_seeds": cfg.run_seeds()}, fh, indent=2)
    return path


def _run_prefix(r: int) -> str:
    return f"run{r:03d}"


def _run_series(cfg: ExperimentConfig, N: int, T: int | None = None):
    """The function from run r to its (N, T) input series, for one command.

    A given T is the horizon: a generated series is regenerated for each
    run, to T, and a data_csv is read once, here, and cut to T for every
    run.  A T past the CSV's length, or a node count other than N, is a
    DataError.
    """
    if cfg.generator is not None:
        nodes = cfg.generator.N

        def series(r):
            gen = cfg.generator_for_run(r)
            return generate(gen if T is None else replace(gen, T=T)).values
    else:
        data = io.read_data_csv(cfg.data_csv)
        if T is not None and T > data.shape[1]:
            raise DataError(f"horizon T={T} exceeds the {data.shape[1]} samples of "
                            f"{cfg.data_csv}")
        nodes, data = data.shape[0], data[:, :T]

        def series(r):
            return data
    if nodes != N:
        raise DataError(f"data has {nodes} nodes but the estimator expects {N}")
    return series


def _standardize(values: np.ndarray):
    """Per-node zero-mean unit-variance scaling; constant nodes keep std 1."""
    mean = values.mean(axis=1, keepdims=True)
    std = values.std(axis=1, keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return (values - mean) / std, mean.ravel(), std.ravel()


def cmd_generate(cfg: ExperimentConfig) -> list[Path]:
    """Write per-run data CSVs and topology JSONL traces."""
    if cfg.generator is None:
        raise ConfigError("generate requires a generator section")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for r in range(cfg.runs):
        ts = generate(cfg.generator_for_run(r))
        data_path = cfg.output_dir / f"{_run_prefix(r)}_data.csv"
        topo_path = cfg.output_dir / f"{_run_prefix(r)}_topology.jsonl"
        io.write_data_csv(data_path, ts.values)
        io.write_topology_jsonl(topo_path, ts)
        written += [data_path, topo_path]
    written.append(_write_manifest(cfg, "generate"))
    return written


def cmd_estimate(cfg: ExperimentConfig, limit: int | None = None,
                 from_checkpoint=None) -> list[Path]:
    """Stream each run through the estimator; write estimates, predictions, checkpoint."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if from_checkpoint is not None:
        return _resume_estimate(cfg, from_checkpoint)
    if limit is not None and limit <= cfg.estimator.P:
        raise DataError(f"limit must exceed the warm-up length P={cfg.estimator.P}")
    series = _run_series(cfg, cfg.estimator.N)
    written = []
    for r in range(cfg.runs):
        values = series(r)[:, :limit]
        mean = std = None
        if cfg.standardize:
            values, mean, std = _standardize(values)
        extra = {"run": r, "next_t": 0, "standardize": cfg.standardize, "mean": mean, "std": std}
        written += _estimate_run(cfg, OnlineEstimator(cfg.estimator_for_run(r)), values, 0,
                                 extra, "")
    # a resume overwrites estimate_manifest.json; the initial copy keeps
    # this command replayable after resumes
    options = {"limit": limit, "from_checkpoint": None}
    written.append(_write_manifest(cfg, "estimate", options))
    written.append(_write_manifest(cfg, "estimate", options, name="estimate_initial"))
    return written


def _resume_estimate(cfg: ExperimentConfig, checkpoint_path) -> list[Path]:
    """Continue a checkpointed run over the remaining samples of its series."""
    est, extra = io.read_checkpoint(checkpoint_path, with_extra=True)
    r, next_t = extra.get("run", 0), extra.get("next_t")
    for key, value in (("run", r), ("next_t", next_t)):
        if not io.is_integer(value) or value < 0:
            raise DataError(f"{checkpoint_path}: extra.{key} must be a nonnegative integer, "
                            f"got {value!r}")
    values = _apply_checkpoint_scaling(checkpoint_path, extra, _run_series(cfg, est.cfg.N)(r))
    written = _estimate_run(cfg, est, values, next_t, extra, "_resumed")
    # estimate_manifest.json names the latest estimate; the per-run copy
    # keeps every run's resume replayable after later resumes
    options = {"limit": None, "from_checkpoint": str(checkpoint_path)}
    return written + [_write_manifest(cfg, "estimate", options),
                      _write_manifest(cfg, "estimate", options,
                                      name=f"{_run_prefix(r)}_estimate_resumed")]


def _apply_checkpoint_scaling(checkpoint_path, extra: dict, values: np.ndarray) -> np.ndarray:
    """values scaled as the estimate that wrote the checkpoint scaled its series.

    extra is the checkpoint's record.  Its standardize, when present, must
    be a boolean; when true, its mean and std must be finite and one per
    node, and std positive.
    """
    standardize = extra.get("standardize", False)
    if not isinstance(standardize, bool):
        raise DataError(f"{checkpoint_path}: extra.standardize must be true or false, "
                        f"got {standardize!r}")
    if not standardize:
        return values
    shape = (values.shape[0],)
    mean = io.finite_array(checkpoint_path, extra.get("mean"), "extra.mean", shape)
    std = io.finite_array(checkpoint_path, extra.get("std"), "extra.std", shape)
    if not (std > 0).all():
        raise DataError(f"{checkpoint_path}: extra.std must be positive")
    return (values - mean[:, None]) / std[:, None]


def _estimate_run(cfg: ExperimentConfig, est: OnlineEstimator, values: np.ndarray, start: int,
                  extra: dict, suffix: str) -> list[Path]:
    """Stream values from t=start through est; write its estimates, predictions, checkpoint.

    A fresh run (start 0) and a resumed one share one grid: predictions
    from s = max(start, P) and estimates from the first t >= s on the
    grid P, P + K, P + 2K, ... of emit_every K.  extra is the checkpoint
    record, written back with next_t set to the end of the series.
    """
    P, T = est.cfg.P, values.shape[1]
    prefix = _run_prefix(extra.get("run", 0))
    if T - start <= P - est.warm:
        raise DataError(f"{prefix} has {T - start} samples from t={start}; the estimator "
                        f"needs more than {P - est.warm}")
    series = est.run(values, start=start, emit_every=cfg.emit_every)
    est_path = cfg.output_dir / f"{prefix}_estimates{suffix}.csv"
    pred_path = cfg.output_dir / f"{prefix}_predictions{suffix}.csv"
    ckpt_path = cfg.output_dir / f"{prefix}_checkpoint{suffix}.json"
    s = max(start, P)
    grid = {"t_start": s + (P - s) % cfg.emit_every, "emit_every": cfg.emit_every}
    io.write_estimates_csv(est_path, series.group_norms, **grid)
    io.write_estimates_npy(est_path.with_suffix(".npy"), series.group_norms, **grid)
    io.write_predictions_csv(pred_path, series.predictions, t_start=s)
    io.write_checkpoint(ckpt_path, est, extra={**extra, "next_t": T})
    return [est_path, pred_path, ckpt_path]


def cmd_metrics(cfg: ExperimentConfig) -> list[Path]:
    """Detection and error curves from previously written run files.

    Reads each run's estimates from its `.npy` file, one run at a time.
    Each run's data is scaled as recorded in the checkpoint of the estimate
    that wrote its predictions.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    N, P = cfg.estimator.N, cfg.estimator.P
    series = _run_series(cfg, N)
    grids = {}  # kind -> the first run's time grid, which every run must share
    mse_runs = []

    def same_grid(kind, t):
        if not np.array_equal(grids.setdefault(kind, t), t):
            raise DataError(f"runs have mismatched {kind} time axes")

    def detection_runs():
        """Each run's (estimates, truth), collecting its (data, predictions) pair."""
        for r in range(cfg.runs):
            prefix = _run_prefix(r)
            tvals, est = io.read_estimates_npy(cfg.output_dir / f"{prefix}_estimates.npy", N, P)
            same_grid("estimate", tvals)
            topo_path = cfg.output_dir / f"{prefix}_topology.jsonl"
            _, active = io.read_topology_jsonl(topo_path, int(tvals[-1]) + 1)
            if active.shape[1:] != (N, N, P):
                raise DataError(f"{topo_path}: topology shape {active.shape[1:]} does not fit "
                                f"N={N}, P={P}")
            pt, preds = io.read_predictions_csv(cfg.output_dir / f"{prefix}_predictions.csv")
            same_grid("prediction", pt)
            ckpt_path = cfg.output_dir / f"{prefix}_checkpoint.json"
            _, extra = io.read_checkpoint(ckpt_path, with_extra=True)
            values = _apply_checkpoint_scaling(ckpt_path, extra, series(r))
            if values.shape[1] <= int(pt[-1]):
                raise DataError("predictions extend past the data series")
            mse_runs.append((values[:, pt], preds))
            yield est, active[tvals]

    pmd, pfa = pmd_pfa(detection_runs(), cfg.detection)
    t_grid, mse_t = grids["estimate"], grids["prediction"]
    if cfg.runs > 1:
        mse = mse_curve(runs=mse_runs)
    else:
        y, yhat = mse_runs[0]
        mse = mse_curve(y, yhat, window=cfg.mse_window)
    pmd_path = cfg.output_dir / "pmd.csv"
    pfa_path = cfg.output_dir / "pfa.csv"
    mse_path = cfg.output_dir / "mse.csv"
    io.write_metric_csv(pmd_path, t_grid, pmd)
    io.write_metric_csv(pfa_path, t_grid, pfa)
    io.write_metric_csv(mse_path, mse_t, mse)
    report = {
        "experiment": cfg.resolved,
        "run_seeds": cfg.run_seeds(),
        "curves": {
            "t_detection": t_grid.tolist(),
            "pmd": io.jsonable(pmd.tolist()),
            "pfa": io.jsonable(pfa.tolist()),
            "t_mse": mse_t.tolist(),
            "mse": io.jsonable(mse.tolist()),
        },
    }
    report_path = cfg.output_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    manifest = _write_manifest(cfg, "metrics")
    return [pmd_path, pfa_path, mse_path, report_path, manifest]


def cmd_bench(cfg: ExperimentConfig, T: int | None = None,
              reference: bool = False) -> list[Path]:
    """Per-iteration wall-clock timing of the streaming loop.

    With reference=True the loop runs the growing-dictionary kernel
    estimator instead, whose cost increases with every stored sample.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if T is not None and T <= cfg.estimator.P:
        raise DataError(f"bench horizon T={T} must exceed P={cfg.estimator.P}")
    values = _run_series(cfg, cfg.estimator.N, T)(0)
    if cfg.standardize:
        values, _, _ = _standardize(values)
    if reference:
        runner = GrowingDictionaryEstimator(cfg.estimator.N, cfg.estimator.P,
                                            kernel_variance=cfg.estimator.kernel_variance)
    else:
        runner = OnlineEstimator(cfg.estimator_for_run(0))
    times = []
    t_idx = []
    for t in range(values.shape[1]):
        t0 = time.perf_counter_ns()
        out = runner.step(values[:, t])
        dt = time.perf_counter_ns() - t0
        if out is not None:
            times.append(dt * 1e-9)
            t_idx.append(t)
    name = "bench_reference.csv" if reference else "bench.csv"
    path = cfg.output_dir / name
    io._write_table(path, ["seconds"], t_idx, np.array(times)[:, None])
    manifest = _write_manifest(cfg, "bench_reference" if reference else "bench",
                               {"T": T, "reference": reference})
    return [path, manifest]


@dataclass(frozen=True)
class _Options:
    """The options of a command, as the CLI parses them and a manifest records them."""

    limit: int | None = None
    from_checkpoint: str | None = None
    T: int | None = None
    reference: bool = False


def execute(cfg: ExperimentConfig, command: str, options: dict) -> list[Path]:
    """Run `command` on cfg with the options it takes from `options`.

    The one command dispatch: the CLI passes its parsed arguments, replay a
    manifest's recorded options.  An option of the wrong type is a
    ConfigError.
    """
    if isinstance(options, dict):  # the CLI's arguments also hold the command and config
        options = {k: v for k, v in options.items() if k in _Options.__dataclass_fields__}
    opts = io.config_from_dict(_Options, options, "options")
    if command == "generate":
        return cmd_generate(cfg)
    if command == "estimate":
        return cmd_estimate(cfg, limit=opts.limit, from_checkpoint=opts.from_checkpoint)
    if command == "metrics":
        return cmd_metrics(cfg)
    if command in ("bench", "bench_reference"):
        return cmd_bench(cfg, T=opts.T, reference=opts.reference)
    raise ConfigError(f"unknown command {command!r}")


def replay(manifest_path) -> list[Path]:
    """Re-execute a recorded command from its manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ConfigError(f"manifest not found: {manifest_path}")
    try:
        with open(manifest_path) as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{manifest_path}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{manifest_path}: a manifest must be a JSON object")
    for key in ("command", "experiment"):
        if key not in obj:
            raise ConfigError(f"manifest missing {key!r}")
    cfg = parse_experiment(obj["experiment"], config_dir=manifest_path.parent)
    return execute(cfg, obj["command"], obj.get("options", {}))
