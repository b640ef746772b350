"""Experiment configs and the generate / estimate / metrics / bench pipeline.

A single JSON config drives every stage.  Each stage writes its outputs
plus a manifest holding the fully resolved config; `replay` re-executes a
manifest and, because every random draw is seeded and no timestamps are
written, regenerates the numeric outputs byte for byte.

Per-run seed derivation: run r (0-based) generates data with seed
base_seed + r and draws its feature maps with seed rff_seed + r.

Every stage gets run r's series from `_run_series`, which regenerates it
from the config (a cut estimate only as far as the cut) or reads `data_csv`
once per command; `metrics` gets it from `_written_series`, which reads the
data CSV `generate` wrote in row blocks.
A fresh and a resumed estimate share one run body, `_estimate_run`.
`execute` is the one command dispatch: the CLI and `replay` both run
commands through it.

The JSON form of the config sections and of a command's options (keys,
their order, and type rules) lives in `io.config_dict` and
`io.config_from_dict`; this module declares the file's top level, its
metrics section and each command's options as dataclasses for that codec.
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
from .metrics import DetectionConfig, DetectionCounts, ErrorSums

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
    return parse_experiment(io.read_json_object(path, "config file", ConfigError),
                            config_dir=path.parent)


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


def _run_series(cfg: ExperimentConfig, N: int, T: int | None = None,
                stop: int | None = None):
    """The function from run r to its (N, T) input series, for one command.

    A given T is the horizon: a generated series is regenerated for each
    run, to T, and a data_csv is read once, here, and cut to T for every
    run.  A T past the CSV's length is a DataError.  A given stop cuts every
    run's series to its first stop samples; a generated one is generated
    only through sample stop, so that a non-finite sample stop-1 still
    raises as in the full series, and its config is checked against its
    own T.  A series with a node count other than N is a DataError.
    """
    if cfg.generator is None:
        data = io.read_data_csv(cfg.data_csv)
        if T is not None and T > data.shape[1]:
            raise DataError(f"horizon T={T} exceeds the {data.shape[1]} samples of "
                            f"{cfg.data_csv}")
        data = data[:, :T][:, :stop]

        def series(r):
            return data
    else:
        def series(r):
            gen = cfg.generator_for_run(r)
            if stop is not None:
                return generate(gen, stop=stop + 1).values[:, :stop]
            return generate(gen if T is None else replace(gen, T=T)).values

    def checked(r):
        values = series(r)
        _check_nodes(len(values), N)
        return values
    return checked


def _written_series(cfg: ExperimentConfig, N: int):
    """For metrics: the function from run r to its series as (N, rows)
    blocks of consecutive samples from t=0 on.

    A generator config's runs are read in row blocks from the
    runNNN_data.csv files that `generate` wrote to the output directory; a
    missing one is a DataError naming it.  A data_csv is read once, as for
    any command, and handed to every run as one block.
    """
    if cfg.generator is None:
        data = _run_series(cfg, N)(0)
        return lambda r: [data]

    def blocks(r):
        nodes, rows = io.data_blocks(cfg.output_dir / f"{_run_prefix(r)}_data.csv")
        _check_nodes(nodes, N)
        return rows
    return blocks


def _check_nodes(nodes: int, N: int):
    if nodes != N:
        raise DataError(f"data has {nodes} nodes but the estimator expects {N}")


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
    if limit is not None and from_checkpoint is not None:
        raise ConfigError("--limit and --from-checkpoint cannot be combined: a resume runs "
                          "to the end of its series")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if from_checkpoint is not None:
        return _resume_estimate(cfg, from_checkpoint)
    if limit is not None and limit <= cfg.estimator.P:
        raise DataError(f"limit must exceed the warm-up length P={cfg.estimator.P}")
    series = _run_series(cfg, cfg.estimator.N, stop=limit)
    written = []
    for r in range(cfg.runs):
        values = series(r)
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
    values = _run_series(cfg, est.cfg.N)(r)
    values = _checkpoint_scaling(checkpoint_path, extra, est.cfg.N)(values)
    written = _estimate_run(cfg, est, values, next_t, extra, "_resumed")
    # estimate_manifest.json names the latest estimate; the per-run copy
    # keeps every run's resume replayable after later resumes
    options = {"limit": None, "from_checkpoint": str(checkpoint_path)}
    return written + [_write_manifest(cfg, "estimate", options),
                      _write_manifest(cfg, "estimate", options,
                                      name=f"{_run_prefix(r)}_estimate_resumed")]


def _checkpoint_scaling(checkpoint_path, extra: dict, N: int):
    """The function that scales an (N, rows) series, or a block of one, as
    the estimate that wrote the checkpoint scaled its series.

    extra is the checkpoint's record.  Its standardize, when present, must
    be a boolean; when true, its mean and std must be finite and one per
    node, and std positive.
    """
    standardize = extra.get("standardize", False)
    if not isinstance(standardize, bool):
        raise DataError(f"{checkpoint_path}: extra.standardize must be true or false, "
                        f"got {standardize!r}")
    if not standardize:
        return lambda values: values
    mean = io.finite_array(checkpoint_path, extra.get("mean"), "extra.mean", (N,))
    std = io.finite_array(checkpoint_path, extra.get("std"), "extra.std", (N,))
    if not (std > 0).all():
        raise DataError(f"{checkpoint_path}: extra.std must be positive")
    return lambda values: (values - mean[:, None]) / std[:, None]


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

    Reads the runs one at a time, and each run's files in row blocks: the
    estimates from its `.npy` file beside the topology looked up at the
    block's rows, and the predictions in lockstep with the data CSV that
    `generate` wrote.  If the runs were cut and resumed (all or none), each
    is read as its cut files and then its `_resumed` files.  Each run's data
    is scaled as recorded in the checkpoint of the estimate that wrote its
    predictions.  Apart from the curves and the time grids the runs share,
    memory does not grow with T.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    N, P = cfg.estimator.N, cfg.estimator.P
    series = _written_series(cfg, N)
    detection, errors = DetectionCounts(cfg.detection), ErrorSums()
    grids = {}  # kind -> the first run's time grid, which every run must share
    unresumed = [r for r in range(cfg.runs)
                 if not (cfg.output_dir / f"{_run_prefix(r)}_estimates_resumed.npy").exists()]
    if 0 < len(unresumed) < cfg.runs:
        raise DataError(f"some runs were resumed and some not; runs without a resume: {unresumed}")
    parts = [""] if unresumed else ["", "_resumed"]

    def same_grid(kind, paths, t_blocks, step=None):
        """Check that a run's times go on evenly (by step, when given) from
        its cut file to its resumed one and equal the other runs' times."""
        t = np.concatenate(t_blocks)
        bad = np.flatnonzero(np.diff(t) != (np.diff(t[:2]) if step is None else step))
        if len(paths) > 1 and len(bad):
            raise DataError(f"{paths[1]} does not continue {paths[0]}: t={t[bad[0] + 1]} "
                            f"follows t={t[bad[0]]}; a resume left by an earlier estimate?")
        if not np.array_equal(grids.setdefault(kind, t), t):
            raise DataError(f"runs have mismatched {kind} time axes")

    def score(r):
        """Add run r to the counts, one block of each of its files at a time."""
        run = cfg.output_dir / _run_prefix(r)
        paths = [Path(f"{run}_estimates{part}.npy") for part in parts]
        _, blocks = io.estimate_blocks(paths, N, P)
        topo_path = Path(f"{run}_topology.jsonl")
        topo = io.read_topology(topo_path)
        if topo.active.shape[1:] != (N, N, P):
            raise DataError(f"{topo_path}: topology shape {topo.active.shape[1:]} does not fit "
                            f"N={N}, P={P}")
        t_blocks = []
        for t, est in blocks:
            detection.add(est, topo.active_at(t), at=sum(map(len, t_blocks)))
            t_blocks.append(t)
        same_grid("estimate", paths, t_blocks)

        paths = [Path(f"{run}_predictions{part}.csv") for part in parts]
        _, blocks = io.prediction_blocks(paths)
        ckpt_path = Path(f"{run}_checkpoint.json")
        _, extra = io.read_checkpoint(ckpt_path, with_extra=True)
        data = _SeriesRows(map(_checkpoint_scaling(ckpt_path, extra, N), series(r)))
        t_blocks = []
        for t, preds in blocks:
            errors.add(data.at(paths[0], t), preds, at=sum(map(len, t_blocks)))
            t_blocks.append(t)
        same_grid("prediction", paths, t_blocks, step=1)

    for r in range(cfg.runs):
        score(r)  # returns holding nothing of run r: its files are closed, its blocks freed
    pmd, pfa = detection.curves()
    mse = errors.curve(None if cfg.runs > 1 else cfg.mse_window)
    t_grid, mse_t = grids["estimate"], grids["prediction"]
    pmd_path = cfg.output_dir / "pmd.csv"
    pfa_path = cfg.output_dir / "pfa.csv"
    mse_path = cfg.output_dir / "mse.csv"
    io.write_metric_csv(pmd_path, t_grid, pmd)
    io.write_metric_csv(pfa_path, t_grid, pfa)
    io.write_metric_csv(mse_path, mse_t, mse)
    report = {
        "experiment": cfg.resolved,
        "run_seeds": cfg.run_seeds(),
        "curves": {"t_detection": t_grid, "pmd": pmd, "pfa": pfa, "t_mse": mse_t, "mse": mse},
    }
    report_path = cfg.output_dir / "report.json"
    io.write_json(report_path, report)
    manifest = _write_manifest(cfg, "metrics")
    return [pmd_path, pfa_path, mse_path, report_path, manifest]


class _SeriesRows:
    """A series read in (N, rows) blocks from t=0 on, handed out at
    increasing times: rows before the times asked for are skipped, and
    blocks are read only as far as those times reach."""

    def __init__(self, blocks):
        self.blocks, self.buf, self.base = iter(blocks), None, 0  # buf holds t = base, ...

    def at(self, pred_path, t: np.ndarray) -> np.ndarray:
        """The (N, len(t)) series rows at times t, which must increase from
        the last call's on."""
        if t[0] < self.base or (np.diff(t) <= 0).any():
            raise DataError(f"{pred_path}: prediction times must increase")
        while self.buf is None or self.base + self.buf.shape[1] <= t[-1]:
            block = next(self.blocks, None)
            if block is None:
                raise DataError("predictions extend past the data series")
            if self.buf is None:
                self.buf = block
            else:
                skip = min(t[0] - self.base, self.buf.shape[1])
                self.buf = np.concatenate([self.buf[:, skip:], block], axis=1)
                self.base += skip
        rows = self.buf[:, t - self.base]
        self.buf, self.base = self.buf[:, t[-1] + 1 - self.base:], t[-1] + 1
        return rows


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
class _NoOptions:
    """generate and metrics take no options."""


@dataclass(frozen=True)
class _EstimateOptions:
    limit: int | None = None
    from_checkpoint: str | None = None


@dataclass(frozen=True)
class _BenchOptions:
    T: int | None = None
    reference: bool = False


# the options of each command, as the CLI parses them and a manifest records them
_OPTIONS = {"generate": _NoOptions, "estimate": _EstimateOptions, "metrics": _NoOptions,
            "bench": _BenchOptions, "bench_reference": _BenchOptions}


def execute(cfg: ExperimentConfig, command: str, options: dict) -> list[Path]:
    """Run `command` on cfg with `options`.

    The one command dispatch: the CLI passes its parsed options, replay a
    manifest's recorded ones.  An unknown command, an option the command
    does not take and an option of the wrong type are ConfigErrors.
    """
    if command not in _OPTIONS:
        raise ConfigError(f"unknown command {command!r}")
    opts = io.config_from_dict(_OPTIONS[command], options, f"{command} options")
    if command == "generate":
        return cmd_generate(cfg)
    if command == "estimate":
        return cmd_estimate(cfg, limit=opts.limit, from_checkpoint=opts.from_checkpoint)
    if command == "metrics":
        return cmd_metrics(cfg)
    return cmd_bench(cfg, T=opts.T, reference=opts.reference)


def replay(manifest_path) -> list[Path]:
    """Re-execute a recorded command from its manifest."""
    manifest_path = Path(manifest_path)
    obj = io.read_json_object(manifest_path, "manifest", ConfigError)
    for key in ("command", "experiment"):
        if key not in obj:
            raise ConfigError(f"manifest missing {key!r}")
    cfg = parse_experiment(obj["experiment"], config_dir=manifest_path.parent)
    return execute(cfg, obj["command"], obj.get("options", {}))
