"""Experiment configs and the generate / estimate / metrics / bench pipeline.

A single JSON config drives every stage.  Each stage writes its outputs
plus a manifest holding the fully resolved config; `replay` re-executes a
manifest and, because every random draw is seeded and no timestamps are
written, regenerates the numeric outputs byte for byte.

Per-run seed derivation: run r (0-based) generates data with seed
base_seed + r and draws its feature maps with seed rff_seed + r.

`generate` and a fresh `estimate` step their runs in lockstep batches, as
many runs as fit the generator's and the estimator's scratch bounds
(`generator.lockstep_runs`, `estimator.lockstep_runs`) and hold at most
BATCH_BYTES between them (`_lockstep_size`); each run's files equal those
of the run stepped alone, byte for byte.  A resume and `bench` step one
run.  The per-run seeds are derived here only, and a batch hands the
layers its runs' configs.  `estimate` and `bench` get their runs' series
from `_run_series`, which regenerates them from the config (a cut estimate
only as far as the cut) or reads `data_csv` once per command.  A fresh and a
resumed estimate share one writer, `_write_run`, which writes every trace
`metrics` scores: the estimates `.npy` and the residuals `.npy` (the
prediction errors of the series it consumed, scaled as it was).  So
`metrics` reads those two traces and the topology `generate` wrote, and no
series, predictions or checkpoint.  A divergence writes no file of its
batch, and with more than one run its message names the run.
A fresh estimate deletes the resume files a previous estimate left, and a
resume must continue one of the config's runs under the estimator config,
emit_every and standardize its checkpoint saved.  `execute` is the one command
dispatch: the CLI and `replay` both run commands through it, and it makes
the output directory.  Every file is opened through `io.opened`.

`ExperimentConfig` is the config file as one dataclass, whose echo
(`resolved`) the manifests write and whose `replace` the CLI's overrides
are.  The JSON form of the config and of a command's options (keys, their
order, and type rules) lives in `io.config_dict` and `io.config_from_dict`.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import estimator, generator, io
from .exceptions import ConfigError, DataError, DivergenceError
from .estimator import (
    EstimateSeries,
    EstimatorConfig,
    GrowingDictionaryEstimator,
    OnlineEstimator,
)
from .generator import GeneratorConfig, generate
from .metrics import DetectionConfig, DetectionCounts, ErrorSums

ENV_OUTPUT_DIR = "RFFGRAPH_OUTPUT_DIR"
# What the runs of a lockstep batch may hold at once: a batch is cut to
# fit, so the peak exceeds that of stepping its runs one at a time by less
# than this, whatever T; a run that alone holds more is stepped alone.
BATCH_BYTES = 16 * 1024 * 1024

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
    """A config file's top-level keys in file order, each section its own
    dataclass.  generator and estimator are templates whose seeds each run
    derives; every construction, `replace` included, checks the sections
    against each other."""

    runs: int = 1
    base_seed: int = 0
    output_dir: str = "out"
    generator: GeneratorConfig | None = None
    data_csv: str | None = None
    estimator: EstimatorConfig | None = None
    metrics: _Metrics = _Metrics()
    emit_every: int = 1
    standardize: bool = False

    def __post_init__(self):
        for key in ("runs", "emit_every"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be a positive integer, got {getattr(self, key)!r}")
        gen, est = self.generator, self.estimator
        if gen is None and self.data_csv is None:
            raise ConfigError("config needs a generator section or a data_csv path")
        if gen is not None and self.data_csv is not None:
            raise ConfigError("generator and data_csv are mutually exclusive")
        if est is None:
            raise ConfigError("config needs an estimator section")
        for key in ("N", "P"):
            if gen is not None and getattr(gen, key) != getattr(est, key):
                raise ConfigError(f"generator {key}={getattr(gen, key)} does not match "
                                  f"estimator {key}={getattr(est, key)}")

    @property
    def out_dir(self) -> Path:
        """The directory the commands write to: $RFFGRAPH_OUTPUT_DIR if set, else output_dir."""
        return Path(os.environ.get(ENV_OUTPUT_DIR) or self.output_dir)

    @property
    def resolved(self) -> dict:
        """The JSON echo manifests write: the config, its generator without the seed."""
        return {**io.config_dict(self), "generator": None if self.generator is None
                else io.config_dict(self.generator, skip=("seed",))}

    def generator_for_run(self, r: int) -> GeneratorConfig:
        return replace(self.generator, seed=self.base_seed + r)

    def estimator_for_run(self, r: int) -> EstimatorConfig:
        return replace(self.estimator, rff_seed=self.estimator.rff_seed + r)

    def run_seeds(self):
        return [{"run": r, "data_seed": self.base_seed + r,
                 "rff_seed": self.estimator.rff_seed + r} for r in range(self.runs)]


def parse_experiment(obj: dict, config_dir: Path | None = None) -> ExperimentConfig:
    """The experiment a parsed JSON config holds; unknown keys are rejected.
    A file's generator carries no seed and only finite real values, and a
    relative data_csv is resolved against config_dir."""
    cfg = io.config_from_dict(ExperimentConfig, obj, "experiment config")
    if cfg.generator is not None:
        if "seed" in obj["generator"]:
            raise ConfigError("generator seed is derived from base_seed; remove 'seed'")
        # GeneratorConfig lets a NaN noise through to generate()'s divergence
        # path; a config file has no use for non-finite values
        for key in ("noise_std", "kernel_variance", "beta_variance"):
            if not math.isfinite(getattr(cfg.generator, key)):
                raise ConfigError(f"generator {key} must be finite, got "
                                  f"{getattr(cfg.generator, key)}")
    if cfg.data_csv is not None and config_dir is not None and \
            not Path(cfg.data_csv).is_absolute():
        cfg = replace(cfg, data_csv=str((config_dir / cfg.data_csv).resolve()))
    return cfg


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    return parse_experiment(io.read_json_object(path, "config file", ConfigError),
                            config_dir=path.parent)


def _write_manifest(cfg: ExperimentConfig, command: str, options: dict | None = None,
                    name: str | None = None):
    path = cfg.out_dir / f"{name or command}_manifest.json"
    with io.opened(path, "w", "manifest") as fh:
        json.dump({"command": command, "options": io.jsonable(options or {}),
                   "experiment": io.jsonable(cfg.resolved),
                   "run_seeds": cfg.run_seeds()}, fh, indent=2)
    return path


def _run_prefix(r: int) -> str:
    return f"run{r:03d}"


# (kind, extension) of the files of one run that _write_run writes
_RUN_FILES = [("estimates", "csv"), ("estimates", "npy"), ("predictions", "csv"),
              ("residuals", "npy"), ("checkpoint", "json")]


def _batches(cfg: ExperimentConfig, size: int) -> list[range]:
    """The config's runs in consecutive batches of at most size runs."""
    return [range(b, min(b + size, cfg.runs)) for b in range(0, cfg.runs, size)]


def _lockstep_size(cfg: ExperimentConfig, T: int, command: str) -> int:
    """How many runs of T samples `command` (generate or estimate) steps as
    one batch: as many as the layers' scratch bounds allow and as hold at
    most BATCH_BYTES between them, at least one."""
    N, P = cfg.estimator.N, cfg.estimator.P
    per_sample = 3 * N  # a run's series, its noise and the copy stacked for the batch
    if command == "estimate":
        # its predictions and group-norm trace; the coefficient rows of a
        # drift generation, as large as the trace, are freed before it is made
        per_sample += N + N * N * P
    elif cfg.generator.drift:
        per_sample += N * N * P  # the coefficient rows of every sample
    size = BATCH_BYTES // (8 * T * per_sample)
    if command == "estimate":
        size = min(size, estimator.lockstep_runs(cfg.estimator))
    if cfg.generator is not None:
        size = min(size, generator.lockstep_runs(cfg.generator))
    return max(1, size)


def _generate_batch(cfg: ExperimentConfig, batch: range, stop: int | None = None):
    """The TimeSeries of the runs of batch, generated in lockstep (one run alone)."""
    # a batch of one keeps the one-run shapes, which an out-of-memory message names
    if len(batch) == 1:
        return [generate(cfg.generator_for_run(batch[0]), stop=stop)]
    return generate([cfg.generator_for_run(r) for r in batch], stop=stop)


@contextmanager
def _naming_runs(cfg: ExperimentConfig, batch: range):
    """A DivergenceError of a run of batch, its message led by the run's
    name when the config has more than one run."""
    try:
        yield
    except DivergenceError as e:
        if cfg.runs == 1:
            raise
        r = batch[0 if e.run is None else e.run]
        raise DivergenceError(f"{_run_prefix(r)}: {e}") from None


def _run_series(cfg: ExperimentConfig, stop: int | None = None, standardize: bool = False):
    """(T, series) for one command: the length T of every run's input
    series, and the function from a range of runs to their (runs, N, T)
    series.

    Generated series are generated for each call, the runs of one call in
    lockstep, and a data_csv is read once, here; every run of a call reads
    it through one view.  A given stop cuts every run's series to its first
    stop samples; a generated one is generated only through sample stop,
    so that a non-finite sample stop-1 still raises as in the full series,
    and its config is checked against its own T.  With standardize, each
    series is scaled over all its samples (a data_csv once).  A series with
    a node count other than the estimator's N is a DataError.
    """
    if cfg.generator is None:
        data = io.read_data_csv(cfg.data_csv)[:, :stop]
        if standardize:
            data = _standardize(data)
        T = data.shape[1]

        def series(batch):
            return np.broadcast_to(data, (len(batch),) + data.shape)
    else:
        T = cfg.generator.T if stop is None else min(stop, cfg.generator.T)

        def series(batch):
            runs = _generate_batch(cfg, batch, None if stop is None else stop + 1)
            values = np.stack([ts.values[:, :stop] for ts in runs])
            return _standardize(values) if standardize else values

    def checked(batch):
        values = series(batch)
        if values.shape[1] != cfg.estimator.N:
            raise DataError(f"data has {values.shape[1]} nodes but the estimator expects "
                            f"{cfg.estimator.N}")
        return values
    return T, checked


def _standardize(values: np.ndarray, upto: int | None = None) -> np.ndarray:
    """The (..., N, T) values scaled per node by the mean and std of their
    first upto samples (all when None); constant nodes keep std 1."""
    head = values[..., :upto]
    mean = head.mean(axis=-1, keepdims=True)
    std = head.std(axis=-1, keepdims=True)
    return (values - mean) / np.where(std > 0, std, 1.0)


def cmd_generate(cfg: ExperimentConfig) -> list[Path]:
    """Write per-run data CSVs and topology JSONL traces.

    The runs are generated in lockstep batches (`_lockstep_size`); a
    divergence writes no file of its batch.
    """
    if cfg.generator is None:
        raise ConfigError("generate requires a generator section")
    written = []
    for batch in _batches(cfg, _lockstep_size(cfg, cfg.generator.T, "generate")):
        written += _generate_files(cfg, batch)
    written.append(_write_manifest(cfg, "generate"))
    return written


def _generate_files(cfg: ExperimentConfig, batch: range) -> list[Path]:
    """Generate batch's runs and write their data CSVs and topology traces;
    returns their paths, holding nothing of the batch, so that the next
    batch is made without it."""
    with _naming_runs(cfg, batch):
        runs = _generate_batch(cfg, batch)
    written = []
    for r, ts in zip(batch, runs):
        data_path = cfg.out_dir / f"{_run_prefix(r)}_data.csv"
        topo_path = cfg.out_dir / f"{_run_prefix(r)}_topology.jsonl"
        io.write_data_csv(data_path, ts.values)
        io.write_topology_jsonl(topo_path, ts)
        written += [data_path, topo_path]
    return written


def cmd_estimate(cfg: ExperimentConfig, limit: int | None = None,
                 from_checkpoint=None) -> list[Path]:
    """Stream each run through the estimator; write its traces, predictions and checkpoint.

    The runs are stepped in lockstep batches (`_lockstep_size`), and a
    batch's files are written once all its runs are stepped, so a
    divergence writes no file of its batch.  Each run's `_resumed` files
    and resume manifest, left by an earlier estimate, are deleted before
    its files are written: they continue a run this estimate replaces.
    """
    if limit is not None and from_checkpoint is not None:
        raise ConfigError("--limit and --from-checkpoint cannot be combined: a resume runs "
                          "to the end of its series")
    if from_checkpoint is not None:
        return _resume_estimate(cfg, from_checkpoint)
    if limit is not None and limit <= cfg.estimator.P:
        raise DataError(f"limit must exceed the warm-up length P={cfg.estimator.P}")
    T, series = _run_series(cfg, stop=limit, standardize=cfg.standardize)
    written = []
    for batch in _batches(cfg, _lockstep_size(cfg, T, "estimate")):
        written += _estimate_files(cfg, batch, series)
    # a resume overwrites estimate_manifest.json; the initial copy keeps
    # this command replayable after resumes
    options = {"limit": limit, "from_checkpoint": None}
    written.append(_write_manifest(cfg, "estimate", options))
    written.append(_write_manifest(cfg, "estimate", options, name="estimate_initial"))
    return written


def _estimate_files(cfg: ExperimentConfig, batch: range, series) -> list[Path]:
    """Stream the series of batch's fresh runs through their estimators in
    lockstep (one run alone), then write each run's files as the run alone
    would; returns their paths, holding nothing of the batch, so that the
    next batch is made without it."""
    with _naming_runs(cfg, batch):
        values = series(batch)
        _check_length(cfg.estimator.P, values.shape[-1], 0, 0, batch[0])
        if len(batch) == 1:  # the one-run shapes, as in _generate_batch
            est = OnlineEstimator(cfg.estimator_for_run(batch[0]))
            runs = [(est, est.run(values[0], emit_every=cfg.emit_every))]
        else:
            est = OnlineEstimator([cfg.estimator_for_run(r) for r in batch])
            trace = est.run(values, emit_every=cfg.emit_every)
            runs = [(one, EstimateSeries(trace.predictions[i], trace.group_norms[i], one.state))
                    for i, one in enumerate(est.split())]
    written = []
    for r, v, (one, trace) in zip(batch, values, runs):
        for name in _resume_files(r):
            try:
                (cfg.out_dir / name).unlink(missing_ok=True)
            except OSError as e:
                raise DataError(f"{cfg.out_dir / name}: cannot delete a stale resume file "
                                f"({e})") from None
        written += _write_run(cfg, one, v, trace, 0, r, "")
    return written


def _resume_files(r: int) -> list[str]:
    """The names of the files a resume of run r writes."""
    prefix = _run_prefix(r)
    return [f"{prefix}_{kind}_resumed.{ext}" for kind, ext in _RUN_FILES] + \
        [f"{prefix}_estimate_resumed_manifest.json"]


def _resume_estimate(cfg: ExperimentConfig, checkpoint_path) -> list[Path]:
    """Continue a checkpointed run from the samples its state has taken (t
    plus the warm-up count), scaled, when standardized, as the cut was."""
    est, extra = io.read_checkpoint(checkpoint_path)
    r, standardize = extra.get("run", 0), extra.get("standardize", False)
    if not io.is_integer(r) or r < 0:
        raise DataError(f"{checkpoint_path}: extra.run must be a nonnegative integer, got {r!r}")
    if r >= cfg.runs:
        raise DataError(f"{checkpoint_path}: extra.run is {r}, but the config has {cfg.runs} "
                        f"run(s)")
    if not isinstance(standardize, bool):
        raise DataError(f"{checkpoint_path}: extra.standardize must be true or false, "
                        f"got {standardize!r}")
    saved = {**io.config_dict(est.cfg), "emit_every": extra.get("emit_every", cfg.emit_every),
             "standardize": standardize}
    now = {**io.config_dict(cfg.estimator_for_run(r)), "emit_every": cfg.emit_every,
           "standardize": cfg.standardize}
    for key in saved:
        if saved[key] != now[key]:
            name = f"extra.{key}" if key in ("emit_every", "standardize") else f"estimator {key}"
            raise DataError(f"{checkpoint_path}: {name} is {json.dumps(saved[key])} in the "
                            f"checkpoint but {json.dumps(now[key])} in the config; a resume runs "
                            f"under the cut's config")
    with _naming_runs(cfg, range(r, r + 1)):
        _, series = _run_series(cfg)
        values = series(range(r, r + 1))[0]
        start, T = est.state.t + est.warm, values.shape[1]
        if start >= T:
            raise DataError(f"{checkpoint_path}: its state has taken {start} samples, "
                            f"{'at' if start == T else 'past'} the end of the {T} samples of "
                            f"{_run_prefix(r)}; nothing is left to resume")
        if cfg.standardize:
            values = _standardize(values, start)
        _check_length(est.cfg.P, T, start, est.warm, r)
        trace = est.run(values, start=start, emit_every=cfg.emit_every)
    written = _write_run(cfg, est, values, trace, start, r, "_resumed")
    # estimate_manifest.json names the latest estimate; the per-run copy
    # keeps every run's resume replayable after later resumes
    options = {"limit": None, "from_checkpoint": str(checkpoint_path)}
    return written + [_write_manifest(cfg, "estimate", options),
                      _write_manifest(cfg, "estimate", options,
                                      name=f"{_run_prefix(r)}_estimate_resumed")]


def _check_length(P: int, T: int, start: int, warm: int, r: int):
    """A DataError unless T samples from t=start leave an estimator that has
    taken warm samples an update."""
    if T - start <= P - warm:
        raise DataError(f"{_run_prefix(r)} has {T - start} samples from t={start}; the "
                        f"estimator needs more than {P - warm}")


def _write_run(cfg: ExperimentConfig, est: OnlineEstimator, values: np.ndarray,
               series: EstimateSeries, start: int, r: int, suffix: str) -> list[Path]:
    """Write run r's estimates (CSV and `.npy`), predictions, residuals and
    checkpoint from the series est made of values from t=start, and return
    their paths.

    A fresh run (start 0) and a resumed one share one grid: predictions and
    residuals from s = max(start, P) and estimates from the first t >= s on
    the grid P, P + K, P + 2K, ... of emit_every K.
    """
    P = est.cfg.P
    prefix = _run_prefix(r)
    paths = [cfg.out_dir / f"{prefix}_{kind}{suffix}.{ext}" for kind, ext in _RUN_FILES]
    est_csv, est_npy, pred_csv, res_npy, ckpt = paths
    s = max(start, P)
    grid = {"t_start": s + (P - s) % cfg.emit_every, "emit_every": cfg.emit_every}
    io.write_estimates_csv(est_csv, series.group_norms, **grid)
    io.write_estimates_npy(est_npy, series.group_norms, **grid)
    io.write_predictions_csv(pred_csv, series.predictions, t_start=s)
    io.write_residuals_npy(res_npy, values, series.predictions, t_start=s)
    io.write_checkpoint(ckpt, est, extra={"run": r, "emit_every": cfg.emit_every,
                                          "standardize": cfg.standardize})
    return paths


def cmd_metrics(cfg: ExperimentConfig) -> list[Path]:
    """Detection and error curves from previously written run files.

    Reads the runs one at a time, and each run's two `.npy` traces in row
    blocks: the estimates beside the topology `generate` wrote, looked up
    at the block's rows, and the residuals, the prediction errors as the
    estimate computed them (on its scaled series, when it standardized).
    If the runs were cut and resumed (all or none), each is read as its
    cut files and then its `_resumed` files.  No series, predictions CSV or
    checkpoint is read.  Apart from the curves and the time grids the runs
    share, memory does not grow with T.
    """
    N, P = cfg.estimator.N, cfg.estimator.P
    detection, errors = DetectionCounts(cfg.metrics), ErrorSums()
    grids = {}  # kind -> the first run's time grid, which every run must share
    unresumed = [r for r in range(cfg.runs)
                 if not (cfg.out_dir / f"{_run_prefix(r)}_estimates_resumed.npy").exists()]
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
                            f"follows t={t[bad[0]]}; a resume of an earlier estimate's checkpoint, "
                            f"or one under another emit_every?")
        if not np.array_equal(grids.setdefault(kind, t), t):
            raise DataError(f"runs have mismatched {kind} time axes")

    def score(r):
        """Add run r to the counts, one block of each of its files at a time."""
        run = cfg.out_dir / _run_prefix(r)
        paths = [Path(f"{run}_estimates{part}.npy") for part in parts]
        blocks = io.estimate_blocks(paths, N, P)
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

        paths = [Path(f"{run}_residuals{part}.npy") for part in parts]
        blocks = io.residual_blocks(paths, N)
        t_blocks = []
        for t, err in blocks:
            errors.add(err, at=sum(map(len, t_blocks)))
            t_blocks.append(t)
        same_grid("prediction", paths, t_blocks, step=1)

    for r in range(cfg.runs):
        score(r)  # returns holding nothing of run r: its files are closed, its blocks freed
    pmd, pfa = detection.curves()
    mse = errors.curve(None if cfg.runs > 1 else cfg.metrics.mse_window)
    t_grid, mse_t = grids["estimate"], grids["prediction"]
    pmd_path = cfg.out_dir / "pmd.csv"
    pfa_path = cfg.out_dir / "pfa.csv"
    mse_path = cfg.out_dir / "mse.csv"
    io.write_metric_csv(pmd_path, t_grid, pmd)
    io.write_metric_csv(pfa_path, t_grid, pfa)
    io.write_metric_csv(mse_path, mse_t, mse)
    report = {
        "experiment": cfg.resolved,
        "run_seeds": cfg.run_seeds(),
        "curves": {"t_detection": t_grid, "pmd": pmd, "pfa": pfa, "t_mse": mse_t, "mse": mse},
    }
    report_path = cfg.out_dir / "report.json"
    io.write_json(report_path, report)
    manifest = _write_manifest(cfg, "metrics")
    return [pmd_path, pfa_path, mse_path, report_path, manifest]


def cmd_bench(cfg: ExperimentConfig, T: int | None = None,
              reference: bool = False) -> list[Path]:
    """Per-iteration wall-clock timing of the streaming loop.

    With reference=True the loop runs the growing-dictionary kernel
    estimator instead, whose cost increases with every stored sample.
    """
    if T is not None and T <= cfg.estimator.P:
        raise DataError(f"bench horizon T={T} must exceed P={cfg.estimator.P}")
    # the manifest echoes the config bench was given, not the horizon
    gen = cfg.generator if T is None or cfg.generator is None else replace(cfg.generator, T=T)
    _, series = _run_series(replace(cfg, generator=gen), stop=T)
    values = series(range(1))[0]
    if T is not None and T > values.shape[1]:
        raise DataError(f"horizon T={T} exceeds the {values.shape[1]} samples of "
                        f"{cfg.data_csv}")
    if values.shape[1] <= cfg.estimator.P:
        raise DataError(f"{_run_prefix(0)} has {values.shape[1]} samples from t=0; the "
                        f"estimator needs more than {cfg.estimator.P}")
    if cfg.standardize:
        values = _standardize(values)
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
    name = "bench_reference" if reference else "bench"
    path = cfg.out_dir / f"{name}.csv"
    io._write_table(path, ["seconds"], t_idx, np.array(times)[:, None])
    manifest = _write_manifest(cfg, name, {"T": T, "reference": reference})
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
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"{cfg.out_dir}: cannot make the output directory ({e})") from None
    # each cmd_* is looked up in the module's globals, where a tracer patches it
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
