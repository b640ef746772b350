"""File formats: data/prediction/metric CSVs, topology JSONL, checkpoints,
and the binary twin of the estimates CSV.

All numeric text is written with Python's shortest round-trip float
representation, so re-running a recorded experiment reproduces files
byte for byte.  No timestamps are embedded anywhere.

Beside each estimates CSV sits a `.npy` file with the same rows as a
float64 array (`np.save`, exact and deterministic).  `metrics` reads that
binary file; the CSV is kept for people and other tools.

`config_dict` and `config_from_dict` are the one config codec: config
files, the config a checkpoint holds and the options a manifest records are
all written and checked by these two functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .exceptions import ConfigError, DataError
from .estimator import CoefficientState, EstimatorConfig, OnlineEstimator
from .generator import TimeSeries


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dump; NaN becomes None."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    return obj


def _write_table(path, columns, t_values, rows):
    """Write the `t,<columns>` CSV all tables share: one row per t, cells in
    shortest round-trip form."""
    with open(path, "w") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        for t, row in zip(t_values, rows):
            fh.write(f"{int(t)}," + ",".join(map(repr, np.asarray(row, dtype=float).tolist()))
                     + "\n")


def _read_table(path, what: str):
    """Read a `t,<columns>` CSV into (columns, integer t values, (rows, width) array).

    A missing file, a header that does not start with `t`, a row of another
    width, a cell that is not a number, a fractional or non-finite time, or
    no rows at all is a DataError naming the file (and the line).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t" or len(header) < 2:
            raise DataError(f"{path}: expected a {what} header 't,...', got {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise DataError(f"{path}, line {lineno}: row width {len(parts)} != "
                                f"header width {len(header)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise DataError(f"{path}, line {lineno}: empty or non-numeric cell") from None
    if not rows:
        raise DataError(f"{path}: no {what} rows")
    arr = np.array(rows)
    return header[1:], _time_column(path, arr[:, 0]), arr[:, 1:]


def _time_column(path, t: np.ndarray) -> np.ndarray:
    """t as integers; a DataError naming the file unless every value is one."""
    if not (np.isfinite(t).all() and np.array_equal(t, np.floor(t))):
        raise DataError(f"{path}: time column must hold integers")
    return t.astype(int)


def _node_columns(N: int):
    return [f"node_{n + 1}" for n in range(N)]


def write_data_csv(path, values: np.ndarray):
    """Series as `t,node_1,...,node_N`, one row per time index."""
    values = np.asarray(values, dtype=float)
    _write_table(path, _node_columns(values.shape[0]), range(values.shape[1]), values.T)


def read_data_csv(path) -> np.ndarray:
    """Read a data CSV back into an (N, T) array; every value must be finite."""
    _, t, arr = _read_table(path, "data")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}, line {int(np.argmin(finite)) + 2}: non-finite value")
    if not np.array_equal(t, np.arange(len(t))):
        raise DataError(f"{path}: time column must be 0..T-1")
    return arr.T.copy()


def write_topology_jsonl(path, ts: TimeSeries):
    """Ground-truth trace as JSON lines (t, coefficient array, active mask).

    A line is emitted at the first modeled sample and whenever the
    topology differs from the previously written one; readers
    forward-fill between lines.
    """
    P = ts.config.P
    with open(path, "w") as fh:
        prev = None
        for t in range(P, ts.values.shape[1]):
            snap = (ts.coeffs[t], ts.active[t])
            if prev is not None and np.array_equal(prev[0], snap[0]) and np.array_equal(prev[1], snap[1]):
                continue
            fh.write(json.dumps({"t": t, "coeffs": snap[0].tolist(),
                                 "active": snap[1].tolist()}) + "\n")
            prev = snap


def _topology_record(path, lineno: int, line: str):
    """(t, coeffs, active) of one topology line; a DataError naming the line
    unless it is a JSON object with an integer t and two arrays of one shape."""
    where = f"{path}, line {lineno}"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"{where}: not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{where}: a topology record must be a JSON object")
    missing = [k for k in ("t", "coeffs", "active") if k not in obj]
    if missing:
        raise DataError(f"{where}: topology record lacks {missing}")
    t = obj["t"]
    if not is_integer(t) or t < 0:
        raise DataError(f"{where}: t must be a nonnegative integer, got {t!r}")
    try:
        coeffs = np.array(obj["coeffs"], dtype=float)
        active = np.array(obj["active"], dtype=bool)
    except (TypeError, ValueError):  # ragged or non-numeric JSON
        raise DataError(f"{where}: coeffs and active must be numeric arrays") from None
    if coeffs.shape != active.shape:
        raise DataError(f"{where}: coeffs shape {coeffs.shape} != active shape {active.shape}")
    return t, coeffs, active


def read_topology_jsonl(path, T: int):
    """Forward-fill a topology JSONL into (T, N, N, P) coeff and active arrays.

    Rows before the first recorded t repeat the first record.  A line that
    is not a JSON record with `t`, `coeffs` and `active`, or records of
    different shapes, is a DataError naming the file and line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"topology file not found: {path}")
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                records.append(_topology_record(path, lineno, line))
                if records[-1][1].shape != records[0][1].shape:
                    raise DataError(f"{path}, line {lineno}: record shape "
                                    f"{records[-1][1].shape} != first record's "
                                    f"{records[0][1].shape}")
    if not records:
        raise DataError(f"{path}: no topology records")
    records.sort(key=lambda r: r[0])
    shape = records[0][1].shape
    coeffs = np.zeros((T,) + shape)
    active = np.zeros((T,) + shape, dtype=bool)
    coeffs[: records[0][0] + 1] = records[0][1]
    active[: records[0][0] + 1] = records[0][2]
    for (t0, c, a), nxt in zip(records, records[1:] + [(T, None, None)]):
        if t0 >= T:
            break
        coeffs[t0 : min(nxt[0], T)] = c
        active[t0 : min(nxt[0], T)] = a
    return coeffs, active


def estimate_column_names(N: int, P: int):
    """Flattened pseudo-adjacency header, lexicographic in (n, n', p), 1-based."""
    return [f"b_{n + 1}_{m + 1}_{p + 1}" for n in range(N) for m in range(N) for p in range(P)]


def _emitted(group_norms: np.ndarray, t_start: int, emit_every: int):
    """The rows of a (T, N, N, P) trace that an estimates file holds: their
    time indices range(t_start, T, emit_every), and a (rows, N, N, P) view."""
    return (range(t_start, group_norms.shape[0], emit_every),
            group_norms[t_start::emit_every])


def write_estimates_csv(path, group_norms: np.ndarray, t_start: int, emit_every: int = 1):
    """Pseudo-adjacency trace, one row per (thinned) time index from t_start on."""
    _, N, _, P = group_norms.shape
    t_values, rows = _emitted(group_norms, t_start, emit_every)
    _write_table(path, estimate_column_names(N, P), t_values, (row.ravel() for row in rows))


def write_estimates_npy(path, group_norms: np.ndarray, t_start: int, emit_every: int = 1):
    """The rows of write_estimates_csv as a float64 (rows, 1 + N*N*P) array, t first."""
    _, N, _, P = group_norms.shape
    t_values, rows = _emitted(group_norms, t_start, emit_every)
    table = np.empty((len(t_values), 1 + N * N * P))
    table[:, 0] = t_values
    table[:, 1:] = rows.reshape(len(t_values), N * N * P)
    np.save(path, table, allow_pickle=False)


def read_estimates_npy(path, N: int, P: int):
    """Read an estimates `.npy` into (t_values, (rows, N, N, P) array).

    A missing or unreadable file, an array that is not float64 (rows,
    1 + N*N*P), no rows, or a time column that does not hold integers is a
    DataError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"estimates file not found: {path}; re-run estimate to write it")
    try:
        table = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as e:
        raise DataError(f"{path}: unreadable estimates array ({e})") from None
    width = 1 + N * N * P
    if table.dtype != np.float64 or table.ndim != 2 or table.shape[1] != width:
        raise DataError(f"{path}: expected a float64 (rows, {width}) array for N={N}, P={P}, "
                        f"got {table.dtype} {table.shape}")
    if not len(table):
        raise DataError(f"{path}: no estimates rows")
    return _time_column(path, table[:, 0]), table[:, 1:].reshape(len(table), N, N, P)


def read_estimates_csv(path):
    """Read an estimates CSV into (t_values, (rows, N, N, P) array)."""
    columns, t, arr = _read_table(path, "estimates")
    # infer (N, P) from the trailing column name b_N_N_P
    last = columns[-1].split("_")
    if len(last) != 4 or last[0] != "b" or not (last[1].isdigit() and last[3].isdigit()):
        raise DataError(f"{path}: malformed estimates header column {columns[-1]!r}")
    N, P = int(last[1]), int(last[3])
    if columns != estimate_column_names(N, P):
        raise DataError(f"{path}: estimate columns are not in lexicographic (n, n', p) order")
    return t, arr.reshape(len(t), N, N, P)


def write_predictions_csv(path, predictions: np.ndarray, t_start: int):
    """Predictions as `t,node_1,...,node_N` from t_start on."""
    N, T = predictions.shape
    _write_table(path, _node_columns(N), range(t_start, T), predictions[:, t_start:].T)


def read_predictions_csv(path):
    """Read predictions back into (t_values, (N, rows) array)."""
    _, t, arr = _read_table(path, "predictions")
    return t, arr.T


def write_metric_csv(path, t_values, values):
    """Metric curve as `t,value`; undefined entries are written as nan."""
    values = np.asarray(values, dtype=float)
    _write_table(path, ["value"], t_values, np.where(np.isfinite(values), values, np.nan)[:, None])


def write_checkpoint(path, estimator: OnlineEstimator, extra: dict | None = None):
    """JSON snapshot sufficient to resume the run bit-exactly."""
    cfg = estimator.cfg
    obj = {
        "config": config_dict(cfg),
        "t": int(estimator.state.t),
        "alpha": estimator.state.alpha.tolist(),
        "history": None if estimator.history is None else estimator.history.tolist(),
        "warmed_up": bool(estimator.warmed_up),
        "warm": int(estimator.warm),
    }
    if extra:
        obj["extra"] = jsonable(extra)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def finite_array(path, value, name: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric JSON
        arr = None
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        raise DataError(f"{path}: {name} must be a finite array of shape {shape}")
    return arr


def read_checkpoint(path, with_extra: bool = False):
    """Restore the estimator a checkpoint saved, after checking its arrays.

    alpha must be a finite (N, P, N, 2D) array and history, when present,
    a finite (P, N) one, for the (N, P, D) of the checkpoint's config.  The
    warm-up count is restored as saved; checkpoints written without it
    count as warmed up whenever they hold a history.  With with_extra=True
    returns (estimator, extra), extra being the checkpoint's `extra`
    object ({} when absent), from the same single parse of the file.
    """
    obj = _read_checkpoint_json(path)
    missing = [k for k in ("config", "alpha", "t") if k not in obj]
    if missing:
        raise DataError(f"{path}: checkpoint lacks {missing}")
    try:
        cfg = config_from_dict(EstimatorConfig, obj["config"], "checkpoint config")
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None
    t = obj["t"]
    if not is_integer(t) or t < 0:
        raise DataError(f"{path}: iteration counter t must be a nonnegative integer, got {t!r}")
    alpha = finite_array(path, obj["alpha"], "alpha", (cfg.N, cfg.P, cfg.N, 2 * cfg.D))
    history = obj.get("history")
    if history is not None:
        history = finite_array(path, history, "history", (cfg.P, cfg.N))
    warm = obj.get("warm")
    if warm is not None and not (is_integer(warm) and 0 <= warm <= cfg.P
                                 and (warm == 0) == (history is None)):
        raise DataError(f"{path}: warm-up count {warm!r} does not fit P={cfg.P} "
                        f"and the saved history")
    state = CoefficientState(alpha=alpha, t=t)
    est = OnlineEstimator(cfg, state=state, history=history, warm=warm)
    if not with_extra:
        return est
    extra = obj.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: checkpoint extra must be a JSON object")
    return est, extra


def _read_checkpoint_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: checkpoint is not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: checkpoint must be a JSON object")
    return obj


# The JSON form of the config dataclasses, for config files, checkpoints and
# replayed options alike: each field under its name, or the name this table
# gives it, in declaration order.
_FILE_NAMES = {"lam": "lambda"}


def is_integer(value) -> bool:
    """Whether a JSON value is an integer; true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def config_dict(obj, skip=()) -> dict:
    """The JSON form of dataclass obj: its fields but those in skip, in
    declaration order under their file names."""
    return {_FILE_NAMES.get(f.name, f.name): getattr(obj, f.name)
            for f in fields(obj) if f.name not in skip}


def config_from_dict(cls, d, section: str):
    """Dataclass cls built from its JSON form d; a ConfigError naming section
    unless d is a JSON object of cls's file names whose values fit its fields.

    An int field takes an integer that is not a bool, and a seed a
    nonnegative one; a float field takes any number but a bool; a bool
    field takes only true or false; a str field takes a string; an optional
    field also takes null.  Absent fields keep their defaults, and
    a TypeError or ValueError from cls itself (a missing required field, a
    value out of range) is a ConfigError too.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a JSON object, got {d!r}")
    names = {_FILE_NAMES.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = set(d) - set(names)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    hints = get_type_hints(cls)
    for key, value in d.items():
        kind = hints[names[key]]
        optional = [a for a in get_args(kind) if a is not type(None)]
        if optional:  # X | None
            if value is None:
                continue
            kind = optional[0]
        if kind is int and not is_integer(value):
            raise ConfigError(f"{section}: {key} must be an integer, got {value!r}")
        if kind is int and key.endswith("seed") and value < 0:
            raise ConfigError(f"{section}: {key} must be nonnegative, got {value}")
        if kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"{section}: {key} must be a number, got {value!r}")
        if kind is bool and not isinstance(value, bool):
            raise ConfigError(f"{section}: {key} must be true or false, got {value!r}")
        if kind is str and not isinstance(value, str):
            raise ConfigError(f"{section}: {key} must be a string, got {value!r}")
    try:
        return cls(**{names[key]: value for key, value in d.items()})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section}: {e}") from None
