"""File formats: data/prediction/metric CSVs, topology JSONL, checkpoints,
and the binary twin of the estimates CSV.

All numeric text is written with Python's shortest round-trip float
representation, so re-running a recorded experiment reproduces files
byte for byte.  No timestamps are embedded anywhere.

Beside each estimates CSV sits a `.npy` file with the same rows as a
float64 array (`np.save`'s bytes, written as a header and then the rows in
blocks).  `metrics` reads that binary file; the CSV is kept for people and
other tools.

The run files `metrics` scores are read in row blocks of at most
BLOCK_BYTES bytes of float64 cells (at least one row): `estimate_blocks`,
`prediction_blocks` and `data_blocks` hand out one block at a time, from
one file or a run's cut and resumed files in turn; they are the only
readers of the estimates and predictions files.  `read_data_csv`, the
whole-file reader of a `data_csv` input, is built on the same parser.  The
topology JSONL holds one line per record of the generator's
`TopologyTrace`, and `read_topology` reads it back as one, keeping each
distinct state once.  Every reader turns a missing or unreadable file into
a DataError naming it.

`config_dict` and `config_from_dict` are the one config codec: config
files, the config a checkpoint holds and the options a manifest records are
all written and checked by these two functions.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .exceptions import ConfigError, DataError
from .estimator import CoefficientState, EstimatorConfig, OnlineEstimator
from .generator import TimeSeries, TopologyTrace


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


def write_json(path, obj):
    """Write json.dump's text of jsonable(obj), encoded by the C encoder of
    json.dumps.

    A dict with string keys, or a list of lists and dicts, is written member
    by member (recursively), so that the C encoder holds the encoding of
    one leaf value (say, a list of numbers) at a time, where json.dumps of
    the whole object would hold all of it.  A numpy array leaf is made
    jsonable only when it is written.
    """
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(obj))


def _json_pieces(obj):
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        members, opening, closing = obj.items(), "{", "}"
    elif isinstance(obj, list) and obj and all(isinstance(v, (list, dict)) for v in obj):
        members, opening, closing = ((None, v) for v in obj), "[", "]"
    else:
        yield json.dumps(obj, default=jsonable)
        return
    sep = opening
    for key, value in members:
        yield sep if key is None else f"{sep}{json.dumps(key)}: "
        yield from _json_pieces(value)
        sep = ", "
    yield closing


def _write_table(path, columns, t_values, rows):
    """Write the `t,<columns>` CSV all tables share: one row per t, cells in
    shortest round-trip form."""
    with open(path, "w") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        for t, row in zip(t_values, rows):
            fh.write(f"{int(t)}," + ",".join(map(repr, np.asarray(row, dtype=float).tolist()))
                     + "\n")


# The readers of the run files hold at most this many bytes of float64
# cells of one file at a time (at least one row), and the .npy writer
# writes its rows in blocks of this size.
BLOCK_BYTES = 1 << 18


def _block_rows(width: int) -> int:
    """Rows of width float64 cells in one block."""
    return max(1, BLOCK_BYTES // (8 * width))


def _paths(paths) -> list[Path]:
    """One file or a sequence of files, as a list of Paths."""
    return [Path(p) for p in ([paths] if isinstance(paths, (str, os.PathLike)) else paths)]


def _lines(path, what: str):
    """The numbered lines of a text file; a DataError naming the file if it
    is missing, cannot be opened (a directory, say) or is not text."""
    if not Path(path).exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            yield from enumerate(fh, start=1)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: unreadable {what} file ({e})") from None


def _table_blocks(paths, what: str):
    """The `t,<columns>` CSVs at paths, read in turn in row blocks.

    Returns (columns, blocks); every file's header is checked here: it must
    start with `t`, and all must name the same columns.  blocks yields
    (path, line number of the block's first row, integer t values, (rows,
    columns) array); each cell is parsed by float() into compact storage.
    A row of another width, a cell that is not a number, a time that is not
    a nonnegative integer, or a file without rows is a DataError naming the
    file (and the line), as is an unreadable file (see _lines).
    """
    paths = _paths(paths)
    headers = [next(_lines(p, what), (1, ""))[1].strip().split(",") for p in paths]
    for path, header in zip(paths, headers):
        if header[0] != "t" or len(header) < 2:
            raise DataError(f"{path}: expected a {what} header 't,...', got {header!r}")
        if header != headers[0]:
            raise DataError(f"{path}: {what} columns differ from those of {paths[0]}")
    return headers[0][1:], _table_rows(paths, what, len(headers[0]))


def _table_rows(paths, what: str, width: int):
    size = _block_rows(width) * width
    for path in paths:
        cells, first, lineno = array("d"), 2, 1
        for lineno, line in _lines(path, what):
            if lineno == 1:
                continue
            parts = line.strip().split(",")
            if len(parts) != width:
                raise DataError(f"{path}, line {lineno}: row width {len(parts)} != "
                                f"header width {width}")
            try:
                cells.extend(map(float, parts))
            except ValueError:
                raise DataError(f"{path}, line {lineno}: empty or non-numeric cell") from None
            if len(cells) == size:
                yield _table_block(path, first, cells, width)
                cells, first = array("d"), lineno + 1
        if lineno == 1:
            raise DataError(f"{path}: no {what} rows")
        if cells:
            yield _table_block(path, first, cells, width)


def _table_block(path, first: int, cells, width: int):
    block = np.frombuffer(cells, dtype=np.float64).reshape(-1, width)
    return path, first, _time_column(path, block[:, 0]), block[:, 1:]


def _time_column(path, t: np.ndarray) -> np.ndarray:
    """t as integers; a DataError naming the file unless every value is a
    nonnegative integer."""
    if not (np.isfinite(t).all() and np.array_equal(t, np.floor(t)) and (t >= 0).all()):
        raise DataError(f"{path}: time column must hold nonnegative integers")
    return t.astype(int)


def _node_columns(N: int):
    return [f"node_{n + 1}" for n in range(N)]


def write_data_csv(path, values: np.ndarray):
    """Series as `t,node_1,...,node_N`, one row per time index."""
    values = np.asarray(values, dtype=float)
    _write_table(path, _node_columns(values.shape[0]), range(values.shape[1]), values.T)


def data_blocks(path):
    """A data CSV in row blocks: (N, blocks), blocks yielding (N, rows)
    arrays of consecutive samples from t=0 on.

    Every value must be finite and the time column must be 0..T-1; a
    DataError names the file (and the line of a non-finite value).
    """
    columns, blocks = _table_blocks(path, "data")
    return len(columns), _data_rows(blocks)


def _data_rows(blocks):
    T = 0
    for path, first, t, values in blocks:
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise DataError(f"{path}, line {first + int(np.argmin(finite))}: non-finite value")
        if not np.array_equal(t, np.arange(T, T + len(t))):
            raise DataError(f"{path}: time column must be 0..T-1")
        T += len(t)
        yield values.T


def read_data_csv(path) -> np.ndarray:
    """Read a data CSV back into an (N, T) array; every value must be finite."""
    return np.concatenate(list(data_blocks(path)[1]), axis=1)


def write_topology_jsonl(path, ts: TimeSeries):
    """Ground-truth trace as JSON lines (t, coefficient array, active mask),
    one line per record of ts.topology: the first modeled sample and every
    sample whose topology differs from the sample before.  Readers
    forward-fill between lines."""
    topo = ts.topology
    with open(path, "w") as fh:
        for t, s in zip(topo.starts.tolist(), topo.which):
            fh.write(json.dumps({"t": t, "coeffs": topo.coeffs[s].tolist(),
                                 "active": topo.active[s].tolist()}) + "\n")


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


def read_topology(path, with_coeffs: bool = False) -> TopologyTrace:
    """Read a topology JSONL, keeping each distinct state once.

    The coefficients are parsed to check them and kept only with
    with_coeffs; a state is then a (coeffs, active) pair, else an active
    mask.  A line that is not a JSON record with `t`, `coeffs` and
    `active`, records of different shapes, or no records are a DataError
    naming the file (and line).
    """
    starts, which, states = [], [], {}
    shape = None
    for lineno, line in _lines(path, "topology"):
        line = line.strip()
        if not line:
            continue
        t, coeffs, active = _topology_record(path, lineno, line)
        if shape is None:
            shape = coeffs.shape
        elif coeffs.shape != shape:
            raise DataError(f"{path}, line {lineno}: record shape {coeffs.shape} != "
                            f"first record's {shape}")
        key = (coeffs.tobytes() if with_coeffs else b"") + active.tobytes()
        starts.append(t)
        state = (len(states), coeffs if with_coeffs else None, active)
        which.append(states.setdefault(key, state)[0])
    if not starts:
        raise DataError(f"{path}: no topology records")
    starts = np.array(starts)
    order = np.argsort(starts, kind="stable")
    kept = list(states.values())
    return TopologyTrace(starts=starts[order], which=np.array(which)[order],
                         active=np.array([a for _, _, a in kept]),
                         coeffs=np.array([c for _, c, _ in kept]) if with_coeffs else None)


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
    """The rows of write_estimates_csv as a float64 (rows, 1 + N*N*P) array, t first.

    The file at path (no suffix is added) holds np.save's bytes: the
    header, written from the row count, then the rows in blocks.
    """
    _, N, _, P = group_norms.shape
    t_values, rows = _emitted(group_norms, t_start, emit_every)
    width = 1 + N * N * P
    step = _block_rows(width)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
            "fortran_order": False, "shape": (len(t_values), width)})
        for i in range(0, len(t_values), step):
            t = t_values[i:i + step]
            block = np.empty((len(t), width))
            block[:, 0] = t
            block[:, 1:] = rows[i:i + step].reshape(len(t), width - 1)
            fh.write(block.data)


def _npy_rows_at(path: Path, N: int, P: int):
    """(offset of the first row, row count) of an estimates `.npy`, from its
    header alone; a DataError naming the file unless it holds a native
    float64, C-ordered (rows, 1 + N*N*P) array."""
    if not path.exists():
        raise DataError(f"estimates file not found: {path}; re-run estimate to write it")
    fmt = np.lib.format
    try:
        with open(path, "rb") as fh:
            version = fmt.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy format version {version}")
            read_header = fmt.read_array_header_1_0 if version == (1, 0) \
                else fmt.read_array_header_2_0
            shape, fortran_order, dtype = read_header(fh)
            offset = fh.tell()
        if dtype.hasobject:
            raise ValueError("object arrays cannot be loaded")
        held, needed = path.stat().st_size - offset, math.prod(shape) * dtype.itemsize
        if held < needed:
            raise ValueError(f"the header needs {needed} bytes of data, the file holds {held}")
    except (OSError, ValueError, EOFError) as e:
        raise DataError(f"{path}: unreadable estimates array ({e})") from None
    width = 1 + N * N * P
    if dtype != np.float64 or len(shape) != 2 or shape[1] != width:
        raise DataError(f"{path}: expected a float64 (rows, {width}) array for N={N}, P={P}, "
                        f"got {dtype} {shape}")
    if fortran_order:
        raise DataError(f"{path}: a Fortran-ordered estimates array cannot be read in row "
                        f"blocks; re-run estimate")
    return offset, shape[0]


def estimate_blocks(paths, N: int, P: int):
    """The estimates `.npy` files at paths, read in turn in row blocks.

    Every file's header is checked first, before any row is read (see
    _npy_rows_at); one may hold no rows (a resume past the last grid row),
    but not all.  Returns (rows, blocks): the total row count, and a
    generator of (integer t values, (rows, N, N, P) array) blocks whose time
    column is checked one block at a time.
    """
    paths = _paths(paths)
    layout = [_npy_rows_at(p, N, P) for p in paths]
    rows = sum(rows for _, rows in layout)
    if not rows:
        raise DataError(f"{paths[0]}: no estimates rows")
    return rows, _npy_blocks(paths, layout, N, P)


def _npy_blocks(paths, layout, N: int, P: int):
    width = 1 + N * N * P
    step = _block_rows(width)
    for path, (offset, rows) in zip(paths, layout):
        with open(path, "rb") as fh:
            fh.seek(offset)
            for i in range(0, rows, step):
                block = np.empty((min(step, rows - i), width))
                if fh.readinto(memoryview(block).cast("B")) != block.nbytes:
                    raise DataError(f"{path}: unreadable estimates array (it ended early)")
                yield _time_column(path, block[:, 0]), block[:, 1:].reshape(-1, N, N, P)


def write_predictions_csv(path, predictions: np.ndarray, t_start: int):
    """Predictions as `t,node_1,...,node_N` from t_start on."""
    N, T = predictions.shape
    _write_table(path, _node_columns(N), range(t_start, T), predictions[:, t_start:].T)


def prediction_blocks(paths):
    """The predictions CSVs at paths, read in turn in row blocks: (N, blocks),
    blocks yielding (integer t values, (N, rows) array).  Errors as in
    _table_blocks."""
    columns, blocks = _table_blocks(paths, "predictions")
    return len(columns), ((t, values.T) for _, _, t, values in blocks)


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
    write_json(path, obj)


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
    obj = read_json_object(path, "checkpoint")
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


def read_json_object(path, what: str, error=DataError) -> dict:
    """The JSON object in a config file, manifest or checkpoint; an error of
    class error naming the file as what if it is missing, unreadable, not
    JSON text or another JSON value."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: not JSON, or bytes that are not text
        raise error(f"{path}: {what} is not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: {what} must be a JSON object")
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
