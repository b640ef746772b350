"""File formats: data/prediction/metric CSVs, topology JSONL, checkpoints,
and the binary traces beside them.

Every CSV cell is repr's text of its float, the shortest round-trip
text, so re-running a recorded experiment reproduces files byte for byte.
It is written through orjson, which prints the same digits faster, with
repr itself for non-finite cells and cells outside [1e-4, 1e16), where
orjson's notation differs.  JSON files keep the json module's text.  No
timestamps are embedded anywhere.

Beside each estimates CSV sits a `.npy` file with the same rows as a
float64 array, and beside each predictions CSV a residuals `.npy` file with
the prediction errors of the same rows (both `np.save`'s bytes, written as
a header and then the rows in blocks).  `metrics` reads those two binary
traces; the CSVs are kept for people and other tools.

The run files `metrics` scores are read in row blocks of at most
BLOCK_BYTES bytes of float64 cells (at least one row): `estimate_blocks`
and `residual_blocks` hand out one block at a time from a list of files
(a run's one, or its cut and resumed ones), checking each block's time
column and, for estimates, that every cell is a finite, nonnegative group
norm.  `read_data_csv` parses a data CSV whole, since `estimate` and
`bench` hold the whole series anyway, and returns it C-ordered, as
`generate` makes it.  The topology JSONL holds one line per record of the
generator's `TopologyTrace`, and `read_topology` reads back its active
masks, keeping each distinct one once.
`opened` is the one opener of every file read or written: a missing
input, and any file that cannot be read or written, is a DataError (a
ConfigError for a config file or manifest) naming it.

`config_dict` and `config_from_dict` are the one config codec: config
files, the config a checkpoint holds and the options a manifest records are
all written and checked by these two functions.  A field typed as a
dataclass is a section, which both functions read and write through
themselves.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
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
        if obj.dtype.kind == "f":  # one pass: NaN cells become None in an object array
            return np.where(np.isnan(obj), None, obj).tolist()
        return obj.tolist() if obj.dtype.kind in "biu" else jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    return obj


@contextmanager
def opened(path, mode: str, what: str, error=DataError):
    """The file at path opened in mode, the one place the package opens a file.

    A file to be read that is missing is an error of class error, and so is
    any file that cannot be opened, read or written (a directory in its
    place, bytes that are not UTF-8, a full disk); each names the path and,
    as what, the kind of file.
    """
    reading = "r" in mode
    if reading and not Path(path).exists():
        raise error(f"{what} not found: {path}")
    try:
        with open(path, mode) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"{path}: cannot {'read' if reading else 'write'} {what} ({e})") from None


def write_json(path, obj):
    """Write json.dump's text of jsonable(obj), encoded by the C encoder of
    json.dumps.

    A dict with string keys, or a list of lists and dicts, is written member
    by member (recursively), so that the C encoder holds the encoding of
    one leaf value (say, a list of numbers) at a time, where json.dumps of
    the whole object would hold all of it.  A numpy array leaf is made
    jsonable only when it is written.
    """
    with opened(path, "w", "output file") as fh:
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


# A table is formatted this many cells (at least one row) at a time.
TABLE_BLOCK_CELLS = 2048


def _write_table(path, columns, t_values, rows):
    """Write the `t,<columns>` CSV all tables share: one line per t of the
    sequence t_values and row of the (rows, cells) array rows, each cell in
    repr's text.

    A block of cells is printed by one orjson call, which prints repr's
    shortest round-trip digits, but in another notation for nonzero
    |x| < 1e-4, for |x| >= 1e16 and for nan and inf; repr prints those
    cells alone.
    """
    # imported on the first table written, not with the module: the import
    # takes milliseconds that a command writing no table need not pay
    import orjson

    rows = np.asarray(rows, dtype=np.float64)
    step = max(1, TABLE_BLOCK_CELLS // rows.shape[1])
    with opened(path, "w", "output file") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        for i in range(0, len(rows), step):
            block = np.ascontiguousarray(rows[i:i + step])
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
            lines = text[2:-2].split("],[")  # "[[a,b],[c,d]]" -> ["a,b", "c,d"]
            magnitude = np.abs(block)
            by_repr = (block != 0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))
            split = {}
            for r, c, x in zip(*(a.tolist() for a in np.nonzero(by_repr)),
                               block[by_repr].tolist()):
                if r not in split:
                    split[r] = lines[r].split(",")
                split[r][c] = repr(x)
            for r, cells in split.items():
                lines[r] = ",".join(cells)
            fh.write("".join(f"{int(t)},{line}\n" for t, line in zip(t_values[i:i + step], lines)))


# The readers of the run files hold at most this many bytes of float64
# cells of one file at a time (at least one row), and the .npy writer
# writes its rows in blocks of this size.
BLOCK_BYTES = 1 << 18


def _block_rows(width: int) -> int:
    """Rows of width float64 cells in one block."""
    return max(1, BLOCK_BYTES // (8 * width))


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


def read_data_csv(path) -> np.ndarray:
    """Read a data CSV back into a C-ordered (N, T) array, parsing it in one
    pass: each cell by float() into one compact array.

    A header that does not start with `t` and name a column after it, a
    row of another width, a cell that is not a number or not finite, a time
    column other than 0..T-1, or a file without rows is a DataError naming
    the file (and the line).
    """
    with opened(path, "r", "data file") as fh:
        header = fh.readline().strip().split(",")
        width = len(header)
        if header[0] != "t" or width < 2:
            raise DataError(f"{path}: expected a data header 't,...', got {header!r}")
        cells = array("d")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != width:
                raise DataError(f"{path}, line {lineno}: row width {len(parts)} != "
                                f"header width {width}")
            try:
                cells.extend(map(float, parts))
            except ValueError:
                raise DataError(f"{path}, line {lineno}: empty or non-numeric cell") from None
    if not cells:
        raise DataError(f"{path}: no data rows")
    table = np.frombuffer(cells, dtype=np.float64).reshape(-1, width)
    t, values = _time_column(path, table[:, 0]), table[:, 1:]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}, line {2 + int(np.argmin(finite))}: non-finite value")
    if not np.array_equal(t, np.arange(len(t))):
        raise DataError(f"{path}: time column must be 0..T-1")
    return np.ascontiguousarray(values.T)


def write_topology_jsonl(path, ts: TimeSeries):
    """Ground-truth trace as JSON lines (t, coefficient array, active mask),
    one line per record of ts.topology: the first modeled sample and every
    sample whose topology differs from the sample before.  Readers
    forward-fill between lines."""
    topo = ts.topology
    with opened(path, "w", "output file") as fh:
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


def read_topology(path) -> TopologyTrace:
    """Read a topology JSONL as its active masks, keeping each distinct mask
    once.

    The coefficients are parsed only to check them.  A line that is not a
    JSON record with `t`, `coeffs` and `active`, records of different
    shapes, or no records are a DataError naming the file (and line).
    """
    starts, which, states = [], [], {}
    shape = None
    with opened(path, "r", "topology file") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            t, coeffs, active = _topology_record(path, lineno, line)
            if shape is None:
                shape = coeffs.shape
            elif coeffs.shape != shape:
                raise DataError(f"{path}, line {lineno}: record shape {coeffs.shape} != "
                                f"first record's {shape}")
            starts.append(t)
            which.append(states.setdefault(active.tobytes(), (len(states), active))[0])
    if not starts:
        raise DataError(f"{path}: no topology records")
    starts = np.array(starts)
    order = np.argsort(starts, kind="stable")
    return TopologyTrace(starts=starts[order], which=np.array(which)[order],
                         active=np.array([a for _, a in states.values()]))


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
    _write_table(path, estimate_column_names(N, P), t_values,
                 rows.reshape(len(t_values), N * N * P))


def write_estimates_npy(path, group_norms: np.ndarray, t_start: int, emit_every: int = 1):
    """The rows of write_estimates_csv as a float64 (rows, 1 + N*N*P) array, t first."""
    _write_npy_rows(path, *_emitted(group_norms, t_start, emit_every))


def write_residuals_npy(path, values: np.ndarray, predictions: np.ndarray, t_start: int):
    """The prediction errors values - predictions of an (N, T) series from
    t_start on, as a float64 (rows, 1 + N) array, t first: the rows of the
    predictions CSV."""
    T = values.shape[1]
    _write_npy_rows(path, range(t_start, T), (values[:, t_start:] - predictions[:, t_start:]).T)


def _write_npy_rows(path, t_values: range, rows: np.ndarray):
    """Write a float64 (len(t_values), 1 + cells) array: t, then each of rows
    flattened, rows being an array over its first axis.

    The file at path (no suffix is added) holds np.save's bytes: the
    header, written from the row count, then the rows in blocks.
    """
    width = 1 + math.prod(rows.shape[1:])
    step = _block_rows(width)
    with opened(path, "wb", "output file") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
            "fortran_order": False, "shape": (len(t_values), width)})
        for i in range(0, len(t_values), step):
            t = t_values[i:i + step]
            block = np.empty((len(t), width))
            block[:, 0] = t
            block[:, 1:] = rows[i:i + step].reshape(len(t), width - 1)
            fh.write(block.data)


def _npy_rows_at(path: Path, what: str, width: int, fits: str, hint: str):
    """(offset of the first row, row count) of a `.npy` trace, from its
    header alone; a DataError naming the file unless it holds a native
    float64, C-ordered (rows, width) array.  fits names the shape the width
    comes from, and hint ends the message of a file that is there but bad."""
    if not path.is_file():
        raise DataError(f"no {what} file at {path}; re-run estimate to write it")
    fmt = np.lib.format
    with opened(path, "rb", f"{what} array") as fh:
        try:
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
        except (ValueError, EOFError) as e:
            raise DataError(f"{path}: unreadable {what} array ({e}){hint}") from None
    if dtype != np.float64 or len(shape) != 2 or shape[1] != width:
        raise DataError(f"{path}: expected a float64 (rows, {width}) array for {fits}, "
                        f"got {dtype} {shape}{hint}")
    if fortran_order:
        raise DataError(f"{path}: a Fortran-ordered {what} array cannot be read in row "
                        f"blocks; re-run estimate")
    return offset, shape[0]


def _npy_trace(paths, what: str, width: int, fits: str, hint: str = "", norms: bool = False):
    """The `.npy` traces in the list paths, read in turn in row blocks.

    Every file's header is checked first, before any row is read (see
    _npy_rows_at); one may hold no rows (a resume past the last grid row),
    but not all.  Returns a generator of (integer t values, (rows,
    width - 1) array) blocks whose time column, and with norms=True cells
    (see _norm_cells), are checked one block at a time.
    """
    paths = [Path(p) for p in paths]
    layout = [_npy_rows_at(p, what, width, fits, hint) for p in paths]
    if not any(rows for _, rows in layout):
        raise DataError(f"{paths[0]}: no {what} rows{hint}")
    return _npy_blocks(paths, layout, what, width, hint, norms)


def _norm_cells(path, t: np.ndarray, cells: np.ndarray):
    """A DataError naming the file and the first bad row's t unless every
    cell is a finite, nonnegative group norm (NaN fails both tests)."""
    if cells.min() >= 0.0 and cells.max() < np.inf:
        return
    bad = ~((cells >= 0.0) & (cells < np.inf))
    row, col = np.unravel_index(np.argmax(bad), bad.shape)
    raise DataError(f"{path}: the row at t={t[row]} holds {cells[row, col]}, not a finite, "
                    f"nonnegative group norm")


def _npy_blocks(paths, layout, what: str, width: int, hint: str, norms: bool):
    step = _block_rows(width)
    for path, (offset, rows) in zip(paths, layout):
        with opened(path, "rb", f"{what} array") as fh:
            fh.seek(offset)
            for i in range(0, rows, step):
                block = np.empty((min(step, rows - i), width))
                if fh.readinto(memoryview(block).cast("B")) != block.nbytes:
                    raise DataError(f"{path}: unreadable {what} array (it ended early){hint}")
                t, cells = _time_column(path, block[:, 0]), block[:, 1:]
                if norms:
                    _norm_cells(path, t, cells)
                yield t, cells


def estimate_blocks(paths, N: int, P: int):
    """The estimates `.npy` files in the list paths in row blocks, as
    _npy_trace reads them: blocks of (t values, (rows, N, N, P) array), each
    cell a finite, nonnegative group norm."""
    blocks = _npy_trace(paths, "estimates", 1 + N * N * P, f"N={N}, P={P}", norms=True)
    return ((t, cells.reshape(-1, N, N, P)) for t, cells in blocks)


def residual_blocks(paths, N: int):
    """The residuals `.npy` files in the list paths in row blocks, as
    _npy_trace reads them: blocks of (t values, (N, rows) errors).

    A residuals file written before this trace existed is missing, so every
    message about one says to re-run estimate.
    """
    blocks = _npy_trace(paths, "residuals", 1 + N, f"N={N}",
                        hint="; re-run estimate to write it")
    return ((t, cells.T) for t, cells in blocks)


def write_predictions_csv(path, predictions: np.ndarray, t_start: int):
    """Predictions as `t,node_1,...,node_N` from t_start on."""
    N, T = predictions.shape
    _write_table(path, _node_columns(N), range(t_start, T), predictions[:, t_start:].T)


def write_metric_csv(path, t_values, values):
    """Metric curve as `t,value`; undefined entries are written as nan."""
    values = np.asarray(values, dtype=float)
    _write_table(path, ["value"], t_values, np.where(np.isfinite(values), values, np.nan)[:, None])


def write_checkpoint(path, estimator: OnlineEstimator, extra: dict | None = None):
    """JSON snapshot sufficient to resume the run bit-exactly; a ValueError,
    before the file is opened, unless alpha has the (N, P, N, 2D) shape
    read_checkpoint restores."""
    cfg = estimator.cfg
    shape = (cfg.N, cfg.P, cfg.N, 2 * cfg.D)
    if estimator.state.alpha.shape != shape:
        raise ValueError(f"alpha has shape {estimator.state.alpha.shape}, but a checkpoint "
                         f"holds shape {shape} for its config")
    obj = {
        "config": config_dict(cfg),
        "t": int(estimator.state.t),
        "alpha": estimator.state.alpha.tolist(),
        "history": None if estimator.history is None else estimator.history.tolist(),
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


def read_checkpoint(path):
    """(estimator, extra): the estimator a checkpoint saved, restored after
    checking its arrays, and the checkpoint's `extra` object ({} when
    absent).

    alpha must be a finite (N, P, N, 2D) array and history, when present,
    a finite (P, N) one, for the (N, P, D) of the checkpoint's config.  The
    warm-up count is restored as saved; checkpoints written without it
    count as warmed up whenever they hold a history.  A state that has
    updated (t > 0) must have finished its warm-up, as every run's has.
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
    if t > 0 and not est.warmed_up:
        raise DataError(f"{path}: t is {t} but the warm-up count is {est.warm}: a state "
                        f"updates only after its P={cfg.P} warm-up samples")
    extra = obj.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: checkpoint extra must be a JSON object")
    return est, extra


def read_json_object(path, what: str, error=DataError) -> dict:
    """The JSON object in a config file, manifest or checkpoint; an error of
    class error naming the file as what if it is missing, unreadable, not
    JSON text or another JSON value."""
    with opened(path, "r", what, error) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
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
    declaration order under their file names, a section as its JSON form."""
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj) if f.name not in skip)
    return {_FILE_NAMES.get(name, name): config_dict(value) if is_dataclass(value) else value
            for name, value in values}


def config_from_dict(cls, d, section: str):
    """Dataclass cls built from its JSON form d; a ConfigError naming section
    unless d is a JSON object of cls's file names whose values fit its fields.

    An int field takes an integer that is not a bool, and a seed a
    nonnegative one; a float field takes any number but a bool; a bool
    field takes only true or false; a str field takes a string; a field
    typed as a dataclass is a section, read by this function as the
    "<key> section"; an optional field also takes null.  Absent fields keep
    their defaults, and a TypeError or ValueError from cls itself (a
    missing required field, a value out of range) is a ConfigError too.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a JSON object, got {d!r}")
    names = {_FILE_NAMES.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = set(d) - set(names)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    hints, values = get_type_hints(cls), dict(d)
    for key, value in d.items():
        kind = hints[names[key]]
        optional = [a for a in get_args(kind) if a is not type(None)]
        if optional:  # X | None
            if value is None:
                continue
            kind = optional[0]
        if is_dataclass(kind):
            values[key] = config_from_dict(kind, value, f"{key} section")
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
        return cls(**{names[key]: value for key, value in values.items()})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section}: {e}") from None
