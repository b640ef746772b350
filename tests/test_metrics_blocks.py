"""metrics reads each run's files in row blocks and accumulates its curves.

Block reading must not change a byte of the outputs: the accumulators equal
the whole-array formulas bit for bit, the topology looked up at a block's
rows equals the dense forward fill, the data CSV parser gives the values
and the errors of a cell-by-cell parse, the `.npy` readers give the whole
file's rows and name a bad row in any block of any file whatever the block
size, and the memory of one run does not grow with its length.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import DataError, DetectionConfig, EstimatorConfig, OnlineEstimator, io
from rffgraph.cli import main as cli_main
from rffgraph.metrics import DetectionCounts, ErrorSums, normalize_series

from whole_files import estimates, scaled_as_checkpointed

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
PRODUCTS = ("pmd.csv", "pfa.csv", "mse.csv", "report.json")


# --- the whole-array formulas the accumulators replace ------------------------

def _whole_pmd_pfa(runs, cfg):
    T = len(runs[0][0])
    md_num, md_den, fa_num, fa_den = (np.zeros(T) for _ in range(4))
    for est, truth in runs:
        b = normalize_series(est)
        scope = np.ones(est.shape[1:], dtype=bool)
        if cfg.exclude_self_loops:
            scope &= ~np.eye(est.shape[1], dtype=bool)[:, :, None]
        flat = lambda x: x.reshape(T, -1).sum(axis=1)
        md_num += flat((b < cfg.delta) & truth & scope)
        md_den += flat(truth & scope)
        fa_num += flat((b > cfg.delta) & ~truth & scope)
        fa_den += flat(~truth & scope)
    return (np.divide(md_num, md_den, out=np.full(T, np.nan), where=md_den > 0),
            np.divide(fa_num, fa_den, out=np.full(T, np.nan), where=fa_den > 0))


def _nan_mean(rows):
    valid = np.isfinite(rows)
    sums = np.where(valid, rows, 0.0).sum(axis=0)
    counts = valid.sum(axis=0)
    return np.divide(sums, counts, out=np.full(rows.shape[1], np.nan), where=counts > 0)


def _whole_mse(runs, window=None):
    T = runs[0][0].shape[-1]
    per_t = _nan_mean(np.stack([((y - h) ** 2).reshape(-1, T) for y, h in runs]).reshape(-1, T))
    if window is None:
        return per_t
    window = min(window, T)
    valid = np.isfinite(per_t)
    sums, counts = np.cumsum(np.where(valid, per_t, 0.0)), np.cumsum(valid)
    out = np.full(T, np.nan)
    out[: window - 1] = np.divide(sums[: window - 1], counts[: window - 1],
                                  out=np.full(window - 1, np.nan), where=counts[: window - 1] > 0)
    wc = counts[window - 1:] - np.concatenate([[0], counts[:-window]])
    out[window - 1:] = np.divide(sums[window - 1:] - np.concatenate([[0.0], sums[:-window]]), wc,
                                 out=np.full(T - window + 1, np.nan), where=wc > 0)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _splits(draw_points, T):
    """Row blocks [a, b) covering 0..T-1, cut at the drawn points."""
    cuts = sorted({c % T for c in draw_points} - {0})
    return list(zip([0] + cuts, cuts + [T]))


@SETTINGS
@given(runs=st.integers(1, 4), N=st.integers(1, 5), T=st.integers(1, 40),
       points=st.lists(st.integers(0, 1000), max_size=6), seed=st.integers(0, 2**32 - 1),
       nan_share=st.sampled_from([0.0, 0.2, 0.7]))
def test_error_sums_equal_the_stacked_nan_mean(runs, N, T, points, seed, nan_share):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(runs):
        y = rng.standard_normal((N, T)) * 10.0 ** rng.integers(-8, 8, (N, 1))
        h = rng.standard_normal((N, T))
        h[rng.random((N, T)) < nan_share] = np.nan
        h[:, rng.integers(0, T)] = np.nan  # an all-NaN column in every run
        pairs.append((y, h))
    errors, whole = ErrorSums(), ErrorSums()
    for y, h in pairs:
        for a, b in _splits(points, T):
            errors.add(y[:, a:b] - h[:, a:b], at=a)
        whole.add(y - h)
    assert _same_bits(errors.curve(), _whole_mse(pairs))
    assert _same_bits(whole.curve(), _whole_mse(pairs))
    window = int(rng.integers(1, T + 3))
    first = ErrorSums()
    first.add(pairs[0][0] - pairs[0][1])
    assert _same_bits(first.curve(window), _whole_mse(pairs[:1], window))


@SETTINGS
@given(runs=st.integers(1, 4), N=st.integers(1, 4), P=st.integers(1, 2), T=st.integers(1, 30),
       points=st.lists(st.integers(0, 1000), max_size=6), seed=st.integers(0, 2**32 - 1),
       exclude=st.booleans())
def test_detection_counts_equal_the_whole_array_formula(runs, N, P, T, points, seed, exclude):
    rng = np.random.default_rng(seed)
    cfg = DetectionConfig(delta=0.3, exclude_self_loops=exclude)
    pairs = []
    for _ in range(runs):
        est = rng.random((T, N, N, P))
        est[rng.random(T) < 0.2] = 0.0  # all-zero slices stay zero
        pairs.append((est, rng.random((T, N, N, P)) < 0.4))
    counts, whole = DetectionCounts(cfg), DetectionCounts(cfg)
    for est, truth in pairs:
        for a, b in _splits(points, T):
            counts.add(est[a:b], truth[a:b], at=a)
        whole.add(est, truth)
    expected = _whole_pmd_pfa(pairs, cfg)
    for got in (counts.curves(), whole.curves()):
        assert all(_same_bits(g, e) for g, e in zip(got, expected))


@SETTINGS
@given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=4), N=st.integers(1, 4),
       P=st.integers(1, 2), points=st.lists(st.integers(0, 1000), max_size=6),
       seed=st.integers(0, 2**32 - 1), exclude=st.booleans())
def test_runs_of_different_lengths_count_only_where_they_reach(lengths, N, P, points, seed,
                                                               exclude):
    # at each t the curves pool only the runs whose length exceeds t: an
    # undefined rate (no slot of its kind in those runs) and an MSE of
    # nothing counted are NaN
    rng = np.random.default_rng(seed)
    cfg = DetectionConfig(delta=0.3, exclude_self_loops=exclude)
    det, err = [], []
    for T in lengths:
        est = rng.random((T, N, N, P))
        est[rng.random(T) < 0.2] = 0.0
        det.append((est, rng.random((T, N, N, P)) < rng.choice([0.0, 0.4, 1.0])))
        h = rng.standard_normal((N, T))
        h[rng.random((N, T)) < 0.3] = np.nan
        err.append((rng.standard_normal((N, T)), h))
    counts, errors = DetectionCounts(cfg), ErrorSums()
    for (est, truth), (y, h) in zip(det, err):
        for a, b in _splits(points, len(est)):
            counts.add(est[a:b], truth[a:b], at=a)
            errors.add(y[:, a:b] - h[:, a:b], at=a)
    end = max(lengths)
    # P_MD and P_FA at t of the runs that reach t alone
    per_t = [_whole_pmd_pfa([(e[t:t + 1], tr[t:t + 1]) for e, tr in det if len(e) > t], cfg)
             for t in range(end)]
    expected = tuple(np.concatenate([rates[k] for rates in per_t]) for k in (0, 1))
    assert all(_same_bits(g, e) for g, e in zip(counts.curves(), expected))
    # a run's errors past its end count as NaN ones, which are not counted
    padded = [(np.pad(y, ((0, 0), (0, end - y.shape[1]))),
               np.pad(h, ((0, 0), (0, end - h.shape[1])), constant_values=np.nan))
              for y, h in err]
    assert _same_bits(errors.curve(), _whole_mse(padded))


# --- topology looked up at a block's rows -------------------------------------

def _dense_fill(records, T):
    """The forward fill of a topology file's records into (T, ...) arrays."""
    records = sorted(records, key=lambda r: r[0])
    coeffs = np.zeros((T,) + np.shape(records[0][1]))
    active = np.zeros((T,) + np.shape(records[0][1]), dtype=bool)
    coeffs[: records[0][0] + 1] = records[0][1]
    active[: records[0][0] + 1] = records[0][2]
    for (t0, c, a), nxt in zip(records, records[1:] + [(T, None, None)]):
        if t0 >= T:
            break
        coeffs[t0: min(nxt[0], T)] = c
        active[t0: min(nxt[0], T)] = a
    return coeffs, active


@SETTINGS
@given(starts=st.lists(st.integers(0, 30), min_size=1, max_size=8),
       T=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_topology_at_rows_equals_the_dense_forward_fill(tmp_path_factory, starts, T, seed):
    # lines in any order, equal t allowed, the first record at any t
    rng = np.random.default_rng(seed)
    records = [(t, rng.standard_normal((2, 2, 1)).round(1), rng.random((2, 2, 1)) < 0.5)
               for t in starts]
    records.append(records[int(rng.integers(len(records)))])  # a repeated state
    path = tmp_path_factory.mktemp("topo") / "topology.jsonl"
    path.write_text("".join(json.dumps({"t": t, "coeffs": c.tolist(), "active": a.tolist()})
                            + "\n" for t, c, a in records))
    _, active = _dense_fill(records, T)
    rows = np.sort(rng.integers(0, T, size=int(rng.integers(1, 2 * T + 1))))
    assert np.array_equal(io.read_topology(path).active_at(rows), active[rows])
    assert _same_bits(io.read_topology(path).active_at(np.arange(T)), active)


def test_a_drifting_topology_keeps_one_mask(tmp_path):
    path = tmp_path / "topology.jsonl"
    active = [[[True], [False]], [[False], [True]]]
    path.write_text("".join(json.dumps({"t": t, "coeffs": [[[t * 0.1], [0.0]], [[0.0], [1.0]]],
                                        "active": active}) + "\n" for t in range(2, 500)))
    assert len(io.read_topology(path).active) == 1


# --- the data CSV parser, and the .npy readers under any block size ------------

def _whole_parse(path, width):
    """Values of a well-formed `t,...` CSV, each cell through float()."""
    lines = Path(path).read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines]).reshape(-1, width)


@pytest.mark.parametrize("block_bytes", [1, 8 * 3 * 7, 1 << 40], ids=["1 row", "7 rows", "all"])
def test_block_parsers_give_the_whole_file_values(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(io, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, 40)) * 10.0 ** rng.integers(-300, 300, (2, 40))
    io.write_data_csv(tmp_path / "d.csv", values)
    parsed = _whole_parse(tmp_path / "d.csv", 3)
    assert _same_bits(io.read_data_csv(tmp_path / "d.csv"), np.ascontiguousarray(parsed[:, 1:].T))
    # a run's traces as a sequence: the second file's rows follow the first's,
    # in blocks of at most the budget's rows
    preds = np.where(values > 0, values, np.nan)
    io.write_residuals_npy(tmp_path / "r.npy", values, preds, t_start=3)
    blocks = io.residual_blocks([tmp_path / "r.npy", tmp_path / "r.npy"], 2)
    t, err = zip(*blocks)
    assert np.array_equal(np.concatenate(t), np.tile(np.arange(3, 40), 2))
    assert _same_bits(np.concatenate(err, axis=1), np.tile(values[:, 3:] - preds[:, 3:], 2))
    assert max(map(len, t)) == min(max(1, block_bytes // (8 * 3)), 37)


# defect -> (line index to damage, replacement row, message); the data has
# a header and rows t = 0..29, so line k + 2 holds t = k
TABLE_DEFECTS = {
    "ragged": (17, "17,1.0", "line 19: row width 2 != header width 3"),
    "empty cell": (23, "23,,1.0", "line 25: empty or non-numeric cell"),
    "non-numeric": (0, "0,x,1.0", "line 2: empty or non-numeric cell"),
    "nan cell": (29, "29,1.0,nan", "line 31: non-finite value"),
    "inf cell": (8, "8,inf,1.0", "line 10: non-finite value"),
    "fractional t": (11, "11.5,1.0,1.0", "time column must hold nonnegative integers"),
    "negative t": (5, "-5,1.0,1.0", "time column must hold nonnegative integers"),
    "gap in t": (12, "13,1.0,1.0", "time column must be 0..T-1"),
}


@pytest.mark.parametrize("defect", list(TABLE_DEFECTS))
def test_data_csv_errors_name_the_whole_file_line(tmp_path, defect):
    k, row, message = TABLE_DEFECTS[defect]
    path = tmp_path / "d.csv"
    io.write_data_csv(path, np.ones((2, 30)))
    lines = path.read_text().splitlines()
    lines[k + 1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        io.read_data_csv(path)
    assert str(err.value).startswith(str(path)) and message in str(err.value)


def test_a_table_without_rows_or_header_is_a_data_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,node_1\n")
    with pytest.raises(DataError, match="no data rows"):
        io.read_data_csv(path)
    path.write_text("x,node_1\n0,1.0\n")
    with pytest.raises(DataError, match="expected a data header"):
        io.read_data_csv(path)


# --- the .npy writer and reader -----------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(T=st.integers(1, 300), N=st.integers(1, 4), P=st.integers(1, 3), K=st.integers(1, 9),
       t_start=st.integers(0, 12), block_bytes=st.sampled_from([1, 777, 1 << 18]),
       seed=st.integers(0, 2**32 - 1))
def test_the_streamed_npy_holds_np_save_bytes(tmp_path_factory, T, N, P, K, t_start,
                                              block_bytes, seed):
    norms = np.random.default_rng(seed).random((T, N, N, P))
    t_start = min(t_start, T - 1)
    t_values = range(t_start, T, K)
    table = np.empty((len(t_values), 1 + N * N * P))
    table[:, 0] = t_values
    table[:, 1:] = norms[t_start::K].reshape(len(t_values), N * N * P)
    d = tmp_path_factory.mktemp("npy")
    np.save(d / "saved.npy", table, allow_pickle=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "BLOCK_BYTES", block_bytes)
        io.write_estimates_npy(d / "streamed.npy", norms, t_start, K)
        t, est = estimates(d / "streamed.npy", N, P)
    assert (d / "streamed.npy").read_bytes() == (d / "saved.npy").read_bytes()
    assert np.array_equal(t, np.array(t_values)) and _same_bits(est, norms[t_start::K])


# an estimates .npy of N=2, P=2 (9 cells a row) and 30 rows, read in blocks
# of (block bytes, rows)
estimate_blocks = pytest.mark.parametrize(
    "block_bytes, block_rows", [(1, 1), (8 * 9 * 7, 7), (1 << 40, 30)],
    ids=["1 row", "7 rows", "all"])
estimate_rows = pytest.mark.parametrize("row", [0, 15, 29],
                                        ids=["first row", "middle row", "last row"])


def _damaged_estimates(path, monkeypatch, block_bytes, damage):
    """The rows an estimate_blocks read of path hands out before the
    DataError it ends in, once damage(table) has changed the file's table."""
    io.write_estimates_npy(path, np.random.default_rng(4).random((32, 2, 2, 2)), t_start=2)
    table = np.load(path)
    damage(table)
    np.save(path, table)
    monkeypatch.setattr(io, "BLOCK_BYTES", block_bytes)
    read = []
    with pytest.raises(DataError) as err:
        for t, _ in io.estimate_blocks([path], 2, 2):
            read.extend(t)
    assert str(err.value).startswith(str(path))
    return read, str(err.value)


@estimate_blocks
@estimate_rows
def test_a_fractional_t_in_any_block_is_a_data_error_naming_the_file(tmp_path, monkeypatch,
                                                                    row, block_bytes, block_rows):
    def damage(table):
        table[row, 0] += 0.5

    read, message = _damaged_estimates(tmp_path / "run000_estimates.npy", monkeypatch,
                                       block_bytes, damage)
    assert "nonnegative integers" in message
    # every block before the damaged row's was handed out whole
    assert len(read) == row // block_rows * block_rows


@estimate_blocks
@estimate_rows
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_a_bad_group_norm_in_any_block_is_a_data_error_naming_the_file_and_t(
        tmp_path, monkeypatch, bad, row, block_bytes, block_rows):
    # group norms are finite and nonnegative; anything else would be scored
    def damage(table):
        table[row, 1 + row % 8] = bad

    read, message = _damaged_estimates(tmp_path / "run000_estimates.npy", monkeypatch,
                                       block_bytes, damage)
    assert f"the row at t={row + 2} holds {bad}," in message
    assert len(read) == row // block_rows * block_rows


# a run's residuals .npy (N=2: 3 cells a row, 30 rows) followed by its resumed
# one, read in blocks of (block bytes, rows)
@pytest.mark.parametrize("block_bytes, block_rows", [(1, 1), (8 * 3 * 7, 7), (1 << 40, 30)],
                         ids=["1 row", "7 rows", "all"])
@pytest.mark.parametrize("row", [0, 15, 29], ids=["first row", "middle row", "last row"])
def test_a_negative_t_in_the_second_residuals_file_is_a_data_error_naming_it(
        tmp_path, monkeypatch, row, block_bytes, block_rows):
    values = np.random.default_rng(5).standard_normal((2, 32))
    first, second = tmp_path / "run000_residuals.npy", tmp_path / "run000_residuals_resumed.npy"
    io.write_residuals_npy(first, values, np.zeros_like(values), t_start=2)
    io.write_residuals_npy(second, values, np.zeros_like(values), t_start=2)
    table = np.load(second)
    table[row, 0] = -1.0
    np.save(second, table)
    monkeypatch.setattr(io, "BLOCK_BYTES", block_bytes)
    read = []
    with pytest.raises(DataError) as err:
        for t, _ in io.residual_blocks([first, second], 2):
            read.extend(t)
    assert str(err.value).startswith(str(second)) and "nonnegative integers" in str(err.value)
    # the whole first file, then every block before the damaged row's
    assert len(read) == 30 + row // block_rows * block_rows


@pytest.mark.parametrize("layout", ["fortran", "byte-swapped"])
def test_an_npy_estimate_never_writes_is_a_data_error_naming_it(tmp_path, layout):
    table = np.arange(2.0 * 19).reshape(2, 19)  # N=3, P=2
    table[:, 0] = [2, 3]
    path = tmp_path / "run000_estimates.npy"
    np.save(path, np.asfortranarray(table) if layout == "fortran"
            else table.astype(table.dtype.newbyteorder()))
    with pytest.raises(DataError, match="run000_estimates.npy"):
        estimates(path, N=3, P=2)


# --- JSON through the C encoder -------------------------------------------------

def test_checkpoint_and_report_text_equal_json_dump(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "runs": 1, "base_seed": 2, "output_dir": str(tmp_path / "out"),
        "generator": {"N": 2, "P": 2, "T": 60, "edge_probability": 0.5, "noise_std": 0.1},
        "estimator": {"N": 2, "P": 2, "D": 3, "rff_seed": 4}}))
    for command in ("generate", "estimate", "metrics"):
        assert cli_main([command, str(cfg)]) == 0
    for name in ("run000_checkpoint.json", "report.json"):
        path = tmp_path / "out" / name
        text = path.read_text()
        with open(tmp_path / "dumped.json", "w") as fh:
            json.dump(json.loads(text), fh)
        assert (tmp_path / "dumped.json").read_text() == text
    # the checkpoint writer on values where the encoders could differ
    est = OnlineEstimator(EstimatorConfig(N=1, P=1, D=1))
    est.state.alpha[...] = [[[[5e-324, -0.0]]]]
    extra = {"mean": [1e16, -1e-300], "std": None, "note": "naïve ✓"}
    io.write_checkpoint(tmp_path / "c.json", est, extra=extra)
    obj = json.loads((tmp_path / "c.json").read_text())
    with open(tmp_path / "dumped.json", "w") as fh:
        json.dump(obj, fh)
    assert (tmp_path / "c.json").read_text() == (tmp_path / "dumped.json").read_text()
    assert obj["alpha"] == [[[[5e-324, -0.0]]]] and obj["extra"] == extra


_CELLS = st.floats() | st.just(float("nan"))
# numpy arrays as report.json holds them: float curves with NaN, 1-D and
# 2-D, and bool and int arrays
_ARRAYS = (st.lists(_CELLS, max_size=5).map(lambda v: np.array(v, dtype=float))
           | st.integers(0, 3).flatmap(lambda r: st.lists(_CELLS, min_size=2 * r, max_size=2 * r)
                                       .map(lambda v: np.array(v, dtype=float).reshape(r, 2)))
           | st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool))
           | st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(
               lambda v: np.array(v, dtype=np.int64)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=True) | st.sampled_from([5e-324, -0.0, 1e16])
    | _ARRAYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=4),
    max_leaves=20)


def _listed(value):
    """An array as json.dump is to write it: nested lists, NaN as null."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return [_listed(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(obj=_JSON)
def test_write_json_writes_json_dump_text(tmp_path_factory, obj):
    d = tmp_path_factory.mktemp("json")
    io.write_json(d / "written.json", obj)
    with open(d / "dumped.json", "w") as fh:
        json.dump(obj, fh, default=_listed)
    assert (d / "written.json").read_text() == (d / "dumped.json").read_text()


# --- metrics end to end, at every block size ------------------------------------

def _outputs(cfg_path, out, block_bytes):
    for name in PRODUCTS:
        (out / name).unlink(missing_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "BLOCK_BYTES", block_bytes)
        assert cli_main(["metrics", str(cfg_path)]) == 0
    return {name: (out / name).read_bytes() for name in PRODUCTS}


def _whole_file_curves(out, runs, N, P, cfg, window):
    """pmd, pfa and mse from whole-file reads and the whole-array formulas."""
    det, err = [], []
    for r in range(runs):
        pre = out / f"run{r:03d}"
        table = np.load(f"{pre}_estimates.npy")
        t = table[:, 0].astype(int)
        _, active = _dense_fill([(rec["t"], np.array(rec["coeffs"]), np.array(rec["active"]))
                                 for rec in map(json.loads, Path(f"{pre}_topology.jsonl")
                                                .read_text().splitlines())],
                                int(t[-1]) + 1)
        det.append((table[:, 1:].reshape(len(t), N, N, P), active[t]))
        data = _whole_parse(f"{pre}_data.csv", N + 1)[:, 1:].T
        preds = _whole_parse(f"{pre}_predictions.csv", N + 1)
        checkpoint = Path(f"{pre}_checkpoint.json")
        if json.loads(checkpoint.read_text())["extra"]["standardize"]:
            data = scaled_as_checkpointed(data, checkpoint)
        tp = preds[:, 0].astype(int)
        err.append((data[:, tp], preds[:, 1:].T))
    pmd, pfa = _whole_pmd_pfa(det, cfg)
    return pmd, pfa, _whole_mse(err, None if runs > 1 else window)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(runs=st.sampled_from([1, 3]), K=st.sampled_from([1, 7]), standardize=st.booleans(),
       T=st.integers(40, 90), seed=st.integers(0, 1000))
def test_metrics_outputs_do_not_depend_on_the_block_size(tmp_path_factory, runs, K, standardize,
                                                         T, seed):
    N, P = 3, 2
    d = tmp_path_factory.mktemp("blocks")
    cfg_path = d / "exp.json"
    cfg_path.write_text(json.dumps({
        "runs": runs, "base_seed": seed, "output_dir": str(d / "out"), "emit_every": K,
        "standardize": standardize,
        "generator": {"N": N, "P": P, "T": T, "edge_probability": 0.4, "noise_std": 0.1},
        "estimator": {"N": N, "P": P, "D": 4, "lambda": 0.05, "gamma": 50.0, "rff_seed": 7},
        "metrics": {"delta": 0.05, "mse_window": 9}}))
    for command in ("generate", "estimate"):
        assert cli_main([command, str(cfg_path)]) == 0
    out = d / "out"
    # 1 row; a prime number of .npy rows; every row in one block
    sizes = [1, 8 * (1 + N * N * P) * 5, 1 << 40]
    first, *others = [_outputs(cfg_path, out, size) for size in sizes]
    assert all(other == first for other in others)
    pmd, pfa, mse = _whole_file_curves(out, runs, N, P, DetectionConfig(delta=0.05), 9)
    t = np.arange(P, T, K)
    for name, t_values, curve in (("pmd.csv", t, pmd), ("pfa.csv", t, pfa),
                                  ("mse.csv", np.arange(P, T), mse)):
        io.write_metric_csv(d / name, t_values, curve)
        assert (d / name).read_bytes() == first[name], name


# --- fixed memory per run -------------------------------------------------------

_PEAK = """
import sys
from rffgraph.cli import main
assert main(["metrics", sys.argv[1]]) == 0
print([int(l.split()[1]) for l in open("/proc/self/status") if l.startswith("VmHWM")][0])
"""


def _one_run(d, T, N=20, P=2):
    """Synthetic files of one N=20 run, written without an estimate run."""
    rng = np.random.default_rng(T)
    d.mkdir()
    cfg = d / "exp.json"
    cfg.write_text(json.dumps({
        "runs": 1, "base_seed": 0, "output_dir": str(d),
        "generator": {"N": N, "P": P, "T": T, "edge_probability": 0.1},
        "estimator": {"N": N, "P": P, "D": 1}}))
    values = rng.standard_normal((N, T))
    io.write_residuals_npy(d / "run000_residuals.npy", values,
                           values + 0.1 * rng.standard_normal((N, T)), t_start=P)
    table = rng.random((T - P, 1 + N * N * P))
    table[:, 0] = np.arange(P, T)
    np.save(d / "run000_estimates.npy", table)
    active = rng.random((N, N, P)) < 0.1
    lines = [{"t": t, "coeffs": np.where(active, 0.5, 0.0).tolist(),
              "active": (active ^ (t % 2 == 1)).tolist()} for t in range(P, T, 1000)]
    (d / "run000_topology.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
    return cfg


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_metrics_memory_per_run_does_not_grow_with_t(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    peaks = []
    for T in (2000, 8000):
        cfg = _one_run(tmp_path / f"T{T}", T)
        run = subprocess.run([sys.executable, "-c", _PEAK, str(cfg)], capture_output=True,
                             text=True, check=True,
                             env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"})
        peaks.append(int(run.stdout.split()[-1]) / 1024)
    assert peaks[1] - peaks[0] < 5.0, peaks
