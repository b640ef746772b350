"""Whole run files, read for the tests: the estimates and residuals `.npy`
traces through the block readers the pipeline uses, the estimates and
predictions CSVs, which no reader of the package parses, cell by cell, and
a series scaled as the estimate that wrote a checkpoint scaled it; and the
coefficients of a drift run made as one dense table."""

import json

import numpy as np

from rffgraph import init_topology, io


def estimates(path, N, P):
    """An estimates .npy read whole through io.estimate_blocks: (t values, (rows, N, N, P))."""
    t, est = zip(*io.estimate_blocks([path], N, P))
    return np.concatenate(t), np.concatenate(est)


def residuals(path, N):
    """A residuals .npy read whole through io.residual_blocks: (t values, (N, rows))."""
    t, err = zip(*io.residual_blocks([path], N))
    return np.concatenate(t), np.concatenate(err, axis=1)


def _csv(path, columns):
    """A `t,<columns>` CSV parsed cell by cell with float(), which gives back
    the bits of the shortest repr the writer wrote: (t values, (rows, cells))."""
    header, *lines = path.read_text().splitlines()
    assert header.split(",") == ["t"] + columns
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    return rows[:, 0].astype(int), rows[:, 1:]


def estimates_csv(path, N, P):
    """An estimates CSV parsed cell by cell: (t values, (rows, N, N, P))."""
    t, rows = _csv(path, io.estimate_column_names(N, P))
    return t, rows.reshape(-1, N, N, P)


def predictions(path, N):
    """A predictions CSV parsed cell by cell: (t values, (N, rows))."""
    t, rows = _csv(path, [f"node_{n + 1}" for n in range(N)])
    return t, rows.T


def standardized(values, upto):
    """The (N, T) series values scaled per node by the mean and std of their
    first upto samples, a zero std counting as 1.  They are computed on the
    C-ordered series, as the estimate computes them: sums over a strided row
    can differ in their last bits."""
    values = np.ascontiguousarray(values)
    head = values[:, :upto]
    std = head.std(axis=1, keepdims=True)
    return (values - head.mean(axis=1, keepdims=True)) / np.where(std > 0, std, 1.0)


def scaled_as_checkpointed(values, checkpoint):
    """values scaled as a standardized estimate of them that wrote the
    checkpoint file scaled them: by the samples its state has taken, its t
    plus its warm-up count."""
    obj = json.loads(checkpoint.read_text())
    return standardized(values, obj["t"] + obj["warm"])


def drift_coeffs(cfg, T):
    """The (T, N, N, P) coefficients of the drift run of cfg cut to T samples,
    as one cumulative sum over the whole table: the rows before P hold the
    initial coefficients, and sample t + 1 adds 0.01 sin(0.03 t) to sample
    t's in the drifting slots (every active one, or under drift_scope
    single the lexicographically first)."""
    topo = init_topology(cfg)
    drifting = topo.active.copy()
    if cfg.drift_scope == "single":
        drifting.flat[np.flatnonzero(topo.active)[1:]] = False
    rows = np.zeros((T - cfg.P,) + topo.coeffs.shape)
    rows[0] = topo.coeffs
    rows[1:, drifting] = 0.01 * np.sin(0.03 * np.arange(cfg.P, T - 1))[:, None]
    np.cumsum(rows, axis=0, out=rows)
    return np.concatenate([np.broadcast_to(rows[0], (cfg.P,) + rows.shape[1:]), rows])
