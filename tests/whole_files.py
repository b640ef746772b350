"""Whole run files, read for the tests: the estimates and predictions files
through the block readers the pipeline uses, the estimates CSV, which no
reader of the package parses, cell by cell."""

import numpy as np

from rffgraph import io


def estimates(path, N, P):
    """An estimates .npy read whole through io.estimate_blocks: (t values, (rows, N, N, P))."""
    t, est = zip(*io.estimate_blocks(path, N, P)[1])
    return np.concatenate(t), np.concatenate(est)


def estimates_csv(path, N, P):
    """An estimates CSV parsed cell by cell with float(), which gives back
    the bits of the shortest repr the writer wrote: (t values, (rows, N, N, P))."""
    header, *lines = path.read_text().splitlines()
    assert header.split(",") == ["t"] + io.estimate_column_names(N, P)
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    return rows[:, 0].astype(int), rows[:, 1:].reshape(-1, N, N, P)


def predictions(path):
    """A predictions CSV read whole through io.prediction_blocks: (t values, (N, rows))."""
    t, preds = zip(*io.prediction_blocks(path)[1])
    return np.concatenate(t), np.concatenate(preds, axis=1)
