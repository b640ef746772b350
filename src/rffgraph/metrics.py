"""Topology extraction and evaluation: pseudo-adjacency, detection rates, MSE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import CoefficientState, group_norms


@dataclass(frozen=True)
class DetectionConfig:
    """Threshold delta applied to (normalized) pseudo-adjacency entries."""

    delta: float = 0.05
    exclude_self_loops: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")


def extract_pseudo_adjacency(state: CoefficientState) -> np.ndarray:
    """Per-group coefficient norms arranged as (n, n', p)."""
    return np.transpose(group_norms(state.alpha), (0, 2, 1))


def normalize(adj: np.ndarray) -> np.ndarray:
    """Divide by the global maximum entry; the result has max 1.

    Raises ValueError on an all-zero matrix (undefined normalization).
    """
    adj = np.asarray(adj, dtype=float)
    m = adj.max()
    if m <= 0:
        raise ValueError("cannot normalize an all-zero pseudo-adjacency")
    return adj / m


def normalize_series(series: np.ndarray) -> np.ndarray:
    """Normalize each time slice by its own maximum; all-zero slices stay zero."""
    series = np.asarray(series, dtype=float)
    T = series.shape[0]
    m = series.reshape(T, -1).max(axis=1)
    safe = np.where(m > 0, m, 1.0)
    return series / safe.reshape((T,) + (1,) * (series.ndim - 1))


def pmd_pfa(runs, cfg: DetectionConfig = DetectionConfig(), normalized: bool = True):
    """Miss-detection and false-alarm curves over an ensemble of runs.

    runs: iterable of (estimates, truth) pairs, both (T, N, N, P); truth
    is the boolean active-edge mask (exact support knowledge).  Runs are
    consumed one at a time, so a generator need not hold them all at once.
    A slot counts as detected when its (per-slice normalized, unless
    normalized=False) estimate exceeds cfg.delta:

        P_MD[t] = #{active slots with estimate <  delta} / #{active slots}
        P_FA[t] = #{inactive slots with estimate > delta} / #{inactive slots}

    with counts pooled over runs and, by default, self-loops excluded.
    Entries with an empty denominator are NaN (undefined, not zero).
    Returns (pmd, pfa), each of shape (T,).
    """
    T = None
    md_num = md_den = fa_num = fa_den = None
    for est, truth in runs:
        est = np.asarray(est, dtype=float)
        truth = np.asarray(truth, dtype=bool)
        if est.shape != truth.shape or est.ndim != 4:
            raise ValueError(f"estimates and truth must share a (T, N, N, P) shape, "
                             f"got {est.shape} vs {truth.shape}")
        if T is None:
            T = est.shape[0]
            md_num = np.zeros(T)
            md_den = np.zeros(T)
            fa_num = np.zeros(T)
            fa_den = np.zeros(T)
        elif est.shape[0] != T:
            raise ValueError("runs have mismatched time axes")
        b = normalize_series(est) if normalized else est
        scope = np.ones(est.shape[1:], dtype=bool)
        if cfg.exclude_self_loops:
            scope &= ~np.eye(est.shape[1], dtype=bool)[:, :, None]
        miss = (b < cfg.delta) & truth & scope
        alarm = (b > cfg.delta) & ~truth & scope
        flat = lambda x: x.reshape(T, -1).sum(axis=1)
        md_num += flat(miss)
        md_den += flat(truth & scope)
        fa_num += flat(alarm)
        fa_den += flat(~truth & scope)
    if T is None:
        raise ValueError("need at least one run")
    pmd = np.divide(md_num, md_den, out=np.full(T, np.nan), where=md_den > 0)
    pfa = np.divide(fa_num, fa_den, out=np.full(T, np.nan), where=fa_den > 0)
    return pmd, pfa


def _nan_mean(rows: np.ndarray) -> np.ndarray:
    """Column means ignoring NaN, NaN where a column has no finite entry."""
    valid = np.isfinite(rows)
    sums = np.where(valid, rows, 0.0).sum(axis=0)
    counts = valid.sum(axis=0)
    return np.divide(sums, counts, out=np.full(rows.shape[1], np.nan), where=counts > 0)


def mse_curve(y=None, yhat=None, runs=None, window: int = 100) -> np.ndarray:
    """Squared prediction error over time.

    With `runs` (list of (y, yhat) pairs): the ensemble mean of the
    squared error at each t, averaged over runs and nodes.  With a single
    (y, yhat) pair: a trailing moving average of width `window` as the
    single-run stand-in for the ensemble mean.  NaN predictions (warm-up)
    are ignored; entries with no finite data are NaN.
    """
    if runs is not None:
        errs = []
        T = None
        for yy, hh in runs:
            yy, hh = np.asarray(yy, float), np.asarray(hh, float)
            if yy.shape != hh.shape:
                raise ValueError(f"length mismatch: {yy.shape} vs {hh.shape}")
            if T is None:
                T = yy.shape[-1]
            elif yy.shape[-1] != T:
                raise ValueError("runs have mismatched time axes")
            errs.append((yy - hh) ** 2)
        stacked = np.stack([e.reshape(-1, T) for e in errs])  # (runs, nodes, T)
        return _nan_mean(stacked.reshape(-1, T))
    y, yhat = np.asarray(y, float), np.asarray(yhat, float)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if window < 1:
        raise ValueError("window must be at least 1")
    T = y.shape[-1]
    window = min(window, T)
    per_t = _nan_mean(((y - yhat) ** 2).reshape(-1, T))
    valid = np.isfinite(per_t)
    sums = np.cumsum(np.where(valid, per_t, 0.0))
    counts = np.cumsum(valid)
    head_s, head_c = sums[window - 1 :], counts[window - 1 :]
    tail_s = np.concatenate([[0.0], sums[:-window]])
    tail_c = np.concatenate([[0], counts[:-window]])
    out = np.full(T, np.nan)
    # partial windows at the start, full trailing windows afterwards
    out[: window - 1] = np.divide(sums[: window - 1], counts[: window - 1],
                                  out=np.full(window - 1, np.nan),
                                  where=counts[: window - 1] > 0)
    wc = head_c - tail_c
    out[window - 1 :] = np.divide(head_s - tail_s, wc,
                                  out=np.full(T - window + 1, np.nan), where=wc > 0)
    return out
