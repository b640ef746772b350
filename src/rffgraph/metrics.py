"""Evaluation of pseudo-adjacency traces: normalization, detection rates, MSE.

The detection rates and the MSE are accumulated: DetectionCounts and
ErrorSums take the runs one at a time, each whole or in row blocks, so
`metrics` holds one block of one run at a time.  Runs may differ in
length; each t counts only the runs that reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectionConfig:
    """Threshold delta applied to (normalized) pseudo-adjacency entries."""

    delta: float = 0.05
    exclude_self_loops: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")


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


def _grown(a: np.ndarray, end: int) -> np.ndarray:
    """a extended with zeros along its last axis to length end (a itself if long enough)."""
    short = end - a.shape[-1]
    if short <= 0:
        return a
    return np.concatenate([a, np.zeros(a.shape[:-1] + (short,), dtype=a.dtype)], axis=-1)


class DetectionCounts:
    """P_MD and P_FA numerators and denominators per t, pooled over runs.

    Each run is added whole or in row blocks; add(est, truth, at) counts
    its rows at..at+len(est)-1, and the counts grow to the longest run, so
    each t pools only the runs that reach it.  A slot counts as detected
    when its estimate, normalized by the maximum of its time slice,
    exceeds cfg.delta:

        P_MD[t] = #{active slots with estimate <  delta} / #{active slots}
        P_FA[t] = #{inactive slots with estimate > delta} / #{inactive slots}

    with self-loops excluded by default.
    """

    def __init__(self, cfg: DetectionConfig = DetectionConfig()):
        self.cfg = cfg
        self.counts = np.zeros((4, 0))  # miss, active, alarm and inactive slots per t

    def add(self, est, truth, at: int = 0):
        """Count rows of one run: est (rows, N, N, P) estimates and truth the
        boolean active-edge mask of that shape (exact support knowledge)."""
        est = np.asarray(est, dtype=float)
        truth = np.asarray(truth, dtype=bool)
        if est.shape != truth.shape or est.ndim != 4:
            raise ValueError(f"estimates and truth must share a (T, N, N, P) shape, "
                             f"got {est.shape} vs {truth.shape}")
        b = normalize_series(est)
        scope = np.ones(est.shape[1:], dtype=bool)
        if self.cfg.exclude_self_loops:
            scope &= ~np.eye(est.shape[1], dtype=bool)[:, :, None]
        active, inactive = truth & scope, ~truth & scope
        slots = ((b < self.cfg.delta) & active, active, (b > self.cfg.delta) & inactive, inactive)
        end = at + len(est)
        self.counts = _grown(self.counts, end)
        for count, x in zip(self.counts[:, at:end], slots):
            count += x.reshape(len(est), -1).sum(axis=1)

    def curves(self):
        """(pmd, pfa); entries with an empty denominator are NaN (undefined, not zero)."""
        md_num, md_den, fa_num, fa_den = self.counts
        T = self.counts.shape[1]
        pmd = np.divide(md_num, md_den, out=np.full(T, np.nan), where=md_den > 0)
        pfa = np.divide(fa_num, fa_den, out=np.full(T, np.nan), where=fa_den > 0)
        return pmd, pfa


class ErrorSums:
    """Squared prediction error sum and count per t, over runs and nodes.

    Each run is added whole or in column blocks; add(errors, at) adds its
    columns at..at+T-1, and the sums grow to the longest run, so each t
    counts only the runs that reach it.  NaN or infinite errors (warm-up)
    are not counted.  The sum at each t runs from zero over the runs, then
    the nodes, in the order added: the column sum of the stacked
    (runs * nodes, T) errors, bit for bit.
    """

    def __init__(self):
        self.sums = np.zeros(0)
        self.counts = np.zeros(0, dtype=np.intp)

    def add(self, errors, at: int = 0):
        """Add one run's (nodes, T) prediction errors y - yhat."""
        err = np.asarray(errors, dtype=float) ** 2
        valid = np.isfinite(err)
        end = at + err.shape[1]
        self.sums, self.counts = _grown(self.sums, end), _grown(self.counts, end)
        sums, counts = self.sums[at:end], self.counts[at:end]
        for e, v in zip(np.where(valid, err, 0.0), valid):
            sums += e
            counts += v

    def curve(self, window: int | None = None) -> np.ndarray:
        """The mean squared error per t, NaN where nothing was counted; with
        a window, its trailing moving average of that width instead (the
        single-run stand-in for the ensemble mean)."""
        if window is not None and window < 1:
            raise ValueError("window must be at least 1")
        T = len(self.sums)
        mean = np.divide(self.sums, self.counts, out=np.full(T, np.nan), where=self.counts > 0)
        return mean if window is None else _trailing_mean(mean, window)


def _trailing_mean(per_t: np.ndarray, window: int) -> np.ndarray:
    """Mean of the finite entries of per_t over a trailing window (partial
    at the start), NaN where the window holds none."""
    T = len(per_t)
    window = min(window, T)
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
