"""Correctness checks made apart from the program.

Nothing here calls rffgraph: files are parsed with numpy and json, the
estimator's documented update is re-implemented in a few lines, and the
detection and error curves are recomputed from the written files.  Each
check returns (name, passed, detail).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

RTOL = 1e-9
# Entries that cross zero have no meaningful relative error; below this
# magnitude the comparison is absolute.
ATOL = 1e-12


def reference_stream(values, frequencies, step, lam):
    """The documented update, replayed over a whole (N, T) series.

    With z the stacked sin/cos lift of the lag window (row 0 newest) and
    r = alpha.z - y:  u = alpha - step*r*z, then every group of u is shrunk
    by step*lam.  Returns predictions (N, T) made before each update, NaN
    during warm-up, and the pseudo-adjacency (T, N, N', P) after each sample.
    """
    N, T = values.shape
    P, _, D = frequencies.shape
    alpha = np.zeros((N, P, N, 2 * D))
    preds = np.full((N, T), np.nan)
    adj = np.zeros((T, N, N, P))
    thr = step * lam
    for t in range(P, T):
        window = values[:, t - P:t][:, ::-1].T
        arg = window[:, :, None] * frequencies
        z = np.concatenate([np.sin(arg), np.cos(arg)], axis=-1) / np.sqrt(D)
        yhat = (alpha * z).sum(axis=(1, 2, 3))
        u = alpha - step * (yhat - values[:, t])[:, None, None, None] * z
        norms = np.sqrt((u * u).sum(axis=-1))
        keep = norms > thr
        alpha = u * np.where(keep, 1.0 - thr / np.where(keep, norms, 1.0), 0.0)[..., None]
        preds[:, t] = yhat
        adj[t] = np.sqrt((alpha * alpha).sum(axis=-1)).transpose(0, 2, 1)
    return preds, adj


def agree(actual, expected, rtol=RTOL, atol=ATOL):
    """Shapes match, NaNs coincide, and finite entries agree to a relative rtol
    (an absolute atol for entries near zero)."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return False, f"shape {a.shape} != {e.shape}"
    nan_a, nan_e = np.isnan(a), np.isnan(e)
    if not np.array_equal(nan_a, nan_e):
        return False, f"{int((nan_a != nan_e).sum())} NaN positions differ"
    fa, fe = a[~nan_a], e[~nan_e]
    err = np.abs(fa - fe)
    bad = err > np.maximum(rtol * np.maximum(np.abs(fa), np.abs(fe)), atol)
    if bad.any():
        i = int(np.argmax(bad))
        return False, f"{int(bad.sum())} of {fa.size} entries differ, e.g. {fa[i]!r} vs {fe[i]!r}"
    worst = float((err / np.maximum(np.abs(fe), atol / rtol)).max()) if fa.size else 0.0
    return True, f"{fa.size} entries, max relative error {worst:.1e}"


def read_table(path):
    """A `t,...` CSV as (header, t (rows,), values (rows, cols))."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, body[:, 0].astype(int), body[:, 1:]


def read_estimates(path, N, P):
    header, t, vals = read_table(path)
    names = [f"b_{n + 1}_{m + 1}_{p + 1}" for n in range(N) for m in range(N) for p in range(P)]
    if header != ["t"] + names:
        raise ValueError(f"{path}: unexpected estimates header")
    return t, vals.reshape(len(t), N, N, P)


def read_active(path, t_values):
    """Ground-truth active mask at each t, forward-filled from the topology JSONL."""
    recs = sorted((json.loads(line) for line in open(path) if line.strip()), key=lambda r: r["t"])
    starts = np.array([r["t"] for r in recs])
    masks = np.array([r["active"] for r in recs], dtype=bool)
    idx = np.maximum(np.searchsorted(starts, t_values, side="right") - 1, 0)
    return masks[idx]


def check_stream(name, values, frequencies, step, lam, pred_files, est_files, N, P):
    """Written predictions and estimates rows against the reference recurrence.

    Every row is compared at its own t, so any thinning grid is accepted.
    """
    preds_ref, adj_ref = reference_stream(values, frequencies, step, lam)
    results = []
    t_all, p_all, t_est, e_all = [], [], [], []
    for f in pred_files:
        _, t, vals = read_table(f)
        t_all.append(t)
        p_all.append(vals.T)
    for f in est_files:
        t, e = read_estimates(f, N, P)
        t_est.append(t)
        e_all.append(e)
    t = np.concatenate(t_all)
    results.append((f"{name}: predictions", *agree(np.concatenate(p_all, axis=1), preds_ref[:, t])))
    t = np.concatenate(t_est)
    results.append((f"{name}: pseudo-adjacency rows", *agree(np.concatenate(e_all), adj_ref[t])))
    return results


def recompute_metrics(out, runs, N, P, delta, exclude_self_loops=True):
    """P_MD, P_FA and ensemble MSE from the run files in `out`, as in metrics.pmd_pfa
    and metrics.mse_curve: per-slice max normalization, delta threshold, self-loops
    excluded, counts pooled over runs, squared errors averaged over runs and nodes."""
    md_num = md_den = fa_num = fa_den = 0
    errs = []
    scope = np.ones((N, N, P), dtype=bool)
    if exclude_self_loops:
        scope &= ~np.eye(N, dtype=bool)[:, :, None]
    for r in range(runs):
        t, est = read_estimates(out / f"run{r:03d}_estimates.csv", N, P)
        truth = read_active(out / f"run{r:03d}_topology.jsonl", t)
        peak = est.reshape(len(t), -1).max(axis=1)
        b = est / np.where(peak > 0, peak, 1.0)[:, None, None, None]
        sum_t = lambda x: x.reshape(len(t), -1).sum(axis=1)
        md_num = md_num + sum_t((b < delta) & truth & scope)
        md_den = md_den + sum_t(truth & scope)
        fa_num = fa_num + sum_t((b > delta) & ~truth & scope)
        fa_den = fa_den + sum_t(~truth & scope)
        _, _, data = read_table(out / f"run{r:03d}_data.csv")
        _, tp, pred = read_table(out / f"run{r:03d}_predictions.csv")
        errs.append((data[tp] - pred) ** 2)
    pooled = np.concatenate(errs, axis=1)
    finite = np.isfinite(pooled)
    counts = finite.sum(axis=1)
    sums = np.where(finite, pooled, 0.0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mse = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        pmd = np.where(md_den > 0, md_num / np.maximum(md_den, 1), np.nan)
        pfa = np.where(fa_den > 0, fa_num / np.maximum(fa_den, 1), np.nan)
    return {"pmd.csv": (t, pmd), "pfa.csv": (t, pfa), "mse.csv": (tp, mse)}


def check_metrics(out, runs, N, P, delta):
    results = []
    for fname, (t, expected) in recompute_metrics(out, runs, N, P, delta).items():
        _, t_file, vals = read_table(out / fname)
        if not np.array_equal(t_file, t):
            results.append((f"metrics: {fname}", False, "time axis differs"))
        else:
            results.append((f"metrics: {fname}", *agree(vals[:, 0], expected)))
    return results


def hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_dir(path):
    """{file name: sha256} for every file directly in `path`."""
    return {p.name: hash_file(p) for p in sorted(Path(path).iterdir()) if p.is_file()}


def check_replay(before, written, after):
    """Every file the replay wrote has the bytes it had before the replay."""
    if not written:
        return "replay: byte-identical", False, "replay reported no written files"
    changed = [w for w in written if before.get(w) != after.get(w)]
    if changed:
        return "replay: byte-identical", False, f"{len(changed)} of {len(written)} files differ: {changed[:3]}"
    return "replay: byte-identical", True, f"{len(written)} files identical"


def check_rounds(rounds):
    """Every later round produced exactly the outputs of the first, whose outputs
    the other checks verify."""
    first = rounds[0]["hashes"]
    differing = [i for i, r in enumerate(rounds[1:], 1) if r["hashes"] != first]
    if differing:
        return "rounds: identical outputs", False, f"rounds {differing} differ from round 0"
    return "rounds: identical outputs", True, f"{len(rounds)} rounds"
