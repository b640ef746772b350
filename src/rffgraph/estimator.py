"""Online group-sparse estimation of nonlinear VAR topology in feature space.

Every lagged sample y_{n'}[t-p] is lifted through a 2D-dimensional random
Fourier feature block; the blocks for all (p, n') are stacked, in
lexicographic order of (p, n', d), into one feature vector z_t of length
2*P*N*D.  Node n's one-step-ahead prediction is alpha_n^T z_t, and after
each sample every (n', p) coefficient group of every node is updated with
a closed-form gradient-plus-group-soft-threshold step:

    u      = group - step * grad_group
    group' = u * max(0, 1 - step * lam / ||u||)

which is the exact minimizer of the linearized loss plus a squared
proximity term (weight 1/(2*step)) plus the group-lasso penalty.  Groups
whose ||u|| falls at or below step * lam become exactly zero.  Every
feature block has unit norm, so a zero group of node n becomes nonzero
again exactly when node n's residual exceeds lam in magnitude.  With
noisy data that is the common case, so the iterates are rarely sparse and
edge detection rests on the delta threshold over the normalized group
norms (the pseudo-adjacency), not on exact zeros.  The per-sample work is
Theta(N^2 P D), independent of how many samples have been seen.  The
linear baseline is the same update with the lag window itself as the
lift and scalar groups.

The streaming estimator keeps its lifted lag window, the (P, N, 2D)
feature array z, beside the lag window itself.  The first update lifts the
whole window; after each update z is shifted by one lag block and only the
newest sample, the one the window takes next, is lifted, by the _lift that
build_feature_vector also calls, so z stays the full-window lift bit for
bit.  (Per-slot maps give every lag its own frequencies, so they lift the
whole window at every update.)  Then one step makes four passes over the
(N, P, N, 2D) coefficient array alpha: one einsum for the predictions,
u = alpha - step * r * z built one block of nodes at a time, one einsum for
the group norms of u, and an in-place scale of u.  Each block of u is
formed in a temporary of at most BLOCK_BYTES (one node's row when that is
larger), which stays in L2, and written straight into the output, which
the streaming estimator points at alpha itself.  So a run holds one alpha
plus one block, and the memory per iteration is fixed like its cost.  The
shrink returns the post-shrink group norms, and the divergence rule (every
entry finite and at most ALPHA_LIMIT in magnitude) first looks at those
N*P*N norms: a group's norm bounds its entries, so the full scan of the
array runs only when some norm is NaN or above ALPHA_LIMIT / 2, and then
decides.

Step-size convention: EstimatorConfig.gamma is the proximal damping
weight, i.e. the squared-proximity term carries weight gamma/2 and the
resulting gradient step is 1/gamma.  Large gamma therefore means strong
damping and small steps.  (The raw step size itself is the `gamma`
argument of the low-level update functions.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, DivergenceError
from .kernels import GaussianKernel, sample_frequencies
from .generator import TimeSeries

ALPHA_LIMIT = 1e12  # coefficient magnitude beyond which the run is declared divergent
BLOCK_BYTES = 256 * 1024  # scratch for one block of nodes of the update, sized to stay in L2


def group_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, safe against overflow.

    Equivalent to np.linalg.norm(x, axis=-1).  The plain sum of squares is
    one einsum; only when some sum comes out non-finite (an entry's square
    overflows, or the input holds inf or NaN) are the norms recomputed with
    every group scaled by its largest magnitude, so entries near 1e200 get
    finite norms.
    """
    sq = np.einsum("...d,...d->...", x, x)
    # one reduction, called directly: a NaN or inf sum makes the maximum fail the test
    if np.maximum.reduce(sq, axis=None, initial=0.0) < np.inf:
        return np.sqrt(sq)
    m = np.max(np.abs(x), axis=-1, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    scaled = x / safe
    return safe[..., 0] * np.sqrt(np.einsum("...d,...d->...", scaled, scaled))


@dataclass(frozen=True)
class EstimatorConfig:
    """Shapes, regularization, and feature-map seeds for one estimator.

    gamma is the proximal damping weight (per-iteration step = 1/gamma);
    lam is the group-lasso regularizer weight applied at every iteration.
    schedule: "constant" keeps the step at 1/gamma; "sqrt_decay" divides
    it by sqrt(k) at the k-th update.
    """

    N: int
    P: int
    D: int
    lam: float = 0.1
    gamma: float = 1000.0
    kernel_variance: float = 0.1
    rff_seed: int = 0
    schedule: str = "constant"
    per_slot_maps: bool = False

    def __post_init__(self):
        if self.N < 1 or self.P < 1 or self.D < 1:
            raise ConfigError(f"N, P, D must be positive, got ({self.N}, {self.P}, {self.D})")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be finite and nonnegative, got {self.lam}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be finite and positive, got {self.gamma}")
        if not (math.isfinite(self.kernel_variance) and self.kernel_variance > 0):
            raise ConfigError(f"kernel_variance must be finite and positive, "
                              f"got {self.kernel_variance}")
        if self.schedule not in ("constant", "sqrt_decay"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")

    def step_size(self, k: int) -> float:
        """Step applied at the k-th update (k >= 1)."""
        base = 1.0 / self.gamma
        if self.schedule == "sqrt_decay":
            return base / np.sqrt(k)
        return base


class FeatureMaps:
    """Random Fourier frequencies assigned to every (lag, source-node) slot.

    Built from one frequency array: (D,) when one map is shared by all
    slots, (P, N, D) when every slot has its own.  `frequencies` is
    (P, N, D) either way (a read-only view); slot (p, n') lifts
    y_{n'}[t-p-1] through its row frequencies[p, n'].
    """

    def __init__(self, frequencies: np.ndarray, N: int, P: int):
        self.N, self.P, self.D = N, P, frequencies.shape[-1]
        self.shared = frequencies.ndim == 1
        self.frequencies = np.broadcast_to(frequencies, (P, N, self.D))

    @classmethod
    def from_config(cls, cfg: EstimatorConfig) -> "FeatureMaps":
        kernel = GaussianKernel(cfg.kernel_variance)
        if not cfg.per_slot_maps:
            return cls(sample_frequencies(kernel, cfg.D, cfg.rff_seed).frequencies, cfg.N, cfg.P)
        # slot (p, n') draws with seed rff_seed + p * N + n'
        seeds = range(cfg.rff_seed, cfg.rff_seed + cfg.P * cfg.N)
        grid = np.stack([sample_frequencies(kernel, cfg.D, s).frequencies for s in seeds])
        return cls(grid.reshape(cfg.P, cfg.N, cfg.D), cfg.N, cfg.P)


@dataclass
class CoefficientState:
    """Stacked coefficients for all nodes at one iteration.

    alpha[n, p, n', :] is node n's length-2D group for source n' at lag
    p+1; alpha[n].ravel() is exactly the stacked vector in lexicographic
    (p, n', d) order.
    """

    alpha: np.ndarray  # (N, P, N, 2D)
    t: int = 0

    @classmethod
    def zeros(cls, N: int, P: int, D: int, t: int = 0) -> "CoefficientState":
        return cls(alpha=np.zeros((N, P, N, 2 * D)), t=t)

    @property
    def shape(self):
        return self.alpha.shape

    def group(self, n: int, n_src: int, p: int) -> np.ndarray:
        """The (n', p) coefficient group of node n; p is the lag, 1-based."""
        return self.alpha[n, p - 1, n_src]

    def stacked(self, n: int) -> np.ndarray:
        return self.alpha[n].ravel()


def build_feature_vector(history: np.ndarray, maps: FeatureMaps) -> np.ndarray:
    """Lift the lag window into the stacked feature array of shape (P, N, 2D).

    history[p, n'] must hold y_{n'}[t - (p+1)] (row 0 = newest past
    sample).  Block (p, n') of the result equals the feature map of slot
    (p, n') evaluated at history[p, n']; .ravel() yields the stacked
    2*P*N*D vector.
    """
    # C order, so that z and the step's buffers built from it are C-ordered too
    history = np.ascontiguousarray(history, dtype=float)
    if history.shape != (maps.P, maps.N):
        raise ValueError(f"history must have shape (P, N) = {(maps.P, maps.N)}, got {history.shape}")
    if not np.isfinite(history).all():
        raise ValueError("history contains non-finite values")
    return _lift(history, maps.frequencies)


def _lift(x: np.ndarray, frequencies: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The random Fourier features of every entry of x, on a new last axis of length 2D.

    frequencies broadcasts against x[..., None] to (..., D).  The result,
    written to `out` when given, holds sin(x v) / sqrt(D) in its first D
    entries and cos(x v) / sqrt(D) in the rest.  sin and cos are taken into
    contiguous temporaries, so a sample lifted alone gets the bits it gets
    in a whole window.
    """
    arg = x[..., None] * frequencies
    D = arg.shape[-1]
    if out is None:
        out = np.empty(arg.shape[:-1] + (2 * D,))
    root_d = math.sqrt(D)  # np.sqrt(D)'s value, without its microsecond of call overhead
    np.divide(np.sin(arg), root_d, out=out[..., :D])
    np.divide(np.cos(arg), root_d, out=out[..., D:])
    return out


def _as_sample(sample, N: int) -> np.ndarray:
    """sample as a float array of shape (N,); any other shape is a ValueError."""
    sample = np.asarray(sample, dtype=float)
    if sample.shape != (N,):
        raise ValueError(f"sample must have shape ({N},), got {sample.shape}")
    return sample


def predict(alpha_n: np.ndarray, z: np.ndarray) -> float:
    """One-step-ahead prediction alpha_n^T z."""
    a = np.asarray(alpha_n, dtype=float).ravel()
    zz = np.asarray(z, dtype=float).ravel()
    if a.shape != zz.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {zz.shape}")
    return float(a @ zz)


def instantaneous_loss(alpha_n: np.ndarray, z: np.ndarray, y: float) -> float:
    """Half squared prediction error at one sample."""
    r = y - predict(alpha_n, z)
    return 0.5 * r * r


def gradient(alpha_n: np.ndarray, z: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the instantaneous loss: z * (alpha_n^T z - y).

    Returned with the same shape as alpha_n; always collinear with z.
    """
    a = np.asarray(alpha_n, dtype=float)
    zz = np.asarray(z, dtype=float)
    r = predict(a, zz) - y
    return (zz * r).reshape(a.shape)


def comid_group_update(group: np.ndarray, grad_group: np.ndarray, gamma: float,
                       lam: float) -> np.ndarray:
    """Closed-form group update: gradient step then multidimensional shrinkage.

    gamma is the raw step size applied to the gradient; the shrinkage
    threshold is gamma * lam.  Groups whose shifted point u =
    group - gamma * grad_group satisfies ||u|| <= gamma * lam come back as
    exact zero vectors.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    g = np.asarray(group, dtype=float)
    v = np.asarray(grad_group, dtype=float)
    if g.shape != v.shape:
        raise ValueError(f"dimension mismatch: {g.shape} vs {v.shape}")
    if not (np.isfinite(g).all() and np.isfinite(v).all()):
        raise ValueError("non-finite inputs")
    u = g - gamma * v
    return _shrink_groups(u, gamma * lam)[0]


def _shrink_groups(u: np.ndarray, thr: float):
    """Shrink every group (last axis) of u in place; returns (u, post-shrink norms).

    u is overwritten: pass an array the caller owns.  A group is kept when
    its norm exceeds thr and scaled by 1 - thr / norm; otherwise, a NaN
    norm included, it is zeroed.  For thr > 0 the factor is
    1 - thr / fmax(norm, thr): fmax ignores a NaN and thr / thr is exactly
    1, so a group at or below thr gets exactly 0.
    """
    norms = group_norms(u)
    if thr > 0:
        factor = 1.0 - thr / np.fmax(norms, thr)
    else:  # no shrink: only zero (and NaN) groups are zeroed
        factor = (norms > 0.0).astype(float)
    u *= factor[..., None]
    return u, factor * norms


def _diverged(alpha: np.ndarray, norms: np.ndarray) -> bool:
    """True when some entry of alpha is non-finite or beyond ALPHA_LIMIT.

    norms are alpha's group norms.  Each bounds its group's entries and a
    NaN fails the comparison, so the exact scan runs only when some norm is
    NaN or above half the limit; the scan alone decides.
    """
    if norms.max() <= 0.5 * ALPHA_LIMIT:
        return False
    return not np.isfinite(alpha).all() or np.abs(alpha).max() > ALPHA_LIMIT


def _divergence(prefix: str, norms: np.ndarray, resid: np.ndarray) -> DivergenceError:
    """The error for a rejected iterate: names the node with the largest group norm.

    norms are the iterate's (N, P, N) group norms (a NaN counts as largest),
    resid the step's prediction errors yhat - y per node.
    """
    n, p, q = np.unravel_index(np.argmax(norms), norms.shape)
    return DivergenceError(f"{prefix}: node {n} has the largest group norm {norms[n, p, q]:.6g} "
                           f"(source {q}, lag {p + 1}); its last residual was {resid[n]:.6g}")


def _shift_block(alpha: np.ndarray, r: np.ndarray, z: np.ndarray, gamma: float,
                 out: np.ndarray):
    """out = alpha - gamma * r * z for one block of nodes; r is (nodes, 1, 1, 1).

    The order (r * z, then * gamma, then alpha minus) is comid_group_update's.
    The product is the block's only temporary and is freed on return.
    """
    w = r * z
    w *= gamma
    np.subtract(alpha, w, out=out)


def _comid_step(alpha: np.ndarray, z: np.ndarray, sample: np.ndarray, gamma: float,
                lam: float, out: np.ndarray):
    """Predict, step and shrink all nodes of alpha (N, P, N, G) into out; z is (P, N, G).

    out has alpha's shape and may be alpha itself: the predictions read all
    of alpha before any block of out is written.  Returns (predictions,
    losses, post-shrink group norms).
    """
    yhat = np.einsum("npqd,pqd->n", alpha, z)
    resid = yhat - sample
    losses = 0.5 * resid * resid
    # out = alpha - gamma * resid * z, a block of nodes at a time; when all
    # nodes fit in one block the whole arrays go in, since cutting views
    # costs more than the arithmetic at small N
    r = resid[:, None, None, None]
    nodes = BLOCK_BYTES * len(alpha) // alpha.nbytes
    if nodes >= len(alpha):
        _shift_block(alpha, r, z, gamma, out)
    else:
        nodes = max(1, nodes)
        for i in range(0, len(alpha), nodes):
            b = slice(i, i + nodes)
            _shift_block(alpha[b], r[b], z, gamma, out[b])
    return yhat, losses, _shrink_groups(out, gamma * lam)[1]


def online_step(state: CoefficientState, history: np.ndarray, sample: np.ndarray,
                maps: FeatureMaps, gamma: float, lam: float, out: np.ndarray | None = None):
    """One full estimation step for all nodes from a new sample vector.

    history is the (P, N) lag window preceding `sample`; gamma is the raw
    step size for this iteration.  Builds z_t once, then updates each of
    the N*P groups of every node independently (the update is separable
    across groups).  Returns (new_state, predictions, losses), where
    predictions[n] = alpha_n^T z_t computed before the update.

    The new coefficients go to `out`, an array of state.alpha's shape that
    may be state.alpha itself; with out=None they go to a fresh array and
    `state` is left untouched.  On DivergenceError `out` holds the rejected
    iterate.
    """
    sample = _as_sample(sample, maps.N)
    z = build_feature_vector(history, maps)
    if out is None:
        out = np.empty(state.alpha.shape)
    yhat, losses, norms = _comid_step(state.alpha, z, sample, gamma, lam, out)
    if _diverged(out, norms):
        raise _divergence(f"estimator diverged at iteration {state.t + 1}", norms, yhat - sample)
    return CoefficientState(alpha=out, t=state.t + 1), yhat, losses


@dataclass
class EstimateSeries:
    """Per-sample outputs of an online run.

    group_norms[t, n, n', p] is the pseudo-adjacency entry
    ||alpha_{n,n'}^{(p)}[t]||_2 recorded *after* the update at time t, on
    the rows t = P (mod emit_every) of the run that made it; rows off that
    grid stay zero.  predictions and losses are NaN during the warm-up rows
    (t < P).
    """

    predictions: np.ndarray  # (N, T)
    losses: np.ndarray  # (N, T)
    group_norms: np.ndarray  # (T, N, N, P)
    state: CoefficientState
    config: EstimatorConfig


class LagWindow:
    """The (P, N) lag window of a stream and its warm-up count.

    rows[p] holds the sample p+1 steps back (row 0 = newest), zero where
    no sample has arrived yet.  The first P samples pushed only fill the
    window; `count` is how many it has taken so far, at most P.
    """

    def __init__(self, N: int, P: int, rows: np.ndarray | None = None,
                 count: int | None = None):
        self.rows = np.zeros((P, N)) if rows is None else np.array(rows, dtype=float)
        # a window given without a count is taken as full
        self.count = count if count is not None else (0 if rows is None else P)

    @property
    def full(self) -> bool:
        return self.count >= len(self.rows)

    def push(self, sample: np.ndarray):
        self.rows[1:] = self.rows[:-1]
        self.rows[0] = sample
        self.count = min(self.count + 1, len(self.rows))


class OnlineEstimator:
    """Streaming estimator: buffers the lag window and its lift, and updates alpha.

    Feed samples oldest-first through step(); the first P samples only
    fill the warm-up buffer and return None.  Each update is online_step's
    arithmetic; with shared maps the lift of the window is kept between
    updates and advanced by the newest sample only.  Subclasses change the
    lift by overriding _update.

    The estimator owns one coefficient array and every step updates it in
    place, so `state` is live: later steps change `state.alpha` and
    `state.t`, also in an EstimateSeries that run() returned.  A `state`
    passed to the constructor is copied once and never written; without one
    the estimator starts from its own zeros.  After a DivergenceError,
    `state.alpha` holds the rejected iterate and `state.t` is not advanced;
    the estimator is not meant to step on from there.
    """

    def __init__(self, cfg: EstimatorConfig, maps: FeatureMaps | None = None,
                 state: CoefficientState | None = None, history: np.ndarray | None = None,
                 warm: int | None = None):
        self.cfg = cfg
        if maps is not None:
            self.maps = maps
        if state is None:
            self.state = CoefficientState.zeros(cfg.N, cfg.P, cfg.D)
        else:
            self.state = CoefficientState(alpha=np.array(state.alpha, dtype=float, order="C"),
                                          t=state.t)
        self._window = LagWindow(cfg.N, cfg.P, history, warm)
        self._lifted = None  # the lift of the lag window, from the first update on

    @cached_property
    def maps(self) -> FeatureMaps:
        """The feature maps of the lift, drawn from the config on first use."""
        return FeatureMaps.from_config(self.cfg)

    @property
    def warmed_up(self) -> bool:
        return self._window.full

    @property
    def warm(self) -> int:
        """Samples taken into the warm-up buffer so far (at most P)."""
        return self._window.count

    @property
    def history(self) -> np.ndarray | None:
        """The lag window, or None before the first sample."""
        return None if self._window.count == 0 else self._window.rows.copy()

    def step(self, sample: np.ndarray):
        """Ingest one sample; returns (predictions, losses) or None during warm-up."""
        sample = _as_sample(sample, self.cfg.N)
        if not self._window.full:
            self._window.push(sample)
            return None
        out = self._update(self._window.rows, sample, self.cfg.step_size(self.state.t + 1))
        self.state.t += 1
        self._window.push(sample)
        return out

    def _update(self, history: np.ndarray, sample: np.ndarray, gamma: float):
        """Update state.alpha in place from the lifted window; returns (predictions, losses).

        The first update lifts the whole window with build_feature_vector,
        so a non-finite warm-up sample raises its ValueError there.  After
        each update the lift is shifted by one lag and only `sample` is
        lifted, by the same _lift, into the newest block; per-slot maps lift
        the whole window every time, since every lag has its own frequencies.
        """
        maps = self.maps
        if self._lifted is None or not maps.shared:
            self._lifted = build_feature_vector(history, maps)
        alpha = self.state.alpha
        yhat, losses, norms = _comid_step(alpha, self._lifted, sample, gamma, self.cfg.lam,
                                          alpha)
        if _diverged(alpha, norms):
            raise _divergence(f"estimator diverged at iteration {self.state.t + 1}", norms,
                              yhat - sample)
        if maps.shared:
            z = self._lifted
            z[1:] = z[:-1]
            _lift(sample, maps.frequencies[0], out=z[0])
        return yhat, losses

    def pseudo_adjacency(self) -> np.ndarray:
        """Current per-group norms arranged as (n, n', p)."""
        return np.transpose(group_norms(self.state.alpha), (0, 2, 1))

    def run(self, values: np.ndarray, start: int = 0, emit_every: int = 1) -> EstimateSeries:
        """Stream samples start..T-1 of an (N, T) series and record the trajectory.

        The arrays cover all T time indices, so a run resumed at `start`
        lines up with the uncut one; rows before `start` stay NaN
        (predictions, losses) and zero (group norms).  The pseudo-adjacency
        is computed only on the rows t = P (mod emit_every), the grid an
        estimates file of that thinning writes; the other rows of
        group_norms stay zero.  Predictions, losses and the state do not
        depend on emit_every.
        """
        values = np.asarray(values, dtype=float)
        N, T = values.shape
        if N != self.cfg.N:
            raise ValueError(f"series has {N} nodes, config expects {self.cfg.N}")
        if start < 0:
            raise ValueError(f"start must be nonnegative, got {start}")
        if emit_every < 1:
            raise ValueError(f"emit_every must be positive, got {emit_every}")
        if T - start <= self.cfg.P - self.warm:
            raise ValueError(f"series too short: need more than {self.cfg.P - self.warm} "
                             f"samples from t={start} (P={self.cfg.P})")
        preds = np.full((N, T), np.nan)
        losses = np.full((N, T), np.nan)
        P = self.cfg.P
        norms = np.zeros((T, N, N, P))
        for t in range(start, T):
            out = self.step(values[:, t])
            if out is not None:
                preds[:, t], losses[:, t] = out
            if (t - P) % emit_every == 0:
                norms[t] = self.pseudo_adjacency()
        return EstimateSeries(predictions=preds, losses=losses, group_norms=norms,
                              state=self.state, config=self.cfg)


@dataclass
class BatchResult:
    """Proximal-gradient solution of the batch group-lasso problem."""

    state: CoefficientState
    objectives: np.ndarray  # (N, iterations used) per-node objective traces
    converged: bool


def batch_oracle(data, cfg: EstimatorConfig, iterations: int = 2000,
                 tolerance: float = 1e-9, maps: FeatureMaps | None = None) -> BatchResult:
    """Minimize the full-batch objective per node by proximal gradient.

    Objective: 0.5 * sum_tau (y_n[tau] - alpha_n^T z_tau)^2
               + cfg.lam * sum_groups ||group||_2.
    The step is 1/L with L the largest eigenvalue of sum_tau z z^T,
    estimated by power iteration.  Stops when the relative objective
    decrease falls below `tolerance`; warns if that never happens within
    `iterations`.
    """
    values = data.values if isinstance(data, TimeSeries) else np.asarray(data, dtype=float)
    N, T = values.shape
    if T <= cfg.P:
        raise ValueError(f"need T > P, got T={T}, P={cfg.P}")
    if maps is None:
        maps = FeatureMaps.from_config(cfg)
    K = 2 * cfg.P * cfg.N * cfg.D
    Z = np.empty((T - cfg.P, K))
    for i, t in enumerate(range(cfg.P, T)):
        hist = values[:, t - cfg.P : t][:, ::-1].T
        Z[i] = build_feature_vector(hist, maps).ravel()
    G = Z.T @ Z
    # power iteration for the Lipschitz constant
    v = np.full(K, 1.0 / np.sqrt(K))
    lip = 1.0
    for _ in range(200):
        w = G @ v
        lip = float(np.linalg.norm(w))
        if lip == 0:
            break
        v = w / lip
    step = 1.0 / max(lip * 1.02, 1e-12)

    n_groups = cfg.N * cfg.P
    gdim = 2 * cfg.D
    alpha = np.zeros((N, cfg.P, cfg.N, gdim))
    obj_traces = []
    converged = True
    for n in range(N):
        y = values[n, cfg.P :]
        c = Z.T @ y
        yty = float(y @ y)
        a = np.zeros(K)
        objs = []
        prev = np.inf
        for _ in range(iterations):
            grad = G @ a - c
            u = (a - step * grad).reshape(n_groups, gdim)
            a = _shrink_groups(u, step * cfg.lam)[0].ravel()
            quad = 0.5 * (a @ (G @ a) - 2.0 * (c @ a) + yty)
            obj = quad + cfg.lam * group_norms(a.reshape(n_groups, gdim)).sum()
            objs.append(obj)
            if prev - obj < tolerance * max(abs(prev), 1.0):
                break
            prev = obj
        else:
            converged = False
            warnings.warn(f"batch_oracle: node {n} did not converge in {iterations} iterations")
        alpha[n] = a.reshape(cfg.P, cfg.N, gdim)
        obj_traces.append(np.array(objs))
    maxlen = max(len(o) for o in obj_traces)
    padded = np.full((N, maxlen), np.nan)
    for n, o in enumerate(obj_traces):
        padded[n, : len(o)] = o
    return BatchResult(state=CoefficientState(alpha=alpha, t=T - cfg.P),
                       objectives=padded, converged=converged)


def linear_baseline_step(alpha: np.ndarray, history: np.ndarray, sample: np.ndarray,
                         gamma: float, lam: float, out: np.ndarray | None = None):
    """Online step with raw lagged samples as features and scalar groups.

    alpha has shape (N, P, N): one coefficient per (node, lag, source).
    Same gradient-plus-shrinkage update as online_step, with the lag window
    as the lift and each coefficient its own group (soft-thresholding).
    Returns (new alpha, predictions, losses); the new alpha is written to
    `out` (alpha's shape, may be alpha itself) or, with out=None, to a fresh
    array.
    """
    # C order, as in build_feature_vector: a strided window would sum in another order
    history = np.ascontiguousarray(history, dtype=float)
    sample = np.asarray(sample, dtype=float)
    if history.shape != alpha.shape[1:]:
        raise ValueError(f"history must have shape {alpha.shape[1:]}, got {history.shape}")
    if out is None:
        out = np.empty(alpha.shape)
    yhat, losses, norms = _comid_step(alpha[..., None], history[..., None], sample, gamma,
                                      lam, out[..., None])
    if _diverged(out, norms):
        raise _divergence("linear baseline diverged", norms, yhat - sample)
    return out, yhat, losses


class LinearBaseline(OnlineEstimator):
    """Linear online comparator: the estimator with the identity lift.

    Its config has D = 1 and its state is (N, P, N, 1): one scalar group per
    (node, lag, source), so the shrink is per-coefficient soft-thresholding
    and the pseudo-adjacency is |alpha| arranged as (n, n', p).
    """

    def __init__(self, N: int, P: int, lam: float = 0.1, gamma: float = 1000.0,
                 schedule: str = "constant"):
        super().__init__(EstimatorConfig(N, P, D=1, lam=lam, gamma=gamma, schedule=schedule),
                         state=CoefficientState(alpha=np.zeros((N, P, N, 1))))

    @property
    def alpha(self) -> np.ndarray:
        """Read-only (N, P, N) view of the coefficients."""
        view = self.state.alpha[..., 0]
        view.flags.writeable = False
        return view

    def _update(self, history: np.ndarray, sample: np.ndarray, gamma: float):
        alpha = self.state.alpha[..., 0]
        _, yhat, losses = linear_baseline_step(alpha, history, sample, gamma, self.cfg.lam,
                                               out=alpha)
        return yhat, losses


class GrowingDictionaryEstimator:
    """Reference online kernel learner whose per-step cost grows with t.

    Keeps every past lag window as a dictionary atom and predicts with a
    kernel expansion over all of them, adding one atom per step (no
    window, no budget).  Exists to contrast its growing iteration cost
    against the fixed-cost estimator; the learning rule is plain
    kernel-weighted stochastic gradient on the newest atom.
    """

    def __init__(self, N: int, P: int, kernel_variance: float = 1.0, eta: float = 0.1):
        self.N, self.P = N, P
        self.kernel_variance = kernel_variance
        self.eta = eta
        self._atoms = []  # list of (N*P,) lag vectors
        self._weights = []  # list of (N,) coefficient columns
        self._window = LagWindow(N, P)

    @property
    def warmed_up(self) -> bool:
        return self._window.full

    @property
    def dictionary_size(self) -> int:
        return len(self._atoms)

    def step(self, sample: np.ndarray):
        sample = _as_sample(sample, self.N)
        if not self._window.full:
            self._window.push(sample)
            return None
        x = self._window.rows.ravel()
        if self._atoms:
            A = np.asarray(self._atoms)
            W = np.asarray(self._weights)  # (m, N)
            d2 = ((A - x) ** 2).sum(axis=1)
            k = np.exp(-d2 / (2.0 * self.kernel_variance))
            yhat = W.T @ k
        else:
            yhat = np.zeros(self.N)
        err = sample - yhat
        self._atoms.append(x.copy())
        self._weights.append(self.eta * err)
        self._window.push(sample)
        return yhat, 0.5 * err * err
