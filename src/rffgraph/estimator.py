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
whole window at every update.)  Then the one checked step, _comid_step,
makes four passes over the (N, P, N, 2D) coefficient array alpha: one
einsum for the predictions, u = alpha - step * r * z built one block of
nodes at a time, one einsum for the group norms of u, and an in-place
scale of u.  Each block of u is formed in a temporary of at most
BLOCK_BYTES (one node's row when that is larger), which stays in L2, and
written straight into the output, which the streaming estimator points at
alpha itself.  So a run holds one alpha plus one block, and the memory per
iteration is fixed like its cost.  The shrink returns the post-shrink
group norms, and the one divergence guard (every entry finite and at most
ALPHA_LIMIT in magnitude) first looks at those N*P*N norms: a group's norm
bounds its entries, so the full scan of the array runs only when some norm
is NaN or above ALPHA_LIMIT / 2, and then decides.  Every entry point
checks the sample's shape once, before anything is written.

Lockstep: an OnlineEstimator made with a list of R configs that differ
in their rff_seed only steps their R runs at once.  Every array gains a
leading run axis, and each numpy call of a step serves the whole batch.
The arithmetic of each run is the one it gets alone, bit for bit: every operation is elementwise or reduces a
trailing axis of one run's arrays (the predictions' einsum over the last
three axes, the group norms over the last), so a run's bits do not depend
on the runs beside it.  `split` hands back each run as a single-run
estimator.

Step-size convention: EstimatorConfig.gamma is the proximal damping
weight, i.e. the squared-proximity term carries weight gamma/2 and the
resulting gradient step is 1/gamma.  Large gamma therefore means strong
damping and small steps.  (The raw step size itself is the `gamma`
argument of the low-level update functions.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, DivergenceError
from .kernels import GaussianKernel, sample_frequencies

ALPHA_LIMIT = 1e12  # coefficient magnitude beyond which the run is declared divergent
BLOCK_BYTES = 256 * 1024  # scratch for one block of nodes of the update, sized to stay in L2


def lockstep_runs(cfg: EstimatorConfig) -> int:
    """How many runs of cfg's shape step as one batch: as many as fit their
    alpha in BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (8 * cfg.N * cfg.P * cfg.N * 2 * cfg.D))


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
    y_{n'}[t-p-1] through its row frequencies[p, n'].  With runs=R the
    array and `frequencies` have a leading axis of the R runs of a batch
    (see `from_configs`).
    """

    def __init__(self, frequencies: np.ndarray, N: int, P: int, runs: int | None = None):
        lead = () if runs is None else (runs,)
        self.N, self.P, self.D = N, P, frequencies.shape[-1]
        self.shared = frequencies.ndim == len(lead) + 1
        if self.shared:
            frequencies = frequencies[..., None, None, :]
        self.frequencies = np.broadcast_to(frequencies, lead + (P, N, self.D))

    @classmethod
    def from_config(cls, cfg: EstimatorConfig) -> "FeatureMaps":
        return cls(cls._draw(cfg), cfg.N, cfg.P)

    @classmethod
    def from_configs(cls, cfgs: list[EstimatorConfig]) -> "FeatureMaps":
        """The maps of a lockstep batch: cfgs[i]'s at index i of a leading axis."""
        return cls(np.stack([cls._draw(c) for c in cfgs]), cfgs[0].N, cfgs[0].P, len(cfgs))

    @staticmethod
    def _draw(cfg: EstimatorConfig) -> np.ndarray:
        kernel = GaussianKernel(cfg.kernel_variance)
        if not cfg.per_slot_maps:
            return sample_frequencies(kernel, cfg.D, cfg.rff_seed).frequencies
        # slot (p, n') draws with seed rff_seed + p * N + n'
        seeds = range(cfg.rff_seed, cfg.rff_seed + cfg.P * cfg.N)
        grid = np.stack([sample_frequencies(kernel, cfg.D, s).frequencies for s in seeds])
        return grid.reshape(cfg.P, cfg.N, cfg.D)


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
    def zeros(cls, N: int, P: int, D: int, t: int = 0, lead: tuple = ()) -> "CoefficientState":
        return cls(alpha=np.zeros(lead + (N, P, N, 2 * D)), t=t)


def build_feature_vector(history: np.ndarray, maps: FeatureMaps) -> np.ndarray:
    """Lift the lag window into the stacked feature array of shape (P, N, 2D).

    history[p, n'] must hold y_{n'}[t - (p+1)] (row 0 = newest past
    sample).  Block (p, n') of the result equals the feature map of slot
    (p, n') evaluated at history[p, n']; .ravel() yields the stacked
    2*P*N*D vector.  Maps of a batch lift an (R, P, N) history of its runs.
    """
    # C order, so that z and the step's buffers built from it are C-ordered too
    history = np.ascontiguousarray(history, dtype=float)
    shape = maps.frequencies.shape[:-1]  # (P, N), after the run axis of a batch's maps
    if history.shape != shape:
        axes = "(P, N)" if len(shape) == 2 else "(runs, P, N)"
        raise ValueError(f"history must have shape {axes} = {shape}, got {history.shape}")
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


def _as_sample(sample, N: int, lead: tuple = ()) -> np.ndarray:
    """sample as a float array of shape lead + (N,); any other shape is a ValueError."""
    sample = np.asarray(sample, dtype=float)
    if sample.shape != lead + (N,):
        raise ValueError(f"sample must have shape {lead + (N,)}, got {sample.shape}")
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


def _reject_diverged(alpha: np.ndarray, norms: np.ndarray, resid: np.ndarray, what: str,
                     iteration: int | None):
    """The divergence guard: a DivergenceError when some entry of alpha is
    non-finite or beyond ALPHA_LIMIT, naming the node with the largest of
    that run's (N, P, N) group norms (NaN counts as largest) and its resid.

    alpha may have a leading run axis; the error is that of the first run
    that diverged, and its `run` is that run's index (None without the
    axis).  Each norm bounds its group's entries and a NaN fails the
    comparison, so the exact scan runs only when some norm is NaN or above
    half the limit; the scan alone decides, and only then is the message
    made.
    """
    if norms.max() <= 0.5 * ALPHA_LIMIT:
        return
    for i in np.ndindex(alpha.shape[:-4]):
        if np.isfinite(alpha[i]).all() and np.abs(alpha[i]).max() <= ALPHA_LIMIT:
            continue
        n, p, q = np.unravel_index(np.argmax(norms[i]), norms[i].shape)
        at = "" if iteration is None else f" at iteration {iteration}"
        raise DivergenceError(f"{what} diverged{at}: node {n} has the largest group norm "
                              f"{norms[i][n, p, q]:.6g} (source {q}, lag {p + 1}); its last "
                              f"residual was {resid[i][n]:.6g}", run=i[0] if i else None)


def _shift_block(alpha: np.ndarray, r: np.ndarray, z: np.ndarray, gamma: float,
                 out: np.ndarray):
    """out = alpha - gamma * r * z for one block of nodes; r is (..., nodes, 1, 1, 1)
    and z broadcasts against alpha.

    The order (r * z, then * gamma, then alpha minus) is comid_group_update's.
    The product is the block's only temporary and is freed on return.
    """
    w = r * z
    w *= gamma
    np.subtract(alpha, w, out=out)


def _comid_step(alpha: np.ndarray, z: np.ndarray, sample: np.ndarray, gamma: float,
                lam: float, out: np.ndarray | None, what: str, iteration: int | None = None):
    """Predict, step, shrink and check all nodes of alpha (..., N, P, N, G); z
    is (..., P, N, G) and sample (..., N), the leading axes those of a batch.

    out (None: a fresh array) has alpha's shape and may be alpha itself: the
    predictions read all of alpha before any block of out is written.  A
    diverged iterate stays in out, and the DivergenceError names `what` and
    `iteration`.  Returns (out, predictions, losses).
    """
    if out is None:
        out = np.empty(alpha.shape)
    yhat = np.einsum("...npqd,...pqd->...n", alpha, z)
    resid = yhat - sample
    losses = 0.5 * resid * resid
    # out = alpha - gamma * resid * z, a block of nodes at a time; when the
    # whole batch fits in one block the whole arrays go in, since cutting
    # views costs more than the arithmetic at small N
    r = resid[..., None, None, None]
    if alpha.nbytes <= BLOCK_BYTES:
        _shift_block(alpha, r, z[..., None, :, :, :], gamma, out)
    else:
        N, run_bytes = alpha.shape[-4], alpha.nbytes // math.prod(alpha.shape[:-4])
        nodes = max(1, BLOCK_BYTES * N // run_bytes)
        # a batch goes a run at a time
        runs = zip(alpha, r, z, out) if alpha.ndim > 4 else [(alpha, r, z, out)]
        for a, rr, zz, o in runs:
            for j in range(0, N, nodes):
                b = slice(j, j + nodes)
                _shift_block(a[b], rr[b], zz, gamma, o[b])
    _reject_diverged(out, _shrink_groups(out, gamma * lam)[1], resid, what, iteration)
    return out, yhat, losses


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
    `state` is left untouched.  A sample not of shape (N,) is a ValueError
    before any write; on DivergenceError `out` holds the rejected iterate.
    """
    sample = _as_sample(sample, maps.N)
    z = build_feature_vector(history, maps)
    out, yhat, losses = _comid_step(state.alpha, z, sample, gamma, lam, out, "estimator",
                                    state.t + 1)
    return CoefficientState(alpha=out, t=state.t + 1), yhat, losses


@dataclass
class EstimateSeries:
    """Per-sample outputs of an online run and the state it ended in.

    group_norms[t, n, n', p] is the pseudo-adjacency entry
    ||alpha_{n,n'}^{(p)}[t]||_2 recorded *after* the update at time t, on
    the rows t = P (mod emit_every) of the run that made it; rows off that
    grid stay zero.  predictions are NaN during the warm-up rows (t < P).
    A lockstep run puts its runs on a leading axis of both.
    """

    predictions: np.ndarray  # (N, T)
    group_norms: np.ndarray  # (T, N, N, P)
    state: CoefficientState


class LagWindow:
    """The (P, N) lag window of a stream and its warm-up count.

    rows[p] holds the sample p+1 steps back (row 0 = newest), zero where
    no sample has arrived yet.  The first P samples pushed only fill the
    window; `count` is how many it has taken so far, at most P.  The
    windows of a lockstep batch are one (R, P, N) array, pushed (R, N)
    samples, with one count.
    """

    def __init__(self, N: int, P: int, rows: np.ndarray | None = None,
                 count: int | None = None, lead: tuple = ()):
        self.rows = np.zeros(lead + (P, N)) if rows is None else np.array(rows, dtype=float)
        # a window given without a count is taken as full
        self.count = count if count is not None else (0 if rows is None else P)
        # the views push writes through, made once: at small N indexing
        # costs as much as the copy
        self._older, self._newer = self.rows[..., 1:, :], self.rows[..., :-1, :]
        self._newest = self.rows[..., 0, :]

    @property
    def full(self) -> bool:
        return self.count >= self.rows.shape[-2]

    def push(self, sample: np.ndarray):
        self._older[...] = self._newer
        self._newest[...] = sample
        self.count = min(self.count + 1, self.rows.shape[-2])


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

    Given a list of R configs that differ in their rff_seed only, it steps
    their R runs in lockstep (see the module docstring): samples are
    (R, N), series (R, N, T), and alpha, the window, the maps, the
    predictions and the pseudo-adjacency all gain a leading run axis.  A DivergenceError is the
    first run's to diverge, at the first sample where one does; its `run`
    is that run's index in the list.  `split` returns the runs as
    single-run estimators.
    """

    def __init__(self, cfg: EstimatorConfig | list[EstimatorConfig],
                 maps: FeatureMaps | None = None, state: CoefficientState | None = None,
                 history: np.ndarray | None = None, warm: int | None = None):
        # the configs of a lockstep batch's runs; None for one run
        self._configs = None if isinstance(cfg, EstimatorConfig) else list(cfg)
        if self._configs is not None:
            cfg = self._configs[0] if self._configs else None
            if cfg is None or any(replace(c, rff_seed=cfg.rff_seed) != cfg
                                  for c in self._configs):
                raise ValueError("the configs of a lockstep batch must differ in their "
                                 "rff_seed only")
        self.cfg = cfg
        self._lead = () if self._configs is None else (len(self._configs),)
        if maps is not None:
            self.maps = maps
        if state is None:
            self.state = CoefficientState.zeros(cfg.N, cfg.P, cfg.D, lead=self._lead)
        else:
            self.state = CoefficientState(alpha=np.array(state.alpha, dtype=float, order="C"),
                                          t=state.t)
        self._window = LagWindow(cfg.N, cfg.P, history, warm, self._lead)
        self._lifted = None  # the lift of the lag window, from the first update on

    @cached_property
    def maps(self) -> FeatureMaps:
        """The feature maps of the lift, drawn from the config on first use."""
        if self._configs is None:
            return FeatureMaps.from_config(self.cfg)
        return FeatureMaps.from_configs(self._configs)

    def split(self) -> list[OnlineEstimator]:
        """The runs of a lockstep estimator as single-run estimators, each with
        a copy of its state and lag window, so that each steps on as that run
        alone would: its first update lifts the window afresh, which gives the
        kept lift's bits, as after a resume."""
        maps = self.maps
        runs = []
        for i, cfg in enumerate(self._configs):
            freqs = maps.frequencies[i, 0, 0] if maps.shared else maps.frequencies[i]
            est = OnlineEstimator(cfg, FeatureMaps(freqs, cfg.N, cfg.P),
                                  CoefficientState(self.state.alpha[i], self.state.t),
                                  self._window.rows[i], self._window.count)
            runs.append(est)
        return runs

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
        sample = _as_sample(sample, self.cfg.N, self._lead)
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
            self._lifted = z = build_feature_vector(history, maps)
            if maps.shared:  # the views the shift writes through, made once, as in LagWindow
                self._shift = (z[..., 1:, :, :], z[..., :-1, :, :], z[..., 0, :, :],
                               maps.frequencies[..., 0, :, :])
        alpha = self.state.alpha
        _, yhat, losses = _comid_step(alpha, self._lifted, sample, gamma, self.cfg.lam, alpha,
                                      "estimator", self.state.t + 1)
        if maps.shared:
            older, newer, newest, frequencies = self._shift
            older[...] = newer
            _lift(sample, frequencies, out=newest)
        return yhat, losses

    def pseudo_adjacency(self) -> np.ndarray:
        """Current per-group norms arranged as (n, n', p)."""
        return np.swapaxes(group_norms(self.state.alpha), -1, -2)

    def run(self, values: np.ndarray, start: int = 0, emit_every: int = 1) -> EstimateSeries:
        """Stream samples start..T-1 of an (N, T) series and record the trajectory.

        The arrays cover all T time indices, so a run resumed at `start`
        lines up with the uncut one; rows before `start` stay NaN
        (predictions) and zero (group norms).  The pseudo-adjacency is
        computed only on the rows t = P (mod emit_every), the grid an
        estimates file of that thinning writes; the other rows of
        group_norms stay zero.  Predictions and the state do not depend on
        emit_every.  No loss is recorded: step's loss of sample t is
        0.5 * d * d of d = values[:, t] - predictions[:, t].
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != len(self._lead) + 2 or values.shape[:-2] != self._lead:
            raise ValueError(f"series must have shape {self._lead + ('N', 'T')}, "
                             f"got {values.shape}")
        N, T = values.shape[-2:]
        if N != self.cfg.N:
            raise ValueError(f"series has {N} nodes, config expects {self.cfg.N}")
        if start < 0:
            raise ValueError(f"start must be nonnegative, got {start}")
        if emit_every < 1:
            raise ValueError(f"emit_every must be positive, got {emit_every}")
        if T - start <= self.cfg.P - self.warm:
            raise ValueError(f"series too short: need more than {self.cfg.P - self.warm} "
                             f"samples from t={start} (P={self.cfg.P})")
        lead, P = self._lead, self.cfg.P
        preds = np.full(lead + (N, T), np.nan)
        norms = np.zeros(lead + (T, N, N, P))
        # per-sample views along t: rows[t] is sample t, and so on
        rows, pred_rows = np.moveaxis(values, -1, 0), np.moveaxis(preds, -1, 0)
        norm_rows = np.moveaxis(norms, -4, 0)
        for t in range(start, T):
            out = self.step(rows[t])
            if out is not None:
                pred_rows[t] = out[0]
            if (t - P) % emit_every == 0:
                norm_rows[t] = self.pseudo_adjacency()
        return EstimateSeries(predictions=preds, group_norms=norms, state=self.state)


@dataclass
class BatchResult:
    """Proximal-gradient solution of the batch group-lasso problem."""

    state: CoefficientState
    objectives: np.ndarray  # (N, iterations used) per-node objective traces
    converged: bool


def batch_oracle(data, cfg: EstimatorConfig, iterations: int = 2000,
                 tolerance: float = 1e-9, maps: FeatureMaps | None = None) -> BatchResult:
    """Minimize the full-batch objective per node of the (N, T) series
    data by proximal gradient.

    Objective: 0.5 * sum_tau (y_n[tau] - alpha_n^T z_tau)^2
               + cfg.lam * sum_groups ||group||_2.
    The step is 1/L with L the largest eigenvalue of sum_tau z z^T,
    estimated by power iteration.  Stops when the relative objective
    decrease falls below `tolerance`; warns if that never happens within
    `iterations`.
    """
    values = np.asarray(data, dtype=float)
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
    array.  Shapes are checked before any write; a DivergenceError names no
    iteration, which this step does not count.
    """
    # C order, as in build_feature_vector: a strided window would sum in another order
    history = np.ascontiguousarray(history, dtype=float)
    if history.shape != alpha.shape[1:]:
        raise ValueError(f"history must have shape {alpha.shape[1:]}, got {history.shape}")
    sample = _as_sample(sample, len(alpha))
    out, yhat, losses = _comid_step(alpha[..., None], history[..., None], sample, gamma, lam,
                                    None if out is None else out[..., None], "linear baseline")
    return out[..., 0], yhat, losses


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
        alpha = self.state.alpha
        _, yhat, losses = _comid_step(alpha, history[..., None], sample, gamma, self.cfg.lam,
                                      alpha, "linear baseline", self.state.t + 1)
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
        if N < 1 or P < 1:
            raise ConfigError(f"N, P must be positive, got ({N}, {P})")
        for name, value in (("kernel_variance", kernel_variance), ("eta", eta)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
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
