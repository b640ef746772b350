"""Synthetic multivariate time series from an additive nonlinear VAR model.

Each node's value is a weighted sum of nonlinear transforms of the P
lagged values of every node, plus Gaussian observation noise:

    y_n[t] = sum_{n'} sum_{p} a[n, n', p] * f_{n,n',p}(y_{n'}[t - p]) + u_n[t]

The adjacency coefficients a[n, n', p] define the ground-truth causal
topology.  Each transform f is a finite Gaussian-kernel expansion with
frozen random centers and weights.  Two time-varying regimes are
supported: abrupt edge switching (one active edge swapped for an inactive
one at a fixed cadence) and a slow sinusoidal drift of the active
coefficients.

`generate` keeps only the model recurrence in its per-sample loop: the
nonlinearity, the weighted sum and the noise add, evaluated in preallocated
buffers with the arithmetic of `step` and written straight into the series.
The rest is done once per segment of constant topology, the divergence
check included: one scan of the segment's |y| in t order raises the error
that a check after every sample would have raised first.  Every seeded output is
bit-identical to stepping `step`, `switch_edge` and `slow_drift` one sample
at a time, as earlier versions of `generate` did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ConfigError, DivergenceError
from .kernels import GaussianKernel

# Generated values beyond this magnitude abort the run instead of
# silently saturating to inf.
DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class Topology:
    """Ground-truth adjacency coefficients with an active-edge mask.

    coeffs[n, n', p] is the weight of the influence of node n' on node n
    at lag p+1; entries are zero wherever active is False.
    """

    coeffs: np.ndarray  # (N, N, P)
    active: np.ndarray  # (N, N, P) bool

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        active = np.array(self.active, dtype=bool)
        if coeffs.shape != active.shape or coeffs.ndim != 3:
            raise ValueError("coeffs and active must share an (N, N, P) shape")
        if np.any(coeffs[~active] != 0.0):
            raise ValueError("inactive slots must hold zero coefficients")
        coeffs.setflags(write=False)
        active.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "active", active)

    @property
    def N(self) -> int:
        return self.coeffs.shape[0]

    @property
    def P(self) -> int:
        return self.coeffs.shape[2]

    def n_active(self) -> int:
        return int(self.active.sum())


@dataclass(frozen=True)
class NonlinearityBank:
    """Frozen per-edge nonlinearities: Gaussian-kernel expansions.

    f_{n,n',p}(y) = sum_m weights[n,n',p,m] * exp(-(y - centers[n,n',p,m])^2 / (2 v))
    """

    centers: np.ndarray  # (N, N, P, M)
    weights: np.ndarray  # (N, N, P, M)
    kernel: GaussianKernel

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if centers.shape != weights.shape or centers.ndim != 4 or centers.shape[3] < 1:
            raise ValueError("centers and weights must share an (N, N, P, M) shape, M >= 1")
        centers.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class GeneratorConfig:
    N: int
    P: int
    T: int
    edge_probability: float = 0.1
    switch_interval: int = 0  # samples between edge switches, 0 = never
    drift: bool = False  # slow sinusoidal drift of active coefficients
    drift_scope: str = "all"  # "all" or "single" (lexicographically first active slot)
    noise_std: float = 0.01
    kernel_variance: float = 0.01  # bandwidth of the generating nonlinearities
    beta_variance: float = 30.0  # variance of the expansion weights
    M: int = 10  # kernel terms per nonlinearity
    seed: int = 0

    def __post_init__(self):
        if self.N < 1 or self.P < 1:
            raise ConfigError(f"N and P must be positive, got N={self.N}, P={self.P}")
        if self.T <= self.P:
            raise ConfigError(f"T must exceed P, got T={self.T}, P={self.P}")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ConfigError(f"edge_probability must be in [0, 1], got {self.edge_probability}")
        if self.switch_interval < 0:
            raise ConfigError("switch_interval must be nonnegative")
        if self.switch_interval and self.drift:
            raise ConfigError("switching and drift regimes are mutually exclusive")
        if self.drift_scope not in ("all", "single"):
            raise ConfigError(f"drift_scope must be 'all' or 'single', got {self.drift_scope!r}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be nonnegative")
        if self.kernel_variance <= 0 or self.beta_variance <= 0:
            raise ConfigError("kernel_variance and beta_variance must be positive")
        if self.M < 1:
            raise ConfigError("M must be at least 1")


@dataclass(frozen=True)
class TimeSeries:
    """Generated series with the per-sample ground truth that produced it."""

    values: np.ndarray  # (N, T)
    coeffs: np.ndarray  # (T, N, N, P), rows < P repeat the initial topology
    active: np.ndarray  # (T, N, N, P) bool
    config: GeneratorConfig
    seed: int


def init_topology(cfg: GeneratorConfig, rng: np.random.Generator | None = None) -> Topology:
    """Random topology: each slot active with cfg.edge_probability, U(0,1) weights."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    active = rng.random((cfg.N, cfg.N, cfg.P)) < cfg.edge_probability
    coeffs = np.where(active, rng.random((cfg.N, cfg.N, cfg.P)), 0.0)
    return Topology(coeffs=coeffs, active=active)


def init_bank(cfg: GeneratorConfig, rng: np.random.Generator) -> NonlinearityBank:
    """Draw the frozen nonlinearities: standard-normal centers, N(0, beta_variance) weights."""
    shape = (cfg.N, cfg.N, cfg.P, cfg.M)
    centers = rng.standard_normal(shape)
    weights = rng.standard_normal(shape) * np.sqrt(cfg.beta_variance)
    return NonlinearityBank(centers=centers, weights=weights, kernel=GaussianKernel(cfg.kernel_variance))


def switch_edge(topo: Topology, rng: np.random.Generator) -> Topology:
    """Deactivate one active slot and activate one inactive slot, both uniformly at random.

    The newly active slot receives a fresh U(0,1) weight; the total active
    count is unchanged.  Raises ConfigError when no switch is possible.
    """
    act_idx = np.argwhere(topo.active)
    inact_idx = np.argwhere(~topo.active)
    if len(act_idx) == 0 or len(inact_idx) == 0:
        raise ConfigError("no switch possible: need at least one active and one inactive slot")
    off = tuple(act_idx[rng.integers(len(act_idx))])
    on = tuple(inact_idx[rng.integers(len(inact_idx))])
    coeffs = topo.coeffs.copy()
    active = topo.active.copy()
    coeffs[off] = 0.0
    active[off] = False
    active[on] = True
    coeffs[on] = rng.random()
    return Topology(coeffs=coeffs, active=active)


def _drift_delta(t):
    """The drift increment applied after sample t; t may be an array of samples."""
    return 0.01 * np.sin(0.03 * t)


def slow_drift(topo: Topology, t: int) -> Topology:
    """Increment every active coefficient by 0.01 * sin(0.03 t)."""
    coeffs = np.where(topo.active, topo.coeffs + _drift_delta(t), 0.0)
    return Topology(coeffs=coeffs, active=topo.active)


def _drift_single(topo: Topology, t: int) -> Topology:
    """Drift only the lexicographically first active slot."""
    idx = np.argwhere(topo.active)
    if len(idx) == 0:
        return topo
    coeffs = topo.coeffs.copy()
    coeffs[tuple(idx[0])] += _drift_delta(t)
    return Topology(coeffs=coeffs, active=topo.active)


def _nonlinearity_into(bank: NonlinearityBank, x: np.ndarray, buf: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Write f_{n,n',p}(x[0, n', p, 0]) into out (N, N, P); buf is (N, N, P, M) scratch.

    (d*d) / (-2v) equals -(d*d) / (2v) exactly in IEEE arithmetic.
    """
    np.subtract(x, bank.centers, out=buf)
    np.multiply(buf, buf, out=buf)
    np.divide(buf, -2.0 * bank.kernel.variance, out=buf)
    np.exp(buf, out=buf)
    np.multiply(bank.weights, buf, out=buf)
    return np.add.reduce(buf, axis=-1, out=out)


def _weighted_sum(coeffs: np.ndarray, f: np.ndarray, noise, out=None) -> np.ndarray:
    """y_n = sum_{n',p} coeffs[n,n',p] * f[n,n',p] + noise_n; overwrites f."""
    np.multiply(coeffs, f, out=f)
    y = np.add.reduce(f, axis=(1, 2), out=out)
    return np.add(y, noise, out=y)


def evaluate_nonlinearity(bank: NonlinearityBank, lags: np.ndarray) -> np.ndarray:
    """Evaluate every f_{n,n',p} at its own lagged input.

    lags[p, n'] holds y_{n'}[t - (p+1)].  Returns an (N, N, P) array whose
    (n, n', p) entry is f_{n,n',p}(lags[p, n']).
    """
    x = lags.T[None, :, :, None]  # x[0, n', p, 0]
    return _nonlinearity_into(bank, x, np.empty(bank.centers.shape),
                              np.empty(bank.centers.shape[:3]))


def step(topo: Topology, bank: NonlinearityBank, history: np.ndarray,
         noise: np.ndarray) -> np.ndarray:
    """One model step: y_n = sum_{n',p} a[n,n',p] * f_{n,n',p}(history[p,n']) + noise_n.

    history[p, n'] holds y_{n'}[t - (p+1)], i.e. row 0 is the most recent
    past sample.  Raises DivergenceError on non-finite history.
    """
    history = np.asarray(history, dtype=float)
    if history.shape != (topo.P, topo.N):
        raise ValueError(f"history must have shape (P, N) = {(topo.P, topo.N)}, got {history.shape}")
    if not np.isfinite(history).all():
        raise DivergenceError("generation diverged: non-finite history")
    return _weighted_sum(topo.coeffs, evaluate_nonlinearity(bank, history), noise)


def _recur(bank: NonlinearityBank, values: np.ndarray, coeffs: np.ndarray,
           noise: np.ndarray, start: int):
    """Fill values[:, start : start + len(noise)] by the model recurrence, in place.

    Sample t uses the lagged values before it, the trace row coeffs[t] and
    the noise row noise[t - start].  The checks are those of step() and of
    generate's per-sample limit, made by one scan after the loop: the
    first sample whose |y| exceeds DIVERGENCE_LIMIT raises at its own t, a
    NaN sample before it raises as non-finite history (the next sample's),
    and a NaN in the series' last sample is returned.  Samples after the
    first bad one are computed and discarded; the scan reports the error,
    so their floating-point overflow is not warned about.
    """
    N, T = values.shape
    P = coeffs.shape[-1]
    buf = np.empty(bank.centers.shape)
    f = np.empty(bank.centers.shape[:3])
    # lags[T - t] is the (1, N, P, 1) view whose [0, n', p, 0] is y_{n'}[t-1-p]
    lags = sliding_window_view(values[:, ::-1], P, axis=1).transpose(1, 0, 2)[:, None, :, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, e in enumerate(noise, start):
            _nonlinearity_into(bank, lags[T - t], buf, f)
            _weighted_sum(coeffs[t], f, e, out=values[:, t])
    segment = values[:, start:start + len(noise)]
    # max |y| per sample without an |y| copy of the segment; NaN propagates
    peak = np.maximum(segment.max(axis=0), -segment.min(axis=0))
    bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))
    if len(bad) == 0:
        return
    t = start + int(bad[0])
    if peak[bad[0]] > DIVERGENCE_LIMIT:
        raise DivergenceError(f"generation diverged at t={t}: |y| > {DIVERGENCE_LIMIT:g}")
    if t + 1 < T:
        raise DivergenceError("generation diverged: non-finite history")


def generate(cfg: GeneratorConfig) -> TimeSeries:
    """Generate a full series with its per-sample topology trace.

    The first P samples are iid standard normal; the rest follow the
    model.  In switching mode the topology changes after every
    switch_interval generated samples; in drift mode the active
    coefficients drift every sample.  A pure function of cfg (the seed is
    part of the config).  Raises ConfigError when a switch falls within
    the series but the seed's initial topology has no active or no
    inactive slot.

    Only the model recurrence runs per sample.  The series is generated in
    segments of constant topology (one segment unless switching): each
    segment's noise is drawn as one block before switch_edge's draws, the
    order in which one draw per sample would come, and its coeffs/active
    trace rows are filled at once.  The drift trace is one cumulative sum
    along t, which adds the increments in slow_drift's order.
    """
    rng = np.random.default_rng(cfg.seed)
    topo = init_topology(cfg, rng)
    bank = init_bank(cfg, rng)
    n_active = topo.n_active()
    switches = cfg.switch_interval and cfg.T - cfg.P >= cfg.switch_interval
    if switches and n_active in (0, topo.active.size):
        raise ConfigError(
            f"seed {cfg.seed}: the initial topology has {n_active} of {topo.active.size} "
            f"slots active, so no edge can switch every {cfg.switch_interval} samples")

    N, P, T = cfg.N, cfg.P, cfg.T
    values = np.empty((N, T))
    values[:, :P] = rng.standard_normal((N, P))
    coeffs = np.empty((T, N, N, P))
    active = np.empty((T, N, N, P), dtype=bool)
    coeffs[:P] = topo.coeffs
    active[:P] = topo.active
    if cfg.drift:
        drifting = topo.active
        if cfg.drift_scope == "single":  # the lexicographically first active slot
            drifting = np.zeros_like(topo.active)
            drifting.flat[np.flatnonzero(topo.active)[:1]] = True
        coeffs[P] = topo.coeffs
        coeffs[P + 1:] = 0.0
        np.copyto(coeffs[P + 1:], _drift_delta(np.arange(P, T - 1))[:, None, None, None],
                  where=drifting)
        np.cumsum(coeffs[P:], axis=0, out=coeffs[P:])
        active[P:] = topo.active

    segment = cfg.switch_interval or T - P
    for start in range(P, T, segment):
        stop = min(start + segment, T)
        noise = cfg.noise_std * rng.standard_normal((stop - start, N))
        if not cfg.drift:
            coeffs[start:stop] = topo.coeffs
            active[start:stop] = topo.active
        _recur(bank, values, coeffs, noise, start)
        if stop < T:
            topo = switch_edge(topo, rng)

    return TimeSeries(values=values, coeffs=coeffs, active=active, config=cfg, seed=cfg.seed)
