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
nonlinearity, the weighted sum and the noise add, in preallocated buffers
with the arithmetic of `step`.  The rest is done once per segment of
constant topology, the divergence check included.  The ground truth is a
`TopologyTrace` of one state per segment and one record per change;
`TimeSeries.coeffs` and `.active` forward-fill it to one row per sample on
demand.  A drift run's coefficients are made by one law, `_drift_rows`, a
block of samples at a time, each block carried on from the last row of the
one before: the recurrence reads them a block at a time, and its trace is
one record that keeps the law (initial coefficients and drifting mask) in
place of a row per sample, so no per-sample table is ever held.  Every
seeded output is bit-identical to stepping `step`, `switch_edge` and
`slow_drift` one sample at a time.

`generate` given a list of configs that differ in their seeds only
generates their runs in lockstep: their series, nonlinearities and
coefficient rows are stacked on a leading run axis, and each numpy call of
the recurrence serves every run.  Every operation is elementwise or
reduces trailing axes of one run's arrays, so each run gets the bits it
gets alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ConfigError, DivergenceError
from .kernels import GaussianKernel

# Generated values beyond this magnitude abort the run instead of
# silently saturating to inf.
DIVERGENCE_LIMIT = 1e6
# One sample's nonlinearity scratch for a batch of runs, and one block of
# drift coefficient rows for them, sized for L2.
BLOCK_BYTES = 256 * 1024


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
class TopologyTrace:
    """The topology over time: its states and one (t, state) record per change.

    starts holds the records' t values sorted (equal ones keep their order),
    which the state index of each; active (and coeffs, when kept) stack the
    states, shape (states, N, N, P).

    A drift trace (drifting given) is one record, at t = P, whose state is
    the law of every sample's coefficients: coeffs holds the initial
    coefficients and drifting the mask of the slots that drift, and the
    coefficients of sample t are row max(t - P, 0) of `_drift_rows`, made
    again when asked for.  Its mask does not change.
    """

    starts: np.ndarray
    which: np.ndarray
    active: np.ndarray
    coeffs: np.ndarray | None = None
    drifting: np.ndarray | None = None

    def states_at(self, t) -> np.ndarray:
        """The state index in force at each time t: the last record at or
        before it (of equal ones, the last), before the first the first."""
        i = np.searchsorted(self.starts, t, side="right") - 1
        return self.which[np.maximum(i, 0)]

    def active_at(self, t) -> np.ndarray:
        """The (len(t), N, N, P) active masks at times t."""
        return self.active[self.states_at(t)]

    def coeffs_at(self, t) -> np.ndarray:
        """The (len(t), N, N, P) coefficients at times t; a ValueError for a
        trace that keeps none (one read from a topology file).  A drift
        trace makes its rows up to the last one asked for."""
        if self.coeffs is None:
            raise ValueError("this trace keeps no coefficients: a trace read from a topology "
                             "file keeps only its active masks")
        if self.drifting is None:
            return self.coeffs[self.states_at(t)]
        k = np.maximum(np.asarray(t) - self.starts[0], 0)
        return _drift_rows(self.coeffs[0], self.drifting, 0, int(k.max(initial=0)) + 1)[k]


@dataclass(frozen=True)
class TimeSeries:
    """Generated series with the topology trace that produced it; coeffs and
    active are the trace forward-filled to (T, N, N, P), built on first use."""

    values: np.ndarray  # (N, T)
    topology: TopologyTrace
    config: GeneratorConfig

    @cached_property
    def coeffs(self) -> np.ndarray:
        return self.topology.coeffs_at(np.arange(self.values.shape[1]))

    @cached_property
    def active(self) -> np.ndarray:
        return self.topology.active_at(np.arange(self.values.shape[1]))


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


def _drift_rows(carried: np.ndarray, drifting: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows a..b-1 of a drift run's coefficients, row k being those of
    sample P + k: row 0 is the initial coefficients, and row k adds
    _drift_delta(P + k - 1) to row k - 1 in the drifting slots, by one
    sequential np.cumsum along t, slow_drift's order.

    carried is row a - 1, or the initial coefficients when a = 0, and
    drifting the mask of the slots that drift, both (..., N, N, P) with a
    leading run axis for a lockstep batch; the rows are (..., b - a, N, N, P).
    The sum is sequential, so rows made block by block, each block carried
    on from the last row of the one before, equal the whole table bit for
    bit.
    """
    first = max(a, 1) - 1  # the row carried in
    P = carried.shape[-1]
    rows = np.zeros(carried.shape[:-3] + (b - first,) + carried.shape[-3:])
    rows[..., 0, :, :, :] = carried
    np.copyto(rows[..., 1:, :, :, :],
              _drift_delta(np.arange(P + first, P + b - 1))[:, None, None, None],
              where=drifting[..., None, :, :, :])
    np.cumsum(rows, axis=-4, out=rows)
    return rows[..., a - first:, :, :, :]


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


def _nonlinearity_into(centers: np.ndarray, weights: np.ndarray, variance: float,
                       x: np.ndarray, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write f_{n,n',p}(x[..., 0, n', p, 0]) into out (..., N, N, P) for the
    (..., N, N, P, M) centers and weights of a bank, or of the banks of a
    lockstep batch stacked on a leading axis; buf is scratch of their shape.

    (d*d) / (-2v) equals -(d*d) / (2v) exactly in IEEE arithmetic.
    """
    np.subtract(x, centers, out=buf)
    np.multiply(buf, buf, out=buf)
    np.divide(buf, -2.0 * variance, out=buf)
    np.exp(buf, out=buf)
    np.multiply(weights, buf, out=buf)
    return np.add.reduce(buf, axis=-1, out=out)


def _weighted_sum(coeffs: np.ndarray, f: np.ndarray, noise, out=None) -> np.ndarray:
    """y_n = sum_{n',p} coeffs[..., n,n',p] * f[..., n,n',p] + noise_n; overwrites f."""
    np.multiply(coeffs, f, out=f)
    y = np.add.reduce(f, axis=(-2, -1), out=out)
    return np.add(y, noise, out=y)


def evaluate_nonlinearity(bank: NonlinearityBank, lags: np.ndarray) -> np.ndarray:
    """Evaluate every f_{n,n',p} at its own lagged input.

    lags[p, n'] holds y_{n'}[t - (p+1)].  Returns an (N, N, P) array whose
    (n, n', p) entry is f_{n,n',p}(lags[p, n']).
    """
    x = lags.T[None, :, :, None]  # x[0, n', p, 0]
    return _nonlinearity_into(bank.centers, bank.weights, bank.kernel.variance, x,
                              np.empty(bank.centers.shape), np.empty(bank.centers.shape[:3]))


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


def _recur(centers: np.ndarray, weights: np.ndarray, variance: float, values: np.ndarray,
           coeffs: np.ndarray, noise: np.ndarray, start: int):
    """Fill values[..., start : start + len] by the model recurrence, in place.

    values is (N, T), coeffs (len, N, N, P) and noise (len, N) with the
    (N, N, P, M) centers and weights of a bank, or for the runs of a
    lockstep batch (R, N, T), (R, len, N, N, P) and (R, len, N) with their
    banks' (R, N, N, P, M) centers and weights.  Sample t uses the lagged
    values before it and the rows coeffs[..., t - start, :, :, :] and
    noise[..., t - start, :].  Nothing is checked here: `_check_divergence`
    scans the samples afterwards, so their floating-point overflow is not
    warned about.
    """
    T = values.shape[-1]
    P = coeffs.shape[-1]
    length = noise.shape[-2]
    buf = np.empty(centers.shape)
    f = np.empty(centers.shape[:-1])
    # lags[T - t] is the (..., 1, N, P, 1) view whose [..., 0, n', p, 0] is y_{n'}[t-1-p]
    windows = sliding_window_view(values[..., ::-1], P, axis=-1)  # (..., N, T - P + 1, P)
    lags = np.moveaxis(windows, -2, 0)[..., None, :, :, None]
    # per-sample views along t, as the loop reads them
    rows, shocks = np.moveaxis(coeffs, -4, 0), np.moveaxis(noise, -2, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(start, start + length):
            _nonlinearity_into(centers, weights, variance, lags[T - t], buf, f)
            _weighted_sum(rows[t - start], f, shocks[t - start], out=values[..., t])


def _check_divergence(values: np.ndarray, start: int, end: int):
    """The checks of step() and of generate's per-sample limit on the
    samples start..end-1 of values (N, T), or of the runs of a lockstep
    batch (R, N, T), made by one scan per run: the first sample whose |y|
    exceeds DIVERGENCE_LIMIT raises at its own t, a NaN sample before it
    raises as non-finite history (the next sample's), and a NaN in the
    series' last sample is returned.  Samples after the first bad one were
    computed and are discarded.  In a batch the error is that of the first
    run with one, and its `run` is that run's index.
    """
    T = values.shape[-1]
    segment = values[..., start:end]
    # max |y| per sample without an |y| copy of the segment; NaN propagates
    peak = np.maximum(segment.max(axis=-2), -segment.min(axis=-2))
    for i in np.ndindex(peak.shape[:-1]):
        bad = np.flatnonzero(~(peak[i] <= DIVERGENCE_LIMIT))
        if len(bad) == 0:
            continue
        t = start + int(bad[0])
        run = i[0] if i else None
        if peak[i][bad[0]] > DIVERGENCE_LIMIT:
            raise DivergenceError(f"generation diverged at t={t}: |y| > {DIVERGENCE_LIMIT:g}",
                                  run=run)
        if t + 1 < T:
            raise DivergenceError("generation diverged: non-finite history", run=run)


def lockstep_runs(cfg: GeneratorConfig) -> int:
    """How many runs of cfg's shape generate as one batch: as many as fit
    their nonlinearity scratch in BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (8 * cfg.N * cfg.N * cfg.P * cfg.M))


def generate(cfg: GeneratorConfig | Sequence[GeneratorConfig], stop: int | None = None):
    """Generate a series with its topology trace.

    The first P samples are iid standard normal; the rest follow the
    model.  In switching mode the topology changes after every
    switch_interval generated samples; in drift mode the active
    coefficients drift every sample.  A pure function of cfg (the seed is
    part of the config).  Raises ConfigError when a switch falls within
    the series but the seed's initial topology has no active or no
    inactive slot.

    stop, when given, must exceed P: only samples 0..stop-1 are generated,
    and values, coeffs and active equal those of generate(cfg) cut to their
    first stop samples, bit for bit (all T samples when stop >= T).  Every
    check is made against the config's T, the switching one included, and
    the returned config is cfg.  A divergence is raised only when it falls
    among the generated samples; a non-finite sample stop-1 is returned,
    as the full series' last sample would be.

    Given a list of R configs that differ in their seeds only, the result
    is the list of their R TimeSeries, each equal to its generate alone,
    generated in lockstep (see the module docstring); their values are
    slices of one (R, N, T) array.  A DivergenceError is the first run's to
    diverge in the first segment where one does, and its `run` is that
    run's index in the list.

    Only the model recurrence runs per sample.  The series is generated in
    segments of constant topology (one segment unless switching): each
    segment's noise is drawn as one block before switch_edge's draws, the
    order in which one draw per sample would come, and its divergence is
    checked once, after its last sample.  Within a segment the recurrence
    runs a block of samples at a time, max(1, BLOCK_BYTES // (8 R N N P))
    for R runs.  The trace keeps one state per segment; a drift run's
    coefficient rows are made a block at a time by `_drift_rows`, carried on
    from the block before, and its trace is its one segment's record with
    the drifting mask, the law of those rows.
    """
    batched = not isinstance(cfg, GeneratorConfig)
    cfgs = list(cfg) if batched else [cfg]
    if not cfgs or any(replace(c, seed=cfgs[0].seed) != cfgs[0] for c in cfgs):
        raise ValueError("the configs of a lockstep batch must differ in their seeds only")
    cfg = cfgs[0]
    if stop is not None and stop <= cfg.P:
        raise ValueError(f"stop must exceed P={cfg.P}, got {stop}")

    def stacked(arrays):  # the runs' arrays on a leading run axis, or the one run's
        return np.stack(arrays) if batched else arrays[0]

    lead = (len(cfgs),) if batched else ()
    N, P = cfg.N, cfg.P
    T = cfg.T if stop is None else min(stop, cfg.T)
    switches = cfg.switch_interval and cfg.T - cfg.P > cfg.switch_interval
    values = np.empty(lead + (N, T))
    run_values = values.reshape((len(cfgs), N, T))  # run i's values, batched or not
    rngs, topos, banks, drifting = [], [], [], []
    for i, c in enumerate(cfgs):
        rng = np.random.default_rng(c.seed)
        topo = init_topology(c, rng)
        banks.append(init_bank(c, rng))
        n_active = topo.n_active()
        if switches and n_active in (0, topo.active.size):
            raise ConfigError(
                f"seed {c.seed}: the initial topology has {n_active} of {topo.active.size} "
                f"slots active, so no edge can switch every {c.switch_interval} samples")
        run_values[i, :, :P] = rng.standard_normal((N, P))
        mask = topo.active
        if cfg.drift_scope == "single":  # the lexicographically first active slot
            mask = np.zeros_like(topo.active)
            mask.flat[np.flatnonzero(topo.active)[:1]] = True
        drifting.append(mask)
        rngs.append(rng)
        topos.append(topo)
    centers = stacked([b.centers for b in banks])
    weights = stacked([b.weights for b in banks])
    drifts = stacked(drifting)

    segment = cfg.switch_interval or T - P
    block = max(1, BLOCK_BYTES // (8 * len(cfgs) * N * N * P))
    states = []  # per segment, the topology of every run
    for start in range(P, T, segment):
        end = min(start + segment, T)
        noise = stacked([cfg.noise_std * rng.standard_normal((end - start, N)) for rng in rngs])
        states.append(topos)
        # the segment's coefficients; in a drift run (one segment) the row before the next block
        row = stacked([t.coeffs for t in topos])
        for a in range(start, end, block):
            b = min(a + block, end)
            if cfg.drift:
                rows = _drift_rows(row, drifts, a - P, b - P)
                row = rows[..., -1, :, :, :]
            else:
                rows = np.broadcast_to(row[..., None, :, :, :], lead + (b - a, N, N, P))
            _recur(centers, weights, banks[0].kernel.variance, values, rows,
                   noise[..., a - start:b - start, :], a)
        _check_divergence(values, start, end)
        if end < T:
            topos = [switch_edge(topo, rng) for topo, rng in zip(topos, rngs)]

    series = []
    for i, c in enumerate(cfgs):
        # a record at each segment's start; a drift run's one also keeps its law
        trace = TopologyTrace(starts=np.arange(P, T, segment), which=np.arange(len(states)),
                              coeffs=np.array([s[i].coeffs for s in states]),
                              active=np.array([s[i].active for s in states]),
                              drifting=drifting[i] if cfg.drift else None)
        series.append(TimeSeries(values=run_values[i], topology=trace, config=c))
    return series if batched else series[0]
