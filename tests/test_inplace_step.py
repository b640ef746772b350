"""The streaming estimator updates its one coefficient array in place.

A chain of functional steps (online_step / linear_baseline_step with
out=None, each returning a fresh array, each lifting its whole lag window)
is the reference: the in-place estimator, which keeps the lift of its
window between steps, must equal it bit for bit whether the update runs as
one block of nodes, two blocks or one node per block, and whether the
samples come through run(), step() or both, and must hold no second copy
of alpha while it steps.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import (
    CoefficientState,
    DivergenceError,
    EstimatorConfig,
    FeatureMaps,
    LinearBaseline,
    OnlineEstimator,
    build_feature_vector,
    group_norms,
    linear_baseline_step,
    online_step,
)
from rffgraph import estimator

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

shapes = st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 6))
seeds = st.integers(0, 2**32 - 1)
blockings = st.sampled_from(["one block", "two blocks", "one node per block"])


def _block_bytes(blocking, alpha):
    """A BLOCK_BYTES value that splits alpha's nodes as named."""
    node = alpha[0].nbytes
    return {"one block": alpha.nbytes, "two blocks": node * math.ceil(len(alpha) / 2),
            "one node per block": 1}[blocking]


def _chain(cfg, values, state, linear=False):
    """The functional reference: one fresh array per step.

    Returns (predictions, losses, pseudo-adjacency rows, final state, error),
    where error is the DivergenceError that stopped the chain, or None, and
    the final state is then the rejected iterate with t not advanced.
    """
    N, T = values.shape
    P = cfg.P
    maps = None if linear else FeatureMaps.from_config(cfg)

    def step(state, history, sample, gamma, out=None):
        if not linear:
            return online_step(state, history, sample, maps, gamma, cfg.lam, out=out)
        flat = None if out is None else out[..., 0]
        alpha, yhat, losses = linear_baseline_step(state.alpha[..., 0], history, sample, gamma,
                                                   cfg.lam, out=flat)
        return CoefficientState(alpha=alpha[..., None], t=state.t + 1), yhat, losses

    preds, losses = np.full((N, T), np.nan), np.full((N, T), np.nan)
    rows = np.zeros((T, N, N, P))
    for t in range(T):
        if t >= P:
            # C-ordered, as the estimator's lag window is
            history = np.ascontiguousarray(values[:, t - P:t][:, ::-1].T)
            gamma = cfg.step_size(state.t + 1)
            try:
                state, preds[:, t], losses[:, t] = step(state, history, values[:, t], gamma)
            except DivergenceError as e:
                # the same step into an array of our own, to see the rejected iterate
                rejected = np.empty(state.alpha.shape)
                with pytest.raises(DivergenceError):
                    step(state, history, values[:, t], gamma, out=rejected)
                return preds, losses, rows, CoefficientState(alpha=rejected, t=state.t), e
        rows[t] = np.transpose(group_norms(state.alpha), (0, 2, 1))
    return preds, losses, rows, state, None


def _fed(est, values, split):
    """(predictions, losses, pseudo-adjacency rows) of est fed all of values.

    With split None one run() takes every sample.  With split (a, b),
    samples [a, b) go through one run() when it takes them (it needs more
    than the rest of the warm-up) and every other sample through step(),
    recorded as run() records them.
    """
    if split is None:
        series = est.run(values)
        return series.predictions, series.losses, series.group_norms
    N, T = values.shape
    a, b = sorted(min(c, T) for c in split)
    preds, losses = np.full((N, T), np.nan), np.full((N, T), np.nan)
    rows = np.zeros((T, N, N, est.cfg.P))
    t = 0
    while t < T:
        if t == a and b - a > est.cfg.P - est.warm:
            series = est.run(values[:, :b], start=a)
            preds[:, a:b], losses[:, a:b] = series.predictions[:, a:b], series.losses[:, a:b]
            rows[a:b] = series.group_norms[a:b]
            t = b
            continue
        out = est.step(values[:, t])
        if out is not None:
            preds[:, t], losses[:, t] = out
        rows[t] = est.pseudo_adjacency()
        t += 1
    return preds, losses, rows


def _streamed(est, values):
    """est.run(values), or the DivergenceError it raised."""
    try:
        return est.run(values), None
    except DivergenceError as e:
        return None, e


@SETTINGS
@given(shapes, seeds, blockings, st.sampled_from(["constant", "sqrt_decay"]), st.booleans(),
       st.booleans(), st.none() | st.tuples(st.integers(0, 30), st.integers(0, 30)))
def test_in_place_run_equals_the_functional_chain(shape, seed, blocking, schedule, per_slot,
                                                 given_state, split):
    N, P, D = shape
    cfg = EstimatorConfig(N=N, P=P, D=D, lam=0.05, gamma=3.0, rff_seed=seed % 1000,
                          schedule=schedule, per_slot_maps=per_slot)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(N, P + 25))
    if given_state:
        start = CoefficientState(alpha=rng.normal(size=(N, P, N, 2 * D)), t=int(rng.integers(9)))
    else:
        start = CoefficientState.zeros(N, P, D)
    kept = start.alpha.copy()
    est = OnlineEstimator(cfg, state=start if given_state else None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "BLOCK_BYTES", _block_bytes(blocking, est.state.alpha))
        fed = _fed(est, values, split)
    preds, losses, rows, state, _ = _chain(cfg, values, start)
    assert np.array_equal(fed[0], preds, equal_nan=True)
    assert np.array_equal(fed[1], losses, equal_nan=True)
    assert np.array_equal(fed[2], rows)
    assert np.array_equal(est.state.alpha, state.alpha) and est.state.t == state.t
    # the caller's state is copied on construction, never written
    assert np.array_equal(start.alpha, kept) and est.state.alpha is not start.alpha


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 3), seeds, blockings,
       st.sampled_from(["constant", "sqrt_decay"]))
def test_in_place_linear_baseline_equals_the_functional_chain(N, P, seed, blocking, schedule):
    lb = LinearBaseline(N, P, lam=0.05, gamma=3.0, schedule=schedule)
    values = np.random.default_rng(seed).normal(size=(N, P + 25))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "BLOCK_BYTES", _block_bytes(blocking, lb.state.alpha))
        series = lb.run(values)
    start = CoefficientState(alpha=np.zeros((N, P, N, 1)))
    preds, losses, rows, state, _ = _chain(lb.cfg, values, start, linear=True)
    assert np.array_equal(series.predictions, preds, equal_nan=True)
    assert np.array_equal(series.losses, losses, equal_nan=True)
    assert np.array_equal(series.group_norms, rows)
    assert np.array_equal(lb.state.alpha, state.alpha) and lb.state.t == state.t


def test_linear_baseline_step_gives_the_same_bits_for_a_strided_window():
    # the reversed view of the series is strided; the estimator's lag window
    # holds the same numbers C-ordered
    N, P, T = 40, 3, 30
    values = np.random.default_rng(8).normal(size=(N, T))
    alpha = np.zeros((N, P, N))
    for t in range(P, T):
        window = values[:, t - P:t][:, ::-1].T
        strided = linear_baseline_step(alpha, window, values[:, t], 0.01, 0.05)
        contiguous = linear_baseline_step(alpha, np.ascontiguousarray(window), values[:, t],
                                          0.01, 0.05)
        for a, b in zip(strided, contiguous):
            assert np.array_equal(a, b), t
        alpha = contiguous[0]


@SETTINGS
@given(shapes, seeds, blockings, st.floats(0.02, 0.2), st.booleans())
def test_divergence_at_the_same_iteration_as_the_functional_chain(shape, seed, blocking, gamma,
                                                                  linear):
    # steps of 5 to 50 blow the run up; the in-place run must stop on the
    # chain's iteration with the chain's message, holding the rejected iterate
    N, P, D = shape
    values = np.random.default_rng(seed).normal(size=(N, P + 200))
    if linear:
        est = LinearBaseline(N, P, lam=0.05, gamma=gamma)
        start = CoefficientState(alpha=np.zeros((N, P, N, 1)))
    else:
        est = OnlineEstimator(EstimatorConfig(N=N, P=P, D=D, lam=0.05, gamma=gamma,
                                              rff_seed=seed % 1000))
        start = CoefficientState.zeros(N, P, D)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "BLOCK_BYTES", _block_bytes(blocking, est.state.alpha))
        _, error = _streamed(est, values)
    *_, rejected, expected = _chain(est.cfg, values, start, linear=linear)
    assert expected is not None, "the chain never diverged"
    assert error is not None and str(error) == str(expected)
    assert est.state.t == rejected.t
    assert np.array_equal(est.state.alpha, rejected.alpha, equal_nan=True)


def test_divergence_message_names_the_node_with_the_largest_norm():
    cfg = EstimatorConfig(N=4, P=2, D=3, lam=0.05, gamma=0.02, rff_seed=1)
    est = OnlineEstimator(cfg)
    values = np.random.default_rng(7).normal(size=(4, 300))
    for t in range(values.shape[1]):
        before = est.state.alpha.copy()
        try:
            est.step(values[:, t])
        except DivergenceError as e:
            message = str(e)
            break
    else:
        pytest.fail("the run never diverged")
    # state holds the rejected iterate, t not advanced
    norms = group_norms(est.state.alpha)
    n, p, q = np.unravel_index(np.argmax(norms), norms.shape)
    history = values[:, t - cfg.P:t][:, ::-1].T
    z = build_feature_vector(history, est.maps)
    resid = np.einsum("npqd,pqd->n", before, z) - values[:, t]
    assert est.state.t == t - cfg.P
    assert message == (f"estimator diverged at iteration {t - cfg.P + 1}: node {n} has the "
                       f"largest group norm {norms[n, p, q]:.6g} (source {q}, lag {p + 1}); "
                       f"its last residual was {resid[n]:.6g}")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("per_slot", [False, True])
def test_a_non_finite_warm_up_sample_raises_at_the_first_update(bad, per_slot):
    # the window's lift is built from the whole window at the first update,
    # which rejects it as online_step does
    est = OnlineEstimator(EstimatorConfig(N=3, P=2, D=4, per_slot_maps=per_slot))
    assert est.step(np.array([0.5, bad, 0.5])) is None
    assert est.step(np.ones(3)) is None
    with pytest.raises(ValueError, match="^history contains non-finite values$"):
        est.step(np.ones(3))
    assert est.state.t == 0 and not est.state.alpha.any()


def test_in_place_step_holds_no_second_alpha():
    # the update writes into alpha a block at a time, so over a step no
    # alpha-sized array is allocated: the traced peak stays below half of alpha
    cfg = EstimatorConfig(N=30, P=2, D=50, rff_seed=1)
    est = OnlineEstimator(cfg)
    values = np.random.default_rng(0).normal(size=(30, cfg.P + 6))
    for t in range(cfg.P + 1):  # warm-up and the first update draw the maps
        est.step(values[:, t])
    tracemalloc.start()
    try:
        for t in range(cfg.P + 1, cfg.P + 6):
            est.step(values[:, t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.state.t == 6
    assert peak < est.state.alpha.nbytes / 2, (peak, est.state.alpha.nbytes)
