"""Properties of the fused in-place estimator step, checked over random shapes.

The per-group closed-form update (comid_group_update) and the seed's full
divergence scan over every coefficient are the references.  Streaming runs
cut at any sample and resumed from a checkpoint must match the uncut run
bit for bit, and zero groups must follow the reactivation rule.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rffgraph import (
    CoefficientState,
    DivergenceError,
    EstimatorConfig,
    FeatureMaps,
    GaussianKernel,
    build_feature_vector,
    comid_group_update,
    group_norms,
    OnlineEstimator,
    online_step,
    sample_frequencies,
)
from rffgraph import estimator, io
from rffgraph.estimator import ALPHA_LIMIT, _shrink_groups

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

shapes = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6))
steps = st.floats(1e-4, 2.0)
lams = st.floats(0.0, 5.0)
seeds = st.integers(0, 2**32 - 1)


def _setup(N, P, D, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    maps = FeatureMaps(sample_frequencies(GaussianKernel(0.5), D, seed).frequencies, N, P)
    alpha = scale * rng.normal(size=(N, P, N, 2 * D))
    return rng, maps, CoefficientState(alpha=alpha, t=int(rng.integers(0, 100)))


def _oracle_step(alpha, history, sample, maps, gamma, lam):
    """One step as N*P*N separate closed-form group updates."""
    z = build_feature_vector(history, maps)
    resid = np.einsum("npqd,pqd->n", alpha, z) - sample
    new = np.empty_like(alpha)
    for n in range(alpha.shape[0]):
        for p in range(alpha.shape[1]):
            for q in range(alpha.shape[2]):
                new[n, p, q] = comid_group_update(alpha[n, p, q], resid[n] * z[p, q], gamma, lam)
    return new


def _seed_scan_fails(alpha):
    return not np.isfinite(alpha).all() or np.abs(alpha).max() > ALPHA_LIMIT


@SETTINGS
@given(shapes, seeds, steps, lams)
def test_online_step_equals_per_group_oracle_and_leaves_state_alone(shape, seed, gamma, lam):
    N, P, D = shape
    rng, maps, state = _setup(N, P, D, seed)
    before = state.alpha.copy()
    history = rng.normal(size=(P, N))
    sample = rng.normal(size=N)
    new_state, _, _ = online_step(state, history, sample, maps, gamma, lam)
    assert np.array_equal(state.alpha, before)
    assert not np.shares_memory(new_state.alpha, state.alpha)
    assert np.array_equal(new_state.alpha, _oracle_step(before, history, sample, maps, gamma, lam))
    assert new_state.t == state.t + 1


@SETTINGS
@given(st.integers(0, 4), st.integers(1, 40), seeds, st.floats(1e-3, 1e3))
def test_group_norms_match_numpy_on_finite_inputs(groups, d, seed, scale):
    x = scale * np.random.default_rng(seed).normal(size=(groups, 3, d))
    np.testing.assert_allclose(group_norms(x), np.linalg.norm(x, axis=-1), rtol=1e-13, atol=0)


def _two_where_shrink(u, norms, thr):
    """The shrink as it was first written: two np.where calls around the factor."""
    keep = norms > thr
    safe = np.where(keep, norms, 1.0)
    factor = np.where(keep, 1.0 - thr / safe, 0.0)
    return u * factor[..., None], factor * norms


SUBNORMAL = 5e-324 * 3


@pytest.mark.parametrize("thr", [0.75, 1e-3, 1e300, SUBNORMAL, 2.2e-310, 0.0])
def test_shrink_factor_equals_the_two_where_form_bit_for_bit(monkeypatch, thr):
    # the norms are handed to the shrink as they are, so each lands exactly
    # where it should: at, one ulp either side of, far below and above thr
    norms = np.array([0.0, thr, np.nextafter(thr, 0.0), np.nextafter(thr, np.inf), np.nan,
                      np.inf, SUBNORMAL, 1.0, 2.0 * thr, 1e300, np.finfo(float).max])
    monkeypatch.setattr(estimator, "group_norms", lambda u: norms)
    u = np.random.default_rng(7).normal(size=(len(norms), 3))
    u[0] = [0.0, -0.0, 0.0]
    want_u, want_norms = _two_where_shrink(u, norms, thr)
    got_u, got_norms = _shrink_groups(u.copy(), thr)
    assert got_u.tobytes() == want_u.tobytes()
    assert got_norms.tobytes() == want_norms.tobytes()


def _group_norms_max_form(x):
    """group_norms with the finiteness test written as np.max(sq, initial=0.0)."""
    sq = np.einsum("...d,...d->...", x, x)
    if np.max(sq, initial=0.0) < np.inf:
        return np.sqrt(sq)
    m = np.max(np.abs(x), axis=-1, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    scaled = x / safe
    return safe[..., 0] * np.sqrt(np.einsum("...d,...d->...", scaled, scaled))


@pytest.mark.parametrize("x", [
    np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((0,)), np.array([3.0, 4.0]),
    np.array([[1.0, np.nan], [2.0, 2.0]]), np.array([[np.inf, 1.0], [0.0, 0.0]]),
    np.array([[-np.inf, np.nan]]), np.array([[1e200, -1e200], [1.0, 0.0]]),
], ids=["empty groups", "empty group width", "empty vector", "one group", "nan", "inf",
        "inf and nan", "overflowing square"])
def test_group_norms_are_unchanged_on_empty_and_non_finite_inputs(x):
    with np.errstate(invalid="ignore"):  # inf / inf in the scaled fallback
        want, got = _group_norms_max_form(x), group_norms(x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 40), seeds, st.floats(0.1, 10.0))
def test_group_norms_stay_finite_near_1e200(groups, d, seed, scale):
    unit = np.random.default_rng(seed).normal(size=(groups, d))
    x = unit * (scale * 1e200)
    norms = group_norms(x)
    assert np.isfinite(norms).all()
    np.testing.assert_allclose(norms, np.linalg.norm(unit, axis=-1) * (scale * 1e200),
                               rtol=1e-13, atol=0)


@SETTINGS
@given(shapes, seeds, st.floats(5.0, 50.0), st.floats(0.0, 0.5))
def test_divergence_raised_where_the_full_scan_fails(shape, seed, gamma, lam):
    # an oversized step makes the run blow up after some iterations; the
    # error must come on the first iteration whose iterate the full scan rejects
    N, P, D = shape
    rng, maps, state = _setup(N, P, D, seed)
    values = rng.normal(size=(N, 200))
    alpha = state.alpha
    for k in range(200 - P):
        history = values[:, k:k + P][:, ::-1].T
        sample = values[:, k + P]
        expected = _oracle_step(alpha, history, sample, maps, gamma, lam)
        if _seed_scan_fails(expected):
            with pytest.raises(DivergenceError, match=f"iteration {state.t + 1}"):
                online_step(state, history, sample, maps, gamma, lam)
            return
        state, _, _ = online_step(state, history, sample, maps, gamma, lam)
        assert np.array_equal(state.alpha, expected)
        alpha = expected
    pytest.fail("the run never diverged")


def _doubling_run(c0, k, nan_sample_at=None):
    """N = P = D = 1 with a zero lag window, lam 0 and step 3: the cosine
    coefficient c maps to c - 3 * (c - 0) = -2c each iteration and the sine
    coefficient stays 0, so |alpha| after iteration j is |c0| * 2**j.  This
    is exact while 3c needs no more than 53 mantissa bits.  Returns the
    iteration that raised, or None."""
    maps = FeatureMaps(sample_frequencies(GaussianKernel(0.5), 1, 0).frequencies, 1, 1)
    state = CoefficientState(alpha=np.array([[[[0.0, c0]]]]))
    for j in range(1, k + 2):
        y = np.nan if j == nan_sample_at else 0.0
        try:
            state, _, _ = online_step(state, np.zeros((1, 1)), np.array([y]), maps, 3.0, 0.0)
        except DivergenceError:
            return j
        assert abs(state.alpha[0, 0, 0, 1]) == abs(c0) * 2.0 ** j
    return None


@SETTINGS
@given(st.integers(1, 30))
def test_divergence_at_the_limit_boundary(k):
    # eight ulps above the limit, leaving low mantissa bits free so that 3c is exact
    just_above = ALPHA_LIMIT + 2.0 ** -10
    # an entry just above the limit after iteration k raises there
    assert _doubling_run(just_above / 2.0 ** k, k) == k
    # an entry exactly at the limit is allowed; the next doubling raises
    assert _doubling_run(ALPHA_LIMIT / 2.0 ** k, k) == k + 1
    # a NaN sample at iteration k poisons every entry and raises there
    assert _doubling_run(1.0, k + 1, nan_sample_at=k) == k


@SETTINGS
@given(shapes, st.integers(1, 8), seeds, st.sampled_from(["constant", "sqrt_decay"]),
       st.booleans(), st.booleans())
def test_cut_and_resume_equals_the_uncut_run(tmp_path_factory, shape, extra, seed, schedule,
                                             per_slot, resume_by_step):
    N, P, D = shape
    T = P + extra
    cfg = EstimatorConfig(N=N, P=P, D=D, lam=0.05, gamma=5.0, rff_seed=seed % 1000,
                          schedule=schedule, per_slot_maps=per_slot)
    values = np.random.default_rng(seed).normal(size=(N, T))
    full = OnlineEstimator(cfg).run(values)
    ck = tmp_path_factory.mktemp("ck") / "ck.json"
    for c in range(T):  # every cut, those inside the warm-up included
        est = OnlineEstimator(cfg)
        if c > P:
            est.run(values[:, :c])
        else:  # too short for run(): it would finish no warm-up
            for t in range(c):
                est.step(values[:, t])
        io.write_checkpoint(ck, est)
        resumed = io.read_checkpoint(ck)[0]
        if not resume_by_step:
            rest = resumed.run(values, start=c)
            assert np.array_equal(rest.state.alpha, full.state.alpha)
            assert np.array_equal(rest.predictions[:, c:], full.predictions[:, c:],
                                  equal_nan=True)
            assert np.array_equal(rest.group_norms[c:], full.group_norms[c:])
            continue
        # the restored estimator lifts its saved window at its first update
        for t in range(c, T):
            out = resumed.step(values[:, t])
            if out is None:
                assert np.isnan(full.predictions[:, t]).all()
            else:
                assert np.array_equal(out[0], full.predictions[:, t])
                d = values[:, t] - full.predictions[:, t]
                assert np.array_equal(out[1], 0.5 * d * d)
            assert np.array_equal(resumed.pseudo_adjacency(), full.group_norms[t])
        assert np.array_equal(resumed.state.alpha, full.state.alpha)
        assert resumed.state.t == full.state.t


@SETTINGS
@given(shapes, seeds, steps, st.floats(0.01, 2.0), st.floats(0.2, 0.8))
def test_zero_group_reactivates_exactly_when_the_residual_exceeds_lam(shape, seed, gamma, lam,
                                                                     zero_share):
    # every feature block has unit norm, so a zero group's shifted point has
    # norm gamma * |r_n| and survives the threshold gamma * lam iff |r_n| > lam
    N, P, D = shape
    rng, maps, state = _setup(N, P, D, seed)
    zero = rng.random(size=(N, P, N)) < zero_share
    state.alpha[zero] = 0.0
    history = rng.normal(size=(P, N))
    yhat = np.einsum("npqd,pqd->n", state.alpha, build_feature_vector(history, maps))
    # residuals within a factor 1.5 of lam on either side
    sample = yhat - lam * rng.uniform(0.5, 1.5, size=N) * rng.choice([-1.0, 1.0], size=N)
    resid = yhat - sample
    # away from the rounding margin of the unit norm
    assume(np.all(np.abs(np.abs(resid) - lam) > 1e-9 * lam))
    new_state, _, _ = online_step(state, history, sample, maps, gamma, lam)
    active = (new_state.alpha != 0).any(axis=-1)
    expected = np.broadcast_to((np.abs(resid) > lam)[:, None, None], zero.shape)
    assert np.array_equal(active[zero], expected[zero])
