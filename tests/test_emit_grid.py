"""run(values, emit_every=K) computes the pseudo-adjacency on the emit grid only.

The grid is the rows t = P (mod K), the rows an estimates file thinned by
K writes.  Predictions, losses and the final state must be those of the
unthinned run bit for bit, the trace must equal it on the grid and be zero
elsewhere, pseudo_adjacency must run once per grid row, and a cut run
resumed from its checkpoint must fill the same grid rows as the uncut run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import EstimatorConfig, OnlineEstimator
from rffgraph import io

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

shapes = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5))
seeds = st.integers(0, 2**32 - 1)


def _config(shape, seed, per_slot):
    N, P, D = shape
    return EstimatorConfig(N=N, P=P, D=D, lam=0.05, gamma=5.0, rff_seed=seed % 1000,
                           per_slot_maps=per_slot)


@SETTINGS
@given(shapes, st.integers(1, 9), st.integers(1, 20), seeds, st.booleans())
def test_thinned_run_equals_the_full_run_on_the_grid(shape, K, extra, seed, per_slot):
    cfg = _config(shape, seed, per_slot)
    N, P = cfg.N, cfg.P
    values = np.random.default_rng(seed).normal(size=(N, P + extra))
    full = OnlineEstimator(cfg).run(values)
    est = OnlineEstimator(cfg)
    calls = []
    adjacency = OnlineEstimator.pseudo_adjacency

    def counted(self):
        calls.append(self)
        return adjacency(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OnlineEstimator, "pseudo_adjacency", counted)
        thin = est.run(values, emit_every=K)
    assert np.array_equal(thin.predictions, full.predictions, equal_nan=True)
    assert np.array_equal(thin.losses, full.losses, equal_nan=True)
    assert np.array_equal(thin.state.alpha, full.state.alpha)
    assert thin.state.t == full.state.t
    grid = (np.arange(values.shape[1]) - P) % K == 0
    assert np.array_equal(thin.group_norms[grid], full.group_norms[grid])
    assert not thin.group_norms[~grid].any()
    assert len(calls) == grid.sum()


@SETTINGS
@given(shapes, st.integers(1, 9), st.integers(1, 12), seeds, st.booleans())
def test_cut_and_resume_fills_the_uncut_grid(tmp_path_factory, shape, K, extra, seed, per_slot):
    cfg = _config(shape, seed, per_slot)
    N, P = cfg.N, cfg.P
    T = P + extra
    values = np.random.default_rng(seed).normal(size=(N, T))
    uncut = OnlineEstimator(cfg).run(values, emit_every=K)
    ck = tmp_path_factory.mktemp("ck") / "ck.json"
    for c in range(T):
        est = OnlineEstimator(cfg)
        rows = np.zeros_like(uncut.group_norms)
        if c > P:
            rows[:c] = est.run(values[:, :c], emit_every=K).group_norms
        else:  # too short for run(): it would finish no warm-up
            for t in range(c):
                est.step(values[:, t])
                if (t - P) % K == 0:
                    rows[t] = est.pseudo_adjacency()
        io.write_checkpoint(ck, est)
        rest = io.read_checkpoint(ck).run(values, start=c, emit_every=K)
        assert not rest.group_norms[:c].any()
        rows[c:] = rest.group_norms[c:]
        assert np.array_equal(rows, uncut.group_norms)
        assert np.array_equal(rest.state.alpha, uncut.state.alpha)


def test_emit_every_must_be_positive():
    est = OnlineEstimator(EstimatorConfig(N=2, P=1, D=3))
    with pytest.raises(ValueError, match="emit_every must be positive, got 0"):
        est.run(np.zeros((2, 5)), emit_every=0)
