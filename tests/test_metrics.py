import numpy as np
import pytest

from rffgraph import (
    CoefficientState,
    DetectionConfig,
    DetectionCounts,
    EstimatorConfig,
    ErrorSums,
    OnlineEstimator,
    normalize,
    normalize_series,
)


# --- pseudo-adjacency extraction ---------------------------------------------

def _pseudo_adjacency(state: CoefficientState) -> np.ndarray:
    N, P, _, width = state.alpha.shape
    return OnlineEstimator(EstimatorConfig(N, P, D=width // 2), state=state).pseudo_adjacency()


def test_extract_zero_state():
    state = CoefficientState.zeros(3, 2, 4)
    assert np.array_equal(_pseudo_adjacency(state), np.zeros((3, 3, 2)))


def test_extract_single_group():
    state = CoefficientState.zeros(2, 1, 2)
    state.alpha[0, 0, 1] = [3.0, 4.0, 0.0, 0.0]
    adj = _pseudo_adjacency(state)
    assert adj[0, 1, 0] == 5.0
    assert adj.sum() == 5.0


def test_extract_matches_naive_norms():
    rng = np.random.default_rng(0)
    state = CoefficientState(alpha=rng.normal(size=(3, 2, 3, 8)))
    adj = _pseudo_adjacency(state)
    for n in range(3):
        for n2 in range(3):
            for p in range(2):
                manual = sum(v * v for v in state.alpha[n, p, n2]) ** 0.5
                assert abs(adj[n, n2, p] - manual) < 1e-12


# --- normalization -------------------------------------------------------------

def test_normalize_basic():
    adj = np.array([0.0, 2.0, 4.0])
    assert np.allclose(normalize(adj), [0.0, 0.5, 1.0])


def test_normalize_idempotent_and_scale_invariant():
    rng = np.random.default_rng(1)
    adj = np.abs(rng.normal(size=(3, 3, 2)))
    once = normalize(adj)
    assert np.allclose(normalize(once), once)
    for c in (0.1, 7.0, 1e6):
        assert np.allclose(normalize(c * adj), once)


def test_normalize_all_zero_errors():
    with pytest.raises(ValueError):
        normalize(np.zeros((2, 2, 1)))


def test_normalize_series_keeps_zero_slices():
    series = np.zeros((3, 2, 2, 1))
    series[1, 0, 1, 0] = 4.0
    out = normalize_series(series)
    assert np.array_equal(out[0], np.zeros((2, 2, 1)))
    assert out[1, 0, 1, 0] == 1.0


# --- detection rates -----------------------------------------------------------

def _pmd_pfa(runs, cfg=DetectionConfig()):
    """(P_MD, P_FA) of the (estimates, truth) runs, each added whole."""
    counts = DetectionCounts(cfg)
    for est, truth in runs:
        counts.add(est, truth)
    return counts.curves()


def _truth(N, P, edges):
    truth = np.zeros((N, N, P), dtype=bool)
    for e in edges:
        truth[e] = True
    return truth


def test_pmd_pfa_perfect_estimates():
    truth = _truth(3, 1, [(0, 1, 0), (2, 0, 0)])
    est = np.where(truth, 1.0, 0.0)
    T = 4
    pmd, pfa = _pmd_pfa([(np.tile(est, (T, 1, 1, 1)), np.tile(truth, (T, 1, 1, 1)))])
    assert np.array_equal(pmd, np.zeros(T))
    assert np.array_equal(pfa, np.zeros(T))


def test_pmd_pfa_all_zero_estimates():
    truth = _truth(3, 1, [(0, 1, 0)])
    est = np.zeros((2, 3, 3, 1))
    pmd, pfa = _pmd_pfa([(est, np.tile(truth, (2, 1, 1, 1)))])
    assert np.array_equal(pmd, np.ones(2))
    assert np.array_equal(pfa, np.zeros(2))


def test_pmd_pfa_hand_counted_ensemble():
    # oracle: three tiny runs counted by hand (N=2, P=1, self-loops excluded,
    # so the off-diagonal slots are (0,1) and (1,0); delta = 0.5).  A 1.0 on
    # the excluded self-loop (0,0) makes each slice's maximum 1, so the
    # per-slice normalization leaves the values below as they are
    cfg = DetectionConfig(delta=0.5)
    # run A: truth (0,1); estimate puts 0.4 there (miss) and 0.8 on (1,0) (alarm)
    estA = np.zeros((1, 2, 2, 1)); truthA = np.zeros((1, 2, 2, 1), dtype=bool)
    truthA[0, 0, 1, 0] = True
    estA[0, 0, 1, 0] = 0.4
    estA[0, 1, 0, 0] = 0.8
    # run B: truth (0,1); estimate detects it (0.9), stays silent elsewhere
    estB = np.zeros((1, 2, 2, 1)); truthB = np.zeros((1, 2, 2, 1), dtype=bool)
    truthB[0, 0, 1, 0] = True
    estB[0, 0, 1, 0] = 0.9
    # run C: no true edges; estimate raises one alarm (1,0)
    estC = np.zeros((1, 2, 2, 1)); truthC = np.zeros((1, 2, 2, 1), dtype=bool)
    estC[0, 1, 0, 0] = 0.7
    runs = [(estA, truthA), (estB, truthB), (estC, truthC)]
    for est, _ in runs:
        est[0, 0, 0, 0] = 1.0
    pmd, pfa = _pmd_pfa(runs, cfg)
    # misses: run A only -> 1 of 2 active slots; alarms: A and C -> 2 of 4 inactive
    assert pmd[0] == 0.5
    assert pfa[0] == 0.5


def test_pmd_pfa_undefined_is_nan():
    truth = np.zeros((2, 2, 2, 1), dtype=bool)  # no true edges -> P_MD undefined
    est = np.zeros((2, 2, 2, 1))
    pmd, pfa = _pmd_pfa([(est, truth)])
    assert np.isnan(pmd).all()
    assert np.array_equal(pfa, np.zeros(2))
    full = np.ones((2, 2, 2, 1), dtype=bool)  # all edges -> P_FA undefined off-diag
    pmd2, pfa2 = _pmd_pfa([(est, full)])
    assert np.isnan(pfa2).all()


def test_pmd_pfa_monotone_threshold_tradeoff():
    rng = np.random.default_rng(3)
    est = np.abs(rng.normal(size=(4, 4, 4, 2)))
    truth = rng.random((4, 4, 4, 2)) < 0.4
    deltas = [0.05, 0.1, 0.3, 0.6, 1.0]
    curves = [_pmd_pfa([(est, truth)], DetectionConfig(delta=d)) for d in deltas]
    for (md_lo, fa_lo), (md_hi, fa_hi) in zip(curves, curves[1:]):
        assert np.all(md_hi >= md_lo - 1e-12)
        assert np.all(fa_hi <= fa_lo + 1e-12)


def test_pmd_pfa_self_loop_scope():
    truth = np.zeros((1, 2, 2, 1), dtype=bool)
    truth[0, 0, 0, 0] = True  # self loop only
    est = np.zeros((1, 2, 2, 1))
    pmd, _ = _pmd_pfa([(est, truth)])
    assert np.isnan(pmd[0])  # excluded by default
    pmd2, _ = _pmd_pfa([(est, truth)], DetectionConfig(delta=0.05, exclude_self_loops=False))
    assert pmd2[0] == 1.0


def test_detection_counts_need_estimates_and_truth_of_one_shape():
    with pytest.raises(ValueError, match="must share a"):
        DetectionCounts().add(np.zeros((3, 2, 2, 1)), np.zeros((2, 2, 2, 1), dtype=bool))


# --- prediction error ----------------------------------------------------------

def _mse(runs, window=None):
    """ErrorSums.curve(window) of the (y, yhat) runs, each added whole."""
    errors = ErrorSums()
    for y, yhat in runs:
        errors.add(y - yhat)
    return errors.curve(window)


def test_mse_zero_for_perfect_predictions():
    y = np.random.default_rng(4).normal(size=(2, 30))
    assert np.allclose(_mse([(y, y)], window=5), np.zeros(30))
    assert np.allclose(_mse([(y, y), (y, y)]), np.zeros(30))


def test_mse_constant_error_everywhere():
    y = np.zeros((1, 20))
    yhat = np.full((1, 20), 0.3)
    assert np.allclose(_mse([(y, yhat)], window=7), np.full(20, 0.09))
    assert np.allclose(_mse([(y, yhat)]), np.full(20, 0.09))


def test_mse_two_run_ensemble_hand_value():
    y = np.zeros((1, 3))
    run1 = (y, np.full((1, 3), 1.0))   # squared error 1
    run2 = (y, np.full((1, 3), 3.0))   # squared error 9
    assert np.allclose(_mse([run1, run2]), np.full(3, 5.0))


def test_mse_nan_warmup_ignored():
    y = np.ones((1, 10))
    yhat = np.ones((1, 10)) * 2.0
    yhat[0, :3] = np.nan
    out = _mse([(y, yhat)], window=4)
    assert np.isnan(out[:3]).all()
    assert np.allclose(out[3:], 1.0)


@pytest.mark.parametrize("window", [0, -2])
def test_an_mse_window_below_one_is_named(window):
    errors = ErrorSums()
    errors.add(np.zeros((1, 5)))
    with pytest.raises(ValueError, match="window must be at least 1"):
        errors.curve(window)


def test_detection_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(delta=0.0)
