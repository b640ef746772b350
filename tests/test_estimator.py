import math
import re
import warnings

import numpy as np
import pytest

from rffgraph import (
    CoefficientState,
    ConfigError,
    DivergenceError,
    EstimatorConfig,
    FeatureMaps,
    GaussianKernel,
    GrowingDictionaryEstimator,
    LinearBaseline,
    OnlineEstimator,
    batch_oracle,
    build_feature_vector,
    comid_group_update,
    feature_map,
    gradient,
    group_norms,
    instantaneous_loss,
    linear_baseline_step,
    online_step,
    predict,
    sample_frequencies,
)


def _maps(N=2, P=1, D=3, seed=0, variance=0.5):
    return FeatureMaps(sample_frequencies(GaussianKernel(variance), D, seed).frequencies, N, P)


# --- feature stacking --------------------------------------------------------

def test_build_feature_vector_at_zero():
    maps = _maps(N=1, P=1, D=2)
    z = build_feature_vector(np.zeros((1, 1)), maps).ravel()
    assert np.allclose(z, [0, 0, 1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_build_feature_vector_norm_squared_is_NP():
    rng = np.random.default_rng(0)
    for N, P, D in [(1, 1, 2), (3, 2, 5), (4, 3, 8)]:
        maps = _maps(N=N, P=P, D=D, seed=N + P)
        hist = rng.normal(size=(P, N))
        z = build_feature_vector(hist, maps)
        assert abs((z.ravel() ** 2).sum() - N * P) < 1e-10


def test_build_feature_vector_block_layout():
    # oracle: naive triple loop placing sin/cos entries by index arithmetic
    N, P, D = 4, 3, 5
    maps = _maps(N=N, P=P, D=D, seed=9)
    rng = np.random.default_rng(1)
    hist = rng.normal(size=(P, N))
    stacked = build_feature_vector(hist, maps).ravel()
    v = maps.frequencies[0, 0]  # shared map
    for p in range(P):
        for n2 in range(N):
            base = (p * N + n2) * 2 * D
            x = hist[p, n2]
            for d in range(D):
                assert abs(stacked[base + d] - math.sin(v[d] * x) / math.sqrt(D)) < 1e-12
                assert abs(stacked[base + D + d] - math.cos(v[d] * x) / math.sqrt(D)) < 1e-12


def test_build_feature_vector_block_matches_feature_map():
    maps = _maps(N=4, P=3, D=6, seed=2)
    hist = np.random.default_rng(3).normal(size=(3, 4))
    z = build_feature_vector(hist, maps)
    direct = feature_map(sample_frequencies(GaussianKernel(0.5), 6, 2), hist[1, 2])
    assert np.allclose(z[1, 2], direct, atol=1e-14)


def test_build_feature_vector_rejects_bad_history():
    maps = _maps(N=2, P=2)
    with pytest.raises(ValueError):
        build_feature_vector(np.zeros((1, 2)), maps)
    bad = np.zeros((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        build_feature_vector(bad, maps)


def test_per_slot_maps_differ():
    cfg = EstimatorConfig(N=2, P=2, D=4, rff_seed=5, per_slot_maps=True)
    maps = FeatureMaps.from_config(cfg)
    assert not np.array_equal(maps.frequencies[0, 0], maps.frequencies[0, 1])
    shared = FeatureMaps.from_config(EstimatorConfig(N=2, P=2, D=4, rff_seed=5))
    assert np.array_equal(shared.frequencies[0, 0], shared.frequencies[1, 1])


def test_per_slot_maps_draw_each_slot_with_its_own_seed():
    cfg = EstimatorConfig(N=3, P=2, D=4, kernel_variance=0.3, rff_seed=5, per_slot_maps=True)
    maps = FeatureMaps.from_config(cfg)
    assert not maps.shared and maps.frequencies.shape == (2, 3, 4)
    for p in range(2):
        for n in range(3):
            expect = sample_frequencies(GaussianKernel(0.3), 4, 5 + p * 3 + n).frequencies
            assert np.array_equal(maps.frequencies[p, n], expect)


# --- elementary operations ---------------------------------------------------

def test_predict_trivial_cases():
    maps = _maps(N=2, P=1, D=3)
    z = build_feature_vector(np.ones((1, 2)), maps)
    assert predict(np.zeros_like(z), z) == 0.0
    assert abs(predict(z.copy(), z) - 2.0) < 1e-12  # ||z||^2 = N * P


def test_predict_matches_scalar_loop():
    rng = np.random.default_rng(4)
    maps = _maps(N=2, P=1, D=3, seed=1)
    z = build_feature_vector(rng.normal(size=(1, 2)), maps)
    alpha = rng.normal(size=z.shape)
    manual = 0.0
    for a, b in zip(alpha.ravel(), z.ravel()):
        manual += a * b
    assert abs(predict(alpha, z) - manual) < 1e-12


def test_predict_rejects_mismatch():
    with pytest.raises(ValueError):
        predict(np.zeros(4), np.zeros(6))


def test_instantaneous_loss_values():
    z = np.zeros(4)
    assert instantaneous_loss(np.zeros(4), z, 2.0) == 2.0  # 0.5 * 2^2
    rng = np.random.default_rng(5)
    alpha, z = rng.normal(size=8), rng.normal(size=8)
    y = rng.normal()
    r = y - float(alpha @ z)
    assert abs(instantaneous_loss(alpha, z, y) - 0.5 * r * r) < 1e-12
    assert instantaneous_loss(alpha, z, float(alpha @ z)) == 0.0


def test_gradient_trivial_cases():
    rng = np.random.default_rng(6)
    z = rng.normal(size=10)
    alpha = np.zeros(10)
    assert np.allclose(gradient(alpha, z, 1.0), -z, atol=1e-15)
    y_perfect = float(alpha @ z)
    assert np.array_equal(gradient(alpha, z, y_perfect), np.zeros(10))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    eps = 1e-5
    for _ in range(30):
        dim = int(rng.integers(2, 24))
        alpha = rng.normal(size=dim)
        z = rng.normal(size=dim)
        y = rng.normal()
        g = gradient(alpha, z, y)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = eps
            fd = (instantaneous_loss(alpha + e, z, y)
                  - instantaneous_loss(alpha - e, z, y)) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))


# --- the group update --------------------------------------------------------

def test_comid_plain_gradient_step_when_unregularized():
    rng = np.random.default_rng(8)
    g0, v = rng.normal(size=6), rng.normal(size=6)
    out = comid_group_update(g0, v, gamma=0.3, lam=0.0)
    assert np.allclose(out, g0 - 0.3 * v, atol=1e-15)


def test_comid_zeroes_inside_threshold_ball():
    u_target = np.array([0.3, 0.4])  # norm 0.5
    out = comid_group_update(u_target, np.zeros(2), gamma=1.0, lam=1.0)
    assert np.array_equal(out, np.zeros(2))  # bit-exact zero


def test_comid_closed_form_example():
    out = comid_group_update(np.array([3.0, 4.0]), np.zeros(2), gamma=1.0, lam=1.0)
    assert np.allclose(out, [2.4, 3.2], atol=1e-12)


def test_comid_boundary_is_zero():
    g0 = np.array([0.6, 0.8])  # norm exactly 1
    out = comid_group_update(g0, np.zeros(2), gamma=1.0, lam=1.0)
    assert np.array_equal(out, np.zeros(2))


def test_comid_zero_norm_with_regularization():
    out = comid_group_update(np.zeros(4), np.zeros(4), gamma=1.0, lam=0.5)
    assert np.array_equal(out, np.zeros(4))


def test_comid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        comid_group_update(np.zeros(2), np.zeros(2), gamma=0.0, lam=0.1)
    with pytest.raises(ValueError):
        comid_group_update(np.zeros(2), np.zeros(2), gamma=1.0, lam=-0.1)
    with pytest.raises(ValueError):
        comid_group_update(np.array([np.nan, 0.0]), np.zeros(2), gamma=1.0, lam=0.1)


def _golden_section(f, a, b, tol=1e-12):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_comid_matches_numerical_prox_oracle():
    # oracle: the per-group objective is minimized on span(u); golden-section
    # search along that ray is an independent route to the same minimizer
    rng = np.random.default_rng(9)
    for _ in range(100):
        dim = 2 * int(rng.integers(1, 8))
        g0 = rng.normal(size=dim) * rng.uniform(0.1, 5)
        v = rng.normal(size=dim) * rng.uniform(0.1, 5)
        gamma = 10 ** rng.uniform(-2, 0.7)
        lam = rng.uniform(0.0, 3.0)
        u = g0 - gamma * v
        nu = np.linalg.norm(u)
        out = comid_group_update(g0, v, gamma, lam)
        if nu <= gamma * lam:
            assert np.array_equal(out, np.zeros(dim))
            continue
        uhat = u / nu

        def objective(c):
            g = c * uhat
            return (g @ g) / (2 * gamma) + g @ (v - g0 / gamma) + lam * np.linalg.norm(g)

        c_star = _golden_section(objective, 0.0, nu + gamma * lam + 1.0)
        assert np.linalg.norm(out - c_star * uhat) < 1e-6


# --- online step -------------------------------------------------------------

def test_online_step_separable_across_groups():
    N, P, D = 3, 2, 4
    maps = _maps(N=N, P=P, D=D, seed=11)
    rng = np.random.default_rng(12)
    state = CoefficientState(alpha=rng.normal(size=(N, P, N, 2 * D)), t=5)
    hist = rng.normal(size=(P, N))
    sample = rng.normal(size=N)
    gamma, lam = 0.07, 0.4
    new_state, yhat, losses = online_step(state, hist, sample, maps, gamma, lam)
    z = build_feature_vector(hist, maps)
    for n in range(N):
        # same residual the joint update saw; the per-group updates must then
        # reproduce the joint result bit for bit
        r = yhat[n] - sample[n]
        assert abs(float(state.alpha[n].ravel() @ z.ravel()) - yhat[n]) < 1e-12
        assert abs(losses[n] - 0.5 * r * r) < 1e-12
        for p in range(1, P + 1):
            for n2 in range(N):
                grp = comid_group_update(state.alpha[n, p - 1, n2],
                                         r * z[p - 1, n2], gamma, lam)
                assert np.array_equal(new_state.alpha[n, p - 1, n2], grp)
    assert new_state.t == 6


def test_online_step_large_lambda_zeroes_everything():
    maps = _maps(N=2, P=1, D=3, seed=13)
    state = CoefficientState.zeros(2, 1, 3)
    hist = np.array([[0.4, -0.2]])
    out_state, _, _ = online_step(state, hist, np.array([1.0, -1.0]), maps,
                                  gamma=0.5, lam=100.0)
    assert np.array_equal(out_state.alpha, np.zeros_like(out_state.alpha))


def test_online_step_from_zero_without_regularizer_is_sgd():
    maps = _maps(N=2, P=1, D=3, seed=14)
    state = CoefficientState.zeros(2, 1, 3)
    hist = np.array([[0.4, -0.2]])
    sample = np.array([0.7, -1.1])
    gamma = 0.25
    out_state, yhat, _ = online_step(state, hist, sample, maps, gamma, lam=0.0)
    z = build_feature_vector(hist, maps)
    assert np.array_equal(yhat, np.zeros(2))
    for n in range(2):
        assert np.allclose(out_state.alpha[n], gamma * sample[n] * z, atol=1e-15)


def test_online_three_step_hand_trace():
    # spreadsheet-style scalar recurrence at N = P = D = 1, math module only
    v = 0.8
    gamma_step, lam = 0.2, 0.25
    samples = [0.5, -0.3, 0.8, 0.2]
    cfg = EstimatorConfig(N=1, P=1, D=1, lam=lam, gamma=1.0 / gamma_step,
                          kernel_variance=1.0, rff_seed=0)
    maps = FeatureMaps(np.array([v]), 1, 1)
    est = OnlineEstimator(cfg, maps=maps)

    alpha = [0.0, 0.0]
    hist = None
    for k, y in enumerate(samples):
        out = est.step(np.array([y]))
        if k == 0:
            assert out is None  # warm-up
            hist = y
            continue
        z = [math.sin(v * hist), math.cos(v * hist)]
        yhat = alpha[0] * z[0] + alpha[1] * z[1]
        r = yhat - y
        u = [alpha[0] - gamma_step * r * z[0], alpha[1] - gamma_step * r * z[1]]
        nu = math.hypot(u[0], u[1])
        thr = gamma_step * lam
        alpha = [0.0, 0.0] if nu <= thr else [ui * (1 - thr / nu) for ui in u]
        hist = y
        got_pred = out[0][0]
        assert abs(got_pred - yhat) < 1e-12
        assert np.allclose(est.state.alpha[0, 0, 0], alpha, atol=1e-12)


def test_online_estimator_warmup_and_determinism():
    rng = np.random.default_rng(15)
    values = rng.normal(size=(3, 60))
    cfg = EstimatorConfig(N=3, P=2, D=5, lam=0.05, gamma=20.0, rff_seed=3)
    a = OnlineEstimator(cfg).run(values)
    b = OnlineEstimator(cfg).run(values)
    assert np.array_equal(a.group_norms, b.group_norms)
    assert np.isnan(a.predictions[:, : cfg.P]).all()
    assert np.isfinite(a.predictions[:, cfg.P :]).all()


def test_schedule_step_sizes():
    cfg = EstimatorConfig(N=1, P=1, D=1, gamma=50.0)
    assert cfg.step_size(1) == cfg.step_size(10) == 1.0 / 50.0
    dec = EstimatorConfig(N=1, P=1, D=1, gamma=50.0, schedule="sqrt_decay")
    assert abs(dec.step_size(4) - (1.0 / 50.0) / 2.0) < 1e-15


def test_estimator_config_validation():
    with pytest.raises(ConfigError):
        EstimatorConfig(N=0, P=1, D=1)
    with pytest.raises(ConfigError):
        EstimatorConfig(N=1, P=1, D=1, lam=-1.0)
    with pytest.raises(ConfigError):
        EstimatorConfig(N=1, P=1, D=1, gamma=0.0)
    with pytest.raises(ConfigError):
        EstimatorConfig(N=1, P=1, D=1, schedule="linear")


def test_group_norms_matches_numpy_and_survives_large_values():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 5, 6))
    assert np.allclose(group_norms(x), np.linalg.norm(x, axis=-1), atol=1e-12)
    big = np.full(3, 1e200)
    assert np.isfinite(group_norms(big))
    assert abs(group_norms(big) / (1e200 * math.sqrt(3)) - 1.0) < 1e-12
    assert group_norms(np.zeros(4)) == 0.0


# --- batch oracle ------------------------------------------------------------

def test_batch_oracle_unregularized_matches_least_squares():
    # wide data spread against a narrow kernel keeps the Gram well conditioned,
    # so proximal gradient reaches the unique least-squares solution
    rng = np.random.default_rng(18)
    T = 600
    values = rng.normal(size=(1, T)) * 3.0
    cfg = EstimatorConfig(N=1, P=1, D=2, lam=0.0, gamma=1.0,
                          kernel_variance=0.02, rff_seed=3)
    maps = FeatureMaps.from_config(cfg)
    result = batch_oracle(values, cfg, iterations=30000, tolerance=1e-15, maps=maps)
    Z = np.array([
        build_feature_vector(values[:, t - 1 : t][:, ::-1].T, maps).ravel()
        for t in range(1, T)
    ])
    ls, *_ = np.linalg.lstsq(Z, values[0, 1:], rcond=None)
    assert np.linalg.norm(result.state.alpha[0].ravel() - ls) < 1e-6


def test_batch_oracle_huge_lambda_gives_zero():
    rng = np.random.default_rng(19)
    values = rng.normal(size=(2, 50))
    cfg = EstimatorConfig(N=2, P=1, D=3, lam=1e6, gamma=1.0, rff_seed=2)
    result = batch_oracle(values, cfg)
    assert np.array_equal(result.state.alpha, np.zeros_like(result.state.alpha))


def test_batch_oracle_objective_non_increasing():
    rng = np.random.default_rng(20)
    values = rng.normal(size=(2, 60))
    cfg = EstimatorConfig(N=2, P=2, D=4, lam=0.5, gamma=1.0, rff_seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = batch_oracle(values, cfg, iterations=500, tolerance=0.0)
    for trace in result.objectives:
        t = trace[np.isfinite(trace)]
        assert np.all(np.diff(t) <= 1e-9 * np.maximum(1.0, np.abs(t[:-1])))


def test_batch_oracle_warns_on_non_convergence():
    rng = np.random.default_rng(21)
    values = rng.normal(size=(1, 40))
    cfg = EstimatorConfig(N=1, P=1, D=3, lam=0.1, gamma=1.0, rff_seed=1)
    with pytest.warns(UserWarning, match="did not converge"):
        result = batch_oracle(values, cfg, iterations=2, tolerance=1e-16)
    assert not result.converged


# --- linear baseline ----------------------------------------------------------

def test_linear_baseline_reduces_to_scalar_lms():
    # N = P = 1, lam = 0: alpha' = alpha - step * x (alpha x - y)
    lb = LinearBaseline(N=1, P=1, lam=0.0, gamma=10.0)
    xs = [0.5, -1.0, 2.0, 0.3]
    alpha = 0.0
    prev = None
    for k, x in enumerate(xs):
        out = lb.step(np.array([x]))
        if k == 0:
            assert out is None
            prev = x
            continue
        step = 0.1
        alpha = alpha - step * prev * (alpha * prev - x)
        assert abs(lb.alpha[0, 0, 0] - alpha) < 1e-12
        prev = x


def test_linear_baseline_warmup_contract():
    lb = LinearBaseline(N=2, P=3, lam=0.1, gamma=10.0)
    est = OnlineEstimator(EstimatorConfig(N=2, P=3, D=2, lam=0.1, gamma=10.0))
    rng = np.random.default_rng(22)
    for t in range(3):
        s = rng.normal(size=2)
        assert lb.step(s) is None and est.step(s) is None
    s = rng.normal(size=2)
    assert lb.step(s) is not None and est.step(s) is not None


def test_linear_baseline_wins_on_linear_data():
    # oracle: paired run on data generated by a *linear* VAR
    rng = np.random.default_rng(23)
    N, T = 3, 800
    A = rng.normal(size=(N, N)) * 0.25
    A *= 0.8 / max(abs(np.linalg.eigvals(A)))
    values = np.zeros((N, T))
    values[:, 0] = rng.normal(size=N)
    for t in range(1, T):
        values[:, t] = A @ values[:, t - 1] + 0.1 * rng.normal(size=N)
    lb = LinearBaseline(N=N, P=1, lam=0.001, gamma=20.0)
    rf = OnlineEstimator(EstimatorConfig(N=N, P=1, D=8, lam=0.001, gamma=20.0,
                                         kernel_variance=1.0, rff_seed=5))
    lin = lb.run(values)
    non = rf.run(values)
    tail = slice(T // 2, T)
    d_lin, d_non = (values[:, tail] - series.predictions[:, tail] for series in (lin, non))
    assert np.nanmean(0.5 * d_lin * d_lin) <= np.nanmean(0.5 * d_non * d_non)


def test_linear_baseline_step_function_matches_class():
    rng = np.random.default_rng(24)
    alpha = rng.normal(size=(2, 2, 2))
    hist = rng.normal(size=(2, 2))
    sample = rng.normal(size=2)
    new_alpha, yhat, losses = linear_baseline_step(alpha, hist, sample, 0.05, 0.2)
    for n in range(2):
        r = float((alpha[n] * hist).sum()) - sample[n]
        assert abs(yhat[n] - (r + sample[n])) < 1e-12
        for p in range(2):
            for q in range(2):
                u = alpha[n, p, q] - 0.05 * r * hist[p, q]
                thr = 0.05 * 0.2
                expect = 0.0 if abs(u) <= thr else u * (1 - thr / abs(u))
                assert abs(new_alpha[n, p, q] - expect) < 1e-12


# --- growing-dictionary reference ---------------------------------------------

def test_growing_dictionary_grows_per_step():
    gd = GrowingDictionaryEstimator(N=2, P=2)
    rng = np.random.default_rng(25)
    for t in range(20):
        out = gd.step(rng.normal(size=2))
        if t < 2:
            assert out is None
    assert gd.dictionary_size == 18
    yhat, losses = gd.step(rng.normal(size=2))
    assert np.isfinite(yhat).all() and np.isfinite(losses).all()


@pytest.mark.parametrize("args, message", [
    ({"N": 0, "P": 0}, "N, P must be positive"),
    ({"N": 2, "P": 0}, "N, P must be positive"),
    ({"kernel_variance": -1.0}, "kernel_variance must be finite and positive"),
    ({"kernel_variance": 0.0}, "kernel_variance must be finite and positive"),
    ({"kernel_variance": math.inf}, "kernel_variance must be finite and positive"),
    ({"eta": math.nan}, "eta must be finite and positive"),
    ({"eta": 0.0}, "eta must be finite and positive"),
], ids=["N=0, P=0", "P=0", "negative kernel_variance", "zero kernel_variance",
        "infinite kernel_variance", "nan eta", "zero eta"])
def test_growing_dictionary_checks_its_arguments(args, message):
    # under EstimatorConfig's rules: a negative kernel_variance would weight
    # atoms by exp(+d^2 / 2), a NaN eta give NaN predictions, and N=0, P=0
    # fail only at step
    with pytest.raises(ConfigError, match=message):
        GrowingDictionaryEstimator(**{"N": 2, "P": 2, **args})


@pytest.mark.parametrize("make", [
    lambda: OnlineEstimator(EstimatorConfig(N=3, P=2, D=4)),
    lambda: LinearBaseline(N=3, P=2),
    lambda: GrowingDictionaryEstimator(N=3, P=2),
], ids=["online", "linear baseline", "growing dictionary"])
@pytest.mark.parametrize("shape", [(), (4,), (5,)], ids=["scalar", "N+1 values", "N+2 values"])
@pytest.mark.parametrize("taken", [0, 1, 3], ids=["empty", "warming up", "warmed up"])
def test_every_estimator_rejects_a_sample_of_another_shape(make, shape, taken):
    est = make()
    for _ in range(taken):
        est.step(np.ones(3))
    message = rf"^sample must have shape \(3,\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        est.step(np.ones(shape))
    assert est.warmed_up == (taken >= 2)


@pytest.mark.parametrize("linear", [False, True], ids=["online_step", "linear_baseline_step"])
@pytest.mark.parametrize("shape", [(), (5,)], ids=["scalar", "N+2 values"])
def test_the_functional_steps_reject_a_sample_of_another_shape_before_writing(linear, shape):
    rng = np.random.default_rng(11)
    alpha = rng.normal(size=(3, 2, 3) if linear else (3, 2, 3, 8))
    history = rng.normal(size=(2, 3))
    before = alpha.copy()
    out = np.full(alpha.shape, 7.0)
    message = rf"^sample must have shape \(3,\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        if linear:
            linear_baseline_step(alpha, history, np.ones(shape), 0.05, 0.1, out=out)
        else:
            online_step(CoefficientState(alpha=alpha, t=4), history, np.ones(shape),
                        _maps(N=3, P=2, D=4), 0.05, 0.1, out=out)
    assert np.array_equal(alpha, before) and (out == 7.0).all()


def test_a_linear_baseline_divergence_names_its_iteration_and_node():
    lb = LinearBaseline(N=3, P=2, lam=0.05, gamma=0.02)
    values = np.random.default_rng(7).normal(size=(3, 300))
    for t in range(values.shape[1]):
        try:
            lb.step(values[:, t])
        except DivergenceError as e:
            message = str(e)
            break
    else:
        pytest.fail("the run never diverged")
    # the state holds the rejected iterate, t not advanced
    norms = np.abs(lb.alpha)
    n, p, q = np.unravel_index(np.argmax(norms), norms.shape)
    assert lb.state.t == t - 2
    assert message.startswith(f"linear baseline diverged at iteration {t - 1}: node {n} has the "
                              f"largest group norm {norms[n, p, q]:.6g} (source {q}, lag {p + 1}); "
                              f"its last residual was ")
