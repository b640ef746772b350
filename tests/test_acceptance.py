"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavier criteria
(ensemble detection, drift tracking) take a few minutes combined; every
test also enforces its own wall-clock budget.

Calibration notes (fixed here, not tuned at runtime):
- The generator noise level is a free experimental knob (the library
  default is 0.01).  The switching-ensemble and error-comparison
  experiments use 0.3, which keeps the VAR persistently excited; the
  support-consistency and drift experiments use the quiet 0.01 regime.
- Seeds are scanned deterministically from 1 upwards, skipping initial
  topologies that cannot support the experiment (no active edge, or
  nothing to switch).
"""

import math
import time
import warnings
from functools import lru_cache

import numpy as np

from rffgraph import (
    DetectionConfig,
    DetectionCounts,
    ErrorSums,
    EstimatorConfig,
    GaussianKernel,
    GeneratorConfig,
    GrowingDictionaryEstimator,
    LinearBaseline,
    OnlineEstimator,
    batch_oracle,
    comid_group_update,
    generate,
    gradient,
    init_topology,
    instantaneous_loss,
    kernel_approx,
    kernel_exact,
    normalize,
    sample_frequencies,
)
from rffgraph.cli import main as cli_main


def _report(num, name, detail, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.0f}s)"
    print(f"\nACCEPTANCE {num} {name}: PASS ({detail}; {elapsed:.1f}s)")


# -- shared synthetic ensembles -------------------------------------------------

SWITCH_GEN = dict(N=5, P=2, T=3000, edge_probability=0.1, switch_interval=1000,
                  noise_std=0.3, kernel_variance=0.01, beta_variance=30.0, M=10)


def _usable_switch_seeds(count):
    """First `count` seeds whose initial topology has an edge to switch."""
    seeds, s = [], 0
    while len(seeds) < count:
        s += 1
        topo = init_topology(GeneratorConfig(seed=s, **SWITCH_GEN))
        if 0 < topo.n_active() < topo.active.size:
            seeds.append(s)
    return seeds


@lru_cache(maxsize=None)
def _switch_series(seed):
    return generate(GeneratorConfig(seed=seed, **SWITCH_GEN))


def _estimate_norms(values, D, rff_seed, lam=0.1, gamma=1000.0):
    cfg = EstimatorConfig(N=values.shape[0], P=2, D=D, lam=lam, gamma=gamma,
                          kernel_variance=0.1, rff_seed=rff_seed)
    return OnlineEstimator(cfg).run(values)


# -- 1: random-feature kernel fidelity ------------------------------------------

def test_criterion_1_rff_fidelity():
    t0 = time.time()
    for variance in (0.1, 1.0):
        spec = GaussianKernel(variance)
        sigma = math.sqrt(variance)
        x = 0.3
        deltas = np.linspace(-3 * sigma, 3 * sigma, 20)
        exact = np.array([kernel_exact(spec, x, x + dd) for dd in deltas])

        # 200-map average at D=100 lands within 0.02 of the exact kernel
        maps = [sample_frequencies(spec, 100, 1_000 + m) for m in range(200)]
        approx = np.mean([[kernel_approx(m, x, x + dd) for dd in deltas]
                          for m in maps], axis=0)
        worst = float(np.max(np.abs(approx - exact)))
        assert worst <= 0.02, f"variance={variance}: max err {worst:.4f}"

        # the Monte-Carlo error shrinks as D doubles; measured as the mean
        # absolute deviation over 20 replications of 100-map averages, with
        # seeds shared across D so the comparison is paired
        mae = {}
        for D in (25, 50, 100):
            errs = []
            for rep in range(20):
                means = np.zeros(len(deltas))
                for m in range(100):
                    freqs = sample_frequencies(spec, D, 5_000 + 100 * rep + m).frequencies
                    means += np.cos(np.outer(freqs, deltas)).mean(axis=0)
                errs.append(np.abs(means / 100 - exact))
            mae[D] = float(np.mean(errs))
        assert mae[50] < mae[25] and mae[100] < mae[50], (
            f"variance={variance}: error not decreasing in D: {mae}")
    _report(1, "rff fidelity", "200-map mean within 0.02 at D=100, error decreasing in D",
            t0, 5)


# -- 2: closed-form group update vs numerical prox -------------------------------

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


def test_criterion_2_prox_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_zero = 0
    for _ in range(1000):
        dim = 2 * int(rng.integers(1, 33))  # group size up to 64
        # moderate norms keep the value-based line search resolvable to 1e-6
        # (its floor is ||u|| * sqrt(machine eps))
        g0 = rng.normal(size=dim)
        g0 *= rng.uniform(0.5, 3.0) / np.linalg.norm(g0)
        v = rng.normal(size=dim)
        v *= rng.uniform(0.5, 3.0) / np.linalg.norm(v)
        gamma = 10 ** rng.uniform(-2, 1)
        lam = rng.uniform(0.0, 3.0)
        out = comid_group_update(g0, v, gamma, lam)
        u = g0 - gamma * v
        nu = np.linalg.norm(u)
        if nu <= gamma * lam:
            n_zero += 1
            assert np.array_equal(out, np.zeros(dim))
            continue
        uhat = u / nu

        def objective(c):
            g = c * uhat
            return (g @ g) / (2 * gamma) + g @ (v - g0 / gamma) + lam * np.linalg.norm(g)

        c_star = _golden_section(objective, 0.0, nu + gamma * lam + 1.0)
        assert np.linalg.norm(out - c_star * uhat) < 1e-6
    assert n_zero > 10  # both branches exercised
    _report(2, "prox oracle equivalence", f"1000 instances, {n_zero} exact zeros", t0, 10)


# -- 3: gradient vs central finite differences -----------------------------------

def test_criterion_3_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(3)
    eps = 1e-5
    for _ in range(100):
        dim = int(rng.integers(2, 40))
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
    _report(3, "gradient check", "100 instances, eps 1e-5", t0, 5)


# -- 4: online iterates vs batch solution ----------------------------------------

def test_criterion_4_batch_online_consistency():
    t0 = time.time()
    N, P, D, T = 3, 1, 20, 3000
    lam_online, gamma, delta = 0.2, 50.0, 0.05
    gen_base = dict(N=N, P=P, T=T, edge_probability=0.1, switch_interval=0,
                    noise_std=0.01, kernel_variance=0.01, beta_variance=30.0, M=10)
    seeds, s = [], 0
    while len(seeds) < 10:
        s += 1
        if init_topology(GeneratorConfig(seed=s, **gen_base)).n_active() > 0:
            seeds.append(s)
    agreements = []
    for s in seeds:
        values = generate(GeneratorConfig(seed=s, **gen_base)).values
        cfg = EstimatorConfig(N=N, P=P, D=D, lam=lam_online, gamma=gamma,
                              kernel_variance=0.1, rff_seed=20_000 + s)
        est = OnlineEstimator(cfg)
        # time average of the iterates over the second half of the stream
        avg = np.zeros((N, P, N, 2 * D))
        count = 0
        half = P + (T - P) // 2
        for t in range(T):
            est.step(values[:, t])
            if t >= half:
                avg += est.state.alpha
                count += 1
        avg /= count
        b_online = np.transpose(np.linalg.norm(avg, axis=-1), (0, 2, 1))
        # batch objective sums T-P loss terms, so its regularizer scales by T-P
        batch_cfg = EstimatorConfig(N=N, P=P, D=D, lam=lam_online * (T - P),
                                    gamma=gamma, kernel_variance=0.1,
                                    rff_seed=20_000 + s)
        with warnings.catch_warnings():
            # partial convergence on an ill-conditioned Gram is fine here:
            # only the thresholded support enters the comparison
            warnings.simplefilter("ignore")
            result = batch_oracle(values, batch_cfg, iterations=4000,
                                  tolerance=1e-10, maps=est.maps)
        b_batch = np.transpose(np.linalg.norm(result.state.alpha, axis=-1), (0, 2, 1))
        sup_on = (normalize(b_online) >= delta) if b_online.max() > 0 else np.zeros_like(b_online, bool)
        sup_ba = (normalize(b_batch) >= delta) if b_batch.max() > 0 else np.zeros_like(b_batch, bool)
        agreements.append(float((sup_on == sup_ba).mean()))
    mean_agree = float(np.mean(agreements))
    assert mean_agree >= 0.9, f"support agreement {mean_agree:.3f} (per seed {agreements})"
    _report(4, "batch/online consistency", f"mean agreement {mean_agree:.3f}", t0, 120)


# -- 5: switching-edge recovery ---------------------------------------------------

def test_criterion_5_switching_edge_recovery():
    t0 = time.time()
    seeds = _usable_switch_seeds(50)
    det = DetectionConfig(delta=0.05)
    P = SWITCH_GEN["P"]
    switch_visible = [P + SWITCH_GEN["switch_interval"] * k for k in (1, 2)]
    tails = {}
    for D in (10, 50):
        counts = DetectionCounts(det)
        for s in seeds:
            ts = _switch_series(s)
            series = _estimate_norms(ts.values, D=D, rff_seed=10_000 + s)
            counts.add(series.group_norms, ts.active)
        pmd, pfa = counts.curves()
        if D == 50:
            for sw in switch_visible:
                for name, curve in (("P_MD", pmd), ("P_FA", pfa)):
                    plateau = np.nanmean(curve[sw - 100 : sw])
                    spike = np.nanmax(curve[sw + 1 : sw + 51])
                    assert spike > plateau, (
                        f"{name} no spike at switch t={sw}: plateau {plateau:.4f}, "
                        f"post-switch max {spike:.4f}")
        # steady state: the last 500 samples of each inter-switch segment
        segs = [pmd[switch_visible[0] - 500 : switch_visible[0]],
                pmd[switch_visible[1] - 500 : switch_visible[1]],
                pmd[SWITCH_GEN["T"] - 500 :]]
        tails[D] = float(np.mean([np.nanmean(seg) for seg in segs]))
    assert tails[50] < tails[10], f"steady-state P_MD not decreasing in D: {tails}"
    _report(5, "switching-edge recovery",
            f"spikes present; steady P_MD D50 {tails[50]:.4f} < D10 {tails[10]:.4f}", t0, 600)


# -- 6: slow-drift tracking --------------------------------------------------------

def test_criterion_6_slow_drift_tracking():
    t0 = time.time()
    N, P, T = 5, 2, 4000
    gen_base = dict(N=N, P=P, T=T, edge_probability=0.1, drift=True,
                    noise_std=0.01, kernel_variance=0.01, beta_variance=30.0, M=10)
    offdiag = ~np.eye(N, dtype=bool)[:, :, None]
    seeds, s = [], 0
    while len(seeds) < 10:
        s += 1
        topo = init_topology(GeneratorConfig(seed=s, **gen_base))
        if (topo.active & offdiag).any():
            seeds.append(s)
    wins = 0
    details = []
    for s in seeds:
        ts = generate(GeneratorConfig(seed=s, **gen_base))
        # designated edge: strongest initially active off-diagonal slot
        a0 = np.where(offdiag & ts.active[P], np.abs(ts.coeffs[P]), -1.0)
        n, n2, p = np.unravel_index(int(np.argmax(a0)), a0.shape)
        truth = np.abs(ts.coeffs[P:, n, n2, p])
        truth_n = truth / truth.max()
        rf = _estimate_norms(ts.values, D=50, rff_seed=30_000 + s)
        lb = LinearBaseline(N=N, P=P, lam=0.1, gamma=1000.0)
        lin = lb.run(ts.values)
        rf_tr = rf.group_norms[P:, n, n2, p]
        lin_tr = lin.group_norms[P:, n, n2, p]
        rf_n = rf_tr / max(rf_tr.max(), 1e-300)
        lin_n = lin_tr / max(lin_tr.max(), 1e-300)
        mad_rf = float(np.mean(np.abs(rf_n - truth_n)))
        mad_lin = float(np.mean(np.abs(lin_n - truth_n)))
        wins += mad_rf < mad_lin
        details.append((s, round(mad_rf, 3), round(mad_lin, 3)))
    assert wins >= 8, f"drift tracking won on {wins}/10 seeds: {details}"
    _report(6, "slow-drift tracking", f"wins {wins}/10", t0, 300)


# -- 7: fixed per-iteration cost ----------------------------------------------------

def test_criterion_7_fixed_iteration_cost():
    t0 = time.time()
    gen = GeneratorConfig(N=5, P=2, T=5000, edge_probability=0.1, noise_std=0.3,
                          kernel_variance=0.01, beta_variance=30.0, M=10, seed=7)
    values = generate(gen).values
    cfg = EstimatorConfig(N=5, P=2, D=50, lam=0.1, gamma=1000.0,
                          kernel_variance=0.1, rff_seed=7)
    est = OnlineEstimator(cfg)
    times = []
    for t in range(values.shape[1]):
        tic = time.perf_counter_ns()
        out = est.step(values[:, t])
        toc = time.perf_counter_ns()
        if out is not None:
            times.append((toc - tic) * 1e-9)
    times = np.array(times)
    early = times[100:600].mean()
    late = times[4500:5000].mean()
    assert late <= 1.5 * early, f"late mean {late*1e6:.1f}us > 1.5x early {early*1e6:.1f}us"

    gd = GrowingDictionaryEstimator(N=5, P=2, kernel_variance=1.0, eta=0.1)
    gtimes = []
    gt = []
    for t in range(values.shape[1]):
        tic = time.perf_counter_ns()
        out = gd.step(values[:, t])
        toc = time.perf_counter_ns()
        if out is not None:
            gtimes.append((toc - tic) * 1e-9)
            gt.append(t)
    slope = np.polyfit(gt, gtimes, 1)[0]
    assert slope > 0, f"growing-dictionary slope {slope:.3e} not positive"
    _report(7, "fixed per-iteration cost",
            f"late/early {late/early:.2f}, reference slope {slope:.2e}s/step", t0, 300)


# -- 8: nonlinearity advantage -------------------------------------------------------

def _terminal_mse(values, predictions, window=100):
    errors = ErrorSums()
    errors.add(values - predictions)
    return errors.curve(window)[-1]


def test_criterion_8_nonlinearity_advantage():
    t0 = time.time()
    seeds = _usable_switch_seeds(10)
    wins = 0
    details = []
    for s in seeds:
        ts = _switch_series(s)
        rf = _estimate_norms(ts.values, D=50, rff_seed=40_000 + s)
        lin = LinearBaseline(N=5, P=2, lam=0.1, gamma=1000.0).run(ts.values)
        m_rf, m_lin = (_terminal_mse(ts.values, p) for p in (rf.predictions, lin.predictions))
        wins += m_rf < m_lin
        details.append((s, round(float(m_rf), 4), round(float(m_lin), 4)))
    assert wins >= 8, f"terminal MSE better on {wins}/10 seeds: {details}"
    _report(8, "nonlinearity advantage", f"wins {wins}/10", t0, 300)


# -- 9: determinism and replay --------------------------------------------------------

def test_criterion_9_determinism_and_replay(tmp_path):
    t0 = time.time()
    import json as _json
    import os

    cfg_obj = {
        "runs": 2,
        "base_seed": 11,
        "output_dir": str(tmp_path / "out"),
        "generator": {"N": 4, "P": 2, "T": 250, "edge_probability": 0.2,
                      "switch_interval": 100, "noise_std": 0.3,
                      "kernel_variance": 0.01, "beta_variance": 30.0, "M": 10},
        "estimator": {"N": 4, "P": 2, "D": 12, "lambda": 0.1, "gamma": 1000.0,
                      "kernel_variance": 0.1, "rff_seed": 1},
        "metrics": {"delta": 0.05, "mse_window": 50},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(_json.dumps(cfg_obj))
    for command in ("generate", "estimate", "metrics"):
        assert cli_main([command, str(cfg_path)]) == 0
    assert cli_main(["bench", str(cfg_path), "--T", "120"]) == 0
    out = tmp_path / "out"
    originals = {p.name: p.read_bytes() for p in out.iterdir()}

    replay_dir = tmp_path / "replayed"
    from rffgraph.experiment import ENV_OUTPUT_DIR
    os.environ[ENV_OUTPUT_DIR] = str(replay_dir)
    try:
        for manifest in ("generate_manifest.json", "estimate_manifest.json",
                         "metrics_manifest.json", "bench_manifest.json"):
            assert cli_main(["replay", str(out / manifest)]) == 0
    finally:
        del os.environ[ENV_OUTPUT_DIR]
    checked = 0
    for name, blob in originals.items():
        if "manifest" in name:
            continue
        if name.startswith("bench"):
            # wall-clock values are measurements; the time axis must match
            orig_t = [r.split(",")[0] for r in blob.decode().splitlines()]
            new_t = [r.split(",")[0] for r in (replay_dir / name).read_text().splitlines()]
            assert orig_t == new_t
            continue
        assert (replay_dir / name).read_bytes() == blob, f"{name} not byte-identical"
        checked += 1
    assert checked >= 10
    _report(9, "determinism and replay", f"{checked} files byte-identical", t0, 60)
