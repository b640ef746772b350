"""generate() equals the one-sample-at-a-time model loop bit for bit.

The reference below steps the public single-step API (step, switch_edge,
slow_drift and _drift_single) one sample at a time and draws one noise
vector per sample, the order in which generate's block draws must consume
the random stream.  Values, the coeffs trace and the active trace must be
equal bit for bit, and a diverging series must raise the same error at the
same sample.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import (
    ConfigError,
    DivergenceError,
    GeneratorConfig,
    generate,
    init_bank,
    init_topology,
    slow_drift,
    step,
    switch_edge,
)
from rffgraph.generator import DIVERGENCE_LIMIT, _drift_single, evaluate_nonlinearity

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _reference(cfg):
    rng = np.random.default_rng(cfg.seed)
    topo = init_topology(cfg, rng)
    bank = init_bank(cfg, rng)
    N, P, T = cfg.N, cfg.P, cfg.T
    if cfg.switch_interval and T - P >= cfg.switch_interval \
            and topo.n_active() in (0, topo.active.size):
        raise ConfigError("a switch falls within the series but no edge can switch")
    values = np.empty((N, T))
    values[:, :P] = rng.standard_normal((N, P))
    coeffs = np.empty((T, N, N, P))
    active = np.empty((T, N, N, P), dtype=bool)
    coeffs[:P] = topo.coeffs
    active[:P] = topo.active
    for t in range(P, T):
        history = values[:, t - P : t][:, ::-1].T
        noise = cfg.noise_std * rng.standard_normal(N)
        y = step(topo, bank, history, noise)
        if np.abs(y).max() > DIVERGENCE_LIMIT:
            raise DivergenceError(f"generation diverged at t={t}: |y| > {DIVERGENCE_LIMIT:g}")
        values[:, t] = y
        coeffs[t] = topo.coeffs
        active[t] = topo.active
        if cfg.switch_interval and (t - P + 1) % cfg.switch_interval == 0:
            topo = switch_edge(topo, rng)
        elif cfg.drift:
            topo = slow_drift(topo, t) if cfg.drift_scope == "all" else _drift_single(topo, t)
    return values, coeffs, active


def _outcome(fn, cfg):
    """The arrays' bytes, or the error's type and message; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = fn(cfg)
        except DivergenceError as e:
            return "DivergenceError", str(e)
        except ConfigError:  # generate's message names the seed
            return "ConfigError", None
    if fn is generate:
        out = (out.values, out.coeffs, out.active)
    return tuple(a.tobytes() for a in out)


# switch_interval as a function of the T - P generated samples
INTERVALS = {"static": lambda n: 0, "switch every sample": lambda n: 1,
             "switch K < T-P": lambda n: max(1, n // 3), "switch K = T-P": lambda n: n,
             "switch K > T-P": lambda n: n + 4}


@pytest.mark.parametrize("regime", list(INTERVALS) + ["drift all", "drift single"])
@SETTINGS
@given(N=st.integers(1, 4), P=st.integers(1, 3), extra=st.integers(1, 40),
       edge_probability=st.sampled_from([0.3, 0.6, 0.0, 1.0]),
       noise_std=st.sampled_from([0.1, 0.0, 1.0]),
       beta_variance=st.sampled_from([30.0, 1e30]), seed=st.integers(0, 2**32 - 1))
def test_generate_equals_the_reference_loop(regime, N, P, extra, edge_probability, noise_std,
                                            beta_variance, seed):
    drift = regime.startswith("drift")
    cfg = GeneratorConfig(
        N=N, P=P, T=P + extra, edge_probability=edge_probability,
        switch_interval=0 if drift else INTERVALS[regime](extra), drift=drift,
        drift_scope=regime.split()[-1] if drift else "all", noise_std=noise_std,
        beta_variance=beta_variance, seed=seed)
    if cfg.switch_interval and 0 < edge_probability < 1 and N * N * P > 1:
        # the first seed from here whose topology has an edge to switch
        while init_topology(cfg).n_active() in (0, N * N * P):
            cfg = replace(cfg, seed=cfg.seed + 1)
    assert _outcome(generate, cfg) == _outcome(_reference, cfg)


def test_divergence_is_raised_at_the_reference_sample():
    # generate checks a whole segment of constant topology at once; the
    # error must still name the first sample the per-sample check rejects
    cases = [
        (GeneratorConfig(N=2, P=1, T=30, edge_probability=1.0, beta_variance=1e30,
                         kernel_variance=100.0, noise_std=0.0, seed=1), 1),
        # 14 samples into the fifth segment, after four switches
        (GeneratorConfig(N=3, P=1, T=121, edge_probability=0.3, switch_interval=20,
                         noise_std=1.0, beta_variance=1e11, kernel_variance=0.1, seed=11), 95),
    ]
    for cfg, t in cases:
        outcome = _outcome(generate, cfg)
        assert outcome == _outcome(_reference, cfg)
        assert outcome == ("DivergenceError", f"generation diverged at t={t}: |y| > 1e+06")


def test_long_drift_and_switching_series_equal_the_reference_loop():
    for kw in (dict(drift=True), dict(drift=True, drift_scope="single"),
               dict(switch_interval=100)):
        cfg = GeneratorConfig(N=5, P=2, T=1000, noise_std=0.3, seed=11, **kw)
        outcome = _outcome(generate, cfg)
        assert len(outcome) == 3 and outcome == _outcome(_reference, cfg)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 4), P=st.integers(1, 3), M=st.integers(1, 12),
       kernel_variance=st.sampled_from([0.01, 0.5, 3]), seed=st.integers(0, 2**32 - 1))
def test_single_step_equals_the_expression_it_is_written_as(N, P, M, kernel_variance, seed):
    # generate and step share this arithmetic, so check it bit for bit
    # against the model written out as one expression
    cfg = GeneratorConfig(N=N, P=P, T=P + 1, M=M, kernel_variance=kernel_variance,
                          edge_probability=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    topo, bank = init_topology(cfg, rng), init_bank(cfg, rng)
    history, noise = rng.standard_normal((P, N)), rng.standard_normal(N)
    diff = history.T[None, :, :, None] - bank.centers
    f = (bank.weights * np.exp(-(diff * diff) / (2.0 * kernel_variance))).sum(axis=-1)
    assert evaluate_nonlinearity(bank, history).tobytes() == f.tobytes()
    y = (topo.coeffs * f).sum(axis=(1, 2)) + noise
    assert step(topo, bank, history, noise).tobytes() == y.tobytes()


def test_a_nan_sample_raises_on_the_next_sample_as_the_reference_does():
    # at T = P + 1 the NaN sample is the last one and is returned; with a
    # switch every sample each generated sample is a segment of its own
    for T, switch_interval in ((3, 0), (4, 0), (10, 0), (3, 1), (4, 1), (10, 1)):
        cfg = GeneratorConfig(N=3, P=2, T=T, edge_probability=0.5, noise_std=float("nan"),
                              switch_interval=switch_interval, seed=4)
        outcome = _outcome(generate, cfg)
        assert outcome == _outcome(_reference, cfg)
        if T == 3:
            assert np.isnan(generate(cfg).values[:, 2]).all()
        else:
            assert outcome == ("DivergenceError", "generation diverged: non-finite history")
