import math

import numpy as np
import pytest

from rffgraph import (
    GaussianKernel,
    RFFMap,
    feature_map,
    kernel_approx,
    kernel_exact,
    sample_frequencies,
)


def test_sample_frequencies_variance_single_draw():
    rff = sample_frequencies(GaussianKernel(0.1), D=50, seed=7)
    assert rff.frequencies.shape == (50,)
    # spectral variance is 1/0.1 = 10; a single D=50 draw lands within 40%
    assert abs(rff.frequencies.var() - 10.0) < 4.0


def test_sample_frequencies_variance_over_reseeds():
    # oracle: mean sample variance over 1000 reseeded draws approaches 1/variance
    vs = [sample_frequencies(GaussianKernel(0.1), D=50, seed=s).frequencies.var()
          for s in range(1000)]
    assert abs(np.mean(vs) - 10.0) < 0.5


def test_sample_frequencies_standard_normal_case():
    rff = sample_frequencies(GaussianKernel(1.0), D=1, seed=123)
    assert rff.frequencies.shape == (1,)
    assert abs(rff.frequencies[0]) < 6.0  # a standard normal draw


def test_sample_frequencies_deterministic():
    a = sample_frequencies(GaussianKernel(0.5), D=32, seed=9)
    b = sample_frequencies(GaussianKernel(0.5), D=32, seed=9)
    assert np.array_equal(a.frequencies, b.frequencies)


def test_sample_frequencies_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_frequencies(GaussianKernel(1.0), D=0, seed=0)
    with pytest.raises(ValueError):
        GaussianKernel(0.0)
    with pytest.raises(ValueError):
        GaussianKernel(-1.0)


def test_feature_map_at_zero():
    rff = sample_frequencies(GaussianKernel(1.0), D=4, seed=0)
    z = feature_map(rff, 0.0)
    assert np.allclose(z, [0, 0, 0, 0, 0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_feature_map_exact_trig_values():
    rff = RFFMap(frequencies=np.array([2.0]), D=1, spec=GaussianKernel(1.0), seed=0)
    z = feature_map(rff, math.pi / 4)
    assert abs(z[0] - 1.0) < 1e-12  # sin(pi/2)
    assert abs(z[1]) < 1e-12  # cos(pi/2)


def test_feature_map_unit_norm():
    rng = np.random.default_rng(0)
    for s in range(20):
        rff = sample_frequencies(GaussianKernel(10 ** rng.uniform(-2, 1)),
                                 D=int(rng.integers(1, 64)), seed=s)
        x = rng.normal(scale=5)
        assert abs(np.linalg.norm(feature_map(rff, x)) - 1.0) < 1e-10


def test_feature_map_rejects_non_finite():
    rff = sample_frequencies(GaussianKernel(1.0), D=2, seed=0)
    with pytest.raises(ValueError):
        feature_map(rff, float("nan"))
    with pytest.raises(ValueError):
        feature_map(rff, float("inf"))


def test_kernel_exact_closed_forms():
    assert kernel_exact(GaussianKernel(0.5), 1.0, 1.0) == 1.0
    assert abs(kernel_exact(GaussianKernel(0.5), 0.0, 1.0) - math.exp(-1.0)) < 1e-12
    assert abs(kernel_exact(GaussianKernel(0.01), 0.0, 0.1) - math.exp(-0.5)) < 1e-12


def test_kernel_exact_symmetry_and_range():
    spec = GaussianKernel(0.3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.normal(size=2) * 3
        k = kernel_exact(spec, x, y)
        assert k == kernel_exact(spec, y, x)
        assert 0.0 < k <= 1.0
        assert (k == 1.0) == (x == y)


def test_kernel_approx_self_similarity():
    rff = sample_frequencies(GaussianKernel(0.2), D=16, seed=3)
    for x in (-2.0, 0.0, 1.7):
        assert abs(kernel_approx(rff, x, x) - 1.0) < 1e-12


def test_kernel_approx_zero_frequencies():
    rff = RFFMap(frequencies=np.zeros(5), D=5, spec=GaussianKernel(1.0), seed=0)
    assert abs(kernel_approx(rff, -3.0, 4.0) - 1.0) < 1e-12


def test_kernel_approx_monte_carlo_unbiased():
    # oracle: averaging over 200 independent maps converges to the exact kernel
    spec = GaussianKernel(1.0)
    vals = [kernel_approx(sample_frequencies(spec, D=100, seed=s), 0.0, 1.0)
            for s in range(200)]
    assert abs(np.mean(vals) - math.exp(-0.5)) < 0.02


def test_kernel_approx_two_computation_paths():
    rng = np.random.default_rng(4)
    for s in range(20):
        rff = sample_frequencies(GaussianKernel(0.5), D=int(rng.integers(1, 40)), seed=s)
        x, y = rng.normal(size=2) * 2
        direct = np.mean(np.cos(rff.frequencies * (x - y)))
        assert abs(kernel_approx(rff, x, y) - direct) < 1e-10
        assert -1.0 <= kernel_approx(rff, x, y) <= 1.0 + 1e-12


def test_kernel_approx_shift_invariance():
    rng = np.random.default_rng(5)
    rff = sample_frequencies(GaussianKernel(0.7), D=24, seed=11)
    for _ in range(20):
        x, y, c = rng.normal(size=3) * 3
        assert abs(kernel_approx(rff, x + c, y + c) - kernel_approx(rff, x, y)) < 1e-10


def test_kernel_approx_unbiasedness_rate():
    # statistical tolerance 4 / sqrt(M D) at each grid point
    spec = GaussianKernel(1.0)
    M, D = 50, 64
    tol = 4.0 / math.sqrt(M * D)
    maps = [sample_frequencies(spec, D=D, seed=1000 + s) for s in range(M)]
    for delta in np.linspace(0.0, 2.5, 6):
        mean_approx = np.mean([kernel_approx(m, 0.0, delta) for m in maps])
        assert abs(mean_approx - kernel_exact(spec, 0.0, delta)) < tol


def test_rffmap_validates_length():
    with pytest.raises(ValueError):
        RFFMap(frequencies=np.zeros(3), D=4, spec=GaussianKernel(1.0), seed=0)


def test_rffmap_frequencies_immutable():
    rff = sample_frequencies(GaussianKernel(1.0), D=4, seed=0)
    with pytest.raises(ValueError):
        rff.frequencies[0] = 99.0
