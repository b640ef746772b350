"""Gaussian kernel, Fourier frequency sampling, and the random feature map.

The feature map z(x) = (1/sqrt(D)) [sin(v_1 x), ..., sin(v_D x),
cos(v_1 x), ..., cos(v_D x)] approximates a shift-invariant Gaussian
kernel through the inner product z(x)^T z(x'), with frequencies v_i drawn
from the kernel's spectral density.  For the Gaussian kernel
kappa(x, x') = exp(-(x - x')^2 / (2 s2)) that density is a zero-mean
Gaussian with variance 1/s2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian kernel with bandwidth parameter `variance` (s2 > 0)."""

    variance: float

    def __post_init__(self):
        if not np.isfinite(self.variance) or self.variance <= 0:
            raise ValueError(f"kernel variance must be positive, got {self.variance}")


@dataclass(frozen=True)
class RFFMap:
    """Frozen draw of D spectral frequencies for one Gaussian kernel.

    Immutable after construction; the same (spec, D, seed) triple always
    reproduces the same frequencies bit-exactly.
    """

    frequencies: np.ndarray
    D: int
    spec: GaussianKernel
    seed: int

    def __post_init__(self):
        freqs = np.array(self.frequencies, dtype=float)
        freqs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        if freqs.ndim != 1 or len(freqs) != self.D:
            raise ValueError(f"expected {self.D} frequencies, got shape {freqs.shape}")


def sample_frequencies(spec: GaussianKernel, D: int, seed: int) -> RFFMap:
    """Draw D iid frequencies from N(0, 1/variance), reproducibly.

    Raises ValueError for D < 1 or an invalid kernel spec.
    """
    if D < 1:
        raise ValueError(f"D must be a positive integer, got {D}")
    rng = np.random.default_rng(seed)
    freqs = rng.standard_normal(D) / np.sqrt(spec.variance)
    return RFFMap(frequencies=freqs, D=D, spec=spec, seed=seed)


def feature_map(rff: RFFMap, x: float) -> np.ndarray:
    """Evaluate the 2D-dimensional sin/cos feature vector at a scalar x.

    The result has unit Euclidean norm (sin^2 + cos^2 = 1 per frequency,
    scaled by 1/sqrt(D)).
    """
    if not np.isfinite(x):
        raise ValueError(f"feature_map requires a finite input, got {x}")
    arg = rff.frequencies * x
    return np.concatenate([np.sin(arg), np.cos(arg)]) / np.sqrt(rff.D)


def kernel_exact(spec: GaussianKernel, x: float, x2: float) -> float:
    """Closed-form Gaussian kernel exp(-(x - x')^2 / (2 variance))."""
    d = x - x2
    return float(np.exp(-(d * d) / (2.0 * spec.variance)))


def kernel_approx(rff: RFFMap, x: float, x2: float) -> float:
    """Random-feature kernel estimate z(x)^T z(x').

    Algebraically equal to (1/D) sum_i cos(v_i (x - x')); always in [-1, 1]
    and exactly 1 at x = x'.
    """
    return float(np.dot(feature_map(rff, x), feature_map(rff, x2)))
