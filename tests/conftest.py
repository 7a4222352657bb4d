import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_point(rng, biased=True):
    """One valid (theta, phi, tau, eta, x) tuple."""
    theta = rng.uniform(0, np.pi)
    phi = rng.uniform(0, 2 * np.pi)
    tau = rng.uniform(0, np.pi)
    eta = rng.uniform(0, 1)
    x = rng.uniform(-1, 1) * (1 - eta) if biased else 0.0
    return theta, phi, tau, eta, x


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def bits(a) -> np.ndarray:
    """The float64 array `a` as int64, so that equality also compares the
    sign of zeros."""
    return np.asarray(a, dtype=float).view(np.int64)
