import numpy as np
import pytest

from ndnet import data as data_mod


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def noise_draws(monkeypatch):
    """The (dataset, eta) of every ``data.inject_noise`` call in the test."""
    drawn = []
    real = data_mod.inject_noise

    def recording(dataset, eta, seed):
        drawn.append((dataset, eta))
        return real(dataset, eta, seed)

    monkeypatch.setattr(data_mod, "inject_noise", recording)
    return drawn


def central_diff(fn, x, h=1e-6):
    """Scalar central finite difference, the oracle for every gradient test."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)
