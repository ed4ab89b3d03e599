import numpy as np
import pytest

from ihse import Configuration, ModelParams


@pytest.fixture
def head_on():
    """Two particles, left one moving right at unit speed; contact at t=2."""
    return Configuration([[0.0, 0.0], [3.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])


@pytest.fixture
def symmetric_head_on():
    """Head-on pair with |v_i - v_j|^2 = 4; contact at t=1."""
    return Configuration([[0.0, 0.0], [3.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])


@pytest.fixture
def params_elastic_example():
    return ModelParams(0.75)


@pytest.fixture
def params_inelastic_example():
    return ModelParams(0.1875)


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.abs(actual - expected).max()
    assert err <= tol, f"{label}: max error {err} > {tol} (actual {actual}, expected {expected})"
