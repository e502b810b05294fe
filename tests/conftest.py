import numpy as np
import pytest

import blas_rounding
from twoscalepop import _native, scenarios


def pytest_report_header(config):
    # loads (building on first use) the compiled stepping loop, so the
    # header says which path this session's orbits step on, and why
    return f"twoscalepop stepping: {_native.describe()}"


@pytest.fixture(scope="session")
def gemv_rounds_as_the_kernels():
    """Whether the ``metapop`` oracle's H_k and H bytes can equal the
    kernels' on this BLAS (see ``blas_rounding``)."""
    return blas_rounding.gemv_rounds_as_the_kernels()


@pytest.fixture(scope="session")
def fig2_params():
    return scenarios.fig2_params()


@pytest.fixture(scope="session")
def fig3_params():
    return scenarios.fig3_params()


@pytest.fixture(scope="session")
def fig10_params():
    return scenarios.fig10_params()


@pytest.fixture(scope="session")
def flip_params():
    return scenarios.extinction_flip_params()


@pytest.fixture(scope="session")
def default_state():
    return np.array(scenarios.DEFAULT_INITIAL_STATE)


def random_stochastic(rng, r):
    """A random primitive column-stochastic matrix of size r."""
    m = rng.random((r, r)) + 0.05  # strictly positive, hence primitive
    return m / m.sum(axis=0, keepdims=True)


@pytest.fixture
def make_stochastic():
    return random_stochastic
