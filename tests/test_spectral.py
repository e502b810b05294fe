import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoscalepop import spectral
from twoscalepop.errors import NotStochasticError, ReducibleOrPeriodicError
from conftest import random_stochastic


def test_rejects_columns_that_do_not_sum_to_one():
    with pytest.raises(NotStochasticError):
        spectral.StochasticMatrix(np.array([[0.6, 0.3], [0.5, 0.7]]))


def test_rejects_negative_entries():
    with pytest.raises(NotStochasticError):
        spectral.StochasticMatrix(np.array([[1.2, 0.0], [-0.2, 1.0]]))


def test_rejects_periodic_matrix():
    with pytest.raises(ReducibleOrPeriodicError):
        spectral.StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_rejects_reducible_matrix():
    with pytest.raises(ReducibleOrPeriodicError):
        spectral.StochasticMatrix(np.eye(3))


def test_diagnosis_strings():
    ok = np.array([[0.9, 0.2], [0.1, 0.8]])
    assert spectral.is_primitive_stochastic(ok) == spectral.DIAGNOSIS_OK
    assert spectral.is_primitive_stochastic(np.eye(2)) == spectral.DIAGNOSIS_REDUCIBLE_OR_PERIODIC
    assert spectral.is_primitive_stochastic(2 * np.eye(2)) == spectral.DIAGNOSIS_NOT_STOCHASTIC


def test_perron_vector_closed_form_two_patches():
    # [[1-p, q], [p, 1-q]] has Perron vector (q, p)/(p+q) and second
    # eigenvalue 1-p-q
    p, q = 0.27, 0.09
    m = np.array([[1 - p, q], [p, 1 - q]])
    data = spectral.perron_vector(m)
    assert np.allclose(data.vector, [q / (p + q), p / (p + q)], atol=1e-12)
    assert spectral.subdominant_modulus(m) == pytest.approx(1 - p - q, abs=1e-12)


def test_power_limit_is_rank_one_projection():
    rng = np.random.default_rng(0)
    m = random_stochastic(rng, 3)
    limit = spectral.power_limit(m)
    brute = np.linalg.matrix_power(m, 400)
    assert np.max(np.abs(limit - brute)) < 1e-10
    # every column equals the Perron vector
    v = spectral.perron_vector(m).vector
    assert np.max(np.abs(limit - v[:, None])) < 1e-12


def test_rescaled_power_at_k_equal_one_is_plain_product():
    rng = np.random.default_rng(1)
    m = random_stochastic(rng, 3)
    s = np.array([0.5, 0.8, 0.3])
    assert np.allclose(spectral.rescaled_power(s, m, 1), np.diag(s) @ m, atol=1e-14)


def test_rescaled_power_limit_structure():
    rng = np.random.default_rng(2)
    m = random_stochastic(rng, 3)
    s = rng.uniform(0.2, 0.9, 3)
    lim = spectral.rescaled_power_limit(s, m)
    v = spectral.perron_vector(m).vector
    assert lim.gamma == pytest.approx(float(np.prod(s ** v)), abs=1e-12)
    assert np.allclose(lim.limit_matrix, lim.gamma * np.outer(v, np.ones(3)), atol=1e-14)
    # powers approach the limit
    e128 = np.linalg.norm(spectral.rescaled_power(s, m, 128) - lim.limit_matrix, 1)
    e2048 = np.linalg.norm(spectral.rescaled_power(s, m, 2048) - lim.limit_matrix, 1)
    assert e2048 < e128
    assert e2048 < 1e-2


def test_spectral_radius_known_values():
    assert spectral.spectral_radius(np.array([[0.0, 2.0], [0.5, 0.0]])) == pytest.approx(1.0)
    assert spectral.spectral_radius(np.array([[3.0]])) == 3.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(2, 4))
def test_perron_vector_properties(seed, r):
    rng = np.random.default_rng(seed)
    m = random_stochastic(rng, r)
    data = spectral.perron_vector(m)
    v = data.vector
    assert np.all(v > 0)
    assert abs(v.sum() - 1.0) < 1e-12
    assert np.max(np.abs(m @ v - v)) < 1e-10
    assert 0.0 <= spectral.subdominant_modulus(m) < 1.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_power_limit_columns_agree(seed):
    rng = np.random.default_rng(seed)
    m = random_stochastic(rng, int(rng.integers(2, 4)))
    limit = spectral.power_limit(m)
    assert np.max(np.abs(limit - limit[:, :1])) < 1e-12
