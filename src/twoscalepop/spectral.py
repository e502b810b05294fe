"""Perron-Frobenius machinery for column-stochastic matrices.

Primitivity diagnosis, Perron vectors, limits of matrix powers, and the
rank-one limit of survival-rescaled dispersal powers (S^(1/k) M)^k.  All
convergence diagnostics use the 1-norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NonConvergenceError, NonpositiveSurvivalError, \
    NotStochasticError, ReducibleOrPeriodicError

COLUMN_SUM_TOL = 1e-12
POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_MAX = 10**5

DIAGNOSIS_OK = "ok"
DIAGNOSIS_NOT_STOCHASTIC = "not_stochastic"
DIAGNOSIS_REDUCIBLE_OR_PERIODIC = "reducible_or_periodic"


@dataclass(frozen=True)
class StochasticMatrix:
    """A validated primitive column-stochastic matrix.

    Parameters
    ----------
    entries : ndarray
        Square nonnegative matrix whose columns each sum to 1 within
        ``COLUMN_SUM_TOL``.

    Raises
    ------
    NotStochasticError
        If a column sum deviates or an entry falls outside [0, 1].
    ReducibleOrPeriodicError
        If the matrix fails the primitivity test.
    """

    entries: NDArray[np.float64]

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        diagnosis = is_primitive_stochastic(m)
        if diagnosis == DIAGNOSIS_NOT_STOCHASTIC:
            raise NotStochasticError("columns must sum to 1 with entries in [0, 1]")
        if diagnosis == DIAGNOSIS_REDUCIBLE_OR_PERIODIC:
            raise ReducibleOrPeriodicError("matrix is not primitive")

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PerronData:
    """Perron eigendata of a primitive stochastic matrix.

    ``vector`` is the unique positive right eigenvector for eigenvalue 1,
    normalized to sum 1.
    """

    vector: NDArray[np.float64]


@dataclass(frozen=True)
class RescaledLimit:
    """Limit data of (S^(1/k) M)^k as k grows.

    ``limit_matrix`` is gamma * (v outer 1), rank one by construction.
    """

    gamma: float
    limit_matrix: NDArray[np.float64]


def is_primitive_stochastic(matrix, tol: float = COLUMN_SUM_TOL) -> str:
    """Diagnose whether a matrix is primitive column-stochastic.

    Returns one of ``"ok"``, ``"not_stochastic"``,
    ``"reducible_or_periodic"``.  Primitivity is decided exactly by checking
    strict positivity of M to the Wielandt exponent (r-1)^2 + 1.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("entries must be finite")
    if m.min() < 0.0 or m.max() > 1.0 + tol:
        return DIAGNOSIS_NOT_STOCHASTIC
    if np.max(np.abs(m.sum(axis=0) - 1.0)) > tol:
        return DIAGNOSIS_NOT_STOCHASTIC
    r = m.shape[0]
    wielandt = (r - 1) ** 2 + 1
    if np.min(np.linalg.matrix_power(m, wielandt)) <= 0.0:
        return DIAGNOSIS_REDUCIBLE_OR_PERIODIC
    return DIAGNOSIS_OK


def ensure_primitive(matrix) -> NDArray[np.float64]:
    if isinstance(matrix, StochasticMatrix):
        return matrix.entries
    m = np.asarray(matrix, dtype=float)
    diagnosis = is_primitive_stochastic(m)
    if diagnosis == DIAGNOSIS_NOT_STOCHASTIC:
        raise NotStochasticError("columns must sum to 1 with entries in [0, 1]")
    if diagnosis == DIAGNOSIS_REDUCIBLE_OR_PERIODIC:
        raise ReducibleOrPeriodicError("matrix is not primitive")
    return m


def subdominant_modulus(matrix) -> float:
    """Second-largest eigenvalue modulus of a primitive stochastic matrix.

    It controls the geometric decay rate of M^k toward its rank-one limit.
    """
    mods = np.sort(np.abs(np.linalg.eigvals(ensure_primitive(matrix))))
    return float(mods[-2]) if mods.size > 1 else 0.0


def perron_vector(matrix) -> PerronData:
    """Perron vector of a primitive stochastic matrix.

    For 2x2 matrices [[1-p, q], [p, 1-q]] the closed form
    (q/(p+q), p/(p+q)) is returned exactly.  Larger matrices use power
    iteration with 1-norm tolerance ``POWER_ITERATION_TOL``, renormalizing
    to sum 1 at every step.

    Raises
    ------
    NonConvergenceError
        If power iteration fails to settle within ``POWER_ITERATION_MAX``
        iterations (general dimension only).
    """
    m = ensure_primitive(matrix)
    r = m.shape[0]
    if r == 2:
        p = m[1, 0]
        q = m[0, 1]
        v = np.array([q / (p + q), p / (p + q)])
        return PerronData(vector=v)
    v = np.full(r, 1.0 / r)
    for _ in range(POWER_ITERATION_MAX):
        nxt = m @ v
        nxt /= nxt.sum()
        if np.abs(nxt - v).sum() < POWER_ITERATION_TOL:
            v = nxt
            break
        v = nxt
    else:
        raise NonConvergenceError("power iteration did not converge", best=v)
    return PerronData(vector=v)


def power_limit(matrix) -> NDArray[np.float64]:
    """lim M^k for primitive stochastic M: the rank-one matrix v * 1^T."""
    v = perron_vector(matrix).vector
    return np.outer(v, np.ones(v.size))


def _survival_entries(survivals) -> NDArray[np.float64]:
    s = np.asarray(survivals, dtype=float)
    if s.ndim == 2:
        if not np.array_equal(s, np.diag(np.diag(s))):
            raise ValueError("survival matrix must be diagonal")
        s = np.diag(s)
    if np.any(s <= 0.0):
        raise NonpositiveSurvivalError("survival rates must be strictly positive")
    return s


def rescaled_power(survivals, matrix, k: int) -> NDArray[np.float64]:
    """(S^(1/k) M)^k with the k-th root taken as exp(log(s)/k).

    ``survivals`` may be the diagonal entries or the diagonal matrix itself.
    For k = 1 this is exactly S M.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    s = _survival_entries(survivals)
    m = ensure_primitive(matrix)
    root = np.exp(np.log(s) / k)
    return np.linalg.matrix_power(root[:, None] * m, k)


def rescaled_power_limit(survivals, matrix) -> RescaledLimit:
    """Rank-one limit of (S^(1/k) M)^k for diagonal S.

    gamma = exp(sum_a log(s_a) v_a), the v-weighted geometric mean of the
    survival rates.
    """
    s = _survival_entries(survivals)
    m = ensure_primitive(matrix)
    v = perron_vector(m).vector
    gamma = float(np.exp(np.log(s) @ v))
    return RescaledLimit(gamma=gamma, limit_matrix=gamma * np.outer(v, np.ones(v.size)))


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a real square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(a))))
