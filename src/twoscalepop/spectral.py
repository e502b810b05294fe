"""Perron-Frobenius machinery for column-stochastic matrices.

Primitivity diagnosis, Perron vectors, limits of matrix powers, the
rank-one limit of survival-rescaled dispersal powers (S^(1/k) M)^k, and the
block-diagonal assembly of per-stage blocks.  All convergence diagnostics
use the 1-norm.
"""
from __future__ import annotations

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


def is_primitive_stochastic(matrix) -> str:
    """Diagnose whether a matrix is primitive column-stochastic.

    Returns one of ``"ok"``, ``"not_stochastic"``,
    ``"reducible_or_periodic"``.  Primitivity is decided exactly by checking
    strict positivity of M to the Wielandt exponent (r-1)^2 + 1.  A stack
    (..., r, r) gets one diagnosis: the first test that any of its matrices
    fails.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("entries must be finite")
    if m.min() < 0.0 or m.max() > 1.0 + COLUMN_SUM_TOL:
        return DIAGNOSIS_NOT_STOCHASTIC
    if np.max(np.abs(m.sum(axis=-2) - 1.0)) > COLUMN_SUM_TOL:
        return DIAGNOSIS_NOT_STOCHASTIC
    r = m.shape[-1]
    wielandt = (r - 1) ** 2 + 1
    if np.min(np.linalg.matrix_power(m, wielandt)) <= 0.0:
        return DIAGNOSIS_REDUCIBLE_OR_PERIODIC
    return DIAGNOSIS_OK


def ensure_primitive(matrix, *, stack: bool = False) -> NDArray[np.float64]:
    """Entries of a validated primitive stochastic matrix; a stack
    (..., r, r) only with ``stack=True``."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 and not stack:
        raise ValueError("expected a square matrix")
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


def perron_vector(matrix) -> NDArray[np.float64]:
    """Perron vector of a primitive stochastic matrix: its unique positive
    right eigenvector for eigenvalue 1, normalized to sum 1.

    For 2x2 matrices [[1-p, q], [p, 1-q]] the closed form
    (q/(p+q), p/(p+q)) is returned exactly.  Larger matrices use power
    iteration with 1-norm tolerance ``POWER_ITERATION_TOL``, renormalizing
    to sum 1 at every step.  A stack (..., r, r) gives the stack of Perron
    vectors: its matrices step together, each leaving at its own
    convergence step, so each vector equals the one of its matrix alone.

    Raises
    ------
    NonConvergenceError
        If power iteration fails to settle within ``POWER_ITERATION_MAX``
        iterations (general dimension only).
    """
    return _perron(ensure_primitive(matrix, stack=True))


def _perron(m) -> NDArray[np.float64]:
    """``perron_vector`` of validated entries."""
    r = m.shape[-1]
    if r == 2:
        # the transpose's leading axes serve one matrix (scalar p, q) and a stack alike
        t = m.T
        p, q = t[0, 1], t[1, 0]
        total = p + q
        return np.array([q / total, p / total]).T
    stack = m.reshape(-1, r, r)
    v = np.full(stack.shape[:-1], 1.0 / r)
    live = np.arange(len(stack))
    for _ in range(POWER_ITERATION_MAX):
        cur = v[live]
        nxt = times(stack[live], cur)
        nxt /= nxt.sum(axis=-1, keepdims=True)
        v[live] = nxt
        # written so that a NaN step never counts as converged
        live = live[~(np.abs(nxt - cur).sum(axis=-1) < POWER_ITERATION_TOL)]
        if live.size == 0:
            return v.reshape(m.shape[:-1])
    raise NonConvergenceError("power iteration did not converge", best=v.reshape(m.shape[:-1]))


def times(a, x) -> NDArray[np.float64]:
    """a x for each vector on the last axis of x; a is one matrix or a stack.

    Each vector gets the gemv that ``a @ x`` makes for it alone; ``x @ a.T``
    would be a gemm with other roundings, and a stack of exactly as many
    vectors as a has columns must not be taken for a matrix.
    """
    return np.matmul(a, x[..., None])[..., 0]


def power_limit(matrix) -> NDArray[np.float64]:
    """lim M^k for primitive stochastic M: the rank-one matrix v * 1^T."""
    return _power_limit(ensure_primitive(matrix))


def _power_limit(m) -> NDArray[np.float64]:
    """``power_limit`` of validated entries."""
    v = _perron(m)
    return np.outer(v, np.ones(v.size))


def block_diag(*blocks) -> NDArray[np.float64]:
    """Block-diagonal float matrix with ``blocks`` (2-D arrays) on its diagonal.

    A zero matrix with each block copied into its slice, so entries equal
    the inputs bit for bit.
    """
    arrays = [np.asarray(b, dtype=float) for b in blocks]
    out = np.zeros((sum(a.shape[0] for a in arrays), sum(a.shape[1] for a in arrays)))
    r = c = 0
    for a in arrays:
        out[r:r + a.shape[0], c:c + a.shape[1]] = a
        r += a.shape[0]
        c += a.shape[1]
    return out


def _survival_entries(survivals) -> NDArray[np.float64]:
    s = np.asarray(survivals, dtype=float)
    if s.ndim != 1:
        raise ValueError("survival rates must be a vector")
    # written so that a NaN survival fails it too
    if not np.all(s > 0.0):
        raise NonpositiveSurvivalError("survival rates must be strictly positive")
    return s


def rescaled_power(survivals, matrix, k: int) -> NDArray[np.float64]:
    """(S^(1/k) M)^k with the k-th root taken as exp(log(s)/k), for S the
    diagonal matrix of ``survivals``.

    For k = 1 this is exactly S M.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    s = _survival_entries(survivals)
    m = ensure_primitive(matrix)
    root = np.exp(np.log(s) / k)
    return np.linalg.matrix_power(root[:, None] * m, k)


def rescaled_power_limit(survivals, matrix) -> NDArray[np.float64]:
    """Rank-one limit of (S^(1/k) M)^k for S the diagonal matrix of
    ``survivals``: gamma * v * 1^T.

    gamma = exp(sum_a log(s_a) v_a), the v-weighted geometric mean of the
    survival rates.
    """
    s = _survival_entries(survivals)
    return _rescaled_power_limit(s, ensure_primitive(matrix))


def _rescaled_power_limit(s, m) -> NDArray[np.float64]:
    """``rescaled_power_limit`` of validated survivals and entries."""
    v = _perron(m)
    gamma = float(np.exp(np.log(s) @ v))
    return gamma * np.outer(v, np.ones(v.size))


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a real square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(a))))
