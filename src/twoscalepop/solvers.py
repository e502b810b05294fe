"""Finite-difference Jacobians and damped Newton iteration for fixed points."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import LeftDomainError, NonConvergenceError

# Central differences, step 1e-6 * max(1, |x_j|).
FD_STEP = 1e-6

# Newton iterates may wander this far below zero before we call it a domain exit.
ORTHANT_SLACK = 1e-9

# Newton stops once the residual norm falls below NEWTON_TOL; it takes at
# most NEWTON_MAX_ITER steps and halves each step at most NEWTON_MAX_HALVINGS
# times.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 80
NEWTON_MAX_HALVINGS = 20


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x`` (``FD_STEP``).

    ``f`` is evaluated at the perturbed points only, so the row count comes
    from the columns.  No error path moves: Newton and the orbit searches
    have already evaluated ``f`` at ``x`` itself, and the other callers
    (``instability_check``'s centre, ``check``'s lifted equilibrium) pass
    an admissible state, where the package's maps raise nothing.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.size):
        h = FD_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.column_stack(columns)


def newton_fixed_point(map_fn: Callable[[np.ndarray], np.ndarray],
                       x0: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve map_fn(x) = x by damped Newton on the residual map_fn(x) - x.

    Steps are halved until the residual norm decreases and the iterate
    stays within the nonnegative orthant up to ``ORTHANT_SLACK``.  Returns
    the final iterate together with its residual norm.
    """
    x = np.asarray(x0, dtype=float).copy()
    res = np.asarray(map_fn(x)) - x
    rnorm = float(np.linalg.norm(res))
    for _ in range(NEWTON_MAX_ITER):
        if rnorm < NEWTON_TOL:
            return x, rnorm
        jac = fd_jacobian(map_fn, x) - np.eye(x.size)
        try:
            full_step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                "singular Newton system", best=x, residual=rnorm)
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            cand = x - scale * full_step
            if cand.min() < -ORTHANT_SLACK:
                scale *= 0.5
                continue
            cand_res = np.asarray(map_fn(cand)) - cand
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm <= rnorm or cand_norm < NEWTON_TOL:
                x, res, rnorm = cand, cand_res, cand_norm
                break
            scale *= 0.5
        else:
            if (x - full_step).min() < -ORTHANT_SLACK:
                raise LeftDomainError("Newton step could not stay in the orthant")
            # Stuck: residual refuses to decrease at any step length.
            raise NonConvergenceError(
                "Newton stalled", best=x, residual=rnorm)
    if rnorm < NEWTON_TOL:
        return x, rnorm
    raise NonConvergenceError("Newton ran out of iterations", best=x, residual=rnorm)
