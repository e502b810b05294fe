"""General q-stage, r-patch population models with fast dispersal.

State X is blocked by stage, X = (X_1, ..., X_q) with X_i in R_+^r, and
Y = U X collects stage totals.  One slow step applies k rounds of dispersal
followed by demography:

    slow-survival:  X' = D(Z) Z,        Z = M(Y)^k X
    rescaled:       X' = Dt(Z) Z,       Z = (S(Y)^(1/k) M(Y))^k X

where M(Y) is block diagonal with a primitive column-stochastic block per
stage, D is the demography matrix with diagonal stage-to-stage blocks, S is
the diagonal survival part of D, and Dt = D / S entrywise by column.  As k
grows the dispersal power approaches a rank-one block operator built from
Perron vectors (scaled by geometric-mean survivals gamma_i in the rescaled
variant), which yields the reduced q-dimensional maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import block_diag

from . import spectral
from .aggregation import TwoScaleSystem
from .errors import DomainExitError, NonpositiveSurvivalError

Vector = NDArray[np.float64]

VARIANT_SLOW = "slow_survival"
VARIANT_RESCALED = "rescaled"
VARIANTS = (VARIANT_SLOW, VARIANT_RESCALED)


def aggregate(x, patches: int) -> Vector:
    """Stage totals y_i = sum over patches of x_i^alpha."""
    arr = np.asarray(x, dtype=float)
    if arr.size % patches != 0:
        raise ValueError("state length is not a multiple of the patch count")
    return arr.reshape(-1, patches).sum(axis=1)


@dataclass(frozen=True)
class MetapopModel:
    """Rate functions of a two-time-scale stage-patch model.

    dispersal(Y) returns one r x r primitive column-stochastic matrix per
    stage; demography(X) the full qr x qr matrix with diagonal blocks;
    survival(Y) the (q, r) array of per-stage per-patch survival rates that
    factor demography columnwise as D = Dt * S.  ``constant_rates`` declares
    that all three ignore their argument, unlocking cached dispersal powers.
    """

    stages: int
    patches: int
    dispersal: Callable[[Vector], Sequence[NDArray[np.float64]]]
    demography: Callable[[Vector], NDArray[np.float64]]
    survival: Callable[[Vector], NDArray[np.float64]]
    constant_rates: bool = False

    def __post_init__(self):
        if self.stages < 1 or self.patches < 1:
            raise ValueError("stage and patch counts must be positive")

    def aggregate(self, x) -> Vector:
        return aggregate(x, self.patches)


def _dispersal_blocks(model: MetapopModel, y: Vector) -> list[NDArray[np.float64]]:
    mats = [np.asarray(m, dtype=float) for m in model.dispersal(y)]
    if len(mats) != model.stages:
        raise ValueError("dispersal must return one matrix per stage")
    for m in mats:
        if m.shape != (model.patches, model.patches):
            raise ValueError("dispersal blocks must be r x r")
        spectral.ensure_primitive(m)
    return mats


def _survival_table(model: MetapopModel, y: Vector) -> NDArray[np.float64]:
    s = np.asarray(model.survival(y), dtype=float)
    if s.shape != (model.stages, model.patches):
        raise ValueError("survival must return a (stages, patches) table")
    if np.any(s <= 0.0):
        raise NonpositiveSurvivalError("survival rates must be strictly positive")
    if np.any(s > 1.0):
        raise ValueError("survival rates must lie in (0, 1]")
    return s


def demography_factored(model: MetapopModel, x) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(D(X), Dt(X)) with the division taken entrywise per column.

    Zero demographic entries stay exactly zero whatever the survivals.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(model.demography(x), dtype=float)
    s = _survival_table(model, model.aggregate(x))
    divisors = s.ravel()  # column for stage j, patch a is scaled by s_j^a
    dt = np.where(d != 0.0, d / divisors[None, :], 0.0)
    return d, dt


def factorization_gap(model: MetapopModel, x) -> float:
    """max |D - Dt*S| entrywise; should sit at rounding level."""
    x = np.asarray(x, dtype=float)
    d, dt = demography_factored(model, x)
    s = _survival_table(model, model.aggregate(x))
    return float(np.max(np.abs(d - dt * s.ravel()[None, :])))


def _apply_demography(model: MetapopModel, z: Vector, variant: str) -> Vector:
    """D(Z) Z (slow survival) or Dt(Z) Z (rescaled), checked for finiteness."""
    if variant == VARIANT_SLOW:
        d = np.asarray(model.demography(z), dtype=float)
    else:
        _, d = demography_factored(model, z)
    x = d @ z
    if not np.all(np.isfinite(x)):
        raise DomainExitError("step produced a non-finite state", state=x)
    return x


def complete_step_slow(model: MetapopModel, x, k: int) -> Vector:
    """One slow step of the slow-survival complete system.

    Z = M(UX)^k X by repeated multiplication, then D(Z) Z.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    x = np.asarray(x, dtype=float)
    y = model.aggregate(x)
    b = block_diag(*_dispersal_blocks(model, y))
    z = x
    for _ in range(k):
        z = b @ z
    return _apply_demography(model, z, VARIANT_SLOW)


def complete_step_rescaled(model: MetapopModel, x, k: int) -> Vector:
    """One slow step of the survival-rescaled complete system.

    Z = (S^(1/k) M)^k X with S evaluated at UX and the k-th root taken as
    exp(log(s)/k), then Dt(Z) Z.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    x = np.asarray(x, dtype=float)
    y = model.aggregate(x)
    s = _survival_table(model, y)
    b = block_diag(*_dispersal_blocks(model, y))
    root = np.exp(np.log(s.ravel()) / k)
    a = root[:, None] * b
    z = x
    for _ in range(k):
        z = a @ z
    return _apply_demography(model, z, VARIANT_RESCALED)


def lift_slow(model: MetapopModel, y) -> Vector:
    """V(Y) Y: each stage total spread along its Perron vector."""
    y = np.asarray(y, dtype=float)
    mats = _dispersal_blocks(model, y)
    parts = [spectral.perron_vector(m).vector * y[i] for i, m in enumerate(mats)]
    return np.concatenate(parts)


def lift_rescaled(model: MetapopModel, y) -> Vector:
    """Vt(Y) Y: Perron-vector spread scaled by gamma_i = exp(log(s_i) . v_i)."""
    y = np.asarray(y, dtype=float)
    mats = _dispersal_blocks(model, y)
    s = _survival_table(model, y)
    parts = []
    for i, m in enumerate(mats):
        v = spectral.perron_vector(m).vector
        gamma = float(np.exp(np.log(s[i]) @ v))
        parts.append(gamma * v * y[i])
    return np.concatenate(parts)


def reduced_step_slow(model: MetapopModel, y) -> Vector:
    """Aggregated slow-survival dynamics: Y' = U D(V(Y)Y) V(Y)Y."""
    return model.aggregate(_apply_demography(model, lift_slow(model, y), VARIANT_SLOW))


def reduced_step_rescaled(model: MetapopModel, y) -> Vector:
    """Aggregated rescaled dynamics: Y' = U Dt(Vt(Y)Y) Vt(Y)Y."""
    return model.aggregate(
        _apply_demography(model, lift_rescaled(model, y), VARIANT_RESCALED))


def _limit_dispersal(model: MetapopModel, y: Vector, variant: str) -> NDArray[np.float64]:
    mats = _dispersal_blocks(model, y)
    ones = np.ones(model.patches)
    if variant == VARIANT_SLOW:
        blocks = [np.outer(spectral.perron_vector(m).vector, ones) for m in mats]
    else:
        s = _survival_table(model, y)
        blocks = [spectral.rescaled_power_limit(s[i], m).limit_matrix
                  for i, m in enumerate(mats)]
    return block_diag(*blocks)


def limit_step(model: MetapopModel, x, variant: str) -> Vector:
    """The k -> infinity limit of one complete slow step."""
    x = np.asarray(x, dtype=float)
    z = _limit_dispersal(model, model.aggregate(x), variant) @ x
    return _apply_demography(model, z, variant)


def make_system(model: MetapopModel, variant: str) -> TwoScaleSystem:
    """Wrap a model as a TwoScaleSystem for the generic harnesses.

    With constant_rates the limit dispersal operator and the lift's spread
    vectors are built once, and the powered dispersal operator for each
    requested k on first use; otherwise every call rebuilds them at the
    current state, matching the literal step functions.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = model.stages * model.patches
    q = model.stages
    slow = variant == VARIANT_SLOW

    def projection(x):
        return model.aggregate(x)

    def lift(y):
        x = lift_slow(model, y) if slow else lift_rescaled(model, y)
        return _apply_demography(model, x, variant)

    def limit_map(x):
        return limit_step(model, x, variant)

    if model.constant_rates:
        # every operator is built once, each entry formed as the per-call
        # steps form it: the limit dispersal and the lift spreads (Perron
        # vectors, times gamma_i when rescaled) as well as the powers
        y0 = np.zeros(q)
        mats = _dispersal_blocks(model, y0)
        base = block_diag(*mats)
        limit = _limit_dispersal(model, y0, variant)
        if slow:
            spreads = [spectral.perron_vector(m).vector for m in mats]
        else:
            s_table = _survival_table(model, y0)
            s = s_table.ravel()
            spreads = []
            for i, m in enumerate(mats):
                v = spectral.perron_vector(m).vector
                spreads.append(float(np.exp(np.log(s_table[i]) @ v)) * v)
        powers: dict[int, NDArray[np.float64]] = {}

        def lift(y):
            y = np.asarray(y, dtype=float)
            x = np.concatenate([v * y[i] for i, v in enumerate(spreads)])
            return _apply_demography(model, x, variant)

        def limit_map(x):
            return _apply_demography(model, limit @ np.asarray(x, dtype=float), variant)

        def complete_map(k: int, x):
            a = powers.get(k)
            if a is None:
                if slow:
                    a = np.linalg.matrix_power(base, k)
                else:
                    a = np.linalg.matrix_power(np.exp(np.log(s) / k)[:, None] * base, k)
                powers[k] = a
            return _apply_demography(model, a @ np.asarray(x, dtype=float), variant)
    else:
        def complete_map(k: int, x):
            if slow:
                return complete_step_slow(model, x, k)
            return complete_step_rescaled(model, x, k)

    return TwoScaleSystem(
        state_dim=n,
        reduced_dim=q,
        complete_map=complete_map,
        limit_map=limit_map,
        projection=projection,
        lift=lift,
    )
