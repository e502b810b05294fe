"""General q-stage, r-patch population models with fast dispersal.

State X is blocked by stage, X = (X_1, ..., X_q) with X_i in R_+^r, and
Y = U X collects stage totals.  One slow step applies k rounds of dispersal
followed by demography:

    slow-survival:  X' = D(Z) Z,        Z = M^k X
    rescaled:       X' = Dt(Z) Z,       Z = (S^(1/k) M)^k X

where M is block diagonal with a constant primitive column-stochastic block
per stage, D is the demography matrix with diagonal stage-to-stage blocks,
S is the constant diagonal survival part of D, and Dt = D / S entrywise by
column.  As k grows the dispersal power approaches a rank-one block operator
built from Perron vectors (scaled by geometric-mean survivals gamma_i in
the rescaled variant), which yields the reduced q-dimensional maps.

This generic matrix pipeline is the test oracle for the closed-form
``threestage`` maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from . import spectral
from .aggregation import TwoScaleSystem
from .errors import DomainExitError, NonpositiveSurvivalError

Vector = NDArray[np.float64]

VARIANT_SLOW = "slow_survival"
VARIANT_RESCALED = "rescaled"
VARIANTS = (VARIANT_SLOW, VARIANT_RESCALED)


def aggregate(x, patches: int) -> Vector:
    """Stage totals y_i = sum over patches of x_i^alpha, along the last axis
    of a state or of a stack of states."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] % patches != 0:
        raise ValueError("state length is not a multiple of the patch count")
    return arr.reshape(*arr.shape[:-1], -1, patches).sum(axis=-1)


def _frozen(values) -> NDArray[np.float64]:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class MetapopModel:
    """A two-time-scale stage-patch model with constant rates.

    ``dispersal`` holds one r x r primitive column-stochastic block per
    stage and ``survival`` the (q, r) table of per-stage per-patch survival
    rates in (0, 1]; both are validated once, here, and stored read-only.
    ``demography(X)`` returns the full qr x qr matrix with diagonal blocks,
    which the survivals factor columnwise as D = Dt * S.
    """

    stages: int
    patches: int
    dispersal: Sequence[NDArray[np.float64]]
    demography: Callable[[Vector], NDArray[np.float64]]
    survival: NDArray[np.float64]

    def __post_init__(self):
        if self.stages < 1 or self.patches < 1:
            raise ValueError("stage and patch counts must be positive")
        blocks = tuple(_frozen(m) for m in self.dispersal)
        if len(blocks) != self.stages:
            raise ValueError("dispersal must hold one matrix per stage")
        for m in blocks:
            if m.shape != (self.patches, self.patches):
                raise ValueError("dispersal blocks must be r x r")
            spectral.ensure_primitive(m)
        s = _frozen(self.survival)
        if s.shape != (self.stages, self.patches):
            raise ValueError("survival must be a (stages, patches) table")
        if np.any(s <= 0.0):
            raise NonpositiveSurvivalError("survival rates must be strictly positive")
        if not np.all(s <= 1.0):
            raise ValueError("survival rates must lie in (0, 1]")
        object.__setattr__(self, "dispersal", blocks)
        object.__setattr__(self, "survival", s)

    def aggregate(self, x) -> Vector:
        return aggregate(x, self.patches)


def demography_factored(model: MetapopModel, x) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(D(X), Dt(X)) with the division taken entrywise per column.

    Zero demographic entries stay exactly zero whatever the survivals.
    """
    d = np.asarray(model.demography(np.asarray(x, dtype=float)), dtype=float)
    divisors = model.survival.ravel()  # column for stage j, patch a is scaled by s_j^a
    dt = np.where(d != 0.0, d / divisors[None, :], 0.0)
    return d, dt


def factorization_gap(model: MetapopModel, x) -> float:
    """max |D - Dt*S| entrywise; should sit at rounding level."""
    d, dt = demography_factored(model, x)
    return float(np.max(np.abs(d - dt * model.survival.ravel()[None, :])))


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


def make_system(model: MetapopModel, variant: str) -> TwoScaleSystem:
    """Wrap a model as a TwoScaleSystem for the generic harnesses.

    The limit dispersal operator and the lift's spread vectors (Perron
    vectors, times gamma_i = exp(log(s_i) . v_i) when rescaled) are built
    once, and the powered dispersal operator M^k or (S^(1/k) M)^k for each
    requested k on first use.  Every map then applies one operator and the
    demography matrix.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    slow = variant == VARIANT_SLOW
    base = spectral.block_diag(*model.dispersal)
    s = model.survival.ravel()
    spreads = []
    for i, m in enumerate(model.dispersal):
        v = spectral.perron_vector(m).vector
        if not slow:
            v = float(np.exp(np.log(model.survival[i]) @ v)) * v
        spreads.append(v)
    ones = np.ones(model.patches)
    limit = spectral.block_diag(*[np.outer(v, ones) for v in spreads])
    powers: dict[int, NDArray[np.float64]] = {}

    def complete_map(k: int, x) -> Vector:
        a = powers.get(k)
        if a is None:
            if slow:
                a = np.linalg.matrix_power(base, k)
            else:
                a = np.linalg.matrix_power(np.exp(np.log(s) / k)[:, None] * base, k)
            powers[k] = a
        return _apply_demography(model, a @ np.asarray(x, dtype=float), variant)

    def limit_map(x) -> Vector:
        return _apply_demography(model, limit @ np.asarray(x, dtype=float), variant)

    def lift(y) -> Vector:
        y = np.asarray(y, dtype=float)
        x = np.concatenate([v * y[i] for i, v in enumerate(spreads)])
        return _apply_demography(model, x, variant)

    return TwoScaleSystem(
        state_dim=model.stages * model.patches,
        reduced_dim=model.stages,
        complete_map=complete_map,
        limit_map=limit_map,
        projection=model.aggregate,
        lift=lift,
    )
