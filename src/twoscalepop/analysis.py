"""Orbit location, stability classification, and dispersal-design searches.

Equilibria and 2-cycles of reduced maps are located by damped Newton
iteration with finite-difference Jacobians and classified through the
spectral radius of the linearization, with a +-1e-6 band around 1 reported
as nonhyperbolic rather than forced into a verdict.  The design searches
sweep Perron-fraction grids to certify the existence statements about
dispersal regimes (rescue/extinction and synchrony/asynchrony), and the
variant comparison quantifies how moving survival onto the fast time scale
changes the reproduction number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from . import threestage
from .aggregation import iterate_tail
from .errors import (
    CollapsedToEquilibriumError,
    InhomogeneousParamsError,
    LeftDomainError,
    NonConvergenceError,
)
from .metapop import VARIANT_RESCALED, VARIANT_SLOW
from .solvers import fd_jacobian, newton_fixed_point
from .spectral import spectral_radius
from .threestage import ThreeStageParams, bifurcation_from_coefficients, coefficients_from_fractions

Vector = NDArray[np.float64]
ScalarMap = Callable[[Vector], Vector]

KIND_EQUILIBRIUM = "equilibrium"
KIND_TWO_CYCLE = "two_cycle"

STABLE = "stable"
UNSTABLE = "unstable"
NONHYPERBOLIC = "nonhyperbolic"
HYPERBOLIC_BAND = 1e-6

RESIDUAL_BOUND = 1e-8
COINCIDENCE_TOL = 1e-8
BURN_IN = 10**4  # map steps before each Newton round of find_two_cycle
GRID_RESOLUTION = 1.0 / 64.0


def classify(rho: float) -> str:
    if rho < 1.0 - HYPERBOLIC_BAND:
        return STABLE
    if rho > 1.0 + HYPERBOLIC_BAND:
        return UNSTABLE
    return NONHYPERBOLIC


@dataclass(frozen=True)
class OrbitReport:
    """A located periodic orbit with its linearized stability data.

    ``synchronous`` is set for 3-dimensional 2-cycles: True when the two
    points carry the alternating (0, y2, 0) / (y1, 0, y3) support pattern
    within 1e-8, None when the question does not apply.
    """

    kind: str
    points: tuple[Vector, ...]
    residual: float
    spectral_radius: float
    classification: str
    synchronous: Optional[bool] = None

    @property
    def period(self) -> int:
        return 1 if self.kind == KIND_EQUILIBRIUM else 2


def _in_orthant(y: Vector) -> bool:
    return bool(np.all(np.isfinite(y)) and np.all(y >= 0.0))


def find_equilibrium(map_fn: ScalarMap, y0, domain=None) -> OrbitReport:
    """Newton-polish a fixed point of map_fn starting from y0.

    ``domain`` is an optional membership predicate; the nonnegative orthant
    is used when omitted.  Raises NonConvergenceError (with the best point
    seen) or LeftDomainError.
    """
    y0 = np.asarray(y0, dtype=float)
    inside = domain if domain is not None else _in_orthant
    if not inside(y0):
        raise LeftDomainError("initial guess lies outside the domain")
    point, residual = newton_fixed_point(map_fn, y0)
    if not inside(point):
        raise LeftDomainError("solution left the domain")
    rho = spectral_radius(fd_jacobian(map_fn, point))
    return OrbitReport(
        kind=KIND_EQUILIBRIUM,
        points=(point,),
        residual=residual,
        spectral_radius=rho,
        classification=classify(rho),
    )


def _synchronous_support(p1: Vector, p2: Vector, tol: float = COINCIDENCE_TOL) -> Optional[bool]:
    if p1.size != 3:
        return None

    def active_only(p):
        return abs(p[0]) <= tol and abs(p[2]) <= tol

    def rest_only(p):
        return abs(p[1]) <= tol

    return bool((active_only(p1) and rest_only(p2)) or (active_only(p2) and rest_only(p1)))


def find_two_cycle(map_fn: ScalarMap, y0) -> OrbitReport:
    """Locate a 2-cycle: ``BURN_IN`` map steps, then Newton on the doubled map.

    If Newton lands on a fixed point of map_fn itself the burn-in is
    extended once, from the first round's end state by ``9 * BURN_IN``
    steps, so the retry starts from the state ``10 * BURN_IN`` steps past
    y0; a second collapse raises CollapsedToEquilibriumError carrying the
    equilibrium's report.  Both burn-ins run through
    ``aggregation.iterate_tail``, so a start point whose orbit repeats bit
    for bit (a trajectory endpoint already on its cycle) costs a few steps
    instead of ``BURN_IN``, with the same end state.
    """
    y0 = np.asarray(y0, dtype=float)
    if not _in_orthant(y0):
        raise ValueError("starting state must be nonnegative and finite")

    def doubled(z):
        return map_fn(map_fn(z))

    collapsed_point = None
    collapsed_residual = 0.0
    z = y0
    for rounds in (BURN_IN, 9 * BURN_IN):
        z = iterate_tail(map_fn, z, rounds)[0][-1]
        p1, residual = newton_fixed_point(doubled, z)
        p2 = np.asarray(map_fn(p1), dtype=float)
        separation = float(np.linalg.norm(p1 - p2))
        jac2 = fd_jacobian(doubled, p1)
        # Near a period doubling I - D(F^2) is almost singular, so the
        # doubled solve can stop ~1e-8 away from an equilibrium with its two
        # phases still apart; a separation inside the solve's error bar is a
        # collapse, not a cycle.
        sigma_min = float(np.linalg.svd(np.eye(p1.size) - jac2,
                                        compute_uv=False)[-1])
        allowance = max(COINCIDENCE_TOL,
                        10.0 * residual / max(sigma_min, 1e-12))
        if separation <= allowance:
            try:
                # polish with the single map, which is well conditioned here
                collapsed_point, collapsed_residual = newton_fixed_point(map_fn, p1)
            except (NonConvergenceError, LeftDomainError):
                collapsed_point = p1
                collapsed_residual = float(np.linalg.norm(map_fn(p1) - p1))
            continue
        rho = spectral_radius(jac2)
        return OrbitReport(
            kind=KIND_TWO_CYCLE,
            points=(p1, p2),
            residual=residual,
            spectral_radius=rho,
            classification=classify(rho),
            synchronous=_synchronous_support(p1, p2),
        )
    eq_rho = spectral_radius(fd_jacobian(map_fn, collapsed_point))
    report = OrbitReport(
        kind=KIND_EQUILIBRIUM,
        points=(collapsed_point,),
        residual=collapsed_residual,
        spectral_radius=eq_rho,
        classification=classify(eq_rho),
    )
    raise CollapsedToEquilibriumError(
        "period-2 search landed on a fixed point twice", report=report
    )


def persistence_minimum(map_fn: ScalarMap, y0, steps: int = 10**5,
                        window: int = 10**3) -> float:
    """Smallest total population over the last ``window`` of ``steps`` iterates."""
    lowest = math.inf
    if steps <= 0 or window <= 0:
        return lowest
    tail, _ = iterate_tail(map_fn, y0, steps, keep=min(window, steps))
    for y in tail:
        lowest = min(lowest, float(np.sum(y)))
    return lowest


@dataclass(frozen=True)
class DesignSearchResult:
    """Grid sweep evidence for a dispersal-design existence claim.

    ``cells`` holds the grid nodes meeting the target together with their
    criterion values; ``witness`` is the most extreme of them.  The optional
    flags carry side information: whether the search's sufficient hypothesis
    held, and the closed-form feasibility predicate where one exists.
    """

    grid_resolution: float
    cells: tuple[tuple[tuple[float, float], float], ...]
    feasible_region_nonempty: bool
    witness: Optional[tuple[tuple[float, float], float]]
    hypothesis_satisfied: Optional[bool] = None
    predicate: Optional[bool] = None


def _fraction_grid() -> NDArray[np.float64]:
    return np.linspace(0.0, 1.0, 65)


TARGET_RESCUE = "rescue"
TARGET_EXTINGUISH = "extinguish"


def dispersal_search_survival(params: ThreeStageParams, target: str,
                              variant: str = VARIANT_SLOW) -> DesignSearchResult:
    """Sweep (v1, v2) Perron fractions for R0 > 1 (rescue) or < 1 (extinguish).

    The sufficient hypothesis (both patches individually below/above
    replacement plus the cross-patch corner condition, stages 2 and 3
    patch-homogeneous) is evaluated and reported; the sweep runs either way.
    """
    if target not in (TARGET_RESCUE, TARGET_EXTINGUISH):
        raise ValueError(f"unknown target {target!r}")
    s = params.survivals
    phi = params.fertilities
    v3 = float(params.fraction_table()[2, 0])
    r0_local = [threestage.local_quantities(params, a)[0] for a in range(2)]
    stages_23_match = (abs(s[1, 0] - s[1, 1]) <= 1e-12 and abs(s[2, 0] - s[2, 1]) <= 1e-12)
    hypothesis = False
    if stages_23_match:
        s2, s3 = float(s[1, 0]), float(s[2, 0])
        threshold = (1.0 - s2 * s3) / s2
        cross = (s[0, 0] * phi[1], s[0, 1] * phi[0])
        if target == TARGET_RESCUE:
            hypothesis = r0_local[0] < 1.0 and r0_local[1] < 1.0 and max(cross) > threshold
        else:
            hypothesis = r0_local[0] > 1.0 and r0_local[1] > 1.0 and min(cross) < threshold

    grid = _fraction_grid()
    cells = []
    for v1 in grid:
        for v2 in grid:
            co = coefficients_from_fractions(
                params.survivals, params.fertilities, params.crowding_c,
                params.crowding_d, (v1, v2, v3), variant)
            value = co.b * co.s1 / (1.0 - co.s2 * co.s3) - 1.0
            if (value > 0.0) if target == TARGET_RESCUE else (value < 0.0):
                cells.append(((float(v1), float(v2)), float(value)))
    pick = max if target == TARGET_RESCUE else min
    witness = pick(cells, key=lambda c: c[1]) if cells else None
    return DesignSearchResult(
        grid_resolution=GRID_RESOLUTION,
        cells=tuple(cells),
        feasible_region_nonempty=bool(cells),
        witness=witness,
        hypothesis_satisfied=hypothesis,
    )


TARGET_POSITIVE = "positive"
TARGET_NEGATIVE = "negative"


def synchrony_feasibility_predicate(params: ThreeStageParams) -> bool:
    """Closed-form test for a synchrony-inducing dispersal regime to exist.

    Requires patch-homogeneous rates: (1-s2 s3) s1 c must fall below
    (1+sqrt(2))/2 times s1 s2 s3 (1-s3) d.
    """
    if not params.is_patch_homogeneous():
        raise InhomogeneousParamsError("predicate needs patch-homogeneous rates")
    s1, s2, s3 = (float(t) for t in params.survivals[:, 0])
    c = float(params.crowding_c[0])
    d = float(params.crowding_d[0])
    lhs = (1.0 - s2 * s3) * s1 * c
    rhs = 0.5 * (1.0 + math.sqrt(2.0)) * s1 * s2 * s3 * (1.0 - s3) * d
    return lhs < rhs


def dispersal_search_synchrony(params: ThreeStageParams, target_sign: str) -> DesignSearchResult:
    """Sweep (v2, v3) Perron fractions for the sign of the cycle coefficient.

    target_sign "positive" asks for dispersal making synchronous cycles the
    stable regime (a_minus > 0), "negative" for the opposite.  Rates must be
    patch-homogeneous; the signs agree across variants there, so the sweep
    evaluates the slow-survival coefficient.
    """
    if target_sign not in (TARGET_POSITIVE, TARGET_NEGATIVE):
        raise ValueError(f"unknown target sign {target_sign!r}")
    if not params.is_patch_homogeneous():
        raise InhomogeneousParamsError("synchrony design needs patch-homogeneous rates")
    want_positive = target_sign == TARGET_POSITIVE

    # patch homogeneity collapses the aggregated survivals to the shared
    # rates, leaving only the two quadratic fraction forms to sweep
    s1, s2, s3 = (float(t) for t in params.survivals[:, 0])
    c = float(params.crowding_c[0])
    d = float(params.crowding_d[0])
    grid = _fraction_grid()
    v2 = grid[:, None]
    v3 = grid[None, :]
    within = v2 * v2 + (1.0 - v2) * (1.0 - v2)
    between = v2 * v3 + (1.0 - v2) * (1.0 - v3)
    values = -(1.0 - s2 * s3) * s1 * c * within + s1 * s2 * s3 * (1.0 - s3) * d * between
    mask = values > 0.0 if want_positive else values < 0.0
    cells = [((float(grid[i]), float(grid[j])), float(values[i, j]))
             for i, j in zip(*np.nonzero(mask))]
    pick = max if want_positive else min
    witness = pick(cells, key=lambda c: c[1]) if cells else None
    return DesignSearchResult(
        grid_resolution=GRID_RESOLUTION,
        cells=tuple(cells),
        feasible_region_nonempty=bool(cells),
        witness=witness,
        predicate=synchrony_feasibility_predicate(params) if want_positive else None,
    )


def synchrony_ratio_max(grid: int = 1024, refinements: int = 2) -> float:
    """Maximum of (xy + (1-x)(1-y)) / (x^2 + (1-x)^2) over the unit square.

    Brute-force scan plus nested refinement; the true value is (1+sqrt(2))/2
    at (1 - sqrt(2)/2, 0).
    """
    xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    best = -math.inf
    for _ in range(refinements + 1):
        xs = np.linspace(xlo, xhi, grid)
        ys = np.linspace(ylo, yhi, grid)
        x = xs[:, None]
        y = ys[None, :]
        vals = (x * y + (1.0 - x) * (1.0 - y)) / (x * x + (1.0 - x) * (1.0 - x))
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = float(vals[i, j])
        dx = (xhi - xlo) / (grid - 1)
        dy = (yhi - ylo) / (grid - 1)
        xlo, xhi = max(0.0, xs[i] - 2 * dx), min(1.0, xs[i] + 2 * dx)
        ylo, yhi = max(0.0, ys[j] - 2 * dy), min(1.0, ys[j] + 2 * dy)
    return best


ORDER_RESCALED_LOWER = "rescaled_lower"
ORDER_SLOW_LOWER = "slow_lower"
ORDER_TIED = "tied"


@dataclass(frozen=True)
class VariantComparison:
    r0_slow: float
    r0_rescaled: float
    a_minus_slow: float
    a_minus_rescaled: float
    ordering: str
    extinction_flip: bool


def compare_variants(params: ThreeStageParams) -> VariantComparison:
    """Reproduction numbers and cycle coefficients of both survival timings.

    extinction_flip marks parameter sets whose reproduction numbers straddle
    1, so the timing of survival alone decides persistence.
    """
    slow = threestage.bifurcation_data(params, VARIANT_SLOW)
    resc = threestage.bifurcation_data(params, VARIANT_RESCALED)
    if abs(resc.r0 - slow.r0) <= 1e-12:
        ordering = ORDER_TIED
    elif resc.r0 < slow.r0:
        ordering = ORDER_RESCALED_LOWER
    else:
        ordering = ORDER_SLOW_LOWER
    same_phi = abs(params.fertilities[0] - params.fertilities[1]) <= 1e-12
    survival_gap = float(np.max(np.abs(params.survivals[:, 0] - params.survivals[:, 1])))
    if same_phi and survival_gap > 1e-6 and not resc.r0 < slow.r0:
        raise RuntimeError(
            "geometric-mean reproduction number failed to fall below the arithmetic one"
        )
    return VariantComparison(
        r0_slow=slow.r0,
        r0_rescaled=resc.r0,
        a_minus_slow=slow.a_minus,
        a_minus_rescaled=resc.a_minus,
        ordering=ordering,
        extinction_flip=bool((slow.r0 - 1.0) * (resc.r0 - 1.0) < 0.0),
    )
