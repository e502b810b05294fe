"""Three-stage, two-patch model: juveniles, active adults, inactive adults.

Demography on each patch sends juveniles to active adults with survival s1,
active adults to inactive with s2, and lets inactive adults either re-enter
the active stage (rate g) or remain inactive, surviving s3 either way.
Births are produced by surviving active adults at the crowding-limited rate
f(x2) = phi / (1 + c x2); re-entry is depressed by active-adult density as
g(x2) = 1 / (1 + d x2).  Dispersal between the two patches is fast and
per-stage.

Aggregating over patches gives a 3-dimensional reduced map whose projection
matrix at total-active-density y2 is

    [ 0        b h1(y2)        0              ]
    [ s1       0               s3 h2(y2)      ]
    [ 0        s2              s3 (1-h2(y2))  ]

with coefficients depending on the variant: slow_survival averages rates
along the dispersal Perron fractions (arithmetic means), rescaled moves
survival onto the fast scale and produces weighted geometric means.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from . import _native, metapop, spectral
from .aggregation import TwoScaleSystem
from .errors import DomainExitError, NegativeDensityError
from .metapop import VARIANT_RESCALED, VARIANT_SLOW, VARIANTS

Vector = NDArray[np.float64]

DEFAULT_MIXING = 0.9  # theta: migration intensity realizing prescribed Perron fractions

STAGES = 3
PATCHES = 2


def _as_pair(x, name: str) -> NDArray[np.float64]:
    a = np.asarray(x, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"{name} must have one value per patch")
    return a


@dataclass(frozen=True)
class ThreeStageParams:
    """Parameter record; rates indexed [stage, patch] or [patch].

    migration[i] = (p_i, q_i) are the patch-1 -> 2 and 2 -> 1 rates for
    stage i, giving the dispersal matrix [[1-p, q], [p, 1-q]].
    """

    survivals: NDArray[np.float64]     # (3, 2), entries in (0, 1)
    fertilities: NDArray[np.float64]   # (2,), > 0
    crowding_c: NDArray[np.float64]    # (2,), > 0
    crowding_d: NDArray[np.float64]    # (2,), > 0
    migration: NDArray[np.float64]     # (3, 2) rows (p_i, q_i), entries in (0, 1)

    def __post_init__(self):
        s = np.asarray(self.survivals, dtype=float)
        mig = np.asarray(self.migration, dtype=float)
        object.__setattr__(self, "survivals", s)
        object.__setattr__(self, "fertilities", _as_pair(self.fertilities, "fertilities"))
        object.__setattr__(self, "crowding_c", _as_pair(self.crowding_c, "crowding_c"))
        object.__setattr__(self, "crowding_d", _as_pair(self.crowding_d, "crowding_d"))
        object.__setattr__(self, "migration", mig)
        if s.shape != (STAGES, PATCHES):
            raise ValueError("survivals must be a (3, 2) table")
        # each check is written so that NaN fails it
        if not np.all((s > 0.0) & (s < 1.0)):
            raise ValueError("survivals must lie strictly inside (0, 1)")
        if not np.all((self.fertilities > 0.0) & np.isfinite(self.fertilities)):
            raise ValueError("fertilities must be positive and finite")
        crowding = np.concatenate([self.crowding_c, self.crowding_d])
        if not np.all((crowding > 0.0) & np.isfinite(crowding)):
            raise ValueError("crowding coefficients must be positive and finite")
        if mig.shape != (STAGES, PATCHES):
            raise ValueError("migration must be a (3, 2) table of (p, q) rows")
        if not np.all((mig > 0.0) & (mig < 1.0)):
            raise ValueError("migration rates must lie strictly inside (0, 1)")

    @classmethod
    def from_fractions(cls, survivals, fertilities, crowding_c, crowding_d,
                       fractions, mixing: float = DEFAULT_MIXING) -> "ThreeStageParams":
        """Build migration rates realizing prescribed patch-1 Perron fractions.

        p_i = mixing*(1 - v_i), q_i = mixing*v_i gives Perron fraction
        q/(p+q) = v_i exactly for any mixing strength in (0, 1).
        """
        v = np.asarray(fractions, dtype=float)
        if v.shape != (STAGES,):
            raise ValueError("fractions must give one patch-1 share per stage")
        if not np.all((v > 0.0) & (v < 1.0)):
            raise ValueError("fractions must lie strictly inside (0, 1)")
        if not 0.0 < mixing < 1.0:
            raise ValueError("mixing strength must lie strictly inside (0, 1)")
        mig = np.column_stack([mixing * (1.0 - v), mixing * v])
        return cls(survivals, fertilities, crowding_c, crowding_d, mig)

    def fraction_table(self) -> NDArray[np.float64]:
        """Perron fractions (v_i^1, v_i^2) of each stage's dispersal matrix."""
        p = self.migration[:, 0]
        q = self.migration[:, 1]
        v1 = q / (p + q)
        return np.column_stack([v1, 1.0 - v1])

    def is_patch_homogeneous(self) -> bool:
        """True when survivals, fertilities, and crowding match across patches
        within 1e-12."""
        tol = 1e-12
        return bool(
            np.max(np.abs(self.survivals[:, 0] - self.survivals[:, 1])) <= tol
            and abs(self.fertilities[0] - self.fertilities[1]) <= tol
            and abs(self.crowding_c[0] - self.crowding_c[1]) <= tol
            and abs(self.crowding_d[0] - self.crowding_d[1]) <= tol
        )


_POLE = "density argument at or beyond the response pole"


def _guarded_reciprocal(den):
    # rational responses stay smooth for small negative densities; only a
    # nonpositive denominator (at or beyond the pole) is a caller error
    if np.less_equal(den, 0.0).any():
        raise NegativeDensityError(_POLE)
    return 1.0 / den


def fertility_response(phi, c, x2):
    """phi / (1 + c x2), elementwise for arrays."""
    return phi * _guarded_reciprocal(1.0 + c * x2)


def recovery_response(d, x2):
    """1 / (1 + d x2), elementwise for arrays."""
    return _guarded_reciprocal(1.0 + d * x2)


def dispersal_matrices(params: ThreeStageParams) -> list[NDArray[np.float64]]:
    out = []
    for i in range(STAGES):
        p, q = params.migration[i]
        out.append(np.array([[1.0 - p, q], [p, 1.0 - q]]))
    return out


def demography_matrix(params: ThreeStageParams, x) -> NDArray[np.float64]:
    """The 6x6 demography D at state X, formed as residual * diag(survival).

    State order is (x1^1, x1^2, x2^1, x2^2, x3^1, x3^2); the matrix has
    exactly ten structurally nonzero entries.  A stack of states (state on
    the last axis) gives the stack of their matrices, entry for entry the
    same floats.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != STAGES * PATCHES:
        raise ValueError("state must have six coordinates")
    x2 = x[..., 2:4]  # active adults, one per patch
    f = fertility_response(params.fertilities, params.crowding_c, x2)
    g = recovery_response(params.crowding_d, x2)
    dt = np.zeros((*x.shape[:-1], 6, 6))
    for a in range(PATCHES):
        ga = g[..., a]
        dt[..., 0 + a, 2 + a] = f[..., a]
        dt[..., 2 + a, 0 + a] = 1.0
        dt[..., 2 + a, 4 + a] = ga
        dt[..., 4 + a, 2 + a] = 1.0
        dt[..., 4 + a, 4 + a] = 1.0 - ga
    # column order (stage, patch) matches the state order
    return dt * params.survivals.ravel()[None, :]


def make_model(params: ThreeStageParams) -> metapop.MetapopModel:
    """Constant-rate stage-patch model for the generic machinery."""
    return metapop.MetapopModel(
        stages=STAGES,
        patches=PATCHES,
        dispersal=dispersal_matrices(params),
        demography=lambda x: demography_matrix(params, x),
        survival=params.survivals,
    )


def _demography_constants(params: ThreeStageParams, variant: str) -> tuple[float, ...]:
    """(e1a, e1b, e2a, e2b, s2a, s2b, u2a, u2b, s3a, s3b, u3a, u3b, phi_a,
    phi_b, c_a, c_b, d_a, d_b): the closed-form demography's constants, in
    the order the compiled loop reads them."""
    (s1a, s1b), (s2a, s2b), (s3a, s3b) = params.survivals.tolist()
    if variant == VARIANT_RESCALED:
        (u1a, u1b), (u2a, u2b), (u3a, u3b) = params.survivals.tolist()
    else:
        u1a = u1b = u2a = u2b = u3a = u3b = 1.0  # x / 1.0 == x exactly
    return (s1a / u1a, s1b / u1b, s2a / u2a, s2b / u2b, s2a, s2b, u2a, u2b,
            s3a, s3b, u3a, u3b, *params.fertilities.tolist(),
            *params.crowding_c.tolist(), *params.crowding_d.tolist())


def _closed_form_demography(constants: tuple[float, ...]) -> Callable:
    """Closed-form Z -> D(Z) Z (slow survival) or Dt(Z) Z (rescaled).

    Takes the six coordinates of Z as floats and returns the checked image
    as a tuple of floats.  Every entry is formed as ``metapop`` forms it
    from ``demography_matrix`` -- (f s2), (g s3), ((1-g) s3), each divided
    by its column's survival in the rescaled variant -- and each row adds
    its two products in column order; the tests hold the result to the
    matrix product bit for bit.  ``constants`` come from
    ``_demography_constants``.
    """
    (e1a, e1b, e2a, e2b, s2a, s2b, u2a, u2b, s3a, s3b, u3a, u3b,
     phi_a, phi_b, c_a, c_b, d_a, d_b) = constants

    def apply(z) -> tuple[float, ...]:
        z1a, z1b, z2a, z2b, z3a, z3b = z
        # fertility_response and recovery_response inlined, same expression order
        den_fa = 1.0 + c_a * z2a
        den_ga = 1.0 + d_a * z2a
        den_fb = 1.0 + c_b * z2b
        den_gb = 1.0 + d_b * z2b
        if den_fa <= 0.0 or den_ga <= 0.0 or den_fb <= 0.0 or den_gb <= 0.0:
            raise NegativeDensityError(_POLE)
        f_a = phi_a * (1.0 / den_fa)
        g_a = 1.0 / den_ga
        f_b = phi_b * (1.0 / den_fb)
        g_b = 1.0 / den_gb
        out = (
            (f_a * s2a) / u2a * z2a,
            (f_b * s2b) / u2b * z2b,
            e1a * z1a + (g_a * s3a) / u3a * z3a,
            e1b * z1b + (g_b * s3b) / u3b * z3b,
            e2a * z2a + ((1.0 - g_a) * s3a) / u3a * z3a,
            e2b * z2b + ((1.0 - g_b) * s3b) / u3b * z3b,
        )
        # a non-finite entry makes the sum non-finite, so the entries are
        # checked one by one only then (or when a finite sum overflows)
        if not math.isfinite(sum(out)) and not all(map(math.isfinite, out)):
            raise DomainExitError("step produced a non-finite state", state=np.array(out))
        return out

    return apply


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit floats
_HUGE, _TINY = 2.0 ** 960, 2.0 ** -960


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as C's ``fma`` gives it (``math.fma`` is new
    in Python 3.13).

    Inside the range where nothing overflows or underflows, Dekker's split
    product (T. J. Dekker, Numer. Math. 18, 1971) gives a * b exactly as
    p + e, and ``math.fsum`` rounds p + e + c once (J. R. Shewchuk, Discrete
    Comput. Geom. 18, 1997).  A zero or non-finite factor makes the float
    product exact, and a non-finite c is the result; anything else is
    summed exactly as fractions.  A NaN result may carry other NaN bits
    than C's (the kernels treat any NaN image as an error).
    """
    p = a * b
    if _TINY < abs(p) < _HUGE and abs(a) < _HUGE and abs(b) < _HUGE and abs(c) < _HUGE:
        t = _SPLIT * a
        a_hi = t - (t - a)
        a_lo = a - a_hi
        t = _SPLIT * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
        e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        return math.fsum((p, e, c))
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return p + c
    if not math.isfinite(c):
        return c
    from fractions import Fraction  # here, not at import: rarely needed

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _with_kernel(kernel: Callable,
                 native: Optional[_native.Spec] = None) -> Callable[[Vector], Vector]:
    """The array map over a float kernel; the kernel rides along as
    ``.kernel``, and its compiled form, when given, as ``.native``.

    The array form converts its argument to a tuple of floats for the
    kernel and returns the image as a new float array.  A map with a
    compiled form takes its one step in ``_native``'s extension instead
    when the module is loaded and the argument is a 1-D C-contiguous
    float64 array of exactly the state's length; a step the kernel would
    refuse is replayed through the kernel, to raise its error.  Every other
    argument takes the conversion, so every byte and every error is the
    kernel's.
    """
    def converted(x) -> Vector:
        return np.array(kernel(tuple(np.asarray(x, dtype=float).tolist())))

    if native is None:
        step = converted
    else:
        kind, constants, dim = native.kind, native.packed, _native._SHAPES[native.kind][0]

        def step(x) -> Vector:
            lib = _native._library()[0]
            if lib is not None:
                out = np.empty(dim)
                if lib.step(kind, constants, x, out):
                    return out
            return converted(x)

        step.native = native
    step.kernel = kernel
    return step


def make_system(params: ThreeStageParams, variant: str) -> TwoScaleSystem:
    """The complete family H_k, its limit H and the lift T of one variant.

    Everything constant is built once here: the dispersal blocks, the
    powered dispersal matrix per k (on first use), the limit dispersal
    operator and the Perron spread vectors (times gamma_i when rescaled).
    ``ThreeStageParams`` bounds every migration rate and survival inside
    (0, 1), so each dispersal block [[1-p, q], [p, 1-q]] is positive, hence
    primitive, with columns summing to 1, and the limit blocks are formed
    from it without the tests of ``spectral.power_limit`` and
    ``rescaled_power_limit``.
    H_k and H have one form, built by one constructor over their dispersal
    operator: one dispersal product followed by the closed-form demography
    over its ten structural nonzeros; no 6x6 demography matrix is built.
    Outputs equal ``metapop.make_system(make_model(params), variant)`` bit
    for bit where numpy's gemv rounds as below, and that generic matrix
    pipeline is kept as the test oracle.

    Every map carries its float kernel as ``.kernel`` (tuple of floats in,
    tuple of floats out), and H_k and H carry their compiled form as
    ``.native``.  ``complete_map.for_k(k)`` gives H_k, built on first use
    and kept per k; it is what ``TwoScaleSystem.complete`` returns.  A map
    holds nothing else: ``aggregation`` binds a new stepper for each call
    that steps it.  The dispersal product is formed in plain floats from
    the operator's twelve block entries: rows 0-3 as ``a0*x0 + a1*x1``,
    rows 4-5 as ``fma(a8, x4, a9*x5)`` with the second product rounded
    first.  The compiled form packs those entries and the demography
    constants for ``_native``'s C loop, which forms the product with the
    same operations, so both give the same bytes on any CPU.  That rounding
    is also what OpenBLAS's SkylakeX gemv gives, so the ``metapop``
    oracle's BLAS products agree on such a kernel.  Nothing is compiled
    here.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    mats = dispersal_matrices(params)
    base = spectral.block_diag(*mats)
    survivals = params.survivals.ravel()  # (stage, patch) matches the state order
    if variant == VARIANT_SLOW:
        limit_blocks = [spectral._power_limit(m) for m in mats]
    else:
        limit_blocks = [spectral._rescaled_power_limit(params.survivals[i], m)
                        for i, m in enumerate(mats)]
    # each column of a limit block is v_i (gamma_i v_i when rescaled)
    sp1a, sp1b, sp2a, sp2b, sp3a, sp3b = np.concatenate(
        [block[:, 0] for block in limit_blocks]).tolist()
    constants = _demography_constants(params, variant)
    demography = _closed_form_demography(constants)

    def dispersed(a: NDArray[np.float64]) -> Callable[[Vector], Vector]:
        """x -> demography(a x): the map over the block-diagonal operator ``a``."""
        entries = _native.dispersal_entries(a)
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = entries

        def kernel(x) -> tuple[float, ...]:
            x0, x1, x2, x3, x4, x5 = x
            return demography((a0 * x0 + a1 * x1, a2 * x0 + a3 * x1,
                               a4 * x2 + a5 * x3, a6 * x2 + a7 * x3,
                               _fma(a8, x4, a9 * x5), _fma(a10, x4, a11 * x5)))

        return _with_kernel(kernel, _native.Spec(_native.COMPLETE, (*entries, *constants)))

    complete: dict[int, Callable[[Vector], Vector]] = {}

    def for_k(k: int) -> Callable[[Vector], Vector]:
        step = complete.get(k)
        if step is None:
            if variant == VARIANT_SLOW:
                a = np.linalg.matrix_power(base, k)
            else:
                a = np.linalg.matrix_power(np.exp(np.log(survivals) / k)[:, None] * base, k)
            step = complete[k] = dispersed(a)
        return step

    def complete_map(k: int, x) -> Vector:
        return for_k(k)(x)

    complete_map.for_k = for_k

    def lift_kernel(y) -> tuple[float, ...]:
        y1, y2, y3 = y
        return demography((sp1a * y1, sp1b * y1, sp2a * y2, sp2b * y2,
                           sp3a * y3, sp3b * y3))

    return TwoScaleSystem(
        state_dim=STAGES * PATCHES,
        reduced_dim=STAGES,
        complete_map=complete_map,
        limit_map=dispersed(spectral.block_diag(*limit_blocks)),
        projection=lambda x: metapop.aggregate(x, PATCHES),
        lift=_with_kernel(lift_kernel),
    )


@dataclass(frozen=True)
class ReducedCoefficients:
    """Aggregated rates, density responses and bifurcation scalars of the
    3-dimensional map."""

    variant: str
    s1: float
    s2: float
    s3: float
    b: float
    # (w_1, w_2, slope_1, slope_2) with h(y2) = sum_a w_a / (1 + slope_a y2)
    h1_terms: tuple[float, float, float, float]
    h2_terms: tuple[float, float, float, float]
    h1_prime0: float
    h2_prime0: float
    # branch stability just above R0 = b s1 / (1 - s2 s3) = 1: a± = c_w ± c_b,
    # and a_minus's sign separates equilibrium from synchronous-cycle stability
    r0: float
    c_w: float
    c_b: float
    a_plus: float
    a_minus: float

    def h1(self, y2: float) -> float:
        return _response_sum(self.h1_terms, y2)

    def h2(self, y2: float) -> float:
        return _response_sum(self.h2_terms, y2)


def _h_terms(weights: NDArray[np.float64], slopes: NDArray[np.float64],
             scale: float) -> tuple[float, float, float, float]:
    w = weights / scale
    return float(w[0]), float(w[1]), float(slopes[0]), float(slopes[1])


def _response_sum(terms: tuple[float, float, float, float], y2: float) -> float:
    w1, w2, slope1, slope2 = terms
    return (w1 * _guarded_reciprocal(1.0 + slope1 * y2)
            + w2 * _guarded_reciprocal(1.0 + slope2 * y2))


def coefficients_from_fractions(survivals, fertilities, crowding_c, crowding_d,
                                fractions, variant: str) -> ReducedCoefficients:
    """Aggregated coefficients for prescribed patch-1 Perron shares.

    ``fractions`` is one share per stage, from the closed interval [0, 1];
    the endpoints describe all-in-one-patch dispersal limits, useful in
    design sweeps even though a migration matrix cannot realize them.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    v1 = np.asarray(fractions, dtype=float)
    if v1.shape != (STAGES,) or not np.all((v1 >= 0.0) & (v1 <= 1.0)):
        raise ValueError("fractions must be three shares in [0, 1]")
    v = np.column_stack([v1, 1.0 - v1])
    s = np.asarray(survivals, dtype=float)
    phi = _as_pair(fertilities, "fertilities")
    c = _as_pair(crowding_c, "crowding_c")
    d = _as_pair(crowding_d, "crowding_d")
    if variant == VARIANT_RESCALED:
        s1, s2, s3 = (float(np.prod(s[i] ** v[i])) for i in range(STAGES))
        birth_w = phi * s2 * v[1]
        h1_slopes = c * s2 * v[1]
        h2_w = v[2]
        h2_slopes = d * s2 * v[1]
        h2_scale = 1.0  # x / 1.0 == x exactly
    else:
        s1, s2, s3 = (float(s[i] @ v[i]) for i in range(STAGES))
        birth_w = phi * s[1] * v[1]
        h1_slopes = c * v[1]
        h2_w = s[2] * v[2]
        h2_slopes = d * v[1]
        h2_scale = s3
    b = float(birth_w.sum())
    h1 = _h_terms(birth_w, h1_slopes, b)
    h2 = _h_terms(h2_w, h2_slopes, h2_scale)
    h1p = -float((birth_w * h1_slopes).sum()) / b
    h2p = -float((h2_w * h2_slopes).sum()) / h2_scale
    c_w = (1.0 - s2 * s3) * s1 * h1p
    c_b = s1 * s2 * s3 * (1.0 - s3) * h2p
    return ReducedCoefficients(variant=variant, s1=s1, s2=s2, s3=s3, b=b,
                               h1_terms=h1, h2_terms=h2, h1_prime0=h1p, h2_prime0=h2p,
                               r0=b * s1 / (1.0 - s2 * s3), c_w=c_w, c_b=c_b,
                               a_plus=c_w + c_b, a_minus=c_w - c_b)


def reduced_coefficients(params: ThreeStageParams, variant: str) -> ReducedCoefficients:
    return coefficients_from_fractions(
        params.survivals, params.fertilities, params.crowding_c,
        params.crowding_d, params.fraction_table()[:, 0], variant,
    )


def reduced_matrix(co: ReducedCoefficients, y2: float) -> NDArray[np.float64]:
    """Projection matrix of the reduced map at total active density y2."""
    hh2 = co.h2(y2)
    return np.array([
        [0.0, co.b * co.h1(y2), 0.0],
        [co.s1, 0.0, co.s3 * hh2],
        [0.0, co.s2, co.s3 * (1.0 - hh2)],
    ])


def reduced_map(params: ThreeStageParams, variant: str,
                co: Optional[ReducedCoefficients] = None) -> Callable[[Vector], Vector]:
    """Fast closure for the 3-dimensional reduced dynamics; float kernel as ``.kernel``.

    ``co``, when given, must be ``reduced_coefficients(params, variant)``;
    a caller that already holds them passes them instead of deriving them
    again.
    """
    co = co or reduced_coefficients(params, variant)
    s1, s2, s3, b = co.s1, co.s2, co.s3, co.b
    w11, w12, slope11, slope12 = co.h1_terms
    w21, w22, slope21, slope22 = co.h2_terms

    def kernel(y) -> tuple[float, float, float]:
        y1, y2, y3 = y
        # co.h1(y2) and co.h2(y2) inlined, same expression order
        d11 = 1.0 + slope11 * y2
        d12 = 1.0 + slope12 * y2
        d21 = 1.0 + slope21 * y2
        d22 = 1.0 + slope22 * y2
        if d11 <= 0.0 or d12 <= 0.0 or d21 <= 0.0 or d22 <= 0.0:
            raise NegativeDensityError(_POLE)
        hh1 = w11 * (1.0 / d11) + w12 * (1.0 / d12)
        hh2 = w21 * (1.0 / d21) + w22 * (1.0 / d22)
        return (
            b * hh1 * y2,
            s1 * y1 + s3 * hh2 * y3,
            s2 * y2 + s3 * (1.0 - hh2) * y3,
        )

    return _with_kernel(kernel, _native.Spec(_native.REDUCED, (
        s1, s2, s3, b, w11, w12, slope11, slope12, w21, w22, slope21, slope22)))


def inherent_R0(params: ThreeStageParams, variant: str) -> float:
    """Net reproduction number b s1 / (1 - s2 s3) of the reduced map at 0."""
    return reduced_coefficients(params, variant).r0


def local_rates(params: ThreeStageParams, patch: int) -> tuple[float, ...]:
    """(s1, s2, s3, phi, c, d) of one patch: all its isolated dynamics uses."""
    s1, s2, s3 = params.survivals[:, patch].tolist()
    return (s1, s2, s3, float(params.fertilities[patch]),
            float(params.crowding_c[patch]), float(params.crowding_d[patch]))


def local_map(params: ThreeStageParams, patch: int) -> Callable[[Vector], Vector]:
    """Single-patch dynamics with dispersal switched off; float kernel as ``.kernel``."""
    s1, s2, s3, phi, c, d = local_rates(params, patch)

    def kernel(y) -> tuple[float, float, float]:
        y1, y2, y3 = y
        # fertility_response and recovery_response inlined, same expression order
        den_f = 1.0 + c * y2
        den_g = 1.0 + d * y2
        if den_f <= 0.0 or den_g <= 0.0:
            raise NegativeDensityError(_POLE)
        f = phi * (1.0 / den_f)
        g = 1.0 / den_g
        return (
            s2 * f * y2,
            s1 * y1 + s3 * g * y3,
            s2 * y2 + s3 * (1.0 - g) * y3,
        )

    return _with_kernel(kernel, _native.Spec(_native.LOCAL, (s1, s2, s3, phi, c, d)))


def local_coefficients(params: ThreeStageParams, patch: int) -> ReducedCoefficients:
    """Coefficients of the isolated patch: the slow-survival reduced map with
    every stage's Perron share on that patch."""
    share = (1.0, 0.0)[patch]
    return coefficients_from_fractions(
        params.survivals, params.fertilities, params.crowding_c,
        params.crowding_d, (share, share, share), VARIANT_SLOW,
    )


@dataclass(frozen=True)
class BranchPrediction:
    """First-order branch points emerging from the extinction equilibrium.

    The equilibrium branch pairs r0_equilibrium with ``equilibrium``; the
    synchronous-cycle branch pairs r0_cycle with the alternating pair
    (cycle_active_phase, cycle_rest_phase).
    """

    epsilon: float
    r0_equilibrium: float
    equilibrium: Vector
    r0_cycle: float
    cycle_active_phase: Vector
    cycle_rest_phase: Vector


def branch_prediction(params: ThreeStageParams, variant: str, epsilon: float) -> BranchPrediction:
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    co = reduced_coefficients(params, variant)
    gap = 1.0 - co.s2 * co.s3
    return BranchPrediction(
        epsilon=epsilon,
        r0_equilibrium=1.0 - co.a_plus * epsilon / gap,
        equilibrium=epsilon * np.array([gap, co.s1, co.s1 * co.s2]),
        r0_cycle=1.0 - co.c_w * epsilon / gap,
        cycle_active_phase=epsilon * np.array([0.0, co.s1, 0.0]),
        cycle_rest_phase=epsilon * np.array([gap, 0.0, co.s1 * co.s2]),
    )


def with_inherent_r0(params: ThreeStageParams, variant: str, target: float) -> ThreeStageParams:
    """Scale both fertilities so the variant's R0 hits ``target`` exactly.

    R0 is linear in a joint fertility scaling while the bifurcation
    coefficients are invariant under it, so this moves along the natural
    bifurcation parameter.
    """
    if target <= 0.0:
        raise ValueError("target R0 must be positive")
    current = inherent_R0(params, variant)
    return ThreeStageParams(
        survivals=params.survivals,
        fertilities=params.fertilities * (target / current),
        crowding_c=params.crowding_c,
        crowding_d=params.crowding_d,
        migration=params.migration,
    )
