"""Generic two-time-scale framework and its numerical harnesses.

A complete system is a family of maps X(t+1) = H_k(X(t)) on the nonnegative
orthant of R^N, indexed by the number k of fast steps per slow step.  As k
grows H_k approaches a limit map H that factors through a lower-dimensional
space: H = T o G with G linear onto R^q and T a lift back.  The reduced
system iterates Hbar = G o T on R^q.

The harnesses below check, by direct sampling, the three dynamical claims
that justify replacing the complete system by the reduced one: balls around
lifted attractors trap H_k^m orbits, orbits from the basin enter those
balls, and lifted repellers push boundary points out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import _native
from .errors import DomainExitError, InvalidCenterError, TwoScalePopError
from .solvers import fd_jacobian

Vector = NDArray[np.float64]
StateMap = Callable[[Vector], Vector]

SAMPLE_SEED = 42  # seeds the ball samples and the instability directions
ATTRACTION_HORIZON = 10**5  # attraction_check's default horizon


@dataclass(frozen=True)
class TwoScaleSystem:
    """Complete family H_k, its limit H, and the factorization H = T o G."""

    state_dim: int
    reduced_dim: int
    complete_map: Callable[[int, Vector], Vector]
    limit_map: StateMap
    projection: StateMap
    lift: StateMap

    def __post_init__(self):
        if self.state_dim < 1 or self.reduced_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.reduced_dim >= self.state_dim:
            raise ValueError("reduced dimension must be smaller than state dimension")

    def complete(self, k: int) -> StateMap:
        """The map H_k with k bound.

        When ``complete_map`` offers ``for_k``, H_k is ``complete_map.for_k(k)``,
        with whatever float kernel (``.kernel``) and compiled form
        (``.native``) that map carries; ``threestage`` builds each H_k's
        dispersal power once and returns the same map for the same k.  The
        map holds no stepping state, so threads may step it at once.
        Otherwise H_k calls ``complete_map(k, x)`` and carries neither, so
        a wrapper that replaces ``complete_map`` is called on every step.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        complete_map = self.complete_map
        for_k = getattr(complete_map, "for_k", None)
        if for_k is not None:
            return for_k(k)
        return lambda x: complete_map(k, x)


@dataclass(frozen=True)
class TrapSpec:
    """Ball, period, and sampling budget for the trapping-style checks."""

    center: Vector
    radius: float
    period: int = 1
    sample_count: int = 64
    k_values: Sequence[int] = (1, 5, 10, 50, 100)

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if self.period < 1:
            raise ValueError("period must be at least 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        ks = tuple(int(k) for k in self.k_values)
        if not ks or any(k < 1 for k in ks):
            raise ValueError("k_values must be a nonempty list of positive integers")
        object.__setattr__(self, "k_values", ks)


@dataclass(frozen=True)
class TrapVerdict:
    trapped: bool
    witness: Optional[Vector]
    max_image_distance: float


@dataclass(frozen=True)
class AttractionVerdict:
    entered: bool
    entry_index: Optional[int]
    closest_approach: float


@dataclass(frozen=True)
class InstabilityVerdict:
    escapes_boundary: bool
    witness: Optional[Vector]
    expansion_ratio: float
    random_escape_fraction: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Empirical sup-norm gaps max_X ||H_k^m(X) - H^m(X)|| per k."""

    gaps: dict[int, float]
    skipped: tuple[int, ...]


def default_radius(center) -> float:
    """Shipped ball radius: 0.05 relative to the center, absolute at zero."""
    scale = float(np.linalg.norm(np.asarray(center, dtype=float)))
    return 0.05 * scale if scale > 0.0 else 0.05


def _as_floats(x) -> tuple:
    return tuple(np.asarray(x, dtype=float).tolist())


def _require_steps(steps: int) -> None:
    """Refuse a step count the compiled loop cannot hold, on either path."""
    if not 0 <= steps <= _native.MAX_STEPS:
        raise ValueError(f"steps must lie in [0, {_native.MAX_STEPS}]")


def iterate(map_fn: StateMap, x0, steps: int) -> Vector:
    """Orbit segment [X0, map(X0), ..., map^steps(X0)] as a (steps + 1, dim) array.

    Raises DomainExitError as soon as an iterate leaves the admissible set
    (nonnegative orthant, coordinates at most ``_native.BOX_BOUND``, finite),
    and ValueError, before any step, for ``steps`` outside
    [0, ``_native.MAX_STEPS``].
    """
    _require_steps(steps)
    x = np.asarray(x0, dtype=float)
    _native._require_admissible(x, 0)
    orbit = np.empty((steps + 1, x.size))
    orbit[0] = x
    _native.Stepper(map_fn, checked=True).rows(_as_floats(x), orbit[1:])
    return orbit


def stepping_path(map_fn: StateMap) -> str:
    """How ``iterate_tail`` steps ``map_fn``: the ``path`` of the stepper it
    binds, ``"native"`` for the compiled loop, else ``"python: <reason>"``."""
    return _native.Stepper(map_fn).path


def _power(map_fn: StateMap, m: int) -> Callable[[Vector], Vector]:
    """x -> map^m(x) as an array, unchecked, through one stepper bound here."""
    stepper = _native.Stepper(map_fn)

    def apply(x) -> Vector:
        return np.array(stepper.advance(_as_floats(x), m))

    return apply


def images(map_fn: StateMap, starts, m: int,
           checked: bool = False) -> tuple[Vector, dict[int, TwoScalePopError]]:
    """Each row of ``starts`` stepped ``m`` times by ``map_fn``, as one batch.

    Returns ``(images, errors)`` as ``_native.Stepper.many`` does: each row
    equals ``_native.Stepper(map_fn, checked).advance(start, m)`` bit for
    bit, or ``errors`` holds the package error that call raises.  On the
    compiled loop the whole batch is one call.  ``starts`` that do not form
    a 2-D array raise ValueError on either loop, and a batch of no rows
    comes back as it went in.  An ``m`` outside [0, ``_native.MAX_STEPS``]
    raises ValueError before any step.
    """
    _require_steps(m)
    return _native.Stepper(map_fn, checked).many(starts, m)


def _stepped(map_fn: StateMap, starts, m: int) -> Vector:
    """``images`` unchecked, raising the lowest failing row's error."""
    out, errors = images(map_fn, starts, m)
    if errors:
        raise errors[min(errors)]
    return out


def _distances(points: Vector, center: Vector) -> list[float]:
    """Each row's distance to ``center`` as ``np.linalg.norm`` gives it: the
    sqrt of ``d.dot(d)``, whose dtype dot function ``np.vecdot`` shares."""
    d = points - center
    if hasattr(np, "vecdot"):
        return np.sqrt(np.vecdot(d, d)).tolist()
    return [math.sqrt(row.dot(row)) for row in d]


def iterate_tail(map_fn: StateMap, x0, steps: int,
                 keep: int = 1) -> tuple[Vector, Optional[tuple[int, int]]]:
    """The last ``keep`` states of [X0, map(X0), ..., map^steps(X0)].

    Returns ``(tail, repeat)``: ``tail`` is a (keep, dim) array equal bit for
    bit to the last ``keep`` rows of the full orbit segment.  Up to the
    tail's first row, each state is compared with one saved state, the
    tortoise, saved at step 0 and re-saved at step t + 1 + t // 16 after
    each save at step t.  ``repeat`` is the ``(step, period)`` at which the
    first match was caught, else None.  The period is exact: a saved state
    is matched first one period after its save.  From a match on, the orbit
    is periodic, so whole periods are skipped and only the final stretch is
    computed.  Bytes, not ``==``, decide a match: -0.0 and 0.0 differ, and
    a NaN matches only a NaN with the same bits.

    Lag bound: let the orbit's cycle start at step c, so that it first
    repeats at step c + period.  The saves come at most t // 16 + 1 steps
    apart, so the first save at or after m = max(c, 16 * (period - 1)) falls
    by step m + m // 16 and is kept for at least a period; the repeat is
    therefore caught by step m + period + m // 16.

    The orbit runs on tuples of floats, through one ``_native.Stepper``:
    the whole schedule up to the tail is one call, in the compiled loop
    when the map carries a compiled form (``.native``, as the
    ``threestage`` maps do) and the loop is available (``stepping_path``),
    else in the Python loop, through the map's float kernel
    ``map_fn.kernel``, or through ``map_fn`` itself, called once per
    computed step on a fresh float array, when it has none.  All give the
    same bytes and repeat and raise the same errors at the same step.
    Only the tail rows become a numpy array.  ``map_fn`` must be
    deterministic and return float arrays.  ``steps`` outside [0,
    ``_native.MAX_STEPS``] raises ValueError on every path, before any
    step: the compiled loop counts steps in int64.
    """
    return next(iterate_tails([(map_fn, x0)], steps, keep))


def iterate_tails(series, steps: int,
                  keep: int = 1) -> Iterator[tuple[Vector, Optional[tuple[int, int]]]]:
    """``iterate_tail(map_fn, x0, steps, keep)`` of each ``(map_fn, x0)`` of
    ``series``, yielded in order, with the same bytes, repeats and errors.

    The repeat schedules of all compiled series run in one call of the
    extension (``_native.orbits``), where a CPU with AVX2 and FMA steps
    them side by side, made when the first result is taken; the rest of
    each series, and every series in the Python loop, steps when its turn
    comes.  The first series that fails raises its error then, so no later
    series steps in Python.  ``steps`` and ``keep`` are checked here,
    before any step.
    """
    _require_steps(steps)
    if not 1 <= keep <= steps + 1:
        raise ValueError("keep must lie in [1, steps + 1]")
    pairs = [(_native.Stepper(map_fn), _as_floats(x0)) for map_fn, x0 in series]
    return _tails(pairs, steps + 1 - keep, keep)


def _tails(pairs, first: int, keep: int) -> Iterator[tuple[Vector, Optional[tuple[int, int]]]]:
    """``iterate_tails`` from the tail's first row, step ``first``, on."""
    for (stepper, _), (x, t, repeat) in zip(pairs, _native.orbits(pairs, first)):
        if repeat is not None:
            # the state of step t recurs every period: resume from its last
            # recurrence at or before the tail's first row
            period = repeat[1]
            t += (first - t) // period * period
        tail = np.empty((keep, len(x)))
        tail[0] = x = stepper.advance(x, first - t)
        stepper.rows(x, tail[1:])
        yield tail, repeat


def reduced_map(sys: TwoScaleSystem) -> StateMap:
    """The aggregated map Hbar = G o T on R^q."""
    return lambda y: sys.projection(sys.lift(y))


def convergence_table(sys: TwoScaleSystem, samples, m: int, k_values) -> ConvergenceTable:
    """Max Euclidean gap between H_k^m and H^m over the sampled states.

    Samples whose orbit leaves the admissible set under any of the maps are
    reported in ``skipped`` and excluded from every column, so the per-k
    maxima range over a common set; a column with no sample left is nan.
    Each map steps all remaining samples as one batch (``images``).
    """
    pts = np.asarray(samples, dtype=float)
    if len(pts) == 0:
        raise ValueError("samples must be nonempty")
    ks = [int(k) for k in k_values]
    live = np.ones(len(pts), dtype=bool)

    def step(map_fn: StateMap) -> Vector:
        rows = np.flatnonzero(live)
        out, errors = images(map_fn, pts[rows], m, checked=True)
        for i in sorted(errors):
            if not isinstance(errors[i], DomainExitError):
                raise errors[i]
            live[rows[i]] = False
        full = np.empty_like(pts)
        full[rows] = out
        return full

    limit_images = step(sys.limit_map)
    complete_images = {k: step(sys.complete(k)) for k in ks}
    rows = np.flatnonzero(live)
    gaps = {k: max(_distances(complete_images[k][rows], limit_images[rows]), default=math.nan)
            for k in ks}
    return ConvergenceTable(gaps=gaps, skipped=tuple(np.flatnonzero(~live).tolist()))


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989): rational approximations in y - 1/2 on the central
# interval and in 1/sqrt(-2 log y) on the tails, highest degree first.
# Each denominator has leading coefficient 1 (Cephes' p1evl); 1.0 * x == x,
# so _polevl over the full tuple rounds as p1evl does.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242E0


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile of y in the open interval (0, 1).

    Cephes ``ndtri`` operation for operation on Python floats with libm's
    log and sqrt, so results equal the C routine bit for bit.
    """
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def _kronecker_sphere_mesh(count: int, dim: int) -> Vector:
    # Low-discrepancy direction set: a Kronecker sequence driven by the real
    # root of x**(dim+1) = x + 1, pushed through the normal quantile and
    # radially normalized.  Deterministic, no RNG involved.
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = (1.0 / phi) ** np.arange(1, dim + 1)
    idx = np.arange(1, count + 1)[:, None]
    u = np.mod(0.5 + idx * alpha[None, :], 1.0)
    clipped = np.clip(u, 1e-12, 1.0 - 1e-12).ravel().tolist()
    g = np.array([_ndtri(v) for v in clipped]).reshape(u.shape)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def ball_samples(center, radius: float, count: int, seed: int = SAMPLE_SEED) -> Vector:
    """Sample ``count`` points of the closed ball around ``center``.

    The first ceil(count/2) points form a deterministic mesh on the boundary
    sphere; the remainder are uniform in the interior, drawn from a seeded
    generator so repeated calls agree.
    """
    c = np.asarray(center, dtype=float)
    dim = c.size
    n_sphere = math.ceil(count / 2)
    pts = [c + radius * _kronecker_sphere_mesh(n_sphere, dim)]
    n_inner = count - n_sphere
    if n_inner > 0:
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n_inner, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = radius * rng.random(n_inner) ** (1.0 / dim)
        pts.append(c + radii[:, None] * dirs)
    return np.vstack(pts)


def _check_center(sys: TwoScaleSystem, trap: TrapSpec) -> None:
    image = _power(sys.limit_map, trap.period)(trap.center)
    drift = float(np.linalg.norm(image - trap.center))
    if drift > trap.radius / 10.0:
        raise InvalidCenterError(
            f"center moves by {drift:.3e} under the limit map, exceeding radius/10"
        )


def trapping_check(sys: TwoScaleSystem, trap: TrapSpec) -> dict[int, TrapVerdict]:
    """Per-k test that H_k^period maps the closed ball into the open ball.

    trapped means every sampled point lands strictly inside; otherwise the
    first offending sample is returned as witness.
    """
    _check_center(sys, trap)
    pts = ball_samples(trap.center, trap.radius, trap.sample_count)
    out: dict[int, TrapVerdict] = {}
    for k in trap.k_values:
        dists = _distances(_stepped(sys.complete(k), pts, trap.period), trap.center)
        witness = next((p for p, d in zip(pts, dists) if d >= trap.radius), None)
        out[k] = TrapVerdict(trapped=witness is None, witness=witness,
                             max_image_distance=max(dists))
    return out


def attraction_check(sys: TwoScaleSystem, trap: TrapSpec, x0,
                     horizon: int = ATTRACTION_HORIZON) -> dict[int, AttractionVerdict]:
    """Per-k entry test for the orbit of X0 under H_k.

    Watches the iterates H_k^(m*n+1)(X0) for n = 0, 1, ... up to ``horizon``
    complete-map steps and reports the smallest n from which every watched
    iterate stays in the open ball.  When no such n exists within the
    horizon the verdict carries the closest approach observed.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _check_center(sys, trap)
    out: dict[int, AttractionVerdict] = {}
    for k in trap.k_values:
        # one orbit at a time: it goes once its distances are taken
        dists = _distances(iterate(sys.complete(k), x0, horizon)[1::trap.period], trap.center)
        entry: Optional[int] = None
        for n in range(len(dists) - 1, -1, -1):
            if dists[n] >= trap.radius:
                break
            entry = n
        out[k] = AttractionVerdict(entered=entry is not None, entry_index=entry,
                                   closest_approach=min(dists))
    return out


def _expanding_direction(map_m: StateMap, center: Vector) -> tuple[Vector, float]:
    jac = fd_jacobian(map_m, center)
    eigvals, eigvecs = np.linalg.eig(jac)
    lead = int(np.argmax(np.abs(eigvals)))
    vec = eigvecs[:, lead]
    real = np.real(vec)
    if np.linalg.norm(real) < 1e-8:
        real = np.imag(vec)
    real = real / np.linalg.norm(real)
    return real, float(np.abs(eigvals[lead]))


def instability_check(sys: TwoScaleSystem, trap: TrapSpec) -> dict[int, InstabilityVerdict]:
    """Per-k test that boundary points on the expanding direction leave the ball.

    For each k the leading eigendirection u of the finite-difference Jacobian
    of H_k^period at the center is estimated, and the two points center +-
    radius*u are mapped once by H_k^period.  escapes_boundary requires both
    images to fall outside the closed ball.  Random boundary points are
    mapped as well; their escape fraction is reported but not asserted.
    """
    _check_center(sys, trap)
    m = trap.period
    rng = np.random.default_rng(SAMPLE_SEED)
    dirs = rng.standard_normal((trap.sample_count, trap.center.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    out: dict[int, InstabilityVerdict] = {}
    for k in trap.k_values:
        map_m = _power(sys.complete(k), m)
        u, _ = _expanding_direction(map_m, trap.center)
        witness = None
        ratio = np.inf
        for sign in (1.0, -1.0):
            p = trap.center + sign * trap.radius * u
            d = float(np.linalg.norm(map_m(p) - trap.center))
            ratio = min(ratio, d / trap.radius)
            if d <= trap.radius and witness is None:
                witness = p
        boundary = trap.center + trap.radius * dirs
        images_m = _stepped(sys.complete(k), boundary, m)
        n_escaped = sum(d > trap.radius for d in _distances(images_m, trap.center))
        out[k] = InstabilityVerdict(
            escapes_boundary=witness is None,
            witness=witness,
            expansion_ratio=float(ratio),
            random_escape_fraction=n_escaped / trap.sample_count,
        )
    return out
