import ctypes
import ctypes.util
import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoscalepop import _native, metapop, scenarios, threestage
from twoscalepop.errors import DomainExitError, NegativeDensityError
from twoscalepop.metapop import VARIANTS
from twoscalepop.threestage import ThreeStageParams

ORACLE_KS = (1, 2, 5, 10, 50, 200)


def _homog(survivals=(0.5, 0.5, 0.5), phi=3.1, c=1.0, d=10.0,
           fractions=(0.3, 7 / 8, 1 / 8)):
    s = np.column_stack([survivals, survivals])
    return ThreeStageParams.from_fractions(s, (phi, phi), (c, c), (d, d), fractions)


def test_params_validation():
    good = _homog()
    with pytest.raises(ValueError):
        ThreeStageParams(good.survivals[:2], good.fertilities, good.crowding_c,
                         good.crowding_d, good.migration)
    with pytest.raises(ValueError):
        ThreeStageParams(good.survivals * 3.0, good.fertilities, good.crowding_c,
                         good.crowding_d, good.migration)
    with pytest.raises(ValueError):
        ThreeStageParams(good.survivals, (-1.0, 2.0), good.crowding_c,
                         good.crowding_d, good.migration)
    with pytest.raises(ValueError):
        ThreeStageParams(good.survivals, good.fertilities, good.crowding_c,
                         good.crowding_d, good.migration + 1.0)


def test_from_fractions_validation():
    with pytest.raises(ValueError):
        _homog(fractions=(0.3, 1.0, 0.1))
    with pytest.raises(ValueError):
        ThreeStageParams.from_fractions(np.full((3, 2), 0.5), (3, 3), (1, 1), (1, 1),
                                        (0.3, 0.5, 0.1), mixing=1.5)


def test_fraction_table_round_trip():
    v = (0.3, 7 / 8, 1 / 8)
    params = _homog(fractions=v)
    assert np.allclose(params.fraction_table()[:, 0], v, atol=1e-15)
    assert np.allclose(params.fraction_table().sum(axis=1), 1.0, atol=1e-15)


def test_patch_homogeneity_flag(fig2_params, fig10_params):
    assert fig2_params.is_patch_homogeneous()
    assert not fig10_params.is_patch_homogeneous()


def test_density_responses():
    assert threestage.fertility_response(3.0, 2.0, 0.0) == 3.0
    assert threestage.fertility_response(3.0, 2.0, 0.5) == pytest.approx(1.5)
    assert threestage.recovery_response(10.0, 0.0) == 1.0
    assert threestage.recovery_response(10.0, 0.1) == pytest.approx(0.5)


def test_dispersal_matrices_are_stochastic_with_prescribed_fractions():
    params = _homog(fractions=(0.3, 0.6, 0.1))
    from twoscalepop import spectral
    for mat, v in zip(threestage.dispersal_matrices(params), (0.3, 0.6, 0.1)):
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-14)
        assert spectral.perron_vector(mat)[0] == pytest.approx(v, abs=1e-12)


def test_homogeneous_reduced_coefficients(fig2_params):
    co = threestage.reduced_coefficients(fig2_params, "slow_survival")
    assert (co.s1, co.s2, co.s3) == (0.5, 0.5, 0.5)
    # births carry the stage-2 survival factor
    assert co.b == pytest.approx(0.5 * 3.1, abs=1e-15)
    assert co.h1(0.0) == 1.0
    assert co.h2(0.0) == 1.0
    # crowding felt through the patch split of the active stage: the
    # fertility slope pairs v2 with itself, the recovery slope pairs the
    # stage-3 split against the stage-2 densities
    v2, v3 = 7 / 8, 1 / 8
    assert co.h1_prime0 == pytest.approx(-(v2**2 + (1 - v2) ** 2), abs=1e-12)
    assert co.h2_prime0 == pytest.approx(-10 * (v2 * v3 + (1 - v2) * (1 - v3)), abs=1e-12)


def test_inherent_reproduction_numbers(fig2_params, fig3_params):
    assert threestage.inherent_R0(fig2_params, "slow_survival") == pytest.approx(31 / 30, abs=1e-14)
    assert threestage.inherent_R0(fig3_params, "slow_survival") == pytest.approx(1.0001, abs=1e-12)
    # homogeneous patches: both survival timings agree
    assert threestage.inherent_R0(fig2_params, "rescaled") == pytest.approx(31 / 30, abs=1e-12)


def test_cycle_coefficients_closed_forms(fig2_params, fig3_params):
    f2 = threestage.reduced_coefficients(fig2_params, "slow_survival")
    assert abs(f2.a_minus - (-0.15625)) < 1e-12
    assert abs(f2.a_plus - (f2.c_w + f2.c_b)) == 0.0
    f3 = threestage.reduced_coefficients(fig3_params, "slow_survival")
    assert abs(f3.a_minus - 0.0048828125) < 1e-12


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig10", "extinction_flip"])
def test_each_record_carries_its_own_bifurcation_scalars(name):
    params = getattr(scenarios, f"{name}_params")()
    records = [threestage.reduced_coefficients(params, variant) for variant in VARIANTS]
    records += [threestage.local_coefficients(params, patch) for patch in (0, 1)]
    for co in records:
        s1, s2, s3, b = co.s1, co.s2, co.s3, co.b
        c_w = (1.0 - s2 * s3) * s1 * co.h1_prime0
        c_b = s1 * s2 * s3 * (1.0 - s3) * co.h2_prime0
        assert co.r0 == b * s1 / (1.0 - s2 * s3)
        assert (co.c_w, co.c_b) == (c_w, c_b)
        assert (co.a_plus, co.a_minus) == (c_w + c_b, c_w - c_b)


def test_local_quantities(fig2_params, fig3_params):
    co = threestage.local_coefficients(fig2_params, 0)
    r0, a = co.r0, co.a_minus
    assert r0 == pytest.approx(31 / 30, abs=1e-14)
    assert abs(a - 0.25) < 1e-12
    a3 = threestage.local_coefficients(fig3_params, 1).a_minus
    assert abs(a3 - (-0.03125)) < 1e-12


def test_local_coefficients_give_the_isolated_patch_map(fig10_params):
    # one-hot shares pick each patch's own rates out of heterogeneous ones
    rng = np.random.default_rng(3)
    for patch in (0, 1):
        co = threestage.local_coefficients(fig10_params, patch)
        step = threestage.local_map(fig10_params, patch)
        for y in rng.uniform(0.0, 0.5, size=(50, 3)):
            expected = threestage.reduced_matrix(co, y[1]) @ y
            assert np.allclose(step(y), expected, rtol=1e-14, atol=1e-16)


KERNEL_STATES = 20_000


def _outcome(step, y):
    """The bytes of step(y), or the type and message of what it raised."""
    try:
        return np.array(step(y)).tobytes()
    except NegativeDensityError as err:
        return type(err), str(err)


def _agree(left, right, exact: bool) -> bool:
    """Equal bytes, or, unless ``exact``, equal to 1e-13 relative: what the
    ``metapop`` oracle's H_k and H can promise on this BLAS (see
    ``blas_rounding``)."""
    if exact:
        return np.asarray(left).tobytes() == np.asarray(right).tobytes()
    return np.allclose(left, right, rtol=1e-13, atol=0.0)


def _same_oracle_outcome(got, expected, exact: bool) -> bool:
    """``_outcome``s equal, two images as ``_agree`` compares them."""
    if isinstance(got, bytes) and isinstance(expected, bytes):
        return _agree(np.frombuffer(got), np.frombuffer(expected), exact)
    return got == expected


def _kernel_states(seed, slopes):
    """KERNEL_STATES random 3-vectors over eight decades, zeros included,
    then y2 just before and just past the pole -1/slope of each slope."""
    rng = np.random.default_rng(seed)
    states = (rng.uniform(0.0, 2.0, (KERNEL_STATES, 3))
              * 10.0 ** rng.uniform(-7.0, 1.0, (KERNEL_STATES, 3)))
    states[::97] = 0.0
    states[1::10, 1] *= -1e-3  # small negative densities stay admissible
    y1, _, y3 = states[0]
    near_poles = [(y1, -f / slope, y3) for slope in slopes if slope > 0.0
                  for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e6)]
    return [tuple(y) for y in states.tolist()] + near_poles


def _reduced_by_old_formula(co):
    def step(y):
        y1, y2, y3 = y
        hh1 = co.h1(y2)
        hh2 = co.h2(y2)
        return (co.b * hh1 * y2, co.s1 * y1 + co.s3 * hh2 * y3,
                co.s2 * y2 + co.s3 * (1.0 - hh2) * y3)

    return step


def _local_by_old_formula(params, patch):
    s1, s2, s3 = params.survivals[:, patch].tolist()
    phi = float(params.fertilities[patch])
    c = float(params.crowding_c[patch])
    d = float(params.crowding_d[patch])

    def step(y):
        y1, y2, y3 = y
        f = threestage.fertility_response(phi, c, y2)
        g = threestage.recovery_response(d, y2)
        return s2 * f * y2, s1 * y1 + s3 * g * y3, s2 * y2 + s3 * (1.0 - g) * y3

    return step


def _assert_same_outcomes(kernel, old, states):
    # the random states are admissible, so the old formula takes them all at
    # once: its elementwise IEEE operations give each state's own bytes
    admissible = np.array(states[:KERNEL_STATES])
    for y, expected in zip(states, np.column_stack(old(admissible.T))):
        assert _outcome(kernel, y) == expected.tobytes(), y
    # only states near a pole raise
    raised = 0
    for y in states[KERNEL_STATES:]:
        got = _outcome(kernel, y)
        assert got == _outcome(old, y), y
        raised += isinstance(got, tuple)
    assert raised > 0
    with pytest.raises(NegativeDensityError):
        kernel((0.1, -1e6, 0.1))


@pytest.mark.parametrize("variant", ("slow_survival", "rescaled"))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_reduced_kernel_matches_old_formula_bit_for_bit(name, variant):
    params = getattr(scenarios, f"{name}_params")()
    co = threestage.reduced_coefficients(params, variant)
    slopes = co.h1_terms[2:] + co.h2_terms[2:]
    _assert_same_outcomes(threestage.reduced_map(params, variant).kernel,
                          _reduced_by_old_formula(co), _kernel_states(21, slopes))


@pytest.mark.parametrize("patch", (0, 1))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_local_kernel_matches_old_formula_bit_for_bit(name, patch):
    params = getattr(scenarios, f"{name}_params")()
    slopes = (float(params.crowding_c[patch]), float(params.crowding_d[patch]))
    _assert_same_outcomes(threestage.local_map(params, patch).kernel,
                          _local_by_old_formula(params, patch), _kernel_states(22, slopes))


@pytest.mark.parametrize("variant", ("slow_survival", "rescaled"))
def test_complete_kernel_raises_past_either_patch_pole(variant, gemv_rounds_as_the_kernels):
    params = scenarios.fig10_params()
    system = threestage.make_system(params, variant)
    kernel = lambda k, x: system.complete(k).kernel(x)
    oracle = metapop.make_system(threestage.make_model(params), variant).complete_map
    for patch in (0, 1):
        # one patch's stage-2 density at a time, from admissible to far
        # past the pole; the oracle's matrix demography decides each case
        for z2 in (0.5, 0.0, -1e-3, -0.1, -0.3, -1.0, -1e6):
            x = [0.1] * 6
            x[2 + patch] = z2
            for k in (1, 10):
                assert _same_oracle_outcome(
                    _outcome(lambda v: kernel(k, v), tuple(x)),
                    _outcome(lambda v: oracle(k, np.array(v)), tuple(x)),
                    gemv_rounds_as_the_kernels), (patch, z2, k)
        with pytest.raises(NegativeDensityError):
            kernel(10, tuple(x))


def test_extinction_is_fixed(fig10_params):
    step = threestage.reduced_map(fig10_params, "rescaled")
    assert np.array_equal(step(np.zeros(3)), np.zeros(3))


def test_reduced_matrix_drives_the_map(fig2_params):
    co = threestage.reduced_coefficients(fig2_params, "slow_survival")
    y = np.array([0.11, 0.07, 0.02])
    via_matrix = threestage.reduced_matrix(co, float(y[1])) @ y
    direct = threestage.reduced_map(fig2_params, "slow_survival")(y)
    assert np.max(np.abs(via_matrix - direct)) < 1e-15


def test_branch_prediction_first_order_structure(fig2_params):
    co = threestage.reduced_coefficients(fig2_params, "slow_survival")
    gap = 1.0 - co.s2 * co.s3
    eps = 0.01
    pred = threestage.branch_prediction(fig2_params, "slow_survival", eps)
    assert pred.r0_cycle == pytest.approx(1.0 - co.c_w * eps / gap, abs=1e-15)
    assert pred.r0_equilibrium == pytest.approx(1.0 - co.a_plus * eps / gap, abs=1e-15)
    assert np.allclose(pred.cycle_active_phase, [0.0, eps * co.s1, 0.0])
    assert np.allclose(pred.equilibrium, eps * np.array([gap, co.s1, co.s1 * co.s2]))
    zero = threestage.branch_prediction(fig2_params, "slow_survival", 0.0)
    assert np.allclose(zero.equilibrium, 0.0)
    with pytest.raises(ValueError):
        threestage.branch_prediction(fig2_params, "slow_survival", -0.1)


def test_with_inherent_r0_hits_target(fig10_params):
    for variant in ("slow_survival", "rescaled"):
        moved = threestage.with_inherent_r0(fig10_params, variant, 1.3)
        assert threestage.inherent_R0(moved, variant) == pytest.approx(1.3, abs=1e-12)
        # only fertilities move
        assert np.array_equal(moved.survivals, fig10_params.survivals)
        assert np.array_equal(moved.migration, fig10_params.migration)


def test_make_system_dimensions(fig2_params):
    sys = threestage.make_system(fig2_params, "slow_survival")
    assert (sys.state_dim, sys.reduced_dim) == (6, 3)
    with pytest.raises(ValueError):
        threestage.make_system(fig2_params, "bogus")


@pytest.mark.parametrize("variant", ("slow_survival", "rescaled"))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10", "extinction_flip"))
def test_every_dispersal_operator_is_exactly_zero_off_its_blocks(monkeypatch, name, variant):
    # H_k and H step only the twelve block entries, so the rest of each
    # operator they are built over must be +0.0, sign bit included
    operators = []
    entries = _native.dispersal_entries
    monkeypatch.setattr(_native, "dispersal_entries",
                        lambda a: operators.append(a.copy()) or entries(a))
    system = threestage.make_system(getattr(scenarios, f"{name}_params")(), variant)
    for k in (1, 2, 5, 10, 50, 100, 200):
        system.complete(k)
    assert len(operators) == 8  # H, then H_k for each k
    off_block = np.ones((6, 6), dtype=bool)
    off_block[_native._ROWS, _native._COLS] = False
    for a in operators:
        assert a.shape == (6, 6) and a.dtype == np.float64
        assert a[off_block].tobytes() == np.zeros(24).tobytes()


def _closed_form_and_oracle(name, variant):
    params = getattr(scenarios, f"{name}_params")()
    return (threestage.make_system(params, variant),
            metapop.make_system(threestage.make_model(params), variant))


def _assert_same_bits(label, fast, oracle, inputs, exact=True):
    """fast(x) for each x against oracle(inputs), one call on the whole
    stack: the oracle maps each state of a stack to the bytes it gives it
    alone (test_metapop)."""
    for i, (x, right) in enumerate(zip(inputs, oracle(inputs))):
        left = fast(x)
        assert _agree(left, right, exact), (label, i, x, left - right)


@pytest.mark.parametrize("variant", ("slow_survival", "rescaled"))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_make_system_matches_matrix_oracle_bit_for_bit(name, variant, gemv_rounds_as_the_kernels):
    # the closed-form demography must reproduce D(Z) Z / Dt(Z) Z of the
    # generic pipeline exactly, not just to rounding.  The oracle forms its
    # dispersal products with BLAS gemv, and H_k's and H's kernels in plain
    # floats: their bytes can agree only where gemv rounds as the kernels
    # do (blas_rounding); elsewhere they agree to 1e-13 relative
    fast, oracle = _closed_form_and_oracle(name, variant)
    exact = gemv_rounds_as_the_kernels
    states = np.random.default_rng(11).uniform(0.0, 2.0, (2000, 6))
    for k in ORACLE_KS:
        _assert_same_bits(f"H_{k}", fast.complete(k), oracle.complete(k), states, exact)
    _assert_same_bits("limit", fast.limit_map, oracle.limit_map, states, exact)
    _assert_same_bits("lift", fast.lift, oracle.lift, oracle.projection(states))

    # each step of H_10's orbit against the oracle's image of the step before
    h10 = fast.complete(10)
    orbit = [np.array(scenarios.DEFAULT_INITIAL_STATE)]
    for _ in range(5000):
        orbit.append(h10(orbit[-1]))
    orbit = np.array(orbit)
    for t, (nxt, expected) in enumerate(zip(orbit[1:], oracle.complete(10)(orbit[:-1]))):
        assert _agree(nxt, expected, exact), ("H_10 orbit", t)


@pytest.mark.parametrize("variant", ("slow_survival", "rescaled"))
def test_make_system_raises_as_the_oracle_does(variant):
    fast, oracle = _closed_form_and_oracle("fig10", variant)
    nan_state = np.array([0.1, np.nan, 0.1, 0.1, 0.1, 0.1])
    # stage-2 densities far below -1/c put 1 + c z2 past the response pole
    pole_state = np.array([0.1, 0.1, -1e6, -1e6, 0.1, 0.1])
    for system in (fast, oracle):
        for state, error in ((nan_state, DomainExitError),
                             (pole_state, NegativeDensityError)):
            for k in ORACLE_KS:
                with pytest.raises(error):
                    system.complete_map(k, state)
            with pytest.raises(error):
                system.limit_map(state)
            with pytest.raises(error):
                system.lift(metapop.aggregate(state, 2))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rescaled_never_exceeds_slow_reproduction(seed):
    # geometric survival means cannot beat arithmetic ones when the
    # fertilities match across patches
    rng = np.random.default_rng(seed)
    params = ThreeStageParams.from_fractions(
        rng.uniform(0.05, 0.95, (3, 2)), (float(rng.uniform(0.5, 6.0)),) * 2,
        rng.uniform(0.5, 5.0, 2), rng.uniform(0.5, 5.0, 2),
        rng.uniform(0.1, 0.9, 3))
    r_slow = threestage.inherent_R0(params, "slow_survival")
    r_resc = threestage.inherent_R0(params, "rescaled")
    assert r_resc <= r_slow + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_homogeneous_variants_tie(seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.05, 0.95, 3)
    params = ThreeStageParams.from_fractions(
        np.column_stack([s, s]), (float(rng.uniform(0.5, 6.0)),) * 2,
        (float(rng.uniform(0.5, 5.0)),) * 2, (float(rng.uniform(0.5, 5.0)),) * 2,
        rng.uniform(0.1, 0.9, 3))
    gap = abs(threestage.inherent_R0(params, "rescaled")
              - threestage.inherent_R0(params, "slow_survival"))
    assert gap <= 1e-12


_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.max,
             -sys.float_info.max, 2.0 ** 960, 2.0 ** -960, -(2.0 ** 960), 1.0)


def _exact_fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once: IEEE 754's rules where a term is not finite
    or a factor is zero, else the exact sum as a fraction, rounded."""
    if math.isnan(a) or math.isnan(b) or math.isnan(c):
        return math.nan
    if math.isinf(a) or math.isinf(b):
        return a * b + c  # the product is exactly +-inf, or 0 * inf: NaN
    if math.isinf(c):
        return c
    if a == 0.0 or b == 0.0:
        return a * b + c  # an exact signed zero, plus c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        return 0.0  # nonzero terms that cancel give +0.0
    sign = -1.0 if exact < 0 else 1.0
    if abs(exact) >= 2 ** 1024 - 2 ** 970:  # at or past the midpoint to 2**1024
        return sign * math.inf
    # int / int is correctly rounded; a result that rounds to zero keeps the sign
    return math.copysign(float(exact), sign)


def _fma_triples(count: int):
    """Random triples over exponents -1080..1023, with the specials mixed
    in and c often cancelling a * b to within a unit in the last place."""
    rng = random.Random(2024)

    def value():
        if rng.random() < 0.1:
            return rng.choice(_SPECIALS)
        return rng.choice((-1.0, 1.0)) * math.ldexp(rng.uniform(1.0, 2.0),
                                                    rng.randint(-1080, 1023))

    for i in range(count):
        a, b = value(), value()
        p = a * b
        if i % 3 == 0 or not math.isfinite(p):
            yield a, b, value()
        else:
            yield a, b, -(p if i % 3 == 1 else math.nextafter(p, math.inf))


def _same_float(x: float, y: float) -> bool:
    return math.isnan(x) and math.isnan(y) or struct.pack("<d", x) == struct.pack("<d", y)


def test_fma_rounds_once_against_exact_fractions():
    for a, b, c in _fma_triples(20_000):
        assert _same_float(threestage._fma(a, b, c), _exact_fma(a, b, c)), (a, b, c)
    for a in _SPECIALS:
        for b in _SPECIALS:
            for c in _SPECIALS:
                assert _same_float(threestage._fma(a, b, c), _exact_fma(a, b, c)), (a, b, c)


@pytest.mark.parametrize("a, b, c, expected", [
    (0.0, math.inf, 1.0, math.nan),
    (1e300, 1e300, -math.inf, -math.inf),      # a finite product: c decides
    (2.0, sys.float_info.max, -sys.float_info.max, sys.float_info.max),  # past the range, back
    (sys.float_info.max, 2.0, 0.0, math.inf),  # overflow rounds to inf
    (-sys.float_info.max, 2.0, 0.0, -math.inf),
    (-0.0, 1.0, 0.0, 0.0),
    (-0.0, 1.0, -0.0, -0.0),
    (5e-324, 0.5, 0.0, 0.0),                   # a tie below the smallest subnormal
    (5e-324, -0.5, 0.0, -0.0),
    (5e-324, 0.75, 0.0, 5e-324),
    (1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, -1.0, 2.0 ** -53 - 2.0 ** -105),
])
def test_fma_edge_cases(a, b, c, expected):
    assert _same_float(threestage._fma(a, b, c), expected)


def test_fma_matches_libm():
    name = ctypes.util.find_library("m")
    if name is None:
        pytest.skip("no libm to compare with")
    fma = ctypes.CDLL(name).fma
    fma.restype, fma.argtypes = ctypes.c_double, (ctypes.c_double,) * 3
    for a, b, c in _fma_triples(40_000):
        assert _same_float(threestage._fma(a, b, c), fma(a, b, c)), (a, b, c)
