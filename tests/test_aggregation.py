import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoscalepop import aggregation, metapop, scenarios, threestage
from twoscalepop.aggregation import TrapSpec, TwoScaleSystem
from twoscalepop.errors import DomainExitError, NegativeDensityError
from twoscalepop.solvers import newton_fixed_point


def _scaling_system(factor):
    """Toy family: every map multiplies the state by the same factor."""
    def complete(k, x):
        return factor * np.asarray(x, dtype=float)

    return TwoScaleSystem(
        state_dim=2,
        reduced_dim=1,
        complete_map=complete,
        limit_map=lambda x: factor * np.asarray(x, dtype=float),
        projection=lambda x: np.asarray(x, dtype=float)[:1],
        lift=lambda y: np.array([y[0], y[0]]),
    )


def test_system_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        TwoScaleSystem(2, 2, lambda k, x: x, lambda x: x, lambda x: x[:1], lambda y: y)
    with pytest.raises(ValueError):
        TwoScaleSystem(0, 1, lambda k, x: x, lambda x: x, lambda x: x, lambda y: y)


def test_complete_requires_positive_k():
    sys = _scaling_system(0.5)
    with pytest.raises(ValueError):
        sys.complete(0)


def test_iterate_returns_full_orbit_segment():
    orbit = aggregation.iterate(lambda x: 0.5 * x, np.ones(2), 4)
    assert orbit.shape == (5, 2) and orbit.dtype == np.float64
    assert np.allclose(orbit[-1], np.full(2, 0.0625))


def test_iterate_raises_on_orthant_exit():
    with pytest.raises(DomainExitError) as err:
        aggregation.iterate(lambda x: -x, np.ones(1), 3)
    assert err.value.step == 1


def test_iterate_raises_on_box_exit():
    with pytest.raises(DomainExitError):
        aggregation.iterate(lambda x: 2.0 * x, np.full(1, 6e8), 3)


_X0 = np.array(scenarios.DEFAULT_INITIAL_STATE)
_Y0 = metapop.aggregate(_X0, 2)


def _tail_case(name):
    """(map, start) pairs: shipped maps, plus toys with a known period."""
    if name == "fig2":
        return threestage.reduced_map(scenarios.fig2_params(), "slow_survival"), _Y0
    if name == "fig3":
        return threestage.reduced_map(scenarios.fig3_params(), "slow_survival"), _Y0
    if name == "fig10":
        return threestage.reduced_map(scenarios.fig10_params(), "rescaled"), _Y0
    if name == "H_5":
        sys = threestage.make_system(scenarios.fig2_params(), "slow_survival")
        return sys.complete(5), _X0
    if name == "constant":
        return (lambda x: np.array([0.25, 4.0])), np.array([1.0, 2.0])
    return (lambda x: np.roll(x, 1)), np.array([1.0, 2.0, 3.0])


def _plain_orbit(map_fn, x0, steps):
    x = np.asarray(x0, dtype=float)
    out = [x]
    for _ in range(steps):
        x = np.asarray(map_fn(x), dtype=float)
        out.append(x)
    return np.array(out)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig10", "H_5", "constant", "roll"])
def test_iterate_tail_matches_plain_orbit_bit_for_bit(name):
    map_fn, x0 = _tail_case(name)
    orbit = _plain_orbit(map_fn, x0, 9000)
    for steps in (0, 1, 2, 7, 1000, 9000):
        for keep in sorted({1, 2, steps + 1}):
            if keep > steps + 1:
                continue
            tail, _ = aggregation.iterate_tail(map_fn, x0, steps, keep)
            assert _same_bits(tail, orbit[steps + 1 - keep:steps + 1]), (steps, keep)


def test_iterate_tail_reports_repeat_step_and_period():
    # the tortoise saves the states of steps 0 to 16, then of every second
    # step up to 32, then of steps 35, 38, ...: a save at step t is kept for
    # 1 + t // 16 steps.  The period-3 roll is first caught when step 35
    # matches the state saved at step 32, the first save kept 3 steps
    _, repeat = aggregation.iterate_tail(*_tail_case("roll"), 100)
    assert repeat == (35, 3)
    _, repeat = aggregation.iterate_tail(*_tail_case("constant"), 100)
    assert repeat == (2, 1)
    _, repeat = aggregation.iterate_tail(*_tail_case("fig3"), 2000)
    assert repeat is None


def _first_repeat(kernel, x, limit):
    """(step, period) of the first bitwise repeat, from every state's bytes."""
    seen = {struct.pack("<%dd" % len(x), *x): 0}
    for t in range(1, limit + 1):
        x = kernel(x)
        bits = struct.pack("<%dd" % len(x), *x)
        if bits in seen:
            return t, t - seen[bits]
        seen[bits] = t
    return None


def _repeating_series():
    """(label, map, start, horizon, tail) of every fig2 and sec42_compare run."""
    for name in ("fig2", "sec42_compare"):
        scenario = scenarios.builtin(name)
        for cfg in scenario.configs:
            params, variant, x0 = cfg.params, cfg.variant, cfg.initial_state
            system = threestage.make_system(params, variant)
            label = f"{name}:{variant}"
            yield (f"{label}:reduced", threestage.reduced_map(params, variant),
                   metapop.aggregate(x0, 2), cfg.horizon, cfg.tail)
            for k in cfg.k_list:
                yield f"{label}:k={k}", system.complete(k), x0, cfg.horizon, cfg.tail
            if scenario.include_local:
                for patch in (0, 1):
                    yield (f"{label}:local_{patch + 1}", threestage.local_map(params, patch),
                           x0[patch::2], cfg.horizon, cfg.tail)


def test_iterate_tail_catches_repeats_near_their_onset():
    for label, map_fn, x0, horizon, tail in _repeating_series():
        start = tuple(np.asarray(x0, dtype=float).tolist())
        first, period = _first_repeat(map_fn.kernel, start, horizon + 1 - tail)
        _, repeat = aggregation.iterate_tail(map_fn, x0, horizon, tail)
        assert repeat is not None and repeat[1] == period, label
        # the cycle's first state is at step first - period; from step m on,
        # each save is kept at least a period (iterate_tail's lag bound)
        m = max(first - period, 16 * (period - 1))
        assert first <= repeat[0] <= m + period + m // 16, label


def test_iterate_tail_tells_signed_zeros_apart():
    # flipping the sign of a zero coordinate has bitwise period 2, while ==
    # sees period 1 and would fast-forward to a state with the wrong sign.
    # The first save kept two steps is step 16's, matched at step 18
    def flip(x):
        return x * np.array([-1.0, 1.0])

    x0 = np.array([0.0, 1.0])
    orbit = _plain_orbit(flip, x0, 1001)
    for steps in (2, 3, 8, 9, 20, 21, 1000, 1001):
        for keep in (1, 3):
            tail, repeat = aggregation.iterate_tail(flip, x0, steps, keep)
            assert _same_bits(tail, orbit[steps + 1 - keep:steps + 1]), (steps, keep)
    assert repeat == (18, 2)
    tail, repeat = aggregation.iterate_tail(lambda x: -x, x0, 1001)
    assert _same_bits(tail[-1], np.array([-0.0, -1.0])) and repeat == (18, 2)


def _quiet_nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


_NAN_A, _NAN_B = _quiet_nan(1), _quiet_nan(2)


def _nan_swap(x):
    # a NaN with payload 1 becomes one with payload 2 and back; any other
    # first coordinate becomes the payload-1 NaN
    is_a = np.float64(x[0]).tobytes() == np.float64(_NAN_A).tobytes()
    return np.array([_NAN_B if is_a else _NAN_A, x[1]])


def _with_kernel(map_fn, kernel):
    """``map_fn``'s array form, refusing calls, carrying ``kernel``."""
    def step(x):
        raise AssertionError("iterate_tail must step through the kernel")

    step.kernel = kernel
    return step


def _nan_cases():
    yield "array", _nan_swap
    yield "kernel", _with_kernel(_nan_swap, lambda x: tuple(_nan_swap(np.array(x)).tolist()))


@pytest.mark.parametrize("form", ["array", "kernel"])
def test_iterate_tail_matches_nan_only_by_bits(form):
    # == never sees a NaN equal to another NaN object, so only the bytes
    # find these repeats: the payloads alternate with bitwise period 2 from
    # step 1, caught when step 18 matches the state saved at step 16
    map_fn = dict(_nan_cases())[form]
    assert np.float64(_NAN_A).tobytes() != np.float64(_NAN_B).tobytes()
    x0 = np.array([0.0, 1.0])
    orbit = _plain_orbit(_nan_swap, x0, 1001)
    for steps in (2, 3, 8, 9, 20, 21, 1000, 1001):
        for keep in (1, 3):
            tail, repeat = aggregation.iterate_tail(map_fn, x0, steps, keep)
            assert _same_bits(tail, orbit[steps + 1 - keep:steps + 1]), (steps, keep)
    assert repeat == (18, 2)
    # a constant NaN state repeats with period 1
    const = lambda x: np.array([_NAN_B, 1.0])
    tail, repeat = aggregation.iterate_tail(const, x0, 1000)
    assert repeat == (2, 1) and _same_bits(tail[-1], np.array([_NAN_B, 1.0]))


class _Spy:
    """A plain wrapper of a map, as a tracer wraps it: counts every call."""

    def __init__(self, map_fn):
        self.map_fn = map_fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.map_fn(*args)


def _computed_steps(steps, keep, repeat):
    if repeat is None:
        return steps
    t, period = repeat
    return t + (steps + 1 - keep - t) % period + keep - 1


def _shipped_maps(name, variant):
    """(label, map, start, steps) for every threestage map of one system."""
    params = getattr(scenarios, f"{name}_params")()
    system = threestage.make_system(params, variant)
    # fig2's orbits repeat bit for bit within 16 385 steps, so its runs
    # also cover the fast-forward; fig3 and fig10 never repeat
    steps = 20_000 if name == "fig2" else 2_000
    yield "reduced", threestage.reduced_map(params, variant), _Y0, steps
    for patch in (0, 1):
        yield f"local_{patch + 1}", threestage.local_map(params, patch), _X0[patch::2], steps
    for k in (1, 10, 100):
        yield f"H_{k}", system.complete(k), _X0, steps
    yield "limit", system.limit_map, _X0, steps
    yield "lift", system.lift, _Y0, 1  # 3 -> 6 coordinates: one step only


@pytest.mark.parametrize("variant", ("slow_survival", "rescaled"))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_kernel_orbits_match_array_form_bit_for_bit(name, variant):
    for label, map_fn, x0, steps in _shipped_maps(name, variant):
        assert callable(map_fn.kernel), label
        keep = 3 if steps > 1 else 1
        spy = _Spy(lambda x: map_fn(x))
        tail, repeat = aggregation.iterate_tail(map_fn, x0, steps, keep)
        spy_tail, spy_repeat = aggregation.iterate_tail(spy, x0, steps, keep)
        assert _same_bits(tail, spy_tail) and repeat == spy_repeat, label
        assert spy.calls == _computed_steps(steps, keep, repeat), label
        if label == "H_10":
            # the kernel's rows are the array map's rows, step by step
            assert _same_bits(tail, _plain_orbit(map_fn, x0, steps)[-keep:]), label


def test_complete_binds_each_k_kernel_once(fig2_params, gemv_rounds_as_the_kernels):
    # H_k is built once per k and kept; the metapop oracle offers no
    # ``for_k``, so its H_k carries neither a float kernel nor a compiled form.
    # Its orbits are BLAS gemv's, so they can equal H_k's bit for bit only
    # where gemv rounds as the kernels do (blas_rounding)
    system = threestage.make_system(fig2_params, "slow_survival")
    assert system.complete(5) is system.complete(5)
    assert system.complete(5).kernel is not system.complete(10).kernel
    oracle = metapop.make_system(threestage.make_model(fig2_params), "slow_survival")
    assert not hasattr(oracle.complete(5), "kernel")
    assert not hasattr(oracle.complete(5), "native")
    for k in (1, 5, 10) if gemv_rounds_as_the_kernels else ():
        tail, repeat = aggregation.iterate_tail(system.complete(k), _X0, 3_000, 3)
        expected, oracle_repeat = aggregation.iterate_tail(oracle.complete(k), _X0, 3_000, 3)
        assert _same_bits(tail, expected) and repeat == oracle_repeat, k


def test_replaced_complete_map_drops_the_kernel(fig2_params):
    # a wrapper that replaces complete_map, as the tracer does, is called
    # on every computed step of H_k
    system = threestage.make_system(fig2_params, "slow_survival")
    spy = _Spy(system.complete_map)
    traced = dataclasses.replace(system, complete_map=spy)
    assert callable(system.complete(5).kernel)
    assert not hasattr(traced.complete(5), "kernel")
    tail, repeat = aggregation.iterate_tail(traced.complete(5), _X0, 20_000, 2)
    assert repeat is not None and spy.calls == _computed_steps(20_000, 2, repeat)
    expected, _ = aggregation.iterate_tail(system.complete(5), _X0, 20_000, 2)
    assert _same_bits(tail, expected)


def test_iterate_tail_rejects_bad_sizes():
    with pytest.raises(ValueError):
        aggregation.iterate_tail(lambda x: x, np.ones(2), -1)
    for keep in (0, 5):
        with pytest.raises(ValueError):
            aggregation.iterate_tail(lambda x: x, np.ones(2), 3, keep)


def test_default_radius_scales_with_center():
    assert aggregation.default_radius(np.zeros(3)) == 0.05
    assert aggregation.default_radius([3.0, 4.0]) == pytest.approx(0.25)


def test_ball_samples_deterministic_and_contained():
    c = np.array([1.0, 2.0, 0.5])
    pts = aggregation.ball_samples(c, 0.3, 17, seed=9)
    again = aggregation.ball_samples(c, 0.3, 17, seed=9)
    assert pts.shape == (17, 3)
    assert np.array_equal(pts, again)
    dist = np.linalg.norm(pts - c, axis=1)
    assert np.all(dist <= 0.3 + 1e-12)
    # the leading mesh points sit on the boundary sphere
    assert np.allclose(dist[:9], 0.3, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ball_samples_stay_in_ball(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, int(rng.integers(1, 6)))
    r = float(rng.uniform(0.01, 2.0))
    pts = aggregation.ball_samples(c, r, int(rng.integers(1, 40)), seed=seed)
    assert np.all(np.linalg.norm(pts - c, axis=1) <= r + 1e-12)


# SHA-256 of ball_samples(...).tobytes(), recorded with scipy.special.ndtri
# driving the mesh; they hold the sample sets where scipy is absent
_SAMPLE_PINS = [
    (6, 0, 0.01, 42, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (6, 1, 0.01, 42, "287809fa0a48efc85cb647617978c7823697888c94091aa0bbde96173bdcd842"),
    (6, 2, 0.01, 42, "bbe1f128268c8ff2a490c14822fab104a1e091ae23dec9ea868f95c00fe78d3d"),
    (6, 33, 0.01, 42, "736fc13daad6abf724c4ab85c2426111aae18f434551086ea60ecf7d8344761e"),
    (6, 64, 0.01, 42, "50f6f029735dbd295451ae62af70d720c60ef0912f1bbb92660d3dbd59f0b7a3"),
    (3, 32, 0.25, 7, "708c05957eb4f23fd79a14e7a4211395b2e553be6ee04f5aa00a6715825277ea"),
]


@pytest.mark.parametrize("dim, count, radius, seed, digest", _SAMPLE_PINS)
def test_ball_samples_are_pinned(dim, count, radius, seed, digest):
    center = [0.3, 0.2, 0.5, 0.4, 0.1, 0.6] if dim == 6 else [1.0, 2.0, 3.0]
    pts = aggregation.ball_samples(center, radius, count, seed=seed)
    assert pts.shape == (count, dim) and pts.dtype == np.float64
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


def test_trap_spec_validation():
    c = np.zeros(2)
    with pytest.raises(ValueError):
        TrapSpec(c, radius=0.0)
    with pytest.raises(ValueError):
        TrapSpec(c, radius=1.0, period=0)
    with pytest.raises(ValueError):
        TrapSpec(c, radius=1.0, sample_count=0)
    with pytest.raises(ValueError):
        TrapSpec(c, radius=1.0, k_values=())
    with pytest.raises(ValueError):
        TrapSpec(c, radius=1.0, k_values=(1, 0))


def test_trapping_check_contraction_traps_every_k():
    sys = _scaling_system(0.5)
    trap = TrapSpec(np.zeros(2), radius=1.0, period=1, sample_count=16, k_values=(1, 3))
    verdicts = aggregation.trapping_check(sys, trap)
    assert set(verdicts) == {1, 3}
    for v in verdicts.values():
        assert v.trapped
        assert v.witness is None
        assert v.max_image_distance <= 0.5 + 1e-12


def test_trapping_check_expansion_reports_witness():
    sys = _scaling_system(2.0)
    trap = TrapSpec(np.zeros(2), radius=1.0, period=1, sample_count=16, k_values=(1,))
    verdict = aggregation.trapping_check(sys, trap)[1]
    assert not verdict.trapped
    assert verdict.witness is not None
    assert verdict.max_image_distance >= 2.0 - 1e-12


def test_attraction_check_enters_ball():
    sys = _scaling_system(0.5)
    trap = TrapSpec(np.zeros(2), radius=1.0, period=1, k_values=(1, 2))
    verdicts = aggregation.attraction_check(sys, trap, np.array([3.0, 3.0]), horizon=50)
    for v in verdicts.values():
        assert v.entered
        assert v.entry_index is not None
        assert v.closest_approach < 1.0


def test_attraction_check_reports_miss():
    sys = _scaling_system(1.0)  # orbit never moves
    trap = TrapSpec(np.zeros(2), radius=1.0, period=1, k_values=(1,))
    verdict = aggregation.attraction_check(sys, trap, np.array([3.0, 3.0]), horizon=20)[1]
    assert not verdict.entered
    assert verdict.closest_approach == pytest.approx(np.hypot(3, 3))


def test_instability_check_detects_expansion():
    sys = _scaling_system(2.0)
    trap = TrapSpec(np.zeros(2), radius=0.5, period=1, sample_count=8, k_values=(1,))
    verdict = aggregation.instability_check(sys, trap)[1]
    assert verdict.escapes_boundary
    assert verdict.expansion_ratio > 1.0


def test_instability_check_quiet_on_contraction():
    sys = _scaling_system(0.5)
    trap = TrapSpec(np.zeros(2), radius=0.5, period=1, sample_count=8, k_values=(1,))
    verdict = aggregation.instability_check(sys, trap)[1]
    assert not verdict.escapes_boundary


def test_convergence_table_gaps_nonincreasing(fig2_params):
    sys = threestage.make_system(fig2_params, "slow_survival")
    rng = np.random.default_rng(0)
    table = aggregation.convergence_table(sys, rng.uniform(0.0, 0.1, (8, 6)),
                                          m=1, k_values=(1, 5, 10, 50, 100))
    assert table.skipped == ()
    gaps = [table.gaps[k] for k in (1, 5, 10, 50, 100)]
    # beyond k ~ 50 the true gap sits below machine epsilon, so allow
    # roundoff-sized wiggle
    assert all(a + 1e-14 >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def _exact(value):
    """A verdict as comparable data: floats by repr, arrays by their bytes."""
    if dataclasses.is_dataclass(value):
        return _exact(vars(value))
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def _without_kernels(system):
    """The system behind plain wrappers, which carry no float kernel."""
    return dataclasses.replace(system,
                               complete_map=lambda k, x: system.complete_map(k, x),
                               limit_map=lambda x: system.limit_map(x))


def _harness_case(name):
    """(system, trap spec, attraction start) around a located limit-map centre."""
    if name == "fig2":
        system = threestage.make_system(scenarios.fig2_params(), "slow_survival")
        period, k_values, entry = 50, (1, 2, 10), 1.25
    else:
        system = threestage.make_system(scenarios.fig10_params(), "rescaled")
        period, k_values, entry = 2, (1, 10, 50), 1.01
    tail, _ = aggregation.iterate_tail(system.limit_map, _X0, 20_000)
    center, _ = newton_fixed_point(system.limit_map, tail[-1])
    trap = TrapSpec(center, aggregation.default_radius(center), period=period,
                    sample_count=8, k_values=k_values)
    return system, trap, entry * center


@pytest.mark.parametrize("name", ["fig2", "fig10"])
def test_harnesses_agree_with_and_without_kernels(name):
    system, trap, start = _harness_case(name)
    plain = _without_kernels(system)
    assert callable(system.complete(1).kernel) and callable(system.limit_map.kernel)
    assert not hasattr(plain.complete(1), "kernel") and not hasattr(plain.limit_map, "kernel")
    samples = np.random.default_rng(5).uniform(0.0, 0.1, (6, 6))
    harnesses = {
        "trapping": lambda s: aggregation.trapping_check(s, trap),
        "attraction": lambda s: aggregation.attraction_check(s, trap, start, horizon=600),
        "instability": lambda s: aggregation.instability_check(s, trap),
        "convergence": lambda s: aggregation.convergence_table(
            s, samples, m=3, k_values=trap.k_values),
    }
    for label, harness in harnesses.items():
        assert _exact(harness(system)) == _exact(harness(plain)), label


_BAD_STATES = {
    "negative": ((-1.0, 2.0), "state left the nonnegative orthant"),
    "nan": ((float("nan"), 2.0), "state has a non-finite coordinate"),
    # min and max skip a NaN that is not the first coordinate
    "nan_last": ((2.0, float("nan")), "state has a non-finite coordinate"),
    "nan_and_negative": ((-1.0, float("nan")), "state has a non-finite coordinate"),
    "infinite": ((float("inf"), 2.0), "state has a non-finite coordinate"),
    "box": ((2e9, 2.0), "state exceeded the box bound"),
    # finite coordinates whose float sum overflows
    "overflowing_sum": ((1e308, 1e308), "state exceeded the box bound"),
}


def _bad_at_step_three(bad, with_kernel):
    """x -> x + 1 below x[0] = 2, into ``bad`` for 2 <= x[0] < 3, fixed
    beyond: from x[0] in [0, 1) the orbit leaves the admissible set at
    step 3, and from x[0] >= 3 it never moves."""
    def kernel(x):
        if x[0] < 2.0:
            return tuple(v + 1.0 for v in x)
        return bad if x[0] < 3.0 else x

    def step(x):
        return np.array(kernel(tuple(np.asarray(x, dtype=float).tolist())))

    def complete(k, x):
        return step(x)

    if with_kernel:
        step.kernel = kernel
        complete.for_k = lambda k: step
    return TwoScaleSystem(
        state_dim=2, reduced_dim=1, complete_map=complete, limit_map=step,
        projection=lambda x: np.asarray(x, dtype=float)[:1],
        lift=lambda y: np.array([y[0], y[0]]),
    )


@pytest.mark.parametrize("with_kernel", [False, True])
@pytest.mark.parametrize("case", sorted(_BAD_STATES))
def test_harnesses_report_domain_exits_at_their_step(case, with_kernel):
    bad, message = _BAD_STATES[case]
    system = _bad_at_step_three(bad, with_kernel)
    assert hasattr(system.complete(1), "kernel") == with_kernel
    for run in (lambda: aggregation.iterate(system.limit_map, np.zeros(2), 5),
                lambda: aggregation.iterate(system.complete(1), np.zeros(2), 5),
                lambda: aggregation.attraction_check(
                    system, TrapSpec(np.full(2, 1e3), radius=1.0, k_values=(1, 2)),
                    np.zeros(2), horizon=5)):
        with pytest.raises(DomainExitError) as err:
            run()
        assert str(err.value) == message and err.value.step == 3
        assert err.value.state.tobytes() == np.array(bad).tobytes()
    # samples 0 and 1 leave at step 3 under both maps, 2 and 3 never do
    samples = np.array([[0.0, 0.0], [0.5, 7.0], [3.0, 3.0], [10.0, 0.0]])
    table = aggregation.convergence_table(system, samples, m=5, k_values=(1, 4))
    assert table.skipped == (0, 1) and table.gaps == {1: 0.0, 4: 0.0}
    table = aggregation.convergence_table(system, samples, m=2, k_values=(1,))
    assert table.skipped == ()


def test_attraction_check_rejects_an_inadmissible_start():
    with pytest.raises(DomainExitError) as err:
        aggregation.attraction_check(_scaling_system(0.5), TrapSpec(np.zeros(2), 1.0),
                                     np.array([1.0, -1.0]), horizon=5)
    assert str(err.value) == "state left the nonnegative orthant" and err.value.step == 0


@pytest.mark.parametrize("horizon", [0, -3])
def test_attraction_check_rejects_a_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="^horizon must be at least 1$"):
        aggregation.attraction_check(_scaling_system(0.5), TrapSpec(np.zeros(2), 1.0),
                                     np.array([1.0, 1.0]), horizon=horizon)


def test_convergence_table_reports_nan_when_every_sample_is_skipped(fig2_params):
    # every sample starts above the box bound, so every orbit leaves it at step 1
    system = threestage.make_system(fig2_params, "slow_survival")
    table = aggregation.convergence_table(system, np.full((3, 6), 2e9), m=1, k_values=(1, 5))
    assert table.skipped == (0, 1, 2)
    assert list(table.gaps) == [1, 5] and all(np.isnan(g) for g in table.gaps.values())


def test_convergence_table_skips_domain_exits_but_raises_other_errors(fig2_params):
    # row 0 leaves the box at step 1 and is skipped; rows 1 and 2 start
    # beyond the response pole, whose error no skip may hide
    system = threestage.make_system(fig2_params, "slow_survival")
    pole = [0.1, 0.1, -10.0, -10.0, 0.1, 0.1]
    samples = np.array([np.full(6, 2e9), pole, pole, _X0])
    with pytest.raises(NegativeDensityError):
        aggregation.convergence_table(system, samples, m=1, k_values=(1,))
    table = aggregation.convergence_table(system, samples[[0, 3]], m=1, k_values=(1,))
    assert table.skipped == (0,) and table.gaps[1] > 0.0
