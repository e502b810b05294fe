"""The compiled stepping loop against the Python float kernels it replaces.

The Python kernels are the oracle: every test steps the same orbit on both
paths and compares bytes, exceptions and repeat reports.
"""
import dataclasses
import struct
import os
import subprocess
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import twoscalepop
from twoscalepop import _native, aggregation, analysis, cli, metapop, scenarios, threestage
from twoscalepop._native import Stepper
from twoscalepop.aggregation import TrapSpec, _power, images, iterate_tail, stepping_path
from twoscalepop.errors import DomainExitError, NegativeDensityError
from twoscalepop.metapop import VARIANT_RESCALED, VARIANT_SLOW
from twoscalepop.solvers import newton_fixed_point

_X0 = np.array(scenarios.DEFAULT_INITIAL_STATE)
_Y0 = metapop.aggregate(_X0, 2)
_KS = (1, 5, 10, 50, 100)


@pytest.fixture
def native_lib():
    lib, where = _native._library()
    if lib is None:
        pytest.skip(f"compiled loop unavailable: {where}")
    return lib


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """An empty cache and no library yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "_library_state", None)


def python_only(map_fn):
    """``map_fn`` stepped through its Python float kernel: no ``.native``."""
    step = lambda x: map_fn(x)
    step.kernel = map_fn.kernel
    return step


def _series(name, variant, ks=_KS):
    """(label, map, start) for H_k, the reduced map and both local maps."""
    params = getattr(scenarios, f"{name}_params")()
    system = threestage.make_system(params, variant)
    for k in ks:
        yield f"H_{k}", system.complete(k), _X0
    yield "reduced", threestage.reduced_map(params, variant), _Y0
    for patch in (0, 1):
        yield f"local_{patch + 1}", threestage.local_map(params, patch), _X0[patch::2]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", (VARIANT_SLOW, VARIANT_RESCALED))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_compiled_steps_match_python_kernels_bit_for_bit(native_lib, name, variant):
    for label, map_fn, x0 in _series(name, variant):
        x = tuple(x0.tolist())
        native, python = np.empty((20_000, len(x))), np.empty((20_000, len(x)))
        compiled = Stepper(map_fn)
        assert compiled.path == _native.NATIVE, label
        compiled.rows(x, native)
        Stepper(python_only(map_fn)).rows(x, python)
        assert _same_bits(native, python), label


@pytest.mark.parametrize("name", ("fig2", "sec42_compare", "fig3", "fig10"))
def test_iterate_tail_agrees_on_both_paths(native_lib, name):
    # fig2 and sec42_compare repeat bit for bit within these horizons, so
    # their runs cover the fast-forward; fig3 and fig10 never repeat
    horizon = 20_000 if name in ("fig2", "sec42_compare") else 3_000
    repeats = []
    scenario = scenarios.builtin(name)
    for config in scenario.configs:
        # the series a run of the scenario steps
        params = config.params
        system = threestage.make_system(params, config.variant)
        maps = [("reduced", threestage.reduced_map(params, config.variant), _Y0)]
        maps += [(f"H_{k}", system.complete(k), _X0) for k in config.k_list]
        maps += [(f"local_{p + 1}", threestage.local_map(params, p), _X0[p::2])
                 for p in ((0, 1) if scenario.include_local else ())]
        for label, map_fn, x0 in maps:
            assert stepping_path(map_fn) == _native.NATIVE, label
            tail, repeat = iterate_tail(map_fn, x0, horizon, 8)
            expected, expected_repeat = iterate_tail(python_only(map_fn), x0, horizon, 8)
            assert _same_bits(tail, expected) and repeat == expected_repeat, label
            repeats.append(repeat)
    if name in ("fig2", "sec42_compare"):
        assert all(r is not None for r in repeats)
    else:
        assert all(r is None for r in repeats)


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return info.value


def _same_error(a, b):
    same_state = (getattr(a, "state", None) is None) == (getattr(b, "state", None) is None)
    if same_state and getattr(a, "state", None) is not None:
        same_state = _same_bits(a.state, b.state)
    return (type(a) is type(b) and str(a) == str(b) and same_state
            and getattr(a, "step", None) == getattr(b, "step", None))


def test_a_start_beyond_the_pole_raises_alike(fig2_params):
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    beyond = np.array([0.1, -10.0, 0.1])
    err = _raised(lambda: iterate_tail(reduced, beyond, 5))
    assert isinstance(err, NegativeDensityError)
    assert _same_error(err, _raised(lambda: iterate_tail(python_only(reduced), beyond, 5)))


def test_a_failing_step_is_replayed_at_the_same_step(native_lib, fig2_params):
    # y1 = -10 sends y2 beyond the pole after one step
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    start = np.array([-10.0, 0.1, 0.0])
    assert stepping_path(reduced) == _native.NATIVE
    for steps in (0, 1):
        tail, _ = iterate_tail(reduced, start, steps)
        assert _same_bits(tail, iterate_tail(python_only(reduced), start, steps)[0])
    # the pole falls in the tail rows, then inside the run before the tail
    for steps, keep in ((2, 1), (50, 1), (50, 8)):
        err = _raised(lambda: iterate_tail(reduced, start, steps, keep))
        assert isinstance(err, NegativeDensityError)
        assert _same_error(err, _raised(
            lambda: iterate_tail(python_only(reduced), start, steps, keep))), (steps, keep)


def _same_tail_on_both_paths(map_fn, x0, steps, keep):
    """Check that ``iterate_tail`` gives the same tail bytes and repeat, or
    raises the same error, on both paths; return that repeat or error."""
    assert stepping_path(map_fn) == _native.NATIVE
    python = python_only(map_fn)
    try:
        tail, repeat = iterate_tail(map_fn, x0, steps, keep)
    except Exception as err:
        assert _same_error(err, _raised(lambda: iterate_tail(python, x0, steps, keep)))
        return err
    expected, expected_repeat = iterate_tail(python, x0, steps, keep)
    assert _same_bits(tail, expected) and repeat == expected_repeat
    return repeat


def test_the_repeat_schedule_agrees_on_both_paths(native_lib, fig2_params):
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    local = threestage.local_map(fig2_params, 0)
    # the origin is fixed: step 1 repeats step 0
    for map_fn in (reduced, local):
        assert _same_tail_on_both_paths(map_fn, np.zeros(3), 100, 3) == (1, 1)
    # keep = steps + 1 leaves no step before the tail
    assert _same_tail_on_both_paths(reduced, _Y0, 40, 41) is None
    # a repeat caught exactly at the tail's first row, and one step too late
    caught, period = iterate_tail(reduced, _Y0, 20_000)[1]
    assert _same_tail_on_both_paths(reduced, _Y0, caught + 7, 8) == (caught, period)
    assert _same_tail_on_both_paths(reduced, _Y0, caught + 6, 8) is None
    err = _same_tail_on_both_paths(reduced, (-10.0, 0.1, 0.0), 5, 6)
    assert isinstance(err, NegativeDensityError)


def test_a_fixed_start_is_caught_at_step_1(native_lib, fig2_params):
    # the tortoise holds the start, saved at step 0, when step 1 is compared
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    start = (0.0,) * 3
    # alone (the serial loop) and beside a second series (the lanes)
    for count in (1, 2):
        ran = native_lib.orbits([(_native.REDUCED, reduced.native.packed, start)] * count, 100)
        assert ran == [(start, 1, _native._MATCHED, 1)] * count
    for stepper in (Stepper(reduced), Stepper(python_only(reduced))):
        assert _orbit(stepper, start, 100) == (start, 1, (1, 1))


def _orbit(stepper, x, first):
    """(state, step, repeat) of ``stepper``'s repeat schedule from ``x`` alone."""
    return next(_native.orbits([(stepper, x)], first))


class _CountingLibrary:
    """A loaded extension whose functions record each call by name."""

    def __init__(self, lib):
        self._lib, self.calls = lib, []

    def __getattr__(self, name):
        function = getattr(self._lib, name)

        def call(*args):
            self.calls.append(name)
            return function(*args)

        return call


def test_a_drifting_orbit_runs_its_schedule_in_one_foreign_call(native_lib, monkeypatch,
                                                               fig3_params):
    hk = threestage.make_system(fig3_params, VARIANT_SLOW).complete(10)
    spy = _CountingLibrary(native_lib)
    monkeypatch.setattr(_native, "_library_state", (spy, _native._library()[1]))
    tail, repeat = iterate_tail(hk, _X0, 20_000, 8)
    assert repeat is None
    # the orbit up to the tail, its (empty) final stretch and the tail rows
    assert spy.calls == ["orbits", "advance", "advance"]
    expected, _ = iterate_tail(python_only(hk), _X0, 20_000, 8)
    assert _same_bits(tail, expected)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_overflowing_h_k_step_raises_alike(native_lib, fig3_params):
    hk = threestage.make_system(fig3_params, VARIANT_SLOW).complete(5)
    start = np.full(6, 1.7e308)
    err = _raised(lambda: iterate_tail(hk, start, 10))
    assert isinstance(err, DomainExitError)
    assert _same_error(err, _raised(lambda: iterate_tail(python_only(hk), start, 10)))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_checked_run_stamps_the_kernel_error_with_its_step(native_lib, fig3_params):
    hk = threestage.make_system(fig3_params, VARIANT_SLOW).complete(5)
    start = (1.7e308,) * 6
    native = Stepper(hk, checked=True)
    assert native.path == _native.NATIVE
    err = _raised(lambda: native.advance(start, 10))
    assert str(err) == "step produced a non-finite state" and err.step == 1
    assert _same_error(err, _raised(
        lambda: Stepper(python_only(hk), checked=True).advance(start, 10)))
    # an unchecked run's steps count from no fixed origin, so it stamps nothing
    assert _raised(lambda: Stepper(hk).advance(start, 10)).step is None


def _box_exit_bound(hk, x0, steps=40):
    """A bound that the orbit of ``x0`` first passes at a step of at least 3."""
    orbit = aggregation.iterate(hk, x0, steps)
    peaks = [float(row.max()) for row in orbit]
    for t in range(3, steps + 1):
        if peaks[t] > max(peaks[:t]):
            return max(peaks[:t]), t
    raise AssertionError("the orbit never rises")


def test_a_box_exit_raises_alike(native_lib, fig3_params, monkeypatch):
    hk = threestage.make_system(fig3_params, VARIANT_SLOW).complete(5)
    # at the shipped bound only a first step leaves the box, from near it
    big = np.array([0.0, 0.0, 2e8, 6.4e8, 8.2e8, 9.4e8])
    for x0, bound, step in ((big, _native.BOX_BOUND, 1),
                            (1e-4 * _X0, *_box_exit_bound(hk, 1e-4 * _X0))):
        monkeypatch.setattr(_native, "BOX_BOUND", bound)
        err = _raised(lambda: aggregation.iterate(hk, x0, 50))
        assert str(err) == "state exceeded the box bound" and err.step == step
        assert _same_error(err, _raised(lambda: aggregation.iterate(python_only(hk), x0, 50)))


def test_a_domain_exit_one_step_before_a_pole_wins(native_lib, fig2_params):
    # from y1 = -10 the first state leaves the orthant and the second step
    # meets the pole
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    start = (-10.0, 0.1, 0.0)
    native = Stepper(reduced, checked=True)
    assert native.path == _native.NATIVE
    err = _raised(lambda: native.advance(start, 5))
    assert isinstance(err, DomainExitError) and err.step == 1
    assert _same_error(err, _raised(
        lambda: Stepper(python_only(reduced), checked=True).advance(start, 5)))
    assert isinstance(_raised(lambda: Stepper(reduced).advance(start, 5)),
                      NegativeDensityError)


def test_the_replay_must_raise(native_lib, fig2_params):
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    # a kernel that never fails, with the reduced map's compiled form
    stepper = Stepper(threestage._with_kernel(lambda x: x, reduced.native))
    assert stepper.path == _native.NATIVE
    with pytest.raises(RuntimeError, match="compiled step failed"):
        stepper.advance((-10.0, 0.1, 0.0), 5)


def test_maps_sharing_a_compiled_form_replay_their_own_kernels(native_lib, fig2_params):
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    lenient = threestage._with_kernel(lambda y: y, reduced.native)  # it never fails
    start = (-10.0, 0.1, 0.0)  # the second step meets the pole
    for _ in range(2):
        assert isinstance(_raised(lambda: Stepper(reduced).advance(start, 5)),
                          NegativeDensityError)
        with pytest.raises(RuntimeError, match="compiled step failed"):
            Stepper(lenient).advance(start, 5)


def _unusual_starts(value):
    """(label, map, start) on each map kind, with its first or second
    coordinate replaced by ``value``, or, for ``"all_negative_zeros"``, every one."""
    params = scenarios.fig2_params()
    system = threestage.make_system(params, VARIANT_SLOW)
    maps = (("H_5", system.complete(5), _X0), ("limit", system.limit_map, _X0),
            ("reduced", threestage.reduced_map(params, VARIANT_SLOW), _Y0),
            ("local_1", threestage.local_map(params, 0), _X0[0::2]))
    for label, map_fn, x0 in maps:
        if value == "all_negative_zeros":
            yield label, map_fn, np.full(len(x0), -0.0)
            continue
        for i in (0, 1):
            start = x0.copy()
            start[i] = value
            yield f"{label} x{i}", map_fn, start


def _error_of(fn):
    """What fn() raises, else None."""
    try:
        fn()
    except Exception as err:
        return err
    return None


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("value", [-0.0, np.nan, -1e-3, "all_negative_zeros", 5e-324, -10.0,
                                   np.inf, 1.7e308])
def test_unusual_starts_step_natively_alike(native_lib, value):
    # -0.0, NaN, negative values before and past a pole, subnormals, inf
    # and huge values: every start steps in the compiled loop, through
    # orbit, rows (unchecked and checked) and many, and its bytes, errors
    # and steps are the Python kernel's
    for label, map_fn, x0 in _unusual_starts(value):
        _same_tail_on_both_paths(map_fn, x0, 50, 3)
        x = tuple(x0.tolist())
        for checked in (False, True):
            native, python = np.empty((20, len(x))), np.empty((20, len(x)))
            err = _error_of(lambda: Stepper(map_fn, checked).rows(x, native))
            expected = _error_of(lambda: Stepper(python_only(map_fn), checked).rows(x, python))
            if expected is None:
                assert err is None and _same_bits(native, python), (label, checked)
            else:
                assert _same_error(err, expected), (label, checked)
            starts = np.array([x0, x0 * 0.5, np.abs(x0)])
            _same_batch(images(map_fn, starts, 7, checked),
                        _per_row(python_only(map_fn), starts, 7, checked))


@pytest.mark.parametrize("checked", (False, True))
def test_rows_check_the_buffer_alike_on_both_loops(native_lib, fig2_params, checked):
    # the Python loop once took a float32 buffer, rounding every row, and a
    # strided view, and refused a buffer of the wrong width with numpy's
    # broadcast error instead of the compiled loop's
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    limit = metapop.make_system(threestage.make_model(fig2_params), VARIANT_SLOW).limit_map
    buffers = {"float32": lambda d: np.zeros((4, d), dtype=np.float32),
               "strided": lambda d: np.zeros((4, 2 * d))[:, :d],
               "too wide": lambda d: np.zeros((4, d + 1))}
    for map_fn, x0 in ((reduced, _Y0), (python_only(reduced), _Y0), (limit, _X0)):
        stepper, dim = Stepper(map_fn, checked), len(x0)
        for label, buffer in buffers.items():
            out = buffer(dim)
            with pytest.raises(ValueError, match=rf"^rows need a C-contiguous float64 "
                                                 rf"\(n, {dim}\) array$"):
                stepper.rows(tuple(x0.tolist()), out)
            assert not out.any(), label  # refused before any step
    assert [Stepper(m).path for m in (reduced, python_only(reduced), limit)] == [
        _native.NATIVE, "python: no compiled form", "python: no compiled form"]


def _python_system(system):
    """``system`` with every H_k stepped through its Python float kernel."""
    complete_map = system.complete_map
    step = lambda k, x: complete_map(k, x)
    step.for_k = lambda k: python_only(complete_map.for_k(k))
    return dataclasses.replace(system, complete_map=step)


def _exact(value):
    """A verdict as comparable data: floats and arrays by their bytes."""
    if dataclasses.is_dataclass(value):
        return _exact(vars(value))
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    return repr(value)


def _centre(name):
    """(system, located limit-map centre) of a named scenario."""
    params = getattr(scenarios, f"{name}_params")()
    variant = VARIANT_RESCALED if name == "fig10" else VARIANT_SLOW
    system = threestage.make_system(params, variant)
    if name == "fig3":  # its equilibrium repels, so Newton starts from the reduced one
        eq = analysis.find_equilibrium(threestage.reduced_map(params, variant),
                                       np.array([1.4e-4, 9.3e-5, 4.6e-5]))
        guess = system.lift(eq.points[0])
    else:
        guess = iterate_tail(system.limit_map, _X0, 5_000)[0][-1]
    return system, newton_fixed_point(system.limit_map, guess)[0]


@pytest.mark.parametrize("name, period", [("fig2", 1), ("fig2", 50), ("fig3", 2), ("fig10", 2)])
def test_harnesses_give_the_same_bytes_on_both_paths(native_lib, name, period):
    system, centre = _centre(name)
    python = _python_system(system)
    assert stepping_path(system.complete(1)) == _native.NATIVE
    assert stepping_path(python.complete(1)) == "python: no compiled form"
    radius = (1e-3 * float(np.linalg.norm(centre)) if name == "fig3"
              else aggregation.default_radius(centre))
    trap = TrapSpec(centre, radius, period=period, sample_count=8, k_values=(1, 10, 50))
    samples = np.random.default_rng(3).uniform(0.0, 0.1, (6, 6))
    harnesses = {
        "trapping": lambda s: aggregation.trapping_check(s, trap),
        # 301 steps: not a multiple of the period 2 or 50
        "attraction": lambda s: aggregation.attraction_check(s, trap, 1.2 * centre, horizon=301),
        "instability": lambda s: aggregation.instability_check(s, trap),
        "convergence": lambda s: aggregation.convergence_table(
            s, samples, m=period, k_values=trap.k_values),
    }
    for label, harness in harnesses.items():
        assert _exact(harness(system)) == _exact(harness(python)), label


@pytest.mark.parametrize("coordinate", [-0.0, -1e-3])
def test_ball_samples_around_the_origin_step_natively_alike(native_lib, fig2_params, coordinate):
    # around the origin, a fixed point of every map, half the ball is
    # negative; those samples step in the compiled loop like the rest
    system = threestage.make_system(fig2_params, VARIANT_SLOW)
    python = _python_system(system)
    trap = TrapSpec(np.zeros(6), 0.05, period=2, sample_count=8, k_values=(1, 10))
    samples = aggregation.ball_samples(trap.center, trap.radius, trap.sample_count)
    assert (samples < 0.0).any()
    start = np.full(6, 0.02)
    start[2] = coordinate
    assert stepping_path(system.complete(10)) == _native.NATIVE
    assert stepping_path(python.complete(10)) == "python: no compiled form"
    harnesses = {
        "trapping": lambda s: aggregation.trapping_check(s, trap),
        "convergence": lambda s: aggregation.convergence_table(s, [start, _X0], m=2,
                                                               k_values=(1, 10)),
    }
    if coordinate == 0.0:  # an admissible start
        harnesses["attraction"] = lambda s: aggregation.attraction_check(s, trap, start,
                                                                         horizon=51)
    for label, harness in harnesses.items():
        try:
            verdict = harness(system)
        except Exception as err:
            assert _same_error(err, _raised(lambda: harness(python))), label
        else:
            assert _exact(verdict) == _exact(harness(python)), label


def _per_row(map_fn, starts, m, checked=False):
    """(images, errors) of ``m`` steps from each start alone."""
    stepper, out, errors = Stepper(map_fn, checked), {}, {}
    for i, x in enumerate(starts):
        try:
            out[i] = stepper.advance(aggregation._as_floats(x), m)
        except Exception as err:
            errors[i] = err
    return out, errors


def _same_batch(got, expected):
    (rows, errors), (expected_rows, expected_errors) = got, expected
    assert sorted(errors) == sorted(expected_errors)
    assert all(_same_error(errors[i], expected_errors[i]) for i in errors)
    assert sorted(expected_rows) == [i for i in range(len(rows)) if i not in errors]
    assert all(_same_bits(rows[i], row) for i, row in expected_rows.items())


def _batch_maps(name, variant):
    """(label, map, starts) for H_1, H_10, H, the reduced and a local map."""
    params = getattr(scenarios, f"{name}_params")()
    system = threestage.make_system(params, variant)
    rng = np.random.default_rng(7)
    wide, narrow = rng.uniform(0.0, 0.1, (12, 6)), rng.uniform(0.0, 0.1, (12, 3))
    yield from (("H_1", system.complete(1), wide), ("H_10", system.complete(10), wide),
                ("limit", system.limit_map, wide),
                ("reduced", threestage.reduced_map(params, variant), narrow),
                ("local_1", threestage.local_map(params, 0), narrow))


@pytest.mark.parametrize("checked", (False, True))
@pytest.mark.parametrize("name, variant", [("fig2", VARIANT_SLOW), ("fig10", VARIANT_RESCALED)])
def test_images_match_per_row_powers_on_both_paths(name, variant, checked):
    for label, map_fn, starts in _batch_maps(name, variant):
        for fn in (map_fn, python_only(map_fn)):
            for m in (1, 2, 50):
                expected = _per_row(fn, starts, m, checked)
                _same_batch(images(fn, starts, m, checked), expected)
                # a row holding -0.0 steps in the same batch
                signed = starts.copy()
                signed[3, 1] = -0.0
                _same_batch(images(fn, signed, m, checked), _per_row(fn, signed, m, checked))
            empty, errors = images(fn, starts[:0], 3, checked)
            assert empty.shape == (0, starts.shape[1]) and errors == {}, label


@pytest.mark.parametrize("compiled", (True, False))
def test_images_check_the_batch_shape_alike_on_both_paths(fig2_params, compiled):
    system = threestage.make_system(fig2_params, VARIANT_SLOW)
    for label, map_fn, dim in (("reduced", threestage.reduced_map(fig2_params, VARIANT_SLOW), 3),
                               ("H_5", system.complete(5), 6), ("limit", system.limit_map, 6)):
        fn = map_fn if compiled else python_only(map_fn)
        for checked in (False, True):
            for starts in ([], [0.1] * dim, np.zeros((2, dim, 1)), 0.5):
                with pytest.raises(ValueError, match=r"^starts must form a 2-D \(count, dim\) array$"):
                    images(fn, starts, 3, checked)
            out, errors = images(fn, np.zeros((0, dim)), 3, checked)
            assert out.shape == (0, dim) and out.dtype == np.float64 and errors == {}, label


@pytest.mark.parametrize("compiled", (True, False))
def test_images_check_the_batch_width_alike_on_both_paths(fig2_params, monkeypatch, request,
                                                          compiled):
    if compiled:
        request.getfixturevalue("native_lib")
    else:
        monkeypatch.setattr(_native, "_library_state", (None, "no compiler"))
    system = threestage.make_system(fig2_params, VARIANT_SLOW)
    for label, map_fn, dim in (("reduced", threestage.reduced_map(fig2_params, VARIANT_SLOW), 3),
                               ("limit", system.limit_map, 6)):
        assert stepping_path(map_fn) == ("native" if compiled else "python: no compiler"), label
        for checked in (False, True):
            for width in (dim - 1, dim + 1):
                message = rf"^starts must form a \(count, {dim}\) array$"
                with pytest.raises(ValueError, match=message):
                    images(map_fn, np.zeros((2, width)), 1, checked)


@pytest.mark.parametrize("case", ("compiled", "no compiler", "no compiled form"))
def test_stepping_path_names_the_loop_that_steps(native_lib, monkeypatch, fig2_params, case):
    # the path is the bound stepper's own, so it names the loop every
    # stepping call then takes: the extension's, or none of its calls
    spy = _CountingLibrary(native_lib)
    monkeypatch.setattr(_native, "_library_state", (spy, _native._library()[1]))
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    if case == "compiled":
        map_fn, x0, path = reduced, _Y0, _native.NATIVE
    elif case == "no compiler":
        monkeypatch.setattr(_native, "_library_state", (None, "no compiler"))
        map_fn, x0, path = reduced, _Y0, "python: no compiler"
    else:
        model = threestage.make_model(fig2_params)
        map_fn = metapop.make_system(model, VARIANT_SLOW).limit_map
        x0, path = _X0, "python: no compiled form"
    assert stepping_path(map_fn) == path
    assert Stepper(map_fn).path == Stepper(map_fn, checked=True).path == path
    assert spy.calls == []  # binding calls nothing
    iterate_tail(map_fn, x0, 300, 4)
    aggregation.iterate(map_fn, x0, 20)
    images(map_fn, np.array([x0, 0.5 * x0]), 3, checked=True)
    if case == "compiled":
        assert spy.calls == ["orbits", "advance", "advance", "advance", "many"]
    else:
        assert spy.calls == []


def test_a_python_batch_steps_each_row_once(fig2_params, monkeypatch):
    # rows 1 and 2 leave a lowered box at step 1: one pass per row makes
    # 200 + 1 + 1 kernel calls, and the errors come from where they left,
    # not from a replay of each failing row from its start
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    calls = []
    counted = python_only(reduced)
    counted.kernel = lambda y: calls.append(y) or reduced.kernel(y)
    monkeypatch.setattr(_native, "BOX_BOUND", 0.5)
    starts = np.array([_Y0, np.ones(3), np.ones(3)])
    out, errors = images(counted, starts, 200, checked=True)
    assert len(calls) == 202
    assert [(i, str(err), err.step) for i, err in sorted(errors.items())] == [
        (1, "state exceeded the box bound", 1), (2, "state exceeded the box bound", 1)]
    _same_batch((out, errors), _per_row(python_only(reduced), starts, 200, checked=True))


def test_a_batch_with_signed_zeros_is_one_compiled_call(native_lib, monkeypatch):
    reduced = threestage.reduced_map(scenarios.fig2_params(), VARIANT_SLOW)
    spy = _CountingLibrary(native_lib)
    monkeypatch.setattr(_native, "_library_state", (spy, _native._library()[1]))
    starts = np.tile(_Y0, (4, 1))
    starts[2] = -0.0
    starts[3, 0] = -0.0
    batch = images(reduced, starts, 5)
    assert spy.calls == ["many"]
    _same_batch(batch, _per_row(python_only(reduced), starts, 5))
    assert np.signbit(batch[0][2]).all()  # the origin is fixed, -0.0 included


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_batch_raises_each_rows_own_error(native_lib, fig2_params, fig3_params, monkeypatch):
    # reduced map: under a lowered box, row 1 leaves it at a step of at
    # least 3 (checked); row 3 leaves the orthant at step 1 (checked), and
    # unchecked meets the pole at step 2.  The origin is fixed
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    bound, step = _box_exit_bound(reduced, 1e-4 * _Y0)
    monkeypatch.setattr(_native, "BOX_BOUND", bound)
    starts = np.array([np.zeros(3), 1e-4 * _Y0, np.zeros(3), [-10.0, 0.1, 0.0]])
    for checked in (False, True):
        expected = _per_row(python_only(reduced), starts, step + 2, checked)
        if checked:
            assert [(i, str(err), err.step) for i, err in sorted(expected[1].items())] == [
                (1, "state exceeded the box bound", step),
                (3, "state left the nonnegative orthant", 1)]
        else:
            assert list(expected[1]) == [3]
            assert isinstance(expected[1][3], NegativeDensityError)
        _same_batch(images(reduced, starts, step + 2, checked), expected)
        # the compiled batch replays rows 1 and 3 to raise their errors
        compiled = Stepper(reduced, checked)
        assert compiled.path == _native.NATIVE
        _same_batch(compiled.many(starts, step + 2), expected)
        _same_batch(Stepper(python_only(reduced), checked).many(starts, step + 2), expected)
    # H_5 in the compiled loop: a box exit at step 1 and an overflow
    monkeypatch.undo()  # the shipped bound again
    hk = threestage.make_system(fig3_params, VARIANT_SLOW).complete(5)
    starts = np.array([_X0, [0.0, 0.0, 2e8, 6.4e8, 8.2e8, 9.4e8], np.full(6, 1.7e308), _X0])
    batch = images(hk, starts, 4, checked=True)
    assert str(batch[1][1]) == "state exceeded the box bound" and batch[1][2].step == 1
    _same_batch(batch, _per_row(python_only(hk), starts, 4, checked=True))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_trapping_check_raises_the_first_samples_error(native_lib, fig2_params):
    # near the largest float some ball samples overflow under H_k and some
    # do not; an identity limit map keeps every centre valid
    system = dataclasses.replace(threestage.make_system(fig2_params, VARIANT_SLOW),
                                 limit_map=lambda x: np.asarray(x, dtype=float))
    trap = TrapSpec(np.full(6, 1e308), 3e307, period=1, sample_count=8, k_values=(1, 10))
    pts = aggregation.ball_samples(trap.center, trap.radius, trap.sample_count)
    errors = images(system.complete(1), pts, 1)[1]
    assert 0 < min(errors) and len(errors) < len(pts)
    # the sample loop trapping_check ran before batching: k outer, samples inner
    expected = _raised(lambda: [_power(system.complete(k), 1)(p)
                                for k in trap.k_values for p in pts])
    assert _same_error(_raised(lambda: aggregation.trapping_check(system, trap)), expected)


def test_each_harness_batch_is_one_compiled_call(native_lib, monkeypatch):
    system, centre = _centre("fig2")
    spy = _CountingLibrary(native_lib)
    monkeypatch.setattr(_native, "_library_state", (spy, _native._library()[1]))
    ks = (1, 2, 3, 5, 10, 50, 100, 200)
    aggregation.trapping_check(system, TrapSpec(centre, aggregation.default_radius(centre),
                                                period=50, sample_count=64, k_values=ks))
    assert spy.calls.count("many") == len(ks)
    spy.calls.clear()
    samples = np.random.default_rng(3).uniform(0.0, 0.1, (16, 6))
    aggregation.convergence_table(system, samples, m=1, k_values=ks[:5])
    assert spy.calls == ["many"] * (1 + 5)


def test_threads_stepping_one_map_get_the_serial_bytes(native_lib, fig3_params):
    # each call binds its own stepper and the map keeps none, so threads
    # stepping one H_k at once (the compiled loop releases the GIL) share
    # nothing they write.  fig3's orbits drift, so each tail is one long call
    hk = threestage.make_system(fig3_params, VARIANT_SLOW).complete(10)
    starts = [scale * _X0 for scale in np.linspace(0.5, 1.5, 8)]

    def work(i):
        return (iterate_tail(hk, starts[i], 20_000, 8)[0],
                images(hk, np.roll(starts, i, axis=0), 200, checked=i % 2 == 1)[0])

    serial = [work(i) for i in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more switches between the threads' calls
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(16):
                threaded = pool.map(work, range(len(starts)), timeout=60)
                for i, (tail, batch) in enumerate(threaded):
                    assert _same_bits(tail, serial[i][0]) and _same_bits(batch, serial[i][1]), i
    finally:
        sys.setswitchinterval(interval)
    assert set(vars(hk)) == {"kernel", "native"}  # stepping left nothing on the map


def _array_form_inputs(x0):
    """(label, argument) pairs for a map whose states have ``len(x0)``
    coordinates: the arguments the compiled step takes and every kind it
    leaves to the conversion."""
    dim, x0 = len(x0), np.asarray(x0, dtype=float)

    def with_value(i, value):
        x = x0.copy()
        x[i] = value
        return x

    yield "float64", x0
    yield "read-only float64", np.frombuffer(x0.tobytes())
    yield "big-endian float64", x0.astype(">f8")
    yield "list", x0.tolist()
    yield "tuple", tuple(x0.tolist())
    yield "int array", np.arange(dim) % 2
    yield "float32", x0.astype(np.float32)
    yield "strided view", np.repeat(x0, 2)[::2]
    yield "reversed view", x0[::-1]
    yield "(1, dim)", x0[None, :]
    yield "(dim, 1)", x0[:, None]
    yield "too short", x0[:-1]
    yield "too long", np.append(x0, 0.01)
    yield "a scalar", np.float64(0.5)
    for value in (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7e308):
        yield f"{value!r} at 1", with_value(1, value)
    yield "NaN at 0", with_value(0, np.nan)
    # a density coordinate far below zero puts a response at its pole
    yield "pole", with_value(2 if dim == 6 else 1, -10.0)
    yield "past the pole in one step", with_value(0, -10.0)


def _outcome(fn):
    """(dtype, shape, bytes) of what fn() returns, or the exception it raises."""
    try:
        value = fn()
    except Exception as err:
        return err
    return value.dtype.str, value.shape, value.tobytes()


def _same_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return isinstance(a, Exception) and isinstance(b, Exception) and _same_error(a, b)
    return a == b


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("variant", (VARIANT_SLOW, VARIANT_RESCALED))
@pytest.mark.parametrize("loaded", (True, False))
def test_array_forms_give_the_kernels_bytes_and_errors(request, monkeypatch, fig3_params,
                                                      variant, loaded):
    # the array form takes a float64 state of the right length to the
    # compiled step and every other argument through the conversion; either
    # way it must give what the kernel gives on the converted argument
    if loaded:
        spy = _CountingLibrary(request.getfixturevalue("native_lib"))
        monkeypatch.setattr(_native, "_library_state", (spy, _native._library()[1]))
    else:
        monkeypatch.setattr(_native, "_library_state", (None, "no compiler"))
    system = threestage.make_system(fig3_params, variant)
    maps = [(f"H_{k}", system.complete(k), _X0) for k in (1, 2, 10)]
    maps += [("limit", system.limit_map, _X0),
             ("reduced", threestage.reduced_map(fig3_params, variant), _Y0),
             ("local_2", threestage.local_map(fig3_params, 1), _X0[1::2])]
    for label, map_fn, x0 in maps:
        for case, x in _array_form_inputs(x0):
            expected = _outcome(lambda: np.array(map_fn.kernel(
                tuple(np.asarray(x, dtype=float).tolist()))))
            assert _same_outcome(_outcome(lambda: map_fn(x)), expected), (label, case)
        # chained steps of the array form, against the kernel's orbit
        orbit, x = np.empty((200, len(x0))), x0
        for row in orbit:
            row[:] = x = map_fn(x)
        expected = np.empty_like(orbit)
        Stepper(python_only(map_fn)).rows(tuple(x0.tolist()), expected)
        assert _same_bits(orbit, expected), label
    if loaded:  # the float64 states took the compiled step
        assert spy.calls and set(spy.calls) == {"step"}


@pytest.mark.parametrize("compiled", (True, False))
def test_step_counts_past_int64_raise_on_both_paths(request, monkeypatch, fig2_params, compiled):
    # 2**63 + 2 steps once wrapped to negative counts in the compiled loop
    # and gave the start state as the tail
    if compiled:
        request.getfixturevalue("native_lib")
    else:
        monkeypatch.setattr(_native, "_library_state", (None, "no compiler"))
    reduced = threestage.reduced_map(fig2_params, VARIANT_SLOW)
    assert stepping_path(reduced) == ("native" if compiled else "python: no compiler")
    message = r"^steps must lie in \[0, 9223372036854775807\]$"
    for steps in (2 ** 63 + 2, 2 ** 63, -1):
        with pytest.raises(ValueError, match=message):
            iterate_tail(reduced, _Y0, steps, 3)
        with pytest.raises(ValueError, match=message):
            aggregation.iterate(reduced, _Y0, steps)
        with pytest.raises(ValueError, match=message):
            images(reduced, _Y0[None, :], steps)
    # the largest count steps, and fig2's orbit repeats long before it
    tail, repeat = iterate_tail(reduced, _Y0, 2 ** 63 - 1, 3)
    expected, expected_repeat = iterate_tail(python_only(reduced), _Y0, 2 ** 63 - 1, 3)
    assert _same_bits(tail, expected) and repeat == expected_repeat is not None


def test_the_extension_refuses_counts_it_cannot_hold(native_lib, fig2_params):
    spec = threestage.reduced_map(fig2_params, VARIANT_SLOW).native
    start = tuple(_Y0.tolist())
    for n in (2 ** 63, 2 ** 64 + 5, -1):
        with pytest.raises(ValueError, match=r"^a step count must lie in \[0, 2\*\*63 - 1\]$"):
            native_lib.orbits([(spec.kind, spec.packed, start)], n)
        with pytest.raises(ValueError, match=r"^a step count must lie in \[0, 2\*\*63 - 1\]$"):
            native_lib.advance(spec.kind, spec.packed, start, n, None, None)
        with pytest.raises(ValueError, match=r"^a step count must lie in \[0, 2\*\*63 - 1\]$"):
            native_lib.many(spec.kind, spec.packed, np.zeros((1, 3)), n, None)


@pytest.mark.parametrize("variant", (VARIANT_SLOW, VARIANT_RESCALED))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_the_limit_map_steps_compiled_bit_for_bit(native_lib, name, variant):
    limit = threestage.make_system(getattr(scenarios, f"{name}_params")(), variant).limit_map
    assert stepping_path(limit) == _native.NATIVE
    tail, repeat = iterate_tail(limit, _X0, 20_000, 8)
    expected, expected_repeat = iterate_tail(python_only(limit), _X0, 20_000, 8)
    assert _same_bits(tail, expected) and repeat == expected_repeat


@pytest.mark.parametrize("variant", (VARIANT_SLOW, VARIANT_RESCALED))
@pytest.mark.parametrize("name", ("fig3", "fig10"))
def test_a_long_orbit_call_agrees_on_both_paths(native_lib, name, variant):
    # 20 000 steps of the repeat schedule in one compiled call: fig3's and
    # fig10's orbits drift, so every step compares with the tortoise
    limit = threestage.make_system(getattr(scenarios, f"{name}_params")(), variant).limit_map
    for label, map_fn, x0 in (("limit", limit, _X0), *_series(name, variant, (1, 10, 100))):
        x = tuple(x0.tolist())
        compiled = Stepper(map_fn)
        assert compiled.path == _native.NATIVE, label
        state, taken, repeat = _orbit(compiled, x, 20_000)
        expected, expected_taken, expected_repeat = _orbit(Stepper(python_only(map_fn)), x, 20_000)
        assert _same_bits(state, expected), label
        assert (taken, repeat) == (expected_taken, expected_repeat), label


def _compiled(lib, map_fn, x, n, bound=None, orbit=False):
    """One compiled call from ``x``: (state it hands back, steps, status, period)."""
    spec = map_fn.native
    if orbit:
        return lib.orbits([(spec.kind, spec.packed, x)], n)[0]
    state, taken, status = lib.advance(spec.kind, spec.packed, x, n, None, bound)
    return state, taken, status, None


def _cycle_onset(kernel, x):
    """(orbit up to its first repeat, step at which its cycle begins)."""
    orbit, seen = [x], {x: 0}
    while True:
        x = kernel(x)
        if x in seen:
            return orbit, seen[x]
        seen[x] = len(orbit)
        orbit.append(x)


@pytest.mark.parametrize("label", ("H_10", "reduced", "local_1"))
def test_every_exit_writes_back_its_state(native_lib, fig2_params, label):
    system = threestage.make_system(fig2_params, VARIANT_SLOW)
    map_fn, x0 = {"H_10": (system.complete(10), _X0),
                  "reduced": (threestage.reduced_map(fig2_params, VARIANT_SLOW), _Y0),
                  "local_1": (threestage.local_map(fig2_params, 0), _X0[0::2])}[label]
    kernel, lib = map_fn.kernel, native_lib
    start = tuple(x0.tolist())
    orbit, onset = _cycle_onset(kernel, start)
    # RAN: the state after the last step
    state, taken, got, _ = _compiled(lib, map_fn, start, 7)
    assert (taken, got) == (7, _native._RAN) and _same_bits(state, orbit[7])
    # MATCHED: fig2's orbits end on a 2-cycle.  From one step before its
    # first state, the first save kept two steps is step 16's, matched at
    # step 18 by the state of onset + 1; alone (the serial loop), beside a
    # second series (the lanes) and in Python
    assert len(orbit) - onset == 2 and onset >= 1, label
    spec, begin = map_fn.native, orbit[onset - 1]
    for count in (1, 2):
        for state, taken, got, period in lib.orbits([(spec.kind, spec.packed, begin)] * count, 100):
            assert (got, taken, period) == (_native._MATCHED, 18, 2), label
            assert _same_bits(state, orbit[onset + 1]), label
    assert _orbit(Stepper(python_only(map_fn)), begin, 100) == (orbit[onset + 1], 18, (18, 2))
    # FAILS: the state the refused second step would be applied to
    beyond = (-10.0, -10.0, 0.1, 0.1, 0.0, 0.0) if label == "H_10" else (-10.0, 0.1, 0.0)
    state, taken, got, _ = _compiled(lib, map_fn, beyond, 5)
    assert (taken, got) == (1, _native._FAILS) and _same_bits(state, kernel(beyond))
    assert isinstance(_raised(lambda: kernel(state)), NegativeDensityError)
    # INADMISSIBLE: the stored state that left the box
    small = tuple((1e-4 * x0).tolist())
    bound, step = _box_exit_bound(map_fn, np.array(small))
    state, taken, got, _ = _compiled(lib, map_fn, small, step + 5, bound=bound)
    assert (taken, got) == (step, _native._INADMISSIBLE)
    assert _same_bits(state, aggregation.iterate(map_fn, small, step)[-1])


def test_the_c_source_compiles_without_warnings(tmp_path):
    cc = _native.shutil.which("cc")
    if cc is None:
        pytest.skip("no compiler")
    include = sysconfig.get_paths()["include"]
    proc = subprocess.run([cc, *_native.FLAGS, f"-I{include}", "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "strict.so"), str(_native.SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_build_flags_keep_every_operation():
    # the cached library is keyed by source and flags, not by CPU: a flag
    # that fuses, reorders or targets one CPU would change output bytes or
    # tie the cache to the machine that built it
    flags = _native.FLAGS
    assert "-ffp-contract=off" in flags
    assert not [f for f in flags if f in ("-ffast-math", "-Ofast", "-mfma")
                or f.startswith(("-march=", "-mtune="))]


@pytest.mark.parametrize("breakage, reason", [
    ("flags", "build failed"),
    ("compiler", "no compiler"),
    ("cache", "cache unwritable"),
    ("headers", "no Python.h"),
])
def test_a_failed_build_steps_in_python(fresh_native, monkeypatch, tmp_path,
                                        fig3_params, breakage, reason):
    # without a compiler the load stops at "no compiler" before it reaches
    # the other breakages
    if breakage != "compiler" and _native.shutil.which("cc") is None:
        pytest.skip("no compiler")
    if breakage == "flags":
        monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "-fno-such-flag"))
    elif breakage == "compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    elif breakage == "headers":  # an include directory without Python.h
        (tmp_path / "include").mkdir()
        monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(tmp_path / "include")})
    else:
        # the cache path is a file, and no temporary directory can be made
        (tmp_path / "cache").write_text("")
        def no_temp(*args, **kwargs):
            raise OSError("read-only file system")
        monkeypatch.setattr(_native.tempfile, "mkdtemp", no_temp)
    for map_fn, x0 in ((threestage.make_system(fig3_params, VARIANT_SLOW).complete(5), _X0),
                       (threestage.reduced_map(fig3_params, VARIANT_SLOW), _Y0)):
        assert stepping_path(map_fn) == f"python: {reason}"
        tail, repeat = iterate_tail(map_fn, x0, 500, 2)
        expected, expected_repeat = iterate_tail(python_only(map_fn), x0, 500, 2)
        assert _same_bits(tail, expected) and repeat == expected_repeat
    assert _native.describe() == f"python: {reason}"


def test_an_unwritable_cache_builds_per_process(fresh_native, tmp_path, fig3_params):
    if _native.shutil.which("cc") is None:
        pytest.skip("no compiler")
    (tmp_path / "cache").write_text("")  # the cache directory cannot be made
    reduced = threestage.reduced_map(fig3_params, VARIANT_SLOW)
    assert stepping_path(reduced) == _native.NATIVE
    where = _native._library()[1]
    assert not Path(where).exists()  # the temporary build is gone once loaded


def test_a_built_library_is_cached_by_source_and_flags(fresh_native, tmp_path):
    if _native.shutil.which("cc") is None:
        pytest.skip("no compiler")
    lib, where = _native._library()
    assert lib is not None
    assert Path(where).parent == tmp_path / "cache" / "twoscalepop"
    assert os.listdir(Path(where).parent) == [Path(where).name]  # no temp file left


def test_run_records_its_stepping_path_but_does_not_write_it(tmp_path):
    lib = _native._library()[0]
    config = scenarios.builtin("fig2").configs[0].with_overrides(fast=True)
    # a start holding -0.0 steps on the same path as any other
    start = config.initial_state.copy()
    start[0] = -0.0
    for x0 in (config.initial_state, start):
        run = dataclasses.replace(config, initial_state=x0)
        summary = cli.run_scenario(run, include_local=True)
        assert set(summary.stepping) == {"reduced", "local_1", "local_2",
                                         *(f"k={k}" for k in config.k_list)}
        for name, path in summary.stepping.items():
            if lib is None:
                assert path.startswith("python: "), name
            else:
                assert path == _native.NATIVE, name
        for path in cli.write_outputs(summary, tmp_path):
            text = path.read_text()
            assert "native" not in text and "python" not in text


def _child_env(**extra):
    src = str(Path(twoscalepop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_import_and_build_compile_nothing():
    code = ("import twoscalepop, twoscalepop.cli\n"
            "from twoscalepop import _native, scenarios, threestage\n"
            "p = scenarios.fig3_params()\n"
            "system = threestage.make_system(p, 'slow_survival')\n"
            "system.complete(10); threestage.reduced_map(p, 'slow_survival')\n"
            "print(_native._library_state)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


def test_a_run_without_a_compiler_writes_the_same_bytes(tmp_path):
    # the child finds no cc on its PATH and nothing in its cache.  fig2's
    # orbits repeat; fig10's never do, so its whole schedule runs in the
    # Python loop there and in one compiled call here (and it exits 1)
    empty = tmp_path / "empty"
    empty.mkdir()
    native_out, python_out = tmp_path / "native", tmp_path / "python"
    names = ("fig2", "fig10")
    code = ("from twoscalepop import _native, cli\n"
            f"codes = [cli.main(['run', name, '--fast', '--out', {str(python_out)!r}])\n"
            f"         for name in {names!r}]\n"
            "print('codes:', *codes)\n"
            "print('stepping:', _native.describe())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(PATH=str(empty), XDG_CACHE_HOME=str(tmp_path / "cache")))
    assert proc.returncode == 0, proc.stderr
    *_, codes, stepping = proc.stdout.splitlines()
    assert stepping == "stepping: python: no compiler", proc.stderr
    native_codes = [cli.main(["run", name, "--fast", "--out", str(native_out)]) for name in names]
    assert codes == "codes: " + " ".join(map(str, native_codes))
    for name in names:
        native_files = sorted((native_out / name).iterdir())
        python_files = sorted((python_out / name).iterdir())
        assert [p.name for p in native_files] == [p.name for p in python_files]
        for a, b in zip(native_files, python_files):
            assert a.read_bytes() == b.read_bytes(), (name, a.name)


def test_check_without_a_compiler_prints_the_same_bytes(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = ("import sys\n"
            "from twoscalepop import _native, cli\n"
            "code = cli.main(['check'])\n"
            "print('stepping:', _native.describe(), file=sys.stderr)\n"
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(PATH=str(empty), XDG_CACHE_HOME=str(tmp_path / "cache")))
    assert proc.stderr.splitlines()[-1] == "stepping: python: no compiler", proc.stderr
    code = cli.main(["check"])
    assert capsys.readouterr().out == proc.stdout and proc.returncode == code


# 2 000-step orbits of H_1 and H (compiled), 200 steps of their Python
# kernels and 200 lifts each, hashed; with whether gemv rounds as they do
_BLAS_FREE_HASH = """
import hashlib
import numpy as np
import blas_rounding
from twoscalepop import _native, scenarios, threestage
from twoscalepop._native import Stepper
from twoscalepop.aggregation import iterate_tail

x0 = np.array(scenarios.DEFAULT_INITIAL_STATE)
digest = hashlib.sha256()
for name, variant in (("fig2", "slow_survival"), ("fig3", "slow_survival"),
                      ("fig10", "slow_survival"), ("fig10", "rescaled")):
    system = threestage.make_system(getattr(scenarios, name + "_params")(), variant)
    for map_fn in (system.complete(1), system.limit_map):
        orbit = iterate_tail(map_fn, x0, 2_000, 2_001)[0]
        python = np.empty((200, 6))
        # the Python loop: the kernel alone, with no compiled form
        Stepper(threestage._with_kernel(map_fn.kernel)).rows(tuple(x0.tolist()), python)
        lifts = [system.lift.kernel(tuple(system.projection(x).tolist())) for x in orbit[:200]]
        digest.update(orbit.tobytes() + python.tobytes() + np.array(lifts).tobytes())
print(_native.describe())
print(blas_rounding.gemv_rounds_as_the_kernels())
print(digest.hexdigest())
"""


def test_h_1_h_and_the_lift_do_not_depend_on_the_blas_kernel(native_lib):
    # H_k for k >= 2 is left out: its dispersal power comes from
    # np.linalg.matrix_power, whose products are a BLAS gemm's
    tests = str(Path(__file__).resolve().parent)
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join((tests, env["PYTHONPATH"]))
    env.pop("OPENBLAS_CORETYPE", None)
    outputs = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "SandyBridge"}):
        proc = subprocess.run([sys.executable, "-c", _BLAS_FREE_HASH], capture_output=True,
                              text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    (native, native_gemv, native_hash), (sandy, sandy_gemv, sandy_hash) = outputs
    assert native.startswith("native (") and sandy.startswith("native ("), (native, sandy)
    if sandy_gemv == native_gemv:
        pytest.skip("OPENBLAS_CORETYPE=SandyBridge leaves numpy's gemv rounding as it was")
    assert sandy_hash == native_hash
