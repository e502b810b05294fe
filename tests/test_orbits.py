"""A run's series stepped together (``aggregation.iterate_tails``, the
extension's ``orbits``) against each series stepped alone.

Every series of a call must leave with what it gives alone: the same state
bytes, step, status and period from the extension, the same tails, repeats
and errors from ``iterate_tails``, on the compiled loop and the Python
loop.  On a CPU with AVX2 and FMA a call of two or more series steps the
H_k series four to a vector and the others beside them; one series alone
takes the serial loop.
"""
import struct
from pathlib import Path

import numpy as np
import pytest

from twoscalepop import _native, aggregation, cli, metapop, scenarios, threestage
from twoscalepop.aggregation import iterate_tail, iterate_tails
from twoscalepop.errors import NegativeDensityError
from twoscalepop.metapop import VARIANT_RESCALED, VARIANT_SLOW

_X0 = np.array(scenarios.DEFAULT_INITIAL_STATE)
_Y0 = metapop.aggregate(_X0, 2)
_BEYOND = (-10.0, -10.0, 0.1, 0.1, 0.0, 0.0)  # H_k's second step meets the pole


@pytest.fixture
def native_lib():
    lib, where = _native._library()
    if lib is None:
        pytest.skip(f"compiled loop unavailable: {where}")
    return lib


def python_only(map_fn):
    """``map_fn`` stepped through its Python float kernel: no ``.native``."""
    step = lambda x: map_fn(x)
    step.kernel = map_fn.kernel
    return step


def _run_series(config):
    """(label, map, start) of every series a run of ``config`` steps, both
    isolated patches included."""
    params, variant, x0 = config.params, config.variant, config.initial_state
    system = threestage.make_system(params, variant)
    yield "reduced", threestage.reduced_map(params, variant), metapop.aggregate(x0, 2)
    for k in config.k_list:
        yield f"H_{k}", system.complete(k), x0
    for patch in (0, 1):
        yield f"local_{patch + 1}", threestage.local_map(params, patch), x0[patch::2]


def _readme_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("## Config files", 1)[1].split("```toml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.toml"
    path.write_text(text)
    return cli.load_config(path)


def _configs(name, tmp_path):
    if name == "README":
        return [_readme_config(tmp_path)]
    return list(scenarios.builtin(name).configs)


def _bits(results):
    """Extension results as comparable data: each state by its bytes."""
    return [(struct.pack(f"<{len(x)}d", *x), taken, status, period)
            for x, taken, status, period in results]


def _each_alone(lib, series, first):
    """The extension's ``orbits`` of all ``(label, map, start)`` at once,
    of each alone and of the Python loop's ``orbit``, as comparable data."""
    specs = [(m.native.kind, m.native.packed, tuple(np.asarray(x, dtype=float).tolist()))
             for _, m, x in series]
    together = _bits(lib.orbits(specs, first))
    alone = _bits([lib.orbits([spec], first)[0] for spec in specs])
    python = _bits([_native.orbit(m.kernel, spec[2], first)
                    for (_, m, _), spec in zip(series, specs)])
    return together, alone, python


def _assert_each_alone(lib, series, first):
    together, alone, python = _each_alone(lib, series, first)
    for (label, _, _), got, serial, expected in zip(series, together, alone, python):
        assert got == serial == expected, label
    return together


# fig2's and sec42_compare's series repeat bit for bit within 20 000 steps
# (fig2's H_k at steps 5 233 to 8 503); fig3's and fig10's never do
_HORIZONS = {"fig2": 20_000, "sec42_compare": 20_000, "README": 20_000,
             "fig3": 3_000, "fig10": 3_000}


@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10", "sec42_compare", "README"))
def test_each_shipped_series_set_steps_together_as_alone(native_lib, tmp_path, name):
    horizon = _HORIZONS[name]
    for config in _configs(name, tmp_path):
        series = list(_run_series(config))
        ran = _assert_each_alone(native_lib, series, horizon - 7)
        if name == "fig2":
            # the H_k lanes leave at their own, different steps
            steps = [taken for (label, _, _), (_, taken, status, _) in zip(series, ran)
                     if label.startswith("H_")]
            assert len(set(steps)) > 1 and max(steps) < horizon - 7, steps
        if name in ("fig3", "fig10"):
            assert {status for (label, _, _), (_, _, status, _) in zip(series, ran)
                    if not label.startswith("local")} == {_native._RAN}
        # iterate_tails against one iterate_tail per series, on both loops
        pairs = [(m, x) for _, m, x in series]
        tails = list(iterate_tails(pairs, horizon, 8))
        python = list(iterate_tails([(python_only(m), x) for m, x in pairs], horizon, 8))
        for (label, m, x), (tail, repeat), (expected, expected_repeat) in zip(
                series, tails, python):
            alone, alone_repeat = iterate_tail(m, x, horizon, 8)
            assert tail.tobytes() == alone.tobytes() == expected.tobytes(), label
            assert repeat == alone_repeat == expected_repeat, label


def _fig3_h(ks, variant=VARIANT_SLOW, params=None):
    system = threestage.make_system(params or scenarios.fig3_params(), variant)
    return [(f"H_{k} {variant}", system.complete(k), _X0) for k in ks]


@pytest.mark.parametrize("ks, scalars", [((1,), True), ((1, 5, 10, 50, 100), False),
                                         ((1, 2, 5, 10, 50, 100, 200, 500), True)])
def test_groups_of_any_size_step_as_alone(native_lib, fig3_params, ks, scalars):
    # 1, 5 and 8 H_k: one padded group, a full one and a padded one, two full
    series = _fig3_h(ks)
    if scalars:
        series += [("reduced", threestage.reduced_map(fig3_params, VARIANT_SLOW), _Y0),
                   ("local_2", threestage.local_map(fig3_params, 1), _X0[1::2])]
    _assert_each_alone(native_lib, series, 3_000)


@pytest.mark.parametrize("name", ("fig3", "fig10"))
def test_a_group_mixing_unit_and_other_divisors_divides(native_lib, name):
    # the slow variant divides by u = 1.0 exactly, the rescaled one by the
    # survivals; a group with both, in either order, must divide
    params = getattr(scenarios, f"{name}_params")()
    slow, rescaled = (_fig3_h((1, 10), variant, params) for variant in (VARIANT_SLOW,
                                                                          VARIANT_RESCALED))
    assert all(m.native.constants[18:24:4] != (1.0, 1.0) for _, m, _ in rescaled)
    for series in (slow + rescaled, rescaled + slow, [slow[0], *rescaled, slow[1]]):
        _assert_each_alone(native_lib, series, 3_000)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_lane_that_fails_leaves_the_others_stepping(native_lib, fig3_params):
    # lanes 2 and 3 of the first group meet the pole at step 2 and
    # overflow at step 1; the reduced lane meets its pole at step 2
    hs = _fig3_h((1, 5, 10, 50, 100))
    starts = [_X0, _X0, _BEYOND, np.full(6, 1.7e308), _X0]
    series = [(label, m, x) for (label, m, _), x in zip(hs, starts)]
    series.append(("reduced", threestage.reduced_map(fig3_params, VARIANT_SLOW),
                   (-10.0, 0.1, 0.0)))
    ran = _assert_each_alone(native_lib, series, 3_000)
    assert [(taken, status) for _, taken, status, _ in ran] == [
        (3_000, _native._RAN), (3_000, _native._RAN), (1, _native._FAILS),
        (0, _native._FAILS), (3_000, _native._RAN), (1, _native._FAILS)]


def test_a_coordinate_that_repeats_alone_is_no_match(native_lib, fig3_params):
    # from starts with only stage 3 occupied, coordinate 0 is 0.0 again at
    # step 1 while the state is not, so the first coordinate's bits alone
    # would take step 1 for a repeat
    series = [*_fig3_h((1, 10)), ("reduced", threestage.reduced_map(fig3_params, VARIANT_SLOW),
                                  (0.0, 0.0, 0.05)),
              ("local_1", threestage.local_map(fig3_params, 0), (0.0, 0.0, 0.05))]
    series[:2] = [(label, m, (0.0, 0.0, 0.0, 0.0, 0.05, 0.05)) for label, m, _ in series[:2]]
    for _, m, x in series:
        image = m.kernel(x)
        assert struct.pack("<d", image[0]) == struct.pack("<d", x[0]) and image != x
    ran = _assert_each_alone(native_lib, series, 500)
    assert all(taken > 1 for _, taken, _, _ in ran)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("compiled", (True, False))
def test_the_first_failing_series_raises_and_stops_the_rest(native_lib, fig3_params, compiled):
    hs = _fig3_h((1, 5, 10))
    reduced = threestage.reduced_map(fig3_params, VARIANT_SLOW)
    calls = []

    def counted(map_fn):
        step = python_only(map_fn)
        step.kernel = lambda x: calls.append(map_fn) or map_fn.kernel(x)
        return step

    maps = [m if compiled else counted(m) for m in (hs[0][1], hs[1][1], reduced, hs[2][1])]
    series = [(maps[0], _X0), (maps[1], _BEYOND), (maps[2], (-10.0, 0.1, 0.0)),
              (maps[3], _X0)]
    runs = iterate_tails(series, 400, 3)
    tail, repeat = next(runs)
    assert tail.tobytes() == iterate_tail(hs[0][1], _X0, 400, 3)[0].tobytes()
    with pytest.raises(NegativeDensityError) as info:
        next(runs)
    with pytest.raises(NegativeDensityError) as alone:
        iterate_tail(hs[1][1], _BEYOND, 400, 3)
    assert str(info.value) == str(alone.value)
    if not compiled:
        # the Python loop never stepped the series after the failing one
        assert reduced not in calls and hs[2][1] not in calls and hs[1][1] in calls


def test_a_run_writes_the_bytes_of_its_series_stepped_alone(native_lib, tmp_path, monkeypatch):
    # the lanes against the serial loop, end to end: the same run with
    # every series handed to the extension on its own
    runs = {}
    for mode in ("together", "alone"):
        if mode == "alone":
            together = _native.orbits
            monkeypatch.setattr(_native, "orbits", lambda pairs, first: (
                result for pair in pairs for result in together([pair], first)))
        for name in ("fig2", "fig3"):
            scenario = scenarios.builtin(name)
            config = scenario.configs[0].with_overrides(fast=True)
            summary = cli.run_scenario(config, include_local=scenario.include_local)
            out = tmp_path / mode / name
            out.mkdir(parents=True)
            runs[mode, name] = {p.name: p.read_bytes() for p in cli.write_outputs(summary, out)}
    for name in ("fig2", "fig3"):
        assert runs["together", name] == runs["alone", name], name


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def test_describe_names_the_lanes(native_lib):
    flags = _cpu_flags()
    if flags is None:
        pytest.skip("no /proc/cpuinfo to read the CPU's features from")
    lanes = "AVX2" if {"avx2", "fma"} <= flags else "serial"
    assert native_lib.LANES == lanes
    assert _native.describe() == f"native ({_native._library()[1]}; {lanes} lanes)"
    # the path each series records keeps its string
    assert aggregation.stepping_path(_fig3_h((1,))[0][1]) == _native.NATIVE == "native"


def test_orbits_refuses_a_malformed_series_before_any_step(native_lib, fig3_params):
    spec = threestage.reduced_map(fig3_params, VARIANT_SLOW).native
    good = (spec.kind, spec.packed, tuple(_Y0.tolist()))
    assert native_lib.orbits([], 10) == []
    for bad, error, message in (
            ([good, [spec.kind, spec.packed, good[2]]], TypeError, "each series must be a"),
            ([good, (spec.kind, spec.packed)], TypeError, "each series must be a"),
            ([good, (spec.kind, spec.packed, (0.1, 0.2))], ValueError, "has 3 coordinates"),
            ([good, (_native.COMPLETE, spec.packed, good[2])], ValueError, "do not fit"),
            ([good, (7, spec.packed, good[2])], ValueError, "unknown map kind"),
            (good, TypeError, "each series must be a")):
        with pytest.raises(error, match=message):
            native_lib.orbits(bad, 10)
