"""End-to-end acceptance battery.

Each test function asserts one shipped claim at its stated tolerance, so
``pytest -v`` prints one pass/fail line per criterion.
"""

import time

import numpy as np

from twoscalepop import aggregation, analysis, cli, metapop, scenarios, spectral, threestage
from twoscalepop.aggregation import TrapSpec
from twoscalepop.solvers import newton_fixed_point

VARIANTS = ("slow_survival", "rescaled")


def _run_verdicts(name):
    scenario = scenarios.builtin(name)
    summaries = [cli.run_scenario(cfg.with_overrides(fast=True),
                                  include_local=scenario.include_local)
                 for cfg in scenario.configs]
    return cli.build_verdicts(name, summaries)


def _assert_verdicts(verdicts):
    failed = [f"{v.label} ({v.detail})" for v in verdicts if not v.passed]
    assert not failed, "; ".join(failed)


def test_criterion_1_rescaled_limit_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(50):
        r = int(rng.integers(2, 4))
        m = rng.random((r, r)) + 0.05
        m /= m.sum(axis=0, keepdims=True)
        s = rng.uniform(0.2, 0.95, r)
        limit = spectral.rescaled_power_limit(s, m)
        e128 = np.linalg.norm(spectral.rescaled_power(s, m, 128) - limit, 1)
        e2048 = np.linalg.norm(spectral.rescaled_power(s, m, 2048) - limit, 1)
        assert e2048 < 1e-2, f"gap at k=2048 is {e2048:.3e}"
        assert e2048 < e128, f"no improvement: k=128 {e128:.3e}, k=2048 {e2048:.3e}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_fig10_reproduction():
    t0 = time.perf_counter()
    verdicts = _run_verdicts("fig10")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _assert_verdicts(verdicts)


def test_criterion_3_fig2_reproduction():
    params = scenarios.fig2_params()
    for patch in (0, 1):
        a_local = threestage.local_coefficients(params, patch).a_minus
        assert abs(a_local - 0.25) < 1e-12
    a_bar = threestage.reduced_coefficients(params, "slow_survival").a_minus
    assert abs(a_bar - (-0.15625)) < 1e-12

    t0 = time.perf_counter()
    verdicts = _run_verdicts("fig2")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _assert_verdicts(verdicts)


def test_criterion_4_fig3_reproduction():
    params = scenarios.fig3_params()
    for patch in (0, 1):
        a_local = threestage.local_coefficients(params, patch).a_minus
        assert abs(a_local - (-0.03125)) < 1e-12
    a_bar = threestage.reduced_coefficients(params, "slow_survival").a_minus
    assert abs(a_bar - 0.0048828125) < 1e-12

    # closed-form feasibility comparison behind the coupled 2-cycle
    s1, s2, s3 = params.survivals[:, 0]
    lhs = (1.0 - s2 * s3) * s1 * float(params.crowding_c[0])
    rhs = 0.5 * (1 + np.sqrt(2)) * s1 * s2 * s3 * (1 - s3) * float(params.crowding_d[0])
    assert abs(lhs - 0.375) < 1e-12
    assert abs(rhs - 0.414943) < 1e-6
    assert lhs < rhs
    assert analysis.synchrony_feasibility_predicate(params)

    t0 = time.perf_counter()
    verdicts = _run_verdicts("fig3")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _assert_verdicts(verdicts)


def test_criterion_5_branch_residuals():
    # residuals of the first-order branch points stay O(eps^2): the
    # normalized ratio may not blow up as eps shrinks
    rng = np.random.default_rng(7)
    eps_grid = (0.001, 0.005, 0.01, 0.05)
    for i in range(20):
        s = rng.uniform(0.2, 0.9, 3)
        phi = float(rng.uniform(1.0, 5.0))
        c = float(rng.uniform(0.5, 5.0))
        d = float(rng.uniform(0.5, 5.0))
        v = rng.uniform(0.15, 0.85, 3)
        params = threestage.ThreeStageParams.from_fractions(
            np.column_stack([s, s]), (phi, phi), (c, c), (d, d), v)
        variant = VARIANTS[i % 2]
        co = threestage.reduced_coefficients(params, variant)
        gap = 1.0 - co.s2 * co.s3

        eq_ratios, cyc_ratios = [], []
        for eps in eps_grid:
            on_eq = threestage.with_inherent_r0(
                params, variant, 1.0 - co.a_plus * eps / gap)
            pred = threestage.branch_prediction(on_eq, variant, eps)
            step = threestage.reduced_map(on_eq, variant)
            eq_ratios.append(
                float(np.linalg.norm(step(pred.equilibrium) - pred.equilibrium)) / eps**2)

            on_cycle = threestage.with_inherent_r0(
                params, variant, 1.0 - co.c_w * eps / gap)
            pred = threestage.branch_prediction(on_cycle, variant, eps)
            step = threestage.reduced_map(on_cycle, variant)
            r1 = np.linalg.norm(step(pred.cycle_active_phase) - pred.cycle_rest_phase)
            r2 = np.linalg.norm(step(pred.cycle_rest_phase) - pred.cycle_active_phase)
            cyc_ratios.append(float(max(r1, r2)) / eps**2)

        for ratios in (eq_ratios, cyc_ratios):
            worst = max(ratios)
            assert worst <= 10.0, f"draw {i} ({variant}): ratio {worst:.3f}"
            assert worst <= 2.0 * ratios[-1] + 0.05, (
                f"draw {i} ({variant}): growth toward small eps, {ratios}")


def test_criterion_6_reproduction_ordering():
    rng = np.random.default_rng(11)
    for _ in range(500):
        s = rng.uniform(0.05, 0.95, (3, 2))
        while np.max(np.abs(s[:, 0] - s[:, 1])) < 1e-3:
            s = rng.uniform(0.05, 0.95, (3, 2))
        phi = float(rng.uniform(0.5, 6.0))
        params = threestage.ThreeStageParams.from_fractions(
            s, (phi, phi), rng.uniform(0.5, 5.0, 2), rng.uniform(0.5, 5.0, 2),
            rng.uniform(0.1, 0.9, 3))
        r_slow = threestage.inherent_R0(params, "slow_survival")
        r_resc = threestage.inherent_R0(params, "rescaled")
        assert r_resc < r_slow

    for _ in range(20):
        s = rng.uniform(0.05, 0.95, 3)
        phi = float(rng.uniform(0.5, 6.0))
        params = threestage.ThreeStageParams.from_fractions(
            np.column_stack([s, s]), (phi, phi), rng.uniform(0.5, 5.0, 2),
            rng.uniform(0.5, 5.0, 2), rng.uniform(0.1, 0.9, 3))
        gap = abs(threestage.inherent_R0(params, "rescaled")
                  - threestage.inherent_R0(params, "slow_survival"))
        assert gap <= 1e-12

    # shipped set where the survival timing alone decides persistence
    flip = scenarios.extinction_flip_params()
    comparison = analysis.compare_variants(flip)
    assert comparison.extinction_flip
    assert comparison.r0_rescaled < 1.0 < comparison.r0_slow

    y0 = metapop.aggregate(np.array(scenarios.DEFAULT_INITIAL_STATE), 2)
    y = y0.copy()
    step = threestage.reduced_map(flip, "rescaled")
    for _ in range(1000):
        y = step(y)
    assert float(y.sum()) < 1e-6, f"rescaled total {y.sum():.3e}"
    y = y0.copy()
    step = threestage.reduced_map(flip, "slow_survival")
    for _ in range(1000):
        y = step(y)
    assert float(y.sum()) > 1e-3, f"slow-survival total {y.sum():.3e}"


def test_criterion_7_ball_check_harness():
    # trapping around the coupled fig2 equilibrium
    params = scenarios.fig2_params()
    sys2 = threestage.make_system(params, "slow_survival")
    x = np.array(scenarios.DEFAULT_INITIAL_STATE)
    for _ in range(20_000):
        x = sys2.limit_map(x)
    center, _ = newton_fixed_point(sys2.limit_map, x)
    assert abs(float(np.linalg.norm(center)) - 0.048207095045287) < 1e-9
    k_values = (1, 2, 3, 5, 10, 50, 100, 200)
    trap = TrapSpec(center, radius=aggregation.default_radius(center),
                    period=50, sample_count=64, k_values=k_values)
    verdicts = aggregation.trapping_check(sys2, trap)
    passing = [k for k in k_values if verdicts[k].trapped]
    assert passing and min(passing) <= 200, "no trapping k within 200"
    assert min(passing) == 2, f"smallest trapping k changed: {passing}"

    # instability of the nearly neutral fig3 coupled equilibrium
    params3 = scenarios.fig3_params()
    sys3 = threestage.make_system(params3, "slow_survival")
    red3 = threestage.reduced_map(params3, "slow_survival")
    eq = analysis.find_equilibrium(red3, np.array([1.4e-4, 9.3e-5, 4.6e-5]))
    center3, _ = newton_fixed_point(sys3.limit_map, sys3.lift(eq.points[0]))
    trap3 = TrapSpec(center3, radius=1e-3 * float(np.linalg.norm(center3)),
                     period=2, sample_count=32, k_values=(1, 2, 5, 10, 50, 100, 200))
    verdicts3 = aggregation.instability_check(sys3, trap3)
    escaping = [k for k, v in sorted(verdicts3.items()) if v.escapes_boundary]
    assert escaping and min(escaping) <= 200, "no expanding k within 200"

    # empirical fast-limit gaps shrink with k
    rng = np.random.default_rng(42)
    table = aggregation.convergence_table(
        sys2, rng.uniform(0.0, 0.1, (16, 6)), m=1, k_values=(1, 5, 10, 50, 100))
    gaps = [table.gaps[k] for k in (1, 5, 10, 50, 100)]
    # the k = 50 and 100 gaps sit at machine epsilon, so allow roundoff
    assert all(a + 1e-14 >= b for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_8_oracle_equivalence():
    # closed-form reduced step against the matrix pipeline
    rng = np.random.default_rng(3)
    worst = 0.0
    for params in (scenarios.fig10_params(), scenarios.fig2_params()):
        model = threestage.make_model(params)
        for variant in VARIANTS:
            oracle = aggregation.reduced_map(metapop.make_system(model, variant))
            step = threestage.reduced_map(params, variant)
            for _ in range(250):
                y = rng.uniform(0.0, 0.5, 3)
                gap = np.max(np.abs(step(y) - oracle(y)))
                worst = max(worst, float(gap))
    assert worst < 1e-12, f"reduced-step mismatch {worst:.3e}"

    # power iteration against the dense eigensolver
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        r = int(rng.integers(2, 4))
        m = rng.random((r, r)) + 0.05
        m /= m.sum(axis=0, keepdims=True)
        values, vectors = np.linalg.eig(m)
        lead = np.argmin(np.abs(values - 1.0))
        dense = np.real(vectors[:, lead])
        dense = np.abs(dense) / np.abs(dense).sum()
        gap = np.max(np.abs(spectral.perron_vector(m) - dense))
        worst = max(worst, float(gap))
    assert worst < 1e-8, f"perron mismatch {worst:.3e}"

    # analytic density-response slopes against central differences
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(20):
        params = threestage.ThreeStageParams.from_fractions(
            rng.uniform(0.1, 0.9, (3, 2)), rng.uniform(1.0, 5.0, 2),
            rng.uniform(0.5, 5.0, 2), rng.uniform(0.5, 5.0, 2),
            rng.uniform(0.1, 0.9, 3))
        for variant in VARIANTS:
            co = threestage.reduced_coefficients(params, variant)
            for fn, slope in ((co.h1, co.h1_prime0), (co.h2, co.h2_prime0)):
                fd = (fn(h) - fn(-h)) / (2.0 * h)
                assert abs(fd - slope) / abs(slope) < 1e-5

    assert abs(analysis.synchrony_ratio_max() - (1 + np.sqrt(2)) / 2) < 1e-6
