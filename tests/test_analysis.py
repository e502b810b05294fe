import numpy as np
import pytest

from twoscalepop import analysis, metapop, scenarios, solvers, threestage
from twoscalepop.analysis import (
    NONHYPERBOLIC, STABLE, UNSTABLE,
    TARGET_EXTINGUISH, TARGET_NEGATIVE, TARGET_POSITIVE, TARGET_RESCUE,
)
from twoscalepop.errors import (
    CollapsedToEquilibriumError, InhomogeneousParamsError, LeftDomainError,
)


def test_classification_bands():
    assert analysis.classify(0.9) == STABLE
    assert analysis.classify(1.0 - 2e-6) == STABLE
    assert analysis.classify(1.0 + 2e-6) == UNSTABLE
    assert analysis.classify(1.0) == NONHYPERBOLIC
    assert analysis.classify(1.0 + 5e-7) == NONHYPERBOLIC
    assert analysis.classify(1.0 - 5e-7) == NONHYPERBOLIC


def test_find_equilibrium_on_coupled_map(fig2_params):
    step = threestage.reduced_map(fig2_params, "slow_survival")
    report = analysis.find_equilibrium(step, np.array([0.04, 0.03, 0.015]))
    assert report.kind == analysis.KIND_EQUILIBRIUM
    assert report.period == 1
    assert report.residual < 1e-10
    assert report.classification == STABLE
    expected = [0.0452101274835, 0.0298463557298, 0.0153637717537]
    assert np.max(np.abs(report.points[0] - expected)) < 1e-9


def test_find_equilibrium_rejects_outside_start(fig2_params):
    step = threestage.reduced_map(fig2_params, "slow_survival")
    with pytest.raises(LeftDomainError):
        analysis.find_equilibrium(step, np.array([-0.1, 0.0, 0.0]))


def test_find_two_cycle_locates_exact_synchronous_orbit(fig2_params):
    # the isolated patch settles on the alternating pair
    # (0, 1/30, 0) <-> (1/20, 0, 1/60)
    step = threestage.local_map(fig2_params, 0)
    z = np.array([0.02, 0.05, 0.02])
    for _ in range(10_000):
        z = step(z)
    report = analysis.find_two_cycle(step, z)
    assert report.kind == analysis.KIND_TWO_CYCLE
    assert report.period == 2
    assert report.synchronous is True
    assert report.classification == STABLE
    pts = sorted(report.points, key=lambda p: p[1])
    assert np.max(np.abs(pts[1] - [0.0, 1 / 30, 0.0])) < 1e-10
    assert np.max(np.abs(pts[0] - [0.05, 0.0, 1 / 60])) < 1e-10


def test_find_two_cycle_reports_collapse_near_period_doubling(fig3_params):
    # at these rates the isolated patch has a stable equilibrium whose
    # leading eigenvalue sits 1.6e-6 inside the unit circle; the doubled
    # solve must not mistake its own error bar for a cycle
    step = threestage.local_map(fig3_params, 0)
    z = np.array([0.02, 0.05, 0.02])
    for _ in range(10_000):
        z = step(z)
    with pytest.raises(CollapsedToEquilibriumError) as err:
        analysis.find_two_cycle(step, z)
    report = err.value.report
    assert report.kind == analysis.KIND_EQUILIBRIUM
    assert report.classification == STABLE
    assert report.residual < 1e-12
    assert report.spectral_radius == pytest.approx(0.9999983592, abs=1e-9)


def _collapse_report_from_y0(step, y0, burn_in):
    """find_two_cycle's collapse report with both burn-ins run from y0.

    This is the procedure before the retry continued the first burn-in:
    round one iterates ``burn_in`` steps from y0, round two ``10 * burn_in``
    steps from y0 again; each round lands on a fixed point of ``step``.
    """
    def doubled(z):
        return step(step(z))

    for rounds in (burn_in, 10 * burn_in):
        z = np.asarray(y0, dtype=float)
        for _ in range(rounds):
            z = step(z)
        p1, residual = solvers.newton_fixed_point(doubled, z)
        jac2 = solvers.fd_jacobian(doubled, p1)
        sigma_min = np.linalg.svd(np.eye(3) - jac2, compute_uv=False)[-1]
        allowance = max(analysis.COINCIDENCE_TOL, 10.0 * residual / max(sigma_min, 1e-12))
        assert np.linalg.norm(p1 - step(p1)) <= allowance
        point, residual = solvers.newton_fixed_point(step, p1)
    rho = analysis.spectral_radius(solvers.fd_jacobian(step, point))
    return analysis.OrbitReport(kind=analysis.KIND_EQUILIBRIUM, points=(point,),
                                residual=residual, spectral_radius=rho,
                                classification=analysis.classify(rho))


def test_find_two_cycle_retry_continues_the_first_burn_in(fig10_params):
    # the retry extends round one's orbit instead of restarting from y0;
    # the collapse report must not move by a single bit
    step = threestage.reduced_map(fig10_params, "rescaled")
    y0 = metapop.aggregate(np.array(scenarios.DEFAULT_INITIAL_STATE), 2)
    for _ in range(10_000):
        y0 = step(y0)
    with pytest.raises(CollapsedToEquilibriumError) as err:
        analysis.find_two_cycle(step, y0)
    report = err.value.report
    expected = _collapse_report_from_y0(step, y0, analysis.BURN_IN)
    assert report.kind == expected.kind and report.classification == expected.classification
    assert report.points[0].tobytes() == expected.points[0].tobytes()
    assert repr(report.residual) == repr(expected.residual)
    assert repr(report.spectral_radius) == repr(expected.spectral_radius)


def test_find_two_cycle_on_coupled_map(fig3_params):
    # seeding at the predicted branch keeps the solver on the cycle
    co = threestage.reduced_coefficients(fig3_params, "slow_survival")
    data = threestage.bifurcation_data(fig3_params, "slow_survival")
    gap = 1.0 - co.s2 * co.s3
    eps = (1.0 - data.r0) * gap / data.c_w
    seed = threestage.branch_prediction(fig3_params, "slow_survival", eps).cycle_active_phase
    step = threestage.reduced_map(fig3_params, "slow_survival")
    report = analysis.find_two_cycle(step, seed)
    assert report.kind == analysis.KIND_TWO_CYCLE
    assert report.synchronous is True
    assert report.classification == STABLE
    assert report.residual < 1e-10


def test_persistence_minimum_positive_at_coexistence(fig2_params):
    step = threestage.reduced_map(fig2_params, "slow_survival")
    low = analysis.persistence_minimum(step, np.array([0.04, 0.1, 0.04]),
                                       steps=20_000, window=500)
    assert low == pytest.approx(0.09042025496692338, rel=1e-9)


def test_extinction_equilibrium_is_always_hyperbolic():
    # random rates never land inside the +-1e-6 band around modulus 1
    rng = np.random.default_rng(12345)
    counts = {STABLE: 0, UNSTABLE: 0, NONHYPERBOLIC: 0}
    for i in range(50):
        params = threestage.ThreeStageParams.from_fractions(
            rng.uniform(0.1, 0.9, (3, 2)), rng.uniform(0.5, 6.0, 2),
            rng.uniform(0.2, 4.0, 2), rng.uniform(0.2, 4.0, 2),
            rng.uniform(0.1, 0.9, 3))
        variant = ("slow_survival", "rescaled")[i % 2]
        step = threestage.reduced_map(params, variant)
        report = analysis.find_equilibrium(step, np.zeros(3))
        counts[report.classification] += 1
    assert counts[NONHYPERBOLIC] == 0
    assert counts[STABLE] == 32
    assert counts[UNSTABLE] == 18


def test_synchrony_predicate_matches_grid_search():
    rng = np.random.default_rng(99)
    for _ in range(200):
        s = rng.uniform(0.1, 0.9, 3)
        params = threestage.ThreeStageParams.from_fractions(
            np.column_stack([s, s]), (3.0, 3.0),
            (float(rng.uniform(0.2, 3.0)),) * 2, (float(rng.uniform(0.2, 3.0)),) * 2,
            rng.uniform(0.1, 0.9, 3))
        search = analysis.dispersal_search_synchrony(params, TARGET_POSITIVE)
        assert search.feasible_region_nonempty == analysis.synchrony_feasibility_predicate(params)


def test_synchrony_search_needs_homogeneous_rates(fig10_params):
    with pytest.raises(InhomogeneousParamsError):
        analysis.synchrony_feasibility_predicate(fig10_params)
    with pytest.raises(InhomogeneousParamsError):
        analysis.dispersal_search_synchrony(fig10_params, TARGET_POSITIVE)
    with pytest.raises(ValueError):
        analysis.dispersal_search_synchrony(fig10_params, "sideways")


def test_synchrony_search_both_signs_reachable(fig2_params):
    pos = analysis.dispersal_search_synchrony(fig2_params, TARGET_POSITIVE)
    neg = analysis.dispersal_search_synchrony(fig2_params, TARGET_NEGATIVE)
    assert pos.feasible_region_nonempty
    assert neg.feasible_region_nonempty
    assert pos.witness[1] > 0.0
    assert neg.witness[1] < 0.0


def test_survival_search_on_homogeneous_rates(fig2_params):
    # patch-identical rates make the reproduction number dispersal-free,
    # so the whole grid sits on one side
    rescue = analysis.dispersal_search_survival(fig2_params, TARGET_RESCUE)
    assert rescue.feasible_region_nonempty
    assert rescue.witness[1] == pytest.approx(1 / 30, abs=1e-12)
    assert len(rescue.cells) == 65 * 65
    gone = analysis.dispersal_search_survival(fig2_params, TARGET_EXTINGUISH)
    assert not gone.feasible_region_nonempty
    assert gone.witness is None


def test_survival_search_on_heterogeneous_rates(flip_params):
    # concentrating the early stages in the high-survival patch rescues
    # the rescaled system; pushing them to the weak patch extinguishes
    # the slow-survival one
    rescue = analysis.dispersal_search_survival(flip_params, TARGET_RESCUE,
                                                variant="rescaled")
    assert rescue.feasible_region_nonempty
    assert rescue.witness[1] > 0.0
    gone = analysis.dispersal_search_survival(flip_params, TARGET_EXTINGUISH)
    assert gone.feasible_region_nonempty
    assert gone.witness[1] < 0.0
    with pytest.raises(ValueError):
        analysis.dispersal_search_survival(flip_params, "elsewhere")


def test_synchrony_ratio_max_is_closed_form():
    assert analysis.synchrony_ratio_max() == pytest.approx((1 + np.sqrt(2)) / 2, abs=1e-9)


def test_compare_variants_orderings(fig2_params, flip_params):
    tied = analysis.compare_variants(fig2_params)
    assert tied.ordering == analysis.ORDER_TIED
    assert not tied.extinction_flip
    flipped = analysis.compare_variants(flip_params)
    assert flipped.ordering == analysis.ORDER_RESCALED_LOWER
    assert flipped.extinction_flip
    assert flipped.r0_rescaled < 1.0 < flipped.r0_slow
