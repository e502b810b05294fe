"""Consistency checks between the complete, limit, and reduced layers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import block_diag

from twoscalepop import aggregation, metapop, scenarios, threestage
from twoscalepop.errors import DomainExitError, NonpositiveSurvivalError, ReducibleOrPeriodicError


def test_aggregate_sums_patches_stage_major():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(metapop.aggregate(x, 2), [3.0, 7.0, 11.0])
    assert np.array_equal(metapop.aggregate(np.arange(6.0), 3), [3.0, 12.0])


def test_aggregate_sums_each_state_of_a_stack_alike():
    stack = np.random.default_rng(2).uniform(-1.0, 1.0, (2, 4, 6))
    stack[0, 1, :2] = -0.0  # -0.0 + -0.0 stays -0.0
    totals = metapop.aggregate(stack, 2)
    assert totals.shape == (2, 4, 3)
    for index in np.ndindex(2, 4):
        assert totals[index].tobytes() == metapop.aggregate(stack[index], 2).tobytes()
    with pytest.raises(ValueError):
        metapop.aggregate(np.zeros((4, 5)), 2)


def test_model_rejects_empty_shape():
    with pytest.raises(ValueError):
        metapop.MetapopModel(stages=0, patches=2, dispersal=None,
                             demography=None, survival=None)


def test_demography_factors_reproduce_full_matrix(fig10_params):
    model = threestage.make_model(fig10_params)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(0.0, 0.5, 6)
        assert metapop.factorization_gap(model, x) < 1e-12


def test_limit_map_is_lift_after_projection(fig10_params):
    model = threestage.make_model(fig10_params)
    rng = np.random.default_rng(5)
    for variant in metapop.VARIANTS:
        sys = metapop.make_system(model, variant)
        for _ in range(5):
            x = rng.uniform(0.0, 0.3, 6)
            gap = np.max(np.abs(sys.limit_map(x) - sys.lift(sys.projection(x))))
            assert gap < 1e-12


def test_complete_family_approaches_limit(fig2_params):
    model = threestage.make_model(fig2_params)
    x = np.array([0.02, 0.02, 0.05, 0.05, 0.02, 0.02])
    for variant in metapop.VARIANTS:
        sys = metapop.make_system(model, variant)
        target = sys.limit_map(x)
        gap4 = np.max(np.abs(sys.complete(4)(x) - target))
        gap256 = np.max(np.abs(sys.complete(256)(x) - target))
        assert gap256 < gap4
        assert gap256 < 1e-3


def test_lifted_reduced_iterates_match_complete_limit(fig10_params):
    # T(Hbar^(n-1)(G(X))) equals H^n(X) for every n
    model = threestage.make_model(fig10_params)
    x0 = np.array([0.02, 0.02, 0.05, 0.05, 0.02, 0.02])
    for variant in metapop.VARIANTS:
        sys = metapop.make_system(model, variant)
        reduced = aggregation.reduced_map(sys)
        for n in (1, 2, 3):
            y = sys.projection(x0)
            for _ in range(n - 1):
                y = reduced(y)
            direct = x0
            for _ in range(n):
                direct = sys.limit_map(direct)
            assert np.max(np.abs(sys.lift(y) - direct)) < 1e-8


def _literal_demography(params, z, variant):
    # D(Z) Z, or Dt(Z) Z with each column of D divided by its survival
    d = threestage.demography_matrix(params, z)
    if variant == "rescaled":
        d = d / params.survivals.ravel()[None, :]
    return d @ z


def _spreads(params, variant):
    # Perron vector per stage, times gamma_i = exp(log(s_i) . v_i) when rescaled
    v = params.fraction_table()
    if variant == "rescaled":
        gamma = np.exp(np.sum(np.log(params.survivals) * v, axis=1))
        v = gamma[:, None] * v
    return v


def test_reduced_steps_agree_with_projection_of_lift(fig10_params):
    # the oracle's reduced map is U D(V Y) V Y (slow) and U Dt(Vt Y) Vt Y
    # (rescaled), spelled out here from the Perron fractions
    model = threestage.make_model(fig10_params)
    rng = np.random.default_rng(6)
    for variant in metapop.VARIANTS:
        reduced = aggregation.reduced_map(metapop.make_system(model, variant))
        spreads = _spreads(fig10_params, variant)
        for _ in range(5):
            y = rng.uniform(0.0, 0.4, 3)
            lifted = (spreads * y[:, None]).ravel()
            literal = metapop.aggregate(_literal_demography(fig10_params, lifted, variant), 2)
            assert np.max(np.abs(literal - reduced(y))) < 1e-12


@pytest.mark.parametrize("variant", ("slow_survival", "rescaled"))
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_complete_map_matches_repeated_products(name, variant):
    # H_k from cached matrix powers against the literal Z = M^k X or
    # (S^(1/k) M)^k X, multiplied out k times, then D(Z) Z / Dt(Z) Z
    params = getattr(scenarios, f"{name}_params")()
    system = metapop.make_system(threestage.make_model(params), variant)
    base = block_diag(*threestage.dispersal_matrices(params))
    states = np.random.default_rng(12).uniform(0.0, 2.0, (50, 6))
    for k in (1, 2, 5, 10, 50, 200):
        if variant == "rescaled":
            step = np.exp(np.log(params.survivals.ravel()) / k)[:, None] * base
        else:
            step = base
        h_k = system.complete(k)
        for x in states:
            z = x
            for _ in range(k):
                z = step @ z
            literal = _literal_demography(params, z, variant)
            gap = np.max(np.abs(h_k(x) - literal))
            assert gap <= 1e-13 * np.max(np.abs(literal)), (k, x)


def test_complete_map_preserves_nonnegativity(fig2_params):
    model = threestage.make_model(fig2_params)
    rng = np.random.default_rng(7)
    steps = [metapop.make_system(model, variant).complete(7)
             for variant in metapop.VARIANTS]
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, 6)
        for step in steps:
            assert np.all(step(x) >= 0.0)


def test_nonfinite_state_raises(fig2_params):
    model = threestage.make_model(fig2_params)
    bad = np.array([0.1, np.nan, 0.1, 0.1, 0.1, 0.1])
    for variant in metapop.VARIANTS:
        with pytest.raises(DomainExitError):
            metapop.make_system(model, variant).complete(3)(bad)


def _bare_lift(params, variant):
    # identity demography (slow) or diag(s) demography (rescaled, whose
    # Dt = diag(s) / s is the identity) leaves the lift as the bare spread
    s = params.survivals
    demography = np.eye(6) if variant == "slow_survival" else np.diag(s.ravel())
    model = metapop.MetapopModel(
        stages=3, patches=2, dispersal=threestage.dispersal_matrices(params),
        demography=lambda x: demography, survival=s)
    return metapop.make_system(model, variant).lift


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_slow_lift_splits_totals_exactly(seed, fig10_params):
    lift = _bare_lift(fig10_params, "slow_survival")
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 2.0, 3)
    assert np.max(np.abs(metapop.aggregate(lift(y), 2) - y)) < 1e-12


def test_rescaled_lift_contracts_by_survival_mean(fig2_params):
    # aggregating the rescaled lift returns gamma_i y_i with gamma the
    # v-weighted geometric survival mean
    y = np.array([0.2, 0.05, 0.11])
    v = fig2_params.fraction_table()
    gamma = np.exp(np.sum(np.log(fig2_params.survivals) * v, axis=1))
    got = metapop.aggregate(_bare_lift(fig2_params, "rescaled")(y), 2)
    assert np.max(np.abs(got - gamma * y)) < 1e-12


def _model(dispersal, survival):
    return metapop.MetapopModel(stages=2, patches=2, dispersal=dispersal,
                                demography=lambda x: np.eye(4), survival=survival)


def test_model_validates_rates_at_construction():
    mixing = np.array([[0.7, 0.4], [0.3, 0.6]])
    survival = np.full((2, 2), 0.5)
    _model((mixing, mixing), survival)
    with pytest.raises(ReducibleOrPeriodicError):
        _model((mixing, np.array([[0.0, 1.0], [1.0, 0.0]])), survival)
    with pytest.raises(ValueError):
        _model((mixing, np.full((3, 3), 1.0 / 3.0)), survival)
    with pytest.raises(ValueError):
        _model((mixing,), survival)
    with pytest.raises(ValueError):
        _model((mixing, mixing), np.full((3, 2), 0.5))
    with pytest.raises(NonpositiveSurvivalError):
        _model((mixing, mixing), np.array([[0.5, 0.0], [0.5, 0.5]]))
    with pytest.raises(NonpositiveSurvivalError):
        _model((mixing, mixing), np.array([[0.5, -0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        _model((mixing, mixing), np.array([[0.5, 1.2], [0.5, 0.5]]))
