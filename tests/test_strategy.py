"""Feedback rule, value function, diversification classification."""

import math

import numpy as np
import pytest

from robustmv import (
    EllipsoidalSet,
    GammaBox,
    GrowthOverflow,
    MarketParams,
    ProductSet,
    SimConfig,
    ThetaPoint,
    ThetaProcessSchedule,
    classical_strategy,
    classify,
    mean_wealth_path,
    monotonicity_counterexample,
    robust_strategy,
    simulate_optimal_exact,
    solve,
    value_coefficients,
    value_v0,
    variance_risk_ratio,
)
from robustmv.strategy import growth_factor

from conftest import full_ambiguity_spec

# A numpy overflow or invalid operation fails the test instead of hiding in a result.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _reference_solution(params2, reference_spec):
    return solve(reference_spec, params2)


def test_direction_matches_variance_risk_ratio(params2, reference_spec):
    sol = _reference_solution(params2, reference_spec)
    strat = robust_strategy(sol, params2)
    assert np.allclose(strat.allocation_direction, [0.3, 0.0], atol=1e-14)
    assert np.allclose(
        strat.allocation_direction, variance_risk_ratio(sol.theta_star, params2), rtol=1e-12
    )


def test_no_trade_direction_zero(params2, reference_spec):
    sol = solve(
        EllipsoidalSet(b_hat=reference_spec.b_hat, delta=0.5, gamma=reference_spec.gamma), params2
    )
    strat = robust_strategy(sol, params2)
    assert np.array_equal(strat.allocation_direction, np.zeros(2))
    for t in (0.0, 0.5, 1.0):
        for x in (-1.0, 1.0, 10.0):
            assert np.array_equal(strat(t, x), np.zeros(2))


def test_evaluate_alpha_examples(params2, reference_spec):
    sol = _reference_solution(params2, reference_spec)
    strat = robust_strategy(sol, params2)
    # zero position exactly at x = x0 + e^{r*T}/(2 lam)
    pivot = 1.0 + math.exp(0.09) / 1.0
    assert np.allclose(strat(0.3, pivot), np.zeros(2), atol=1e-15)
    # scalar formula at x = x0
    alpha = strat(0.0, 1.0)
    assert np.allclose(alpha, math.exp(0.09) * np.array([0.3, 0.0]))
    # time does not enter
    assert np.array_equal(alpha, strat(0.77, 1.0))
    # vectorized wealth
    batch = strat(0.0, np.array([1.0, pivot]))
    assert batch.shape == (2, 2)
    assert np.allclose(batch[1], 0.0, atol=1e-15)


def test_high_risk_aversion_kills_position(reference_spec):
    big_lam = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=1e9, x0=1.0)
    sol = solve(reference_spec, big_lam)
    strat = robust_strategy(sol, big_lam)
    assert np.max(np.abs(strat(0.0, 1.0))) < 1e-8


def test_value_v0(params2, reference_spec):
    sol = _reference_solution(params2, reference_spec)
    assert np.isclose(value_v0(sol, params2), 1.0 + 0.5 * (math.exp(0.09) - 1.0), rtol=1e-15)
    # r* = 0 leaves the initial wealth
    no_trade = solve(
        EllipsoidalSet(b_hat=reference_spec.b_hat, delta=0.9, gamma=reference_spec.gamma), params2
    )
    assert value_v0(no_trade, params2) == 1.0
    # doubling lam halves the premium over x0
    half = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=1.0, x0=1.0)
    assert np.isclose(
        value_v0(sol, params2) - 1.0, 2.0 * (value_v0(solve(reference_spec, half), half) - 1.0)
    )


def test_mean_wealth_path(params2, reference_spec):
    sol = _reference_solution(params2, reference_spec)
    strat = robust_strategy(sol, params2)
    path = mean_wealth_path(strat, [0.0, 1.0])
    assert path[0] == 1.0
    assert np.isclose(path[1], math.exp(0.09), rtol=1e-15)  # x0 + e^r(1 - e^-r) at T=1
    zero = robust_strategy(
        solve(
            EllipsoidalSet(b_hat=reference_spec.b_hat, delta=0.9, gamma=reference_spec.gamma),
            params2,
        ),
        params2,
    )
    assert np.allclose(mean_wealth_path(zero, np.linspace(0, 1, 7)), 1.0)


def test_growth_overflow_names_exponent(reference_spec):
    # r* = 0.09, so e^{r* T} leaves the float range at T = 1e4 wherever it is used.
    big = MarketParams(sigmas=[1.0, 1.0], horizon_T=1e4, lam=0.5, x0=1.0)
    sol = solve(reference_spec, big)
    schedule = ThetaProcessSchedule.constant(sol.theta_star)
    one_asset = MarketParams(sigmas=[1.0], horizon_T=1e4, lam=0.5, x0=1.0)
    calls = (
        lambda: value_v0(sol, big),
        lambda: robust_strategy(sol, big),
        lambda: simulate_optimal_exact(sol, schedule, big, SimConfig(n_paths=4, n_steps=2, seed=0)),
        lambda: monotonicity_counterexample(0.3, 0.5, one_asset),
    )
    for call in calls:
        with pytest.raises(GrowthOverflow, match=r"r\* T = 900$"):
            call()


def test_growth_overflow_infinite_exponent():
    # math.exp(inf) returns inf instead of raising OverflowError.
    with pytest.raises(GrowthOverflow, match=r"r\* T = inf$"):
        growth_factor(math.inf, 1.0)


def test_value_offset_growth_overflow(reference_spec):
    # offset(t) carries e^{r* (T - t)}; quad_coeff's exponent r* (t - T) is <= 0 on [0, T].
    big = MarketParams(sigmas=[1.0, 1.0], horizon_T=1e4, lam=0.5, x0=1.0)
    coeffs = value_coefficients(solve(reference_spec, big), big)
    with pytest.raises(GrowthOverflow, match=r"r\* T = 900$"):
        coeffs.offset(0.0)
    assert coeffs.quad_coeff(0.0) == 0.0 and coeffs.quad_coeff(1e4) == -0.5


def test_value_coefficients_terminal_and_ode(params2, reference_spec):
    sol = _reference_solution(params2, reference_spec)
    coeffs = value_coefficients(sol, params2)
    T = params2.horizon_T
    assert np.isclose(coeffs.quad_coeff(T), -params2.lam, rtol=1e-15)
    assert coeffs.offset(T) == 0.0
    assert coeffs.linear_coeff == 1.0
    assert np.all(coeffs.quad_coeff(np.linspace(0, T, 11)) < 0)
    # finite-difference check of the defining ODEs
    h = 1e-6
    for t in (0.1, 0.5, 0.9):
        dk = (coeffs.quad_coeff(t + h) - coeffs.quad_coeff(t - h)) / (2 * h)
        assert np.isclose(dk, coeffs.quad_coeff(t) * sol.r_star, rtol=1e-6)
        dchi = (coeffs.offset(t + h) - coeffs.offset(t - h)) / (2 * h)
        target = sol.r_star / (4.0 * coeffs.quad_coeff(t))
        assert np.isclose(dchi, target, rtol=1e-6)


def test_classify_two_asset_cases(params2):
    b_hat = np.array([0.4, 0.2])
    interior = solve(
        EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=GammaBox.box([-0.5], [0.8])), params2
    )
    rep = classify(interior, params2)
    assert rep.kind == "anti_diversification"
    assert rep.asset == 0

    upper = solve(
        EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=GammaBox.box([-0.5], [0.3])), params2
    )
    rep = classify(upper, params2)
    assert rep.kind == "well_diversified"
    assert rep.mode == "directional"
    assert rep.signs == (1, 1)

    lower = solve(
        EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=GammaBox.box([0.6], [0.8])), params2
    )
    rep = classify(lower, params2)
    assert rep.mode == "spread"
    assert rep.signs == (1, -1)


def test_classify_full_ambiguity_anti(params3):
    sol = solve(full_ambiguity_spec([0.5, 0.3, 0.2], 0.2), params3)
    rep = classify(sol, params3)
    assert rep.kind == "anti_diversification"
    assert rep.asset == 0
    strat = robust_strategy(sol, params3)
    assert np.allclose(strat.allocation_direction, [0.6 * 0.5, 0.0, 0.0], atol=1e-12)


def test_classify_no_trade(params2, reference_spec):
    sol = solve(
        EllipsoidalSet(b_hat=reference_spec.b_hat, delta=0.9, gamma=reference_spec.gamma), params2
    )
    rep = classify(sol, params2)
    assert rep.kind == "no_trade"
    assert rep.signs == (0, 0)


def test_classify_well_diversified_three_assets(params3):
    spec = EllipsoidalSet(
        b_hat=np.array([0.5, 0.3, 0.2]), delta=0.1, gamma=GammaBox.box([0, 0, 0], [0.1, 0.1, 0.1])
    )
    rep = classify(solve(spec, params3), params3)
    assert rep.kind == "well_diversified"
    assert rep.signs == (1, 1, 1)


def test_classify_invariant_under_lambda(params2, reference_spec):
    sol = _reference_solution(params2, reference_spec)
    for lam in (0.1, 1.0, 25.0):
        p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=lam, x0=1.0)
        rep = classify(solve(reference_spec, p), p)
        assert rep.kind == classify(sol, params2).kind
        assert rep.signs == classify(sol, params2).signs


def test_classical_strategy_sign_rule():
    # kappa_2 >= 0 iff proximity >= rho for positive Sharpe ratios
    p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    theta = ThetaPoint(b=[0.3, 0.2], rho=[0.2])
    strat = classical_strategy(theta, p)
    assert strat.allocation_direction[0] > 0 and strat.allocation_direction[1] > 0
    theta_high = ThetaPoint(b=[0.3, 0.2], rho=[0.8])
    strat_high = classical_strategy(theta_high, p)
    assert strat_high.allocation_direction[0] > 0 and strat_high.allocation_direction[1] < 0


def test_classical_zero_drift(params2):
    strat = classical_strategy(ThetaPoint(b=[0.0, 0.0], rho=[0.2]), params2)
    assert np.array_equal(strat.allocation_direction, np.zeros(2))
    assert strat.r_star == 0.0


def test_singleton_reduction_bitwise(params2):
    theta0 = ThetaPoint(b=[0.3, 0.2], rho=[0.2])
    spec = ProductSet(
        delta_lower=theta0.b.copy(), delta_upper=theta0.b.copy(), gamma=GammaBox.singleton([0.2])
    )
    robust = robust_strategy(solve(spec, params2), params2)
    classical = classical_strategy(theta0, params2)
    assert robust.r_star == classical.r_star
    assert np.array_equal(robust.allocation_direction, classical.allocation_direction)
    assert np.array_equal(robust.theta_star.b, classical.theta_star.b)
    assert np.array_equal(robust.theta_star.rho, classical.theta_star.rho)
    for t, x in ((0.0, 1.0), (0.5, 2.0), (1.0, 0.5)):
        assert np.array_equal(robust(t, x), classical(t, x))


def test_direction_permutation_equivariance():
    p = MarketParams(sigmas=[1.0, 2.0], horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(b_hat=np.array([0.4, 0.6]), delta=0.05, gamma=GammaBox.box([-0.3], [0.3]))
    strat = robust_strategy(solve(spec, p), p)

    p_swapped = MarketParams(sigmas=[2.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    spec_swapped = EllipsoidalSet(
        b_hat=np.array([0.6, 0.4]), delta=0.05, gamma=spec.gamma
    )
    strat_swapped = robust_strategy(solve(spec_swapped, p_swapped), p_swapped)
    assert np.allclose(strat.allocation_direction, strat_swapped.allocation_direction[::-1])
