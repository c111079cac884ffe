"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is fixed
here; random instances are generated from frozen seeds so reruns are
bitwise reproducible.
"""

import math

import numpy as np
import pytest

from robustmv import (
    EllipsoidalSet,
    GammaBox,
    MarketParams,
    ProductSet,
    SimConfig,
    ThetaPoint,
    classical_strategy,
    classify,
    estimate_objective,
    grid_oracle,
    is_positive_definite,
    numeric_minimize,
    monotonicity_counterexample,
    risk_premium_gradients,
    robust_strategy,
    simulate_optimal_exact,
    simulate_wealth,
    solve,
    value_v0,
    variance_risk_ratio,
    verify_saddle,
    verify_weak_principle,
)
from robustmv.ambiguity import ThetaProcessSchedule
from robustmv.market import n_pairs, sharpe_profile

from conftest import (
    CURATED_THREE_ASSET,
    curated_three_asset,
    fd_gradient,
    random_three_asset_instance,
    random_two_asset_instance,
)

REFERENCE_PARAMS = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
REFERENCE_SPEC = EllipsoidalSet(
    b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.5], [0.8])
)
REFERENCE_V0 = 1.0 + 0.5 * (math.exp(0.09) - 1.0)  # 1.047087...


# ----------------------------------------------------------------------
# shared instance batches (items 2-4, reused by items 5 and 11)


@pytest.fixture(scope="module")
def two_asset_batch():
    rng = np.random.default_rng(12021)
    batch = []
    while len(batch) < 200:
        spec, params = random_two_asset_instance(rng)
        solution = solve(spec, params)
        batch.append({"spec": spec, "params": params, "solution": solution})
    return batch


def _jitter_curated(label, rng):
    """Rescaled copy of a curated instance; rescaling provably keeps the label."""
    spec, params = curated_three_asset(label)
    b_scale = rng.uniform(0.7, 1.3)
    sigma_scale = rng.uniform(0.8, 1.25)
    delta_scale = rng.uniform(0.8, 1.2)
    params2 = MarketParams(
        sigmas=sigma_scale * params.sigmas, horizon_T=1.0, lam=0.5, x0=1.0
    )
    spec2 = EllipsoidalSet(
        b_hat=b_scale * spec.b_hat, delta=delta_scale * spec.delta, gamma=spec.gamma
    )
    return spec2, params2


def _main_case(label):
    return label.split(".Case")[1][0]  # "1".."5"


@pytest.fixture(scope="module")
def three_asset_batch():
    rng = np.random.default_rng(33033)
    batch = []
    jitters = {"1": 4, "2": 2, "3": 2, "4": 2, "5": 2}
    for label in sorted(CURATED_THREE_ASSET):
        spec, params = curated_three_asset(label)
        batch.append({"spec": spec, "params": params, "solution": solve(spec, params)})
        for _ in range(jitters[_main_case(label)]):
            spec_j, params_j = _jitter_curated(label, rng)
            batch.append(
                {"spec": spec_j, "params": params_j, "solution": solve(spec_j, params_j)}
            )
    while len(batch) < 50:
        spec, params = random_three_asset_instance(rng)
        if spec is None:
            continue
        try:
            solution = solve(spec, params)
        except Exception:
            continue
        if not solution.case_label.startswith("ThreeAsset"):
            continue
        batch.append({"spec": spec, "params": params, "solution": solution})
    return batch[:50] if len(batch) > 50 else batch


@pytest.fixture(scope="module")
def full_ambiguity_batch():
    rng = np.random.default_rng(44044)
    batch = []
    while len(batch) < 50:
        d = 2 if len(batch) % 2 == 0 else 3
        sig = rng.uniform(0.5, 2.0, d)
        top = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        betas = [top]
        for _ in range(d - 1):
            betas.append(betas[-1] * rng.uniform(0.3, 0.85) * rng.choice([-1.0, 1.0]))
        b_hat = np.array(betas) * sig
        delta = rng.uniform(0.0, 1.2 * abs(top))
        params = MarketParams(sigmas=sig, horizon_T=1.0, lam=0.5, x0=1.0)
        spec = EllipsoidalSet(b_hat=b_hat, delta=delta, gamma=GammaBox.full(d))
        solution = solve(spec, params)
        batch.append(
            {"spec": spec, "params": params, "solution": solution, "top": abs(top)}
        )
    return batch


# ----------------------------------------------------------------------


def test_criterion_1_gradient_identity():
    rng = np.random.default_rng(1001)
    checked = 0
    worst = 0.0
    while checked < 100:
        d = int(rng.integers(2, 5))
        params = MarketParams(sigmas=rng.uniform(0.5, 2.0, d), horizon_T=1.0, lam=0.5, x0=1.0)
        rho = rng.uniform(-0.6, 0.6, n_pairs(d))
        if not is_positive_definite(rho, d):
            continue
        theta = ThetaPoint(b=rng.uniform(-1.0, 1.0, d), rho=rho)
        grad_b, grad_rho = risk_premium_gradients(theta, params)
        analytic = np.concatenate([grad_b, grad_rho])
        numeric = fd_gradient(theta, params, step=1e-6)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, err)
        checked += 1
    assert worst < 1e-6
    print(f"\nACCEPTANCE 1 PASS: gradients match finite differences, worst rel err {worst:.2e}")


def test_criterion_2_two_asset_closed_form_vs_oracle(two_asset_batch):
    worst_gap = 0.0
    location_checked = 0
    for item in two_asset_batch:
        spec, params, sol = item["spec"], item["params"], item["solution"]
        oracle = grid_oracle(spec, params, 2001)
        gap = abs(sol.r_star - oracle.r_star)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-3
        # label vs argmin location, for instances away from case boundaries
        lo, hi = spec.gamma.lower[0], spec.gamma.upper[0]
        q = float(sharpe_profile(spec.b_hat, params).proximities[0])
        if sol.r_star == 0.0 or min(abs(q - lo), abs(q - hi)) < 1e-3:
            continue
        rho_star = oracle.theta_star.rho[0]
        at_upper = abs(rho_star - hi) < 1e-12
        at_lower = abs(rho_star - lo) < 1e-12
        expected = {
            "TwoAsset.Interior": not (at_upper or at_lower),
            "TwoAsset.Upper": at_upper,
            "TwoAsset.Lower": at_lower,
        }[sol.case_label]
        assert expected, (sol.case_label, rho_star, lo, hi, q)
        location_checked += 1
    assert location_checked > 100
    print(
        f"\nACCEPTANCE 2 PASS: 200 two-asset instances, worst |r*-oracle| {worst_gap:.2e}, "
        f"{location_checked} argmin locations agree"
    )


def test_criterion_3_three_asset_closed_form_vs_oracle(three_asset_batch):
    counts = {}
    worst_gap = 0.0
    worst_residual = 0.0
    assert len(three_asset_batch) == 50
    for item in three_asset_batch:
        spec, params, sol = item["spec"], item["params"], item["solution"]
        label = sol.case_label
        counts[_main_case(label)] = counts.get(_main_case(label), 0) + 1
        oracle = grid_oracle(spec, params, 51)
        gap = abs(sol.r_star - oracle.r_star)
        worst_gap = max(worst_gap, gap)
        assert gap <= 5e-3, (label, gap)
        if _main_case(label) in ("2", "3", "4"):
            residual = sol.diagnostics["zero_component_residual"]
            worst_residual = max(worst_residual, residual)
            assert residual < 1e-8, (label, residual)
    for case in ("1", "2", "3", "4", "5"):
        assert counts.get(case, 0) >= 5, counts
    print(
        f"\nACCEPTANCE 3 PASS: 50 three-asset instances {counts}, worst gap {worst_gap:.2e}, "
        f"worst zeroed-component residual {worst_residual:.2e}"
    )


def test_criterion_4_full_ambiguity_vs_numeric(full_ambiguity_batch):
    worst = 0.0
    for item in full_ambiguity_batch:
        spec, params, sol = item["spec"], item["params"], item["solution"]
        expected = (item["top"] - spec.delta) ** 2 if item["top"] > spec.delta else 0.0
        assert np.isclose(sol.r_star, expected, rtol=1e-12)
        assert is_positive_definite(sol.theta_star.rho, params.d)
        wide = EllipsoidalSet(
            b_hat=spec.b_hat,
            delta=spec.delta,
            gamma=GammaBox.box(
                np.full(n_pairs(params.d), -0.95), np.full(n_pairs(params.d), 0.95)
            ),
        )
        numeric = numeric_minimize(wide, params)
        gap = abs(sol.r_star - numeric.r_star)
        worst = max(worst, gap)
        assert gap <= 1e-4, gap
    print(f"\nACCEPTANCE 4 PASS: 50 full-ambiguity instances, worst |closed-numeric| {worst:.2e}")


def test_criterion_5_saddle_inequalities(two_asset_batch, three_asset_batch, full_ambiguity_batch):
    total = 0
    worst_upper = -np.inf
    worst_lower = np.inf
    for idx, item in enumerate(two_asset_batch + three_asset_batch + full_ambiguity_batch):
        report = verify_saddle(
            item["solution"], item["spec"], item["params"], samples=1000, seed=idx
        )
        assert report.ok
        worst_upper = max(worst_upper, report.worst_upper_margin)
        worst_lower = min(worst_lower, report.worst_lower_margin)
        total += 1
    assert worst_upper <= 1e-8 and worst_lower >= -1e-8
    print(
        f"\nACCEPTANCE 5 PASS: saddle verified on {total} instances x 1000 samples, "
        f"margins [{worst_lower:.2e}, {worst_upper:.2e}]"
    )


def test_criterion_6_value_reproduction():
    solution = solve(REFERENCE_SPEC, REFERENCE_PARAMS)
    v0 = value_v0(solution, REFERENCE_PARAMS)
    assert np.isclose(v0, REFERENCE_V0, rtol=1e-15)
    assert np.isclose(v0, 1.047087, atol=5e-7)

    strategy = robust_strategy(solution, REFERENCE_PARAMS)
    schedule = ThetaProcessSchedule.constant(solution.theta_star)
    cfg = SimConfig(n_paths=100_000, n_steps=256, seed=42)
    _, euler_paths = simulate_wealth(strategy, schedule, REFERENCE_PARAMS, cfg)
    euler = estimate_objective(euler_paths, REFERENCE_PARAMS)
    assert abs(euler.J - v0) <= 3.0 * euler.std_error_J

    _, exact_paths = simulate_optimal_exact(solution, schedule, REFERENCE_PARAMS, cfg)
    exact = estimate_objective(exact_paths, REFERENCE_PARAMS)
    combined = math.hypot(euler.std_error_J, exact.std_error_J)
    assert abs(euler.J - exact.J) <= 3.0 * combined
    print(
        f"\nACCEPTANCE 6 PASS: V0 {v0:.6f}; MC J {euler.J:.6f} within "
        f"{abs(euler.J - v0) / euler.std_error_J:.2f} SE; Euler-exact gap "
        f"{abs(euler.J - exact.J) / combined:.2f} combined SE"
    )


def test_criterion_7_weak_optimality_principle():
    solution = solve(REFERENCE_SPEC, REFERENCE_PARAMS)
    cfg = SimConfig(n_paths=100_000, n_steps=256, seed=42)
    report = verify_weak_principle(solution, REFERENCE_SPEC, REFERENCE_PARAMS, cfg)
    assert report.ok
    assert len(report.monotone_under_worst_case) == 8
    assert len(report.terminal_gain) == 8
    for check in report.monotone_under_worst_case:
        assert check.margin <= check.allowance, check
    for check in report.terminal_gain:
        assert check.margin >= -check.allowance, check
    for check in report.objective_upper:
        assert check.margin <= check.allowance, check
    print(
        "\nACCEPTANCE 7 PASS: condition (monotone) on 8 strategies, condition (terminal) on "
        f"{len(report.terminal_gain)} scenarios, objective saddle within 3 SE both sides"
    )


def test_criterion_8_no_trade_threshold():
    threshold = 0.4  # anchored premium root at the interior worst case
    lo, hi = 0.2, 0.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        spec = EllipsoidalSet(b_hat=REFERENCE_SPEC.b_hat, delta=mid, gamma=REFERENCE_SPEC.gamma)
        if solve(spec, REFERENCE_PARAMS).no_trade:
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    assert abs(flip - threshold) < 1e-9

    above = solve(
        EllipsoidalSet(
            b_hat=REFERENCE_SPEC.b_hat, delta=threshold + 1e-9, gamma=REFERENCE_SPEC.gamma
        ),
        REFERENCE_PARAMS,
    )
    assert above.no_trade
    strategy = robust_strategy(above, REFERENCE_PARAMS)
    for t in (0.0, 0.5, 1.0):
        for x in (-2.0, 1.0, 5.0):
            assert np.array_equal(strategy(t, x), np.zeros(2))
    print(f"\nACCEPTANCE 8 PASS: no-trade flips at delta {flip:.12f} (threshold {threshold})")


def test_criterion_9_counterexample_and_terminal_condition():
    params = MarketParams(sigmas=[1.0], horizon_T=1.0, lam=1.0, x0=1.0)
    table = monotonicity_counterexample(0.2, 5.0, params)
    assert table.has_negative()  # the large-c rows are strictly negative somewhere
    assert np.min(table.f_values[1]) < 0.0 and np.min(table.f_values[2]) < 0.0
    mask = table.t_grid >= 0.05
    limit_err = np.abs(table.f_values[2, mask] - table.limit_target[mask]).max()
    assert limit_err < 1e-3

    # terminal condition still verifies on the same drift-interval instance
    spec = ProductSet(
        delta_lower=np.array([0.2]), delta_upper=np.array([5.0]), gamma=GammaBox.box([], [])
    )
    solution = solve(spec, params)
    assert np.isclose(solution.r_star, 0.04, atol=1e-12)
    cfg = SimConfig(n_paths=30_000, n_steps=64, seed=42)
    report = verify_weak_principle(solution, spec, params, cfg)
    assert report.ok
    far = [c for c in report.terminal_gain if c.name.endswith("outer_drift")]
    assert far and all(c.margin >= -c.allowance for c in far)
    print(
        f"\nACCEPTANCE 9 PASS: negative derivative values at large c, limit error {limit_err:.2e}, "
        "terminal condition holds on the drift-interval instance"
    )


def test_criterion_10_singleton_reduction():
    theta0 = ThetaPoint(b=[0.3, 0.2], rho=[0.2])
    spec = ProductSet(
        delta_lower=theta0.b.copy(),
        delta_upper=theta0.b.copy(),
        gamma=GammaBox.singleton([0.2]),
    )
    solution = solve(spec, REFERENCE_PARAMS)
    robust = robust_strategy(solution, REFERENCE_PARAMS)
    classical = classical_strategy(theta0, REFERENCE_PARAMS)
    assert robust.r_star == classical.r_star
    assert np.array_equal(robust.allocation_direction, classical.allocation_direction)
    assert np.array_equal(robust.theta_star.b, classical.theta_star.b)
    assert np.array_equal(robust.theta_star.rho, classical.theta_star.rho)
    assert value_v0(solution, REFERENCE_PARAMS) == REFERENCE_PARAMS.x0 + (
        math.exp(classical.r_star * 1.0) - 1.0
    ) / (4.0 * REFERENCE_PARAMS.lam)
    for t, x in ((0.0, 1.0), (0.5, 0.2), (1.0, 3.0)):
        assert np.array_equal(robust(t, x), classical(t, x))
    print("\nACCEPTANCE 10 PASS: singleton pipeline reproduces the classical rule bitwise")


def test_criterion_11_classification_conformance(two_asset_batch, three_asset_batch):
    checked2 = 0
    for item in two_asset_batch:
        sol, params = item["solution"], item["params"]
        if sol.no_trade:
            continue
        direction = variance_risk_ratio(sol.theta_star, params)
        report = classify(sol, params)
        if sol.case_label == "TwoAsset.Upper":
            assert direction[0] * direction[1] > 0.0
            assert report.mode == "directional"
        elif sol.case_label == "TwoAsset.Lower":
            assert direction[0] * direction[1] < 0.0
            assert report.mode == "spread"
        else:
            assert report.kind == "anti_diversification"
        checked2 += 1

    checked3 = 0
    for item in three_asset_batch:
        sol, params = item["solution"], item["params"]
        if sol.no_trade:
            continue
        report = classify(sol, params)
        order = sol.diagnostics["order"]
        label = sol.case_label
        if label == "ThreeAsset.Case1":
            assert report.kind == "anti_diversification"
            assert report.asset == order[0]
        elif _main_case(label) in ("2", "3", "4"):
            dropped = {"2": order[2], "3": order[1], "4": order[0]}[_main_case(label)]
            assert report.kind == "under_diversification"
            assert report.excluded == (dropped,)
            expected_mode = "directional" if label.endswith("i") and not label.endswith("ii") else "spread"
            assert report.mode == expected_mode, (label, report.mode)
        else:
            assert report.kind == "well_diversified"
            assert all(s != 0 for s in report.signs)
        checked3 += 1
    assert checked2 > 150 and checked3 > 30
    print(
        f"\nACCEPTANCE 11 PASS: sign and zero-pattern assertions hold on {checked2} two-asset "
        f"and {checked3} three-asset instances"
    )
