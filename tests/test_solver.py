"""Closed-form worst cases vs the brute-force oracle, numerics, saddle checks."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robustmv import (
    EllipsoidalSet,
    GammaBox,
    MarketParams,
    NoMinimum,
    ProductSet,
    SaddleViolated,
    ThetaPoint,
    ZeroDrift,
    classical_strategy,
    classify,
    contains,
    correlation_matrix,
    grid_oracle,
    is_positive_definite,
    numeric_minimize,
    risk_premium,
    sample,
    solve,
    solve_ellipsoidal_given_rho,
    variance_risk_ratio,
    verify_saddle,
)
from robustmv import market as market_mod
from robustmv import solver as solver_mod
from robustmv.errors import BoxNotPositiveDefinite, GridTooLarge

from conftest import (
    CURATED_THREE_ASSET,
    GENERATED_D4,
    GENERATED_D5,
    NON_PD_CENTRE_D4,
    NON_PD_CORNER_D3,
    STALLED_D4,
    box_corners_pd,
    curated_three_asset,
    full_ambiguity_spec,
    permute_pairs,
    random_set_instance,
    random_three_asset_instance,
    random_two_asset_instance,
    random_wide_three_asset_instance,
)
from robustmv.strategy import robust_strategy, strategy_report, value_v0

# A numpy overflow or invalid operation fails the test instead of hiding in a result.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Frozen from the explicit 2x2 inverse oracle (see conftest.premium_2x2).
TWO_ASSET_CASE2_RSTAR = 0.095293633286485616
TWO_ASSET_CASE3_RSTAR = 0.09187742251701457
# Frozen from the equicorrelation inverse oracle.
THREE_CASE5I_RSTAR = 0.22480286800506238
THREE_CASE2I_RSTAR = 0.17989679105308287


def test_shrinkage_given_rho(params2):
    # s = 0.4 from the 2x2 inverse oracle at rho = 0.5
    b_star, r_star = solve_ellipsoidal_given_rho([0.5], [0.4, 0.2], 0.1, params2)
    assert np.allclose(b_star, [0.3, 0.15])
    assert np.isclose(r_star, 0.09)

    b_star, r_star = solve_ellipsoidal_given_rho([0.5], [0.4, 0.2], 0.0, params2)
    assert np.allclose(b_star, [0.4, 0.2])
    assert np.isclose(r_star, 0.16)

    b_star, r_star = solve_ellipsoidal_given_rho([0.5], [0.4, 0.2], 0.5, params2)
    assert np.array_equal(b_star, [0.0, 0.0]) and r_star == 0.0


def test_full_ambiguity_example(params3):
    sol = solve(full_ambiguity_spec([0.5, 0.3, 0.2], 0.2), params3)
    assert np.allclose(sol.theta_star.rho, [0.6, 0.4, 0.24])
    assert np.allclose(sol.theta_star.b, [0.3, 0.18, 0.12])
    assert np.isclose(sol.r_star, 0.09)
    assert is_positive_definite(sol.theta_star.rho, 3)
    assert not sol.no_trade


def test_full_ambiguity_matches_wide_box_minimum(params3):
    # independent check: inf over a wide PD box equals beta_1^2 at delta=0
    sol = solve(full_ambiguity_spec([0.5, 0.3, 0.2], 0.0), params3)
    spec = EllipsoidalSet(b_hat=np.array([0.5, 0.3, 0.2]), delta=0.0, gamma=GammaBox.full(3))
    oracle = grid_oracle(spec, params3, 61)
    assert np.isclose(sol.r_star, 0.25)
    assert abs(oracle.r_star - sol.r_star) < 1e-3


def test_full_ambiguity_no_minimum(params2):
    with pytest.raises(NoMinimum):
        solve(full_ambiguity_spec([0.4, 0.4], 0.1), params2)


def test_full_ambiguity_no_trade(params3):
    sol = solve(full_ambiguity_spec([0.5, 0.3, 0.2], 0.6), params3)
    assert sol.no_trade
    assert sol.r_star == 0.0
    assert np.array_equal(sol.theta_star.b, np.zeros(3))


def test_full_ambiguity_zero_drift(params2):
    with pytest.raises(ZeroDrift):
        solve(full_ambiguity_spec([0.0, 0.0], 0.1), params2)


def test_full_ambiguity_unsorted_inputs():
    # dominant asset listed second; outputs must come back in input order
    p = MarketParams(sigmas=[1.0, 1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    sol = solve(full_ambiguity_spec([0.3, 0.5, 0.2], 0.2), p)
    assert np.allclose(sol.theta_star.b, [0.18, 0.3, 0.12])
    k = variance_risk_ratio(ThetaPoint(b=[0.3, 0.5, 0.2], rho=sol.theta_star.rho), p)
    assert np.allclose(k, [0.0, 0.5, 0.0], atol=1e-12)


def test_two_asset_three_cases(params2):
    b_hat = np.array([0.4, 0.2])
    case1 = solve(
        EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=GammaBox.box([-0.5], [0.8])), params2
    )
    assert case1.case_label == "TwoAsset.Interior"
    assert np.isclose(case1.theta_star.rho[0], 0.5)
    assert np.isclose(case1.r_star, 0.09)
    assert np.allclose(case1.theta_star.b, [0.3, 0.15])

    case2 = solve(
        EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=GammaBox.box([-0.5], [0.3])), params2
    )
    assert case2.case_label == "TwoAsset.Upper"
    assert np.isclose(case2.theta_star.rho[0], 0.3)
    assert np.isclose(case2.r_star, TWO_ASSET_CASE2_RSTAR, rtol=1e-12)

    case3 = solve(
        EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=GammaBox.box([0.6], [0.8])), params2
    )
    assert case3.case_label == "TwoAsset.Lower"
    assert np.isclose(case3.theta_star.rho[0], 0.6)
    assert np.isclose(case3.r_star, TWO_ASSET_CASE3_RSTAR, rtol=1e-12)


def test_two_asset_agrees_with_grid_oracle():
    rng = np.random.default_rng(101)
    for _ in range(40):
        spec, params = random_two_asset_instance(rng)
        sol = solve(spec, params)
        oracle = grid_oracle(spec, params, 2001)
        assert abs(sol.r_star - oracle.r_star) <= 1e-3
        assert contains(spec, sol.theta_star, params)


def test_three_asset_case5i_example(params3):
    spec = EllipsoidalSet(
        b_hat=np.array([0.5, 0.3, 0.2]), delta=0.1, gamma=GammaBox.box([0, 0, 0], [0.1, 0.1, 0.1])
    )
    sol = solve(spec, params3)
    assert sol.case_label == "ThreeAsset.Case5i"
    assert np.allclose(sol.theta_star.rho, [0.1, 0.1, 0.1])
    assert np.isclose(sol.r_star, THREE_CASE5I_RSTAR, rtol=1e-12)
    kappa = variance_risk_ratio(ThetaPoint(b=[0.5, 0.3, 0.2], rho=sol.theta_star.rho), params3)
    assert np.all(kappa > 0)


def test_three_asset_case2i_example(params3):
    spec = EllipsoidalSet(
        b_hat=np.array([0.5, 0.3, 0.2]),
        delta=0.1,
        gamma=GammaBox.box([0, -0.5, -0.5], [0.3, 0.5, 0.5]),
    )
    sol = solve(spec, params3)
    assert sol.case_label == "ThreeAsset.Case2i"
    assert np.isclose(sol.theta_star.rho[0], 0.3)
    assert np.isclose(sol.r_star, THREE_CASE2I_RSTAR, rtol=1e-12)
    # the killed component really vanishes, and the root point solves the line
    kappa = variance_risk_ratio(ThetaPoint(b=[0.5, 0.3, 0.2], rho=sol.theta_star.rho), params3)
    assert abs(kappa[2]) < 1e-8
    r13, r23 = sol.theta_star.rho[1], sol.theta_star.rho[2]
    assert abs(0.2 - 0.45054945054945056 * r13 - 0.16483516483516483 * r23) < 1e-12


def test_three_asset_case1_reduces_to_top_sharpe(params3):
    spec = EllipsoidalSet(
        b_hat=np.array([0.5, 0.3, 0.2]),
        delta=0.1,
        gamma=GammaBox.box([0.5, 0.3, -0.2], [0.7, 0.5, 0.2]),
    )
    sol = solve(spec, params3)
    assert sol.case_label == "ThreeAsset.Case1"
    assert np.isclose(sol.theta_star.rho[0], 0.6)
    assert np.isclose(sol.theta_star.rho[1], 0.4)
    assert np.isclose(sol.r_star, (0.5 - 0.1) ** 2)


def test_three_asset_curated_cases_match_oracle():
    for label in sorted(CURATED_THREE_ASSET):
        spec, params = curated_three_asset(label)
        sol = solve(spec, params)
        assert sol.case_label == label
        oracle = grid_oracle(spec, params, 51)
        assert abs(sol.r_star - oracle.r_star) <= 5e-3, label
        assert contains(spec, sol.theta_star, params), label
        assert is_positive_definite(sol.theta_star.rho, 3), label


def test_three_asset_zeroed_component_vanishes():
    # The residual is relative to max |Sigma(rho*)^{-1} b_hat|: it reads the same at every drift scale.
    for scale in (1.0, 2.0**100, 2.0**400, 2.0**-400):
        for label in ("ThreeAsset.Case2i", "ThreeAsset.Case2ii", "ThreeAsset.Case3i",
                      "ThreeAsset.Case3ii", "ThreeAsset.Case4i", "ThreeAsset.Case4ii"):
            spec, params = curated_three_asset(label)
            spec = EllipsoidalSet(b_hat=spec.b_hat * scale, delta=spec.delta * scale, gamma=spec.gamma)
            sol = solve(spec, params)
            assert sol.diagnostics["zero_component_residual"] < 1e-8, (label, scale)


def test_three_asset_case_exclusive_away_from_boundaries():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 60:
        spec, params = random_three_asset_instance(rng)
        if spec is None:
            continue
        try:
            sol = solve(spec, params)
        except ZeroDrift:
            continue
        margin = sol.diagnostics.get("runner_up_margin")
        if margin is None:
            continue
        assert margin > 0.0, (margin, spec)  # one candidate attains the dual bound
        checked += 1


@given(st.integers(0, 2**32 - 1), st.sampled_from(["d2", "d3", "d3 wide", "full"]))
def test_rho_star_is_delta_free_and_delta_only_shrinks(seed, family):
    rng = np.random.default_rng(seed)
    if family == "d2":
        spec, params = random_two_asset_instance(rng)
    elif family.startswith("d3"):
        draw = random_wide_three_asset_instance if family == "d3 wide" else random_three_asset_instance
        spec, params = draw(rng)
        assume(spec is not None)
        try:
            solve(spec, params)
        except BoxNotPositiveDefinite:
            assume(False)
    else:
        d = int(rng.integers(1, 6))
        params = MarketParams(sigmas=rng.uniform(0.5, 2.0, d), horizon_T=1.0, lam=0.5, x0=1.0)
        spec = full_ambiguity_spec(rng.uniform(-1.0, 1.0, d), rng.uniform(0.0, 1.0))
    base = solve(spec, params)
    rho = base.theta_star.rho
    # Only the top asset is traded.
    if base.case_label in ("FullAmbiguity", "TwoAsset.Interior", "ThreeAsset.Case1"):
        s = float(np.max(np.abs(spec.b_hat / params.sigmas)))
    else:
        s = math.sqrt(risk_premium(ThetaPoint(b=spec.b_hat, rho=rho), params))
    for delta in (0.0, spec.delta, 0.5 * s, s, 2.0 * s):
        sol = solve(EllipsoidalSet(b_hat=spec.b_hat, delta=delta, gamma=spec.gamma), params)
        assert sol.case_label == base.case_label
        assert sol.theta_star.rho.tobytes() == rho.tobytes()
        assert sol.r_star == max(s - delta, 0.0) ** 2
        assert np.array_equal(sol.theta_star.b, max(1.0 - delta / s, 0.0) * spec.b_hat)
        assert sol.no_trade == (delta >= s)


@given(st.integers(0, 2**32 - 1))
def test_box_with_pd_corners_is_pd(seed):
    # The three-asset closed forms test PD at one point of the box only.
    rng = np.random.default_rng(seed)
    spec, _ = random_three_asset_instance(rng)
    assume(spec is not None)
    lo, hi = spec.gamma.lower, spec.gamma.upper
    assert box_corners_pd(lo, hi, 3)
    grid = np.array(np.meshgrid(*[[0.0, 0.5, 1.0]] * 3)).reshape(3, -1).T
    for t in np.concatenate([grid, rng.uniform(0.0, 1.0, (200, 3))]):
        assert is_positive_definite(lo + t * (hi - lo), 3)


# Sorted-frame asset whose allocation vanishes on a line, per three-asset case.
_REMOVED = {"2": 2, "3": 1, "4": 0}
_PAIR = {(0, 1): 0, (0, 2): 1, (1, 2): 2}


@given(st.sampled_from(sorted(CURATED_THREE_ASSET)) | st.integers(0, 2**32 - 1))
def test_three_asset_minimizer_is_midpoint(source):
    """Cases 2-4 return the middle of their segment of minimizers; Case 1 (only the
    top asset traded) pins the top row to q and clips the other pair to q_j q_k."""
    if isinstance(source, str):
        spec, params = curated_three_asset(source)
    else:
        spec, params = random_three_asset_instance(np.random.default_rng(source))
        assume(spec is not None)
    sol = solve(spec, params)
    case = sol.case_label.split(".Case")[-1][0]
    assume(case in "1234")
    order, rho = sol.diagnostics["order"], sol.theta_star.rho
    lo, hi = spec.gamma.lower, spec.gamma.upper
    if case == "1":
        betas = spec.b_hat / params.sigmas
        q = betas / betas[order[0]]
        for j in order[1:]:
            assert rho[_PAIR[tuple(sorted((order[0], j)))]] == q[j]
        k = _PAIR[tuple(sorted(order[1:]))]
        assert rho[k] == min(max(q[order[1]] * q[order[2]], lo[k]), hi[k])
        return
    i = order[_REMOVED[case]]
    j, k = (a for a in range(3) if a != i)
    pinned = _PAIR[(j, k)]
    assert rho[pinned] in (lo[pinned], hi[pinned])
    # Off the removed asset, kappa solves the 2x2 system at the pinned rho_jk;
    # kappa_i = 0 then reads b_i = sigma_i (sigma_j rho_ij kappa_j + sigma_k rho_ik kappa_k).
    sj, sk = params.sigmas[j], params.sigmas[k]
    cov = np.array([[sj * sj, rho[pinned] * sj * sk], [rho[pinned] * sj * sk, sk * sk]])
    kj, kk = np.linalg.solve(cov, spec.b_hat[[j, k]])
    free = [_PAIR[tuple(sorted((i, j)))], _PAIR[tuple(sorted((i, k)))]]
    direction = np.array([-sk * kk, sj * kj])
    point = rho[free]

    def reach(u):
        steps = [(hi[f] - p) / c if c > 0 else (lo[f] - p) / c for f, p, c in zip(free, point, u) if c]
        return min(steps)

    forward, backward = reach(direction), reach(-direction)
    assert abs(forward - backward) <= 1e-9 * max(forward + backward, 1e-12)


def test_diagnostics_hold_plain_python_values(monkeypatch, params2, reference_spec):
    # The CLI writes diagnostics to JSON as they are, so every solver path
    # stores int, float, bool, str or lists of them: never a numpy scalar.
    def ell2(lo, hi):
        return EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([lo], [hi]))

    box = GammaBox.box([-0.3], [0.6])
    solutions = [solve(reference_spec, params2), solve(ell2(-0.5, 0.3), params2), solve(ell2(0.6, 0.8), params2),
                 solve(full_ambiguity_spec([0.4, 0.2], 0.1), params2),
                 solve(ProductSet(np.array([0.3, 0.2]), np.array([0.3, 0.2]), GammaBox.singleton([0.2])), params2),
                 solve(ProductSet(np.array([-0.2, -0.1]), np.array([0.5, 0.3]), box), params2),
                 solve(ProductSet(np.array([0.2, 0.1]), np.array([0.5, 0.3]), box), params2),
                 grid_oracle(reference_spec, params2, 21)]
    solutions += [solve(*curated_three_asset(label)) for label in CURATED_THREE_ASSET]
    stalled_box = GammaBox.box(STALLED_D4["lower"], STALLED_D4["upper"])
    stalled = EllipsoidalSet(np.array(STALLED_D4["b_hat"]), 0.0, stalled_box)
    solutions.append(numeric_minimize(stalled, MarketParams(STALLED_D4["sigmas"], 1.0, 0.5, 1.0)))
    monkeypatch.setattr(solver_mod, "_dual", lambda *args: None)
    solutions.append(solve(*curated_three_asset("ThreeAsset.Case5i")))
    labels = {sol.case_label for sol in solutions}
    assert {"Singleton", "Product.NoTrade", "Numeric", "Oracle", "FullAmbiguity", "TwoAsset.Interior",
            "TwoAsset.Upper", "TwoAsset.Lower", "ThreeAsset.Case1", "ThreeAsset.Case5iv"} <= labels
    assert solutions[-1].diagnostics["case_fallthrough"]
    plain = (int, float, bool, str)
    for sol in solutions:
        for key, value in sol.diagnostics.items():
            items = value if type(value) is list else [value]
            assert all(type(v) in plain for v in items), (sol.case_label, key, type(value))


def test_three_asset_fallthrough_goes_numeric(monkeypatch):
    spec, params = curated_three_asset("ThreeAsset.Case5i")
    closed = solve(spec, params)
    monkeypatch.setattr(solver_mod, "_dual", lambda *args: None)
    sol = solve(spec, params)
    assert sol.case_label == "Numeric" and sol.diagnostics["case_fallthrough"]
    assert abs(sol.r_star - closed.r_star) <= 1e-9


def test_three_asset_non_pd_corner_closed_form():
    # A non-PD corner only drops dual candidates: the minimum sits at a PD
    # corner, which the dual bound finds in closed form and grid_oracle finds too.
    params = MarketParams(sigmas=NON_PD_CORNER_D3["sigmas"], horizon_T=1.0, lam=0.5, x0=1.0)
    gamma = GammaBox.box(NON_PD_CORNER_D3["lower"], NON_PD_CORNER_D3["upper"])
    spec = EllipsoidalSet(b_hat=np.array(NON_PD_CORNER_D3["b_hat"]), delta=0.0, gamma=gamma)
    assert not box_corners_pd(gamma.lower, gamma.upper, 3)
    sol = solve(spec, params)
    assert sol.case_label == "ThreeAsset.Case5iv"
    assert sol.r_star == 1.7631990603598477
    assert np.array_equal(sol.theta_star.rho, [0.228, 0.042, 0.199])
    assert sol.r_star == grid_oracle(spec, params, resolution=81).r_star
    _assert_one_factor_values(sol, spec, params)
    verify_saddle(sol, spec, params, samples=500, seed=3)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_non_pd_corner_boxes_match_numeric(seed):
    """Boxes that may have non-PD corners: solve gives a PD rho* in the box whose
    r* is never above the descent's beyond rounding (8 ulp) and within 1e-9 of
    it when the descent converges, or refuses the box with BoxNotPositiveDefinite."""
    spec, params = random_wide_three_asset_instance(np.random.default_rng(seed))
    assume(spec is not None)
    try:
        sol = solve(spec, params)
    except BoxNotPositiveDefinite:
        return
    assert contains(spec, sol.theta_star, params) and is_positive_definite(sol.theta_star.rho, 3)
    numeric = numeric_minimize(spec, params)
    assert sol.r_star <= numeric.r_star * (1.0 + 8 * np.finfo(float).eps), sol.case_label
    if numeric.diagnostics["converged"]:
        assert sol.r_star >= numeric.r_star * (1.0 - 1e-9), sol.case_label


def test_three_asset_point_box_keeps_corner_case():
    # A singleton box puts every all-traded candidate at one corner, so they tie:
    # the label comes from kappa's signs there, and r* is the box solve's.
    for label in ("ThreeAsset.Case5i", "ThreeAsset.Case5ii", "ThreeAsset.Case5iii", "ThreeAsset.Case5iv"):
        spec, params = curated_three_asset(label)
        sol = solve(spec, params)
        gamma = GammaBox.singleton(sol.theta_star.rho)
        at_point = solve(EllipsoidalSet(b_hat=spec.b_hat, delta=spec.delta, gamma=gamma), params)
        assert at_point.case_label == label
        assert at_point.r_star == sol.r_star


def test_two_asset_rejects_interval_without_pd_point(params2):
    # Both endpoints, and so every point between them, fail the PD test.
    spec = EllipsoidalSet(
        b_hat=np.array([0.4, 0.2]), delta=0.0, gamma=GammaBox.box([0.99999999999], [0.999999999995])
    )
    with pytest.raises(BoxNotPositiveDefinite) as caught:
        solve(spec, params2)
    assert caught.value.corner == (0.99999999999,)
    assert str(caught.value) == "correlation box corner (0.99999999999,) is not positive definite"


def test_three_asset_rejects_non_pd_box(params3):
    gamma = GammaBox.box([0.85, 0.85, -0.9], [0.9, 0.9, -0.8])  # corners violate PD
    for b_hat in ([0.5, 0.3, 0.2], [0.2, 0.5, 0.3]):  # sorted frame = input order, then permuted
        spec = EllipsoidalSet(b_hat=np.array(b_hat), delta=0.1, gamma=gamma)
        with pytest.raises(BoxNotPositiveDefinite) as caught:
            solve(spec, params3)
        # The corner comes as plain floats in the caller's pair order.
        assert str(caught.value) == "correlation box corner (0.85, 0.85, -0.9) is not positive definite"
        assert caught.value.corner == (0.85, 0.85, -0.9)
        assert all(type(r) is float for r in caught.value.corner)


@st.composite
def permuted_scaled_boxes(draw):
    """A random PD three-asset box with its assets permuted and rescaled."""
    spec, params = random_three_asset_instance(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    assume(spec is not None)
    perm = np.array(draw(st.permutations(range(3))))
    scale = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3)))
    gamma = GammaBox.box(*(permute_pairs(g, perm, 3) for g in (spec.gamma.lower, spec.gamma.upper)))
    spec = EllipsoidalSet(b_hat=spec.b_hat[perm] * scale, delta=spec.delta, gamma=gamma)
    return spec, MarketParams(sigmas=params.sigmas[perm] * scale, horizon_T=1.0, lam=0.5, x0=1.0)


@given(permuted_scaled_boxes())
def test_three_asset_label_signs_are_classify_signs(instance):
    """The label is keyed on the dual winner's signs in the sorted frame; mapped
    back to input order they are classify's reading of kappa*, up to one sign."""
    spec, params = instance
    sol = solve(spec, params)
    patterns = {label: pattern for pattern, label in solver_mod._DUAL_LABELS.items()}
    assume(sol.case_label in patterns and not sol.no_trade)  # Case 1 is `_one_asset`'s
    winner = np.zeros(3, dtype=int)
    winner[sol.diagnostics["order"]] = patterns[sol.case_label]
    signs = classify(sol, params).signs
    assert signs in (tuple(winner), tuple(-winner)), (sol.case_label, signs)


def test_three_asset_factorization_count(monkeypatch):
    """A three-asset solve factors its 13 dual candidates as one stack and
    makes exactly 1 scalar factorization: the one factor of Sigma(rho*), which
    is also rho*'s PD test.  Case 1 makes only the PD test of the one-asset
    completion, which is that factor."""
    counts = {}
    factor, stack = market_mod._factor, solver_mod._factor_stack

    def counted(key, fn):
        return lambda *args, **kwargs: counts.update({key: counts[key] + 1}) or fn(*args, **kwargs)

    monkeypatch.setattr(market_mod, "_factor", counted("scalar", factor))
    monkeypatch.setattr(solver_mod, "_factor_stack", counted("stacked", stack))
    for label in sorted(CURATED_THREE_ASSET):
        counts.update(scalar=0, stacked=0)
        assert solve(*curated_three_asset(label)).case_label == label
        if label == "ThreeAsset.Case1":
            assert counts == {"scalar": 1, "stacked": 0}, counts
            continue
        assert counts == {"scalar": 1, "stacked": 1}, (label, counts)


def _named_box(raw):
    """(spec, params) of a named box of conftest at delta = 0."""
    params = MarketParams(sigmas=raw["sigmas"], horizon_T=1.0, lam=0.5, x0=1.0)
    gamma = GammaBox.box(raw["lower"], raw["upper"])
    return EllipsoidalSet(b_hat=np.array(raw["b_hat"]), delta=0.0, gamma=gamma), params


def test_one_factorization_per_solved_point(monkeypatch, params2, reference_spec):
    """solve factors Sigma(rho*) once and the solution carries kappa*: robust_strategy,
    classify, value_v0 and strategy_report factor nothing.  Every two- and
    three-asset box that `_one_asset` does not solve adds the one stack of
    dual candidates."""
    counts = {"scalar": 0, "stacked": 0}

    def counted(key, fn):
        return lambda *args: counts.update({key: counts[key] + 1}) or fn(*args)

    monkeypatch.setattr(market_mod, "_factor", counted("scalar", market_mod._factor))
    monkeypatch.setattr(market_mod, "_factor_stack", counted("stacked", market_mod._factor_stack))
    monkeypatch.setattr(solver_mod, "_factor_stack", market_mod._factor_stack)
    instances = [
        (reference_spec, params2),
        (full_ambiguity_spec(reference_spec.b_hat, 0.1), params2),
        _named_box(STALLED_D4),
        curated_three_asset("ThreeAsset.Case5ii"),
        curated_three_asset("ThreeAsset.Case2i"),
    ]
    seen = []
    for spec, params in instances:
        counts.update(scalar=0, stacked=0)
        sol = solve(spec, params)
        solved = dict(counts)
        robust_strategy(sol, params)
        classify(sol, params)
        value_v0(sol, params)
        strategy_report(sol, params)
        label = sol.case_label
        seen.append(label)
        assert counts == solved, (label, solved, counts)
        stacked = label.startswith(("TwoAsset", "ThreeAsset")) and label != "TwoAsset.Interior"
        assert solved == {"scalar": 1, "stacked": int(stacked)}, (label, solved)
    assert seen == ["TwoAsset.Interior", "FullAmbiguity", "TopAsset", "ThreeAsset.Case5ii", "ThreeAsset.Case2i"]


def test_three_asset_permutation_equivariance():
    # permuting the assets must permute the solution accordingly
    spec, params = curated_three_asset("ThreeAsset.Case2i")
    base = solve(spec, params)
    perm = [2, 0, 1]
    sig_p = params.sigmas[perm]
    b_p = spec.b_hat[perm]

    def pair_position(i, j, d):
        return i * (2 * d - i - 3) // 2 + j - 1

    lo, hi = np.zeros(3), np.zeros(3)
    for i in range(3):
        for j in range(i + 1, 3):
            a, c = sorted((perm[i], perm[j]))
            lo[pair_position(i, j, 3)] = spec.gamma.lower[pair_position(a, c, 3)]
            hi[pair_position(i, j, 3)] = spec.gamma.upper[pair_position(a, c, 3)]
    params_p = MarketParams(sigmas=sig_p, horizon_T=1.0, lam=0.5, x0=1.0)
    spec_p = EllipsoidalSet(b_hat=b_p, delta=spec.delta, gamma=GammaBox.box(lo, hi))
    other = solve(spec_p, params_p)
    assert np.isclose(other.r_star, base.r_star, rtol=1e-10)
    assert np.allclose(other.theta_star.b, base.theta_star.b[perm], atol=1e-12)


def test_solve_product_singleton(params2):
    spec = ProductSet(
        delta_lower=np.array([0.3, 0.2]),
        delta_upper=np.array([0.3, 0.2]),
        gamma=GammaBox.singleton([0.2]),
    )
    sol = solve(spec, params2)
    assert sol.case_label == "Singleton"
    theta = ThetaPoint(b=[0.3, 0.2], rho=[0.2])
    assert sol.r_star == risk_premium(theta, params2)


def test_solve_product_zero_in_box(params2):
    spec = ProductSet(
        delta_lower=np.array([-0.1, -0.2]),
        delta_upper=np.array([0.4, 0.2]),
        gamma=GammaBox.box([-0.5], [0.5]),
    )
    sol = solve(spec, params2)
    assert sol.r_star == 0.0
    assert sol.no_trade
    assert np.array_equal(sol.theta_star.b, np.zeros(2))


def test_solve_product_matches_oracle(params2):
    spec = ProductSet(
        delta_lower=np.array([0.1, 0.1]),
        delta_upper=np.array([0.4, 0.2]),
        gamma=GammaBox.box([-0.5], [0.5]),
    )
    sol = solve(spec, params2)
    oracle = grid_oracle(spec, params2, 201)
    assert abs(sol.r_star - oracle.r_star) <= 1e-4
    assert sol.diagnostics["converged"]
    # variational inequality at the reported point
    from robustmv import risk_premium_gradients

    gb, gr = risk_premium_gradients(sol.theta_star, params2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        b = rng.uniform(spec.delta_lower, spec.delta_upper)
        rho = rng.uniform(spec.gamma.lower, spec.gamma.upper)
        if not is_positive_definite(rho, 2):
            continue
        slope = gb @ (b - sol.theta_star.b) + gr @ (rho - sol.theta_star.rho)
        assert slope >= -1e-7


def test_numeric_matches_closed_forms():
    rng = np.random.default_rng(303)
    for _ in range(10):
        spec, params = random_two_asset_instance(rng)
        closed = solve(spec, params)
        numeric = numeric_minimize(spec, params)
        assert abs(closed.r_star - numeric.r_star) < 1e-6


def test_numeric_singleton_exact(params2):
    spec = EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.0, gamma=GammaBox.singleton([0.3]))
    numeric = numeric_minimize(spec, params2)
    assert np.isclose(numeric.r_star, risk_premium(ThetaPoint(b=[0.4, 0.2], rho=[0.3]), params2))


# A d = 4 box on which descending the kinked score (s - delta)_+^2 stalled just
# short of the level set s = delta and reported a trade.  The certified
# minimum of s = sqrt(R(b_hat, rho)) over the box is 0.49084; at the box
# centre s = 0.5504.
FAULT_D4 = dict(
    sigmas=[0.70834659, 1.49966245, 1.95935927, 1.69161879],
    b_hat=[0.29641918, -0.243677, -0.1934055, -0.39573435],
    lower=[0.14971931, 0.15503296, -0.09224831, 0.01404342, -0.12231019, -0.12334398],
    upper=[0.34023451, 0.33030946, 0.07527979, 0.56504943, 0.36582844, 0.42024193],
)


@pytest.mark.parametrize("delta", [0.51, 0.49364341])
def test_numeric_no_trade_below_threshold(delta):
    params = MarketParams(sigmas=FAULT_D4["sigmas"], horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(
        b_hat=np.array(FAULT_D4["b_hat"]),
        delta=delta,
        gamma=GammaBox.box(FAULT_D4["lower"], FAULT_D4["upper"]),
    )
    sol = solve(spec, params)
    assert sol.case_label == "Numeric"
    assert sol.no_trade and sol.r_star == 0.0
    assert classify(sol, params).kind == "no_trade"
    assert sol.diagnostics["converged"]
    assert sol.diagnostics["iterations"] <= 100


def test_stalled_d4_one_asset_answer():
    params = MarketParams(sigmas=STALLED_D4["sigmas"], horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(
        b_hat=np.array(STALLED_D4["b_hat"]),
        delta=0.0,
        gamma=GammaBox.box(STALLED_D4["lower"], STALLED_D4["upper"]),
    )
    beta_4 = STALLED_D4["b_hat"][3] / STALLED_D4["sigmas"][3]
    sol = solve(spec, params)
    assert sol.case_label == "TopAsset"
    assert sol.r_star == pytest.approx(beta_4**2, rel=0.0, abs=1e-12)
    report = classify(sol, params)
    assert report.kind == "anti_diversification" and report.asset == 3


def test_non_pd_centre_box_starts_nearest_identity():
    spec, params = _named_box(NON_PD_CENTRE_D4)
    assert not is_positive_definite(0.5 * (spec.gamma.lower + spec.gamma.upper), 4)
    sol = solve(spec, params)
    assert sol.case_label == "Numeric" and sol.diagnostics["converged"]
    # Every PD grid node is a point of the set, so the oracle bounds the minimum from above.
    assert sol.r_star <= grid_oracle(spec, params, 7).r_star
    assert verify_saddle(sol, spec, params, samples=500, seed=1).ok


def test_numeric_minimize_reference_values():
    # Values recorded from the descent before both families ran one loop over
    # (b, rho); they must not move (numpy 2.4, x86-64).  ROADMAP item 9
    # replaces the descent, and these values with it.
    expected = {
        "stalled": (1.819709210746853, 166, False, [
            -0.3354320847265418, -0.21176033900339375, 0.3298866079269125,
            -0.3913010698296025, 0.2178614531595926, -0.9824198905199736]),
        "generated_d4": (1.1608012411407276, 6, True, [
            0.03971747740179826, 0.001151916533352837, -0.15122470745122005,
            -0.0656983136051001, -0.011441611307143038, -0.2918564383919348]),
        "generated_d5": (2.0388602380796375, 2, True, [
            -0.07910946138225244, 0.1044569107337987, -0.2518828711053489, 0.03197179751046264,
            -0.024549684316603655, 0.18879354595266673, 0.11742044835028646, 0.36155457999163726,
            0.02783730925968289, 0.00590306368372101]),
        "product_d4": (0.8630341946109281, 6, True, [
            0.03971747740179826, 0.006058572881257377, -0.15122470745122005,
            -0.06639058311597412, -0.011441611307143038, -0.28288314826874966]),
    }
    specs = {
        "stalled": _named_box(STALLED_D4),
        "generated_d4": _named_box(GENERATED_D4),
        "generated_d5": _named_box(GENERATED_D5),
    }
    box, params = specs["generated_d4"]
    sigmas, b_hat = np.asarray(GENERATED_D4["sigmas"]), box.b_hat
    product = ProductSet(delta_lower=b_hat - 0.1 * sigmas, delta_upper=b_hat + 0.1 * sigmas, gamma=box.gamma)
    specs["product_d4"] = product, params
    for name, (spec, params) in specs.items():
        sol = numeric_minimize(spec, params)
        r_star, iterations, converged, rho = expected[name]
        assert sol.r_star == r_star, name
        assert sol.diagnostics["iterations"] == iterations, name
        assert sol.diagnostics["converged"] is converged, name
        assert np.array_equal(sol.theta_star.rho, rho), name
    b_star = numeric_minimize(*specs["product_d4"]).theta_star.b
    assert np.array_equal(b_star, [0.46318145569645414, 0.8841899497646565, 0.2591460588394077, -0.9963529345355343])


def _certified_min_premium(beta, lower, upper, start, iters=5000):
    """Bracket [lo, hi] of min over box & PD of beta' C(rho)^{-1} beta, numpy only.

    Projected gradient with Barzilai-Borwein steps, counting points that are
    not positive definite as +inf.  R is convex on box & PD, a subset of the
    box, so at any feasible x, R(x) minus the Frank-Wolfe gap over the box is
    a lower bound on the minimum.
    """
    d = beta.size
    iu = np.triu_indices(d, 1)

    def value_grad(rho):
        c = np.eye(d)
        c[iu] = rho
        c[iu[1], iu[0]] = rho
        if np.linalg.eigvalsh(c)[0] <= 1e-9:
            return np.inf, None
        x = np.linalg.solve(c, beta)
        return float(beta @ x), -2.0 * x[iu[0]] * x[iu[1]]

    def fw_gap(g, x):
        return float(g @ x - np.minimum(g * lower, g * upper).sum())

    x = start
    f, g = value_grad(x)
    lo, hi = f - fw_gap(g, x), f
    step = 1.0
    for _ in range(iters):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        t = step
        while True:
            cand = np.clip(x - t * g, lower, upper)
            fc, gc = value_grad(cand)
            if fc <= f + 1e-4 * float(g @ (cand - x)) or t < 1e-16:
                break
            t *= 0.5
        if gc is None or not np.any(cand - x):
            break
        s, y = cand - x, gc - g
        step = float(s @ s) / float(s @ y) if float(s @ y) > 0.0 else 1.0
        x, f, g = cand, fc, gc
        lo, hi = max(lo, f - fw_gap(g, x)), min(hi, f)
    return lo, hi


@st.composite
def numeric_instances(draw):
    """Random d = 3-5 ellipsoidal boxes; the wide ones have non-PD corners."""
    d = draw(st.integers(3, 5))
    m = d * (d - 1) // 2

    def vector(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    sigmas = vector(0.5, 2.0, d)
    b_hat = vector(-1.0, 1.0, d)
    lower = vector(-0.9, 0.6, m)
    upper = np.minimum(lower + vector(0.0, 0.9, m), 0.95)
    assume(np.max(np.abs(b_hat / sigmas)) > 0.05)
    # project_rho repairs non-PD points toward this anchor, which must be PD.
    inside = np.all(lower <= 0.0) and np.all(upper >= 0.0)
    anchor = np.zeros(m) if inside else 0.5 * (lower + upper)
    assume(is_positive_definite(anchor, d))
    return sigmas, b_hat, lower, upper, anchor


@settings(max_examples=50)
@given(numeric_instances())
def test_numeric_matches_certified_minimum(instance):
    """r* = (s_min - delta)_+^2 over a delta grid around the no-trade threshold."""
    sigmas, b_hat, lower, upper, anchor = instance
    lo, hi = _certified_min_premium(b_hat / sigmas, lower, upper, anchor)
    # A minimum on the PD boundary (b_hat orthogonal to a null vector of C)
    # is certified by neither descent; the bracket still holds there.
    certified = hi - lo <= 1e-9 * max(1.0, hi)
    s_lo, s_hi = np.sqrt(max(lo, 0.0)), np.sqrt(hi)
    params = MarketParams(sigmas=sigmas, horizon_T=1.0, lam=0.5, x0=1.0)
    for share in (0.0, 0.5, 0.99, 1.01, 2.0):
        delta = share * s_hi
        spec = EllipsoidalSet(b_hat=b_hat, delta=delta, gamma=GammaBox.box(lower, upper))
        sol = numeric_minimize(spec, params)
        r_lo, r_hi = max(s_lo - delta, 0.0) ** 2, max(s_hi - delta, 0.0) ** 2
        assert r_lo - 1e-7 <= sol.r_star <= r_hi + 1e-7
        if certified:
            assert sol.diagnostics["converged"]
            assert sol.no_trade == (share > 1.0)


@st.composite
def one_asset_boxes(draw):
    """Random d = 3-6 boxes drawn as in numeric_instances; most are then moved
    to hold q in the top row, and some also q_j q_k in the other pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(3, 6))
    sigmas, b_hat = rng.uniform(0.5, 2.0, d), rng.uniform(-1.0, 1.0, d)
    betas = b_hat / sigmas
    assume(np.max(np.abs(betas)) > 0.05)
    m = d * (d - 1) // 2
    lower = rng.uniform(-0.9, 0.6, m)
    upper = np.minimum(lower + rng.uniform(0.0, 0.9, m), 0.95)
    top = int(np.argmax(np.abs(betas)))
    rows, cols = market_mod.pair_index(d)
    row = (rows == top) | (cols == top)
    around = draw(st.sampled_from(["none", "top row", "all pairs"]))
    if around != "none":
        q = market_mod.upper_pairs(np.outer(betas, betas)) / betas[top] ** 2
        assume(np.all(np.abs(q[row]) < 0.98))
        moved = row if around == "top row" else np.ones(m, dtype=bool)
        lower[moved] = np.maximum(q[moved] - rng.uniform(0.0, 0.3, moved.sum()), -0.99)
        upper[moved] = np.minimum(q[moved] + rng.uniform(0.0, 0.3, moved.sum()), 0.99)
    return sigmas, b_hat, lower, upper, top


@settings(max_examples=100)
@given(one_asset_boxes(), st.sampled_from([0.0, 0.5, 1.5]))
def test_one_asset_closed_form(instance, share):
    """When `_one_asset` fires, only the top asset is traded at r* = (|beta_top| - delta)_+^2."""
    sigmas, b_hat, lower, upper, top = instance
    d = sigmas.size
    params = MarketParams(sigmas=sigmas, horizon_T=1.0, lam=0.5, x0=1.0)
    assume(solver_mod._one_asset(lower, upper, market_mod.sharpe_profile(b_hat, params), params) is not None)
    beta_top = abs(b_hat[top] / sigmas[top])
    delta = share * beta_top
    spec = EllipsoidalSet(b_hat=b_hat, delta=delta, gamma=GammaBox.box(lower, upper))
    sol = solve(spec, params)
    assert sol.case_label == ("ThreeAsset.Case1" if d == 3 else "TopAsset")
    assert sol.r_star == max(beta_top - delta, 0.0) ** 2
    rho = sol.theta_star.rho
    assert np.all(lower <= rho) and np.all(rho <= upper) and is_positive_definite(rho, d)
    if sol.r_star > 0.0:
        report = classify(sol, params)
        assert report.kind == "anti_diversification" and report.asset == top
    # The delta = 0 premium: an independent descent brackets its minimum.
    centre = 0.5 * (lower + upper)
    start = centre if is_positive_definite(centre, d) else rho
    lo, hi = _certified_min_premium(b_hat / sigmas, lower, upper, start)
    assert lo - 1e-9 <= beta_top**2 <= hi + 1e-9
    if d == 3 and box_corners_pd(lower, upper, 3):
        spec0 = EllipsoidalSet(b_hat=b_hat, delta=0.0, gamma=spec.gamma)
        # No node of the grid, all of it PD, undercuts beta_top^2.
        assert grid_oracle(spec0, params, 21).r_star >= beta_top**2 * (1.0 - 1e-12)
        # Case 1 is exclusive: with it off no other case fires, and the descent finds beta_top^2.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver_mod, "_one_asset", lambda *args: None)
            numeric = solve(spec0, params)
        assert numeric.case_label == "Numeric" and numeric.diagnostics["case_fallthrough"]
        assert abs(numeric.r_star - beta_top**2) <= 1e-8


def test_grid_oracle_semantics(params2):
    spec = EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.5], [0.8]))
    oracle = grid_oracle(spec, params2, 2001)
    assert oracle.case_label == "Oracle"
    assert abs(oracle.theta_star.rho[0] - 0.5) <= 5e-4
    assert oracle.diagnostics["nodes"] == 2001

    singleton = grid_oracle(
        EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.0, gamma=GammaBox.singleton([0.3])),
        params2,
        5,
    )
    assert np.isclose(singleton.theta_star.rho[0], 0.3)

    with pytest.raises(GridTooLarge):
        grid_oracle(
            EllipsoidalSet(b_hat=np.zeros(6), delta=0.1, gamma=GammaBox.full(6)),
            MarketParams(sigmas=np.ones(6), horizon_T=1.0, lam=0.5, x0=1.0),
            41,
        )


def test_grid_oracle_default_resolution_counts_spanned_axes(params2):
    # One spanned pair beside two fixed drift bounds: one axis, so 2001 points.
    fixed_b = ProductSet(
        delta_lower=np.array([0.2, 0.1]), delta_upper=np.array([0.2, 0.1]), gamma=GammaBox.box([-0.5], [0.5])
    )
    oracle = grid_oracle(fixed_b, params2)
    assert oracle.diagnostics["resolution"] == 2001 and oracle.diagnostics["nodes"] == 2001
    # Both drift bounds spanned as well: three axes at 51 points.
    spanned = ProductSet(
        delta_lower=np.array([0.1, 0.1]), delta_upper=np.array([0.4, 0.2]), gamma=GammaBox.box([-0.5], [0.5])
    )
    assert grid_oracle(spanned, params2).diagnostics["nodes"] == 51**3


def test_grid_oracle_memory_bounded_by_chunk():
    # 101^3 nodes: evaluated all at once, their arrays reach a traced peak of about 125 MB.
    params = MarketParams(sigmas=[1.0, 1.2, 0.8], horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(
        b_hat=np.array([0.3, 0.2, 0.1]), delta=0.1, gamma=GammaBox.box([-0.5] * 3, [0.5] * 3)
    )
    tracemalloc.start()
    try:
        oracle = grid_oracle(spec, params, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle.diagnostics["nodes"] == 101**3
    assert peak < 32e6


def test_grid_oracle_skips_non_pd_nodes(params2):
    # resolution 3 over [-1+eps, 1-eps]: endpoints are non-PD at d=2 once delta=0
    spec = EllipsoidalSet(
        b_hat=np.array([0.3, 0.3]), delta=0.0, gamma=GammaBox.box([-0.999], [0.999])
    )
    oracle = grid_oracle(spec, params2, 3)
    assert oracle.diagnostics["feasible_nodes"] == 3  # all PD here, none skipped
    wide = grid_oracle(
        EllipsoidalSet(b_hat=np.array([0.3, 0.2]), delta=0.0, gamma=GammaBox.full(2)), params2, 3
    )
    assert wide.diagnostics["feasible_nodes"] == wide.diagnostics["nodes"]


def test_monotone_in_delta(params2):
    rhos = GammaBox.box([-0.5], [0.3])
    prev = np.inf
    for delta in np.linspace(0.0, 0.6, 25):
        sol = solve(
            EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=float(delta), gamma=rhos), params2
        )
        assert sol.r_star <= prev + 1e-15
        prev = sol.r_star
    assert prev == 0.0


def test_scale_equivariance(params2):
    spec = EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.5], [0.3]))
    base = solve(spec, params2)
    for t in (0.5, 2.0, 7.0):
        scaled = solve(
            EllipsoidalSet(b_hat=t * np.array([0.4, 0.2]), delta=t * 0.1, gamma=spec.gamma),
            params2,
        )
        assert np.isclose(np.sqrt(scaled.r_star), t * np.sqrt(base.r_star), rtol=1e-12)
        assert np.allclose(scaled.theta_star.rho, base.theta_star.rho)


def _scaled(spec, k):
    """spec with b_hat and delta times 2^k, exactly."""
    return EllipsoidalSet(b_hat=np.ldexp(spec.b_hat, k), delta=float(np.ldexp(spec.delta, k)), gamma=spec.gamma)


@settings(max_examples=150)
@given(
    st.sampled_from(sorted(CURATED_THREE_ASSET))
    | st.tuples(st.sampled_from(["d2", "d3"]), st.integers(0, 2**32 - 1)),
    st.integers(-500, 480),
)
def test_closed_forms_scale_by_powers_of_two(source, k):
    """b_hat and delta times 2^k keep the label and rho* bitwise and give r* * 4^k bitwise:
    the closed forms read only scale-free quantities of b_hat, and `_dual` scores its
    candidates on beta scaled to max |beta| in [1/2, 1)."""
    if isinstance(source, str):
        spec, params = curated_three_asset(source)
    else:
        spec, params = random_set_instance(source[0], np.random.default_rng(source[1]))
        assume(spec is not None)
    base = solve(spec, params)
    assume(base.case_label != "Numeric")
    # Keep r* * 4^k a normal float, where scaling by a power of two is exact.
    assume(base.r_star == 0.0 or np.ldexp(base.r_star, 2 * k) >= np.finfo(float).tiny)
    sol = solve(_scaled(spec, k), params)
    assert sol.case_label == base.case_label
    assert sol.theta_star.rho.tobytes() == base.theta_star.rho.tobytes()
    assert sol.r_star == np.ldexp(base.r_star, 2 * k)


@settings(max_examples=30)
@given(st.sampled_from(["d4", "d5"]), st.integers(-30, 30))
@example("d4", -13)
def test_numeric_fallback_scale_invariant(which, k):
    """The descent on the generated d = 4 and 5 boxes finds the same minimum, up to 4^k,
    at every scale 2^k of b_hat: its stopping test is relative to R.  With an absolute
    test, the d = 4 box at b_hat * 2^-13 stopped at its start point after 1 iteration,
    converged=True and r* 22% too high."""
    spec, params = _named_box(GENERATED_D4 if which == "d4" else GENERATED_D5)
    base = solve(spec, params)
    sol = solve(_scaled(spec, k), params)
    assert sol.case_label == "Numeric" and sol.diagnostics["converged"]
    assert math.isclose(np.ldexp(sol.r_star, -2 * k), base.r_star, rel_tol=1e-7)


def test_verify_saddle_pass_and_negative_control(params2, reference_spec):
    sol = solve(reference_spec, params2)
    report = verify_saddle(sol, reference_spec, params2, samples=500, seed=21)
    assert report.ok
    assert report.worst_upper_margin <= 1e-8
    assert report.worst_lower_margin >= -1e-8

    # Deliberately wrong correlation (upper side breaks) and drift shrunk by
    # 2% (lower side breaks, first at a later draw): the raised draw is the
    # first offending one in draw order, its upper side tested first.
    for theta_bad in (ThetaPoint(b=sol.theta_star.b, rho=[0.0]), ThetaPoint(b=0.98 * sol.theta_star.b, rho=[0.5])):
        bad = solver_mod.WorstCaseSolution(
            theta_star=theta_bad,
            r_star=sol.r_star,
            case_label="Numeric",
            direction=variance_risk_ratio(theta_bad, params2),
        )
        with pytest.raises(SaddleViolated) as raised:
            verify_saddle(bad, reference_spec, params2, samples=500, seed=21)
        margins = _saddle_margins(bad, reference_spec, params2, 500, 21)
        theta, up, low = next(m for m in margins if m[1] > 1e-8 or m[2] < -1e-8)
        assert raised.value.theta.b.tobytes() == theta.b.tobytes()
        assert raised.value.theta.rho.tobytes() == theta.rho.tobytes()
        assert np.isclose(raised.value.margin, up if up > 1e-8 else low, rtol=1e-12)


def _saddle_margins(solution, spec, params, samples, seed):
    """(draw, H(b*, rho) - r*, H(b, rho*) - r*) per draw, one dense matrix product each."""
    kappa = variance_risk_ratio(solution.theta_star, params)
    sig = np.outer(params.sigmas, params.sigmas)
    return [
        (t, kappa @ (correlation_matrix(t.rho, params.d) * sig) @ kappa - solution.r_star, t.b @ kappa - solution.r_star)
        for t in sample(spec, samples, seed=seed, params=params)
    ]


@given(st.sampled_from(["d2", "d3", "full", "product"]), st.integers(0, 2**32 - 1))
def test_verify_saddle_matches_per_draw_loop(family, seed):
    spec, params = random_set_instance(family, np.random.default_rng(seed))
    assume(spec is not None)
    sol = solve(spec, params)
    # tol = inf compares the margins whether or not the solution is a saddle point.
    report = verify_saddle(sol, spec, params, samples=200, seed=seed, tol=np.inf)
    margins = _saddle_margins(sol, spec, params, 200, seed)
    assert abs(report.worst_upper_margin - max(up for _, up, _ in margins)) <= 1e-12
    assert abs(report.worst_lower_margin - min(low for _, _, low in margins)) <= 1e-12


@pytest.mark.parametrize("d", [7, 8])
def test_verify_saddle_full_set_large_d(d):
    # The full set's proposals are PD by construction, so the check does not
    # slow down as the PD share of the correlation cube shrinks with d (it is
    # about 0.001 at d = 6 and far smaller beyond).
    rng = np.random.default_rng(d)
    params = MarketParams(sigmas=rng.uniform(0.5, 2.0, d), horizon_T=1.0, lam=0.5, x0=1.0)
    b_hat = rng.uniform(-1.0, 1.0, d)
    b_hat[0] = 3.0
    spec = full_ambiguity_spec(b_hat, 0.1)
    sol = solve(spec, params)
    start = time.perf_counter()
    report = verify_saddle(sol, spec, params, samples=150, seed=d)
    assert time.perf_counter() - start < 1.0
    assert report.ok and report.samples == 150


def test_verify_saddle_singleton_margins_zero(params2):
    spec = ProductSet(
        delta_lower=np.array([0.3, 0.2]),
        delta_upper=np.array([0.3, 0.2]),
        gamma=GammaBox.singleton([0.2]),
    )
    sol = solve(spec, params2)
    report = verify_saddle(sol, spec, params2, samples=50, seed=1)
    assert abs(report.worst_upper_margin) < 1e-12
    assert abs(report.worst_lower_margin) < 1e-12


def _assert_one_factor_values(sol, spec, params):
    """direction is bitwise variance_risk_ratio(theta*), and for ellipsoidal sets r* is
    bitwise _shrink at s = sqrt(R(b_hat, rho*)); the one-asset closed form keeps its
    exact s = |beta_top|, which R at rho* meets only to rounding."""
    assert sol.direction.tobytes() == variance_risk_ratio(sol.theta_star, params).tobytes()
    if isinstance(spec, EllipsoidalSet):
        premium = risk_premium(ThetaPoint(b=spec.b_hat, rho=sol.theta_star.rho), params)
        s = sol.diagnostics.get("top_sharpe", math.sqrt(premium))
        assert sol.r_star == solver_mod._shrink(spec.b_hat, s, spec.delta)[1]
        assert math.isclose(s * s, premium, rel_tol=1e-12)


def test_solution_carries_direction_on_named_instances(params2, reference_spec):
    fault_params = MarketParams(sigmas=FAULT_D4["sigmas"], horizon_T=1.0, lam=0.5, x0=1.0)
    fault = EllipsoidalSet(
        b_hat=np.array(FAULT_D4["b_hat"]), delta=0.3, gamma=GammaBox.box(FAULT_D4["lower"], FAULT_D4["upper"])
    )
    instances = [
        (reference_spec, params2),
        (full_ambiguity_spec(reference_spec.b_hat, 0.1), params2),
        _named_box(STALLED_D4),
        (fault, fault_params),
        *(curated_three_asset(label) for label in sorted(CURATED_THREE_ASSET)),
    ]
    for spec, params in instances:
        _assert_one_factor_values(solve(spec, params), spec, params)
    case2i, params3 = curated_three_asset("ThreeAsset.Case2i")
    product = ProductSet(np.array([0.2, -0.1]), np.array([0.4, 0.3]), GammaBox.box([-0.5], [0.6]))
    for spec, params, resolution in ((reference_spec, params2, 201), (case2i, params3, 9), (product, params2, 21)):
        _assert_one_factor_values(grid_oracle(spec, params, resolution), spec, params)
    singleton = ProductSet(np.array([0.3, 0.2]), np.array([0.3, 0.2]), GammaBox.singleton([0.2]))
    no_trade = ProductSet(np.array([-0.1, -0.2]), np.array([0.3, 0.4]), GammaBox.box([-0.2], [0.7]))
    for spec, label in ((singleton, "Singleton"), (no_trade, "Product.NoTrade")):
        sol = solve(spec, params2)
        assert sol.case_label == label
        _assert_one_factor_values(sol, spec, params2)
    theta0 = ThetaPoint(b=[0.4, 0.2], rho=[0.3])
    kappa0 = classical_strategy(theta0, params2).allocation_direction
    assert kappa0.tobytes() == variance_risk_ratio(theta0, params2).tobytes()


@settings(max_examples=60)
@given(st.sampled_from(["d2", "d3", "full", "product"]), st.integers(0, 2**32 - 1))
def test_solution_carries_direction_random_sets(family, seed):
    spec, params = random_set_instance(family, np.random.default_rng(seed))
    assume(spec is not None)
    _assert_one_factor_values(solve(spec, params), spec, params)


@settings(max_examples=20)
@given(numeric_instances(), st.sampled_from([0.0, 0.3]))
def test_solution_carries_direction_random_boxes(instance, delta):
    sigmas, b_hat, lower, upper, _ = instance
    params = MarketParams(sigmas=sigmas, horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(b_hat=b_hat, delta=delta, gamma=GammaBox.box(lower, upper))
    try:
        sol = solve(spec, params)
    except BoxNotPositiveDefinite:
        return
    _assert_one_factor_values(sol, spec, params)


def test_solve_dispatcher_one_asset():
    p1 = MarketParams(sigmas=[2.0], horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(b_hat=np.array([0.5]), delta=0.1, gamma=GammaBox.box([], []))
    sol = solve(spec, p1)
    assert sol.case_label == "OneAsset"
    assert np.isclose(sol.r_star, (0.25 - 0.1) ** 2)


def test_solve_dispatcher_zero_drift(params2):
    spec = EllipsoidalSet(b_hat=np.zeros(2), delta=0.1, gamma=GammaBox.box([-0.5], [0.5]))
    with pytest.raises(ZeroDrift):
        solve(spec, params2)


def test_no_trade_threshold_flip(params2, reference_spec):
    # threshold = 0.4 at the interior worst case
    for delta, expect in ((0.4 - 1e-9, False), (0.4 + 1e-9, True)):
        sol = solve(
            EllipsoidalSet(b_hat=reference_spec.b_hat, delta=delta, gamma=reference_spec.gamma),
            params2,
        )
        assert sol.no_trade is expect
