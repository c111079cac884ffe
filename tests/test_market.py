"""Correlation algebra, premium, gradients, Sharpe profiles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import robustmv
from robustmv import (
    EllipsoidalSet,
    GammaBox,
    MarketParams,
    NotPositiveDefinite,
    ThetaPoint,
    correlation_matrix,
    covariance_from,
    is_positive_definite,
    risk_premium,
    risk_premium_gradients,
    saddle_value,
    sharpe_profile,
    solve,
    variance_risk_ratio,
)
from robustmv import sample
from robustmv.market import PD_TOLERANCE, _factor, _factor_stack, correlation_stack, n_pairs, upper_pairs

from conftest import fd_gradient, permute_pairs, premium_2x2

# A numpy overflow or invalid operation fails the test instead of hiding in a result.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_correlation_matrix_placement():
    assert np.array_equal(correlation_matrix([0.0], 2), np.eye(2))
    c = correlation_matrix([0.5, 0.2, -0.1], 3)
    expected = np.array([[1, 0.5, 0.2], [0.5, 1, -0.1], [0.2, -0.1, 1.0]])
    assert np.array_equal(c, expected)
    assert np.array_equal(c, c.T)  # bitwise symmetric


def test_correlation_matrix_boundary_representable():
    c = correlation_matrix([1.0], 2)
    assert np.array_equal(c, np.ones((2, 2)))
    assert not is_positive_definite([1.0], 2)


def test_is_positive_definite_hand_checked():
    # det = 1 + 2*0.9^3 - 3*0.81 = 0.028 > 0 and 1 - 0.81 > 0
    assert is_positive_definite([0.9, 0.9, 0.9], 3)
    # det = 1 - 3*0.81 - 2*0.729 < 0
    assert not is_positive_definite([0.9, -0.9, 0.9], 3)
    assert is_positive_definite([0.999999], 2)
    assert not is_positive_definite([1.0], 2)


def test_pd_agrees_with_sylvester_minors():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        rho = rng.uniform(-1.0, 1.0, d * (d - 1) // 2)
        corr = correlation_matrix(rho, d)
        minors = [np.linalg.det(corr[: k + 1, : k + 1]) for k in range(d)]
        if min(minors) > 1e-8:
            assert is_positive_definite(rho, d)
        elif min(minors) < -1e-8:
            assert not is_positive_definite(rho, d)
        # within the tolerance band either answer is acceptable


def test_covariance_examples():
    p = MarketParams(sigmas=[2.0, 3.0], horizon_T=1.0, lam=0.5, x0=1.0)
    cov = covariance_from([0.0], p)
    assert np.allclose(cov.matrix, np.diag([4.0, 9.0]))

    p11 = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    cov = covariance_from([0.5], p11)
    assert np.allclose(cov.matrix, [[1.0, 0.5], [0.5, 1.0]])

    p3 = MarketParams(sigmas=[1.0, 2.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    cov = covariance_from([0.5, 0.2, -0.1], p3)
    assert np.isclose(cov.matrix[0, 1], 1.0)
    assert np.isclose(cov.matrix[0, 2], 0.2)
    assert np.isclose(cov.matrix[1, 2], -0.2)


def test_covariance_rejects_non_pd_with_pivot():
    p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    with pytest.raises(NotPositiveDefinite) as err:
        covariance_from([1.0], p)
    assert err.value.pivot_index == 1


def test_factor_reconstructs_covariance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        rho = rng.uniform(-0.5, 0.5, d * (d - 1) // 2)
        if not is_positive_definite(rho, d):
            continue
        p = MarketParams(sigmas=rng.uniform(0.5, 2.0, d), horizon_T=1.0, lam=1.0, x0=0.0)
        cov = covariance_from(rho, p)
        recon = cov.chol @ cov.chol.T
        assert np.allclose(recon, cov.matrix, rtol=1e-12, atol=1e-14)


def test_risk_premium_examples():
    p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    assert np.isclose(risk_premium(ThetaPoint(b=[0.3, 0.4], rho=[0.0]), p), 0.25)

    p1 = MarketParams(sigmas=[2.0], horizon_T=1.0, lam=0.5, x0=1.0)
    assert np.isclose(risk_premium(ThetaPoint(b=[0.5], rho=[]), p1), 0.0625)

    # derived via the explicit 2x2 inverse
    expected = premium_2x2(0.4, 0.2, 1.0, 1.0, 0.5)
    got = risk_premium(ThetaPoint(b=[0.4, 0.2], rho=[0.5]), p)
    assert np.isclose(got, expected, rtol=1e-12)
    assert np.isclose(got, 0.16)


def test_premium_nonnegative_and_zero_iff_zero_drift():
    rng = np.random.default_rng(17)
    p = MarketParams(sigmas=[1.0, 1.5, 0.7], horizon_T=1.0, lam=0.5, x0=1.0)
    for _ in range(100):
        rho = rng.uniform(-0.4, 0.4, 3)
        if not is_positive_definite(rho, 3):
            continue
        b = rng.uniform(-1, 1, 3)
        r = risk_premium(ThetaPoint(b=b, rho=rho), p)
        assert r >= 0.0
        assert risk_premium(ThetaPoint(b=[0.0, 0.0, 0.0], rho=rho), p) == 0.0
        if np.max(np.abs(b)) > 1e-3:
            assert r > 0.0


def test_variance_risk_ratio_examples():
    p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    kappa = variance_risk_ratio(ThetaPoint(b=[0.4, 0.2], rho=[0.5]), p)
    assert np.allclose(kappa, [0.4, 0.0], atol=1e-14)  # vanishes at the proximity point

    kappa = variance_risk_ratio(ThetaPoint(b=[0.3, 0.4], rho=[0.0]), p)
    assert np.allclose(kappa, [0.3, 0.4])

    p23 = MarketParams(sigmas=[2.0, 3.0], horizon_T=1.0, lam=0.5, x0=1.0)
    kappa = variance_risk_ratio(ThetaPoint(b=[0.4, 0.9], rho=[0.0]), p23)
    assert np.allclose(kappa, [0.1, 0.1])


def test_premium_equals_b_dot_kappa():
    rng = np.random.default_rng(23)
    p = MarketParams(sigmas=[0.8, 1.2, 2.0, 0.5], horizon_T=1.0, lam=0.5, x0=1.0)
    for _ in range(100):
        rho = rng.uniform(-0.35, 0.35, 6)
        if not is_positive_definite(rho, 4):
            continue
        b = rng.uniform(-1, 1, 4)
        theta = ThetaPoint(b=b, rho=rho)
        r = risk_premium(theta, p)
        assert np.isclose(b @ variance_risk_ratio(theta, p), r, rtol=1e-12)


def test_joint_convexity_probe():
    rng = np.random.default_rng(31)
    p = MarketParams(sigmas=[1.0, 1.3, 0.9], horizon_T=1.0, lam=0.5, x0=1.0)
    done = 0
    while done < 100:
        rho1 = rng.uniform(-0.5, 0.5, 3)
        rho2 = rng.uniform(-0.5, 0.5, 3)
        t = rng.uniform(0.05, 0.95)
        mid_rho = t * rho1 + (1 - t) * rho2
        if not all(is_positive_definite(r, 3) for r in (rho1, rho2, mid_rho)):
            continue
        b1, b2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        r1 = risk_premium(ThetaPoint(b=b1, rho=rho1), p)
        r2 = risk_premium(ThetaPoint(b=b2, rho=rho2), p)
        rm = risk_premium(ThetaPoint(b=t * b1 + (1 - t) * b2, rho=mid_rho), p)
        assert rm <= t * r1 + (1 - t) * r2 + 1e-10
        done += 1


def test_gradient_examples():
    p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    gb, gr = risk_premium_gradients(ThetaPoint(b=[0.4, 0.2], rho=[0.5]), p)
    assert np.allclose(gb, [0.8, 0.0], atol=1e-14)
    assert np.allclose(gr, [0.0], atol=1e-14)  # stationary at the proximity point

    gb, gr = risk_premium_gradients(ThetaPoint(b=[0.0, 0.0], rho=[0.2]), p)
    assert np.allclose(gb, 0.0) and np.allclose(gr, 0.0)

    # derived by central finite differences: d/drho of (0.25 - 0.24 rho)/(1 - rho^2)
    theta = ThetaPoint(b=[0.3, 0.4], rho=[0.0])
    gb, gr = risk_premium_gradients(theta, p)
    fd = fd_gradient(theta, p)
    assert np.isclose(gr[0], -0.24, rtol=1e-12)
    assert np.linalg.norm(np.concatenate([gb, gr]) - fd) < 1e-6 * np.linalg.norm(fd)


def test_gradients_match_finite_differences():
    # 20 PD draws at each d = 2..6, pairs in [-0.7, 0.7].
    rng = np.random.default_rng(41)
    checked = np.zeros(7, dtype=int)
    while checked.sum() < 100:
        d = int(np.argmin(checked[2:])) + 2
        p = MarketParams(sigmas=rng.uniform(0.5, 2.0, d), horizon_T=1.0, lam=0.5, x0=1.0)
        rho = rng.uniform(-0.7, 0.7, d * (d - 1) // 2)
        if not is_positive_definite(rho, d):
            continue
        theta = ThetaPoint(b=rng.uniform(-1, 1, d), rho=rho)
        gb, gr = risk_premium_gradients(theta, p)
        analytic = np.concatenate([gb, gr])
        fd = fd_gradient(theta, p)
        assert np.linalg.norm(analytic - fd) < 1e-6 * max(np.linalg.norm(analytic), 1e-12)
        checked[d] += 1


def test_saddle_value_reduces_to_premium_at_star():
    p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    theta = ThetaPoint(b=[0.3, 0.15], rho=[0.5])
    h = saddle_value(theta.b, theta.rho, theta, p)
    assert np.isclose(h, risk_premium(theta, p), rtol=1e-12)


def test_saddle_inequalities_sampled(params2, reference_spec):
    sol = solve(reference_spec, params2)
    theta_star = sol.theta_star
    draws = sample(reference_spec, 200, seed=9, params=params2)
    for theta in draws:
        assert saddle_value(theta_star.b, theta.rho, theta_star, params2) <= sol.r_star + 1e-8
        assert saddle_value(theta.b, theta_star.rho, theta_star, params2) >= sol.r_star - 1e-8


def test_sharpe_profile_examples():
    p = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    prof = sharpe_profile([0.2, 0.4], p)
    assert prof.order.tolist() == [1, 0]
    assert np.isclose(prof.betas[prof.order[1]] / prof.betas[prof.order[0]], 0.5)

    p21 = MarketParams(sigmas=[2.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    prof = sharpe_profile([0.8, 0.3], p21)
    assert np.allclose(prof.betas, [0.4, 0.3])
    assert prof.order.tolist() == [0, 1]
    assert np.isclose(prof.betas[prof.order[1]] / prof.betas[prof.order[0]], 0.75)

    prof = sharpe_profile([0.0, 0.0], p)
    assert prof.zero_drift


def test_sharpe_profile_stable_ties():
    p = MarketParams(sigmas=[1.0, 1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    prof = sharpe_profile([0.3, 0.3, 0.1], p)
    assert prof.order.tolist() == [0, 1, 2]


@pytest.mark.parametrize(
    "field, value",
    [("sigmas", [1.0, np.inf]), ("horizon_T", np.inf), ("lam", np.inf), ("x0", np.nan), ("x0", -np.inf)],
)
def test_market_params_reject_non_finite(field, value):
    kwargs = dict(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        MarketParams(**kwargs)


def test_theta_point_rejects_non_finite_drift():
    with pytest.raises(ValueError, match="^b must be finite$"):
        ThetaPoint(b=[0.4, np.nan], rho=[0.2])


def test_constructors_copy_caller_arrays():
    # Stored arrays are read-only copies; the caller's arrays stay writeable and unaliased.
    r, s, b = np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 0.5]), np.array([0.4, 0.2, 0.1])
    lo, hi = np.array([-0.1, 0.0, 0.1]), np.array([0.2, 0.3, 0.4])
    correlation_matrix(r, 3)
    params = MarketParams(sigmas=s, horizon_T=1.0, lam=0.5, x0=1.0)
    theta = ThetaPoint(b=b, rho=r)
    box = GammaBox.box(lo, hi)
    spec = EllipsoidalSet(b_hat=b, delta=0.1, gamma=box)
    singleton = GammaBox.singleton(r)
    callers = (r, s, b, lo, hi)
    stored = (params.sigmas, theta.b, theta.rho, box.lower, box.upper, spec.b_hat, singleton.lower)
    assert all(arr.flags.writeable for arr in callers)
    assert not any(arr.flags.writeable for arr in stored)
    before = [arr.copy() for arr in stored]
    for arr in callers:
        arr[0] = 0.05
    assert all(np.array_equal(arr, old) for arr, old in zip(stored, before))


def test_import_loads_no_scipy():
    code = "import sys, robustmv; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(robustmv.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


@st.composite
def pair_layouts(draw):
    d = draw(st.integers(1, 6))
    m = d * (d - 1) // 2
    rho = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    perm = np.array(draw(st.permutations(range(d))), dtype=int)
    return d, rho, perm


@given(pair_layouts())
def test_pair_layout_round_trip_and_permutation(layout):
    d, rho, perm = layout
    c = correlation_matrix(rho, d)
    assert upper_pairs(c).tobytes() == rho.tobytes()  # bitwise, signed zeros included
    assert correlation_matrix(upper_pairs(c), d).tobytes() == c.tobytes()

    def position(i, j):
        return i * (2 * d - i - 3) // 2 + j - 1

    expected = np.zeros_like(rho)
    for i in range(d):
        for j in range(i + 1, d):
            a, b = sorted((perm[i], perm[j]))
            expected[position(i, j)] = rho[position(a, b)]
    permuted = permute_pairs(rho, perm, d)
    assert permuted.tobytes() == expected.tobytes()
    assert permute_pairs(permuted, np.argsort(perm), d).tobytes() == rho.tobytes()


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_factor_stack_matches_factor(d, seed):
    """The stacked pivot test gives _factor's verdicts, failing pivots and L."""
    rng = np.random.default_rng(seed)
    rhos = rng.uniform(-1.0, 1.0, (40, n_pairs(d)))
    # Points bisected onto the PD boundary as project_rho does: the last PD
    # point and the first non-PD one of 60 halvings toward the origin.
    boundary = []
    for rho in rhos[:8]:
        if is_positive_definite(rho, d):
            continue
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if is_positive_definite(mid * rho, d) else (lo, mid)
        boundary += [lo * rho, hi * rho]
    rhos = np.concatenate([rhos, np.reshape(boundary, (len(boundary), n_pairs(d)))])
    corr = correlation_stack(rhos, d)
    assert all(np.array_equal(c, correlation_matrix(r, d)) for c, r in zip(corr, rhos))
    assert is_positive_definite(rhos, d).tolist() == [is_positive_definite(r, d) for r in rhos]
    # Rank-deficient Gram matrices fail at inner pivots; a diagonal entry of
    # exactly PD_TOLERANCE * max(diagonal) must fail as well.
    factors = rng.standard_normal((20, d, int(rng.integers(1, d + 1))))
    exact = np.tile(np.eye(d), (d, 1, 1))
    if d > 1:
        exact[np.arange(d), np.arange(d), np.arange(d)] = PD_TOLERANCE
    stack = np.concatenate([corr, factors @ factors.transpose(0, 2, 1), exact])
    lower, bad = _factor_stack(stack)
    for a, l_stack, k in zip(stack, lower, bad):
        l_ref, k_ref = _factor(a)
        assert k == (-1 if k_ref is None else k_ref)
        if l_ref is None:
            assert not l_stack.any()
        else:
            assert np.array_equal(l_stack, l_ref)


def _factor_loop(matrix):
    """_factor with every product formed, the empty ones at k = 0 too: the bitwise reference."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    lower = np.zeros_like(a)
    threshold = PD_TOLERANCE * float(np.max(np.diag(a))) if n else 0.0
    for k in range(n):
        pivot = a[k, k] - lower[k, :k] @ lower[k, :k]
        if not pivot > threshold:
            return None, k
        lower[k, k] = math.sqrt(pivot)
        if k + 1 < n:
            lower[k + 1:, k] = (a[k + 1:, k] - lower[k + 1:, :k] @ lower[k, :k]) / lower[k, k]
    return lower, None


def _factor_stack_loop(a):
    """_factor_stack with every product formed, the empty ones at k = 0 too: the bitwise reference."""
    n, d = a.shape[0], a.shape[-1]
    lower = np.zeros_like(a)
    bad = np.full(n, -1)
    threshold = PD_TOLERANCE * np.max(np.diagonal(a, axis1=1, axis2=2), axis=1) if d else 0.0
    for k in range(d):
        row = lower[:, k, None, :k]
        pivot = a[:, k, k] - (row @ row.transpose(0, 2, 1))[:, 0, 0]
        bad[(bad < 0) & ~(pivot > threshold)] = k
        root = np.sqrt(np.where(bad < 0, pivot, 1.0))
        lower[:, k, k] = root
        if k + 1 < d:
            below = lower[:, k + 1:, :k] @ row.transpose(0, 2, 1)
            lower[:, k + 1:, k] = (a[:, k + 1:, k] - below[:, :, 0]) / root[:, None]
    lower[bad >= 0] = 0.0
    return lower, bad


@pytest.mark.parametrize("d", range(1, 7))
def test_factor_matches_reference_loop_bitwise(d):
    """_factor and _factor_stack give the reference loops' L, verdict and failing pivot, bit for bit."""
    rng = np.random.default_rng(100 + d)
    m = n_pairs(d)
    rhos = rng.uniform(-1.0, 1.0, (400, m)) * rng.uniform(0.0, 1.0, (400, 1))
    # The last PD point and the first non-PD one of project_rho's bisection toward the origin.
    boundary = []
    for rho in rhos[:40]:
        if is_positive_definite(rho, d):
            continue
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if is_positive_definite(mid * rho, d) else (lo, mid)
        boundary += [lo * rho, hi * rho]
    rhos = np.concatenate([rhos, np.reshape(boundary, (len(boundary), m))])
    gram = rng.standard_normal((200, d, d))
    deficient = rng.standard_normal((200, d, int(rng.integers(1, d + 1))))
    exact = np.tile(np.eye(d), (d, 1, 1))  # one diagonal entry exactly PD_TOLERANCE * max(diagonal)
    exact[np.arange(d), np.arange(d), np.arange(d)] = PD_TOLERANCE
    # NaN and infinite entries, off the diagonal (placed symmetrically) and on it.
    broken = np.tile(correlation_stack(rhos[:1], d), (8, 1, 1))
    i, j = (0, d - 1) if d > 1 else (0, 0)
    for k, value in enumerate((np.nan, np.inf, -np.inf, 1e308)):
        broken[k, i, j] = broken[k, j, i] = value
        broken[4 + k, d - 1, d - 1] = value
    stack = np.concatenate([
        correlation_stack(rhos, d), gram @ gram.transpose(0, 2, 1), deficient @ deficient.transpose(0, 2, 1),
        exact, broken,
    ])
    with np.errstate(all="ignore"):
        lower, bad = _factor_stack(stack)
        lower_ref, bad_ref = _factor_stack_loop(stack)
        assert lower.tobytes() == lower_ref.tobytes() and bad.tolist() == bad_ref.tolist()
        for a in stack:
            (l_new, k_new), (l_ref, k_ref) = _factor(a), _factor_loop(a)
            assert k_new == k_ref
            assert (l_new is None) == (l_ref is None)
            assert l_new is None or l_new.tobytes() == l_ref.tobytes()
