"""Membership, projections, sampling, schedules."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from robustmv import (
    EllipsoidalSet,
    GammaBox,
    MarketParams,
    ProductSet,
    SamplingExhausted,
    ThetaPoint,
    contains,
    is_positive_definite,
    project_b,
    project_rho,
    sample,
)
from robustmv import ambiguity as amb
from robustmv.ambiguity import ThetaProcessSchedule, drift_distance, schedule_within
from robustmv.market import _half_solve_stack, covariance_factor_stack

from conftest import full_ambiguity_spec, lu_half_solve_stack, random_set_instance

# A numpy overflow or invalid operation fails the test instead of hiding in a result.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture
def ell2(params2):
    return EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.5], [0.8]))


def test_contains_ellipsoid_center(params2, ell2):
    assert contains(ell2, ThetaPoint(b=[0.4, 0.2], rho=[0.3]), params2)


def test_contains_ellipsoid_norm(params2):
    spec = EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.9], [0.9]))
    # identity covariance: distance is plain Euclidean, 0.11 > 0.1
    assert not contains(spec, ThetaPoint(b=[0.4, 0.31], rho=[0.0]), params2)
    assert contains(spec, ThetaPoint(b=[0.4, 0.30], rho=[0.0]), params2)


def test_contains_product_boundary_inclusive(params2):
    spec = ProductSet(
        delta_lower=np.zeros(2), delta_upper=np.ones(2), gamma=GammaBox.box([-0.5], [0.5])
    )
    assert contains(spec, ThetaPoint(b=[0.5, 1.0], rho=[0.5]), params2)
    assert not contains(spec, ThetaPoint(b=[0.5, 1.0001], rho=[0.5]), params2)


def test_contains_requires_pd(params2):
    spec = EllipsoidalSet(b_hat=np.array([0.1, 0.1]), delta=1.0, gamma=GammaBox.full(2))
    assert not contains(spec, ThetaPoint(b=[0.1, 0.1], rho=[1.0]), params2)


def test_project_rho_idempotent_bitwise(params3):
    spec = EllipsoidalSet(
        b_hat=np.array([0.5, 0.3, 0.2]),
        delta=0.1,
        gamma=GammaBox.box([-0.3, -0.3, -0.3], [0.6, 0.6, 0.6]),
    )
    rng = np.random.default_rng(2)
    for _ in range(50):
        rho = rng.uniform(-1, 1, 3)
        once = project_rho(spec, rho)
        twice = project_rho(spec, once)
        assert np.array_equal(once, twice)
        assert is_positive_definite(once, 3)
        assert spec.gamma.rho_in_box(once)


def test_project_rho_clamp(params2):
    spec = EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.5], [0.5]))
    assert project_rho(spec, [0.9])[0] == 0.5
    assert project_rho(spec, [0.2])[0] == 0.2


def test_project_rho_pd_repair():
    # corner (0.95, 0.95, 0.5) is not PD but the box midpoint is
    spec = EllipsoidalSet(
        b_hat=np.array([0.5, 0.3, 0.2]),
        delta=0.1,
        gamma=GammaBox.box([0.5, 0.5, 0.5], [0.95, 0.95, 0.95]),
    )
    assert not is_positive_definite(np.array([0.95, 0.95, 0.5]), 3)
    out = project_rho(spec, [0.95, 0.95, 0.5])
    assert is_positive_definite(out, 3)
    assert spec.gamma.rho_in_box(out)


def test_project_rho_infeasible_box():
    from robustmv import NoFeasiblePoint

    # two strongly positive and one strongly negative pair: no PD point at all
    spec = EllipsoidalSet(
        b_hat=np.array([0.5, 0.3, 0.2]),
        delta=0.1,
        gamma=GammaBox.box([0.85, -0.95, 0.85], [0.95, -0.85, 0.95]),
    )
    with pytest.raises(NoFeasiblePoint):
        project_rho(spec, [0.95, -0.95, 0.95])


def test_project_b_examples(params2, ell2):
    inside = project_b(ell2, [0.41, 0.21], [0.0], params2)
    assert np.array_equal(inside, [0.41, 0.21])
    # axis-aligned projection with identity covariance
    out = project_b(ell2, [0.4, 0.0], [0.0], params2)
    assert np.allclose(out, [0.4, 0.1], atol=1e-12)
    # degenerate radius collapses to the anchor
    spec0 = EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.0, gamma=GammaBox.box([-0.5], [0.8]))
    assert np.array_equal(project_b(spec0, [1.0, 1.0], [0.0], params2), [0.4, 0.2])


def test_project_b_lands_in_set(params2, ell2):
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho = np.array([rng.uniform(-0.5, 0.8)])
        b = rng.uniform(-2, 2, 2)
        projected = project_b(ell2, b, rho, params2)
        assert contains(ell2, ThetaPoint(b=projected, rho=rho), params2)


def test_product_project_b_clamps(params2):
    spec = ProductSet(
        delta_lower=np.array([0.0, -1.0]),
        delta_upper=np.array([1.0, 1.0]),
        gamma=GammaBox.box([-0.5], [0.5]),
    )
    assert np.array_equal(project_b(spec, [2.0, -3.0], [0.0], params2), [1.0, -1.0])


def test_sample_determinism_and_membership(params2, ell2):
    assert sample(ell2, 0, seed=1, params=params2) == []
    a = sample(ell2, 25, seed=7, params=params2)
    b = sample(ell2, 25, seed=7, params=params2)
    for t1, t2 in zip(a, b):
        assert np.array_equal(t1.b, t2.b) and np.array_equal(t1.rho, t2.rho)
        assert contains(ell2, t1, params2)


def test_sample_product(params2):
    spec = ProductSet(
        delta_lower=np.array([0.1, 0.1]),
        delta_upper=np.array([0.4, 0.2]),
        gamma=GammaBox.box([-0.5], [0.5]),
    )
    for theta in sample(spec, 50, seed=11, params=params2):
        assert contains(spec, theta, params2)


@given(st.sampled_from(["d2", "d3", "full", "product"]), st.integers(0, 2**32 - 1))
def test_sample_contract(family, seed):
    """Draws are members, the same seed repeats them bitwise, count 0 gives []."""
    spec, params = random_set_instance(family, np.random.default_rng(seed))
    assume(spec is not None)
    draws = sample(spec, 60, seed=seed, params=params)
    assert len(draws) == 60
    assert all(contains(spec, theta, params) for theta in draws)
    again = sample(spec, 60, seed=seed, params=params)
    assert [(t.b.tobytes(), t.rho.tobytes()) for t in draws] == [(t.b.tobytes(), t.rho.tobytes()) for t in again]
    assert sample(spec, 0, seed=seed, params=params) == []


@pytest.mark.parametrize("product", [False, True], ids=["ellipsoidal", "product"])
def test_sample_exhausted_without_pd_point(params3, product):
    gamma = GammaBox.box([0.97, 0.97, -0.99], [0.99, 0.99, -0.97])
    if product:
        spec = ProductSet(np.zeros(3), np.full(3, 0.1), gamma)
    else:
        spec = EllipsoidalSet(b_hat=np.full(3, 0.1), delta=0.1, gamma=gamma)
    with pytest.raises(SamplingExhausted):
        sample(spec, 1, seed=0, params=params3)


@pytest.mark.parametrize("longest, raises", [(99, False), (100, True)])
def test_sample_counts_misses_across_blocks(monkeypatch, params2, longest, raises):
    """SamplingExhausted fires at exactly MAX_REJECTIONS misses in a row, across blocks."""
    verdicts = iter(([False] * 70 + [True]) * 3 + [False] * longest + [True] * 1000)
    monkeypatch.setattr(amb, "MAX_REJECTIONS", 100)
    # Blocks of 16 proposals: every run of misses spans several blocks.
    monkeypatch.setattr(amb, "BLOCK_MIN", 16)
    monkeypatch.setattr(amb, "BLOCK_MAX", 16)
    monkeypatch.setattr(amb, "is_positive_definite", lambda rho, d: np.array([next(verdicts) for _ in rho]))
    spec = ProductSet(np.zeros(2), np.ones(2), GammaBox.box([-0.5], [0.5]))
    if raises:
        with pytest.raises(SamplingExhausted):
            sample(spec, 5, seed=0, params=params2)
    else:
        assert len(sample(spec, 5, seed=0, params=params2)) == 5


def test_sample_blocks_grow_geometrically(monkeypatch, params2):
    """One hit in the first block does not size the next block from that hit alone."""
    sizes = []

    def one_in_fifty(rho, d):
        start = sum(sizes)
        sizes.append(len(rho))
        return (np.arange(start, start + len(rho)) % 50) == 49

    monkeypatch.setattr(amb, "is_positive_definite", one_in_fifty)
    spec = ProductSet(np.zeros(2), np.ones(2), GammaBox.box([-0.5], [0.5]))
    assert len(sample(spec, 150, seed=0, params=params2)) == 150
    assert all(size <= amb.BLOCK_GROWTH * sum(sizes[:i]) for i, size in enumerate(sizes) if i)
    assert sum(sizes) < 2 * 150 * 50

def _full_draws(d, count, seed):
    params = MarketParams(sigmas=np.linspace(0.5, 2.0, d), horizon_T=1.0, lam=0.5, x0=1.0)
    spec = full_ambiguity_spec(np.linspace(-0.5, 1.0, d), 0.1)
    return amb._draws(spec, count, seed, params)[1]


def _within_4se(draws, reference_mean, reference_var=0.0, reference_n=1):
    """Each column's mean is reference_mean within 4 standard errors of the difference."""
    se = np.sqrt(draws.var(axis=0) / len(draws) + reference_var / reference_n)
    return np.abs(draws.mean(axis=0) - reference_mean) <= 4.0 * se


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
def test_full_set_draws_have_uniform_marginal_variance(d):
    """Under the uniform law on PD correlation matrices every rho_ij is 2 Beta(d/2, d/2) - 1: E rho_ij^2 = 1/(d+1)."""
    squares = _full_draws(d, 4000, seed=100 + d) ** 2
    assert np.all(_within_4se(squares, 1.0 / (d + 1)))


@pytest.mark.parametrize("d, cube_draws", [(3, 8000), (4, 30000), (5, 250000)])
def test_full_set_draws_match_cube_rejection(d, cube_draws):
    """Pair means and second moments agree with uniform cube draws kept by the PD test."""
    m = d * (d - 1) // 2
    rng = np.random.default_rng(200 + d)
    cube = rng.uniform(-1.0, 1.0, (cube_draws, m))
    reference = cube[is_positive_definite(cube, d)]
    rho = _full_draws(d, 4000, seed=300 + d)
    i, j = np.triu_indices(m)

    def moments(x):
        return np.concatenate([x, x[:, i] * x[:, j]], axis=1)

    ref = moments(reference)
    assert len(reference) > 3000
    assert np.all(_within_4se(moments(rho), ref.mean(axis=0), ref.var(axis=0), len(ref)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_full_set_and_explicit_unit_box_draw_alike(d):
    """Onion proposals key on the bounds: any box of -1/+1 bounds gives the full set's draws bitwise."""
    m = d * (d - 1) // 2
    params = MarketParams(sigmas=np.ones(d), horizon_T=1.0, lam=0.5, x0=1.0)
    b_hat = np.linspace(0.2, 0.6, d)
    explicit = GammaBox(lower=[-1.0] * m, upper=[1.0] * m, full_ambiguity=True)
    full = amb._draws(EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=GammaBox.full(d)), 300, 9, params)
    again = amb._draws(EllipsoidalSet(b_hat=b_hat, delta=0.1, gamma=explicit), 300, 9, params)
    assert all(np.array_equal(x, y) for x, y in zip(full, again))
    # An ordinary box must lie inside (-1, 1), so it can never take the onion branch.
    with pytest.raises(ValueError, match="inside"):
        GammaBox.box([-1.0] * m, [1.0] * m)


@pytest.mark.parametrize("lower, upper", [([-2.0], [5.0]), ([0.3], [0.5]), ([-1.0], [0.9]), ([np.nan], [1.0])])
def test_full_ambiguity_takes_unit_bounds_only(lower, upper):
    # Under the flag solve labels the set FullAmbiguity and grid_oracle grids
    # [-0.95, 0.95], whatever the bounds: any bounds but -1/+1 would disagree.
    with pytest.raises(ValueError, match="full ambiguity"):
        GammaBox(lower=lower, upper=upper, full_ambiguity=True)


def test_box_draws_reference_values():
    # Draws on boxes that are not the full set, recorded before the full set
    # got its onion proposals; they must not move (numpy 2.4, x86-64).
    params = MarketParams(sigmas=[1.0, 1.5, 0.8], horizon_T=1.0, lam=0.5, x0=1.0)
    ellipsoidal = EllipsoidalSet(
        b_hat=np.array([0.4, 0.2, -0.3]), delta=0.1, gamma=GammaBox.box([-0.5, -0.2, 0.1], [0.8, 0.6, 0.9])
    )
    # Corners of [-0.9, 0.9]^3 are not PD, so this one also rejects.
    product = ProductSet(np.array([0.1, -0.2, 0.0]), np.array([0.4, 0.2, 0.3]), GammaBox.box([-0.9] * 3, [0.9] * 3))
    expected = {
        "ellipsoidal": (0.4264187522612189, -0.35382151644817444, 0.446352631789195, 0.8982024679021529,
                        62.447955349912405, 160.24274995859884),
        "product": (0.3172924035431327, 0.14141174176832585, 0.5542934215256888, -0.40672482846152225,
                    80.52905760030833, -12.365183368783772),
    }
    for name, spec in (("ellipsoidal", ellipsoidal), ("product", product)):
        b, rho = amb._draws(spec, 200, 5, params)
        assert (b[0, 0], b[199, 2], rho[0, 1], rho[199, 2], b.sum(), rho.sum()) == expected[name], name


def _half_solve_rows(lower, rhs):
    """Forward substitution one row and one entry at a time: the bitwise reference of _half_solve_stack."""
    y = np.zeros_like(rhs)
    for i in range(rhs.shape[0]):
        for k in range(rhs.shape[1]):
            y[i, k] = (rhs[i, k] - lower[i, k, :k] @ y[i, :k]) / lower[i, k, k]
    return y


def _membership_instance(rng):
    """Random ellipsoidal set at d = 2-6 with delta in [1e-6, 1e6]: the full set, a box, or a
    narrow box around an equicorrelation 1 - eps, eps in [1e-7, 1e-2], whose Sigma is near singular."""
    d = int(rng.integers(2, 7))
    m = d * (d - 1) // 2
    params = MarketParams(sigmas=10.0 ** rng.uniform(-1.0, 1.0, d), horizon_T=1.0, lam=0.5, x0=1.0)
    kind = int(rng.integers(3))
    if kind == 0:
        gamma = GammaBox.full(d)
    elif kind == 1:
        lower = rng.uniform(-0.4, 0.2, m)
        gamma = GammaBox.box(lower, lower + rng.uniform(0.0, 0.3, m))
    else:
        # Off-diagonal spread below eps / 4 keeps every eigenvalue of C within eps / 4 of its
        # equicorrelation value, the smallest of which is eps: near singular, yet PD.
        eps = 10.0 ** rng.uniform(-7.0, -2.0)
        gamma = GammaBox.box(np.full(m, 1.0 - eps - eps / (4 * d)), np.full(m, 1.0 - eps + eps / (4 * d)))
    return EllipsoidalSet(b_hat=rng.uniform(-1.0, 1.0, d), delta=10.0 ** rng.uniform(-6.0, 6.0), gamma=gamma), params


def test_membership_substitution_keeps_draws(monkeypatch):
    """The sampler's ellipsoid test solves L y = b - b_hat by forward substitution on the
    factor stack it has just built, where it ran a general LU solve: the draws are the
    LU step's bitwise.  The substitution is a per-row scalar substitution bitwise and
    agrees with the LU solve to 1e-12 relative, near-singular Sigma included."""
    rng = np.random.default_rng(20261020)
    for i in range(150):
        spec, params = _membership_instance(rng)
        b, rho = amb._draws(spec, 100, i, params)
        with monkeypatch.context() as patch:
            patch.setattr(amb, "_half_solve_stack", lu_half_solve_stack)
            b_lu, rho_lu = amb._draws(spec, 100, i, params)
        assert b.tobytes() == b_lu.tobytes() and rho.tobytes() == rho_lu.tobytes(), i
        chol = covariance_factor_stack(rho, params.sigmas)[0]
        rhs = b - spec.b_hat
        y, y_lu = _half_solve_stack(chol, rhs), lu_half_solve_stack(chol, rhs)
        assert y.tobytes() == _half_solve_rows(chol, rhs).tobytes(), i
        gap = np.linalg.norm(y - y_lu, axis=1) / np.linalg.norm(y_lu, axis=1)
        assert gap.max() <= 1e-12, (i, gap.max())


def test_ellipsoid_scaling_invariance(params2):
    # membership depends only on the ratio distance/delta
    rng = np.random.default_rng(13)
    b_hat = np.array([0.4, 0.2])
    for _ in range(50):
        rho = np.array([rng.uniform(-0.8, 0.8)])
        b = rng.uniform(-1, 1, 2)
        dist = drift_distance(b, b_hat, rho, params2)
        if dist == 0:
            continue
        for factor in (0.5, 2.0, 7.0):
            spec = EllipsoidalSet(b_hat=b_hat, delta=factor * dist, gamma=GammaBox.box([-0.9], [0.9]))
            scaled_b = b_hat + factor * (b - b_hat)
            assert contains(spec, ThetaPoint(b=scaled_b, rho=rho), params2)


def test_schedule_validation(params2, ell2):
    theta = ThetaPoint(b=[0.4, 0.2], rho=[0.5])
    schedule = ThetaProcessSchedule.constant(theta)
    assert schedule.value_at(0.0) is theta
    assert schedule_within(ell2, schedule, params2)

    with pytest.raises(ValueError):
        ThetaProcessSchedule(breakpoints=np.array([0.1]), values=(theta,))
    with pytest.raises(ValueError):
        ThetaProcessSchedule(breakpoints=np.array([0.0, 0.0]), values=(theta, theta))
    # np.diff(...) <= 0 is False at a NaN, so the increasing check alone would pass it.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            ThetaProcessSchedule(breakpoints=np.array([0.0, bad]), values=(theta, theta))


def test_schedule_pieces_and_lookup(params2):
    t1 = ThetaPoint(b=[0.4, 0.2], rho=[0.5])
    t2 = ThetaPoint(b=[0.3, 0.1], rho=[0.0])
    schedule = ThetaProcessSchedule(breakpoints=np.array([0.0, 0.5]), values=(t1, t2))
    assert schedule.value_at(0.49) is t1
    assert schedule.value_at(0.5) is t2
    pieces = schedule.pieces(1.0)
    assert pieces == [(0.0, 0.5, t1), (0.5, 1.0, t2)]


BOX = GammaBox.box([-0.5], [0.8])


@pytest.mark.parametrize(
    "field, build",
    [
        ("b_hat", lambda: EllipsoidalSet(b_hat=np.array([0.4, np.nan]), delta=0.1, gamma=BOX)),
        ("delta", lambda: EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=np.nan, gamma=BOX)),
        ("delta", lambda: EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=np.inf, gamma=BOX)),
        ("lower", lambda: GammaBox.box([np.nan], [0.8])),
        ("upper", lambda: GammaBox.box([-0.5], [np.nan])),
        ("delta_lower", lambda: ProductSet(np.array([np.nan, 0.1]), np.array([0.3, 0.3]), BOX)),
        ("delta_upper", lambda: ProductSet(np.array([0.1, 0.1]), np.array([0.3, np.inf]), BOX)),
    ],
    ids=["b_hat_nan", "delta_nan", "delta_inf", "lower_nan", "upper_nan", "drift_lower_nan", "drift_upper_inf"],
)
def test_sets_reject_non_finite(field, build):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        build()
