"""Monte-Carlo engine: determinism, statistical agreement, principle checks."""

import math
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from robustmv import (
    AffineRule,
    EllipsoidalSet,
    GammaBox,
    MarketParams,
    PrincipleViolated,
    ProductSet,
    SimConfig,
    ThetaPoint,
    ValueCoefficients,
    WealthOverflow,
    affine_moments,
    correlation_matrix,
    estimate_objective,
    mean_wealth_path,
    monotonicity_counterexample,
    robust_strategy,
    simulate_optimal_exact,
    simulate_wealth,
    solve,
    value_coefficients,
    value_v0,
    verify_weak_principle,
)
from robustmv import market
from robustmv import simulate as sim
from robustmv.ambiguity import ThetaProcessSchedule
from robustmv.simulate import (
    N_SIGMA,
    _monotonicity_check,
    default_probe_schedules,
    default_probe_strategies,
    summarize_paths,
)

from conftest import curated_three_asset

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _terminal_draws(rule, sched, params, cfg):
    """X_T of an AffineRule drawn the way verify_weak_principle draws its scenario probes."""
    return simulate_wealth(rule, sched, params, replace(cfg, n_steps=1))[1][:, -1]


@pytest.fixture
def reference(params2, reference_spec):
    sol = solve(reference_spec, params2)
    strat = robust_strategy(sol, params2)
    sched = ThetaProcessSchedule.constant(sol.theta_star)
    return sol, strat, sched


def test_zero_strategy_constant_paths(params2, reference):
    _, _, sched = reference
    cfg = SimConfig(n_paths=64, n_steps=16, seed=1)
    _, paths = simulate_wealth(lambda t, x: np.zeros((np.size(x), 2)), sched, params2, cfg)
    assert np.array_equal(paths, np.full_like(paths, params2.x0))
    est = estimate_objective(paths, params2)
    assert est.J == params2.x0 and est.var_XT == 0.0


def test_driftless_constant_unit_position():
    p = MarketParams(sigmas=[0.7], horizon_T=1.0, lam=0.5, x0=0.0)
    sched = ThetaProcessSchedule.constant(ThetaPoint(b=[0.0], rho=[]))
    cfg = SimConfig(n_paths=40000, n_steps=64, seed=5)
    _, paths = simulate_wealth(lambda t, x: np.ones((np.size(x), 1)), sched, p, cfg)
    xt = paths[:, -1]
    se_mean = xt.std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(xt.mean()) < 3 * se_mean  # pure martingale
    var = xt.var(ddof=1)
    # Var(X_T) = sigma^2 T for a constant unit position
    assert abs(var - 0.49) < 4 * 0.49 * math.sqrt(2.0 / (cfg.n_paths - 1))


def test_euler_mean_matches_closed_form(params2, reference):
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=40000, n_steps=128, seed=11)
    t, paths = simulate_wealth(strat, sched, params2, cfg)
    closed = mean_wealth_path(strat, t)
    emp = paths.mean(axis=0)
    se = paths.std(axis=0, ddof=1) / math.sqrt(cfg.n_paths)
    z = np.abs(emp[1:] - closed[1:]) / se[1:]
    assert z.max() < 3.0


def test_exact_simulator_lognormal_identities(params2, reference):
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=60000, n_steps=64, seed=17)
    t, paths = simulate_optimal_exact(sol, sched, params2, cfg)
    # E[X_T] = x0 + e^{r T}/(2 lam) (1 - e^{-r T})
    expected = mean_wealth_path(strat, [params2.horizon_T])[0]
    xt = paths[:, -1]
    se = xt.std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(xt.mean() - expected) < 3 * se


def test_exact_simulator_degenerate_when_r_zero(params2, reference_spec):
    sol = solve(
        EllipsoidalSet(b_hat=reference_spec.b_hat, delta=0.9, gamma=reference_spec.gamma), params2
    )
    cfg = SimConfig(n_paths=16, n_steps=8, seed=3)
    sched = ThetaProcessSchedule.constant(sol.theta_star)
    _, paths = simulate_optimal_exact(sol, sched, params2, cfg)
    assert np.allclose(paths, params2.x0)


def test_euler_vs_exact_within_se(params2, reference):
    sol, strat, sched = reference
    cfg_euler = SimConfig(n_paths=40000, n_steps=512, seed=23)
    cfg_exact = SimConfig(n_paths=40000, n_steps=64, seed=29)
    _, euler = simulate_wealth(strat, sched, params2, cfg_euler)
    _, exact = simulate_optimal_exact(sol, sched, params2, cfg_exact)
    e1, e2 = estimate_objective(euler, params2), estimate_objective(exact, params2)
    se_mean1 = euler[:, -1].std(ddof=1) / math.sqrt(euler.shape[0])
    se_mean2 = exact[:, -1].std(ddof=1) / math.sqrt(exact.shape[0])
    combined = math.hypot(se_mean1, se_mean2)
    assert abs(e1.mean_XT - e2.mean_XT) < 3 * combined


def test_determinism_bitwise(params2, reference):
    _, strat, sched = reference
    cfg = SimConfig(n_paths=3000, n_steps=32, seed=123)
    _, a = simulate_wealth(strat, sched, params2, cfg)
    _, b = simulate_wealth(strat, sched, params2, cfg)
    assert np.array_equal(a, b)


def test_block_stream_contract():
    # Each block's draws depend only on (seed, block), from an SFC64 bit
    # generator.  The first-step normals of a 65,536-path run's 16 blocks
    # are each block's own stream; pooled they have N(0, 1)'s mean and
    # variance, and adjacent blocks are uncorrelated, each within 5 SE.
    assert np.array_equal(sim._block_rng(3, 1).standard_normal(8), sim._block_rng(3, 1).standard_normal(8))
    assert type(sim._block_rng(3, 1).bit_generator) is np.random.SFC64
    firsts = {sim._block_rng(seed, block).standard_normal() for seed in range(4) for block in range(16)}
    assert len(firsts) == 4 * 16
    cfg = SimConfig(n_paths=16 * sim.BLOCK, n_steps=1, seed=2)
    z = sim._shared_normals(cfg).reshape(16, sim.BLOCK)
    assert np.array_equal(z[5], sim._block_rng(cfg.seed, 5).standard_normal(sim.BLOCK))
    n = z.size
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) < 5.0 * math.sqrt(2.0 / (n - 1))
    adjacent = np.corrcoef(z[:-1].ravel(), z[1:].ravel())[0, 1]
    assert abs(adjacent) < 5.0 / math.sqrt(z[1:].size)


def test_determinism_across_worker_counts(params2, reference, monkeypatch):
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=10000, n_steps=16, seed=7)
    probes = dict(default_probe_strategies(strat))
    runs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("ROBUSTMV_THREADS", threads)
        runs[threads] = (
            simulate_wealth(strat, sched, params2, cfg)[1],
            simulate_optimal_exact(sol, sched, params2, cfg)[1],
            *(simulate_wealth(probes[name], sched, params2, cfg)[1] for name in ("half", "static")),
            _terminal_draws(probes["optimal"], sched, params2, cfg),
        )
    for serial, threaded in zip(runs["1"], runs["4"]):
        assert np.array_equal(serial, threaded)


def test_antithetic_means_agree(params2, reference):
    _, strat, sched = reference
    plain = SimConfig(n_paths=40000, n_steps=64, seed=41, antithetic=False)
    anti = SimConfig(n_paths=40000, n_steps=64, seed=43, antithetic=True)
    _, p1 = simulate_wealth(strat, sched, params2, plain)
    _, p2 = simulate_wealth(strat, sched, params2, anti)
    m1, m2 = p1[:, -1].mean(), p2[:, -1].mean()
    se1 = p1[:, -1].std(ddof=1) / math.sqrt(p1.shape[0])
    se2 = p2[:, -1].std(ddof=1) / math.sqrt(p2.shape[0])
    assert abs(m1 - m2) < 3 * math.hypot(se1, se2)


def test_estimate_objective_se_positive(params2, reference):
    _, strat, sched = reference
    cfg = SimConfig(n_paths=2000, n_steps=16, seed=2)
    _, paths = simulate_wealth(strat, sched, params2, cfg)
    est = estimate_objective(paths, params2)
    assert est.var_XT > 0 and est.std_error_J > 0
    assert est.n_paths == 2000


def test_objective_only_needs_terminal_column(params2):
    xt = np.array([1.0, 2.0, 3.0, 4.0])
    est = estimate_objective(xt, params2)
    assert est.mean_XT == 2.5
    assert np.isclose(est.var_XT, np.var(xt, ddof=1))


def test_estimate_objective_se_skewed_sample():
    """Delta-method SE of J, covariance term included, on lognormal samples."""
    params = MarketParams(sigmas=[1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    rng = np.random.default_rng(11)
    batches = [rng.lognormal(0.0, 0.5, 4096) for _ in range(64)]
    estimates = [estimate_objective(x, params) for x in batches]
    # Independent form: Var(J) ~ Var(psi)/n with the influence function
    # psi = (x - mean) - lam ((x - mean)^2 - var) of J = mean - lam var.
    for x, est in zip(batches, estimates):
        c = x - x.mean()
        psi = c - params.lam * (c**2 - c.var())
        assert est.std_error_J == pytest.approx(psi.std() / math.sqrt(x.size), rel=2e-3)
    # The reported SE matches the spread of J across independent batches;
    # without the -2 lam m3/n term it is about 1.6 times too large here.
    spread = np.std([e.J for e in estimates], ddof=1)
    assert 0.8 <= spread / np.mean([e.std_error_J for e in estimates]) <= 1.25


def test_estimate_objective_beyond_float_range_raises():
    # Finite wealths whose mean (1e308), variance (1e160), fourth moment
    # (1e100) or squared variance (1e77) overflows raise the typed error,
    # with no warning (the module turns warnings into errors); wealths that
    # are not finite still give an estimate that is not.
    params = MarketParams(sigmas=[1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    for xt in ([1e308, 1e308], [1e160, -1e160], [1e100, -1e100], [1e77, -1e77]):
        with pytest.raises(WealthOverflow, match="terminal wealth's moments leave the float range"):
            estimate_objective(xt, params)
    assert math.isnan(estimate_objective([math.nan, 1.0], params).J)
    assert math.isfinite(estimate_objective([1e76, -1e76], params).std_error_J)


def test_objective_near_v0(params2, reference):
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=50000, n_steps=256, seed=42)
    _, paths = simulate_wealth(strat, sched, params2, cfg)
    est = estimate_objective(paths, params2)
    assert abs(est.J - value_v0(sol, params2)) < 3 * est.std_error_J


def test_wealth_multiplier_positive_along_optimal_flow(params2, reference_spec):
    # the weight in front of the direction stays positive on every path node
    sol = solve(reference_spec, params2)
    strat = robust_strategy(sol, params2)
    corner = ThetaPoint(b=[0.44, 0.22], rho=[0.8])
    for seed, sched in (
        (51, ThetaProcessSchedule.constant(sol.theta_star)),
        (52, ThetaProcessSchedule.constant(corner)),
    ):
        cfg = SimConfig(n_paths=100_000, n_steps=256, seed=seed)
        _, paths = simulate_wealth(strat, sched, params2, cfg)
        assert np.all(strat.xbar - paths > 0.0)


def test_weak_principle_reference(params2, reference_spec):
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=20000, n_steps=64, seed=42)
    report = verify_weak_principle(sol, reference_spec, params2, cfg)
    assert report.ok
    assert len(report.monotone_under_worst_case) == 8
    assert len(report.terminal_gain) == 8
    # J(alpha*, theta*) reproduces V0 within noise in both directions
    names = [c.name for c in report.terminal_gain]
    worst = report.terminal_gain[names.index("worst_case")]
    assert abs(worst.margin) <= worst.allowance


_PROBE_SETS = [({"probe_schedules": []}, "optimal"), ({}, "optimal"), ({"probe_strategies": []}, "worst_case")]
_PROBE_IDS = ["no-scenario-probes", "default-probes", "no-strategy-probes"]


@pytest.mark.parametrize(
    "market, probes, probe",
    [(market, *case) for market in ({"lam": 0.5, "x0": 1e308}, {"lam": 1e-300, "x0": 1.0}) for case in _PROBE_SETS],
    ids=_PROBE_IDS + [f"tiny-lambda-{name}" for name in _PROBE_IDS],
)
def test_weak_principle_beyond_float_range_raises(reference_spec, market, probes, probe):
    """At x0 = 1e308 the closed-form allowances |E[X_T]| + |V0| overflow, and at
    lam = 1e-300 (xbar - x0 about 5e299) so does the square in Var X_t: the check
    raises WealthOverflow at the first probe, with no warning (the module turns
    warnings into errors), instead of passing every probe on an infinite allowance."""
    params = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, **market)
    sol = solve(reference_spec, params)
    with pytest.raises(WealthOverflow, match=f"under probe '{probe}' leave the float range"):
        verify_weak_principle(sol, reference_spec, params, SimConfig(64, 4, 1), **probes)


def test_weak_principle_reference_fine_grid(params2, reference_spec):
    # 256 increments of a flat E[V_t]: with a 3-SE allowance per increment and
    # no correction for testing all of them, this seed raised PrincipleViolated.
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=20000, n_steps=256, seed=13)
    assert verify_weak_principle(sol, reference_spec, params2, cfg).ok


class _WealthValue:
    """Value coefficients of v_t(x) = x, so E[V_t] is the mean path."""

    def quad_coeff(self, t):
        return np.zeros_like(t)

    def offset(self, t):
        return np.zeros_like(t)


@pytest.mark.parametrize("rise, flagged", [(6.0, True), (4.0, False)])
def test_monotonicity_check_familywise(rise, flagged):
    # Increments with sample mean exactly 0, except one node rising by
    # exactly `rise` standard errors.  Over 256 increments the family-wise
    # 3-sigma threshold is about 4.4 SE.
    n, steps, node = 4000, 256, 97
    inc = np.random.default_rng(3).standard_normal((n, steps))
    inc -= inc.mean(axis=0)
    se = inc[:, node].std(ddof=1) / math.sqrt(n)
    inc[:, node] += rise * se
    paths = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
    assert paths.flags.c_contiguous  # the check takes any memory order and writes nothing
    before = paths.copy()
    increase, allowance = _monotonicity_check(paths, np.linspace(0.0, 1.0, steps + 1), _WealthValue())
    assert increase == pytest.approx(rise * se)
    assert (increase > allowance) == flagged
    assert np.array_equal(paths, before)


def test_monotonicity_check_memory_order(params2, reference):
    # The simulators' Fortran-ordered paths and a C-ordered copy differ only in
    # the order the node sums add up.
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=6000, n_steps=32, seed=21)
    coeffs = value_coefficients(sol, params2)
    for rule in (strat, dict(default_probe_strategies(strat))["double"]):
        t_grid, paths = simulate_wealth(rule, sched, params2, cfg)
        node_major = _monotonicity_check(paths, t_grid, coeffs)
        c_order = _monotonicity_check(np.ascontiguousarray(paths), t_grid, coeffs)
        assert c_order == pytest.approx(node_major, rel=1e-12, abs=0.0)


def test_paths_are_node_major(params2, reference):
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=5000, n_steps=8, seed=2)
    probes = dict(default_probe_strategies(strat))
    runs = {
        "euler": simulate_wealth(strat, sched, params2, cfg)[1],
        "optimal_exact": simulate_optimal_exact(sol, sched, params2, cfg)[1],
        **{name: simulate_wealth(probes[name], sched, params2, cfg)[1] for name in ("half", "static", "zero")},
    }
    for name, paths in runs.items():
        assert paths.shape == (cfg.n_paths, cfg.n_steps + 1), name
        assert paths.T.flags.c_contiguous, name


def test_weak_principle_frees_shared_buffer_before_euler_probe(params2, reference_spec):
    # An Euler probe between exact ones fills its own paths: nothing else
    # holds a path buffer next to them.
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=20000, n_steps=64, seed=3)
    exact = default_probe_strategies(robust_strategy(sol, params2))[0]
    euler = ("euler", lambda t, x: exact[1](t, x))
    buffer = (cfg.n_steps + 1) * cfg.n_paths * 8
    tracemalloc.start()
    try:
        verify_weak_principle(sol, reference_spec, params2, cfg, probe_strategies=[exact, euler, exact])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The Euler probe's own paths, not a second buffer.
    assert peak < 1.5 * buffer


def test_weak_principle_holds_no_path_matrix(params2, reference_spec):
    # The default check decides its strategy probes in closed form and draws
    # only terminal wealth: far below one (n_steps + 1, n_paths) path buffer.
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=20000, n_steps=256, seed=3)
    buffer = (cfg.n_steps + 1) * cfg.n_paths * 8
    tracemalloc.start()
    try:
        assert verify_weak_principle(sol, reference_spec, params2, cfg).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * buffer


def test_euler_factors_once_per_piece(params2, reference, monkeypatch):
    _, strat, sched = reference
    switch = ThetaProcessSchedule(
        breakpoints=np.array([0.0, 0.5]), values=(sched.values[0], ThetaPoint(b=[0.44, 0.22], rho=[0.0]))
    )
    calls, factor = [], market._factor
    monkeypatch.setattr(market, "_factor", lambda matrix: calls.append(matrix) or factor(matrix))
    cfg = SimConfig(n_paths=64, n_steps=256, seed=1)
    for schedule, count in ((sched, 1), (switch, 2)):
        del calls[:]
        simulate_wealth(strat, schedule, params2, cfg)
        assert len(calls) == count


def test_weak_principle_thread_count_determinism(params2, reference_spec, monkeypatch):
    # The shared one-step terminal draw stays on the calling thread; a 16-step
    # Euler probe next to the default probes runs threaded.
    sol = solve(reference_spec, params2)
    probes = default_probe_strategies(robust_strategy(sol, params2))
    euler = ("euler", lambda t, x: probes[0][1](t, x))
    cfg = SimConfig(n_paths=3 * 4096 + 17, n_steps=16, seed=8)
    reports = []
    for threads in ("1", "4"):
        monkeypatch.setenv("ROBUSTMV_THREADS", threads)
        reports.append(verify_weak_principle(sol, reference_spec, params2, cfg, probe_strategies=probes + [euler]))
    assert reports[0] == reports[1]


def test_weak_principle_negative_control(params2, reference_spec):
    # lie about r*: claim a premium far above the truth, condition (iii) must break
    sol = solve(reference_spec, params2)
    inflated = replace(sol, r_star=1.5)
    cfg = SimConfig(n_paths=8000, n_steps=32, seed=13)
    with pytest.raises(PrincipleViolated):
        verify_weak_principle(inflated, reference_spec, params2, cfg)


def test_default_probes_are_feasible(params2, reference_spec):
    from robustmv.ambiguity import schedule_within

    sol = solve(reference_spec, params2)
    strat = robust_strategy(sol, params2)
    assert len(default_probe_strategies(strat)) == 8
    schedules = default_probe_schedules(reference_spec, params2, sol)
    assert len(schedules) == 8
    for _, sched in schedules:
        assert schedule_within(reference_spec, sched, params2)


def test_probe_schedules_product_include_corners(params2):
    spec = ProductSet(
        delta_lower=np.array([0.1, 0.1]),
        delta_upper=np.array([0.4, 0.2]),
        gamma=GammaBox.box([-0.5], [0.5]),
    )
    sol = solve(spec, params2)
    names = dict(default_probe_schedules(spec, params2, sol))
    outer = names["low_corr_outer_drift"].values[0]
    assert np.array_equal(outer.b, spec.delta_upper)


def test_piecewise_schedule_simulation(params2, reference_spec):
    sol = solve(reference_spec, params2)
    strat = robust_strategy(sol, params2)
    t1 = sol.theta_star
    t2 = ThetaPoint(b=[0.44, 0.22], rho=[0.0])
    sched = ThetaProcessSchedule(breakpoints=np.array([0.0, 0.5]), values=(t1, t2))
    cfg = SimConfig(n_paths=5000, n_steps=64, seed=3)
    _, euler = simulate_wealth(strat, sched, params2, cfg)
    _, exact = simulate_optimal_exact(sol, sched, params2, cfg)
    assert euler.shape == exact.shape == (5000, 65)
    e1, e2 = estimate_objective(euler, params2), estimate_objective(exact, params2)
    combined = math.hypot(e1.std_error_J, e2.std_error_J)
    assert abs(e1.J - e2.J) < 4 * combined


def test_counterexample_zero_at_c_zero(params1):
    table = monotonicity_counterexample(0.2, 0.2, params1)
    assert np.allclose(table.f_values[0], 0.0, atol=1e-18)


def test_counterexample_limit_and_signs(params1):
    table = monotonicity_counterexample(0.2, 5.0, params1)
    assert np.isclose(table.c_values[0], 0.96)
    # the direct scenario stays positive on this horizon; the limit rows go negative
    assert np.min(table.f_values[0]) > 0.0
    assert np.min(table.f_values[1]) < 0.0
    assert table.has_negative()
    mask = table.t_grid >= 0.05
    err = np.abs(table.f_values[2, mask] - table.limit_target[mask])
    assert err.max() < 1e-3
    # pointwise limit at t = 0.5 as the distance parameter grows
    t = np.array([0.5])
    for c, bound in ((1e3, 1e-2), (1e4, 1e-3)):
        row = monotonicity_counterexample(0.2, 5.0, params1, t_grid=t, limit_cs=(c,))
        assert abs(row.f_values[1, 0] - row.limit_target[0]) < bound


def test_counterexample_input_validation(params1, params2):
    with pytest.raises(ValueError):
        monotonicity_counterexample(0.5, 0.2, params1)  # needs b_lower < theta
    with pytest.raises(ValueError):
        monotonicity_counterexample(0.2, 5.0, params2)  # needs d = 1


# -- exact paths of wealth-affine rules


def _instances():
    """(name, solution, params) for the README and the three-asset Case5ii instances."""
    readme = EllipsoidalSet(b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.5], [0.8]))
    params = MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)
    case5ii, params3 = curated_three_asset("ThreeAsset.Case5ii")
    return [("readme", solve(readme, params), params), ("case5ii", solve(case5ii, params3), params3)]


def _moment_z(paths, mean, var):
    """Per-node z-scores of the sample mean and variance against closed forms."""
    n = paths.shape[0]
    centered = paths - paths.mean(axis=0)
    sample_var = paths.var(axis=0, ddof=1)
    se_mean = np.sqrt(sample_var / n)
    se_var = np.sqrt(np.mean((centered**2 - sample_var) ** 2, axis=0) / n)
    return np.abs(paths.mean(axis=0) - mean) / se_mean, np.abs(sample_var - var) / se_var


SCALINGS = ((0.5, "half"), (1.0, "optimal"), (1.5, "one_and_half"), (2.0, "double"), (-1.0, "contrarian"))


def _scaled_moments(c, r, x0, y0, t):
    """Mean and variance at times t of the probe v = c kappa* under the worst case, Y0 = y0."""
    xbar = x0 + y0
    mean = xbar - y0 * np.exp(-c * r * t)
    var = y0**2 * (np.exp((c * c - 2.0 * c) * r * t) - np.exp(-2.0 * c * r * t))
    return mean, var


@pytest.mark.parametrize("name, sol, params", _instances())
def test_affine_exact_moments(name, sol, params):
    strat = robust_strategy(sol, params)
    sched = ThetaProcessSchedule.constant(sol.theta_star)
    probes = dict(default_probe_strategies(strat))
    cfg = SimConfig(n_paths=20000, n_steps=32, seed=61)
    r, x0 = sol.r_star, params.x0
    y0 = math.exp(r * params.horizon_T) / (2.0 * params.lam)
    for c, probe in SCALINGS:
        t, paths = simulate_wealth(probes[probe], sched, params, cfg)
        assert np.all(paths[:, 0] == x0)
        z_mean, z_var = _moment_z(paths[:, 1:], *_scaled_moments(c, r, x0, y0, t[1:]))
        assert z_mean.max() < 4.0 and z_var.max() < 4.0, (name, probe)
    # static: alpha = kappa*, so X is Brownian with drift and variance rate r*
    t, paths = simulate_wealth(probes["static"], sched, params, cfg)
    z_mean, z_var = _moment_z(paths[:, 1:], x0 + r * t[1:], r * t[1:])
    assert z_mean.max() < 4.0 and z_var.max() < 4.0
    _, zero = simulate_wealth(probes["zero"], sched, params, cfg)
    assert np.all(zero == x0)


def _terminal_moments(sched, u, params, y0, geometric=True):
    """Closed-form mean and variance of X_T.

    geometric: alpha = (xbar - x) u, so X_T = x0 + y0 (1 - N_T) with log N_T
    Gaussian; otherwise alpha = u and X_T is Gaussian.
    """
    drift = var = 0.0
    for t0, t1, theta in sched.pieces(params.horizon_T):
        sigma = np.outer(params.sigmas, params.sigmas) * correlation_matrix(theta.rho, params.d)
        rate = float(u @ sigma @ u)
        drift += (float(theta.b @ u) + (0.5 * rate if geometric else 0.0)) * (t1 - t0)
        var += rate * (t1 - t0)
    if not geometric:
        return params.x0 + drift, var
    mean_n = math.exp(-drift + 0.5 * var)
    return params.x0 + y0 * (1.0 - mean_n), y0**2 * mean_n**2 * math.expm1(var)


def _assert_rounding_close(actual, expected):
    """Closed-form (mean, var) arrays that agree to rounding."""
    for got, want in zip(actual, expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name, sol, params", _instances())
def test_affine_moments_closed_forms(name, sol, params, reference_spec):
    # affine_moments against the tests' own formulas, node by node: every
    # default probe under the worst case, and the geometric and arithmetic
    # rules under the two-piece switch, whose breakpoint T/2 falls inside a
    # step of the grid.
    strat = robust_strategy(sol, params)
    probes = dict(default_probe_strategies(strat))
    worst = ThetaProcessSchedule.constant(sol.theta_star)
    r, x0 = sol.r_star, params.x0
    y0 = math.exp(r * params.horizon_T) / (2.0 * params.lam)
    t = np.linspace(0.0, params.horizon_T, 33)
    for c, probe in SCALINGS:
        _assert_rounding_close(affine_moments(probes[probe], worst, params, t), _scaled_moments(c, r, x0, y0, t))
    _assert_rounding_close(affine_moments(probes["static"], worst, params, t), (x0 + r * t, r * t))
    mean, var = affine_moments(probes["zero"], worst, params, t)
    assert np.all(mean == x0) and np.all(var == 0.0)
    spec = reference_spec if name == "readme" else curated_three_asset("ThreeAsset.Case5ii")[0]
    switch = dict(default_probe_schedules(spec, params, sol))["switch_mid_horizon"]
    t = np.linspace(0.0, params.horizon_T, 8)
    kappa = strat.allocation_direction
    for probe, geometric in (("optimal", True), ("static", False)):
        nodes = [_terminal_moments(switch, kappa, replace(params, horizon_T=tk), y0, geometric) for tk in t[1:]]
        expected = np.array([(x0, 0.0), *nodes])
        _assert_rounding_close(affine_moments(probes[probe], switch, params, t), expected.T)
        _assert_rounding_close(affine_moments(probes[probe], switch, params, t[[0, -1]]), expected[[0, -1]].T)
    mean, var = affine_moments(probes["zero"], switch, params, t)
    assert np.all(mean == x0) and np.all(var == 0.0)


def test_affine_moments_rejects_other_rules_and_grids(params2, reference):
    _, strat, sched = reference
    kappa = strat.allocation_direction
    optimal = AffineRule(xbar=strat.xbar, v=kappa, w=np.zeros_like(kappa))
    t = np.linspace(0.0, params2.horizon_T, 5)
    for rule in (AffineRule(xbar=strat.xbar, v=kappa, w=kappa), strat):
        with pytest.raises(ValueError, match="w = 0 or v = 0"):
            affine_moments(rule, sched, params2, t)
    for grid in (t[:1], t[1:], 2.0 * t, t**2):
        with pytest.raises(ValueError, match="linspace"):
            affine_moments(optimal, sched, params2, grid)


def test_exact_paths_match_affine_moments_per_node(params2, reference_spec):
    # The exact scheme against affine_moments at every node after the first:
    # the optimal wealth (geometric) and the static probe (arithmetic), under
    # the worst case and the mid-horizon switch.  Sample means and variances
    # hold family-wise over each path set's 2 x 16 tests; against the moments
    # of the rule with v and w scaled by 1.02, the same paths fail.
    sol = solve(reference_spec, params2)
    probes = dict(default_probe_strategies(robust_strategy(sol, params2)))
    schedules = dict(default_probe_schedules(reference_spec, params2, sol))
    cfg = SimConfig(n_paths=50_000, n_steps=16, seed=65)
    limit = sim._familywise_z(2 * cfg.n_steps)
    static = probes["static"]

    def worst_z(rule, sched, t, paths):
        mean, var = affine_moments(rule, sched, params2, t)
        return max(z.max() for z in _moment_z(paths[:, 1:], mean[1:], var[1:]))

    for name in ("worst_case", "switch_mid_horizon"):
        sched = schedules[name]
        runs = ((probes["optimal"], simulate_optimal_exact(sol, sched, params2, cfg)),
                (static, simulate_wealth(static, sched, params2, cfg)))
        for rule, (t, paths) in runs:
            perturbed = AffineRule(xbar=rule.xbar, v=1.02 * rule.v, w=1.02 * rule.w)
            true_z, perturbed_z = worst_z(rule, sched, t, paths), worst_z(perturbed, sched, t, paths)
            assert true_z < limit < perturbed_z, (name, true_z, perturbed_z)


def _per_step_integrals(direction, schedule, params, n_steps, log_scale):
    """_exact_step_integrals as it was written before: each step's overlap with every piece."""
    pieces = []
    for t0, t1, theta in schedule.pieces(params.horizon_T):
        sigma = market.covariance_from(theta.rho, params).matrix
        var_rate = float(direction @ sigma @ direction)
        drift_rate = float(theta.b @ direction) + (0.5 * var_rate if log_scale else 0.0)
        pieces.append((t0, t1, drift_rate, var_rate))
    dt = params.horizon_T / n_steps
    drift_int, var_int = np.zeros(n_steps), np.zeros(n_steps)
    for n in range(n_steps):
        a, b = n * dt, (n + 1) * dt
        for t0, t1, drift_rate, var_rate in pieces:
            overlap = max(0.0, min(b, t1) - max(a, t0))
            if overlap > 0.0:
                drift_int[n] += drift_rate * overlap
                var_int[n] += var_rate * overlap
    return drift_int, var_int


def test_exact_step_integrals_match_per_step_loop(params2, reference):
    # Bitwise the per-step loop's sums, breakpoints on and off the grid and
    # one beyond T; with an overflowing rate every step is inf and none NaN.
    sol, strat, sched = reference
    values = (sol.theta_star, ThetaPoint(b=[0.44, 0.22], rho=[0.0]), sol.theta_star)
    schedules = [sched] + [
        ThetaProcessSchedule(breakpoints=np.array(points), values=values[: len(points)])
        for points in ([0.0, 0.5], [0.0, 0.3141, 0.77], [0.0, 0.6, 1.5])
    ]
    kappa = strat.allocation_direction
    for schedule in schedules:
        for n_steps in (1, 2, 3, 7, 16, 256):
            for log_scale in (False, True):
                pieces = sim._pieces(schedule, params2)
                integrals = sim._exact_step_integrals(kappa, pieces, params2, n_steps, log_scale)
                for got, want in zip(integrals, _per_step_integrals(kappa, schedule, params2, n_steps, log_scale)):
                    assert got.tobytes() == want.tobytes(), (schedule.breakpoints, n_steps, log_scale)
        with np.errstate(over="ignore"):
            drift_int, var_int = sim._exact_step_integrals(np.full(2, 1e200), sim._pieces(schedule, params2), params2,
                                                           7, True)
        assert np.all(drift_int == np.inf) and np.all(var_int == np.inf)


def _first_failure(sol, spec, params, cfg, **kw):
    """(probe, margin) of the PrincipleViolated the check raises, or None when it passes."""
    try:
        verify_weak_principle(sol, spec, params, cfg, **kw)
    except PrincipleViolated as exc:
        return exc.probe, exc.margin
    return None


@pytest.mark.parametrize("name, sol, params", _instances())
def test_weak_principle_catches_one_percent_r_star_error(name, sol, params, reference_spec):
    # The strategy probes and the terminal condition are decided in closed
    # form, so a 1% error in r* fails at a tiny size, by a margin that does
    # not depend on the paths.  Too low, the optimal probe's E[V_t] rises;
    # too high, J under the worst case falls short of V0.  An Euler probe
    # after a failing probe never runs.
    spec = reference_spec if name == "readme" else curated_three_asset("ThreeAsset.Case5ii")[0]
    calls = []
    for seed in (1, 2):
        cfg = SimConfig(n_paths=1000, n_steps=16, seed=seed)
        assert _first_failure(sol, spec, params, cfg) is None
        low = replace(sol, r_star=0.99 * sol.r_star)
        optimal = default_probe_strategies(robust_strategy(low, params))[0]
        euler = ("euler", lambda t, x: calls.append(t) or optimal[1](t, x))
        failures = [
            _first_failure(low, spec, params, cfg),
            _first_failure(low, spec, params, cfg, probe_strategies=[optimal, euler]),
            _first_failure(replace(sol, r_star=1.01 * sol.r_star), spec, params, cfg),
        ]
        if seed == 1:
            expected = failures
        assert failures == expected
    (probe_low, rise), euler_low, (probe_high, shortfall) = expected
    assert probe_low == "optimal" and rise > 1e-5 and euler_low == expected[0] and not calls
    assert probe_high == "worst_case" and shortfall < -4e-4


def _philox_block_rng(seed, block):
    """The block streams before they moved to SFC64, keyed by the same SeedSequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


# Block streams of the reference-value tests.  Their Philox literals were
# recorded before the streams moved to SFC64; reproducing them under the old
# stream shows that the step arithmetic did not move with it.
STREAMS = {"philox": _philox_block_rng, "sfc64": sim._block_rng}

# (margin, allowance) of each scenario probe's simulator check on the README
# instance at 20,000 x 16, seed 5, on Philox streams as the check gave them
# when it drew every probe's X_T through its own simulate_wealth call, and on
# the SFC64 streams.
README_SIMULATOR_CHECK_SEED5 = {
    "worst_case": (0.0012065882234770786, 0.009089776698734267),
    "center": (0.0011605736018185375, 0.00877759465873859),
    "low_corr_outer_drift": (0.001131519023302996, 0.008579760064587456),
    "low_corr_inner_drift": (0.001190469336684874, 0.00898057409390704),
    "high_corr_outer_drift": (0.001121082719255595, 0.008508558380056503),
    "high_corr_inner_drift": (0.0012016347684888906, 0.009056235361437988),
    "switch_mid_horizon": (0.0011406361254640007, 0.008641900359591432),
    "revisit_worst": (0.0012065882234770786, 0.009089776698734267),
}
README_SIMULATOR_CHECK_SEED5_SFC64 = {
    "worst_case": (-0.0005443551843404837, 0.009180375178628042),
    "center": (-0.0005191531382735537, 0.008864498248719483),
    "low_corr_outer_drift": (-0.0005033497599287173, 0.008664336923276747),
    "low_corr_inner_drift": (-0.0005355031136824451, 0.009069876889514255),
    "high_corr_outer_drift": (-0.0004976945149162137, 0.008592300705872127),
    "high_corr_inner_drift": (-0.0005416321766131826, 0.009146435512805426),
    "switch_mid_horizon": (-0.0005082994113074779, 0.008727206793257164),
    "revisit_worst": (-0.0005443551843404837, 0.009180375178628042),
}


def test_weak_principle_simulator_check(params2, reference_spec, monkeypatch):
    # At the true r* each scenario probe's simulated J matches its closed
    # form within the family-wise allowance, wider than N_SIGMA standard
    # errors, with the margins pinned bitwise on both streams; terminal
    # wealths shifted by 0.05 in the shared draw fail at the first probe.
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=20000, n_steps=16, seed=5)
    for stream, expected in (("philox", README_SIMULATOR_CHECK_SEED5), ("sfc64", README_SIMULATOR_CHECK_SEED5_SFC64)):
        monkeypatch.setattr(sim, "_block_rng", STREAMS[stream])
        report = verify_weak_principle(sol, reference_spec, params2, cfg)
        names = [c.name for c in report.terminal_gain]
        assert [c.name for c in report.simulator_check] == names and len(names) == 8
        for check in report.simulator_check:
            assert check.ok and abs(check.margin) <= check.allowance
        assert {c.name: (c.margin, c.allowance) for c in report.simulator_check} == expected
    optimal = dict(default_probe_strategies(robust_strategy(sol, params2)))["optimal"]
    worst = ThetaProcessSchedule.constant(sol.theta_star)
    est = estimate_objective(_terminal_draws(optimal, worst, params2, cfg), params2)
    assert report.simulator_check[0].allowance == pytest.approx(sim._familywise_z(8) * est.std_error_J, rel=1e-12)
    assert sim._familywise_z(8) > N_SIGMA
    terminal_wealth = sim._terminal_wealth
    monkeypatch.setattr(sim, "_terminal_wealth", lambda *args: terminal_wealth(*args) + 0.05)
    with pytest.raises(PrincipleViolated, match="simulated J misses its closed form") as exc:
        verify_weak_principle(sol, reference_spec, params2, cfg)
    assert exc.value.probe == names[0]
    assert exc.value.margin == pytest.approx(report.simulator_check[0].margin + 0.05, rel=1e-9)


def test_weak_principle_draws_only_terminal_wealth(params2, reference_spec, monkeypatch):
    # The default strategy probes draw nothing, and the scenario probes share
    # one terminal draw: the block streams opened are its two blocks.
    sol = solve(reference_spec, params2)
    streams, block_rng = [], sim._block_rng
    monkeypatch.setattr(sim, "_block_rng", lambda seed, block: streams.append(block) or block_rng(seed, block))
    cfg = SimConfig(n_paths=sim.BLOCK + 1001, n_steps=16, seed=11)
    report = verify_weak_principle(sol, reference_spec, params2, cfg)
    assert report.ok and len(report.terminal_gain) == 8 and streams == [0, 1]


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("n_paths", [sim.BLOCK + 1001, 2])
@pytest.mark.parametrize("name, sol, params", _instances())
def test_shared_terminal_draw_matches_simulate_wealth(name, sol, params, reference_spec, n_paths, antithetic):
    # One draw mapped through every default scenario probe's exact step is,
    # row by row, bitwise the probe's own one-step simulate_wealth X_T.
    spec = reference_spec if name == "readme" else curated_three_asset("ThreeAsset.Case5ii")[0]
    optimal = dict(default_probe_strategies(robust_strategy(sol, params)))["optimal"]
    schedules = default_probe_schedules(spec, params, sol)
    cfg = SimConfig(n_paths=n_paths, n_steps=16, seed=3, antithetic=antithetic)
    normals = sim._shared_normals(cfg)
    assert len(schedules) == 8
    for probe, sched in schedules:
        xt = sim._terminal_wealth(optimal.v, optimal.xbar - params.x0, sim._pieces(sched, params), normals, params)
        assert xt.tobytes() == _terminal_draws(optimal, sched, params, cfg).tobytes(), probe


@pytest.mark.parametrize("name, sol, params", _instances())
def test_weak_principle_factorization_count(name, sol, params, reference_spec, monkeypatch):
    # The check factors each probe correlation once for all its pieces,
    # projections and closed forms (54 scalar factorizations when each use
    # factored its own).  Of the 16 left, 11 are inside the public calls that
    # build the scenario probes (project_rho 3, risk_premium 2, contains 6)
    # and one is the unit market of the shared draw.
    spec = reference_spec if name == "readme" else curated_three_asset("ThreeAsset.Case5ii")[0]
    calls, factor = [], market._factor
    monkeypatch.setattr(market, "_factor", lambda matrix: calls.append(matrix) or factor(matrix))
    for antithetic in (False, True):
        del calls[:]
        cfg = SimConfig(n_paths=1000, n_steps=256, seed=1, antithetic=antithetic)
        assert verify_weak_principle(sol, spec, params, cfg).ok
        assert len(calls) <= 16


@pytest.mark.parametrize("name, sol, params", _instances())
def test_terminal_sampler_closed_form(name, sol, params, reference_spec):
    strat = robust_strategy(sol, params)
    optimal = dict(default_probe_strategies(strat))["optimal"]
    y0 = math.exp(sol.r_star * params.horizon_T) / (2.0 * params.lam)
    spec = reference_spec if name == "readme" else curated_three_asset("ThreeAsset.Case5ii")[0]
    switch = dict(default_probe_schedules(spec, params, sol))["switch_mid_horizon"]
    cfg = SimConfig(n_paths=200_000, n_steps=1, seed=62)
    for sched in (ThetaProcessSchedule.constant(sol.theta_star), switch):
        xt = _terminal_draws(optimal, sched, params, cfg)
        mean, var = _terminal_moments(sched, strat.allocation_direction, params, y0)
        z_mean, z_var = _moment_z(xt[:, None], mean, var)
        assert z_mean[0] < 4.0 and z_var[0] < 4.0, name


def test_affine_exact_matches_euler(params2, reference):
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=20000, n_steps=64, seed=63)
    for name, rule in default_probe_strategies(strat):
        _, exact = simulate_wealth(rule, sched, params2, cfg)
        _, euler = simulate_wealth(lambda t, x: rule(t, x), sched, params2, cfg)
        e1, e2 = estimate_objective(exact, params2), estimate_objective(euler, params2)
        assert abs(e1.J - e2.J) <= 4.0 * math.hypot(e1.std_error_J, e2.std_error_J), name


def test_affine_rule_call_shapes(params2, reference):
    _, strat, _ = reference
    probes = dict(default_probe_strategies(strat))
    x = np.array([0.5, 1.0, 1.7])
    for c, name in ((1.0, "optimal"), (0.5, "half"), (-1.0, "contrarian")):
        assert probes[name](0.0, 1.2).shape == (2,)
        assert np.allclose(probes[name](0.0, x), c * strat(0.0, x), rtol=1e-14, atol=0.0)
    assert np.array_equal(probes["static"](0.3, x), np.tile(strat.allocation_direction, (3, 1)))
    assert np.array_equal(probes["zero"](0.3, 2.0), np.zeros(2))


def test_affine_antithetic_pairs(params2, reference):
    sol, strat, sched = reference
    probes = dict(default_probe_strategies(strat))
    cfg = SimConfig(n_paths=5000, n_steps=8, seed=64, antithetic=True)
    dt = params2.horizon_T / cfg.n_steps
    y0 = math.exp(sol.r_star) / (2.0 * params2.lam)
    # static: increments r* dt + sqrt(r* dt) xi, so lane pairs sum to 2 r* dt
    _, paths = simulate_wealth(probes["static"], sched, params2, cfg)
    inc = np.diff(paths, axis=1)
    assert np.allclose(inc[0::2] + inc[1::2], 2.0 * sol.r_star * dt, rtol=0.0, atol=1e-13)
    assert np.all(np.abs(inc[0::2] - inc[1::2]) > 0.0)
    # optimal: log N steps by -(3/2) r* dt - sqrt(r* dt) xi
    _, paths = simulate_wealth(probes["optimal"], sched, params2, cfg)
    log_n = np.log1p(-(paths - params2.x0) / y0)
    step = np.diff(log_n, axis=1)
    assert np.allclose(step[0::2] + step[1::2], -3.0 * sol.r_star * dt, rtol=0.0, atol=1e-12)
    # terminal draws: log N_T of a pair sums to -3 r* T
    xt = _terminal_draws(probes["optimal"], sched, params2, cfg)
    log_nt = np.log1p(-(xt - params2.x0) / y0)
    assert np.allclose(log_nt[0::2] + log_nt[1::2], -3.0 * sol.r_star, rtol=0.0, atol=1e-12)


def test_optimal_exact_reference_values(params2, reference, monkeypatch):
    # Philox values recorded from the exact simulator before the affine rules
    # shared its step integrals, and SFC64 values recorded on the same
    # arithmetic; they must not move (numpy 2.4, x86-64).
    sol, _, sched = reference
    switch = ThetaProcessSchedule(
        breakpoints=np.array([0.0, 0.5]), values=(sol.theta_star, ThetaPoint(b=[0.44, 0.22], rho=[0.0]))
    )
    expected = {
        "philox": (
            (0.033188384305799956, 1.1967926839778944, 1.227760579002348, 10937.577489480873),
            (0.9915946635223639, 1.1568965036097476, 5565.572108390377),
        ),
        "sfc64": (
            (1.3736651986044437, 1.0895494592061414, 1.270213983788851, 10967.874589130279),
            (0.2998607252128319, 0.7810406751843241, 5577.14889036992),
        ),
    }
    for stream, (constant, two_piece) in expected.items():
        monkeypatch.setattr(sim, "_block_rng", STREAMS[stream])
        cfg = SimConfig(n_paths=10000, n_steps=16, seed=7)
        _, paths = simulate_optimal_exact(sol, sched, params2, cfg)
        assert (paths[0, -1], paths[9999, 8], paths[5000, 3], paths[:, -1].sum()) == constant
        cfg = SimConfig(n_paths=5000, n_steps=64, seed=3, antithetic=True)
        _, paths = simulate_optimal_exact(sol, switch, params2, cfg)
        assert (paths[0, -1], paths[4999, 32], paths[:, -1].sum()) == two_piece


def test_euler_reference_values(params2, reference, monkeypatch):
    # Euler paths of the optimal rule on the README instance, pinned bitwise
    # on both streams as the one-normal step draws them: the rule's
    # arithmetic and the Euler step must not move them (numpy 2.4, x86-64).
    sol, strat, sched = reference
    switch = ThetaProcessSchedule(
        breakpoints=np.array([0.0, 0.5]), values=(sol.theta_star, ThetaPoint(b=[0.44, 0.22], rho=[0.0]))
    )
    expected = {
        "philox": {
            (False, False): (0.6788229649118871, 1.0131548642244201, 1.0032704333331723, 5488.493938519752),
            (False, True): (0.5763783059251908, 1.1145203712132532, 1.0898419833423878, 5475.027983081229),
            (True, False): (0.7083378712769313, 1.0131548642244201, 1.0032704333331723, 5592.217905443116),
            (True, True): (0.6079486447017243, 1.1145203712132532, 1.0898419833423878, 5579.030147187643),
        },
        "sfc64": {
            (False, False): (1.3124164801514866, 1.0690168692076671, 0.9788498105195685, 5487.172371672167),
            (False, True): (1.545261351425287, 0.9742660280139428, 0.9573783690938065, 5472.7448884508085),
            (True, False): (1.3286616778594766, 1.0690168692076671, 0.9788498105195685, 5590.908037095597),
            (True, True): (1.5568057289333304, 0.9742660280139428, 0.9573783690938065, 5576.7897552778995),
        },
    }
    for stream, runs in expected.items():
        monkeypatch.setattr(sim, "_block_rng", STREAMS[stream])
        for (two_piece, antithetic), values in runs.items():
            cfg = SimConfig(n_paths=5000, n_steps=64, seed=7, antithetic=antithetic)
            _, paths = simulate_wealth(strat, switch if two_piece else sched, params2, cfg)
            assert (paths[0, -1], paths[4999, 32], paths[2500, 7], paths[:, -1].sum()) == values


def test_weak_principle_flipped_offset_fails(params2, reference_spec, monkeypatch):
    # A wrong value function: offset(t) with its sign flipped rises in t.
    offset = ValueCoefficients.offset
    monkeypatch.setattr(ValueCoefficients, "offset", lambda self, t: -offset(self, t))
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=4096, n_steps=32, seed=0)
    with pytest.raises(PrincipleViolated, match="E\\[V_t\\] increases"):
        verify_weak_principle(sol, reference_spec, params2, cfg)


def test_weak_principle_callable_probe_runs_euler(params2, reference_spec, monkeypatch):
    sol = solve(reference_spec, params2)
    rule = dict(default_probe_strategies(robust_strategy(sol, params2)))["optimal"]
    calls, streams, block_rng = [], [], sim._block_rng

    def spy(t, x):
        calls.append(t)
        return rule(t, x)

    monkeypatch.setattr(sim, "_block_rng", lambda seed, block: streams.append(block) or block_rng(seed, block))
    cfg = SimConfig(n_paths=5000, n_steps=16, seed=1)
    report = verify_weak_principle(sol, reference_spec, params2, cfg, probe_strategies=[("spy", spy)])
    assert report.ok and [c.name for c in report.monotone_under_worst_case] == ["spy"]
    assert len(calls) == 2 * cfg.n_steps  # two blocks, one call per Euler step
    # No exact strategy probe, so no draw for them: the Euler probe's streams and the shared terminal draw's.
    assert len(streams) == 2 * (1 + 1)


# -- the Euler step at d = 3


@pytest.fixture
def three_asset():
    """Case5ii, every asset traded: the optimal rule, the market, its worst-case and two-piece schedules."""
    spec, params = curated_three_asset("ThreeAsset.Case5ii")
    sol = solve(spec, params)
    centre = ThetaPoint(b=spec.b_hat, rho=0.5 * (spec.gamma.lower + spec.gamma.upper))
    schedules = {
        "constant": ThetaProcessSchedule.constant(sol.theta_star),
        "two_piece": ThetaProcessSchedule(breakpoints=np.array([0.0, 0.5]), values=(sol.theta_star, centre)),
    }
    return robust_strategy(sol, params), params, schedules


def _row_major_euler(rule, schedule, params, cfg):
    """The one-normal Euler step as a plain per-block loop, with alpha' Sigma alpha from the dense Sigma.

    Each step looks up its scenario value at its left node and forms
    Sigma(rho) there, independently of the simulator's per-piece factor.
    """
    dt = params.horizon_T / cfg.n_steps
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
    paths = np.empty((cfg.n_paths, cfg.n_steps + 1))
    for block, (start, stop) in enumerate(sim._block_ranges(cfg.n_paths)):
        rng = sim._block_rng(cfg.seed, block)
        x = np.full(stop - start, float(params.x0))
        paths[start:stop, 0] = x
        for n in range(cfg.n_steps):
            z = sim._normals(rng, stop - start, cfg.antithetic)
            alpha = np.ascontiguousarray(rule(t_grid[n], x))
            theta = schedule.value_at(n * dt)
            sigma = market.covariance_from(theta.rho, params).matrix
            var = np.einsum("ij,jk,ik->i", alpha, sigma, alpha)
            x = x + (alpha @ theta.b) * dt + np.sqrt(var * dt) * z
            paths[start:stop, n + 1] = x
    return paths


def test_euler_constant_rule_law_three_assets(three_asset):
    # A constant alpha = kappa* makes Euler exact: X_T ~ N(x0 + A, C) from
    # affine_moments.  Under the two-piece schedule the one-normal step must
    # give that law at d = 3: a z-test on the mean and a Wilson-Hilferty
    # chi-square test on the variance, each at 4 sigma.  Measured z: -0.22
    # (mean) and +0.53 (variance).  L' alpha replaced by L alpha scales the
    # variance by 0.69 on the worst-case piece and 1.10 on the centre piece,
    # and the variance test then reads z = +14.0.
    strat, params, schedules = three_asset
    rule = AffineRule(xbar=strat.xbar, v=np.zeros(3), w=strat.allocation_direction)
    cfg = SimConfig(n_paths=20000, n_steps=64, seed=5)
    t_grid, paths = simulate_wealth(lambda t, x: rule(t, x), schedules["two_piece"], params, cfg)
    mean, var = affine_moments(rule, schedules["two_piece"], params, t_grid)
    xt, n = paths[:, -1], cfg.n_paths
    z_mean = (xt.mean() - mean[-1]) / math.sqrt(var[-1] / n)
    k = n - 1  # (n - 1) s^2 / C is chi-square with k degrees of freedom
    shift = 2.0 / (9.0 * k)
    z_var = ((xt.var(ddof=1) / var[-1]) ** (1.0 / 3.0) - (1.0 - shift)) / math.sqrt(shift)
    assert abs(z_mean) < 4.0 and abs(z_var) < 4.0


def test_euler_paths_depend_only_on_rule_values(three_asset):
    # A C-ordered copy of the optimal rule's alpha gives its paths bitwise,
    # and a rule cannot write into the stored wealths it is called on.
    strat, params, schedules = three_asset
    cfg = SimConfig(n_paths=sim.BLOCK + 101, n_steps=16, seed=5)
    sched = schedules["two_piece"]
    _, expected = simulate_wealth(strat, sched, params, cfg)
    assert strat(0.0, np.ones(5)).flags.f_contiguous

    def c_order(t, x):
        alpha = np.ascontiguousarray(strat(t, x))
        assert alpha.flags.c_contiguous
        return alpha

    assert simulate_wealth(c_order, sched, params, cfg)[1].tobytes() == expected.tobytes()

    refused = []

    def meddler(t, x):
        try:
            x += 1.0
        except ValueError:
            refused.append(t)
        return strat(t, x)

    _, paths = simulate_wealth(meddler, sched, params, cfg)
    assert len(refused) == 2 * cfg.n_steps  # two blocks, every write refused
    assert paths.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        simulate_wealth(lambda t, x: np.add(x, 1.0, out=x), sched, params, cfg)


@pytest.mark.parametrize("antithetic", [False, True])
def test_determinism_across_worker_counts_three_assets(three_asset, monkeypatch, antithetic):
    # Four blocks, the last ragged: the optimal rule and an AffineRule with
    # v and w both nonzero, both on Euler.
    strat, params, schedules = three_asset
    kappa = strat.allocation_direction
    affine = AffineRule(xbar=strat.xbar, v=0.5 * kappa, w=kappa[::-1].copy())
    cfg = SimConfig(n_paths=3 * sim.BLOCK + 17, n_steps=16, seed=9, antithetic=antithetic)
    runs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("ROBUSTMV_THREADS", threads)
        runs[threads] = [simulate_wealth(rule, schedules["two_piece"], params, cfg)[1] for rule in (strat, affine)]
    for serial, threaded in zip(runs["1"], runs["4"]):
        assert serial.tobytes() == threaded.tobytes()


def test_default_worker_count_matches_one_thread(params2, reference, reference_spec, three_asset, monkeypatch):
    # ROBUSTMV_THREADS unset runs one worker per CPU the process may use: every
    # path and report must be bitwise that of one thread.
    sol, strat, sched = reference
    strat3, params3, schedules = three_asset
    probes = dict(default_probe_strategies(strat))
    cfg = SimConfig(n_paths=3 * sim.BLOCK + 17, n_steps=16, seed=7)

    def run():
        arrays = [
            simulate_wealth(strat, sched, params2, cfg)[1],
            simulate_wealth(strat3, schedules["two_piece"], params3, cfg)[1],
            simulate_optimal_exact(sol, sched, params2, cfg)[1],
            *(simulate_wealth(probes[name], sched, params2, cfg)[1] for name in ("half", "static")),
            _terminal_draws(probes["optimal"], sched, params2, cfg),
        ]
        return arrays, verify_weak_principle(sol, reference_spec, params2, cfg)

    monkeypatch.setenv("ROBUSTMV_THREADS", "1")
    serial, serial_report = run()
    monkeypatch.delenv("ROBUSTMV_THREADS")
    default, default_report = run()
    assert default_report == serial_report
    for a, b in zip(serial, default):
        assert a.tobytes() == b.tobytes()


def test_worker_count_rule(monkeypatch):
    # Pinned without starting a thread: the stand-in pool records its size
    # and runs each block inline.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures):
            pass

    def pool_size(n_blocks, n_steps=sim.THREADED_MIN_STEPS):
        del sizes[:]
        blocks = []
        sim._run_blocks(n_blocks * sim.BLOCK - 1, n_steps, lambda k, start, stop: blocks.append(k))
        assert blocks == list(range(n_blocks))
        return sizes[0] if sizes else 1  # one worker runs the blocks without a pool

    monkeypatch.setattr(sim, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.delenv("ROBUSTMV_THREADS", raising=False)
    assert sim._n_workers() == 3
    assert [pool_size(n) for n in (1, 2, 3, 8)] == [1, 2, 3, 3]
    # Runs shorter than 16 steps start no pool, however many blocks they have.
    assert sim.THREADED_MIN_STEPS == 16
    assert [pool_size(8, n_steps) for n_steps in (1, 8, 15, 16, 256)] == [1, 1, 1, 3, 3]
    for raw, workers in (("3", 3), ("1", 1), ("0", 1), ("-2", 1), ("abc", 1), ("100000", 100000)):
        monkeypatch.setenv("ROBUSTMV_THREADS", raw)
        assert sim._n_workers() == workers
    assert [pool_size(n) for n in (1, 2, 8)] == [1, 2, 8]  # never more workers than blocks
    monkeypatch.setenv("ROBUSTMV_THREADS", "3")
    assert [pool_size(n) for n in (2, 8)] == [2, 3]
    assert pool_size(8, n_steps=1) == 1
    # Without an affinity set, the CPU count, else one.
    monkeypatch.delenv("ROBUSTMV_THREADS")
    monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 7)
    assert sim._n_workers() == 7
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
    assert sim._n_workers() == 1


class _RuleFailed(Exception):
    pass


def _counting_rule(rule, fail_first):
    """rule with a call count taken under a lock; with fail_first its first call raises _RuleFailed."""
    lock, calls = threading.Lock(), [0]

    def counted(t, x):
        with lock:
            calls[0] += 1
            first = calls[0] == 1
        if fail_first and first:
            raise _RuleFailed
        return rule(t, x)

    return counted, calls


@pytest.mark.parametrize("threads", ["1", "2"])
def test_first_failing_block_stops_the_run(params2, reference, monkeypatch, threads):
    # 16 blocks and a rule whose first call raises: the blocks not yet started
    # are dropped, so the rule runs through a few blocks, not the other 15.
    _, strat, sched = reference
    monkeypatch.setenv("ROBUSTMV_THREADS", threads)
    cfg = SimConfig(n_paths=16 * sim.BLOCK, n_steps=64, seed=1)
    rule, calls = _counting_rule(strat, fail_first=True)
    with pytest.raises(_RuleFailed):
        simulate_wealth(rule, sched, params2, cfg)
    assert calls[0] < 4 * cfg.n_steps


def test_interrupt_while_waiting_drops_pending_blocks(params2, reference, monkeypatch):
    # An interrupt in the thread that waits on the blocks (Ctrl-C in CLI
    # simulate) cancels the blocks not yet started and propagates.
    _, strat, sched = reference
    monkeypatch.setenv("ROBUSTMV_THREADS", "2")

    def interrupted(futures):
        raise KeyboardInterrupt
        yield

    monkeypatch.setattr(sim, "as_completed", interrupted)
    cfg = SimConfig(n_paths=16 * sim.BLOCK, n_steps=64, seed=1)
    rule, calls = _counting_rule(strat, fail_first=False)
    with pytest.raises(KeyboardInterrupt):
        simulate_wealth(rule, sched, params2, cfg)
    assert calls[0] < 4 * cfg.n_steps


def test_euler_step_matches_row_major_reference(params2, reference, three_asset):
    # The simulator's ||L' alpha|| from the piece's factor against alpha' Sigma
    # alpha from the dense Sigma, at d = 2 and d = 3: a rounding-level move
    # (largest measured: none at d = 2, 2.6e-15 absolute at d = 3 under the
    # constant schedule).
    # The three-piece schedule has one breakpoint off the grid and one on it.
    _, strat2, sched2 = reference
    cfg = SimConfig(n_paths=5000, n_steps=64, seed=7)
    theta_star, other = sched2.values[0], ThetaPoint(b=[0.44, 0.22], rho=[0.0])
    pieces = ThetaProcessSchedule(breakpoints=np.array([0.0, 0.3141, 0.5]), values=(theta_star, other, theta_star))
    strat3, params3, schedules = three_asset
    runs = [(strat2, params2, "constant", sched2), (strat2, params2, "three_piece", pieces),
            *((strat3, params3, name, sched) for name, sched in schedules.items())]
    for strat, params, name, sched in runs:
        expected = _row_major_euler(strat, sched, params, cfg)
        _, paths = simulate_wealth(strat, sched, params, cfg)
        bound = 1e-12 * max(1.0, float(np.abs(expected).max()))
        assert np.abs(paths - expected).max() <= bound, (params.d, name)


def test_summarize_paths_matches_axis_reductions():
    # Column by column on a Fortran-ordered matrix gives axis=0's bits, and
    # holds no second matrix of the paths' size.
    paths = np.asfortranarray(np.random.default_rng(3).normal(1.0, 0.5, (100_000, 65)))
    t_grid = np.linspace(0.0, 1.0, paths.shape[1])
    tracemalloc.start()
    try:
        rows = summarize_paths(t_grid, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * paths.nbytes
    var = paths.var(axis=0, ddof=1)
    assert [row["t"] for row in rows] == t_grid.tolist()
    assert [row["mean"] for row in rows] == paths.mean(axis=0).tolist()
    assert [row["var"] for row in rows] == var.tolist()
    assert [row["se"] for row in rows] == np.sqrt(var / paths.shape[0]).tolist()
