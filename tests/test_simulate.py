"""Monte-Carlo engine: determinism, statistical agreement, principle checks."""

import math
import os
import tracemalloc
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
    ProbeCheck,
    WeakPrincipleReport,
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


def test_martingale_ratio_stats(params2, reference):
    sol, _, sched = reference
    cfg = SimConfig(n_paths=50000, n_steps=32, seed=31)
    _, _, stats = simulate_optimal_exact(sol, sched, params2, cfg, martingale_stats=True)
    z = np.abs(stats.mean_ratio - 1.0) / stats.se_ratio
    assert z.max() < 3.5


def test_determinism_bitwise(params2, reference):
    _, strat, sched = reference
    cfg = SimConfig(n_paths=3000, n_steps=32, seed=123)
    _, a = simulate_wealth(strat, sched, params2, cfg)
    _, b = simulate_wealth(strat, sched, params2, cfg)
    assert np.array_equal(a, b)


def test_determinism_across_worker_counts(params2, reference):
    sol, strat, sched = reference
    cfg = SimConfig(n_paths=10000, n_steps=16, seed=7)
    runs = {}
    old = os.environ.get("ROBUSTMV_THREADS")
    try:
        for threads in ("1", "4"):
            os.environ["ROBUSTMV_THREADS"] = threads
            _, euler = simulate_wealth(strat, sched, params2, cfg)
            _, exact, stats = simulate_optimal_exact(sol, sched, params2, cfg, martingale_stats=True)
            probes = dict(default_probe_strategies(strat))
            affine = [simulate_wealth(probes[name], sched, params2, cfg)[1] for name in ("half", "static")]
            terminal = _terminal_draws(probes["optimal"], sched, params2, cfg)
            runs[threads] = (euler, exact, stats.mean_ratio, stats.se_ratio, *affine, terminal)
    finally:
        if old is None:
            os.environ.pop("ROBUSTMV_THREADS", None)
        else:
            os.environ["ROBUSTMV_THREADS"] = old
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


def _sequential_principle(sol, spec, params, cfg, probe_strategies=None, probe_schedules=None):
    """verify_weak_principle's report built probe by probe from the paths simulate_wealth gives each alone."""
    strat = robust_strategy(sol, params)
    coeffs, v0 = value_coefficients(sol, params), value_v0(sol, params)
    worst = ThetaProcessSchedule.constant(sol.theta_star)
    if probe_strategies is None:
        probe_strategies = default_probe_strategies(strat)
    if probe_schedules is None:
        probe_schedules = default_probe_schedules(spec, params, sol)
    monotone, upper, terminal = [], [], []
    for name, rule in probe_strategies:
        t_grid, paths = simulate_wealth(rule, worst, params, cfg)
        increase, allowance = _monotonicity_check(paths, t_grid, coeffs)
        monotone.append(ProbeCheck(name, increase, allowance, increase <= allowance))
        if not monotone[-1].ok:
            raise PrincipleViolated("monotone", probe=name, margin=increase)
        est = estimate_objective(paths, params)
        margin, allowance = est.J - v0, N_SIGMA * est.std_error_J
        upper.append(ProbeCheck(name, margin, allowance, margin <= allowance))
        if not upper[-1].ok:
            raise PrincipleViolated("upper", probe=name, margin=margin)
    optimal = dict(default_probe_strategies(strat))["optimal"]
    for name, sched in probe_schedules:
        est = estimate_objective(simulate_wealth(optimal, sched, params, replace(cfg, n_steps=1))[1], params)
        margin, allowance = est.J - v0, N_SIGMA * est.std_error_J
        terminal.append(ProbeCheck(name, margin, allowance, margin >= -allowance))
        if not terminal[-1].ok:
            raise PrincipleViolated("terminal", probe=name, margin=margin)
    return WeakPrincipleReport(tuple(monotone), tuple(terminal), tuple(upper), v0, True)


def _outcome(check, *args, **kw):
    try:
        return check(*args, **kw)
    except PrincipleViolated as exc:
        return exc.probe, exc.margin


@pytest.mark.parametrize("antithetic", [False, True])
def test_weak_principle_shared_draw_matches_simulate_wealth(params2, reference_spec, monkeypatch, antithetic):
    # The exact strategy probes run together on one per-step draw and hold
    # no paths; the report must be the one built probe by probe from
    # simulate_wealth.  Two blocks, the last ragged and of odd length.  A
    # lying r* fails a scenario probe (1.5), the J bound (0.05) or the
    # monotone check (0.0); the same probe must fail by the same margin.
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=sim.BLOCK + 1001, n_steps=16, seed=11, antithetic=antithetic)
    euler_calls = []
    for r_star in (sol.r_star, 1.5, 0.05, 0.0):
        lying = replace(sol, r_star=r_star)
        probes = default_probe_strategies(robust_strategy(lying, params2))
        half = dict(probes)["half"]
        euler = ("euler", lambda t, x: euler_calls.append(t) or half(t, x))
        schedules = default_probe_schedules(reference_spec, params2, lying)
        for kw in (
            {},
            dict(probe_strategies=probes[:3], probe_schedules=schedules[:3]),  # the CLI's --probes 3
            dict(probe_strategies=[probes[0], euler, probes[5], probes[1], euler]),
        ):
            expected = _outcome(_sequential_principle, lying, reference_spec, params2, cfg, **kw)
            del euler_calls[:]
            assert _outcome(verify_weak_principle, lying, reference_spec, params2, cfg, **kw) == expected
            if r_star == 0.0:  # the first probe fails, so no Euler probe runs
                assert expected[0] == "optimal" and not euler_calls
    # One set of block streams for the strategy probes, plus one per scenario probe.
    streams, block_rng = [], sim._block_rng
    monkeypatch.setattr(sim, "_block_rng", lambda seed, block: streams.append(block) or block_rng(seed, block))
    report = verify_weak_principle(sol, reference_spec, params2, cfg)
    assert report.ok and len(streams) == 2 * (1 + len(report.terminal_gain))


def test_weak_principle_frees_shared_buffer_before_euler_probe(params2, reference_spec):
    # An Euler probe between exact ones fills its own paths: the exact
    # probes hold no path buffer next to them.
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
    # The default check streams its exact probes: a few rows per probe, far
    # below one (n_steps + 1, n_paths) path buffer.
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


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_node_normals_match_per_step_draws(monkeypatch, antithetic, threads):
    # Two blocks, the last ragged and of odd length: each step's row must be
    # the per-step _normals draws of the block streams, bitwise.
    monkeypatch.setenv("ROBUSTMV_THREADS", threads)
    cfg = SimConfig(n_paths=sim.BLOCK + 1001, n_steps=7, seed=5, antithetic=antithetic)
    expected = np.empty((cfg.n_steps, cfg.n_paths))
    for block, (start, stop) in enumerate(sim._block_ranges(cfg.n_paths)):
        rng = sim._block_rng(cfg.seed, block)
        for n in range(cfg.n_steps):
            expected[n, start:stop] = sim._normals(rng, stop - start, 1, antithetic)[:, 0]
    rows = np.array([z.copy() for z in sim._step_normals(cfg)])
    assert rows.tobytes() == expected.tobytes()


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
    sol = solve(reference_spec, params2)
    cfg = SimConfig(n_paths=3 * 4096 + 17, n_steps=16, seed=8)
    reports = []
    for threads in ("1", "4"):
        monkeypatch.setenv("ROBUSTMV_THREADS", threads)
        reports.append(verify_weak_principle(sol, reference_spec, params2, cfg))
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


@pytest.mark.parametrize("name, sol, params", _instances())
def test_affine_exact_moments(name, sol, params):
    strat = robust_strategy(sol, params)
    sched = ThetaProcessSchedule.constant(sol.theta_star)
    probes = dict(default_probe_strategies(strat))
    cfg = SimConfig(n_paths=20000, n_steps=32, seed=61)
    r, x0 = sol.r_star, params.x0
    y0 = math.exp(r * params.horizon_T) / (2.0 * params.lam)
    xbar = x0 + y0
    for c, probe in ((0.5, "half"), (1.0, "optimal"), (1.5, "one_and_half"), (2.0, "double"), (-1.0, "contrarian")):
        t, paths = simulate_wealth(probes[probe], sched, params, cfg)
        assert np.all(paths[:, 0] == x0)
        mean = xbar - y0 * np.exp(-c * r * t[1:])
        var = y0**2 * (np.exp((c * c - 2.0 * c) * r * t[1:]) - np.exp(-2.0 * c * r * t[1:]))
        z_mean, z_var = _moment_z(paths[:, 1:], mean, var)
        assert z_mean.max() < 4.0 and z_var.max() < 4.0, (name, probe)
    # static: alpha = kappa*, so X is Brownian with drift and variance rate r*
    t, paths = simulate_wealth(probes["static"], sched, params, cfg)
    z_mean, z_var = _moment_z(paths[:, 1:], x0 + r * t[1:], r * t[1:])
    assert z_mean.max() < 4.0 and z_var.max() < 4.0
    _, zero = simulate_wealth(probes["zero"], sched, params, cfg)
    assert np.all(zero == x0)


def _terminal_moments(sched, kappa, params, y0):
    """Closed-form mean and variance of X_T = x0 + y0 (1 - N_T), log N_T Gaussian."""
    drift = var = 0.0
    for t0, t1, theta in sched.pieces(params.horizon_T):
        sigma = np.outer(params.sigmas, params.sigmas) * correlation_matrix(theta.rho, params.d)
        rate = float(kappa @ sigma @ kappa)
        drift += (float(theta.b @ kappa) + 0.5 * rate) * (t1 - t0)
        var += rate * (t1 - t0)
    mean_n = math.exp(-drift + 0.5 * var)
    return params.x0 + y0 * (1.0 - mean_n), y0**2 * mean_n**2 * math.expm1(var)


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


def test_optimal_exact_reference_values(params2, reference):
    # Values recorded from the exact simulator before the affine rules shared
    # its step integrals; they must not move (numpy 2.4, x86-64).
    sol, _, sched = reference
    cfg = SimConfig(n_paths=10000, n_steps=16, seed=7)
    _, paths, stats = simulate_optimal_exact(sol, sched, params2, cfg, martingale_stats=True)
    assert paths[0, -1] == 0.033188384305799956
    assert paths[9999, 8] == 1.1967926839778944
    assert paths[5000, 3] == 1.227760579002348
    assert paths[:, -1].sum() == 10937.577489480873
    assert stats.mean_ratio[0] == 1.0005980191297765
    assert stats.mean_ratio[-1] == 1.0008322968245122
    assert stats.se_ratio[-1] == 0.0015087257576744317
    switch = ThetaProcessSchedule(
        breakpoints=np.array([0.0, 0.5]), values=(sol.theta_star, ThetaPoint(b=[0.44, 0.22], rho=[0.0]))
    )
    cfg = SimConfig(n_paths=5000, n_steps=64, seed=3, antithetic=True)
    _, paths = simulate_optimal_exact(sol, switch, params2, cfg)
    assert paths[0, -1] == 0.9915946635223639
    assert paths[4999, 32] == 1.1568965036097476
    assert paths[:, -1].sum() == 5565.572108390377


def test_euler_reference_values(params2, reference):
    # Euler paths of the optimal rule on the README instance, pinned bitwise:
    # the rule's arithmetic and the Euler step must not move them (numpy 2.4,
    # x86-64).
    sol, strat, sched = reference
    switch = ThetaProcessSchedule(
        breakpoints=np.array([0.0, 0.5]), values=(sol.theta_star, ThetaPoint(b=[0.44, 0.22], rho=[0.0]))
    )
    expected = {
        (False, False): (1.1968770532020023, 1.1697203184298532, 0.9422087084680746, 5473.575316467989),
        (False, True): (0.6788229649118871, 0.7310741146462844, 1.0032704333331723, 5469.759044578163),
        (True, False): (1.215722220781384, 1.1697203184298532, 0.9422087084680746, 5577.60083894114),
        (True, True): (0.7083378712769313, 0.7310741146462844, 1.0032704333331723, 5573.859884858727),
    }
    for (two_piece, antithetic), values in expected.items():
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
    # No exact strategy probe, so no draw for them: the Euler probe's streams and the terminal draws'.
    assert len(streams) == 2 * (1 + len(report.terminal_gain))


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
    """The Euler step as it ran before it went asset-major: C-ordered alpha, z @ L.T, einsum over rows."""
    dt, drifts, chols = sim._step_model(schedule, params, cfg.n_steps)
    sqrt_dt = math.sqrt(dt)
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
    paths = np.empty((cfg.n_paths, cfg.n_steps + 1))
    for block, (start, stop) in enumerate(sim._block_ranges(cfg.n_paths)):
        rng = sim._block_rng(cfg.seed, block)
        x = np.full(stop - start, float(params.x0))
        paths[start:stop, 0] = x
        for n in range(cfg.n_steps):
            z = sim._normals(rng, stop - start, params.d, cfg.antithetic)
            alpha = np.ascontiguousarray(rule(t_grid[n], x))
            shock = z @ chols[n].T
            x = x + (alpha @ drifts[n]) * dt + sqrt_dt * np.einsum("ij,ij->i", alpha, shock)
            paths[start:stop, n + 1] = x
    return paths


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


def test_euler_step_matches_row_major_reference(params2, reference, three_asset):
    # At d = 2 the asset-major step gives the row-major one's bits; at d = 3
    # its sums over the assets add up in another order, a rounding-level move
    # (largest measured: 2.6e-15 absolute, under the two-piece schedule).
    _, strat2, sched2 = reference
    cfg = SimConfig(n_paths=5000, n_steps=64, seed=7)
    expected = _row_major_euler(strat2, sched2, params2, cfg)
    assert simulate_wealth(strat2, sched2, params2, cfg)[1].tobytes() == expected.tobytes()
    strat, params, schedules = three_asset
    for name, sched in schedules.items():
        expected = _row_major_euler(strat, sched, params, cfg)
        _, paths = simulate_wealth(strat, sched, params, cfg)
        bound = 1e-12 * max(1.0, float(np.abs(expected).max()))
        assert np.abs(paths - expected).max() <= bound, name


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
