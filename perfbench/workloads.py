"""The three workloads: one round of operations each, run and checked.

A round is a fixed list of operations.  Each workload's round holds its own
operations plus a small fixed side slice of the operation families it does
not exercise, so that every run reports every end-to-end metric.  One
caller runs the operations one after another (closed loop).

Timing rule: an operation that raises is counted as attempted and failed
and left out of the timing; an operation that returns a wrong answer after
doing its full work is timed, and counted as attempted and failed.  A
failure is "known" when it has the signature of one of the two program
faults listed in perfbench/README.md; any other failure makes the run
incorrect.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

import robustmv as rm
from robustmv.errors import PrincipleViolated, RobustMVError

import inputs
import reference as ref

SADDLE_SAMPLES = 150
WEALTH_CFG = dict(n_paths=65536, n_steps=256)
SIDE_WEALTH_CFG = dict(n_paths=16384, n_steps=128)
PRINCIPLE_CFG = dict(n_paths=20000, n_steps=256)
PRINCIPLE_SEEDS = (12, 13)
SIDE_PRINCIPLE_CFG = dict(n_paths=4096, n_steps=32)
# Standard-error multiples for the Monte-Carlo checks.
K_SE = 5.0
K_PATH = 5.5
WORKLOADS = ("ambiguity-sweep", "wealth-mc", "principle-check")
SCHEDULES = ("worst", "two_piece")
SIMULATORS = ("euler", "exact")


class Tally:
    """Counts, timed work and failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.timings = []  # (family, work, wall start, wall end)
        self.trade_answer = None  # first passing sweep point with a trade
        self.wealth_answer = None  # (J, SE, V0) of the first simulation
        self.paths_mb = 0.0

    def timed(self, family, t0, t1, work=1.0):
        self.timings.append((family, work, t0, t1))

    def rate(self, family, clock=None):
        """Work per second of the family's operations (reference seconds with a clock)."""
        rows = [r for r in self.timings if r[0] == family]
        seconds = sum(clock.reference_seconds(r[2], r[3]) if clock else r[3] - r[2] for r in rows)
        return sum(r[1] for r in rows) / seconds if rows else float("nan")

    def median_seconds(self, family, clock=None):
        times = [clock.reference_seconds(r[2], r[3]) if clock else r[3] - r[2]
                 for r in self.timings if r[0] == family]
        return statistics.median(times) if times else float("nan")

    def fail(self, what, known):
        self.failed += 1
        if not known:
            self.unexpected.append(what)


# ---------------------------------------------------------------- sweep points

def make_spec(p):
    gamma = rm.GammaBox.full(p["d"]) if p["full"] else rm.GammaBox.box(p["lower"], p["upper"])
    if p["family"] == "product":
        return rm.ProductSet(delta_lower=p["b_lower"], delta_upper=p["b_upper"], gamma=gamma)
    return rm.EllipsoidalSet(b_hat=p["b_hat"], delta=p["delta"], gamma=gamma)


def make_params(p):
    return rm.MarketParams(sigmas=p["sigmas"], horizon_T=p["T"], lam=p["lam"], x0=p["x0"])


def is_fault_2(p, ans):
    """The fallback stopped just short of the no-trade level set."""
    return p["no_trade"] and ans["label"] == "Numeric" and ans["kind"] != "no_trade" and ans["r_star"] < 1e-6


def run_point(p, tally, tracer=None):
    spec, params = make_spec(p), make_params(p)
    tally.attempted += 1
    span = tracer.point() if tracer else None
    try:
        t0 = time.perf_counter()
        sol = rm.solve(spec, params)
        t1 = time.perf_counter()
        rm.robust_strategy(sol, params)
        report = rm.classify(sol, params)
        v0 = rm.value_v0(sol, params)
        t2 = time.perf_counter()
    except RobustMVError as exc:
        tally.fail(f"{p['tag']} delta={p['delta']:.6g}: {exc!r}", known=False)
        return None
    finally:
        if span:
            span.close()
    if tracer:
        tracer.report_time(t2 - t1)
    family = "numeric" if sol.case_label == "Numeric" else "closed"
    tally.timed(family, t0, t2)
    ans = dict(b=sol.theta_star.b, rho=sol.theta_star.rho, r_star=sol.r_star, kind=report.kind,
               asset=report.asset, signs=report.signs, v0=v0, label=sol.case_label)
    errs = ref.check_point(p, ans)
    if errs:
        tally.fail(f"{p['tag']} delta={p['delta']:.6g} ({sol.case_label}): {errs}", known=is_fault_2(p, ans))
        return None
    if tally.trade_answer is None and ans["kind"] != "no_trade":
        tally.trade_answer = (p, ans)
    return sol, spec, params, ans


def run_saddle(p, solved, tally, seed):
    sol, spec, params, ans = solved
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        report = rm.verify_saddle(sol, spec, params, samples=SADDLE_SAMPLES, seed=seed)
        t1 = time.perf_counter()
    except RobustMVError as exc:
        tally.fail(f"saddle {p['tag']}: {exc!r}", known=False)
        return
    tally.timed("saddle", t0, t1, SADDLE_SAMPLES)
    errs = ref.check_saddle(p, ans)
    if not (report.ok and report.samples == SADDLE_SAMPLES):
        errs.append("verify_saddle report not ok")
    if errs:
        tally.fail(f"saddle {p['tag']}: {errs}", known=False)


def sweep_ops(points, seed):
    ops = []
    for k, p in enumerate(points):
        ops.append(("point", p))
        if p["saddle"]:
            ops.append(("saddle", (p, seed + k)))
    return ops


# ---------------------------------------------------------------- wealth Monte-Carlo

def wealth_case(seed, cfg, sim_seed_base):
    """Solved three-asset instance with its worst-case and two-piece schedules."""
    mk, consts, delta = inputs.wealth_market(seed)
    p = dict(mk, **consts, delta=delta, d=3, full=False, family="ellipsoidal")
    spec, params = make_spec(p), make_params(p)
    sol = rm.solve(spec, params)
    s_lo, s_hi = ref.certify_ellipsoidal_box(mk["b_hat"], np.asarray(mk["sigmas"]), mk["lower"], mk["upper"])
    r_ref = max(0.5 * (s_lo + s_hi) - delta, 0.0) ** 2
    centre = rm.ThetaPoint(b=np.asarray(mk["b_hat"]), rho=0.5 * (np.asarray(mk["lower"]) + np.asarray(mk["upper"])))
    schedules = {
        "worst": rm.ThetaProcessSchedule.constant(sol.theta_star),
        "two_piece": rm.ThetaProcessSchedule(breakpoints=np.array([0.0, params.horizon_T / 2]),
                                             values=(sol.theta_star, centre)),
    }
    return dict(sol=sol, spec=spec, params=params, strategy=rm.robust_strategy(sol, params),
                schedules=schedules, r_ref=r_ref, v0=ref.v0(r_ref, consts["x0"], consts["lam"], consts["T"]),
                cfg=cfg, sim_seeds=sim_seed_base)


def wealth_ops(case):
    return [("wealth", (case, sched, sim)) for sched in SCHEDULES for sim in SIMULATORS]


def run_wealth(arg, tally, results):
    case, sched, sim = arg
    params, cfg = case["params"], case["cfg"]
    sim_cfg = rm.SimConfig(seed=case["sim_seeds"] + 2 * SCHEDULES.index(sched) + SIMULATORS.index(sim), **cfg)
    schedule = case["schedules"][sched]
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        if sim == "euler":
            t_grid, paths = rm.simulate_wealth(case["strategy"], schedule, params, sim_cfg)
        else:
            t_grid, paths = rm.simulate_optimal_exact(case["sol"], schedule, params, sim_cfg)
        t1 = time.perf_counter()
    except RobustMVError as exc:
        tally.fail(f"{sim} {sched}: {exc!r}", known=False)
        return
    tally.timed(sim, t0, t1, cfg["n_paths"] * cfg["n_steps"])
    tally.paths_mb = max(tally.paths_mb, paths.nbytes / 1e6)
    j, se = ref.objective(paths[:, -1], params.lam)
    errs = ref.check_objective(j, se, case["v0"], K_SE, side="both" if sched == "worst" else "below")
    if sim == "exact" and sched == "worst":
        target = ref.mean_optimal_wealth(case["r_ref"], params.x0, params.lam, params.horizon_T, t_grid[1:])
        se_t = paths[:, 1:].std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
        worst = float(np.max(np.abs(paths[:, 1:].mean(axis=0) - target) / se_t))
        if worst > K_PATH:
            errs.append(f"exact mean path is {worst:.2f} SE from the closed form")
    del paths
    results[(sched, sim)] = (j, se)
    if sim == "exact" and (sched, "euler") in results:
        je, see = results[(sched, "euler")]
        if abs(je - j) > K_SE * math.hypot(se, see):
            errs.append(f"Euler J {je:.8g} and exact J {j:.8g} differ by more than {K_SE} combined SE")
    if tally.wealth_answer is None:
        tally.wealth_answer = (j, se, case["v0"])
    if errs:
        tally.fail(f"{sim} {sched}: {errs}", known=False)


def threads_bitwise(case):
    """Paths at one thread and at nproc threads must be bitwise identical."""
    cfg = rm.SimConfig(n_paths=3 * 4096 + 17, n_steps=16, seed=7)
    sched = case["schedules"]["two_piece"]
    out = []
    saved = os.environ.pop("ROBUSTMV_THREADS", None)
    try:
        for threads in (None, str(max(2, os.cpu_count() or 1))):
            if threads:
                os.environ["ROBUSTMV_THREADS"] = threads
            out.append((rm.simulate_wealth(case["strategy"], sched, case["params"], cfg)[1],
                        rm.simulate_optimal_exact(case["sol"], sched, case["params"], cfg)[1]))
    finally:
        os.environ.pop("ROBUSTMV_THREADS", None)
        if saved is not None:
            os.environ["ROBUSTMV_THREADS"] = saved
    return all(np.array_equal(a, b) for a, b in zip(out[0], out[1]))


# ---------------------------------------------------------------- optimality principle

def principle_case(name, cfg, seed):
    if name == "readme":
        mk, consts, delta = inputs.README, inputs.FIXED_CONSTANTS, 0.1
    else:
        mk, consts, delta = inputs.wealth_market()
    p = dict(mk, **consts, delta=delta, d=len(mk["sigmas"]), full=False, family="ellipsoidal")
    s_lo, s_hi = ref.certify_ellipsoidal_box(mk["b_hat"], np.asarray(mk["sigmas"]), mk["lower"], mk["upper"])
    v_lo = ref.v0(max(s_lo - delta, 0.0) ** 2, consts["x0"], consts["lam"], consts["T"])
    v_hi = ref.v0(max(s_hi - delta, 0.0) ** 2, consts["x0"], consts["lam"], consts["T"])
    spec, params = make_spec(p), make_params(p)
    return dict(name=name, spec=spec, params=params, sol=rm.solve(spec, params), v0=(v_lo, v_hi),
                cfg=rm.SimConfig(seed=seed, **cfg))


def is_fault_1(exc):
    """Chance failure of the monotonicity check under the worst case."""
    return isinstance(exc, PrincipleViolated) and str(exc).startswith("E[V_t] increases")


def run_principle(case, tally):
    params = case["params"]
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        report = rm.verify_weak_principle(case["sol"], case["spec"], params, case["cfg"])
        t1 = time.perf_counter()
    except RobustMVError as exc:
        tally.fail(f"principle {case['name']} seed {case['cfg'].seed}: {exc}", known=is_fault_1(exc))
        return
    tally.timed("principle", t0, t1)
    errs = []
    zero = [c for c in report.objective_upper if c.name == "zero"]
    if len(zero) != 1 or abs(zero[0].margin + report.value_v0 - params.x0) > 1e-12 * max(1.0, abs(params.x0)):
        errs.append("the zero probe's J is not x0")
    v_lo, v_hi = case["v0"]
    if not v_lo - 1e-12 <= report.value_v0 <= v_hi + 1e-12:
        errs.append(f"V0 {report.value_v0:.12g} outside [{v_lo:.12g}, {v_hi:.12g}]")
    if len(report.monotone_under_worst_case) != 8 or not report.ok:
        errs.append("report is incomplete")
    if errs:
        tally.fail(f"principle {case['name']} seed {case['cfg'].seed}: {errs}", known=False)


# ---------------------------------------------------------------- rounds

def interleave(main, sides):
    """Spread copies of each side slice evenly through the main operations.

    Each side operation then samples the machine at several moments of the
    run, and its metric rests on more than one timing.
    """
    slots = [[] for _ in range(len(main) + 1)]
    for ops, copies in sides:
        for c in range(copies):
            slots[round((c + 1) * len(main) / copies)] += ops
    return [op for k, slot in enumerate(slots) for op in ([main[k - 1]] if k else []) + slot]


class Workload:
    """Inputs and the fixed operation list of one workload for one seed."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        rng = np.random.default_rng([seed, 0])
        side_sweep = sweep_ops(inputs.side_points(), seed=1)
        side_wealth = wealth_case(None, SIDE_WEALTH_CFG, sim_seed_base=1)
        side_principle = [("principle", principle_case("readme", SIDE_PRINCIPLE_CFG, seed=0))]
        if name == "ambiguity-sweep":
            self.wealth = side_wealth
            main = sweep_ops(inputs.sweep_points(seed), seed=int(rng.integers(2**31)))
            sides = [(wealth_ops(side_wealth), 2), (side_principle, 3)]
        elif name == "wealth-mc":
            self.wealth = wealth_case(seed, WEALTH_CFG, sim_seed_base=int(rng.integers(2**31)))
            main = wealth_ops(self.wealth)
            sides = [(side_sweep, 3), (side_principle, 3)]
        else:
            self.wealth = side_wealth
            cases = [principle_case(n, PRINCIPLE_CFG, s) for n in ("readme", "three") for s in PRINCIPLE_SEEDS]
            main = [("principle", cases[i]) for i in rng.permutation(len(cases))]
            sides = [(side_sweep + wealth_ops(side_wealth), 4)]
        self.ops = interleave(main, sides)

    def warm_up(self):
        """One small call into each layer, so that lazy set-up is done before timing."""
        p = inputs.side_points()[0]
        sol = rm.solve(make_spec(p), make_params(p))
        rm.classify(sol, make_params(p))
        rm.verify_saddle(sol, make_spec(p), make_params(p), samples=10)
        case = self.wealth
        cfg = rm.SimConfig(n_paths=64, n_steps=8, seed=0)
        sched = case["schedules"]["worst"]
        rm.simulate_wealth(case["strategy"], sched, case["params"], cfg)
        rm.simulate_optimal_exact(case["sol"], sched, case["params"], cfg)
        rm.estimate_objective(np.linspace(0.0, 1.0, 8), case["params"])

    def round(self, tally, clock, tracer=None):
        solved = None
        results = {}
        for kind, arg in self.ops:
            clock.tick()
            if kind == "point":
                solved = run_point(arg, tally, tracer)
            elif kind == "saddle":
                if solved is not None:
                    run_saddle(arg[0], solved, tally, arg[1])
            elif kind == "wealth":
                run_wealth(arg, tally, results)
            else:
                run_principle(arg, tally)


def negative_controls(tally) -> list[str]:
    """Each check must reject a deliberately perturbed answer."""
    problems = []
    if tally.trade_answer is None or tally.wealth_answer is None:
        return ["no passing answers to perturb"]
    p, ans = tally.trade_answer
    perturbed = {
        "shifted r*": dict(ans, r_star=ans["r_star"] * 1.01 + 1e-4),
        "wrong classification": dict(ans, kind="no_trade"),
        "infeasible theta*": dict(ans, rho=np.asarray(p["upper"]) + 0.05) if not p["full"]
        else dict(ans, rho=np.full(ans["rho"].size, 1.5)),
    }
    for name, bad in perturbed.items():
        if not ref.check_point(p, bad):
            problems.append(f"check_point accepted a {name}")
    if not ref.check_saddle(p, dict(ans, r_star=ans["r_star"] * 0.99 - 1e-4)):
        problems.append("check_saddle accepted a shifted r*")
    j, se, v0 = tally.wealth_answer
    if not ref.check_objective(j + 2 * K_SE * se, se, v0, K_SE):
        problems.append("check_objective accepted a biased J")
    return problems
