"""Monte-Carlo simulation of the wealth dynamics, and checks of the optimality conditions.

Simulators for the self-financed wealth process dX = alpha'(b dt +
sigma(rho) dW) under piecewise-constant parameter scenarios:

* an Euler scheme that replays any feedback rule step by step, calling
  it as rule(t, x) on a vector of wealths: plain callables, the optimal
  rule FeedbackStrategy, and AffineRule with both w and v nonzero;
* one exact scheme, free of discretization error, for wealth along a fixed
  direction u: either xbar - X is a geometric Brownian motion (the rules
  alpha = (xbar - x) u) or X is an arithmetic one (alpha = u), one normal
  per path and step.  It serves the optimal wealth
  (simulate_optimal_exact, u = Sigma(rho*)^{-1} b*), the wealth-affine
  probe rules (simulate_wealth picks it for an AffineRule with w = 0 or
  v = 0), among them the optimal rule's terminal wealth under the worst
  case, one step over [0, T], that the principle check draws.

For the same wealth-affine rules, affine_moments gives E[X_t] and Var X_t
at every grid node in closed form.  On top of those: the mean-variance
objective estimator with a delta-method standard error, the check of the
two optimality-principle conditions (the value process built from the
solved instance must drift the right way under probe strategies and probe
scenarios), and the closed-form table showing that the one-sided
monotonicity genuinely fails for distant drift scenarios while the
terminal inequality survives.  The principle check decides every
wealth-affine probe from affine_moments, without sampling; Monte-Carlo
there runs only the probes that are other callables (on Euler), and a
single one-step draw of the optimal rule's terminal wealth under the
worst case, which cross-checks the exact scheme against its closed form.
Each schedule piece's Sigma(rho) is factored once (_pieces) and serves
every step and closed form on it; the check shares one factor per probe
correlation among its pieces, drift projections and closed forms.

Layout: every simulator fills a node-major (n_steps + 1, n_paths) buffer
in one block loop (_fill_paths) and returns its transpose, so paths have
shape (n_paths, n_steps + 1) in Fortran order and each grid node is one
contiguous column.  The loop hands each step's normals, one per lane, to
a per-block stepper that writes the block's slice of the next node row:
the exact one with in-place ufuncs, the Euler one after calling the rule
on a read-only view of the previous row and taking alpha in Fortran order
(the rules here return the transpose of a (d, lanes) buffer: no copy).  A
rule of (t, x) never sees W, so given X_n its Euler noise alpha' sigma dW
is N(0, alpha' Sigma alpha dt), drawn as sqrt(dt) ||L' alpha|| z
(Glasserman 2004, §6.1): Euler and exact read the same normals per seed.

Reproducibility: paths are generated in fixed-size blocks, each block from
its own SFC64 substream keyed by (seed, block index).  Results are
bitwise identical for a given SimConfig regardless of the worker count.
The blocks of a run of THREADED_MIN_STEPS steps or more are filled on one
worker thread per CPU the process may run on (its affinity set), never
more than there are blocks; the ROBUSTMV_THREADS environment variable,
when set, replaces that count (1 unless it is a positive integer).  Shorter
runs, such as the principle check's one-step worst-case draw, stay on the
calling thread, where starting a pool costs more than the threads gain.  A
callable rule is therefore called concurrently, one block per thread: a
rule with shared mutable state must lock it, or run with
ROBUSTMV_THREADS=1.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .ambiguity import AmbiguitySpec, EllipsoidalSet, ThetaProcessSchedule
from .ambiguity import _project_b, contains, project_rho
from .errors import PrincipleViolated, RobustMVError, WealthOverflow
from .market import MarketParams, ThetaPoint, _frozen, covariance_from, risk_premium
from .solver import WorstCaseSolution
from .strategy import FeedbackStrategy, growth_factor, robust_strategy
from .strategy import value_coefficients, value_v0

BLOCK = 4096
# Runs of fewer steps fill their blocks on the calling thread, where a pool
# costs more than it gains.  Measured on 2 vCPUs with SFC64 streams, best of
# 40 to 200: a 20,000-path one-step exact draw took 0.4 ms inline and 0.8 ms
# on a pool; on 8,192 and 20,000 paths the pool lost at 1 to 4 steps, was
# about even at 8 and won at 16 in 7 of 8 timings.
THREADED_MIN_STEPS = 16
# Noise level of every Monte-Carlo check: margins get N_SIGMA standard errors.
N_SIGMA = 3.0
# Tolerance of every closed-form margin, relative to the magnitudes the
# margin is the difference of, so it does not depend on the drift's scale.
# Those margins are a few dozen float64 operations per node plus a
# cumulative sum over the grid's steps: their rounding grows like
# n_steps * eps, measured at most 4.4e-16 at 256 steps and 4.2e-15 at
# 4,096 on the README and Case5ii instances, and below 2.1e-14 at 65,536.
# A 1% error in r* moves the J margins there by 5e-4 to 1e-3 relative, and
# E[V_t] by about as much over [0, T], shared among the increments.
ROUNDING_RTOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run parameters; dt = horizon / n_steps."""

    n_paths: int
    n_steps: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if int(self.n_paths) * (int(self.n_steps) + 1) * 8 > np.iinfo(np.intp).max:
            raise ValueError("an n_paths x (n_steps + 1) float64 path buffer exceeds the address space")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one block of paths; layout is fixed by (seed, block).

    SeedSequence spawns the key the same way for any bit generator; SFC64 is
    the fastest numpy offers, and the normal draws dominate both path kernels.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


def _block_ranges(n_paths: int):
    return [(start, min(start + BLOCK, n_paths)) for start in range(0, n_paths, BLOCK)]


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _n_workers() -> int:
    """Worker threads per block loop: _cpu_count(), or ROBUSTMV_THREADS when set (1 unless a positive integer)."""
    raw = os.environ.get("ROBUSTMV_THREADS")
    if raw is None:
        return _cpu_count()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_blocks(n_paths: int, n_steps: int, worker):
    """Apply worker(block_index, start, stop) to every block, on at most one thread per block.

    A run of fewer than THREADED_MIN_STEPS steps stays on the calling
    thread.  The first block to raise stops the run, as does an interrupt
    while waiting: blocks not yet started are dropped, the running ones
    finish, and the exception propagates.
    """
    ranges = _block_ranges(n_paths)
    workers = min(_n_workers(), len(ranges)) if n_steps >= THREADED_MIN_STEPS else 1
    if workers == 1:
        for k, (start, stop) in enumerate(ranges):
            worker(k, start, stop)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(worker, k, start, stop) for k, (start, stop) in enumerate(ranges)]
        for future in as_completed(futures):
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _normals(rng, lanes: int, antithetic: bool) -> np.ndarray:
    """One step's standard normal per lane; antithetic pairs adjacent lanes as +/-z."""
    if not antithetic:
        return rng.standard_normal(lanes)
    half = (lanes + 1) // 2
    z = rng.standard_normal(half)
    out = np.empty(2 * half)
    out[0::2] = z
    out[1::2] = -z
    return out[:lanes]


def _fill_paths(cfg: SimConfig, params: MarketParams, start):
    """Paths from one block loop: (t_grid, paths), paths the transpose of a node-major buffer.

    For each block, start(rows) receives the block's (n_steps + 1, lanes)
    slice of the buffer, row 0 already x0, and returns a stepper; step(n, z)
    gets step n's normals from the block's stream, one per lane (given X_n,
    an exact step adds one Gaussian, and so does an Euler step of any rule
    of (t, x)), and writes row n + 1.
    """
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
    nodes = np.empty((cfg.n_steps + 1, cfg.n_paths))

    def worker(block, lo, hi):
        rng = _block_rng(cfg.seed, block)
        rows = nodes[:, lo:hi]
        rows[0] = params.x0
        step = start(rows)
        for n in range(cfg.n_steps):
            step(n, _normals(rng, hi - lo, cfg.antithetic))

    _run_blocks(cfg.n_paths, cfg.n_steps, worker)
    return t_grid, nodes.T


@dataclass(frozen=True)
class AffineRule:
    """Wealth-affine rule alpha(t, x) = w + (xbar - x) v, amounts per asset.

    Called like any probe rule: a scalar x gives a length-d vector, a vector
    of wealths an (n, d) array, the transpose of an asset-major (d, n)
    buffer.  simulate_wealth draws the rule exactly when w = 0 or v = 0, and
    by Euler otherwise.
    """

    xbar: float
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _frozen(self.v))
        object.__setattr__(self, "w", _frozen(self.w))

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self.w + (self.xbar - float(x)) * self.v
        alpha = self.v[:, None] * (self.xbar - x)[None, :]
        alpha += self.w[:, None]
        return alpha.T


def _draws_exactly(rule) -> bool:
    """True for an AffineRule with w = 0 or v = 0, whose paths _exact_paths draws."""
    return isinstance(rule, AffineRule) and not (rule.v.any() and rule.w.any())


def _pieces(schedule: ThetaProcessSchedule, params: MarketParams, factor=covariance_from):
    """(t0, t1, b, Sigma) for each piece of the schedule over [0, T], Sigma = factor(rho, params) once per piece."""
    return [(t0, t1, theta.b, factor(theta.rho, params)) for t0, t1, theta in schedule.pieces(params.horizon_T)]


def _covariance_memo():
    """covariance_from for one market that factors each distinct rho once, for as long as it is held."""
    memo = {}

    def factor(rho, params):
        key = rho.tobytes()
        if key not in memo:
            memo[key] = covariance_from(rho, params)
        return memo[key]

    return factor


def _exact_step_integrals(direction, pieces, params, n_steps, log_scale):
    """Exact per-step integrals of the drift and variance rates along a direction.

    For a position u the rates are b'u and u' Sigma u under each scenario
    piece (from _pieces).  With log_scale the drift is that of log N for
    the lognormal factor dN = -N u'(b dt + sigma dW), b'u + u' Sigma u / 2.
    Rates are integrated piecewise so steps may straddle breakpoints;
    n_steps = 1 gives the totals over [0, T].
    """
    nodes = np.arange(n_steps + 1) * (params.horizon_T / n_steps)
    drift_int, var_int = np.zeros(n_steps), np.zeros(n_steps)
    for t0, t1, b, cov in pieces:
        var_rate = float(direction @ cov.matrix @ direction)
        drift_rate = float(b @ direction) + (0.5 * var_rate if log_scale else 0.0)
        overlap = np.minimum(nodes[1:], t1) - np.maximum(nodes[:-1], t0)
        # Added only where the piece overlaps a step, so a non-finite rate
        # leaves the other steps as they are.
        hit = overlap > 0.0
        drift_int[hit] += drift_rate * overlap[hit]
        var_int[hit] += var_rate * overlap[hit]
    return drift_int, var_int


def simulate_wealth(rule, schedule: ThetaProcessSchedule, params: MarketParams, cfg: SimConfig):
    """Paths of the wealth process under a feedback rule alpha = rule(t, x).

    An AffineRule with w = 0 or v = 0 is drawn exactly (_exact_paths, along
    v when it is nonzero, else along w; v = w = 0 stays at x0).  Any other
    rule (a FeedbackStrategy, an AffineRule with w and v both nonzero, any
    callable returning an (n, d) array for n wealths) runs on the Euler
    scheme, called at every step on a read-only view of the current
    wealths; a rule that writes into it raises ValueError.  As any rule
    sees only (t, x), an Euler step's noise given X_n is N(0, alpha' Sigma
    alpha dt), drawn from one normal per path.  Returns (t_grid, paths)
    with paths of shape (n_paths, n_steps + 1), the transpose of a
    node-major buffer; wealth is unconstrained and may go negative.

    Runs of THREADED_MIN_STEPS steps or more fill their blocks on one
    worker thread per available CPU, or on ROBUSTMV_THREADS of them, so
    rule may be called from several threads at once, one block each; the
    paths do not depend on the count.  The first exception a block raises
    stops the run and propagates.
    """
    if _draws_exactly(rule):
        geometric = bool(rule.v.any())
        direction = rule.v if geometric else rule.w
        return _exact_paths(direction, rule.xbar - params.x0, geometric, schedule, params, cfg)
    dt = params.horizon_T / cfg.n_steps
    # Step n runs on piece[n] of pieces, the one holding the scenario value at its left node n dt.
    piece = np.searchsorted(schedule.breakpoints, np.arange(cfg.n_steps) * dt, side="right") - 1
    pieces = _pieces(schedule, params)
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)

    def start(rows):
        # The rule reads the previous node row through a read-only view, so it
        # cannot write into the stored paths.
        wealth = rows.view()
        wealth.flags.writeable = False

        def step(n, z):
            # Fortran order makes the sums below independent of the rule's layout.
            alpha = np.asfortranarray(np.atleast_2d(rule(t_grid[n], wealth[n])))
            _, _, b, cov = pieces[piece[n]]
            drift = alpha @ b
            drift *= dt
            h = cov.chol.T @ alpha.T  # (d, lanes); ||L' alpha||^2 is a sum of squares, never negative
            z *= np.sqrt(dt * np.einsum("ij,ij->j", h, h))  # this step's own normals become its noise
            np.add(rows[n], drift, out=rows[n + 1])
            rows[n + 1] += z

        return step

    return _fill_paths(cfg, params, start)


def _exact_paths(direction, y0, geometric, schedule, params, cfg):
    """Discretization-free wealth paths along one direction u, one normal per path and step.

    geometric: Y = xbar - X solves dY = -Y u'(b dt + sigma dW), a geometric
    Brownian motion, so X_t = x0 + y0 (1 - N_t) with the lognormal N of
    _exact_step_integrals and y0 = xbar - x0 as the caller computed it.
    Otherwise X is an arithmetic Brownian motion with increments of mean
    u'b dt and variance u' Sigma u dt; u = 0 stays at x0.
    """
    drift_int, var_int = _exact_step_integrals(direction, _pieces(schedule, params), params, cfg.n_steps, geometric)
    vol_int = np.sqrt(var_int)

    def start(rows):
        acc = np.zeros(rows.shape[1])  # log N (geometric) or X - x0 (arithmetic)
        gaussian = np.empty(rows.shape[1])

        def step(n, z):
            # In-place ufuncs over a row of lanes.  The two updates group their
            # sums differently, each in the order that fixed its scheme's bits.
            row = rows[n + 1]
            np.multiply(z, vol_int[n], out=gaussian)
            if geometric:
                np.subtract(acc, drift_int[n], out=acc)
                np.subtract(acc, gaussian, out=acc)
                np.exp(acc, out=row)
                np.subtract(1.0, row, out=row)
                row *= y0
                row += params.x0
            else:
                np.add(gaussian, drift_int[n], out=gaussian)
                np.add(acc, gaussian, out=acc)
                np.add(acc, params.x0, out=row)

        return step

    return _fill_paths(cfg, params, start)


def affine_moments(rule: AffineRule, schedule, params, t_grid):
    """Closed-form E[X_t] and Var X_t at the nodes of an AffineRule's exact wealth.

    t_grid is the simulators' grid np.linspace(0, T, n_steps + 1); the rule
    has w = 0 or v = 0.  With A(t) and C(t) the integrals up to t of the
    rates u'b and u' Sigma u (Kloeden & Platen 1992, ch. 4):

    * w = 0, u = v: Y = xbar - X is a geometric Brownian motion, so
      E[X_t] = x0 + Y0 (1 - e^{-A}) and Var X_t = Y0^2 e^{-2A} (e^C - 1);
    * v = 0, u = w: X is an arithmetic one, E[X_t] = x0 + A, Var X_t = C
      (x0 and 0 for the rule holding nothing).
    """
    if not _draws_exactly(rule):
        raise ValueError("affine_moments needs an AffineRule with w = 0 or v = 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2 or not np.array_equal(t_grid, np.linspace(0.0, params.horizon_T, t_grid.size)):
        raise ValueError("t_grid must be np.linspace(0, T, n_steps + 1)")
    return _affine_moments(rule, _pieces(schedule, params), params, t_grid.size - 1)


def _affine_moments(rule, pieces, params, n_steps):
    """affine_moments on the grid of n_steps steps, from the schedule's _pieces."""
    geometric = bool(rule.v.any())
    steps = _exact_step_integrals(rule.v if geometric else rule.w, pieces, params, n_steps, False)
    drift, var = (np.concatenate(([0.0], np.cumsum(integral))) for integral in steps)
    if not geometric:
        return params.x0 + drift, var
    y0 = rule.xbar - params.x0
    return params.x0 - y0 * np.expm1(-drift), (y0 * np.exp(-drift)) ** 2 * np.expm1(var)


def simulate_optimal_exact(
    solution: WorstCaseSolution,
    schedule: ThetaProcessSchedule,
    params: MarketParams,
    cfg: SimConfig,
):
    """Discretization-free paths of the optimal wealth process.

    The optimal wealth is x0 + e^{r* T}/(2 lam) (1 - N_t) where log N has
    exact Gaussian increments under any piecewise-constant scenario; its
    node moments are affine_moments' for AffineRule(xbar, direction, 0).
    """
    factor = growth_factor(solution.r_star, params.horizon_T) / (2.0 * params.lam)
    return _exact_paths(solution.direction, factor, True, schedule, params, cfg)


def summarize_paths(t_grid, paths):
    """Per-node summary rows (t, mean, var, se), ready for CSV emission.

    Each node's moments come from its own column, contiguous in the
    simulators' Fortran-ordered paths, so the variance's centred temporary
    is one column rather than a second full-size matrix.
    """
    n = paths.shape[0]
    rows = []
    for t, column in zip(t_grid, paths.T):
        var = float(column.var(ddof=1))
        rows.append({"t": float(t), "mean": float(column.mean()), "var": var, "se": math.sqrt(var / n)})
    return rows


@dataclass(frozen=True)
class ObjectiveEstimate:
    """Sample mean-variance objective J = E[X_T] - lam Var(X_T) with its error bar."""

    mean_XT: float
    var_XT: float
    J: float
    std_error_J: float
    n_paths: int


def estimate_objective(paths_or_xt, params: MarketParams) -> ObjectiveEstimate:
    """Unbiased mean/variance of terminal wealth and the delta-method SE of J.

    The SE combines the errors of the mean and variance estimators, and
    their covariance m3/n, with J's gradient (1, -lam):
    Var(J) = var/n + lam^2 Var(var) - 2 lam m3/n.  Finite wealths whose
    mean, variance, J or SE leaves the float range raise WealthOverflow,
    with no warning; wealths that are not finite give an estimate that is not.
    """
    arr = np.asarray(paths_or_xt, dtype=float)
    xt = arr[:, -1] if arr.ndim == 2 else arr
    n = xt.size
    if n < 2:
        raise ValueError("need at least two paths")
    with np.errstate(over="ignore", invalid="ignore"):  # a result beyond the float range is refused below
        mean = float(np.mean(xt))
        centered = xt - mean
        var = float(centered @ centered) / (n - 1)
        square = centered * centered  # products, not ** 3 and ** 4, which go through pow
        m3 = float(np.mean(square * centered))
        m4 = float(np.mean(square * square))
        # np.float64's ** 2 is the float's pow, bit for bit, but overflows to inf instead of raising.
        var_of_var = float(max(m4 - (n - 3) / (n - 1) * np.float64(var) ** 2, 0.0)) / n
    lam = params.lam
    # lam (lam var_of_var) and lam (2 m3), not lam^2 var_of_var and 2 lam m3, so that a
    # huge lam times a zero moment is 0 rather than inf * 0 = NaN.
    se = math.sqrt(max(var / n + lam * (lam * var_of_var) - lam * (2.0 * m3) / n, 0.0))
    j = mean - lam * var
    if not all(map(math.isfinite, (mean, var, j, se))) and np.isfinite(xt).all():
        raise WealthOverflow(f"terminal wealth's moments leave the float range: mean {mean:g}, variance {var:g}")
    return ObjectiveEstimate(mean_XT=mean, var_XT=var, J=j, std_error_J=se, n_paths=n)


def default_probe_strategies(strategy: FeedbackStrategy):
    """Eight named strategy probes: scalings, sign flip, component shuffle, static.

    Each is an AffineRule around the optimal rule's target wealth xbar: the
    scalings c alpha* have v = c kappa*, `reversed` has kappa* in reverse
    asset order, `static` holds kappa* itself (v = 0) and `zero` nothing.
    """
    xbar, kappa = strategy.xbar, strategy.allocation_direction
    none = np.zeros_like(kappa)

    def scaled(c):
        return AffineRule(xbar=xbar, v=c * kappa, w=none)

    return [
        ("optimal", scaled(1.0)),
        ("zero", AffineRule(xbar=xbar, v=none, w=none)),
        ("half", scaled(0.5)),
        ("one_and_half", scaled(1.5)),
        ("double", scaled(2.0)),
        ("contrarian", scaled(-1.0)),
        ("reversed", AffineRule(xbar=xbar, v=kappa[::-1], w=none)),
        ("static", AffineRule(xbar=xbar, v=none, w=kappa)),
    ]


def default_probe_schedules(
    spec: AmbiguitySpec,
    params: MarketParams,
    solution: WorstCaseSolution,
):
    """Seven named scenario probes: worst case, center, extreme corners, a switch.

    The switch happens at T/2; a horizon too short to halve in floating
    point (T = 5e-324) raises RobustMVError.
    """
    return _probe_schedules(spec, params, solution, covariance_from)


def _probe_schedules(spec, params, solution, factor):
    """default_probe_schedules with every Sigma(rho) from factor(rho, params)."""
    lower, upper = spec.gamma.lower, spec.gamma.upper
    mid_rho = project_rho(spec, 0.5 * (lower + upper))
    corner_rhos = [("low_corr", project_rho(spec, lower)), ("high_corr", project_rho(spec, upper))]

    def feasible_b(b, rho):
        return _project_b(spec, b, rho, params, factor)

    if isinstance(spec, EllipsoidalSet):
        center_b = spec.b_hat.copy()

        def extremes(rho):
            s = math.sqrt(risk_premium(ThetaPoint(b=spec.b_hat, rho=rho), params))
            if s == 0.0:
                return [spec.b_hat.copy(), spec.b_hat.copy()]
            outward = spec.b_hat * (1.0 + spec.delta / s)
            inward = spec.b_hat * (1.0 - spec.delta / s)
            return [feasible_b(outward, rho), feasible_b(inward, rho)]

    else:
        center_b = 0.5 * (spec.delta_lower + spec.delta_upper)

        def extremes(rho):
            return [spec.delta_upper.copy(), spec.delta_lower.copy()]

    center = ThetaPoint(b=feasible_b(center_b, mid_rho), rho=mid_rho)
    probes = [
        ("worst_case", ThetaProcessSchedule.constant(solution.theta_star)),
        ("center", ThetaProcessSchedule.constant(center)),
    ]
    for name, rho in corner_rhos:
        outer, inner = extremes(rho)
        probes.append((f"{name}_outer_drift", ThetaProcessSchedule.constant(ThetaPoint(b=outer, rho=rho))))
        probes.append((f"{name}_inner_drift", ThetaProcessSchedule.constant(ThetaPoint(b=inner, rho=rho))))
    switch_target = probes[-2][1].values[0]
    if not params.horizon_T / 2.0 > 0.0:
        raise RobustMVError(f"the horizon T = {params.horizon_T} is too short to switch scenarios at T/2")
    probes.append(
        (
            "switch_mid_horizon",
            ThetaProcessSchedule(
                breakpoints=np.array([0.0, params.horizon_T / 2.0]),
                values=(center, switch_target),
            ),
        )
    )
    values = {id(th): th for _, sched in probes for th in sched.values}  # tested once each
    member = {key: contains(spec, th, params) for key, th in values.items()}
    return [(name, sched) for name, sched in probes if all(member[id(th)] for th in sched.values)]


@dataclass(frozen=True)
class ProbeCheck:
    """Outcome of one probe: the margin that had to stay on the right side."""

    name: str
    margin: float
    allowance: float
    ok: bool


@dataclass(frozen=True)
class WeakPrincipleReport:
    """Verification of the two optimality-principle conditions, probe by probe.

    monotone_under_worst_case: for each probe strategy, the largest upward
    step of t -> E[V_t] under the worst-case scenario (must not exceed its
    allowance).  terminal_gain: for each probe scenario, E[V_T] - V0 = J -
    V0 of the optimal rule (must not fall below minus its allowance), the
    lower side of the saddle property at the objective level.
    objective_upper: for each probe strategy under the worst case, J - V0
    (must not exceed its allowance), the upper side.  simulator_check: one
    row, worst_case, the J estimated from the optimal rule's simulated
    terminal wealth under the worst case minus its closed form (must stay
    within N_SIGMA standard errors on both sides); empty when there are no
    scenario probes.
    """

    monotone_under_worst_case: tuple
    terminal_gain: tuple
    objective_upper: tuple
    simulator_check: tuple
    value_v0: float
    ok: bool


def _familywise_z(m: int) -> float:
    """N_SIGMA's normal quantile held family-wise over m tests by Bonferroni.

    z = Phi^{-1}(1 - Phi(-N_SIGMA) / m): each of m one-sided tests at level
    Phi(-N_SIGMA) / m, or each of m two-sided ones at 2 Phi(-N_SIGMA) / m,
    so the family has the false-alarm rate of one N_SIGMA event.
    """
    return NormalDist().inv_cdf(1.0 - NormalDist().cdf(-N_SIGMA) / m)


def _monotonicity_check(paths, t_grid, coeffs):
    """Largest noise-adjusted increase of E[V_t] along the grid, from sampled paths.

    Uses per-path linearization of consecutive value differences, so the
    standard error accounts for the coupling between grid nodes; the
    allowance holds N_SIGMA family-wise over all increments.  Walks the
    nodes of paths.T (contiguous rows for the simulators' Fortran-ordered
    paths) with three row buffers: quad * (x - mean)^2 at the current node
    and at the previous one, which then takes the per-path increment, and
    the wealth step.
    """
    nodes = paths.T
    n = nodes.shape[1]
    quad = coeffs.quad_coeff(t_grid)
    mean, sum_sq = np.empty(t_grid.size - 1), np.empty(t_grid.size - 1)
    value, prev, step = np.empty(n), np.empty(n), np.empty(n)
    for k, row in enumerate(nodes):
        # x.sum() / n is what x.mean() computes, without its Python-level overhead.
        np.subtract(row, row.sum() / n, out=value)
        np.square(value, out=value)
        value *= quad[k]
        if k:
            per_path = np.subtract(value, prev, out=prev)
            per_path += np.subtract(row, nodes[k - 1], out=step)
            mean[k - 1] = per_path.sum() / n
            per_path -= mean[k - 1]
            sum_sq[k - 1] = per_path @ per_path
        value, prev = prev, value
    diffs = mean + np.diff(coeffs.offset(t_grid))
    allowance = _familywise_z(diffs.size) * np.sqrt(sum_sq / (n - 1)) / math.sqrt(n)
    worst = int(np.argmax(diffs - allowance))
    return float(diffs[worst]), float(allowance[worst])


def _closed_form_objective(mean, var, v0, lam):
    """J = E[X_T] - lam Var X_T from affine_moments' last node, and the tolerance of J - V0."""
    # Python floats round as numpy's scalars do, but go to inf past the float range with no warning.
    mean, var, v0, lam = float(mean[-1]), float(var[-1]), float(v0), float(lam)
    return mean - lam * var, ROUNDING_RTOL * (abs(mean) + lam * var + abs(v0))


def _in_float_range(probe, *values):
    """Raise WealthOverflow naming the probe when a closed-form margin or allowance is not finite."""
    if not all(map(math.isfinite, values)):
        raise WealthOverflow(f"the closed-form moments under probe {probe!r} leave the float range")


def _record(checks, name, margin, allowance, ok, message):
    """Append a probe's ProbeCheck to checks; raise PrincipleViolated with message when it failed."""
    checks.append(ProbeCheck(name=name, margin=margin, allowance=allowance, ok=ok))
    if not ok:
        raise PrincipleViolated(message, probe=name, margin=margin)


def verify_weak_principle(
    solution: WorstCaseSolution,
    spec: AmbiguitySpec,
    params: MarketParams,
    cfg: SimConfig,
    probe_strategies=None,
    probe_schedules=None,
) -> WeakPrincipleReport:
    """Check of the optimality-principle conditions on probe strategies and scenarios.

    Condition (monotone): under the worst-case scenario, t -> E[V_t] is
    nonincreasing for every probe strategy, and its J stays at most V0.
    Condition (terminal): under every probe scenario, the optimal rule
    satisfies E[V_T] = J >= V0.  Raises PrincipleViolated on the first
    failure, in probe order.

    A probe strategy drawn exactly (an AffineRule with w = 0 or v = 0, as
    every default probe is) is decided without sampling, from its
    affine_moments on cfg's grid: E[V_t] = quad(t) Var X_t + E[X_t] +
    offset(t) must not rise between nodes, and J - V0 must not be positive,
    each up to ROUNDING_RTOL of the magnitudes the margin is the difference
    of.  Any other callable runs through simulate_wealth on Euler when its
    turn comes; its monotone check holds a one-sided N_SIGMA level
    family-wise over the grid increments, and its J margin gets N_SIGMA
    standard errors.  The terminal condition is decided in closed form too,
    for the optimal rule as AffineRule(xbar, kappa*, 0).  When there are
    scenario probes, the check then draws that rule's X_T once, under the
    worst case, through simulate_wealth on the exact scheme in one step
    over [0, T], and the estimated J must match the worst case's closed
    form two-sidedly at N_SIGMA standard errors (simulator_check): that
    tests the simulator, not the principle.  Every scenario probe reads the
    same map from the integrals of _exact_step_integrals to X_T, so one
    draw exercises it for all of them.  A
    closed-form margin or allowance beyond the float range, as from an x0
    near 1e308, raises WealthOverflow naming the probe.
    """
    strategy = robust_strategy(solution, params)
    coeffs = value_coefficients(solution, params)
    v0 = value_v0(solution, params)
    factor = _covariance_memo()
    if probe_strategies is None:
        probe_strategies = default_probe_strategies(strategy)
    if probe_schedules is None:
        probe_schedules = _probe_schedules(spec, params, solution, factor)
    worst_case = ThetaProcessSchedule.constant(solution.theta_star)
    worst_pieces = _pieces(worst_case, params, factor)
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
    quad, offset = coeffs.quad_coeff(t_grid), coeffs.offset(t_grid)

    monotone, j_upper = [], []
    # Closed-form moments beyond the float range are refused by _in_float_range, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for name, fn in probe_strategies:
            if _draws_exactly(fn):
                mean, var = _affine_moments(fn, worst_pieces, params, cfg.n_steps)
                quad_var = quad * var
                increase = float(np.max(np.diff(quad_var + mean + offset)))
                allowance = ROUNDING_RTOL * float(np.max(np.abs(quad_var) + np.abs(mean) + np.abs(offset)))
                j, allowance_j = _closed_form_objective(mean, var, v0, params.lam)
                _in_float_range(name, increase, allowance, j - v0, allowance_j)
            else:
                _, paths = simulate_wealth(fn, worst_case, params, cfg)
                increase, allowance = _monotonicity_check(paths, t_grid, coeffs)
                est = estimate_objective(paths, params)
                del paths  # frees an Euler probe's paths before the next probe runs
                j, allowance_j = est.J, N_SIGMA * est.std_error_J
            _record(monotone, name, increase, allowance, increase <= allowance,
                    f"E[V_t] increases by {increase:.3e} (> {allowance:.3e}) under probe strategy {name!r}")
            margin = j - v0
            _record(j_upper, name, margin, allowance_j, margin <= allowance_j,
                    f"J({name}, worst case) exceeds V0 by {margin:.3e} (> {allowance_j:.3e})")

    kappa = strategy.allocation_direction
    optimal = AffineRule(xbar=strategy.xbar, v=kappa, w=np.zeros_like(kappa))

    def optimal_objective(name, pieces):
        """The optimal rule's closed-form J under a scenario's _pieces, and the tolerance of J - V0."""
        with np.errstate(over="ignore", invalid="ignore"):  # as above
            j, tolerance = _closed_form_objective(*_affine_moments(optimal, pieces, params, 1), v0, params.lam)
        _in_float_range(name, j - v0, tolerance)
        return j, tolerance

    terminal, simulator = [], []
    for name, sched in probe_schedules:
        j, tolerance = optimal_objective(name, _pieces(sched, params, factor))
        margin = j - v0  # E[V_T] - V0 since the terminal value is x - lam (x - xbar)^2
        _record(terminal, name, margin, tolerance, margin >= -tolerance,
                f"E[V_T] - V0 = {margin:.3e} < -{tolerance:.3e} under probe scenario {name!r}")
    if probe_schedules:
        # The optimal rule's X_T under the worst case, drawn once over [0, T] on the exact scheme.
        j, _ = optimal_objective("worst_case", worst_pieces)
        est = estimate_objective(simulate_wealth(optimal, worst_case, params, replace(cfg, n_steps=1))[1], params)
        gap, allowance = est.J - j, N_SIGMA * est.std_error_J
        _record(simulator, "worst_case", gap, allowance, abs(gap) <= allowance,
                f"simulated J misses its closed form by {gap:.3e} (beyond {allowance:.3e}) "
                "under probe scenario 'worst_case'")

    return WeakPrincipleReport(
        monotone_under_worst_case=tuple(monotone),
        terminal_gain=tuple(terminal),
        objective_upper=tuple(j_upper),
        simulator_check=tuple(simulator),
        value_v0=v0,
        ok=True,
    )


@dataclass(frozen=True)
class CounterexampleTable:
    """Closed-form derivative of t -> E[V_t] under distant drift scenarios.

    One row per drift-distance parameter c: the direct value implied by the
    requested scenario, then the limit-check values where the derivative is
    provably negative.  limit_target is the c -> infinity pointwise limit.
    """

    t_grid: np.ndarray
    c_values: np.ndarray
    f_values: np.ndarray  # shape (len(c_values), len(t_grid))
    limit_target: np.ndarray
    r_star: float

    def has_negative(self) -> bool:
        return bool(np.any(self.f_values < 0.0))


def monotonicity_counterexample(
    b_lower: float,
    theta: float,
    params: MarketParams,
    t_grid=None,
    limit_cs=(1e3, 1e4),
) -> CounterexampleTable:
    """Derivative table f(t, c) for the single-asset drift-interval model.

    Requires d = 1 with unit variance.  The worst case is the interval's
    lower end; c = (theta - b_lower) * b_lower measures how far the probe
    scenario sits from it.  f can be positive for moderate c yet converges
    to a strictly negative limit as c grows, which is why the terminal
    condition rather than monotonicity is the right verification device.
    """
    if params.d != 1 or not np.isclose(params.sigmas[0], 1.0):
        raise ValueError("counterexample table requires a single asset with unit variance")
    if not 0.0 <= b_lower <= theta:
        raise ValueError("need 0 <= b_lower <= theta")
    r_star = b_lower**2
    lam, horizon = params.lam, params.horizon_T
    if t_grid is None:
        t_grid = np.linspace(0.0, horizon, 101)
    t = np.asarray(t_grid, dtype=float)
    c_direct = (theta - b_lower) * b_lower
    c_values = np.array([c_direct, *limit_cs])

    def f(tt, c):
        decay = np.exp(-c * tt)
        bracket = c * decay**2 - np.exp(-r_star * tt) * (1.0 - decay) * (
            r_star / 2.0 - (r_star / 2.0 + c) * decay
        )
        return growth_factor(r_star, horizon) / (2.0 * lam) * bracket

    f_values = np.vstack([f(t, c) for c in c_values])
    limit_target = -(r_star / (4.0 * lam)) * np.exp(r_star * (horizon - t))
    return CounterexampleTable(
        t_grid=t,
        c_values=c_values,
        f_values=f_values,
        limit_target=limit_target,
        r_star=r_star,
    )
