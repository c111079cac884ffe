"""Monte-Carlo verification of the wealth dynamics and optimality conditions.

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
  v = 0), and the terminal draws of the scenario probes (one step over
  [0, T]).

On top of those: the mean-variance objective estimator with a delta-method
standard error, a sampled check of the two optimality-principle conditions
(the value process built from the solved instance must drift the right way
under probe strategies and probe scenarios), and the closed-form table
showing that the one-sided monotonicity genuinely fails for distant drift
scenarios while the terminal inequality survives.

Layout: every simulator fills a node-major (n_steps + 1, n_paths) buffer,
one contiguous row slice per step, and returns its transpose, so paths have
shape (n_paths, n_steps + 1) in Fortran order and each grid node is one
contiguous column.  The exact scheme advances a row of lanes one step at a
time (_ExactKernel); its block loop writes each step into the node row of
the block.  The Euler step works asset-major too: it calls the rule on a
read-only view of the block's previous node row, takes alpha in Fortran
order (the rules here return the transpose of a (d, lanes) buffer, so no
copy is made), forms the shocks as the (d, lanes) product L z', and writes
the new wealths in place into the next node row.  The principle check
holds no path matrix: it advances all of its exact strategy probes
together over all paths, one step at a time, and feeds each new node row
straight into that probe's monotonicity sums (_NodeWalk), keeping only
the last row for the objective.

Reproducibility: paths are generated in fixed-size blocks, each block from
its own counter-based substream keyed by (seed, block index).  Results are
bitwise identical for a given SimConfig regardless of the worker count;
the ROBUSTMV_THREADS environment variable only caps parallelism.  The
principle check draws one row of normals per step from those same streams,
block after block (_step_normals), in the order the block loop draws them,
so each exact probe sees bitwise the paths simulate_wealth would give it
alone.  Those probes run on one thread; ROBUSTMV_THREADS reaches only the
check's simulate_wealth calls (Euler probes and the terminal draws).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .ambiguity import AmbiguitySpec, EllipsoidalSet, ThetaProcessSchedule
from .ambiguity import contains, project_b, project_rho
from .errors import PrincipleViolated
from .market import MarketParams, ThetaPoint, _frozen, covariance_from, risk_premium
from .solver import WorstCaseSolution
from .strategy import FeedbackStrategy, growth_factor, robust_strategy
from .strategy import value_coefficients, value_v0

BLOCK = 4096
# Noise level of every Monte-Carlo check: margins get N_SIGMA standard errors.
N_SIGMA = 3.0


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


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one block of paths; layout is fixed by (seed, block)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


def _block_ranges(n_paths: int):
    return [(start, min(start + BLOCK, n_paths)) for start in range(0, n_paths, BLOCK)]


def _n_workers() -> int:
    raw = os.environ.get("ROBUSTMV_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_blocks(n_paths: int, worker):
    """Apply worker(block_index, start, stop) to every block, optionally threaded."""
    ranges = _block_ranges(n_paths)
    workers = _n_workers()
    if workers == 1 or len(ranges) == 1:
        for k, (start, stop) in enumerate(ranges):
            worker(k, start, stop)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(worker, k, start, stop) for k, (start, stop) in enumerate(ranges)
            ]
            for f in futures:
                f.result()


def _normals(rng, lanes: int, d: int, antithetic: bool) -> np.ndarray:
    """One step of standard normals; antithetic pairs adjacent lanes as +/-z."""
    if not antithetic:
        return rng.standard_normal((lanes, d))
    half = (lanes + 1) // 2
    z = rng.standard_normal((half, d))
    out = np.empty((2 * half, d))
    out[0::2] = z
    out[1::2] = -z
    return out[:lanes]


def _step_normals(cfg: SimConfig):
    """The exact scheme's normals for cfg, one (n_paths,) row per step.

    Each block's stream gives its lanes of a row through the same per-step
    _normals call the block loop of _exact_paths makes, so a kernel fed
    these rows writes bitwise the paths that loop draws.  The row is one
    buffer, overwritten by the next step's draw.
    """
    ranges = _block_ranges(cfg.n_paths)
    rngs = [_block_rng(cfg.seed, block) for block in range(len(ranges))]
    z = np.empty(cfg.n_paths)
    for _ in range(cfg.n_steps):
        for rng, (start, stop) in zip(rngs, ranges):
            z[start:stop] = _normals(rng, stop - start, 1, cfg.antithetic)[:, 0]
        yield z


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
    """True for an AffineRule with w = 0 or v = 0, whose paths _affine_paths draws exactly."""
    return isinstance(rule, AffineRule) and not (rule.v.any() and rule.w.any())


def _step_model(schedule: ThetaProcessSchedule, params: MarketParams, n_steps: int):
    """Per-step (b, chol) taken from the scenario value at the left node, factored once per piece."""
    dt = params.horizon_T / n_steps
    drifts, chols = [], []
    theta = None
    for n in range(n_steps):
        value = schedule.value_at(n * dt)
        if value is not theta:
            theta, chol = value, covariance_from(value.rho, params).chol
        drifts.append(theta.b)
        chols.append(chol)
    return dt, drifts, chols


def _exact_step_integrals(direction, schedule, params, n_steps, log_scale):
    """Exact per-step integrals of the drift and variance rates along a direction.

    For a position u the rates are b'u and u' Sigma u under each scenario
    piece.  With log_scale the drift is that of log N for the lognormal
    factor dN = -N u'(b dt + sigma dW), b'u + u' Sigma u / 2.  Rates are
    integrated piecewise so steps may straddle breakpoints; n_steps = 1
    gives the totals over [0, T].
    """
    pieces = []
    for t0, t1, theta in schedule.pieces(params.horizon_T):
        sigma = covariance_from(theta.rho, params).matrix
        var_rate = float(direction @ sigma @ direction)
        drift_rate = float(theta.b @ direction) + (0.5 * var_rate if log_scale else 0.0)
        pieces.append((t0, t1, drift_rate, var_rate))
    dt = params.horizon_T / n_steps
    drift_int = np.zeros(n_steps)
    var_int = np.zeros(n_steps)
    for n in range(n_steps):
        a, b = n * dt, (n + 1) * dt
        for t0, t1, drift_rate, var_rate in pieces:
            overlap = max(0.0, min(b, t1) - max(a, t0))
            if overlap > 0.0:
                drift_int[n] += drift_rate * overlap
                var_int[n] += var_rate * overlap
    return drift_int, var_int


def simulate_wealth(rule, schedule: ThetaProcessSchedule, params: MarketParams, cfg: SimConfig):
    """Paths of the wealth process under a feedback rule alpha = rule(t, x).

    An AffineRule with w = 0 or v = 0 is drawn exactly (_affine_paths).
    Any other rule (a FeedbackStrategy, an AffineRule with w and v both
    nonzero, any callable returning an (n, d) array for n wealths) runs on
    the Euler scheme, called at every step on a read-only view of the
    current wealths; a rule that writes into it raises ValueError.
    Returns (t_grid, paths) with paths of shape (n_paths, n_steps + 1), the
    transpose of a node-major buffer; wealth is unconstrained and may go
    negative.
    """
    if _draws_exactly(rule):
        return _affine_paths(rule, schedule, params, cfg)
    dt, drifts, chols = _step_model(schedule, params, cfg.n_steps)
    sqrt_dt = math.sqrt(dt)
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
    nodes = np.empty((cfg.n_steps + 1, cfg.n_paths))
    d = params.d

    def worker(block, start, stop):
        rng = _block_rng(cfg.seed, block)
        rows = nodes[:, start:stop]
        rows[0] = params.x0
        # The rule reads the previous node row through a read-only view, so it
        # cannot write into the stored paths.
        wealth = rows.view()
        wealth.flags.writeable = False
        for n in range(cfg.n_steps):
            z = _normals(rng, stop - start, d, cfg.antithetic)
            # Fortran order makes the sums below independent of the rule's layout.
            alpha = np.asfortranarray(np.atleast_2d(rule(t_grid[n], wealth[n])))
            drift = alpha @ drifts[n]
            drift *= dt
            shock = chols[n] @ z.T  # (d, lanes)
            noise = np.einsum("ij,ji->i", alpha, shock)
            noise *= sqrt_dt
            np.add(rows[n], drift, out=rows[n + 1])
            rows[n + 1] += noise

    _run_blocks(cfg.n_paths, worker)
    return t_grid, nodes.T


@dataclass(frozen=True)
class MartingaleStats:
    """Per-step sample mean and standard error of the exponential-factor ratios."""

    mean_ratio: np.ndarray
    se_ratio: np.ndarray


def _exact_paths(direction, y0, geometric, schedule, params, cfg, martingale_stats=False):
    """Discretization-free wealth paths along one direction u, one normal per path and step.

    geometric: Y = xbar - X solves dY = -Y u'(b dt + sigma dW), a geometric
    Brownian motion, so X_t = x0 + y0 (1 - N_t) with the lognormal N of
    _exact_step_integrals and y0 = xbar - x0 as the caller computed it.
    Otherwise X is an arithmetic Brownian motion with increments of mean
    u'b dt and variance u' Sigma u dt.  The normals come from the block
    streams of the Euler scheme, a step at a time.  With
    martingale_stats=True (geometric only) also returns per-step statistics
    of the exponential-martingale ratios, whose mean must be 1.
    """
    drift_int, var_int = _exact_step_integrals(direction, schedule, params, cfg.n_steps, geometric)
    vol_int = np.sqrt(var_int)
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
    nodes = np.empty((cfg.n_steps + 1, cfg.n_paths))
    # One row of ratio sums per block, added up after all blocks ran, so
    # the statistics do not depend on the order the workers finish in.
    n_blocks = len(_block_ranges(cfg.n_paths))
    ratio_sum = np.zeros((n_blocks, cfg.n_steps))
    ratio_sq = np.zeros((n_blocks, cfg.n_steps))

    def worker(block, start, stop):
        rng = _block_rng(cfg.seed, block)
        kernel = _ExactKernel(drift_int, vol_int, y0, geometric, params.x0, np.empty(stop - start))
        rows = nodes[:, start:stop]
        rows[0] = params.x0
        # One step's normals at a time, so no (n_steps, lanes) matrix is held.
        for n in range(cfg.n_steps):
            z = _normals(rng, stop - start, 1, cfg.antithetic)[:, 0]
            if martingale_stats:
                ratios = np.exp(-2.0 * var_int[n] - 2.0 * (vol_int[n] * z))
                ratio_sum[block, n] = ratios.sum()
                ratio_sq[block, n] = (ratios**2).sum()
            kernel.step(n, z, rows[n + 1])

    _run_blocks(cfg.n_paths, worker)
    if not martingale_stats:
        return t_grid, nodes.T
    n = cfg.n_paths
    mean = ratio_sum.sum(axis=0) / n
    var = np.maximum(ratio_sq.sum(axis=0) / n - mean**2, 0.0) * n / (n - 1)
    return t_grid, nodes.T, MartingaleStats(mean_ratio=mean, se_ratio=np.sqrt(var / n))


class _ExactKernel:
    """The exact scheme's step over a fixed row of lanes, given its per-step integrals.

    step(n, z, row) advances every lane over step n on the normals z and
    writes the wealths into row.  gaussian is a scratch row of the lanes'
    size for the Gaussian increment; kernels that step one after another
    may share it.  Node-major with in-place ufuncs: each step is a few calls
    over a whole row.  The two updates group their sums differently; each
    order keeps the bits its scheme produced before the schemes shared this
    kernel.
    """

    def __init__(self, drift_int, vol_int, y0, geometric, x0, gaussian):
        self.drift_int, self.vol_int = drift_int, vol_int
        self.y0, self.geometric, self.x0 = y0, geometric, x0
        self.gaussian = gaussian
        self.acc = np.zeros_like(gaussian)  # log N (geometric) or X - x0 (arithmetic)

    def step(self, n, z, row):
        acc, gaussian = self.acc, self.gaussian
        np.multiply(z, self.vol_int[n], out=gaussian)
        if self.geometric:
            acc -= self.drift_int[n]
            acc -= gaussian
            np.exp(acc, out=row)
            np.subtract(1.0, row, out=row)
            row *= self.y0
            row += self.x0
        else:
            gaussian += self.drift_int[n]
            acc += gaussian
            np.add(acc, self.x0, out=row)


def _affine_paths(rule: AffineRule, schedule, params, cfg):
    """Exact paths of an AffineRule with w = 0 (geometric along v) or v = 0 (arithmetic along w).

    v = w = 0 holds no risky asset and stays at x0 exactly.
    """
    geometric = bool(rule.v.any())
    if not (geometric or rule.w.any()):
        t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
        return t_grid, np.full((cfg.n_steps + 1, cfg.n_paths), float(params.x0)).T
    direction = rule.v if geometric else rule.w
    return _exact_paths(direction, rule.xbar - params.x0, geometric, schedule, params, cfg)


def simulate_optimal_exact(
    solution: WorstCaseSolution,
    schedule: ThetaProcessSchedule,
    params: MarketParams,
    cfg: SimConfig,
    martingale_stats: bool = False,
):
    """Discretization-free paths of the optimal wealth process.

    The optimal wealth is x0 + e^{r* T}/(2 lam) (1 - N_t) where log N has
    exact Gaussian increments under any piecewise-constant scenario.  With
    martingale_stats=True also returns per-step statistics of the
    associated exponential-martingale ratios, whose mean must be 1.
    """
    factor = growth_factor(solution.r_star, params.horizon_T) / (2.0 * params.lam)
    return _exact_paths(solution.direction, factor, True, schedule, params, cfg, martingale_stats)


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
    Var(J) = var/n + lam^2 Var(var) - 2 lam m3/n.
    """
    arr = np.asarray(paths_or_xt, dtype=float)
    xt = arr[:, -1] if arr.ndim == 2 else arr
    n = xt.size
    if n < 2:
        raise ValueError("need at least two paths")
    mean = float(np.mean(xt))
    centered = xt - mean
    var = float(centered @ centered) / (n - 1)
    square = centered * centered  # products, not ** 3 and ** 4, which go through pow
    m3 = float(np.mean(square * centered))
    m4 = float(np.mean(square * square))
    var_of_var = max(m4 - (n - 3) / (n - 1) * var**2, 0.0) / n
    lam = params.lam
    # lam (lam var_of_var) and lam (2 m3), not lam^2 var_of_var and 2 lam m3, so that a
    # huge lam times a zero moment is 0 rather than inf * 0 = NaN.
    se = math.sqrt(max(var / n + lam * (lam * var_of_var) - lam * (2.0 * m3) / n, 0.0))
    return ObjectiveEstimate(
        mean_XT=mean,
        var_XT=var,
        J=mean - params.lam * var,
        std_error_J=se,
        n_paths=n,
    )


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
    """Eight named scenario probes: worst case, center, extreme corners, a switch."""
    lower, upper = spec.gamma.lower, spec.gamma.upper
    mid_rho = project_rho(spec, 0.5 * (lower + upper))
    corner_rhos = [("low_corr", project_rho(spec, lower)), ("high_corr", project_rho(spec, upper))]

    def feasible_b(b, rho):
        return project_b(spec, b, rho, params)

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
    probes.append(
        (
            "switch_mid_horizon",
            ThetaProcessSchedule(
                breakpoints=np.array([0.0, params.horizon_T / 2.0]),
                values=(center, switch_target),
            ),
        )
    )
    probes.append(("revisit_worst", ThetaProcessSchedule.constant(solution.theta_star)))
    feasible = [(name, sched) for name, sched in probes if all(contains(spec, th, params) for th in sched.values)]
    return feasible[:8]


@dataclass(frozen=True)
class ProbeCheck:
    """Outcome of one probe: the margin that had to stay on the right side."""

    name: str
    margin: float
    allowance: float
    ok: bool


@dataclass(frozen=True)
class WeakPrincipleReport:
    """Sampled verification of the two optimality-principle conditions.

    monotone_under_worst_case: for each probe strategy, the largest upward
    step of t -> E[V_t] under the worst-case scenario (must not exceed its
    noise allowance).  terminal_gain: for each probe scenario, E[V_T] - V0
    = J - V0 (must not fall below minus its allowance), the lower side of
    the saddle property at the objective level.  objective_upper: for each
    probe strategy under the worst case, J - V0 (must not exceed its
    allowance), the upper side.
    """

    monotone_under_worst_case: tuple
    terminal_gain: tuple
    objective_upper: tuple
    value_v0: float
    ok: bool


class _NodeWalk:
    """The monotonicity check's sums over the grid, fed one node row of wealths at a time.

    feed(row) takes nodes 0, 1, ..., n_steps in order.  It holds the
    previous row by reference, so a caller must leave that row unchanged
    until the next feed; last is the row fed most recently.  Three buffers
    of n_paths values: the quad * (x - mean)^2 of the current node and of
    the previous one, which then takes the per-path increment, and the
    wealth step.
    """

    def __init__(self, t_grid, coeffs, n_paths):
        self.quad = coeffs.quad_coeff(t_grid)
        self.offset = coeffs.offset(t_grid)
        self.mean = np.empty(t_grid.size - 1)
        self.sum_sq = np.empty_like(self.mean)
        self.value, self.prev, self.step = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
        self.last = None
        self.k = 0

    def feed(self, row):
        k, n = self.k, row.size
        value, prev = self.value, self.prev
        # x.sum() / n is what x.mean() computes, without its Python-level overhead.
        np.subtract(row, row.sum() / n, out=value)
        np.square(value, out=value)
        value *= self.quad[k]
        if k:
            per_path = np.subtract(value, prev, out=prev)
            per_path += np.subtract(row, self.last, out=self.step)
            self.mean[k - 1] = per_path.sum() / n
            per_path -= self.mean[k - 1]
            self.sum_sq[k - 1] = per_path @ per_path
        self.value, self.prev = prev, value
        self.last = row
        self.k = k + 1

    def result(self):
        """(increase, allowance) at the grid increment where E[V_t] rises most beyond its noise."""
        n = self.value.size
        diffs = self.mean + np.diff(self.offset)
        spread = np.sqrt(self.sum_sq / (n - 1))
        z = NormalDist().inv_cdf(1.0 - NormalDist().cdf(-N_SIGMA) / diffs.size)
        allowance = z * spread / math.sqrt(n)
        worst = int(np.argmax(diffs - allowance))
        return float(diffs[worst]), float(allowance[worst])


def _monotonicity_check(paths, t_grid, coeffs):
    """Largest noise-adjusted increase of E[V_t] along the grid.

    Uses per-path linearization of consecutive value differences, so the
    standard error accounts for the coupling between grid nodes.  The
    Bonferroni threshold z = Phi^{-1}(1 - Phi(-N_SIGMA) / n_increments)
    makes N_SIGMA a family-wise level over all increments.  Feeds the nodes
    of paths.T to a _NodeWalk one at a time (contiguous rows for the
    simulators' Fortran-ordered paths).
    """
    nodes = paths.T
    walk = _NodeWalk(t_grid, coeffs, nodes.shape[1])
    for row in nodes:
        walk.feed(row)
    return walk.result()


def _exact_probe_walks(rules, schedule, params, cfg, coeffs):
    """One fed _NodeWalk per exact AffineRule, all run together on one draw.

    Every rule advances over all paths at once, one step at a time on the
    rows of _step_normals, into two row buffers it alternates between, and
    each new row goes straight into the rule's walk.  v = w = 0 holds x0:
    its walk is fed one row of x0 at every node, and draws nothing.  Each
    walk's last row is the rule's X_T, bitwise that of simulate_wealth.
    """
    t_grid = np.linspace(0.0, params.horizon_T, cfg.n_steps + 1)
    start, gaussian = np.full(cfg.n_paths, float(params.x0)), np.empty(cfg.n_paths)
    walks, moving = [], []
    for rule in rules:
        walk = _NodeWalk(t_grid, coeffs, cfg.n_paths)
        walk.feed(start)
        walks.append(walk)
        geometric = bool(rule.v.any())
        if not (geometric or rule.w.any()):
            for _ in range(cfg.n_steps):
                walk.feed(start)
            continue
        direction = rule.v if geometric else rule.w
        drift_int, var_int = _exact_step_integrals(direction, schedule, params, cfg.n_steps, geometric)
        kernel = _ExactKernel(drift_int, np.sqrt(var_int), rule.xbar - params.x0, geometric, params.x0, gaussian)
        moving.append((kernel, walk, (np.empty(cfg.n_paths), np.empty(cfg.n_paths))))
    if moving:
        for n, z in enumerate(_step_normals(cfg)):
            for kernel, walk, rows in moving:
                kernel.step(n, z, rows[n % 2])
                walk.feed(rows[n % 2])
    return walks


def verify_weak_principle(
    solution: WorstCaseSolution,
    spec: AmbiguitySpec,
    params: MarketParams,
    cfg: SimConfig,
    probe_strategies=None,
    probe_schedules=None,
) -> WeakPrincipleReport:
    """Monte-Carlo check of the optimality-principle conditions.

    Condition (monotone): under the worst-case scenario, t -> E[V_t] is
    nonincreasing for every probe strategy.  Condition (terminal): under
    every probe scenario, the optimal rule satisfies E[V_T] >= V0.  Each
    test has the false-alarm rate of a one-sided N_SIGMA normal event: the
    J margins get N_SIGMA standard errors, and the monotone check holds
    that level family-wise over all grid increments.  Raises
    PrincipleViolated on the first failure, in probe order.

    The default strategy probes are AffineRules drawn exactly: they run
    first, all together on one draw of normals made a step at a time, and
    each keeps only its per-node sums and its terminal row
    (_exact_probe_walks), so no path matrix is held.  Each gets bitwise the
    paths simulate_wealth draws for it alone, and the draw runs on one
    thread.  Any other callable runs through simulate_wealth on Euler when
    its turn comes, after every earlier probe passed.  The scenario probes
    read only X_T of the optimal rule, so simulate_wealth draws it on the
    exact scheme with one step over [0, T], one normal per path.
    """
    strategy = robust_strategy(solution, params)
    coeffs = value_coefficients(solution, params)
    v0 = value_v0(solution, params)
    if probe_strategies is None:
        probe_strategies = default_probe_strategies(strategy)
    if probe_schedules is None:
        probe_schedules = default_probe_schedules(spec, params, solution)
    worst_case = ThetaProcessSchedule.constant(solution.theta_star)
    exact = [fn for _, fn in probe_strategies if _draws_exactly(fn)]
    exact_results = iter(
        [(*walk.result(), estimate_objective(walk.last, params))
         for walk in _exact_probe_walks(exact, worst_case, params, cfg, coeffs)]
    )

    monotone, j_upper = [], []
    for name, fn in probe_strategies:
        if _draws_exactly(fn):
            increase, allowance, est = next(exact_results)
        else:
            t_grid, paths = simulate_wealth(fn, worst_case, params, cfg)
            increase, allowance = _monotonicity_check(paths, t_grid, coeffs)
            est = estimate_objective(paths, params)
            del paths  # frees an Euler probe's paths before the next probe runs
        check = ProbeCheck(name=name, margin=increase, allowance=allowance, ok=increase <= allowance)
        monotone.append(check)
        if not check.ok:
            raise PrincipleViolated(
                f"E[V_t] increases by {increase:.3e} (> {allowance:.3e}) under probe strategy {name!r}",
                probe=name,
                margin=increase,
            )
        margin = est.J - v0
        allowance_j = N_SIGMA * est.std_error_J
        check_j = ProbeCheck(name=name, margin=margin, allowance=allowance_j, ok=margin <= allowance_j)
        j_upper.append(check_j)
        if not check_j.ok:
            raise PrincipleViolated(
                f"J({name}, worst case) exceeds V0 by {margin:.3e} (> {allowance_j:.3e})",
                probe=name,
                margin=margin,
            )

    kappa = strategy.allocation_direction
    optimal = AffineRule(xbar=strategy.xbar, v=kappa, w=np.zeros_like(kappa))
    terminal = []
    for name, sched in probe_schedules:
        xt = simulate_wealth(optimal, sched, params, replace(cfg, n_steps=1))[1][:, -1]
        est = estimate_objective(xt, params)
        margin = est.J - v0  # E[V_T] - V0 since the terminal value is x - lam (x - xbar)^2
        allowance = N_SIGMA * est.std_error_J
        check = ProbeCheck(name=name, margin=margin, allowance=allowance, ok=margin >= -allowance)
        terminal.append(check)
        if not check.ok:
            raise PrincipleViolated(
                f"E[V_T] - V0 = {margin:.3e} < -{allowance:.3e} under probe scenario {name!r}",
                probe=name,
                margin=margin,
            )

    return WeakPrincipleReport(
        monotone_under_worst_case=tuple(monotone),
        terminal_gain=tuple(terminal),
        objective_upper=tuple(j_upper),
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
