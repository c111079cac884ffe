"""From a worst-case scenario to the optimal robust trading rule.

Once the worst-case pair (b*, rho*) is known, the robust problem reduces
to the classical dynamic mean-variance problem under that model (the rule
of Zhou & Li, 2000).  The optimal amount invested is linear in current
wealth,

    alpha(x) = (xbar - x) * Sigma(rho*)^{-1} b*,   xbar = x0 + e^{r* T} / (2 lam),

and FeedbackStrategy is that rule as a callable, with xbar computed once
by robust_strategy.  The initial value of the objective is
x0 + (e^{r* T} - 1) / (4 lam), and the zero pattern of the direction
vector Sigma(rho*)^{-1} b* classifies how diversified the robust
portfolio is.  robust_strategy and classify read that direction from
WorstCaseSolution.direction, solved once with the worst case, and factor
nothing themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GrowthOverflow, WealthOverflow
from .market import MarketParams, ThetaPoint, _frozen, covariance_from
from .solver import SINGLETON, WorstCaseSolution

# A direction component below this fraction of the largest one counts as zero.
ZERO_DIRECTION_RTOL = 1e-10

NO_TRADE = "no_trade"
ANTI_DIVERSIFIED = "anti_diversification"
UNDER_DIVERSIFIED = "under_diversification"
WELL_DIVERSIFIED = "well_diversified"
DIRECTIONAL = "directional"
SPREAD = "spread"


def growth_factor(r_star: float, horizon: float) -> float:
    """e^{r* T}; raises GrowthOverflow, naming r* T, when it is infinite.

    math.exp raises OverflowError for a large finite exponent but returns
    inf for an infinite one (r* = inf when the drift is near the float limit).
    """
    exponent = r_star * horizon
    try:
        growth = math.exp(exponent)
    except OverflowError:
        growth = math.inf
    if growth == math.inf:
        raise GrowthOverflow(f"e^(r* T) exceeds the float range: r* T = {exponent:.6g}")
    return growth


def _finite(value: float, what: str) -> float:
    """value; WealthOverflow naming what when it is beyond the float range, as under a lam near 5e-324."""
    if not math.isfinite(value):
        raise WealthOverflow(f"{what} exceeds the float range")
    return value


@dataclass(frozen=True)
class FeedbackStrategy:
    """The optimal rule alpha(t, x) = (xbar - x) * allocation_direction, amounts per asset.

    xbar = x0 + e^{r* T} / (2 lam) is the target wealth; robust_strategy
    computes it once.  Called like any rule: a scalar x gives a length-d
    vector, a vector of wealths an (n, d) array, the transpose of an
    asset-major (d, n) buffer, which the Euler step reads without a copy.
    t only enters through x;
    it is accepted so the interface survives time-dependent extensions.
    """

    theta_star: ThetaPoint
    allocation_direction: np.ndarray
    r_star: float
    x0: float
    xbar: float

    def __post_init__(self):
        object.__setattr__(self, "allocation_direction", _frozen(self.allocation_direction))

    def __call__(self, t, x):
        mult = self.xbar - np.asarray(x)
        if np.ndim(mult) == 0:
            return float(mult) * self.allocation_direction
        return (self.allocation_direction[:, None] * mult[None, :]).T


def robust_strategy(solution: WorstCaseSolution, params: MarketParams) -> FeedbackStrategy:
    """Optimal robust rule for a solved instance.

    GrowthOverflow when e^{r* T} leaves the float range, WealthOverflow when xbar does.
    """
    xbar = params.x0 + growth_factor(solution.r_star, params.horizon_T) / (2.0 * params.lam)
    return FeedbackStrategy(
        theta_star=solution.theta_star,
        allocation_direction=solution.direction,
        r_star=solution.r_star,
        x0=params.x0,
        xbar=_finite(xbar, "the target wealth xbar = x0 + e^(r* T) / (2 lam)"),
    )


def classical_strategy(theta0: ThetaPoint, params: MarketParams) -> FeedbackStrategy:
    """Mean-variance rule when the model (b0, rho0) is known exactly: robust_strategy on that singleton."""
    r0, kappa0 = covariance_from(theta0.rho, params).premium_and_direction(theta0.b)
    return robust_strategy(WorstCaseSolution(theta0, r0, SINGLETON, kappa0), params)


def value_v0(solution: WorstCaseSolution, params: MarketParams) -> float:
    """Initial value of the robust mean-variance objective; WealthOverflow when it leaves the float range."""
    v0 = params.x0 + (growth_factor(solution.r_star, params.horizon_T) - 1.0) / (4.0 * params.lam)
    return _finite(v0, "V0 = x0 + (e^(r* T) - 1) / (4 lam)")


def mean_wealth_path(strategy: FeedbackStrategy, t_grid) -> np.ndarray:
    """Expected optimal wealth under the worst-case model at each grid time."""
    t = np.asarray(t_grid, dtype=float)
    return strategy.x0 + (strategy.xbar - strategy.x0) * (1.0 - np.exp(-strategy.r_star * t))


@dataclass(frozen=True)
class ValueCoefficients:
    """Deterministic coefficients of the verification value process.

    v_t(x, xbar) = quad_coeff(t) (x - xbar)^2 + x + offset(t), with
    quad_coeff(T) = -lam and offset(T) = 0.
    """

    r_star: float
    lam: float
    horizon_T: float

    def quad_coeff(self, t):
        # r* (t - T) <= 0 on [0, T], so this exponential cannot overflow.
        return -self.lam * np.exp(self.r_star * (np.asarray(t, dtype=float) - self.horizon_T))

    def offset(self, t):
        growth_factor(self.r_star, self.horizon_T)  # GrowthOverflow beyond the float range
        return (np.exp(self.r_star * (self.horizon_T - np.asarray(t, dtype=float))) - 1.0) / (
            4.0 * self.lam
        )


def value_coefficients(solution: WorstCaseSolution, params: MarketParams) -> ValueCoefficients:
    return ValueCoefficients(r_star=solution.r_star, lam=params.lam, horizon_T=params.horizon_T)


@dataclass(frozen=True)
class DiversificationReport:
    """Zero pattern and signs of the allocation direction, with a verdict.

    kind      one of no_trade / anti_diversification / under_diversification /
              well_diversified
    asset     the single traded asset (anti-diversification only), 0-based
    excluded  assets receiving exactly zero allocation (may be empty)
    mode      directional (two surviving positions share sign) or spread
              (opposite signs); set whenever exactly two positions survive
    signs     +1 / 0 / -1 per asset
    """

    kind: str
    asset: int | None
    excluded: tuple[int, ...]
    mode: str | None
    signs: tuple[int, ...]
    case_label: str
    narrative: str


def classify(solution: WorstCaseSolution, params: MarketParams) -> DiversificationReport:
    """Diversification verdict for a solved instance."""
    direction = solution.direction
    scale = float(np.max(np.abs(direction))) if direction.size else 0.0
    if scale == 0.0 or solution.no_trade:
        zero = np.full(params.d, True)
    else:
        zero = np.abs(direction) < ZERO_DIRECTION_RTOL * scale
    signs = tuple(0 if z else (1 if v > 0 else -1) for z, v in zip(zero, direction))
    live = [i for i, z in enumerate(zero) if not z]
    excluded = tuple(i for i, z in enumerate(zero) if z)
    mode = None
    if len(live) == 2:
        mode = DIRECTIONAL if signs[live[0]] == signs[live[1]] else SPREAD
    asset = live[0] if len(live) == 1 else None
    if not live:
        kind, narrative = NO_TRADE, "no trade: the worst-case drift is zero, hold only the risk-free asset"
    elif asset is not None:
        side = "long" if signs[asset] > 0 else "short"
        kind, narrative = ANTI_DIVERSIFIED, f"anti-diversification: invest only in asset {asset + 1} ({side})"
    elif excluded:
        names = ", ".join(str(i + 1) for i in excluded)
        kind_txt = f" ({mode} trade in the remaining assets)" if mode else ""
        kind, narrative = UNDER_DIVERSIFIED, f"under-diversification: no investment in asset {names}{kind_txt}"
    else:
        sign_txt = "".join("+" if s > 0 else "-" for s in signs)
        mode_txt = f", {mode} trade" if mode else ""
        kind = WELL_DIVERSIFIED
        narrative = f"well-diversified: positions in every asset, signs {sign_txt}{mode_txt}"
    return DiversificationReport(kind, asset, excluded, mode, signs, solution.case_label, narrative)


def strategy_report(solution: WorstCaseSolution, params: MarketParams) -> dict:
    """JSON-ready summary: scenario, value, direction, diversification."""
    report = classify(solution, params)
    return {
        "theta_star": {
            "b": solution.theta_star.b.tolist(),
            "rho": solution.theta_star.rho.tolist(),
        },
        "r_star": solution.r_star,
        "V0": value_v0(solution, params),
        "direction": solution.direction.tolist(),
        "class": report.kind,
        "mode": report.mode,
        "signs": list(report.signs),
        "case_label": solution.case_label,
        "narrative": report.narrative,
    }
