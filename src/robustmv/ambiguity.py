"""Uncertainty sets for the drift/correlation pair and scenario schedules.

Two families are supported:

* ProductSet: a rectangular drift box times a correlation box, drift and
  correlation uncertainty independent of each other.
* EllipsoidalSet: for each admissible correlation rho, the drift lies in
  the ellipsoid ||sigma(rho)^{-1}(b - b_hat)||_2 <= delta around an anchor
  estimate b_hat; the correlation ranges over a box or the full
  positive-definite region.

Membership tests, projections used by the numeric solvers, and a
deterministic block rejection sampler live here: proposals are drawn,
filtered by one stacked PD test and the drift test, and kept a block at a
time.  On the full correlation set the correlation proposals come from the
onion method and are PD already; elsewhere they are uniform on the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFeasiblePoint, SamplingExhausted
from .market import (
    MarketParams,
    ThetaPoint,
    _frozen,
    _require_finite,
    covariance_factor_stack,
    covariance_from,
    is_positive_definite,
    n_pairs,
    pair_index,
)

# Absolute slack on the ellipsoid inequality; the set is closed, floats are not.
MEMBERSHIP_TOL = 1e-9
# Rejection sampling gives up after this many consecutive misses.
MAX_REJECTIONS = 10**6
# Proposals per block of the rejection sampler, and its growth cap.
BLOCK_MIN, BLOCK_MAX, BLOCK_GROWTH = 64, 65536, 4


@dataclass(frozen=True)
class GammaBox:
    """Per-pair correlation bounds; full_ambiguity marks the full PD region, bounds [-1, 1].

    Every PD correlation lies strictly inside (-1, 1), so the closed box
    [-1, 1] adds no member: membership still requires the PD test.
    """

    lower: np.ndarray
    upper: np.ndarray
    full_ambiguity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen(self.lower))
        object.__setattr__(self, "upper", _frozen(self.upper))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower/upper bounds must have equal length")
        if self.full_ambiguity:
            if np.any(self.lower != -1.0) or np.any(self.upper != 1.0):
                raise ValueError("full ambiguity takes the bounds -1 and +1 on every pair")
        else:
            _require_finite(lower=self.lower, upper=self.upper)
            if np.any(self.lower > self.upper):
                raise ValueError("lower bounds must not exceed upper bounds")
            if self.lower.size and (np.any(np.abs(self.lower) >= 1) or np.any(np.abs(self.upper) >= 1)):
                raise ValueError("correlation bounds must lie inside (-1, 1)")

    @classmethod
    def full(cls, d: int) -> "GammaBox":
        m = n_pairs(d)
        return cls(lower=np.full(m, -1.0), upper=np.full(m, 1.0), full_ambiguity=True)

    @classmethod
    def box(cls, lower, upper) -> "GammaBox":
        return cls(lower=lower, upper=upper)

    @classmethod
    def singleton(cls, rho) -> "GammaBox":
        return cls(lower=rho, upper=rho)

    @property
    def n_pairs(self) -> int:
        return self.lower.size

    def rho_in_box(self, rho: np.ndarray) -> bool:
        return bool(np.all(rho >= self.lower) and np.all(rho <= self.upper))

    def is_singleton(self) -> bool:
        return not self.full_ambiguity and bool(np.all(self.lower == self.upper))


@dataclass(frozen=True)
class ProductSet:
    """Rectangular drift bounds combined independently with a correlation box."""

    delta_lower: np.ndarray
    delta_upper: np.ndarray
    gamma: GammaBox

    def __post_init__(self):
        object.__setattr__(self, "delta_lower", _frozen(self.delta_lower))
        object.__setattr__(self, "delta_upper", _frozen(self.delta_upper))
        _require_finite(delta_lower=self.delta_lower, delta_upper=self.delta_upper)
        if self.delta_lower.shape != self.delta_upper.shape:
            raise ValueError("drift bounds must have equal length")
        if np.any(self.delta_lower > self.delta_upper):
            raise ValueError("drift lower bounds must not exceed upper bounds")
        if self.gamma.n_pairs != n_pairs(self.d):
            raise ValueError("gamma box dimension inconsistent with drift dimension")

    @property
    def d(self) -> int:
        return self.delta_lower.size

    def is_singleton(self) -> bool:
        return bool(np.all(self.delta_lower == self.delta_upper)) and self.gamma.is_singleton()


@dataclass(frozen=True)
class EllipsoidalSet:
    """Drift ellipsoid of radius delta around b_hat, in the sigma(rho) metric."""

    b_hat: np.ndarray
    delta: float
    gamma: GammaBox

    def __post_init__(self):
        object.__setattr__(self, "b_hat", _frozen(self.b_hat))
        _require_finite(b_hat=self.b_hat, delta=self.delta)
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.gamma.n_pairs != n_pairs(self.d):
            raise ValueError("gamma box dimension inconsistent with drift dimension")

    @property
    def d(self) -> int:
        return self.b_hat.size


AmbiguitySpec = ProductSet | EllipsoidalSet


def drift_distance(b, b_hat, rho, params: MarketParams) -> float:
    """||sigma(rho)^{-1} (b - b_hat)||_2 for positive-definite rho."""
    cov = covariance_from(rho, params)
    y = cov.half_solve(np.asarray(b, dtype=float) - b_hat)
    return float(np.sqrt(y @ y))


def contains(spec: AmbiguitySpec, theta: ThetaPoint, params: MarketParams) -> bool:
    """Membership test with boundary-inclusive comparisons."""
    if not spec.gamma.rho_in_box(theta.rho):
        return False
    if not is_positive_definite(theta.rho, params.d):
        return False
    if isinstance(spec, ProductSet):
        return bool(np.all(theta.b >= spec.delta_lower) and np.all(theta.b <= spec.delta_upper))
    return drift_distance(theta.b, spec.b_hat, theta.rho, params) <= spec.delta + MEMBERSHIP_TOL


def project_rho(spec: AmbiguitySpec, rho) -> np.ndarray:
    """Clamp rho into the correlation box, then repair to a PD point if needed.

    The repair shrinks the clamped point toward the box anchor (the origin
    when it is inside the box, the box midpoint otherwise) by bisection.
    Idempotent on feasible points, bitwise.
    """
    lower, upper = spec.gamma.lower, spec.gamma.upper
    d = spec.d
    clamped = np.clip(np.asarray(rho, dtype=float), lower, upper)
    if is_positive_definite(clamped, d):
        return clamped
    if np.all(lower <= 0.0) and np.all(upper >= 0.0):
        anchor = np.zeros_like(clamped)
    else:
        anchor = 0.5 * (lower + upper)
    if not is_positive_definite(anchor, d):
        raise NoFeasiblePoint("no positive-definite point found inside the correlation box")
    # Bisect on t in [0, 1]: anchor is PD, the clamped point is not.
    lo, hi = 0.0, 1.0
    best = anchor
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        candidate = np.clip(anchor + mid * (clamped - anchor), lower, upper)
        if is_positive_definite(candidate, d):
            best, lo = candidate, mid
        else:
            hi = mid
    return best


def project_b(spec: AmbiguitySpec, b, rho, params: MarketParams) -> np.ndarray:
    """Nearest feasible drift given rho (exact projection for both families)."""
    b = np.asarray(b, dtype=float)
    if isinstance(spec, ProductSet):
        return np.clip(b, spec.delta_lower, spec.delta_upper)
    if spec.delta == 0.0:
        return spec.b_hat.copy()
    dist = drift_distance(b, spec.b_hat, rho, params)
    if dist <= spec.delta:
        return b
    return spec.b_hat + (spec.delta / dist) * (b - spec.b_hat)


def _onion(rng: np.random.Generator, size: int, d: int) -> np.ndarray:
    """`size` rho rows drawn uniformly from the PD correlation matrices, d >= 2.

    The onion method of Lewandowski, Kurowicka & Joe (2009, J. Multivariate
    Anal. 100, eta = 1) grows the Cholesky factor one row at a time: with
    beta = d/2, rho_12 = 2 Beta(beta, beta) - 1; then for k = 2 .. d-1,
    beta -= 1/2, y ~ Beta(k/2, beta), u uniform on the unit sphere of R^k,
    and row k is (sqrt(y) u, sqrt(1 - y)).  Every row has unit norm, so
    L L' is a correlation matrix; its upper pairs are clipped to [-1, 1]
    against rounding.
    """
    chol = np.zeros((size, d, d))
    beta = d / 2
    r12 = 2.0 * rng.beta(beta, beta, size) - 1.0
    chol[:, 0, 0] = 1.0
    chol[:, 1, 0] = r12
    chol[:, 1, 1] = np.sqrt(1.0 - r12 * r12)
    for k in range(2, d):
        beta -= 0.5
        y = rng.beta(k / 2, beta, size)
        u = rng.standard_normal((size, k))
        chol[:, k, :k] = (np.sqrt(y) / np.linalg.norm(u, axis=1))[:, None] * u
        chol[:, k, k] = np.sqrt(1.0 - y)
    rows, cols = pair_index(d)
    return np.clip((chol @ chol.transpose(0, 2, 1))[:, rows, cols], -1.0, 1.0)


def _draws(spec: AmbiguitySpec, count: int, seed: int, params: MarketParams):
    """Block rejection sampler: (b, rho) arrays of shapes (count, d), (count, m).

    Correlation proposals are uniform on the box, except on the full set
    (every pair bound -1/+1, d >= 2), where `_onion` proposes uniform PD
    correlation matrices and nearly nothing is rejected.  Either way each
    block of proposals is filtered with one stacked PD test (pivot
    tolerance) and the box test, then with the drift test of `contains`
    (the drift box, or ||L^{-1}(b - b_hat)|| <= delta + MEMBERSHIP_TOL
    with L the covariance factor), so the rho draws are uniform on the
    box's PD part (within tolerance).  Misses are counted in draw order across blocks,
    so SamplingExhausted fires after exactly MAX_REJECTIONS consecutive
    rejections.  Blocks are sized from the acceptance rate seen so far,
    between BLOCK_MIN and BLOCK_MAX, and propose at most BLOCK_GROWTH
    times the proposals before them, so that a first block with few hits
    by chance cannot set off an oversized one.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    lower, upper = spec.gamma.lower, spec.gamma.upper
    d = spec.d
    onion = d >= 2 and bool(np.all(lower == -1.0) and np.all(upper == 1.0))
    bs, rhos = [np.zeros((0, d))], [np.zeros((0, lower.size))]
    kept = proposed = misses = 0
    while kept < count:
        need = count - kept
        guess = min(1.25 * need * proposed / max(kept, 1), BLOCK_GROWTH * proposed) if proposed else need
        size = int(np.clip(guess, BLOCK_MIN, BLOCK_MAX))
        proposed += size
        rho = _onion(rng, size, d) if onion else rng.uniform(lower, upper, (size, lower.size))
        ok = is_positive_definite(rho, d) & np.all((rho >= lower) & (rho <= upper), axis=1)
        if isinstance(spec, ProductSet):
            b = rng.uniform(spec.delta_lower, spec.delta_upper, (size, d))
            ok &= np.all((b >= spec.delta_lower) & (b <= spec.delta_upper), axis=1)
        else:
            # Uniform draws in the unit ball, mapped through the covariance factor.
            z = rng.standard_normal((size, d))
            radius = rng.uniform(size=size) ** (1.0 / d)
            norm = np.linalg.norm(z, axis=1)
            ok &= norm > 0.0
            b = np.empty((size, d))
            chol = covariance_factor_stack(rho[ok], params.sigmas)[0]
            ball = (radius[ok] / norm[ok])[:, None] * z[ok]
            b[ok] = spec.b_hat + spec.delta * (chol @ ball[:, :, None])[:, :, 0]
            # Explicit trailing axis: numpy >= 2 reads an (n, d) right-hand side
            # as one matrix, numpy < 2 as n vectors; (n, d, 1) means n vectors in both.
            y = np.linalg.solve(chol, (b[ok] - spec.b_hat)[:, :, None])[:, :, 0]
            ok[ok] = np.sqrt(np.sum(y * y, axis=1)) <= spec.delta + MEMBERSHIP_TOL
        hits = np.flatnonzero(ok)[:need]
        ends = hits if hits.size == need else np.append(hits, size)
        runs = np.diff(ends, prepend=-1 - misses) - 1
        if runs.max() >= MAX_REJECTIONS:
            raise SamplingExhausted(f"{MAX_REJECTIONS} consecutive rejections")
        misses = int(runs[-1]) if hits.size < need else 0
        bs.append(b[hits])
        rhos.append(rho[hits])
        kept += hits.size
    return np.concatenate(bs), np.concatenate(rhos)


def sample(spec: AmbiguitySpec, count: int, seed: int, params: MarketParams) -> list[ThetaPoint]:
    """`count` members of the set, deterministic for a seed.

    Draws are taken a block at a time (see _draws): onion proposals on the
    full correlation set, uniform box proposals elsewhere, kept by the same
    PD, box and drift filters.  A seed gives other draws than the earlier
    one-proposal-at-a-time sampler did, and on the full set other draws
    than the box-proposal sampler did.
    """
    return [ThetaPoint(b=b, rho=rho) for b, rho in zip(*_draws(spec, count, seed, params))]


@dataclass(frozen=True)
class ThetaProcessSchedule:
    """Deterministic piecewise-constant scenario for the parameter process.

    values[k] applies on [breakpoints[k], breakpoints[k+1]) and the final
    value extends to the horizon.
    """

    breakpoints: np.ndarray
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _frozen(self.breakpoints))
        object.__setattr__(self, "values", tuple(self.values))
        _require_finite(breakpoints=self.breakpoints)
        if self.breakpoints.size != len(self.values):
            raise ValueError("one value per breakpoint required")
        if self.breakpoints.size == 0:
            raise ValueError("schedule must have at least one piece")
        if self.breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, theta: ThetaPoint) -> "ThetaProcessSchedule":
        return cls(breakpoints=np.zeros(1), values=(theta,))

    def value_at(self, t: float) -> ThetaPoint:
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return self.values[max(k, 0)]

    def pieces(self, horizon: float):
        """(t_start, t_end, theta) triples covering [0, horizon]."""
        ends = np.append(self.breakpoints[1:], horizon)
        return [
            (float(start), float(min(end, horizon)), theta)
            for start, end, theta in zip(self.breakpoints, ends, self.values)
            if start < horizon or start == 0.0
        ]


def schedule_within(spec: AmbiguitySpec, schedule: ThetaProcessSchedule, params: MarketParams) -> bool:
    """True when every scheduled value is a member of the ambiguity set."""
    return all(contains(spec, theta, params) for theta in schedule.values)
