"""Correlation and covariance algebra for a market of d risky assets.

The market is parametrized by known marginal volatilities sigma_1..sigma_d
and an unknown pair theta = (b, rho) of drift vector and correlation
coordinates.  A correlation candidate rho is stored as the strictly upper
triangle of the d x d correlation matrix, in row-major order:

    rho = (rho_12, rho_13, ..., rho_1d, rho_23, ..., rho_(d-1)d)

This layout is stated once, as pair_index(d); every map between rho vectors
and d x d matrices is an index operation on it.

Core quantities:

    C(rho)        correlation matrix with unit diagonal
    Sigma(rho)    = diag(sigma) C(rho) diag(sigma), the covariance matrix
    R(theta)      = b' Sigma(rho)^{-1} b, the squared market price of risk
    kappa(theta)  = Sigma(rho)^{-1} b, the per-asset allocation direction

All functions are pure; values are immutable after construction, and every
input must be finite.  No explicit matrix inverse is formed anywhere: R and
kappa go through numpy solves against a cached lower-triangular factor L,
L L' = Sigma(rho).  numpy is the only dependency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite, PremiumOverflow

# A correlation candidate counts as positive definite when every pivot of
# the symmetric triangular factorization exceeds this fraction of the
# largest diagonal entry.
PD_TOLERANCE = 1e-10


def n_pairs(d: int) -> int:
    """Number of strictly-upper-triangle entries for d assets."""
    return d * (d - 1) // 2


@functools.lru_cache(maxsize=None)
def pair_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) of the pairs i < j, in the row-major rho order.

    Cached because np.triu_indices costs more than the whole correlation
    matrix build it serves.
    """
    rows, cols = np.triu_indices(d, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=None)
def pair_position(d: int) -> np.ndarray:
    """Read-only d x d map from (i, j) to the rho slot of that pair; i = j maps to slot d(d-1)/2."""
    rows, cols = pair_index(d)
    position = np.full((d, d), rows.size)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    position.flags.writeable = False
    return position


def upper_pairs(matrix) -> np.ndarray:
    """Strict upper triangle of a square matrix as a rho-ordered vector."""
    matrix = np.asarray(matrix)
    return matrix[pair_index(matrix.shape[0])]


def as_rho(entries, d: int) -> np.ndarray:
    """Validate and freeze a copy of a rho vector of length d(d-1)/2."""
    rho = np.array(entries, dtype=float, ndmin=1)
    if rho.shape != (n_pairs(d),):
        raise ValueError(f"rho must have length {n_pairs(d)} for d={d}, got shape {rho.shape}")
    if not (np.abs(rho) <= 1.0).all():  # NaN and inf fail it too
        raise ValueError("rho entries must lie in [-1, 1]")
    rho.flags.writeable = False
    return rho


def _frozen(values) -> np.ndarray:
    """Read-only float copy of one vector (a scalar is one entry); the caller's own array stays writeable."""
    arr = np.atleast_1d(np.array(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got an array of shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _require_finite(**values) -> None:
    """Raise ValueError naming the first argument with a NaN or infinite entry."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MarketParams:
    """Fixed, known market inputs.

    sigmas     marginal volatilities per sqrt(time), all > 0
    horizon_T  investment horizon in years
    lam        risk-aversion weight on the terminal-wealth variance
    x0         initial wealth
    """

    sigmas: np.ndarray
    horizon_T: float
    lam: float
    x0: float

    def __post_init__(self):
        object.__setattr__(self, "sigmas", _frozen(self.sigmas))
        _require_finite(sigmas=self.sigmas, horizon_T=self.horizon_T, lam=self.lam, x0=self.x0)
        if self.sigmas.size < 1:
            raise ValueError("sigmas must be a non-empty vector")
        if not np.all(self.sigmas > 0):
            raise ValueError("all volatilities must be strictly positive")
        if not self.horizon_T > 0:
            raise ValueError("horizon_T must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    @property
    def d(self) -> int:
        return self.sigmas.size


@dataclass(frozen=True)
class ThetaPoint:
    """A drift/correlation candidate (b, rho)."""

    b: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _frozen(self.b))
        _require_finite(b=self.b)
        d = self.b.size
        object.__setattr__(self, "rho", as_rho(self.rho, d))

    @property
    def d(self) -> int:
        return self.b.size


def correlation_matrix(rho, d: int) -> np.ndarray:
    """Dense symmetric C(rho) with unit diagonal; exactly symmetric bitwise."""
    return np.concatenate((as_rho(rho, d), (1.0,)))[pair_position(d)]


def _factor(matrix: np.ndarray):
    """Attempt L L' = matrix with a pivot-by-pivot tolerance check.

    Returns (L, None) on success or (None, k) with k the index of the first
    pivot at or below PD_TOLERANCE * max(diagonal).
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    lower = np.zeros((n, n))
    threshold = PD_TOLERANCE * float(a.diagonal().max()) if n else 0.0
    for k in range(n):
        # At k = 0 the products are empty, and x - 0.0 is x bitwise: skip them.
        pivot = a[k, k] - lower[k, :k] @ lower[k, :k] if k else a[0, 0]
        if not pivot > threshold:
            return None, k
        root = lower[k, k] = math.sqrt(pivot)
        if k + 1 < n:
            lower[k + 1:, k] = (a[k + 1:, k] - lower[k + 1:, :k] @ lower[k, :k] if k else a[1:, 0]) / root
    return lower, None


def correlation_stack(rhos, d: int) -> np.ndarray:
    """C(rho) for each row of an (n, d(d-1)/2) stack of rho vectors: shape (n, d, d)."""
    rhos = np.asarray(rhos, dtype=float)
    # take keeps C order ([:, position] does not), on which matmul's rounding depends.
    return np.concatenate([rhos, np.ones((len(rhos), 1))], axis=1).take(pair_position(d), axis=1)


def _factor_stack(a: np.ndarray):
    """_factor over a stack of shape (n, d, d), one pivot column at a time.

    Returns (L, bad): bad[i] is the index of the first pivot of a[i] at or
    below PD_TOLERANCE * max(diagonal of a[i]), or -1 when every pivot passes; L
    is zero for the failing matrices.  The row products are matmuls over
    rows laid out as in _factor, so the same BLAS kernels form the pivots:
    L and the verdicts, on the PD boundary too, must be _factor's bitwise.
    """
    n, d = a.shape[0], a.shape[-1]
    lower = np.zeros_like(a)
    bad = np.full(n, -1)
    threshold = PD_TOLERANCE * np.max(np.diagonal(a, axis1=1, axis2=2), axis=1) if d else 0.0
    for k in range(d):
        row = lower[:, k, None, :k]
        pivot = a[:, k, k] - (row @ row.transpose(0, 2, 1))[:, 0, 0] if k else a[:, 0, 0]
        bad[(bad < 0) & ~(pivot > threshold)] = k
        root = np.sqrt(np.where(bad < 0, pivot, 1.0))
        lower[:, k, k] = root
        if k + 1 < d:
            column = a[:, k + 1:, k] - (lower[:, k + 1:, :k] @ row.transpose(0, 2, 1))[:, :, 0] if k else a[:, 1:, 0]
            lower[:, k + 1:, k] = column / root[:, None]
    lower[bad >= 0] = 0.0
    return lower, bad


def _half_solve_stack(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^{-1} r by forward substitution for lower-triangular L, shape (n, d, d), and rows r, shape (n, d).

    Row products are matmuls as in _factor_stack, so each row is bitwise y_k = (r_k - L[k, :k] @ y[:k]) / L[k, k].
    """
    y = np.empty_like(rhs)
    for k in range(rhs.shape[1]):
        dot = (lower[:, k, None, :k] @ y[:, :k, None])[:, 0, 0] if k else 0.0  # x - 0.0 is x bitwise
        y[:, k] = (rhs[:, k] - dot) / lower[:, k, k]
    return y


def covariance_factor_stack(rhos, sigmas: np.ndarray):
    """_factor_stack's (L, bad) of C(rho) for a stack of rho rows, L scaled to diag(sigma) L."""
    lower, bad = _factor_stack(correlation_stack(rhos, sigmas.size))
    return lower * sigmas[:, None], bad


def is_positive_definite(rho, d: int):
    """True iff C(rho) is positive definite under the pivot tolerance.

    An (n, d(d-1)/2) stack of rho vectors gives a bool array of n verdicts.
    """
    if np.ndim(rho) == 2:
        return _factor_stack(correlation_stack(rho, d))[1] < 0
    return _factor(correlation_matrix(rho, d))[0] is not None


@dataclass(frozen=True)
class CovMatrix:
    """Covariance matrix Sigma(rho) with its cached lower-triangular factor."""

    matrix: np.ndarray
    chol: np.ndarray = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^{-1} rhs = L'^{-1} L^{-1} rhs."""
        return np.linalg.solve(self.chol.T, self.half_solve(rhs))

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^{-1} rhs, so that ||half_solve(b)||^2 = b' Sigma^{-1} b."""
        return np.linalg.solve(self.chol, rhs)

    def premium_and_direction(self, b: np.ndarray) -> tuple[float, np.ndarray]:
        """(R, kappa) = (b' Sigma^{-1} b, Sigma^{-1} b) from one half solve y = L^{-1} b.

        Bitwise the values of risk_premium and variance_risk_ratio at this rho.
        """
        y = self.half_solve(b)
        return float(y @ y), np.linalg.solve(self.chol.T, y)


def covariance_from(rho, params: MarketParams) -> CovMatrix:
    """Sigma(rho) = diag(sigma) C(rho) diag(sigma) with cached factor.

    Raises NotPositiveDefinite (carrying the failing pivot index) when
    C(rho) fails the tolerance test.
    """
    corr = correlation_matrix(rho, params.d)
    lower_c, bad = _factor(corr)
    if lower_c is None:
        raise NotPositiveDefinite(f"correlation matrix is not positive definite (pivot {bad})", pivot_index=bad)
    return _covariance(corr, lower_c, params.sigmas)


def _covariance(corr: np.ndarray, lower_c: np.ndarray, scale: np.ndarray) -> CovMatrix:
    """CovMatrix of Sigma = S C S, S = diag(scale), from C and its factor L: (S L)(S L)' = S C S."""
    sigma, chol = corr * (scale[:, None] * scale), lower_c * scale[:, None]
    sigma.flags.writeable = chol.flags.writeable = False
    return CovMatrix(matrix=sigma, chol=chol)


def risk_premium(theta: ThetaPoint, params: MarketParams) -> float:
    """Squared market price of risk R(theta) = b' Sigma(rho)^{-1} b >= 0."""
    cov = covariance_from(theta.rho, params)
    y = cov.half_solve(theta.b)
    return float(y @ y)


def variance_risk_ratio(theta: ThetaPoint, params: MarketParams) -> np.ndarray:
    """Allocation direction kappa(theta) = Sigma(rho)^{-1} b."""
    cov = covariance_from(theta.rho, params)
    return cov.solve(theta.b)


def risk_premium_gradients(theta: ThetaPoint, params: MarketParams):
    """First partial derivatives of R at theta, ordered like (b, rho vector).

    dR/db_i = 2 kappa_i and dR/drho_ij = -2 sigma_i sigma_j kappa_i kappa_j.
    A rho coordinate controls both symmetric entries of the correlation
    matrix, hence the factor 2 (central finite differences confirm it);
    conventions that differentiate with respect to a single matrix entry
    report half this value.  Only the sign pattern matters to the
    optimality conditions, so either convention selects the same minimizer.
    """
    return _premium_gradients(variance_risk_ratio(theta, params), params)


def _premium_gradients(kappa: np.ndarray, params: MarketParams):
    """risk_premium_gradients from a direction kappa = Sigma(rho)^{-1} b already solved."""
    scaled = params.sigmas * kappa
    rows, cols = pair_index(params.d)
    return 2.0 * kappa, -2.0 * scaled[rows] * scaled[cols]


def saddle_value(b, rho, theta_star: ThetaPoint, params: MarketParams) -> float:
    """Bilinear value b' Sigma(rho*)^{-1} Sigma(rho) Sigma(rho*)^{-1} b*.

    At (b*, rho*) this equals the minimal risk premium; the worst-case pair
    is a saddle point of this function over the ambiguity set.
    """
    cov_star = covariance_from(theta_star.rho, params)
    left = cov_star.solve(np.asarray(b, dtype=float))
    right = cov_star.solve(theta_star.b)
    sigma = covariance_from(rho, params).matrix
    return float(left @ sigma @ right)


@dataclass(frozen=True)
class SharpeProfile:
    """Per-asset Sharpe ratios in their descending-|beta| order.

    betas        b_i / sigma_i in input order
    order        permutation sorting |beta| in stable descending order
    zero_drift   True when every beta is zero
    """

    betas: np.ndarray
    order: np.ndarray
    zero_drift: bool


def sharpe_profile(b_hat, params: MarketParams) -> SharpeProfile:
    """Sharpe ratios of b_hat with the descending-|beta| sort applied.

    A ratio beyond the float range, as under a volatility near 5e-324,
    raises PremiumOverflow: R >= beta_i^2 is then not finite either.
    """
    b_hat = np.atleast_1d(np.asarray(b_hat, dtype=float))
    if b_hat.shape != (params.d,):
        raise ValueError(f"b_hat must have length {params.d}")
    with np.errstate(over="ignore"):
        betas = b_hat / params.sigmas
    order = np.argsort(-np.abs(betas), kind="stable")
    if not math.isfinite(betas[order[0]]):  # the largest |beta|
        raise PremiumOverflow(f"a Sharpe ratio b_i / sigma_i exceeds the float range: {betas.tolist()}")
    betas.flags.writeable = False
    order.flags.writeable = False
    return SharpeProfile(betas=betas, order=order, zero_drift=bool(np.all(betas == 0.0)))
