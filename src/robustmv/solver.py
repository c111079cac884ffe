"""Worst-case (drift, correlation) scenarios: closed forms, numerics, oracles.

The robust problem separates: first minimize the risk premium R over the
ambiguity set, then trade as if the minimizer were the true model.  This
module owns the first step.

For ellipsoidal sets the worst correlation rho* minimizes R(b_hat, rho)
and never depends on delta; delta only shrinks the drift, b* =
(1 - delta/s)_+ b_hat with s = sqrt(R(b_hat, rho*)), so r* = (s - delta)_+^2
and delta >= s means no trade.  `solve` finds rho* by a delta-free closed
form or by the numeric fallback, then shrinks once.  The closed forms: any
d when only the top-|Sharpe| asset is traded (`_one_asset`, tried first on
every set); otherwise two- and three-asset boxes from one enumeration of
the dual bound of R (`_dual`), whose winning sign pattern names the case.
The fallback, `numeric_minimize`, is one projected descent over (b, rho)
for both families, product (rectangular) sets and ellipsoidal sets alike:
an ellipsoidal set's b is pinned to b_hat.  It starts at the box centre,
or at the box point nearest the identity when the centre is not PD.  An
exhaustive grid oracle, evaluated a chunk of nodes at a time, provides
independent ground truth for tests.

Every solution carries the direction kappa* = Sigma(rho*)^{-1} b* that the
second step trades, and the invariant is direction == Sigma(rho*)^{-1} b*
bitwise, the value variance_risk_ratio(theta_star) gives.  One factor of
Sigma(rho*) yields both s (where no closed form gives it exactly) and
kappa*, so nothing downstream factors again, verify_saddle included; when
`_dual`'s winner trades every asset, it is the factor of that corner in
`_dual`'s candidate stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ambiguity as amb
from .ambiguity import AmbiguitySpec, EllipsoidalSet, ProductSet
from .errors import (
    BoxNotPositiveDefinite,
    GridTooLarge,
    NoFeasiblePoint,
    NoMinimum,
    NotPositiveDefinite,
    PremiumOverflow,
    SaddleViolated,
    ZeroDrift,
)
from .market import (
    MarketParams,
    ThetaPoint,
    _covariance,
    _frozen,
    _factor_stack,
    _premium_gradients,
    correlation_stack,
    covariance_from,
    is_positive_definite,
    pair_index,
    pair_position,
    sharpe_profile,
    upper_pairs,
)

# Case labels reported in WorstCaseSolution.case_label.
SINGLETON = "Singleton"
ONE_ASSET = "OneAsset"
FULL_AMBIGUITY = "FullAmbiguity"
TOP_ASSET = "TopAsset"
TWO_INTERIOR = "TwoAsset.Interior"
TWO_UPPER = "TwoAsset.Upper"
TWO_LOWER = "TwoAsset.Lower"
THREE_CASE1 = "ThreeAsset.Case1"
THREE_CASE2I = "ThreeAsset.Case2i"
THREE_CASE2II = "ThreeAsset.Case2ii"
THREE_CASE3I = "ThreeAsset.Case3i"
THREE_CASE3II = "ThreeAsset.Case3ii"
THREE_CASE4I = "ThreeAsset.Case4i"
THREE_CASE4II = "ThreeAsset.Case4ii"
THREE_CASE5I = "ThreeAsset.Case5i"
THREE_CASE5II = "ThreeAsset.Case5ii"
THREE_CASE5III = "ThreeAsset.Case5iii"
THREE_CASE5IV = "ThreeAsset.Case5iv"
PRODUCT_NO_TRADE = "Product.NoTrade"
NUMERIC = "Numeric"
ORACLE = "Oracle"

GRID_BUDGET = 10**8
# grid_oracle's default points per spanned axis: 2001 for one axis; 51 keeps four axes within GRID_BUDGET.
GRID_RESOLUTION_ONE_AXIS = 2001
GRID_RESOLUTION = 51
# Grid nodes the oracle evaluates at a time: its memory is bounded by a chunk, not by the grid.
GRID_CHUNK = 2**16

# Projected descent: iteration budget, and the box residual, relative to f, that counts as converged.
DESCENT_MAX_ITERS = 5000
DESCENT_TOL = 1e-8


@dataclass
class WorstCaseSolution:
    """Minimizer of the risk premium over an ambiguity set.

    theta_star   worst-case (drift, correlation) pair
    r_star       minimal risk premium
    case_label   which closed-form case (or fallback) produced the result
    direction    kappa* = Sigma(rho*)^{-1} b*, the allocation direction: bitwise
                 variance_risk_ratio(theta_star), solved on the factor of
                 Sigma(rho*) that also gave r*
    diagnostics  solver-specific details (iterations, residuals, grid size)
    """

    theta_star: ThetaPoint
    r_star: float
    case_label: str
    direction: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.direction = _frozen(self.direction)

    @property
    def no_trade(self) -> bool:
        """True iff the worst-case drift is identically zero."""
        return bool(np.all(self.theta_star.b == 0.0))


def _shrink(b_hat, s, delta):
    """(b*, r*) = ((1 - delta/s) b_hat, (s - delta)^2) if s > delta, else (0, 0).

    r* is inf where (s - delta)^2 passes the float range."""
    if s > delta:
        try:
            return (1.0 - delta / s) * b_hat, (s - delta) ** 2
        except OverflowError:  # raised by a float's **, where numpy would give inf
            return (1.0 - delta / s) * b_hat, math.inf
    return np.zeros_like(b_hat), 0.0


def _shrink_at(cov, b_hat, delta):
    """_shrink with s = ||L^{-1} b_hat||, L the factor of Sigma(rho*): bitwise sqrt(risk_premium)."""
    y = cov.half_solve(b_hat)
    return _shrink(b_hat, math.sqrt(float(y @ y)), delta)


def _solution(b_star, rho_star, r_star, label, cov, diagnostics=None) -> WorstCaseSolution:
    """WorstCaseSolution at (b*, rho*) whose direction is solved on cov, the factor of Sigma(rho*)."""
    theta = ThetaPoint(b=b_star, rho=rho_star)
    return WorstCaseSolution(theta, r_star, label, cov.solve(theta.b), diagnostics or {})


def solve_ellipsoidal_given_rho(rho_star, b_hat, delta, params: MarketParams):
    """Worst drift inside the ellipsoid once the correlation is fixed.

    Shrinks the anchor toward zero by the anchored premium root
    s = ||sigma(rho*)^{-1} b_hat||_2: see _shrink.
    """
    b_hat = np.atleast_1d(np.asarray(b_hat, dtype=float))
    return _shrink_at(covariance_from(rho_star, params), b_hat, delta)


def _one_asset(lower, upper, profile, params: MarketParams):
    """(rho, factor of Sigma(rho)) at which only the top-|Sharpe| asset is traded, or None.

    The fact: for any PD rho and any asset i, b_hat' Sigma(rho)^{-1} b_hat
    >= beta_i^2, with equality iff row i of C(rho) equals the Sharpe
    proximities q_ij = beta_j / beta_i (Cauchy-Schwarz in the Sigma inner
    product: kappa = Sigma^{-1} b_hat is then a multiple of e_i).  So when
    the box [lower, upper] holds such a PD point for the top asset, the
    minimum of R over box & PD is exactly beta_top^2, for every d.

    The top row takes q and every other pair q_j q_k clipped to its
    interval: unclipped, the max-determinant completion (at d = 3 the clip
    keeps it so), and for bounds [-1, 1] the upper triangle of v v',
    v = betas / beta_top.  Returns that rho in input order, with its
    covariance factor, when the top row needed no clipping and C(rho) passes
    the PD test: that factorization is the test.
    """
    top = profile.order[0]
    v = profile.betas / profile.betas[top]
    target = upper_pairs(np.outer(v, v))
    rho = np.clip(target, lower, upper)
    rows, cols = pair_index(params.d)
    top_row = (rows == top) | (cols == top)
    if not np.array_equal(rho[top_row], target[top_row]):
        return None
    try:
        return rho, covariance_from(rho, params)
    except NotPositiveDefinite:
        return None


# Closed-form labels of `_dual`, keyed on the winner's signs in the sorted frame,
# scaled so that the first nonzero one is +1; 0 marks an asset that is not traded.
_DUAL_LABELS = {
    (1, 1): TWO_UPPER, (1, -1): TWO_LOWER,
    (1, 1, 0): THREE_CASE2I, (1, -1, 0): THREE_CASE2II,
    (1, 0, 1): THREE_CASE3I, (1, 0, -1): THREE_CASE3II,
    (0, 1, 1): THREE_CASE4I, (0, 1, -1): THREE_CASE4II,
    (1, 1, 1): THREE_CASE5I, (1, -1, -1): THREE_CASE5II, (1, 1, -1): THREE_CASE5III, (1, -1, 1): THREE_CASE5IV,
}


@functools.lru_cache(maxsize=None)
def _candidates(d: int):
    """Read-only masks (traded, at_upper, at_lower) of the (3^d - 1)/2 sign patterns t of `_dual`.

    t runs over {-1, 0, 1}^d with first nonzero entry +1, smaller supports
    first (an exact tie goes to fewer traded assets); a pair of traded
    assets sits at its upper bound where t_i t_j > 0, else at its lower one.
    """
    patterns = [t for t in itertools.product((1, 0, -1), repeat=d) if next((s for s in t if s), 0) == 1]
    patterns = np.array(sorted(patterns, key=np.count_nonzero))
    rows, cols = pair_index(d)
    pair_signs = patterns[:, rows] * patterns[:, cols]
    masks = (patterns != 0, pair_signs > 0, pair_signs < 0)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _dual(lower, upper, profile, params: MarketParams):
    """(rho*, label, diagnostics, untraded assets, CovMatrix of rho*) of a d = 2 or 3 box from the dual, or None.

    Weak duality (Boyd & Vandenberghe 3.1.7, the matrix-fractional
    function): for every k and every PD rho in the box, R(b_hat, rho) >=
    g(k) = 2 beta'k - ||k||^2 - sum_{i<j} max(2 l_ij k_i k_j, 2 u_ij k_i k_j),
    the sum being the maximum of k'C(rho)k over the whole box, non-PD
    corners included.  A PD minimizer's k* = C(rho*)^{-1} beta attains it
    (KKT: pairs sit at the upper bound where k_i k_j > 0, at the lower one
    where k_i k_j < 0), so with K the support of k* and t its signs,
    k*_K = C_KK(corner of t)^{-1} beta_K with C_KK PD, and min R is the
    largest g over the candidates (K, t), factored as one stack of
    blockdiag(C_KK, I) with beta masked to K.  beta is scaled by a power of
    two, exactly, so max |beta| lies in [1/2, 1): rho* and the label do not
    depend on the scale of b_hat, and g neither overflows nor underflows.

    This decides only multi-asset winners; one traded asset is
    `_one_asset`'s answer.  The winner's rho*: pairs in K at the corner of
    t; at d = 3 with |K| = 2, the untraded asset z's row at the midpoint of
    its segment {sum_k rho_zk k_k = beta_z} in the box, where kappa_z = 0.
    Then C(rho*) k = beta and rho* attains the maximum in g, so R(rho*) = g
    is minimal once rho* passes the PD test, the factorization of Sigma(rho*)
    returned: the stack's, bitwise _factor's, when rho* is the winning corner.
    None when rho* fails it, when k does not trade exactly K or its signs pick
    another corner, when one asset wins (a `_one_asset` miss by rounding), or
    when the segment misses the box by more than 1e-9 in rho.
    """
    order, d = profile.order, params.d
    exponent = int(np.frexp(np.max(np.abs(profile.betas)))[1])
    betas = np.ldexp(profile.betas, -exponent)
    traded, at_upper, at_lower = _candidates(d)
    rows, cols = pair_index(d)
    corners = np.where(at_upper, upper, np.where(at_lower, lower, 0.0))
    blocks = correlation_stack(corners, d)
    factors, bad = _factor_stack(blocks)
    dropped = bad >= 0
    # One LU solve for all candidates; the identity stands in for the dropped ones.
    blocks = np.where(dropped[:, None, None], np.eye(d), blocks)
    kappas = np.linalg.solve(blocks, (betas * traded)[:, :, None])[:, :, 0]
    products = kappas[:, rows] * kappas[:, cols]
    g = 2.0 * (kappas @ betas - np.maximum(lower * products, upper * products).sum(axis=1))
    g = np.where(dropped, -np.inf, g - (kappas * kappas).sum(axis=1))
    win = int(np.argmax(g))
    kappa, corner, products, traded = kappas[win], corners[win], products[win], traded[win]
    # kappa trades all of K, and rho's pairs in K attain the box maximum in g.
    if np.count_nonzero(kappa) != np.count_nonzero(traded):
        return None
    if np.any(corner * products < np.maximum(lower * products, upper * products)):
        return None
    in_sorted = np.sign(kappa[order]).tolist()
    lead = next(s for s in in_sorted if s)
    label = _DUAL_LABELS.get(tuple(int(s * lead) for s in in_sorted))
    if label is None:
        return None
    rho = corner.copy()
    margin = np.ldexp(g[win] - np.sort(g)[-2], 2 * exponent)
    diagnostics = {"order": order.tolist(), "runner_up_margin": float(margin)}
    untraded = tuple(i for i, t in enumerate(traded.tolist()) if not t)
    if untraded:
        (z,), (j, k) = untraded, np.flatnonzero(traded)
        zj, zk = pair_position(d)[z, j], pair_position(d)[z, k]
        (lx, ux), (ly, uy) = (lower[zj], upper[zj]), (lower[zk], upper[zk])
        # x = rho_zj on the line kappa_j x + kappa_k y = beta_z with y = rho_zk in [ly, uy].
        ends = sorted((betas[z] - kappa[k] * y) / kappa[j] for y in (ly, uy))
        x_lo, x_hi = max(ends[0], lx), min(ends[1], ux)
        # A miss by e in x is one by e |kappa_j / kappa_k| in y: allow 1e-9 in either.
        if x_lo - x_hi > 1e-9 * max(1.0, abs(kappa[k] / kappa[j])):
            return None
        x = min(max(x_lo + 0.5 * (x_hi - x_lo), lx), ux)
        rho[[zj, zk]] = x, min(max((betas[z] - kappa[j] * x) / kappa[k], ly), uy)
        try:
            return rho, label, diagnostics, untraded, covariance_from(rho, params)
        except NotPositiveDefinite:
            return None
    # rho* is the winning corner, never a dropped one: those score -inf, every one-asset candidate more.
    return rho, label, diagnostics, untraded, _covariance(blocks[win], factors[win], params.sigmas)


def solve_product(spec: ProductSet, params: MarketParams) -> WorstCaseSolution:
    """Rectangular drift box times correlation box.

    Singletons are returned exactly; a drift box containing the origin
    makes the premium vanish; everything else is minimized numerically.
    """
    if spec.is_singleton():
        theta = ThetaPoint(b=spec.delta_lower, rho=spec.gamma.lower)
        r_star, direction = covariance_from(theta.rho, params).premium_and_direction(theta.b)
        return WorstCaseSolution(theta, r_star, SINGLETON, direction)
    if np.all(spec.delta_lower <= 0.0) and np.all(spec.delta_upper >= 0.0):
        rho = amb.project_rho(spec, 0.5 * (spec.gamma.lower + spec.gamma.upper))
        return _solution(np.zeros(spec.d), rho, 0.0, PRODUCT_NO_TRADE, covariance_from(rho, params))
    return numeric_minimize(spec, params)


def _box_residual(grad, x, lower, upper) -> float:
    """Exact first-order optimality violation over a box feasible set."""
    drop = np.where(grad > 0, grad * (lower - x), grad * (upper - x))
    return float(-np.minimum(drop, 0.0).sum())


def numeric_minimize(spec: AmbiguitySpec, params: MarketParams) -> WorstCaseSolution:
    """Projected Barzilai-Borwein descent of the risk premium R(b, rho) over the set.

    One descent reaches the global minimum: R(b, rho) is a matrix-fractional
    function of an affine map, hence jointly convex on the PD region (Boyd &
    Vandenberghe 3.1.7), and box & {C(rho) > 0} is convex.  It runs over z =
    (b, rho) in one box for both families: a product set's drift box, and
    for an ellipsoidal set the one-point box [b_hat, b_hat], whose clip pins
    b.  There the inner minimum over the drift ellipsoid is closed form,
    (sqrt(R(b_hat, rho)) - delta)_+^2, nondecreasing in R: one minimizer of
    R(b_hat, rho) serves every delta, no-trade answers included, so delta
    enters once, through _shrink, after the loop.

    The start is the box centre when C of its rho is PD, else the box point
    nearest the identity (rho = 0 clipped to the box) when that is PD; when
    neither is, raises NoFeasiblePoint; where R or its gradient is not finite,
    at the start or at a candidate, raises PremiumOverflow.  Steps clip to
    the box (its exact projection); points failing the PD test lie outside
    R's domain.  Barzilai-Borwein steps halve until Armijo's test holds or
    the slope at the candidate is <= 0, which for convex R proves a decrease
    that rounding can hide in R.

    The box residual is the Frank-Wolfe gap, an upper bound on R - min R, so
    the descent stops once it is below DESCENT_TOL * R: the test reads the
    same at every scale of R, which stays positive (R >= beta_top^2 for
    ellipsoidal sets).  R blows up toward a singular C(rho) unless b is
    orthogonal to its null vector, so a minimum on the PD boundary is rare;
    there the box residual stays positive and converged is False.

    Each evaluation factors Sigma(rho) once: y = L^{-1} b gives R = y'y and
    kappa = L'^{-1} y, hence the gradient; the factor at the point returned
    also gives the solution's direction.
    """
    d = spec.d
    product = isinstance(spec, ProductSet)
    b_lower, b_upper = (spec.delta_lower, spec.delta_upper) if product else (spec.b_hat, spec.b_hat)
    lower = np.concatenate([b_lower, spec.gamma.lower])
    upper = np.concatenate([b_upper, spec.gamma.upper])
    z = 0.5 * (lower + upper)

    def evaluate(point):
        """(R, gradient, factor of Sigma(rho)) at point = (b, rho); raises NotPositiveDefinite off R's domain."""
        cov = covariance_from(point[d:], params)
        r, kappa = cov.premium_and_direction(point[:d])
        grad = np.concatenate(_premium_gradients(kappa, params))
        if not (math.isfinite(r) and all(map(math.isfinite, grad.tolist()))):
            raise PremiumOverflow(f"the risk premium or its gradient is not finite at b = {point[:d].tolist()}")
        return r, grad, cov

    try:
        r, grad, cov = evaluate(z)
    except NotPositiveDefinite:
        z[d:] = np.clip(0.0, spec.gamma.lower, spec.gamma.upper)
        try:
            r, grad, cov = evaluate(z)
        except NotPositiveDefinite:
            raise NoFeasiblePoint("neither the box centre nor its point nearest 0 is positive definite") from None
    eta = 1.0
    for iterations in range(1, DESCENT_MAX_ITERS + 1):
        residual = _box_residual(grad, z, lower, upper)
        if residual < DESCENT_TOL * r:
            break
        stalled = False
        while not stalled:
            candidate = np.clip(z - eta * grad, lower, upper)
            step = candidate - z
            try:
                r_new, grad_new, cov_new = evaluate(candidate)
            except NotPositiveDefinite:
                pass
            else:
                if r_new <= r + 1e-4 * float(grad @ step) or float(grad_new @ step) <= 0.0:
                    break
            stalled = eta < 1e-14
            eta *= 0.5
        if stalled or not step.any():
            break
        curvature = float(step @ (grad_new - grad))
        eta = float(step @ step) / curvature if curvature > 0.0 else 1.0
        z, r, grad, cov = candidate, r_new, grad_new, cov_new
    else:
        residual = _box_residual(grad, z, lower, upper)
    b_star, r_star = (z[:d], r) if product else _shrink(z[:d], math.sqrt(r), spec.delta)
    converged = residual < DESCENT_TOL * r
    diagnostics = {"starts": 1, "iterations": iterations, "residual": residual, "converged": converged}
    return _solution(b_star, z[d:], r_star, NUMERIC, cov, diagnostics)


def _premium_batch(b, rho, sigmas):
    """Vectorized premium and PD mask, independent of the factorization path.

    Uses explicit inverse formulas (adjugate for d <= 3, batched solve
    otherwise) and Sylvester minors for the PD test, so oracle results do
    not share code with the production triangular-solve route.
    """
    d = len(sigmas)
    b = np.asarray(b, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if b.ndim == 1:
        b = np.broadcast_to(b, (rho.shape[0] if rho.ndim > 1 else 1, d))
    betas = b / np.asarray(sigmas)
    if d == 1:
        n = betas.shape[0]
        return betas[:, 0] ** 2, np.ones(n, dtype=bool)
    if d == 2:
        r = rho[:, 0]
        det = 1.0 - r**2
        mask = det > 1e-12
        safe = np.where(mask, det, 1.0)
        prem = (betas[:, 0] ** 2 + betas[:, 1] ** 2 - 2.0 * r * betas[:, 0] * betas[:, 1]) / safe
        return prem, mask
    if d == 3:
        a, bb, c = rho[:, 0], rho[:, 1], rho[:, 2]
        det = 1.0 + 2.0 * a * bb * c - a**2 - bb**2 - c**2
        mask = (det > 1e-12) & (1.0 - a**2 > 1e-12)
        safe = np.where(mask, det, 1.0)
        b1, b2, b3 = betas[:, 0], betas[:, 1], betas[:, 2]
        quad = (
            b1**2 * (1.0 - c**2)
            + b2**2 * (1.0 - bb**2)
            + b3**2 * (1.0 - a**2)
            + 2.0 * b1 * b2 * (bb * c - a)
            + 2.0 * b1 * b3 * (a * c - bb)
            + 2.0 * b2 * b3 * (a * bb - c)
        )
        return quad / safe, mask
    n = rho.shape[0]
    mats = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    for k, (i, j) in enumerate(zip(*np.triu_indices(d, 1))):
        mats[:, i, j] = rho[:, k]
        mats[:, j, i] = rho[:, k]
    eigs = np.linalg.eigvalsh(mats)
    mask = eigs[:, 0] > 1e-10
    prem = np.ones(n)
    if mask.any():
        sol = np.linalg.solve(mats[mask], betas[mask][:, :, None])[:, :, 0]
        prem_vals = np.einsum("ij,ij->i", betas[mask], sol)
        prem = np.zeros(n)
        prem[mask] = prem_vals
    return prem, mask


def _grid_nodes(axes, first, stop):
    """Nodes first, ..., stop - 1 of the product grid of axes in C order, one row per node."""
    if not axes:
        return np.zeros((stop - first, 0))
    index = np.unravel_index(np.arange(first, stop), [ax.size for ax in axes])
    return np.stack([ax[i] for ax, i in zip(axes, index)], axis=1)


def grid_oracle(spec: AmbiguitySpec, params: MarketParams, resolution: int | None = None) -> WorstCaseSolution:
    """Exhaustive grid minimization used as ground truth in tests.

    Grids the correlation box (and the drift box for product sets),
    skipping nodes that fail the positive-definite test.  Full correlation
    ambiguity is approximated by the wide box [-0.95, 0.95] per pair.  The
    drift for ellipsoidal sets comes from the fixed-correlation shrinkage
    map at every node.  resolution is the number of points on each axis
    with lower < upper; by default GRID_RESOLUTION_ONE_AXIS when at most
    one axis is spanned and GRID_RESOLUTION otherwise.  diagnostics record
    the resolution used.
    """
    if resolution is not None and resolution < 1:
        raise ValueError("resolution must be >= 1")
    d = params.d
    if spec.gamma.full_ambiguity:
        g_lower = np.full(spec.gamma.n_pairs, -0.95)
        g_upper = np.full(spec.gamma.n_pairs, 0.95)
    else:
        g_lower, g_upper = spec.gamma.lower, spec.gamma.upper
    bounds = list(zip(g_lower, g_upper))
    n_b = 0
    if isinstance(spec, ProductSet):
        n_b = d
        bounds = list(zip(spec.delta_lower, spec.delta_upper)) + bounds
    spanned = sum(lo != hi for lo, hi in bounds)
    if resolution is None:
        resolution = GRID_RESOLUTION_ONE_AXIS if spanned <= 1 else GRID_RESOLUTION
    axes = [np.array([lo]) if lo == hi or resolution == 1 else np.linspace(lo, hi, resolution) for lo, hi in bounds]
    total = 1
    for ax in axes:
        total *= ax.size
    if total > GRID_BUDGET:
        fits = round(GRID_BUDGET ** (1.0 / spanned))  # the floor of the root, or one above it
        if fits**spanned > GRID_BUDGET:
            fits -= 1
        raise GridTooLarge(
            f"grid of {total} nodes exceeds the budget of {GRID_BUDGET}; "
            f"the largest resolution that fits is {fits}"
        )

    best, k_best, r_best, feasible = np.inf, 0, 0.0, 0
    for first in range(0, total, GRID_CHUNK):
        nodes = _grid_nodes(axes, first, min(first + GRID_CHUNK, total))
        b_grid = nodes[:, :n_b] if n_b else np.asarray(spec.b_hat, dtype=float)
        prem, mask = _premium_batch(b_grid, nodes[:, n_b:], params.sigmas)
        if isinstance(spec, EllipsoidalSet):
            root = np.sqrt(np.maximum(prem, 0.0))
            scores = np.where(root > spec.delta, (root - spec.delta) ** 2, 0.0)
        else:
            scores = prem
        scores = np.where(mask, scores, np.inf)
        k = int(np.argmin(scores))
        if scores[k] < best:  # strict, so a tie keeps the earlier node, as one argmin over the grid would
            best, k_best, r_best = scores[k], first + k, float(prem[k])
        feasible += int(mask.sum())
    if not np.isfinite(best):
        raise BoxNotPositiveDefinite("no positive-definite node on the grid")
    node = _grid_nodes(axes, k_best, k_best + 1)[0]
    rho_star = node[n_b:]
    cov = covariance_from(rho_star, params)
    if isinstance(spec, EllipsoidalSet):
        b_star, r_star = _shrink_at(cov, spec.b_hat, spec.delta)
    else:
        b_star, r_star = node[:n_b], r_best
    diagnostics = {"resolution": resolution, "nodes": int(total), "feasible_nodes": feasible}
    return _solution(b_star, rho_star, r_star, ORACLE, cov, diagnostics)


@dataclass(frozen=True)
class SaddleReport:
    """Sampled check of the two saddle inequalities around a solution."""

    samples: int
    tol: float
    worst_upper_margin: float  # max over rho draws of H(b*, rho) - r*, need <= tol
    worst_lower_margin: float  # min over b draws of H(b, rho*) - r*, need >= -tol
    ok: bool


def verify_saddle(
    solution: WorstCaseSolution,
    spec: AmbiguitySpec,
    params: MarketParams,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
) -> SaddleReport:
    """Sample the ambiguity set and test both sides of the saddle inequality.

    The draws (b, rho) come from ambiguity._draws, rho uniform on the PD
    part of the box: on the full correlation set the onion method proposes
    PD matrices only, so the check costs about the same at any d; on a
    box, proposals that fail the PD test are rejected.  Over the draws, H(b*, rho) - r* =
    kappa*' Sigma(rho) kappa* - r* is linear in rho, one matvec, and
    H(b, rho*) - r* = b' kappa* - r*.  Raises SaddleViolated with the first
    offending draw, upper side first.

    kappa* is solution.direction: a hand-built solution must keep direction = Sigma(rho*)^{-1} b*.
    A call makes no scalar factorization: a proposal block takes one stacked PD test and, for
    an ellipsoidal set, one stacked factor, on which the drift test substitutes forward.
    """
    kappa_star = solution.direction
    b, rho = amb._draws(spec, samples, seed, params)
    scaled = params.sigmas * kappa_star
    rows, cols = pair_index(params.d)
    upper = scaled @ scaled + rho @ (2.0 * scaled[rows] * scaled[cols]) - solution.r_star
    lower = b @ kappa_star - solution.r_star
    offending = np.flatnonzero((upper > tol) | (lower < -tol))
    if offending.size:
        i = offending[0]
        theta = ThetaPoint(b=b[i], rho=rho[i])
        if upper[i] > tol:
            raise SaddleViolated(f"H(b*, rho) exceeds r* by {upper[i]:.3e}", theta=theta, margin=float(upper[i]))
        raise SaddleViolated(f"H(b, rho*) undershoots r* by {-lower[i]:.3e}", theta=theta, margin=float(lower[i]))
    return SaddleReport(
        samples=samples,
        tol=tol,
        worst_upper_margin=float(upper.max()) if samples else 0.0,
        worst_lower_margin=float(lower.min()) if samples else 0.0,
        ok=True,
    )


def _fallthrough(spec: EllipsoidalSet, params: MarketParams) -> WorstCaseSolution:
    """numeric_minimize on a box that no closed form solved, marked case_fallthrough.

    When the descent finds no PD point to start from, raises
    BoxNotPositiveDefinite naming the first non-PD corner in the caller's
    pair order.
    """
    try:
        solution = numeric_minimize(spec, params)
    except NoFeasiblePoint:
        # The centre failed, so some corner fails too: the PD region is convex.
        corners = np.array(list(itertools.product(*zip(spec.gamma.lower, spec.gamma.upper))))
        corner = tuple(corners[np.argmin(is_positive_definite(corners, params.d))].tolist())
        message = f"correlation box corner {corner} is not positive definite"
        raise BoxNotPositiveDefinite(message, corner=corner) from None
    solution.diagnostics["case_fallthrough"] = True
    return solution


def solve(spec: AmbiguitySpec, params: MarketParams) -> WorstCaseSolution:
    """Route an ambiguity set to its closed form or the numeric fallback.

    Every ellipsoidal set first tries `_one_asset`: when the set holds a PD
    point whose top-asset row is the Sharpe proximities, only that asset is
    traded and s = |beta_top| exactly.  The label is FullAmbiguity,
    OneAsset (d = 1), TwoAsset.Interior, ThreeAsset.Case1 or TopAsset
    (d >= 4); only that one point must be PD, so non-PD box corners do not
    stop it.  Under full ambiguity a miss means the top |Sharpe ratio| is
    tied, or too close to tied, and raises NoMinimum.  d >= 4 boxes go to
    numeric_minimize.  Two- and three-asset boxes take `_dual`'s
    multi-asset winner, labelled TwoAsset.Upper/Lower or
    ThreeAsset.Case2i-Case5iv; non-PD corners only drop candidates.  When
    `_dual` gives no point, or its point fails the PD test, the box goes to
    numeric_minimize, marked diagnostics["case_fallthrough"]; when that
    finds no PD point to start from, BoxNotPositiveDefinite names the first
    non-PD corner.

    Sigma(rho*) is factored once: `_one_asset`'s PD test is that
    factorization, and after `_dual` it is the PD test of rho*, made in
    `_dual`'s candidate stack when every asset is traded.  The factor
    gives the solution's direction Sigma(rho*)^{-1} b*; after `_dual`, one
    half solve y = L^{-1} b_hat also gives s = ||y|| (bitwise
    sqrt(risk_premium)) and, when an asset is not traded, its entry of
    Sigma(rho*)^{-1} b_hat = L'^{-1} y relative to the largest.
    """
    if isinstance(spec, ProductSet):
        return solve_product(spec, params)
    d, full = params.d, spec.gamma.full_ambiguity
    profile = sharpe_profile(spec.b_hat, params)
    if profile.zero_drift:
        raise ZeroDrift("all prior expected returns are zero: never trade")
    found = _one_asset(spec.gamma.lower, spec.gamma.upper, profile, params)
    if found is not None:
        rho_star, cov = found
        s = abs(float(profile.betas[profile.order[0]]))
        label = FULL_AMBIGUITY if full else {1: ONE_ASSET, 2: TWO_INTERIOR, 3: THREE_CASE1}.get(d, TOP_ASSET)
        diagnostics = {"order": profile.order.tolist(), "top_sharpe": s}
        b_star, r_star = _shrink(spec.b_hat, s, spec.delta)
    elif full:
        raise NoMinimum("no minimizer under full correlation ambiguity: the top |Sharpe ratio| is tied or nearly")
    elif d >= 4:
        return numeric_minimize(spec, params)
    else:
        found = _dual(spec.gamma.lower, spec.gamma.upper, profile, params)
        if found is None:
            return _fallthrough(spec, params)
        rho_star, label, diagnostics, untraded, cov = found
        y = cov.half_solve(spec.b_hat)
        b_star, r_star = _shrink(spec.b_hat, math.sqrt(float(y @ y)), spec.delta)
        if untraded:
            # Relative to max |kappa_hat|, the scale classify's ZERO_DIRECTION_RTOL uses: drift-scale free.
            kappa_hat = np.abs(np.linalg.solve(cov.chol.T, y))
            diagnostics["zero_component_residual"] = float(kappa_hat[list(untraded)].max() / kappa_hat.max())
    return _solution(b_star, rho_star, r_star, label, cov, diagnostics)
