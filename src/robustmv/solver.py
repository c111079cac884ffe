"""Worst-case (drift, correlation) scenarios: closed forms, numerics, oracles.

The robust problem separates: first minimize the risk premium R over the
ambiguity set, then trade as if the minimizer were the true model.  This
module owns the first step.

For ellipsoidal sets the worst correlation rho* minimizes R(b_hat, rho)
and never depends on delta; delta only shrinks the drift, b* =
(1 - delta/s)_+ b_hat with s = sqrt(R(b_hat, rho*)), so r* = (s - delta)_+^2
and delta >= s means no trade.  `solve` finds rho* by a delta-free closed
form or by the projected-gradient fallback, then shrinks once.  The closed
forms: any d when only the top-|Sharpe| asset is traded (`_one_asset`);
two assets with a correlation interval, three cases; three assets with a
correlation box, Cases 2-5.  Product (rectangular) sets go through the
same fallback on (b, rho) jointly, and an exhaustive grid oracle provides
independent ground truth for tests.

Every solution carries the direction kappa* = Sigma(rho*)^{-1} b* that the
second step trades, and the invariant is direction == Sigma(rho*)^{-1} b*
bitwise, the value variance_risk_ratio(theta_star) gives.  One factor of
Sigma(rho*) yields both s (where no closed form gives it exactly) and
kappa*, so nothing downstream factors again.
"""

from __future__ import annotations

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
    SaddleViolated,
    ZeroDrift,
)
from .market import (
    MarketParams,
    ThetaPoint,
    _frozen,
    _premium_gradients,
    covariance_factor_stack,
    covariance_from,
    is_positive_definite,
    pair_index,
    pair_position,
    sharpe_profile,
    upper_pairs,
    variance_risk_ratio,
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

# Projected descent: iteration budget, and the box residual that counts as converged.
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
    """(b*, r*) = ((1 - delta/s) b_hat, (s - delta)^2) if s > delta, else (0, 0)."""
    if s > delta:
        return (1.0 - delta / s) * b_hat, (s - delta) ** 2
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


def _permute_pairs(rho, perm, d: int) -> np.ndarray:
    """rho of the assets reordered by perm: pair (i, j) takes (perm[i], perm[j]).

    perm = order maps input order to the sorted frame; argsort(order) maps
    back.
    """
    rows, cols = pair_index(d)
    return np.asarray(rho, dtype=float)[pair_position(d)[perm[rows], perm[cols]]]


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


def _two_asset(spec: EllipsoidalSet, profile):
    """Two assets, correlation interval [lo, hi].

    With the Sharpe proximity q = beta_small / beta_large, the worst-case
    correlation is q itself when it lies in the interval (only the dominant
    asset survives), else the nearer interval endpoint.
    """
    lo = float(spec.gamma.lower[0])
    hi = float(spec.gamma.upper[0])
    q = float(profile.proximities[0])
    label = TWO_INTERIOR if lo <= q <= hi else (TWO_UPPER if hi < q else TWO_LOWER)
    rho_star = np.array([min(max(q, lo), hi)])
    return rho_star, label, {"proximity": q, "order": profile.order.tolist()}, ()


def _reduced_kappa(j: int, k: int, rho_pair: float, sigmas, b_hat):
    """Sigma_{-i}(rho_jk)^{-1} b_{-i} for the two kept assets (j, k)."""
    sj, sk = sigmas[j], sigmas[k]
    det = (sj * sk) ** 2 * (1.0 - rho_pair**2)
    kj = (sk**2 * b_hat[j] - sj * sk * rho_pair * b_hat[k]) / det
    kk = (sj**2 * b_hat[k] - sj * sk * rho_pair * b_hat[j]) / det
    return kj, kk


def _line_box_segment(coef_x, coef_y, const, box_x, box_y):
    """Endpoints of {coef_x*x + coef_y*y = const} clipped to a rectangle."""
    lx, ux = box_x
    ly, uy = box_y
    scale = max(abs(coef_x), abs(coef_y), abs(const), 1.0)
    tol = 1e-12 * scale
    points = []
    if abs(coef_y) > tol:
        for x in (lx, ux):
            y = (const - coef_x * x) / coef_y
            if ly - 1e-9 <= y <= uy + 1e-9:
                points.append((x, min(max(y, ly), uy)))
    if abs(coef_x) > tol:
        for y in (ly, uy):
            x = (const - coef_y * y) / coef_x
            if lx - 1e-9 <= x <= ux + 1e-9:
                points.append((min(max(x, lx), ux), y))
    if not points:
        return None
    # Order along the line and keep the extreme pair.
    def along(p):
        return -coef_y * p[0] + coef_x * p[1]

    points.sort(key=along)
    return points[0], points[-1]


def _three_asset_case_matches(b_hat, sigmas, lower, upper, kappas, proximities):
    """All fired Cases 2-5 for a sorted-frame three-asset instance.

    They read kappa only at box corners: row 4 [r12 = u12] + 2 [r13 = u13]
    + [r23 = u23] of the (8, 3) table kappas.  Returns a list of (label,
    rho_star, zero_components); the cases are mutually exclusive away from
    boundaries, so the list normally has one entry.  Cases 2-4 leave a
    segment of minimizers and take its midpoint.  One PD test on that point
    is enough: every pivot of the triangular factorization is a Schur
    complement of C(rho), concave in rho, so the region where all pivots
    clear the tolerance is convex.  All 8 corners passed the caller's
    stacked test, so the whole box lies in it and the midpoint fails only
    by rounding; the case is then skipped.
    """
    l12, l13, l23 = lower
    u12, u13, u23 = upper
    q12, q13, q23 = proximities

    def kappa(r12, r13, r23):
        return kappas[4 * (r12 == u12) + 2 * (r13 == u13) + (r23 == u23)]

    matches = []

    # Cases 2-4: one allocation component vanishes on a line inside the box.
    # (fixed pair, fixed value, removed asset, sign corners, free boxes)
    def line_case(label, removed, fixed_pair_pos, fixed_value, corner_a, corner_b, free_x, free_y):
        ka = kappa(*corner_a)[removed]
        kb = kappa(*corner_b)[removed]
        if not ka * kb <= 0.0:
            return
        j, k = (p for p in range(3) if p != removed)
        kj, kk = _reduced_kappa(j, k, fixed_value, sigmas, b_hat)
        s_rm = sigmas[removed]
        coef_x = sigmas[j] * s_rm * kj
        coef_y = sigmas[k] * s_rm * kk
        const = b_hat[removed]
        segment = _line_box_segment(coef_x, coef_y, const, free_x, free_y)
        if segment is None:
            return
        (x0, y0), (x1, y1) = segment
        rho_star = np.empty(3)
        rho_star[fixed_pair_pos] = fixed_value
        rho_star[[p for p in range(3) if p != fixed_pair_pos]] = (
            x0 + 0.5 * (x1 - x0),
            y0 + 0.5 * (y1 - y0),
        )
        if is_positive_definite(rho_star, 3):
            matches.append((label, rho_star, [removed]))

    # Case 2: third asset drops out; rho_12 pinned by the two-asset rule.
    if u12 < q12:
        line_case(THREE_CASE2I, 2, 0, u12, (u12, u13, u23), (u12, l13, l23), (l13, u13), (l23, u23))
    if l12 > q12:
        line_case(THREE_CASE2II, 2, 0, l12, (l12, l13, u23), (l12, u13, l23), (l13, u13), (l23, u23))
    # Case 3: second asset drops out; rho_13 pinned.
    if u13 < q13:
        line_case(THREE_CASE3I, 1, 1, u13, (u12, u13, u23), (l12, u13, l23), (l12, u12), (l23, u23))
    if l13 > q13:
        line_case(THREE_CASE3II, 1, 1, l13, (l12, l13, u23), (u12, l13, l23), (l12, u12), (l23, u23))
    # Case 4: first asset drops out; rho_23 pinned.
    if u23 < q23:
        line_case(THREE_CASE4I, 0, 2, u23, (u12, u13, u23), (l12, l13, u23), (l12, u12), (l13, u13))
    if l23 > q23:
        line_case(THREE_CASE4II, 0, 2, l23, (l12, u13, l23), (u12, l13, l23), (l12, u12), (l13, u13))

    # Case 5: nothing vanishes; the minimizer sits at a specific corner.
    for label, corner, s12, s13 in (
        (THREE_CASE5I, (u12, u13, u23), 1, 1),
        (THREE_CASE5II, (l12, l13, u23), -1, -1),
        (THREE_CASE5III, (u12, l13, l23), 1, -1),
        (THREE_CASE5IV, (l12, u13, l23), -1, 1),
    ):
        k = kappa(*corner)
        if s12 * k[0] * k[1] > 0.0 and s13 * k[0] * k[2] > 0.0:
            matches.append((label, np.array(corner), []))

    return matches


def _three_asset(spec: EllipsoidalSet, params: MarketParams, profile):
    """Three assets, per-pair correlation box, Cases 2-5 (Case 1 is `_one_asset`).

    The 8 sorted-frame corners are factored as one stack: the first non-PD
    one raises BoxNotPositiveDefinite, named in the caller's pair order
    (`solve` then tries the numeric fallback).
    Batched solves on that factor give kappa at every corner, bitwise equal
    to variance_risk_ratio there, so no case test reads other numbers than
    a corner-by-corner evaluation would.  Cases are tested in order and the
    first match wins.  Exclusivity only breaks down at numerical
    boundaries; when no case fires, None is returned and the numeric
    fallback takes over.  Cases 2-4 also return the input-order index of the
    component that vanishes, for the caller's residual check.
    """
    order = profile.order
    sigmas_sorted = params.sigmas[order]
    b_sorted = np.asarray(spec.b_hat)[order]
    lower = _permute_pairs(spec.gamma.lower, order, 3)
    upper = _permute_pairs(spec.gamma.upper, order, 3)
    corners = np.array(list(itertools.product(*zip(lower, upper))))
    chol, bad = covariance_factor_stack(corners, sigmas_sorted)
    if np.any(bad >= 0):
        corner = tuple(_permute_pairs(corners[np.argmax(bad >= 0)], np.argsort(order), 3).tolist())
        raise BoxNotPositiveDefinite(f"correlation box corner {corner} is not positive definite", corner=corner)
    # Explicit trailing axis: 8 right-hand sides in numpy 1 and 2 alike (see ambiguity._draws).
    rhs = np.broadcast_to(b_sorted[:, None], (8, 3, 1))
    kappas = np.linalg.solve(chol.transpose(0, 2, 1), np.linalg.solve(chol, rhs))[:, :, 0]
    matches = _three_asset_case_matches(b_sorted, sigmas_sorted, lower, upper, kappas, profile.proximities)
    if not matches:
        return None
    label, rho_sorted, zero_components = matches[0]
    diagnostics = {"order": order.tolist(), "all_matches": [m[0] for m in matches]}
    zero = tuple(int(order[i]) for i in zero_components)
    return _permute_pairs(rho_sorted, np.argsort(order), 3), label, diagnostics, zero


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


def _projected_descent(value_grad, start, lower, upper):
    """Projected gradient descent of a convex f over a box.

    value_grad gives (f, gradient, aux) inside f's domain and (inf, None,
    None) outside it; aux is whatever the caller needs again at the point
    returned, and comes back with it.  Barzilai-Borwein steps halve until
    Armijo's test holds or the slope at the candidate is <= 0, which for
    convex f proves a decrease that rounding can hide in f.
    """
    x = start
    fx, g, aux = value_grad(x)
    eta = 1.0
    iterations = 0
    for iterations in range(1, DESCENT_MAX_ITERS + 1):
        residual = _box_residual(g, x, lower, upper)
        if residual < DESCENT_TOL:
            return x, fx, aux, iterations, residual, True
        while True:
            candidate = np.clip(x - eta * g, lower, upper)
            step = candidate - x
            f_candidate, g_candidate, aux_candidate = value_grad(candidate)
            if g_candidate is not None and (
                f_candidate <= fx + 1e-4 * float(g @ step) or float(g_candidate @ step) <= 0.0
            ):
                break
            if eta < 1e-14:
                return x, fx, aux, iterations, residual, False
            eta *= 0.5
        if not np.any(step):
            break
        curvature = float(step @ (g_candidate - g))
        eta = float(step @ step) / curvature if curvature > 0.0 else 1.0
        x, fx, g, aux = candidate, f_candidate, g_candidate, aux_candidate
    residual = _box_residual(g, x, lower, upper)
    return x, fx, aux, iterations, residual, residual < DESCENT_TOL


def numeric_minimize(spec: AmbiguitySpec, params: MarketParams) -> WorstCaseSolution:
    """Projected-gradient minimization of the risk premium over the set.

    One descent from the box centre reaches the global minimum: R(b, rho)
    is a matrix-fractional function of an affine map, hence jointly convex
    on the PD region (Boyd & Vandenberghe 3.1.7), and box & {C(rho) > 0} is
    convex.  For ellipsoidal sets the inner minimum over b is closed form,
    (sqrt(R(b_hat, rho)) - delta)_+^2, nondecreasing in R: one minimizer of
    R(b_hat, rho) serves every delta, no-trade answers included.

    Steps clip to the box (its exact projection); points failing the PD
    test lie outside R's domain.  R blows up toward a singular C(rho) unless
    b is orthogonal to its null vector, so a minimum on the PD boundary is
    rare; there the box residual stays positive and converged is False.

    Each evaluation factors Sigma(rho) once: y = L^{-1} b gives R = y'y and
    kappa = L'^{-1} y, hence the gradient; the factor at the point returned
    also gives the solution's direction.
    """
    d = spec.d
    g_lower, g_upper = spec.gamma.lower, spec.gamma.upper
    centre_rho = amb.project_rho(spec, 0.5 * (g_lower + g_upper))
    ellipsoidal = isinstance(spec, EllipsoidalSet)
    if ellipsoidal:
        lower, upper, start = g_lower, g_upper, centre_rho

        def theta(rho):
            return ThetaPoint(b=spec.b_hat, rho=rho)

    else:
        lower = np.concatenate([spec.delta_lower, g_lower])
        upper = np.concatenate([spec.delta_upper, g_upper])
        start = np.concatenate([0.5 * (spec.delta_lower + spec.delta_upper), centre_rho])

        def theta(z):
            return ThetaPoint(b=z[:d], rho=z[d:])

    def value_grad(x):
        point = theta(x)
        try:
            cov = covariance_from(point.rho, params)
        except NotPositiveDefinite:
            return np.inf, None, None
        r, kappa = cov.premium_and_direction(point.b)
        grad_b, grad_rho = _premium_gradients(kappa, params)
        return r, (grad_rho if ellipsoidal else np.concatenate([grad_b, grad_rho])), cov

    x, r_min, cov, iterations, residual, converged = _projected_descent(value_grad, start, lower, upper)
    if ellipsoidal:
        b_star, r_star = _shrink(spec.b_hat, math.sqrt(r_min), spec.delta)
        rho_star = x
    else:
        b_star, rho_star, r_star = x[:d], x[d:], r_min
    diagnostics = {"starts": 1, "iterations": iterations, "residual": residual, "converged": bool(converged)}
    return _solution(b_star, rho_star, r_star, NUMERIC, cov, diagnostics)


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


def grid_oracle(spec: AmbiguitySpec, params: MarketParams, resolution: int) -> WorstCaseSolution:
    """Exhaustive grid minimization used as ground truth in tests.

    Grids the correlation box (and the drift box for product sets),
    skipping nodes that fail the positive-definite test.  Full correlation
    ambiguity is approximated by the wide box [-0.95, 0.95] per pair.  The
    drift for ellipsoidal sets comes from the fixed-correlation shrinkage
    map at every node.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    d = params.d
    if spec.gamma.full_ambiguity:
        g_lower = np.full(spec.gamma.n_pairs, -0.95)
        g_upper = np.full(spec.gamma.n_pairs, 0.95)
    else:
        g_lower, g_upper = spec.gamma.lower, spec.gamma.upper

    def axis(lo, hi):
        return np.array([lo]) if lo == hi or resolution == 1 else np.linspace(lo, hi, resolution)

    rho_axes = [axis(lo, hi) for lo, hi in zip(g_lower, g_upper)]
    if isinstance(spec, ProductSet):
        b_axes = [axis(lo, hi) for lo, hi in zip(spec.delta_lower, spec.delta_upper)]
    else:
        b_axes = []
    axes = b_axes + rho_axes
    total = 1
    for ax in axes:
        total *= ax.size
    if total > GRID_BUDGET:
        raise GridTooLarge(f"grid of {total} nodes exceeds the budget of {GRID_BUDGET}")

    if axes:
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        flat = np.zeros((1, 0))
    n_b = len(b_axes)
    b_grid = flat[:, :n_b] if n_b else np.asarray(spec.b_hat, dtype=float)
    rho_grid = flat[:, n_b:]

    prem, mask = _premium_batch(b_grid, rho_grid, params.sigmas)
    if isinstance(spec, EllipsoidalSet):
        root = np.sqrt(np.maximum(prem, 0.0))
        scores = np.where(root > spec.delta, (root - spec.delta) ** 2, 0.0)
    else:
        scores = prem
    scores = np.where(mask, scores, np.inf)
    k_best = int(np.argmin(scores))
    if not np.isfinite(scores[k_best]):
        raise BoxNotPositiveDefinite("no positive-definite node on the grid")
    rho_star = rho_grid[k_best].copy()
    cov = covariance_from(rho_star, params)
    if isinstance(spec, EllipsoidalSet):
        b_star, r_star = _shrink_at(cov, spec.b_hat, spec.delta)
    else:
        b_star = b_grid[k_best].copy()
        r_star = float(prem[k_best])
    diagnostics = {"resolution": resolution, "nodes": int(total), "feasible_nodes": int(mask.sum())}
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
    """
    kappa_star = variance_risk_ratio(solution.theta_star, params)
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
    """numeric_minimize on a box that no closed-form case solved, marked case_fallthrough."""
    solution = numeric_minimize(spec, params)
    solution.diagnostics["case_fallthrough"] = True
    return solution


def solve(spec: AmbiguitySpec, params: MarketParams) -> WorstCaseSolution:
    """Route an ambiguity set to its closed form or the numeric fallback.

    Full ambiguity and every box with d != 2 first try `_one_asset`: when
    the set holds a PD point whose top-asset row is the Sharpe proximities,
    only that asset is traded and s = |beta_top| exactly.  The label is
    FullAmbiguity, OneAsset (d = 1), ThreeAsset.Case1 or TopAsset (d >= 4);
    only that one point must be PD, so non-PD box corners do not stop it.
    Under full ambiguity a miss means the top |Sharpe ratio| is tied, or
    too close to tied, and raises NoMinimum.  d = 2 keeps its interval
    rule, whose interior case is the same fact.  d >= 4 and three-asset
    boxes where no case fires (marked diagnostics["case_fallthrough"]) go
    to numeric_minimize.  So do three-asset boxes with a non-PD corner,
    which void Cases 2-5 but may still hold PD points (also marked
    case_fallthrough); when the fallback finds no PD point to start from,
    the corner's BoxNotPositiveDefinite is raised.

    Sigma(rho*) is factored once: `_one_asset`'s PD test is that
    factorization, and otherwise it follows the closed form.  The factor
    gives the solution's direction Sigma(rho*)^{-1} b*; after the interval
    and three-asset closed forms also s = ||L^{-1} b_hat|| (bitwise
    sqrt(risk_premium)) and the Cases 2-4 zero-component residual, read
    from Sigma(rho*)^{-1} b_hat in input order.
    """
    if isinstance(spec, ProductSet):
        return solve_product(spec, params)
    d, full = params.d, spec.gamma.full_ambiguity
    profile = sharpe_profile(spec.b_hat, params)
    if profile.zero_drift:
        raise ZeroDrift("all prior expected returns are zero: never trade")
    found = None if d == 2 and not full else _one_asset(spec.gamma.lower, spec.gamma.upper, profile, params)
    if found is not None:
        rho_star, cov = found
        s = abs(float(profile.betas[profile.order[0]]))
        label = FULL_AMBIGUITY if full else {1: ONE_ASSET, 3: THREE_CASE1}.get(d, TOP_ASSET)
        diagnostics = {"order": profile.order.tolist(), "top_sharpe": s}
        b_star, r_star = _shrink(spec.b_hat, s, spec.delta)
    elif full:
        raise NoMinimum("no minimizer under full correlation ambiguity: the top |Sharpe ratio| is tied or nearly")
    else:
        if d >= 4:
            return numeric_minimize(spec, params)
        try:
            found = _two_asset(spec, profile) if d == 2 else _three_asset(spec, params, profile)
        except BoxNotPositiveDefinite as corner:
            # A non-PD corner voids Cases 2-5, not the box: it may still hold PD points.
            try:
                return _fallthrough(spec, params)
            except NoFeasiblePoint:
                raise corner from None
        if found is None:
            return _fallthrough(spec, params)
        rho_star, label, diagnostics, zero = found
        cov = covariance_from(rho_star, params)
        b_star, r_star = _shrink_at(cov, spec.b_hat, spec.delta)
        if zero:
            kappa_hat = cov.solve(spec.b_hat)
            diagnostics["zero_component_residual"] = max(abs(float(kappa_hat[i])) for i in zero)
    return _solution(b_star, rho_star, r_star, label, cov, diagnostics)
