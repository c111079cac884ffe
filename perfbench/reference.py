"""Independent reference computations for the benchmark's checks.

Everything here is written with numpy alone.  It shares no code with
robustmv: no triangular factorization from `market`, no `_premium_batch`
from the grid oracle.  Correlation matrices are built from `np.triu_indices`,
premiums come from `np.linalg.solve`, positive definiteness from
`np.linalg.eigvalsh`.

Optimality is certified by convexity.  R(b_hat, rho) = beta' C(rho)^{-1} beta
is convex in rho on the positive-definite region, and R(b, rho) is jointly
convex in (b, rho) (matrix-fractional function of an affine map).  Over a
box B, the Frank-Wolfe gap

    gap(x) = max_{v in B} grad f(x) . (x - v)

bounds f(x) - min_B f, so [f(x) - gap(x), f(x)] brackets the minimum for any
feasible x.  Boxes are only used when all of their corners are positive
definite, which makes the whole box positive definite (the region is
convex), so the bracket is a certificate over the whole feasible set.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Relative slack for comparisons against exact or certified values.
RTOL = 1e-7
# A direction component below this share of the largest counts as zero for
# the reference; between ZERO_LO and ZERO_HI either verdict is accepted.
ZERO_LO = 1e-12
ZERO_HI = 1e-6


def corr(rho, d: int) -> np.ndarray:
    c = np.eye(d)
    iu = np.triu_indices(d, 1)
    c[iu] = rho
    c[(iu[1], iu[0])] = rho
    return c


def corr_stack(rhos, d: int) -> np.ndarray:
    rhos = np.asarray(rhos, dtype=float)
    mats = np.broadcast_to(np.eye(d), (rhos.shape[0], d, d)).copy()
    iu = np.triu_indices(d, 1)
    mats[:, iu[0], iu[1]] = rhos
    mats[:, iu[1], iu[0]] = rhos
    return mats


def min_eig(rho, d: int) -> float:
    return float(np.linalg.eigvalsh(corr(rho, d))[0])


def corners(lower, upper) -> np.ndarray:
    return np.array(list(itertools.product(*zip(lower, upper))), dtype=float).reshape(-1, len(lower))


def box_min_eig(lower, upper, d: int) -> float:
    """Smallest eigenvalue over the box corners (a lower bound over the box)."""
    return float(np.linalg.eigvalsh(corr_stack(corners(lower, upper), d))[:, 0].min())


def premium(b, rho, sigmas) -> float:
    beta = np.asarray(b, dtype=float) / sigmas
    return float(beta @ np.linalg.solve(corr(rho, len(sigmas)), beta))


def kappa(b, rho, sigmas) -> np.ndarray:
    """Sigma(rho)^{-1} b."""
    sigmas = np.asarray(sigmas, dtype=float)
    x = np.linalg.solve(corr(rho, sigmas.size), np.asarray(b, dtype=float) / sigmas)
    return x / sigmas


def _premium_and_grads(beta, rho, d):
    """R, dR/dbeta and dR/drho at (beta, rho) in Sharpe coordinates."""
    x = np.linalg.solve(corr(rho, d), beta)
    iu = np.triu_indices(d, 1)
    return float(beta @ x), 2.0 * x, -2.0 * x[iu[0]] * x[iu[1]]


def _fw_gap(grad, x, lower, upper) -> float:
    return float(grad @ x - np.minimum(grad * lower, grad * upper).sum())


def _certify(value_grad, lower, upper, start, iters=4000, tol=1e-12):
    """Projected gradient with Barzilai-Borwein steps over a box.

    Returns (lower_bound, upper_bound, argmin) for min f over the box: every
    iterate x gives the upper bound f(x) and the lower bound f(x) - gap(x).
    """
    x = np.clip(start, lower, upper)
    f, g = value_grad(x)
    lb, ub, arg = f - _fw_gap(g, x, lower, upper), f, x
    step = 1.0
    for _ in range(iters):
        if ub - lb <= tol * max(1.0, ub):
            break
        t = step
        while True:
            cand = np.clip(x - t * g, lower, upper)
            fc, gc = value_grad(cand)
            if fc <= f + 1e-4 * float(g @ (cand - x)) or t < 1e-16:
                break
            t *= 0.5
        s, y = cand - x, gc - g
        if not np.any(s):
            break
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 0.0 else 1.0
        x, f, g = cand, fc, gc
        lb = max(lb, f - _fw_gap(g, x, lower, upper))
        if f < ub:
            ub, arg = f, x
    return lb, ub, arg


def certify_ellipsoidal_box(b_hat, sigmas, lower, upper):
    """Bracket [s_lo, s_hi] of min over the box of s(rho) = sqrt(R(b_hat, rho))."""
    sigmas = np.asarray(sigmas, dtype=float)
    d = sigmas.size
    beta = np.asarray(b_hat, dtype=float) / sigmas
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if lower.size == 0:
        r = float(beta @ beta)
        return math.sqrt(r), math.sqrt(r)

    def value_grad(rho):
        r, _, g = _premium_and_grads(beta, rho, d)
        return r, g

    lo, hi, _ = _certify(value_grad, lower, upper, 0.5 * (lower + upper))
    return math.sqrt(max(lo, 0.0)), math.sqrt(hi)


def certify_product(sigmas, b_lower, b_upper, lower, upper):
    """Bracket [r_lo, r_hi] of min R(b, rho) over a drift box times a rho box."""
    sigmas = np.asarray(sigmas, dtype=float)
    d = sigmas.size
    lo_z = np.concatenate([np.asarray(b_lower) / sigmas, lower])
    hi_z = np.concatenate([np.asarray(b_upper) / sigmas, upper])

    def value_grad(z):
        r, gb, gr = _premium_and_grads(z[:d], z[d:], d)
        return r, np.concatenate([gb, gr])

    r_lo, r_hi, _ = _certify(value_grad, lo_z, hi_z, 0.5 * (lo_z + hi_z))
    return max(r_lo, 0.0), r_hi


def v0(r, x0, lam, horizon) -> float:
    return x0 + (math.exp(r * horizon) - 1.0) / (4.0 * lam)


def mean_optimal_wealth(r, x0, lam, horizon, t) -> np.ndarray:
    return x0 + math.exp(r * horizon) / (2.0 * lam) * (1.0 - np.exp(-r * np.asarray(t)))


def _close(a, b) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def check_point(ref: dict, ans: dict) -> list[str]:
    """Problems with one solved sweep point; an empty list means it passes.

    ref is made by the benchmark's input generation (family, market,
    set, certified bracket); ans holds what the program returned.
    """
    errs = []
    sig = np.asarray(ref["sigmas"])
    d = sig.size
    b, rho, r = np.asarray(ans["b"]), np.asarray(ans["rho"]), ans["r_star"]
    fam = ref["family"]

    # Feasibility of theta*.
    if d > 1 and not min_eig(rho, d) > 0.0:
        errs.append("rho* is not positive definite")
    elif fam != "full" and d > 1 and not (
        np.all(rho >= ref["lower"] - 1e-12) and np.all(rho <= ref["upper"] + 1e-12)
    ):
        errs.append("rho* lies outside the correlation box")
    if fam == "product":
        if not (np.all(b >= ref["b_lower"] - 1e-12) and np.all(b <= ref["b_upper"] + 1e-12)):
            errs.append("b* lies outside the drift box")
    elif not errs:
        diff = b - ref["b_hat"]
        dist = math.sqrt(max(float(diff @ kappa(diff, rho, sig)), 0.0))
        if dist > ref["delta"] * (1.0 + 1e-9) + 1e-12:
            errs.append(f"b* lies outside the drift ellipsoid ({dist:.6g} > {ref['delta']:.6g})")
    if errs:
        return errs

    # r* is the premium of theta*.
    r_theta = premium(b, rho, sig)
    if not _close(r, r_theta):
        errs.append(f"r* = {r:.12g} differs from b*' Sigma(rho*)^-1 b* = {r_theta:.12g}")

    # r* lies in the certified bracket of the minimum.
    r_lo, r_hi = ref["r_lo"], ref["r_hi"]
    if not (r_lo - RTOL * max(1.0, r_lo) <= r <= r_hi + RTOL * max(1.0, r_hi)):
        errs.append(f"r* = {r:.12g} outside the certified bracket [{r_lo:.12g}, {r_hi:.12g}]")

    # Trade / no trade, and the traded assets.
    expect_no_trade = ref["no_trade"]
    if expect_no_trade != (ans["kind"] == "no_trade"):
        errs.append(f"class {ans['kind']!r} but the certified no-trade verdict is {expect_no_trade}")
    elif not expect_no_trade:
        if fam == "full":
            if ans["kind"] != "anti_diversification" or ans["asset"] != ref["top_asset"]:
                errs.append(f"full ambiguity must trade only asset {ref['top_asset']}, got {ans['kind']}")
        k = kappa(b, rho, sig)
        share = np.abs(k) / np.max(np.abs(k))
        for i, s in enumerate(ans["signs"]):
            if share[i] > ZERO_HI and s != (1 if k[i] > 0 else -1):
                errs.append(f"sign of asset {i} is {s}, reference direction {k[i]:.3e}")
            if share[i] < ZERO_LO and s != 0:
                errs.append(f"asset {i} should carry no position")

    # V0 from the certified bracket.
    v_lo = v0(r_lo, ref["x0"], ref["lam"], ref["T"])
    v_hi = v0(r_hi, ref["x0"], ref["lam"], ref["T"])
    if not (v_lo - RTOL * abs(v_lo) <= ans["v0"] <= v_hi + RTOL * abs(v_hi)):
        errs.append(f"V0 = {ans['v0']:.12g} outside [{v_lo:.12g}, {v_hi:.12g}]")
    return errs


def check_saddle(ref: dict, ans: dict) -> list[str]:
    """Exact saddle inequalities at theta*, from the extreme points of the set.

    H(b*, rho) = kappa*' Sigma(rho) kappa* is linear in rho, so its maximum
    over a box sits at a corner; over the full positive-semidefinite region
    it is (sum_i |sigma_i kappa*_i|)^2.  The minimum of b' kappa* follows in
    closed form for each family.
    """
    sig = np.asarray(ref["sigmas"])
    d = sig.size
    k = kappa(ans["b"], ans["rho"], sig)
    v = sig * k
    if ref["family"] == "full":
        h_max = float(np.abs(v).sum()) ** 2
    elif d > 1:
        mats = corr_stack(corners(ref["lower"], ref["upper"]), d)
        h_max = float(np.einsum("i,nij,j->n", v, mats, v).max())
    else:
        h_max = float(v @ v)
    if ref["family"] == "product":
        b_min = float(np.minimum(ref["b_lower"] * k, ref["b_upper"] * k).sum())
    else:
        b_min = float(ref["b_hat"] @ k) - ref["delta"] * math.sqrt(h_max)
    r = ans["r_star"]
    tol = 1e-6 * max(1.0, r)
    errs = []
    if h_max > r + tol:
        errs.append(f"max H(b*, rho) = {h_max:.12g} exceeds r* = {r:.12g}")
    if b_min < r - tol:
        errs.append(f"min H(b, rho*) = {b_min:.12g} undershoots r* = {r:.12g}")
    return errs


def check_objective(j, se, target, k_se, side="both") -> list[str]:
    """J within k_se standard errors of target (or only not below it)."""
    if side == "below":
        return [] if j >= target - k_se * se else [f"J = {j:.8g} below {target:.8g} by more than {k_se} SE"]
    return [] if abs(j - target) <= k_se * se else [f"J = {j:.8g} differs from {target:.8g} by more than {k_se} SE"]


def objective(xt, lam):
    """J = mean - lam * var of terminal wealth and its delta-method standard error.

    Var(J) ~ (var - 2 lam m3 + lam^2 (m4 - var^2)) / n, with the third
    central moment m3 coupling the two estimators.
    """
    xt = np.asarray(xt, dtype=float)
    n = xt.size
    mean = float(xt.mean())
    c = xt - mean
    var = float(c @ c) / (n - 1)
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    var_j = (var - 2.0 * lam * m3 + lam**2 * (m4 - var**2)) / n
    return mean - lam * var, math.sqrt(max(var_j, 0.0))
