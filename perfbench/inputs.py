"""Inputs of the three workloads, made from the workload seed.

Stored inputs are limited to three fixed tables: the two-asset instance of
the package README, the curated three-asset boxes (one per closed-form case,
the same numbers as `CURATED_THREE_ASSET` in tests/conftest.py), and the d=4
instance on which the numeric fallback misses a no-trade answer.  Everything
else is generated here.

The seed changes the numbers but not the work: closed-form markets get a
seeded asset permutation and per-asset scales (b_i and sigma_i scaled
together, so Sharpe ratios and the premium are unchanged); numeric markets
get seeded scales only, which leave the descent in rho, and therefore its
iteration count, unchanged; every market gets seeded x0, lambda and T.
Inputs whose outcome depends on a known fault are not seeded at all.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

README = dict(sigmas=[1.0, 1.0], b_hat=[0.4, 0.2], lower=[-0.5], upper=[0.8])

THREE_ASSET = {
    "Case1": ([1.9941611683305995, 0.7803182467491591, 0.8074456543535604],
              [-0.1851063759010816, 0.8929090521860925, -0.04480609549844505],
              [-0.14633071582112664, -0.7236986537428121, -0.1349621660810072],
              [0.14771556605137978, 0.07584745018793909, 0.19165208240631393]),
    "Case2i": ([1.5708455118677211, 1.6770971085962008, 1.686712561877779],
               [-0.7540300646039111, -0.9214178312197718, 0.14678234654603783],
               [-0.5517675823274866, -0.16102966631825366, -0.5842211895447462],
               [0.41846349080479484, 0.4885939159693594, -0.13902946238579536]),
    "Case2ii": ([0.8965775755551524, 1.3165927074860824, 1.9981361099254156],
                [-0.23088549668947267, 0.46233773118126686, 0.24860737768224817],
                [-0.1842514802362044, -0.7288294319952453, -0.2314340999361327],
                [0.4804312300714709, 0.15641205247519357, 0.12033141970033676]),
    "Case3i": ([0.911881179413309, 1.3225512217110396, 1.3779024872514627],
               [-0.2711901473784166, 0.6091176198563761, 0.2799695966872613],
               [-0.12786112133005, -0.3824075464619035, -0.6078415260940726],
               [0.21490233393087732, 0.41971111200797734, -0.5061905917753773]),
    "Case3ii": ([1.9544594570474996, 1.4287061375508223, 0.6172569492379012],
                [0.7952105841089356, 0.10404696183275886, -0.880813695382251],
                [0.16452282688768594, -0.22769561726609572, 0.11752867066829287],
                [0.5162236739721016, 0.4242079139283749, 0.4266767614881949]),
    "Case4i": ([1.8080428397458437, 1.1351833344169806, 1.2239122295911744],
               [0.39577213267239286, 0.6781047489722025, -0.8391306584382072],
               [-0.5302268922628302, 0.07245123949901683, -0.843806289810964],
               [-0.4436512488218161, 0.5770361949370326, -0.10532339771449784]),
    "Case4ii": ([1.7059880429059446, 1.912117289513773, 1.3751610295528471],
                [0.6217941874801105, -0.4695510245109906, -0.6012437731701463],
                [0.5521524615324174, -0.5775555797461314, -0.24532714404689307],
                [0.6407221473423088, -0.13691490348876295, 0.05385439247334692]),
    "Case5i": ([1.2216912686659978, 0.717701576705873, 1.0413752957653544],
               [0.0077601944298777426, 0.20440764264998146, 0.28941855375012526],
               [-0.6141867677661936, -0.18176340444529515, -0.410017474624628],
               [-0.1303956663057866, -0.12920676980789636, 0.3655811418608158]),
    "Case5ii": ([1.0650838647477108, 0.8178764179480955, 1.9647960112781753],
                [-0.5642732606990852, 0.4580049930431078, -0.5478990168431641],
                [-0.5732894147730245, 0.14559360321156606, -0.08291832550722991],
                [0.3351828869007715, 0.7404260681359771, 0.03346801359367782]),
    "Case5iii": ([1.417460599483984, 0.7160892805539736, 1.3599810582942926],
                 [0.3607913487904879, -0.19529995395725508, -0.49187927270296683],
                 [-0.2413813256338876, -0.3011395137085166, 0.031908954575178894],
                 [0.47147289322849584, 0.49128511219012155, 0.3721045464433815]),
    "Case5iv": ([1.7037306718970202, 1.9372041824054487, 1.7580581992203348],
                [0.8121871966005509, -0.8519562998824499, -0.8411050242729079],
                [0.46989963045529803, 0.3086508414732476, 0.5083486823805238],
                [0.6441270378624997, 0.5835984683833153, 0.6282928992120834]),
}

# The drift radius stored with Case5ii in tests/conftest.py.
CASE5II_DELTA = 0.1993970270675418

# Box centre has s = 0.5504 while the box minimum of s is 0.4908: for delta in
# between the answer is no trade.  At delta = 0.51 the fallback returns
# r* ~ 1e-14 with no_trade=False after about 4,400 descent iterations.
FAULT_D4 = dict(
    sigmas=[0.70834659, 1.49966245, 1.95935927, 1.69161879],
    b_hat=[0.29641918, -0.243677, -0.1934055, -0.39573435],
    lower=[0.14971931, 0.15503296, -0.09224831, 0.01404342, -0.12231019, -0.12334398],
    upper=[0.34023451, 0.33030946, 0.07527979, 0.56504943, 0.36582844, 0.42024193],
)
FAULT_DELTAS = (0.0, 0.25, 0.45, 0.51, 0.6)

FIXED_CONSTANTS = dict(x0=1.0, lam=0.5, T=1.0)

# delta as a share of the certified no-trade threshold s_min, below and above.
BELOW = (0.0, 0.3, 0.6, 0.9)
ABOVE = (1.1, 1.5)
SADDLE_AT = 0.6
# Numeric boxes: widths as a share of the base half-width (0 is a single point).
NUMERIC_WIDTHS = (0.0, 1.0)
CLOSED_WIDTHS = (0.0, 0.5, 1.0)
README_WIDTHS = (0.0, 0.25, 0.5, 1.0)
# A full-ambiguity market needs a strictly largest |Sharpe ratio|.
TOP_RATIO = 1.05


def permute_pairs(vec, perm, d):
    m = ref.corr(vec, d)[np.ix_(perm, perm)]
    return m[np.triu_indices(d, 1)]


def transform(base, perm=None, scale=None):
    """Relabel assets by perm and rescale asset i by scale[i]."""
    sig = np.asarray(base["sigmas"], dtype=float)
    d = sig.size
    perm = np.arange(d) if perm is None else np.asarray(perm)
    scale = np.ones(d) if scale is None else np.asarray(scale)
    return dict(
        sigmas=sig[perm] * scale,
        b_hat=np.asarray(base["b_hat"], dtype=float)[perm] * scale,
        lower=permute_pairs(base["lower"], perm, d) if d > 1 else np.zeros(0),
        upper=permute_pairs(base["upper"], perm, d) if d > 1 else np.zeros(0),
    )


def constants(rng):
    return dict(x0=float(rng.uniform(0.5, 2.0)), lam=float(rng.uniform(0.25, 1.0)),
                T=float(rng.uniform(0.5, 2.0)))


def box_at(mk, width):
    lo, hi = np.asarray(mk["lower"]), np.asarray(mk["upper"])
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return c - width * h, c + width * h


def generated_box_market(d, product=False):
    """A fixed market whose whole correlation box is positive definite."""
    rng = np.random.default_rng([20180905, d, 0])
    m = d * (d - 1) // 2
    sig = rng.uniform(0.5, 2.0, d)
    beta = rng.uniform(-1.0, 1.0, d)
    centre = rng.uniform(-0.3, 0.3, m)
    half = rng.uniform(0.05, 0.2, m)
    while ref.box_min_eig(centre - half, centre + half, d) < 0.05:
        centre, half = 0.8 * centre, 0.8 * half
    mk = dict(sigmas=sig, b_hat=beta * sig, lower=centre - half, upper=centre + half)
    if product:
        mk["spread"] = rng.uniform(0.5, 1.0, d)  # drift half-width per unit delta, Sharpe units
    return mk


def _point(tag, family, mk, delta, consts, s_lo, s_hi, full=False, saddle=False):
    d = len(mk["sigmas"])
    r_lo, r_hi = max(s_lo - delta, 0.0) ** 2, max(s_hi - delta, 0.0) ** 2
    beta = np.asarray(mk["b_hat"]) / np.asarray(mk["sigmas"])
    return dict(
        tag=tag, family=family, full=full, saddle=saddle,
        sigmas=np.asarray(mk["sigmas"]), b_hat=np.asarray(mk["b_hat"]), delta=float(delta),
        lower=np.asarray(mk["lower"]), upper=np.asarray(mk["upper"]), d=d,
        r_lo=r_lo, r_hi=r_hi, no_trade=bool(delta >= s_hi),
        top_asset=int(np.argmax(np.abs(beta))), **consts,
    )


def ellipsoidal_sweep(tag, mk, consts, numeric, saddle=True):
    """delta sweep on one box: below the certified threshold and past it.

    For the numeric fallback the points past the threshold start above the
    box-centre value of s, so that no seeded point falls between the box
    minimum and the centre (there the fallback fails on some seeds only).
    """
    s_lo, s_hi = ref.certify_ellipsoidal_box(mk["b_hat"], mk["sigmas"], mk["lower"], mk["upper"])
    s_past = s_hi
    if numeric:
        c = 0.5 * (np.asarray(mk["lower"]) + np.asarray(mk["upper"]))
        s_past = max(s_hi, math.sqrt(ref.premium(mk["b_hat"], c, np.asarray(mk["sigmas"]))))
    deltas = [f * s_lo for f in BELOW] + [f * s_past for f in ABOVE]
    return [
        _point(tag, "ellipsoidal", mk, dl, consts, s_lo, s_hi, saddle=saddle and f == SADDLE_AT)
        for f, dl in zip(BELOW + ABOVE, deltas)
    ]


def full_sweep(tag, mk, consts, saddle=True):
    beta = np.abs(np.asarray(mk["b_hat"]) / np.asarray(mk["sigmas"]))
    top = float(beta.max())
    return [
        _point(tag, "full", mk, f * top, consts, top, top, full=True, saddle=saddle and f == SADDLE_AT)
        for f in BELOW + ABOVE
    ]


def has_strict_top(mk):
    beta = np.sort(np.abs(np.asarray(mk["b_hat"]) / np.asarray(mk["sigmas"])))[::-1]
    return beta[0] >= TOP_RATIO * beta[1]


def product_sweep(tag, mk, consts, saddle=True):
    """Drift box b_hat +- delta * spread * sigma; no trade once it holds 0."""
    sig, b_hat = np.asarray(mk["sigmas"]), np.asarray(mk["b_hat"])
    spread = np.asarray(mk["spread"])
    threshold = float(np.max(np.abs(b_hat / sig) / spread))
    points = []
    for f in BELOW + ABOVE:
        delta = f * threshold
        b_lo, b_hi = b_hat - delta * spread * sig, b_hat + delta * spread * sig
        r_lo, r_hi = ref.certify_product(sig, b_lo, b_hi, mk["lower"], mk["upper"])
        p = _point(tag, "product", mk, delta, consts, 0.0, 0.0, saddle=saddle and f == SADDLE_AT)
        p.update(b_lower=b_lo, b_upper=b_hi, r_lo=r_lo, r_hi=r_hi, no_trade=bool(f >= 1.0))
        points.append(p)
    return points


def full_market(d, rng):
    """Seeded full-ambiguity market with a clear top Sharpe ratio."""
    sig = rng.uniform(0.5, 2.0, d)
    beta = rng.uniform(0.2, 0.8, d) * rng.choice([-1.0, 1.0], d)
    top = int(rng.integers(d))
    beta[top] = np.sign(beta[top]) * 1.25 * np.max(np.abs(beta))
    m = d * (d - 1) // 2
    return dict(sigmas=sig, b_hat=beta * sig, lower=np.zeros(m), upper=np.zeros(m))


def seeded_perm_scale(rng, d):
    return rng.permutation(d), rng.uniform(0.5, 2.0, d)


def sweep_points(seed):
    """All points of one ambiguity-sweep round, in a fixed order."""
    rng = np.random.default_rng([seed, 1])
    points = []
    bases = [("readme", README, README_WIDTHS)] + [
        (f"three.{name}", dict(zip(("sigmas", "b_hat", "lower", "upper"), raw)), CLOSED_WIDTHS)
        for name, raw in THREE_ASSET.items()
    ]
    for tag, base, widths in bases:
        d = len(base["sigmas"])
        mk = transform(base, *seeded_perm_scale(rng, d))
        consts = constants(rng)
        for w in widths:
            lo, hi = box_at(mk, w)
            points += ellipsoidal_sweep(f"{tag}.w{w}", dict(mk, lower=lo, upper=hi), consts,
                                        numeric=False, saddle=w == 1.0)
        if has_strict_top(mk):
            points += full_sweep(f"{tag}.full", mk, consts)
    for d in (3, 4, 5):
        points += full_sweep(f"full.d{d}", full_market(d, rng), constants(rng))
    for d in (4, 5):
        base = generated_box_market(d)
        mk = transform(base, scale=rng.uniform(0.5, 2.0, d))
        consts = constants(rng)
        for w in NUMERIC_WIDTHS:
            lo, hi = box_at(mk, w)
            points += ellipsoidal_sweep(f"box.d{d}.w{w}", dict(mk, lower=lo, upper=hi), consts,
                                        numeric=True, saddle=w == 1.0)
    product = generated_box_market(3, product=True)
    consts = constants(rng)
    points += product_sweep("product.d3", product, consts)
    points += fault_points()
    return points


def fault_points():
    """Fixed d=4 market: one delta inside the band where the fallback misses no-trade."""
    s_lo, s_hi = ref.certify_ellipsoidal_box(FAULT_D4["b_hat"], np.asarray(FAULT_D4["sigmas"]),
                                             FAULT_D4["lower"], FAULT_D4["upper"])
    return [_point("fault.d4", "ellipsoidal", FAULT_D4, dl, FIXED_CONSTANTS, s_lo, s_hi)
            for dl in FAULT_DELTAS]


def side_points():
    """Fixed sweep points run by the workloads that do not sweep."""
    points = ellipsoidal_sweep("side.readme", README, FIXED_CONSTANTS, numeric=False)
    for name in ("Case1", "Case2i", "Case5ii"):
        three = dict(zip(("sigmas", "b_hat", "lower", "upper"), THREE_ASSET[name]))
        points += ellipsoidal_sweep(f"side.three.{name}", three, FIXED_CONSTANTS, numeric=False, saddle=False)
    full = full_market(3, np.random.default_rng([20180905, 3]))
    points += full_sweep("side.full.d3", full, FIXED_CONSTANTS, saddle=False)
    return points + ellipsoidal_sweep("side.box.d4", generated_box_market(4), FIXED_CONSTANTS, numeric=True)


def wealth_market(seed=None):
    """Three-asset Case5ii market (all three assets traded), seeded or fixed."""
    base = dict(zip(("sigmas", "b_hat", "lower", "upper"), THREE_ASSET["Case5ii"]))
    if seed is None:
        return base, dict(FIXED_CONSTANTS), CASE5II_DELTA
    rng = np.random.default_rng([seed, 2])
    mk = transform(base, *seeded_perm_scale(rng, 3))
    return mk, constants(rng), CASE5II_DELTA
