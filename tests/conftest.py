"""Shared fixtures: reference instances, random-instance factories, oracles."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import settings

from robustmv import (
    EllipsoidalSet,
    GammaBox,
    MarketParams,
    ProductSet,
    ThetaPoint,
    is_positive_definite,
    risk_premium,
)
from robustmv.market import pair_index, pair_position
from robustmv.simulate import _cpu_count, _n_workers

# Property tests replay the same examples on every run and write no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def _thread_setting():
    setting = os.environ.get("ROBUSTMV_THREADS", "unset")
    return (f"robustmv: up to {_n_workers()} worker threads per simulation "
            f"({_cpu_count()} CPUs available, ROBUSTMV_THREADS={setting})")


def pytest_report_header(config):
    """Record the thread setting the run used: the Monte-Carlo worker count and where it comes from."""
    return _thread_setting()


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header; the thread setting then closes the log instead.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_thread_setting())


def fd_gradient(theta, params, step=1e-6):
    """Finite-difference gradient of the premium in (b, rho) coordinates, Richardson-extrapolated.

    The central difference D(h) misses by c2 h^2 + c4 h^4 + ...;
    (4 D(h/2) - D(h)) / 3 cancels the h^2 term, which grows with cond(C).
    With D(1e-6) alone, 6 of seeds 0-59 of
    test_gradients_match_finite_differences missed the analytic gradient by
    up to 1.4e-5 relative; extrapolated, every seed is within 1.1e-9.
    """
    d = params.d
    point = np.concatenate([theta.b, theta.rho])

    def central(k, h):
        shift = np.zeros(point.size)
        shift[k] = h
        up, down = point + shift, point - shift
        return (risk_premium(ThetaPoint(b=up[:d], rho=up[d:]), params)
                - risk_premium(ThetaPoint(b=down[:d], rho=down[d:]), params)) / (2 * h)

    return np.array([(4.0 * central(k, step / 2) - central(k, step)) / 3.0 for k in range(point.size)])


@pytest.fixture
def params1():
    return MarketParams(sigmas=[1.0], horizon_T=1.0, lam=1.0, x0=1.0)


@pytest.fixture
def params2():
    return MarketParams(sigmas=[1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)


@pytest.fixture
def params3():
    return MarketParams(sigmas=[1.0, 1.0, 1.0], horizon_T=1.0, lam=0.5, x0=1.0)


@pytest.fixture
def reference_spec():
    """Two-asset instance used throughout: case 1, r* = 0.09, V0 ~ 1.047087."""
    return EllipsoidalSet(
        b_hat=np.array([0.4, 0.2]), delta=0.1, gamma=GammaBox.box([-0.5], [0.8])
    )


def full_ambiguity_spec(b_hat, delta):
    """Ellipsoidal set around b_hat with no information on the correlation."""
    b_hat = np.asarray(b_hat, dtype=float)
    return EllipsoidalSet(b_hat=b_hat, delta=delta, gamma=GammaBox.full(b_hat.size))


def lu_half_solve_stack(lower, rhs):
    """The sampler's ellipsoid membership step as it was, frozen: numpy's batched general LU
    solve on the lower-triangular covariance stack, where `_half_solve_stack` substitutes."""
    return np.linalg.solve(lower, rhs[:, :, None])[:, :, 0]


def premium_2x2(b1, b2, s1, s2, rho):
    """Independent closed-form premium for d=2 via the explicit inverse."""
    be1, be2 = b1 / s1, b2 / s2
    return (be1 * be1 + be2 * be2 - 2.0 * rho * be1 * be2) / (1.0 - rho * rho)


def box_corners_pd(lower, upper, d):
    return all(
        is_positive_definite(np.array(corner), d)
        for corner in itertools.product(*zip(lower, upper))
    )


def permute_pairs(rho, perm, d):
    """rho of the assets reordered by perm: pair (i, j) takes (perm[i], perm[j]); argsort(perm) maps back."""
    rows, cols = pair_index(d)
    return np.asarray(rho, dtype=float)[pair_position(d)[perm[rows], perm[cols]]]


def random_two_asset_instance(rng):
    """Random d=2 ellipsoidal instance with a nondegenerate drift anchor."""
    sig = rng.uniform(0.5, 2.0, 2)
    b = rng.uniform(-1.0, 1.0, 2)
    while np.max(np.abs(b / sig)) < 0.05:
        b = rng.uniform(-1.0, 1.0, 2)
    lo = rng.uniform(-0.9, 0.85)
    hi = rng.uniform(lo + 0.05, 0.9)
    delta = rng.uniform(0.0, 1.2) * np.max(np.abs(b / sig))
    params = MarketParams(sigmas=sig, horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(b_hat=b, delta=delta, gamma=GammaBox.box([lo], [hi]))
    return spec, params


def random_three_asset_instance(rng):
    """Random d=3 ellipsoidal instance whose correlation box has PD corners."""
    sig = rng.uniform(0.5, 2.0, 3)
    b = rng.uniform(-1.0, 1.0, 3)
    while np.max(np.abs(b / sig)) < 0.1:
        b = rng.uniform(-1.0, 1.0, 3)
    for _ in range(60):
        center = rng.uniform(-0.6, 0.6, 3)
        width = rng.uniform(0.02, 0.5, 3)
        lo = np.clip(center - width, -0.93, 0.93)
        hi = np.clip(center + width, -0.93, 0.93)
        if box_corners_pd(lo, hi, 3):
            delta = rng.uniform(0.0, 0.6)
            params = MarketParams(sigmas=sig, horizon_T=1.0, lam=0.5, x0=1.0)
            spec = EllipsoidalSet(b_hat=b, delta=delta, gamma=GammaBox.box(lo, hi))
            return spec, params
    return None, None


def random_wide_three_asset_instance(rng):
    """Random d=3 ellipsoidal instance (delta = 0) whose box may have non-PD corners.

    Drawn in this order: sigma ~ U(0.5, 2)^3, b_hat ~ U(-1, 1)^3, pair centres
    ~ U(-0.5, 0.5)^3 and half-widths ~ U(0.02, 0.5)^3, bounds clipped to
    +-0.95; (None, None) unless the centre is PD.  On the stream
    default_rng(20261019), 655 of the first 1,500 boxes have a non-PD corner.
    """
    sig = rng.uniform(0.5, 2.0, 3)
    b = rng.uniform(-1.0, 1.0, 3)
    centre = rng.uniform(-0.5, 0.5, 3)
    half = rng.uniform(0.02, 0.5, 3)
    if not is_positive_definite(centre, 3):
        return None, None
    gamma = GammaBox.box(np.clip(centre - half, -0.95, 0.95), np.clip(centre + half, -0.95, 0.95))
    params = MarketParams(sigmas=sig, horizon_T=1.0, lam=0.5, x0=1.0)
    return EllipsoidalSet(b_hat=b, delta=0.0, gamma=gamma), params


def random_set_instance(family, rng):
    """Random (spec, params): "d2", "d3" (None, None when no PD box was found),
    "full" (d = 3-5) or "product" (d = 2-4, boxes around the identity that
    often have non-PD corners)."""
    if family == "d2":
        return random_two_asset_instance(rng)
    if family == "d3":
        return random_three_asset_instance(rng)
    d = int(rng.integers(3, 6)) if family == "full" else int(rng.integers(2, 5))
    params = MarketParams(sigmas=rng.uniform(0.5, 2.0, d), horizon_T=1.0, lam=0.5, x0=1.0)
    if family == "full":
        return full_ambiguity_spec(rng.uniform(-1.0, 1.0, d), rng.uniform(0.0, 1.0)), params
    m = d * (d - 1) // 2
    gamma = GammaBox.box(rng.uniform(-0.9, 0.0, m), rng.uniform(0.0, 0.9, m))
    b_lo = rng.uniform(-1.0, 0.5, d)
    return ProductSet(b_lo, b_lo + rng.uniform(0.0, 0.5, d), gamma), params


# Instances exercising every three-asset closed-form case, mined by random
# search and verified against the grid oracle at the time they were frozen.
CURATED_THREE_ASSET = {
    "ThreeAsset.Case1": dict(
        sigmas=[1.9941611683305995, 0.7803182467491591, 0.8074456543535604],
        b_hat=[-0.1851063759010816, 0.8929090521860925, -0.04480609549844505],
        lo=[-0.14633071582112664, -0.7236986537428121, -0.1349621660810072],
        hi=[0.14771556605137978, 0.07584745018793909, 0.19165208240631393],
        delta=0.13027794013472555,
    ),
    "ThreeAsset.Case2i": dict(
        sigmas=[1.5708455118677211, 1.6770971085962008, 1.686712561877779],
        b_hat=[-0.7540300646039111, -0.9214178312197718, 0.14678234654603783],
        lo=[-0.5517675823274866, -0.16102966631825366, -0.5842211895447462],
        hi=[0.41846349080479484, 0.4885939159693594, -0.13902946238579536],
        delta=0.3142681553154788,
    ),
    "ThreeAsset.Case2ii": dict(
        sigmas=[0.8965775755551524, 1.3165927074860824, 1.9981361099254156],
        b_hat=[-0.23088549668947267, 0.46233773118126686, 0.24860737768224817],
        lo=[-0.1842514802362044, -0.7288294319952453, -0.2314340999361327],
        hi=[0.4804312300714709, 0.15641205247519357, 0.12033141970033676],
        delta=0.35541442684783725,
    ),
    "ThreeAsset.Case3i": dict(
        sigmas=[0.911881179413309, 1.3225512217110396, 1.3779024872514627],
        b_hat=[-0.2711901473784166, 0.6091176198563761, 0.2799695966872613],
        lo=[-0.12786112133005, -0.3824075464619035, -0.6078415260940726],
        hi=[0.21490233393087732, 0.41971111200797734, -0.5061905917753773],
        delta=0.12228902173600384,
    ),
    "ThreeAsset.Case3ii": dict(
        sigmas=[1.9544594570474996, 1.4287061375508223, 0.6172569492379012],
        b_hat=[0.7952105841089356, 0.10404696183275886, -0.880813695382251],
        lo=[0.16452282688768594, -0.22769561726609572, 0.11752867066829287],
        hi=[0.5162236739721016, 0.4242079139283749, 0.4266767614881949],
        delta=0.2549670895672059,
    ),
    "ThreeAsset.Case4i": dict(
        sigmas=[1.8080428397458437, 1.1351833344169806, 1.2239122295911744],
        b_hat=[0.39577213267239286, 0.6781047489722025, -0.8391306584382072],
        lo=[-0.5302268922628302, 0.07245123949901683, -0.843806289810964],
        hi=[-0.4436512488218161, 0.5770361949370326, -0.10532339771449784],
        delta=0.33373256893961895,
    ),
    "ThreeAsset.Case4ii": dict(
        sigmas=[1.7059880429059446, 1.912117289513773, 1.3751610295528471],
        b_hat=[0.6217941874801105, -0.4695510245109906, -0.6012437731701463],
        lo=[0.5521524615324174, -0.5775555797461314, -0.24532714404689307],
        hi=[0.6407221473423088, -0.13691490348876295, 0.05385439247334692],
        delta=0.18944353444082426,
    ),
    "ThreeAsset.Case5i": dict(
        sigmas=[1.2216912686659978, 0.717701576705873, 1.0413752957653544],
        b_hat=[0.0077601944298777426, 0.20440764264998146, 0.28941855375012526],
        lo=[-0.6141867677661936, -0.18176340444529515, -0.410017474624628],
        hi=[-0.1303956663057866, -0.12920676980789636, 0.3655811418608158],
        delta=0.03680869277372165,
    ),
    "ThreeAsset.Case5ii": dict(
        sigmas=[1.0650838647477108, 0.8178764179480955, 1.9647960112781753],
        b_hat=[-0.5642732606990852, 0.4580049930431078, -0.5478990168431641],
        lo=[-0.5732894147730245, 0.14559360321156606, -0.08291832550722991],
        hi=[0.3351828869007715, 0.7404260681359771, 0.03346801359367782],
        delta=0.1993970270675418,
    ),
    "ThreeAsset.Case5iii": dict(
        sigmas=[1.417460599483984, 0.7160892805539736, 1.3599810582942926],
        b_hat=[0.3607913487904879, -0.19529995395725508, -0.49187927270296683],
        lo=[-0.2413813256338876, -0.3011395137085166, 0.031908954575178894],
        hi=[0.47147289322849584, 0.49128511219012155, 0.3721045464433815],
        delta=0.3938300311354531,
    ),
    "ThreeAsset.Case5iv": dict(
        sigmas=[1.7037306718970202, 1.9372041824054487, 1.7580581992203348],
        b_hat=[0.8121871966005509, -0.8519562998824499, -0.8411050242729079],
        lo=[0.46989963045529803, 0.3086508414732476, 0.5083486823805238],
        hi=[0.6441270378624997, 0.5835984683833153, 0.6282928992120834],
        delta=0.5116576913303853,
    ),
}


def curated_three_asset(label):
    raw = CURATED_THREE_ASSET[label]
    params = MarketParams(sigmas=raw["sigmas"], horizon_T=1.0, lam=0.5, x0=1.0)
    spec = EllipsoidalSet(
        b_hat=np.array(raw["b_hat"]),
        delta=raw["delta"],
        gamma=GammaBox.box(raw["lo"], raw["hi"]),
    )
    return spec, params


# A d = 4 box (delta = 0) whose minimum is beta_4^2 = 1.799245, attained
# inside the box (smallest eigenvalue 0.021), so only asset 4 is traded:
# solve returns it in closed form (TopAsset).  With that closed form off,
# the numeric fallback stalls on the PD boundary: r* = 1.819709 with
# converged=False after 166 iterations (box residual 0.21), and the verdict
# reads well-diversified.
STALLED_D4 = dict(
    sigmas=[1.1619982925651684, 1.4597348838224937, 0.7035717574752196, 0.7070568320884325],
    b_hat=[-0.6525571749734564, -0.43333718928349585, 0.9234185497588847, -0.9484174148090769],
    lower=[-0.43463479354695356, -0.45145694456051944, 0.1717810114305727,
           -0.586434499322625, -0.05659204001169638, -0.99],
    upper=[-0.23633267108225742, 0.03438538860769919, 0.4753315192482581,
           -0.19701364113469494, 0.49042527387945734, -0.954124611043254],
)


# A d = 4 box (delta = 0) whose centre is not PD, while it holds PD points:
# the identity's nearest box point, rho = (0.8, 0.05, 0, 0, 0, 0), is PD.
# The numeric fallback starts there and converges to r* = 0.16388888888888895
# in 15 iterations; grid_oracle(13) gives 0.16388890687723104.
NON_PD_CENTRE_D4 = dict(
    sigmas=[1.0, 1.0, 1.0, 1.0],
    b_hat=[0.4, 0.3, 0.2, 0.1],
    lower=[0.8, 0.05, -0.1, -0.95, -0.1, -0.1],
    upper=[0.95, 0.95, 0.1, 0.9, 0.1, 0.1],
)


# The benchmark's generated d = 4 and d = 5 boxes (`generated_box_market` in
# perfbench/inputs.py): the whole box is PD, the minimum trades every asset,
# and `solve` reaches it by the numeric fallback, r* = 1.16080124 (d = 4) and
# 2.03886024 (d = 5) at delta = 0.
GENERATED_D4 = dict(
    sigmas=[1.953921928419367, 1.7206691075957372, 1.439935991972996, 1.2889671277227501],
    b_hat=[0.6585736485383908, 1.0562568605242302, 0.29599073214276284, -1.1252496473078093],
    lower=[-0.15077612745125318, -0.11132816248523811, -0.15122470745122005,
           -0.24826470012839758, -0.011441611307143038, -0.35700168766917817],
    upper=[0.03971747740179826, 0.03298954629480663, 0.13780637284552918,
           -0.009201210521085065, 0.2312787798713667, -0.16638983154562062],
)
GENERATED_D5 = dict(
    sigmas=[0.6887391568427671, 1.4090411822474767, 0.6544241113646172, 0.8890908225141119, 0.9089729666344332],
    b_hat=[0.2719313046708078, 1.1144579518748918, -0.464500263807413, -0.505066370826393, 0.7397649625047369],
    lower=[-0.18607970413866604, 0.1044569107337987, -0.2518828711053489, -0.2237577635951571,
           -0.024549684316603655, 0.18879354595266673, 0.011728887377002353, 0.18113173688801693,
           0.02783730925968289, 0.00590306368372101],
    upper=[-0.07910946138225244, 0.39808009396229516, 0.06512991502251966, 0.03197179751046264,
           0.07757027721079657, 0.30637243595222285, 0.11742044835028646, 0.36155457999163726,
           0.13228048668073197, 0.3562167604151008],
)


# A d = 3 box (delta = 0) with a non-PD corner, (0.649, -0.47, 0.376), that
# still holds PD points.  Its minimum, r* = 1.7631990603598477 with all three
# assets traded, sits at the PD corner (0.228, 0.042, 0.199); grid_oracle(81)
# gives the same r*.
NON_PD_CORNER_D3 = dict(
    sigmas=[0.879, 1.608, 0.722],
    b_hat=[0.069, -0.193, 0.915],
    lower=[0.228, -0.47, 0.199],
    upper=[0.649, 0.042, 0.376],
)
