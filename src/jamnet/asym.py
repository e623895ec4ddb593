"""Asymmetric-scenario equilibrium solvers and the direct MMSE cost oracle.

``direct_mmse_cost`` evaluates any strategy profile exactly from second-order
statistics under the adopted observation model U = beta*S + W; it is the
authoritative cost everywhere in the package.  It is one cost core applied to
one profile: the core takes five sufficient statistics (two of the
transmitters, three of the adversaries) as floats or as arrays over many
candidates, so batched searches cost every candidate with the same bits.

``_schedule`` is the package's one schedule of the transmitters on their
sum budget P_T, for one multiplier or for lanes of them: Theorem 4 takes it
at lambda1, Theorem 5 at lambda3, and ``simulate``'s transmitter check at
the lambda of the transmitters' best response to fixed jamming.
``solve_theorem4`` handles the coordinated (saddle-point) power-allocation
setting in closed form.
``solve_theorem5`` solves the no-coordination Stackelberg multiplier system
by nested bracketed root-finding on mu = lambda3/P_T in (0, 1), so one scan
grid serves every scenario and Brent's xtol acts on mu, not on lambda3's
scale: the outer residual is evaluated on the grid in one array pass, every
sign change is counted, and scalar Brent solves the first bracket from its
scanned end values and gives the report its inner solve.  That inner solve,
``_follower``, is the package's one Theorem-5 follower (``simulate`` checks
with it too), solved on the unit sphere of the attack budget.  It is one
piece of arithmetic for one row of transmit coefficients (scalar Brent
steps, inside the outer Brent) and for lanes of rows (Brent steps on all
lanes at once, in the scan and on the frontier ``simulate`` checks), so a
scanned residual has the bits of the scalar residual at its point, and so
has the exit-2 report without a sign change, which carries the first scanned
residuals.  The budgets P_T and P_A may differ from lane to lane, so
``theorem5_scans`` scans all the points of a budget sweep in one pass and
hands each point's slice to ``solve_theorem5``.

Both theorems' first-order rows come from ``_stationarity`` and
``_power_residual``, and every equilibrium profile of the package is built
by ``_bayes_profile``, which attaches the Bayes decoder gain.  ``_cap`` is
the one full-power uncoded sensor: Theorem 5's attack sphere and every
symmetric closed form and profile read its (c, u, v).

Both root-finders are in-repo ports of scipy's ``brentq.c`` (Brent 1973):
``_brentq`` on floats and ``_brentq_lanes`` on arrays of lanes.  They take
scipy's steps in the same double arithmetic, so every root has the bits
scipy's ``brentq`` gives, and the package needs no optimization library.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import (
    AdversaryStrategy,
    DegenerateInput,
    EmptyAdversarySet,
    EquilibriumReport,
    IndependentNoise,
    InvalidScenario,
    JamnetError,
    LinearMirror,
    NetworkScenario,
    NonConvergence,
    NumericalFailure,
    SensorParams,
    Setting,
    StrategyProfile,
    validate_profile,
)

# Theorem-5 solver constants: the bound on every first-order residual at a
# solution, and the outer scan's grid size.
KKT_TOL = 1e-8
OUTER_SCAN_POINTS = 96
_TINY = np.finfo(float).tiny  # the least normal float
# The outer scan's grid of mu = lambda3/P_T on (0, 1), one for every
# scenario; geometric points resolve roots near 0.
_SCAN_GRID = np.unique(np.concatenate([np.geomspace(1e-8, 0.5, OUTER_SCAN_POINTS // 2),
                                       np.linspace(1e-3, 1.0 - 1e-10, OUTER_SCAN_POINTS // 2)]))
_SCAN_GRID.flags.writeable = False


# -- channel output statistics ----------------------------------------------
#
# The statistics and the cost work on floats or on arrays of candidate lanes
# with one operation order, so a lane costs the bits its profile costs alone.

def _transmit_stats(s: NetworkScenario, coeffs):
    """(r_t, own_t): the transmitters' source coefficient and own-noise power
    in Y.  ``coeffs`` holds one float, or one array of lanes, per sensor."""
    r_t = own_t = 0.0
    for p, c in zip(s.transmitters, coeffs):
        r_t = r_t + p.beta * c * p.alpha
        own_t = own_t + p.alpha ** 2 * c * c
    return r_t, own_t


def _adversary_output_stats(s: NetworkScenario, rows):
    """(sig, own, jam) of the adversaries' channel contribution, from the
    rows (c_k, s_k, j_k) of ``lower()``.

    The received adversary sum is sig*S + (own sensing-noise part with
    variance own) + (source-independent jamming with variance jam): c_k*U_k
    lands alpha_k*c_k*beta_k of the source and alpha_k*c_k of W_k.  Jamming
    amplitudes add within one noise index before squaring; the indices'
    variances add in ascending index.  c_k and s_k may be arrays of lanes;
    j_k may not.
    """
    sig = own = 0.0
    amps = {}  # noise index -> summed amplitude
    for p, (c, ss, j) in zip(s.adversaries, rows):
        alpha = p.alpha
        sig = sig + alpha * (c * p.beta)
        own = own + alpha * alpha * c * c
        amps[j] = amps.get(j, 0.0) + alpha * ss
    jam = 0.0
    for j in sorted(amps):
        jam = jam + amps[j] * amps[j]
    return sig, own, jam


def _moments(r_t, own_t, sig, own, jam, randomized: bool):
    """(E{S * Y_dec}, E{Y^2}) from the five statistics, lane by lane.

    For randomized profiles the receiver works with gamma*Y; the shared coin
    decorrelates the adversary's source/sensing components from the decoded
    signal, so only their power survives.  Raises NumericalFailure when
    E{Y^2} overflows (e.g. alpha^2*P beyond the float range) in any lane.
    """
    if randomized:
        r = r_t
        total = r_t * r_t + own_t + sig * sig + own + jam + 1.0
    else:
        r = r_t + sig
        total = r * r + own_t + own + jam + 1.0
    finite = math.isfinite(total) if isinstance(total, float) else np.isfinite(total).all()
    if not finite:
        raise NumericalFailure("E{Y^2} is not finite: a gain-power product overflows")
    return r, total


def _cost(r_t, own_t, sig, own, jam, randomized: bool):
    """The MMSE 1 - E{SY}^2/E{Y^2} from the five statistics, lane by lane."""
    r, total = _moments(r_t, own_t, sig, own, jam, randomized)
    return 1.0 - (r * r) / total


def _profile_stats(s: NetworkScenario, p: StrategyProfile):
    """The five statistics of profile ``p`` and its ``randomized`` flag."""
    return (*_transmit_stats(s, p.transmit_coeffs),
            *_adversary_output_stats(s, p.adversary.lower(s.adversaries)), p.randomized)


def direct_mmse_cost(s: NetworkScenario, p: StrategyProfile) -> float:
    """Exact MSE of the best scalar decoder for profile ``p``: 1 - E{SY}^2/E{Y^2}.

    Invariant under a global sign flip of all coefficients.
    """
    return _cost(*_profile_stats(s, p))


def bayes_decoder_gain(s: NetworkScenario, p: StrategyProfile) -> float:
    """The scalar gain attaining direct_mmse_cost: E{SY}/E{Y^2} of the
    decoder-visible received signal; see ``_moments``."""
    r, total = _moments(*_profile_stats(s, p))
    return r / total


def _bayes_profile(
    s: NetworkScenario, coeffs: tuple, randomized: bool, adversary: AdversaryStrategy
) -> StrategyProfile:
    """The profile of the given strategies with its Bayes decoder gain."""
    draft = StrategyProfile(
        transmit_coeffs=coeffs, randomized=randomized, adversary=adversary, decoder_gain=0.0
    )
    return dataclasses.replace(draft, decoder_gain=bayes_decoder_gain(s, draft))


def _cap(alpha, beta, power):
    """(c, u, v) of uncoded transmission at full power ``power``: the
    coefficient c = sqrt(P/(1 + beta^2)), the source amplitude u =
    alpha*beta*c and the own-noise power v = (alpha*c)^2 it lands in Y.
    sqrt(1 + beta^2) is hypot(1, beta) and u takes beta/hypot(1, beta), so
    no square of beta, and no P/(1 + beta^2), over- or underflows on the
    way.  Floats take ``math``; arrays broadcast."""
    if isinstance(power, np.ndarray):
        h, root = np.hypot(1.0, beta), np.sqrt(power)
    else:
        h, root = math.hypot(1.0, beta), math.sqrt(power)
    c = root / h
    ac = alpha * c
    return c, alpha * root * (beta / h), ac * ac


# -- Theorem 4: coordinated transmitters, optimal power scheduling ----------

def attacker_best_channel(
    adversaries: tuple[SensorParams, ...] | list[SensorParams], sum_power_attack: float
) -> tuple[int, float]:
    """Index of the adversary with the largest channel gain and the received
    power alpha_k*^2 * P_A it can land there.  Ties break to the lowest index
    so outputs are reproducible."""
    if len(adversaries) == 0:
        raise EmptyAdversarySet("no adversarial sensors")
    best = 0
    for k, p in enumerate(adversaries):
        if p.alpha > adversaries[best].alpha:
            best = k
    return best, adversaries[best].alpha ** 2 * sum_power_attack


def _schedule(s: NetworkScenario, lam, p_t):
    """(scale, coeffs): the transmitters' schedule on the sum budget P_T at
    multiplier lambda, c_m = scale*alpha_m*beta_m/(2*(1 + beta_m^2 +
    lambda*alpha_m^2)), scale > 0 spending P_T.  It maximizes
    r_t^2/(own_t + P_T/lambda) on the budget: the transmitters' best
    response to received jamming power P_T/lambda - 1.  Theorem 4 takes it
    at lambda1 (scale lambda2), Theorem 5 at lambda3 (scale lambda4).
    ``lam`` may be an array of lanes, and ``p_t`` a budget per lane that
    broadcasts against it; the outputs then gain the lane axes."""
    lam = np.asarray(lam)
    one_b2 = np.array([p.input_second_moment for p in s.transmitters])
    a2 = np.array([p.alpha ** 2 for p in s.transmitters])
    ab = np.array([p.alpha * p.beta for p in s.transmitters])
    with np.errstate(over="ignore", invalid="ignore"):  # inf and inf/inf as float arithmetic
        denoms = one_b2 + lam[..., None] * a2
        # x/d^2, or x/d/d where d^2 overflows (d above 1.3e154) and d does not.
        x, d2 = one_b2 * ab * ab, denoms**2
        t2 = np.add.reduce(np.where(d2 < np.inf, x / d2, x / denoms / denoms), axis=-1)
        if (t2 <= 0.0).any():
            if not (ab * ab).any():
                raise DegenerateInput("no information path: all alpha*beta vanish")
            raise NumericalFailure(
                "transmit-side sum underflows to 0: lambda*alpha^2 overflows the float range")
        # sqrt(P_T)/sqrt(t2) where P_T/t2 leaves the normal range and its root need not.
        ratio = p_t / t2
        normal = (ratio >= _TINY) & (ratio < np.inf)
        scale = 2.0 * np.where(normal, np.sqrt(ratio), np.sqrt(p_t) / np.sqrt(t2))
        return scale, scale[..., None] * ab / (2.0 * denoms)


def _stationarity(sensors, coeffs, lam, scale) -> list:
    """2*c*m + 2*lam*c*alpha**2 - scale*alpha*beta per sensor, m = 1 + beta^2:
    the stationarity rows of a sum-budget schedule at (lam, scale); alpha**2
    as ``_schedule`` forms it (alpha*alpha may differ in the last bit)."""
    return [2.0 * c * p.input_second_moment + 2.0 * lam * c * p.alpha ** 2
            - scale * p.alpha * p.beta for p, c in zip(sensors, coeffs)]


def _power_residual(sensors, coeffs, budget) -> float:
    """sum m*c^2 - budget, m = 1 + beta^2: the sum-power residual."""
    return sum(p.input_second_moment * c * c for p, c in zip(sensors, coeffs)) - budget


def _cost_notes(closed: float, printed: float, oracle: float, tag: str) -> tuple[str, str]:
    """The two notes setting a closed-form cost against the oracle: the
    form without the doubled denominators, and the published one under
    ``tag``."""
    return (
        f"closed-form cost without the doubled denominators = {closed!r} "
        f"(matches oracle to {abs(closed - oracle):.3e})",
        f"published closed-form cost = {printed!r}, oracle = {oracle!r}, "
        f"delta = {printed - oracle!r} [{tag}]",
    )


def solve_theorem4(s: NetworkScenario) -> EquilibriumReport:
    """Saddle point of the coordinated asymmetric setting.

    The attacker dumps all power on its best channel; the transmitters'
    coefficients come from the closed-form multipliers
    lambda1 = P_T/(1+P_A') and the power-normalizing lambda2 radical.  The
    report's cost is the direct oracle evaluation; the published closed form
    is evaluated alongside and its delta recorded.
    """
    if s.setting is not Setting.ASYM_I:
        raise InvalidScenario(f"solve_theorem4 requires AsymI, got {s.setting.value}")
    if s.num_transmitters < 1:
        raise InvalidScenario("solve_theorem4 requires at least one transmitter")
    p_t = s.sum_power_transmit
    p_a = s.sum_power_attack
    if p_t is None or p_a is None:
        raise InvalidScenario("AsymI scenario must carry P_T and P_A")

    if s.num_adversaries >= 1:
        k_star, pa_recv = attacker_best_channel(s.adversaries, p_a)
    else:
        k_star, pa_recv = None, 0.0

    lam1 = p_t / (1.0 + pa_recv)
    lam2, coeffs = _schedule(s, lam1, p_t)
    lam2, coeffs = float(lam2), tuple(float(c) for c in coeffs)
    adv = IndependentNoise(
        variances=tuple(p_a if k == k_star else 0.0 for k in range(s.num_adversaries))
    )
    profile = _bayes_profile(s, coeffs, True, adv)
    validate_profile(s, profile)
    oracle = direct_mmse_cost(s, profile)

    # From the denominators, not r_t/lambda2: lambda2 may underflow to 0.
    half_sum = sum((p.alpha * p.beta) ** 2 / (2.0 * (p.input_second_moment + lam1 * p.alpha ** 2))
                   for p in s.transmitters)
    printed = 1.0 / (1.0 + lam1 * half_sum)
    closed = 1.0 / (1.0 + lam1 * 2.0 * half_sum)
    notes = _cost_notes(closed, printed, oracle, "asym1-cost-closed-form")

    residuals = (lam1 * (1.0 + pa_recv) - p_t, _power_residual(s.transmitters, coeffs, p_t),
                 *_stationarity(s.transmitters, coeffs, lam1, lam2))

    multipliers = {"lambda1": lam1, "lambda2": lam2}
    if k_star is not None:
        multipliers["attacker_index"] = float(k_star)
    multipliers["attacker_received_power"] = pa_recv
    return EquilibriumReport(cost=oracle, profile=profile, multipliers=multipliers,
                             kkt_residuals=residuals, oracle_cost=oracle,
                             discrepancy_notes=notes)


# -- Theorem 5: no coordination, coupled multiplier system -------------------

def _sphere(s: NetworkScenario, p_a):
    """(root, u, v) on the adversaries' sum budget ``p_a`` (a float, or one
    per lane; the sensor axis is last): ``_cap`` of each adversary at power
    P_A, so c_k = root_k*x_k spends P_A at |x| = 1, and sensor k lands
    u_k*x_k of the source and own-noise power v_k*x_k^2."""
    alpha = np.array([p.alpha for p in s.adversaries])
    beta = np.array([p.beta for p in s.adversaries])
    return _cap(alpha, beta, np.asarray(p_a)[..., None])


def _follower(s: NetworkScenario, p_a):
    """Theorem 5's follower on the sum budget ``p_a`` (a float, or one per
    lane): a function of the transmit coefficients c_m, one row of M or
    lanes x M, giving (lambda1, lambda2, c_k, ok), the adversaries' best
    linear response spending the budget.

    It minimizes N^2/D, N = r_t + sum u_k*x_k, D = 1 + own_t + sum v_k*x_k^2,
    on the unit sphere of ``_sphere``.  The first-order conditions put x on
    the curve x ~ -sign(r_t)*e, e_k = u_k/U*(1 - nu)/(1 - nu*v_k/V),
    U = max u, V = max v, nu in [0, 1], along which the stationarity gap
    nu*D*|e|*U/V - (1 - nu)*|N| rises from -|N| to D*|e|*U/V; its root is
    the follower.  The curve holds only ratios of like quantities; where U/V
    overflows, the nulling direction nu = 0 is the answer.  Then
    lambda1 = nu*P_A/V = nu*min_k m_k/alpha_k^2, below nu = 1/2 taken as its
    value at the root, (1 - nu)*|N|*P_A/(D*|e|*U), free of nu's absolute
    error; lambda2 is affine in it; and c_k = root_k*x_k.

    Where |r_t| <= |u| the budget nulls the source and no follower spends
    it: one row raises NonConvergence, with residual |r_t| - |u|.  A
    follower that is not finite raises NumericalFailure.  Lanes have ok
    False instead, and each lane has its row's bits.
    """
    if s.num_adversaries < 1:
        raise EmptyAdversarySet("no adversarial sensors")
    alpha_t = np.array([p.alpha for p in s.transmitters])
    beta_t = np.array([p.beta for p in s.transmitters])
    a2_t = np.array([p.alpha ** 2 for p in s.transmitters])
    with np.errstate(all="ignore"):
        root, u, v = _sphere(s, p_a)
        big_u, big_v = np.maximum.reduce(u, axis=-1), np.maximum.reduce(v, axis=-1)
        unit = u / np.where(big_u > 0.0, big_u, 1.0)[..., None]
        rho = v / np.where(big_v > 0.0, big_v, 1.0)[..., None]
        q, span = big_u / big_v, np.hypot.reduce(u, axis=-1)
        # e_k is fixed where v_k = V, at u_k/U or 1e-150, which keeps the
        # largest v on the curve where its u underflows.  Below nu = 1 the
        # sensor of the largest u has e_k >= 1 - nu >= 2^-53, so |e|^2 >= 1e-300.
        top = rho == 1.0
        fixed = np.where(top, np.maximum(unit, 1e-150), 0.0)
        unit, rho = np.where(top, 0.0, unit), np.where(top, 0.0, rho)

    def respond(c_m):
        one = np.ndim(c_m) == 1
        with np.errstate(all="ignore"):
            # Running sums add the sensors one at a time, as ``_transmit_stats`` does.
            r_m = np.add.accumulate(beta_t * c_m * alpha_t, axis=-1)[..., -1]
            s_own = np.add.accumulate(a2_t * c_m * c_m, axis=-1)[..., -1]
            # One row's multipliers are Python floats.
            budget = float(p_a) if one else p_a
            if one:
                r_m, s_own = float(r_m), float(s_own)
            toward = -np.copysign(1.0, r_m)

            def curve(nu):
                """(stationarity gap, (e, |e|, |N|, D)) at nu, lane by lane."""
                at = nu if isinstance(nu, float) else nu[..., None]
                e = unit * (1.0 - at) / (1.0 - at * rho) + fixed
                ee = e * e
                sq = np.add.reduce(ee, axis=-1)
                norm = np.sqrt(sq)
                n = abs(r_m + toward * np.add.reduce(u * e, axis=-1) / norm)
                d = 1.0 + s_own + np.add.reduce(v * ee, axis=-1) / sq
                return nu * d * norm * q - (1.0 - nu) * n, (e, norm, n, d)

            def gap(nu):
                return curve(nu)[0]

            def require(good, error):
                """The lanes where ``good`` holds; one row raises error() instead."""
                if one and not good:
                    raise error()
                return good

            def nulled():
                return NonConvergence(
                    "adversary power-equality equation has no positive root "
                    "(attack budget dominates the received signal)",
                    residuals=(float(abs(r_m) - span),))

            def overflow():
                return NumericalFailure(
                    "adversary follower is not finite: a gain-power product over- or underflows")

            ok = require(abs(r_m) > span, nulled)
            gap0 = np.where(np.isfinite(q), gap(0.0), 0.0)
            gap1 = gap(1.0)
            short = gap0 >= 0.0  # the nulling direction is the answer
            ok = ok & require(short | ((gap0 < 0.0) & (gap1 >= 0.0)), overflow)
            if one:
                nu = 0.0 if short else _brentq(gap, 0.0, 1.0, float(gap0), float(gap1))
            else:
                nu = np.where(short, 0.0, _brentq_lanes(gap, 0.0, 1.0, gap0, gap1, ok & ~short))
            e, norm, n, d = curve(nu)[1]
            c_k = root * ((toward / norm)[..., None] * e)
            ok = ok & require(np.isfinite(c_k).all(axis=-1), overflow)
            at_root = (1.0 - nu) * n * budget / (d * norm * big_u)
            lam1 = np.where(nu < 0.5, at_root, nu * budget / big_v)
            ok = ok & require(lam1 > 0.0, nulled)
            if one:
                lam1 = float(lam1)
            return lam1, -(2.0 * budget + 2.0 * lam1 * (1.0 + s_own)) / r_m, c_k, ok

    return respond


def _outer(s: NetworkScenario, p_t, p_a):
    """The outer residual at budgets P_T and P_A (floats, or per lane) as a
    function of a trial mu = lambda3/P_T, or of an array of them as lanes:
    (F, ok, solve), F = lambda4*lambda1 + lambda2*lambda3, with the follower's
    ok and the solve (lambda3 = mu*P_T, lambda4, c_m, lambda1, lambda2, c_k)."""
    respond = _follower(s, p_a)

    def outer(mu):
        with np.errstate(all="ignore"):
            lam3 = mu * p_t
            lam4, c_m = _schedule(s, lam3, p_t)
            lam1, lam2, c_k, ok = respond(c_m)
            return lam4 * lam1 + lam2 * lam3, ok, (lam3, lam4, c_m, lam1, lam2, c_k)

    return outer


def _outer_residual(s: NetworkScenario, mu, p_t, p_a):
    """(F, ok) of ``_outer`` at mu = lambda3/P_T."""
    return _outer(s, p_t, p_a)(mu)[:2]


def _brentq(f, xa: float, xb: float, fa: float | None = None,
            fb: float | None = None) -> float:
    """The root of ``f`` on [xa, xb] with scipy's ``brentq`` at xtol=1e-15,
    rtol=8.9e-16 and maxiter=256: the steps of scipy/optimize/Zeros/brentq.c
    (Brent 1973) in float arithmetic, so the root has brentq's bits.

    Like brentq it starts from f at both ends, returns an end where f is
    zero, and raises ValueError on a NaN value or a same-sign bracket and
    RuntimeError when the iterations run out.  ``fa`` and ``fb``, where
    given, are f(xa) and f(xb), and f is not called there: brentq's steps
    then call f twice fewer.
    """
    xtol, rtol, maxiter = 1e-15, 8.9e-16, 256

    def call(x: float, fx: float | None = None) -> float:
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre, fa), call(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # In C the step is then infinite or NaN, which always bisects.
                stry = math.inf
            limit = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _brentq_lanes(f, xa: float, xb: float, fa, fb, todo):
    """``_brentq`` on every lane where ``todo`` holds, all lanes at once.

    The steps are scipy's (Brent 1973, as in scipy/optimize/Zeros/brentq.c)
    in the same double arithmetic, so each lane's root has the bits that
    ``_brentq`` gives for that lane alone.  ``f(x)`` maps an array of
    abscissae, one per lane, to the lane values.  fa and fb are f at xa and
    xb, of opposite signs on every lane in ``todo``, where fa is nonzero; a
    lane where fb is zero has the root xb, as in ``_brentq``.  Other lanes
    give NaN.
    """
    xtol, rtol = 1e-15, 8.9e-16
    xpre, xcur = np.full(fa.shape, xa), np.full(fa.shape, xb)
    fpre, fcur = fa, fb
    xblk = fblk = spre = scur = np.zeros(fa.shape)
    root = np.full(fa.shape, np.nan)
    todo = todo.copy()
    for _ in range(256):
        if not todo.any():
            return root
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = todo & ((fcur == 0) | (np.abs(sbis) < delta))
        root[done] = xcur[done]
        todo &= ~done

        interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
        dpre = (fpre - fcur) / (xpre - xcur)
        dblk = (fblk - fcur) / (xblk - xcur)
        extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        limit = np.where(np.abs(spre) < 3 * np.abs(sbis) - delta,
                         np.abs(spre), 3 * np.abs(sbis) - delta)
        short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < limit)
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(xcur)
    if todo.any():
        raise RuntimeError("Failed to converge after 256 iterations")
    return root


def kkt_residuals(s: NetworkScenario, lambdas, transmit_coeffs, adversary_coeffs) -> list[float]:
    """Left-hand sides of every first-order condition and constraint of the
    no-coordination system, evaluated at the multipliers
    ``lambdas = (lambda1, lambda2, lambda3, lambda4)`` and the given
    transmit and adversary coefficients.

    Order: per-adversary stationarity (K), adversary slack stationarity,
    distortion feasibility, per-transmitter stationarity (M), transmitter
    slack stationarity, transmit power, attack power, multiplier product
    identity, combined power/multiplier identity.
    """
    p_t = s.sum_power_transmit
    p_a = s.sum_power_attack
    lam1, lam2, lam3, lam4 = lambdas
    r_m, own_t = _transmit_stats(s, transmit_coeffs)
    r_k, own_k, _ = _adversary_output_stats(s, [(c, 0.0, 0) for c in adversary_coeffs])
    r, own = r_m + r_k, own_t + own_k
    j = 1.0 - r * r / (1.0 + own + r * r)
    jfac = j / (1.0 - j) if j < 1.0 else math.inf
    return [
        *_stationarity(s.adversaries, adversary_coeffs, -lam1, lam2),
        2.0 * lam1 * (jfac * r) + lam2,
        1.0 + own - jfac * (r * r),
        *_stationarity(s.transmitters, transmit_coeffs, lam3, lam4),
        -2.0 * lam3 * (jfac * r) + lam4,
        _power_residual(s.transmitters, transmit_coeffs, p_t),
        _power_residual(s.adversaries, adversary_coeffs, p_a),
        lam4 * lam1 + lam2 * lam3,
        p_t / lam3 - p_a / lam1 - 1.0,
    ]


def _sign_changes(values: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Every i where the scanned residual is zero at grid point i or changes
    sign between points i and i+1, both evaluated, ascending."""
    v0, v1 = values[:-1], values[1:]
    # Signs compared, not multiplied: a product of two tiny values underflows to 0.
    change = (v0 < 0.0) & (v1 > 0.0) | (v0 > 0.0) & (v1 < 0.0)
    return np.flatnonzero(ok[:-1] & ok[1:] & ((v0 == 0.0) | change))


def theorem5_scans(scenarios) -> list:
    """Each scenario's outer scan (values, ok) on ``_SCAN_GRID``, as
    ``solve_theorem5`` makes it, from one lane pass of ``_outer_residual``.

    The scenarios share their sensors and differ at most in P_T and P_A,
    which the pass takes per lane; a lane has the bits of its point's own
    scan.  Where the merged pass raises, every entry is None, and each
    scenario scans alone, which raises for its own point if it fails.
    """
    if not scenarios:
        return []
    p_t = np.array([s.sum_power_transmit for s in scenarios], dtype=float)[:, None]
    p_a = np.array([s.sum_power_attack for s in scenarios], dtype=float)[:, None]
    try:
        values, ok = _outer_residual(scenarios[0], _SCAN_GRID, p_t, p_a)
    except (JamnetError, ArithmeticError, RuntimeError):  # each point's own scan raises its error
        return [None] * len(scenarios)
    return list(zip(values, ok))


def solve_theorem5(s: NetworkScenario, scan: tuple | None = None) -> EquilibriumReport:
    """Stackelberg equilibrium of the no-coordination asymmetric setting.

    Outer bracketed Brent root-find on mu = lambda3/P_T in (0, 1) with
    residual F = lambda4*lambda1 + lambda2*lambda3 at lambda3 = mu*P_T; each
    evaluation solves the adversary subsystem exactly for (lambda1, lambda2,
    c_k) given the trial transmit coefficients.  F is first evaluated on the
    whole of ``_SCAN_GRID`` in one array pass, or taken from ``scan``, this
    scenario's (values, ok) from ``theorem5_scans``; scalar Brent then solves
    the first bracket where it changes sign, from the scanned values at its
    ends, and a note tagged [asym2-multiple-roots] records any further sign
    changes (the bracket in lambda3).  The report's inner solve and lambda3
    are the Brent's own at the root.  Convergence requires every first-order
    residual below ``KKT_TOL``; otherwise NonConvergence carries the residual
    vector, and its ``iterations`` count every residual value used.
    """
    if s.setting is not Setting.ASYM_II:
        raise InvalidScenario(f"solve_theorem5 requires AsymII, got {s.setting.value}")
    if s.num_transmitters < 1:
        raise InvalidScenario("solve_theorem5 requires at least one transmitter")
    if s.num_adversaries < 1:
        raise InvalidScenario("solve_theorem5 requires at least one adversary")
    p_t = s.sum_power_transmit
    p_a = s.sum_power_attack
    if p_t is None or p_a is None:
        raise InvalidScenario("AsymII scenario must carry P_T and P_A")
    if p_a <= 0.0:
        raise InvalidScenario("solve_theorem5 requires P_A > 0")

    solves = {}  # mu -> the inner solve of each scalar residual evaluation
    outer = _outer(s, p_t, p_a)

    def outer_residual(mu: float) -> float:
        nonlocal evals
        evals += 1
        value, _, solves[mu] = outer(mu)
        return value

    values, ok = _outer_residual(s, _SCAN_GRID, p_t, p_a) if scan is None else scan
    evals = len(_SCAN_GRID)
    roots = _sign_changes(values, ok)
    if len(roots) == 0:
        # Each scanned value has the bits of the scalar residual at its point.
        raise NonConvergence(
            "no sign change for the outer multiplier residual on (0, P_T)",
            iterations=evals,
            residuals=tuple(float(v) for v in values[ok][:8]),
        )

    lo, hi = float(_SCAN_GRID[roots[0]]), float(_SCAN_GRID[roots[0] + 1])
    if values[roots[0]] == 0.0:
        mu = lo
    else:
        evals += 2  # the values at the bracket ends, taken from the scan
        mu = _brentq(outer_residual, lo, hi, values[roots[0]], values[roots[0] + 1])

    # Brent returns an abscissa it evaluated, or a bracket end, which only
    # the scan evaluated.
    lam3, lam4, c_m, lam1, lam2, c_k = solves.get(mu) or outer(mu)[2]
    lam4 = float(lam4)

    transmit_coeffs = tuple(float(c) for c in c_m)
    adversary_coeffs = tuple(float(c) for c in c_k)
    with np.errstate(all="ignore"):  # a residual that overflows is not below the tolerance
        residuals = kkt_residuals(s, (lam1, lam2, lam3, lam4), transmit_coeffs, adversary_coeffs)
    if not all(abs(r) < KKT_TOL for r in residuals):
        raise NonConvergence(
            "first-order residuals above tolerance at the located root",
            iterations=evals,
            residuals=tuple(residuals),
        )

    profile = _bayes_profile(s, transmit_coeffs, False, LinearMirror(coeffs=adversary_coeffs))
    validate_profile(s, profile)
    oracle = direct_mmse_cost(s, profile)

    r_m, s_own = _transmit_stats(s, transmit_coeffs)
    s_m = 2.0 * r_m / lam4  # sum (alpha_m*beta_m)^2/d_m, d_m the schedule's denominators
    s_k = 0.0  # its terms are infinite where lambda1 = m_k/alpha_k^2, all power on sensor k
    for p in s.adversaries:
        d = p.input_second_moment - lam1 * p.alpha ** 2
        s_k += (p.alpha * p.beta) ** 2 / d if d else math.inf
    closed = 1.0 / (1.0 + lam3 * s_m - lam1 * s_k)
    printed = 1.0 / (1.0 + lam3 * s_m / 2.0 - lam1 * s_k / 2.0)
    printed_lam2 = -(2.0 * p_a + 2.0 * lam1 * (1.0 - s_own)) / r_m
    printed_identity = p_t / lam1 + p_a / lam3
    notes = _cost_notes(closed, printed, oracle, "asym2-cost-closed-form") + (
        f"published multiplier equation gives lambda2 = {printed_lam2!r} vs solved "
        f"{lam2!r} [asym2-multiplier-equation-sign]",
        f"published identity P_T/l1 + P_A/l3 = {printed_identity!r} (consistent form "
        f"P_T/l3 - P_A/l1 = {p_t / lam3 - p_a / lam1!r}) [asym2-multiplier-identity]",
    )
    if len(roots) > 1:
        notes += (
            f"outer residual changes sign {len(roots)} times on the {len(_SCAN_GRID)}-point "
            f"scan; solved the first bracket [{lo * p_t!r}, {hi * p_t!r}] [asym2-multiple-roots]",
        )
    multipliers = {"lambda1": lam1, "lambda2": lam2, "lambda3": lam3, "lambda4": lam4}
    return EquilibriumReport(cost=oracle, profile=profile, multipliers=multipliers,
                             kkt_residuals=tuple(residuals), oracle_cost=oracle,
                             discrepancy_notes=notes)

