"""Asymmetric-scenario equilibrium solvers and the direct MMSE cost oracle.

``direct_mmse_cost`` evaluates any strategy profile exactly from second-order
statistics under the adopted observation model U = beta*S + W; it is the
authoritative cost everywhere in the package.  It is one cost core applied to
one profile: the core takes five sufficient statistics (two of the
transmitters, three of the adversaries) as floats or as arrays over many
candidates, so batched searches cost every candidate with the same bits.

``solve_theorem4`` handles the coordinated (saddle-point) power-allocation
setting in closed form; its schedule, ``_schedule``, is also the
transmitters' best response to fixed jamming in ``simulate``'s check.
``solve_theorem5`` solves the no-coordination Stackelberg multiplier system
by nested bracketed root-finding: the outer residual is evaluated at every
point of a fixed scan grid in one array pass, every sign change is counted,
and scalar Brent then solves the first bracket.  The inner adversary solve,
``_adversary_response``, is one piece of arithmetic for one row of transmit
coefficients (scalar Brent steps, inside the outer Brent) and for lanes of
rows (Brent steps on all lanes at once, in the scan and on the frontier
``simulate`` checks), so a scanned residual has the bits of the scalar
residual at its point, and so has the exit-2 report without a sign change,
which carries the first scanned residuals.

Every equilibrium profile of the package, the symmetric solvers' included,
is built by one helper, ``_bayes_profile``, which attaches the Bayes
decoder gain.

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
    LinearMirror,
    NetworkScenario,
    NonConvergence,
    NumericalFailure,
    SensorParams,
    Setting,
    SingularDenominator,
    StrategyProfile,
    validate_profile,
)

DENOM_FLOOR = 1e-10


# Theorem-5 solver constants: the bound on every first-order residual at a
# solution, and the outer scan's grid size.
KKT_TOL = 1e-8
OUTER_SCAN_POINTS = 96


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


def _adversary_output_stats(s: NetworkScenario, rows, n_noises: int):
    """(sig, own, jam) of the adversaries' channel contribution, from the
    rows (a_k, b_k, s_k, j_k) and noise count J of ``lower()``.

    The received adversary sum is sig*S + (own sensing-noise part with
    variance own) + (source-independent jamming with variance jam).  Jamming
    amplitudes add within one noise index before squaring; the indices'
    variances add.  a_k, b_k and s_k may be arrays of lanes; j_k may not.
    """
    sig = own = 0.0
    amps = [0.0] * n_noises
    for p, (a, b, ss, j) in zip(s.adversaries, rows):
        alpha = p.alpha
        sig = sig + alpha * a
        own = own + alpha * alpha * b * b
        # j_k is unused where s_k = 0 (LinearMirror has no noises); adding a
        # zero amplitude changes no amplitude.
        if j < n_noises:
            amps[j] = amps[j] + alpha * ss
    jam = 0.0
    for amp in amps:
        jam = jam + amp * amp
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
            *_adversary_output_stats(s, *p.adversary.lower(s.adversaries)), p.randomized)


def channel_moments(s: NetworkScenario, p: StrategyProfile) -> tuple[float, float]:
    """(E{S * Y_dec}, E{Y^2}) for the decoder-visible received signal of
    profile ``p``; see ``_moments``."""
    return _moments(*_profile_stats(s, p))


def direct_mmse_cost(s: NetworkScenario, p: StrategyProfile) -> float:
    """Exact MSE of the best scalar decoder for profile ``p``: 1 - E{SY}^2/E{Y^2}.

    Invariant under a global sign flip of all coefficients.
    """
    return _cost(*_profile_stats(s, p))


def bayes_decoder_gain(s: NetworkScenario, p: StrategyProfile) -> float:
    """The scalar gain attaining direct_mmse_cost: E{SY}/E{Y^2}."""
    r, total = channel_moments(s, p)
    return r / total


def _bayes_profile(
    s: NetworkScenario, coeffs: tuple, randomized: bool, adversary: AdversaryStrategy
) -> StrategyProfile:
    """The profile of the given strategies with its Bayes decoder gain."""
    draft = StrategyProfile(
        transmit_coeffs=coeffs, randomized=randomized, adversary=adversary, decoder_gain=0.0
    )
    return dataclasses.replace(draft, decoder_gain=bayes_decoder_gain(s, draft))


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


def _schedule(s: NetworkScenario, lam1: float, p_t: float):
    """(denoms, lambda2, coeffs): Theorem 4's transmit schedule at multiplier
    lambda1, c_m = lambda2*alpha_m*beta_m/(2*(1 + beta_m^2 + lambda1*alpha_m^2)),
    with lambda2 spending the sum budget P_T.  It maximizes
    r_t^2/(own_t + P_T/lambda1) on the budget: the transmitters' best
    response to received jamming power P_T/lambda1 - 1."""
    denoms = [p.input_second_moment + lam1 * p.alpha ** 2 for p in s.transmitters]
    t2 = sum(
        p.input_second_moment * (p.alpha * p.beta) ** 2 / d / d
        for p, d in zip(s.transmitters, denoms)
    )
    if t2 <= 0.0:
        raise DegenerateInput("no information path: all alpha*beta vanish")
    lam2 = math.sqrt(4.0 * p_t / t2)
    coeffs = tuple(
        lam2 * p.alpha * p.beta / (2.0 * d) for p, d in zip(s.transmitters, denoms)
    )
    return denoms, lam2, coeffs


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
    M = s.num_transmitters
    if M < 1:
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
    denoms, lam2, coeffs = _schedule(s, lam1, p_t)
    adv = IndependentNoise(
        variances=tuple(p_a if k == k_star else 0.0 for k in range(s.num_adversaries))
    )
    profile = _bayes_profile(s, coeffs, True, adv)
    validate_profile(s, profile)
    oracle = direct_mmse_cost(s, profile)

    half_sum = sum(
        (p.alpha * p.beta) ** 2 / (2.0 * d) for p, d in zip(s.transmitters, denoms)
    )
    printed = 1.0 / (1.0 + lam1 * half_sum)
    closed = 1.0 / (1.0 + lam1 * 2.0 * half_sum)
    notes = (
        f"closed-form cost without the doubled denominators = {closed!r} "
        f"(matches oracle to {abs(closed - oracle):.3e})",
        f"published closed-form cost = {printed!r}, oracle = {oracle!r}, "
        f"delta = {printed - oracle!r} [asym1-cost-closed-form]",
    )

    power_residual = sum(
        p.input_second_moment * c * c for p, c in zip(s.transmitters, coeffs)
    ) - p_t
    stationarity = tuple(
        2.0 * c * p.input_second_moment + 2.0 * lam1 * c * p.alpha ** 2 - lam2 * p.alpha * p.beta
        for p, c in zip(s.transmitters, coeffs)
    )
    residuals = (lam1 * (1.0 + pa_recv) - p_t, power_residual) + stationarity

    multipliers = {"lambda1": lam1, "lambda2": lam2}
    if k_star is not None:
        multipliers["attacker_index"] = float(k_star)
    multipliers["attacker_received_power"] = pa_recv
    return EquilibriumReport(cost=oracle, profile=profile, multipliers=multipliers,
                             kkt_residuals=residuals, oracle_cost=oracle,
                             discrepancy_notes=notes)


# -- Theorem 5: no coordination, coupled multiplier system -------------------

def _transmit_side(s: NetworkScenario, lam3, p_t: float):
    """lambda4 and the transmit coefficients for a trial lambda3 > 0, with the
    sum power constraint met with equality (lambda4 > 0 sign convention).
    ``lam3`` may be an array of lanes; the outputs then gain a leading lane
    axis."""
    lam3 = np.asarray(lam3)
    one_b2 = np.array([p.input_second_moment for p in s.transmitters])
    a2 = np.array([p.alpha ** 2 for p in s.transmitters])
    ab = np.array([p.alpha * p.beta for p in s.transmitters])
    with np.errstate(over="ignore"):  # overflow gives inf, as float arithmetic does
        denoms = one_b2 + lam3[..., None] * a2
        if np.any(np.abs(denoms) < DENOM_FLOOR):
            raise SingularDenominator(f"transmit denominator below {DENOM_FLOOR} at lambda3={lam3}")
        t2 = np.sum(one_b2 * ab * ab / denoms**2, axis=-1)
        if np.any(t2 <= 0.0):
            raise DegenerateInput("no information path: all alpha*beta vanish")
        lam4 = 2.0 * np.sqrt(p_t / t2)
        return lam4, lam4[..., None] * ab / (2.0 * denoms)


def _square(x, live):
    """x**2 with libm pow's bits, as float ``**`` gives them (numpy's ``**`` 2
    is x*x, which differs from it in the last bit for about 1 in 1000 x).  On
    lanes it raises float ``**``'s OverflowError where the square of a finite
    ``live`` lane overflows."""
    if type(x) is float:
        return x ** 2
    square = np.float_power(x, 2.0)
    if np.any(live & np.isfinite(x) & np.isinf(square)):
        raise OverflowError(34, "Numerical result out of range")
    return square


def _adversary_response(s: NetworkScenario, c_m, p_a: float):
    """Best linear response (lambda1, lambda2, c_k, ok) of the adversaries to
    the transmit coefficients ``c_m``: one row of M, or lanes x M.

    Solves the adversary-side first-order system: lambda2 is affine in
    lambda1 via the combined stationarity/feasibility relation, and the
    power-equality equation g(lambda1) = 0 is strictly increasing on
    (0, min_k (1+beta_k^2)/alpha_k^2), so the root is unique when it exists.
    No root means the adversary can null the received signal outright with
    slack power (no power-equality KKT point).  ``_brentq`` solves one row,
    which raises NonConvergence or SingularDenominator where it fails;
    ``_brentq_lanes`` solves lanes, and ok is False on the lanes that would
    raise.  A lane has its row's bits.  Both raise float ``**``'s
    OverflowError where lambda2^2 overflows on a row or lane being solved.
    """
    if s.num_adversaries < 1:
        raise EmptyAdversarySet("no adversarial sensors")
    one = np.ndim(c_m) == 1
    with np.errstate(all="ignore"):
        ab_t = np.array([p.alpha * p.beta for p in s.transmitters])
        a2_t = np.array([p.alpha ** 2 for p in s.transmitters])
        # Running sums add the sensors one at a time, in order, as sum() does.
        r_m = np.add.accumulate(ab_t * c_m, axis=-1)[..., -1]
        s_own = np.add.accumulate(a2_t * c_m * c_m, axis=-1)[..., -1]
        # On one row r_m, s_own and p_a as Python floats make lambda2 one, so
        # _square takes float ** (lanes take np.float_power with its bits).
        p_a = float(p_a)
        if one:
            r_m, s_own = float(r_m), float(s_own)

        a_adv = np.array([p.alpha for p in s.adversaries])
        b2_adv = np.array([p.input_second_moment for p in s.adversaries])
        ab_adv = np.array([p.alpha * p.beta for p in s.adversaries])
        a2_adv, num = a_adv**2, b2_adv * ab_adv**2
        lam1_max = float(np.min(b2_adv / a2_adv))

        def lam2_of(lam1):
            return -(2.0 * p_a + 2.0 * lam1 * (1.0 + s_own)) / r_m

        def denoms(lam1):
            return b2_adv - np.multiply.outer(lam1, a2_adv)

        def power_gap(lam1, live=True):
            a2 = np.add.reduce(num / denoms(lam1)**2, axis=-1)  # np.sum, minus its wrapper
            return _square(lam2_of(lam1), live) / 4.0 * a2 - p_a

        def require(good, error):
            """The lanes where ``good`` holds; one row raises error() instead."""
            if one and not good:
                raise error()
            return good

        lo, hi = lam1_max * 1e-14, lam1_max * (1.0 - 1e-9)
        ok = require(~(np.abs(r_m) < DENOM_FLOOR), lambda: SingularDenominator(
            "transmit signal term vanishes; adversary system singular"))
        g_lo = power_gap(lo, ok)
        ok = ok & require(~(g_lo >= 0.0), lambda: NonConvergence(
            "adversary power-equality equation has no positive root "
            "(attack budget dominates the received signal)", residuals=(float(g_lo),)))
        g_hi = power_gap(hi, ok)
        ok = ok & require(g_hi > 0.0, lambda: NonConvergence(
            "adversary power-equality equation has no bracket",
            residuals=(float(g_lo), float(g_hi))))
        if one:
            lam1 = _brentq(power_gap, lo, hi)
        else:
            lam1 = _brentq_lanes(power_gap, lo, hi, g_lo, g_hi, ok)
        lam2, d = lam2_of(lam1), denoms(lam1)
        ok = ok & require(~np.any(np.abs(d) < DENOM_FLOOR, axis=-1), lambda: SingularDenominator(
            "adversary denominator below floor at converged lambda1"))
        return lam1, lam2, np.multiply.outer(lam2, ab_adv) / (2.0 * d), ok


def adversary_linear_response(
    s: NetworkScenario, transmit_coeffs, p_a: float
) -> tuple[float, float, np.ndarray]:
    """``_adversary_response`` to one row of transmit coefficients: (lambda1,
    lambda2, c_k), or its NonConvergence or SingularDenominator."""
    return _adversary_response(s, transmit_coeffs, p_a)[:3]


def _outer_residual(s: NetworkScenario, lam3, p_t: float, p_a: float):
    """(F, ok): the outer residual F = lambda4*lambda1 + lambda2*lambda3 at a
    trial lambda3, or at each of an array of them as lanes, with
    ``_adversary_response``'s ok."""
    with np.errstate(all="ignore"):
        lam4, c_m = _transmit_side(s, lam3, p_t)
        lam1, lam2, _, ok = _adversary_response(s, c_m, p_a)
        return lam4 * lam1 + lam2 * lam3, ok


def _brentq(f, xa: float, xb: float) -> float:
    """The root of ``f`` on [xa, xb] with scipy's ``brentq`` at xtol=1e-15,
    rtol=8.9e-16 and maxiter=256: the steps of scipy/optimize/Zeros/brentq.c
    (Brent 1973) in float arithmetic, so the root has brentq's bits.

    Like brentq it evaluates f at both ends first, returns an end where f is
    zero, and raises ValueError on a NaN value or a same-sign bracket and
    RuntimeError when the iterations run out.
    """
    xtol, rtol, maxiter = 1e-15, 8.9e-16, 256

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
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
    ``_brentq`` gives for that lane alone.  ``f(x, live)`` maps an array of
    abscissae, one per lane, to the lane values; ``live`` marks the lanes
    whose value brentq would ask for.  fa and fb are f at xa and xb, nonzero
    and of opposite signs on every lane in ``todo``.  Other lanes give NaN.
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
        fcur = f(xcur, todo)
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
    c_m = np.asarray(transmit_coeffs)
    c_k = np.asarray(adversary_coeffs)
    lam1, lam2, lam3, lam4 = lambdas

    a_t = np.array([p.alpha for p in s.transmitters])
    b_t = np.array([p.beta for p in s.transmitters])
    m2_t = np.array([p.input_second_moment for p in s.transmitters])
    a_a = np.array([p.alpha for p in s.adversaries])
    b_a = np.array([p.beta for p in s.adversaries])
    m2_a = np.array([p.input_second_moment for p in s.adversaries])

    r_m = float(np.sum(a_t * b_t * c_m))
    r_k = float(np.sum(a_a * b_a * c_k))
    own = float(np.sum(a_t**2 * c_m**2) + np.sum(a_a**2 * c_k**2))
    total = 1.0 + own + (r_m + r_k) ** 2
    j = 1.0 - (r_m + r_k) ** 2 / total
    jfac = j / (1.0 - j) if j < 1.0 else float("inf")
    g_val = jfac * (r_m + r_k)

    res: list[float] = []
    res.extend(2.0 * c_k * m2_a - 2.0 * lam1 * c_k * a_a**2 - lam2 * a_a * b_a)
    res.append(2.0 * lam1 * g_val + lam2)
    res.append(1.0 + own - jfac * (r_m + r_k) ** 2)
    res.extend(2.0 * c_m * m2_t + 2.0 * lam3 * c_m * a_t**2 - lam4 * a_t * b_t)
    res.append(-2.0 * lam3 * g_val + lam4)
    res.append(float(np.sum(m2_t * c_m**2)) - p_t)
    res.append(float(np.sum(m2_a * c_k**2)) - p_a)
    res.append(lam4 * lam1 + lam2 * lam3)
    res.append(p_t / lam3 - p_a / lam1 - 1.0)
    return [float(r) for r in res]


def _scan_grid(p_t: float) -> np.ndarray:
    """The outer scan's lambda3 grid on (0, P_T); geometric points resolve
    roots near 0."""
    n = OUTER_SCAN_POINTS
    return np.unique(
        np.concatenate(
            [
                np.geomspace(1e-8, 0.5, n // 2),
                np.linspace(1e-3, 1.0 - 1e-10, n // 2),
            ]
        )
    ) * p_t


def _sign_changes(values: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Every i where the scanned residual is zero at grid point i or changes
    sign between points i and i+1, both evaluated, ascending."""
    v0, v1 = values[:-1], values[1:]
    with np.errstate(all="ignore"):  # overflowing products as float products do
        return np.flatnonzero(ok[:-1] & ok[1:] & ((v0 == 0.0) | (v0 * v1 < 0.0)))


def solve_theorem5(s: NetworkScenario) -> EquilibriumReport:
    """Stackelberg equilibrium of the no-coordination asymmetric setting.

    Outer bracketed Brent root-find on lambda3 in (0, P_T) with residual
    F(lambda3) = lambda4*lambda1 + lambda2*lambda3; each evaluation solves
    the adversary subsystem exactly for (lambda1, lambda2, c_k) given the
    trial transmit coefficients.  F is first evaluated on the whole scan grid
    in one array pass; scalar Brent then solves the first bracket where it
    changes sign, and a note tagged [asym2-multiple-roots] records any
    further sign changes.  Convergence requires every first-order residual
    below ``KKT_TOL``; otherwise NonConvergence carries the residual vector.
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

    def outer_residual(lam3: float) -> float:
        nonlocal evals
        evals += 1
        return _outer_residual(s, lam3, p_t, p_a)[0]

    grid = _scan_grid(p_t)
    values, ok = _outer_residual(s, grid, p_t, p_a)
    evals = len(grid)
    roots = _sign_changes(values, ok)
    if len(roots) == 0:
        # Each scanned value has the bits of the scalar residual at its point.
        raise NonConvergence(
            "no sign change for the outer multiplier residual on (0, P_T)",
            iterations=evals,
            residuals=tuple(float(v) for v in values[ok][:8]),
        )

    lo, hi = float(grid[roots[0]]), float(grid[roots[0] + 1])
    if values[roots[0]] == 0.0:
        lam3 = lo
    else:
        lam3 = _brentq(outer_residual, lo, hi)

    lam4, c_m = _transmit_side(s, lam3, p_t)
    lam4 = float(lam4)
    lam1, lam2, c_k = adversary_linear_response(s, c_m, p_a)

    transmit_coeffs = tuple(float(c) for c in c_m)
    adversary_coeffs = tuple(float(c) for c in c_k)
    residuals = kkt_residuals(s, (lam1, lam2, lam3, lam4), transmit_coeffs, adversary_coeffs)
    if max(abs(r) for r in residuals) >= KKT_TOL:
        raise NonConvergence(
            "first-order residuals above tolerance at the located root",
            iterations=evals,
            residuals=tuple(residuals),
        )

    profile = _bayes_profile(s, transmit_coeffs, False, LinearMirror(coeffs=adversary_coeffs))
    validate_profile(s, profile)
    oracle = direct_mmse_cost(s, profile)

    s_m = float(
        sum(
            (p.alpha * p.beta) ** 2 / (p.input_second_moment + lam3 * p.alpha ** 2)
            for p in s.transmitters
        )
    )
    s_k = float(
        sum(
            (p.alpha * p.beta) ** 2 / (p.input_second_moment - lam1 * p.alpha ** 2)
            for p in s.adversaries
        )
    )
    closed = 1.0 / (1.0 + lam3 * s_m - lam1 * s_k)
    printed = 1.0 / (1.0 + lam3 * s_m / 2.0 - lam1 * s_k / 2.0)
    r_m = float(sum(p.alpha * p.beta * c for p, c in zip(s.transmitters, transmit_coeffs)))
    s_own = float(sum(p.alpha ** 2 * c * c for p, c in zip(s.transmitters, transmit_coeffs)))
    printed_lam2 = -(2.0 * p_a + 2.0 * lam1 * (1.0 - s_own)) / r_m
    printed_identity = p_t / lam1 + p_a / lam3
    notes = (
        f"closed-form cost without the doubled denominators = {closed!r} "
        f"(matches oracle to {abs(closed - oracle):.3e})",
        f"published closed-form cost = {printed!r}, oracle = {oracle!r}, "
        f"delta = {printed - oracle!r} [asym2-cost-closed-form]",
        f"published multiplier equation gives lambda2 = {printed_lam2!r} vs solved "
        f"{lam2!r} [asym2-multiplier-equation-sign]",
        f"published identity P_T/l1 + P_A/l3 = {printed_identity!r} (consistent form "
        f"P_T/l3 - P_A/l1 = {p_t / lam3 - p_a / lam1!r}) [asym2-multiplier-identity]",
    )
    if len(roots) > 1:
        notes += (
            f"outer residual changes sign {len(roots)} times on the {len(grid)}-point scan; "
            f"solved the first bracket [{lo!r}, {hi!r}] [asym2-multiple-roots]",
        )
    multipliers = {"lambda1": lam1, "lambda2": lam2, "lambda3": lam3, "lambda4": lam4}
    return EquilibriumReport(cost=oracle, profile=profile, multipliers=multipliers,
                             kkt_residuals=tuple(residuals), oracle_cost=oracle,
                             discrepancy_notes=notes)

