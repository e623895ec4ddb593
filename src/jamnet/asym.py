"""Asymmetric-scenario equilibrium solvers and the direct MMSE cost oracle.

``direct_mmse_cost`` evaluates any strategy profile exactly from second-order
statistics under the adopted observation model U = beta*S + W; it is the
authoritative cost everywhere in the package.  ``solve_theorem4`` handles the
coordinated (saddle-point) power-allocation setting in closed form;
``solve_theorem5`` solves the no-coordination Stackelberg multiplier system
numerically by nested bracketed root-finding.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.optimize import brentq

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


# Theorem-5 solver constants: outer residual evaluation budget, the bound on
# every first-order residual at a solution, and the outer scan's grid size.
MAX_OUTER_EVALS = 10_000
KKT_TOL = 1e-8
OUTER_SCAN_POINTS = 96


# -- channel output statistics ----------------------------------------------

def _adversary_output_stats(
    s: NetworkScenario, strategy: AdversaryStrategy
) -> tuple[float, float, float]:
    """Second-order statistics of the adversaries' channel contribution.

    Returns (signal_coeff, own_noise_var, jam_var) where the received
    adversary sum is signal_coeff*S + (own sensing-noise part with variance
    own_noise_var) + (source-independent jamming with variance jam_var).
    Jamming amplitudes add within one noise index before squaring; the
    indices' variances add.
    """
    rows, n_noises = strategy.lower(s.adversaries)
    sig = own = 0.0
    amps = [0.0] * n_noises
    for p, (a, b, ss, j) in zip(s.adversaries, rows):
        alpha = p.alpha
        sig += alpha * a
        own += alpha * alpha * b * b
        if ss:
            amps[j] += alpha * ss
    return sig, own, sum(amp * amp for amp in amps)


def channel_moments(s: NetworkScenario, p: StrategyProfile) -> tuple[float, float]:
    """(E{S * Y_dec}, E{Y^2}) for the decoder-visible received signal.

    For randomized profiles the receiver works with gamma*Y; the shared coin
    decorrelates the adversary's source/sensing components from the decoded
    signal, so only their power survives.  Raises NumericalFailure when
    E{Y^2} overflows (e.g. alpha^2*P beyond the float range).
    """
    r_t = sum(p_.beta * c * p_.alpha for p_, c in zip(s.transmitters, p.transmit_coeffs))
    own_t = sum(p_.alpha ** 2 * c * c for p_, c in zip(s.transmitters, p.transmit_coeffs))
    sig_a, own_a, jam_a = _adversary_output_stats(s, p.adversary)
    if p.randomized:
        r = r_t
        total = r_t * r_t + own_t + sig_a * sig_a + own_a + jam_a + 1.0
    else:
        r = r_t + sig_a
        total = r * r + own_t + own_a + jam_a + 1.0
    if not math.isfinite(total):
        raise NumericalFailure("E{Y^2} is not finite: a gain-power product overflows")
    return r, total


def direct_mmse_cost(s: NetworkScenario, p: StrategyProfile) -> float:
    """Exact MSE of the best scalar decoder for profile ``p``: 1 - E{SY}^2/E{Y^2}.

    Invariant under a global sign flip of all coefficients.
    """
    r, total = channel_moments(s, p)
    return 1.0 - (r * r) / total


def bayes_decoder_gain(s: NetworkScenario, p: StrategyProfile) -> float:
    """The scalar gain attaining direct_mmse_cost: E{SY}/E{Y^2}."""
    r, total = channel_moments(s, p)
    return r / total


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

    if k_star is None:
        adv: AdversaryStrategy = IndependentNoise(variances=())
    else:
        variances = [0.0] * s.num_adversaries
        variances[k_star] = p_a
        adv = IndependentNoise(variances=tuple(variances))

    profile = StrategyProfile(
        transmit_coeffs=coeffs,
        randomized=True,
        adversary=adv,
        decoder_gain=0.0,
    )
    profile = dataclasses.replace(profile, decoder_gain=bayes_decoder_gain(s, profile))
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
    return EquilibriumReport(
        cost=oracle,
        profile=profile,
        multipliers=multipliers,
        kkt_residuals=residuals,
        oracle_cost=oracle,
        discrepancy_notes=notes,
    )


# -- Theorem 5: no coordination, coupled multiplier system -------------------

def _transmit_side(s: NetworkScenario, lam3: float, p_t: float) -> tuple[float, np.ndarray]:
    """lambda4 and the transmit coefficients for a trial lambda3 > 0, with the
    sum power constraint met with equality (lambda4 > 0 sign convention)."""
    denoms = np.array([p.input_second_moment + lam3 * p.alpha ** 2 for p in s.transmitters])
    if np.any(np.abs(denoms) < DENOM_FLOOR):
        raise SingularDenominator(f"transmit denominator below {DENOM_FLOOR} at lambda3={lam3}")
    ab = np.array([p.alpha * p.beta for p in s.transmitters])
    one_b2 = np.array([p.input_second_moment for p in s.transmitters])
    t2 = float(np.sum(one_b2 * ab * ab / denoms**2))
    if t2 <= 0.0:
        raise DegenerateInput("no information path: all alpha*beta vanish")
    lam4 = 2.0 * math.sqrt(p_t / t2)
    coeffs = lam4 * ab / (2.0 * denoms)
    return lam4, coeffs


def adversary_linear_response(
    s: NetworkScenario, transmit_coeffs, p_a: float
) -> tuple[float, float, np.ndarray]:
    """Best linear response (lambda1, lambda2, c_k) of the adversaries to the
    given transmit coefficients.

    Solves the adversary-side first-order system: lambda2 is affine in
    lambda1 via the combined stationarity/feasibility relation, and the
    power-equality equation g(lambda1) = 0 is strictly increasing on
    (0, min_k (1+beta_k^2)/alpha_k^2), so the root is unique when it exists.
    No root means the adversary can null the received signal outright with
    slack power (no power-equality KKT point); that is reported as
    NonConvergence, a first-class outcome.
    """
    if s.num_adversaries < 1:
        raise EmptyAdversarySet("no adversarial sensors")
    r_m = float(
        sum(p.alpha * p.beta * c for p, c in zip(s.transmitters, transmit_coeffs))
    )
    s_own = float(
        sum(p.alpha ** 2 * c * c for p, c in zip(s.transmitters, transmit_coeffs))
    )
    if abs(r_m) < DENOM_FLOOR:
        raise SingularDenominator("transmit signal term vanishes; adversary system singular")

    a_adv = np.array([p.alpha for p in s.adversaries])
    b2_adv = np.array([p.input_second_moment for p in s.adversaries])
    ab_adv = np.array([p.alpha * p.beta for p in s.adversaries])
    lam1_max = float(np.min(b2_adv / a_adv**2))

    def lam2_of(lam1: float) -> float:
        return -(2.0 * p_a + 2.0 * lam1 * (1.0 + s_own)) / r_m

    def power_gap(lam1: float) -> float:
        d = b2_adv - lam1 * a_adv**2
        a2 = float(np.sum(b2_adv * ab_adv**2 / d**2))
        return lam2_of(lam1) ** 2 / 4.0 * a2 - p_a

    lo = lam1_max * 1e-14
    hi = lam1_max * (1.0 - 1e-9)
    g_lo = power_gap(lo)
    if g_lo >= 0.0:
        raise NonConvergence(
            "adversary power-equality equation has no positive root "
            "(attack budget dominates the received signal)",
            residuals=(g_lo,),
        )
    g_hi = power_gap(hi)
    if not (g_hi > 0.0):
        raise NonConvergence(
            "adversary power-equality equation has no bracket",
            residuals=(g_lo, g_hi),
        )
    lam1 = brentq(power_gap, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=256)
    lam2 = lam2_of(lam1)
    d = b2_adv - lam1 * a_adv**2
    if np.any(np.abs(d) < DENOM_FLOOR):
        raise SingularDenominator("adversary denominator below floor at converged lambda1")
    c_k = lam2 * ab_adv / (2.0 * d)
    return float(lam1), float(lam2), c_k


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


def solve_theorem5(s: NetworkScenario) -> EquilibriumReport:
    """Stackelberg equilibrium of the no-coordination asymmetric setting.

    Outer bracketed Brent root-find on lambda3 in (0, P_T) with residual
    F(lambda3) = lambda4*lambda1 + lambda2*lambda3; each evaluation solves
    the adversary subsystem exactly for (lambda1, lambda2, c_k) given the
    trial transmit coefficients.  Convergence requires every first-order
    residual below ``KKT_TOL``; otherwise NonConvergence carries the
    residual vector.
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

    evals = 0

    def outer_residual(lam3: float) -> float:
        nonlocal evals
        evals += 1
        if evals > MAX_OUTER_EVALS:
            raise NonConvergence(
                f"outer iteration budget {MAX_OUTER_EVALS} exhausted", iterations=evals
            )
        lam4, c_m = _transmit_side(s, lam3, p_t)
        lam1, lam2, _ = adversary_linear_response(s, c_m, p_a)
        return lam4 * lam1 + lam2 * lam3

    # Scan (0, P_T) for a sign change; geometric points resolve roots near 0.
    n = OUTER_SCAN_POINTS
    grid = np.unique(
        np.concatenate(
            [
                np.geomspace(1e-8, 0.5, n // 2),
                np.linspace(1e-3, 1.0 - 1e-10, n // 2),
            ]
        )
    ) * p_t
    values: list[float | None] = []
    for x in grid:
        try:
            values.append(outer_residual(float(x)))
        except (NonConvergence, SingularDenominator):
            values.append(None)

    bracket = None
    for i in range(len(grid) - 1):
        vi, vj = values[i], values[i + 1]
        if vi is None or vj is None:
            continue
        if vi == 0.0:
            bracket = (grid[i], grid[i])
            break
        if vi * vj < 0.0:
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is None:
        finite = [v for v in values if v is not None]
        raise NonConvergence(
            "no sign change for the outer multiplier residual on (0, P_T)",
            iterations=evals,
            residuals=tuple(finite[:8]),
        )

    if bracket[0] == bracket[1]:
        lam3 = float(bracket[0])
    else:
        lam3 = float(
            brentq(outer_residual, bracket[0], bracket[1], xtol=1e-15, rtol=8.9e-16, maxiter=256)
        )

    lam4, c_m = _transmit_side(s, lam3, p_t)
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

    profile = StrategyProfile(
        transmit_coeffs=transmit_coeffs,
        randomized=False,
        adversary=LinearMirror(coeffs=adversary_coeffs),
        decoder_gain=0.0,
    )
    profile = dataclasses.replace(profile, decoder_gain=bayes_decoder_gain(s, profile))
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
    return EquilibriumReport(
        cost=oracle,
        profile=profile,
        multipliers={"lambda1": lam1, "lambda2": lam2, "lambda3": lam3, "lambda4": lam4},
        kkt_residuals=tuple(residuals),
        oracle_cost=oracle,
        discrepancy_notes=notes,
    )

