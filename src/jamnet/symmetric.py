"""Closed-form equilibria for the three symmetric coordination settings.

Setting I (everyone can coordinate) is a saddle point: randomized uncoded
transmission against coordinated Gaussian jamming, built by ``_saddle`` with
every sensor coordinating.  Setting II (nobody can) is a Stackelberg
equilibrium: deterministic uncoded transmission mirrored with opposite sign
by the adversaries, built by ``_stackelberg``.  Setting III switches between
the two at the threshold fraction epsilon0 of coordination-capable
transmitters, where the two costs meet (a quadratic in M*epsilon0, solved in
closed form): above it, ``_saddle`` with M*epsilon transmitters against the
eta-mixed jammer; below it, ``_stackelberg``.  So every symmetric report
comes from one of those two builders.

Published closed forms are the printed rational functions on what one
uncoded sensor at full power lands in Y (``asym._cap``): u^2 for c^2 a^2 b^2
and v for c^2 a^2, so they are exact across the float range wherever a run
exits 0.  All are one pair, ``cost_setting1`` and ``decoder_gain_setting1`` at
(m, Q), with Q from ``effective_jam_power``: setting II's printed cost and
gain are the pair at (M - K, 0); the oracle, which counts the own noise of
all M + K sensors, costs setting II at (M - K, 2K v).  Every report pairs the
closed form with the oracle and records their delta; every profile carries
its Bayes decoder gain, from ``asym``'s profile builder.
"""

from __future__ import annotations

import math

from . import asym
from .model import (
    INTEGER_TOL,
    CoordinatedNoise,
    EquilibriumReport,
    InvalidScenario,
    LinearMirror,
    NetworkScenario,
    NoRoot,
    NumericalFailure,
    Setting,
    StrategyProfile,
)

TIE_TOL = 1e-12


def cost_setting1(m_eff: float, q_adv: float, alpha: float, beta: float, power: float) -> float:
    """Saddle-point cost of setting I for an effective transmitter count and
    received jamming power: (m c^2 a^2 + Q + 1)/(m^2 a^2 b^2 c^2 + m c^2 a^2 + Q + 1)
    with the uncoded gain c = sqrt(P/(1+beta^2)), on ``asym._cap``'s (u, v).

    m_eff is real-valued so the threshold can relax it; q_adv is the
    adversaries' total received noise power at the channel output
    (alpha^2*K^2*P coordinated, alpha^2*K*P independent).  Strictly
    decreasing in m_eff, strictly increasing in q_adv; equals the direct MMSE
    oracle on the corresponding randomized profile.
    """
    if m_eff < 0 or q_adv < 0:
        raise InvalidScenario("m_eff and q_adv must be nonnegative")
    _, u, v = asym._cap(alpha, beta, power)
    num = m_eff * v + q_adv + 1.0
    return num / (m_eff * m_eff * u * u + num)


def decoder_gain_setting1(
    m_eff: float, q_adv: float, alpha: float, beta: float, power: float
) -> float:
    """Bayes gain for the setting-I receiver: E{S gammaY}/E{Y^2}, that is
    m u/(m^2 u^2 + m v + Q + 1)."""
    if m_eff < 0 or q_adv < 0:
        raise InvalidScenario("m_eff and q_adv must be nonnegative")
    _, u, v = asym._cap(alpha, beta, power)
    return m_eff * u / (m_eff * m_eff * u * u + m_eff * v + q_adv + 1.0)


def setting2_formula(M: float, K: float, alpha: float, beta: float, power: float) -> float:
    """The published setting-II cost as printed, (n v + 1)/(n^2 u^2 + n v + 1)
    with n = M - K: setting I's cost at (n, 0).  Raises InvalidScenario if K > M."""
    return cost_setting1(M - K, 0.0, alpha, beta, power)


def cost_setting2(M: int, K: int, alpha: float, beta: float, power: float) -> float:
    """Published Stackelberg cost of setting II (pair it with the oracle via
    solve_setting2; the two differ in the own-noise count)."""
    if K >= M:
        raise InvalidScenario(f"K must be < M (got K={K}, M={M})")
    return setting2_formula(M, K, alpha, beta, power)


def coordination_gap(
    M: int, K: int, alpha: float, beta: float, power: float
) -> tuple[float, float]:
    """(cost with coordinated jamming alpha^2 K^2 P, cost with independent
    jamming alpha^2 K P); the first is never smaller."""
    if K >= 1 and K >= M:
        raise InvalidScenario(f"K must be < M (got K={K}, M={M})")
    coord = cost_setting1(M, effective_jam_power(K, 1.0, alpha, power), alpha, beta, power)
    indep = cost_setting1(M, effective_jam_power(K, 0.0, alpha, power), alpha, beta, power)
    return coord, indep


def effective_jam_power(K: int, eta: float, alpha: float, power: float) -> float:
    """Received jamming power when K*eta adversaries coordinate and the rest
    jam independently: alpha^2 * ((K eta)^2 + K(1-eta)) * P, with
    alpha*(alpha*P) formed first: it overflows only where alpha^2*P does."""
    return alpha * (alpha * power) * ((K * eta) ** 2 + K * (1.0 - eta))


def epsilon_threshold(
    M: int, K: int, eta: float, alpha: float, beta: float, power: float
) -> float:
    """The coordination threshold epsilon0 = m/M, where the setting-I cost at
    m_eff = m against the eta-mixed jammer (received power Q) equals the
    published setting-II cost t: the positive root of the quadratic
    t b^2 m^2 - (1-t) m - (1-t)(Q+1)/(c^2 a^2) = 0.  The published formula
    gives (1-t)/(t b^2) = n x/(x+1) with n = M - K and x = n c^2 a^2, so
    m = h + hypot(h, n sqrt((Q+1)/(x+1))) with h = n x/(2(x+1)): no
    cancellation in 1 - t, no square of a large product, and m = M when K = 0.

    Raises NoRoot when the cost never reaches the target (t = 1: zero power,
    or a gain product that vanishes in floating point) and NumericalFailure
    when t or the root is not finite (a gain-power product overflows).
    """
    if K >= M:
        raise InvalidScenario(f"K must be < M (got K={K}, M={M})")
    if not 0.0 <= eta <= 1.0:
        raise InvalidScenario("eta must lie in [0, 1]")
    t = setting2_formula(M, K, alpha, beta, power)
    if not math.isfinite(t):
        raise NumericalFailure(f"setting-II target {t!r} is not finite: a gain product overflows")
    if t == 1.0:
        raise NoRoot(f"setting-I cost never reaches the target {t} (above it nowhere)")
    n = M - K
    x = n * asym._cap(alpha, beta, power)[2]  # finite, as t is
    h = 0.5 * n * x / (x + 1.0)
    q = effective_jam_power(K, eta, alpha, power)
    m = h + math.hypot(h, n * math.sqrt((q + 1.0) / (x + 1.0)))
    if not math.isfinite(m):
        raise NumericalFailure(f"received jamming power {q!r} is not finite")
    return m / M


# -- profiles and reports -----------------------------------------------------

def _common_params(s: NetworkScenario):
    sensors = s.transmitters + s.adversaries
    if not sensors:
        raise InvalidScenario("scenario has no sensors")
    p = sensors[0]
    return p.alpha, p.beta, p.power


def _saddle(s: NetworkScenario, m_eff: float, eta: float, adversary: CoordinatedNoise):
    """Setting I's saddle over the first round(m_eff) transmitters, which send
    randomized uncoded symbols at full power (the rest stay silent), against
    ``adversary``, whose K*eta coordinating sensors share one noise
    realization: (closed-form cost, profile, oracle cost)."""
    alpha, beta, power = _common_params(s)
    M, K = s.num_transmitters, s.num_adversaries
    cost = cost_setting1(m_eff, effective_jam_power(K, eta, alpha, power), alpha, beta, power)
    m_used = round(m_eff)
    profile = asym._bayes_profile(
        s, (asym._cap(alpha, beta, power)[0],) * m_used + (0.0,) * (M - m_used), True, adversary
    )
    return cost, profile, asym.direct_mmse_cost(s, profile)


def theorem1_profile(s: NetworkScenario) -> StrategyProfile:
    """Setting-I saddle strategies: randomized uncoded transmitters at full
    power, all adversaries emitting one shared Gaussian noise realization."""
    return solve_setting1(s).profile


def theorem2_profile(s: NetworkScenario) -> StrategyProfile:
    """Setting-II Stackelberg strategies: deterministic uncoded transmitters,
    adversaries mirroring with the opposite sign.  The stored decoder gain is
    the Bayes gain under the adopted observation model; the published decoder
    is recorded by solve_setting2."""
    c = asym._cap(*_common_params(s))[0]
    return asym._bayes_profile(
        s, (c,) * s.num_transmitters, False, LinearMirror(coeffs=(-c,) * s.num_adversaries)
    )


def solve_setting1(s: NetworkScenario) -> EquilibriumReport:
    """Setting-I report: closed-form cost, which equals the oracle exactly."""
    if s.setting is not Setting.SYM_I:
        raise InvalidScenario(f"solve_setting1 requires SymI, got {s.setting.value}")
    alpha, _, power = _common_params(s)
    cost, profile, oracle = _saddle(
        s, s.num_transmitters, 1.0, CoordinatedNoise(variance=power if s.num_adversaries else 0.0))
    notes = (f"|closed-form - oracle| = {abs(cost - oracle):.3e}",)
    if alpha != 1.0:
        notes += ("received jamming power evaluated as alpha^2*K^2*P [jammer-gain-alpha]",)
    return EquilibriumReport(cost=cost, profile=profile, multipliers={},
                             kkt_residuals=(), oracle_cost=oracle,
                             discrepancy_notes=notes)


def _stackelberg(s: NetworkScenario):
    """The setting-II Stackelberg point of ``s``: (published cost, profile,
    oracle cost, the note recording the delta between the two)."""
    alpha, beta, power = _common_params(s)
    printed = cost_setting2(s.num_transmitters, s.num_adversaries, alpha, beta, power)
    profile = theorem2_profile(s)
    oracle = asym.direct_mmse_cost(s, profile)
    note = (f"published cost = {printed!r}, oracle = {oracle!r}, "
            f"delta = {printed - oracle!r} [sym2-noise-term]")
    return printed, profile, oracle, note


def solve_setting2(s: NetworkScenario) -> EquilibriumReport:
    """Setting-II report: the published cost as headline, the direct oracle
    alongside, and the delta between them recorded."""
    if s.setting is not Setting.SYM_II:
        raise InvalidScenario(f"solve_setting2 requires SymII, got {s.setting.value}")
    printed, profile, oracle, note = _stackelberg(s)
    printed_gain = decoder_gain_setting1(
        s.num_transmitters - s.num_adversaries, 0.0, *_common_params(s))
    notes = (note, f"published decoder gain = {printed_gain!r}, "
                   f"Bayes gain = {profile.decoder_gain!r}")
    return EquilibriumReport(cost=printed, profile=profile, multipliers={},
                             kkt_residuals=(), oracle_cost=oracle,
                             discrepancy_notes=notes)


def setting3_branch(s: NetworkScenario) -> tuple[str, float]:
    """Which regime a setting-III scenario falls in: 'saddle' (epsilon above
    the threshold), 'stackelberg' (below), or 'tie' (within 1e-12)."""
    if s.setting is not Setting.SYM_III:
        raise InvalidScenario(f"setting3_branch requires SymIII, got {s.setting.value}")
    if s.epsilon is None or s.eta is None:
        raise InvalidScenario("SymIII scenario must carry epsilon and eta")
    alpha, beta, power = _common_params(s)
    eps0 = epsilon_threshold(s.num_transmitters, s.num_adversaries, s.eta, alpha, beta, power)
    if abs(s.epsilon - eps0) < TIE_TOL:
        return "tie", eps0
    return ("saddle" if s.epsilon > eps0 else "stackelberg"), eps0


def solve_setting3(s: NetworkScenario) -> EquilibriumReport:
    """Setting-III report, branching at the coordination threshold.

    Above the threshold: setting-I style saddle with M*epsilon randomized
    transmitters against the eta-mixed jammer.  Below: the setting-II
    Stackelberg equilibrium over all M transmitters.  Within 1e-12 of the
    threshold both branches cost the same; the saddle branch is returned with
    a tie marker and both costs in the notes.
    """
    branch, eps0 = setting3_branch(s)
    M, K = s.num_transmitters, s.num_adversaries
    m_eps0 = eps0 * M
    notes = (
        f"epsilon0 = {eps0!r} (M*epsilon0 = {m_eps0!r}, "
        f"{'integer' if abs(m_eps0 - round(m_eps0)) < INTEGER_TOL else 'non-integer'})",
    )
    if branch == "stackelberg":
        cost, profile, oracle, note = _stackelberg(s)
        notes += ("branch = stackelberg", note)
    else:
        tie = ()
        if branch == "tie":
            other_cost, _, other_oracle, _ = _stackelberg(s)
            tie = (
                f"tie: |epsilon - epsilon0| < {TIE_TOL}; both branches apply",
                f"stackelberg branch cost = {other_cost!r}, oracle = {other_oracle!r}",
            )
        cost, profile, oracle = _saddle(
            s, M * s.epsilon, s.eta, CoordinatedNoise(_common_params(s)[2], round(K * s.eta)))
        notes += (f"branch = saddle, |closed-form - oracle| = {abs(cost - oracle):.3e}",) + tie
    return EquilibriumReport(cost=cost, profile=profile, multipliers={"epsilon0": eps0},
                             kkt_residuals=(), oracle_cost=oracle,
                             discrepancy_notes=notes)
