"""Seeded Monte Carlo channel simulation and saddle-point verification.

Sampling is organized in fixed 65536-sample blocks; block j draws from its
own Philox stream keyed by (seed, j) and partial sums are reduced in block
order, so ``(seed, samples)`` determines the result bit-for-bit.  The blocks
run on one thread pool of min(blocks, CPUs this process may use) workers;
the worker count never changes the result.

Per block of n samples the draws are, in order: the source (n normals), the
M+K sensing-noise rows (transmitters first, then adversaries; one n-normal
draw per sensor, each added to the transmitter or adversary part of the
received signal as it is drawn), the channel noise (n), the randomization
coin (n uniforms), then the adversary strategy's J noises
theta_0..theta_{J-1} (n each) from its linear-Gaussian form (see ``model``):
J = 1+K-n_coord for CoordinatedNoise, K for IndependentNoise and
GeneralLinearGaussian, 0 for LinearMirror.  A block holds a few n-vectors,
never a row per sensor.

The verification half probes the two saddle inequalities: a grid sweep over
the linear-Gaussian deviation class for the adversary (maximizer) and
projected random perturbations with exact follower re-solves for the
transmitters (minimizer).  Candidates are evaluated from their sufficient
statistics with ``asym``'s cost core, not as profiles: each deviation grid
is one array pass, and the SymII follower's scalar search adds one
adversary's terms to sums cached per sign split.  Every candidate costs the
bits the per-profile oracle gives it, and ties keep the first candidate.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os

import numpy as np
from scipy.optimize import minimize_scalar

from . import asym
from .model import (
    CoordinatedNoise,
    GeneralLinearGaussian,
    IndependentNoise,
    InvalidProfile,
    LinearMirror,
    NetworkScenario,
    NonConvergence,
    Setting,
    SingularDenominator,
    StrategyProfile,
    validate_profile,
)

BLOCK_SIZE = 1 << 16

# Certificate constants: points per axis of the adversary deviation grid over
# the power disc, and the transmitter-side (and linear-adversary) local
# probes: random directions, step size and the seed of their generator.
GRID_POINTS_PER_AXIS = 21
PROBE_DIRECTIONS = 50
PROBE_STEP = 1e-3
PROBE_SEED = 0


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    empirical_mse: float
    standard_error: float
    samples: int
    seed: int


@dataclasses.dataclass(frozen=True)
class BestResponseReport:
    base_cost: float
    best_deviation_cost: float
    deviation_params: str
    direction: str  # "AdversaryMax" or "TransmitterMin"


def _block_gains(s: NetworkScenario, p: StrategyProfile):
    """(tx_src, tx_w, adv_src, adv_w, amps): the received-signal gains every
    block uses.  The transmitter part of Y is tx_src*S + sum_m tx_w[m]*W_m,
    the adversary part adv_src*S + sum_k adv_w[k]*W_{M+k} +
    sum_j amps[j]*theta_j.  Computed once on the calling thread, so the
    worker threads call only numpy and a tracer wrapping the package's
    public functions (perfbench) never sees a call from them.
    """
    rows, n_noises = p.adversary.lower(s.adversaries)
    amps = [0.0] * n_noises
    for q, (_, _, ss, j) in zip(s.adversaries, rows):
        if ss:
            amps[j] += q.alpha * ss
    tx = list(zip(s.transmitters, p.transmit_coeffs))
    adv = list(zip(s.adversaries, rows))
    return (sum(q.alpha * c * q.beta for q, c in tx), [q.alpha * c for q, c in tx],
            sum(q.alpha * a for q, (a, _, _, _) in adv), [q.alpha * b for q, (_, b, _, _) in adv],
            amps)


def _simulate_block(
    p: StrategyProfile, gains, n: int, seed: int, block: int
) -> tuple[float, float]:
    """Sum of squared errors and of their squares for one sample block.

    Draw order per block is fixed (see the module docstring) so results are
    reproducible for a given (seed, block) pair.  ``gains`` comes from
    ``_block_gains``.
    """
    g = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    tx_src, tx_w, adv_src, adv_w, amps = gains

    src = g.standard_normal(n)
    tx = tx_src * src
    adv = adv_src * src
    for part, row_gains in ((tx, tx_w), (adv, adv_w)):
        for gain in row_gains:
            w = g.standard_normal(n)
            if gain:
                part += gain * w
    y = g.standard_normal(n)
    coin = g.random(n)
    gamma = np.where(coin < 0.5, 1.0, -1.0)

    if p.randomized:
        tx *= gamma
    y += tx
    y += adv
    for amp in amps:
        theta = g.standard_normal(n)
        if amp:
            y += amp * theta

    decoded = p.decoder_gain * (gamma * y if p.randomized else y)
    err2 = (src - decoded) ** 2
    return float(np.sum(err2)), float(np.sum(err2**2))


def run_monte_carlo(
    s: NetworkScenario, p: StrategyProfile, samples: int, seed: int
) -> MonteCarloResult:
    """Empirical MSE of ``p`` from ``samples`` i.i.d. channel uses.

    Identical (seed, samples) give bit-identical results for any number of
    workers; the standard error is the sample standard deviation of the
    squared errors divided by sqrt(samples).
    """
    if samples < 1:
        raise InvalidProfile("samples must be >= 1")
    if not 0 <= seed < 2**64:
        raise InvalidProfile("seed must be an unsigned 64-bit integer")
    validate_profile(s, p)
    gains = _block_gains(s, p)

    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE

    def block(j: int) -> tuple[float, float]:
        return _simulate_block(p, gains, min(BLOCK_SIZE, samples - j * BLOCK_SIZE), seed, j)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with concurrent.futures.ThreadPoolExecutor(max_workers=min(n_blocks, cpus or 1)) as pool:
        partials = list(pool.map(block, range(n_blocks)))

    sum_e2 = 0.0
    sum_e4 = 0.0
    for a, b in partials:
        sum_e2 += a
        sum_e4 += b
    mean = sum_e2 / samples
    if samples > 1:
        var = max(0.0, (sum_e4 - samples * mean * mean) / (samples - 1))
        se = math.sqrt(var / samples)
    else:
        se = 0.0
    return MonteCarloResult(empirical_mse=mean, standard_error=se, samples=samples, seed=seed)


# -- adversary-side verification ---------------------------------------------

def _disc_grid(points: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of the grid points in the unit disc, u-major."""
    axis = np.linspace(-1.0, 1.0, points)
    u, v = (x.ravel() for x in np.meshgrid(axis, axis, indexing="ij"))
    inside = u * u + v * v <= 1.0 + 1e-12
    return u[inside], v[inside]


def best_response_adversary_search(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """Sweep adversary deviations and report the costliest one.

    The deviation class is linear-Gaussian: each adversary k plays
    a*S + b*W_k + s*theta_k with the noise component saturating the power
    budget (pure-noise deviations never benefit from slack power).  In the
    symmetric settings all adversaries share the triple against per-sensor
    budgets; explicit coordinated/independent full-power noise candidates are
    added so coordinated optima outside the independent-theta class are
    covered.  In the asymmetric settings the sum budget is swept across
    single sensors and uniform splits.
    """
    base = asym.direct_mmse_cost(s, p)
    K = s.num_adversaries
    if K == 0:
        return BestResponseReport(base, base, "no adversaries", "AdversaryMax")
    r_t, own_t = asym._transmit_stats(s, p.transmit_coeffs)

    def cost(lowered) -> np.ndarray:
        stats = asym._adversary_output_stats(s, *lowered)
        return np.atleast_1d(asym._cost(r_t, own_t, *stats, p.randomized))

    families = []  # (costs, description of candidate i) per family, in sweep order
    symmetric = s.setting.is_symmetric
    budget = s.adversaries[0].power if symmetric else s.sum_power_attack or 0.0
    root = math.sqrt(budget)
    u, v = _disc_grid(GRID_POINTS_PER_AXIS)
    a, b = u * root, v * root
    ss = np.sqrt(np.maximum(budget - a * a - b * b, 0.0))

    def triple(prefix: str):
        return lambda i: (f"{prefix} triple (a={float(a[i]):.6g}, b={float(b[i]):.6g}, "
                          f"s={float(ss[i]):.6g})")

    with np.errstate(over="ignore", invalid="ignore"):
        if symmetric:
            families.append((cost(GeneralLinearGaussian(triples=((0.0, 0.0, root),) * K)
                                  .lower(s.adversaries)),
                             lambda i: "shared triple (a=0, b=0, s=full)"))
            families.append((cost(CoordinatedNoise(variance=budget).lower(s.adversaries)),
                             lambda i: "coordinated full-power noise"))
            families.append((cost(IndependentNoise(variances=(budget,) * K).lower(s.adversaries)),
                             lambda i: "independent full-power noise"))
            families.append((cost(([(a, b, ss, k) for k in range(K)], K)), triple("shared")))
        else:
            # Lane j: all the noise power on adversary j.
            single = [(0.0, 0.0, np.where(np.arange(K) == k, root, 0.0), k) for k in range(K)]
            families.append((cost((single, K)), lambda j: f"all noise power on adversary {j}"))
            families.append((cost(CoordinatedNoise(variance=budget / K).lower(s.adversaries)),
                             lambda i: "uniform coordinated noise"))
            for j in range(K):
                rows = [(a, b, ss, k) if k == j else (0.0, 0.0, 0.0, k) for k in range(K)]
                families.append((cost((rows, K)), triple(f"adversary {j}")))

    costs = np.concatenate([c for c, _ in families])
    i = int(np.argmax(costs))
    if not costs[i] > base:
        return BestResponseReport(base, base, "no deviation improves on the profile", "AdversaryMax")
    best = float(costs[i])
    for family, describe in families:
        if i < len(family):
            return BestResponseReport(base, best, describe(i), "AdversaryMax")
        i -= len(family)


def adversary_local_probe(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """Local maximality check for a linear adversary: ``PROBE_DIRECTIONS``
    random perturbations of its coefficients at step ``PROBE_STEP``, rescaled
    back to the attack power sphere, must not increase the cost beyond the
    caller's tolerance."""
    if not isinstance(p.adversary, LinearMirror):
        raise InvalidProfile("adversary_local_probe needs a linear adversary")
    base = asym.direct_mmse_cost(s, p)
    r_t, own_t = asym._transmit_stats(s, p.transmit_coeffs)
    coeffs = np.asarray(p.adversary.coeffs, dtype=float)
    m2 = np.array([q.input_second_moment for q in s.adversaries])
    power = float(np.sum(m2 * coeffs**2))
    rng = np.random.default_rng(PROBE_SEED)
    best_cost = base
    best_desc = "no perturbation raises the cost"
    for i in range(PROBE_DIRECTIONS):
        d = rng.standard_normal(coeffs.shape[0])
        trial = coeffs + PROBE_STEP * d
        norm = float(np.sum(m2 * trial**2))
        if norm <= 0.0:
            continue
        trial = trial * math.sqrt(power / norm)
        lowered = LinearMirror(coeffs=tuple(float(c) for c in trial)).lower(s.adversaries)
        cost = asym._cost(r_t, own_t, *asym._adversary_output_stats(s, *lowered), p.randomized)
        if cost > best_cost:
            best_cost = cost
            best_desc = f"coefficient perturbation #{i}"
    return BestResponseReport(base, best_cost, best_desc, "AdversaryMax")


# -- transmitter-side verification -------------------------------------------

def follower_best_response_sym2(
    s: NetworkScenario, transmit_coeffs
) -> tuple[float, ...]:
    """Exact best deterministic-linear follower for setting II.

    The cost is increasing in the adversaries' total squared coefficient at a
    fixed coefficient sum, so the optimum is bang-bang: all coefficients at
    the per-sensor cap except at most one interior.  Enumerate sign splits
    and optimize the single interior coefficient (the last adversary's), with
    the others' statistics summed once per split.
    """
    K = s.num_adversaries
    if K == 0:
        return ()
    cap = math.sqrt(s.adversaries[0].power / s.adversaries[0].input_second_moment)
    r_t, own_t = asym._transmit_stats(s, transmit_coeffs)
    last = s.adversaries[-1]

    def prefix_stats(fixed: tuple[float, ...]) -> tuple[float, float]:
        """(sig, own) of adversaries 0..K-2 playing ``fixed``."""
        rows, _ = LinearMirror(coeffs=fixed + (0.0,)).lower(s.adversaries)
        sig, own, _ = asym._adversary_output_stats(s, rows[:-1], 0)
        return sig, own

    def cost_of(prefix: tuple[float, float], t: float) -> float:
        # The last adversary adds its LinearMirror row (t*beta, t, 0, 0).
        sig, own = prefix
        return asym._cost(r_t, own_t, sig + last.alpha * (t * last.beta),
                          own + last.alpha * last.alpha * t * t, 0.0, False)

    best_coeffs = (-cap,) * K
    best = cost_of(prefix_stats(best_coeffs[:-1]), -cap)
    for n_minus in range(K):
        fixed = (-cap,) * n_minus + (cap,) * (K - 1 - n_minus)
        prefix = prefix_stats(fixed)
        res = minimize_scalar(lambda t: -cost_of(prefix, t), bounds=(-cap, cap),
                              method="bounded", options={"xatol": 1e-12})
        for t in (float(res.x), -cap, cap):
            val = cost_of(prefix, t)
            if val > best:
                best = val
                best_coeffs = fixed + (t,)
    return best_coeffs


def _follower_stats(s: NetworkScenario, coeffs: np.ndarray, fixed):
    """Adversary statistics of the follower re-solved within its class
    against transmit coefficients ``coeffs``, or ``fixed`` where the follower
    does not depend on them (SymI, SymIII, AsymI: full-power noise or
    best-channel allocation)."""
    if s.setting is Setting.SYM_II:
        response = follower_best_response_sym2(s, tuple(float(c) for c in coeffs))
    elif s.setting is Setting.ASYM_II:
        _, _, c_k = asym.adversary_linear_response(s, coeffs, s.sum_power_attack)
        response = tuple(float(c) for c in c_k)
    else:
        return fixed
    return asym._adversary_output_stats(s, *LinearMirror(coeffs=response).lower(s.adversaries))


def best_response_transmitter_search(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """Probe ``PROBE_DIRECTIONS`` random feasible transmit perturbations at
    step ``PROBE_STEP``; at a claimed equilibrium none may reduce the cost by
    more than the caller's tolerance.

    Feasibility is preserved by projection: per-sensor box clipping in the
    symmetric settings, rescaling to the sum-power sphere in the asymmetric
    ones.  The adversary best-responds within its allowed class for every
    probe.
    """
    coeffs = np.asarray(p.transmit_coeffs, dtype=float)
    M = coeffs.shape[0]
    base = asym.direct_mmse_cost(s, p)
    if M == 0:
        return BestResponseReport(base, base, "no transmitters", "TransmitterMin")

    if s.setting.is_symmetric:
        caps = np.array([math.sqrt(q.power / q.input_second_moment) for q in s.transmitters])
    else:
        m2 = np.array([q.input_second_moment for q in s.transmitters])
    fixed = asym._adversary_output_stats(s, *p.adversary.lower(s.adversaries))
    rng = np.random.default_rng(PROBE_SEED)
    best_cost = base
    best_desc = "no perturbation lowers the cost"
    for i in range(PROBE_DIRECTIONS):
        d = rng.standard_normal(M)
        trial = coeffs + PROBE_STEP * d
        if s.setting.is_symmetric:
            trial = np.clip(trial, -caps, caps)
        else:
            norm = float(np.sum(m2 * trial**2))
            if norm <= 0.0:
                continue
            trial = trial * math.sqrt(s.sum_power_transmit / norm)
        try:
            stats = _follower_stats(s, trial, fixed)
        except (NonConvergence, SingularDenominator):
            continue
        cost = asym._cost(*asym._transmit_stats(s, tuple(float(c) for c in trial)), *stats,
                          p.randomized)
        if cost < best_cost:
            best_cost = cost
            best_desc = f"coefficient perturbation #{i}"
    return BestResponseReport(base, best_cost, best_desc, "TransmitterMin")


def verify_saddle_point(
    s: NetworkScenario, p: StrategyProfile
) -> tuple[BestResponseReport, BestResponseReport]:
    """Run both best-response checks for a candidate equilibrium.

    A saddle certificate needs both: no adversary deviation above
    base + a grid-resolution tolerance, no transmitter deviation below
    base - a local-stationarity tolerance; the caller picks both.  In the Stackelberg-only settings (SymII, AsymII) only the
    leader-side report binds; the adversary grid report then documents why no
    saddle exists, and follower consistency is checked separately with
    ``adversary_local_probe`` / ``follower_best_response_sym2``.
    """
    adv = best_response_adversary_search(s, p)
    tx = best_response_transmitter_search(s, p)
    return adv, tx
