"""Seeded Monte Carlo channel simulation and saddle-point verification.

Sampling is organized in fixed 65536-sample blocks; block j draws from its
own Philox stream keyed by (seed, j) and partial sums are reduced in block
order, so ``(seed, samples)`` determines the result bit-for-bit.  The blocks
run on one thread pool of min(blocks, CPUs this process may use) workers,
worker w taking blocks w, w + workers, ...; the worker count never changes
the result.

Per block of n samples the draws are, in order: the source (n normals), the
M+K sensing-noise rows (transmitters first, then adversaries; one n-normal
draw per sensor, each added to the transmitter or adversary part of the
received signal as it is drawn), the channel noise (n), the randomization
coin (n uniforms), then the adversary strategy's J noises
theta_0..theta_{J-1} (n each) from its linear-Gaussian form (see ``model``):
J = 1+K-n_coord for CoordinatedNoise, K for IndependentNoise and
GeneralLinearGaussian, 0 for LinearMirror.  A block holds SCRATCH_ROWS
n-vectors, never a row per sensor, and draws and computes into them in place;
the calling thread allocates them, one set per worker.

The verification half checks the two saddle inequalities: the adversaries'
exact best response within the linear-Gaussian deviation class (a closed
form, costed from its sufficient statistics with ``asym``'s cost core), and
projected random perturbations with exact follower re-solves for the
transmitters (the minimizer).  The transmitter probes run as one array pass,
one lane each.  Their followers are exact: the SymII follower is a closed
form, and the AsymII one is ``asym._adversary_response``, the Theorem-5
adversary solve, run on all probes at once as lanes with the bits of a
one-row solve.  Every probe costs the bits the per-profile oracle gives it,
and ties keep the first probe.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os

import numpy as np

from . import asym
from .model import (
    InvalidProfile,
    LinearMirror,
    NetworkScenario,
    Setting,
    StrategyProfile,
    validate_profile,
)

BLOCK_SIZE = 1 << 16
SCRATCH_ROWS = 6  # src, tx, adv, y, gamma, w: the n-vectors a block holds

# Certificate constants of the transmitter-side (and linear-adversary) local
# probes: random directions, step size and the seed of their generator.
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
    p: StrategyProfile, gains, n: int, seed: int, block: int, scratch: np.ndarray
) -> tuple[float, float]:
    """Sum of squared errors and of their squares for one sample block.

    Draw order per block is fixed (see the module docstring) so results are
    reproducible for a given (seed, block) pair.  ``gains`` comes from
    ``_block_gains``.  ``scratch`` is a (SCRATCH_ROWS, >= n) float array the
    block works in; every draw and product is written into it in place, so
    the block allocates nothing n-sized itself.
    """
    g = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    tx_src, tx_w, adv_src, adv_w, amps = gains
    src, tx, adv, y, gamma, w = scratch[:, :n]

    g.standard_normal(out=src)
    np.multiply(src, tx_src, out=tx)
    np.multiply(src, adv_src, out=adv)
    for part, row_gains in ((tx, tx_w), (adv, adv_w)):
        for gain in row_gains:
            g.standard_normal(out=w)
            if gain:
                w *= gain
                part += w
    g.standard_normal(out=y)
    g.random(out=gamma)  # the coin; drawn in every setting to keep the order

    if p.randomized:
        np.less(gamma, 0.5, out=gamma)  # 1 where coin < 1/2, else 0
        gamma *= 2.0
        gamma -= 1.0
        tx *= gamma
    y += tx
    y += adv
    for amp in amps:
        g.standard_normal(out=w)  # theta_j
        if amp:
            w *= amp
            y += w

    if p.randomized:
        y *= gamma
    y *= p.decoder_gain  # y is now the decoded estimate
    np.subtract(src, y, out=y)
    np.square(y, out=y)  # squared errors
    np.square(y, out=w)
    return float(np.sum(y)), float(np.sum(w))


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

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_blocks, cpus or 1)
    # Worker w runs blocks w, w + workers, ... in its own scratch rows.  The
    # scratch is allocated here, on the calling thread, so the workers'
    # per-thread malloc arenas never hold block-sized arrays: the process's
    # memory then does not depend on which thread ran which block, or on how
    # many arenas the short-lived pool threads happened to create.
    scratch = np.empty((workers, SCRATCH_ROWS, min(BLOCK_SIZE, samples)))
    partials = [(0.0, 0.0)] * n_blocks

    def stripe(w: int) -> None:
        for j in range(w, n_blocks, workers):
            n = min(BLOCK_SIZE, samples - j * BLOCK_SIZE)
            partials[j] = _simulate_block(p, gains, n, seed, j, scratch[w])

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(stripe, range(workers)))

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

def best_response_adversary_search(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """The adversaries' exact best response within the linear-Gaussian class.

    Adversary k may send a_k*S + b_k*W_k + s_k*theta_{j_k}, with any noises
    shared, within its own budget a^2 + b^2 + s^2 <= P_k in the symmetric
    settings and one sum budget P_A in the asymmetric ones.  A shared noise
    adds amplitudes where own sensing noise adds powers, so b_k = 0, and by
    Cauchy-Schwarz the best split aligns every adversary on one theta_0:
    adversary k sends w_k*(-sign(r_t)*u, 0, sqrt(1 - u^2)) with
    w_k = sqrt(P_k), or sqrt(P_A)*alpha_k/|alpha| under the sum budget, and
    lands the largest amplitude W = sum alpha_k*w_k.  Against randomized
    transmitters only the power W^2 counts: u = 0.  Against deterministic
    ones the source share X = u*W minimizes (r - X)^2/(N0 + W^2 - X^2) with
    r = |r_t| and N0 = 1 + own_t: X = r nulls the source term when W >= r,
    and otherwise X = min((N0 + W^2)/r, W), where the derivative vanishes.
    The attaining rows are costed by the oracle's cost core.
    """
    base = asym.direct_mmse_cost(s, p)
    K = s.num_adversaries
    if K == 0:
        return BestResponseReport(base, base, "no adversaries", "AdversaryMax")
    r_t, own_t = asym._transmit_stats(s, p.transmit_coeffs)
    alphas = [q.alpha for q in s.adversaries]
    if s.setting.is_symmetric:
        amps = [math.sqrt(q.power) for q in s.adversaries]
    else:
        norm = math.hypot(*alphas)
        amps = [math.sqrt(s.sum_power_attack) * (alpha / norm) for alpha in alphas]
    W = sum(alpha * w for alpha, w in zip(alphas, amps))
    r = abs(r_t)
    if p.randomized or W == 0.0:
        u = 0.0
    elif W >= r:
        u = r / W
    else:
        # u = min((N0 + W^2)/(r*W), 1), written so that no division is by 0.
        n0_w2, rw = 1.0 + own_t + W * W, r * W
        u = n0_w2 / rw if rw > n0_w2 else 1.0
    a = -math.copysign(u, r_t) if u else 0.0  # never -0.0, so the text reads a=0
    ss = math.sqrt(1.0 - u * u)
    rows = [(w * a, 0.0, w * ss, 0) for w in amps]
    best = asym._cost(r_t, own_t, *asym._adversary_output_stats(s, rows, 1), p.randomized)
    if not best > base:
        return BestResponseReport(base, base, "no deviation improves on the profile", "AdversaryMax")
    if s.setting.is_symmetric:
        desc = f"shared triple (a={amps[0] * a:.6g}, b=0, s={amps[0] * ss:.6g}) on one noise"
    else:
        root = math.sqrt(s.sum_power_attack)
        desc = (f"triple (a={root * a:.6g}, b=0, s={root * ss:.6g}) split as alpha_k/|alpha| "
                f"on one noise")
    return BestResponseReport(base, best, desc, "AdversaryMax")


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
    """Exact best deterministic-linear follower for setting II, in closed form.

    The adversaries are identical, so the cost depends on their coefficients
    only through sum c_k (which moves the source coefficient
    x = r_t + alpha*beta*sum c_k) and sum c_k^2 (their own-noise power), and
    it rises as |x| falls and as sum c_k^2 grows.  When
    K*cap*alpha*beta < |r_t| the follower cannot cancel x: every coefficient
    sits at -sign(r_t)*cap.  Otherwise it cancels x and the cost is 1; the
    answer is the first sign split (n_minus = 0..K-1 coefficients at -cap,
    the rest but the last at +cap) whose last coefficient
    t = -r_t/(alpha*beta) - sum(fixed) lies in [-cap, cap].
    """
    K = s.num_adversaries
    if K == 0:
        return ()
    q = s.adversaries[0]
    cap = math.sqrt(q.power / q.input_second_moment)
    ab = q.alpha * q.beta
    r_t, _ = asym._transmit_stats(s, transmit_coeffs)
    saturated = (-math.copysign(cap, r_t),) * K
    # ab is 0 only where alpha*beta underflows: the coefficients then move x
    # by no more than rounding, and the cancelling split would divide by 0.
    if ab == 0.0 or K * cap * ab < abs(r_t):
        return saturated
    target = -r_t / ab
    for n_minus in range(K):
        t = target - (K - 1 - 2 * n_minus) * cap
        if -cap <= t <= cap:
            return (-cap,) * n_minus + (cap,) * (K - 1 - n_minus) + (t,)
    return saturated  # |r_t| = K*cap*alpha*beta up to rounding: x is 0 there too


def _follower_stats(s: NetworkScenario, trials: np.ndarray, fixed):
    """(stats, ok): the adversary statistics of the follower re-solved within
    its class against each row of the transmit coefficient lanes ``trials``,
    over the lanes where ok holds.  ok is False where the AsymII adversary
    system has no root or a singular denominator.  Where the follower does
    not depend on the transmit coefficients (SymI, SymIII, AsymI: full-power
    noise or best-channel allocation) the statistics are ``fixed``."""
    ok = np.ones(len(trials), dtype=bool)
    if s.setting is Setting.SYM_II:
        response = np.array([follower_best_response_sym2(s, tuple(t.tolist())) for t in trials])
    elif s.setting is Setting.ASYM_II:
        _, _, c_k, ok = asym._adversary_response(s, trials, s.sum_power_attack)
        response = c_k[ok]
    else:
        return fixed, ok
    # One coefficient lane array per adversary, lowered as LinearMirror rows.
    lowered = LinearMirror(coeffs=tuple(response.T)).lower(s.adversaries)
    return asym._adversary_output_stats(s, *lowered), ok


def best_response_transmitter_search(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """Probe ``PROBE_DIRECTIONS`` random feasible transmit perturbations at
    step ``PROBE_STEP``; at a claimed equilibrium none may reduce the cost by
    more than the caller's tolerance.

    Feasibility is preserved by projection: per-sensor box clipping in the
    symmetric settings, rescaling to the sum-power sphere in the asymmetric
    ones.  The adversary best-responds within its allowed class for every
    probe.  The probes run as lanes of one array pass; probes whose rescaling
    or follower does not exist are skipped, and the first strict minimum
    wins.
    """
    coeffs = np.asarray(p.transmit_coeffs, dtype=float)
    M = coeffs.shape[0]
    base = asym.direct_mmse_cost(s, p)
    if M == 0:
        return BestResponseReport(base, base, "no transmitters", "TransmitterMin")

    rng = np.random.default_rng(PROBE_SEED)
    trials = coeffs + PROBE_STEP * rng.standard_normal((PROBE_DIRECTIONS, M))
    lanes = np.arange(PROBE_DIRECTIONS)
    if s.setting.is_symmetric:
        caps = np.array([math.sqrt(q.power / q.input_second_moment) for q in s.transmitters])
        trials = np.clip(trials, -caps, caps)
    else:
        m2 = np.array([q.input_second_moment for q in s.transmitters])
        norms = np.sum(m2 * trials**2, axis=1)
        lanes = lanes[norms > 0.0]
        trials = trials[lanes] * np.sqrt(s.sum_power_transmit / norms[lanes])[:, None]
    fixed = asym._adversary_output_stats(s, *p.adversary.lower(s.adversaries))
    stats, ok = _follower_stats(s, trials, fixed)
    costs = asym._cost(*asym._transmit_stats(s, trials[ok].T), *stats, p.randomized)
    if costs.size:
        i = int(np.argmin(costs))
        if costs[i] < base:
            return BestResponseReport(base, float(costs[i]),
                                      f"coefficient perturbation #{lanes[ok][i]}",
                                      "TransmitterMin")
    return BestResponseReport(base, base, "no perturbation lowers the cost", "TransmitterMin")


def verify_saddle_point(
    s: NetworkScenario, p: StrategyProfile
) -> tuple[BestResponseReport, BestResponseReport]:
    """Run both best-response checks for a candidate equilibrium.

    A saddle certificate needs both: the adversaries' exact best response
    no costlier than the base, and no transmitter deviation below base - a
    local-stationarity tolerance the caller picks.  In the Stackelberg-only
    settings (SymII, AsymII) only the leader-side report binds; the
    adversary report then documents why no saddle exists, and follower
    consistency is checked separately with ``adversary_local_probe`` /
    ``follower_best_response_sym2``.
    """
    adv = best_response_adversary_search(s, p)
    tx = best_response_transmitter_search(s, p)
    return adv, tx
