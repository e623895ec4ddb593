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

The verification half checks the two saddle inequalities with each side's
exact best response within the linear-Gaussian class, costed from its
sufficient statistics with ``asym``'s cost core: closed forms, one 1-D root,
and for the AsymII leader the points of Theorem 5's frontier, each against
its follower solved by ``asym._adversary_response``, run as lanes.
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


# -- transmitter-side verification -------------------------------------------

def _cap(q) -> float:
    """A sensor's largest uncoded coefficient sqrt(P/(1 + beta^2))."""
    return math.sqrt(q.power / q.input_second_moment)


def _box_response(s: NetworkScenario, p: StrategyProfile, sig: float, B: float):
    """(coeffs, desc) maximizing (r_t + sig)^2/(own_t + B) within each
    sensor's budget.  The n transmitters that may transmit (in SymIII only
    the first round(M*epsilon) share a randomized profile's coin) all send
    z*sign(sig): equal coefficients give the largest r_t for their own_t
    (Cauchy-Schwarz), and (alpha*beta*n*z + |sig|)^2/(alpha^2*n*z^2 + B)
    rises in z up to B*beta/(alpha*|sig|), so z is that or the cap."""
    q = s.transmitters[0]
    sigma = abs(sig)
    z = min(_cap(q), B * q.beta / (q.alpha * sigma)) if q.alpha * sigma else _cap(q)
    z = math.copysign(z, sig)
    M = s.num_transmitters
    n = round(M * s.epsilon) if s.setting is Setting.SYM_III and p.randomized else M
    who = "every transmitter" if n == M else f"the first {n} transmitters, the rest silent,"
    return (z,) * n + (0.0,) * (M - n), f"{who} at c={z:.6g}"


def _sum_budget_response(s: NetworkScenario, sig: float, B: float):
    """(coeffs, desc) maximizing (r_t + sig)^2/(own_t + B) within the sum
    budget P_T.  The first-order conditions give c_m = t*alpha_m*beta_m /
    (alpha_m^2 + kappa*(1 + beta_m^2))*sign(sig), with t spending P_T and
    gap = |sig|*t - (B - kappa*P_T) = 0.  At sig = 0 that is Theorem 4's
    schedule at lambda = P_T/B; otherwise kappa is the root on (0, B/P_T) of
    the rising gap, or, where gap(0) >= 0, the budget is slack and
    c_m = (B/|sig|)*beta_m/alpha_m."""
    p_t = s.sum_power_transmit
    if sig == 0.0:
        lam = p_t / B
        return asym._schedule(s, lam, p_t)[2], f"schedule at lambda={lam:.6g}"
    sigma = abs(sig)
    ab = np.array([q.alpha * q.beta for q in s.transmitters])
    a2 = np.array([q.alpha ** 2 for q in s.transmitters])
    m2 = np.array([q.input_second_moment for q in s.transmitters])

    def t(kappa: float) -> float:
        return math.sqrt(p_t / float(np.sum(m2 * (ab / (a2 + kappa * m2)) ** 2)))

    def gap(kappa: float) -> float:
        return sigma * t(kappa) - (B - kappa * p_t)

    if gap(0.0) >= 0.0:
        coeffs, desc = B / sigma * ab / a2, f"c_m={B / sigma:.6g}*beta_m/alpha_m within the budget"
    else:
        kappa = asym._brentq(gap, 0.0, B / p_t)
        coeffs, desc = t(kappa) * ab / (a2 + kappa * m2), f"schedule at lambda={1.0 / kappa:.6g}"
    return math.copysign(1.0, sig) * coeffs, desc


def _frontier_response(s: NetworkScenario):
    """(cost, desc): the AsymII leader's best full-power deviation against
    its re-solved follower.  The follower's cost falls as |r_t| grows and
    rises with own_t, so every such best response lies on Theorem 5's
    frontier c(lambda3).  Its scan grid is costed as lanes, each against its
    exact follower; lanes whose follower does not exist are skipped."""
    p_t = s.sum_power_transmit
    lam3 = asym._scan_grid(p_t)
    _, c_m = asym._transmit_side(s, lam3, p_t)
    _, _, c_k, ok = asym._adversary_response(s, c_m, s.sum_power_attack)
    if not ok.any():
        return math.inf, ""
    rows = LinearMirror(coeffs=tuple(c_k[ok].T)).lower(s.adversaries)
    costs = asym._cost(*asym._transmit_stats(s, c_m[ok].T),
                       *asym._adversary_output_stats(s, *rows), False)
    i = int(np.argmin(costs))
    return float(costs[i]), f"Theorem-5 frontier at lambda3={lam3[ok][i]:.6g}"


def best_response_transmitter_search(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """The transmitters' exact best response: any coefficients within their
    budgets (each sensor's own, or the sum P_T), randomized as the profile
    is.  The cost depends on them only through r_t and own_t.

    A deterministic profile in a Stackelberg setting (SymII, SymIII's
    Stackelberg branch, AsymII) leads a re-solved follower: every symmetric
    transmitter sends at its cap and the adversaries, K < M, mirror it with
    the opposite sign (Theorem 2); in AsymII the best point of Theorem 5's
    frontier wins.  Otherwise the adversaries stay fixed with statistics
    (sig, own, jam), and the response maximizes (r_t + sig)^2/(own_t + B)
    with B = 1 + own + jam, or, as the coin turns sig into noise against
    randomized transmitters, with sig = 0 and B = 1 + sig^2 + own + jam.
    """
    base = asym.direct_mmse_cost(s, p)
    M, K = s.num_transmitters, s.num_adversaries
    if M == 0:
        return BestResponseReport(base, base, "no transmitters", "TransmitterMin")
    leader = not p.randomized and s.setting in (Setting.SYM_II, Setting.SYM_III, Setting.ASYM_II)
    if leader and s.setting is Setting.ASYM_II:
        best, desc = _frontier_response(s)
    else:
        adversary = LinearMirror(coeffs=(-_cap(s.transmitters[0]),) * K) if leader else p.adversary
        stats = sig, own, jam = asym._adversary_output_stats(s, *adversary.lower(s.adversaries))
        if p.randomized:
            sig, B = 0.0, 1.0 + sig * sig + own + jam
        else:
            B = 1.0 + own + jam
        if s.setting.is_symmetric:
            # The leader sends at its cap whatever the follower: sig = 0 aims it there.
            coeffs, desc = _box_response(s, p, 0.0 if leader else sig, B)
        else:
            coeffs, desc = _sum_budget_response(s, sig, B)
        best = float(asym._cost(*asym._transmit_stats(s, coeffs), *stats, p.randomized))
    if not best < base:
        return BestResponseReport(base, base, "no deviation lowers the cost", "TransmitterMin")
    return BestResponseReport(base, best, desc, "TransmitterMin")


def verify_saddle_point(
    s: NetworkScenario, p: StrategyProfile
) -> tuple[BestResponseReport, BestResponseReport]:
    """Run both best-response checks for a candidate equilibrium.

    A saddle certificate needs both exact best responses no better for the
    deviator than the base: the adversaries' no costlier, the transmitters'
    no cheaper.  In the Stackelberg-only settings (SymII, AsymII) only the
    leader-side report binds; the adversary report then documents why no
    saddle exists.
    """
    adv = best_response_adversary_search(s, p)
    tx = best_response_transmitter_search(s, p)
    return adv, tx
