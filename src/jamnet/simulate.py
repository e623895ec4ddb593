"""Seeded Monte Carlo channel simulation and saddle-point verification.

Sampling is organized in fixed 16384-sample blocks; block j draws from its
own SFC64 stream seeded by SeedSequence([seed, j]) and partial sums are
reduced in block order, so ``(seed, samples)`` determines the result
bit-for-bit.  The blocks run in min(blocks, CPUs this process may use)
stripes, stripe w taking blocks w, w + workers, ...: the calling thread runs
stripe 0 and one thread each the others; the worker count never changes the
result.

The received signal is Y = (tx_src*S + sum_m alpha_m*c_m*W_m) +
(adv_src*S + sum_k alpha_k*c_k*W_{M+k} + sum_j amp_j*theta_j) + Z, the
transmitter part multiplied by the randomization coin gamma = +-1 where the
profile is randomized, and the receiver decodes gamma*Y (gamma = 1 for a
deterministic profile).  The sensing noises W, the noises theta_j and Z are
independent zero-mean Gaussians, independent of S and of the coin, with
amp_j the summed amplitude on theta_j of the adversary strategy's
linear-Gaussian form (see ``model``).  Write N_t and N_r for the summed
noise of the transmitter part and of the rest, each scaled to unit
variance.  In gamma*Y the transmitter part enters as is (gamma^2 = 1) and
the rest's noise as gamma*N_r; N_r is symmetric and independent of the
coin, so gamma*N_r is a standard normal independent of (S, gamma, N_t).  A
sum of independent zero-mean Gaussians is one zero-mean Gaussian whose
variance is the sum of theirs, so

    gamma*Y = (tx_src + gamma*adv_src)*S + sd*N,
    sd = hypot(alpha_m*c_m, alpha_k*c_k, 1, amp_j),

with N one standard normal.  The joint law of (S, coin, error) is
unchanged, so the draw is exact in distribution, and a block costs the same
for any M, K and adversary strategy.  The coin only selects one of the two
source gains tx_src + adv_src and tx_src - adv_src, each formed once as a
float.

Per block of n samples the draws are, in order: the source (n normals), the
randomization coin (n uniforms), drawn only for a randomized profile, and
the noise (n normals).  A block holds SCRATCH_ROWS n-vectors and draws and
computes into them in place; the calling thread allocates them, one set per
worker.

The verification half checks the two saddle inequalities with each side's
exact best response within the linear-Gaussian class, costed from its
sufficient statistics with ``asym``'s cost core: for the adversaries, c_k*U_k
plus a shared noise, in closed form or as Theorem 5's follower; for the
transmitters, closed forms, one 1-D root, and for the AsymII leader the
points of Theorem 5's frontier, each against its follower, run as lanes.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading

import numpy as np

from . import asym
from .model import (
    InvalidProfile,
    NetworkScenario,
    NonConvergence,
    Setting,
    StrategyProfile,
    validate_profile,
)

BLOCK_SIZE = 1 << 14
SCRATCH_ROWS = 3  # src, y, w: the n-vectors a block holds
ROUNDING = 1e-13  # a cost gain below this is rounding (1 - ratio rounds near 1e-16)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's CPU count.  Sizes the Monte Carlo block pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    """(tx_src, adv_src, sd): the received-signal gains every block uses.
    The receiver's statistic is (tx_src + gamma*adv_src)*S + sd*N, with N
    one standard normal standing for the summed sensing, adversary and
    channel noises (see the module docstring).  ``math.hypot`` forms the
    root without squaring, so it is finite wherever the root is.  Computed
    once on the calling thread, so the worker threads call only numpy and a
    tracer wrapping the package's public functions (perfbench) never sees a
    call from them.
    """
    rows = p.adversary.lower(s.adversaries)
    amps = {}  # noise index -> summed amplitude
    for q, (_, ss, j) in zip(s.adversaries, rows):
        amps[j] = amps.get(j, 0.0) + q.alpha * ss
    tx = list(zip(s.transmitters, p.transmit_coeffs))
    adv = [(q, c) for q, (c, _, _) in zip(s.adversaries, rows)]
    return (sum(q.alpha * c * q.beta for q, c in tx),
            sum(q.alpha * (c * q.beta) for q, c in adv),
            math.hypot(*(q.alpha * c for q, c in tx + adv), 1.0, *(amps[j] for j in sorted(amps))))


def _block_stream(seed: int, block: int) -> np.random.Generator:
    """The random stream of one block: SFC64 seeded by
    SeedSequence([seed, block]).  SFC64 is not counter-based, so the
    independence of distinct keys rests on SeedSequence's hashing."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block])))


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
    g = _block_stream(seed, block)
    tx_src, adv_src, sd = gains
    src, y, w = scratch[:, :n]

    g.standard_normal(out=src)
    if p.randomized:
        g.random(out=w)  # the coin, drawn only when it is used
        np.less(w, 0.5, out=w)  # 1 where coin < 1/2, else 0
        w *= 2.0
        w -= 1.0  # gamma
        # gamma*adv_src is +-adv_src exactly, so each sample's gain is
        # exactly the float tx_src + adv_src or tx_src - adv_src.
        w *= adv_src
        w += tx_src
        w *= src
    else:
        np.multiply(src, tx_src + adv_src, out=w)
    g.standard_normal(out=y)
    y *= sd
    y += w  # y is now gamma*Y, in distribution
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
    squared errors divided by sqrt(samples), so ``samples`` must be at least 2.
    """
    if samples < 2:
        raise InvalidProfile("samples must be >= 2")
    if not 0 <= seed < 2**64:
        raise InvalidProfile("seed must be an unsigned 64-bit integer")
    validate_profile(s, p)
    gains = _block_gains(s, p)

    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE

    workers = min(n_blocks, _usable_cpus())
    # Stripe w runs blocks w, w + workers, ... in its own scratch rows.  The
    # scratch is allocated here, on the calling thread, so the threads'
    # per-thread malloc arenas never hold block-sized arrays: the process's
    # memory then does not depend on which thread ran which block, or on how
    # many arenas the short-lived threads happened to create.
    scratch = np.empty((workers, SCRATCH_ROWS, min(BLOCK_SIZE, samples)))
    partials = [(0.0, 0.0)] * n_blocks
    failures: list[BaseException | None] = [None] * workers

    def stripe(w: int) -> None:
        try:
            for j in range(w, n_blocks, workers):
                n = min(BLOCK_SIZE, samples - j * BLOCK_SIZE)
                partials[j] = _simulate_block(p, gains, n, seed, j, scratch[w])
        except BaseException as exc:  # re-raised below, once every stripe has ended
            failures[w] = exc

    threads = [threading.Thread(target=stripe, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    stripe(0)
    for thread in threads:
        thread.join()
    for exc in failures:
        if exc is not None:
            raise exc

    sum_e2 = 0.0
    sum_e4 = 0.0
    for a, b in partials:
        sum_e2 += a
        sum_e4 += b
    mean = sum_e2 / samples
    var = max(0.0, (sum_e4 - samples * mean * mean) / (samples - 1))
    se = math.sqrt(var / samples)
    return MonteCarloResult(empirical_mse=mean, standard_error=se, samples=samples, seed=seed)


# -- adversary-side verification ---------------------------------------------

def _values(xs) -> str:
    """One 6-digit value where all of ``xs`` print alike, else the tuple."""
    text = [f"{x:.6g}" for x in xs]
    return text[0] if len(set(text)) == 1 else "(" + ", ".join(text) + ")"


def best_response_adversary_search(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """The adversaries' exact best response within the realizable class.

    Adversary k sees the source only through U_k = beta_k*S + W_k, so it
    sends c_k*U_k plus its share of one shared noise theta_0, within one sum
    budget P: P_A, or sum P_k in the symmetric settings, whose identical
    sensors make the sum-budget optimum symmetric, so it meets each P_k.
    The noise lands the whole rest of the budget, w^2*(P - sum m_k*c_k^2)
    with w = |alpha| and m_k = 1 + beta_k^2, so against deterministic
    transmitters c minimizes (r_t + sum a_k*c_k)^2/(B - sum g_k*c_k^2), with
    a_k = alpha_k*beta_k, g_k = w^2*m_k - alpha_k^2, B = 1 + own_t + w^2*P.
    The branches: noise only against randomized transmitters (gamma =
    sum a_k^2/g_k <= 1 makes c = 0 best), or where r_t = 0 or P = 0; the
    one critical point c_k = -sign(r_t)*X*(a_k/g_k)/gamma at
    X = B*gamma/|r_t| where it fits the budget; else Theorem 5's follower
    (``asym._follower``), with no noise left, or, where its solve
    finds that the budget nulls the source (r_t^2 <= P*sum a_k^2/m_k), the
    source nulled, cost 1, with the least power, c_k ~ u_k/sqrt(m_k) on the
    unit sphere of ``asym._sphere``.  The critical point never fits the
    budget where the source can be nulled, since B > w^2*P and g_k <=
    w^2*m_k put its power above P.  Sensor k's noise amplitude is
    sqrt(P)*alpha_k/w.  The attaining rows are costed by the oracle's cost
    core; a gain over the base below ROUNDING (a point of the budget that
    recomputes the profile's own, an ulp off) is no deviation.
    """
    base = asym.direct_mmse_cost(s, p)
    if not s.adversaries:
        return BestResponseReport(base, base, "no adversaries", "AdversaryMax")
    r_t, own_t = asym._transmit_stats(s, p.transmit_coeffs)
    alpha = np.array([q.alpha for q in s.adversaries])
    beta = np.array([q.beta for q in s.adversaries])
    m2 = np.array([q.input_second_moment for q in s.adversaries])
    w = math.hypot(*alpha)
    budget = sum(q.power for q in s.adversaries) if s.setting.is_symmetric else s.sum_power_attack
    c = np.zeros(len(alpha))
    with np.errstate(all="ignore"):  # a nonfinite interior point fails the budget test
        if p.randomized or r_t == 0.0 or budget == 0.0:
            branch = "noise only"
        else:
            # X*(a_k/g_k)/gamma = B*a_k/(|r_t|*g_k); w^2*beta^2 + (w^2 - alpha^2) is exact at K = 1.
            w2 = w * w
            g = w2 * (beta * beta) + (w2 - alpha * alpha)
            branch, c = "interior", -(1.0 + own_t + w2 * budget) / r_t * (alpha * beta / g)
        if branch == "interior" and not np.sum(m2 * c * c) <= budget:
            try:
                branch, c = "Theorem-5 follower", asym._follower(s, budget)(
                    np.asarray(p.transmit_coeffs))[2]
            except NonConvergence:  # the budget nulls the source
                root, u, _ = asym._sphere(s, budget)
                span = np.hypot.reduce(u)
                branch, c = "source nulled", -(r_t / span) * (u / span) * root
        # The share of the budget left for the shared noise (1 where c = 0).
        spare = 0.0 if branch == "Theorem-5 follower" else max(0.0, 1.0 - np.sum(m2 * c * c) / budget)
    noise = [math.sqrt(budget) * (q.alpha / w) * math.sqrt(spare) for q in s.adversaries]
    rows = [(float(ck) + 0.0, sk, 0) for ck, sk in zip(c, noise)]  # + 0.0: no -0 in the text
    best = asym._cost(r_t, own_t, *asym._adversary_output_stats(s, rows), p.randomized)
    if not best > base + ROUNDING:
        return BestResponseReport(base, base, "no deviation improves on the profile", "AdversaryMax")
    desc = f"{branch}: c_k={_values([r[0] for r in rows])} on U_k, s_k={_values(noise)} on one shared noise"
    return BestResponseReport(base, best, desc, "AdversaryMax")


# -- transmitter-side verification -------------------------------------------

def _box_response(s: NetworkScenario, p: StrategyProfile, sig: float, B: float):
    """(coeffs, desc) maximizing (r_t + sig)^2/(own_t + B) within each
    sensor's budget.  The n transmitters that may transmit (in SymIII only
    the first round(M*epsilon) share a randomized profile's coin) all send
    z*sign(sig): equal coefficients give the largest r_t for their own_t
    (Cauchy-Schwarz), and (alpha*beta*n*z + |sig|)^2/(alpha^2*n*z^2 + B)
    rises in z up to B*beta/(alpha*|sig|), so z is that or the cap."""
    q = s.transmitters[0]
    sigma = abs(sig)
    cap = asym._cap(q.alpha, q.beta, q.power)[0]
    z = min(cap, B * q.beta / (q.alpha * sigma)) if q.alpha * sigma else cap
    z = math.copysign(z, sig)
    M = s.num_transmitters
    n = round(M * s.epsilon) if s.setting is Setting.SYM_III and p.randomized else M
    who = "every transmitter" if n == M else f"the first {n} transmitters, the rest silent,"
    return (z,) * n + (0.0,) * (M - n), f"{who} at c={z:.6g}"


def _sum_budget_response(s: NetworkScenario, sig: float, B: float):
    """(coeffs, desc) maximizing (r_t + sig)^2/(own_t + B) within the sum
    budget P_T.  The first-order conditions give ``asym._schedule`` at some
    lambda, times sign(sig).  At sig = 0, lambda = P_T/B.  Otherwise the
    slack point c_m = (B/|sig|)*beta_m/alpha_m is the answer where it fits
    the budget; else kappa = 1/lambda is the root on (0, B/P_T) of the
    rising gap = |sig|*kappa*scale/2 - (B - kappa*P_T), whose value at
    kappa = 0 is B*(sqrt(P_T/used) - 1), used the slack point's power."""
    p_t = s.sum_power_transmit
    if sig == 0.0:
        lam = p_t / B
        return asym._schedule(s, lam, p_t)[1], f"schedule at lambda={lam:.6g}"
    sigma = abs(sig)
    slack = [B / sigma * (q.beta / q.alpha) for q in s.transmitters]
    used = sum(q.input_second_moment * c * c for q, c in zip(s.transmitters, slack))
    if used <= p_t:
        coeffs, desc = slack, f"c_m={B / sigma:.6g}*beta_m/alpha_m within the budget"
    else:
        def gap(kappa: float) -> float:
            return sigma * (kappa * asym._schedule(s, 1.0 / kappa, p_t)[0] / 2.0) - (B - kappa * p_t)

        kappa = asym._brentq(gap, 0.0, B / p_t, B * (math.sqrt(p_t / used) - 1.0))
        coeffs, desc = asym._schedule(s, 1.0 / kappa, p_t)[1], f"schedule at lambda={1.0 / kappa:.6g}"
    return math.copysign(1.0, sig) * np.asarray(coeffs), desc


def _frontier_response(s: NetworkScenario):
    """(cost, desc): the AsymII leader's best full-power deviation against
    its re-solved follower.  The follower's cost falls as |r_t| grows and
    rises with own_t, so every such best response lies on Theorem 5's
    frontier c(lambda3).  Its scan grid is costed as lanes, each against its
    exact follower; lanes whose follower does not exist are skipped."""
    p_t = s.sum_power_transmit
    _, ok, (lam3, _, c_m, _, _, c_k) = asym._outer(s, p_t, s.sum_power_attack)(asym._SCAN_GRID)
    if not ok.any():
        return math.inf, ""
    rows = [(c, 0.0, 0) for c in c_k[ok].T]
    costs = asym._cost(*asym._transmit_stats(s, c_m[ok].T),
                       *asym._adversary_output_stats(s, rows), False)
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
    q = s.transmitters[0]
    if leader and s.setting is Setting.ASYM_II:
        best, desc = _frontier_response(s)
    else:
        rows = [(-asym._cap(q.alpha, q.beta, q.power)[0], 0.0, 0)] * K if leader else p.adversary.lower(s.adversaries)
        stats = sig, own, jam = asym._adversary_output_stats(s, rows)
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
    leader-side report binds.  The adversary class grants one shared noise
    in every setting, which SymIII's eta and the no-coordination settings II
    do not, so an adversary deviation above the base there (a partial
    mirror plus shared noise) may be a move the setting forbids.
    """
    adv = best_response_adversary_search(s, p)
    tx = best_response_transmitter_search(s, p)
    return adv, tx
