"""Seeded Monte Carlo channel simulation and saddle-point verification.

Sampling is organized in fixed 65536-sample blocks; block j draws from its
own Philox stream keyed by (seed, j) and partial sums are reduced in block
order, so the result is bit-identical for any chunk count and any degree of
parallelism.  The ``chunks`` knob only groups blocks for thread-pool
execution (capped by the JAMNET_THREADS environment variable).

Per block of n samples the draws are, in order: the source (n normals), the
M+K sensing noises (transmitters first, then adversaries; n each), the
channel noise (n), the randomization coin (n uniforms), then the adversary
strategy's J noises theta_0..theta_{J-1} (n each) from its linear-Gaussian
form (see ``model``): J = 1+K-n_coord for CoordinatedNoise, K for
IndependentNoise and GeneralLinearGaussian, 0 for LinearMirror.

The verification half probes the two saddle inequalities: a grid sweep over
the linear-Gaussian deviation class for the adversary (maximizer) and
projected random perturbations with exact follower re-solves for the
transmitters (minimizer).
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
    chunks: int


@dataclasses.dataclass(frozen=True)
class BestResponseReport:
    base_cost: float
    best_deviation_cost: float
    deviation_params: str
    direction: str  # "AdversaryMax" or "TransmitterMin"


def _worker_cap() -> int:
    try:
        return max(1, int(os.environ.get("JAMNET_THREADS", "1")))
    except ValueError:
        return 1


def _simulate_block(
    s: NetworkScenario, p: StrategyProfile, n: int, seed: int, block: int
) -> tuple[float, float]:
    """Sum of squared errors and of their squares for one sample block.

    Draw order per block is fixed (see the module docstring) so results are
    reproducible for a given (seed, block) pair.
    """
    g = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    M, K = s.num_transmitters, s.num_adversaries

    src = g.standard_normal(n)
    w = g.standard_normal((M + K, n))
    z = g.standard_normal(n)
    coin = g.random(n)
    gamma = np.where(coin < 0.5, 1.0, -1.0)

    y = z.copy()
    tx = np.zeros(n)
    for m, (params, c) in enumerate(zip(s.transmitters, p.transmit_coeffs)):
        if c != 0.0:
            tx += params.alpha * c * (params.beta * src + w[m])
    if p.randomized:
        tx *= gamma
    y += tx

    rows, n_noises = p.adversary.lower(s.adversaries)
    amps = [0.0] * n_noises
    for k, (params, (a, b, ss, j)) in enumerate(zip(s.adversaries, rows)):
        if a or b:
            y += params.alpha * a * src + params.alpha * b * w[M + k]
        if ss:
            amps[j] += params.alpha * ss
    for amp in amps:
        theta = g.standard_normal(n)
        if amp:
            y += amp * theta

    decoded = p.decoder_gain * (gamma * y if p.randomized else y)
    err2 = (src - decoded) ** 2
    return float(np.sum(err2)), float(np.sum(err2**2))


def run_monte_carlo(
    s: NetworkScenario, p: StrategyProfile, samples: int, seed: int, chunks: int = 1
) -> MonteCarloResult:
    """Empirical MSE of ``p`` from ``samples`` i.i.d. channel uses.

    Identical (seed, samples) give bit-identical results regardless of
    ``chunks``; the standard error is the sample standard deviation of the
    squared errors divided by sqrt(samples).
    """
    if samples < 1:
        raise InvalidProfile("samples must be >= 1")
    if not 0 <= seed < 2**64:
        raise InvalidProfile("seed must be an unsigned 64-bit integer")
    if chunks < 1:
        raise InvalidProfile("chunks must be >= 1")
    validate_profile(s, p)

    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    sizes = [min(BLOCK_SIZE, samples - j * BLOCK_SIZE) for j in range(n_blocks)]

    partials: list[tuple[float, float]] = [None] * n_blocks  # type: ignore[list-item]
    workers = min(chunks, _worker_cap())
    if workers > 1 and n_blocks > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_simulate_block, s, p, sizes[j], seed, j): j
                for j in range(n_blocks)
            }
            for fut in concurrent.futures.as_completed(futures):
                partials[futures[fut]] = fut.result()
    else:
        for j in range(n_blocks):
            partials[j] = _simulate_block(s, p, sizes[j], seed, j)

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
    return MonteCarloResult(
        empirical_mse=mean, standard_error=se, samples=samples, seed=seed, chunks=chunks
    )


# -- adversary-side verification ---------------------------------------------

def _disc_grid(points: int) -> list[tuple[float, float]]:
    axis = np.linspace(-1.0, 1.0, points)
    return [(float(u), float(v)) for u in axis for v in axis if u * u + v * v <= 1.0 + 1e-12]


def _with_adversary(p: StrategyProfile, strategy) -> StrategyProfile:
    return dataclasses.replace(p, adversary=strategy)


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

    candidates: list[tuple[str, object]] = []
    if s.setting.is_symmetric:
        budget = s.adversaries[0].power
        root = math.sqrt(budget)
        candidates.append(
            ("shared triple (a=0, b=0, s=full)", GeneralLinearGaussian(
                triples=((0.0, 0.0, root),) * K))
        )
        candidates.append(("coordinated full-power noise", CoordinatedNoise(variance=budget)))
        candidates.append(
            ("independent full-power noise", IndependentNoise(variances=(budget,) * K))
        )
        for u, v in _disc_grid(GRID_POINTS_PER_AXIS):
            a = u * root
            b = v * root
            ss = math.sqrt(max(budget - a * a - b * b, 0.0))
            candidates.append(
                (f"shared triple (a={a:.6g}, b={b:.6g}, s={ss:.6g})",
                 GeneralLinearGaussian(triples=((a, b, ss),) * K))
            )
    else:
        budget = s.sum_power_attack or 0.0
        root = math.sqrt(budget)
        for j in range(K):
            variances = [0.0] * K
            variances[j] = budget
            candidates.append(
                (f"all noise power on adversary {j}", IndependentNoise(variances=tuple(variances)))
            )
        candidates.append(
            ("uniform coordinated noise", CoordinatedNoise(variance=budget / K))
        )
        for j in range(K):
            for u, v in _disc_grid(GRID_POINTS_PER_AXIS):
                a = u * root
                b = v * root
                ss = math.sqrt(max(budget - a * a - b * b, 0.0))
                triples = [(0.0, 0.0, 0.0)] * K
                triples[j] = (a, b, ss)
                candidates.append(
                    (f"adversary {j} triple (a={a:.6g}, b={b:.6g}, s={ss:.6g})",
                     GeneralLinearGaussian(triples=tuple(triples)))
                )

    best_cost = base
    best_desc = "no deviation improves on the profile"
    for desc, strategy in candidates:
        cost = asym.direct_mmse_cost(s, _with_adversary(p, strategy))
        if cost > best_cost:
            best_cost = cost
            best_desc = desc
    return BestResponseReport(base, best_cost, best_desc, "AdversaryMax")


def adversary_local_probe(s: NetworkScenario, p: StrategyProfile) -> BestResponseReport:
    """Local maximality check for a linear adversary: ``PROBE_DIRECTIONS``
    random perturbations of its coefficients at step ``PROBE_STEP``, rescaled
    back to the attack power sphere, must not increase the cost beyond the
    caller's tolerance."""
    if not isinstance(p.adversary, LinearMirror):
        raise InvalidProfile("adversary_local_probe needs a linear adversary")
    base = asym.direct_mmse_cost(s, p)
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
        cost = asym.direct_mmse_cost(
            s, _with_adversary(p, LinearMirror(coeffs=tuple(float(c) for c in trial)))
        )
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
    and optimize the single interior coefficient.
    """
    K = s.num_adversaries
    if K == 0:
        return ()
    cap = math.sqrt(s.adversaries[0].power / s.adversaries[0].input_second_moment)

    def cost_of(coeffs: tuple[float, ...]) -> float:
        prof = StrategyProfile(
            transmit_coeffs=tuple(transmit_coeffs),
            randomized=False,
            adversary=LinearMirror(coeffs=coeffs),
            decoder_gain=0.0,
        )
        return asym.direct_mmse_cost(s, prof)

    best_coeffs = (-cap,) * K
    best = cost_of(best_coeffs)
    for n_minus in range(K):
        fixed = (-cap,) * n_minus + (cap,) * (K - 1 - n_minus)

        def neg_cost(t: float) -> float:
            return -cost_of(fixed + (t,))

        res = minimize_scalar(neg_cost, bounds=(-cap, cap), method="bounded",
                              options={"xatol": 1e-12})
        for t in (float(res.x), -cap, cap):
            val = cost_of(fixed + (t,))
            if val > best:
                best = val
                best_coeffs = fixed + (t,)
    return best_coeffs


def _follower_cost(s: NetworkScenario, p: StrategyProfile, coeffs: np.ndarray) -> float:
    """Leader objective at perturbed transmit coefficients, with the follower
    re-solved within its class where the response depends on the leader."""
    trial = dataclasses.replace(p, transmit_coeffs=tuple(float(c) for c in coeffs))
    if s.setting is Setting.SYM_II:
        response = follower_best_response_sym2(s, trial.transmit_coeffs)
        trial = _with_adversary(trial, LinearMirror(coeffs=response))
    elif s.setting is Setting.ASYM_II:
        _, _, c_k = asym.adversary_linear_response(s, coeffs, s.sum_power_attack)
        trial = _with_adversary(trial, LinearMirror(coeffs=tuple(float(c) for c in c_k)))
    # SymI, SymIII and AsymI followers do not depend on the transmit
    # coefficients (full-power noise / best-channel allocation): keep p's.
    return asym.direct_mmse_cost(s, trial)


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

    rng = np.random.default_rng(PROBE_SEED)
    best_cost = base
    best_desc = "no perturbation lowers the cost"
    for i in range(PROBE_DIRECTIONS):
        d = rng.standard_normal(M)
        trial = coeffs + PROBE_STEP * d
        if s.setting.is_symmetric:
            caps = np.array(
                [math.sqrt(q.power / q.input_second_moment) for q in s.transmitters]
            )
            trial = np.clip(trial, -caps, caps)
        else:
            m2 = np.array([q.input_second_moment for q in s.transmitters])
            norm = float(np.sum(m2 * trial**2))
            if norm <= 0.0:
                continue
            trial = trial * math.sqrt(s.sum_power_transmit / norm)
        try:
            cost = _follower_cost(s, p, trial)
        except (NonConvergence, SingularDenominator):
            continue
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
