import dataclasses
import math

import numpy as np
import pytest

from jamnet import LinearMirror, NetworkScenario, SensorParams, Setting, validate_scenario
from jamnet import asym, simulate

# The random local probes of the reference searches (the linear adversary's
# and the transmitters'): directions, step size and the generator's seed.
PROBE_DIRECTIONS = 50
PROBE_STEP = 1e-3
PROBE_SEED = 0


def random_symmetric_configs(count: int, seed: int, m_max: int = 10):
    """(M, K, alpha, beta, power) tuples with 1 <= K < M <= m_max."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        M = int(rng.integers(2, m_max + 1))
        K = int(rng.integers(1, M))
        configs.append(
            (
                M,
                K,
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(0.1, 5.0)),
            )
        )
    return configs


def random_asym_scenario(rng: np.random.Generator, setting: Setting,
                         m_max: int = 6, k_max: int = 4) -> NetworkScenario:
    M = int(rng.integers(1, m_max + 1))
    K = int(rng.integers(1, k_max + 1))
    tx = tuple(
        SensorParams(
            alpha=float(rng.uniform(0.2, 3.0)),
            beta=float(rng.uniform(0.2, 3.0)),
            power=0.0,
        )
        for _ in range(M)
    )
    ad = tuple(
        SensorParams(
            alpha=float(rng.uniform(0.2, 3.0)),
            beta=float(rng.uniform(0.2, 3.0)),
            power=0.0,
        )
        for _ in range(K)
    )
    return validate_scenario(
        NetworkScenario(
            transmitters=tx,
            adversaries=ad,
            setting=setting,
            sum_power_transmit=float(rng.uniform(0.5, 5.0)),
            sum_power_attack=float(rng.uniform(0.05, 2.0)),
        )
    )


def _ref_local_probe(s, p):
    """Local maximality check for a linear adversary: PROBE_DIRECTIONS
    random perturbations of its coefficients at step PROBE_STEP,
    rescaled back to its attack power; the highest cost wins."""
    base = asym.direct_mmse_cost(s, p)
    coeffs = np.asarray(p.adversary.coeffs, dtype=float)
    m2 = np.array([q.input_second_moment for q in s.adversaries])
    power = float(np.sum(m2 * coeffs**2))
    rng = np.random.default_rng(PROBE_SEED)
    best_cost, best_desc = base, "no perturbation raises the cost"
    for i in range(PROBE_DIRECTIONS):
        trial = coeffs + PROBE_STEP * rng.standard_normal(coeffs.shape[0])
        norm = float(np.sum(m2 * trial**2))
        if norm <= 0.0:
            continue
        trial = trial * math.sqrt(power / norm)
        cost = asym.direct_mmse_cost(s, dataclasses.replace(
            p, adversary=LinearMirror(coeffs=tuple(float(c) for c in trial))))
        if cost > best_cost:
            best_cost, best_desc = cost, f"coefficient perturbation #{i}"
    return simulate.BestResponseReport(base, best_cost, best_desc, "AdversaryMax")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
