import dataclasses
import math

import numpy as np
from scipy.optimize import minimize_scalar

from jamnet import (
    CoordinatedNoise,
    GeneralLinearGaussian,
    IndependentNoise,
    LinearMirror,
    NonConvergence,
    Setting,
    SingularDenominator,
    StrategyProfile,
    make_symmetric,
)
from jamnet import asym, cli, simulate, symmetric as sym

SAMPLES = 200_000


def _agrees(result, analytic):
    return abs(result.empirical_mse - analytic) <= 3.0 * result.standard_error


def test_monte_carlo_matches_oracle_theorem1():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = sym.theorem1_profile(s)
    r = simulate.run_monte_carlo(s, p, SAMPLES, seed=11)
    assert _agrees(r, 0.6)


def test_monte_carlo_zero_gain_decoder():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = dataclasses.replace(sym.theorem1_profile(s), decoder_gain=0.0)
    r = simulate.run_monte_carlo(s, p, SAMPLES, seed=12)
    assert _agrees(r, 1.0)


def test_monte_carlo_pool_equals_block_ordered_serial_reduction(monkeypatch):
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = sym.theorem1_profile(s)
    samples, seed = 200_000, 7  # four blocks, the last one short
    # Four usable CPUs give a four-worker pool on any machine.
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    pooled = simulate.run_monte_carlo(s, p, samples, seed=seed)

    gains = simulate._block_gains(s, p)
    sum_e2 = sum_e4 = 0.0
    for j in range(4):
        n = min(simulate.BLOCK_SIZE, samples - j * simulate.BLOCK_SIZE)
        e2, e4 = simulate._simulate_block(p, gains, n, seed, j)
        sum_e2 += e2
        sum_e4 += e4
    mean = sum_e2 / samples
    se = math.sqrt(max(0.0, (sum_e4 - samples * mean * mean) / (samples - 1)) / samples)
    assert pooled.empirical_mse == mean
    assert pooled.standard_error == se
    assert simulate.run_monte_carlo(s, p, samples, seed=seed) == pooled


def test_monte_carlo_seed_changes_stream():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = sym.theorem1_profile(s)
    a = simulate.run_monte_carlo(s, p, 10_000, seed=1)
    b = simulate.run_monte_carlo(s, p, 10_000, seed=2)
    assert a.empirical_mse != b.empirical_mse


def test_monte_carlo_all_strategy_kinds_match_oracle():
    cases = []

    s2 = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.SYM_II)
    cases.append((s2, sym.theorem2_profile(s2), 21))

    s3 = make_symmetric(5, 4, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.6, eta=0.25)
    cases.append((s3, sym.solve_setting3(s3).profile, 22))

    si = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.SYM_I)
    det_indep = StrategyProfile(
        transmit_coeffs=sym.theorem1_profile(si).transmit_coeffs,
        randomized=False,
        adversary=IndependentNoise(variances=(1.0, 1.0)),
        decoder_gain=0.0,
    )
    det_indep = dataclasses.replace(det_indep, decoder_gain=asym.bayes_decoder_gain(si, det_indep))
    cases.append((si, det_indep, 23))

    sg = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    glg = StrategyProfile(
        transmit_coeffs=sym.theorem1_profile(sg).transmit_coeffs,
        randomized=True,
        adversary=GeneralLinearGaussian(triples=((0.4, 0.3, math.sqrt(1.0 - 0.16 - 0.09)),)),
        decoder_gain=0.0,
    )
    glg = dataclasses.replace(glg, decoder_gain=asym.bayes_decoder_gain(sg, glg))
    cases.append((sg, glg, 24))

    # Distinct gains on every sensor and nonzero (a, b, s) differing per
    # adversary, over four blocks: a gain taken from the wrong sensor shows
    # up here.
    sd = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.ASYM_I,
                        sum_power_transmit=5.0, sum_power_attack=2.0)
    sd = dataclasses.replace(
        sd,
        transmitters=tuple(dataclasses.replace(q, alpha=a, beta=b) for q, a, b in
                           zip(sd.transmitters, (0.5, 1.0, 2.0), (2.0, 0.3, 1.0))),
        adversaries=tuple(dataclasses.replace(q, alpha=a, beta=b) for q, a, b in
                          zip(sd.adversaries, (1.5, 0.7), (0.4, 1.2))),
    )
    distinct = StrategyProfile(
        transmit_coeffs=(0.9, -0.6, 0.3),
        randomized=False,
        adversary=GeneralLinearGaussian(triples=((-0.5, 0.3, 0.8), (0.3, -0.8, 0.1))),
        decoder_gain=0.0,
    )
    distinct = dataclasses.replace(distinct, decoder_gain=asym.bayes_decoder_gain(sd, distinct))
    cases.append((sd, distinct, 25))

    for s, p, seed in cases:
        analytic = asym.direct_mmse_cost(s, p)
        r = simulate.run_monte_carlo(s, p, SAMPLES, seed=seed)
        assert _agrees(r, analytic), (analytic, r.empirical_mse, r.standard_error)


def test_randomization_indifference_against_noise():
    # With a pure-noise adversary and the receiver tracking gamma, the
    # randomized and deterministic profiles cost the same.
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p_rand = sym.theorem1_profile(s)
    p_det = dataclasses.replace(p_rand, randomized=False)
    assert asym.direct_mmse_cost(s, p_rand) == asym.direct_mmse_cost(s, p_det)
    r_rand = simulate.run_monte_carlo(s, p_rand, SAMPLES, seed=31)
    r_det = simulate.run_monte_carlo(s, p_det, SAMPLES, seed=32)
    gap = abs(r_rand.empirical_mse - r_det.empirical_mse)
    assert gap <= 3.0 * math.hypot(r_rand.standard_error, r_det.standard_error)


def test_randomization_necessity_via_grid_search():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p_rand = sym.theorem1_profile(s)
    rep_rand = simulate.best_response_adversary_search(s, p_rand)
    assert rep_rand.best_deviation_cost <= rep_rand.base_cost + 1e-3

    p_det = dataclasses.replace(p_rand, randomized=False)
    rep_det = simulate.best_response_adversary_search(s, p_det)
    assert rep_det.best_deviation_cost > rep_det.base_cost + 1e-2
    # The winning deviation anti-correlates with the source.
    assert "a=-" in rep_det.deviation_params


def test_adversary_search_zero_budget():
    s = make_symmetric(2, 1, 1.0, 1.0, 0.0, Setting.SYM_I)
    p = sym.theorem1_profile(s)
    rep = simulate.best_response_adversary_search(s, p)
    assert rep.base_cost == 1.0
    assert rep.best_deviation_cost == rep.base_cost


def test_transmitter_probe_at_theorem1():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = sym.theorem1_profile(s)
    rep = simulate.best_response_transmitter_search(s, p)
    assert rep.best_deviation_cost >= rep.base_cost - 1e-8


def test_transmitter_probe_single_sensor_sign_invariance():
    s = make_symmetric(1, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = sym.theorem1_profile(s)
    rep = simulate.best_response_transmitter_search(s, p)
    assert rep.best_deviation_cost >= rep.base_cost - 1e-8
    flipped = dataclasses.replace(p, transmit_coeffs=(-p.transmit_coeffs[0],))
    assert asym.direct_mmse_cost(s, flipped) == asym.direct_mmse_cost(s, p)


def test_unbalanced_coefficients_have_descent_direction():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_I,
                       sum_power_transmit=2.0, sum_power_attack=1.0)
    rep4 = asym.solve_theorem4(s)
    # Force all power onto one sensor: far from the balanced optimum.
    bad = dataclasses.replace(rep4.profile, transmit_coeffs=(1.0, 0.0))
    rep = simulate.best_response_transmitter_search(s, bad)
    assert rep.best_deviation_cost < rep.base_cost - 1e-6


def test_verify_saddle_point_theorem1():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    adv, tx = simulate.verify_saddle_point(s, sym.theorem1_profile(s))
    assert adv.best_deviation_cost <= adv.base_cost + 1e-3
    assert tx.best_deviation_cost >= tx.base_cost - 1e-8


def test_theorem2_profile_is_not_a_saddle():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_II)
    adv, tx = simulate.verify_saddle_point(s, sym.theorem2_profile(s))
    # No saddle in pure strategies: the adversary finds a better deviation.
    assert adv.best_deviation_cost > adv.base_cost + 1e-2
    assert tx.best_deviation_cost >= tx.base_cost - 1e-8


def test_no_adversary_saddle_trivially_passes():
    s = make_symmetric(2, 0, 1.0, 1.0, 1.0, Setting.SYM_I)
    adv, tx = simulate.verify_saddle_point(s, sym.theorem1_profile(s))
    assert adv.best_deviation_cost == adv.base_cost
    assert tx.best_deviation_cost >= tx.base_cost - 1e-8


def test_sym2_follower_consistency():
    s = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.SYM_II)
    p = sym.theorem2_profile(s)
    response = simulate.follower_best_response_sym2(s, p.transmit_coeffs)
    assert np.allclose(response, p.adversary.coeffs, atol=1e-9)


def test_theorem5_local_probe_suites():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    rep = asym.solve_theorem5(s)
    tx = simulate.best_response_transmitter_search(s, rep.profile)
    assert tx.best_deviation_cost >= tx.base_cost - 1e-8
    adv = simulate.adversary_local_probe(s, rep.profile)
    assert adv.best_deviation_cost <= adv.base_cost + 1e-8


# -- batched searches against the scalar loops they replaced ------------------
#
# Reference copies of the per-candidate loops: one profile object and one
# oracle call per candidate.  The batched searches must report the same bits.

def _ref_disc_grid(points):
    axis = np.linspace(-1.0, 1.0, points)
    return [(float(u), float(v)) for u in axis for v in axis if u * u + v * v <= 1.0 + 1e-12]


def _ref_adversary_search(s, p):
    base = asym.direct_mmse_cost(s, p)
    K = s.num_adversaries
    if K == 0:
        return simulate.BestResponseReport(base, base, "no adversaries", "AdversaryMax")
    candidates = []
    if s.setting.is_symmetric:
        budget = s.adversaries[0].power
        root = math.sqrt(budget)
        candidates.append(("shared triple (a=0, b=0, s=full)",
                           GeneralLinearGaussian(triples=((0.0, 0.0, root),) * K)))
        candidates.append(("coordinated full-power noise", CoordinatedNoise(variance=budget)))
        candidates.append(("independent full-power noise",
                           IndependentNoise(variances=(budget,) * K)))
        for u, v in _ref_disc_grid(simulate.GRID_POINTS_PER_AXIS):
            a, b = u * root, v * root
            ss = math.sqrt(max(budget - a * a - b * b, 0.0))
            candidates.append((f"shared triple (a={a:.6g}, b={b:.6g}, s={ss:.6g})",
                               GeneralLinearGaussian(triples=((a, b, ss),) * K)))
    else:
        budget = s.sum_power_attack or 0.0
        root = math.sqrt(budget)
        for j in range(K):
            variances = [0.0] * K
            variances[j] = budget
            candidates.append((f"all noise power on adversary {j}",
                               IndependentNoise(variances=tuple(variances))))
        candidates.append(("uniform coordinated noise", CoordinatedNoise(variance=budget / K)))
        for j in range(K):
            for u, v in _ref_disc_grid(simulate.GRID_POINTS_PER_AXIS):
                a, b = u * root, v * root
                ss = math.sqrt(max(budget - a * a - b * b, 0.0))
                triples = [(0.0, 0.0, 0.0)] * K
                triples[j] = (a, b, ss)
                candidates.append((f"adversary {j} triple (a={a:.6g}, b={b:.6g}, s={ss:.6g})",
                                   GeneralLinearGaussian(triples=tuple(triples))))
    best_cost, best_desc = base, "no deviation improves on the profile"
    for desc, strategy in candidates:
        cost = asym.direct_mmse_cost(s, dataclasses.replace(p, adversary=strategy))
        if cost > best_cost:
            best_cost, best_desc = cost, desc
    return simulate.BestResponseReport(base, best_cost, best_desc, "AdversaryMax")


def _ref_follower_sym2(s, transmit_coeffs):
    K = s.num_adversaries
    if K == 0:
        return ()
    cap = math.sqrt(s.adversaries[0].power / s.adversaries[0].input_second_moment)

    def cost_of(coeffs):
        return asym.direct_mmse_cost(s, StrategyProfile(
            transmit_coeffs=tuple(transmit_coeffs), randomized=False,
            adversary=LinearMirror(coeffs=coeffs), decoder_gain=0.0))

    best_coeffs = (-cap,) * K
    best = cost_of(best_coeffs)
    for n_minus in range(K):
        fixed = (-cap,) * n_minus + (cap,) * (K - 1 - n_minus)
        res = minimize_scalar(lambda t: -cost_of(fixed + (t,)), bounds=(-cap, cap),
                              method="bounded", options={"xatol": 1e-12})
        for t in (float(res.x), -cap, cap):
            val = cost_of(fixed + (t,))
            if val > best:
                best, best_coeffs = val, fixed + (t,)
    return best_coeffs


def _ref_follower_cost(s, p, coeffs):
    trial = dataclasses.replace(p, transmit_coeffs=tuple(float(c) for c in coeffs))
    if s.setting is Setting.SYM_II:
        response = _ref_follower_sym2(s, trial.transmit_coeffs)
        trial = dataclasses.replace(trial, adversary=LinearMirror(coeffs=response))
    elif s.setting is Setting.ASYM_II:
        _, _, c_k = asym.adversary_linear_response(s, coeffs, s.sum_power_attack)
        trial = dataclasses.replace(
            trial, adversary=LinearMirror(coeffs=tuple(float(c) for c in c_k)))
    return asym.direct_mmse_cost(s, trial)


def _ref_transmitter_search(s, p):
    coeffs = np.asarray(p.transmit_coeffs, dtype=float)
    M = coeffs.shape[0]
    base = asym.direct_mmse_cost(s, p)
    if M == 0:
        return simulate.BestResponseReport(base, base, "no transmitters", "TransmitterMin")
    rng = np.random.default_rng(simulate.PROBE_SEED)
    best_cost, best_desc = base, "no perturbation lowers the cost"
    for i in range(simulate.PROBE_DIRECTIONS):
        trial = coeffs + simulate.PROBE_STEP * rng.standard_normal(M)
        if s.setting.is_symmetric:
            caps = np.array([math.sqrt(q.power / q.input_second_moment) for q in s.transmitters])
            trial = np.clip(trial, -caps, caps)
        else:
            m2 = np.array([q.input_second_moment for q in s.transmitters])
            norm = float(np.sum(m2 * trial**2))
            if norm <= 0.0:
                continue
            trial = trial * math.sqrt(s.sum_power_transmit / norm)
        try:
            cost = _ref_follower_cost(s, p, trial)
        except (NonConvergence, SingularDenominator):
            continue
        if cost < best_cost:
            best_cost, best_desc = cost, f"coefficient perturbation #{i}"
    return simulate.BestResponseReport(base, best_cost, best_desc, "TransmitterMin")


def _ref_local_probe(s, p):
    base = asym.direct_mmse_cost(s, p)
    coeffs = np.asarray(p.adversary.coeffs, dtype=float)
    m2 = np.array([q.input_second_moment for q in s.adversaries])
    power = float(np.sum(m2 * coeffs**2))
    rng = np.random.default_rng(simulate.PROBE_SEED)
    best_cost, best_desc = base, "no perturbation raises the cost"
    for i in range(simulate.PROBE_DIRECTIONS):
        trial = coeffs + simulate.PROBE_STEP * rng.standard_normal(coeffs.shape[0])
        norm = float(np.sum(m2 * trial**2))
        if norm <= 0.0:
            continue
        trial = trial * math.sqrt(power / norm)
        cost = asym.direct_mmse_cost(s, dataclasses.replace(
            p, adversary=LinearMirror(coeffs=tuple(float(c) for c in trial))))
        if cost > best_cost:
            best_cost, best_desc = cost, f"coefficient perturbation #{i}"
    return simulate.BestResponseReport(base, best_cost, best_desc, "AdversaryMax")


def _search_cases():
    """Equilibrium profiles of every setting, and perturbed ones whose
    searches find deviations.  The asymmetric settings come with identical
    adversaries (deviations tie across sensors; the first must win) and with
    distinct ones."""
    rng = np.random.default_rng(99)

    def distinct(sensors):
        return tuple(dataclasses.replace(q, alpha=float(rng.uniform(0.5, 2.0)),
                                         beta=float(rng.uniform(0.5, 2.0))) for q in sensors)

    cases = []
    for M, K, setting, extra in [
        (3, 2, Setting.SYM_I, {}), (4, 3, Setting.SYM_II, {}),
        (5, 4, Setting.SYM_III, {"epsilon": 0.6, "eta": 0.5}),
        (3, 2, Setting.ASYM_I, {}), (3, 2, Setting.ASYM_II, {}),
        (2, 3, Setting.ASYM_I, {"sum_power_attack": 2.0}),
        (3, 3, Setting.ASYM_II, {"sum_power_attack": 0.5}),
    ]:
        s = make_symmetric(M, K, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
                           float(rng.uniform(0.5, 2.0)), setting, **extra)
        if not setting.is_symmetric:
            s = dataclasses.replace(s, transmitters=distinct(s.transmitters))
            if K == 3:
                s = dataclasses.replace(s, adversaries=distinct(s.adversaries))
            if K == 3 and setting is Setting.ASYM_I:
                # Adversary 0's channel dominates: its noise alone beats any split.
                s = dataclasses.replace(s, adversaries=(
                    dataclasses.replace(s.adversaries[0], alpha=4.0),) + s.adversaries[1:])
        p = cli.equilibrium_report(s).profile
        shaken = dataclasses.replace(p, transmit_coeffs=tuple(
            0.8 * c + 0.1 * float(rng.standard_normal()) for c in p.transmit_coeffs))
        silent = IndependentNoise(variances=(0.0,) * K)
        cases += [(s, p), (s, shaken), (s, dataclasses.replace(p, randomized=not p.randomized)),
                  (s, dataclasses.replace(p, adversary=silent))]
    return cases


def test_batched_searches_equal_the_scalar_loops():
    found = set()
    for s, p in _search_cases():
        adv = simulate.best_response_adversary_search(s, p)
        assert adv == _ref_adversary_search(s, p)
        tx = simulate.best_response_transmitter_search(s, p)
        assert tx == _ref_transmitter_search(s, p)
        found.add((adv.deviation_params.startswith("no "), tx.deviation_params.startswith("no ")))
        if isinstance(p.adversary, LinearMirror):
            assert simulate.adversary_local_probe(s, p) == _ref_local_probe(s, p)
    # Both outcomes occur on both sides.
    assert {a for a, _ in found} == {True, False} and {t for _, t in found} == {True, False}


def test_follower_sym2_equals_the_scalar_loop():
    rng = np.random.default_rng(7)
    for K in (1, 2, 3, 5):
        s = make_symmetric(K + 2, K, float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.3, 2.5)),
                           float(rng.uniform(0.3, 3.0)), Setting.SYM_II)
        for _ in range(4):
            coeffs = tuple(rng.uniform(-1.0, 1.0, K + 2).tolist())
            assert simulate.follower_best_response_sym2(s, coeffs) == _ref_follower_sym2(s, coeffs)
