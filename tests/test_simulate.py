import dataclasses
import math

import numpy as np

from jamnet import (
    GeneralLinearGaussian,
    IndependentNoise,
    Setting,
    StrategyProfile,
    make_symmetric,
)
from jamnet import asym, simulate, symmetric as sym

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
