import dataclasses
import math
import re

import numpy as np
import pytest
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

from conftest import (PROBE_DIRECTIONS, PROBE_SEED, PROBE_STEP, _ref_local_probe,
                      random_asym_scenario, random_symmetric_configs)

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
    gains = simulate._block_gains(s, p)
    sum_e2 = sum_e4 = 0.0
    for j in range(4):
        n = min(simulate.BLOCK_SIZE, samples - j * simulate.BLOCK_SIZE)
        e2, e4 = simulate._simulate_block(p, gains, n, seed, j,
                                          np.empty((simulate.SCRATCH_ROWS, n)))
        sum_e2 += e2
        sum_e4 += e4
    mean = sum_e2 / samples
    se = math.sqrt(max(0.0, (sum_e4 - samples * mean * mean) / (samples - 1)) / samples)

    # One to four usable CPUs give one- to four-worker pools on any machine;
    # with two and three, some worker runs more than one block.
    for cpus in ({0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}):
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid, c=cpus: c,
                            raising=False)
        pooled = simulate.run_monte_carlo(s, p, samples, seed=seed)
        assert pooled.empirical_mse == mean
        assert pooled.standard_error == se
        assert simulate.run_monte_carlo(s, p, samples, seed=seed) == pooled


def _ref_simulate_block(p, gains, n, seed, block):
    """The block with every intermediate a fresh array: the reference the
    in-place block must match bit for bit."""
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


def _block_cases():
    si = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.SYM_I)
    s2 = make_symmetric(3, 2, 1.3, 0.7, 2.0, Setting.SYM_II)
    s3 = make_symmetric(5, 4, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.6, eta=0.25)
    sd = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.ASYM_I,
                        sum_power_transmit=5.0, sum_power_attack=2.0)
    sd = dataclasses.replace(
        sd,
        transmitters=tuple(dataclasses.replace(q, alpha=a, beta=b) for q, a, b in
                           zip(sd.transmitters, (0.5, 1.0, 2.0), (2.0, 0.3, 1.0))),
        adversaries=tuple(dataclasses.replace(q, alpha=a, beta=b) for q, a, b in
                          zip(sd.adversaries, (1.5, 0.7), (0.4, 1.2))),
    )
    p1 = sym.theorem1_profile(si)
    distinct = StrategyProfile(
        transmit_coeffs=(0.9, 0.0, 0.3),  # a zero gain skips its noise row's add
        randomized=True,
        adversary=GeneralLinearGaussian(triples=((-0.5, 0.3, 0.8), (0.0, 0.0, 0.0))),
        decoder_gain=0.7,
    )
    return [
        (si, p1),
        (si, dataclasses.replace(p1, randomized=False,
                                 adversary=IndependentNoise(variances=(1.0, 0.0)))),
        (si, dataclasses.replace(p1, decoder_gain=0.0)),
        (s2, sym.theorem2_profile(s2)),
        (s3, sym.solve_setting3(s3).profile),
        (sd, distinct),
        (sd, dataclasses.replace(distinct, randomized=False, decoder_gain=-1.2)),
    ]


def test_in_place_block_equals_the_allocating_reference():
    for s, p in _block_cases():
        gains = simulate._block_gains(s, p)
        # A reused scratch is longer than a short block and holds the last
        # block's values; neither may leak into the result.
        dirty = np.full((simulate.SCRATCH_ROWS, simulate.BLOCK_SIZE), np.nan)
        for n, block in ((simulate.BLOCK_SIZE, 0), (1000, 3), (1, 5)):
            ref = _ref_simulate_block(p, gains, n, 9, block)
            fresh = np.empty((simulate.SCRATCH_ROWS, n))
            assert simulate._simulate_block(p, gains, n, 9, block, fresh) == ref
            assert simulate._simulate_block(p, gains, n, 9, block, dirty) == ref


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
    assert rep_rand.best_deviation_cost == rep_rand.base_cost
    assert rep_rand.deviation_params == "no deviation improves on the profile"

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
    # Deterministic and silent transmitters: no source term to null, and no
    # amplitude to divide by.
    p = dataclasses.replace(p, transmit_coeffs=(0.0, 0.0), randomized=False)
    rep = simulate.best_response_adversary_search(s, p)
    assert rep == simulate.BestResponseReport(1.0, 1.0, "no deviation improves on the profile",
                                              "AdversaryMax")


def test_transmitter_probe_at_theorem1():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = sym.theorem1_profile(s)
    rep = simulate.best_response_transmitter_search(s, p)
    assert rep.best_deviation_cost == rep.base_cost


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
    assert adv.best_deviation_cost == adv.base_cost
    assert adv.deviation_params == "no deviation improves on the profile"
    assert tx.best_deviation_cost == tx.base_cost


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
    assert tx.best_deviation_cost == tx.base_cost


def test_theorem5_local_probe_suites():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    rep = asym.solve_theorem5(s)
    tx = simulate.best_response_transmitter_search(s, rep.profile)
    assert tx.best_deviation_cost >= tx.base_cost - 1e-8
    adv = _ref_local_probe(s, rep.profile)
    assert adv.best_deviation_cost <= adv.base_cost + 1e-8


# -- searches against the scalar loops they replaced -------------------------
#
# Reference copies of the per-candidate loops they replaced: one profile
# object and one oracle call per candidate.  Both searches are exact, so the
# old 21x21 adversary deviation grid and its candidate families,
# ``_ref_adversary_search``, are a lower bound on what the adversary search
# reports, and the old random transmitter probes, ``_ref_transmitter_search``,
# an upper bound on what the transmitter search reports.

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
        for u, v in _ref_disc_grid(21):
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
            for u, v in _ref_disc_grid(21):
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


def _leads(s, p):
    """Whether the transmitters lead a re-solved follower: a deterministic
    profile in a Stackelberg setting (SymIII's Stackelberg branch is SymII's
    point)."""
    return not p.randomized and s.setting in (Setting.SYM_II, Setting.SYM_III, Setting.ASYM_II)


def _ref_follower_cost(s, p, coeffs):
    trial = dataclasses.replace(p, transmit_coeffs=tuple(float(c) for c in coeffs))
    if _leads(s, p) and s.setting.is_symmetric:
        response = _ref_follower_sym2(s, trial.transmit_coeffs)
        trial = dataclasses.replace(trial, adversary=LinearMirror(coeffs=response))
    elif _leads(s, p):
        _, _, c_k = asym.adversary_linear_response(s, coeffs, s.sum_power_attack)
        trial = dataclasses.replace(
            trial, adversary=LinearMirror(coeffs=tuple(float(c) for c in c_k)))
    return asym.direct_mmse_cost(s, trial)


def _silent(s, p):
    """The transmitters a deviation keeps at 0: in SymIII only the first
    round(M*epsilon) can share the coin of a randomized profile."""
    M = s.num_transmitters
    n = round(M * s.epsilon) if s.setting is Setting.SYM_III and p.randomized else M
    return slice(n, M)


def _ref_transmitter_search(s, p):
    coeffs = np.asarray(p.transmit_coeffs, dtype=float)
    M = coeffs.shape[0]
    base = asym.direct_mmse_cost(s, p)
    if M == 0:
        return simulate.BestResponseReport(base, base, "no transmitters", "TransmitterMin")
    rng = np.random.default_rng(PROBE_SEED)
    best_cost, best_desc = base, "no perturbation lowers the cost"
    for i in range(PROBE_DIRECTIONS):
        trial = coeffs + PROBE_STEP * rng.standard_normal(M)
        if s.setting.is_symmetric:
            caps = np.array([math.sqrt(q.power / q.input_second_moment) for q in s.transmitters])
            trial = np.clip(trial, -caps, caps)
            trial[_silent(s, p)] = 0.0
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
    return (cases + _asym2_follower_failure_cases() + _frontier_failure_cases()
            + [_over_budget_case()])


def _with_gains(sensors, alphas, betas):
    return tuple(dataclasses.replace(q, alpha=a, beta=b) for q, a, b in zip(sensors, alphas, betas))


def _asym2_follower_failure_cases():
    """AsymII profiles near every failure of the adversary solve: the attack
    budget that just nulls the profile's source term, transmit gains that
    put |r_m| around its 1e-10 floor, and an adversary whose power gap's
    square overflows."""
    cases = []
    # The attack budget sits where the adversaries can just null the base
    # profile's source term; the base adversary is that nulling mirror
    # (cost 1).
    s = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.ASYM_II, sum_power_transmit=2.0)
    s = dataclasses.replace(s, transmitters=_with_gains(s.transmitters, (0.7, 1.3, 2.0),
                                                        (1.5, 0.6, 1.1)))
    c = np.array([0.3, -0.5, 0.8])
    c *= math.sqrt(2.0 / sum(q.input_second_moment * x * x for q, x in zip(s.transmitters, c)))
    r_m = float(sum(q.alpha * q.beta * x for q, x in zip(s.transmitters, c)))
    weights = [q.alpha * q.beta / q.input_second_moment for q in s.adversaries]
    null_power = sum(q.alpha * q.beta * w for q, w in zip(s.adversaries, weights))
    s = dataclasses.replace(s, sum_power_attack=r_m**2 / null_power)
    nulling = LinearMirror(coeffs=tuple(-r_m * w / null_power for w in weights))
    cases.append((s, StrategyProfile(transmit_coeffs=tuple(c.tolist()), randomized=False,
                                     adversary=nulling, decoder_gain=0.0)))
    # Transmit gains of 1e-7 and opposite coefficients put |r_m| around the
    # 1e-10 floor.
    s = make_symmetric(2, 2, 1.0, 1.0, 1.0, Setting.ASYM_II, sum_power_transmit=2.0,
                       sum_power_attack=1e-8)
    s = dataclasses.replace(s, transmitters=_with_gains(s.transmitters, (1e-7,) * 2, (1.0,) * 2),
                            adversaries=_with_gains(s.adversaries, (1.0,) * 2, (1e-6,) * 2))
    cases.append((s, StrategyProfile(transmit_coeffs=(1.0, -1.0), randomized=False,
                                     adversary=LinearMirror(coeffs=(0.0, 0.0)), decoder_gain=0.0)))
    # An adversary with alpha = beta = 1e-100: the power gap's square overflows.
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II, sum_power_transmit=2.0,
                       sum_power_attack=1.0)
    s = dataclasses.replace(s, adversaries=_with_gains(s.adversaries, (1e-100,), (1e-100,)))
    cases.append((s, StrategyProfile(transmit_coeffs=(1.0, 0.0), randomized=False,
                                     adversary=LinearMirror(coeffs=(0.5,)), decoder_gain=0.0)))
    return cases


def _over_budget_case():
    """SymII transmit coefficients twice the cap against a loud noise: the
    leader's response at the cap, against its mirroring follower, still
    lowers the cost."""
    s = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.SYM_II)
    cap = math.sqrt(s.transmitters[0].power / s.transmitters[0].input_second_moment)
    return s, StrategyProfile(transmit_coeffs=(2.0 * cap,) * 3, randomized=False,
                              adversary=IndependentNoise(variances=(100.0, 100.0)),
                              decoder_gain=0.0)


def _outcome(search, s, p):
    """The search's report, or the type and text of what it raised."""
    try:
        return search(s, p)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _frontier_failure_cases():
    """Deterministic AsymII profiles whose Theorem-5 frontier meets every
    outcome of the adversary solve: on the first two some lanes' followers
    raise NonConvergence or SingularDenominator, and on the last every one
    raises OverflowError."""
    (nulls, p), _, (overflow, q) = _asym2_follower_failure_cases()
    # The attack budget just nulls the middle frontier point, so the
    # adversaries can null the lanes of smaller |r_m| outright.
    lam3 = asym._scan_grid(nulls.sum_power_transmit)
    r_m, _ = asym._transmit_stats(
        nulls, asym._transmit_side(nulls, lam3, nulls.sum_power_transmit)[1].T)
    null_power = sum((a.alpha * a.beta) ** 2 / a.input_second_moment for a in nulls.adversaries)
    half = dataclasses.replace(nulls, sum_power_attack=float(r_m[48]) ** 2 / null_power)
    # Gains 1e-5*1e-6 and 10*1e-11: |r_m| falls through the 1e-10 floor as
    # lambda3 moves the power onto the first transmitter.
    tiny = make_symmetric(2, 2, 1.0, 1.0, 1.0, Setting.ASYM_II, sum_power_transmit=2.0,
                          sum_power_attack=1e-8)
    tiny = dataclasses.replace(tiny, transmitters=_with_gains(tiny.transmitters, (1e-5, 10.0),
                                                              (1e-6, 1e-11)),
                               adversaries=_with_gains(tiny.adversaries, (1.0,) * 2, (1e-6,) * 2))
    silent = StrategyProfile(transmit_coeffs=(1.0, 0.0), randomized=False,
                             adversary=LinearMirror(coeffs=(0.0, 0.0)), decoder_gain=0.0)
    return [(half, p), (tiny, silent), (overflow, q)]


def _follower_cost(s, transmit_coeffs, response):
    return asym.direct_mmse_cost(s, StrategyProfile(
        transmit_coeffs=tuple(transmit_coeffs), randomized=False,
        adversary=LinearMirror(coeffs=tuple(float(c) for c in response)), decoder_gain=0.0))


def test_asym2_follower_failure_cases_skip_and_raise():
    outcomes = []
    for s, p in _frontier_failure_cases():
        lam3 = asym._scan_grid(s.sum_power_transmit)
        _, c_m = asym._transmit_side(s, lam3, s.sum_power_transmit)
        seen, costs = set(), []
        for row in c_m:
            try:
                _, _, c_k = asym.adversary_linear_response(s, row, s.sum_power_attack)
            except (NonConvergence, SingularDenominator, OverflowError) as exc:
                seen.add(type(exc))
                continue
            seen.add(None)
            costs.append(_follower_cost(s, row, c_k))
        outcomes.append(seen)
        # The search skips the failed followers and reports the best of the
        # rest, or propagates the OverflowError.
        report = _outcome(simulate.best_response_transmitter_search, s, p)
        if OverflowError in seen:
            assert report == (OverflowError, "(34, 'Numerical result out of range')")
        else:
            assert report.best_deviation_cost == min([report.base_cost] + costs)
    assert outcomes == [{None, NonConvergence}, {None, NonConvergence, SingularDenominator},
                        {OverflowError}]


def test_one_row_adversary_solve_failures_keep_type_message_and_residuals():
    (nulls, p), (tiny, _), (overflow, _) = _asym2_follower_failure_cases()
    # An adversary that sees the source through beta = 1e-12 cannot spend its
    # budget inside the bracket: the power gap is still negative at its top.
    blind = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II, sum_power_transmit=2.0,
                           sum_power_attack=1.0)
    blind = dataclasses.replace(blind, adversaries=_with_gains(blind.adversaries, (1.0,),
                                                               (1e-12,)))
    cases = [
        (nulls, 0.5 * np.array(p.transmit_coeffs), NonConvergence,
         "adversary power-equality equation has no positive root "
         "(attack budget dominates the received signal)", (8.322512091455874,)),
        (tiny, np.array([1.0, -1.0]), SingularDenominator,
         "transmit signal term vanishes; adversary system singular", None),
        (blind, np.array([1.0, 1.0]), NonConvergence,
         "adversary power-equality equation has no bracket", (-1.0, -0.9999959999997797)),
        (overflow, np.array([1.0, 0.0]), OverflowError,
         "(34, 'Numerical result out of range')", None),
    ]
    for s, row, error, message, residuals in cases:
        with pytest.raises(error) as info:
            asym.adversary_linear_response(s, row, s.sum_power_attack)
        assert type(info.value) is error and str(info.value) == message
        if residuals is not None:
            assert info.value.residuals == residuals
            assert all(type(r) is float for r in info.value.residuals)
        # The lanes mask the same row, or raise the same OverflowError.
        if error is OverflowError:
            with pytest.raises(OverflowError, match="out of range"):
                asym._adversary_response(s, row[None, :], s.sum_power_attack)
        else:
            assert not asym._adversary_response(s, row[None, :], s.sum_power_attack)[3][0]


def test_batched_searches_equal_the_scalar_loops():
    found = set()
    for s, p in _search_cases():
        adv = _outcome(simulate.best_response_adversary_search, s, p)
        _assert_dominates(adv, _outcome(_ref_adversary_search, s, p))
        tx = _outcome(simulate.best_response_transmitter_search, s, p)
        _assert_dominates(tx, _outcome(_ref_transmitter_search, s, p))
        if isinstance(tx, tuple):
            assert tx[0] is OverflowError
            continue
        found.add((adv.deviation_params.startswith("no "), tx.deviation_params.startswith("no ")))
    # Both outcomes occur on both sides.
    assert {a for a, _ in found} == {True, False} and {t for _, t in found} == {True, False}


def _assert_dominates(exact, sampled):
    """The exact search's outcome is the sampled search's, or a report on
    the same base whose value is at least as good for the deviator: higher
    for the adversaries, lower for the transmitters.  A sample that spreads
    the same power over other components may round an ulp better, so the
    bound allows 1e-15."""
    if isinstance(sampled, tuple):
        assert exact == sampled
        return
    assert exact.base_cost == sampled.base_cost
    if exact.direction == "AdversaryMax":
        assert exact.best_deviation_cost >= sampled.best_deviation_cost - 1e-15
    else:
        assert exact.best_deviation_cost <= sampled.best_deviation_cost + 1e-15


def _random_distinct_asym_cases():
    """Asymmetric scenarios with distinct gains under random feasible
    transmit profiles, randomized and not, against a silent adversary."""
    rng = np.random.default_rng(404)
    cases = []
    for setting in (Setting.ASYM_I, Setting.ASYM_II) * 6:
        s = random_asym_scenario(rng, setting)
        c = rng.standard_normal(s.num_transmitters)
        c *= math.sqrt(s.sum_power_transmit / sum(
            q.input_second_moment * x * x for q, x in zip(s.transmitters, c)))
        cases.append((s, StrategyProfile(
            transmit_coeffs=tuple(c.tolist()), randomized=bool(rng.integers(2)),
            adversary=IndependentNoise(variances=(0.0,) * s.num_adversaries), decoder_gain=0.0)))
    return cases


def _deviation_costs(s, p, rows, n_noises):
    r_t, own_t = asym._transmit_stats(s, p.transmit_coeffs)
    return asym._cost(r_t, own_t, *asym._adversary_output_stats(s, rows, n_noises), p.randomized)


def _random_deviation_costs(s, p, rng, draws=40, lanes=100):
    """Costs of random deviations of the class: each lane gives adversary k
    a random (a, b, s) on its budget (its own, or a random share of the sum
    budget) on the noise j_k < J, with J <= K and the j_k drawn per draw."""
    K = s.num_adversaries
    costs = []
    for _ in range(draws):
        J = int(rng.integers(1, K + 1))
        js = rng.integers(0, J, K)
        direction = rng.standard_normal((K, 3, lanes))
        direction /= np.sqrt(np.sum(direction**2, axis=1, keepdims=True))
        if s.setting.is_symmetric:
            budget = np.array([[q.power] for q in s.adversaries])
        else:
            budget = s.sum_power_attack * rng.dirichlet(np.ones(K), lanes).T
        triples = np.sqrt(budget)[:, None, :] * direction
        rows = [(*triples[k], int(js[k])) for k in range(K)]
        costs.append(_deviation_costs(s, p, rows, J))
    return np.concatenate(costs)


_TRIPLE = re.compile(r"\(a=(\S+), b=0, s=(\S+)\)")


def test_adversary_best_response_is_exact_and_attained():
    rng = np.random.default_rng(2024)
    interior = 0
    for s, p in _search_cases() + _random_distinct_asym_cases():
        report = _outcome(simulate.best_response_adversary_search, s, p)
        _assert_dominates(report, _outcome(_ref_adversary_search, s, p))
        if s.num_adversaries == 0 or isinstance(report, tuple):
            continue
        best = report.best_deviation_cost
        # No random deviation of the class, and no source share u of the
        # aligned coherent family, beats it.
        assert np.max(_random_deviation_costs(s, p, rng)) <= best + 1e-15
        alphas = np.array([q.alpha for q in s.adversaries])
        if s.setting.is_symmetric:
            amps = np.sqrt([q.power for q in s.adversaries])
        else:
            amps = math.sqrt(s.sum_power_attack) * alphas / math.hypot(*alphas)
        r_t, _ = asym._transmit_stats(s, p.transmit_coeffs)
        u = np.linspace(0.0, 1.0, 4001)
        family = [(-math.copysign(1.0, r_t) * w * u, 0.0, w * np.sqrt(1.0 - u * u), 0)
                  for w in amps]
        assert np.max(_deviation_costs(s, p, family, 1)) <= best + 1e-15
        if report.deviation_params.startswith("no "):
            continue
        # The reported triple, split over the adversaries, attains the value.
        a, ss = (float(x) for x in _TRIPLE.search(report.deviation_params).groups())
        shares = (np.ones(s.num_adversaries) if s.setting.is_symmetric
                  else alphas / math.hypot(*alphas))
        rows = [(a * w, 0.0, ss * w, 0) for w in shares]
        assert _deviation_costs(s, p, rows, 1) == pytest.approx(best, rel=1e-5)
        interior += a != 0.0 and ss != 0.0
    assert interior > 0  # the interior branch 0 < u < 1 is taken


def _random_glg_cases(rng, count=40):
    """SymI and AsymI scenarios under random feasible transmit profiles,
    randomized and not, against random source-heavy GeneralLinearGaussian
    adversaries on their budgets (their own, or a random split of a tenfold
    P_A): a source share that outgrows the noise lets the sum budget go
    slack."""
    cases = []
    seed = int(rng.integers(1 << 30))
    for M, K, alpha, beta, power in random_symmetric_configs(count, seed):
        asym1 = random_asym_scenario(rng, Setting.ASYM_I)
        for s in (make_symmetric(M, K, alpha, beta, power, Setting.SYM_I),
                  dataclasses.replace(asym1, sum_power_attack=10.0 * asym1.sum_power_attack)):
            K = s.num_adversaries
            direction = rng.standard_normal((K, 3)) + [rng.choice([-4.0, 4.0]), 0.0, 0.0]
            direction /= np.sqrt(np.sum(direction**2, axis=1, keepdims=True))
            budgets = ([q.power for q in s.adversaries] if s.setting.is_symmetric
                       else s.sum_power_attack * rng.dirichlet(np.ones(K)))
            triples = np.sqrt(budgets)[:, None] * direction
            c = _random_transmit_lanes(s, rng, 1)[0]
            cases.append((s, StrategyProfile(
                transmit_coeffs=tuple(c.tolist()), randomized=bool(rng.integers(2)),
                adversary=GeneralLinearGaussian(triples=tuple(map(tuple, triples.tolist()))),
                decoder_gain=0.0)))
    return cases


def _random_transmit_lanes(s, rng, lanes, silent=slice(0, 0)):
    """Random feasible transmit coefficients, one deviation per row.
    Symmetric: uniform in the box, on its corners, and equal coefficients,
    with the ``silent`` sensors kept at 0.
    Asymmetric: random directions, every other one at a random share of P_T
    and the rest at all of it."""
    M = s.num_transmitters
    if s.setting.is_symmetric:
        q = s.transmitters[0]
        u = rng.uniform(-1.0, 1.0, (3, lanes, M))
        u[1] = np.sign(u[1])
        u[2] = u[2, :, :1]
        c = math.sqrt(q.power / q.input_second_moment) * u.reshape(3 * lanes, M)
        c[:, silent] = 0.0
        return c
    m2 = np.array([q.input_second_moment for q in s.transmitters])
    c = rng.standard_normal((lanes, M))
    share = np.where(np.arange(lanes) % 2, 1.0, rng.uniform(0.0, 1.0, lanes))
    return c * np.sqrt(share * s.sum_power_transmit / np.sum(m2 * c**2, axis=1))[:, None]


def _named_response_cost(s, p, desc):
    """The cost of the response a transmitter report names, rebuilt from the
    6-digit parameter in its text."""
    x = float(re.search(r"=([-+.\deE]+)", desc).group(1))
    if desc.startswith("Theorem-5"):
        _, c_m = asym._transmit_side(s, x, s.sum_power_transmit)
        return _follower_cost(s, c_m, asym.adversary_linear_response(s, c_m, s.sum_power_attack)[2])
    if s.setting.is_symmetric:
        coeffs = np.full(s.num_transmitters, x)
        coeffs[_silent(s, p)] = 0.0
        if _leads(s, p):
            return _follower_cost(s, coeffs, (-x,) * s.num_adversaries)
    else:
        sig, _, _ = asym._adversary_output_stats(s, *p.adversary.lower(s.adversaries))
        if desc.startswith("schedule"):
            coeffs = np.array(asym._schedule(s, x, s.sum_power_transmit)[2])
        else:
            coeffs = x * np.array([q.beta / q.alpha for q in s.transmitters])
        coeffs *= 1.0 if p.randomized else math.copysign(1.0, sig)
    return asym.direct_mmse_cost(s, dataclasses.replace(p, transmit_coeffs=tuple(coeffs)))


def test_transmitter_best_response_is_exact_and_attained():
    rng = np.random.default_rng(2025)
    branches = set()
    for s, p in _search_cases() + _random_distinct_asym_cases() + _random_glg_cases(rng):
        report = _outcome(simulate.best_response_transmitter_search, s, p)
        _assert_dominates(report, _outcome(_ref_transmitter_search, s, p))
        if s.num_transmitters == 0 or isinstance(report, tuple):
            continue
        best = report.best_deviation_cost
        # No random feasible deviation beats it: against the profile's
        # adversaries, or, leading, against each deviation's follower.
        if _leads(s, p):
            for c in _random_transmit_lanes(s, rng, 20, _silent(s, p)):
                if s.setting is Setting.ASYM_II:  # the leader spends P_T
                    c *= math.sqrt(s.sum_power_transmit / sum(
                        q.input_second_moment * x * x for q, x in zip(s.transmitters, c)))
                try:
                    assert _ref_follower_cost(s, p, c) >= best - 1e-15
                except (NonConvergence, SingularDenominator):
                    pass
        else:
            c = _random_transmit_lanes(s, rng, 4000, _silent(s, p))
            stats = asym._adversary_output_stats(s, *p.adversary.lower(s.adversaries))
            costs = asym._cost(*asym._transmit_stats(s, c.T), *stats, p.randomized)
            assert np.min(costs) >= best - 1e-15
        if report.deviation_params.startswith("no "):
            assert best == report.base_cost
            continue
        # The named response attains the value.
        assert _named_response_cost(s, p, report.deviation_params) == pytest.approx(best, rel=1e-5)
        if not (s.setting.is_symmetric or p.randomized):
            branches.add(report.deviation_params.split("=")[0])
    # Against deterministic transmitters under the sum budget both the
    # binding (root) and the slack branch occur.
    assert {"schedule at lambda", "c_m"} <= branches


def test_symmetric_equilibria_are_exact_certificates():
    # The transmitters' best response to the equilibrium's jammer (SymI,
    # SymIII's saddle branch) or against its mirroring follower (SymII,
    # SymIII's Stackelberg branch) is the profile itself, bit for bit.
    rng = np.random.default_rng(12)
    branches = set()
    for M, K, alpha, beta, power in random_symmetric_configs(100, seed=12):
        scenarios = [make_symmetric(M, K, alpha, beta, power, setting)
                     for setting in (Setting.SYM_I, Setting.SYM_II)]
        for m in (int(rng.integers(1, M)), M):  # with silent transmitters, and without
            s = make_symmetric(M, K, alpha, beta, power, Setting.SYM_III, epsilon=m / M,
                               eta=int(rng.integers(K + 1)) / K)
            branches.add(sym.setting3_branch(s)[0])
            scenarios.append(s)
        for s in scenarios:
            report = simulate.best_response_transmitter_search(s, cli.equilibrium_report(s).profile)
            assert report.best_deviation_cost == report.base_cost
            assert report.deviation_params == "no deviation lowers the cost"
    assert branches == {"saddle", "stackelberg"}


def test_asymmetric_equilibria_have_no_cheaper_transmitter_deviation():
    rng = np.random.default_rng(31)
    for setting in (Setting.ASYM_I, Setting.ASYM_II) * 40:
        s = random_asym_scenario(rng, setting)
        try:
            profile = cli.equilibrium_report(s).profile
        except NonConvergence:
            continue
        report = simulate.best_response_transmitter_search(s, profile)
        assert report.best_deviation_cost >= report.base_cost - 1e-15


def test_adversary_best_response_at_symI_is_the_profile_itself():
    # The exact response's rows are the lowering of the profile's own
    # CoordinatedNoise, so the report is the base, bit for bit.
    for M, K, alpha, beta, power in random_symmetric_configs(20, seed=5):
        s = make_symmetric(M, K, alpha, beta, power, Setting.SYM_I)
        report = simulate.best_response_adversary_search(s, sym.theorem1_profile(s))
        assert report.best_deviation_cost == report.base_cost
        assert report.deviation_params == "no deviation improves on the profile"
