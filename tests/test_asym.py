import collections
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from jamnet import (
    CoordinatedNoise,
    EmptyAdversarySet,
    GeneralLinearGaussian,
    IndependentNoise,
    InvalidScenario,
    LinearMirror,
    NetworkScenario,
    NonConvergence,
    SensorParams,
    Setting,
    SingularDenominator,
    StrategyProfile,
    make_symmetric,
    validate_scenario,
)
from jamnet.model import KNOWN_DISCREPANCY_TAGS
from jamnet import asym, symmetric as sym
from conftest import random_asym_scenario


def _sensors(alphas, betas):
    return tuple(
        SensorParams(alpha=a, beta=b, power=0.0) for a, b in zip(alphas, betas)
    )


def _asym_scenario(setting, tx_alphas, tx_betas, ad_alphas, ad_betas, p_t, p_a):
    return validate_scenario(
        NetworkScenario(
            transmitters=_sensors(tx_alphas, tx_betas),
            adversaries=_sensors(ad_alphas, ad_betas),
            setting=setting,
            sum_power_transmit=p_t,
            sum_power_attack=p_a,
        )
    )


# -- attacker_best_channel ----------------------------------------------------

def test_attacker_best_channel_argmax():
    adv = _sensors([0.5, 2.0, 1.0], [1.0, 1.0, 1.0])
    assert asym.attacker_best_channel(adv, 1.0) == (1, 4.0)


def test_attacker_best_channel_tie_breaks_low():
    adv = _sensors([1.0, 1.0], [1.0, 1.0])
    assert asym.attacker_best_channel(adv, 2.0) == (0, 2.0)


def test_attacker_best_channel_single_and_empty():
    adv = _sensors([0.7], [1.0])
    idx, power = asym.attacker_best_channel(adv, 1.0)
    assert idx == 0 and power == pytest.approx(0.49)
    with pytest.raises(EmptyAdversarySet):
        asym.attacker_best_channel((), 1.0)


# -- direct MMSE oracle -------------------------------------------------------

def test_direct_cost_examples():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    assert asym.direct_mmse_cost(s, sym.theorem1_profile(s)) == pytest.approx(0.6, abs=1e-15)
    s2 = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_II)
    assert asym.direct_mmse_cost(s2, sym.theorem2_profile(s2)) == pytest.approx(5 / 6, abs=1e-15)
    silent = StrategyProfile(
        transmit_coeffs=(0.0, 0.0), randomized=False,
        adversary=LinearMirror(coeffs=(0.0,)), decoder_gain=0.0,
    )
    assert asym.direct_mmse_cost(s2, silent) == 1.0


def test_direct_cost_sign_flip_invariant(rng):
    for _ in range(25):
        s = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.SYM_II)
        coeffs = tuple(float(c) for c in rng.uniform(-0.7, 0.7, 3))
        mirror = tuple(float(c) for c in rng.uniform(-0.7, 0.7, 2))
        p = StrategyProfile(
            transmit_coeffs=coeffs, randomized=False,
            adversary=LinearMirror(coeffs=mirror), decoder_gain=0.0,
        )
        flipped = StrategyProfile(
            transmit_coeffs=tuple(-c for c in coeffs), randomized=False,
            adversary=LinearMirror(coeffs=tuple(-c for c in mirror)), decoder_gain=0.0,
        )
        assert asym.direct_mmse_cost(s, p) == pytest.approx(
            asym.direct_mmse_cost(s, flipped), abs=1e-15
        )


# -- Theorem 4 ----------------------------------------------------------------

def test_theorem4_single_sensor_examples():
    s = make_symmetric(1, 1, 1.0, 1.0, 1.0, Setting.ASYM_I,
                       sum_power_transmit=1.0, sum_power_attack=0.0)
    rep = asym.solve_theorem4(s)
    assert rep.multipliers["lambda1"] == pytest.approx(1.0, abs=1e-15)
    assert rep.multipliers["lambda2"] ** 2 == pytest.approx(18.0, rel=1e-12)
    assert rep.profile.transmit_coeffs[0] ** 2 == pytest.approx(0.5, rel=1e-12)
    assert rep.cost == pytest.approx(0.75, abs=1e-12)
    # The published closed form evaluates to 6/7 here; reported, not asserted equal.
    assert any(repr(6 / 7) in n for n in rep.discrepancy_notes)
    assert any("asym1-cost-closed-form" in n for n in rep.discrepancy_notes)

    s1 = make_symmetric(1, 1, 1.0, 1.0, 1.0, Setting.ASYM_I,
                        sum_power_transmit=1.0, sum_power_attack=1.0)
    rep1 = asym.solve_theorem4(s1)
    assert rep1.multipliers["lambda1"] == pytest.approx(0.5, abs=1e-15)
    assert rep1.profile.transmit_coeffs[0] ** 2 == pytest.approx(0.5, rel=1e-12)
    assert rep1.cost == pytest.approx(2.5 / 3.0, abs=1e-12)


def test_theorem4_vanishing_transmit_power():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_I,
                       sum_power_transmit=1e-12, sum_power_attack=1.0)
    rep = asym.solve_theorem4(s)
    assert all(abs(c) < 1e-5 for c in rep.profile.transmit_coeffs)
    assert rep.cost > 1.0 - 1e-5


def test_theorem4_identities_on_random_instances(rng):
    for _ in range(100):
        s = random_asym_scenario(rng, Setting.ASYM_I)
        rep = asym.solve_theorem4(s)
        lam1 = rep.multipliers["lambda1"]
        pa_recv = rep.multipliers["attacker_received_power"]
        assert abs(lam1 * (1.0 + pa_recv) - s.sum_power_transmit) <= 1e-12
        used = sum(
            p.input_second_moment * c * c
            for p, c in zip(s.transmitters, rep.profile.transmit_coeffs)
        )
        assert abs(used - s.sum_power_transmit) <= 1e-9
        assert rep.cost == rep.oracle_cost


def test_theorem4_decentralized_recompute_bit_exact(rng):
    for _ in range(20):
        s = random_asym_scenario(rng, Setting.ASYM_I)
        rep = asym.solve_theorem4(s)
        lam1, lam2 = rep.multipliers["lambda1"], rep.multipliers["lambda2"]
        for p, c in zip(s.transmitters, rep.profile.transmit_coeffs):
            d = p.input_second_moment + lam1 * p.alpha**2
            assert lam2 * p.alpha * p.beta / (2.0 * d) == c


def test_theorem4_local_best_responses(rng):
    s = _asym_scenario(Setting.ASYM_I, [1.5, 0.7, 1.1], [0.9, 1.8, 0.6],
                       [0.8, 1.6], [1.0, 1.3], 2.5, 1.2)
    rep = asym.solve_theorem4(s)
    base = rep.cost
    coeffs = np.array(rep.profile.transmit_coeffs)
    m2 = np.array([p.input_second_moment for p in s.transmitters])

    # Transmitter: 50 random reallocations on the power sphere never help.
    for _ in range(50):
        d = rng.standard_normal(coeffs.size)
        trial = coeffs + 1e-3 * d
        trial *= math.sqrt(s.sum_power_transmit / float(m2 @ trial**2))
        probe = dataclasses.replace(rep.profile, transmit_coeffs=tuple(trial))
        assert asym.direct_mmse_cost(s, probe) >= base - 1e-8

    # Attacker: random power splits across sensors never increase the cost.
    from jamnet.model import IndependentNoise

    for _ in range(50):
        split = rng.dirichlet(np.ones(s.num_adversaries)) * s.sum_power_attack
        probe = dataclasses.replace(
            rep.profile, adversary=IndependentNoise(variances=tuple(split))
        )
        assert asym.direct_mmse_cost(s, probe) <= base + 1e-8


# -- Theorem 5 ----------------------------------------------------------------

def test_theorem5_symmetric_instance_matches_mirror():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    rep = asym.solve_theorem5(s)
    c = math.sqrt(0.5)
    assert rep.profile.transmit_coeffs == pytest.approx((c, c), abs=1e-12)
    assert rep.profile.adversary.coeffs == pytest.approx((-c,), abs=1e-12)
    assert rep.cost == pytest.approx(5 / 6, abs=1e-12)
    assert max(abs(r) for r in rep.kkt_residuals) < 1e-8
    # Transmit coefficients equal, adversary coefficients of opposite sign.
    assert rep.multipliers["lambda2"] < 0 < rep.multipliers["lambda4"]


def test_theorem5_small_attack_power_approaches_theorem4():
    s5 = make_symmetric(3, 1, 1.0, 1.0, 1.0, Setting.ASYM_II,
                        sum_power_transmit=3.0, sum_power_attack=1e-7)
    rep5 = asym.solve_theorem5(s5)
    s4 = make_symmetric(3, 1, 1.0, 1.0, 1.0, Setting.ASYM_I,
                        sum_power_transmit=3.0, sum_power_attack=0.0)
    rep4 = asym.solve_theorem4(s4)
    assert all(abs(c) < 1e-3 for c in rep5.profile.adversary.coeffs)
    assert rep5.cost == pytest.approx(rep4.cost, abs=1e-4)
    assert np.allclose(rep5.profile.transmit_coeffs, rep4.profile.transmit_coeffs, atol=1e-4)


def test_theorem5_follower_is_global_best_response(rng):
    """The solved adversary coefficients match a brute-force constrained
    maximization of the distortion over the linear class."""
    s = random_asym_scenario(rng, Setting.ASYM_II, m_max=4, k_max=3)
    try:
        rep = asym.solve_theorem5(s)
    except NonConvergence:
        pytest.skip("instance in the jam-dominant regime")
    c_m = np.array(rep.profile.transmit_coeffs)
    m2_a = np.array([p.input_second_moment for p in s.adversaries])

    def neg_cost(c_k):
        p = StrategyProfile(
            transmit_coeffs=tuple(c_m), randomized=False,
            adversary=LinearMirror(coeffs=tuple(float(x) for x in c_k)),
            decoder_gain=0.0,
        )
        return -asym.direct_mmse_cost(s, p)

    best = None
    for scale in (-0.5, 0.2, -0.05):
        start = scale * np.sqrt(s.sum_power_attack / (m2_a * s.num_adversaries))
        res = minimize(
            neg_cost, start, method="SLSQP",
            constraints=[{"type": "ineq",
                          "fun": lambda ck: s.sum_power_attack - float(m2_a @ ck**2)}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if best is None or res.fun < best.fun:
            best = res
    assert -best.fun == pytest.approx(rep.cost, abs=1e-7)
    assert np.allclose(best.x, rep.profile.adversary.coeffs, atol=1e-5)


def _theorem5_point(s):
    """(lambdas, transmit coefficients, adversary coefficients) of the solve."""
    rep = asym.solve_theorem5(s)
    lambdas = tuple(rep.multipliers[f"lambda{i}"] for i in range(1, 5))
    return lambdas, rep.profile.transmit_coeffs, rep.profile.adversary.coeffs


def test_theorem5_kkt_residual_perturbation():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    lambdas, c_m, c_k = _theorem5_point(s)
    base = max(abs(r) for r in asym.kkt_residuals(s, lambdas, c_m, c_k))
    assert base < 1e-8
    res = asym.kkt_residuals(s, lambdas, (c_m[0] + 1e-3, c_m[1]), c_k)
    # Stationarity for the bumped coefficient grows to the order of the bump.
    assert 1e-4 < abs(res[3]) < 1e-2


def test_theorem5_zero_multipliers_leave_residuals():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    _, c_m, c_k = _theorem5_point(s)
    zeroed = (1e-6, -1e-6, 1e-6, 1e-6)
    assert max(abs(r) for r in asym.kkt_residuals(s, zeroed, c_m, c_k)) > 0.1


def test_theorem5_jam_dominant_raises_nonconvergence():
    s = make_symmetric(1, 1, 1.0, 1.0, 1.0, Setting.ASYM_II,
                       sum_power_transmit=0.1, sum_power_attack=50.0)
    with pytest.raises(NonConvergence) as exc:
        asym.solve_theorem5(s)
    assert exc.value.residuals or exc.value.iterations >= 0


def test_theorem5_requires_positive_attack_power():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II,
                       sum_power_transmit=2.0, sum_power_attack=0.0)
    with pytest.raises(InvalidScenario):
        asym.solve_theorem5(s)


def test_theorem5_decentralized_recompute_bit_exact():
    s = _asym_scenario(Setting.ASYM_II, [1.5, 0.7, 1.1], [0.9, 1.8, 0.6],
                       [0.8, 1.6], [1.0, 1.3], 3.0, 0.8)
    rep = asym.solve_theorem5(s)
    lam1 = rep.multipliers["lambda1"]
    lam2 = rep.multipliers["lambda2"]
    lam3 = rep.multipliers["lambda3"]
    lam4 = rep.multipliers["lambda4"]
    ab = np.array([p.alpha * p.beta for p in s.transmitters])
    denoms = np.array([p.input_second_moment + lam3 * p.alpha**2 for p in s.transmitters])
    recomputed = lam4 * ab / (2.0 * denoms)
    assert tuple(recomputed) == rep.profile.transmit_coeffs
    for p, c in zip(s.adversaries, rep.profile.adversary.coeffs):
        d = p.input_second_moment - lam1 * p.alpha**2
        assert lam2 * p.alpha * p.beta / (2.0 * d) == c


def test_theorem5_multiplier_identities():
    s = _asym_scenario(Setting.ASYM_II, [1.5, 0.7, 1.1], [0.9, 1.8, 0.6],
                       [0.8, 1.6], [1.0, 1.3], 3.0, 0.8)
    rep = asym.solve_theorem5(s)
    lam = rep.multipliers
    assert lam["lambda4"] * lam["lambda1"] == pytest.approx(
        -lam["lambda2"] * lam["lambda3"], rel=1e-8
    )
    assert s.sum_power_transmit / lam["lambda3"] - s.sum_power_attack / lam["lambda1"] == (
        pytest.approx(1.0, abs=1e-8)
    )
    assert any("asym2-multiplier-identity" in n for n in rep.discrepancy_notes)
    assert any("asym2-cost-closed-form" in n for n in rep.discrepancy_notes)


# -- batched cost core and the Theorem-5 array scan ---------------------------

def _random_profiles(rng, s, kind, randomized, n):
    """n random profiles of one adversary strategy kind (budgets ignored: the
    oracle does not check them)."""
    M, K = s.num_transmitters, s.num_adversaries
    coordinated = int(rng.integers(0, K + 1))
    profiles = []
    for _ in range(n):
        if kind is CoordinatedNoise:
            adversary = CoordinatedNoise(variance=float(rng.uniform(0.0, 2.0)),
                                         coordinated_count=coordinated)
        elif kind is IndependentNoise:
            adversary = IndependentNoise(variances=tuple(rng.uniform(0.0, 2.0, K).tolist()))
        elif kind is LinearMirror:
            adversary = LinearMirror(coeffs=tuple(rng.uniform(-1.0, 1.0, K).tolist()))
        else:
            adversary = GeneralLinearGaussian(
                triples=tuple(tuple(t) for t in rng.uniform(-1.0, 1.0, (K, 3)).tolist()))
        profiles.append(StrategyProfile(
            transmit_coeffs=tuple(rng.uniform(-1.0, 1.0, M).tolist()), randomized=randomized,
            adversary=adversary, decoder_gain=0.0))
    return profiles


def _batched_costs(s, profiles, sign=1.0):
    """The cost core on all ``profiles`` at once: one lane per profile, every
    coefficient multiplied by ``sign``."""
    lowered = [p.adversary.lower(s.adversaries) for p in profiles]
    (rows0, n_noises), K = lowered[0], s.num_adversaries
    assert all(n == n_noises and [r[3] for r in rows] == [r[3] for r in rows0]
               for rows, n in lowered)
    rows = [tuple(sign * np.array([lw[0][k][i] for lw in lowered]) for i in range(3))
            + (rows0[k][3],) for k in range(K)]
    coeffs = [sign * np.array([p.transmit_coeffs[m] for p in profiles])
              for m in range(s.num_transmitters)]
    stats = asym._transmit_stats(s, coeffs) + asym._adversary_output_stats(s, rows, n_noises)
    return asym._cost(*stats, profiles[0].randomized)


def _ref_direct_cost(s, p):
    """The oracle as a per-profile scalar loop, in its original operation
    order (the sums add in sensor order, as sum() does up to Python 3.11)."""
    r_t = own_t = 0.0
    for q, c in zip(s.transmitters, p.transmit_coeffs):
        r_t += q.beta * c * q.alpha
        own_t += q.alpha ** 2 * c * c
    rows, n_noises = p.adversary.lower(s.adversaries)
    sig = own = jam = 0.0
    amps = [0.0] * n_noises
    for q, (a, b, ss, j) in zip(s.adversaries, rows):
        sig += q.alpha * a
        own += q.alpha * q.alpha * b * b
        if ss:
            amps[j] += q.alpha * ss
    for amp in amps:
        jam += amp * amp
    if p.randomized:
        r, total = r_t, r_t * r_t + own_t + sig * sig + own + jam + 1.0
    else:
        r = r_t + sig
        total = r * r + own_t + own + jam + 1.0
    return 1.0 - (r * r) / total


@pytest.mark.parametrize("kind", [CoordinatedNoise, IndependentNoise, LinearMirror,
                                  GeneralLinearGaussian])
@pytest.mark.parametrize("randomized", [True, False])
@pytest.mark.parametrize("setting", [Setting.SYM_II, Setting.ASYM_II])
def test_batched_cost_core_equals_direct_mmse_cost(rng, kind, randomized, setting):
    for _ in range(5):
        if setting.is_symmetric:
            s = make_symmetric(4, 3, float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)),
                               1.0, setting)
        else:
            s = random_asym_scenario(rng, setting)
        profiles = _random_profiles(rng, s, kind, randomized, 40)
        batched = _batched_costs(s, profiles)
        assert batched.tolist() == [asym.direct_mmse_cost(s, p) for p in profiles]
        assert batched.tolist() == [_ref_direct_cost(s, p) for p in profiles]
        # Sign-flip invariance and MSE in [0, 1] on the batched path.
        assert np.array_equal(_batched_costs(s, profiles, sign=-1.0), batched)
        assert np.all((0.0 <= batched) & (batched <= 1.0))


def _scalar_scan(s, grid):
    """The outer residual at each grid point through the scalar path, None
    where it raises."""
    values = []
    for x in grid:
        try:
            values.append(asym._outer_residual(s, float(x), s.sum_power_transmit,
                                               s.sum_power_attack))
        except (NonConvergence, SingularDenominator):
            values.append(None)
    return values


def test_theorem5_array_scan_matches_scalar_residual():
    rng = np.random.default_rng(5)
    brackets = 0
    for _ in range(100):
        s = random_asym_scenario(rng, Setting.ASYM_II)
        grid = asym._scan_grid(s.sum_power_transmit)
        values, ok = asym._outer_residual_scan(s, grid, s.sum_power_transmit,
                                               s.sum_power_attack)
        scalar = _scalar_scan(s, grid)
        assert ok.tolist() == [v is not None for v in scalar]
        # Each lane repeats the scalar arithmetic: the same bits.
        assert values[ok].tolist() == [v for v in scalar if v is not None]
        roots = asym._sign_changes(values, ok)
        first = next((i for i in range(len(grid) - 1)
                      if scalar[i] is not None and scalar[i + 1] is not None
                      and (scalar[i] == 0.0 or scalar[i] * scalar[i + 1] < 0.0)), None)
        assert (roots[0] if len(roots) else None) == first
        brackets += first is not None
    assert brackets > 50


def test_theorem5_outer_residual_has_one_sign_change_on_random_instances():
    rng = np.random.default_rng(20240818)
    counts = collections.Counter()
    for _ in range(200):
        s = random_asym_scenario(rng, Setting.ASYM_II)
        grid = asym._scan_grid(s.sum_power_transmit)
        counts[len(asym._sign_changes(*asym._outer_residual_scan(
            s, grid, s.sum_power_transmit, s.sum_power_attack)))] += 1
    print(f"sign changes of the outer residual over 200 AsymII instances: {dict(counts)}")
    # No sign change is the jam-dominant exit 2; none of these has two roots.
    assert set(counts) <= {0, 1} and counts[1] > 100


def test_theorem5_multiple_sign_changes_add_a_tagged_note(monkeypatch):
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    plain = asym.solve_theorem5(s)
    assert not any("asym2-multiple-roots" in n for n in plain.discrepancy_notes)
    scan = asym._outer_residual_scan

    def with_a_late_sign_change(s, grid, p_t, p_a):
        values, ok = scan(s, grid, p_t, p_a)
        assert ok[-2:].all() and len(asym._sign_changes(values, ok)) == 1
        values = values.copy()
        values[-1] = -values[-2]
        return values, ok

    monkeypatch.setattr(asym, "_outer_residual_scan", with_a_late_sign_change)
    rep = asym.solve_theorem5(s)
    grid = asym._scan_grid(s.sum_power_transmit)
    first = int(asym._sign_changes(*scan(s, grid, s.sum_power_transmit, s.sum_power_attack))[0])
    assert rep.multipliers == plain.multipliers
    assert rep.discrepancy_notes[:-1] == plain.discrepancy_notes
    assert rep.discrepancy_notes[-1] == (
        f"outer residual changes sign 2 times on the {len(grid)}-point scan; solved the first "
        f"bracket [{float(grid[first])!r}, {float(grid[first + 1])!r}] [asym2-multiple-roots]")
    assert "asym2-multiple-roots" in KNOWN_DISCREPANCY_TAGS
