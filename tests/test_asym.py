import collections
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from jamnet import (
    CoordinatedNoise,
    DegenerateInput,
    EmptyAdversarySet,
    GeneralLinearGaussian,
    IndependentNoise,
    InvalidScenario,
    LinearMirror,
    NetworkScenario,
    NonConvergence,
    NumericalFailure,
    SensorParams,
    Setting,
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


@pytest.mark.parametrize("M", [1, 3, 8, 32])
def test_schedule_lanes_have_the_bits_of_one_multiplier(M):
    # Theorem 5 runs the schedule on lanes of lambda3 and Theorem 4 on one
    # lambda1: each lane, with its own P_T, has the bits of its lone call and
    # spends its P_T.
    rng = np.random.default_rng(M)
    gains = rng.uniform(0.2, 3.0, (4, M))
    s = _asym_scenario(Setting.ASYM_I, *gains[:2], *gains[2:, :1], 1.0, 1.0)
    p_t = rng.uniform(0.5, 5.0, 64)
    grid = np.geomspace(1e-8, 1e3, 64) * p_t
    scale, coeffs = asym._schedule(s, grid, p_t)
    m2 = np.array([p.input_second_moment for p in s.transmitters])
    for i in range(len(grid)):
        lone_scale, lone_coeffs = asym._schedule(s, float(grid[i]), float(p_t[i]))
        assert scale[i] == lone_scale
        assert coeffs[i].tolist() == lone_coeffs.tolist()
        assert abs(math.fsum(m2 * coeffs[i] ** 2) - p_t[i]) <= 1e-15 * p_t[i]


def test_schedule_denominators_whose_square_overflows():
    # lambda1*alpha^2 = 4e216: each d^2 overflows, so the schedule divides
    # by d twice there, and Theorem 4 still spends P_T on equal coefficients.
    s = make_symmetric(4, 1, 1e100, 1.0, 0.0, Setting.ASYM_I,
                       sum_power_transmit=4e16, sum_power_attack=0.0)
    coeffs = asym.solve_theorem4(s).profile.transmit_coeffs
    assert coeffs == (pytest.approx(1e8 / math.sqrt(2.0), rel=1e-14),) * 4


def test_theorem5_lanes_whose_power_ratio_underflows_stay_in_the_scan():
    # At P_T = 1e-300 and alpha = 1e150, P_T/t2 underflows on every lambda3
    # of the grid: each lane still spends P_T at c = sqrt(P_T/2), has its
    # scalar residual's bits, and the residual changes sign once, between
    # values near 1e-301 whose product underflows.
    s = _asym_scenario(Setting.ASYM_II, [1e150], [1.0], [1.0], [1.0], 1e-300, 0.1)
    grid = asym._SCAN_GRID
    _, c_m = asym._schedule(s, grid * s.sum_power_transmit, s.sum_power_transmit)
    assert c_m[:, 0].tolist() == pytest.approx([math.sqrt(0.5e-300)] * len(grid), rel=1e-15)
    values, ok = asym._outer_residual(s, grid, s.sum_power_transmit, s.sum_power_attack)
    assert ok.all()
    assert values.tolist() == _scalar_scan(s, grid)
    assert len(asym._sign_changes(values, ok)) == 1


def test_theorem4_decentralized_recompute_bit_exact(rng):
    for _ in range(20):
        s = random_asym_scenario(rng, Setting.ASYM_I)
        rep = asym.solve_theorem4(s)
        lam1, lam2 = rep.multipliers["lambda1"], rep.multipliers["lambda2"]
        for p, c in zip(s.transmitters, rep.profile.transmit_coeffs):
            d = p.input_second_moment + lam1 * p.alpha**2
            assert lam2 * (p.alpha * p.beta) / (2.0 * d) == c


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
    # The adversary coefficients come from the follower's point on its unit
    # sphere, not from the multipliers, so the recompute is a few ulps off.
    for p, c in zip(s.adversaries, rep.profile.adversary.coeffs):
        d = p.input_second_moment - lam1 * p.alpha**2
        assert abs(lam2 * p.alpha * p.beta / (2.0 * d) - c) <= 4 * math.ulp(c)


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
    if kind is GeneralLinearGaussian:  # one noise index per adversary, for the whole batch
        js = rng.integers(0, K, K).tolist()
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
            adversary = GeneralLinearGaussian(rows=tuple(
                (c, ss, j) for (c, ss), j in zip(rng.uniform(-1.0, 1.0, (K, 2)).tolist(), js)))
        profiles.append(StrategyProfile(
            transmit_coeffs=tuple(rng.uniform(-1.0, 1.0, M).tolist()), randomized=randomized,
            adversary=adversary, decoder_gain=0.0))
    return profiles


def _batched_costs(s, profiles, sign=1.0):
    """The cost core on all ``profiles`` at once: one lane per profile, every
    coefficient multiplied by ``sign``."""
    lowered = [p.adversary.lower(s.adversaries) for p in profiles]
    rows0, K = lowered[0], s.num_adversaries
    assert all([r[2] for r in rows] == [r[2] for r in rows0] for rows in lowered)
    rows = [tuple(sign * np.array([lw[k][i] for lw in lowered]) for i in range(2))
            + (rows0[k][2],) for k in range(K)]
    coeffs = [sign * np.array([p.transmit_coeffs[m] for p in profiles])
              for m in range(s.num_transmitters)]
    stats = asym._transmit_stats(s, coeffs) + asym._adversary_output_stats(s, rows)
    return asym._cost(*stats, profiles[0].randomized)


def _ref_direct_cost(s, p):
    """The oracle as a per-profile scalar loop, in its original operation
    order (the sums add in sensor order, as sum() does up to Python 3.11)."""
    r_t = own_t = 0.0
    for q, c in zip(s.transmitters, p.transmit_coeffs):
        r_t += q.beta * c * q.alpha
        own_t += q.alpha ** 2 * c * c
    rows = p.adversary.lower(s.adversaries)
    sig = own = jam = 0.0
    amps = [0.0] * (1 + max((j for _, _, j in rows), default=-1))
    for q, (c, ss, j) in zip(s.adversaries, rows):
        sig += q.alpha * (c * q.beta)
        own += q.alpha * q.alpha * c * c
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
                                               s.sum_power_attack)[0])
        except NonConvergence:
            values.append(None)
    return values


def test_theorem5_lane_scan_with_per_lane_budgets_matches_scalar_residual():
    # One lane pass over several (P_T, P_A) points of one network, as a
    # budget sweep scans them, has each point's scalar residuals bit for bit;
    # large P_A puts some points' lanes in the attacker-nulls regime.
    rng = np.random.default_rng(6)
    outcomes = collections.Counter()
    for _ in range(20):
        s = random_asym_scenario(rng, Setting.ASYM_II)
        points = [dataclasses.replace(s, sum_power_transmit=float(rng.uniform(0.5, 5.0)),
                                      sum_power_attack=float(rng.choice([0.1, 1.0, 10.0])))
                  for _ in range(4)]
        for point, (values, ok) in zip(points, asym.theorem5_scans(points)):
            scalar = _scalar_scan(point, asym._SCAN_GRID)
            assert ok.tolist() == [v is not None for v in scalar]
            assert values[ok].tolist() == [v for v in scalar if v is not None]
            outcomes["ok"] += int(ok.sum())
            outcomes["not ok"] += int((~ok).sum())
    assert outcomes["ok"] > 1000 and outcomes["not ok"] > 1000, outcomes


def test_theorem5_from_a_merged_scan_equals_the_lone_solve():
    s = random_asym_scenario(np.random.default_rng(3), Setting.ASYM_II)
    points = [dataclasses.replace(s, sum_power_attack=p_a) for p_a in (0.1, 0.3, 0.6)]
    for point, scan in zip(points, asym.theorem5_scans(points)):
        assert asym.solve_theorem5(point, scan) == asym.solve_theorem5(point)
    # A merged pass that raises leaves every point to scan alone: at
    # P_T = 1e300 the top of the lambda3 grid overflows the transmit
    # denominators, which only that point's own scan reports.
    overflowing = dataclasses.replace(s, sum_power_transmit=1e300)
    assert asym.theorem5_scans([points[0], overflowing]) == [None, None]
    with pytest.raises(NumericalFailure, match="lambda\\*alpha\\^2 overflows"):
        asym.solve_theorem5(overflowing)


def test_theorem5_array_scan_matches_scalar_residual():
    rng = np.random.default_rng(5)
    brackets = 0
    for _ in range(100):
        s = random_asym_scenario(rng, Setting.ASYM_II)
        grid = asym._SCAN_GRID
        values, ok = asym._outer_residual(s, grid, s.sum_power_transmit,
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


def test_adversary_response_lanes_match_the_scalar_solve():
    # One arithmetic, driven by _brentq_lanes on the lanes and by _brentq on
    # each row.  Random transmit coefficient lanes, some scaled towards zero so
    # that the attack budget dominates (no root) on a share of them.
    rng = np.random.default_rng(8)
    outcomes = collections.Counter()
    for _ in range(60):
        s = random_asym_scenario(rng, Setting.ASYM_II)
        c_m = rng.standard_normal((20, s.num_transmitters))
        c_m *= rng.choice([1e-3, 0.1, 1.0], size=(20, 1))
        lam1, lam2, c_k, ok = asym._follower(s, s.sum_power_attack)(c_m)
        for i, row in enumerate(c_m):
            try:
                want = asym._follower(s, s.sum_power_attack)(row)[:3]
            except NonConvergence as exc:
                assert not ok[i]
                outcomes[type(exc).__name__] += 1
                continue
            assert ok[i]
            assert (lam1[i], lam2[i]) == want[:2]
            assert c_k[i].tolist() == want[2].tolist()
            outcomes["root"] += 1
    assert outcomes["root"] > 100 and outcomes["NonConvergence"] > 100, outcomes


def test_follower_lambda2_has_the_oracle_statistics_bits():
    # lambda2 = -(2 P_A + 2 lambda1 (1 + own_t))/r_t on the oracle's own
    # (r_t, own_t): the follower sums the transmitters term by term as
    # ``_transmit_stats`` does, on each row and on the lanes.
    rng = np.random.default_rng(26)
    rows = 0
    for _ in range(300):
        s = random_asym_scenario(rng, Setting.ASYM_II)
        p_a = s.sum_power_attack
        c_m = rng.standard_normal((8, s.num_transmitters))
        respond = asym._follower(s, p_a)
        lam1, lam2, _, ok = respond(c_m)
        r_t, own_t = asym._transmit_stats(s, c_m.T)
        assert lam2[ok].tolist() == (-(2.0 * p_a + 2.0 * lam1 * (1.0 + own_t)) / r_t)[ok].tolist()
        for row in c_m[ok]:
            row_lam1, row_lam2 = respond(row)[:2]
            r, own = asym._transmit_stats(s, tuple(float(c) for c in row))
            assert row_lam2 == -(2.0 * p_a + 2.0 * row_lam1 * (1.0 + own)) / r
            rows += 1
    assert rows > 1000, rows


def test_theorem5_outer_residual_has_one_sign_change_on_random_instances():
    rng = np.random.default_rng(20240818)
    counts = collections.Counter()
    for _ in range(200):
        s = random_asym_scenario(rng, Setting.ASYM_II)
        grid = asym._SCAN_GRID
        counts[len(asym._sign_changes(*asym._outer_residual(
            s, grid, s.sum_power_transmit, s.sum_power_attack)))] += 1
    print(f"sign changes of the outer residual over 200 AsymII instances: {dict(counts)}")
    # No sign change is the jam-dominant exit 2; none of these has two roots.
    assert set(counts) <= {0, 1} and counts[1] > 100


def test_theorem5_multiple_sign_changes_add_a_tagged_note(monkeypatch):
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    plain = asym.solve_theorem5(s)
    assert not any("asym2-multiple-roots" in n for n in plain.discrepancy_notes)
    scan = asym._outer_residual

    def with_a_late_sign_change(s, mu, p_t, p_a):
        values, ok = scan(s, mu, p_t, p_a)
        if np.ndim(mu) == 0:  # the outer Brent's calls
            return values, ok
        assert ok[-2:].all() and len(asym._sign_changes(values, ok)) == 1
        values = values.copy()
        values[-1] = -values[-2]
        return values, ok

    monkeypatch.setattr(asym, "_outer_residual", with_a_late_sign_change)
    rep = asym.solve_theorem5(s)
    grid = asym._SCAN_GRID * s.sum_power_transmit
    first = int(asym._sign_changes(*scan(s, asym._SCAN_GRID, s.sum_power_transmit,
                                         s.sum_power_attack))[0])
    assert rep.multipliers == plain.multipliers
    assert rep.discrepancy_notes[:-1] == plain.discrepancy_notes
    assert rep.discrepancy_notes[-1] == (
        f"outer residual changes sign 2 times on the {len(grid)}-point scan; solved the first "
        f"bracket [{float(grid[first])!r}, {float(grid[first + 1])!r}] [asym2-multiple-roots]")
    assert "asym2-multiple-roots" in KNOWN_DISCREPANCY_TAGS


def test_theorem5_iterations_count_the_scanned_bracket_ends(monkeypatch):
    # The outer Brent takes its end values from the scan, yet a report's
    # iterations still count every value scipy's brentq would ask for.
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    p_t, p_a = s.sum_power_transmit, s.sum_power_attack
    grid = asym._SCAN_GRID
    first = asym._sign_changes(*asym._outer_residual(s, grid, p_t, p_a))[0]
    calls = []
    _scipy_brentq(lambda x: calls.append(x) or asym._outer_residual(s, x, p_t, p_a)[0],
                  float(grid[first]), float(grid[first + 1]))
    monkeypatch.setattr(asym, "KKT_TOL", 0.0)  # every residual vector is above it
    with pytest.raises(NonConvergence, match="above tolerance") as exc:
        asym.solve_theorem5(s)
    assert exc.value.iterations == len(grid) + len(calls)


# -- the in-repo Brent port against scipy's brentq -------------------------

def _scipy_brentq(f, a, b):
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=256)


def _brent_cases():
    cases = [
        (lambda x: x * x - 2.0, 0.0, 2.0),  # smooth
        (lambda x: math.cos(x) - x, -1.0, 1.0),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(x) - 1e6, 0.0, 50.0),
        (lambda x: (x - 1.0) ** 9, 0.0, 3.0),  # flat at the root
        (lambda x: math.tanh(1e-3 * (x - 0.3)), -5.0, 5.0),
        (lambda x: 1e-12 * (x - 0.7), 0.0, 1.0),
        (lambda x: math.atan(1e8 * (x - 0.123)), -1.0, 1.0),  # steep
        (lambda x: math.exp(50.0 * x) - 2.0, -1.0, 1.0),
        (lambda x: 1.0 if x > 0.25 else -1.0, -3.0, 7.0),  # a step: pure bisection
        (lambda x: 1.0 / x - 3.0, 0.01, 10.0),
    ]
    rng = np.random.default_rng(5)
    for _ in range(40):  # random cubics with a root in the bracket
        r, c2, c1 = rng.uniform(-2.0, 2.0, 3)
        cases.append((lambda x, r=r, c2=c2, c1=c1: (x - r) * (x * x + c2 * x + c1 * c1 + 1.0),
                      float(r - rng.uniform(0.1, 3.0)), float(r + rng.uniform(0.1, 3.0))))
    return cases


def test_brentq_port_equals_scipy_bit_for_bit():
    for f, a, b in _brent_cases():
        ours, theirs = [], []
        got = asym._brentq(lambda x: ours.append(x) or f(x), a, b)
        want = _scipy_brentq(lambda x: theirs.append(x) or f(x), a, b)
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert ours == theirs  # the same abscissae, in the same order


def test_brentq_from_known_end_values_skips_their_calls():
    for f, a, b in _brent_cases():
        ours, theirs = [], []
        got = asym._brentq(lambda x: ours.append(x) or f(x), a, b, f(a), f(b))
        want = _scipy_brentq(lambda x: theirs.append(x) or f(x), a, b)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert theirs[:2] == [a, b] and ours == theirs[2:]  # two calls fewer
    # Only the end left out is evaluated.
    calls = []
    assert asym._brentq(lambda x: calls.append(x) or x - 1.0, 0.0, 3.0, fb=2.0) == 1.0
    assert calls[0] == 0.0 and 3.0 not in calls


def test_brentq_port_edge_behaviour():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert asym._brentq(f, 1.0, 3.0) == 1.0  # a root at an end is returned
    assert asym._brentq(f, -2.0, 1.0) == 1.0
    assert calls == [1.0, 3.0, -2.0, 1.0]
    with pytest.raises(ValueError, match="different signs"):
        asym._brentq(f, 2.0, 3.0)
    with pytest.raises(ValueError, match="NaN"):
        asym._brentq(lambda x: math.nan, 0.0, 1.0)
    # A step across a bracket of width 2e300 takes about a thousand
    # bisections, beyond the 256-iteration budget.
    with pytest.raises(RuntimeError, match="256 iterations"):
        asym._brentq(lambda x: 1.0 if x > 0.5 else -1.0, -1e300, 1e300)
    with pytest.raises(RuntimeError, match="256 iterations"):
        _scipy_brentq(lambda x: 1.0 if x > 0.5 else -1.0, -1e300, 1e300)
