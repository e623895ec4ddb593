import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from jamnet import (
    InvalidScenario,
    NetworkScenario,
    NoRoot,
    NumericalFailure,
    SensorParams,
    Setting,
    make_symmetric,
)
from jamnet import asym, symmetric as sym
from jamnet.model import profile_to_dict
from conftest import random_symmetric_configs


def test_cost_setting1_examples():
    # M=2, K=1 coordinated, alpha=beta=P=1: received noise power K^2 P = 1.
    assert sym.cost_setting1(2, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.6, abs=1e-15)
    assert sym.cost_setting1(0, 7.0, 1.0, 1.0, 1.0) == 1.0
    assert sym.cost_setting1(1, 0.0, 1.0, 1.0, 1.0) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(InvalidScenario):
        sym.cost_setting1(-1.0, 1.0, 1.0, 1.0, 1.0)


def test_decoder_gain_examples():
    assert sym.decoder_gain_setting1(2, 1.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2) / 5, abs=1e-14)
    assert sym.decoder_gain_setting1(0, 1.0, 1.0, 1.0, 1.0) == 0.0


def test_decoder_gain_is_stationary_point_of_quadratic_cost():
    # E{(S - g*gammaY)^2} = 1 - 2 g r + g^2 Q; finite-difference slope at the
    # returned gain must vanish.
    for m, q, alpha, beta, power in [(2, 1.0, 1.0, 1.0, 1.0), (5, 3.0, 0.7, 1.4, 2.0)]:
        g = sym.decoder_gain_setting1(m, q, alpha, beta, power)
        c = math.sqrt(power / (1.0 + beta * beta))
        r = m * c * alpha * beta
        total = (m * c * alpha * beta) ** 2 + m * c**2 * alpha**2 + q + 1.0

        def cost(gain):
            return 1.0 - 2.0 * gain * r + gain * gain * total

        h = 1e-6
        assert abs(cost(g + h) - cost(g - h)) / (2 * h) < 1e-8


def test_cost_setting2_examples():
    assert sym.cost_setting2(2, 1, 1.0, 1.0, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert sym.cost_setting2(3, 1, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(InvalidScenario):
        sym.cost_setting2(2, 2, 1.0, 1.0, 1.0)
    # Boundary probe, bypassing the precondition: numerator equals denominator.
    assert sym.setting2_formula(3, 3, 1.0, 1.0, 1.0) == 1.0


def test_setting2_oracle_pairing():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_II)
    rep = sym.solve_setting2(s)
    assert rep.cost == pytest.approx(0.75, abs=1e-15)
    assert rep.oracle_cost == pytest.approx(5.0 / 6.0, abs=1e-14)
    assert any("sym2-noise-term" in n for n in rep.discrepancy_notes)


def test_stackelberg_oracle_is_setting1_at_m_minus_k_with_2kv():
    # The oracle counts the own noise of all M + K sensors, the printed
    # setting-II cost that of M - K: the oracle's Stackelberg cost is setting
    # I's pair at n = M - K with received noise 2K*v, the printed one at (n, 0).
    for M, K, alpha, beta, power in random_symmetric_configs(2000, 11):
        s = make_symmetric(M, K, alpha, beta, power, Setting.SYM_II)
        _, _, oracle, _ = sym._stackelberg(s)
        v = asym._cap(alpha, beta, power)[2]
        want = sym.cost_setting1(M - K, 2 * K * v, alpha, beta, power)
        assert oracle == pytest.approx(want, rel=1e-12, abs=0.0), (M, K, alpha, beta, power)


def test_cost_setting1_monotone_in_m_and_q():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(0.2, 3.0))
        power = float(rng.uniform(0.1, 5.0))
        m1, m2 = sorted(rng.uniform(0.05, 12.0, size=2))
        q1, q2 = sorted(rng.uniform(0.0, 10.0, size=2))
        if m2 - m1 < 1e-6 or q2 - q1 < 1e-6:
            continue
        c_m = sym.cost_setting1(m2, q1, alpha, beta, power)
        assert c_m < sym.cost_setting1(m1, q1, alpha, beta, power)
        c_q = sym.cost_setting1(m1, q2, alpha, beta, power)
        assert c_q > sym.cost_setting1(m1, q1, alpha, beta, power)


def test_closed_form_matches_oracle_to_1e12():
    from conftest import random_symmetric_configs

    for M, K, alpha, beta, power in random_symmetric_configs(100, seed=11):
        s = make_symmetric(M, K, alpha, beta, power, Setting.SYM_I)
        rep = sym.solve_setting1(s)
        assert abs(rep.cost - rep.oracle_cost) <= 1e-12


def test_sym3_saddle_at_full_coordination_is_sym1_bit_for_bit():
    # At epsilon = eta = 1 SymIII's saddle branch is SymI's saddle, from the
    # same builder: only the JSON's coordinated_count (null against K) differs.
    checked = 0
    for M, K, alpha, beta, power in random_symmetric_configs(300, 30):
        s1 = make_symmetric(M, K, alpha, beta, power, Setting.SYM_I)
        s3 = make_symmetric(M, K, alpha, beta, power, Setting.SYM_III, epsilon=1.0, eta=1.0)
        if sym.setting3_branch(s3)[0] != "saddle":
            continue
        r1, r3 = sym.solve_setting1(s1), sym.solve_setting3(s3)
        bits = [[float.hex(x) for x in (r.cost, r.oracle_cost, r.profile.decoder_gain,
                                         *r.profile.transmit_coeffs)] for r in (r1, r3)]
        assert bits[0] == bits[1]
        assert (r3.profile.adversary.lower(s3.adversaries)
                == r1.profile.adversary.lower(s1.adversaries))
        a1, a3 = (profile_to_dict(r.profile)["adversary"] for r in (r1, r3))
        assert a1["coordinated_count"] is None and a3["coordinated_count"] == K
        assert {**a3, "coordinated_count": None} == a1
        checked += 1
    assert checked >= 50


def test_adversary_coordination_weakly_dominates():
    from conftest import random_symmetric_configs

    for M, K, alpha, beta, power in random_symmetric_configs(100, seed=13):
        coord, indep = sym.coordination_gap(M, K, alpha, beta, power)
        assert coord >= indep
        if K >= 2:
            assert coord > indep
        else:
            assert coord == pytest.approx(indep, abs=1e-15)


def test_transmitter_coordination_ordering_has_bounded_validity():
    # The published strict ordering (coordinated saddle cost below the
    # no-coordination cost) holds for small networks but fails once
    # coordinated jamming power K^2*P outweighs the opposite-sign attack;
    # M=7, K=1, alpha=beta=P=1 is the first integer counterexample on the
    # plainest slice.  The acceptance suite carries the full statement as a
    # strict expected failure.
    for M in (2, 3, 4, 5, 6):
        coord = sym.cost_setting1(M, 1.0, 1.0, 1.0, 1.0)
        printed2 = sym.cost_setting2(M, 1, 1.0, 1.0, 1.0)
        s2 = make_symmetric(M, 1, 1.0, 1.0, 1.0, Setting.SYM_II)
        mirror = asym.direct_mmse_cost(s2, sym.theorem2_profile(s2))
        assert coord < printed2 < mirror
    coord7 = sym.cost_setting1(7, 1.0, 1.0, 1.0, 1.0)
    assert coord7 > sym.cost_setting2(7, 1, 1.0, 1.0, 1.0)


def test_coordination_gap_examples():
    coord, indep = sym.coordination_gap(2, 1, 1.0, 1.0, 1.0)
    assert coord == pytest.approx(0.6, abs=1e-15)
    assert indep == pytest.approx(0.6, abs=1e-15)
    coord5, indep5 = sym.coordination_gap(5, 2, 1.0, 1.0, 1.0)
    assert coord5 > indep5
    c0, i0 = sym.coordination_gap(3, 0, 1.0, 1.0, 1.0)
    base = sym.cost_setting1(3, 0.0, 1.0, 1.0, 1.0)
    assert c0 == base and i0 == base


def _epsilon0_quadratic_oracle(M, K, eta, alpha, beta, power):
    """Independent root: the defining equation is quadratic in m."""
    t = sym.setting2_formula(M, K, alpha, beta, power)
    q = sym.effective_jam_power(K, eta, alpha, power)
    c2 = power / (1.0 + beta * beta)
    a = t * alpha * alpha * beta * beta * c2
    b = (t - 1.0) * c2 * alpha * alpha
    c = (t - 1.0) * (q + 1.0)
    m = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return m / M


def test_epsilon_threshold_value_and_residual():
    eps0 = sym.epsilon_threshold(4, 1, 1.0, 1.0, 1.0, 1.0)
    assert abs(eps0 - 0.933) < 1e-3
    oracle = _epsilon0_quadratic_oracle(4, 1, 1.0, 1.0, 1.0, 1.0)
    assert abs(eps0 - oracle) <= 1e-14 * oracle
    target = sym.setting2_formula(4, 1, 1.0, 1.0, 1.0)
    achieved = sym.cost_setting1(4 * eps0, 1.0, 1.0, 1.0, 1.0)
    assert abs(achieved - target) <= 1e-14


# (M, K, eta, alpha, beta, power): every threshold the tests of this module
# and the goldens probe, plus gains and powers far from 1.
_THRESHOLD_CONFIGS = [
    (4, 1, 1.0, 1.0, 1.0, 1.0), (4, 1, 0.0, 1.0, 1.0, 1.0), (5, 2, 1.0, 1.0, 1.0, 1.0),
    (5, 2, 0.0, 1.0, 1.0, 1.0), (5, 4, 0.25, 1.0, 1.0, 1.0), (3, 2, 1.0, 1.0, 1.0, 1.0),
    (10, 8, 0.5, 1.0, 1.0, 1.0), (7, 4, 0.5, 1.0, 1.0, 1.0), (4, 2, 0.5, 0.9, 1.2, 1.0),
    (4, 2, 0.0, 0.9, 1.2, 1.0), (4, 2, 0.5, 1.0, 1e20, 1e100), (3, 2, 0.5, 1e-10, 3.0, 1e100),
    (3, 2, 0.5, 1e10, 1e10, 1.0), (6, 3, 1 / 3, 0.5, 0.2, 3.0),
]


@pytest.mark.parametrize("config", _THRESHOLD_CONFIGS)
def test_epsilon_threshold_matches_quadratic_oracle(config):
    eps0 = sym.epsilon_threshold(*config)
    assert abs(eps0 - _epsilon0_quadratic_oracle(*config)) <= 1e-14 * eps0


@pytest.mark.parametrize("config", _THRESHOLD_CONFIGS + [
    # t within 5e-5 of 1: the float t loses digits to 1 - t, the oracle above
    # inherits the loss (1.9e-12 relative here) and the threshold does not.
    (6, 3, 1 / 3, 0.5, 1e-3, 1e10), (1, 0, 0.0, 7.0, 0.1, 1e-4),
])
def test_epsilon_threshold_brackets_the_exact_root(config):
    # The quadratic in exact rational arithmetic on the float inputs changes
    # sign within 1e-15 relative of the returned root.
    M, K, eta, alpha, beta, power = (Fraction(v) for v in config)
    ca2 = power / (1 + beta * beta) * alpha * alpha
    n = M - K
    t = (n * ca2 + 1) / (n * n * ca2 * beta * beta + n * ca2 + 1)
    q = alpha * alpha * ((K * eta) ** 2 + K * (1 - eta)) * power

    def quadratic(m):
        return t * beta * beta * m * m - (1 - t) * m - (1 - t) * (q + 1) / ca2

    m = M * Fraction(sym.epsilon_threshold(*config))
    assert quadratic(m * Fraction(1 - 1e-15)) < 0 < quadratic(m * Fraction(1 + 1e-15))


def test_epsilon_threshold_eta_dependence():
    # K = 1: coordinated and uncoordinated single jammers carry the same
    # received power (K^2 = K), so the thresholds coincide.
    e1 = sym.epsilon_threshold(4, 1, 1.0, 1.0, 1.0, 1.0)
    e0 = sym.epsilon_threshold(4, 1, 0.0, 1.0, 1.0, 1.0)
    assert abs(e1 - e0) < 1e-9
    # K = 2: less coordination means less received noise, hence a lower bar.
    s1 = sym.epsilon_threshold(5, 2, 1.0, 1.0, 1.0, 1.0)
    s0 = sym.epsilon_threshold(5, 2, 0.0, 1.0, 1.0, 1.0)
    assert s0 < s1


def test_epsilon_threshold_no_root_when_target_unreachable():
    # Zero power pins the setting-I cost at 1 for every m, and so does an
    # alpha whose square underflows: the target t is then 1 as well.
    with pytest.raises(NoRoot):
        sym.epsilon_threshold(2, 1, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(NoRoot):
        sym.epsilon_threshold(4, 2, 0.5, 1e-200, 1.0, 1.0)


def test_epsilon_threshold_range_and_numerical_failure():
    # The threshold may lie far beyond M: a root, not an exit 2.
    assert sym.epsilon_threshold(4, 2, 0.5, 1.0, 1e20, 1e100) == pytest.approx(5e19, rel=1e-14)
    # alpha^2 overflows: the setting-II target is inf/inf.
    with pytest.raises(NumericalFailure, match="target nan"):
        sym.epsilon_threshold(4, 2, 0.5, 1e200, 1e20, 1e100)
    # alpha^2 * P = 1e300 is finite when formed as alpha*(alpha*P): the root
    # is the exact one, 0.85385093760294342...
    assert sym.epsilon_threshold(3, 2, 0.5, 1e200, 1.0, 1e-100) == 0.8538509376029434
    # alpha^2 * P = 1e310 overflows in the jamming power alone, while the
    # setting-II target (v = 1e290) is finite: the root is infinite.
    with pytest.raises(NumericalFailure, match="received jamming power inf is not finite"):
        sym.epsilon_threshold(3, 2, 0.5, 1e200, 1e10, 1e-90)


@pytest.mark.parametrize("M, K, eta, epsilon", [
    (5, 4, 0.25, 0.4), (3, 2, 1.0, 2 / 3), (10, 8, 0.5, 0.7), (7, 4, 0.5, 6 / 7),
])
def test_setting3_tie_on_the_threshold(M, K, eta, epsilon):
    # M*epsilon is the exact rational root of the threshold quadratic.
    s = make_symmetric(M, K, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=epsilon, eta=eta)
    assert sym.setting3_branch(s)[0] == "tie"


@pytest.mark.parametrize("M", [1, 3, 8])
@pytest.mark.parametrize("alpha, beta, power", [
    (1.0, 1.0, 1.0), (0.3, 2.5, 4.0), (1e-3, 1e3, 1e6), (7.0, 0.1, 1e-4),
])
def test_setting3_without_adversaries_ties_at_full_coordination(M, alpha, beta, power):
    # K = 0: both costs are the jammer-free setting-I cost, equal at m = M.
    s = make_symmetric(M, 0, alpha, beta, power, Setting.SYM_III, epsilon=1.0, eta=0.0)
    branch, eps0 = sym.setting3_branch(s)
    assert branch == "tie" and abs(eps0 - 1.0) <= 1e-12


def test_setting3_branches():
    saddle = make_symmetric(4, 1, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=1.0, eta=1.0)
    rep = sym.solve_setting3(saddle)
    assert sym.setting3_branch(saddle)[0] == "saddle"
    expected = sym.cost_setting1(4, 1.0, 1.0, 1.0, 1.0)
    assert rep.cost == pytest.approx(expected, abs=1e-15)
    assert rep.oracle_cost == pytest.approx(expected, abs=1e-12)

    stack = make_symmetric(4, 1, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.5, eta=1.0)
    rep2 = sym.solve_setting3(stack)
    assert sym.setting3_branch(stack)[0] == "stackelberg"
    assert rep2.cost == pytest.approx(sym.cost_setting2(4, 1, 1.0, 1.0, 1.0), abs=1e-15)

    zero = make_symmetric(4, 1, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.0, eta=1.0)
    assert sym.setting3_branch(zero)[0] == "stackelberg"


def _raw_sym3(M, K, epsilon, eta):
    sensor = SensorParams(alpha=1.0, beta=1.0, power=1.0)
    return NetworkScenario(
        transmitters=(sensor,) * M, adversaries=(sensor,) * K,
        setting=Setting.SYM_III, epsilon=epsilon, eta=eta,
    )


def test_setting3_switches_exactly_at_threshold():
    eps0 = sym.epsilon_threshold(4, 1, 1.0, 1.0, 1.0, 1.0)
    # Boundary probes bypass the integer-fraction validation on purpose.
    assert sym.setting3_branch(_raw_sym3(4, 1, eps0 + 1e-6, 1.0))[0] == "saddle"
    assert sym.setting3_branch(_raw_sym3(4, 1, eps0 - 1e-6, 1.0))[0] == "stackelberg"
    assert sym.setting3_branch(_raw_sym3(4, 1, eps0, 1.0))[0] == "tie"
    tie_rep = sym.solve_setting3(_raw_sym3(4, 1, eps0, 1.0))
    assert any("tie" in n for n in tie_rep.discrepancy_notes)


def test_setting3_mixed_jammer_profile():
    s = make_symmetric(5, 4, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.6, eta=0.25)
    branch, eps0 = sym.setting3_branch(s)
    assert branch == "saddle"
    assert eps0 == pytest.approx(0.4, abs=1e-9)
    rep = sym.solve_setting3(s)
    # 3 active + 2 silent transmitters; 1 coordinated + 3 independent jammers.
    assert rep.profile.transmit_coeffs[3] == 0.0 and rep.profile.transmit_coeffs[4] == 0.0
    assert rep.profile.adversary.coordinated_count == 1
    expected = sym.cost_setting1(3.0, 4.0, 1.0, 1.0, 1.0)
    assert rep.cost == pytest.approx(expected, abs=1e-15)
    assert rep.oracle_cost == pytest.approx(expected, abs=1e-12)


def _exact_costs(M, K, alpha, beta, power):
    """{setting: (published cost, oracle cost)} for SymI and SymII in exact
    rationals on the float inputs: setting I's oracle is its published cost,
    and setting II's oracle counts the own noise of all M + K sensors."""
    M, K, alpha, beta, power = (Fraction(x) for x in (M, K, alpha, beta, power))
    v = alpha * alpha * power / (1 + beta * beta)  # c^2 a^2
    u2 = v * beta * beta  # c^2 a^2 b^2
    q = alpha * alpha * K * K * power
    n = M - K
    sym1 = (M * v + q + 1) / (M * M * u2 + M * v + q + 1)
    sym2 = (n * v + 1) / (n * n * u2 + n * v + 1)
    oracle2 = ((M + K) * v + 1) / (n * n * u2 + (M + K) * v + 1)
    return {Setting.SYM_I: (sym1, sym1), Setting.SYM_II: (sym2, oracle2)}


def test_symmetric_costs_are_exact_across_the_float_range():
    # Gains and powers log-uniform over [1e-300, 1e300]: every SymI and SymII
    # report that does not raise carries the published cost to 1e-12, and
    # its oracle cost is exact to 1e-12 wherever the transmit coefficient is
    # a normal float.
    rng = np.random.default_rng(2025)
    solvers = {Setting.SYM_I: sym.solve_setting1, Setting.SYM_II: sym.solve_setting2}
    for _ in range(2000):
        M = int(rng.integers(2, 7))
        K = int(rng.integers(1, M))
        alpha, beta, power = (float(x) for x in 10.0 ** rng.uniform(-300.0, 300.0, 3))
        for setting, (cost, oracle) in _exact_costs(M, K, alpha, beta, power).items():
            config = (M, K, alpha, beta, power, setting.value)
            try:
                rep = solvers[setting](make_symmetric(M, K, alpha, beta, power, setting))
            except (NumericalFailure, OverflowError):  # exit 2 at the CLI
                continue
            assert abs(Fraction(rep.cost) - cost) <= 1e-12, config
            if rep.profile.transmit_coeffs[0] >= sys.float_info.min:
                assert abs(Fraction(rep.oracle_cost) - oracle) <= 1e-12, config


@pytest.mark.xfail(
    strict=True,
    reason="the transmit coefficient sqrt(P/(1+beta^2)) = 1e-325 lies below the float "
    "range, so the profile carries c = 0 and the oracle costs a network that sends "
    "nothing (1.0), while the published cost 0.2 is exact",
)
def test_oracle_where_the_transmit_coefficient_underflows():
    rep = sym.solve_setting1(make_symmetric(2, 1, 1e150, 1e250, 1e-150, Setting.SYM_I))
    assert rep.cost == pytest.approx(0.2, abs=1e-12)
    assert rep.oracle_cost == pytest.approx(0.2, abs=1e-12)
