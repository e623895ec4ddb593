"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from jamnet import (
    GeneralLinearGaussian,
    IndependentNoise,
    NetworkScenario,
    NonConvergence,
    SensorParams,
    Setting,
    StrategyProfile,
    make_symmetric,
    validate_scenario,
)
from jamnet import asym, bounds, simulate, symmetric as sym
from jamnet.cli import main
from conftest import _ref_local_probe, random_asym_scenario, random_symmetric_configs


class _report:
    def __init__(self, num: int, desc: str):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.num:02d}] {status}: {self.desc}")
        return False


_CONFIGS = random_symmetric_configs(100, seed=1001)


def test_criterion_01_closed_form_oracle_agreement():
    with _report(1, "setting-I closed form equals direct MMSE oracle to 1e-12 on 100 configs"):
        worst = 0.0
        for M, K, alpha, beta, power in _CONFIGS:
            s = make_symmetric(M, K, alpha, beta, power, Setting.SYM_I)
            rep = sym.solve_setting1(s)
            worst = max(worst, abs(rep.cost - rep.oracle_cost))
        assert worst <= 1e-12, f"worst deviation {worst}"


@pytest.mark.xfail(
    strict=True,
    reason="the published claim that transmitter coordination strictly lowers "
    "the equilibrium cost is false outside a bounded parameter pocket: "
    "coordinated jamming at received power alpha^2*K^2*P can hurt more than "
    "the opposite-sign linear attack the no-coordination solution assumes "
    "(minimal counterexample M=7, K=1, alpha=beta=P=1: 5.5/30 > 4/22; for such "
    "parameters the no-coordination follower itself prefers noise over the "
    "opposite-sign attack, confirmed by Monte Carlo).  The pocket where the "
    "ordering does hold is asserted in the companion test.",
)
def test_criterion_02_corollary3_ordering():
    with _report(2, "coordinated saddle cost below published and oracle Stackelberg costs"):
        for M, K, alpha, beta, power in _CONFIGS:
            coord = sym.cost_setting1(M, alpha**2 * K**2 * power, alpha, beta, power)
            printed = sym.cost_setting2(M, K, alpha, beta, power)
            s2 = make_symmetric(M, K, alpha, beta, power, Setting.SYM_II)
            mirror = asym.direct_mmse_cost(s2, sym.theorem2_profile(s2))
            assert coord < printed
            assert coord < mirror


def test_criterion_02_ordering_in_validity_pocket():
    with _report(2, "coordination ordering on the instances where the published claim holds"):
        for M in (2, 3, 4, 5, 6):
            coord = sym.cost_setting1(M, 1.0, 1.0, 1.0, 1.0)
            printed = sym.cost_setting2(M, 1, 1.0, 1.0, 1.0)
            s2 = make_symmetric(M, 1, 1.0, 1.0, 1.0, Setting.SYM_II)
            mirror = asym.direct_mmse_cost(s2, sym.theorem2_profile(s2))
            assert coord < printed
            assert coord < mirror
        # The worked instance: 0.6 < 0.75 (published) and 0.6 < 5/6 (oracle).
        assert sym.cost_setting1(2, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.6)
        # First integer counterexample on the plainest slice: M=7, K=1.
        coord7 = sym.cost_setting1(7, 1.0, 1.0, 1.0, 1.0)
        assert coord7 > sym.cost_setting2(7, 1, 1.0, 1.0, 1.0)


def test_criterion_03_corollary1_ordering():
    with _report(3, "coordinated jamming costs at least as much as independent (strict for K>=2)"):
        for M, K, alpha, beta, power in _CONFIGS:
            coord, indep = sym.coordination_gap(M, K, alpha, beta, power)
            assert coord >= indep
            if K >= 2:
                assert coord > indep


def _criterion4_cases():
    cases = []
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    cases.append(("SymI M=2 K=1 randomized/coordinated", s, sym.theorem1_profile(s), 101))
    s = make_symmetric(5, 3, 0.7, 1.3, 2.0, Setting.SYM_I)
    cases.append(("SymI M=5 K=3 randomized/coordinated", s, sym.theorem1_profile(s), 102))
    s = make_symmetric(3, 1, 1.0, 1.0, 1.0, Setting.SYM_II)
    cases.append(("SymII M=3 K=1 deterministic/mirror", s, sym.theorem2_profile(s), 103))
    s = make_symmetric(6, 2, 1.4, 0.5, 0.8, Setting.SYM_II)
    cases.append(("SymII M=6 K=2 deterministic/mirror", s, sym.theorem2_profile(s), 104))
    s = make_symmetric(5, 4, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.6, eta=0.25)
    cases.append(("SymIII mixed jammer, silent transmitters", s,
                  sym.solve_setting3(s).profile, 105))

    s = validate_scenario(NetworkScenario(
        transmitters=(SensorParams(1.5, 0.9, 0.0), SensorParams(0.7, 1.8, 0.0),
                      SensorParams(1.1, 0.6, 0.0)),
        adversaries=(SensorParams(0.8, 1.0, 0.0), SensorParams(1.6, 1.3, 0.0)),
        setting=Setting.ASYM_I, sum_power_transmit=2.5, sum_power_attack=1.2,
    ))
    cases.append(("AsymI power allocation vs best-channel attack", s,
                  asym.solve_theorem4(s).profile, 106))

    s = validate_scenario(NetworkScenario(
        transmitters=(SensorParams(1.5, 0.9, 0.0), SensorParams(0.7, 1.8, 0.0),
                      SensorParams(1.1, 0.6, 0.0)),
        adversaries=(SensorParams(0.8, 1.0, 0.0), SensorParams(1.6, 1.3, 0.0)),
        setting=Setting.ASYM_II, sum_power_transmit=3.0, sum_power_attack=0.8,
    ))
    cases.append(("AsymII no-coordination equilibrium", s,
                  asym.solve_theorem5(s).profile, 107))

    s = make_symmetric(3, 2, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = StrategyProfile(
        transmit_coeffs=sym.theorem1_profile(s).transmit_coeffs, randomized=False,
        adversary=IndependentNoise(variances=(1.0, 1.0)), decoder_gain=0.0,
    )
    p = dataclasses.replace(p, decoder_gain=asym.bayes_decoder_gain(s, p))
    cases.append(("deterministic transmitters vs independent noise", s, p, 108))

    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    p = StrategyProfile(
        transmit_coeffs=sym.theorem1_profile(s).transmit_coeffs, randomized=True,
        adversary=GeneralLinearGaussian(rows=((0.3, math.sqrt(1.0 - 2.0 * 0.09), 0),)),
        decoder_gain=0.0,
    )
    p = dataclasses.replace(p, decoder_gain=asym.bayes_decoder_gain(s, p))
    cases.append(("randomized transmitters vs correlated linear-Gaussian attack", s, p, 109))

    # The adversaries' interior best response to the Theorem-2 profile: each
    # sends c*U_k, c = -(1 + own_t + w^2*K*P)/r_t * alpha*beta/g with
    # w^2 = K*alpha^2 and g = w^2*beta^2 + w^2 - alpha^2, and the rest of its
    # power on one shared noise, so c and s are both nonzero on one sensor.
    M, K, alpha, beta, power = 4, 2, 1.5, 2.0, 1.0
    s = make_symmetric(M, K, alpha, beta, power, Setting.SYM_II)
    p = sym.theorem2_profile(s)
    r_t, own_t = asym._transmit_stats(s, p.transmit_coeffs)
    w2 = K * alpha**2
    c = -(1.0 + own_t + w2 * K * power) / r_t * alpha * beta / (w2 * beta**2 + w2 - alpha**2)
    rows = ((c, math.sqrt(power - (1.0 + beta**2) * c * c), 0),) * K
    p = asym._bayes_profile(s, p.transmit_coeffs, False, GeneralLinearGaussian(rows=rows))
    report = simulate.best_response_adversary_search(s, sym.theorem2_profile(s))
    assert report.deviation_params.startswith("interior")
    assert report.best_deviation_cost == pytest.approx(asym.direct_mmse_cost(s, p), rel=1e-12)
    cases.append(("Theorem-2 transmitters vs the interior adversary response", s, p, 111))

    s = make_symmetric(3, 0, 1.0, 1.0, 1.0, Setting.SYM_I)
    cases.append(("no adversary", s, sym.theorem1_profile(s), 110))
    return cases


def test_criterion_04_monte_carlo_agreement():
    with _report(4, "empirical MSE within 3 SE of the oracle at 1e6 samples; bit-identical reruns"):
        for label, s, p, seed in _criterion4_cases():
            analytic = asym.direct_mmse_cost(s, p)
            r = simulate.run_monte_carlo(s, p, 10**6, seed=seed)
            dev = abs(r.empirical_mse - analytic)
            assert dev <= 3.0 * r.standard_error, (label, dev, r.standard_error)
            r2 = simulate.run_monte_carlo(s, p, 10**6, seed=seed)
            assert r2.empirical_mse == r.empirical_mse, label
            assert r2.standard_error == r.standard_error, label


def test_criterion_05_saddle_certification():
    with _report(5, "exact saddle certificate for the randomized profile; deterministic exploited"):
        s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
        p = sym.theorem1_profile(s)
        rand_rep = simulate.best_response_adversary_search(s, p)
        assert rand_rep.base_cost == pytest.approx(0.6, abs=1e-15)
        assert rand_rep.best_deviation_cost == rand_rep.base_cost
        assert rand_rep.deviation_params == "no deviation improves on the profile"
        det_rep = simulate.best_response_adversary_search(
            s, dataclasses.replace(p, randomized=False)
        )
        assert det_rep.best_deviation_cost > 0.6 + 1e-2


def test_criterion_06_theorem4_identities():
    with _report(6, "power-allocation saddle identities and single-sensor values"):
        rng = np.random.default_rng(606)
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

        s0 = make_symmetric(1, 1, 1.0, 1.0, 1.0, Setting.ASYM_I,
                            sum_power_transmit=1.0, sum_power_attack=0.0)
        rep0 = asym.solve_theorem4(s0)
        assert rep0.profile.transmit_coeffs[0] ** 2 == pytest.approx(0.5, rel=1e-12)
        assert rep0.cost == pytest.approx(0.75, abs=1e-12)
        # The published closed form (6/7 here) is reported, never asserted equal.
        assert any(repr(6 / 7) in n for n in rep0.discrepancy_notes)

        s1 = make_symmetric(1, 1, 1.0, 1.0, 1.0, Setting.ASYM_I,
                            sum_power_transmit=1.0, sum_power_attack=1.0)
        assert asym.solve_theorem4(s1).cost == pytest.approx(2.5 / 3.0, abs=1e-12)


def _converged_asym2_instances(count=20, max_tries=120, seed=707):
    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        s = random_asym_scenario(rng, Setting.ASYM_II)
        try:
            out.append((s, asym.solve_theorem5(s)))
        except NonConvergence:
            continue
    return out, tries


def test_criterion_07_theorem5_solver():
    with _report(7, "no-coordination solver: residuals, multiplier identities, probe suites"):
        instances, tries = _converged_asym2_instances()
        assert len(instances) == 20, f"only {len(instances)} converged in {tries} tries"
        for s, rep in instances:
            assert max(abs(r) for r in rep.kkt_residuals) < 1e-8
            lam = rep.multipliers
            assert abs(lam["lambda4"] * lam["lambda1"] + lam["lambda2"] * lam["lambda3"]) <= (
                1e-8 * max(1.0, abs(lam["lambda4"] * lam["lambda1"]))
            )
            assert abs(
                s.sum_power_transmit / lam["lambda3"]
                - s.sum_power_attack / lam["lambda1"] - 1.0
            ) <= 1e-8
            tx = simulate.best_response_transmitter_search(s, rep.profile)
            assert tx.best_deviation_cost >= tx.base_cost - 1e-8
            adv = _ref_local_probe(s, rep.profile)
            assert adv.best_deviation_cost <= adv.base_cost + 1e-8


def test_criterion_07_nonconvergence_exits_2(tmp_path):
    with _report(7, "non-convergent instance exits with code 2 and residual diagnostics"):
        doc = {
            "setting": "AsymII",
            "transmitters": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
            "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
            "sum_power_transmit": 0.1,
            "sum_power_attack": 50.0,
            "output_path": str(tmp_path / "diverged"),
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["solve-asym", "--config", str(cfg)]) == 2
        payload = json.loads((tmp_path / "diverged.json").read_text())
        assert payload["error"]["type"] == "NonConvergence"
        assert "residuals" in payload["error"]


@pytest.mark.xfail(
    strict=True,
    reason="the published multiplier identity 1 = P_T/lambda1 + P_A/lambda3 is "
    "inconsistent with the stationarity system the equilibrium coefficients "
    "satisfy; the consistent form 1 = P_T/lambda3 - P_A/lambda1 is asserted in "
    "criterion 7 (see the asym2-multiplier-identity discrepancy notes)",
)
def test_criterion_07_published_multiplier_identity():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.ASYM_II)
    rep = asym.solve_theorem5(s)
    lam = rep.multipliers
    assert s.sum_power_transmit / lam["lambda1"] + s.sum_power_attack / lam["lambda3"] == (
        pytest.approx(1.0, abs=1e-8)
    )


def test_criterion_08_epsilon_threshold():
    with _report(8, "coordination threshold: residual, quadratic oracle, branch switch"):
        M, K = 4, 1
        eps0 = sym.epsilon_threshold(M, K, 1.0, 1.0, 1.0, 1.0)
        target = sym.setting2_formula(M, K, 1.0, 1.0, 1.0)
        achieved = sym.cost_setting1(M * eps0, 1.0, 1.0, 1.0, 1.0)
        assert abs(achieved - target) <= 1e-14

        t = target
        a = t * 0.5
        b = (t - 1.0) * 0.5
        c = (t - 1.0) * 2.0
        oracle = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a) / M
        assert abs(eps0 - oracle) <= 1e-14 * oracle
        assert abs(eps0 - 0.933) <= 1e-3

        sensor = SensorParams(1.0, 1.0, 1.0)

        def probe(eps):
            return NetworkScenario(
                transmitters=(sensor,) * M, adversaries=(sensor,) * K,
                setting=Setting.SYM_III, epsilon=eps, eta=1.0,
            )

        assert sym.setting3_branch(probe(eps0 + 1e-6))[0] == "saddle"
        assert sym.setting3_branch(probe(eps0 - 1e-6))[0] == "stackelberg"
        assert sym.setting3_branch(probe(eps0))[0] == "tie"


def test_criterion_09_ceo_bound():
    with _report(9, "remote-source bound: exact D(0), shape, limit, spectrum"):
        assert bounds.ceo_distortion(0.0, [0.7, 1.9], 1.0) == 1.0
        assert bounds.ceo_distortion(0.0, [1.0], 2.5) == 2.5

        betas = [0.7, 1.4, 0.3]
        rates = np.linspace(0.0, 8.0, 100)
        d = np.array([bounds.ceo_distortion(r, betas) for r in rates])
        assert np.all(np.diff(d) < 0.0)
        assert np.all(np.diff(d, 2) > -1e-15)

        assert abs(
            bounds.ceo_distortion(50.0, betas) - bounds.ceo_estimation_floor(betas)
        ) <= 1e-9

        rng = np.random.default_rng(909)
        for _ in range(50):
            bt = rng.uniform(0.2, 3.0, size=rng.integers(1, 9))
            closed = bounds.ru_spectrum(bt)
            numeric = np.sort(np.linalg.eigvalsh(bounds.observation_covariance(bt)))
            assert np.max(np.abs(closed - numeric)) <= 1e-10


def test_criterion_10_maximal_correlation():
    with _report(10, "discretized maximal correlation: 1e-2 accuracy, doubling improves"):
        for rho in (0.0, 0.3, 0.5, 0.9):
            star = bounds.maximal_correlation_discrete(rho, 257, 5.0)
            assert abs(star - abs(rho)) <= 1e-2
        for rho in (0.3, 0.5, 0.9):
            err_n = abs(bounds.maximal_correlation_discrete(rho, 257, 5.0) - rho)
            err_2n = abs(bounds.maximal_correlation_discrete(rho, 514, 5.0) - rho)
            assert err_2n <= err_n + 1e-12
