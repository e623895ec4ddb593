import json
from pathlib import Path

import pytest

from jamnet import (
    CoordinatedNoise,
    GeneralLinearGaussian,
    IndependentNoise,
    InvalidProfile,
    InvalidScenario,
    LinearMirror,
    NetworkScenario,
    SensorParams,
    Setting,
    StrategyProfile,
    make_symmetric,
    validate_profile,
    validate_scenario,
)
from jamnet import asym, symmetric
from jamnet.model import KNOWN_DISCREPANCY_TAGS, scenario_from_dict, scenario_to_dict


def test_sensor_params_invariants():
    SensorParams(alpha=1.0, beta=2.0, power=0.0)
    with pytest.raises(InvalidScenario):
        SensorParams(alpha=0.0, beta=1.0, power=1.0)
    with pytest.raises(InvalidScenario):
        SensorParams(alpha=1.0, beta=-0.5, power=1.0)
    with pytest.raises(InvalidScenario):
        SensorParams(alpha=1.0, beta=1.0, power=-1.0)
    with pytest.raises(InvalidScenario):
        SensorParams(alpha=float("nan"), beta=1.0, power=1.0)


def test_symmetric_m2_k1_accepted():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_II)
    assert s.num_transmitters == 2 and s.num_adversaries == 1


def test_sym2_requires_k_less_than_m():
    with pytest.raises(InvalidScenario, match="K must be < M"):
        make_symmetric(1, 1, 1.0, 1.0, 1.0, Setting.SYM_II)


def test_asym_requires_sum_powers():
    sensor = SensorParams(alpha=1.0, beta=1.0, power=1.0)
    s = NetworkScenario(
        transmitters=(sensor,), adversaries=(sensor,), setting=Setting.ASYM_I,
        sum_power_attack=1.0,
    )
    with pytest.raises(InvalidScenario, match="P_T required"):
        validate_scenario(s)


def test_make_symmetric_counts_and_identity():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    sensors = s.transmitters + s.adversaries
    assert len(sensors) == 3
    assert all(p == sensors[0] for p in sensors)


def test_sym3_integer_fractions():
    s = make_symmetric(4, 1, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.75, eta=1.0)
    assert s.epsilon == 0.75
    with pytest.raises(InvalidScenario, match="integer"):
        make_symmetric(4, 1, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.3, eta=1.0)


def test_sym3_requires_epsilon_eta():
    with pytest.raises(InvalidScenario, match="epsilon"):
        make_symmetric(4, 1, 1.0, 1.0, 1.0, Setting.SYM_III, eta=1.0)
    with pytest.raises(InvalidScenario, match="eta"):
        make_symmetric(4, 1, 1.0, 1.0, 1.0, Setting.SYM_III, epsilon=0.75)


def test_symmetric_rejects_heterogeneous_sensors():
    a = SensorParams(alpha=1.0, beta=1.0, power=1.0)
    b = SensorParams(alpha=2.0, beta=1.0, power=1.0)
    s = NetworkScenario(transmitters=(a, b), adversaries=(a,), setting=Setting.SYM_I)
    with pytest.raises(InvalidScenario, match="identical"):
        validate_scenario(s)


def test_normalization_rescales_and_records():
    a = SensorParams(alpha=1.0, beta=1.0, power=1.0)
    s = NetworkScenario(
        transmitters=(a, a), adversaries=(a,), setting=Setting.SYM_I,
        source_variance=4.0, channel_noise_variance=2.0,
    )
    v = validate_scenario(s)
    assert v.source_variance == 1.0 and v.channel_noise_variance == 1.0
    assert v.transmitters[0].beta == pytest.approx(2.0)
    assert v.transmitters[0].alpha == pytest.approx(1.0 / 2.0**0.5)
    assert v.normalization_notes


@pytest.mark.parametrize(
    "scenario",
    [
        make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I),
        make_symmetric(4, 2, 0.7, 1.3, 2.5, Setting.SYM_III, epsilon=0.75, eta=0.5),
        make_symmetric(3, 2, 1.1, 0.4, 0.9, Setting.ASYM_II,
                       sum_power_transmit=2.0, sum_power_attack=0.5),
    ],
)
def test_scenario_roundtrips_bit_exact(scenario):
    payload = json.dumps(scenario_to_dict(scenario))
    assert scenario_from_dict(json.loads(payload)) == scenario


def test_profile_power_budget_enforced():
    s = make_symmetric(2, 1, 1.0, 1.0, 1.0, Setting.SYM_I)
    cap = (1.0 / 2.0) ** 0.5
    good = StrategyProfile(
        transmit_coeffs=(cap, cap), randomized=True,
        adversary=CoordinatedNoise(variance=1.0), decoder_gain=0.1,
    )
    validate_profile(s, good)
    over = StrategyProfile(
        transmit_coeffs=(cap * 1.001, cap), randomized=True,
        adversary=CoordinatedNoise(variance=1.0), decoder_gain=0.1,
    )
    with pytest.raises(InvalidProfile, match="power"):
        validate_profile(s, over)
    jam_over = StrategyProfile(
        transmit_coeffs=(cap, cap), randomized=True,
        adversary=CoordinatedNoise(variance=1.01), decoder_gain=0.1,
    )
    with pytest.raises(InvalidProfile, match="power"):
        validate_profile(s, jam_over)


def test_profile_sum_budgets_in_asymmetric_settings():
    s = make_symmetric(2, 2, 1.0, 1.0, 1.0, Setting.ASYM_II,
                       sum_power_transmit=2.0, sum_power_attack=1.0)
    c = (2.0 / 4.0) ** 0.5  # sum (1+b^2) c^2 = 2 exactly
    ok = StrategyProfile(
        transmit_coeffs=(c, c), randomized=False,
        adversary=LinearMirror(coeffs=(-0.5, 0.0)), decoder_gain=0.1,
    )
    validate_profile(s, ok)
    with pytest.raises(InvalidProfile, match="sum power"):
        validate_profile(
            s,
            StrategyProfile(
                transmit_coeffs=(c * 1.01, c), randomized=False,
                adversary=LinearMirror(coeffs=(0.0, 0.0)), decoder_gain=0.1,
            ),
        )


def test_adversary_strategy_shapes_checked():
    s = make_symmetric(2, 2, 1.0, 1.0, 1.0, Setting.SYM_I)
    with pytest.raises(InvalidProfile, match="one variance per adversary"):
        validate_profile(
            s,
            StrategyProfile(
                transmit_coeffs=(0.0, 0.0), randomized=True,
                adversary=IndependentNoise(variances=(1.0,)), decoder_gain=0.0,
            ),
        )
    with pytest.raises(InvalidProfile, match="one row per adversary"):
        validate_profile(
            s,
            StrategyProfile(
                transmit_coeffs=(0.0, 0.0), randomized=True,
                adversary=GeneralLinearGaussian(rows=((0.0, 1.0, 0),)),
                decoder_gain=0.0,
            ),
        )
    with pytest.raises(InvalidProfile, match="nonnegative integers"):
        validate_profile(
            s,
            StrategyProfile(
                transmit_coeffs=(0.0, 0.0), randomized=True,
                adversary=GeneralLinearGaussian(rows=((0.0, 1.0, 0), (0.0, 1.0, -1))),
                decoder_gain=0.0,
            ),
        )


def test_every_discrepancy_tag_is_named_by_a_solver():
    # Only the solvers' notes carry tags; a tag neither names is never emitted.
    source = "".join(Path(m.__file__).read_text() for m in (asym, symmetric))
    assert [tag for tag in KNOWN_DISCREPANCY_TAGS if tag not in source] == []
