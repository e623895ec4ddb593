"""Domain types, validation and construction of jamming-game instances.

A game instance is a Gaussian sensor network: one unit-variance source S,
M transmitter sensors and K captured (adversarial) sensors, each observing
U = beta*S + W through its own unit-variance sensing noise W, all summed
over a coherent Gaussian multiple-access channel Y = sum(alpha_i * X_i) + Z.
Source and channel-noise variances are normalized to 1; scenarios stated
with other variances are rescaled, never rejected.  A captured sensor sees
the source only through its own U_k, so it sends c_k*U_k plus a noise.

All types are immutable values after validation and safe to share across
threads.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Mapping, Union

POWER_TOL = 1e-9
INTEGER_TOL = 1e-9


class JamnetError(Exception):
    """Base class for all package errors."""


class InvalidScenario(JamnetError):
    """A scenario violates a structural invariant."""


class InvalidProfile(JamnetError):
    """A strategy profile is inconsistent with its scenario or over budget."""


class EmptyAdversarySet(JamnetError):
    """An operation requiring at least one adversarial sensor got none."""


class DegenerateInput(JamnetError):
    """No information path exists (all alpha*beta products vanish)."""


class NoRoot(JamnetError):
    """A bracketed root search could not establish a sign change."""


class NonConvergence(JamnetError):
    """An iterative solver stopped without meeting its residual target."""

    def __init__(self, message: str, iterations: int = 0, residuals: tuple = ()):
        super().__init__(message)
        self.iterations = iterations
        self.residuals = tuple(residuals)


class NumericalFailure(JamnetError):
    """A numerical construction produced non-normalizable or non-finite data."""


class Setting(str, enum.Enum):
    SYM_I = "SymI"
    SYM_II = "SymII"
    SYM_III = "SymIII"
    ASYM_I = "AsymI"
    ASYM_II = "AsymII"

    @property
    def is_symmetric(self) -> bool:
        return self in (Setting.SYM_I, Setting.SYM_II, Setting.SYM_III)


@dataclasses.dataclass(frozen=True)
class SensorParams:
    """Per-sensor constants: communication gain alpha, sensing gain beta,
    power budget (energy per symbol)."""

    alpha: float
    beta: float
    power: float

    def __post_init__(self):
        for name in ("alpha", "beta", "power"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidScenario(f"{name} must be finite, got {v!r}")
        if self.alpha <= 0:
            raise InvalidScenario(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0:
            raise InvalidScenario(f"beta must be > 0, got {self.beta}")
        if self.power < 0:
            raise InvalidScenario(f"power must be >= 0, got {self.power}")

    @property
    def input_second_moment(self) -> float:
        """E{U^2} = 1 + beta^2 for the unit-variance source/noise model."""
        return 1.0 + self.beta * self.beta


@dataclasses.dataclass(frozen=True)
class NetworkScenario:
    """A full game instance.

    ``transmitters``/``adversaries`` are ordered; in setting III the first
    M*epsilon transmitters and the first K*eta adversaries are the
    coordination-capable ones.  Construction performs no cross-field
    validation so that tests may build boundary probes; call
    :func:`validate_scenario` to enforce the full invariant set.
    """

    transmitters: tuple[SensorParams, ...]
    adversaries: tuple[SensorParams, ...]
    setting: Setting
    source_variance: float = 1.0
    channel_noise_variance: float = 1.0
    sum_power_transmit: float | None = None
    sum_power_attack: float | None = None
    epsilon: float | None = None
    eta: float | None = None
    normalization_notes: tuple[str, ...] = ()

    @property
    def num_transmitters(self) -> int:
        return len(self.transmitters)

    @property
    def num_adversaries(self) -> int:
        return len(self.adversaries)


# Every adversary strategy lowers to one linear-Gaussian form: adversary k
# sends X_k = c_k*U_k + s_k*theta_{j_k}, where the theta_j are independent
# unit normals and adversaries with the same j share one realization.
# ``lower`` returns the rows (c_k, s_k, j_k); j_k is unused where s_k = 0.
# The oracle, the Monte Carlo and the power checks read only this form.
LoweredStrategy = list[tuple[float, float, int]]


def _noise_amplitude(variance: float) -> float:
    if not variance >= 0.0:
        raise InvalidProfile("adversary output second moments must be finite and >= 0")
    return math.sqrt(variance)


@dataclasses.dataclass(frozen=True)
class CoordinatedNoise:
    """Source-independent Gaussian jamming; the first ``coordinated_count``
    adversaries emit one shared realization, any remaining ones draw
    independently at the same variance (``None`` means all coordinate)."""

    variance: float
    coordinated_count: int | None = None

    def lower(self, adversaries: tuple[SensorParams, ...]) -> LoweredStrategy:
        """Shared theta_0 for the coordinated prefix, theta_1..theta_{K-n} for
        the rest."""
        K = len(adversaries)
        n = K if self.coordinated_count is None else self.coordinated_count
        if not 0 <= n <= K:
            raise InvalidProfile(f"coordinated_count must lie in [0, {K}]")
        s = _noise_amplitude(self.variance)
        return [(0.0, s, max(0, k - n + 1)) for k in range(K)]


@dataclasses.dataclass(frozen=True)
class IndependentNoise:
    """Each adversary emits its own independent Gaussian noise."""

    variances: tuple[float, ...]

    def lower(self, adversaries: tuple[SensorParams, ...]) -> LoweredStrategy:
        """Adversary k on its own theta_k, zero-variance slots included."""
        if len(self.variances) != len(adversaries):
            raise InvalidProfile("IndependentNoise needs one variance per adversary")
        return [(0.0, _noise_amplitude(v), k) for k, v in enumerate(self.variances)]


@dataclasses.dataclass(frozen=True)
class LinearMirror:
    """Adversary k transmits coeffs[k] * U_k (uncoded linear)."""

    coeffs: tuple[float, ...]

    def lower(self, adversaries: tuple[SensorParams, ...]) -> LoweredStrategy:
        """c_k*U_k and no noise of its own."""
        if len(self.coeffs) != len(adversaries):
            raise InvalidProfile("LinearMirror needs one coefficient per adversary")
        return [(c, 0.0, 0) for c in self.coeffs]


@dataclasses.dataclass(frozen=True)
class GeneralLinearGaussian:
    """Adversary k transmits c*U_k + s*theta_j for its row (c, s, j): the
    lowered form itself, which every other class is a case of."""

    rows: tuple[tuple[float, float, int], ...]

    def lower(self, adversaries: tuple[SensorParams, ...]) -> LoweredStrategy:
        """The rows as given."""
        if len(self.rows) != len(adversaries):
            raise InvalidProfile("GeneralLinearGaussian needs one row per adversary")
        if not all(isinstance(j, int) and j >= 0 for _, _, j in self.rows):
            raise InvalidProfile("noise indices j_k must be nonnegative integers")
        return list(self.rows)


AdversaryStrategy = Union[
    CoordinatedNoise, IndependentNoise, LinearMirror, GeneralLinearGaussian
]


@dataclasses.dataclass(frozen=True)
class StrategyProfile:
    """Concrete strategies for every player.

    ``randomized`` means each transmitted symbol is multiplied by a shared
    gamma in {-1,+1} (fair coin) known to the receiver but not the
    adversary; the receiver then decodes with decoder_gain * gamma * Y.
    """

    transmit_coeffs: tuple[float, ...]
    randomized: bool
    adversary: AdversaryStrategy
    decoder_gain: float


@dataclasses.dataclass(frozen=True)
class EquilibriumReport:
    """Solver output: headline cost, the profile attaining it, Lagrange
    multipliers where applicable, first-order-condition residuals, the
    direct-MMSE oracle evaluation of the profile, and notes recording every
    closed-form/oracle discrepancy (never silently discarded)."""

    cost: float
    profile: StrategyProfile
    multipliers: Mapping[str, float]
    kkt_residuals: tuple[float, ...]
    oracle_cost: float
    discrepancy_notes: tuple[str, ...]


# Stable tags attached to reports whenever a published closed form and the
# direct oracle are both evaluated and differ, or a solver had to choose
# between several candidate solutions.
KNOWN_DISCREPANCY_TAGS = {
    "jammer-gain-alpha": "coordinated-jammer received power carries the channel gain: alpha^2*K^2*P",
    "sym2-noise-term": "setting-II closed form counts (M-K) own-noise terms; direct evaluation gives (M+K)",
    "asym1-cost-closed-form": "setting-I power-allocation cost closed form carries a spurious factor 2 per denominator",
    "asym2-cost-closed-form": "setting-II power-allocation cost closed form carries a spurious factor 2 per denominator",
    "asym2-multiplier-equation-sign": "published multiplier equation has (1 - sum a^2 c^2); stationarity forces (1 + sum a^2 c^2)",
    "asym2-multiplier-identity": "published identity 1 = P_T/l1 + P_A/l3; the consistent system satisfies 1 = P_T/l3 - P_A/l1",
    "asym2-multiple-roots": "the Theorem-5 outer residual changes sign more than once on the scan grid; the first bracket is solved",
}


def _all_identical(sensors: tuple[SensorParams, ...]) -> bool:
    if not sensors:
        return True
    first = sensors[0]
    return all(
        s.alpha == first.alpha and s.beta == first.beta and s.power == first.power
        for s in sensors
    )


def _near_integer(x: float) -> bool:
    return abs(x - round(x)) <= INTEGER_TOL


def validate_scenario(s: NetworkScenario) -> NetworkScenario:
    """Check every scenario invariant; return a normalized copy.

    Non-unit source/channel variances are folded into the gains
    (beta' = beta*sigma_S, alpha' = alpha/sigma_Z) and recorded in
    ``normalization_notes``; the reported MSE then refers to the
    unit-variance source.

    Raises:
        InvalidScenario: naming the first violated invariant.
    """
    if not math.isfinite(s.source_variance) or s.source_variance <= 0:
        raise InvalidScenario("source_variance must be positive")
    if not math.isfinite(s.channel_noise_variance) or s.channel_noise_variance <= 0:
        raise InvalidScenario("channel_noise_variance must be positive")

    notes = list(s.normalization_notes)
    transmitters = s.transmitters
    adversaries = s.adversaries
    if s.source_variance != 1.0 or s.channel_noise_variance != 1.0:
        sig_s = math.sqrt(s.source_variance)
        sig_z = math.sqrt(s.channel_noise_variance)

        def rescale(p: SensorParams) -> SensorParams:
            return SensorParams(alpha=p.alpha / sig_z, beta=p.beta * sig_s, power=p.power)

        transmitters = tuple(rescale(p) for p in transmitters)
        adversaries = tuple(rescale(p) for p in adversaries)
        notes.append(
            "rescaled to unit variances: beta *= %r, alpha /= %r; costs are MSE "
            "per unit source variance" % (sig_s, sig_z)
        )

    M, K = len(transmitters), len(adversaries)

    if s.setting.is_symmetric:
        if not _all_identical(transmitters + adversaries):
            raise InvalidScenario(
                "symmetric settings require identical (alpha, beta, power) across all sensors"
            )
    if s.setting in (Setting.SYM_II, Setting.SYM_III) and K >= M:
        raise InvalidScenario(f"K must be < M (got K={K}, M={M})")
    if s.setting is Setting.SYM_III:
        if s.epsilon is None:
            raise InvalidScenario("epsilon required for SymIII")
        if s.eta is None:
            raise InvalidScenario("eta required for SymIII")
        if not 0.0 <= s.epsilon <= 1.0:
            raise InvalidScenario("epsilon must lie in [0, 1]")
        if not 0.0 <= s.eta <= 1.0:
            raise InvalidScenario("eta must lie in [0, 1]")
        if not _near_integer(M * s.epsilon):
            raise InvalidScenario(f"M*epsilon must be an integer (got {M * s.epsilon})")
        if not _near_integer(K * s.eta):
            raise InvalidScenario(f"K*eta must be an integer (got {K * s.eta})")
    if s.setting in (Setting.ASYM_I, Setting.ASYM_II):
        if s.sum_power_transmit is None:
            raise InvalidScenario("P_T required for asymmetric settings")
        if s.sum_power_attack is None:
            raise InvalidScenario("P_A required for asymmetric settings")
        if not math.isfinite(s.sum_power_transmit) or s.sum_power_transmit <= 0:
            raise InvalidScenario("P_T must be positive")
        if not math.isfinite(s.sum_power_attack) or s.sum_power_attack < 0:
            raise InvalidScenario("P_A must be nonnegative")

    return dataclasses.replace(
        s,
        transmitters=transmitters,
        adversaries=adversaries,
        source_variance=1.0,
        channel_noise_variance=1.0,
        normalization_notes=tuple(notes),
    )


def make_symmetric(
    M: int,
    K: int,
    alpha: float,
    beta: float,
    power: float,
    setting: Setting,
    *,
    epsilon: float | None = None,
    eta: float | None = None,
    sum_power_transmit: float | None = None,
    sum_power_attack: float | None = None,
) -> NetworkScenario:
    """Build and validate a scenario with M+K identical sensors.

    For the asymmetric settings the sum budgets default to M*P and K*P so
    symmetric parameter sets can be fed through the asymmetric solvers.
    """
    if M < 0 or K < 0:
        raise InvalidScenario("sensor counts must be nonnegative")
    sensor = SensorParams(alpha=alpha, beta=beta, power=power)
    if setting in (Setting.ASYM_I, Setting.ASYM_II):
        if sum_power_transmit is None:
            sum_power_transmit = M * power
        if sum_power_attack is None:
            sum_power_attack = K * power
    return validate_scenario(
        NetworkScenario(
            transmitters=(sensor,) * M,
            adversaries=(sensor,) * K,
            setting=setting,
            sum_power_transmit=sum_power_transmit,
            sum_power_attack=sum_power_attack,
            epsilon=epsilon,
            eta=eta,
        )
    )


def _over_budget(used: float, budget: float) -> bool:
    """Whether ``used`` exceeds ``budget`` by more than rounding: the
    tolerance POWER_TOL is relative for budgets above 1."""
    return used > budget + POWER_TOL * max(1.0, budget)


def validate_profile(s: NetworkScenario, p: StrategyProfile) -> StrategyProfile:
    """Check the profile against the scenario's power budgets."""
    M = s.num_transmitters
    if len(p.transmit_coeffs) != M:
        raise InvalidProfile(f"expected {M} transmit coefficients, got {len(p.transmit_coeffs)}")
    for c in p.transmit_coeffs:
        if not math.isfinite(c):
            raise InvalidProfile("transmit coefficients must be finite")
    if not math.isfinite(p.decoder_gain):
        raise InvalidProfile("decoder gain must be finite")

    tx_moments = [(c * q.beta) * (c * q.beta) + c * c
                  for q, c in zip(s.transmitters, p.transmit_coeffs)]
    adv_moments = [(c * q.beta) * (c * q.beta) + c * c + ss * ss
                   for q, (c, ss, _) in zip(s.adversaries, p.adversary.lower(s.adversaries))]
    if not all(math.isfinite(v) for v in adv_moments):
        raise InvalidProfile("adversary output second moments must be finite and >= 0")

    if s.setting.is_symmetric:
        for kind, sensors, moments in (("transmitter", s.transmitters, tx_moments),
                                       ("adversary", s.adversaries, adv_moments)):
            for i, (q, used) in enumerate(zip(sensors, moments)):
                if _over_budget(used, q.power):
                    raise InvalidProfile(f"{kind} {i} power {used} exceeds budget {q.power}")
    else:
        if s.sum_power_transmit is None or s.sum_power_attack is None:
            raise InvalidProfile("asymmetric profiles need validated sum budgets")
        if _over_budget(sum(tx_moments), s.sum_power_transmit):
            raise InvalidProfile(
                f"transmit sum power {sum(tx_moments)} exceeds P_T={s.sum_power_transmit}"
            )
        if _over_budget(sum(adv_moments), s.sum_power_attack):
            raise InvalidProfile(
                f"adversary sum power {sum(adv_moments)} exceeds P_A={s.sum_power_attack}"
            )
    return p


# -- serialization ----------------------------------------------------------

def scenario_to_dict(s: NetworkScenario) -> dict:
    def sensor(p: SensorParams) -> dict:
        return {"alpha": p.alpha, "beta": p.beta, "power": p.power}

    return {
        "setting": s.setting.value,
        "transmitters": [sensor(p) for p in s.transmitters],
        "adversaries": [sensor(p) for p in s.adversaries],
        "source_variance": s.source_variance,
        "channel_noise_variance": s.channel_noise_variance,
        "sum_power_transmit": s.sum_power_transmit,
        "sum_power_attack": s.sum_power_attack,
        "epsilon": s.epsilon,
        "eta": s.eta,
        "normalization_notes": list(s.normalization_notes),
    }


def scenario_from_dict(d: Mapping) -> NetworkScenario:
    def sensor(sd: Mapping) -> SensorParams:
        return SensorParams(alpha=sd["alpha"], beta=sd["beta"], power=sd["power"])

    return NetworkScenario(
        transmitters=tuple(sensor(x) for x in d["transmitters"]),
        adversaries=tuple(sensor(x) for x in d["adversaries"]),
        setting=Setting(d["setting"]),
        source_variance=d.get("source_variance", 1.0),
        channel_noise_variance=d.get("channel_noise_variance", 1.0),
        sum_power_transmit=d.get("sum_power_transmit"),
        sum_power_attack=d.get("sum_power_attack"),
        epsilon=d.get("epsilon"),
        eta=d.get("eta"),
        normalization_notes=tuple(d.get("normalization_notes", ())),
    )


def profile_to_dict(p: StrategyProfile) -> dict:
    return {
        "transmit_coeffs": list(p.transmit_coeffs),
        "randomized": p.randomized,
        "adversary": {"kind": type(p.adversary).__name__, **dataclasses.asdict(p.adversary)},
        "decoder_gain": p.decoder_gain,
    }
