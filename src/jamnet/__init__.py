"""jamnet: equilibria of Gaussian sensor networks with jamming sensors.

Solves the transmitter/adversary communication game over a coherent Gaussian
multiple-access channel: closed forms for the symmetric coordination
settings, numerical multiplier systems for asymmetric power allocation, a
direct MMSE oracle, a seeded Monte Carlo channel simulator, and the
supporting rate-distortion / maximal-correlation bounds.
"""

from .model import (
    AdversaryStrategy,
    CoordinatedNoise,
    DegenerateInput,
    EmptyAdversarySet,
    EquilibriumReport,
    GeneralLinearGaussian,
    IndependentNoise,
    InvalidProfile,
    InvalidScenario,
    JamnetError,
    LinearMirror,
    NetworkScenario,
    NoRoot,
    NonConvergence,
    NumericalFailure,
    SensorParams,
    Setting,
    StrategyProfile,
    make_symmetric,
    validate_profile,
    validate_scenario,
)
from .asym import (
    attacker_best_channel,
    bayes_decoder_gain,
    direct_mmse_cost,
    kkt_residuals,
    solve_theorem4,
    solve_theorem5,
)
from .symmetric import (
    coordination_gap,
    cost_setting1,
    cost_setting2,
    decoder_gain_setting1,
    epsilon_threshold,
    solve_setting1,
    solve_setting2,
    solve_setting3,
)
from .simulate import (
    BestResponseReport,
    MonteCarloResult,
    best_response_adversary_search,
    best_response_transmitter_search,
    run_monte_carlo,
    verify_saddle_point,
)
from .bounds import (
    RDPoint,
    ceo_distortion,
    ceo_sigma_t,
    maximal_correlation_discrete,
    ru_spectrum,
)

__version__ = "0.1.0"
