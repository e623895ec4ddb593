"""jamnet: equilibria of Gaussian sensor networks with jamming sensors.

Solves the transmitter/adversary communication game over a coherent Gaussian
multiple-access channel: closed forms for the symmetric coordination
settings, numerical multiplier systems for asymmetric power allocation, a
direct MMSE oracle, a seeded Monte Carlo channel simulator, and the
supporting rate-distortion / maximal-correlation bounds.

The public names below, and the submodules that define them, are imported
on first use (PEP 562), so ``import jamnet.cli`` loads only ``model`` and
``cli`` and each command imports the solvers it runs.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("model", """AdversaryStrategy CoordinatedNoise DegenerateInput EmptyAdversarySet
                     EquilibriumReport GeneralLinearGaussian IndependentNoise InvalidProfile
                     InvalidScenario JamnetError LinearMirror NetworkScenario NoRoot
                     NonConvergence NumericalFailure SensorParams Setting StrategyProfile
                     make_symmetric validate_profile validate_scenario"""),
        ("asym", """attacker_best_channel bayes_decoder_gain direct_mmse_cost kkt_residuals
                    solve_theorem4 solve_theorem5"""),
        ("symmetric", """coordination_gap cost_setting1 cost_setting2 decoder_gain_setting1
                         epsilon_threshold solve_setting1 solve_setting2 solve_setting3"""),
        ("simulate", """BestResponseReport MonteCarloResult best_response_adversary_search
                        best_response_transmitter_search run_monte_carlo
                        verify_saddle_point"""),
        ("bounds", "RDPoint ceo_distortion ceo_sigma_t maximal_correlation_discrete ru_spectrum"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
