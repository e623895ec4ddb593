"""Per-layer metrics of one traced pass, and the work counts they need.

Every value covers one pass over the workload's command list.  Names follow
``<module>.<function>.<quantity>``; the module is where jamnet defines the
function.
"""

from __future__ import annotations

import collections

# Span counters (see tracing.Tracer): work computed from a call's arguments.

def normals_drawn(s, p, samples, *args, **kwargs) -> int:
    """Standard normals one ``simulate.run_monte_carlo`` call draws: per
    sample the source, M+K sensing noises and the channel noise, plus the
    adversary strategy's own noises (the fair coin is uniform, not counted)."""
    M, K = s.num_transmitters, s.num_adversaries
    adversary = p.adversary
    kind = type(adversary).__name__
    if kind == "CoordinatedNoise":
        coordinated = K if adversary.coordinated_count is None else adversary.coordinated_count
        extra = 1 + K - coordinated
    elif kind in ("IndependentNoise", "GeneralLinearGaussian"):
        extra = K
    else:  # LinearMirror draws nothing of its own
        extra = 0
    return samples * (M + K + 2 + extra)


QUADRATURE_ORDER = 12  # Gauss-Legendre nodes per cell in bounds.discretized_correlation_operator


def ndtr_evals(rho, grid_n=257, *args, **kwargs) -> int:
    """Normal-CDF evaluations of one ``bounds.discretized_correlation_operator``
    call, computed from its array shapes: upper and lower CDF over
    (grid_n cells x quadrature nodes x grid_n edges)."""
    return 2 * grid_n * QUADRATURE_ORDER * grid_n


COUNTERS = {
    "simulate.run_monte_carlo": normals_drawn,
    "bounds.discretized_correlation_operator": ndtr_evals,
}

# name -> unit; the order is the order of the report (and of BENCHMARK.json).
METRICS = {
    "simulate.run_monte_carlo.calls": "count",
    "simulate.run_monte_carlo.busy_ms": "ms",
    "simulate.normals_drawn": "count",
    "simulate.rng_floor_share": "ratio",
    "simulate.mc_samples_per_s": "1/s",
    "asym.direct_mmse_cost.calls": "count",
    "asym.direct_mmse_cost.busy_ms": "ms",
    "asym.direct_mmse_cost.us_per_call": "us",
    "simulate.best_response_adversary_search.busy_ms": "ms",
    "simulate.best_response_adversary_search.candidates": "count",
    "simulate.best_response_transmitter_search.busy_ms": "ms",
    "simulate.verify_saddle_point.busy_ms": "ms",
    "asym.solve_theorem5.calls": "count",
    "asym.solve_theorem5.busy_ms": "ms",
    "asym.solve_theorem5.converged_ratio": "ratio",
    "asym.adversary_linear_response.calls": "count",
    "asym.adversary_linear_response.busy_ms": "ms",
    "asym.adversary_linear_response.calls_per_theorem5": "count",
    "asym.solve_theorem4.busy_ms": "ms",
    "symmetric.epsilon_threshold.calls": "count",
    "symmetric.epsilon_threshold.busy_ms": "ms",
    "cli.equilibrium_report.busy_ms": "ms",
    "bounds.discretized_correlation_operator.busy_ms": "ms",
    "bounds.maximal_correlation_discrete.self_ms": "ms",
    "bounds.ndtr_evals": "count",
    "bounds.ceo_curve.busy_ms": "ms",
    "cli.parse_config.calls": "count",
    "cli.parse_config.busy_ms": "ms",
    "cli.run_command.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "model.validate_scenario.calls": "count",
    "model.validate_scenario.busy_ms": "ms",
    "model.validate_profile.calls": "count",
    "model.validate_profile.busy_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class PassTrace:
    """Span totals of one traced pass, by name."""

    def __init__(self, tracer):
        self.spans = collections.defaultdict(list)
        self.aggregated = collections.Counter()  # name -> calls
        self.aggregated_s = collections.Counter()  # name -> seconds
        self.by_parent = collections.Counter()  # (name, parent name) -> calls
        self.by_parent_s = collections.Counter()
        for span in tracer.spans:
            self.spans[span.name].append(span)
            self._add(span.aggregated, span.name)
        self._add(tracer.orphans, None)

    def _add(self, aggregated: dict, parent: str | None) -> None:
        for name, (calls, seconds) in aggregated.items():
            self.aggregated[name] += calls
            self.aggregated_s[name] += seconds
            self.by_parent[name, parent] += calls
            self.by_parent_s[name, parent] += seconds

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ())) + self.aggregated[name]

    def busy_ms(self, name: str) -> float:
        seconds = sum(s.duration for s in self.spans.get(name, ()))
        return 1e3 * (seconds + self.aggregated_s[name])

    def self_ms(self, name: str) -> float:
        return 1e3 * sum(s.self_s for s in self.spans.get(name, ()))

    def work(self, name: str) -> float:
        return sum(s.work for s in self.spans.get(name, ()))

    def aggregated_under(self, name: str, parent: str) -> int:
        """Aggregated calls of ``name`` summed over the spans named ``parent``."""
        return self.by_parent[name, parent]


def pass_metrics(trace: PassTrace, philox_normals_per_s: float, output_bytes: int) -> dict:
    """Every per-layer metric measurable from one traced pass (all but the
    mc_samples_per_s and trace.* entries, which need the untraced passes)."""
    oracle = "asym.direct_mmse_cost"
    mc = "simulate.run_monte_carlo"
    t5 = "asym.solve_theorem5"
    response = "asym.adversary_linear_response"
    adversary_search = "simulate.best_response_adversary_search"
    normals = trace.work(mc)
    t5_spans = trace.spans.get(t5, ())
    m = {
        f"{mc}.calls": trace.calls(mc),
        f"{mc}.busy_ms": trace.busy_ms(mc),
        "simulate.normals_drawn": normals,
        "simulate.rng_floor_share": _ratio(normals / philox_normals_per_s,
                                           trace.busy_ms(mc) / 1e3),
        f"{oracle}.calls": trace.calls(oracle),
        f"{oracle}.busy_ms": trace.busy_ms(oracle),
        f"{oracle}.us_per_call": _ratio(1e3 * trace.busy_ms(oracle), trace.calls(oracle)),
        f"{adversary_search}.busy_ms": trace.busy_ms(adversary_search),
        # Each search evaluates the unperturbed profile once, then every candidate.
        f"{adversary_search}.candidates": (trace.aggregated_under(oracle, adversary_search)
                                           - trace.calls(adversary_search)),
        "simulate.best_response_transmitter_search.busy_ms":
            trace.busy_ms("simulate.best_response_transmitter_search"),
        "simulate.verify_saddle_point.busy_ms": trace.busy_ms("simulate.verify_saddle_point"),
        f"{t5}.calls": trace.calls(t5),
        f"{t5}.busy_ms": trace.busy_ms(t5),
        f"{t5}.converged_ratio": _ratio(sum(s.ok for s in t5_spans), len(t5_spans)),
        f"{response}.calls": trace.calls(response),
        f"{response}.busy_ms": trace.busy_ms(response),
        f"{response}.calls_per_theorem5": _ratio(trace.aggregated_under(response, t5),
                                                 len(t5_spans)),
        "asym.solve_theorem4.busy_ms": trace.busy_ms("asym.solve_theorem4"),
        "symmetric.epsilon_threshold.calls": trace.calls("symmetric.epsilon_threshold"),
        "symmetric.epsilon_threshold.busy_ms": trace.busy_ms("symmetric.epsilon_threshold"),
        "cli.equilibrium_report.busy_ms": trace.busy_ms("cli.equilibrium_report"),
        "bounds.discretized_correlation_operator.busy_ms":
            trace.busy_ms("bounds.discretized_correlation_operator"),
        "bounds.maximal_correlation_discrete.self_ms":
            trace.self_ms("bounds.maximal_correlation_discrete"),
        "bounds.ndtr_evals": trace.work("bounds.discretized_correlation_operator"),
        "bounds.ceo_curve.busy_ms": trace.busy_ms("bounds.ceo_curve"),
        "cli.parse_config.calls": trace.calls("cli.parse_config"),
        "cli.parse_config.busy_ms": trace.busy_ms("cli.parse_config"),
        "cli.run_command.self_ms": trace.self_ms("cli.run_command"),
        "cli.output_bytes": output_bytes,
        "model.validate_scenario.calls": trace.calls("model.validate_scenario"),
        "model.validate_scenario.busy_ms": trace.busy_ms("model.validate_scenario"),
        "model.validate_profile.calls": trace.calls("model.validate_profile"),
        "model.validate_profile.busy_ms": trace.busy_ms("model.validate_profile"),
    }
    return m
