"""Command-line harness: config ingestion, dispatch, sweeps, CSV/JSON output.

Config documents are strict JSON read as UTF-8.  Three readers hold the
schema: `_object` (an object, no unknown key, no missing key) serves every
object of it, `_integer` every bounded integer and `_number` every other
number, finite only; a repeated key anywhere is an error.  The scenario's
own rules (SymIII's epsilon/eta, the sum budgets) are `validate_scenario`'s.
Every run writes `<out>.csv` (tabular results) and `<out>.json` (the full
report with strategies, multipliers and discrepancy notes).  Identical
config and seed produce byte-identical outputs.  Each runner imports the
solver module it dispatches to when it runs, so a command loads only what
it uses, and a config that exits 1 before a solver runs never imports numpy.

Exit codes: 0 success, 1 a config that cannot be read, invalid
config/scenario/profile (`_INVALID_INPUT`) or outputs that cannot be
written, 2 any other package error or float overflow: solver
non-convergence, numerical failure (diagnostics still written to the JSON
report).
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .model import (
    KNOWN_DISCREPANCY_TAGS,
    InvalidProfile,
    InvalidScenario,
    JamnetError,
    NetworkScenario,
    SensorParams,
    Setting,
    profile_to_dict,
    scenario_to_dict,
    validate_scenario,
)

# Top-level keys besides the required "setting".
_TOP_KEYS = ("transmitters", "adversaries", "sum_power_transmit", "sum_power_attack",
             "epsilon", "eta", "monte_carlo", "sweep", "output_path")
_SYMMETRIC = frozenset(s for s in Setting if s.is_symmetric)
_ASYMMETRIC = frozenset(Setting) - _SYMMETRIC
# Sweep param -> (field it sets, settings whose scenario it changes).  The
# sensor fields are set on every sensor.  ``rate``/``rho`` are axes of
# ceo-curve/maxcorr, not scenario fields, so no sweep command takes them.
_SWEEP_PARAMS = {
    "sum_power_attack": ("sum_power_attack", _ASYMMETRIC),
    "P_A": ("sum_power_attack", _ASYMMETRIC),
    "sum_power_transmit": ("sum_power_transmit", _ASYMMETRIC),
    "P_T": ("sum_power_transmit", _ASYMMETRIC),
    "power": ("power", _SYMMETRIC), "P": ("power", _SYMMETRIC),
    "alpha": ("alpha", frozenset(Setting)), "beta": ("beta", frozenset(Setting)),
    "epsilon": ("epsilon", frozenset({Setting.SYM_III})),
    "eta": ("eta", frozenset({Setting.SYM_III})),
    "rate": (None, frozenset()), "rho": (None, frozenset()),
}
_SENSOR_FIELDS = ("alpha", "beta", "power")
# Upper bounds on the config's integers, checked before anything is sized by
# them: sensors per count shorthand, sweep steps, Monte Carlo samples.
MAX_COUNT = 10**6
MAX_STEPS = 10**6
MAX_SAMPLES = 2**40
# Points per merged Theorem-5 scan of an AsymII budget sweep: at most
# SWEEP_CHUNK * asym.OUTER_SCAN_POINTS lanes in one pass.
SWEEP_CHUNK = 64
# Command -> (the sweep param it takes as its axis, the test every axis value
# must pass, that test in words).
_AXES = {
    "ceo-curve": ("rate", lambda rate: rate >= 0.0, "nonnegative"),
    "maxcorr": ("rho", lambda rho: -1.0 < rho < 1.0, "in (-1, 1)"),
}


class ParseError(JamnetError):
    """The config document violates the schema."""


# Errors of the input rather than of the solvers: one stderr line and exit 1.
_INVALID_INPUT = (ParseError, InvalidScenario, InvalidProfile)


@dataclasses.dataclass(frozen=True)
class MonteCarloConfig:
    samples: int
    seed: int


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    param: str
    start: float
    stop: float
    steps: int


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scenario: NetworkScenario
    command: str
    monte_carlo: MonteCarloConfig | None
    sweep: SweepConfig | None
    output_path: str


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, or ParseError if a key repeats."""
    node = dict(pairs)
    if len(node) < len(pairs):
        counts = collections.Counter(key for key, _ in pairs)
        raise ParseError(f"repeated key {next(k for k, n in counts.items() if n > 1)!r}")
    return node


def _object(node, where: str, required: tuple, optional: tuple = ()) -> dict:
    """``node`` if it is an object with every ``required`` key and no other
    key outside ``optional``, else ParseError (missing keys in tuple order)."""
    if not isinstance(node, dict):
        raise ParseError(f"{where} must be an object")
    unknown = node.keys() - {*required, *optional}
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key in required:
        if key not in node:
            raise ParseError(f"{where} missing {key!r}")
    return node


def _integer(value, where: str, lo: int, hi: int) -> int:
    """``value`` if it is a JSON integer (not a boolean) in [lo, hi], else ParseError."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ParseError(f"{where} must be an integer from {lo} to {hi}")
    return value


def _number(value, where: str):
    """``value`` if it is a JSON number whose float is finite, else ParseError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {json.dumps(value)}")
    try:
        if math.isfinite(value):
            return value
    except OverflowError:  # an integer beyond the float range
        pass
    raise ParseError(f"{where} must be a finite number")


def _stem(value, where: str) -> str:
    """``value`` less one trailing .csv/.json if that names a file, else ParseError."""
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where} must be a nonempty string")
    stem = value.rsplit(".", 1)[0] if value.endswith((".csv", ".json")) else value
    if stem[-1:] in ("", "/"):
        raise ParseError(f"{where} must name a file")
    return stem


def _sensor(node: dict, where: str) -> SensorParams:
    return SensorParams(**{key: _number(node[key], f"{where}.{key}") for key in _SENSOR_FIELDS})


def _parse_sensors(node, where: str) -> tuple[SensorParams, ...]:
    if isinstance(node, list):
        return tuple(_sensor(_object(entry, f"{where}[{i}]", _SENSOR_FIELDS), f"{where}[{i}]")
                     for i, entry in enumerate(node))
    if not isinstance(node, dict):
        raise ParseError(f"{where} must be a list of sensors or a count shorthand")
    count = _integer(_object(node, where, ("count", *_SENSOR_FIELDS))["count"],
                     f"{where}.count", 0, MAX_COUNT)
    return (_sensor(node, where),) * count


def parse_config(document: str, command: str, out=None, seed=None) -> RunConfig:
    """Parse and validate a config document for ``command``; ``out`` and
    ``seed`` (--out, --seed) obey the rules of output_path and monte_carlo.seed.

    Raises ParseError for schema violations and propagates InvalidScenario
    from scenario validation.
    """
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}")
    try:
        raw = json.loads(document, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: line {exc.lineno}, col {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:  # a 4300+ digit integer, deep nesting
        raise ParseError(f"config is not readable JSON: {exc}") from None
    _object(raw, "top level", ("setting",), _TOP_KEYS)
    try:
        setting = Setting(raw["setting"])
    except ValueError:
        raise ParseError(f"unknown setting {raw['setting']!r}") from None

    transmitters = _parse_sensors(raw.get("transmitters", []), "transmitters")
    adversaries = _parse_sensors(raw.get("adversaries", []), "adversaries")

    optional = {key: None if raw.get(key) is None else _number(raw[key], key)
                for key in ("sum_power_transmit", "sum_power_attack", "epsilon", "eta")}
    scenario = validate_scenario(
        NetworkScenario(
            transmitters=transmitters, adversaries=adversaries, setting=setting, **optional
        )
    )

    mc = None
    if "monte_carlo" in raw:
        node = _object(raw["monte_carlo"], "monte_carlo", ("samples", "seed"))
        mc = MonteCarloConfig(
            samples=_integer(node["samples"], "monte_carlo.samples", 2, MAX_SAMPLES),
            seed=_integer(node["seed"], "monte_carlo.seed", 0, 2**64 - 1))
    if seed is not None:  # checked also where no monte_carlo block takes it
        _integer(seed, "--seed", 0, 2**64 - 1)
        mc = mc and dataclasses.replace(mc, seed=seed)

    sweep = None
    if "sweep" in raw:
        node = _object(raw["sweep"], "sweep", ("param", "from", "to", "steps"))
        param = node["param"]
        if not isinstance(param, str) or param not in _SWEEP_PARAMS:
            raise ParseError(f"unknown sweep param {param!r}")
        if command == "sweep" and setting not in _SWEEP_PARAMS[param][1]:
            raise ParseError(f"sweep param {param!r} does not apply to {setting.value}")
        steps = _integer(node["steps"], "sweep.steps", 1, MAX_STEPS)
        sweep = SweepConfig(param=param, start=float(_number(node["from"], "sweep.from")),
                            stop=float(_number(node["to"], "sweep.to")), steps=steps)
        if command in _AXES:
            axis, in_range, rule = _AXES[command]
            if param != axis:
                raise ParseError(f"{command} sweeps {axis!r}, not {param!r}")
            if not all(in_range(value) for value in _sweep_values(sweep)):
                raise ParseError(f"{command} {axis} values must be {rule}")

    if command == "simulate" and mc is None:
        raise ParseError("simulate requires a monte_carlo block")
    if command == "sweep" and sweep is None:
        raise ParseError("sweep requires a sweep block")

    output_path = _stem(raw.get("output_path", "jamnet-run"), "output_path")
    if out is not None:
        output_path = _stem(out, "--out")
    return RunConfig(scenario=scenario, command=command, monte_carlo=mc,
                     sweep=sweep, output_path=output_path)


# -- dispatch -----------------------------------------------------------------

def equilibrium_report(s: NetworkScenario):
    """The setting's equilibrium report (closed form or solver)."""
    if s.setting.is_symmetric:
        from . import symmetric

        if s.setting is Setting.SYM_I:
            return symmetric.solve_setting1(s)
        if s.setting is Setting.SYM_II:
            return symmetric.solve_setting2(s)
        return symmetric.solve_setting3(s)
    from . import asym

    if s.setting is Setting.ASYM_I:
        return asym.solve_theorem4(s)
    return asym.solve_theorem5(s)


def _report_to_json(report) -> dict:
    return {
        "cost": report.cost,
        "oracle_cost": report.oracle_cost,
        "multipliers": dict(report.multipliers),
        "kkt_residuals": list(report.kkt_residuals),
        "profile": profile_to_dict(report.profile),
        "discrepancy_notes": list(report.discrepancy_notes),
    }


def _tags_in(notes) -> dict[str, str]:
    tags = {note[note.rindex("[") + 1 : note.rindex("]")]
            for note in notes if "[" in note and "]" in note}
    return {tag: KNOWN_DISCREPANCY_TAGS.get(tag, "") for tag in tags}


def _run_closed_form(cfg: RunConfig):
    s = cfg.scenario
    if not s.setting.is_symmetric:
        raise InvalidScenario("closed-form handles the symmetric settings; use solve-asym")
    from . import symmetric

    report = equilibrium_report(s)
    alpha, beta, power = symmetric._common_params(s)
    rows = [[s.setting.value, s.num_transmitters, s.num_adversaries,
             alpha, beta, power, report.cost, report.oracle_cost]]
    header = ["setting", "M", "K", "alpha", "beta", "P", "cost_printed", "cost_oracle"]
    summary = f"{s.setting.value}: cost={report.cost:.6g} oracle={report.oracle_cost:.6g}"
    return header, rows, {"report": _report_to_json(report)}, summary


def _run_solve_asym(cfg: RunConfig):
    s = cfg.scenario
    if s.setting.is_symmetric:
        raise InvalidScenario("solve-asym handles AsymI/AsymII; use closed-form")
    report = equilibrium_report(s)
    mult = report.multipliers
    rows = report.profile.adversary.lower(s.adversaries)
    coeffs = list(report.profile.transmit_coeffs) + [c for c, _, _ in rows]
    max_res = max((abs(r) for r in report.kkt_residuals), default=0.0)
    header = (
        ["lambda1", "lambda2", "lambda3", "lambda4"]
        + [f"c_{i + 1}" for i in range(len(coeffs))]
        + ["cost_oracle", "max_kkt_residual"]
    )
    rows = [[mult.get("lambda1", ""), mult.get("lambda2", ""),
             mult.get("lambda3", ""), mult.get("lambda4", "")]
            + coeffs + [report.oracle_cost, max_res]]
    summary = f"{s.setting.value}: cost={report.oracle_cost:.6g} max|res|={max_res:.3g}"
    return header, rows, {"report": _report_to_json(report)}, summary


def _run_simulate(cfg: RunConfig):
    from . import simulate

    s = cfg.scenario
    mc = cfg.monte_carlo
    report = equilibrium_report(s)
    result = simulate.run_monte_carlo(s, report.profile, mc.samples, mc.seed)
    analytic = report.oracle_cost
    header = ["samples", "seed", "empirical_mse", "standard_error", "analytic_mse"]
    rows = [[result.samples, result.seed, result.empirical_mse,
             result.standard_error, analytic]]
    extra = {
        "report": _report_to_json(report),
        "monte_carlo": dataclasses.asdict(result),
    }
    summary = (
        f"{s.setting.value}: empirical={result.empirical_mse:.6g} "
        f"(SE {result.standard_error:.2g}) analytic={analytic:.6g}"
    )
    return header, rows, extra, summary


def _run_verify(cfg: RunConfig):
    from . import simulate

    s = cfg.scenario
    report = equilibrium_report(s)
    adv, tx = simulate.verify_saddle_point(s, report.profile)
    header = ["direction", "base_cost", "best_deviation_cost", "deviation_params"]
    rows = [
        [adv.direction, adv.base_cost, adv.best_deviation_cost, adv.deviation_params],
        [tx.direction, tx.base_cost, tx.best_deviation_cost, tx.deviation_params],
    ]
    extra = {
        "report": _report_to_json(report),
        "adversary_check": dataclasses.asdict(adv),
        "transmitter_check": dataclasses.asdict(tx),
    }
    summary = (
        f"adversary best deviation {adv.best_deviation_cost:.6g} vs base {adv.base_cost:.6g}; "
        f"transmitter best deviation {tx.best_deviation_cost:.6g}"
    )
    return header, rows, extra, summary


def _run_ceo_curve(cfg: RunConfig):
    s = cfg.scenario
    betas = [p.beta for p in s.transmitters]
    if not betas:
        raise InvalidScenario("ceo-curve needs at least one transmitter")
    from . import bounds

    if cfg.sweep is not None:
        rates = _sweep_values(cfg.sweep)
    else:
        rates = [0.1 * i for i in range(101)]
    points = bounds.ceo_curve(rates, betas)
    header = ["rate", "distortion"]
    rows = [[pt.rate, pt.distortion] for pt in points]
    extra = {"estimation_floor": bounds.ceo_estimation_floor(betas),
             "sigma_t2": bounds.ceo_sigma_t(betas)}
    summary = f"{len(points)} rate-distortion points, floor={extra['estimation_floor']:.6g}"
    return header, rows, extra, summary


def _run_maxcorr(cfg: RunConfig):
    from . import bounds

    if cfg.sweep is not None:
        rhos = _sweep_values(cfg.sweep)
    else:
        rhos = [0.0, 0.3, 0.5, 0.9]
    header = ["rho", "rho_star", "abs_error"]
    rows = []
    for rho in rhos:
        star = bounds.maximal_correlation_discrete(rho)
        rows.append([rho, star, abs(star - abs(rho))])
    summary = f"max |rho_star - |rho|| = {max(r[2] for r in rows):.3g} over {len(rows)} points"
    extra = {"grid_n": bounds.MAXCORR_GRID_N, "range_sigmas": bounds.MAXCORR_RANGE_SIGMAS}
    return header, rows, extra, summary


def _sweep_values(sw: SweepConfig) -> list[float]:
    if sw.steps == 1:
        return [sw.start]
    step = (sw.stop - sw.start) / (sw.steps - 1)
    return [sw.start + i * step for i in range(sw.steps)]


def _scenario_with(s: NetworkScenario, param: str, value: float) -> NetworkScenario:
    field = _SWEEP_PARAMS[param][0]
    if field in _SENSOR_FIELDS:
        return dataclasses.replace(
            s,
            transmitters=tuple(dataclasses.replace(p, **{field: value}) for p in s.transmitters),
            adversaries=tuple(dataclasses.replace(p, **{field: value}) for p in s.adversaries),
        )
    return dataclasses.replace(s, **{field: value})


def _sweep_reports(s: NetworkScenario, param: str, values: list[float]):
    """(value, report) of each sweep point in order, raising the first
    point's error as a point-by-point loop would.

    An AsymII sweep of P_T or P_A changes no gain, so the Theorem-5 scans
    of up to ``SWEEP_CHUNK`` points are one lane pass (``asym.theorem5_scans``)
    and each point's report is ``asym.solve_theorem5`` on its own slice.
    """
    from . import asym

    lanes = (s.setting is Setting.ASYM_II
             and _SWEEP_PARAMS[param][0] in ("sum_power_transmit", "sum_power_attack"))
    size = SWEEP_CHUNK if lanes else 1
    for start in range(0, len(values), size):
        points, invalid = [], None
        for value in values[start:start + size]:
            try:
                points.append((value, validate_scenario(_scenario_with(s, param, value))))
            except InvalidScenario as exc:  # raised once the valid points before it are solved
                invalid = exc
                break
        scans = asym.theorem5_scans([p for _, p in points]) if lanes else [None] * len(points)
        for (value, point), scan in zip(points, scans):
            yield value, (equilibrium_report(point) if scan is None
                          else asym.solve_theorem5(point, scan))
        if invalid is not None:
            raise invalid


def _run_sweep(cfg: RunConfig):
    sw = cfg.sweep
    header = ["param", "value", "cost_oracle"]
    rows = []
    notes: list[str] = []
    for value, report in _sweep_reports(cfg.scenario, sw.param, _sweep_values(sw)):
        rows.append([sw.param, value, report.oracle_cost])
        notes.extend(report.discrepancy_notes)
    extra = {"discrepancy_notes": sorted(set(notes))}
    summary = f"swept {sw.param} over {len(rows)} points"
    return header, rows, extra, summary


_RUNNERS = {
    "closed-form": _run_closed_form,
    "solve-asym": _run_solve_asym,
    "simulate": _run_simulate,
    "verify": _run_verify,
    "ceo-curve": _run_ceo_curve,
    "maxcorr": _run_maxcorr,
    "sweep": _run_sweep,
}
COMMANDS = tuple(_RUNNERS)

_PARSER = argparse.ArgumentParser(
    prog="jamnet",
    description="Equilibria of Gaussian sensor networks with jamming sensors",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to a JSON config document")
_PARSER.add_argument("--out", default=None, help="output stem (overrides config output_path)")
_PARSER.add_argument("--seed", type=int, default=None, help="override monte_carlo.seed")


def run_command(cfg: RunConfig) -> int:
    """Dispatch, write `<out>.csv` and `<out>.json`, print a one-line summary.

    Outputs that cannot be written end in one stderr line and exit 1.
    """
    csv_path = Path(cfg.output_path + ".csv")
    json_path = Path(cfg.output_path + ".json")

    payload: dict = {
        "command": cfg.command,
        "scenario": scenario_to_dict(cfg.scenario),
    }
    try:
        header, rows, extra, summary = _RUNNERS[cfg.command](cfg)
    except _INVALID_INPUT:
        raise  # exit 1 in main
    except (JamnetError, OverflowError) as exc:
        payload["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "iterations": getattr(exc, "iterations", None),
            # null for a residual that overflowed: the report stays strict JSON
            "residuals": [r if math.isfinite(r) else None for r in getattr(exc, "residuals", ())],
        }
        rows, code = None, 2
        line = f"jamnet {cfg.command}: FAILED ({type(exc).__name__}: {exc})"
    else:
        report_json = extra.get("report", {})
        all_notes = list(report_json.get("discrepancy_notes", [])) + list(
            extra.get("discrepancy_notes", [])
        )
        payload.update(extra)
        payload["known_discrepancy_tags"] = _tags_in(all_notes)
        code, line = 0, f"jamnet {cfg.command}: {summary} -> {csv_path}, {json_path}"

    try:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        if rows is None:  # no CSV on failure, not even an earlier run's
            csv_path.unlink(missing_ok=True)
        else:
            with csv_path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"jamnet: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(line)
    return code


def main(argv=None) -> int:
    """Run ``jamnet <command> --config <path> [--out <stem>] [--seed <n>]``
    and return its exit code; ``parse_config`` reads --out and --seed."""
    args = _PARSER.parse_args(argv)

    try:
        document = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"jamnet: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        return run_command(parse_config(document, args.command, args.out, args.seed))
    except _INVALID_INPUT as exc:
        print(f"jamnet: invalid config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
