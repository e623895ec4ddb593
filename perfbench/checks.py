"""Output checks for one CLI command.

They assert only what jamnet already promises: the exit-code contract, the
CSV headers documented in README.md, costs that are MSEs of a unit-variance
source, the solver and Monte Carlo tolerances, and the maxcorr accuracy.
The tolerances here are looser smoke bounds than the acceptance suite's.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import Command

OK, NONCONVERGED, FAILED = "ok", "nonconverged", "failed"

HEADERS = {
    "closed-form": ["setting", "M", "K", "alpha", "beta", "P", "cost_printed", "cost_oracle"],
    "simulate": ["samples", "seed", "empirical_mse", "standard_error", "analytic_mse"],
}
COST_COLUMNS = {
    "closed-form": ("cost_printed", "cost_oracle"),
    "solve-asym": ("cost_oracle",),
    "simulate": ("analytic_mse",),
    "verify": ("base_cost", "best_deviation_cost"),
    "sweep": ("cost_oracle",),
    "ceo-curve": ("distortion",),
}
ROWS_FROM_STEPS = ("sweep", "maxcorr", "ceo-curve")
# Exit 2 is the documented outcome when the Theorem-5 solver finds no
# equilibrium (the attack budget dominates); only AsymII runs that solver.
NONCONVERGING = ("solve-asym", "verify", "sweep", "simulate")

MC_SE_BOUND = 5.0
KKT_BOUND = 1e-8
MAXCORR_BOUND = 1e-2
CERTIFICATE_SLACK = 1e-3


class CheckFailed(Exception):
    pass


def solve_asym_header(M: int, K: int) -> list[str]:
    return (["lambda1", "lambda2", "lambda3", "lambda4"]
            + [f"c_{i + 1}" for i in range(M + K)] + ["cost_oracle", "max_kkt_residual"])


def _number(row: dict, column: str) -> float:
    text = row.get(column, "")
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{column}={text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{column}={text!r} is not finite")
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_table(cmd: Command, header: list[str], rows: list[dict]) -> None:
    M, K = cmd.sizes
    expected = HEADERS.get(cmd.command)
    if cmd.command == "solve-asym":
        expected = solve_asym_header(M, K)
    if expected is not None:
        _require(header == expected, f"CSV header {header} != {expected}")
    _require(len(rows) > 0, "CSV has no data rows")
    if cmd.command in ROWS_FROM_STEPS:
        steps = cmd.config["sweep"]["steps"]
        _require(len(rows) == steps, f"{len(rows)} CSV rows for {steps} sweep steps")
    for row in rows:
        for column in COST_COLUMNS.get(cmd.command, ()):
            value = _number(row, column)
            _require(0.0 <= value <= 1.0, f"{column}={value!r} outside [0, 1]")

    if cmd.command == "simulate":
        row = rows[0]
        mse = _number(row, "empirical_mse")
        se = _number(row, "standard_error")
        analytic = _number(row, "analytic_mse")
        _require(_number(row, "samples") == cmd.samples, "samples column differs from the config")
        _require(abs(mse - analytic) <= MC_SE_BOUND * se,
                 f"empirical {mse!r} is more than {MC_SE_BOUND} SE ({se!r}) from {analytic!r}")
    elif cmd.command == "solve-asym":
        residual = _number(rows[0], "max_kkt_residual")
        _require(residual < KKT_BOUND, f"max_kkt_residual {residual!r} >= {KKT_BOUND}")
    elif cmd.command == "maxcorr":
        for row in rows:
            error = _number(row, "abs_error")
            _require(error <= MAXCORR_BOUND, f"maxcorr abs_error {error!r} > {MAXCORR_BOUND}")
    elif cmd.command == "verify" and cmd.setting == "SymI":
        adversary = next((r for r in rows if r.get("direction") == "AdversaryMax"), None)
        _require(adversary is not None, "verify CSV has no AdversaryMax row")
        base = _number(adversary, "base_cost")
        best = _number(adversary, "best_deviation_cost")
        _require(best <= base + CERTIFICATE_SLACK,
                 f"SymI adversary deviation {best!r} exceeds base {base!r} + {CERTIFICATE_SLACK}")


def check_output(cmd: Command, rc, csv_text: str | None, json_text: str | None) -> tuple[str, str]:
    """Classify one command's result as (OK | NONCONVERGED | FAILED, reason).

    ``rc`` is main()'s return value, or the exception it raised.
    """
    try:
        if isinstance(rc, BaseException):
            raise CheckFailed(f"raised {type(rc).__name__}: {rc}")
        _require(json_text is not None, f"exit {rc} without a JSON report")
        try:
            report = json.loads(json_text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"JSON report does not parse: {exc}") from None
        _require(isinstance(report, dict) and report.get("command") == cmd.command,
                 "JSON report does not name the command")
        if rc == 2:
            _require(cmd.setting == "AsymII" and cmd.command in NONCONVERGING,
                     f"exit 2 from {cmd.command} on {cmd.setting}")
            error = report.get("error")
            _require(isinstance(error, dict) and error.get("type") == "NonConvergence",
                     f"exit 2 with error {error!r}")
            return NONCONVERGED, error.get("message", "")
        _require(rc == 0, f"exit code {rc}")
        _require("error" not in report, "exit 0 with an error block in the JSON report")
        _require(csv_text is not None, "exit 0 without a CSV file")
        table = list(csv.reader(io.StringIO(csv_text)))
        _require(len(table) > 0, "CSV is empty")
        header = table[0]
        rows = [dict(zip(header, r)) for r in table[1:]]
        _require(all(len(r) == len(header) for r in table[1:]), "ragged CSV rows")
        _check_table(cmd, header, rows)
    except CheckFailed as exc:
        return FAILED, str(exc)
    return OK, ""
