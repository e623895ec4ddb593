import ast
import collections
import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import jamnet
from jamnet import cli
from jamnet.cli import main, parse_config, ParseError
from jamnet.model import (EmptyAdversarySet, InvalidProfile, InvalidScenario, JamnetError,
                          NoRoot)


def _write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "setting": "SymI",
        "transmitters": {"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "output_path": str(tmp_path / "run"),
    }
    doc.update(overrides)
    path = tmp_path / name
    # json.dumps writes an infinite float as Infinity, so an out-of-range
    # literal is spliced in as text.
    path.write_text(json.dumps(doc).replace('"<1e400>"', "1e400"))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_minimal_symI():
    doc = json.dumps({
        "setting": "SymI",
        "transmitters": {"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
    })
    cfg = parse_config(doc, "closed-form")
    assert cfg.scenario.num_transmitters == 2


def test_parse_rejects_unknown_key():
    doc = json.dumps({"setting": "SymI", "alpha_vector": [1, 2]})
    with pytest.raises(ParseError, match="alpha_vector"):
        parse_config(doc, "closed-form")


def test_parse_rejects_missing_eta_for_symIII():
    doc = json.dumps({
        "setting": "SymIII",
        "transmitters": {"count": 4, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "epsilon": 0.75,
    })
    with pytest.raises(InvalidScenario, match="eta required"):
        parse_config(doc, "closed-form")


@pytest.mark.parametrize("missing", ["epsilon", "eta"])
def test_main_rejects_symIII_without_its_fractions(tmp_path, capsys, missing):
    doc = _sym3(4, 1, 0.75, 1.0)
    del doc[missing]
    cfg = _write_config(tmp_path, **doc)
    assert main(["closed-form", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"jamnet: invalid config: {missing} required for SymIII\n")
    assert not (tmp_path / "run.json").exists()


def test_parse_simulate_requires_monte_carlo():
    doc = json.dumps({
        "setting": "SymI",
        "transmitters": {"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
    })
    with pytest.raises(ParseError, match="monte_carlo"):
        parse_config(doc, "simulate")


def test_closed_form_run_and_determinism(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg)]) == 0
    csv_bytes = (tmp_path / "run.csv").read_bytes()
    json_bytes = (tmp_path / "run.json").read_bytes()

    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["setting", "M", "K", "alpha", "beta", "P", "cost_printed", "cost_oracle"]
    assert float(rows[1][6]) == pytest.approx(0.6, abs=1e-15)
    assert float(rows[1][7]) == pytest.approx(0.6, abs=1e-15)

    assert main(["closed-form", "--config", str(cfg)]) == 0
    assert (tmp_path / "run.csv").read_bytes() == csv_bytes
    assert (tmp_path / "run.json").read_bytes() == json_bytes


def _sym3(M, K, epsilon, eta, alpha=1.0, beta=1.0, power=1.0):
    sensor = {"alpha": alpha, "beta": beta, "power": power}
    return {"setting": "SymIII", "transmitters": {**sensor, "count": M},
            "adversaries": {**sensor, "count": K}, "epsilon": epsilon, "eta": eta}


def test_closed_form_sym3_on_the_threshold_reports_a_tie(tmp_path):
    # M*epsilon = 2 is the exact root of the threshold quadratic.
    cfg = _write_config(tmp_path, **_sym3(5, 4, 0.4, 0.25))
    assert main(["closed-form", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "run.json").read_text())["report"]
    assert report["multipliers"]["epsilon0"] == pytest.approx(0.4, rel=1e-15)
    notes = report["discrepancy_notes"]
    assert "tie: |epsilon - epsilon0| < 1e-12; both branches apply" in notes
    assert any(note.startswith("stackelberg branch cost = ") for note in notes)


def test_closed_form_sym3_threshold_far_beyond_M(tmp_path):
    cfg = _write_config(tmp_path, **_sym3(4, 2, 0.75, 0.5, beta=1e20, power=1e100))
    assert main(["closed-form", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "run.json").read_text())["report"]
    assert report["multipliers"]["epsilon0"] == pytest.approx(5e19, rel=1e-14)
    assert "branch = stackelberg" in report["discrepancy_notes"]


def test_closed_form_rejects_asym_setting(tmp_path):
    cfg = _write_config(
        tmp_path, setting="AsymI", sum_power_transmit=2.0, sum_power_attack=1.0
    )
    assert main(["closed-form", "--config", str(cfg)]) == 1


def test_invalid_config_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["closed-form", "--config", str(path)]) == 1


def test_solve_asym_runs(tmp_path):
    cfg = _write_config(
        tmp_path, setting="AsymII", sum_power_transmit=2.0, sum_power_attack=1.0
    )
    assert main(["solve-asym", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0][:4] == ["lambda1", "lambda2", "lambda3", "lambda4"]
    assert float(rows[1][-1]) < 1e-8  # max_kkt_residual
    payload = json.loads((tmp_path / "run.json").read_text())
    assert "asym2-multiplier-identity" in payload["known_discrepancy_tags"]
    assert payload["report"]["oracle_cost"] == pytest.approx(5 / 6, abs=1e-10)


def test_solve_asym_nonconvergence_exits_2(tmp_path):
    cfg = _write_config(
        tmp_path,
        setting="AsymII",
        transmitters={"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        adversaries={"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        sum_power_transmit=0.1,
        sum_power_attack=50.0,
    )
    assert main(["solve-asym", "--config", str(cfg)]) == 2
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["error"]["type"] == "NonConvergence"
    assert "residuals" in payload["error"]


def test_simulate_command_and_seed_override(tmp_path):
    cfg = _write_config(
        tmp_path, monte_carlo={"samples": 20000, "seed": 5}
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["samples", "seed", "empirical_mse", "standard_error", "analytic_mse"]
    assert rows[1][1] == "5"
    assert float(rows[1][4]) == pytest.approx(0.6, abs=1e-12)
    assert main(["simulate", "--config", str(cfg), "--seed", "9"]) == 0
    assert _read_csv(tmp_path / "run.csv")[1][1] == "9"


def test_sweep_attack_power_monotone(tmp_path):
    cfg = _write_config(
        tmp_path,
        setting="AsymI",
        sum_power_transmit=2.0,
        sum_power_attack=0.0,
        sweep={"param": "P_A", "from": 0.0, "to": 2.0, "steps": 21},
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert len(rows) == 22  # header + 21 points
    costs = [float(r[2]) for r in rows[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))


def _asym2_document(s, param, start, stop, steps=5):
    """A config document for AsymII scenario ``s`` swept over ``param``."""
    def sensors(group):
        return [{"alpha": p.alpha, "beta": p.beta, "power": p.power} for p in group]

    return {"setting": "AsymII", "transmitters": sensors(s.transmitters),
            "adversaries": sensors(s.adversaries),
            "sum_power_transmit": s.sum_power_transmit, "sum_power_attack": s.sum_power_attack,
            "sweep": {"param": param, "from": start, "to": stop, "steps": steps}}


def _point(s, param, value):
    return cli.validate_scenario(cli._scenario_with(s, param, value))


def _per_point_reports(s, param, values):
    """The reference sweep: each point validated and solved on its own."""
    for value in values:
        yield value, cli.equilibrium_report(_point(s, param, value))


def _fails(s, param, value):
    try:
        jamnet.asym.solve_theorem5(_point(s, param, value))
    except (jamnet.JamnetError, OverflowError):
        return True
    return False


def _sweep_outputs(tmp_path, name, document):
    cfg = tmp_path / f"{name}.cfg.json"
    cfg.write_text(json.dumps(document))
    stem = tmp_path / name
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", str(cfg), "--out", str(stem)])
    files = [Path(f"{stem}{ext}") for ext in (".csv", ".json")]
    return (code, out.getvalue().replace(str(stem), "<out>"), err.getvalue(),
            *(path.read_bytes() if path.exists() else None for path in files))


@pytest.mark.parametrize("chunk", [2, cli.SWEEP_CHUNK])
def test_asym2_budget_sweeps_equal_the_point_by_point_reference(tmp_path, monkeypatch, chunk):
    # The merged lane scans give every byte and exit code of a sweep that
    # solves each point alone, also across chunk boundaries; on exit 2 the
    # JSON holds the first failing point's error (type, message,
    # iterations, residuals).
    from conftest import random_asym_scenario

    monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
    rng = np.random.default_rng(14)
    failing_at = collections.Counter()
    for n in range(6):
        s = random_asym_scenario(rng, jamnet.Setting.ASYM_II)
        for i, (param, start, stop) in enumerate([
                ("P_A", 0.05, 16.0), ("P_A", 16.0, 0.05), ("sum_power_attack", 16.0, -16.0),
                ("P_T", 16.0, 0.05), ("P_T", 0.05, 16.0), ("sum_power_transmit", 4.0, -4.0),
                ("P_A", 0.05, 1e300)]):  # lambda2^2 overflows: the merged scan falls back
            document = _asym2_document(s, param, start, stop)
            name = f"s{n}_{i}"
            got = _sweep_outputs(tmp_path, name, document)
            with monkeypatch.context() as m:
                m.setattr(cli, "_sweep_reports", _per_point_reports)
                want = _sweep_outputs(tmp_path, name + "_ref", document)
            assert got == want, (n, param, start, stop)
            if got[0] == 2:
                values = cli._sweep_values(cli.SweepConfig(param, start, stop, 5))
                first = next(j for j, v in enumerate(values) if _fails(s, param, v))
                failing_at["first" if first == 0 else "last" if first == 4 else "middle"] += 1
            failing_at["exit", got[0]] += 1
    assert failing_at["first"] and failing_at["middle"] and failing_at["last"], failing_at
    assert failing_at["exit", 0] and failing_at["exit", 1], failing_at


def test_asym2_sweep_scans_at_most_a_chunk_of_lanes(tmp_path, monkeypatch):
    lanes = []
    scan = jamnet.asym._outer_residual

    def counted(s, mu, p_t, p_a):
        lanes.append(np.broadcast(mu, p_t).size)
        return scan(s, mu, p_t, p_a)

    monkeypatch.setattr(jamnet.asym, "_outer_residual", counted)
    cfg = _write_config(
        tmp_path, setting="AsymII",
        transmitters=[{"alpha": 1.0, "beta": 0.8, "power": 0.0},
                      {"alpha": 0.6, "beta": 1.5, "power": 0.0}],
        adversaries=_sensors(0.7, 1.1, 0.0),
        sum_power_transmit=3.0, sum_power_attack=0.5,
        sweep={"param": "P_T", "from": 1.0, "to": 5.0, "steps": 200})
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(_read_csv(tmp_path / "run.csv")) == 201
    points = jamnet.asym.OUTER_SCAN_POINTS
    scans = [n for n in lanes if n > 1]
    assert max(lanes) <= cli.SWEEP_CHUNK * points
    assert sum(scans) == 200 * points and len(scans) == -(-200 // cli.SWEEP_CHUNK)


def test_ceo_curve_command(tmp_path):
    cfg = _write_config(
        tmp_path, sweep={"param": "rate", "from": 0.0, "to": 5.0, "steps": 11}
    )
    assert main(["ceo-curve", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["rate", "distortion"]
    assert len(rows) == 12
    assert float(rows[1][1]) == 1.0


def test_maxcorr_command(tmp_path):
    cfg = _write_config(
        tmp_path, sweep={"param": "rho", "from": 0.0, "to": 0.9, "steps": 3}
    )
    assert main(["maxcorr", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["rho", "rho_star", "abs_error"]
    assert all(float(r[2]) <= 1e-2 for r in rows[1:])


def test_verify_command(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["verify", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "run.json").read_text())
    adv = payload["adversary_check"]
    tx = payload["transmitter_check"]
    assert adv["best_deviation_cost"] <= adv["base_cost"] + 1e-3
    assert tx["best_deviation_cost"] >= tx["base_cost"] - 1e-8


_ASYM_BUDGETS = {"setting": "AsymI", "sum_power_transmit": 2.0, "sum_power_attack": 1.0}
_SYM3_FRACTIONS = {"setting": "SymIII", "epsilon": 0.5, "eta": 1.0}


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("closed-form", {"transmitters": {"count": 2, "alpha": "x", "beta": 1.0, "power": 1.0}}),
        ("closed-form", {"adversaries": [{"alpha": None, "beta": 1.0, "power": 1.0}]}),
        ("solve-asym", {**_ASYM_BUDGETS, "sum_power_transmit": "3"}),
        ("closed-form", {**_SYM3_FRACTIONS, "epsilon": "a"}),
        ("closed-form", {"transmitters": {"count": True, "alpha": 1.0, "beta": 1.0, "power": 1.0}}),
        ("simulate", {"monte_carlo": {"samples": 100, "seed": True}}),
        ("closed-form", {"transmitters": {"count": 2, "alpha": 10**400, "beta": 1.0, "power": 1.0}}),
        ("simulate", {"monte_carlo": {"samples": 100, "seed": 1, "chunks": 2}}),
        # One draw has no sample standard deviation, so no standard error.
        ("simulate", {"monte_carlo": {"samples": 1, "seed": 1}}),
        # Integers beyond their bound, rejected before anything is sized by them.
        ("closed-form", {"transmitters": {"count": 10**400, "alpha": 1.0, "beta": 1.0,
                                          "power": 1.0}}),
        ("closed-form", {"adversaries": {"count": cli.MAX_COUNT + 1, "alpha": 1.0, "beta": 1.0,
                                         "power": 1.0}}),
        ("maxcorr", {"sweep": {"param": "rho", "from": 0.0, "to": 0.5, "steps": 10**400}}),
        ("ceo-curve", {"sweep": {"param": "rate", "from": 0.0, "to": 1.0, "steps": 10**400}}),
        ("sweep", {"sweep": {"param": "P", "from": 1.0, "to": 2.0, "steps": cli.MAX_STEPS + 1}}),
        ("simulate", {"monte_carlo": {"samples": 10**20, "seed": 1}}),
        ("simulate", {"monte_carlo": {"samples": cli.MAX_SAMPLES + 1, "seed": 1}}),
        # Numbers that are not finite; a field the setting ignores is no exception.
        ("closed-form", {"sum_power_transmit": float("nan")}),
        ("closed-form", {"epsilon": float("inf")}),
        ("closed-form", {"sum_power_attack": "<1e400>"}),
        ("closed-form", {"sum_power_attack": float("-inf")}),
        ("verify", {**_SYM3_FRACTIONS, "sum_power_transmit": float("nan")}),
        ("closed-form", {"transmitters": {"count": 2, "alpha": 1.0, "beta": "<1e400>",
                                          "power": 1.0}}),
        ("sweep", {"sweep": {"param": "P", "from": 1.0, "to": float("inf"), "steps": 2}}),
    ],
    ids=["alpha-string", "alpha-null", "P_T-string", "epsilon-string", "count-bool", "seed-bool",
         "alpha-int-overflow", "mc-chunks-unknown-key", "samples-1", "count-10e400",
         "count-above-bound", "maxcorr-steps-10e400", "ceo-curve-steps-10e400",
         "sweep-steps-above-bound", "samples-10e20", "samples-above-bound", "SymI-P_T-NaN",
         "SymI-epsilon-Infinity", "SymI-P_A-1e400", "SymI-P_A-minus-Infinity",
         "SymIII-verify-P_T-NaN", "beta-1e400", "sweep-to-Infinity"],
)
def test_bad_numbers_exit_1_with_one_line(tmp_path, capsys, command, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("jamnet: invalid config:")


@pytest.mark.parametrize(
    "overrides, param",
    [
        ({"setting": "SymII"}, "epsilon"),
        ({"setting": "SymI"}, "eta"),
        (_ASYM_BUDGETS, "eta"),
        ({}, "P_A"),
        (_ASYM_BUDGETS, "P"),
        ({}, "rate"),
    ],
)
def test_sweep_rejects_params_that_do_not_apply(tmp_path, capsys, overrides, param):
    cfg = _write_config(
        tmp_path, **overrides, sweep={"param": param, "from": 0.0, "to": 1.0, "steps": 3}
    )
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "does not apply" in capsys.readouterr().err


def _sensors(alpha, beta, power=1.0):
    return {"count": 1, "alpha": alpha, "beta": beta, "power": power}


def test_verify_tiny_adversary_gains_exit_0(tmp_path, capsys):
    # The sum budget splits as alpha_k/|alpha|, and alpha = 1e-200 squares
    # to 0: |alpha| must not be computed from the squares.
    cfg = _write_config(tmp_path, **_ASYM_BUDGETS,
                        adversaries={**_sensors(1e-200, 1.0), "count": 2})
    assert main(["verify", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    text = (tmp_path / "run.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    adv = json.loads(text)["adversary_check"]
    assert adv["best_deviation_cost"] >= adv["base_cost"]


@pytest.mark.parametrize("command", ["solve-asym", "verify"])
def test_asym2_source_copying_adversary_exit_0(tmp_path, capsys, command):
    # An adversary at beta = 1e150 copies the source: at full budget it lands
    # alpha*sqrt(P_A)*S = 0.5*S and own noise far below the float range, and
    # its multiplier bound (1 + beta^2)/alpha^2 is 4e300.  Against the one
    # transmitter (r_t = 1, own_t = 1) the follower leaves N = 0.5, D = 2:
    # cost 1 - 0.25/2.25 = 8/9, which verify certifies on both sides.
    cfg = _write_config(tmp_path, setting="AsymII", sum_power_transmit=2.0,
                        sum_power_attack=1.0, transmitters=_sensors(1.0, 1.0),
                        adversaries=_sensors(0.5, 1e150))
    assert main([command, "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["report"]["oracle_cost"] == pytest.approx(8.0 / 9.0, rel=1e-15)
    if command == "verify":
        for check in ("adversary_check", "transmitter_check"):
            assert payload[check]["deviation_params"].startswith("no ")


def test_asym1_schedule_whose_power_ratio_underflows_exit_0(tmp_path, capsys):
    # P_T/t2 = 1e-300/(2e300/(2 + lambda1*1e300)^2) falls below the float
    # range, but its root does not: the one transmitter spends P_T at
    # c = sqrt(P_T/2) and faces the whole attack, cost 1 - 0.5/2.1 = 16/21.
    cfg = _write_config(tmp_path, setting="AsymI", sum_power_transmit=1e-300,
                        sum_power_attack=0.1, transmitters=_sensors(1e150, 1.0, 0.0),
                        adversaries=_sensors(1.0, 1.0, 0.0))
    assert main(["solve-asym", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    report = json.loads((tmp_path / "run.json").read_text())["report"]
    assert report["profile"]["transmit_coeffs"] == [pytest.approx(math.sqrt(0.5e-300), rel=1e-15)]
    assert report["oracle_cost"] == pytest.approx(16.0 / 21.0, rel=1e-15)


def test_asym2_at_a_budget_far_below_brent_xtol_exit_0(tmp_path, capsys):
    # lambda3 lies in (0, P_T) = (0, 1e-300), far below Brent's absolute
    # xtol of 1e-15; the outer Brent runs on mu = lambda3/P_T in (0, 1), so
    # it still steps to the root, and every residual, the combined
    # power/multiplier identity P_T/lambda3 - P_A/lambda1 - 1 last, is at
    # rounding level.
    cfg = _write_config(tmp_path, setting="AsymII", sum_power_transmit=1e-300,
                        sum_power_attack=0.1, transmitters=_sensors(1e150, 1.0, 0.0),
                        adversaries=_sensors(1.0, 1.0, 0.0))
    for command in ("verify", "solve-asym"):
        assert main([command, "--config", str(cfg)]) == 0, command
    assert len(capsys.readouterr().out.splitlines()) == 2
    residuals = json.loads((tmp_path / "run.json").read_text())["report"]["kkt_residuals"]
    assert max(abs(r) for r in residuals) < jamnet.asym.KKT_TOL
    assert abs(residuals[-1]) < 1e-12


def test_large_budgets_validate_and_exit_0(tmp_path, capsys):
    # Above about 1e7 a full-power profile's rounding exceeds an absolute
    # 1e-9 of its budget; the tolerance grows with the budget.
    for budget in (10 ** (7 + 6 * i / 39) for i in range(40)):
        sensors = {"alpha": 0.9, "beta": 1.2, "power": budget}
        sums = {"sum_power_transmit": budget, "sum_power_attack": budget}
        for setting, command, extra in (("AsymI", "solve-asym", sums), ("AsymI", "verify", sums),
                                        ("SymI", "simulate", _MC), ("SymII", "simulate", _MC)):
            cfg = _write_config(tmp_path, setting=setting, transmitters={**sensors, "count": 3},
                                adversaries={**sensors, "count": 2}, **extra)
            s = parse_config(cfg.read_text(), command).scenario
            jamnet.validate_profile(s, cli.equilibrium_report(s).profile)
            assert main([command, "--config", str(cfg)]) == 0, (setting, command, budget)
    capsys.readouterr()


# alpha^2*P overflows inside a product: E{Y^2} is inf and the cost inf/inf.
_OVERFLOWING_PRODUCT = {
    "SymI": {"transmitters": {**_sensors(1e100, 1.0, 1e200), "count": 2},
             "adversaries": _sensors(1e100, 1.0, 1e200)},
    "SymII": {"setting": "SymII", "transmitters": {**_sensors(1e100, 1e-100, 1e200), "count": 2},
              "adversaries": _sensors(1e100, 1e-100, 1e200)},
}
_MC = {"monte_carlo": {"samples": 1000, "seed": 1}}


@pytest.mark.parametrize(
    "command, overrides, error",
    [
        ("closed-form", {"transmitters": {**_sensors(1e200, 1e200), "count": 2},
                         "adversaries": _sensors(1e200, 1e200)}, "OverflowError"),
        ("closed-form", {"transmitters": {**_sensors(1e170, 1.0), "count": 2},
                         "adversaries": _sensors(1e170, 1.0)}, "OverflowError"),
        ("solve-asym", {**_ASYM_BUDGETS, "transmitters": _sensors(1e-200, 1e-200)},
         "DegenerateInput"),
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": _sensors(1e-200, 1e-200)}, "DegenerateInput"),
        ("solve-asym", {**_ASYM_BUDGETS, "transmitters": _sensors(1e200, 1.0)}, "OverflowError"),
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": _sensors(1e200, 1.0)}, "OverflowError"),
        # An adversary at alpha = beta = 1e-100 lands nothing: its follower
        # exists at every scanned lambda3 (lambda1 near 3e199), and the outer
        # residual stays positive on the scan.
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": [{"alpha": 1e-100, "beta": 1e-100, "power": 0.0},
                                         {"alpha": 1.0, "beta": 1.0, "power": 0.0}],
                        "adversaries": _sensors(1e-100, 1e-100)}, "NonConvergence"),
        # An adversary at alpha = 1e-100 beside two ordinary transmitters: its
        # follower's lambda1 is near 1e100, and the outer residual stays
        # positive on the scan.
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": [{"alpha": 1.0, "beta": 1.0, "power": 0.0},
                                         {"alpha": 0.5, "beta": 2.0, "power": 0.0}],
                        "adversaries": _sensors(1e-100, 1.0)}, "NonConvergence"),
        # The transmit multiplier times alpha^2 overflows (Theorem 4's lambda1
        # near P_T; the top of Theorem 5's lambda3 grid reaches P_T): the
        # transmit-side sum underflows although every alpha*beta is ordinary.
        ("solve-asym", {**_ASYM_BUDGETS, "sum_power_transmit": 1e300,
                        "transmitters": _sensors(1.0, 0.8)}, "NumericalFailure"),
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII", "sum_power_transmit": 1e300,
                        "transmitters": _sensors(1.0, 0.8)}, "NumericalFailure"),
        # sum(beta^2) overflows: every distortion would be inf/inf.
        ("ceo-curve", {"transmitters": _sensors(1.0, 1e200), "adversaries": []},
         "NumericalFailure"),
        # alpha^2 overflows: the setting-II target of the threshold is inf/inf.
        ("closed-form", _sym3(4, 2, 0.75, 0.5, alpha=1e200, beta=1e20, power=1e100),
         "NumericalFailure"),
        # Zero power pins both costs at 1: the threshold target is never reached.
        ("closed-form", _sym3(4, 2, 0.75, 0.5, power=0.0), "NoRoot"),
    ]
    + [(command, {**_OVERFLOWING_PRODUCT[setting], **_MC}, "NumericalFailure")
       for setting in ("SymI", "SymII") for command in ("closed-form", "simulate", "verify")],
    ids=["SymI-gain-1e200", "SymI-alpha-1e170", "AsymI-no-information-path",
         "AsymII-no-information-path", "AsymI-alpha-1e200", "AsymII-alpha-1e200",
         "AsymII-scan-square-overflow", "AsymII-weak-adversary", "AsymI-transmit-overflow",
         "AsymII-transmit-overflow", "ceo-curve-beta-1e200", "SymIII-alpha-1e200",
         "SymIII-power-0"]
    + [f"{setting}-{command}-alpha2P-overflow"
       for setting in ("SymI", "SymII") for command in ("closed-form", "simulate", "verify")],
)
def test_numerical_failures_exit_2_with_error_block(tmp_path, capsys, command, overrides, error):
    cfg = _write_config(tmp_path, **overrides)
    (tmp_path / "run.csv").write_text("left by an earlier run\n")
    assert main([command, "--config", str(cfg)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(f"jamnet {command}: FAILED ({error}")
    text = (tmp_path / "run.json").read_text()
    assert "NaN" not in text
    assert _strict_json(text)["error"]["type"] == error
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("command", ["closed-form", "simulate", "verify"])
@pytest.mark.parametrize("M, K, alpha, beta, power, cost", [
    # alpha^2*K^2 = 4e308 overflows, but the received jamming power
    # K^2*alpha*(alpha*P) = 4e208 does not: with v = u^2 = 1e208/2, the cost
    # is (3v + 4e208 + 1)/(9u^2 + 3v + 4e208 + 1) = 5.5/10.
    (3, 2, 1e154, 1.0, 1e-100, 0.55),
    # 1 + beta^2 overflows, but c = 1e-155 does not: u = 1, v = 1e-310 and
    # the power c^2*(1 + beta^2) = 1 is within the budget, cost 2/6.
    (2, 1, 1.0, 1e155, 1.0, 1.0 / 3.0),
], ids=["alpha2K2-overflow", "beta-1e155"])
def test_sym1_past_a_squared_gain_exit_0(tmp_path, capsys, command, M, K, alpha, beta, power, cost):
    cfg = _write_config(tmp_path, **_MC, transmitters={**_sensors(alpha, beta, power), "count": M},
                        adversaries={**_sensors(alpha, beta, power), "count": K})
    assert main([command, "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    report = _strict_json((tmp_path / "run.json").read_text())["report"]
    assert abs(report["cost"] - cost) <= 1e-12
    assert abs(report["oracle_cost"] - cost) <= 1e-12


def _strict_json(text: str):
    """json.loads that refuses the non-standard NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def test_nonfinite_residuals_are_written_as_null(tmp_path, capsys):
    # m_k = 1 + beta_k^2 overflows in the KKT check: the residuals hold -inf
    # and NaN, which the error block writes as null.
    cfg = _write_config(tmp_path, setting="AsymII", sum_power_transmit=2.0,
                        sum_power_attack=1e-6, transmitters=_sensors(1.0, 1.0),
                        adversaries=_sensors(1.0, 1e200))
    assert main(["solve-asym", "--config", str(cfg)]) == 2
    capsys.readouterr()
    residuals = _strict_json((tmp_path / "run.json").read_text())["error"]["residuals"]
    assert None in residuals
    assert all(r is None or math.isfinite(r) for r in residuals)
    assert any(isinstance(r, float) for r in residuals)


@pytest.mark.parametrize(
    "command, sweep",
    [
        ("maxcorr", {"param": "rho", "from": 0.0, "to": 1.0, "steps": 3}),
        ("maxcorr", {"param": "rho", "from": -1.5, "to": -1.5, "steps": 1}),
        ("maxcorr", {"param": "rate", "from": 0.0, "to": 1.0, "steps": 3}),
        ("ceo-curve", {"param": "rate", "from": -1.0, "to": 1.0, "steps": 3}),
        ("ceo-curve", {"param": "rho", "from": 0.0, "to": 0.5, "steps": 3}),
        ("ceo-curve", {"param": "P", "from": 0.0, "to": 1.0, "steps": 3}),
    ],
    ids=["maxcorr-rho-1", "maxcorr-rho-minus-1.5", "maxcorr-rate", "ceo-rate-minus-1",
         "ceo-rho", "ceo-P"],
)
def test_axis_commands_validate_their_sweep(tmp_path, capsys, command, sweep):
    cfg = _write_config(tmp_path, sweep=sweep)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("jamnet: invalid config:")



@pytest.mark.parametrize("command, overrides, stem", [
    ("closed-form", {}, "a-file/run"),
    # The exit-2 path writes its error report to the same place.
    ("solve-asym", {"setting": "AsymII", "sum_power_transmit": 0.1, "sum_power_attack": 50.0},
     "a-file/run"),
    ("closed-form", {}, "ru\u0000n"),
], ids=["success", "exit-2", "nul-in-path"])
def test_unwritable_outputs_exit_1_with_one_line(tmp_path, capsys, command, overrides, stem):
    (tmp_path / "a-file").write_text("")
    cfg = _write_config(tmp_path, **overrides, output_path=str(tmp_path / stem))
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("jamnet: cannot write outputs:")


_SENSOR_1 = {"alpha": 1.0, "beta": 1.0, "power": 1.0}
_SYM1 = {"setting": "SymI", "transmitters": {**_SENSOR_1, "count": 2},
         "adversaries": {**_SENSOR_1, "count": 1}}


# Each object of the schema: not an object, a required key missing, an unknown
# key.  The error line names the object or the key.
@pytest.mark.parametrize("command, document, named", [
    ("closed-form", ["SymI"], "must be"),
    ("closed-form", {"transmitters": _SYM1["transmitters"]}, "'setting'"),
    ("closed-form", {**_SYM1, "gain": 1.0}, "'gain'"),
    ("closed-form", {**_SYM1, "transmitters": [1.0]}, "transmitters[0]"),
    ("closed-form", {**_SYM1, "transmitters": [{"alpha": 1.0, "beta": 1.0}]}, "'power'"),
    ("closed-form", {**_SYM1, "transmitters": [{**_SENSOR_1, "gain": 1.0}]}, "'gain'"),
    ("closed-form", {**_SYM1, "transmitters": 2}, "transmitters"),
    ("closed-form", {**_SYM1, "transmitters": _SENSOR_1}, "'count'"),
    ("closed-form", {**_SYM1, "transmitters": {**_SENSOR_1, "count": 2, "gain": 1.0}}, "'gain'"),
    ("simulate", {**_SYM1, "monte_carlo": [1000, 1]}, "monte_carlo"),
    ("simulate", {**_SYM1, "monte_carlo": {"samples": 1000}}, "'seed'"),
    ("simulate", {**_SYM1, "monte_carlo": {"samples": 1000, "seed": 1, "blocks": 2}}, "'blocks'"),
    ("sweep", {**_SYM1, "sweep": "P"}, "sweep"),
    ("sweep", {**_SYM1, "sweep": {"param": "P", "from": 1.0, "to": 2.0}}, "'steps'"),
    ("sweep", {**_SYM1, "sweep": {"param": "P", "from": 1.0, "to": 2.0, "steps": 2, "by": 1}},
     "'by'"),
], ids=[f"{where}-{case}" for where in ("top", "entry", "shorthand", "monte_carlo", "sweep")
        for case in ("not-object", "missing", "unknown")])
def test_schema_objects_exit_1_naming_the_key(tmp_path, capsys, command, document, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("jamnet: invalid config:") and named in err[0]


def test_sweep_missing_keys_error_is_the_same_under_any_hash_seed(tmp_path):
    cfg = _write_config(tmp_path, sweep={})
    src = str(Path(jamnet.__file__).resolve().parents[1])
    errs = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "jamnet.cli", "sweep", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        errs.add(done.stderr)
    assert errs == {"jamnet: invalid config: sweep missing 'param'\n"}


@pytest.mark.parametrize("data, error", [
    (b'{"setting": "SymI", "transmitters": [], "setting": "SymII"}',
     "invalid config: repeated key 'setting'"),
    (b'{"setting": "SymI", "transmitters": [{"alpha": 1, "beta": 1, "power": 1, "alpha": 2}]}',
     "invalid config: repeated key 'alpha'"),
    # Integers past Python's 4300-digit conversion limit, and nesting past the
    # recursion limit, fail inside the JSON reader.
    (b'{"setting": "SymI", "transmitters": {"count": 1%s}}' % (b"0" * 5000),
     "invalid config: config is not readable JSON"),
    (b'{"setting": "SymI", "adversaries": %s}' % (b"[" * 5000 + b"]" * 5000),
     "invalid config: config is not readable JSON"),
    (b"\xff\xfe{}", "cannot read config:"),
], ids=["top-level-repeat", "sensor-entry-repeat", "5000-digit-integer", "5000-deep-nesting",
        "not-utf8"])
def test_unreadable_configs_exit_1_with_one_line(tmp_path, capsys, data, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert main(["closed-form", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"jamnet: {error}")


def test_out_with_suffix_writes_both_files(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    assert (tmp_path / "x.csv").is_file() and (tmp_path / "x.json").is_file()
    assert not (tmp_path / "run.csv").exists()


def test_empty_out_exits_1_with_one_line(tmp_path, capsys):
    # As an empty output_path does: no run falls back to the config's stem.
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg), "--out", ""]) == 1
    assert capsys.readouterr() == ("", "jamnet: invalid config: --out must be a nonempty string\n")
    assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("where", ["output_path", "--out"])
@pytest.mark.parametrize("name", [".csv", "sub/", "sub/.csv", "runs/.json"])
def test_a_stem_that_names_no_file_exits_1_and_writes_nothing(tmp_path, capsys, where, name):
    # With its one .csv/.json suffix dropped, the stem would be empty or a
    # directory, and the run would write hidden .csv and .json files.
    work = tmp_path / "work"
    work.mkdir()
    stem = f"{work}/{name}"
    if where == "--out":
        argv = ["--out", stem]
        cfg = _write_config(tmp_path)
    else:
        argv = []
        cfg = _write_config(tmp_path, output_path=stem)
    assert main(["closed-form", "--config", str(cfg), *argv]) == 1
    assert capsys.readouterr() == ("", f"jamnet: invalid config: {where} must name a file\n")
    assert not any(work.iterdir()) and not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command, overrides", [
    ("verify", {}),
    ("closed-form", {}),
    ("simulate", {**_ASYM_BUDGETS, "setting": "AsymII", **_MC}),
], ids=["verify", "no-monte-carlo", "AsymII-simulate"])
def test_seed_out_of_range_exits_1_before_any_solve(tmp_path, capsys, monkeypatch, command,
                                                    overrides, seed):
    def solve(s):
        raise AssertionError("the seed is read before any solve")

    monkeypatch.setattr(cli, "equilibrium_report", solve)
    cfg = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg), "--seed", str(seed)]) == 1
    assert capsys.readouterr() == (
        "", "jamnet: invalid config: --seed must be an integer from 0 to 18446744073709551615\n")
    assert not (tmp_path / "run.json").exists()


def test_seed_without_monte_carlo_changes_nothing(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg)]) == 0
    plain = [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")]
    assert main(["closed-form", "--config", str(cfg), "--seed", "9"]) == 0
    assert [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")] == plain


@pytest.mark.parametrize("overrides", [
    # beta = 1e-11 puts r_t near 2e-11 and the adversary's source share near
    # 1e-11 of its own-noise amplitude.
    {"setting": "SymII", "transmitters": {**_sensors(1.0, 1e-11), "count": 2},
     "adversaries": _sensors(1.0, 1e-11)},
    {"setting": "SymII", "transmitters": {**_sensors(1e-12, 1e-11), "count": 2},
     "adversaries": _sensors(1e-12, 1e-11)},
    # alpha = 1e-300: r_t^2 and the nulling power underflow to 0.
    {"setting": "SymII", "transmitters": {**_sensors(1e-300, 1.0), "count": 2},
     "adversaries": _sensors(1e-300, 1.0)},
    # An adversary whose beta/alpha, 1e400, lies beyond the float range.
    {"setting": "AsymII", "sum_power_transmit": 1.0, "sum_power_attack": 1.0,
     "transmitters": {**_sensors(1.0, 1.0), "count": 2},
     "adversaries": [{"alpha": 1e-300, "beta": 1e100, "power": 1.0},
                     {"alpha": 1.0, "beta": 0.5, "power": 1.0}]},
])
def test_verify_extreme_gains_exit_0(tmp_path, overrides):
    # The adversary check's Theorem-5 follower and nulling test work with
    # ratios of like powers, so no gain scale breaks them.
    cfg = _write_config(tmp_path, **overrides)
    assert main(["verify", "--config", str(cfg)]) == 0
    text = (tmp_path / "run.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    adv = json.loads(text)["adversary_check"]
    assert adv["best_deviation_cost"] >= adv["base_cost"]


@pytest.mark.parametrize("overrides", [
    {"setting": "SymII", "transmitters": {**_sensors(8.21e127, 2.16e196, 6.66e22), "count": 6},
     "adversaries": _sensors(8.21e127, 2.16e196, 6.66e22)},
    _sym3(3, 2, 0.0, 1.0, alpha=3.7416074945433805e149, beta=6.310504671531278e176,
          power=1.8364179601674006e-111),
], ids=["SymII", "SymIII-stackelberg"])
def test_verify_where_alpha_beta_overflows_exit_0(tmp_path, capsys, overrides):
    # alpha*beta overflows while beta*c*alpha, the oracle's source term, does
    # not: the adversary check's follower sums the transmitters as the oracle
    # does, so it exists wherever the report's cost does.
    cfg = _write_config(tmp_path, **overrides)
    for command in ("closed-form", "verify"):
        assert main([command, "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    payload = _strict_json((tmp_path / "run.json").read_text())
    for check in ("adversary_check", "transmitter_check"):
        assert math.isfinite(payload[check]["best_deviation_cost"])


_ASYM2_BUDGETS = {**_ASYM_BUDGETS, "setting": "AsymII"}


@pytest.mark.parametrize("command, overrides, error", [
    ("closed-form", {"setting": "SymIV"}, "unknown setting 'SymIV'"),
    ("sweep", {"sweep": {"param": "gamma", "from": 0.0, "to": 1.0, "steps": 3}},
     "unknown sweep param 'gamma'"),
    ("closed-form", {"output_path": ""}, "output_path must be a nonempty string"),
    ("closed-form", {"output_path": 3}, "output_path must be a nonempty string"),
    ("ceo-curve", {"transmitters": []}, "ceo-curve needs at least one transmitter"),
    ("closed-form", _sym3(4, 3, 0.5, 0.5), "K*eta must be an integer (got 1.5)"),
    ("solve-asym", {"setting": "AsymI", "sum_power_transmit": 2.0},
     "P_A required for asymmetric settings"),
    ("solve-asym", {**_ASYM2_BUDGETS, "adversaries": []},
     "solve_theorem5 requires at least one adversary"),
    ("solve-asym", {**_ASYM2_BUDGETS, "transmitters": []},
     "solve_theorem5 requires at least one transmitter"),
    ("solve-asym", {**_ASYM2_BUDGETS, "sum_power_attack": 0.0}, "solve_theorem5 requires P_A > 0"),
    # The merged scan's follower raises EmptyAdversarySet; each point then
    # solves alone and refuses the scenario.
    ("sweep", {**_ASYM2_BUDGETS, "adversaries": [],
               "sweep": {"param": "P_A", "from": 0.5, "to": 1.0, "steps": 3}},
     "solve_theorem5 requires at least one adversary"),
], ids=["unknown-setting", "unknown-sweep-param", "output-path-empty", "output-path-number",
        "ceo-curve-no-transmitters", "SymIII-K-eta-fraction", "AsymI-no-P_A",
        "AsymII-no-adversaries", "AsymII-no-transmitters", "AsymII-P_A-0",
        "AsymII-P_A-sweep-no-adversaries"])
def test_invalid_inputs_exit_1_with_one_line(tmp_path, capsys, command, overrides, error):
    cfg = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"jamnet: invalid config: {error}\n")


@pytest.mark.parametrize("error", [EmptyAdversarySet, NoRoot, JamnetError])
@pytest.mark.parametrize("command, overrides", [
    ("closed-form", {}),
    ("simulate", _MC),
    ("verify", {}),
    ("sweep", {"sweep": {"param": "alpha", "from": 1.0, "to": 2.0, "steps": 2}}),
])
def test_any_package_error_exits_2_with_error_block(tmp_path, capsys, monkeypatch, error,
                                                    command, overrides):
    def fail(s):
        raise error("no adversarial sensors")

    monkeypatch.setattr(cli, "equilibrium_report", fail)
    cfg = _write_config(tmp_path, **overrides)
    (tmp_path / "run.csv").write_text("left by an earlier run\n")
    assert main([command, "--config", str(cfg)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == [f"jamnet {command}: FAILED ({error.__name__}: no adversarial sensors)"]
    report = json.loads((tmp_path / "run.json").read_text())
    assert report["error"] == {"type": error.__name__, "message": "no adversarial sensors",
                               "iterations": None, "residuals": []}
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("error", [InvalidProfile, InvalidScenario, ParseError])
def test_invalid_input_errors_keep_exit_1(tmp_path, capsys, monkeypatch, error):
    def fail(s):
        raise error("bad input")

    monkeypatch.setattr(cli, "equilibrium_report", fail)
    assert main(["verify", "--config", str(_write_config(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "jamnet: invalid config: bad input\n"


def test_cli_runs_without_scipy(tmp_path):
    # A fresh interpreter in which importing scipy fails: every command exits
    # 0, and no part of scipy is loaded, neither an optimization library for
    # the solvers and certificates nor a normal CDF for maxcorr.  Nor is
    # concurrent.futures: the Monte Carlo stripes run on plain threads.
    sym2 = _write_config(tmp_path, "sym2.json", setting="SymII",
                         transmitters={"count": 3, "alpha": 1.0, "beta": 1.0, "power": 1.0},
                         adversaries={"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0})
    asym2 = _write_config(tmp_path, "asym2.json", setting="AsymII", sum_power_transmit=2.0,
                          sum_power_attack=1.0)
    runs = [
        ("closed-form", sym2),
        ("solve-asym", asym2),
        ("simulate", _write_config(tmp_path, "simulate.json",
                                   monte_carlo={"samples": 10_000, "seed": 1})),
        ("verify", sym2),
        ("sweep", _write_config(tmp_path, "sweep.json", sweep={
            "param": "alpha", "from": 0.5, "to": 1.5, "steps": 3})),
        ("ceo-curve", _write_config(tmp_path, "ceo.json", sweep={
            "param": "rate", "from": 0.0, "to": 2.0, "steps": 3})),
        ("maxcorr", _write_config(tmp_path, "maxcorr.json", sweep={
            "param": "rho", "from": 0.0, "to": 0.8, "steps": 2})),
    ]
    code = "\n".join([
        "class RefuseScipy:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.split('.')[0] == 'scipy':",
        "            raise ModuleNotFoundError(f'{name} is refused')",
        "sys.meta_path.insert(0, RefuseScipy())",
        "from jamnet import cli",
        *(f"assert cli.main([{command!r}, '--config', {str(cfg)!r}]) == 0, {command!r}"
          for command, cfg in runs),
    ])
    loaded = _modules_after(code)
    assert not any(m.split(".")[0] == "scipy" for m in loaded)
    assert {"jamnet.asym", "jamnet.bounds", "jamnet.simulate", "jamnet.symmetric"} <= loaded
    assert "concurrent.futures" not in loaded
    assert (tmp_path / "run.json").exists()


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code`` (which
    may use ``sys``), with this checkout's jamnet first on its path."""
    src = str(Path(jamnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = f"import sys\n{code}\nprint(sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_a_command_imports_only_the_modules_it_runs(tmp_path):
    # Each fresh interpreter imports the cli and runs at most one command: the
    # package's exports are lazy and each runner imports its own solver
    # module, so start-up pays only for what the command runs.  (Every
    # command in one interpreter: test_cli_runs_without_scipy.)
    solvers = {"jamnet.asym", "jamnet.symmetric", "jamnet.simulate", "jamnet.bounds"}

    def after(*runs):
        return _modules_after("\n".join([
            "from jamnet import cli",
            *(f"assert cli.main([{command!r}, '--config', {str(cfg)!r}]) == {code}, {command!r}"
              for command, cfg, code in runs)]))

    bare = _modules_after("import jamnet.cli")
    assert "jamnet.cli" in bare and not bare & (solvers | {"numpy"})
    rejected = _write_config(tmp_path, "rejected.json", monte_carlo={"samples": 1, "seed": 1})
    assert "numpy" not in after(("simulate", rejected, 1))
    maxcorr = _write_config(tmp_path, "maxcorr.json", sweep={
        "param": "rho", "from": 0.0, "to": 0.8, "steps": 2})
    assert after(("maxcorr", maxcorr, 0)) & solvers == {"jamnet.bounds"}
    asym2 = _write_config(tmp_path, "asym2.json", setting="AsymII", sum_power_transmit=2.0,
                          sum_power_attack=1.0)
    assert after(("solve-asym", asym2, 0)) & solvers == {"jamnet.asym"}


def test_package_exports_resolve_to_their_modules_objects():
    for name in jamnet.__all__:
        module = importlib.import_module(f"jamnet.{jamnet._EXPORTS[name]}")
        assert getattr(jamnet, name) is getattr(module, name), name
    assert set(jamnet.__all__) <= set(dir(jamnet))
    with pytest.raises(AttributeError, match="no_such_name"):
        jamnet.no_such_name


# -- config fuzz: every document ends in exit 0, 1 or 2 with one line --------

# Junk: wrong types, an integer beyond the float range, NaN and infinities
# (which JSON does not allow, though Python's reader takes them), and
# nonpositive numbers.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(st.integers(-1, 1), max_size=2), st.just(10**400),
                  st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                  st.floats(-1e300, 0.0))
_NUMBER = st.one_of(
    st.sampled_from([1.0, 0.25, 0.8, 1.5, 3.0]),
    st.sampled_from([1e-300, 1e-200, 1e-100, 1e-8, 1e8, 1e100, 1e170, 1e200, 1e300]),
    st.floats(1e-300, 1e300),
)
_FRACTIONS = st.sampled_from([0.5, 0.25, 0.75, 1.0, 0.0])
_FRACTION = st.one_of(_FRACTIONS, _FRACTIONS, _NUMBER)
_SENSOR = st.fixed_dictionaries({"alpha": _NUMBER, "beta": _NUMBER, "power": _NUMBER})


def _slots(node):
    """Every (container, key) of a JSON document, depth first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def _documents(draw):
    """Config documents: both sensor groups often share one (alpha, beta,
    power), as the symmetric settings require, and about half the documents
    carry one junk value in a random place (or under an unknown key)."""
    shared = draw(_SENSOR)

    def group(counts):
        shorthand = st.builds(lambda count: {**shared, "count": count}, counts)
        return st.one_of(shorthand, shorthand, shorthand, st.lists(_SENSOR, max_size=3))

    document = draw(st.fixed_dictionaries(
        {"setting": st.sampled_from(["SymI", "SymII", "SymIII", "AsymI", "AsymII"]),
         "transmitters": group(st.integers(1, 4)), "adversaries": group(st.integers(0, 3)),
         "sum_power_transmit": _NUMBER, "sum_power_attack": _NUMBER,
         "epsilon": _FRACTION, "eta": _FRACTION,
         "monte_carlo": st.fixed_dictionaries(
             {"samples": st.integers(1, 2000), "seed": st.integers(0, 2**64 - 1)})},
        optional={
            "sweep": st.fixed_dictionaries(
                {"param": st.sampled_from(sorted(cli._SWEEP_PARAMS)),
                 "from": _FRACTION, "to": _NUMBER, "steps": st.integers(1, 3)}),
        },
    ))
    if draw(st.booleans()):
        container, key = draw(st.sampled_from([*_slots(document), (document, "junk")]))
        container[key] = draw(_JUNK)
    return document


# --out values, relative to the work directory, and the stem each writes to;
# None for those that name no file once the suffix is dropped, or are empty.
_OUT_STEMS = {None: "run", "plain": "plain", "x.csv": "x", ".json": None, "sub/": None, "": None}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(cli.COMMANDS), document=_documents(),
       out=st.sampled_from(list(_OUT_STEMS)), seed=st.sampled_from([None, 9, -1, 2**64]))
@example(command="ceo-curve", document={  # sum(beta^2) overflows
    "setting": "SymI", "transmitters": _sensors(1.0, 1e200), "adversaries": []},
    out=None, seed=None)
@example(command="closed-form", document={  # a NaN the SymI solver never reads
    "setting": "SymI", "transmitters": {**_sensors(1.0, 1.0), "count": 2},
    "adversaries": _sensors(1.0, 1.0), "sum_power_transmit": float("nan")},
    out=None, seed=None)
@example(command="closed-form", document={  # alpha^2*K^2 overflows before the product with P
    "setting": "SymI", "transmitters": {**_sensors(1e154, 1.0, 1e-100), "count": 3},
    "adversaries": {**_sensors(1e154, 1.0, 1e-100), "count": 2}}, out=None, seed=None)
@example(command="closed-form", document=_SYM1, out=".json", seed=None)  # a suffix alone
@example(command="verify", document=_SYM1, out="sub/", seed=None)  # a directory
@example(command="verify", document=_SYM1, out=None, seed=-1)  # no monte_carlo takes it
@example(command="simulate", document={**_SYM1, **_MC}, out="plain", seed=2**64)
def test_config_fuzz_ends_in_a_documented_exit(tmp_path_factory, command, document, out, seed):
    # Gains and powers from 1e-300 to 1e300 and junk in any field: the run exits 0,
    # 1 or 2 with one line, and a report (exit 0 or 2) holds no NaN or infinity.
    # An --out that names no file, or a --seed outside 0..2^64-1, exits 1 and
    # no hidden .csv/.json file appears.
    work = tmp_path_factory.getbasetemp() / "fuzz"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    config = work / "cfg.json"
    config.write_text(json.dumps({**document, "output_path": str(work / "run")}))
    argv = [command, "--config", str(config)]
    if out is not None:
        argv += ["--out", out and f"{work}/{out}"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out_text, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = (out_text.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1 and lines[0]
    assert not [path for path in work.rglob("*") if path.name in (".csv", ".json")]
    if _OUT_STEMS[out] is None or seed not in (None, 9):
        assert code == 1
    if code in (0, 2):
        text = (work / f"{_OUT_STEMS[out]}.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
