import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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
    with pytest.raises(ParseError, match="eta required"):
        parse_config(doc, "closed-form")


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
         "alpha-int-overflow", "mc-chunks-unknown-key", "count-10e400", "count-above-bound",
         "maxcorr-steps-10e400", "ceo-curve-steps-10e400", "sweep-steps-above-bound",
         "samples-10e20", "samples-above-bound", "SymI-P_T-NaN", "SymI-epsilon-Infinity",
         "SymI-P_A-1e400", "SymI-P_A-minus-Infinity", "SymIII-verify-P_T-NaN", "beta-1e400",
         "sweep-to-Infinity"],
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
        # lambda1 reaches 1e200 and lambda2^2 overflows in the outer scan.
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": [{"alpha": 1e-100, "beta": 1e-100, "power": 0.0},
                                         {"alpha": 1.0, "beta": 1.0, "power": 0.0}],
                        "adversaries": _sensors(1e-100, 1e-100)}, "OverflowError"),
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
         "AsymII-scan-square-overflow", "ceo-curve-beta-1e200", "SymIII-alpha-1e200",
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
    assert json.loads(text)["error"]["type"] == error
    assert not (tmp_path / "run.csv").exists()


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


def test_seed_without_monte_carlo_changes_nothing(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg)]) == 0
    plain = [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")]
    assert main(["closed-form", "--config", str(cfg), "--seed", "9"]) == 0
    assert [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")] == plain


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


def test_cli_runs_without_scipy_optimize(tmp_path):
    # A fresh interpreter: the package's solvers and certificates load no
    # optimization library (only maxcorr uses scipy, for its normal CDF).
    sym2 = _write_config(tmp_path, "sym2.json", setting="SymII",
                         transmitters={"count": 3, "alpha": 1.0, "beta": 1.0, "power": 1.0},
                         adversaries={"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0})
    asym2 = _write_config(tmp_path, "asym2.json", setting="AsymII", sum_power_transmit=2.0,
                          sum_power_attack=1.0)
    code = "\n".join([
        "import sys",
        "from jamnet import cli",
        f"assert cli.main(['verify', '--config', {str(sym2)!r}]) == 0",
        f"assert cli.main(['solve-asym', '--config', {str(asym2)!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))",
    ])
    src = str(Path(jamnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run.json").exists()


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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(cli.COMMANDS), document=_documents())
@example(command="ceo-curve", document={  # sum(beta^2) overflows
    "setting": "SymI", "transmitters": _sensors(1.0, 1e200), "adversaries": []})
@example(command="closed-form", document={  # a NaN the SymI solver never reads
    "setting": "SymI", "transmitters": {**_sensors(1.0, 1.0), "count": 2},
    "adversaries": _sensors(1.0, 1.0), "sum_power_transmit": float("nan")})
def test_config_fuzz_ends_in_a_documented_exit(tmp_path_factory, command, document):
    # Gains and powers from 1e-300 to 1e300 and junk in any field: the run exits 0,
    # 1 or 2 with one line, and a successful run writes no NaN or infinity.
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    config = work / "cfg.json"
    config.write_text(json.dumps({**document, "output_path": str(work / "run")}))
    for name in ("run.csv", "run.json"):
        (work / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config)])
    assert code in (0, 1, 2)
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1 and lines[0]
    if code == 0:
        text = (work / "run.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
